//! Prints determinism fingerprints (events processed, virtual elapsed
//! time, journal byte length + FNV-1a hash, and the FNV-1a of the
//! latency-breakdown totals) for every pinned input of
//! `prdma_suite::fingerprint`. Used to pin the regression constants in
//! `tests/determinism_and_properties.rs`. `FP_OPS` overrides the
//! operation count (the pinned constants use 300).

use prdma_suite::fingerprint::{run, trace_fnv, trace_totals, Input};

fn main() {
    let ops: u64 = std::env::var("FP_OPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(300);
    for input in Input::all() {
        let fp = run(input, ops);
        let trace = trace_totals(input, ops);
        println!(
            "{:<24} events={} elapsed_ns={} ops={} journal_bytes={} journal_fnv={:#018x} \
             trace_fnv={:#018x}",
            format!("{input:?}"),
            fp.events,
            fp.elapsed_ns,
            ops,
            fp.journal_len,
            fp.journal_fnv,
            trace_fnv(&trace),
        );
    }
}
