//! A dropped `Sim` returns its memory (ISSUE 14): build a 2-shard world,
//! push 2 000 × 4 KB durable puts and a node crash through it, drop
//! everything, twenty times over — the process's resident set must stop
//! growing once the allocator has warmed up.
//!
//! This file is its own test binary with a single `#[test]` on purpose:
//! `VmRSS` is per process, and a sibling test running on another thread
//! would move it.

use prdma_bench::exp::{build_run_drop, proc_status_kib};

const CYCLES: usize = 20;
const WARM_CYCLE: usize = 3;
const SLACK_KIB: u64 = 8 * 1024;

#[test]
fn resident_set_is_flat_across_twenty_sims() {
    if proc_status_kib("VmRSS").is_none() {
        eprintln!("skipped: /proc/self/status has no VmRSS on this platform");
        return;
    }
    let mut rss = Vec::with_capacity(CYCLES);
    for cycle in 0..CYCLES {
        build_run_drop(cycle as u64);
        rss.push(proc_status_kib("VmRSS").expect("VmRSS was readable a moment ago"));
    }
    let (warm, last) = (rss[WARM_CYCLE - 1], rss[CYCLES - 1]);
    assert!(
        last <= warm + SLACK_KIB,
        "VmRSS grew from {warm} KiB after cycle {WARM_CYCLE} to {last} KiB after cycle {CYCLES} \
         (per cycle: {rss:?}): a dropped Sim is not returning its memory"
    );
}
