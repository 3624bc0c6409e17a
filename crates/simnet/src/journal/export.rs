//! Journal exporters: JSON Lines and Chrome trace-event JSON.

use super::{EventKind, Record, Subsystem, NO_ID};
use std::collections::BTreeSet;

/// Renders an id as its decimal value, or `null` for [`NO_ID`], without
/// allocating an intermediate `String` per field.
struct JsonId(u64);

impl std::fmt::Display for JsonId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.0 == NO_ID {
            f.write_str("null")
        } else {
            write!(f, "{}", self.0)
        }
    }
}

/// Serialize records as JSON Lines: one object per record, fixed field
/// order, `null` for absent ids. Byte-deterministic for a fixed seed.
pub fn to_jsonl(records: &[Record]) -> String {
    use std::fmt::Write;
    let mut out = String::with_capacity(records.len() * 112);
    for r in records {
        let _ = writeln!(
            out,
            "{{\"ts_ns\":{},\"node\":{},\"subsystem\":\"{}\",\"kind\":\"{}\",\"rpc_id\":{},\"wr_id\":{},\"bytes\":{}}}",
            r.ts_ns,
            r.node,
            r.subsystem.name(),
            r.kind.name(),
            JsonId(r.rpc_id),
            JsonId(r.wr_id),
            r.bytes,
        );
    }
    out
}

/// Chrome trace timestamps are microseconds; keep nanosecond precision
/// with three fixed decimals for determinism.
struct ChromeTs(u64);

impl std::fmt::Display for ChromeTs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.3}", self.0 as f64 / 1000.0)
    }
}

/// Serialize records in the Chrome trace-event JSON format, loadable in
/// Perfetto (`ui.perfetto.dev`) or `chrome://tracing`.
///
/// Layout: one process per node, one thread (track) per subsystem, every
/// record an instant event, and a flow arrow per `rpc_id` from its
/// `RpcDispatch` to its `RpcComplete`.
pub fn to_chrome_trace(records: &[Record]) -> String {
    use std::fmt::Write;
    let mut nodes: BTreeSet<u32> = BTreeSet::new();
    for r in records {
        nodes.insert(r.node);
    }
    // ~150 bytes per instant event plus metadata/flow rows; one
    // capacity-reserved output string, events separated by ",\n" exactly
    // as the previous `Vec<String>` + `join` implementation emitted them.
    let mut out = String::with_capacity(64 + records.len() * 176 + nodes.len() * 640);
    out.push_str("{\"traceEvents\":[\n");
    let mut first = true;
    macro_rules! event {
        ($($fmt:tt)*) => {{
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let _ = write!(out, $($fmt)*);
        }};
    }
    for n in &nodes {
        event!(
            "{{\"ph\":\"M\",\"pid\":{n},\"tid\":0,\"name\":\"process_name\",\"args\":{{\"name\":\"node{n}\"}}}}"
        );
        for s in Subsystem::ALL {
            event!(
                "{{\"ph\":\"M\",\"pid\":{n},\"tid\":{},\"name\":\"thread_name\",\"args\":{{\"name\":\"{}\"}}}}",
                s.track(),
                s.name()
            );
        }
    }
    // Flow arrows: rpc dispatch -> complete, keyed by rpc_id.
    let mut dispatched: BTreeSet<u64> = BTreeSet::new();
    for r in records {
        if r.kind == EventKind::RpcDispatch && r.rpc_id != NO_ID {
            dispatched.insert(r.rpc_id);
        }
    }
    for r in records {
        let ts = ChromeTs(r.ts_ns);
        let tid = r.subsystem.track();
        event!(
            "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":{},\"tid\":{},\"ts\":{},\"name\":\"{}\",\"cat\":\"{}\",\"args\":{{\"rpc_id\":{},\"wr_id\":{},\"bytes\":{}}}}}",
            r.node,
            tid,
            ts,
            r.kind.name(),
            r.subsystem.name(),
            JsonId(r.rpc_id),
            JsonId(r.wr_id),
            r.bytes,
        );
        if r.rpc_id != NO_ID && dispatched.contains(&r.rpc_id) {
            match r.kind {
                EventKind::RpcDispatch => event!(
                    "{{\"ph\":\"s\",\"pid\":{},\"tid\":{},\"ts\":{},\"name\":\"rpc\",\"cat\":\"rpc\",\"id\":{}}}",
                    r.node, tid, ts, r.rpc_id
                ),
                EventKind::RpcComplete => event!(
                    "{{\"ph\":\"f\",\"bp\":\"e\",\"pid\":{},\"tid\":{},\"ts\":{},\"name\":\"rpc\",\"cat\":\"rpc\",\"id\":{}}}",
                    r.node, tid, ts, r.rpc_id
                ),
                _ => {}
            }
        }
    }
    out.push_str("\n]}\n");
    out
}
