//! Journal exporters and derived gauges: JSON Lines, Chrome trace-event
//! JSON, and resource-utilization histograms folded from a merged stream.

use super::{EventKind, Record, Subsystem, NO_ID};
use crate::stats::Histogram;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

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

/// Resource-utilization gauges derived from a merged record stream.
pub struct Gauges {
    /// Staging-SRAM occupancy in bytes, sampled after every
    /// admit/release transition (all nodes).
    pub sram_occupancy: Histogram,
    /// DMA queue depth (posted, not yet completed bursts), sampled after
    /// every issue/complete transition (all nodes).
    pub dma_queue_depth: Histogram,
    /// Fraction of the journal's time span during which at least one DMA
    /// burst was in flight on some PCIe link.
    pub pcie_busy_frac: f64,
    /// Aggregate PM media write bandwidth over the journal span, Gbit/s.
    pub pm_write_gbps: f64,
}

impl fmt::Debug for Gauges {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Gauges")
            .field("sram_occupancy", &self.sram_occupancy.summary())
            .field("dma_queue_depth", &self.dma_queue_depth.summary())
            .field("pcie_busy_frac", &self.pcie_busy_frac)
            .field("pm_write_gbps", &self.pm_write_gbps)
            .finish()
    }
}

/// Fold a merged record stream into utilization gauges.
pub fn gauges(records: &[Record]) -> Gauges {
    let mut sram = Histogram::new();
    let mut depth = Histogram::new();
    let mut sram_now: BTreeMap<u32, u64> = BTreeMap::new();
    let mut depth_now: BTreeMap<u32, u64> = BTreeMap::new();
    // PCIe busy: union of intervals during which any node's DMA queue is
    // non-empty. Records are time-sorted, so a running scan suffices.
    let mut busy_ns = 0u64;
    let mut busy_since: Option<u64> = None;
    let mut inflight_total = 0u64;
    let mut pm_bytes = 0u64;
    for r in records {
        match r.kind {
            EventKind::SramAdmit => {
                let v = sram_now.entry(r.node).or_insert(0);
                *v += r.bytes;
                sram.record(*v);
            }
            EventKind::SramRelease => {
                let v = sram_now.entry(r.node).or_insert(0);
                *v = v.saturating_sub(r.bytes);
                sram.record(*v);
            }
            EventKind::DmaIssue => {
                let v = depth_now.entry(r.node).or_insert(0);
                *v += 1;
                depth.record(*v);
                inflight_total += 1;
                if inflight_total == 1 {
                    busy_since = Some(r.ts_ns);
                }
            }
            EventKind::DmaComplete => {
                let v = depth_now.entry(r.node).or_insert(0);
                *v = v.saturating_sub(1);
                depth.record(*v);
                inflight_total = inflight_total.saturating_sub(1);
                if inflight_total == 0 {
                    if let Some(s) = busy_since.take() {
                        busy_ns += r.ts_ns - s;
                    }
                }
            }
            EventKind::PmWrite => pm_bytes += r.bytes,
            _ => {}
        }
    }
    let span_ns = match (records.first(), records.last()) {
        (Some(a), Some(b)) if b.ts_ns > a.ts_ns => b.ts_ns - a.ts_ns,
        _ => 0,
    };
    if let Some(s) = busy_since {
        if let Some(last) = records.last() {
            busy_ns += last.ts_ns - s;
        }
    }
    Gauges {
        sram_occupancy: sram,
        dma_queue_depth: depth,
        pcie_busy_frac: if span_ns == 0 {
            0.0
        } else {
            busy_ns as f64 / span_ns as f64
        },
        pm_write_gbps: if span_ns == 0 {
            0.0
        } else {
            pm_bytes as f64 * 8.0 / span_ns as f64
        },
    }
}
