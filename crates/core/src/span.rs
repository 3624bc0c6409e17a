//! Per-RPC causal span trees and tail critical-path attribution.
//!
//! A journal-consuming analyzer: it stitches each `rpc_id`'s records
//! across client → primary → backup fan-out into a [`SpanTree`], computes
//! the exact critical path in virtual time, and attributes every
//! nanosecond of the request's measured latency to a named phase. The
//! attribution is a *partition*: the phase components of one request sum
//! **exactly** to its measured dispatch→complete latency, by construction
//! (a monotone boundary chain whose consecutive differences telescope).
//!
//! Tree shape. A replicated put journals a causal root (`RpcDispatch` /
//! `RpcComplete` under its `REPL_ID_BASE` id) plus one `ReplLink` record
//! per per-replica sub-put, pointing at the sub-put's log-derived id.
//! Each sub-put ("leg") carries its own dispatch/complete pair and the
//! NIC-level records (doorbell, wire segments) the QP stamped with its
//! id. Plain durable puts and gets are single-span trees with no legs.
//!
//! Attribution (replicated root, dispatch `D`, complete `C`; `F` = the
//! leg that completed first, `S` = the slowest leg — the critical-path
//! replica):
//!
//! ```text
//! queueing        D            → F.dispatch        (fan-out spawn wait)
//! sender_sw       F.dispatch   → F first wire seg  (marshal, post, ring)
//! wire            first seg    → last wire seg     (serialization + prop)
//! nic_dma         last seg     → last DMA complete (PCIe drain, if seen)
//! pm_media        last DMA     → last PM write     (media, if seen)
//! flush_wait      last PM      → F.complete        (flush / persist ACK)
//! repl_straggler  F.complete   → S.complete        (waiting on stragglers)
//! receiver_sw     S.complete   → C                 (client-side fold)
//! ```
//!
//! A missing boundary (e.g. no DMA record carries the id) collapses its
//! segment to zero and folds the time into the next phase — the sum stays
//! exact. The [`TailReport`] aggregates the slowest fraction of requests
//! (default 1%) and averages their per-phase attribution, naming the
//! critical replica each straggled on.

use std::collections::BTreeSet;

use prdma_simnet::journal::{EventKind, Index, Record, Subsystem};

/// Phase names, in boundary-chain order, matching [`Attribution::parts`].
pub const PHASES: [&str; 8] = [
    "queueing",
    "sender_sw",
    "wire",
    "nic_dma",
    "pm_media",
    "flush_wait",
    "repl_straggler",
    "receiver_sw",
];

/// Exact per-phase latency partition of one request (nanoseconds).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Attribution {
    /// Fan-out spawn wait before the critical chain's leg dispatched.
    pub queueing_ns: u64,
    /// Client software: marshalling, posting, doorbell.
    pub sender_sw_ns: u64,
    /// Wire serialization + propagation of the fastest leg.
    pub wire_ns: u64,
    /// NIC DMA drain (when DMA records carry the leg's id).
    pub nic_dma_ns: u64,
    /// PM media writes (when PM records carry the leg's id).
    pub pm_media_ns: u64,
    /// Flush / persist-ACK wait of the fastest leg.
    pub flush_wait_ns: u64,
    /// Replication-straggler wait: fastest leg done → slowest leg done.
    pub repl_straggler_ns: u64,
    /// Client-side fold after the last leg completed.
    pub receiver_sw_ns: u64,
}

impl Attribution {
    /// The components in [`PHASES`] order.
    pub fn parts(&self) -> [u64; 8] {
        [
            self.queueing_ns,
            self.sender_sw_ns,
            self.wire_ns,
            self.nic_dma_ns,
            self.pm_media_ns,
            self.flush_wait_ns,
            self.repl_straggler_ns,
            self.receiver_sw_ns,
        ]
    }

    /// Sum of all components — equals the measured latency exactly.
    pub fn total_ns(&self) -> u64 {
        self.parts().iter().sum()
    }
}

/// One rpc id's span: dispatch → complete plus its journal records.
#[derive(Debug, Clone)]
pub struct Span {
    /// The rpc id (causal root id or log-derived leg id).
    pub id: u64,
    /// First `RpcDispatch` timestamp.
    pub start_ns: u64,
    /// Last `RpcComplete` timestamp.
    pub end_ns: u64,
}

impl Span {
    /// Measured latency in virtual time.
    pub fn latency_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A stitched request: the root span, its fan-out legs (empty for plain
/// durable RPCs), and the exact latency attribution.
#[derive(Debug, Clone)]
pub struct SpanTree {
    /// The request's root span.
    pub root: Span,
    /// Completed fan-out legs, in completion order (replicated puts).
    pub legs: Vec<Span>,
    /// Exact partition of `root.latency_ns()`.
    pub attribution: Attribution,
    /// Server node index of the critical (slowest) leg, if any.
    pub critical_node: Option<u32>,
}

/// The serving node index encoded in a log-derived rpc id
/// (`((server << 12) | lane) << 40 | index`).
pub fn server_of(log_id: u64) -> u32 {
    (log_id >> 52) as u32
}

/// The span of rpc `id` from `group`, the positions of its records.
fn span_of(ix: &Index, id: u64, group: &[usize]) -> Option<Span> {
    // Must have dispatched; the span *starts* at the id's earliest
    // record, which for a log-derived leg is its LogAppend — the
    // `RpcDispatch` jot lands only after the append's verb completed,
    // and the wire activity in between belongs to the leg.
    ix.at(group)
        .find(|r| r.subsystem == Subsystem::Rpc && r.kind == EventKind::RpcDispatch)?;
    let start = ix.at(group).map(|r| r.ts_ns).min()?;
    let end = ix
        .at(group)
        .filter(|r| r.subsystem == Subsystem::Rpc && r.kind == EventKind::RpcComplete)
        .map(|r| r.ts_ns)
        .max()?;
    Some(Span {
        id,
        start_ns: start,
        end_ns: end.max(start),
    })
}

/// Advance the boundary chain: the next boundary is `candidate` when
/// present, clamped monotone into `[prev, cap]`; a missing candidate
/// collapses the segment (boundary stays at `prev`).
fn bound(prev: u64, candidate: Option<u64>, cap: u64) -> u64 {
    candidate.map_or(prev, |t| t.clamp(prev, cap))
}

/// Attribute one leg's internal phases over `[leg.start, leg.end]`,
/// yielding the boundary after each internal segment. Returns
/// `(sender_sw, wire, nic_dma, pm_media, flush_wait)`.
fn leg_phases(ix: &Index, leg: &Span, group: &[usize]) -> (u64, u64, u64, u64, u64) {
    let in_leg = || {
        ix.at(group)
            .filter(|r| r.ts_ns >= leg.start_ns && r.ts_ns <= leg.end_ns)
    };
    let last = |kind| in_leg().filter(|r| r.kind == kind).map(|r| r.ts_ns).max();
    let first_wire = in_leg().find(|r| r.kind == EventKind::WireSegment);
    let b0 = leg.start_ns;
    let cap = leg.end_ns;
    let b1 = bound(b0, first_wire.map(|r| r.ts_ns), cap);
    let b2 = bound(b1, last(EventKind::WireSegment), cap);
    let b3 = bound(b2, last(EventKind::DmaComplete), cap);
    let b4 = bound(b3, last(EventKind::PmWrite), cap);
    (b1 - b0, b2 - b1, b3 - b2, b4 - b3, cap - b4)
}

/// Build span trees for every completed request in a merged journal
/// stream (see [`prdma_simnet::journal::merge`] /
/// `Cluster::journal_records`). Requests that never completed (crashed
/// mid-flight) are skipped; retried legs without a completion are
/// likewise ignored for critical-path selection. Deterministic: output
/// is ordered by root rpc id.
pub fn build_span_trees(records: &[Record]) -> Vec<SpanTree> {
    let ix = Index::build(records);
    let links = ix.of(&[EventKind::ReplLink]);
    let leg_ids: BTreeSet<u64> = links.map(|(_, l)| l.wr_id).collect();

    let mut trees = Vec::new();
    for (id, group) in ix.by_rpc.iter() {
        if leg_ids.contains(&id) {
            continue; // legs are folded into their root's tree
        }
        let Some(root) = span_of(&ix, id, group) else {
            continue;
        };
        // ReplLink edges: root id → leg ids, in emission order.
        let mut legs: Vec<Span> = ix
            .at(group)
            .filter(|r| r.kind == EventKind::ReplLink)
            .filter_map(|l| span_of(&ix, l.wr_id, ix.by_rpc.get(l.wr_id)))
            .collect();
        legs.sort_by_key(|l| (l.end_ns, l.id));

        let (attribution, critical_node) = if legs.is_empty() {
            // Plain RPC: the root is its own leg; no queueing, no
            // straggler wait, the tail folds into flush_wait.
            let (sender_sw, wire, nic_dma, pm_media, flush_wait) = leg_phases(&ix, &root, group);
            (
                Attribution {
                    sender_sw_ns: sender_sw,
                    wire_ns: wire,
                    nic_dma_ns: nic_dma,
                    pm_media_ns: pm_media,
                    flush_wait_ns: flush_wait,
                    ..Default::default()
                },
                None,
            )
        } else {
            let fast = legs.first().expect("non-empty");
            let slow = legs.last().expect("non-empty");
            // Chain boundaries, monotone within [root.start, root.end].
            let d = root.start_ns;
            let c = root.end_ns;
            let f_start = fast.start_ns.clamp(d, c);
            let f_end = fast.end_ns.clamp(f_start, c);
            let fast_clamped = Span {
                id: fast.id,
                start_ns: f_start,
                end_ns: f_end,
            };
            let (sender_sw, wire, nic_dma, pm_media, flush_wait) =
                leg_phases(&ix, &fast_clamped, ix.by_rpc.get(fast.id));
            let s_end = slow.end_ns.clamp(f_end, c);
            (
                Attribution {
                    queueing_ns: f_start - d,
                    sender_sw_ns: sender_sw,
                    wire_ns: wire,
                    nic_dma_ns: nic_dma,
                    pm_media_ns: pm_media,
                    flush_wait_ns: flush_wait,
                    repl_straggler_ns: s_end - f_end,
                    receiver_sw_ns: c - s_end,
                },
                Some(server_of(slow.id)),
            )
        };
        trees.push(SpanTree {
            root,
            legs,
            attribution,
            critical_node,
        });
    }
    trees
}

/// One slow request in a [`TailReport`].
#[derive(Debug, Clone)]
pub struct TailEntry {
    /// Root rpc id.
    pub id: u64,
    /// Measured latency.
    pub latency_ns: u64,
    /// Exact phase partition of that latency.
    pub attribution: Attribution,
    /// Node index of the critical (slowest) replica leg, if replicated.
    pub critical_node: Option<u32>,
}

/// Tail critical-path attribution: the slowest fraction of requests with
/// their exact per-phase latency partitions.
#[derive(Debug, Clone)]
pub struct TailReport {
    /// Requests analyzed.
    pub sampled: usize,
    /// Latency at the tail threshold (smallest tail latency).
    pub threshold_ns: u64,
    /// The slowest requests, most-slow first.
    pub entries: Vec<TailEntry>,
    /// Mean per-phase attribution across the tail, [`PHASES`] order.
    pub mean_parts_ns: [u64; 8],
}

/// Build a [`TailReport`] over the slowest `fraction` of requests
/// (clamped to at least one request when any completed).
pub fn tail_report(trees: &[SpanTree], fraction: f64) -> TailReport {
    let mut by_latency: Vec<&SpanTree> = trees.iter().collect();
    // Deterministic: latency desc, then root id asc as tie-break.
    by_latency.sort_by(|a, b| {
        b.root
            .latency_ns()
            .cmp(&a.root.latency_ns())
            .then(a.root.id.cmp(&b.root.id))
    });
    let n = by_latency.len();
    let take = if n == 0 {
        0
    } else {
        ((n as f64 * fraction).ceil() as usize).clamp(1, n)
    };
    let entries: Vec<TailEntry> = by_latency[..take]
        .iter()
        .map(|t| TailEntry {
            id: t.root.id,
            latency_ns: t.root.latency_ns(),
            attribution: t.attribution,
            critical_node: t.critical_node,
        })
        .collect();
    let mut mean = [0u64; 8];
    if take > 0 {
        for e in &entries {
            for (m, p) in mean.iter_mut().zip(e.attribution.parts()) {
                *m += p;
            }
        }
        for m in &mut mean {
            *m /= take as u64;
        }
    }
    TailReport {
        sampled: n,
        threshold_ns: entries.last().map_or(0, |e| e.latency_ns),
        entries,
        mean_parts_ns: mean,
    }
}

impl TailReport {
    /// Deterministic plain-text rendering (artifact export): a header
    /// line, the mean phase breakdown, then one line per tail entry.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "tail report: {} sampled, {} in tail, threshold {} ns",
            self.sampled,
            self.entries.len(),
            self.threshold_ns
        );
        let _ = write!(out, "mean:");
        for (name, v) in PHASES.iter().zip(self.mean_parts_ns) {
            let _ = write!(out, " {name}={v}");
        }
        out.push('\n');
        for e in &self.entries {
            let _ = write!(out, "id={:#x} latency_ns={}", e.id, e.latency_ns);
            for (name, v) in PHASES.iter().zip(e.attribution.parts()) {
                let _ = write!(out, " {name}={v}");
            }
            match e.critical_node {
                Some(n) => {
                    let _ = writeln!(out, " critical_node={n}");
                }
                None => {
                    let _ = writeln!(out, " critical_node=-");
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable::{build_durable, DurableConfig, DurableKind};
    use crate::replication::build_replicated;
    use crate::rpc::{Request, RpcClient, ServerProfile};
    use prdma_node::{Cluster, ClusterConfig};
    use prdma_rnic::Payload;
    use prdma_simnet::fault::{FaultKind, FaultPlan};
    use prdma_simnet::{Sim, SimDuration, SimTime};

    fn repl_cfg() -> DurableConfig {
        DurableConfig {
            kind: DurableKind::WFlush,
            profile: ServerProfile::light(),
            slot_payload: 4096,
            object_slot: 4096,
            store_capacity: 1 << 20,
            log_slots: 64,
            ..Default::default()
        }
    }

    fn replicated_run(degrade: Option<usize>) -> Vec<Record> {
        let mut sim = Sim::new(41);
        let mut ccfg = ClusterConfig::with_nodes(4);
        ccfg.journal = true;
        let cluster = Cluster::new(sim.handle(), ccfg);
        if let Some(node) = degrade {
            let plan = FaultPlan::new().at(
                SimTime::from_nanos(0),
                node,
                FaultKind::LinkDegrade {
                    factor: 16.0,
                    duration: SimDuration::from_millis(50),
                },
            );
            cluster.inject_faults(plan);
        }
        let (client, _group) = build_replicated(&cluster, 3, &[0, 1, 2], repl_cfg());
        sim.block_on(async move {
            for i in 0..20u64 {
                client
                    .call(Request::Put {
                        obj: i % 4,
                        data: Payload::synthetic(1024, i),
                    })
                    .await
                    .unwrap();
            }
        });
        sim.run();
        cluster.journal_records()
    }

    #[test]
    fn attribution_sums_exactly_to_measured_latency() {
        let records = replicated_run(None);
        let trees = build_span_trees(&records);
        assert_eq!(trees.len(), 20, "every put must yield a tree");
        for t in &trees {
            assert_eq!(t.legs.len(), 3, "3 replica legs per put");
            assert_eq!(
                t.attribution.total_ns(),
                t.root.latency_ns(),
                "attribution must partition the measured latency exactly: {t:?}"
            );
            assert!(t.root.latency_ns() > 0);
            // The fastest leg's wire time must be visible.
            assert!(t.attribution.wire_ns > 0, "{t:?}");
        }
    }

    #[test]
    fn plain_durable_rpcs_build_single_span_trees() {
        let mut sim = Sim::new(42);
        let mut ccfg = ClusterConfig::with_nodes(2);
        ccfg.journal = true;
        let cluster = Cluster::new(sim.handle(), ccfg);
        let (client, _) = build_durable(&cluster, 1, 0, 0, repl_cfg());
        sim.block_on(async move {
            for i in 0..5u64 {
                client
                    .call(Request::Put {
                        obj: i,
                        data: Payload::synthetic(512, i),
                    })
                    .await
                    .unwrap();
            }
            client
                .call(Request::Get { obj: 0, len: 512 })
                .await
                .unwrap();
        });
        sim.run();
        let trees = build_span_trees(&cluster.journal_records());
        assert_eq!(trees.len(), 6, "5 puts + 1 get");
        for t in &trees {
            assert!(t.legs.is_empty());
            assert!(t.critical_node.is_none());
            assert_eq!(t.attribution.total_ns(), t.root.latency_ns());
            assert_eq!(t.attribution.queueing_ns, 0);
            assert_eq!(t.attribution.repl_straggler_ns, 0);
        }
    }

    #[test]
    fn tail_report_is_byte_deterministic_across_same_seed_runs() {
        let render = || {
            let records = replicated_run(None);
            let trees = build_span_trees(&records);
            tail_report(&trees, 0.25).render()
        };
        let a = render();
        assert!(!a.is_empty());
        assert_eq!(a, render(), "same seed must render identical bytes");
    }

    #[test]
    fn link_degrade_on_one_backup_moves_the_critical_path() {
        let baseline = build_span_trees(&replicated_run(None));
        let degraded = build_span_trees(&replicated_run(Some(2)));
        let tail_base = tail_report(&baseline, 0.25);
        let tail_deg = tail_report(&degraded, 0.25);
        // Every tail request in the degraded run straggles on node 2.
        for e in &tail_deg.entries {
            assert_eq!(
                e.critical_node,
                Some(2),
                "critical path must point at the degraded backup: {e:?}"
            );
        }
        // The straggler wait dominates once a backup's ingress is 16x
        // slower; the healthy run's tail waits far less.
        let base_straggler = tail_base.mean_parts_ns[6];
        let deg_straggler = tail_deg.mean_parts_ns[6];
        assert!(
            deg_straggler > base_straggler * 2,
            "degraded straggler wait {deg_straggler} must dwarf baseline {base_straggler}"
        );
    }
}
