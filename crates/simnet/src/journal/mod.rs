//! Structured event journal with causal IDs.
//!
//! While [`crate::trace`] aggregates per-phase latency totals (the Fig. 20
//! layer), this module records *individual* simulated state transitions —
//! doorbell rings, WQE fetches, wire segments, DMA bursts into staging
//! SRAM, PM media writes, redo-log appends, flush issue/ACK pairs, RPC
//! dispatch/complete edges, and recovery replays — as typed [`Record`]s in
//! a per-node stream that keeps every record.
//!
//! Three consumers sit on top of the raw stream (`export`, `index` and
//! `audit` beside this file; [`json`] parses the exports back):
//!
//! * [`to_chrome_trace`] / [`to_jsonl`] — a Chrome-trace-event JSON
//!   export (loadable in Perfetto / `chrome://tracing`, one track per
//!   node×subsystem, flow arrows per `rpc_id`) and a machine-readable
//!   JSONL dump;
//! * [`Index`] — one pass grouping record positions by `rpc_id`, DMA
//!   ticket, log lane and lease key, shared by the auditor and
//!   `prdma::span::build_span_trees`;
//! * [`audit`] — the durability auditor: the paper's ordering invariants
//!   as the six-row [`RULES`] table over an [`Index`], every
//!   [`Violation`] carrying the causal slice of records around it.
//!
//! Emission is synchronous and consumes **zero simulated time and zero
//! randomness**, so enabling the journal never perturbs a schedule: a
//! fixed seed yields a byte-identical export. Every node has one
//! [`Journal`], and components call it directly; a run that records
//! nothing gives its nodes an [`off`](Journal::off) journal, which
//! allocates nothing and returns from `record` at its first branch.

use crate::executor::SimHandle;
use std::cell::{Cell, RefCell};
use std::rc::Rc;

mod audit;
mod export;
pub mod ids;
mod index;
pub mod json;

pub use audit::{audit, AuditReport, Rule, Violation, RULES};
pub use export::{to_chrome_trace, to_jsonl};
pub use index::{Groups, Index};

/// Sentinel for "no id" in [`Record::rpc_id`] / [`Record::wr_id`]
/// (rendered as `null` in the JSONL export).
pub const NO_ID: u64 = u64::MAX;

/// The component a record was emitted from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Subsystem {
    /// RNIC internals: SRAM staging, DMA engine, WQE/CQE traffic.
    Nic,
    /// Queue-pair / wire level: doorbells and MTU segments.
    Qp,
    /// Persistent-memory device: media writes.
    Pm,
    /// Redo log: appends and done marks.
    Log,
    /// Flush primitives: issue/ACK of persistence barriers.
    Flush,
    /// RPC layer: dispatch/complete edges.
    Rpc,
    /// Post-crash recovery scan.
    Recovery,
    /// Fault injector: crash/restart/loss events from a `FaultPlan`.
    Fault,
}

impl Subsystem {
    /// All subsystems, in track order for the Chrome-trace export.
    pub const ALL: [Subsystem; 8] = [
        Subsystem::Qp,
        Subsystem::Nic,
        Subsystem::Pm,
        Subsystem::Log,
        Subsystem::Flush,
        Subsystem::Rpc,
        Subsystem::Recovery,
        Subsystem::Fault,
    ];

    /// Stable lower-case name (used in both exports).
    pub fn name(self) -> &'static str {
        match self {
            Subsystem::Nic => "nic",
            Subsystem::Qp => "qp",
            Subsystem::Pm => "pm",
            Subsystem::Log => "log",
            Subsystem::Flush => "flush",
            Subsystem::Rpc => "rpc",
            Subsystem::Recovery => "recovery",
            Subsystem::Fault => "fault",
        }
    }

    /// Stable track index for the Chrome-trace export.
    pub fn track(self) -> u32 {
        Subsystem::ALL.iter().position(|s| *s == self).unwrap() as u32
    }
}

/// What happened. One variant per simulated state transition the paper's
/// analysis cares about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventKind {
    /// MMIO doorbell ring for a posted work request (sender CPU → NIC).
    Doorbell,
    /// RNIC fetched a receive WQE over PCIe (send/recv path only).
    WqeFetch,
    /// One MTU-or-smaller segment put on the wire.
    WireSegment,
    /// Payload admitted into the RNIC's volatile staging SRAM.
    SramAdmit,
    /// Payload released from the staging SRAM after DMA drain.
    SramRelease,
    /// DMA burst issued from staging SRAM toward host memory
    /// (`wr_id` = PCIe posted-write ticket).
    DmaIssue,
    /// DMA burst completed (for the direct path this is the point the
    /// bytes are durable in PM; for DDIO they land in volatile LLC).
    DmaComplete,
    /// Completion-queue entry DMA'd to host memory.
    CqeWrite,
    /// Bytes committed to persistent media (DMA durability point or
    /// an explicit clflush commit).
    PmWrite,
    /// Redo-log slot append issued by a client (`rpc_id` = lane|index).
    LogAppend,
    /// Redo-log entry marked done by the server worker.
    LogDone,
    /// Persistence barrier issued (`wr_id` = posted-write barrier
    /// ticket: every DMA ticket below it is covered by the barrier).
    FlushIssue,
    /// Persistence barrier acknowledged: all covered DMA must be done.
    FlushAck,
    /// RPC handed to the transport (client side).
    RpcDispatch,
    /// RPC observed complete by the client.
    RpcComplete,
    /// Recovery scan started (`wr_id` = persisted head index).
    RecoveryStart,
    /// Recovery replayed one incomplete log entry (`rpc_id` = lane|index).
    RecoveryReplay,
    /// Recovery skipped a log slot as torn or stale.
    RecoveryLost,
    /// Injected full-node crash (NIC down, volatile state lost).
    NodeCrash,
    /// Injected node restart (NIC back up, PM contents intact).
    NodeRestart,
    /// Injected service crash (software down; NIC + PM keep running).
    ServiceCrash,
    /// Injected service restart (software back up after recovery).
    ServiceRestart,
    /// Injected NIC staging-SRAM loss (dirty lines + in-flight DMA
    /// dropped while the NIC stays up).
    SramLoss,
    /// Injected packet-loss burst began (`wr_id` = burst length in ns).
    LossBurst,
    /// Injected ingress-link degradation began (`wr_id` = length in ns).
    LinkDegrade,
    /// One replica's durable append resolved for a replicated put
    /// (`rpc_id` = causal put id shared by every replica, `wr_id` =
    /// replica slot within the group).
    ReplAppend,
    /// A replicated put acknowledged to the caller (`rpc_id` = causal
    /// put id, `wr_id` = number of replicas whose appends the ACK
    /// claims). Checked by auditor invariant I4.
    ReplAck,
    /// A backup was promoted to primary (`wr_id` = new epoch,
    /// `bytes` = new primary's node id).
    Promote,
    /// Links a replicated put's causal root id (`rpc_id`) to one of its
    /// per-replica sub-puts (`wr_id` = the sub-put's log-derived rpc id).
    /// Emitted at sub-put dispatch so span analyzers can stitch the
    /// client → primary → backup fan-out into one tree.
    ReplLink,
    /// A server granted (or renewed) a read lease on a key when serving
    /// a durable GET (`wr_id` = globally unique lease key id, `bytes` =
    /// granted epoch, `rpc_id` = the GET's rpc id).
    LeaseGrant,
    /// A durable put bumped a key's lease epoch *before* its flush was
    /// acknowledged, revoking every outstanding lease on the key
    /// (`wr_id` = lease key id, `bytes` = the new epoch, `rpc_id` = the
    /// put's rpc id). Checked by auditor invariant I5.
    LeaseInvalidate,
    /// A client served a GET from its lease-protected DRAM cache without
    /// a server round trip (`wr_id` = lease key id, `bytes` = the epoch
    /// the entry was validated against). Checked by invariant I5.
    CacheRead,
    /// A client served a GET with a one-sided RDMA READ of the server's
    /// DRAM mirror region (`wr_id` = lease key id, `bytes` = the epoch
    /// read back from the mirror slot header). Checked by invariant I5.
    MirrorRead,
    /// One participant shard's durable `prepare` record was appended and
    /// flush-ACKed for a multi-shard transaction (`rpc_id` = txn id,
    /// `wr_id` = the participant's shard index). Checked by invariant I6.
    TxnPrepare,
    /// The coordinator shard's durable `decided` record was appended and
    /// flush-ACKed (`rpc_id` = txn id, `wr_id` = the coordinator's shard
    /// index, `bytes` = 1 for commit / 0 for abort). Checked by I6.
    TxnDecide,
    /// A transaction acknowledged committed to the caller (`rpc_id` =
    /// txn id, `wr_id` = participant count the ACK claims prepares for).
    /// Invariant I6: preceded by `TxnPrepare` on that many distinct
    /// shards plus a `TxnDecide`.
    TxnAck,
    /// A participant applied a committed transaction's staged writes to
    /// its object store (`rpc_id` = txn id, `wr_id` = shard/node,
    /// `bytes` = bytes applied). Invariant I6: never emitted for a txn
    /// that also journals a `TxnAbort`.
    TxnApply,
    /// A transaction aborted before deciding commit (`rpc_id` = txn id,
    /// `wr_id` = prepares appended before the abort). Checked by I6.
    TxnAbort,
}

impl EventKind {
    /// Stable name (used in both exports).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Doorbell => "doorbell",
            EventKind::WqeFetch => "wqe_fetch",
            EventKind::WireSegment => "wire_segment",
            EventKind::SramAdmit => "sram_admit",
            EventKind::SramRelease => "sram_release",
            EventKind::DmaIssue => "dma_issue",
            EventKind::DmaComplete => "dma_complete",
            EventKind::CqeWrite => "cqe_write",
            EventKind::PmWrite => "pm_write",
            EventKind::LogAppend => "log_append",
            EventKind::LogDone => "log_done",
            EventKind::FlushIssue => "flush_issue",
            EventKind::FlushAck => "flush_ack",
            EventKind::RpcDispatch => "rpc_dispatch",
            EventKind::RpcComplete => "rpc_complete",
            EventKind::RecoveryStart => "recovery_start",
            EventKind::RecoveryReplay => "recovery_replay",
            EventKind::RecoveryLost => "recovery_lost",
            EventKind::NodeCrash => "node_crash",
            EventKind::NodeRestart => "node_restart",
            EventKind::ServiceCrash => "service_crash",
            EventKind::ServiceRestart => "service_restart",
            EventKind::SramLoss => "sram_loss",
            EventKind::LossBurst => "loss_burst",
            EventKind::LinkDegrade => "link_degrade",
            EventKind::ReplAppend => "repl_append",
            EventKind::ReplAck => "repl_ack",
            EventKind::Promote => "promote",
            EventKind::ReplLink => "repl_link",
            EventKind::LeaseGrant => "lease_grant",
            EventKind::LeaseInvalidate => "lease_invalidate",
            EventKind::CacheRead => "cache_read",
            EventKind::MirrorRead => "mirror_read",
            EventKind::TxnPrepare => "txn_prepare",
            EventKind::TxnDecide => "txn_decide",
            EventKind::TxnAck => "txn_ack",
            EventKind::TxnApply => "txn_apply",
            EventKind::TxnAbort => "txn_abort",
        }
    }
}

/// One journal record: a typed event at a virtual timestamp.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Virtual timestamp, nanoseconds since simulation start.
    pub ts_ns: u64,
    /// Node the emitting component belongs to.
    pub node: u32,
    /// Per-node emission sequence number (tie-breaker for merges: many
    /// records share a timestamp because emission takes zero sim time).
    pub seq: u64,
    /// Emitting component.
    pub subsystem: Subsystem,
    /// What happened.
    pub kind: EventKind,
    /// Causal RPC id threading an operation across nodes ([`NO_ID`] if
    /// the event is not attributable to one RPC).
    pub rpc_id: u64,
    /// Work-request / ticket / index id local to the subsystem
    /// ([`NO_ID`] if not applicable).
    pub wr_id: u64,
    /// Bytes moved by this transition (0 for pure control events).
    pub bytes: u64,
}

struct JournalInner {
    node: u32,
    handle: SimHandle,
    rpc_ids: ids::Ids,
    next_rpc: Cell<u64>,
    records: RefCell<Vec<Record>>,
}

impl JournalInner {
    fn push(&self, subsystem: Subsystem, kind: EventKind, rpc_id: u64, wr_id: u64, bytes: u64) {
        let mut records = self.records.borrow_mut();
        let rec = Record {
            ts_ns: self.handle.now().as_nanos(),
            node: self.node,
            seq: records.len() as u64,
            subsystem,
            kind,
            rpc_id,
            wr_id,
            bytes,
        };
        records.push(rec);
    }
}

/// A per-node handle to the event stream. Cheap to clone
/// (reference-counted); all clones feed the same stream, which keeps every
/// record it is given. An [`off`](Journal::off) journal has no stream: it
/// records nothing and allocates nothing.
#[derive(Clone)]
pub struct Journal {
    inner: Option<Rc<JournalInner>>,
}

impl Journal {
    /// A journal that records every event of `node`.
    pub fn new(handle: SimHandle, node: u32) -> Self {
        Journal {
            inner: Some(Rc::new(JournalInner {
                node,
                handle,
                rpc_ids: ids::node_rpcs(node),
                next_rpc: Cell::new(0),
                records: RefCell::new(Vec::new()),
            })),
        }
    }

    /// The journal of a run that records nothing: [`record`](Journal::record)
    /// returns at once and [`next_rpc_id`](Journal::next_rpc_id) gives
    /// [`NO_ID`].
    pub fn off() -> Self {
        Journal { inner: None }
    }

    /// Whether this journal records (it was not made by [`Journal::off`]).
    pub fn is_on(&self) -> bool {
        self.inner.is_some()
    }

    /// Emit one record at the current virtual time. Synchronous, no
    /// simulated time consumed, no randomness drawn.
    #[inline]
    pub fn record(
        &self,
        subsystem: Subsystem,
        kind: EventKind,
        rpc_id: u64,
        wr_id: u64,
        bytes: u64,
    ) {
        if let Some(inner) = &self.inner {
            inner.push(subsystem, kind, rpc_id, wr_id, bytes);
        }
    }

    /// Allocate a fresh causal RPC id from this node's
    /// [`node_rpcs`](ids::node_rpcs) span. [`NO_ID`] when the journal is
    /// off.
    #[inline]
    pub fn next_rpc_id(&self) -> u64 {
        let Some(inner) = &self.inner else {
            return NO_ID;
        };
        let n = inner.next_rpc.get();
        inner.next_rpc.set(n + 1);
        inner.rpc_ids.id(n)
    }

    /// Records held.
    pub fn len(&self) -> usize {
        self.inner.as_ref().map_or(0, |i| i.records.borrow().len())
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Always 0: the journal keeps every record. Kept for
    /// `examples/perfbench` only, which reports it.
    pub fn dropped(&self) -> u64 {
        0
    }

    /// Snapshot the records in emission order.
    pub fn records(&self) -> Vec<Record> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |i| i.records.borrow().clone())
    }
}

/// Merge several per-node journals into one globally ordered stream
/// (sorted by timestamp, then node, then per-node sequence — a total,
/// deterministic order).
pub fn merge<'a>(journals: impl IntoIterator<Item = &'a Journal>) -> Vec<Record> {
    let mut all: Vec<Record> = journals.into_iter().flat_map(Journal::records).collect();
    all.sort_by_key(|r| (r.ts_ns, r.node, r.seq));
    all
}

#[cfg(test)]
mod tests {
    use super::audit::tests::audit_both;
    use super::*;
    use crate::Sim;

    #[allow(clippy::too_many_arguments)]
    pub(super) fn rec(
        ts_ns: u64,
        node: u32,
        seq: u64,
        subsystem: Subsystem,
        kind: EventKind,
        rpc_id: u64,
        wr_id: u64,
        bytes: u64,
    ) -> Record {
        Record {
            ts_ns,
            node,
            seq,
            subsystem,
            kind,
            rpc_id,
            wr_id,
            bytes,
        }
    }

    #[test]
    fn ring_bounds_and_sequences() {
        let sim = Sim::new(1);
        let j = Journal::new(sim.handle(), 3);
        for i in 0..6 {
            j.record(Subsystem::Nic, EventKind::DmaIssue, NO_ID, i, 64);
        }
        assert_eq!(j.len(), 6);
        let recs = j.records();
        assert!(recs.iter().enumerate().all(|(i, r)| r.wr_id == i as u64));
        assert!(recs.windows(2).all(|w| w[0].seq < w[1].seq));
        assert!(recs.iter().all(|r| r.node == 3));
    }

    /// A journal keeps every record it is given, in emission order, well
    /// past 2^20 records.
    #[test]
    fn on_journal_keeps_every_record() {
        const N: u64 = (1 << 20) + 1;
        let sim = Sim::new(1);
        let j = Journal::new(sim.handle(), 0);
        for i in 0..N {
            j.record(Subsystem::Pm, EventKind::PmWrite, NO_ID, i, 64);
        }
        assert_eq!((j.len() as u64, j.dropped()), (N, 0));
        let recs = j.records();
        assert_eq!(recs[0].wr_id, 0);
        assert!(recs.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn off_journal_records_nothing() {
        let j = Journal::off();
        j.record(Subsystem::Pm, EventKind::PmWrite, NO_ID, 0, 64);
        assert!(!j.is_on() && j.is_empty());
        assert!(j.records().is_empty());
        assert_eq!(j.next_rpc_id(), NO_ID);
        assert!(merge(&[j]).is_empty());
    }

    #[test]
    fn rpc_id_allocator_starts_above_log_ids() {
        let sim = Sim::new(1);
        let j = Journal::new(sim.handle(), 0);
        let a = j.next_rpc_id();
        let b = j.next_rpc_id();
        assert_eq!(a, 1 << 32);
        assert_eq!(b, (1 << 32) + 1);
    }

    #[test]
    fn rpc_id_allocators_are_disjoint_across_nodes() {
        let sim = Sim::new(1);
        let j3 = Journal::new(sim.handle(), 3);
        let j4 = Journal::new(sim.handle(), 4);
        assert_eq!(j3.next_rpc_id(), (1 << 32) + 3 * (1 << 24));
        assert_eq!(j4.next_rpc_id(), (1 << 32) + 4 * (1 << 24));
    }

    /// A node's allocator stops at the end of its span instead of handing
    /// out the next node's ids.
    #[test]
    #[should_panic(expected = "rpc id counter exceeded the node's id span")]
    fn rpc_id_allocator_panics_past_its_span() {
        let sim = Sim::new(1);
        let j = Journal::new(sim.handle(), 3);
        let last = (0..1 << 24).fold(0, |_, _| j.next_rpc_id());
        assert_eq!(last, ids::node_rpcs(4).id(0) - 1);
        j.next_rpc_id();
    }

    #[test]
    fn jsonl_renders_no_id_as_null() {
        let r = rec(10, 0, 0, Subsystem::Pm, EventKind::PmWrite, NO_ID, 7, 64);
        let line = to_jsonl(&[r]);
        assert_eq!(
            line,
            "{\"ts_ns\":10,\"node\":0,\"subsystem\":\"pm\",\"kind\":\"pm_write\",\"rpc_id\":null,\"wr_id\":7,\"bytes\":64}\n"
        );
    }

    #[test]
    fn chrome_trace_parses_and_names_tracks() {
        let records = vec![
            rec(
                1000,
                0,
                0,
                Subsystem::Rpc,
                EventKind::RpcDispatch,
                1 << 32,
                NO_ID,
                64,
            ),
            rec(
                2000,
                1,
                0,
                Subsystem::Nic,
                EventKind::DmaIssue,
                1 << 32,
                1,
                64,
            ),
            rec(
                5000,
                0,
                1,
                Subsystem::Rpc,
                EventKind::RpcComplete,
                1 << 32,
                NO_ID,
                64,
            ),
        ];
        let text = to_chrome_trace(&records);
        let doc = json::parse(&text).expect("chrome trace must be valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(|v| v.as_arr())
            .expect("traceEvents array");
        // Metadata names both processes; instants carry the records; the
        // rpc flow has a begin and an end.
        let phases: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("ph").and_then(|v| v.as_str()))
            .collect();
        assert_eq!(phases.iter().filter(|p| **p == "i").count(), 3);
        assert_eq!(phases.iter().filter(|p| **p == "s").count(), 1);
        assert_eq!(phases.iter().filter(|p| **p == "f").count(), 1);
        assert!(events.iter().any(|e| {
            e.get("name").and_then(|v| v.as_str()) == Some("process_name")
                && e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(|v| v.as_str())
                    == Some("node1")
        }));
    }

    #[test]
    fn merge_orders_by_time_then_node_then_seq() {
        let sim = Sim::new(1);
        let j0 = Journal::new(sim.handle(), 0);
        let j1 = Journal::new(sim.handle(), 1);
        j1.record(Subsystem::Nic, EventKind::DmaIssue, NO_ID, 0, 1);
        j0.record(Subsystem::Nic, EventKind::DmaIssue, NO_ID, 1, 1);
        j0.record(Subsystem::Nic, EventKind::DmaComplete, NO_ID, 1, 1);
        let merged = merge(&[j1, j0]);
        // All at ts 0: node breaks the tie, then seq.
        assert_eq!(merged[0].node, 0);
        assert_eq!(merged[0].wr_id, 1);
        assert_eq!(merged[1].kind, EventKind::DmaComplete);
        assert_eq!(merged[2].node, 1);
    }

    #[test]
    fn audit_passes_well_ordered_stream() {
        let records = vec![
            rec(
                0,
                1,
                0,
                Subsystem::Rpc,
                EventKind::RpcDispatch,
                5,
                NO_ID,
                64,
            ),
            rec(5, 1, 1, Subsystem::Log, EventKind::LogAppend, 5, 5, 64),
            rec(10, 0, 0, Subsystem::Nic, EventKind::DmaIssue, NO_ID, 0, 64),
            rec(
                20,
                0,
                1,
                Subsystem::Nic,
                EventKind::DmaComplete,
                NO_ID,
                0,
                64,
            ),
            rec(
                21,
                0,
                2,
                Subsystem::Flush,
                EventKind::FlushIssue,
                NO_ID,
                1,
                0,
            ),
            rec(30, 0, 3, Subsystem::Flush, EventKind::FlushAck, NO_ID, 1, 0),
            rec(
                40,
                1,
                2,
                Subsystem::Rpc,
                EventKind::RpcComplete,
                5,
                NO_ID,
                64,
            ),
        ];
        let rep = audit_both(&records);
        rep.assert_ok();
        assert_eq!(rep.flush_acks, 1);
        assert_eq!(rep.rpcs_checked, 1);
    }

    #[test]
    fn audit_catches_injected_early_ack() {
        // The WC-precedes-placement hazard: the barrier ACK arrives
        // before the covered DMA burst has completed into PM.
        let records = vec![
            rec(10, 0, 0, Subsystem::Nic, EventKind::DmaIssue, NO_ID, 0, 64),
            rec(
                12,
                0,
                1,
                Subsystem::Flush,
                EventKind::FlushIssue,
                NO_ID,
                1,
                0,
            ),
            rec(15, 0, 2, Subsystem::Flush, EventKind::FlushAck, NO_ID, 1, 0),
            rec(
                40,
                0,
                3,
                Subsystem::Nic,
                EventKind::DmaComplete,
                NO_ID,
                0,
                64,
            ),
        ];
        let rep = audit_both(&records);
        assert!(!rep.ok());
        assert!(rep.violations[0].message.contains("flush ACK"));
    }

    #[test]
    fn audit_checks_replicated_ack_coverage() {
        let put_id = (1u64 << 60) | 7;
        // Both replica slots appended before the ACK claiming 2: pass.
        let records = vec![
            rec(
                5,
                1,
                0,
                Subsystem::Rpc,
                EventKind::ReplAppend,
                put_id,
                0,
                64,
            ),
            rec(
                9,
                1,
                1,
                Subsystem::Rpc,
                EventKind::ReplAppend,
                put_id,
                1,
                64,
            ),
            rec(12, 1, 2, Subsystem::Rpc, EventKind::ReplAck, put_id, 2, 64),
        ];
        let rep = audit_both(&records);
        rep.assert_ok();
        assert_eq!(rep.repl_acks, 1);

        // An ACK claiming 2 replicas with only one preceding append (the
        // second lands after the ACK): violation.
        let records = vec![
            rec(
                5,
                1,
                0,
                Subsystem::Rpc,
                EventKind::ReplAppend,
                put_id,
                0,
                64,
            ),
            rec(12, 1, 1, Subsystem::Rpc, EventKind::ReplAck, put_id, 2, 64),
            rec(
                20,
                1,
                2,
                Subsystem::Rpc,
                EventKind::ReplAppend,
                put_id,
                1,
                64,
            ),
        ];
        let rep = audit_both(&records);
        assert!(!rep.ok());
        assert!(rep.violations[0].message.contains("claims 2 replicas"));

        // Two appends on the SAME slot must not count as two replicas.
        let records = vec![
            rec(
                5,
                1,
                0,
                Subsystem::Rpc,
                EventKind::ReplAppend,
                put_id,
                0,
                64,
            ),
            rec(
                9,
                1,
                1,
                Subsystem::Rpc,
                EventKind::ReplAppend,
                put_id,
                0,
                64,
            ),
            rec(12, 1, 2, Subsystem::Rpc, EventKind::ReplAck, put_id, 2, 64),
        ];
        assert!(!audit_both(&records).ok());
    }

    #[test]
    fn audit_catches_completion_before_append() {
        let records = vec![
            rec(
                0,
                1,
                0,
                Subsystem::Rpc,
                EventKind::RpcDispatch,
                9,
                NO_ID,
                64,
            ),
            rec(
                5,
                1,
                1,
                Subsystem::Rpc,
                EventKind::RpcComplete,
                9,
                NO_ID,
                64,
            ),
            rec(9, 1, 2, Subsystem::Log, EventKind::LogAppend, 9, 9, 64),
        ];
        let rep = audit_both(&records);
        assert!(!rep.ok());
        assert!(rep.violations[0]
            .message
            .contains("precedes its redo-log append"));
    }

    #[test]
    fn audit_catches_lost_recovery_entry() {
        let lane_base = 2u64 << 40;
        let records = vec![
            rec(
                0,
                1,
                0,
                Subsystem::Log,
                EventKind::LogAppend,
                lane_base,
                0,
                64,
            ),
            rec(
                5,
                1,
                1,
                Subsystem::Log,
                EventKind::LogAppend,
                lane_base | 1,
                1,
                64,
            ),
            rec(
                100,
                0,
                0,
                Subsystem::Recovery,
                EventKind::RecoveryStart,
                lane_base,
                0,
                0,
            ),
            rec(
                110,
                0,
                1,
                Subsystem::Recovery,
                EventKind::RecoveryReplay,
                lane_base,
                0,
                64,
            ),
            // Entry 1 neither replayed nor reported lost: a dropped
            // acknowledged put.
        ];
        let rep = audit_both(&records);
        assert!(!rep.ok());
        assert!(rep.violations[0]
            .message
            .contains("neither replayed nor reported lost"));

        // Reporting it lost (torn slot) satisfies the invariant.
        let mut ok_records = records.clone();
        ok_records.push(rec(
            111,
            0,
            2,
            Subsystem::Recovery,
            EventKind::RecoveryLost,
            lane_base | 1,
            1,
            0,
        ));
        audit_both(&ok_records).assert_ok();
    }

    #[test]
    fn audit_scopes_recovery_to_lane_and_time() {
        let lane0 = 0u64;
        let lane1 = 1u64 << 40;
        let records = vec![
            rec(0, 1, 0, Subsystem::Log, EventKind::LogAppend, lane0, 0, 64),
            rec(
                1,
                2,
                0,
                Subsystem::Log,
                EventKind::LogAppend,
                lane1 | 7,
                7,
                64,
            ),
            rec(
                50,
                0,
                0,
                Subsystem::Recovery,
                EventKind::RecoveryStart,
                lane0,
                0,
                0,
            ),
            rec(
                55,
                0,
                1,
                Subsystem::Recovery,
                EventKind::RecoveryReplay,
                lane0,
                0,
                64,
            ),
            // Appended after the scan: not this recovery's business.
            rec(
                60,
                1,
                1,
                Subsystem::Log,
                EventKind::LogAppend,
                lane0 | 1,
                1,
                64,
            ),
        ];
        audit_both(&records).assert_ok();
    }

    #[test]
    fn audit_checks_lease_invalidation_precedes_put_ack() {
        let key = (3u64 << 44) | 7;
        let put_id = 2u64 << 40;
        // Invalidation before the put's completion: pass.
        let records = vec![
            rec(
                0,
                1,
                0,
                Subsystem::Rpc,
                EventKind::RpcDispatch,
                put_id,
                NO_ID,
                64,
            ),
            rec(
                5,
                1,
                1,
                Subsystem::Rpc,
                EventKind::LeaseInvalidate,
                put_id,
                key,
                1,
            ),
            rec(
                20,
                1,
                2,
                Subsystem::Rpc,
                EventKind::RpcComplete,
                put_id,
                NO_ID,
                64,
            ),
        ];
        let rep = audit_both(&records);
        rep.assert_ok();
        assert_eq!(rep.lease_invalidations, 1);

        // Invalidation after the ACK: the window where a cached read can
        // return bytes newer than the last flush-ACKed put. Violation.
        let records = vec![
            rec(
                20,
                1,
                0,
                Subsystem::Rpc,
                EventKind::RpcComplete,
                put_id,
                NO_ID,
                64,
            ),
            rec(
                25,
                1,
                1,
                Subsystem::Rpc,
                EventKind::LeaseInvalidate,
                put_id,
                key,
                1,
            ),
        ];
        let rep = audit_both(&records);
        assert!(!rep.ok());
        assert!(rep.violations[0].message.contains("follows its put"));
    }

    #[test]
    fn audit_checks_cached_read_lease_coverage() {
        let key = (1u64 << 44) | 9;
        // Grant at epoch 0, read at epoch 0: pass.
        let records = vec![
            rec(5, 1, 0, Subsystem::Rpc, EventKind::LeaseGrant, 100, key, 0),
            rec(9, 1, 1, Subsystem::Rpc, EventKind::CacheRead, 101, key, 0),
        ];
        let rep = audit_both(&records);
        rep.assert_ok();
        assert_eq!(rep.cached_reads, 1);

        // A read with no covering grant: violation.
        let records = vec![rec(
            9,
            1,
            0,
            Subsystem::Rpc,
            EventKind::MirrorRead,
            101,
            key,
            3,
        )];
        let rep = audit_both(&records);
        assert!(!rep.ok());
        assert!(rep.violations[0]
            .message
            .contains("without a covering lease grant"));

        // Grant(0) → invalidate(→1) → read(0) strictly later: a revoked
        // lease was served. Violation.
        let records = vec![
            rec(5, 1, 0, Subsystem::Rpc, EventKind::LeaseGrant, 100, key, 0),
            rec(
                8,
                2,
                0,
                Subsystem::Rpc,
                EventKind::LeaseInvalidate,
                200,
                key,
                1,
            ),
            rec(12, 1, 1, Subsystem::Rpc, EventKind::CacheRead, 101, key, 0),
        ];
        let rep = audit_both(&records);
        assert!(!rep.ok());
        assert!(rep.violations[0]
            .message
            .contains("revoked by an invalidation"));

        // Same-timestamp invalidate and read are concurrent (zero-time
        // emission): not a violation. Re-grant at the new epoch then a
        // read at that epoch is clean. (The invalidating node is 0 so the
        // fixture is in merge order with the bump ahead of the read.)
        let records = vec![
            rec(5, 1, 0, Subsystem::Rpc, EventKind::LeaseGrant, 100, key, 0),
            rec(
                8,
                0,
                0,
                Subsystem::Rpc,
                EventKind::LeaseInvalidate,
                200,
                key,
                1,
            ),
            rec(8, 1, 1, Subsystem::Rpc, EventKind::CacheRead, 101, key, 0),
            rec(11, 1, 2, Subsystem::Rpc, EventKind::LeaseGrant, 102, key, 1),
            rec(15, 1, 3, Subsystem::Rpc, EventKind::CacheRead, 103, key, 1),
        ];
        audit_both(&records).assert_ok();
    }

    #[test]
    fn json_parser_handles_nesting_and_rejects_garbage() {
        let v = json::parse(r#"{"a":[1,2.5,-3e2],"b":{"c":"x\ny"},"d":null,"e":true}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("d"), Some(&json::Value::Null));
        assert_eq!(json::parse(r#""µs → ✓""#).unwrap().as_str(), Some("µs → ✓"));
        // Strings are scanned once: a quadratic scan takes tens of seconds here.
        let long = format!("\"{}\"", "µ".repeat(200_000));
        assert_eq!(
            json::parse(&long).unwrap().as_str().map(str::len),
            Some(400_000)
        );
        assert!(json::parse("{\"a\":1,}").is_err());
        assert!(json::parse("[1,2] trailing").is_err());
        assert!(json::parse("").is_err());
    }
}
