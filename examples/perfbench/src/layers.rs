//! The per-layer ledger: counts and busy times read through public
//! accessors and the fleet metrics after every unit, and — on traced
//! runs — journal record counts, the auditor's verdict, and the exact
//! virtual-time phase partition from `span::build_span_trees`.
//!
//! A workload repetition is one or more units (one `Sim` each); the
//! ledger pools them, so every ratio is over the whole repetition.

use std::collections::BTreeMap;

use prdma::span::{build_span_trees, PHASES};
use prdma_node::Cluster;
use prdma_simnet::journal::{self, EventKind};
use prdma_simnet::{Sim, SimDuration};

use crate::trace::Recorder;
use crate::workloads::Rep;

/// What the workload knows about a finished unit.
pub struct UnitInfo {
    /// Operations completed.
    pub ops: u64,
    /// Durable writes among them.
    pub puts: u64,
    /// Payload bytes those writes carried.
    pub user_bytes: u64,
    /// Virtual time the unit's timed section took.
    pub elapsed: SimDuration,
    /// Server nodes in the unit's cluster.
    pub servers: usize,
}

/// Which metric each span phase is reported as, in `span::PHASES` order.
const PHASE_METRICS: [&str; 8] = [
    "core.shard.virt_queueing_ns",
    "core.durable.virt_sender_sw_ns",
    "rnic.virt_wire_ns",
    "rnic.virt_nic_dma_ns",
    "pmem.virt_pm_media_ns",
    "core.flush.virt_flush_wait_ns",
    "core.replication.virt_straggler_ns",
    "core.durable.virt_receiver_sw_ns",
];

const _: () = assert!(PHASES.len() == PHASE_METRICS.len());

/// Pooled per-layer readings of one repetition.
#[derive(Default)]
pub struct Ledger {
    ops: u64,
    puts: u64,
    user_bytes: u64,
    /// Σ elapsed × servers: the denominator of per-server busy fractions.
    server_ns: u128,
    client_busy_ns: u64,
    server_busy_ns: u64,
    media_busy_ns: u64,
    bytes_persisted: u64,
    retransmits: u64,
    timer_slab: usize,
    /// Fleet metric counters and gauges, summed over nodes and labels.
    fleet: BTreeMap<&'static str, u64>,
    shard_ops: Vec<u64>,
    committed_txns: u64,
    // Traced runs only.
    traced: bool,
    records: u64,
    dropped: u64,
    kinds: BTreeMap<EventKind, u64>,
    pcie_busy_ns: u64,
    roots: u64,
    root_ns: u64,
    phase_ns: [u64; 8],
    collect_ns: u64,
    audit_ns: u64,
    span_ns: u64,
}

impl Ledger {
    /// Add one open-loop unit's arrivals per shard.
    pub fn shard_ops(&mut self, per_shard: &[u64]) {
        self.shard_ops.resize(per_shard.len(), 0);
        for (acc, n) in self.shard_ops.iter_mut().zip(per_shard) {
            *acc += n;
        }
    }

    /// Record the committed-transaction count (denominator of
    /// `prepares_per_txn`).
    pub fn txns(&mut self, committed: u64) {
        self.committed_txns += committed;
    }

    fn kind(&self, k: EventKind) -> f64 {
        self.kinds.get(&k).copied().unwrap_or(0) as f64
    }

    fn fleet(&self, name: &str) -> f64 {
        self.fleet.get(name).copied().unwrap_or(0) as f64
    }

    /// Fold a finished unit in. On a traced run this also collects the
    /// merged journal, audits it (fatal on a violation or a dropped
    /// record) and builds the span trees (fatal unless every request's
    /// phases sum exactly to its latency).
    pub fn fold_unit(
        &mut self,
        rec: &mut Recorder,
        sim: &Sim,
        cluster: &Cluster,
        unit: &UnitInfo,
        traced: bool,
    ) {
        self.ops += unit.ops;
        self.puts += unit.puts;
        self.user_bytes += unit.user_bytes;
        self.server_ns += unit.elapsed.as_nanos() as u128 * unit.servers as u128;
        self.timer_slab = self.timer_slab.max(sim.timer_slab_size());
        for i in 0..cluster.len() {
            let node = cluster.node(i);
            let busy = node.cpu.busy_time().as_nanos();
            if i < cluster.servers() {
                self.server_busy_ns += busy;
                self.media_busy_ns += node.pm.media_busy_time().as_nanos();
                self.bytes_persisted += node.pm.bytes_persisted();
            } else {
                self.client_busy_ns += busy;
            }
            self.retransmits += node.rnic().retransmits();
            if let Some(m) = node.metrics() {
                m.force_snapshot();
                let last = m.snapshots().pop().expect("forced snapshot");
                for (key, v) in last.counters {
                    *self.fleet.entry(key.name).or_default() += v;
                }
                for (key, v) in last.gauges {
                    if key.name == "log_stalls" {
                        *self.fleet.entry(key.name).or_default() += v.max(0) as u64;
                    }
                }
            }
        }
        if !traced {
            return;
        }
        self.traced = true;

        let (records, ns) = rec.span("collect", || cluster.journal_records());
        self.collect_ns += ns;
        self.records += records.len() as u64;
        self.dropped += (0..cluster.len())
            .filter_map(|i| cluster.node(i).journal())
            .map(|j| j.dropped())
            .sum::<u64>();
        assert_eq!(
            self.dropped, 0,
            "a journal ring dropped records; shrink the traced size"
        );
        let mut dma_open: BTreeMap<(u32, u64), u64> = BTreeMap::new();
        for r in &records {
            *self.kinds.entry(r.kind).or_default() += 1;
            match r.kind {
                EventKind::DmaIssue => {
                    dma_open.insert((r.node, r.wr_id), r.ts_ns);
                }
                EventKind::DmaComplete => {
                    if let Some(t0) = dma_open.remove(&(r.node, r.wr_id)) {
                        self.pcie_busy_ns += r.ts_ns - t0;
                    }
                }
                _ => {}
            }
        }

        let (report, ns) = rec.span("audit", || journal::audit(&records));
        self.audit_ns += ns;
        report.assert_ok();

        let (trees, ns) = rec.span("span_build", || build_span_trees(&records));
        self.span_ns += ns;
        for t in &trees {
            let parts = t.attribution.parts();
            assert_eq!(
                parts.iter().sum::<u64>(),
                t.root.latency_ns(),
                "span phases of rpc {} do not sum to its latency",
                t.root.id
            );
            for (acc, p) in self.phase_ns.iter_mut().zip(parts) {
                *acc += p;
            }
            self.root_ns += t.root.latency_ns();
        }
        self.roots += trees.len() as u64;
    }

    /// Write the pooled readings into `rep` under their metric names.
    pub fn finish(self, rep: &mut Rep) {
        let ops = self.ops.max(1) as f64;
        let puts = self.puts.max(1) as f64;
        let server_ns = (self.server_ns.max(1)) as f64;
        let mut set = |name: &str, v: f64| {
            rep.exact.insert(name.to_string(), v);
        };
        set("simnet.executor.timer_slab_size", self.timer_slab as f64);
        set("rnic.retransmits", self.retransmits as f64);
        set(
            "pmem.bytes_persisted_per_user_byte",
            self.bytes_persisted as f64 / self.user_bytes.max(1) as f64,
        );
        set(
            "pmem.media_busy_frac",
            self.media_busy_ns as f64 / server_ns,
        );
        set(
            "node.cpu.client_busy_us_per_op",
            self.client_busy_ns as f64 / 1e3 / ops,
        );
        set(
            "node.cpu.server_busy_us_per_op",
            self.server_busy_ns as f64 / 1e3 / ops,
        );
        set("core.log.stalls", self.fleet("log_stalls"));
        set("core.durable.retries", self.fleet("rpc_retries"));
        let gets = self.fleet("cache_hits") + self.fleet("cache_misses");
        if gets > 0.0 {
            set("core.cache.hit_frac", self.fleet("cache_hits") / gets);
            set(
                "core.cache.mirror_read_frac",
                self.fleet("mirror_reads") / gets,
            );
        }
        if let Some(&max) = self.shard_ops.iter().max() {
            let mean = self.shard_ops.iter().sum::<u64>() as f64 / self.shard_ops.len() as f64;
            set("core.shard.imbalance", max as f64 / mean.max(1.0));
        }
        if !self.traced {
            return;
        }

        // The phase partition must survive pooling: integer sums, so the
        // means sum to the mean root latency exactly.
        assert_eq!(
            self.phase_ns.iter().sum::<u64>(),
            self.root_ns,
            "pooled span phases do not sum to the pooled root latency"
        );
        let roots = self.roots.max(1) as f64;
        for (name, ns) in PHASE_METRICS.iter().zip(self.phase_ns) {
            set(name, ns as f64 / roots);
        }
        set("core.span.virt_root_ns", self.root_ns as f64 / roots);
        set("core.span.roots", self.roots as f64);
        set("simnet.journal.records_per_op", self.records as f64 / ops);
        set("simnet.journal.dropped", self.dropped as f64);
        set(
            "rnic.doorbells_per_op",
            self.kind(EventKind::Doorbell) / ops,
        );
        set(
            "rnic.wire_segments_per_op",
            self.kind(EventKind::WireSegment) / ops,
        );
        set("rnic.dma_per_op", self.kind(EventKind::DmaIssue) / ops);
        set("rnic.pcie_busy_frac", self.pcie_busy_ns as f64 / server_ns);
        set("pmem.writes_per_op", self.kind(EventKind::PmWrite) / ops);
        set(
            "core.log.appends_per_op",
            self.kind(EventKind::LogAppend) / ops,
        );
        set(
            "core.flush.issues_per_op",
            self.kind(EventKind::FlushIssue) / ops,
        );
        let repl_acks = self.kind(EventKind::ReplAck);
        if repl_acks > 0.0 {
            set(
                "core.replication.legs_per_put",
                self.kind(EventKind::ReplLink) / repl_acks,
            );
        }
        set(
            "core.cache.invalidations_per_put",
            self.kind(EventKind::LeaseInvalidate) / puts,
        );
        if self.committed_txns > 0 {
            set(
                "core.txn.prepares_per_txn",
                self.kind(EventKind::TxnPrepare) / self.committed_txns as f64,
            );
        }
        let records = self.records.max(1) as f64;
        let mut host = |name: &str, v: f64| {
            rep.host.insert(name.to_string(), v);
        };
        host(
            "simnet.journal.collect_ns_per_record",
            self.collect_ns as f64 / records,
        );
        host(
            "simnet.journal.audit_ns_per_record",
            self.audit_ns as f64 / records,
        );
        host(
            "core.span.build_ns_per_record",
            self.span_ns as f64 / records,
        );
    }
}
