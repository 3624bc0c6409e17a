//! The metric tables: every name the benchmark reports, with its unit,
//! which direction is better, and which clock it is read from. The root
//! `BENCHMARK.json` is generated from these tables (`perfbench manifest`),
//! and `perfbench compare` takes its bounds from them.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Which clock a metric is read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Virtual time or a count: repeats bit for bit for a given seed and
    /// size, so two commits compare exactly.
    Exact,
    /// Host time or memory: subject to the sandbox's noise.
    Host,
}

impl Clock {
    pub fn name(self) -> &'static str {
        match self {
            Clock::Exact => "exact",
            Clock::Host => "host",
        }
    }
}

/// One metric.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub clock: Clock,
}

const fn def(name: &'static str, unit: &'static str, better: Better, clock: Clock) -> Def {
    Def {
        name,
        unit,
        better,
        clock,
    }
}

use Better::{Higher, Lower};
use Clock::{Exact, Host};

/// End-to-end metrics with the share of the parent's median by which each
/// may get worse. Every workload reports every one of them, none is ever
/// zero, and each moves with the seed on every workload (see README).
pub const END_TO_END: [(Def, f64); 5] = [
    (def("op_mean_us", "us", Lower, Exact), 0.08),
    (def("virt_kops", "kops", Higher, Exact), 0.08),
    (def("host_ns_per_op", "ns", Lower, Host), 0.25),
    (def("peak_rss_mb", "MiB", Lower, Host), 0.10),
    (def("setup_s", "s", Lower, Host), 0.25),
];

/// Layer metrics a user of the modelled system sees directly. They cannot
/// be end-to-end metrics under the builder contract (each exists on some
/// workloads only, or reads the same for every seed), so `compare` gates
/// on them instead: any exact change for the worse fails it.
pub const HEADLINE: [&str; 14] = [
    "bench.op_p50_us",
    "bench.op_p99_us",
    "bench.failed_frac",
    "core.durable.put_p50_us",
    "core.durable.put_p99_us",
    "core.durable.unavail_us",
    "core.cache.get_p50_us",
    "core.cache.get_p99_us",
    "core.txn.commit_p50_us",
    "core.txn.commit_p99_us",
    "core.txn.abort_frac",
    "workloads.openloop.max_rate_slo_kops",
    "workloads.openloop.p99_us.at_1600k",
    "simnet.journal.dropped",
];

/// Per-layer metrics, `<layer>.<name>`. A workload that does not exercise
/// a layer reports 0 for it.
pub const PER_LAYER: [Def; 107] = [
    // simnet.executor -> host_ns_per_op everywhere, most on put_closed and
    // txn_2pc; timer_slab_size -> peak_rss_mb.
    def("simnet.executor.events_per_op", "count", Lower, Exact),
    def("simnet.executor.host_ns_per_event", "ns", Lower, Host),
    def("simnet.executor.host_events_per_s", "1/s", Higher, Host),
    def("simnet.executor.timer_slab_size", "count", Lower, Exact),
    def(
        "simnet.executor.probe_spawn_sleep_ns_per_event",
        "ns",
        Lower,
        Host,
    ),
    def(
        "simnet.executor.probe_timeout_cancel_ns_per_op",
        "ns",
        Lower,
        Host,
    ),
    // simnet.channel -> host_ns_per_op on openloop_fleet.
    def(
        "simnet.channel.probe_send_recv_ns_per_msg",
        "ns",
        Lower,
        Host,
    ),
    // simnet.journal -> traced-run time only; must move no end-to-end metric.
    def("simnet.journal.records_per_op", "count", Lower, Exact),
    def("simnet.journal.dropped", "count", Lower, Exact),
    def("simnet.journal.trace_overhead_pct", "%", Lower, Host),
    def("simnet.journal.collect_ns_per_record", "ns", Lower, Host),
    def("simnet.journal.audit_ns_per_record", "ns", Lower, Host),
    def("simnet.journal.probe_record_ns", "ns", Lower, Host),
    // simnet.metrics / simnet.stats -> host_ns_per_op, all workloads (small).
    def("simnet.metrics.probe_metrics_record_ns", "ns", Lower, Host),
    def("simnet.stats.probe_hist_record_ns", "ns", Lower, Host),
    // rnic -> op_mean_us on put_closed (64 KB most) and openloop_fleet.
    def("rnic.doorbells_per_op", "count", Lower, Exact),
    def("rnic.wire_segments_per_op", "count", Lower, Exact),
    def("rnic.dma_per_op", "count", Lower, Exact),
    def("rnic.virt_wire_ns", "ns", Lower, Exact),
    def("rnic.virt_nic_dma_ns", "ns", Lower, Exact),
    def("rnic.pcie_busy_frac", "frac", Lower, Exact),
    def("rnic.retransmits", "count", Lower, Exact),
    // pmem -> op_mean_us (put_closed 64 KB), virt_kops (crash_replay).
    def("pmem.writes_per_op", "count", Lower, Exact),
    def("pmem.bytes_persisted_per_user_byte", "frac", Lower, Exact),
    def("pmem.media_busy_frac", "frac", Lower, Exact),
    def("pmem.virt_pm_media_ns", "ns", Lower, Exact),
    // node.cpu -> virt_kops and max_rate_slo_kops on openloop_fleet.
    def("node.cpu.client_busy_us_per_op", "us", Lower, Exact),
    def("node.cpu.server_busy_us_per_op", "us", Lower, Exact),
    // core.log -> op_mean_us (put_closed, txn_2pc); unavail_us and
    // host_ns_per_op on crash_replay.
    def("core.log.appends_per_op", "count", Lower, Exact),
    def("core.log.stalls", "count", Lower, Exact),
    def("core.log.probe_encode_entry_ns", "ns", Lower, Host),
    def("core.log.replayed_entries", "count", Lower, Exact),
    def("core.log.recover_host_us", "us", Lower, Host),
    // core.flush -> op_mean_us on put_closed (SFlush row most).
    def("core.flush.issues_per_op", "count", Lower, Exact),
    def("core.flush.virt_flush_wait_ns", "ns", Lower, Exact),
    // core.durable -> op_mean_us / virt_kops (put_closed), unavail_us
    // (crash_replay).
    def("core.durable.virt_sender_sw_ns", "ns", Lower, Exact),
    def("core.durable.virt_receiver_sw_ns", "ns", Lower, Exact),
    def("core.durable.put_p50_us", "us", Lower, Exact),
    def("core.durable.put_p99_us", "us", Lower, Exact),
    def("core.durable.put_samples", "count", Higher, Exact),
    def("core.durable.put_p50_us.sflush", "us", Lower, Exact),
    def("core.durable.put_p50_us.s-rflush", "us", Lower, Exact),
    def("core.durable.put_p50_us.w-rflush", "us", Lower, Exact),
    def("core.durable.put_p50_us.wflush-64b", "us", Lower, Exact),
    def("core.durable.put_p50_us.wflush-64k", "us", Lower, Exact),
    def("core.durable.put_mean_us.wflush-mix", "us", Lower, Exact),
    def("core.durable.retries", "count", Lower, Exact),
    def("core.durable.unavail_us", "us", Lower, Exact),
    // core.replication -> openloop_fleet tail; zero elsewhere.
    def("core.replication.legs_per_put", "count", Lower, Exact),
    def("core.replication.virt_straggler_ns", "ns", Lower, Exact),
    // core.shard -> max_rate_slo_kops on openloop_fleet.
    def("core.shard.virt_queueing_ns", "ns", Lower, Exact),
    def("core.shard.imbalance", "frac", Lower, Exact),
    // core.cache -> op_mean_us / virt_kops on cached_read95; must not move
    // core.durable.put_p50_us there.
    def("core.cache.hit_frac", "frac", Higher, Exact),
    def("core.cache.mirror_read_frac", "frac", Higher, Exact),
    def("core.cache.invalidations_per_put", "count", Lower, Exact),
    def("core.cache.probe_get_hot_ns", "ns", Lower, Host),
    def("core.cache.get_p50_us", "us", Lower, Exact),
    def("core.cache.get_p99_us", "us", Lower, Exact),
    def("core.cache.get_samples", "count", Higher, Exact),
    // core.txn -> op_mean_us, abort_frac, host_ns_per_op on txn_2pc.
    def("core.txn.prepares_per_txn", "count", Lower, Exact),
    def("core.txn.events_per_txn", "count", Lower, Exact),
    def("core.txn.host_us_per_txn", "us", Lower, Host),
    def("core.txn.staged_at_end", "count", Lower, Exact),
    def("core.txn.commit_p50_us", "us", Lower, Exact),
    def("core.txn.commit_p99_us", "us", Lower, Exact),
    def("core.txn.commit_samples", "count", Higher, Exact),
    def("core.txn.abort_frac", "frac", Lower, Exact),
    // core.span -> traced-run time only.
    def("core.span.build_ns_per_record", "ns", Lower, Host),
    def("core.span.virt_root_ns", "ns", Lower, Exact),
    def("core.span.roots", "count", Higher, Exact),
    // workloads -> setup_s, and the curve behind max_rate_slo_kops.
    def("workloads.openloop.gen_ns_per_arrival", "ns", Lower, Host),
    def("workloads.openloop.generator_late_ns", "ns", Lower, Exact),
    def("workloads.dist.probe_zipf_sample_ns", "ns", Lower, Host),
    def(
        "workloads.openloop.max_rate_slo_kops",
        "kops",
        Higher,
        Exact,
    ),
    def("workloads.openloop.p99_us.at_400k", "us", Lower, Exact),
    def("workloads.openloop.p99_us.at_800k", "us", Lower, Exact),
    def("workloads.openloop.p99_us.at_1200k", "us", Lower, Exact),
    def("workloads.openloop.p99_us.at_1600k", "us", Lower, Exact),
    def("workloads.openloop.p99_us.at_1800k", "us", Lower, Exact),
    def("workloads.openloop.p99_us.at_2000k", "us", Lower, Exact),
    def(
        "workloads.openloop.achieved_frac.at_400k",
        "frac",
        Higher,
        Exact,
    ),
    def(
        "workloads.openloop.achieved_frac.at_800k",
        "frac",
        Higher,
        Exact,
    ),
    def(
        "workloads.openloop.achieved_frac.at_1200k",
        "frac",
        Higher,
        Exact,
    ),
    def(
        "workloads.openloop.achieved_frac.at_1600k",
        "frac",
        Higher,
        Exact,
    ),
    def(
        "workloads.openloop.achieved_frac.at_1800k",
        "frac",
        Higher,
        Exact,
    ),
    def(
        "workloads.openloop.achieved_frac.at_2000k",
        "frac",
        Higher,
        Exact,
    ),
    // bench: the harness's own readings.
    def("bench.op_p50_us", "us", Lower, Exact),
    def("bench.op_p99_us", "us", Lower, Exact),
    def("bench.op_samples", "count", Higher, Exact),
    def("bench.failed_frac", "frac", Lower, Exact),
    def("bench.host_cpu_ns_per_op", "ns", Lower, Host),
    def("bench.host_ns_per_op_min", "ns", Lower, Host),
    def("bench.host_ns_per_op_max", "ns", Lower, Host),
    def("bench.rss_growth_per_rep_mb", "MiB", Lower, Host),
    def("bench.reps", "count", Higher, Host),
    def("bench.disturbed_reps", "count", Lower, Host),
    def("bench.span.setup_ms", "ms", Lower, Host),
    def("bench.span.generate_ms", "ms", Lower, Host),
    def("bench.span.simulate_ms", "ms", Lower, Host),
    def("bench.span.collect_ms", "ms", Lower, Host),
    def("bench.span.audit_ms", "ms", Lower, Host),
    def("bench.span.span_build_ms", "ms", Lower, Host),
    def("bench.span.rep_ms", "ms", Lower, Host),
    def("bench.traced_ops", "count", Higher, Exact),
    def("bench.traced_host_ns_per_op", "ns", Lower, Host),
    def("bench.untraced_host_ns_per_op", "ns", Lower, Host),
    def("bench.traced_pairs", "count", Higher, Host),
];

/// Look a metric up by name in either table.
pub fn find(name: &str) -> Option<(Def, Option<f64>)> {
    END_TO_END
        .iter()
        .find(|(d, _)| d.name == name)
        .map(|&(d, b)| (d, Some(b)))
        .or_else(|| {
            PER_LAYER
                .iter()
                .find(|d| d.name == name)
                .map(|&d| (d, None))
        })
}
