//! Observability figure (`fig_obs`): a live fleet-metrics dashboard, tail
//! critical-path attribution from per-RPC span trees, and the
//! metrics-overhead gate.
//!
//! The dashboard run drives a replicated sharded fleet (3 shards × 2
//! replicas, 2 client nodes) with journaling *and* metrics on, degrades
//! one server's ingress link mid-run, and then folds the fleet's
//! per-node metrics snapshots into per-interval tables: counter deltas
//! (ops, retries, faults), instantaneous gauges (inflight, DMA/log
//! queue depths), and the windowed put-latency p99. The same run's
//! journal feeds [`prdma::build_span_trees`] / [`prdma::tail_report`],
//! which attribute the slowest 1% of requests to exact phases and name
//! the straggling replica.
//!
//! Ticks are bucketed to at most 24 dashboard rows; pass `--dashboard`
//! for full per-tick resolution. The raw
//! artifacts (`fig_obs_metrics.jsonl`, `fig_obs_tail.txt`) are written
//! to the output directory unconditionally — both are byte-deterministic
//! for a given seed.
//!
//! The overhead gate reruns one fig09-style micro point with metrics
//! forced off and then on (via [`crate::runner::set_metrics_override`]),
//! asserts the virtual-time results are identical, and reports the
//! wall-time overhead (min of 3 runs each). `PRDMA_OBS_GATE=1` turns the
//! ≤5% bound into a hard assertion (the CI `smoke` job sets it).

use std::collections::BTreeMap;
use std::time::Instant;

use prdma::span::PHASES;
use prdma::{
    build_fleet, build_span_trees, tail_report, CacheConfig, DurableConfig, DurableKind, FleetSpec,
    RpcClient, ServerProfile, ShardMap, TailReport,
};
use prdma_baselines::SystemKind;
use prdma_node::{Cluster, ClusterConfig};
use prdma_simnet::fault::{FaultKind, FaultPlan};
use prdma_simnet::metrics::{Key, Snapshot};
use prdma_simnet::{Sim, SimDuration, SimTime};
use prdma_workloads::micro::{run_micro_fleet, MicroConfig};

use crate::report::{output_dir, us, Table};
use crate::runner::{micro_run, set_metrics_override, ExpEnv, Scale};

/// Full per-tick dashboard resolution: `--dashboard` after `--`.
/// Default caps the fleet table at 24 rows.
fn dashboard_full() -> bool {
    std::env::args().any(|a| a == "--dashboard")
}

struct ObsRun {
    snapshots: Vec<Snapshot>,
    tail: TailReport,
    metrics_jsonl: String,
    trees: usize,
}

/// The dashboard scenario: replicated sharded fleet, one degraded link.
fn obs_run(scale: Scale) -> ObsRun {
    let shards = 3;
    let clients = 2;
    let replicas = 2;
    let objects = scale.objects.min(1_500);
    let mut sim = Sim::new(20211114);
    let mut ccfg = ClusterConfig::with_servers(shards, clients);
    ccfg.journal = true;
    ccfg.metrics = true;
    // Finer ticks than the 1 ms default: the smoke-scale run lasts only
    // a few virtual ms and the dashboard should resolve the fault window.
    ccfg.metrics_interval = SimDuration::from_micros(100);
    let cluster = Cluster::new(sim.handle(), ccfg);
    // Degrade one replica's ingress 8x for a mid-run window: the span
    // analyzer must name it as the tail's critical node, and the
    // dashboard shows the retry/latency spike in that interval.
    let plan = FaultPlan::new().at(
        SimTime::from_nanos(300_000),
        2,
        FaultKind::LinkDegrade {
            factor: 8.0,
            duration: SimDuration::from_micros(400),
        },
    );
    cluster.inject_faults(plan);
    let map = ShardMap::new(shards);
    let dcfg = DurableConfig {
        kind: DurableKind::WFlush,
        profile: ServerProfile::light(),
        slot_payload: 1024,
        object_slot: 1024,
        store_capacity: map.local_span(objects) * 1024,
        log_slots: 256,
        ..Default::default()
    };
    // Front every shard's replica group with the hot-key lease cache so
    // the dashboard also shows the cache columns (hits, invalidations,
    // and the lease revocations a backup promotion triggers).
    let spec = FleetSpec {
        replicas,
        cache: Some(CacheConfig::default()),
    };
    let client_nodes: Vec<usize> = (shards..shards + clients).collect();
    let sys = build_fleet(&cluster, map, &client_nodes, &dcfg, spec);
    let cfg = MicroConfig {
        objects,
        ops: (scale.micro_ops / 16).max(200),
        object_size: 1024,
        ..Default::default()
    };
    let fleet: Vec<Box<dyn RpcClient>> = sys
        .clients
        .into_iter()
        .map(|c| Box::new(c) as Box<dyn RpcClient>)
        .collect();
    let h = sim.handle();
    sim.block_on(async move { run_micro_fleet(fleet, &h, &cfg).await });
    sim.run();
    cluster.audit_journal().assert_ok();
    let snapshots = cluster.metrics_snapshots();
    let metrics_jsonl = prdma_simnet::metrics::to_jsonl(&snapshots);
    let trees = build_span_trees(&cluster.journal_records());
    let tail = tail_report(&trees, 0.01);
    ObsRun {
        snapshots,
        tail,
        metrics_jsonl,
        trees: trees.len(),
    }
}

/// Fold the fleet snapshot stream into per-interval rows: counter
/// *deltas* summed across nodes, latest gauge values summed across
/// nodes, and the interval's worst windowed put-latency p99. Buckets
/// group consecutive ticks so the table never exceeds `max_rows`.
fn fleet_table(snaps: &[Snapshot], max_rows: usize) -> Table {
    let mut t = Table::new(
        "fig_obs_fleet",
        "Fleet dashboard: per-interval counter deltas, gauges, put p99",
        &[
            "t_ms",
            "puts",
            "gets",
            "rpc_ok",
            "retries",
            "timeouts",
            "repl_puts",
            "faults",
            "c_hits",
            "c_miss",
            "c_inval",
            "revoked",
            "inflight",
            "dma_q",
            "log_q",
            "put_p99_us",
        ],
    );
    let mut ticks: Vec<u64> = snaps.iter().map(|s| s.ts_ns).collect();
    ticks.dedup(); // snapshots are (ts, node)-sorted
    if ticks.is_empty() {
        return t;
    }
    let per_bucket = ticks.len().div_ceil(max_rows.max(1)).max(1);
    let mut prev: BTreeMap<(u32, Key), u64> = BTreeMap::new();
    let mut latest_gauge: BTreeMap<(u32, Key), i64> = BTreeMap::new();
    let mut next = 0usize; // index into snaps
    for bucket in ticks.chunks(per_bucket) {
        let end_ts = *bucket.last().expect("non-empty chunk");
        let mut deltas: BTreeMap<&str, u64> = BTreeMap::new();
        let mut p99_ns: Option<u64> = None;
        while next < snaps.len() && snaps[next].ts_ns <= end_ts {
            let s = &snaps[next];
            next += 1;
            for (k, v) in &s.counters {
                let was = prev.insert((s.node, *k), *v).unwrap_or(0);
                *deltas.entry(k.name).or_insert(0) += v - was;
            }
            for (k, v) in &s.gauges {
                latest_gauge.insert((s.node, *k), *v);
            }
            for (k, w) in &s.windows {
                if k.name == "rpc_latency_ns" {
                    p99_ns = Some(p99_ns.unwrap_or(0).max(w.p99_ns));
                }
            }
        }
        let mut gsum: BTreeMap<&str, i64> = BTreeMap::new();
        for ((_, k), v) in &latest_gauge {
            *gsum.entry(k.name).or_insert(0) += v;
        }
        let d = |name: &str| deltas.get(name).copied().unwrap_or(0).to_string();
        let g = |name: &str| gsum.get(name).copied().unwrap_or(0).to_string();
        t.row(vec![
            format!("{:.1}", end_ts as f64 / 1e6),
            d("puts"),
            d("gets"),
            d("rpc_ok"),
            d("rpc_retries"),
            d("rpc_timeouts"),
            d("repl_puts"),
            d("faults"),
            d("cache_hits"),
            d("cache_misses"),
            d("cache_invalidations"),
            d("lease_revocations"),
            g("rpc_inflight"),
            g("nic_dma_inflight"),
            g("log_outstanding"),
            p99_ns.map_or("-".into(), |v| us(v as f64 / 1e3)),
        ]);
    }
    t
}

/// The tail report as a table: the mean phase partition of the slowest
/// 1%, then the worst individual requests (capped at 10 rows).
fn tail_table(report: &TailReport, trees: usize) -> Table {
    let mut headers = vec!["request", "latency_us"];
    headers.extend(PHASES);
    headers.push("critical_node");
    let mut t = Table::new(
        "fig_obs_tail",
        format!(
            "Tail critical path: slowest {} of {trees} requests (phase us)",
            report.entries.len()
        ),
        &headers,
    );
    let mut mean = vec!["mean(tail)".to_string(), "-".to_string()];
    mean.extend(report.mean_parts_ns.iter().map(|&v| us(v as f64 / 1e3)));
    mean.push("-".into());
    t.row(mean);
    for e in report.entries.iter().take(10) {
        let mut row = vec![format!("{:#x}", e.id), us(e.latency_ns as f64 / 1e3)];
        row.extend(e.attribution.parts().iter().map(|&v| us(v as f64 / 1e3)));
        row.push(e.critical_node.map_or("-".into(), |n| n.to_string()));
        t.row(row);
    }
    t
}

/// One fig09-style micro point (WFlush-RPC, 1 KB, light load), timed.
/// Ops are floored at 5000 so the wall time is long enough for a stable
/// overhead ratio even at smoke scale.
fn timed_point(scale: Scale) -> (std::time::Duration, u64, u64) {
    let env = ExpEnv::sized(1024, ServerProfile::light());
    let cfg = MicroConfig {
        objects: scale.objects,
        ops: scale.micro_ops.max(5_000),
        object_size: 1024,
        ..Default::default()
    };
    let t0 = Instant::now();
    let r = micro_run(SystemKind::WFlush, &env, cfg);
    (t0.elapsed(), r.run.ops, r.run.latency.p50_ns)
}

/// The metrics-overhead gate: identical virtual-time results with
/// metrics off vs on, and ≤5% wall-time overhead (hard assertion under
/// `PRDMA_OBS_GATE=1`; reported either way).
fn overhead_table(scale: Scale) -> Table {
    let min3 = |on: bool| {
        set_metrics_override(Some(on));
        let mut best = timed_point(scale);
        for _ in 0..2 {
            let r = timed_point(scale);
            assert_eq!((r.1, r.2), (best.1, best.2), "seeded reruns must agree");
            if r.0 < best.0 {
                best.0 = r.0;
            }
        }
        best
    };
    let off = min3(false);
    let on = min3(true);
    set_metrics_override(None);
    // Metrics consume zero simulated time and zero randomness, so the
    // workload's virtual-time results must be bit-identical.
    assert_eq!(
        (off.1, off.2),
        (on.1, on.2),
        "metrics must not perturb virtual-time results"
    );
    let overhead = on.0.as_secs_f64() / off.0.as_secs_f64().max(1e-9) - 1.0;
    if matches!(std::env::var("PRDMA_OBS_GATE").as_deref(), Ok("1" | "true")) {
        assert!(
            overhead <= 0.05,
            "metrics-on wall-time overhead {:.1}% exceeds the 5% budget \
             (off {:.1} ms, on {:.1} ms)",
            overhead * 100.0,
            off.0.as_secs_f64() * 1e3,
            on.0.as_secs_f64() * 1e3,
        );
    }
    let mut t = Table::new(
        "fig_obs_overhead",
        "Metrics overhead: fig09 micro point wall time, off vs on (min of 3)",
        &["config", "wall_ms", "ops", "p50_us", "overhead_pct"],
    );
    let row = |name: &str, r: &(std::time::Duration, u64, u64), pct: Option<f64>| {
        vec![
            name.to_string(),
            format!("{:.1}", r.0.as_secs_f64() * 1e3),
            r.1.to_string(),
            us(r.2 as f64 / 1e3),
            pct.map_or("-".into(), |p| format!("{:.1}", p * 100.0)),
        ]
    };
    t.row(row("metrics_off", &off, None));
    t.row(row("metrics_on", &on, Some(overhead)));
    t
}

/// The full observability figure: fleet dashboard, tail attribution, and
/// the overhead gate, plus raw artifacts under the output directory.
pub fn fig_obs(scale: Scale) -> Vec<Table> {
    let run = obs_run(scale);
    let dir = output_dir();
    let _ = std::fs::create_dir_all(&dir);
    let mp = dir.join("fig_obs_metrics.jsonl");
    let tp = dir.join("fig_obs_tail.txt");
    let _ = std::fs::write(&mp, &run.metrics_jsonl);
    let _ = std::fs::write(&tp, run.tail.render());
    println!("   (saved {} and {})", mp.display(), tp.display());
    let max_rows = if dashboard_full() { usize::MAX } else { 24 };
    vec![
        fleet_table(&run.snapshots, max_rows),
        tail_table(&run.tail, run.trees),
        overhead_table(scale),
    ]
}
