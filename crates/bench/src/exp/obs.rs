//! Observability figure (`fig_obs`): a live fleet-metrics dashboard and
//! tail critical-path attribution from per-RPC span trees.
//!
//! The dashboard run drives a replicated sharded fleet (3 shards × 2
//! replicas, 2 client nodes) with journaling on, degrades
//! one server's ingress link mid-run, and then folds the fleet's
//! per-node metrics snapshots into per-interval tables: counter deltas
//! (ops, retries, faults), instantaneous gauges (inflight, DMA/log
//! queue depths), and the windowed put-latency p99. The same run's
//! journal feeds [`prdma::build_span_trees`] / [`prdma::tail_report`],
//! which attribute the slowest 1% of requests to exact phases and name
//! the straggling replica.
//!
//! Ticks are bucketed to at most 24 dashboard rows; every tick is in
//! the raw artifacts (`fig_obs_metrics.jsonl`, `fig_obs_tail.txt`),
//! written to the output directory unconditionally — both are
//! byte-deterministic for a given seed.

use std::collections::BTreeMap;

use prdma::span::PHASES;
use prdma::{
    build_fleet, build_span_trees, tail_report, CacheConfig, DurableConfig, DurableKind, FleetSpec,
    RpcClient, ServerProfile, ShardMap, TailReport,
};
use prdma_node::{Cluster, ClusterConfig};
use prdma_simnet::fault::{FaultKind, FaultPlan};
use prdma_simnet::metrics::{Key, Snapshot};
use prdma_simnet::{Sim, SimDuration, SimTime};
use prdma_workloads::micro::{run_micro_fleet, MicroConfig};

use crate::report::{output_dir, us, Table};
use crate::runner::{Scale, SEED};

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
    let mut sim = Sim::new(SEED);
    let mut ccfg = ClusterConfig::with_servers(shards, clients);
    ccfg.journal = true;
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

/// Most rows of the fleet dashboard.
const DASHBOARD_ROWS: usize = 24;

/// Fold the fleet snapshot stream into per-interval rows: counter
/// *deltas* summed across nodes, latest gauge values summed across
/// nodes, and the interval's worst windowed put-latency p99. Buckets
/// group consecutive ticks so the table never exceeds
/// [`DASHBOARD_ROWS`].
fn fleet_table(snaps: &[Snapshot]) -> Table {
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
    let per_bucket = ticks.len().div_ceil(DASHBOARD_ROWS);
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

/// The full observability figure: fleet dashboard and tail attribution,
/// plus raw artifacts under the output directory.
pub fn fig_obs(scale: Scale) -> Vec<Table> {
    let run = obs_run(scale);
    let dir = output_dir();
    let _ = std::fs::create_dir_all(&dir);
    let mp = dir.join("fig_obs_metrics.jsonl");
    let tp = dir.join("fig_obs_tail.txt");
    let _ = std::fs::write(&mp, &run.metrics_jsonl);
    let _ = std::fs::write(&tp, run.tail.render());
    println!("   (saved {} and {})", mp.display(), tp.display());
    vec![
        fleet_table(&run.snapshots),
        tail_table(&run.tail, run.trees),
    ]
}
