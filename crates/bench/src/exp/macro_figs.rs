//! Macro-benchmark figures: PageRank (Fig. 10), YCSB (Fig. 11), failure
//! recovery (Fig. 12), and the latency breakdown (Fig. 20).

use std::sync::Arc;

use prdma::{
    build_fleet, CacheConfig, DurableConfig, DurableKind, FleetSpec, RpcClient, ServerProfile,
    ShardMap,
};
use prdma_baselines::{build_system, SystemKind, SystemOpts};
use prdma_node::{Cluster, ClusterConfig};
use prdma_simnet::{Sim, SimDuration};
use prdma_workloads::faults::{run_faulty, FaultConfig, MeasuredCosts, Scheme};
use prdma_workloads::graph::{generate, GraphDataset};
use prdma_workloads::micro::MicroConfig;
use prdma_workloads::pagerank::run_pagerank;
use prdma_workloads::ycsb::{run_ycsb, YcsbConfig, YcsbWorkload};

use crate::report::{us, Table};
use crate::runner::{
    export_and_audit, journal_enabled, micro_run, par_map, ycsb_run, ExpEnv, Scale, SEED,
};

/// Fig. 10: PageRank execution time per dataset per system.
pub fn fig10(scale: Scale) -> Vec<Table> {
    let mut t = Table::new(
        "fig10_pagerank",
        format!("PageRank time (simulated s, {} iterations)", scale.pr_iters),
        &["system", "wordassociation-2011", "enron", "dblp-2010"],
    );
    let kinds: Vec<SystemKind> = SystemKind::PAPER_EVAL
        .into_iter()
        // 4 KB pages fit, but the paper omits FaSST here too.
        .filter(|&k| k != SystemKind::Fasst)
        .collect();
    // Every system runs on the same three graphs: generate each once.
    let graphs = par_map(GraphDataset::ALL.to_vec(), |ds| {
        Arc::new(generate(ds, 2021))
    });
    let mut points = Vec::new();
    for &kind in &kinds {
        for graph in &graphs {
            points.push((kind, Arc::clone(graph)));
        }
    }
    let cells = par_map(points, |(kind, graph)| {
        let mut sim = Sim::new(11);
        let cluster = Cluster::new(sim.handle(), ClusterConfig::with_nodes(2));
        let opts = SystemOpts::for_object_size(4096, ServerProfile::light());
        let client = build_system(&cluster, kind, 1, 0, 0, &opts);
        let h = sim.handle();
        let r =
            sim.block_on(
                async move { run_pagerank(client.as_ref(), &h, &graph, scale.pr_iters).await },
            );
        format!("{:.3}", r.elapsed.as_secs_f64())
    });
    let mut cells = cells.into_iter();
    for &kind in &kinds {
        let mut row = vec![kind.name().to_string()];
        row.extend(cells.by_ref().take(GraphDataset::ALL.len()));
        t.row(row);
    }
    vec![t]
}

/// Fig. 11: YCSB A–F average RPC latency (4 KB values).
pub fn fig11(scale: Scale) -> Vec<Table> {
    let mut t = Table::new(
        "fig11_ycsb",
        "YCSB average latency (us), 4KB values, 50K records",
        &["system", "A", "B", "C", "D", "E", "F"],
    );
    let kinds: Vec<SystemKind> = SystemKind::PAPER_EVAL
        .into_iter()
        // 4 KB values + headers exceed the UD MTU.
        .filter(|&k| k != SystemKind::Fasst)
        .collect();
    let mut points = Vec::new();
    for &kind in &kinds {
        for w in YcsbWorkload::ALL {
            points.push((kind, w));
        }
    }
    let cells = par_map(points, |(kind, w)| {
        let env = ExpEnv::sized(4096, ServerProfile::light());
        let cfg = YcsbConfig {
            records: scale.objects,
            ops: if w == YcsbWorkload::E {
                scale.ycsb_ops / 10 // scans touch ~50 objects each
            } else {
                scale.ycsb_ops
            },
            workload: w,
            ..Default::default()
        };
        let r = ycsb_run(kind, &env, cfg);
        us(r.run.latency.mean_us())
    });
    let mut cells = cells.into_iter();
    for &kind in &kinds {
        let mut row = vec![kind.name().to_string()];
        row.extend(cells.by_ref().take(YcsbWorkload::ALL.len()));
        t.row(row);
    }
    // The cached durable kind on the read-heavy mixes: the lease cache
    // only pays off where reads dominate, so the row fills B (95% reads)
    // and C (read-only) and leaves the write-heavy mixes dashed.
    let cached = par_map(vec![YcsbWorkload::B, YcsbWorkload::C], |w| {
        ycsb_cached_cell(w, scale)
    });
    t.row(vec![
        "WFlush-RPC+cache".to_string(),
        "-".to_string(),
        cached[0].clone(),
        cached[1].clone(),
        "-".to_string(),
        "-".to_string(),
        "-".to_string(),
    ]);
    vec![t]
}

/// One fig11 cell for WFlush-RPC fronted by the hot-key lease cache:
/// a single-shard cached durable service under the given YCSB mix.
fn ycsb_cached_cell(w: YcsbWorkload, scale: Scale) -> String {
    let mut sim = Sim::new(SEED);
    let mut ccfg = ClusterConfig::with_servers(1, 1);
    ccfg.journal = journal_enabled();
    let cluster = Cluster::new(sim.handle(), ccfg);
    let map = ShardMap::new(1);
    let dcfg = DurableConfig {
        kind: DurableKind::WFlush,
        profile: ServerProfile::light(),
        slot_payload: 4096,
        object_slot: 4096,
        store_capacity: map.local_span(scale.objects) * 4096,
        log_slots: 256,
        ..Default::default()
    };
    let cache = CacheConfig {
        hot_threshold: 1,
        churn_demote: 4,
        ..Default::default()
    };
    let spec = FleetSpec {
        replicas: 1,
        cache: Some(cache),
    };
    let svc = build_fleet(&cluster, map, &[1], &dcfg, spec);
    let client: Box<dyn RpcClient> = Box::new(svc.clients.into_iter().next().expect("one client"));
    let cfg = YcsbConfig {
        records: scale.objects,
        ops: scale.ycsb_ops,
        workload: w,
        ..Default::default()
    };
    let h = sim.handle();
    let run = sim.block_on(async move { run_ycsb(client.as_ref(), &h, &cfg).await });
    sim.run();
    export_and_audit(&cluster, &format!("ycsb_cache_{w:?}"));
    us(run.latency.mean_us())
}

/// Fig. 12: total execution time under failures, durable RPCs normalized
/// to a traditional RPC (lower is better).
pub fn fig12(scale: Scale) -> Vec<Table> {
    // Measure per-op costs with the full simulation: WFlush-RPC as the
    // durable representative, FaRM as the traditional one. The four
    // calibration runs are independent sweep points.
    let points = vec![
        (SystemKind::WFlush, 1.0),
        (SystemKind::WFlush, 0.0),
        (SystemKind::Farm, 1.0),
        (SystemKind::Farm, 0.0),
    ];
    let measured = par_map(points, |(kind, ratio)| {
        let env = ExpEnv::sized(4096, ServerProfile::light());
        let cfg = MicroConfig {
            objects: 1000,
            ops: 400,
            object_size: 4096,
            read_ratio: ratio,
            ..Default::default()
        };
        let r = micro_run(kind, &env, cfg);
        (
            SimDuration::from_nanos(r.run.latency.mean_ns as u64),
            r.server_media_us_per_op,
        )
    });
    let (d_read, (d_write, d_media)) = (measured[0].0, measured[1]);
    let (t_read, t_write) = (measured[2].0, measured[3].0);

    let durable_costs = MeasuredCosts {
        read: d_read,
        write: d_write,
        // A write is vulnerable from issue to flush-ACK: its whole
        // latency window.
        persistence_window: d_write,
        replay: SimDuration::from_micros_f64(d_media.max(0.5)),
    };
    let traditional_costs = MeasuredCosts {
        read: t_read,
        write: t_write,
        persistence_window: t_write,
        replay: SimDuration::ZERO,
    };

    let mixes = [(0.0, "100%Read"), (0.5, "50%R+50%W"), (1.0, "100%Write")];
    let mut t = Table::new(
        "fig12_failure_recovery",
        format!(
            "Normalized total time vs availability ({} ops, 300ms restart, 100ms re-transfer)",
            scale.fault_ops
        ),
        &["availability", "100%Read", "50%R+50%W", "100%Write"],
    );
    for a in [0.99, 0.999, 0.9999, 0.99999] {
        let mut cells = vec![format!("{:.3}%", a * 100.0)];
        for &(w, _) in &mixes {
            let cfg = FaultConfig {
                availability: a,
                write_ratio: w,
                ops: scale.fault_ops,
                ..Default::default()
            };
            let durable = run_faulty(Scheme::DurableRpc, &durable_costs, &cfg);
            let trad = run_faulty(Scheme::Traditional, &traditional_costs, &cfg);
            let norm = durable.total.as_nanos() as f64 / trad.total.as_nanos() as f64;
            cells.push(format!("{norm:.3}"));
        }
        t.row(cells);
    }
    vec![t]
}

/// Fig. 20: per-phase latency breakdown on YCSB workload A, from the
/// trace layer. The five exclusive phases partition the traced activity;
/// `log_persist`/`flush_wait` are composite protocol spans on top of
/// them, and `offpath_sw` is receiver software that runs *after* the
/// client-visible completion (the durable RPCs' decoupled processing).
/// `sw_share` = (sender_sw + receiver_sw) / sum(exclusive phases),
/// critical path only — the paper's ≤ 7% claim for the durable RPCs.
pub fn fig20(scale: Scale) -> Vec<Table> {
    use prdma_simnet::trace::Phase;
    let mut t = Table::new(
        "fig20_breakdown",
        "Per-phase latency breakdown (us/op), YCSB A, 1KB values",
        &[
            "system",
            "sender_sw",
            "wire",
            "nic_dma",
            "pm_media",
            "receiver_sw",
            "log_persist",
            "flush_wait",
            "offpath_sw",
            "total",
            "sw_share",
        ],
    );
    // 1 KB values so FaSST (UD, <= MTU) can run the same workload as
    // everyone else and all 13 systems appear in one table.
    let all: Vec<SystemKind> = SystemKind::PAPER_EVAL
        .into_iter()
        .chain([SystemKind::Herd, SystemKind::Lite])
        .collect();
    let rows = par_map(all, |kind| {
        let env = ExpEnv::sized(1024, ServerProfile::light());
        let cfg = YcsbConfig {
            records: scale.objects,
            ops: scale.ycsb_ops / 2,
            value_size: 1024,
            workload: YcsbWorkload::A,
            ..Default::default()
        };
        let r = ycsb_run(kind, &env, cfg);
        let ops = r.ops.max(1) as f64;
        let offpath_sw = (r.trace.offpath_total(Phase::ReceiverSw)
            + r.trace.offpath_total(Phase::SenderSw))
        .as_micros_f64()
            / ops;
        let mut cells = vec![kind.name().to_string()];
        for phase in Phase::ALL {
            cells.push(us(r.phase_us_per_op(phase)));
        }
        cells.push(us(offpath_sw));
        cells.push(us(r.run.latency.mean_us()));
        cells.push(format!("{:.1}%", r.trace.software_share() * 100.0));
        cells
    });
    for row in rows {
        t.row(row);
    }
    vec![t]
}
