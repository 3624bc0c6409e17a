//! Open-loop load sweep (beyond the paper): walk the offered load
//! against the replicated sharded durable KV fleet and report where
//! each durable kind's latency knee sits.
//!
//! Closed-loop sweeps (Fig. 14–17) self-throttle: a slow server slows
//! the generator, so queueing never shows up in the numbers
//! (coordinated omission). Here a [`prdma_workloads::openloop`]
//! generator releases a seeded Poisson schedule at the configured
//! aggregate rate over [`LOGICAL_CLIENTS`] logical clients multiplexed
//! onto [`ENDPOINTS`] physical connections, and latency is measured
//! from the *scheduled* arrival instant. Below the knee, p99 tracks
//! the unloaded RPC latency; past it, the admission backlog grows for
//! the rest of the run and the tail explodes — the knee is the honest
//! capacity number for each durable kind.

use prdma::{
    build_fleet, DurableConfig, DurableKind, FleetSpec, RpcClient, ServerProfile, ShardMap,
};
use prdma_node::{Cluster, ClusterConfig};
use prdma_simnet::{Sim, SimDuration};
use prdma_workloads::openloop::{
    detect_knee, run_openloop, OpenLoopConfig, OpenLoopResult, RateShape,
};

use crate::report::{kops_or_dash, us_or_dash, Table};
use crate::runner::{export_and_audit, journal_enabled, metrics_enabled, par_map, Scale};

/// Offered aggregate loads the sweep visits (KOPS). The top end sits
/// past every durable kind's single-connection saturation point, so
/// each row's knee lands inside the sweep.
pub const RATES_KOPS: [f64; 8] = [25.0, 50.0, 100.0, 200.0, 400.0, 800.0, 1600.0, 3200.0];

/// Knee tolerance: the knee is the highest load whose p99 is within
/// this multiple of the lightest point's p99.
pub const KNEE_TOLERANCE: f64 = 3.0;

/// Shards (primary server nodes) in the fleet.
pub const SHARDS: usize = 4;

/// Replicas per shard group (primary + 1 backup).
pub const REPLICAS: usize = 2;

/// Physical client connections the pool multiplexes over.
pub const ENDPOINTS: usize = 8;

/// Logical clients in the open-loop pool.
pub const LOGICAL_CLIENTS: u64 = 10_000;

/// Run one (kind, offered-rate) point: a fresh replicated sharded
/// fleet, [`LOGICAL_CLIENTS`] logical clients over [`ENDPOINTS`]
/// endpoint routers, 1 KB objects, zipfian 0.99, 1:1 read/write.
pub fn openloop_point(kind: DurableKind, rate_kops: f64, scale: Scale) -> OpenLoopResult {
    let objects = scale.objects.min(2_000);
    let mut sim = Sim::new(20211114);
    let mut ccfg = ClusterConfig::with_servers(SHARDS, ENDPOINTS);
    ccfg.journal = journal_enabled();
    ccfg.metrics = metrics_enabled();
    let cluster = Cluster::new(sim.handle(), ccfg);
    let map = ShardMap::new(SHARDS);
    let dcfg = DurableConfig {
        kind,
        profile: ServerProfile::light(),
        slot_payload: 1024,
        object_slot: 1024,
        store_capacity: map.local_span(objects) * 1024,
        log_slots: 512,
        ..Default::default()
    };
    let spec = FleetSpec {
        replicas: REPLICAS,
        cache: None,
    };
    let client_nodes: Vec<usize> = (SHARDS..SHARDS + ENDPOINTS).collect();
    let sys = build_fleet(&cluster, map, &client_nodes, &dcfg, spec);
    let endpoints: Vec<Box<dyn RpcClient>> = sys
        .clients
        .into_iter()
        .map(|c| Box::new(c) as Box<dyn RpcClient>)
        .collect();
    let cfg = OpenLoopConfig {
        clients: LOGICAL_CLIENTS,
        rate_ops_per_sec: rate_kops * 1e3,
        duration: SimDuration::from_millis(scale.openloop_ms),
        shape: RateShape::Constant,
        objects,
        object_size: 1024,
        read_ratio: 0.5,
        theta: 0.99,
        skew_shift: None,
        seed: 20211114,
    };
    let h = sim.handle();
    let r = sim.block_on(async move { run_openloop(endpoints, &h, &cfg).await });
    sim.run();
    export_and_audit(
        &cluster,
        &format!("openloop{}_{}", rate_kops as u64, kind.name()),
    );
    r
}

/// The full latency-vs-offered-load curve for `kind`: one
/// [`openloop_point`] per entry of [`RATES_KOPS`], in order.
pub fn openloop_curve(kind: DurableKind, scale: Scale) -> Vec<OpenLoopResult> {
    RATES_KOPS
        .iter()
        .map(|&r| openloop_point(kind, r, scale))
        .collect()
}

/// `fig_openloop`: p50/p99/p99.9 and achieved throughput vs. offered
/// load for all four durable kinds on the replicated sharded fleet,
/// with the detected knee per kind.
pub fn fig_openloop(scale: Scale) -> Vec<Table> {
    let mut points = Vec::new();
    for kind in DurableKind::ALL {
        for rate in RATES_KOPS {
            points.push((kind, rate));
        }
    }
    let results = par_map(points, |(kind, rate)| openloop_point(kind, rate, scale));

    let rate_cols: Vec<String> = RATES_KOPS.iter().map(|r| format!("{r:.0}k")).collect();
    let mut headers: Vec<&str> = vec!["system"];
    headers.extend(rate_cols.iter().map(String::as_str));
    let grid = |id: &str, title: String, knee_col: bool| {
        let mut h = headers.clone();
        if knee_col {
            h.push("knee_kops");
        }
        Table::new(id, title, &h)
    };
    let setup = format!(
        "{SHARDS} shards x{REPLICAS}, {LOGICAL_CLIENTS} open-loop clients over \
         {ENDPOINTS} endpoints, 1KB objects"
    );
    let mut p50 = grid(
        "fig_openloop_p50",
        format!("p50 latency (us) vs offered load (KOPS), {setup}"),
        false,
    );
    let mut p99 = grid(
        "fig_openloop_p99",
        format!("p99 latency (us) vs offered load (KOPS), knee at {KNEE_TOLERANCE}x, {setup}"),
        true,
    );
    let mut p999 = grid(
        "fig_openloop_p999",
        format!("p99.9 latency (us) vs offered load (KOPS), {setup}"),
        false,
    );
    let mut tput = grid(
        "fig_openloop_kops",
        format!("Achieved throughput (KOPS) vs offered load, {setup}"),
        false,
    );

    let mut it = results.into_iter();
    for kind in DurableKind::ALL {
        let row: Vec<OpenLoopResult> = RATES_KOPS
            .iter()
            .map(|_| it.next().expect("cell"))
            .collect();
        let name = kind.name().to_string();
        let mut r50 = vec![name.clone()];
        let mut r99 = vec![name.clone()];
        let mut r999 = vec![name.clone()];
        let mut rt = vec![name];
        for p in &row {
            r50.push(us_or_dash(p.ops, p.latency.p50_us()));
            r99.push(us_or_dash(p.ops, p.latency.p99_us()));
            r999.push(us_or_dash(p.ops, p.latency.p999_us()));
            rt.push(kops_or_dash(p.ops, p.kops));
        }
        let curve: Vec<(f64, f64)> = RATES_KOPS
            .iter()
            .zip(&row)
            .map(|(&rate, p)| (rate, p.latency.p99_us()))
            .collect();
        r99.push(match detect_knee(&curve, KNEE_TOLERANCE) {
            Some(k) => format!("{k:.0}"),
            None => "-".into(),
        });
        p50.row(r50);
        p99.row(r99);
        p999.row(r999);
        tput.row(rt);
    }
    vec![p50, p99, p999, tput]
}
