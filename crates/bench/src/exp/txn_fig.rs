//! The transaction figure (`fig_txn`): durable multi-shard 2PC commit
//! latency and abort rate vs shard count and zipfian skew.
//!
//! Each point runs the YCSB-T-style transactional mix (2 reads + 2
//! writes per txn, no abort retry) with four client nodes against
//! `shards ∈ {1, 2, 4, 8}` shard servers at `theta ∈ {0.5, 0.9, 0.99}`.
//! More skew concentrates the write sets on the zipfian head, so the
//! OCC lock/validate phase aborts more often; more shards spread the
//! keyspace but widen the 2PC fan-out (more prepare records per commit).
//!
//! With `--journal` every point runs under the durability auditor, so
//! invariant I6 — no txn ACK before every participant's prepare append
//! plus the decided append; aborted txns apply nowhere — is checked on
//! the real workload. The sanity bounds (every point commits; abort rate
//! tracks skew) are virtual-time results, deterministic per seed and
//! scale, and are asserted on every run.

use std::rc::Rc;

use prdma::{build_fleet, DurableConfig, FleetSpec, ServerProfile, ShardMap};
use prdma_node::{Cluster, ClusterConfig};
use prdma_simnet::Sim;
use prdma_workloads::txn_mix::{run_txn_mix, TxnMixConfig, TxnMixResult};

use crate::report::{kops, us, Table};
use crate::runner::{export_and_audit, journal_enabled, par_map, Scale, SEED};

const CLIENTS: usize = 4;
const OBJECT_SLOT: u64 = 1024;
const VALUE_BYTES: u64 = 128;

/// Run one sweep point: `shards` shard servers, zipfian(`theta`) keys.
fn txn_point(shards: usize, theta: f64, scale: Scale) -> TxnMixResult {
    let objects = scale.objects.clamp(64, 1_000);
    let cfg = TxnMixConfig {
        txns: (scale.micro_ops / 20).clamp(50, 1_000),
        objects,
        value_bytes: VALUE_BYTES,
        theta,
        ..Default::default()
    };
    let mut sim = Sim::new(SEED);
    let mut ccfg = ClusterConfig::with_servers(shards, CLIENTS);
    ccfg.journal = journal_enabled();
    let cluster = Cluster::new(sim.handle(), ccfg);
    let map = ShardMap::new(shards);
    let dcfg = DurableConfig {
        profile: ServerProfile::light(),
        slot_payload: OBJECT_SLOT,
        object_slot: OBJECT_SLOT,
        store_capacity: map.local_span(objects) * OBJECT_SLOT,
        log_slots: 256,
        ..Default::default()
    };
    let client_nodes: Vec<usize> = (shards..shards + CLIENTS).collect();
    let spec = FleetSpec {
        replicas: 1,
        cache: None,
    };
    let svc = build_fleet(&cluster, map, &client_nodes, &dcfg, spec);
    let clients: Vec<_> = svc.clients.into_iter().map(Rc::new).collect();
    let h = sim.handle();
    let r = sim.block_on(async move { run_txn_mix(&h, &clients, &cfg).await });
    sim.run();
    export_and_audit(
        &cluster,
        &format!("txn_s{}_t{:02}", shards, (theta * 100.0) as u32),
    );
    r
}

/// The transaction figure: commit p50/p99, abort rate, and committed
/// throughput over shards × theta.
pub fn fig_txn(scale: Scale) -> Vec<Table> {
    let shard_counts = [1usize, 2, 4, 8];
    let thetas = [0.50, 0.90, 0.99];
    let mut points = Vec::new();
    for &shards in &shard_counts {
        for &theta in &thetas {
            points.push((shards, theta));
        }
    }
    let results = par_map(points.clone(), |(shards, theta)| {
        txn_point(shards, theta, scale)
    });

    let mut t = Table::new(
        "fig_txn",
        "Durable 2PC transactions: commit latency and abort rate vs shards and skew \
         (4 clients, 2R+2W per txn)",
        &[
            "shards",
            "theta",
            "commit_p50_us",
            "commit_p99_us",
            "abort_pct",
            "ktps",
        ],
    );
    for ((shards, theta), r) in points.iter().zip(&results) {
        t.row(vec![
            shards.to_string(),
            format!("{theta:.2}"),
            us(r.latency.p50_us()),
            us(r.latency.p99_us()),
            format!("{:.2}", r.abort_rate() * 100.0),
            kops(r.ktps),
        ]);
    }

    // Acceptance bounds: every point commits work, and for each shard
    // count the abort rate does not *decrease* when skew rises from theta
    // 0.5 to 0.99 (hot-key contention).
    for ((shards, theta), r) in points.iter().zip(&results) {
        assert!(
            r.committed > 0,
            "no transaction committed at shards={shards} theta={theta}"
        );
    }
    for (si, &shards) in shard_counts.iter().enumerate() {
        let base = results[si * thetas.len()].abort_rate();
        let hot = results[si * thetas.len() + thetas.len() - 1].abort_rate();
        assert!(
            hot >= base,
            "abort rate fell with skew at shards={shards} \
             ({base:.4} at theta 0.5 vs {hot:.4} at theta 0.99)"
        );
    }

    vec![t]
}
