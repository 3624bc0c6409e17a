//! Sharded journals stay byte-deterministic for the same seed + plan
//! across a shard crash and its recovery. What the crash must preserve
//! is checked at every crash point by the sweep in
//! `tests/crash_sweep.rs`.

use prdma_suite::core::{build_fleet, DurableKind, FleetSpec, Request, RpcClient, ShardMap};
use prdma_suite::node::{Cluster, ClusterConfig};
use prdma_suite::rnic::Payload;
use prdma_suite::simnet::fault::{FaultKind, FaultPlan};
use prdma_suite::simnet::{journal, Sim, SimDuration, SimTime};
use prdma_suite::sweep;

const VAL: usize = 256;

/// Same seed + same plan ⇒ byte-identical journal across the whole
/// multi-server topology; a different seed perturbs it.
#[test]
fn sharded_fault_runs_are_byte_deterministic() {
    fn sharded_journal(seed: u64) -> String {
        let mut sim = Sim::new(seed);
        // Two shards (server nodes 0 and 1), one client node (node 2).
        let mut ccfg = ClusterConfig::with_servers(2, 1);
        ccfg.journal = true;
        let cluster = Cluster::new(sim.handle(), ccfg);
        let cfg = sweep::config(DurableKind::WFlush);
        let spec = FleetSpec {
            replicas: 1,
            cache: None,
        };
        let svc = build_fleet(&cluster, ShardMap::new(2), &[2], &cfg, spec);
        let plan = FaultPlan::new()
            .at(
                SimTime::from_nanos(30_000),
                0,
                FaultKind::NodeCrash {
                    down_for: sweep::DOWN,
                },
            )
            // A seeded loss burst on shard 1's server once traffic flows
            // again (the client is stalled on the crashed shard until
            // ~530us): the drop pattern depends on the sim seed, which is
            // what makes the different-seed journals diverge below.
            .at(
                SimTime::from_nanos(600_000),
                1,
                FaultKind::LossBurst {
                    rate: 0.3,
                    duration: SimDuration::from_micros(300),
                },
            );
        let inj = cluster.inject_faults(plan);
        svc.wire_recovery(&inj);
        let client = svc.clients.into_iter().next().unwrap();
        let h = sim.handle();
        sim.block_on(async move {
            for i in 0..20u64 {
                let data = Payload::from_bytes(vec![i as u8; VAL]);
                client
                    .call(Request::Put { obj: i, data })
                    .await
                    .unwrap_or_else(|e| panic!("put {i}: {e}"));
                h.sleep(SimDuration::from_micros(30)).await;
            }
            h.sleep(SimDuration::from_millis(5)).await;
        });
        cluster.audit_journal().assert_ok();
        journal::to_jsonl(&cluster.journal_records())
    }

    let a = sharded_journal(51);
    let b = sharded_journal(51);
    assert!(!a.is_empty());
    assert_eq!(a, b, "same seed + same plan must reproduce byte-for-byte");
    let c = sharded_journal(52);
    assert_ne!(a, c, "different seed should perturb the schedule");
}
