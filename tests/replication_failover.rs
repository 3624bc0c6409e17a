//! Primary–backup fan-out: retried puts apply exactly once
//! (causal-id dedup), a fan-out round never abandons a replica's
//! outcome, catch-up shares a rejoined replica's connection with live
//! legs, and journals stay byte-deterministic for the same seed + plan
//! across crash, promotion, replay and catch-up. Failover under a crash
//! is a row of the crash-point sweep (`tests/crash_sweep.rs`).

use prdma_suite::core::{
    build_durable, build_replicated, DurableConfig, DurableKind, Request, RpcClient,
};
use prdma_suite::node::{Cluster, ClusterConfig};
use prdma_suite::rnic::Payload;
use prdma_suite::simnet::fault::{FaultKind, FaultPlan};
use prdma_suite::simnet::metrics::Key;
use prdma_suite::simnet::{journal, Sim, SimDuration, SimTime};
use prdma_suite::sweep;

const OBJ_SLOT: u64 = 1024;
const VAL: usize = 256;

/// Exactly-once apply (the old retry double-append bug): re-sending a
/// put under the same causal id must be deduplicated at apply time, so
/// a stale retry cannot clobber a later write.
#[test]
fn retried_put_applies_exactly_once() {
    let mut sim = Sim::new(0xD0D0);
    let cluster = Cluster::new(sim.handle(), ClusterConfig::with_nodes(2));
    let cfg = DurableConfig {
        slot_payload: OBJ_SLOT,
        object_slot: OBJ_SLOT,
        head_persist_interval: 1,
        ..DurableConfig::for_kind(DurableKind::WFlush)
    };
    let (client, server) = build_durable(&cluster, 1, 0, 0, cfg);
    let h = sim.handle();
    sim.block_on(async move {
        let id = (1 << 60) | 7;
        client
            .put_tagged(11, Payload::from_bytes(vec![0xAA; VAL]), id)
            .await
            .unwrap();
        client
            .call(Request::Put {
                obj: 11,
                data: Payload::from_bytes(vec![0xBB; VAL]),
            })
            .await
            .unwrap();
        // The stale retry of the first put: appended, but not re-applied.
        client
            .put_tagged(11, Payload::from_bytes(vec![0xAA; VAL]), id)
            .await
            .unwrap();
        h.sleep(SimDuration::from_millis(1)).await;
    });
    assert_eq!(server.puts_deduped(), 1, "the duplicate must be detected");
    assert_eq!(
        server.store().persistent_bytes(11, VAL as u64),
        vec![0xBB; VAL],
        "the stale retry must not clobber the later write"
    );
}

/// The fan-out must join every replica's sub-put (the old orphaned-task
/// bug `?`-returned on the first failed join): with the backup down, a
/// round still reports a structured outcome per replica, and once it
/// returns no abandoned task appends to any replica behind our back.
#[test]
fn fan_out_reports_every_replica_and_leaves_no_orphans() {
    let mut sim = Sim::new(0x0F4A);
    let cluster = Cluster::new(sim.handle(), ClusterConfig::with_servers(2, 1));
    let cfg = sweep::config(DurableKind::WFlush);
    let (client, group) = build_replicated(&cluster, 2, &[0, 1], cfg);
    let view = group.view();
    let backup = cluster.node(1).clone();
    let h = sim.handle();
    let (outcomes, logged_after) = sim.block_on(async move {
        // Crash the backup while the fan-out's sub-put to it is in
        // flight: the round must still join it and surface the error.
        let crasher = h.spawn({
            let h = h.clone();
            async move {
                h.sleep(SimDuration::from_micros(1)).await;
                backup.crash();
            }
        });
        let outcomes = client
            .put_once(5, Payload::from_bytes(vec![0x5A; VAL]))
            .await;
        crasher.await;
        let logged: Vec<u64> = group.servers.iter().map(|s| s.puts_logged()).collect();
        // If a sub-put had been orphaned instead of joined, it would
        // still be retrying here and land a stray append during this
        // window.
        h.sleep(SimDuration::from_millis(5)).await;
        let logged_after: Vec<u64> = group.servers.iter().map(|s| s.puts_logged()).collect();
        assert_eq!(
            logged, logged_after,
            "a stray append landed after the fan-out returned"
        );
        (outcomes, logged_after)
    });
    assert_eq!(outcomes.len(), 2, "one structured outcome per replica");
    assert_eq!(outcomes[0].replica, 0);
    assert_eq!(outcomes[1].replica, 1);
    assert!(outcomes[0].result.is_ok(), "the live primary must ACK");
    assert!(
        outcomes[1].result.is_err(),
        "the crashed backup must surface its error, not vanish"
    );
    assert!(!view.is_up(1), "the failed replica must be marked down");
    assert_eq!(view.epoch(), 0, "backup loss must not change the primary");
    assert_eq!(logged_after[0], 1, "exactly the one put on the primary");
}

/// A rejoined backup's catch-up re-sends the puts it missed on the same
/// connection the live fan-out uses. That connection persists one op at a
/// time, so a catch-up put queues behind a live leg (and a live leg behind
/// a catch-up put) instead of taking its persist-ACK waiter: under both
/// receiver-initiated kinds every missed put reaches the backup's
/// persistent PM, and no op on the backup's connection — live leg or
/// catch-up put — fails an attempt after the rejoin.
#[test]
fn catch_up_and_live_legs_share_the_rejoined_replicas_connection() {
    const MISSED: u64 = 8;
    const LIVE: u64 = 8;
    let tagged = |obj: u64| Payload::from_bytes(vec![obj as u8 + 1; VAL]);
    for kind in [DurableKind::WRFlush, DurableKind::SRFlush] {
        let mut sim = Sim::new(0xCA7C);
        let cluster = Cluster::new(sim.handle(), ClusterConfig::with_servers(2, 1));
        let (client, group) = build_replicated(&cluster, 2, &[0, 1], sweep::config(kind));
        let backup = cluster.node(1).clone();
        let retries = Key::new("rpc_retries").shard(1).kind(kind.name());
        let client_metrics = cluster.node(2).metrics.clone();
        let h = sim.handle();
        let g = group.clone();
        let (live_legs, retried) = sim.block_on(async move {
            // The backup is down: these ACK on the primary alone, and the
            // backup is owed them.
            backup.crash();
            for obj in 0..MISSED {
                let put = Request::Put {
                    obj,
                    data: tagged(obj),
                };
                client.call(put).await.expect("the primary ACKs");
            }
            backup.restart();
            let down_for = SimDuration::ZERO;
            g.recover(1, FaultKind::NodeCrash { down_for });
            let before = client_metrics.counter(retries);
            // The catch-up now runs in the background; fan out beside it.
            let mut live_legs = Vec::new();
            for obj in MISSED..MISSED + LIVE {
                let outcomes = client.put_once(obj, tagged(obj)).await;
                live_legs.extend(outcomes.into_iter().filter(|o| o.replica == 1));
            }
            h.sleep(SimDuration::from_millis(5)).await;
            (live_legs, client_metrics.counter(retries) - before)
        });
        assert_eq!(live_legs.len() as u64, LIVE, "{kind:?}");
        for leg in &live_legs {
            assert!(
                leg.result.is_ok(),
                "{kind:?}: a live leg to the backup failed: {:?}",
                leg.result
            );
        }
        assert_eq!(
            retried, 0,
            "{kind:?}: ops on the backup's connection retried"
        );
        let store = group.servers[1].store();
        for obj in 0..MISSED + LIVE {
            assert_eq!(
                store.persistent_bytes(obj, VAL as u64),
                vec![obj as u8 + 1; VAL],
                "{kind:?}: put {obj} is not in the rejoined backup's PM"
            );
        }
    }
}

/// Same seed + same plan ⇒ byte-identical journal across crash,
/// promotion, replay and catch-up; a different seed perturbs it.
#[test]
fn replicated_fault_runs_are_byte_deterministic() {
    fn replicated_journal(seed: u64) -> String {
        let mut sim = Sim::new(seed);
        let mut ccfg = ClusterConfig::with_servers(2, 1);
        ccfg.journal = true;
        let cluster = Cluster::new(sim.handle(), ccfg);
        let cfg = sweep::config(DurableKind::WFlush);
        let (client, group) = build_replicated(&cluster, 2, &[0, 1], cfg);
        let plan = FaultPlan::new()
            .at(
                SimTime::from_nanos(30_000),
                0,
                FaultKind::NodeCrash {
                    down_for: sweep::DOWN,
                },
            )
            // A seeded loss burst on the promoted backup once it is the
            // only live replica: the drop pattern depends on the sim
            // seed, which is what makes different-seed journals diverge.
            .at(
                SimTime::from_nanos(200_000),
                1,
                FaultKind::LossBurst {
                    rate: 0.3,
                    duration: SimDuration::from_micros(300),
                },
            );
        let inj = cluster.inject_faults(plan);
        group.wire_recovery(&inj);
        let h = sim.handle();
        sim.block_on(async move {
            for i in 0..20u64 {
                let data = Payload::from_bytes(vec![i as u8; VAL]);
                client
                    .call(Request::Put { obj: i, data })
                    .await
                    .unwrap_or_else(|e| panic!("put {i}: {e}"));
                h.sleep(SimDuration::from_micros(25)).await;
            }
            h.sleep(SimDuration::from_millis(5)).await;
        });
        cluster.audit_journal().assert_ok();
        journal::to_jsonl(&cluster.journal_records())
    }

    let a = replicated_journal(91);
    let b = replicated_journal(91);
    assert!(!a.is_empty());
    assert_eq!(a, b, "same seed + same plan must reproduce byte-for-byte");
    let c = replicated_journal(92);
    assert_ne!(a, c, "different seed should perturb the schedule");
}
