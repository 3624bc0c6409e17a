//! Primary–backup failover (ISSUE 6): crash the primary of a replicated
//! group mid-RPC, for each of the four durable kinds, and verify that
//! the backup is promoted and keeps serving puts *and* gets during the
//! outage, that the crashed primary replays exactly its own incomplete
//! log suffix and is caught up on the puts it missed, that retried puts
//! apply exactly once (causal-id dedup), that a fan-out round never
//! abandons a replica's outcome, and that journals stay
//! byte-deterministic for the same seed + plan.

use std::rc::Rc;

use prdma_suite::core::{
    build_durable, build_replicated, DurableConfig, DurableKind, Request, RetryPolicy, RpcClient,
    ServerProfile,
};
use prdma_suite::node::{Cluster, ClusterConfig};
use prdma_suite::rnic::Payload;
use prdma_suite::simnet::fault::{FaultKind, FaultPlan};
use prdma_suite::simnet::metrics::Key;
use prdma_suite::simnet::{journal, Sim, SimDuration, SimTime};

const OBJ_SLOT: u64 = 1024;
const VAL: usize = 256;
const PUTS: u64 = 20;
const CRASH_AT_NS: u64 = 30_000;
const DOWN_FOR_NS: u64 = 500_000;

fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        request_timeout: SimDuration::from_micros(300),
        max_retries: 200,
        // Flat schedule: these tests pin journal bytes per seed.
        backoff: SimDuration::from_micros(100),
        backoff_cap: SimDuration::from_micros(100),
        jitter_pct: 0,
    }
}

/// Two replicas (server nodes 0 = initial primary, 1 = backup), one
/// client node (node 2), journal on.
fn replicated_cluster(sim: &Sim, kind: DurableKind) -> (Cluster, DurableConfig) {
    let mut ccfg = ClusterConfig::with_servers(2, 1);
    ccfg.journal = true;
    let cluster = Cluster::new(sim.handle(), ccfg);
    let cfg = DurableConfig {
        // 100us decoupled processing: the crash reliably lands while the
        // primary has appended (and flush-ACKed) entries not yet
        // processed, so recovery must replay a non-empty suffix.
        profile: ServerProfile::heavy(),
        slot_payload: OBJ_SLOT,
        object_slot: OBJ_SLOT,
        retry: fast_retry(),
        ..DurableConfig::for_kind(kind)
    };
    (cluster, cfg)
}

fn primary_crash_plan() -> FaultPlan {
    FaultPlan::new().at(
        SimTime::from_nanos(CRASH_AT_NS),
        0,
        FaultKind::NodeCrash {
            down_for: SimDuration::from_nanos(DOWN_FOR_NS),
        },
    )
}

/// Crash the primary mid-stream for each durable kind. The backup must
/// be promoted at crash time (epoch bump) and complete puts *during*
/// the outage; the crashed primary must replay a non-empty log suffix
/// at restart and be caught up on every put it missed, so both PMs end
/// up holding every object; and the auditor (including the replication
/// invariant I4) must sign off on the journal.
#[test]
fn primary_crash_fails_over_to_backup() {
    for kind in DurableKind::ALL {
        let mut sim = Sim::new(0xFA11 ^ kind as u64);
        let (cluster, cfg) = replicated_cluster(&sim, kind);
        let (client, group) = build_replicated(&cluster, 2, &[0, 1], cfg);
        let inj = cluster.inject_faults(primary_crash_plan());
        group.wire_recovery(&inj);
        let view = group.view();
        let client = Rc::new(client);
        let h = sim.handle();
        let during_outage = sim.block_on({
            let client = Rc::clone(&client);
            let h = h.clone();
            async move {
                // Paced so the stream spans the outage window.
                let mut during_outage = 0u64;
                for i in 0..PUTS {
                    let data = Payload::from_bytes(vec![1 + i as u8; VAL]);
                    client
                        .call(Request::Put { obj: i, data })
                        .await
                        .unwrap_or_else(|e| panic!("{kind:?} put {i} lost to the crash: {e}"));
                    let now = h.now().as_nanos();
                    if (CRASH_AT_NS..CRASH_AT_NS + DOWN_FOR_NS).contains(&now) {
                        during_outage += 1;
                    }
                    h.sleep(SimDuration::from_micros(25)).await;
                }
                // Drain decoupled processing, replay and catch-up included.
                h.sleep(SimDuration::from_millis(5)).await;
                during_outage
            }
        });
        assert_eq!(inj.stats().node_crashes, 1, "{kind:?}");
        assert!(
            during_outage > 0,
            "{kind:?}: no put completed while the old primary was down"
        );
        assert_eq!(view.epoch(), 1, "{kind:?}: crash must promote exactly once");
        assert_eq!(
            view.primary_node(),
            1,
            "{kind:?}: the backup must be the new primary"
        );
        assert!(
            view.is_up(0),
            "{kind:?}: the old primary must have rejoined as a backup"
        );
        let node0 = cluster.node(0).metrics().unwrap();
        assert!(
            node0.counter(Key::new("log_replayed")) > 0,
            "{kind:?}: crash landed but recovery replayed nothing"
        );
        // Every ACKed put's bytes are in BOTH replicas' persistent PM:
        // the survivor served them live, the crashed one via replay plus
        // the rejoin catch-up of the puts it missed.
        for (slot, srv) in group.servers.iter().enumerate() {
            for i in 0..PUTS {
                assert_eq!(
                    srv.store().persistent_bytes(i, VAL as u64),
                    vec![1 + i as u8; VAL],
                    "{kind:?} replica {slot} obj {i}"
                );
            }
        }
        cluster.audit_journal().assert_ok();
    }
}

/// Reads must not be pinned to the initial primary (the old bug): a Get
/// issued while node 0 is down is served by the promoted backup.
#[test]
fn gets_fail_over_to_promoted_backup() {
    let mut sim = Sim::new(0x6E7);
    let (cluster, cfg) = replicated_cluster(&sim, DurableKind::WFlush);
    let (client, group) = build_replicated(&cluster, 2, &[0, 1], cfg);
    let inj = cluster.inject_faults(primary_crash_plan());
    group.wire_recovery(&inj);
    let view = group.view();
    let h = sim.handle();
    let got = sim.block_on(async move {
        client
            .call(Request::Put {
                obj: 3,
                data: Payload::from_bytes(vec![0xAB; VAL]),
            })
            .await
            .expect("put before the crash");
        // Land inside the outage window.
        h.sleep(SimDuration::from_micros(60)).await;
        let now = h.now().as_nanos();
        assert!(
            (CRASH_AT_NS..CRASH_AT_NS + DOWN_FOR_NS).contains(&now),
            "test scheduling drifted out of the outage window"
        );
        client
            .call(Request::Get {
                obj: 3,
                len: VAL as u64,
            })
            .await
            .expect("get must fail over to the promoted backup")
    });
    assert_eq!(view.epoch(), 1);
    assert_eq!(view.primary_node(), 1);
    assert_eq!(
        got.payload.expect("get returns the object").len(),
        VAL as u64
    );
}

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
    server.start();
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
    let (cluster, cfg) = replicated_cluster(&sim, DurableKind::WFlush);
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

/// Same seed + same plan ⇒ byte-identical journal across crash,
/// promotion, replay and catch-up; a different seed perturbs it.
#[test]
fn replicated_fault_runs_are_byte_deterministic() {
    fn replicated_journal(seed: u64) -> String {
        let mut sim = Sim::new(seed);
        let (cluster, cfg) = replicated_cluster(&sim, DurableKind::WFlush);
        let (client, group) = build_replicated(&cluster, 2, &[0, 1], cfg);
        let plan = primary_crash_plan()
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
            for i in 0..PUTS {
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
