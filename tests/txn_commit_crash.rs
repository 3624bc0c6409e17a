//! Crash-during-commit tests for durable multi-shard transactions
//! (ISSUE 10): kill the coordinator shard's server after k of n
//! prepares, kill a participant after the decided append, and stall
//! both services — for all four durable kinds. (A participant crash
//! under a fault plan is a row of the crash-point sweep,
//! `tests/crash_sweep.rs`.) In every case the in-doubt transaction must
//! resolve from the PM logs alone (the participant's replay consults
//! the coordinator's decided record; the client never retransmits
//! data), journals must be byte-deterministic per seed, and the
//! auditor's invariant I6 must sign off.

use std::rc::Rc;

use prdma_suite::core::txn::{TxnOutcome, TxnPhase};
use prdma_suite::core::{
    build_fleet, DurableConfig, DurableKind, Fleet, FleetSpec, RetryPolicy, ShardMap,
};
use prdma_suite::node::{Cluster, ClusterConfig};
use prdma_suite::rnic::Payload;
use prdma_suite::simnet::fault::{FaultKind, FaultPlan};
use prdma_suite::simnet::{journal, Sim, SimDuration, SimTime};
use prdma_suite::sweep;

const VAL: usize = 64;
/// The fault a test that crashes a node by hand recovers from (the
/// downtime is the test's own `restart()` call, so the field is unused).
const NODE_CRASH: FaultKind = FaultKind::NodeCrash {
    down_for: SimDuration::ZERO,
};

/// Two shards (server nodes 0 and 1), one client (node 2), journal on,
/// under the crash-sweep configuration (heavy profile: crashes reliably
/// land between a record's flush ACK and its processing) with
/// `max_retries` per request.
fn txn_cluster(sim: &Sim, kind: DurableKind, max_retries: u32) -> (Cluster, Fleet) {
    let mut ccfg = ClusterConfig::with_servers(2, 1);
    ccfg.journal = true;
    let cluster = Cluster::new(sim.handle(), ccfg);
    let cfg = DurableConfig {
        retry: RetryPolicy {
            max_retries,
            ..sweep::RETRY
        },
        ..sweep::config(kind)
    };
    let spec = FleetSpec {
        replicas: 1,
        cache: None,
    };
    let svc = build_fleet(&cluster, ShardMap::new(2), &[2], &cfg, spec);
    (cluster, svc)
}

/// Participant killed right after the decided append persisted, before
/// it processed its prepare: the commit record retries exhaust against
/// the dead node (3 retries), so when the node restarts, the *only*
/// resolution path is the replay consulting the coordinator's decided
/// record through a log-ring scan — no client retransmit, no in-band
/// record. Returns the journal for byte-determinism comparison.
fn decided_crash_run(kind: DurableKind) -> String {
    let mut sim = Sim::new(0x27C2 ^ kind as u64);
    let (cluster, mut svc) = txn_cluster(&sim, kind, 3);
    let client = svc.clients.remove(0);
    let participant = cluster.node(1).clone();
    {
        let p = participant.clone();
        client.set_phase_hook(move |ph| {
            if ph == TxnPhase::AfterDecide {
                p.crash();
            }
        });
    }
    let h = sim.handle();
    sim.block_on(async move {
        let mut t = client.begin();
        t.put(0, &Payload::from_bytes(vec![0xA5; VAL])); // shard 0 (coordinator)
        t.put(1, &Payload::from_bytes(vec![0x5A; VAL])); // shard 1 (crashes)
        let out = client.commit(t).await.expect("decide append had ACKed");
        assert_eq!(out, TxnOutcome::Committed, "{kind:?}");
        // Let the background commit-record retries exhaust against the
        // dead participant. The client does nothing else ever again.
        h.sleep(SimDuration::from_millis(3)).await;
    });
    participant.restart();
    let scans_before = svc.directory().scan_resolved();
    let replayed = svc.recover(1, NODE_CRASH);
    assert!(replayed > 0, "{kind:?}: replay found no pending entries");
    sim.run();
    // The staged prepare resolved from the logs alone: the decided
    // record was found by scanning the coordinator's ring.
    assert!(
        svc.directory().scan_resolved() > scans_before,
        "{kind:?}: resolution did not come from a log scan"
    );
    assert_eq!(svc.in_doubt(1), 0, "{kind:?}");
    assert_eq!(svc.states[1].applied_txns(), 1, "{kind:?}");
    assert_eq!(
        svc.servers[1][0].store().persistent_bytes(0, VAL as u64),
        vec![0x5A; VAL],
        "{kind:?}: committed write must be applied on the recovered shard"
    );
    assert_eq!(
        svc.servers[0][0].store().persistent_bytes(0, VAL as u64),
        vec![0xA5; VAL],
        "{kind:?}: coordinator shard applies too"
    );
    cluster.audit_journal().assert_ok();
    journal::to_jsonl(&cluster.journal_records())
}

#[test]
fn decided_txn_resolves_on_participant_from_logs_alone() {
    for kind in DurableKind::ALL {
        let a = decided_crash_run(kind);
        let b = decided_crash_run(kind);
        assert_eq!(a, b, "{kind:?}: journals must be byte-deterministic");
    }
}

/// The persisted-but-unprocessed window: both shards' *services* are
/// stalled (`ServiceCrash`: NIC and PM keep absorbing one-sided
/// appends), so the prepares and the decide are all flush-ACKed and the
/// client sees commit with nothing processed anywhere. The participant
/// comes back first; the coordinator's service is still down, so its
/// decide is persisted but unprocessed and no in-band outcome exists.
/// The participant's prepare must still resolve *commit* — from the
/// coordinator's persistent ring, by exactly one scan. Sender-initiated
/// kinds only: a receiver-initiated persist ACK needs the stalled CPU.
#[test]
fn decide_at_a_stalled_coordinator_resolves_from_its_persistent_ring() {
    for kind in [DurableKind::SFlush, DurableKind::WFlush] {
        let mut sim = Sim::new(0x57A1 ^ kind as u64);
        let (cluster, mut svc) = txn_cluster(&sim, kind, 3);
        let client = svc.clients.remove(0);
        let stall = |us| FaultKind::ServiceCrash {
            down_for: SimDuration::from_micros(us),
        };
        let t0 = SimTime::from_nanos(1_000);
        let plan = FaultPlan::new()
            .at(t0, 0, stall(2_000)) // coordinator
            .at(t0, 1, stall(500)); // participant
        let inj = cluster.inject_faults(plan);
        let dir = svc.directory().clone();
        let states = svc.states.clone();
        let h = sim.handle();
        sim.block_on(async move {
            h.sleep(SimDuration::from_micros(5)).await;
            let mut t = client.begin();
            t.put(0, &Payload::from_bytes(vec![0xC3; VAL])); // shard 0 (coordinator)
            t.put(1, &Payload::from_bytes(vec![0x3C; VAL])); // shard 1
            let out = client
                .commit(t)
                .await
                .expect("the NIC alone ACKs persistence");
            assert_eq!(out, TxnOutcome::Committed, "{kind:?}");
            assert_eq!(dir.ring_scans(), 0, "{kind:?}: nothing processed yet");
            // t = 1 ms: participant back for 0.5 ms, coordinator still down.
            h.sleep(SimDuration::from_millis(1)).await;
            assert_eq!(states[0].applied_txns(), 0, "{kind:?}: coordinator ran");
            assert_eq!(states[1].applied_txns(), 1, "{kind:?}: not resolved");
            assert_eq!(dir.ring_scans(), 1, "{kind:?}");
            assert_eq!(dir.scan_resolved(), 1, "{kind:?}");
        });
        sim.run();
        assert_eq!(inj.stats().service_crashes, 2, "{kind:?}");
        for shard in 0..2usize {
            assert_eq!(svc.in_doubt(shard), 0, "{kind:?} shard {shard}");
            assert_eq!(
                svc.states[shard].applied_txns(),
                1,
                "{kind:?} shard {shard}"
            );
        }
        assert_eq!(
            svc.directory().ring_scans(),
            1,
            "{kind:?}: later lookups hit the table"
        );
        cluster.audit_journal().assert_ok();
    }
}

/// Coordinator shard's server killed after both prepares ACKed but
/// before the decided append: the decide retries ride out the outage,
/// the restarted coordinator replays its prepare into an in-doubt stage
/// (no decided record yet — it must NOT presume abort), and the late
/// decide then resolves everything.
#[test]
fn coordinator_crash_after_prepares_rides_out_and_commits() {
    for kind in DurableKind::ALL {
        let mut sim = Sim::new(0xC0DE ^ kind as u64);
        let (cluster, mut svc) = txn_cluster(&sim, kind, 200);
        let client = svc.clients.remove(0);
        let svc = Rc::new(svc);
        let coordinator = cluster.node(0).clone();
        {
            let c = coordinator.clone();
            client.set_phase_hook(move |ph| {
                if ph == TxnPhase::AfterPrepare(2) {
                    c.crash();
                }
            });
        }
        let h = sim.handle();
        sim.block_on({
            let svc = Rc::clone(&svc);
            let h = h.clone();
            async move {
                let commit = h.spawn(async move {
                    let mut t = client.begin();
                    t.put(0, &Payload::from_bytes(vec![0x11; VAL]));
                    t.put(1, &Payload::from_bytes(vec![0x22; VAL]));
                    client.commit(t).await
                });
                // Restart the coordinator mid-2PC and replay its logs;
                // its own prepare stages in doubt (no decided record).
                h.sleep(SimDuration::from_millis(1)).await;
                coordinator.restart();
                let replayed = svc.recover(0, NODE_CRASH);
                assert!(replayed > 0, "{kind:?}");
                let out = commit.await.expect("decide retries ride out the outage");
                assert_eq!(out, TxnOutcome::Committed, "{kind:?}");
                h.sleep(SimDuration::from_millis(5)).await;
            }
        });
        sim.run();
        for shard in 0..2usize {
            assert_eq!(svc.in_doubt(shard), 0, "{kind:?} shard {shard}");
            assert_eq!(
                svc.states[shard].applied_txns(),
                1,
                "{kind:?} shard {shard}"
            );
            assert_eq!(
                svc.servers[shard][0]
                    .store()
                    .persistent_bytes(0, VAL as u64),
                vec![0x11 * (shard as u8 + 1); VAL],
                "{kind:?} shard {shard}"
            );
        }
        cluster.audit_journal().assert_ok();
    }
}

/// Coordinator down past the decide retries: commit() surfaces the
/// indeterminate error, both prepares stay staged and locked — in doubt
/// — and replay keeps them that way (presumed-nothing: no decided
/// record means no unilateral abort). A later conflicting transaction
/// aborts on the held locks; nothing ever applies.
#[test]
fn undecided_txn_stays_in_doubt_and_holds_locks() {
    for kind in DurableKind::ALL {
        let mut sim = Sim::new(0xD0BB ^ kind as u64);
        let (cluster, mut svc) = txn_cluster(&sim, kind, 3);
        let client = svc.clients.remove(0);
        let coordinator = cluster.node(0).clone();
        {
            let c = coordinator.clone();
            client.set_phase_hook(move |ph| {
                if ph == TxnPhase::AfterPrepare(2) {
                    c.crash();
                }
            });
        }
        let h = sim.handle();
        let txn_id = sim.block_on(async move {
            let mut t = client.begin();
            let id = t.id();
            t.put(0, &Payload::from_bytes(vec![0x77; VAL]));
            t.put(1, &Payload::from_bytes(vec![0x88; VAL]));
            assert!(
                client.commit(t).await.is_err(),
                "{kind:?}: decide against a dead coordinator must surface an error"
            );
            // A second transaction on the same keys hits the held locks.
            client.set_phase_hook(|_| {});
            let mut t2 = client.begin();
            t2.put(0, &Payload::from_bytes(vec![0x99; VAL]));
            let out = t2.id();
            assert_ne!(out, id);
            assert!(matches!(
                client.commit(t2).await.unwrap(),
                TxnOutcome::Aborted(_)
            ));
            h.sleep(SimDuration::from_millis(1)).await;
            id
        });
        coordinator.restart();
        svc.recover(0, NODE_CRASH);
        svc.recover(1, NODE_CRASH);
        sim.run();
        // Still in doubt everywhere: staged, locked, nothing applied.
        for shard in 0..2usize {
            assert_eq!(svc.in_doubt(shard), 1, "{kind:?} shard {shard}");
            assert_eq!(
                svc.states[shard].applied_txns(),
                0,
                "{kind:?} shard {shard}"
            );
            assert_eq!(svc.states[shard].lock_owner(0), Some(txn_id), "{kind:?}");
        }
        cluster.audit_journal().assert_ok();
    }
}
