//! Capped exponential retry backoff with deterministic seeded jitter
//! (ISSUE PR 8). A flat delay re-synchronizes every client that saw the
//! same fault into lock-step retry storms; the fix must (a) grow and cap
//! the schedule, (b) decorrelate retry arrival times across clients
//! after a shared fault, and (c) stay byte-deterministic per seed even
//! when jittered retries actually fire on the full transport.

use prdma_suite::core::{
    build_durable, DurableConfig, DurableKind, Request, RetryPolicy, RpcClient, ServerProfile,
};
use prdma_suite::node::{Cluster, ClusterConfig};
use prdma_suite::rnic::Payload;
use prdma_suite::simnet::fault::{FaultKind, FaultPlan};
use prdma_suite::simnet::{journal, Sim, SimDuration, SimTime};
use std::collections::HashSet;
use std::rc::Rc;

#[test]
fn schedule_grows_exponentially_and_caps() {
    let p = RetryPolicy {
        request_timeout: SimDuration::from_micros(300),
        max_retries: 16,
        backoff: SimDuration::from_micros(100),
        backoff_cap: SimDuration::from_micros(800),
        jitter_pct: 0,
    };
    let mut rng = RetryPolicy::jitter_rng(1, 0);
    let delays: Vec<u64> = (0..6).map(|k| p.delay(k, &mut rng).as_nanos()).collect();
    assert_eq!(
        delays,
        [100_000, 200_000, 400_000, 800_000, 800_000, 800_000],
        "attempt k waits backoff << k, capped"
    );
}

#[test]
fn jitter_stays_in_band_and_reproduces_per_seed() {
    let p = RetryPolicy {
        request_timeout: SimDuration::from_micros(300),
        max_retries: 16,
        backoff: SimDuration::from_micros(100),
        backoff_cap: SimDuration::from_millis(2),
        jitter_pct: 50,
    };
    let mut a = RetryPolicy::jitter_rng(7, 3);
    let mut b = RetryPolicy::jitter_rng(7, 3);
    for k in 0..8 {
        let da = p.delay(k, &mut a).as_nanos();
        let db = p.delay(k, &mut b).as_nanos();
        assert_eq!(da, db, "same identity must reproduce the same schedule");
        let exp = (100_000u64 << k.min(20)).min(2_000_000);
        assert!(
            da >= exp / 2 && da <= exp,
            "attempt {k}: delay {da} outside [{}, {exp}]",
            exp / 2
        );
    }
}

/// The storm scenario, at schedule level: 1000 clients observe the same
/// fault instant and walk their retry schedules. Flat backoff lands every
/// client's k-th retry on the very same nanosecond (the thundering herd);
/// the jittered exponential spreads them almost perfectly apart, and the
/// spread widens with each attempt.
#[test]
fn retry_arrivals_decorrelate_across_clients_after_shared_fault() {
    const CLIENTS: u64 = 1000;
    const FAULT_NS: u64 = 5_000_000;
    let flat = RetryPolicy {
        request_timeout: SimDuration::from_micros(300),
        max_retries: 16,
        backoff: SimDuration::from_micros(100),
        backoff_cap: SimDuration::from_micros(100),
        jitter_pct: 0,
    };
    let jittered = RetryPolicy {
        backoff_cap: SimDuration::from_micros(6400),
        jitter_pct: 50,
        ..flat
    };

    let arrivals = |p: &RetryPolicy, round: u32| -> Vec<u64> {
        (0..CLIENTS)
            .map(|c| {
                let mut rng = RetryPolicy::jitter_rng(c, c % 8);
                let mut t = FAULT_NS;
                for k in 0..=round {
                    t += p.delay(k, &mut rng).as_nanos();
                }
                t
            })
            .collect()
    };

    for round in 0..5 {
        let flat_arrivals: HashSet<u64> = arrivals(&flat, round).into_iter().collect();
        assert_eq!(
            flat_arrivals.len(),
            1,
            "flat backoff is the storm: every client retries in lock-step"
        );
        let jittered_arrivals: HashSet<u64> = arrivals(&jittered, round).into_iter().collect();
        assert!(
            jittered_arrivals.len() >= 950,
            "round {round}: only {} distinct arrival instants across {CLIENTS} clients",
            jittered_arrivals.len()
        );
    }
}

/// End-to-end: jittered retries firing on the real transport (a server
/// crash mid-stream) must still be byte-deterministic per seed — the
/// jitter comes from per-connection streams, never the shared sim RNG.
#[test]
fn jittered_retries_keep_journals_byte_deterministic() {
    fn faulty_journal(seed: u64) -> String {
        let mut sim = Sim::new(seed);
        let mut ccfg = ClusterConfig::with_nodes(2);
        ccfg.journal = true;
        let cluster = Cluster::new(sim.handle(), ccfg);
        let cfg = DurableConfig {
            profile: ServerProfile::heavy(),
            slot_payload: 1024,
            object_slot: 1024,
            retry: RetryPolicy {
                request_timeout: SimDuration::from_micros(300),
                max_retries: 200,
                backoff: SimDuration::from_micros(100),
                backoff_cap: SimDuration::from_micros(1600),
                jitter_pct: 50,
            },
            ..DurableConfig::for_kind(DurableKind::WFlush)
        };
        let (client, server) = build_durable(&cluster, 1, 0, 0, cfg);
        let plan = FaultPlan::new().at(
            SimTime::from_nanos(30_000),
            0,
            FaultKind::NodeCrash {
                down_for: SimDuration::from_micros(500),
            },
        );
        let inj = cluster.inject_faults(plan);
        Rc::new(server).wire_recovery(&inj);
        let h = sim.handle();
        sim.block_on(async move {
            for i in 0..12u64 {
                let data = Payload::from_bytes(vec![0x30 + i as u8; 256]);
                client
                    .call(Request::Put { obj: i, data })
                    .await
                    .unwrap_or_else(|e| panic!("put {i}: {e}"));
            }
            h.sleep(SimDuration::from_millis(5)).await;
        });
        cluster.audit_journal().assert_ok();
        journal::to_jsonl(&cluster.journal_records())
    }

    let a = faulty_journal(88);
    let b = faulty_journal(88);
    assert!(!a.is_empty());
    assert_eq!(a, b, "same seed must reproduce jittered retries exactly");
}
