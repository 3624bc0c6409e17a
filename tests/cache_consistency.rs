//! Lease-cache consistency (ISSUE 9): the client-side hot-key cache may
//! never serve bytes newer than the last flush-ACKed put, and a lease
//! may never outlive the data it covers. Two scenarios drive this
//! end-to-end under the journal auditor (invariant I5):
//!
//! * a put racing a cached read — every `LeaseInvalidate` must be
//!   jotted no later than its put's `RpcComplete` (the epoch bump
//!   happens between the redo-log append and the flush wait), and the
//!   concurrent cached read is legal exactly because it serves the
//!   *old* epoch;
//! * a primary crash under a replicated cached service — the backup's
//!   promotion must revoke every lease the client holds on the shard,
//!   so the first get after failover refills from the new primary
//!   instead of trusting a lease granted by the dead one.

use std::rc::Rc;

use prdma_suite::core::{
    build_fleet, CacheConfig, DurableConfig, DurableKind, FleetSpec, Request, RetryPolicy,
    RpcClient, ServerProfile, ShardMap,
};
use prdma_suite::node::{Cluster, ClusterConfig};
use prdma_suite::rnic::Payload;
use prdma_suite::simnet::fault::{FaultKind, FaultPlan};
use prdma_suite::simnet::journal::{EventKind, NO_ID};
use prdma_suite::simnet::metrics::Key;
use prdma_suite::simnet::{Sim, SimDuration, SimTime};

const OBJ_SLOT: u64 = 1024;
const VAL: u64 = 256;
const CRASH_AT_NS: u64 = 30_000;
const DOWN_FOR_NS: u64 = 500_000;

fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        request_timeout: SimDuration::from_micros(300),
        max_retries: 200,
        // Flat schedule, as in the other failover suites.
        backoff: SimDuration::from_micros(100),
        backoff_cap: SimDuration::from_micros(100),
        jitter_pct: 0,
    }
}

/// A put racing a cached read: the invalidation must land in the journal
/// no later than the put's completion (I5a), the race itself must be
/// audit-clean, and after the put the stale entry must miss and refill.
#[test]
fn put_racing_cached_read_invalidates_before_flush_ack() {
    let mut sim = Sim::new(0xCACE);
    let mut ccfg = ClusterConfig::with_servers(1, 1);
    ccfg.journal = true;
    let cluster = Cluster::new(sim.handle(), ccfg);
    let map = ShardMap::new(1);
    let cfg = DurableConfig {
        profile: ServerProfile::light(),
        slot_payload: OBJ_SLOT,
        object_slot: OBJ_SLOT,
        store_capacity: 1 << 20,
        log_slots: 64,
        ..DurableConfig::for_kind(DurableKind::WFlush)
    };
    let cache = CacheConfig {
        hot_threshold: 1,
        mirror: false,
        ..Default::default()
    };
    let spec = FleetSpec {
        replicas: 1,
        cache: Some(cache),
    };
    let svc = build_fleet(&cluster, map, &[1], &cfg, spec);
    let lease = svc.leases[0].clone();
    let client = Rc::new(svc.clients.into_iter().next().unwrap());
    let h = sim.handle();
    sim.block_on({
        let client = Rc::clone(&client);
        let h = h.clone();
        async move {
            let obj = 7u64;
            let put = move |i: u8| Request::Put {
                obj,
                data: Payload::from_bytes(vec![i; VAL as usize]),
            };
            let get = Request::Get { obj, len: VAL };
            client.call(put(0xA1)).await.expect("seed put");
            client.call(get.clone()).await.expect("fill get");
            client.call(get.clone()).await.expect("cached get");
            // The race: a second put in flight while a read goes through
            // the cache. The read either hits the old epoch (legal: that
            // epoch's bytes are flush-ACKed) or — if the bump already
            // landed — misses and refills; both must satisfy I5.
            let racer = h.spawn({
                let client = Rc::clone(&client);
                async move { client.call(put(0xB2)).await }
            });
            client.call(get.clone()).await.expect("racing get");
            racer.await.expect("racing put");
            client.call(get).await.expect("get after the bump");
            h.sleep(SimDuration::from_millis(1)).await;
        }
    });
    sim.run();
    // Two puts bumped the epoch twice.
    assert_eq!(lease.epoch(7), 2);
    let records = cluster.journal_records();
    let mut invalidations = 0;
    for r in &records {
        if r.kind != EventKind::LeaseInvalidate || r.rpc_id == NO_ID {
            continue;
        }
        invalidations += 1;
        let ack = records
            .iter()
            .find(|c| c.kind == EventKind::RpcComplete && c.rpc_id == r.rpc_id)
            .unwrap_or_else(|| panic!("put {:#x} never completed", r.rpc_id));
        assert!(
            r.ts_ns < ack.ts_ns,
            "invalidation at {} ns must precede its put's flush ACK at {} ns",
            r.ts_ns,
            ack.ts_ns
        );
    }
    assert_eq!(invalidations, 2, "one invalidation per put");
    assert!(
        records.iter().any(|r| r.kind == EventKind::CacheRead),
        "at least one get must have been served from the cache"
    );
    cluster.audit_journal().assert_ok();
}

/// Failover revokes leases: crash shard 0's primary under a replicated
/// cached service; the backup's promotion must clear the client's cached
/// entries for the shard (lease_revocations counter) while gets keep
/// succeeding throughout — and the journal stays audit-clean across the
/// crash, promotion, and refill.
#[test]
fn backup_promotion_revokes_client_leases() {
    let mut sim = Sim::new(0xFA17);
    let mut ccfg = ClusterConfig::with_servers(2, 1);
    ccfg.journal = true;
    ccfg.metrics = true;
    let cluster = Cluster::new(sim.handle(), ccfg);
    let cfg = DurableConfig {
        profile: ServerProfile::light(),
        slot_payload: OBJ_SLOT,
        object_slot: OBJ_SLOT,
        store_capacity: 1 << 20,
        log_slots: 64,
        retry: fast_retry(),
        ..DurableConfig::for_kind(DurableKind::WFlush)
    };
    let cache = CacheConfig {
        hot_threshold: 1,
        ..Default::default()
    };
    let spec = FleetSpec {
        replicas: 2,
        cache: Some(cache),
    };
    let svc = build_fleet(&cluster, ShardMap::new(2), &[2], &cfg, spec);
    let plan = FaultPlan::new().at(
        SimTime::from_nanos(CRASH_AT_NS),
        0,
        FaultKind::NodeCrash {
            down_for: SimDuration::from_nanos(DOWN_FOR_NS),
        },
    );
    let inj = cluster.inject_faults(plan);
    svc.wire_failover(&inj);
    let view = svc.groups[0][0].view();
    let client = Rc::new(svc.clients.into_iter().next().unwrap());
    let h = sim.handle();
    sim.block_on({
        let client = Rc::clone(&client);
        let h = h.clone();
        async move {
            // Warm the cache on shard 0 (even ids) before the crash.
            let obj = 0u64;
            client
                .call(Request::Put {
                    obj,
                    data: Payload::from_bytes(vec![0xC3; VAL as usize]),
                })
                .await
                .expect("put before the crash");
            for _ in 0..3 {
                client
                    .call(Request::Get { obj, len: VAL })
                    .await
                    .expect("warm get");
            }
            // Land inside the outage window, after the promotion.
            h.sleep(SimDuration::from_micros(60)).await;
            let now = h.now().as_nanos();
            assert!(
                (CRASH_AT_NS..CRASH_AT_NS + DOWN_FOR_NS).contains(&now),
                "test scheduling drifted out of the outage window"
            );
            let got = client
                .call(Request::Get { obj, len: VAL })
                .await
                .expect("get must fail over to the promoted backup");
            assert_eq!(got.payload.expect("object bytes").len(), VAL);
            h.sleep(SimDuration::from_millis(2)).await;
        }
    });
    sim.run();
    assert_eq!(
        view.epoch(),
        1,
        "crash must promote the backup exactly once"
    );
    let metrics = cluster.node(2).metrics().expect("metrics enabled");
    let key = |name: &'static str| Key::new(name).shard(0).kind("Replicated-WFlush-RPC");
    assert!(
        metrics.counter(key("cache_hits")) >= 2,
        "warm gets must have hit the cache before the crash"
    );
    assert!(
        metrics.counter(key("lease_revocations")) >= 1,
        "the promotion must have revoked the client's shard-0 leases"
    );
    cluster.audit_journal().assert_ok();
}
