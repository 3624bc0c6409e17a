//! Lease-cache consistency (ISSUE 9): the client-side hot-key cache may
//! never serve bytes newer than the last flush-ACKed put, and a lease
//! may never outlive the data it covers. These scenarios drive this
//! end-to-end under the journal auditor (invariant I5):
//!
//! * a put racing a cached read — every `LeaseInvalidate` must be
//!   jotted no later than its put's `RpcComplete` (the epoch bump
//!   happens between the redo-log append and the flush wait), and the
//!   concurrent cached read is legal exactly because it serves the
//!   *old* epoch;
//! * a working set four times the cache's capacity — evictions run under
//!   the auditor, an evicted key is fetched and filled again, and the
//!   journal repeats byte for byte (the key index leaks no order);
//! * a zero-capacity cache, which must hold nothing;
//! * transactions on a cached fleet, whose commits revoke on the same
//!   lease tables the caches validate against, so no cached read serves
//!   a written key's pre-commit epoch once the commit is acknowledged.
//!
//! A primary crash under a replicated cached service — the backup's
//! promotion revokes the client's leases on the shard — is a row of the
//! crash-point sweep (`tests/crash_sweep.rs`).

use std::collections::BTreeMap;
use std::rc::Rc;

use prdma_suite::core::txn::TxnOutcome;
use prdma_suite::core::{
    build_fleet, CacheConfig, DurableConfig, DurableKind, FleetSpec, LeaseState, Request,
    RpcClient, ServerProfile, ShardMap, ShardedClient,
};
use prdma_suite::node::{Cluster, ClusterConfig};
use prdma_suite::rnic::Payload;
use prdma_suite::simnet::journal::{self, EventKind, NO_ID};
use prdma_suite::simnet::metrics::Key;
use prdma_suite::simnet::rng::SmallRng;
use prdma_suite::simnet::{Sim, SimDuration};

const OBJ_SLOT: u64 = 1024;
const VAL: u64 = 256;

/// A journaled, metered world of one WFlush shard (node 0) and one client
/// (node 1) caching under `cache`.
fn cached_world(seed: u64, cache: CacheConfig) -> (Sim, Cluster, Rc<ShardedClient>, LeaseState) {
    let sim = Sim::new(seed);
    let mut ccfg = ClusterConfig::with_servers(1, 1);
    ccfg.journal = true;
    let cluster = Cluster::new(sim.handle(), ccfg);
    let cfg = DurableConfig {
        profile: ServerProfile::light(),
        slot_payload: OBJ_SLOT,
        object_slot: OBJ_SLOT,
        store_capacity: 1 << 20,
        log_slots: 64,
        ..DurableConfig::for_kind(DurableKind::WFlush)
    };
    let spec = FleetSpec {
        replicas: 1,
        cache: Some(cache),
    };
    let svc = build_fleet(&cluster, ShardMap::new(1), &[1], &cfg, spec);
    let lease = svc.leases[0].clone();
    let client = Rc::new(svc.clients.into_iter().next().unwrap());
    (sim, cluster, client, lease)
}

/// The client's cache counter `name` in a [`cached_world`].
fn cache_counter(cluster: &Cluster, name: &'static str) -> u64 {
    cluster
        .node(1)
        .metrics
        .counter(Key::new(name).shard(0).kind("WFlush-RPC"))
}

/// A put racing a cached read: the invalidation must land in the journal
/// no later than the put's completion (I5a), the race itself must be
/// audit-clean, and after the put the stale entry must miss and refill.
#[test]
fn put_racing_cached_read_invalidates_before_flush_ack() {
    let cache = CacheConfig {
        hot_threshold: 1,
        mirror: false,
        ..Default::default()
    };
    let (mut sim, cluster, client, lease) = cached_world(0xCACE, cache);
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

const EVICT_CAPACITY: usize = 8;
const EVICT_KEYS: u64 = 32;

/// Reads with interleaved puts over a working set four times the cache,
/// then a scripted tail that evicts key 0 and reads it twice more.
/// Checks the audit, the eviction and the refill; returns the journal.
fn eviction_run(seed: u64) -> String {
    let cache = CacheConfig {
        capacity: EVICT_CAPACITY,
        hot_threshold: 1,
        mirror_threshold: 3,
        ..Default::default()
    };
    let (mut sim, cluster, client, lease) = cached_world(seed, cache);
    let h = sim.handle();
    let put = |obj: u64, i: u64| Request::Put {
        obj,
        data: Payload::synthetic(VAL, i),
    };
    let get = |obj: u64| Request::Get { obj, len: VAL };
    // Half of all traffic goes to four hot keys (they climb to the mirror
    // tier and are written under their readers), half anywhere (it
    // evicts).
    let pick = |rng: &mut SmallRng| {
        if rng.gen_bool(0.5) {
            rng.gen_range(0..4)
        } else {
            rng.gen_range(0..EVICT_KEYS)
        }
    };
    let (refetch_at, reread_at) = sim.block_on({
        let client = Rc::clone(&client);
        let h = h.clone();
        async move {
            for obj in 0..EVICT_KEYS {
                client.call(put(obj, obj)).await.expect("seed put");
            }
            // Puts land between (and during) the reads, so entries go
            // stale and evictions meet invalidations.
            let writer = h.spawn({
                let client = Rc::clone(&client);
                let h = h.clone();
                let mut rng = SmallRng::seed_from_u64(seed ^ 0xB175);
                async move {
                    for i in 0..60 {
                        let obj = pick(&mut rng);
                        client.call(put(obj, i)).await.expect("interleaved put");
                        h.sleep(SimDuration::from_micros(3)).await;
                    }
                }
            });
            let mut rng = SmallRng::seed_from_u64(seed);
            for _ in 0..600 {
                let got = client.call(get(pick(&mut rng))).await.expect("get");
                assert_eq!(got.payload.expect("object bytes").len(), VAL);
            }
            writer.await;
            // With no put in flight every get leaves its key cached, so
            // `capacity` other keys push key 0 out whatever came before.
            client.call(get(0)).await.expect("get");
            for obj in 1..=EVICT_CAPACITY as u64 {
                client.call(get(obj)).await.expect("evicting get");
            }
            let refetch_at = h.now().as_nanos();
            client.call(get(0)).await.expect("get of the evicted key");
            let reread_at = h.now().as_nanos();
            client.call(get(0)).await.expect("get of the re-filled key");
            h.sleep(SimDuration::from_millis(1)).await;
            (refetch_at, reread_at)
        }
    });
    sim.run();
    cluster.audit_journal().assert_ok();
    assert!(
        cache_counter(&cluster, "cache_fills") > EVICT_KEYS,
        "{EVICT_KEYS} keys through {EVICT_CAPACITY} entries must fill, evict and fill again"
    );
    assert!(cache_counter(&cluster, "cache_invalidations") > 0);
    assert!(cache_counter(&cluster, "mirror_reads") > 0);

    let records = cluster.journal_records();
    let key0 = lease.key_id(0);
    let tail: Vec<_> = records
        .iter()
        .filter(|r| r.wr_id == key0 && r.ts_ns >= refetch_at)
        .map(|r| (r.kind, r.ts_ns))
        .collect();
    let cache_reads: Vec<_> = tail
        .iter()
        .filter(|(kind, _)| *kind == EventKind::CacheRead)
        .collect();
    assert_eq!(
        cache_reads,
        [&(EventKind::CacheRead, reread_at)],
        "evicted key 0 must be fetched, not served locally; the get after that must hit"
    );
    assert!(
        tail.iter().any(|&(kind, ts)| ts <= reread_at
            && matches!(kind, EventKind::LeaseGrant | EventKind::MirrorRead)),
        "key 0 must come back through the RPC or the mirror path: {tail:?}"
    );
    journal::to_jsonl(&records)
}

/// Evictions under the auditor (I5), and the same seed twice: the journal
/// must repeat byte for byte, so nothing of the key index's layout or
/// iteration order reaches the schedule.
#[test]
fn eviction_refills_under_the_auditor_and_repeats_exactly() {
    let a = eviction_run(0xE71C);
    let b = eviction_run(0xE71C);
    assert!(a == b, "same seed, different journals");
    assert!(a != eviction_run(0xE71D), "journal is seed-insensitive");
}

/// `capacity: 0` caches nothing: every get is a durable RPC, no lease is
/// granted and no key is promoted. (It used to cache one entry: the
/// eviction ahead of an insert found nothing to evict in an empty map.)
#[test]
fn zero_capacity_caches_nothing() {
    let cache = CacheConfig {
        capacity: 0,
        hot_threshold: 1,
        ..Default::default()
    };
    let (mut sim, cluster, client, _lease) = cached_world(0xCA90, cache);
    sim.block_on({
        let client = Rc::clone(&client);
        async move {
            for obj in 0..2u64 {
                client
                    .call(Request::Put {
                        obj,
                        data: Payload::synthetic(VAL, obj),
                    })
                    .await
                    .expect("put");
                for _ in 0..5 {
                    let got = client
                        .call(Request::Get { obj, len: VAL })
                        .await
                        .expect("get");
                    assert_eq!(got.payload.expect("object bytes").len(), VAL);
                }
            }
        }
    });
    sim.run();
    assert_eq!(cache_counter(&cluster, "cache_misses"), 10);
    for idle in [
        "cache_hits",
        "cache_fills",
        "cache_promotions",
        "mirror_reads",
    ] {
        assert_eq!(cache_counter(&cluster, idle), 0, "{idle}");
    }
    let served_locally = cluster.journal_records().iter().any(|r| {
        matches!(
            r.kind,
            EventKind::CacheRead | EventKind::LeaseGrant | EventKind::MirrorRead
        )
    });
    assert!(
        !served_locally,
        "no get may be served or leased by the cache"
    );
    cluster.audit_journal().assert_ok();
}

const TXN_KEYS: u64 = 16;

/// Two clients running 2R+2W transactions on a 2-shard cached fleet
/// (hot threshold 1, mirror off), with cached GETs between them, under
/// the auditor. Every committed transaction must have revoked each key
/// it wrote — on the lease table the caches read — no later than its
/// `TxnAck`, and no cached read after the ACK may serve an epoch below
/// the commit's. Returns the journal.
fn cached_txn_run(seed: u64) -> String {
    let mut sim = Sim::new(seed);
    let mut ccfg = ClusterConfig::with_servers(2, 2);
    ccfg.journal = true;
    let cluster = Cluster::new(sim.handle(), ccfg);
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
    let map = ShardMap::new(2);
    let svc = build_fleet(&cluster, map, &[2, 3], &cfg, spec);
    let joins: Vec<_> = svc
        .clients
        .into_iter()
        .zip(0u64..)
        .map(|(client, c)| {
            let h = sim.handle();
            sim.spawn(async move {
                let mut rng = SmallRng::seed_from_u64(seed ^ c);
                let get = |obj| Request::Get { obj, len: VAL };
                let mut committed = Vec::new();
                for _ in 0..40 {
                    for _ in 0..3 {
                        let obj = rng.gen_range(0..TXN_KEYS);
                        client.call(get(obj)).await.expect("cached get");
                    }
                    let mut txn = client.begin();
                    for _ in 0..2 {
                        let obj = rng.gen_range(0..TXN_KEYS);
                        client.read(&mut txn, obj, VAL).await.expect("txn read");
                    }
                    let written: Vec<u64> = (0..2).map(|_| rng.gen_range(0..TXN_KEYS)).collect();
                    for &obj in &written {
                        txn.put(obj, &Payload::from_bytes(vec![obj as u8; VAL as usize]));
                    }
                    let id = txn.id();
                    if client.commit(txn).await == Ok(TxnOutcome::Committed) {
                        committed.push((id, written));
                    }
                    h.sleep(SimDuration::from_micros(5)).await;
                }
                committed
            })
        })
        .collect();
    let h = sim.handle();
    let committed = sim.block_on(async move {
        let mut committed = Vec::new();
        for j in joins {
            committed.extend(j.await);
        }
        h.sleep(SimDuration::from_millis(1)).await;
        committed
    });
    sim.run();
    cluster.audit_journal().assert_ok();
    assert!(!committed.is_empty(), "seed {seed:#x}: nothing committed");

    let records = cluster.journal_records();
    let key_id = |obj: u64| {
        let (shard, local) = map.route(obj);
        svc.leases[shard].key_id(local)
    };
    let mut stale_checks = 0;
    for (id, written) in &committed {
        let ack = records
            .iter()
            .find(|r| r.kind == EventKind::TxnAck && r.rpc_id == *id)
            .unwrap_or_else(|| panic!("seed {seed:#x}: txn {id:#x} committed without a TxnAck"));
        // Key id -> the epoch this commit moved it to.
        let bumps: BTreeMap<u64, u64> = records
            .iter()
            .filter(|r| r.kind == EventKind::LeaseInvalidate && r.rpc_id == *id)
            .inspect(|r| {
                assert!(
                    r.ts_ns <= ack.ts_ns,
                    "seed {seed:#x}: txn {id:#x} revoked key {:#x} after its ACK",
                    r.wr_id
                )
            })
            .map(|r| (r.wr_id, r.bytes))
            .collect();
        let expected: Vec<u64> = written.iter().map(|&obj| key_id(obj)).collect();
        for key in &expected {
            assert!(
                bumps.contains_key(key),
                "seed {seed:#x}: txn {id:#x} never revoked written key {key:#x}"
            );
        }
        for r in records.iter().filter(|r| {
            matches!(r.kind, EventKind::CacheRead | EventKind::MirrorRead) && r.ts_ns > ack.ts_ns
        }) {
            if let Some(&epoch) = bumps.get(&r.wr_id) {
                stale_checks += 1;
                assert!(
                    r.bytes >= epoch,
                    "seed {seed:#x}: key {:#x} served at epoch {} after txn {id:#x} moved it to {epoch}",
                    r.wr_id,
                    r.bytes
                );
            }
        }
    }
    assert!(
        stale_checks > 0,
        "seed {seed:#x}: no cached read of a transactionally written key"
    );
    journal::to_jsonl(&records)
}

/// A cached fleet runs transactions against the lease tables its caches
/// validate against; each seeded case twice, byte for byte.
#[test]
fn txn_commits_revoke_the_leases_cached_reads_validate_against() {
    for case in 0..3u64 {
        let seed = 0x7CAC_0000 + case;
        let a = cached_txn_run(seed);
        assert!(
            a == cached_txn_run(seed),
            "case {case} (seed {seed:#x}): same seed, different journals"
        );
    }
}
