//! Exactly-once batched puts and partial-failure batch semantics
//! (ISSUE 10 satellites): a whole-batch retry after a mid-batch node
//! crash must not double-apply (per-op causal ids + persisted dedup),
//! one shard's failure must not discard the other shards' completed
//! responses, and co-batching a scan must not evict the puts/gets from
//! the doorbell-batched flush path.

use prdma_suite::core::{
    build_fleet, DurableConfig, DurableKind, Fleet, FleetSpec, Request, RetryPolicy, RpcClient,
    ServerProfile, ShardMap,
};
use prdma_suite::node::{Cluster, ClusterConfig};
use prdma_suite::rnic::Payload;
use prdma_suite::simnet::fault::{FaultKind, FaultPlan};
use prdma_suite::simnet::journal::EventKind;
use prdma_suite::simnet::metrics::Key;
use prdma_suite::simnet::{Sim, SimDuration, SimTime};

const VAL: usize = 256;

fn retry(max_retries: u32) -> RetryPolicy {
    RetryPolicy {
        request_timeout: SimDuration::from_micros(300),
        max_retries,
        backoff: SimDuration::from_micros(100),
        backoff_cap: SimDuration::from_micros(100),
        jitter_pct: 0,
    }
}

fn batch_cluster(sim: &Sim, kind: DurableKind, max_retries: u32) -> (Cluster, Fleet) {
    let mut ccfg = ClusterConfig::with_servers(2, 1);
    ccfg.journal = true;
    let cluster = Cluster::new(sim.handle(), ccfg);
    let cfg = DurableConfig {
        profile: ServerProfile::heavy(),
        slot_payload: 1024,
        object_slot: 1024,
        store_capacity: 1 << 20,
        log_slots: 64,
        retry: retry(max_retries),
        ..DurableConfig::for_kind(kind)
    };
    let spec = FleetSpec {
        replicas: 1,
        cache: None,
    };
    let svc = build_fleet(&cluster, ShardMap::new(2), &[2], &cfg, spec);
    (cluster, svc)
}

/// Crash shard 0 mid-batch: the whole-chunk retry re-appends entries
/// that already persisted before the crash. The per-op causal ids must
/// dedup the replay/retry overlap — every key applied exactly once —
/// and the dedup counter must actually fire (the bug this PR fixes:
/// before per-op ids, the re-append double-applied).
#[test]
fn batched_puts_crash_retry_is_exactly_once() {
    for kind in DurableKind::ALL {
        let mut sim = Sim::new(0xBA7C ^ kind as u64);
        let (cluster, svc) = batch_cluster(&sim, kind, 200);
        // 8 µs: for every kind, part of the batch has flush-ACKed but
        // the chunk has not — the crash forces a whole-chunk retry that
        // overlaps the replayed suffix.
        let plan = FaultPlan::new().at(
            SimTime::from_nanos(8_000),
            0,
            FaultKind::NodeCrash {
                down_for: SimDuration::from_micros(500),
            },
        );
        let inj = cluster.inject_faults(plan);
        svc.wire_recovery(&inj);
        let client = svc.clients.into_iter().next().unwrap();
        let h = sim.handle();
        sim.block_on(async move {
            // 16 puts, 8 per shard (striped: even → 0, odd → 1). The
            // crash at 30 µs lands with the batch appended but mostly
            // unprocessed (heavy profile: 100 µs dispatch).
            let reqs: Vec<Request> = (0..16u64)
                .map(|i| Request::Put {
                    obj: i,
                    data: Payload::from_bytes(vec![0x40 + i as u8; VAL]),
                })
                .collect();
            let resps = client
                .call_batch(reqs)
                .await
                .unwrap_or_else(|e| panic!("{kind:?}: batch must ride out the crash: {e}"));
            assert_eq!(resps.len(), 16, "{kind:?}");
            assert!(resps.iter().all(|r| r.durable), "{kind:?}");
            h.sleep(SimDuration::from_millis(5)).await;
        });
        assert_eq!(inj.stats().node_crashes, 1, "{kind:?}");
        assert_eq!(inj.stats().restarts, 1, "{kind:?}: only shard 0 crashes");
        let node0 = cluster.node(0).metrics().unwrap();
        let replayed = node0.counter(Key::new("log_replayed"));
        assert!(replayed > 0, "{kind:?}: recovery replayed nothing");
        // The overlap between replayed and re-sent entries was deduped,
        // not double-applied.
        let deduped: u64 = svc.servers[0].iter().map(|s| s.puts_deduped()).sum();
        assert!(
            deduped > 0,
            "{kind:?}: crash-straddling batch retry never hit the dedup path"
        );
        // Exactly-once: every key holds exactly its one write.
        for shard in 0..2usize {
            let store = svc.servers[shard][0].store();
            for local in 0..8u64 {
                let global = 2 * local + shard as u64;
                assert_eq!(
                    store.persistent_bytes(local, VAL as u64),
                    vec![0x40 + global as u8; VAL],
                    "{kind:?} shard {shard} local {local}"
                );
            }
        }
        // The auditor flags double-applies as journal violations.
        cluster.audit_journal().assert_ok();
    }
}

/// One shard down past the retry budget: the batch outcome keeps the
/// surviving shard's completed responses and reports the dead shard's
/// positions, instead of discarding everything behind one error.
#[test]
fn one_shard_failure_preserves_other_shards_responses() {
    let mut sim = Sim::new(0x0B57);
    let (cluster, svc) = batch_cluster(&sim, DurableKind::WFlush, 3);
    let client = svc.clients.into_iter().next().unwrap();
    cluster.node(0).crash(); // never restarted
    sim.block_on(async move {
        let reqs: Vec<Request> = (0..8u64)
            .map(|i| Request::Put {
                obj: i,
                data: Payload::from_bytes(vec![0x70 + i as u8; VAL]),
            })
            .collect();
        let out = client.call_batch_outcomes(reqs).await;
        assert!(!out.ok());
        assert_eq!(out.failures.len(), 1, "one shard failed");
        assert_eq!(out.failures[0].shard, 0);
        // Striped map: even positions route to the dead shard 0.
        assert_eq!(out.failures[0].positions, vec![0, 2, 4, 6]);
        for pos in 0..8usize {
            let answered = out.responses[pos].is_some();
            assert_eq!(answered, pos % 2 == 1, "position {pos}");
        }
        // Shard 1's responses are real completed durable puts.
        assert!(out.responses.iter().flatten().all(|r| r.durable));
        // The legacy all-or-nothing view still errors.
        assert!(out.into_result().is_err());
    });
    sim.run();
}

/// Co-batching a scan must not evict the puts from the doorbell-batched
/// flush path: the mixed batch's flush-barrier count must match the
/// put-only batch (one coalesced flush per chunk), not the per-call
/// shape (one flush per put).
#[test]
fn mixed_batch_keeps_batched_flush_shape() {
    let flushes = |with_scan: bool| -> (usize, usize) {
        let mut sim = Sim::new(0x5CAB);
        let (cluster, svc) = batch_cluster(&sim, DurableKind::WFlush, 8);
        let client = svc.clients.into_iter().next().unwrap();
        sim.block_on(async move {
            let mut reqs: Vec<Request> = (0..12u64)
                .map(|i| Request::Put {
                    obj: i,
                    data: Payload::from_bytes(vec![0x21 + i as u8; VAL]),
                })
                .collect();
            if with_scan {
                reqs.push(Request::Scan {
                    start: 0,
                    count: 4,
                    len: VAL as u64,
                });
            }
            let out = client.call_batch_outcomes(reqs).await;
            assert!(out.ok());
        });
        sim.run();
        let records = cluster.journal_records();
        let flush_issues = records
            .iter()
            .filter(|r| matches!(r.kind, EventKind::FlushIssue))
            .count();
        let doorbells = records
            .iter()
            .filter(|r| matches!(r.kind, EventKind::Doorbell))
            .count();
        (flush_issues, doorbells)
    };
    let (flush_plain, doorbell_plain) = flushes(false);
    let (flush_mixed, doorbell_mixed) = flushes(true);
    // The scan itself adds a bounded number of extra records (its own
    // reads), but the puts must stay coalesced: the mixed batch cannot
    // degenerate to one flush per put.
    assert!(
        flush_mixed <= flush_plain + 4,
        "scan co-batching broke flush coalescing: {flush_mixed} flushes vs {flush_plain} for puts alone"
    );
    assert!(
        doorbell_mixed >= doorbell_plain,
        "mixed batch lost its doorbell batching: {doorbell_mixed} < {doorbell_plain}"
    );
}
