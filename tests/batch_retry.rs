//! Exactly-once batched puts: a whole-batch retry after a mid-batch
//! node crash must not double-apply (per-op causal ids + persisted
//! dedup).

use std::rc::Rc;

use prdma_suite::core::{
    build_durable, DurableConfig, DurableKind, Request, RetryPolicy, RpcClient, ServerProfile,
};
use prdma_suite::node::{Cluster, ClusterConfig};
use prdma_suite::rnic::Payload;
use prdma_suite::simnet::fault::{FaultKind, FaultPlan};
use prdma_suite::simnet::metrics::Key;
use prdma_suite::simnet::{Sim, SimDuration, SimTime};

const VAL: usize = 256;

/// Crash the server mid-batch: the whole-chunk retry re-appends entries
/// that already persisted before the crash. The per-op causal ids must
/// dedup the replay/retry overlap — every key applied exactly once —
/// and the dedup counter must actually fire (before per-op ids, the
/// re-append double-applied).
#[test]
fn batched_puts_crash_retry_is_exactly_once() {
    for kind in DurableKind::ALL {
        let mut sim = Sim::new(0xBA7C ^ kind as u64);
        let mut ccfg = ClusterConfig::with_servers(2, 1);
        ccfg.journal = true;
        let cluster = Cluster::new(sim.handle(), ccfg);
        let cfg = DurableConfig {
            profile: ServerProfile::heavy(),
            slot_payload: 1024,
            object_slot: 1024,
            store_capacity: 1 << 20,
            log_slots: 64,
            retry: RetryPolicy {
                request_timeout: SimDuration::from_micros(300),
                max_retries: 200,
                backoff: SimDuration::from_micros(100),
                backoff_cap: SimDuration::from_micros(100),
                jitter_pct: 0,
            },
            ..DurableConfig::for_kind(kind)
        };
        let (client, server) = build_durable(&cluster, 2, 0, 0, cfg);
        let server = Rc::new(server);
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
        server.wire_recovery(&inj);
        let h = sim.handle();
        sim.block_on(async move {
            // The even keys 0, 2, …, 14 of a striped 2-shard map, at
            // their local ids 0..8. The crash lands with the batch
            // appended but mostly unprocessed (heavy profile: 100 µs
            // dispatch).
            let reqs: Vec<Request> = (0..8u64)
                .map(|local| Request::Put {
                    obj: local,
                    data: Payload::from_bytes(vec![0x40 + 2 * local as u8; VAL]),
                })
                .collect();
            let resps = client
                .call_batch(reqs)
                .await
                .unwrap_or_else(|e| panic!("{kind:?}: batch must ride out the crash: {e}"));
            assert_eq!(resps.len(), 8, "{kind:?}");
            assert!(resps.iter().all(|r| r.durable), "{kind:?}");
            h.sleep(SimDuration::from_millis(5)).await;
        });
        assert_eq!(inj.stats().node_crashes, 1, "{kind:?}");
        assert_eq!(inj.stats().restarts, 1, "{kind:?}");
        let node0 = &cluster.node(0).metrics;
        let replayed = node0.counter(Key::new("log_replayed"));
        assert!(replayed > 0, "{kind:?}: recovery replayed nothing");
        // The overlap between replayed and re-sent entries was deduped,
        // not double-applied.
        assert!(
            server.puts_deduped() > 0,
            "{kind:?}: crash-straddling batch retry never hit the dedup path"
        );
        // Exactly-once: every key holds exactly its one write.
        for local in 0..8u64 {
            assert_eq!(
                server.store().persistent_bytes(local, VAL as u64),
                vec![0x40 + 2 * local as u8; VAL],
                "{kind:?} local {local}"
            );
        }
        // The auditor flags double-applies as journal violations.
        cluster.audit_journal().assert_ok();
    }
}
