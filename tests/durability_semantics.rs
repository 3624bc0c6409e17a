//! Cross-crate durability semantics: the paper's correctness claims,
//! exercised end to end through simnet + pmem + rnic + node + core.

use prdma_suite::core::{
    build_durable, DurableConfig, DurableKind, Request, RpcClient, ServerProfile,
};
use prdma_suite::node::{Cluster, ClusterConfig};
use prdma_suite::rnic::Payload;
use prdma_suite::simnet::Sim;

fn heavy_setup(
    sim: &Sim,
    kind: DurableKind,
) -> (
    prdma_suite::core::DurableClient,
    prdma_suite::core::DurableServer,
    Cluster,
) {
    let cluster = Cluster::new(sim.handle(), ClusterConfig::with_nodes(2));
    let cfg = DurableConfig {
        kind,
        profile: ServerProfile::heavy(),
        slot_payload: 4096,
        object_slot: 4096,
        store_capacity: 1 << 20,
        log_slots: 64,
        // Exact recovery sets in assertions: persist the head eagerly.
        head_persist_interval: 1,
        ..Default::default()
    };
    let (c, s) = build_durable(&cluster, 1, 0, 0, cfg);
    (c, s, cluster)
}

/// ACKed data survives a crash, for every durable RPC variant.
#[test]
fn acked_put_survives_crash_all_kinds() {
    for kind in DurableKind::ALL {
        let mut sim = Sim::new(101);
        let (client, server, cluster) = heavy_setup(&sim, kind);
        let node = cluster.node(0).clone();
        let log = server.log().clone();
        sim.block_on(async move {
            for i in 0..5u64 {
                let resp = client
                    .call(Request::Put {
                        obj: i,
                        data: Payload::from_bytes(vec![i as u8 + 1; 100]),
                    })
                    .await
                    .unwrap();
                assert!(resp.durable, "{kind:?}");
            }
            node.crash();
            node.restart();
        });
        let pending = log.recover();
        // Heavy load (100us/op): at most a few could have been processed;
        // everything ACKed must be either done or recovered intact.
        for e in &pending {
            assert_eq!(
                e.payload,
                vec![e.op.obj_id as u8 + 1; 100],
                "{kind:?}: corrupted entry"
            );
        }
        let done = 5 - pending.len();
        assert!(
            done + pending.len() == 5,
            "{kind:?}: lost entries ({done} done, {} pending)",
            pending.len()
        );
        assert!(
            !pending.is_empty(),
            "{kind:?}: expected unprocessed entries under heavy load"
        );
    }
}

/// FIFO recovery order (the paper's ordering guarantee for concurrency).
#[test]
fn recovery_preserves_fifo_order() {
    let mut sim = Sim::new(202);
    let (client, server, cluster) = heavy_setup(&sim, DurableKind::WFlush);
    let node = cluster.node(0).clone();
    let log = server.log().clone();
    sim.block_on(async move {
        for i in 0..8u64 {
            client
                .call(Request::Put {
                    obj: 100 + i,
                    data: Payload::from_bytes(vec![i as u8; 64]),
                })
                .await
                .unwrap();
        }
        node.crash();
        node.restart();
    });
    let pending = log.recover();
    let objs: Vec<u64> = pending.iter().map(|e| e.op.obj_id).collect();
    let mut sorted = objs.clone();
    sorted.sort_unstable();
    assert_eq!(objs, sorted, "recovery must be FIFO");
    // And they must be a suffix of the issued sequence.
    if let Some(&first) = objs.first() {
        let expect: Vec<u64> = (first..108).collect();
        assert_eq!(objs, expect, "recovered set must be a contiguous suffix");
    }
}

/// Replaying recovered entries yields the same final store state as an
/// uninterrupted run.
#[test]
fn replay_converges_to_uninterrupted_state() {
    // Uninterrupted reference run.
    let reference: Vec<Vec<u8>> = {
        let mut sim = Sim::new(303);
        let (client, server, _cluster) = heavy_setup(&sim, DurableKind::WFlush);
        let store = server.store().clone();
        sim.block_on(async move {
            for i in 0..6u64 {
                client
                    .call(Request::Put {
                        obj: i,
                        data: Payload::from_bytes(vec![0x40 + i as u8; 128]),
                    })
                    .await
                    .unwrap();
            }
        });
        sim.run(); // drain processing
        (0..6).map(|i| store.persistent_bytes(i, 128)).collect()
    };

    // Crashed run + replay.
    let replayed: Vec<Vec<u8>> = {
        let mut sim = Sim::new(303);
        let (client, server, cluster) = heavy_setup(&sim, DurableKind::WFlush);
        let node = cluster.node(0).clone();
        let store = server.store().clone();
        let store2 = store.clone();
        let log = server.log().clone();
        sim.block_on(async move {
            for i in 0..6u64 {
                client
                    .call(Request::Put {
                        obj: i,
                        data: Payload::from_bytes(vec![0x40 + i as u8; 128]),
                    })
                    .await
                    .unwrap();
            }
            node.crash();
            node.restart();
            // Server-side replay: apply every pending entry.
            for e in log.recover() {
                store2
                    .put(e.op.obj_id, &Payload::from_bytes(e.payload.clone()))
                    .await
                    .unwrap();
                log.mark_done(e.index).await.unwrap();
            }
        });
        (0..6).map(|i| store.persistent_bytes(i, 128)).collect()
    };

    assert_eq!(reference, replayed);
}

/// A second crash during replay still recovers (idempotent replay).
#[test]
fn double_crash_recovery_is_idempotent() {
    let mut sim = Sim::new(404);
    let (client, server, cluster) = heavy_setup(&sim, DurableKind::WFlush);
    let node = cluster.node(0).clone();
    let log = server.log().clone();
    let store = server.store().clone();
    sim.block_on(async move {
        for i in 0..4u64 {
            client
                .call(Request::Put {
                    obj: i,
                    data: Payload::from_bytes(vec![7; 64]),
                })
                .await
                .unwrap();
        }
        node.crash();
        node.restart();
        let first = log.recover();
        assert!(!first.is_empty());
        // Replay one entry, then crash again before the rest.
        let e = &first[0];
        store
            .put(e.op.obj_id, &Payload::from_bytes(e.payload.clone()))
            .await
            .unwrap();
        log.mark_done(e.index).await.unwrap();
        node.crash();
        node.restart();
        let second = log.recover();
        // The completed entry must not reappear.
        assert!(second.iter().all(|x| x.index != e.index));
        assert_eq!(second.len(), first.len() - 1);
    });
}

/// The decoupling property measured end to end: durable puts are
/// visible-as-persistent long before processing finishes, across kinds.
#[test]
fn persistence_visible_before_processing_all_kinds() {
    for kind in DurableKind::ALL {
        let mut sim = Sim::new(505);
        let (client, server, _cluster) = heavy_setup(&sim, kind);
        let h = sim.handle();
        let t_ack = sim.block_on(async move {
            client
                .call(Request::Put {
                    obj: 0,
                    data: Payload::synthetic(4096, 0),
                })
                .await
                .unwrap();
            h.now()
        });
        assert!(
            t_ack.as_nanos() < 100_000,
            "{kind:?}: persistence ACK at {t_ack} not decoupled from 100us processing"
        );
        assert_eq!(server.puts_processed(), 0, "{kind:?}");
        sim.run();
        assert_eq!(server.puts_processed(), 1, "{kind:?}");
    }
}
