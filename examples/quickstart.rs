//! Quickstart: a durable remote write, a power failure, and a recovery —
//! the paper's core promise in ~60 lines.
//!
//! Run: `cargo run --example quickstart`

use prdma_suite::core::{
    build_durable, DurableConfig, DurableKind, Request, RpcClient, ServerProfile,
};
use prdma_suite::node::{Cluster, ClusterConfig};
use prdma_suite::rnic::Payload;
use prdma_suite::simnet::Sim;

fn main() {
    // A deterministic two-node world: node 0 is the PM server, node 1 the
    // client. Everything below runs in virtual time.
    let mut sim = Sim::new(42);
    let cluster = Cluster::new(sim.handle(), ClusterConfig::with_nodes(2));

    // Build a WFlush-RPC connection: one-sided RDMA writes into a redo
    // log in the server's PM, flushed by the (emulated) RDMA WFlush
    // primitive.
    // Heavy-load profile: the server takes 100 us to process each RPC, so
    // the crash below lands *between* persistence and processing — the
    // window the redo log exists for.
    let cfg = DurableConfig {
        profile: ServerProfile::heavy(),
        ..DurableConfig::for_kind(DurableKind::WFlush)
    };
    let (client, server) = build_durable(&cluster, 1, 0, 0, cfg);

    let node = cluster.node(0).clone();
    let log = server.log().clone();

    sim.block_on(async move {
        // A durable put: returns as soon as the flush ACK confirms the
        // data reached the persistence domain — before the server even
        // started processing it.
        let resp = client
            .call(Request::Put {
                obj: 7,
                data: Payload::from_bytes(b"must survive power loss".to_vec()),
            })
            .await
            .expect("put failed");
        assert!(resp.durable);
        println!("put ACKed as durable at t = {}", node.rnic().handle().now());

        // Disaster strikes: power failure. RNIC SRAM, DRAM, and CPU
        // caches are lost; the persistence domain survives.
        node.crash();
        println!("server crashed (epoch {})", node.rnic().epoch());
        node.restart();

        // Recovery: scan the redo log. The entry is there, intact, and
        // can be replayed without the client re-sending anything.
        let pending = log.recover();
        println!(
            "recovered {} incomplete entr(ies) from the redo log",
            pending.len()
        );
        for e in &pending {
            println!(
                "  replaying op={:?} obj={} payload={:?}",
                e.op.opcode,
                e.op.obj_id,
                String::from_utf8_lossy(&e.payload)
            );
            assert_eq!(e.payload, b"must survive power loss");
        }
        assert_eq!(pending.len(), 1);
    });
    println!("quickstart OK");
}
