//! Uniform construction of every RPC system (the four durable RPCs plus
//! the nine baselines), so experiment harnesses can sweep them.

use prdma::{
    build_durable, DurableConfig, DurableKind, FlushImpl, RpcClient, ServerProfile, ShardMap,
    ShardedClient,
};
use prdma_node::Cluster;
use prdma_simnet::trace::Role;

use crate::common::build_baseline;

/// Every RPC system in the study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemKind {
    /// L5 (RC write + poll).
    L5,
    /// RFP (write in, client fetches result by RDMA read).
    Rfp,
    /// FaSST (UD send/send, ≤ 4 KB).
    Fasst,
    /// Octopus (write-imm RPC).
    Octopus,
    /// FaRM (RC write + poll).
    Farm,
    /// ScaleRPC (warm-up/process phases).
    ScaleRpc,
    /// DaRPC (RC send/recv).
    Darpc,
    /// Herd (UC write in, UD send out) — Table 1 only.
    Herd,
    /// LITE (kernel write-imm RPC) — Table 1 only.
    Lite,
    /// S-RFlush-RPC (ours).
    SRFlush,
    /// SFlush-RPC (ours).
    SFlush,
    /// W-RFlush-RPC (ours).
    WRFlush,
    /// WFlush-RPC (ours).
    WFlush,
}

impl SystemKind {
    /// The 11 systems in the paper's evaluation figures, legend order.
    pub const PAPER_EVAL: [SystemKind; 11] = [
        SystemKind::L5,
        SystemKind::Rfp,
        SystemKind::Fasst,
        SystemKind::Octopus,
        SystemKind::Farm,
        SystemKind::ScaleRpc,
        SystemKind::Darpc,
        SystemKind::SRFlush,
        SystemKind::SFlush,
        SystemKind::WRFlush,
        SystemKind::WFlush,
    ];

    /// Display name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            SystemKind::L5 => "L5",
            SystemKind::Rfp => "RFP",
            SystemKind::Fasst => "FaSST",
            SystemKind::Octopus => "Octopus",
            SystemKind::Farm => "FaRM",
            SystemKind::ScaleRpc => "ScaleRPC",
            SystemKind::Darpc => "DaRPC",
            SystemKind::Herd => "Herd",
            SystemKind::Lite => "LITE",
            SystemKind::SRFlush => "S-RFlush-RPC",
            SystemKind::SFlush => "SFlush-RPC",
            SystemKind::WRFlush => "W-RFlush-RPC",
            SystemKind::WFlush => "WFlush-RPC",
        }
    }

    /// The matching durable kind, if any.
    pub fn durable_kind(self) -> Option<DurableKind> {
        match self {
            SystemKind::SRFlush => Some(DurableKind::SRFlush),
            SystemKind::SFlush => Some(DurableKind::SFlush),
            SystemKind::WRFlush => Some(DurableKind::WRFlush),
            SystemKind::WFlush => Some(DurableKind::WFlush),
            _ => None,
        }
    }
}

/// Knobs shared by every system's construction.
#[derive(Debug, Clone)]
pub struct SystemOpts {
    /// Server load profile.
    pub profile: ServerProfile,
    /// Flush implementation for the durable RPCs.
    pub flush_impl: FlushImpl,
    /// Object-store slot size (max object bytes).
    pub object_slot: u64,
    /// Object-store capacity in PM.
    pub store_capacity: u64,
}

impl Default for SystemOpts {
    fn default() -> Self {
        SystemOpts {
            profile: ServerProfile::light(),
            flush_impl: FlushImpl::Emulated,
            object_slot: 64 * 1024,
            store_capacity: 32 * 1024 * 1024,
        }
    }
}

impl SystemOpts {
    /// Options sized for objects of `object_bytes`.
    pub fn for_object_size(object_bytes: u64, profile: ServerProfile) -> Self {
        SystemOpts {
            profile,
            object_slot: object_bytes.max(64),
            ..Default::default()
        }
    }
}

/// Build a client endpoint for `kind` between `client_idx` and
/// `server_idx`. Durable RPC servers are started before returning.
pub fn build_system(
    cluster: &Cluster,
    kind: SystemKind,
    client_idx: usize,
    server_idx: usize,
    lane: usize,
    opts: &SystemOpts,
) -> Box<dyn RpcClient> {
    // Latency breakdown: software time on the client node is sender-side,
    // on the server node receiver-side (build_durable also sets these,
    // idempotently).
    cluster.node(client_idx).tracer().set_role(Role::Sender);
    cluster.node(server_idx).tracer().set_role(Role::Receiver);
    if let Some(dk) = kind.durable_kind() {
        let cfg = DurableConfig {
            kind: dk,
            flush_impl: opts.flush_impl,
            profile: opts.profile.clone(),
            slot_payload: opts.object_slot,
            object_slot: opts.object_slot,
            store_capacity: opts.store_capacity,
            ..Default::default()
        };
        let (client, _) = build_durable(cluster, client_idx, server_idx, lane, cfg);
        return Box::new(client);
    }
    Box::new(build_baseline(
        cluster, kind, client_idx, server_idx, lane, opts,
    ))
}

/// Build a shard-aware client for `kind`: one endpoint per shard (shard
/// `s` is served by node `s`; the cluster must have `map.shards()` server
/// nodes) behind client-side routing. Works uniformly for the durable
/// RPCs and every baseline, so scale-out sweeps compare like for like.
pub fn build_sharded_system(
    cluster: &Cluster,
    kind: SystemKind,
    map: ShardMap,
    client_idx: usize,
    lane: usize,
    opts: &SystemOpts,
) -> ShardedClient {
    assert!(
        cluster.servers() >= map.shards(),
        "cluster has {} server nodes, need {}",
        cluster.servers(),
        map.shards()
    );
    let shards = (0..map.shards())
        .map(|s| build_system(cluster, kind, client_idx, s, lane, opts))
        .collect();
    ShardedClient::new(map, shards, cluster.node(client_idx))
}
