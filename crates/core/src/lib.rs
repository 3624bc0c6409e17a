//! # prdma
//!
//! The core library of PRDMA-RS — a reproduction of *Hardware-Supported
//! Remote Persistence for Distributed Persistent Memory* (SC '21).
//!
//! This crate implements the paper's contribution on top of the simulated
//! substrates ([`prdma_simnet`], [`prdma_pmem`], [`prdma_rnic`],
//! [`prdma_node`]):
//!
//! * **RDMA Flush primitives** ([`flush`]): sender-initiated `WFlush` /
//!   `SFlush`, with both the paper's emulation (read-after-write; 7 µs
//!   address-lookup stall for SFlush) and the proposed native-RNIC model.
//! * **A PM redo log** ([`log`]): slotted ring with data-before-operator
//!   commit ordering, 8-byte atomic commit words, FIFO replay, and flow
//!   control.
//! * **Durable RPCs** ([`durable`]): `WFlush-RPC`, `SFlush-RPC`,
//!   `W-RFlush-RPC`, `S-RFlush-RPC` — persistence visibility decoupled
//!   from RPC processing, enabling transmission/processing overlap and
//!   crash recovery without client re-transmission.
//! * **A uniform RPC interface** ([`rpc`]) shared with the nine baseline
//!   systems in `prdma-baselines`, so experiments sweep all systems.
//! * **Durable multi-shard transactions** ([`txn`]): FaRM-style OCC plus
//!   durable 2PC whose prepare/decided records live in the PM redo logs,
//!   so in-doubt transactions resolve from the logs alone at recovery.
//!
//! ## Quickstart
//!
//! ```
//! use prdma_simnet::Sim;
//! use prdma_node::{Cluster, ClusterConfig};
//! use prdma_rnic::Payload;
//! use prdma::{build_durable, DurableConfig, DurableKind, Request, RpcClient};
//!
//! let mut sim = Sim::new(42);
//! let cluster = Cluster::new(sim.handle(), ClusterConfig::with_nodes(2));
//! // The server serves from construction; its handle is for inspection.
//! let (client, _server) = build_durable(
//!     &cluster, 1, 0, 0,
//!     DurableConfig::for_kind(DurableKind::WFlush),
//! );
//! sim.block_on(async move {
//!     let resp = client
//!         .call(Request::Put { obj: 1, data: Payload::from_bytes(b"hi".to_vec()) })
//!         .await
//!         .unwrap();
//!     assert!(resp.durable); // durable *now*, processing may still run
//! });
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod durable;
pub mod flush;
pub mod log;
pub mod replication;
pub mod rpc;
pub mod shard;
pub mod span;
pub mod store;
pub mod txn;

pub use cache::{CacheConfig, CachedClient, LeaseState};
pub use durable::{build_durable, DurableClient, DurableConfig, DurableKind, DurableServer};
pub use flush::{FlushImpl, FlushOps};
pub use log::{
    encode_entry, LogCursor, LogEntry, LogLayout, OpCode, RedoLog, RemoteLogWriter, RpcOperator,
};
pub use replication::{build_replicated, GroupView, ReplicaGroup, ReplicatedClient};
pub use rpc::{
    Request, Response, RetryPolicy, RpcBatchFuture, RpcClient, RpcError, RpcFuture, RpcResult,
    ServerProfile,
};
pub use shard::{
    build_fleet, build_replicated_sharded, build_sharded_durable_cached, Fleet, FleetSpec,
    ShardMap, ShardedClient,
};
pub use span::{build_span_trees, tail_report, Attribution, Span, SpanTree, TailEntry, TailReport};
pub use store::{MirrorRegion, ObjectStore};
pub use txn::{build_sharded_txn, AbortReason, Txn, TxnDirectory, TxnOutcome, TxnPhase, TxnState};
