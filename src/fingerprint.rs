//! Whole-stack determinism fingerprints: one journaled run per [`Input`],
//! reduced to events processed, virtual elapsed time, and the journal
//! export's length and FNV-1a hash — and, separately, to the run's
//! latency-breakdown totals ([`trace_totals`]), which no journal record
//! carries. `examples/fingerprint.rs` prints both;
//! `tests/determinism_and_properties.rs` pins both.

use std::rc::Rc;

use crate::baselines::{build_system, SystemKind, SystemOpts};
use crate::core::{
    build_durable, build_fleet, build_replicated, CacheConfig, DurableConfig, DurableKind,
    FleetSpec, Request, RpcClient, ServerProfile, ShardMap,
};
use crate::node::{Cluster, ClusterConfig};
use crate::rnic::Payload;
use crate::simnet::{journal, Phase, Sim, SimHandle};
use crate::workloads::micro::{run_micro, MicroConfig};
use crate::workloads::txn_mix::{run_txn_mix, TxnMixConfig};

/// Every run uses this seed (the paper's conference date).
pub const SEED: u64 = 20211114;

/// One pinned run shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Input {
    /// 1:1 read/write micro-benchmark through one connection of a
    /// registry system (single puts).
    Micro(SystemKind),
    /// `call_batch` rounds of 8 puts on one durable connection; every
    /// fourth round carries a GET mid-batch, splitting the put run.
    Batch(DurableKind),
    /// The same `call_batch` rounds through one connection of a registry
    /// baseline (DaRPC and ScaleRPC, the two that override the trait's
    /// one-call-per-request default).
    BaselineBatch(SystemKind),
    /// The micro-benchmark through a 2-replica `build_replicated` group
    /// (tagged puts fanned out to both replicas).
    Replicated(DurableKind),
    /// A 2R+2W transactional mix over the clients of a 2-shard
    /// unreplicated, cache-less fleet (2PC record appends).
    Txn(DurableKind),
    /// A 95 % GET / 5 % put micro-benchmark through a 1-shard cached
    /// fleet (lease bumps on the put path, cache + mirror reads).
    Cached(DurableKind),
}

impl Input {
    /// Every pinned input: the four registry systems pinned since the
    /// executor rewrite, the other two durable kinds, each multi-entry
    /// path under all four kinds, then the remaining seven baselines and
    /// the two baseline `call_batch` overrides.
    pub fn all() -> Vec<Input> {
        let mut v: Vec<Input> = [
            SystemKind::WFlush,
            SystemKind::SRFlush,
            SystemKind::Farm,
            SystemKind::Darpc,
            SystemKind::SFlush,
            SystemKind::WRFlush,
        ]
        .map(Input::Micro)
        .to_vec();
        for shape in [Input::Batch, Input::Replicated, Input::Txn, Input::Cached] {
            v.extend(DurableKind::ALL.map(shape));
        }
        v.extend(
            [
                SystemKind::L5,
                SystemKind::Rfp,
                SystemKind::Fasst,
                SystemKind::Octopus,
                SystemKind::ScaleRpc,
                SystemKind::Herd,
                SystemKind::Lite,
            ]
            .map(Input::Micro),
        );
        v.extend([SystemKind::Darpc, SystemKind::ScaleRpc].map(Input::BaselineBatch));
        v
    }
}

/// What a run reduces to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// Executor events processed.
    pub events: u64,
    /// Virtual time the client-side workload took.
    pub elapsed_ns: u64,
    /// JSONL journal export length in bytes.
    pub journal_len: usize,
    /// FNV-1a 64 of the JSONL journal export.
    pub journal_fnv: u64,
}

/// FNV-1a 64-bit.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn durable_cfg(kind: DurableKind) -> DurableConfig {
    DurableConfig {
        kind,
        profile: ServerProfile::light(),
        slot_payload: 1024,
        object_slot: 1024,
        store_capacity: 1 << 20,
        ..Default::default()
    }
}

fn micro_cfg(ops: u64, read_ratio: f64) -> MicroConfig {
    MicroConfig {
        objects: 500,
        ops,
        object_size: 1024,
        read_ratio,
        seed: SEED,
    }
}

/// `ops / 8` `call_batch` rounds of 8 puts; every fourth round carries a
/// GET mid-batch. Returns the virtual nanoseconds the rounds took.
async fn batch_rounds(client: &dyn RpcClient, h: &SimHandle, ops: u64) -> u64 {
    let t0 = h.now();
    for round in 0..ops / 8 {
        let mut reqs: Vec<Request> = (0..8)
            .map(|i| Request::Put {
                obj: (round * 8 + i) % 500,
                data: Payload::synthetic(1024, round * 8 + i),
            })
            .collect();
        if round % 4 == 3 {
            let get = Request::Get {
                obj: round % 500,
                len: 1024,
            };
            reqs.insert(4, get);
        }
        let n = reqs.len();
        let resps = client.call_batch(reqs).await.expect("batch");
        assert_eq!(resps.len(), n);
    }
    (h.now() - t0).as_nanos()
}

/// Run `input` at `ops` operations (the pinned constants use 300) with
/// the journal on. `Micro` runs stop when the workload returns, as they
/// always have; the other shapes then drain the simulation so decoupled
/// server-side processing and background 2PC records are in the journal.
pub fn run(input: Input, ops: u64) -> Fingerprint {
    let (sim, cluster, elapsed_ns) = execute(input, ops);
    let jsonl = journal::to_jsonl(&cluster.journal_records());
    Fingerprint {
        events: sim.events_processed(),
        elapsed_ns,
        journal_len: jsonl.len(),
        journal_fnv: fnv1a(jsonl.as_bytes()),
    }
}

/// The same run as [`run`], reduced to the merged
/// `Cluster::trace_report()`: the on-path total of every phase, then the
/// off-path total of every phase, in nanoseconds and [`Phase::ALL`] order.
pub fn trace_totals(input: Input, ops: u64) -> [u64; 14] {
    let (_sim, cluster, _) = execute(input, ops);
    let report = cluster.trace_report();
    let mut totals = [0; 14];
    for (i, &p) in Phase::ALL.iter().enumerate() {
        totals[i] = report.total(p).as_nanos();
        totals[i + 7] = report.offpath_total(p).as_nanos();
    }
    totals
}

/// FNV-1a 64 over `totals` as little-endian words: what the trace pins
/// compare.
pub fn trace_fnv(totals: &[u64]) -> u64 {
    let bytes: Vec<u8> = totals.iter().flat_map(|t| t.to_le_bytes()).collect();
    fnv1a(&bytes)
}

/// Build and run `input`; returns the simulation, the cluster and the
/// virtual nanoseconds the client-side workload took.
fn execute(input: Input, ops: u64) -> (Sim, Cluster, u64) {
    let mut sim = Sim::new(SEED);
    let h = sim.handle();
    let journaled = |mut ccfg: ClusterConfig| {
        ccfg.journal = true;
        Cluster::new(h.clone(), ccfg)
    };
    let (cluster, elapsed_ns) = match input {
        Input::Micro(kind) => {
            let cluster = journaled(ClusterConfig::with_nodes(2));
            let opts = SystemOpts::for_object_size(1024, ServerProfile::light());
            let client = build_system(&cluster, kind, 1, 0, 0, &opts);
            let cfg = micro_cfg(ops, 0.5);
            let r = sim.block_on(async move { run_micro(client.as_ref(), &h, &cfg).await });
            (cluster, r.elapsed.as_nanos())
        }
        Input::Batch(kind) => {
            let cluster = journaled(ClusterConfig::with_nodes(2));
            let (client, server) = build_durable(&cluster, 1, 0, 0, durable_cfg(kind));
            server.start();
            let ns = sim.block_on(async move { batch_rounds(&client, &h, ops).await });
            sim.run();
            (cluster, ns)
        }
        Input::BaselineBatch(kind) => {
            let cluster = journaled(ClusterConfig::with_nodes(2));
            let opts = SystemOpts::for_object_size(1024, ServerProfile::light());
            let client = build_system(&cluster, kind, 1, 0, 0, &opts);
            let ns = sim.block_on(async move { batch_rounds(client.as_ref(), &h, ops).await });
            sim.run();
            (cluster, ns)
        }
        Input::Replicated(kind) => {
            let cluster = journaled(ClusterConfig::with_nodes(3));
            let (client, _group) = build_replicated(&cluster, 2, &[0, 1], durable_cfg(kind));
            let cfg = micro_cfg(ops, 0.5);
            let r = sim.block_on(async move { run_micro(&client, &h, &cfg).await });
            assert_eq!(r.failed, 0);
            sim.run();
            (cluster, r.elapsed.as_nanos())
        }
        Input::Txn(kind) => {
            let cluster = journaled(ClusterConfig::with_servers(2, 1));
            let spec = FleetSpec {
                replicas: 1,
                cache: None,
            };
            let svc = build_fleet(&cluster, ShardMap::new(2), &[2], &durable_cfg(kind), spec);
            let clients: Vec<_> = svc.clients.into_iter().map(Rc::new).collect();
            let cfg = TxnMixConfig {
                txns: ops / 4,
                objects: 500,
                seed: SEED,
                ..Default::default()
            };
            let r = sim.block_on(async move { run_txn_mix(&h, &clients, &cfg).await });
            assert!(r.committed > 0);
            sim.run();
            (cluster, r.elapsed.as_nanos())
        }
        Input::Cached(kind) => {
            let cluster = journaled(ClusterConfig::with_servers(1, 1));
            let cache = CacheConfig {
                hot_threshold: 1,
                ..Default::default()
            };
            let spec = FleetSpec {
                replicas: 1,
                cache: Some(cache),
            };
            let svc = build_fleet(&cluster, ShardMap::new(1), &[1], &durable_cfg(kind), spec);
            let client = svc.clients.into_iter().next().expect("one client");
            let cfg = micro_cfg(ops, 0.95);
            let r = sim.block_on(async move { run_micro(&client, &h, &cfg).await });
            assert_eq!(r.failed, 0);
            sim.run();
            (cluster, r.elapsed.as_nanos())
        }
    };
    (sim, cluster, elapsed_ns)
}
