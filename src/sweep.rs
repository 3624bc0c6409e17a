//! The crash-point sweep: one runner and one per-point check for the
//! paper's claim that a flush-ACKed put survives the crash.
//!
//! A [`Point`] is `(shape, kind, fault, target node, boundary)`. The
//! boundaries of a `(shape, kind)` are the distinct record timestamps of
//! its clean run ([`boundaries`]), so a fault lands at every instant the
//! journal can tell apart. A point's seed is a pure function of the tuple
//! ([`Point::seed`]), so [`run`] replays any point byte for byte from
//! its printed tuple alone. [`Run::check`] states once what every point
//! must satisfy:
//!
//! - every ACKed put is in the owning shard's persistent PM, on every
//!   live replica;
//! - every op completes;
//! - nothing is re-sent once the struck node has recovered: every log
//!   append and RPC the client starts from then on completes
//!   (`Run::resent_after_recovery`);
//! - every transaction is applied on both shards, and none is left in
//!   doubt;
//! - the journal auditor (I1–I6) passes;
//! - the fault struck exactly once.
//!
//! [`tally`] folds a sweep's results. `tests/crash_sweep.rs` drives the
//! sweep.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use crate::core::txn::TxnOutcome;
use crate::core::{
    build_fleet, CacheConfig, DurableConfig, DurableKind, Fleet, FleetSpec, ObjectStore, Request,
    RetryPolicy, RpcClient, ServerProfile, ShardMap, ShardedClient,
};
use crate::node::{Cluster, ClusterConfig, FaultInjector, FaultStats};
use crate::rnic::Payload;
use crate::simnet::fault::{FaultKind, FaultPlan};
use crate::simnet::metrics::Key;
use crate::simnet::rng::mix64;
use crate::simnet::{journal, Sim, SimDuration, SimHandle, SimTime};

/// Bytes per put (inline, so the bytes in PM can be checked).
const VAL: u64 = 256;
/// Downtime of a `NodeCrash` or `ServiceCrash`.
pub const DOWN: SimDuration = SimDuration::from_micros(500);
/// Transactions the 2-shard unreplicated shape commits.
pub const TXNS: u64 = 12;
/// Put-then-get steps per shard stream.
const STEPS: u64 = 10;
/// First shard-local id of the transaction keys (put keys stay below).
const TXN_BASE: u64 = 16;
/// Pause between a stream's steps, so the streams span an outage.
const PACE: SimDuration = SimDuration::from_micros(25);

/// The retry policy of every crash run: fire fast, retry plenty, and
/// back off on a flat schedule so journals are pinned per seed.
pub const RETRY: RetryPolicy = RetryPolicy {
    request_timeout: SimDuration::from_micros(300),
    max_retries: 200,
    backoff: SimDuration::from_micros(100),
    backoff_cap: SimDuration::from_micros(100),
    jitter_pct: 0,
};

/// The durable configuration of every crash run: 100 µs decoupled
/// processing (heavy profile), so a crash reliably finds entries that
/// are flush-ACKed but not yet processed and recovery replays a
/// non-empty suffix.
pub fn config(kind: DurableKind) -> DurableConfig {
    DurableConfig {
        profile: ServerProfile::heavy(),
        slot_payload: 1024,
        object_slot: 1024,
        store_capacity: 1 << 20,
        log_slots: 64,
        retry: RETRY,
        ..DurableConfig::for_kind(kind)
    }
}

/// What serves the traffic. Server nodes come first; the one client
/// node follows them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Shape {
    /// One server (node 0): a `build_fleet` of 1 shard × 1 replica.
    Single,
    /// A `build_fleet` of 2 shards × 1 replica (server nodes 0 and 1),
    /// whose client also commits 2-put transactions: puts and
    /// transaction records share each shard's connection.
    Sharded,
    /// 2 shards × 2 replicas: each server node hosts one shard's primary
    /// and the other's backup.
    Replicated,
    /// 2 shards × 2 replicas behind the lease cache.
    Cached,
}

impl Shape {
    /// Every shape, 1:1 first.
    pub const ALL: [Shape; 4] = [
        Shape::Single,
        Shape::Sharded,
        Shape::Replicated,
        Shape::Cached,
    ];

    /// Server nodes, which are the fault targets.
    fn servers(self) -> usize {
        match self {
            Shape::Single => 1,
            _ => 2,
        }
    }

    fn spec(self) -> FleetSpec {
        let (replicas, cache) = match self {
            Shape::Single | Shape::Sharded => (1, None),
            Shape::Replicated => (2, None),
            Shape::Cached => {
                let cache = CacheConfig {
                    hot_threshold: 1,
                    ..Default::default()
                };
                (2, Some(cache))
            }
        };
        FleetSpec { replicas, cache }
    }
}

/// The fault a point injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Fault {
    /// None: the clean run the boundaries come from.
    Clean,
    /// Power loss; the node restarts after [`DOWN`].
    NodeCrash,
    /// The service stops for [`DOWN`]; NIC and PM keep absorbing appends.
    ServiceCrash,
    /// The NIC drops its staging SRAM and in-flight DMA.
    SramLoss,
    /// 300 µs of 30 % ingress loss: the one fault whose effect depends
    /// on the seed.
    LossBurst,
}

impl Fault {
    /// The faults swept at every boundary.
    pub const SWEPT: [Fault; 3] = [Fault::NodeCrash, Fault::ServiceCrash, Fault::SramLoss];

    fn kind(self) -> Option<FaultKind> {
        Some(match self {
            Fault::Clean => return None,
            Fault::NodeCrash => FaultKind::NodeCrash { down_for: DOWN },
            Fault::ServiceCrash => FaultKind::ServiceCrash { down_for: DOWN },
            Fault::SramLoss => FaultKind::SramLoss,
            Fault::LossBurst => FaultKind::LossBurst {
                rate: 0.3,
                duration: SimDuration::from_micros(300),
            },
        })
    }

    /// What the injector counts once this fault has struck and recovered.
    fn stats(self) -> FaultStats {
        let is = |f| (self == f) as u64;
        FaultStats {
            node_crashes: is(Fault::NodeCrash),
            service_crashes: is(Fault::ServiceCrash),
            sram_losses: is(Fault::SramLoss),
            loss_bursts: is(Fault::LossBurst),
            restarts: is(Fault::NodeCrash) + is(Fault::ServiceCrash) + is(Fault::SramLoss),
            ..Default::default()
        }
    }
}

/// One crash point: `fault` strikes server node `node` at `at_ns`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Point {
    pub shape: Shape,
    pub kind: DurableKind,
    pub fault: Fault,
    pub node: usize,
    pub at_ns: u64,
}

impl Point {
    /// The clean run of `(shape, kind)`.
    fn clean(shape: Shape, kind: DurableKind) -> Point {
        Point {
            shape,
            kind,
            fault: Fault::Clean,
            node: 0,
            at_ns: 0,
        }
    }

    /// The point's simulation seed, a pure function of the tuple.
    pub fn seed(&self) -> u64 {
        let fields = [
            self.shape as u64,
            self.kind as u64,
            self.fault as u64,
            self.node as u64,
            self.at_ns,
        ];
        fields
            .into_iter()
            .fold(crate::fingerprint::SEED, |h, x| mix64(h ^ x))
    }

    fn plan(&self) -> FaultPlan {
        let plan = FaultPlan::new();
        match self.fault.kind() {
            Some(kind) => plan.at(SimTime::from_nanos(self.at_ns), self.node, kind),
            None => plan,
        }
    }
}

/// The distinct record timestamps of `(shape, kind)`'s clean run, in
/// order: the instants a fault is swept over.
pub fn boundaries(shape: Shape, kind: DurableKind) -> Vec<u64> {
    let run = run(Point::clean(shape, kind));
    let mut ts: Vec<u64> = run
        .cluster
        .journal_records()
        .iter()
        .map(|r| r.ts_ns)
        .collect();
    ts.dedup();
    ts
}

/// Every point of `(shape, kind, fault)`: each server node at each of
/// `boundaries`.
pub fn points(shape: Shape, kind: DurableKind, fault: Fault, boundaries: &[u64]) -> Vec<Point> {
    let at = |node| {
        boundaries.iter().map(move |&at_ns| Point {
            shape,
            kind,
            fault,
            node,
            at_ns,
        })
    };
    (0..shape.servers()).flat_map(at).collect()
}

/// What a client op was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// A put of `obj`'s tagged bytes.
    Put,
    /// A get of `obj`, which its stream put first.
    Get,
    /// A transaction writing `obj` (shard 0) and `obj + 1` (shard 1).
    Txn,
}

/// One completed client op.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub what: OpKind,
    /// Global object id.
    pub obj: u64,
    /// ACKed (put), `VAL` bytes returned (get) or committed (txn).
    pub ok: bool,
    /// Virtual time the op returned.
    pub done_ns: u64,
}

/// A finished point: the world it ran in and what its client saw.
pub struct Run {
    pub point: Point,
    seed: u64,
    /// Kept alive: dropping the `Sim` frees its world.
    _sim: Sim,
    pub cluster: Cluster,
    fleet: Fleet,
    inj: FaultInjector,
    /// Every client op, in completion order.
    pub ops: Vec<Op>,
}

/// Run `point` under its own seed.
pub fn run(point: Point) -> Run {
    run_seeded(point, point.seed())
}

/// Run `point` under `seed`: one put-then-get stream per shard, paced to
/// span an outage, plus a stream of [`TXNS`] 2-put transactions through
/// the same client on [`Shape::Sharded`]; then drain the simulation.
pub fn run_seeded(point: Point, seed: u64) -> Run {
    let mut sim = Sim::new(seed);
    let h = sim.handle();
    let shards = point.shape.servers();
    let mut ccfg = ClusterConfig::with_servers(shards, 1);
    ccfg.journal = true;
    let cluster = Cluster::new(h.clone(), ccfg);
    let cfg = config(point.kind);
    let inj = cluster.inject_faults(point.plan());
    let map = ShardMap::new(shards);
    let mut fleet = build_fleet(&cluster, map, &[shards], &cfg, point.shape.spec());
    fleet.wire_recovery(&inj);
    let client = Rc::new(fleet.clients.pop().expect("a client"));
    let ops = Rc::new(Ops(h.clone(), RefCell::default()));
    let put_stream = |s| {
        h.spawn(stream(
            Rc::clone(&client) as Rc<dyn RpcClient>,
            Rc::clone(&ops),
            shards as u64,
            s,
        ))
    };
    let mut streams: Vec<_> = (0..shards as u64).map(put_stream).collect();
    if point.shape == Shape::Sharded {
        streams.push(h.spawn(txn_stream(client, Rc::clone(&ops))));
    }
    sim.block_on(async move {
        for s in streams {
            s.await;
        }
    });
    sim.run();
    let ops = ops.1.take();
    Run {
        point,
        seed,
        _sim: sim,
        cluster,
        fleet,
        inj,
        ops,
    }
}

fn tagged(obj: u64) -> Payload {
    Payload::from_bytes(vec![obj as u8 + 1; VAL as usize])
}

/// The client ops of a run, stamped with the virtual time they return.
struct Ops(SimHandle, RefCell<Vec<Op>>);

impl Ops {
    fn record(&self, what: OpKind, obj: u64, ok: bool) {
        let done_ns = self.0.now().as_nanos();
        let op = Op {
            what,
            obj,
            ok,
            done_ns,
        };
        self.1.borrow_mut().push(op);
    }
}

/// Shard `s`'s stream: put the shard's next key, then read its first.
async fn stream(client: Rc<dyn RpcClient>, ops: Rc<Ops>, shards: u64, s: u64) {
    for i in 0..STEPS {
        let obj = shards * i + s;
        let data = tagged(obj);
        let ok = client.call(Request::Put { obj, data }).await.is_ok();
        ops.record(OpKind::Put, obj, ok);
        let got = client.call(Request::Get { obj: s, len: VAL }).await;
        let ok = got.is_ok_and(|r| r.payload.is_some_and(|p| p.len() == VAL));
        ops.record(OpKind::Get, s, ok);
        ops.0.sleep(PACE).await;
    }
}

/// [`TXNS`] transactions, each writing one fresh key on either shard.
async fn txn_stream(client: Rc<ShardedClient>, ops: Rc<Ops>) {
    for i in 0..TXNS {
        let obj = 2 * (TXN_BASE + i);
        let mut t = client.begin();
        t.put(obj, &tagged(obj));
        t.put(obj + 1, &tagged(obj + 1));
        let ok = client.commit(t).await == Ok(TxnOutcome::Committed);
        ops.record(OpKind::Txn, obj, ok);
        ops.0.sleep(PACE).await;
    }
}

impl Run {
    /// The fleet that served the run.
    pub fn fleet(&self) -> &Fleet {
        &self.fleet
    }

    /// `(shard, shard-local id)` of global object `obj`.
    pub fn route(&self, obj: u64) -> (usize, u64) {
        ShardMap::new(self.point.shape.servers()).route(obj)
    }

    /// Whether `op` returned while the faulted node was down.
    pub fn in_outage(&self, op: &Op) -> bool {
        (self.point.at_ns..self.point.at_ns + DOWN.as_nanos()).contains(&op.done_ns)
    }

    /// Log entries node `node`'s recoveries re-enqueued.
    pub fn replayed(&self, node: usize) -> u64 {
        self.cluster
            .node(node)
            .metrics
            .counter(Key::new("log_replayed"))
    }

    /// The journal as JSONL.
    pub fn jsonl(&self) -> String {
        journal::to_jsonl(&self.cluster.journal_records())
    }

    /// The stores of `shard` on replicas the client sees live.
    fn live_stores(&self, shard: usize) -> Vec<&ObjectStore> {
        let fleet = &self.fleet;
        let Some(group) = fleet.groups[shard].first() else {
            return vec![fleet.servers[shard][0].store()];
        };
        let view = group.view();
        let live = group
            .servers
            .iter()
            .enumerate()
            .filter(|&(slot, _)| view.is_up(slot));
        live.map(|(_, s)| s.store()).collect()
    }

    /// The rpc id (the lowest) of a client attempt that started at or after
    /// the struck node's recovery point (its restart record, or its
    /// `SramLoss`, whose NIC reset runs at once) and never completed: it
    /// was given up on and its op re-sent with no fault on its path. An
    /// attempt starts at its `LogAppend`, or at its `RpcDispatch` if it
    /// appends nothing, and completes at its `RpcComplete` (DESIGN.md §10).
    fn resent_after_recovery(&self, records: &[journal::Record]) -> Option<u64> {
        use journal::EventKind::*;
        let (node, client) = (self.point.node as u32, self.point.shape.servers() as u32);
        let recovery = [NodeRestart, ServiceRestart, SramLoss];
        let recovered = records
            .iter()
            .find(|r| r.node == node && recovery.contains(&r.kind));
        let from = recovered?.ts_ns;
        // Open attempts by start time. A log index a crash rewound starts
        // a new attempt when it is appended again.
        let mut open = BTreeMap::new();
        for r in records.iter().filter(|r| r.node == client) {
            let _ = match r.kind {
                LogAppend => open.insert(r.rpc_id, r.ts_ns),
                RpcDispatch => Some(*open.entry(r.rpc_id).or_insert(r.ts_ns)),
                RpcComplete => open.remove(&r.rpc_id),
                _ => None,
            };
        }
        open.into_iter()
            .find(|&(_, started)| started >= from)
            .map(|(id, _)| id)
    }

    /// The per-point check (module docs). The error names the point and
    /// how to replay it.
    pub fn check(&self) -> Result<(), String> {
        let p = self.point;
        let fail = |what: String| {
            Err(format!(
                "{p:?} (seed {:#x}): {what} — replay with sweep::run({p:?})",
                self.seed
            ))
        };
        let records = self.cluster.journal_records();
        let report = journal::audit(&records);
        if !report.ok() {
            return fail(format!("audit failed: {report}"));
        }
        if self.inj.stats() != p.fault.stats() {
            return fail(format!("fault stats {:?}", self.inj.stats()));
        }
        for op in self.ops.iter().filter(|op| op.ok) {
            let keys = match op.what {
                OpKind::Get => 0..0,
                OpKind::Put => op.obj..op.obj + 1,
                OpKind::Txn => op.obj..op.obj + 2,
            };
            for obj in keys {
                let (shard, local) = self.route(obj);
                let want = vec![obj as u8 + 1; VAL as usize];
                if let Some(r) = self
                    .live_stores(shard)
                    .iter()
                    .position(|s| s.persistent_bytes(local, VAL) != want)
                {
                    return fail(format!("ACKed {:?} of obj {obj} is not in shard {shard}'s persistent PM (live replica {r})", op.what));
                }
            }
        }
        if let Some(first) = self.ops.iter().find(|op| !op.ok) {
            let failed = self.ops.iter().filter(|op| !op.ok).count();
            return fail(format!("{failed} ops failed, first {first:?}"));
        }
        if let Some(rpc) = self.resent_after_recovery(&records) {
            return fail(format!("rpc {rpc:#x}, started after recovery, was re-sent"));
        }
        let committed = self.ops.iter().filter(|op| op.what == OpKind::Txn).count() as u64;
        for (shard, state) in self.fleet.states.iter().enumerate() {
            let (doubt, applied) = (self.fleet.in_doubt(shard), state.applied_txns());
            if doubt > 0 || applied < committed {
                return fail(format!(
                    "shard {shard}: {doubt} txns in doubt, {applied} applied of {committed} committed"
                ));
            }
        }
        Ok(())
    }
}

/// Fold per-point [`Run::check`] results into points per `(shape,
/// fault)`. Fails on the first failing point.
pub fn tally(
    results: impl IntoIterator<Item = (Point, Result<(), String>)>,
) -> Result<BTreeMap<(Shape, Fault), usize>, String> {
    let mut points = BTreeMap::new();
    for (p, result) in results {
        result?;
        *points.entry((p.shape, p.fault)).or_default() += 1;
    }
    Ok(points)
}
