//! Primary–backup replicated shard groups (paper Section 4.5, "Data
//! Persistence with Multiple Replicas").
//!
//! The paper notes that its point-to-point Flush primitives are the
//! foundation replication protocols need: a put is replication-durable
//! once **every** replica's flush has ACKed. This module implements that
//! as a primary–backup group: a [`ReplicatedClient`] fans each `Put` out
//! to every live replica's PM over its own durable RPC connection and
//! ACKs once all of them have persisted (journaled as `ReplAck`, checked
//! by auditor invariant I4); reads are served by the current primary.
//! Because the underlying durable RPCs decouple persistence from
//! processing, the replication critical path is just the slowest flush
//! ACK — no replica CPU waits.
//!
//! **Failover.** The group tracks a promotion epoch. When the primary
//! crashes — detected instantly via [`FaultInjector::on_fault`] when
//! wired with [`ReplicaGroup::wire_recovery`], or lazily when a put/read
//! sub-call errors out — the next live backup is promoted (`Promote`
//! journal record, epoch bump) and traffic continues against the
//! survivors instead of riding out the downtime. Puts ACKed while a
//! replica is down are tracked and re-sent to it when it rejoins (as a
//! backup: promotion is permanent), alongside the redo-log replay the
//! recovery hooks already perform.
//!
//! **Exactly-once apply.** Every replicated put carries a causal put id
//! (logged as [`OpCode::RPut`](crate::log::OpCode::RPut)); a retry after
//! a *partial* replication failure re-sends only to replicas that have
//! not ACKed, and even a re-append on an already-ACKed replica is
//! deduplicated at apply time by id.

use std::cell::{Cell, OnceCell, RefCell};
use std::rc::Rc;

use prdma_node::{Cluster, FaultInjector, Node};
use prdma_rnic::Payload;
use prdma_simnet::fault::FaultKind;
use prdma_simnet::journal::ids::{self, Ids};
use prdma_simnet::journal::{EventKind, Subsystem, NO_ID};
use prdma_simnet::metrics::{Counter, Key, Window};
use prdma_simnet::rng::SmallRng;
use prdma_simnet::{JoinHandle, SimHandle};

use crate::durable::{
    build_connection, DurableClient, DurableConfig, DurableKind, DurableServer, ShardTables,
};
use crate::rpc::{Request, Response, RetryPolicy, RpcClient, RpcError, RpcFuture, RpcResult};

/// Most replicas a group may have: replica sets are `u64` bitmasks.
const MAX_REPLICAS: usize = 64;

/// The slots of bitmask `mask`, ascending.
fn slots(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let slot = (mask != 0).then(|| mask.trailing_zeros() as usize)?;
        mask &= mask - 1;
        Some(slot)
    })
}

/// A put ACKed while a replica was down, owed to it at rejoin.
struct MissedPut {
    obj: u64,
    data: Payload,
    id: u64,
}

/// Shared promotion/membership state of one replica group.
struct GroupState {
    /// Member node indices, by replica slot.
    nodes: Vec<usize>,
    /// Current primary's replica slot.
    primary: Cell<usize>,
    /// Promotion epoch: bumped on every primary change.
    epoch: Cell<u64>,
    /// Liveness marks, bit per replica slot (client-observed, not oracle).
    up: Cell<u64>,
    /// Puts owed to each down replica, delivered at rejoin.
    missed: RefCell<Vec<Vec<MissedPut>>>,
    /// Next causal put id counter.
    next_put: Cell<u64>,
    /// The group's put ids ([`ids::replicated_puts`]).
    ids: Ids,
    /// Client node, for journaling group events.
    client: Node,
}

impl GroupState {
    fn new(nodes: Vec<usize>, group_tag: u64, client: Node) -> Rc<Self> {
        let n = nodes.len();
        assert!(
            (1..=MAX_REPLICAS).contains(&n),
            "a group has 1 to {MAX_REPLICAS} replicas, not {n}"
        );
        Rc::new(GroupState {
            nodes,
            primary: Cell::new(0),
            epoch: Cell::new(0),
            up: Cell::new(u64::MAX >> (MAX_REPLICAS - n)),
            missed: RefCell::new((0..n).map(|_| Vec::new()).collect()),
            next_put: Cell::new(0),
            ids: ids::replicated_puts(group_tag),
            client,
        })
    }

    /// Every replica slot, as a bitmask.
    fn all(&self) -> u64 {
        u64::MAX >> (MAX_REPLICAS - self.nodes.len())
    }

    fn is_up(&self, slot: usize) -> bool {
        self.up.get() >> slot & 1 == 1
    }

    fn alloc_put_id(&self) -> u64 {
        let c = self.next_put.get();
        self.next_put.set(c + 1);
        self.ids.id(c)
    }

    fn jot(&self, kind: EventKind, rpc_id: u64, wr_id: u64, bytes: u64) {
        let j = &self.client.journal;
        j.record(Subsystem::Rpc, kind, rpc_id, wr_id, bytes);
    }

    /// Mark `slot` down; if it was the primary, promote the next live
    /// backup (cyclic scan — deterministic) and bump the epoch.
    fn mark_down(&self, slot: usize) {
        if !self.is_up(slot) {
            return;
        }
        self.up.set(self.up.get() & !(1 << slot));
        if self.primary.get() == slot {
            self.promote();
        }
    }

    /// Rejoin `slot` as a backup. Promotion is permanent: a recovered
    /// ex-primary does not reclaim the role, avoiding a second traffic
    /// disruption.
    fn mark_up(&self, slot: usize) {
        self.up.set(self.up.get() | 1 << slot);
    }

    fn promote(&self) {
        let n = self.nodes.len();
        let cur = self.primary.get();
        let Some(next) = (1..n).map(|d| (cur + d) % n).find(|&s| self.is_up(s)) else {
            // No live backup: leave the primary in place; puts fall back
            // to re-probing every replica until one rejoins.
            return;
        };
        self.primary.set(next);
        let epoch = self.epoch.get() + 1;
        self.epoch.set(epoch);
        self.jot(EventKind::Promote, NO_ID, epoch, self.nodes[next] as u64);
        let m = &self.client.metrics;
        m.incr(Key::new("failovers"), 1);
        m.gauge_set(Key::new("promotion_epoch"), epoch as i64);
    }

    fn push_missed(&self, slot: usize, obj: u64, data: Payload, id: u64) {
        self.missed.borrow_mut()[slot].push(MissedPut { obj, data, id });
        self.client.metrics.incr(Key::new("missed_puts"), 1);
    }

    fn drain_missed(&self, slot: usize) -> Vec<MissedPut> {
        std::mem::take(&mut self.missed.borrow_mut()[slot])
    }
}

/// Read-only view of a replica group's promotion state, used by sharded
/// routing to expose which epoch/primary each shard is on.
#[derive(Clone)]
pub struct GroupView {
    state: Rc<GroupState>,
}

impl GroupView {
    /// Current promotion epoch (0 until the first failover).
    pub fn epoch(&self) -> u64 {
        self.state.epoch.get()
    }

    /// Current primary's node index.
    pub fn primary_node(&self) -> usize {
        self.state.nodes[self.state.primary.get()]
    }

    /// Whether replica `slot` is currently marked live.
    pub fn is_up(&self, slot: usize) -> bool {
        self.state.is_up(slot)
    }
}

/// Outcome of one replica's durable sub-put within a fan-out round.
pub struct ReplicaOutcome {
    /// Replica slot within the group.
    pub replica: usize,
    /// The replica's node index.
    pub node: usize,
    /// The sub-put's result.
    pub result: RpcResult<()>,
}

/// A client replicating durable puts to a primary–backup group.
pub struct ReplicatedClient {
    kind: DurableKind,
    replicas: Vec<Rc<DurableClient>>,
    state: Rc<GroupState>,
    handle: SimHandle,
    /// Outer ride-out policy (per-round backoff and round budget); the
    /// per-replica sub-clients carry a short probe policy instead, so one
    /// crashed replica never stalls the whole fan-out for the full ride.
    retry: RetryPolicy,
    /// Per-client jitter stream for round backoff (see
    /// [`DurableClient`]'s `retry_rng`): drawn only when a round actually
    /// backs off, so healthy schedules stay byte-identical.
    retry_rng: RefCell<SmallRng>,
    /// `repl_puts` / `repl_put_latency_ns` on the client node, resolved
    /// once, by the first replicated put: resolving a window allocates
    /// its histogram, which would otherwise land in fleet set-up.
    metrics: OnceCell<(Counter, Window)>,
}

/// The server side of a replica group: per-replica durable servers plus
/// the failover wiring. Clones share the group.
#[derive(Clone)]
pub struct ReplicaGroup {
    /// The started per-replica servers, by replica slot.
    pub servers: Vec<Rc<DurableServer>>,
    replicas: Vec<Rc<DurableClient>>,
    state: Rc<GroupState>,
    handle: SimHandle,
}

/// Build a primary–backup replicated connection: the client at
/// `client_idx` connects to every server in `server_idxs` (slot 0 starts
/// as primary); all servers run the same durable RPC configuration and
/// serve from construction. Returns the client and the group handle
/// (servers + failover wiring).
pub fn build_replicated(
    cluster: &Cluster,
    client_idx: usize,
    server_idxs: &[usize],
    cfg: DurableConfig,
) -> (ReplicatedClient, ReplicaGroup) {
    build_replicated_group(
        cluster,
        client_idx,
        server_idxs,
        &cfg,
        0,
        client_idx as u64,
        ShardTables::PLAIN,
    )
}

/// Group builder shared with the sharded topology: `lane_base` offsets
/// the per-replica connection lanes, `group_tag` namespaces the causal
/// put ids. Every replica's connection gets `tables`: with a lease
/// table, durable puts revoke client caches before their flush ACK.
pub(crate) fn build_replicated_group(
    cluster: &Cluster,
    client_idx: usize,
    server_idxs: &[usize],
    cfg: &DurableConfig,
    lane_base: usize,
    group_tag: u64,
    tables: ShardTables,
) -> (ReplicatedClient, ReplicaGroup) {
    assert!(!server_idxs.is_empty(), "need at least one replica");
    let mut sub_cfg = cfg.clone();
    // Probe policy: one quick retry per round; the ReplicatedClient's
    // outer loop owns the ride-out budget.
    sub_cfg.retry = RetryPolicy {
        request_timeout: cfg.retry.request_timeout,
        max_retries: 1,
        ..cfg.retry
    };
    let mut replicas = Vec::with_capacity(server_idxs.len());
    let mut servers = Vec::with_capacity(server_idxs.len());
    for (slot, &s) in server_idxs.iter().enumerate() {
        let (sub, tables) = (sub_cfg.clone(), tables.clone());
        let (c, srv) = build_connection(cluster, client_idx, s, lane_base + slot, sub, tables);
        replicas.push(Rc::new(c));
        servers.push(Rc::new(srv));
    }
    let state = GroupState::new(
        server_idxs.to_vec(),
        group_tag,
        cluster.node(client_idx).clone(),
    );
    let client = ReplicatedClient {
        kind: cfg.kind,
        replicas: replicas.clone(),
        state: Rc::clone(&state),
        handle: cluster.handle().clone(),
        retry: cfg.retry,
        retry_rng: RefCell::new(RetryPolicy::jitter_rng(
            client_idx as u64 ^ 0x5265706c, // distinct domain from sub-clients
            lane_base as u64,
        )),
        metrics: OnceCell::new(),
    };
    let group = ReplicaGroup {
        servers,
        replicas,
        state,
        handle: cluster.handle().clone(),
    };
    (client, group)
}

impl ReplicaGroup {
    /// This group's promotion-state view.
    pub fn view(&self) -> GroupView {
        GroupView {
            state: Rc::clone(&self.state),
        }
    }

    /// Recovery of every member hosted on `node` from `kind` — what the
    /// wired hook runs, and what a caller that crashed the node by hand
    /// calls after restarting it: the member's redo log is replayed as
    /// [`DurableServer::recover`] decides, the slot rejoins as a backup,
    /// and the puts it missed while down are re-sent in the background
    /// under their original causal ids. A recovery point that replays
    /// nothing (an SRAM-loss reset) still rejoins the member: the client
    /// may have marked it down over the sub-put the reset aborted.
    /// Returns the entries re-enqueued.
    pub fn recover(&self, node: usize, kind: FaultKind) -> usize {
        let mut replayed = 0;
        for (slot, &n) in self.state.nodes.iter().enumerate() {
            if n != node {
                continue;
            }
            replayed += self.servers[slot].recover(kind);
            self.state.mark_up(slot);
            let missed = self.state.drain_missed(slot);
            if !missed.is_empty() {
                // Catch-up runs off the critical path; the original
                // ids make it idempotent against any concurrent
                // client retry.
                let client = Rc::clone(&self.replicas[slot]);
                self.handle.spawn(async move {
                    for m in missed {
                        let _ = client.put_tagged(m.obj, m.data, m.id).await;
                    }
                });
            }
        }
        replayed
    }

    /// Wire failover and recovery into the fault injector:
    ///
    /// - **at crash time** (`on_fault`): a member's `NodeCrash` or
    ///   `ServiceCrash` marks its slot down; if it was the primary, the
    ///   next live backup is promoted immediately — traffic fails over
    ///   with near-zero downtime instead of waiting for replay;
    /// - **at every recovery point** (`on_recovery`):
    ///   [`recover`](ReplicaGroup::recover) — replay, rejoin, catch-up.
    pub fn wire_recovery(&self, inj: &FaultInjector) {
        let state = Rc::clone(&self.state);
        inj.on_fault(move |node, _kind| {
            for (slot, &n) in state.nodes.iter().enumerate() {
                if n == node {
                    state.mark_down(slot);
                }
            }
        });
        let group = self.clone();
        inj.on_recovery(move |node, kind| {
            group.recover(node, kind);
        });
    }
}

impl ReplicatedClient {
    /// This client's promotion-state view.
    pub fn view(&self) -> GroupView {
        GroupView {
            state: Rc::clone(&self.state),
        }
    }

    /// One fan-out round of `put_tagged(obj, data, id)` to every replica
    /// slot in `targets` (a bitmask), spawned concurrently and **all
    /// joined**, both in ascending slot order — no outcome is abandoned,
    /// so when this returns no spawned leg is still mutating a store. A
    /// failed leg marks its replica down (promoting if it was the
    /// primary); `done` then sees the outcome.
    async fn fan_out(
        &self,
        obj: u64,
        data: &Payload,
        id: u64,
        targets: u64,
        mut done: impl FnMut(usize, RpcResult<()>),
    ) {
        let mut joins: [Option<JoinHandle<RpcResult<()>>>; MAX_REPLICAS] =
            [const { None }; MAX_REPLICAS];
        for slot in slots(targets) {
            let (replica, data) = (Rc::clone(&self.replicas[slot]), data.clone());
            let leg = async move { replica.put_tagged(obj, data, id).await.map(|_| ()) };
            joins[slot] = Some(self.handle.spawn(leg));
        }
        for slot in slots(targets) {
            let result = joins[slot].take().expect("spawned above").await;
            if result.is_err() {
                self.state.mark_down(slot);
            }
            done(slot, result);
        }
    }

    /// A single fan-out round to every replica, returning the structured
    /// per-replica outcomes (tests and diagnostics; [`RpcClient::call`]
    /// wraps this in the full ride-out/ACK protocol instead).
    pub async fn put_once(&self, obj: u64, data: Payload) -> Vec<ReplicaOutcome> {
        let id = self.state.alloc_put_id();
        let mut outcomes = Vec::with_capacity(self.replicas.len());
        let done = |replica, result| {
            outcomes.push(ReplicaOutcome {
                replica,
                node: self.state.nodes[replica],
                result,
            })
        };
        self.fan_out(obj, &data, id, self.state.all(), done).await;
        outcomes
    }

    async fn put_all(&self, obj: u64, data: Payload) -> RpcResult<Response> {
        let id = self.state.alloc_put_id();
        // Causal root of the span tree: the replicated put itself. Its id
        // never appears in LogAppend records (each replica leg has its own
        // log-derived id, linked via `ReplLink`), so the auditor's
        // complete-after-append invariant is unaffected.
        self.state
            .jot(EventKind::RpcDispatch, id, NO_ID, data.len());
        let t0 = self.handle.now();
        let all = self.state.all();
        let mut acked = 0u64;
        let mut rounds = 0u32;
        let mut last_err = RpcError::TimedOut;
        loop {
            // Target every live, not-yet-ACKed replica; if the liveness
            // marks say nobody is left (stale marks or a full outage),
            // re-probe everyone still owing an ACK rather than deadlock.
            let mut targets = all & !acked & self.state.up.get();
            if targets == 0 {
                targets = all & !acked;
            }
            let mut ok = 0u64;
            let done = |slot: usize, result: RpcResult<()>| match result {
                Ok(()) => ok |= 1 << slot,
                Err(e) => last_err = e,
            };
            self.fan_out(obj, &data, id, targets, done).await;
            acked |= ok;
            for slot in slots(ok) {
                // One replica's PM holds the entry durably.
                self.state
                    .jot(EventKind::ReplAppend, id, slot as u64, data.len());
            }
            // Replication-durable once every *live* replica has ACKed
            // (and at least one has): a down replica is owed the put at
            // rejoin instead of blocking the ACK for its whole downtime.
            if acked != 0 && all & !acked & self.state.up.get() == 0 {
                for slot in slots(all & !acked) {
                    self.state.push_missed(slot, obj, data.clone(), id);
                }
                let n_acked = acked.count_ones() as u64;
                self.state.jot(EventKind::ReplAck, id, n_acked, data.len());
                self.state
                    .jot(EventKind::RpcComplete, id, NO_ID, data.len());
                let (puts, latency) = self.metrics.get_or_init(|| {
                    let m = &self.state.client.metrics;
                    (
                        m.counter_handle(Key::new("repl_puts")),
                        m.window_handle(Key::new("repl_put_latency_ns")),
                    )
                });
                puts.incr(1);
                latency.observe_duration(self.handle.now() - t0);
                return Ok(Response {
                    payload: None,
                    durable: true,
                });
            }
            if !self
                .retry
                .back_off(&self.handle, &mut rounds, &self.retry_rng)
                .await
            {
                return Err(last_err);
            }
        }
    }

    /// Serve a read from the current primary, failing over (and
    /// promoting) if it errors out — a Get keeps working after the
    /// primary crashed as long as any replica is live.
    async fn read(&self, req: Request) -> RpcResult<Response> {
        let mut rounds = 0u32;
        loop {
            let slot = self.state.primary.get();
            let err = match self.replicas[slot].call(req.clone()).await {
                Ok(resp) => return Ok(resp),
                Err(e) if !e.is_retryable() => return Err(e),
                Err(e) => e,
            };
            self.state.mark_down(slot);
            if !self
                .retry
                .back_off(&self.handle, &mut rounds, &self.retry_rng)
                .await
            {
                return Err(err);
            }
        }
    }
}

impl RpcClient for ReplicatedClient {
    fn call(&self, req: Request) -> RpcFuture<'_> {
        match req {
            Request::Put { obj, data } => Box::pin(self.put_all(obj, data)),
            read => Box::pin(self.read(read)),
        }
    }

    fn name(&self) -> &'static str {
        match self.kind {
            DurableKind::WFlush => "Replicated-WFlush-RPC",
            DurableKind::SFlush => "Replicated-SFlush-RPC",
            DurableKind::WRFlush => "Replicated-W-RFlush-RPC",
            DurableKind::SRFlush => "Replicated-S-RFlush-RPC",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::untagged;
    use crate::rpc::ServerProfile;
    use prdma_node::ClusterConfig;
    use prdma_simnet::Sim;

    fn cfg() -> DurableConfig {
        DurableConfig {
            kind: DurableKind::WFlush,
            profile: ServerProfile::heavy(),
            slot_payload: 1024,
            object_slot: 1024,
            store_capacity: 1 << 20,
            head_persist_interval: 1,
            ..Default::default()
        }
    }

    #[test]
    fn put_persists_on_every_replica() {
        let mut sim = Sim::new(77);
        // node 3 is the client; 0..3 are replicas.
        let cluster = Cluster::new(sim.handle(), ClusterConfig::with_nodes(4));
        let (client, group) = build_replicated(&cluster, 3, &[0, 1, 2], cfg());
        let logs: Vec<_> = group.servers.iter().map(|s| s.log().clone()).collect();
        let nodes: Vec<_> = (0..3).map(|i| cluster.node(i).clone()).collect();
        sim.block_on(async move {
            client
                .call(Request::Put {
                    obj: 9,
                    data: Payload::from_bytes(b"replicated".to_vec()),
                })
                .await
                .unwrap();
            // Crash ALL replicas: each must independently recover the put.
            for n in &nodes {
                n.crash();
                n.restart();
            }
        });
        for (i, log) in logs.iter().enumerate() {
            let pending = log.recover();
            assert_eq!(pending.len(), 1, "replica {i}");
            // RPut payload = the causal tag, then the object bytes.
            let logged = Payload::from_bytes(pending[0].payload.clone());
            assert_eq!(
                untagged(&logged).bytes(),
                Some(&b"replicated"[..]),
                "replica {i}"
            );
        }
    }

    /// A put of exactly `slot_payload` bytes fits every replica's slot
    /// with its causal tag: the one headroom every ring reserves is
    /// enough.
    #[test]
    fn largest_value_put_lands_on_every_replica() {
        for kind in DurableKind::ALL {
            let mut sim = Sim::new(79);
            let cluster = Cluster::new(sim.handle(), ClusterConfig::with_nodes(3));
            let cfg = DurableConfig { kind, ..cfg() };
            let value = vec![0x5A; cfg.slot_payload as usize];
            let (client, group) = build_replicated(&cluster, 2, &[0, 1], cfg.clone());
            let data = Payload::from_bytes(value.clone());
            sim.block_on(async move {
                let r = client.call(Request::Put { obj: 4, data }).await.unwrap();
                assert!(r.durable, "{kind:?}");
            });
            sim.run();
            for (i, server) in group.servers.iter().enumerate() {
                let got = server.store().persistent_bytes(4, cfg.slot_payload);
                assert_eq!(got, value, "{kind:?} replica {i}");
            }
        }
    }

    #[test]
    fn replication_cost_is_sublinear_in_replicas() {
        // Fan-out is concurrent: 3 replicas must cost far less than 3x.
        let latency = |n: usize| {
            let mut sim = Sim::new(78);
            let cluster = Cluster::new(sim.handle(), ClusterConfig::with_nodes(n + 1));
            let (client, _group) =
                build_replicated(&cluster, n, &(0..n).collect::<Vec<_>>(), cfg());
            let h = sim.handle();
            sim.block_on(async move {
                let t0 = h.now();
                for i in 0..10u64 {
                    client
                        .call(Request::Put {
                            obj: i,
                            data: Payload::synthetic(1024, i),
                        })
                        .await
                        .unwrap();
                }
                (h.now() - t0).as_nanos()
            })
        };
        let one = latency(1);
        let three = latency(3);
        assert!(three > one, "replication must cost something");
        assert!(
            (three as f64) < one as f64 * 2.0,
            "3 replicas ({three}) should be well under 3x of 1 ({one})"
        );
    }

    #[test]
    fn reads_served_by_primary() {
        let mut sim = Sim::new(79);
        let cluster = Cluster::new(sim.handle(), ClusterConfig::with_nodes(3));
        let (client, group) = build_replicated(&cluster, 2, &[0, 1], cfg());
        assert_eq!(group.view().primary_node(), 0);
        let got = sim.block_on(async move {
            client
                .call(Request::Put {
                    obj: 4,
                    data: Payload::synthetic(512, 4),
                })
                .await
                .unwrap();
            client
                .call(Request::Get { obj: 4, len: 512 })
                .await
                .unwrap()
        });
        assert_eq!(got.payload.unwrap().len(), 512);
    }

    #[test]
    fn degraded_put_acks_on_survivors_and_catches_up() {
        // Crash the backup outside any injector: the put path itself
        // detects the failure, ACKs on the primary alone, and owes the
        // backup a missed put.
        let mut sim = Sim::new(80);
        let cluster = Cluster::new(sim.handle(), ClusterConfig::with_nodes(3));
        let mut c = cfg();
        c.retry = RetryPolicy {
            request_timeout: prdma_simnet::SimDuration::from_micros(200),
            max_retries: 20,
            backoff: prdma_simnet::SimDuration::from_micros(50),
            backoff_cap: prdma_simnet::SimDuration::from_micros(50),
            jitter_pct: 0,
        };
        let (client, group) = build_replicated(&cluster, 2, &[0, 1], c);
        let backup = cluster.node(1).clone();
        let view = group.view();
        sim.block_on(async move {
            backup.crash();
            client
                .call(Request::Put {
                    obj: 1,
                    data: Payload::synthetic(256, 1),
                })
                .await
                .expect("put must ACK on the surviving primary");
        });
        assert!(!view.is_up(1), "backup must be marked down");
        assert_eq!(view.epoch(), 0, "backup loss must not change the primary");
        assert_eq!(
            group.state.missed.borrow()[1].len(),
            1,
            "the backup is owed the put it missed"
        );
    }
}
