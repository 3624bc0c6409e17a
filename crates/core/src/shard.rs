//! Sharded KV routing: a shard map over object ids plus a client-side
//! router that spreads one logical KV service across several server
//! nodes, each with its own CPU, PM, RNIC, and redo log.
//!
//! The paper's durable RPCs are the substrate for partitioned services
//! (its YCSB/Octopus evaluations); this module supplies the partitioning.
//! Every shard is an independent failure domain: a crash of one shard's
//! server stalls only the requests routed there — the other shards' logs,
//! stores, and connections never see it.
//!
//! Routing translates a *global* object id into `(shard, local id)`.
//! Local ids must stay dense per shard so each shard's
//! [`ObjectStore`](crate::store::ObjectStore) region can be sized to its
//! share of the keyspace and never wraps (see the aliasing guard in
//! `store.rs`).

use std::rc::Rc;

use crate::cache::{CacheConfig, CachedClient, LeaseState};
use crate::durable::{build_connection, DurableConfig, DurableServer, ShardTables};
use crate::replication::{build_replicated_group, GroupView, ReplicaGroup};
use crate::rpc::{Request, Response, RpcBatchFuture, RpcClient, RpcError, RpcFuture, RpcResult};
use crate::store::{MirrorRegion, MIRROR_SLOTS, MIRROR_SLOT_BYTES};
use crate::txn::{TxnBook, TxnDirectory, TxnState};
use prdma_node::{Cluster, FaultInjector, Node};
use prdma_rnic::QpMode;
use prdma_simnet::fault::FaultKind;

/// A static map from global object ids to `(shard, local id)`:
/// `shard = id % shards`, `local = id / shards`. Consecutive ids
/// round-robin across shards — zipfian-hot key prefixes spread out, scans
/// decompose into one dense run per shard, and local ids stay packed in
/// `[0, ids/shards]`, so per-shard regions never wrap.
#[derive(Debug, Clone, Copy)]
pub struct ShardMap {
    shards: usize,
}

impl ShardMap {
    /// A striped map over `shards` shards.
    pub fn new(shards: usize) -> Self {
        assert!(shards >= 1, "need at least one shard");
        ShardMap { shards }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard serving global id `obj`.
    pub fn shard_of(&self, obj: u64) -> usize {
        (obj % self.shards as u64) as usize
    }

    /// Route global id `obj` to `(shard, local id)`.
    pub fn route(&self, obj: u64) -> (usize, u64) {
        (self.shard_of(obj), obj / self.shards as u64)
    }

    /// Local ids needed per shard to hold `objects` global ids without
    /// slot reuse (region sizing: objects × slot bytes per shard).
    pub fn local_span(&self, objects: u64) -> u64 {
        objects.div_ceil(self.shards as u64).max(1)
    }

    /// Decompose the global scan `[start, start + count)` into per-shard
    /// runs of consecutive *local* ids, in global id order: each element
    /// is `(shard, local start, run length)`, at most one run per shard.
    pub fn split_scan(&self, start: u64, count: u32) -> Vec<(usize, u64, u32)> {
        let mut runs: Vec<(usize, u64, u32)> = Vec::new();
        for g in start..start.saturating_add(count as u64) {
            let (shard, local) = self.route(g);
            match runs.last_mut() {
                Some((s, l, n)) if *s == shard && *l + *n as u64 == local => *n += 1,
                _ => runs.push((shard, local, 1)),
            }
        }
        // Coalesce non-adjacent repeats of the same shard's dense run
        // (striping visits shards cyclically: shard s appears once per
        // cycle, with consecutive locals).
        let mut merged: Vec<(usize, u64, u32)> = Vec::new();
        for (shard, local, n) in runs {
            match merged.iter_mut().find(|(s, ..)| *s == shard) {
                Some((_, l, m)) if *l + *m as u64 == local => *m += n,
                Some(_) => merged.push((shard, local, n)),
                None => merged.push((shard, local, n)),
            }
        }
        merged
    }
}

/// A client endpoint that routes each request to the owning shard's
/// underlying [`RpcClient`]. Implements [`RpcClient`] itself, so every
/// workload driver (micro, YCSB, PageRank) runs sharded unchanged; a
/// client of an unreplicated [`Fleet`] also runs multi-shard transactions
/// ([`begin`](ShardedClient::begin) / [`commit`](ShardedClient::commit),
/// in the `txn` module).
pub struct ShardedClient {
    pub(crate) map: ShardMap,
    pub(crate) shards: Vec<Rc<dyn RpcClient>>,
    /// Per-shard replica-group views (replicated topologies only):
    /// routing is promotion-aware — each shard's endpoint fails over
    /// internally, and these views expose which epoch/primary the
    /// routing currently targets.
    views: Vec<GroupView>,
    /// This client's 2PC bookkeeping.
    pub(crate) txn: TxnBook,
}

impl ShardedClient {
    /// Wrap one client per shard (index = shard id) under `map`, for the
    /// client on `node`. The router has no transaction tables: its
    /// [`commit`](ShardedClient::commit) refuses.
    pub fn new(map: ShardMap, shards: Vec<Box<dyn RpcClient>>, node: &Node) -> Self {
        assert_eq!(map.shards(), shards.len(), "one client endpoint per shard");
        ShardedClient {
            map,
            shards: shards.into_iter().map(Rc::from).collect(),
            views: Vec::new(),
            txn: TxnBook::new(node, 0, &[], &[]),
        }
    }

    /// The promotion epoch shard `shard`'s routing is on (`None` for
    /// unreplicated topologies).
    pub fn shard_epoch(&self, shard: usize) -> Option<u64> {
        self.views.get(shard).map(GroupView::epoch)
    }

    /// The node currently serving shard `shard` as primary (`None` for
    /// unreplicated topologies).
    pub fn primary_of(&self, shard: usize) -> Option<usize> {
        self.views.get(shard).map(GroupView::primary_node)
    }

    /// The shard map.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// Batched call with structured per-shard outcomes: one shard's
    /// failure never discards another shard's completed responses (and
    /// the failed positions are reported, not panicked over). Within a
    /// shard's sub-batch, puts and gets always go through the shard's
    /// batched path (doorbell batching, coalesced flushes); only scans —
    /// which must split across shards — take the per-call path.
    pub async fn call_batch_outcomes(&self, reqs: Vec<Request>) -> ShardBatchOutcome {
        // Partition the batch by owning shard (preserving each shard's
        // sub-order); responses are restored to request order by
        // position.
        let mut per_shard: Vec<Vec<(usize, Request)>> =
            (0..self.map.shards()).map(|_| Vec::new()).collect();
        let mut total = 0usize;
        for (pos, req) in reqs.into_iter().enumerate() {
            total += 1;
            let routed = match req {
                Request::Put { obj, data } => {
                    let (shard, local) = self.map.route(obj);
                    (shard, Request::Put { obj: local, data })
                }
                Request::Get { obj, len } => {
                    let (shard, local) = self.map.route(obj);
                    (shard, Request::Get { obj: local, len })
                }
                // Scans split across shards; route through `call` on
                // the shard owning the range start.
                scan @ Request::Scan { .. } => {
                    let shard = self.map.shard_of(match scan {
                        Request::Scan { start, .. } => start,
                        _ => unreachable!(),
                    });
                    (shard, scan)
                }
            };
            per_shard[routed.0].push((pos, routed.1));
        }
        let mut out = ShardBatchOutcome {
            responses: (0..total).map(|_| None).collect(),
            failures: Vec::new(),
        };
        for (shard, items) in per_shard.into_iter().enumerate() {
            if items.is_empty() {
                continue;
            }
            // Scans take the per-call path; everything else stays in the
            // shard's batched path, even when co-batched with a scan.
            type Positioned = Vec<(usize, Request)>;
            let (scans, batched): (Positioned, Positioned) = items
                .into_iter()
                .partition(|(_, r)| matches!(r, Request::Scan { .. }));
            let mut shard_errors: Vec<(RpcError, Vec<usize>)> = Vec::new();
            if !batched.is_empty() {
                let (positions, sub): (Vec<usize>, Vec<Request>) = batched.into_iter().unzip();
                match self.shards[shard].call_batch(sub).await {
                    Ok(resps) => {
                        for (pos, resp) in positions.into_iter().zip(resps) {
                            out.responses[pos] = Some(resp);
                        }
                    }
                    Err(e) => shard_errors.push((e, positions)),
                }
            }
            for (pos, scan) in scans {
                match self.call(scan).await {
                    Ok(resp) => out.responses[pos] = Some(resp),
                    Err(e) => shard_errors.push((e, vec![pos])),
                }
            }
            if let Some((error, _)) = shard_errors.first().cloned() {
                let mut positions: Vec<usize> =
                    shard_errors.into_iter().flat_map(|(_, p)| p).collect();
                positions.sort_unstable();
                out.failures.push(ShardFailure {
                    shard,
                    error,
                    positions,
                });
            }
        }
        out
    }

    /// Fan a scan across the owning shards; the closed-loop client walks
    /// the runs in global order and aggregates.
    async fn scan(&self, start: u64, count: u32, len: u64) -> RpcResult<Response> {
        let mut total = 0u64;
        let mut durable = true;
        for (shard, local, n) in self.map.split_scan(start, count) {
            let r = self.shards[shard]
                .call(Request::Scan {
                    start: local,
                    count: n,
                    len,
                })
                .await?;
            total += r.payload.as_ref().map_or(0, |p| p.len());
            durable &= r.durable;
        }
        Ok(Response {
            payload: Some(prdma_rnic::Payload::synthetic(total, start)),
            durable,
        })
    }
}

impl RpcClient for ShardedClient {
    /// Puts and gets route here and return the owning shard's own
    /// future; only a scan, which spans shards, is boxed.
    fn call(&self, req: Request) -> RpcFuture<'_> {
        match req {
            Request::Put { obj, data } => {
                let (shard, local) = self.map.route(obj);
                self.shards[shard].call(Request::Put { obj: local, data })
            }
            Request::Get { obj, len } => {
                let (shard, local) = self.map.route(obj);
                self.shards[shard].call(Request::Get { obj: local, len })
            }
            Request::Scan { start, count, len } => Box::pin(self.scan(start, count, len)),
        }
    }

    fn call_batch(&self, reqs: Vec<Request>) -> RpcBatchFuture<'_> {
        Box::pin(async move { self.call_batch_outcomes(reqs).await.into_result() })
    }

    fn name(&self) -> &'static str {
        self.shards[0].name()
    }
}

/// One shard's failure within a batched call: which shard, the error,
/// and the request positions it covers. The other shards' completed
/// responses live on in [`ShardBatchOutcome::responses`].
#[derive(Debug, Clone)]
pub struct ShardFailure {
    /// The shard whose sub-batch (or scan) failed.
    pub shard: usize,
    /// The first error that shard produced.
    pub error: RpcError,
    /// Original batch positions left unanswered by this failure, sorted.
    pub positions: Vec<usize>,
}

/// Structured result of [`ShardedClient::call_batch_outcomes`]:
/// per-position responses (`None` exactly at failed positions) plus one
/// [`ShardFailure`] per shard that errored.
#[derive(Debug)]
pub struct ShardBatchOutcome {
    /// Response per original request position; `None` where a failure
    /// left the request unanswered.
    pub responses: Vec<Option<Response>>,
    /// One entry per shard that failed, in shard order.
    pub failures: Vec<ShardFailure>,
}

impl ShardBatchOutcome {
    /// `true` when every request was answered.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// Collapse into the legacy all-or-nothing result: the complete
    /// response vector, or the first shard failure's error.
    pub fn into_result(self) -> RpcResult<Vec<Response>> {
        if let Some(f) = self.failures.into_iter().next() {
            return Err(f.error);
        }
        Ok(self
            .responses
            .into_iter()
            .map(|r| r.expect("outcome with no failures has every response"))
            .collect())
    }
}

/// What [`build_fleet`] stacks on top of the per-(client, shard) durable
/// connections.
#[derive(Debug, Clone, Copy)]
pub struct FleetSpec {
    /// Server nodes per shard. With `replicas > 1` every shard is a
    /// primary–backup group: shard `s`'s primary lives on server node
    /// `s` and its backups on the next server nodes (mod shard count),
    /// so every node hosts one primary and backups for its neighbours.
    pub replicas: usize,
    /// Put the hot-key lease cache (and, when `cache.mirror` is on, the
    /// adaptive one-sided READ fast path) in front of every shard
    /// endpoint. The mirror tier is always off when `replicas > 1` — a
    /// mirror QP targets one fixed member, so a promotion would leave it
    /// reading a demoted node — and instead every promotion of a backup
    /// revokes all leases a client holds on the shard (tracked through
    /// the group's view epoch).
    pub cache: Option<CacheConfig>,
}

/// A sharded durable KV service: one router per client node plus the
/// server-side handles recovery and failover wiring need.
pub struct Fleet {
    /// One sharded router per client node, in `client_nodes` order
    /// (promotion-aware when the shards are replica groups).
    pub clients: Vec<ShardedClient>,
    /// `servers[shard][client]` (`replicas == 1`): the server endpoint
    /// of the connection between `client_nodes[client]` and shard
    /// `shard` (each connection owns its per-connection redo log on the
    /// shard's PM, as in the paper; the object store is shared per
    /// shard). Empty per shard when the shards are replica groups.
    pub servers: Vec<Vec<Rc<DurableServer>>>,
    /// `groups[shard][client]` (`replicas > 1`): the replica group
    /// behind the connection between `client_nodes[client]` and shard
    /// `shard`. Empty per shard otherwise.
    pub groups: Vec<Vec<ReplicaGroup>>,
    /// Per-shard lease tables (index = shard id), shared by every client
    /// of the shard: its caches validate against them, its puts (with a
    /// cache) and its commits revoke on them. Empty on a replicated fleet
    /// without a cache.
    pub leases: Vec<LeaseState>,
    /// Per-shard transaction host state (index = shard id), wired into
    /// every connection of the shard; empty when the shards are replica
    /// groups.
    pub states: Vec<TxnState>,
    pub(crate) directory: TxnDirectory,
}

impl Fleet {
    /// Recovery of server node `node` from `kind` — what the wired hooks
    /// run, and what a caller that crashed the node by hand calls after
    /// restarting it: forget the volatile transaction outcomes (in-doubt
    /// resolution must come from the logs alone; a no-op on a fleet that
    /// never committed one), then recover every per-connection log of the
    /// shard the node hosts, then every replica-group member on it, each
    /// as [`DurableServer::recover`] decides (and only that node's).
    /// Returns the entries re-enqueued.
    pub fn recover(&self, node: usize, kind: FaultKind) -> usize {
        self.directory.forget_volatile();
        let groups = self.groups.iter().flatten();
        recover_node(&self.servers, node, kind)
            + groups.map(|g| g.recover(node, kind)).sum::<usize>()
    }

    /// Wire [`recover`](Fleet::recover) into the fault injector: plain
    /// shards replay at their node's recovery points; replica groups also
    /// promote at crash time (see [`ReplicaGroup::wire_recovery`]).
    pub fn wire_recovery(&self, inj: &FaultInjector) {
        let (dir, servers) = (self.directory.clone(), self.servers.clone());
        inj.on_recovery(move |node, kind| {
            dir.forget_volatile();
            recover_node(&servers, node, kind);
        });
        for g in self.groups.iter().flatten() {
            g.wire_recovery(inj);
        }
    }
}

/// Recovery from `kind` of every per-connection server of the shard that
/// server node `node` hosts (`servers[shard][client]`; shard `s` lives on
/// node `s`, so any other node recovers nothing). Returns the entries
/// re-enqueued.
fn recover_node(servers: &[Vec<Rc<DurableServer>>], node: usize, kind: FaultKind) -> usize {
    let shard = servers.get(node).into_iter().flatten();
    shard.map(|s| s.recover(kind)).sum()
}

/// Build one shard's lease table: when the one-sided tier is enabled the
/// table is backed by a mirror region carved out of the *top half* of the
/// shard server's DRAM (the bottom is owned by the per-lane GET
/// descriptor slots), shared by every client of the shard.
fn shard_lease(cluster: &Cluster, shard: usize, cache: Option<&CacheConfig>) -> LeaseState {
    let mirror = cache.filter(|cache| cache.mirror).map(|_| {
        let dram = cluster.node(shard).dram.clone();
        let base = dram.capacity() / 2;
        MirrorRegion::new(dram, base, MIRROR_SLOT_BYTES, MIRROR_SLOTS)
    });
    LeaseState::new(shard as u64, mirror)
}

/// Build a sharded durable KV service over `map`'s shards (on server
/// nodes `0..shards`; the cluster must have that many) for the clients on
/// `client_nodes`: every client gets one endpoint — with its own
/// per-connection redo log(s) — to every shard, built in client-major
/// order and stacked per `spec`. With `spec.replicas > 1` the endpoint is
/// a replica group's client and the routers learn each shard's promotion
/// epoch; call [`Fleet::wire_recovery`] to attach recovery and fast
/// failover to a fault injector. Each shard keeps its own object-store
/// region (`objects-s<shard>`): a node hosting shard `s`'s primary and
/// shard `s−1`'s backup never mixes their object spaces. With
/// `spec.replicas == 1` each shard also gets a [`TxnState`] in its
/// connections and a lease table, and every log is registered in the
/// fleet's [`TxnDirectory`], so every client runs 2PC transactions; all
/// of it idles until a transaction record is logged. With `spec.cache`
/// each shard gets one [`LeaseState`] (plus, when the
/// mirror tier is on, a server-DRAM [`MirrorRegion`] and one RC QP per
/// client for one-sided reads), a [`CachedClient`] fronts every endpoint,
/// and every durable put bumps the key's lease epoch before its flush ACK
/// (invariant I5). Per-shard object-store regions are sized from
/// `cfg.store_capacity` as configured by the caller (size it to
/// `map.local_span(objects) * object_slot` so slots never wrap). Every
/// server serves from construction.
pub fn build_fleet(
    cluster: &Cluster,
    map: ShardMap,
    client_nodes: &[usize],
    cfg: &DurableConfig,
    spec: FleetSpec,
) -> Fleet {
    let (shards, replicas) = (map.shards(), spec.replicas);
    assert!(
        (1..=shards).contains(&replicas),
        "need 1..={shards} replicas per shard, got {replicas}"
    );
    assert!(
        cluster.servers() >= shards,
        "cluster has {} server nodes, need {shards}",
        cluster.servers()
    );
    let cache = spec.cache.map(|cache| CacheConfig {
        mirror: cache.mirror && replicas == 1,
        ..cache
    });
    // An unreplicated fleet runs 2PC: transaction tables, and lease
    // tables its commits revoke on even without a cache.
    let directory = TxnDirectory::new();
    let txn_shards = if replicas == 1 { shards } else { 0 };
    let states: Vec<TxnState> = (0..txn_shards)
        .map(|s| TxnState::new(s, directory.clone()))
        .collect();
    let lease_shards = if cache.is_some() { shards } else { txn_shards };
    let leases: Vec<LeaseState> = (0..lease_shards)
        .map(|s| shard_lease(cluster, s, cache.as_ref()))
        .collect();
    let mut servers: Vec<Vec<Rc<DurableServer>>> = (0..shards).map(|_| Vec::new()).collect();
    let mut groups: Vec<Vec<ReplicaGroup>> = (0..shards).map(|_| Vec::new()).collect();
    let mut clients = Vec::with_capacity(client_nodes.len());
    for (c, &client_idx) in client_nodes.iter().enumerate() {
        let node = cluster.node(client_idx);
        let (mut endpoints, mut views) = (Vec::with_capacity(shards), Vec::new());
        for shard in 0..shards {
            // Only a cache's puts revoke: without one, commits alone do.
            let lease = cache.and(leases.get(shard)).cloned();
            let store_region = &format!("objects-s{shard}");
            let endpoint: Box<dyn RpcClient> = if replicas > 1 {
                // Lanes and put-id tags derive from the (client, shard) ordinal.
                let members: Vec<usize> = (0..replicas).map(|r| (shard + r) % shards).collect();
                let pair = c * shards + shard;
                let tables = ShardTables {
                    store_region,
                    lease,
                    txn: None,
                };
                let (client, group) = build_replicated_group(
                    cluster,
                    client_idx,
                    &members,
                    cfg,
                    pair * replicas,
                    pair as u64,
                    tables,
                );
                groups[shard].push(group);
                views.push(client.view());
                Box::new(client)
            } else {
                let tables = ShardTables {
                    store_region,
                    lease,
                    txn: states.get(shard).cloned(),
                };
                let (client, server) =
                    build_connection(cluster, client_idx, shard, c, cfg.clone(), tables);
                directory.register(shard, server.log().clone());
                servers[shard].push(Rc::new(server));
                Box::new(client)
            };
            endpoints.push(match cache {
                None => Rc::from(endpoint),
                Some(cache) => {
                    let mirror_qp = cache
                        .mirror
                        .then(|| cluster.connect(client_idx, shard, QpMode::Rc).0);
                    Rc::new(CachedClient::new(
                        endpoint,
                        leases[shard].clone(),
                        cache,
                        node.clone(),
                        shard as u32,
                        mirror_qp,
                        views.get(shard).cloned(),
                    )) as Rc<dyn RpcClient>
                }
            });
        }
        clients.push(ShardedClient {
            map,
            shards: endpoints,
            views,
            txn: TxnBook::new(node, c, &states, &leases),
        });
    }
    Fleet {
        clients,
        servers,
        groups,
        leases,
        states,
        directory,
    }
}

/// [`build_fleet`] with `replicas` servers per shard and no cache. Kept
/// under its old name for `examples/perfbench` only.
pub fn build_replicated_sharded(
    cluster: &Cluster,
    map: ShardMap,
    client_nodes: &[usize],
    replicas: usize,
    cfg: &DurableConfig,
) -> Fleet {
    build_fleet(
        cluster,
        map,
        client_nodes,
        cfg,
        FleetSpec {
            replicas,
            cache: None,
        },
    )
}

/// [`build_fleet`] with one server per shard and `cache` in front,
/// returning the fleet beside a copy of its lease tables. Kept under its
/// old name for `examples/perfbench` only.
pub fn build_sharded_durable_cached(
    cluster: &Cluster,
    map: ShardMap,
    client_nodes: &[usize],
    cfg: &DurableConfig,
    cache: &CacheConfig,
) -> (Fleet, Vec<LeaseState>) {
    let spec = FleetSpec {
        replicas: 1,
        cache: Some(*cache),
    };
    let fleet = build_fleet(cluster, map, client_nodes, cfg, spec);
    let leases = fleet.leases.clone();
    (fleet, leases)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rpc::ServerProfile;
    use prdma_node::ClusterConfig;
    use prdma_rnic::Payload;
    use prdma_simnet::Sim;

    #[test]
    fn striped_map_routes_densely() {
        let m = ShardMap::new(4);
        for g in 0..64u64 {
            let (s, l) = m.route(g);
            assert_eq!(s, (g % 4) as usize);
            assert_eq!(l, g / 4);
            assert_eq!(m.shard_of(g), s);
        }
        assert_eq!(m.local_span(50_000), 12_500);
    }

    #[test]
    fn split_scan_covers_the_range_exactly() {
        let m = ShardMap::new(3);
        let runs = m.split_scan(10, 17);
        let total: u32 = runs.iter().map(|(_, _, n)| n).sum();
        assert_eq!(total, 17);
        // Every global id in the range appears in exactly one run.
        for g in 10..27u64 {
            let (shard, local) = m.route(g);
            let hits = runs
                .iter()
                .filter(|(s, l, n)| *s == shard && (*l..*l + *n as u64).contains(&local))
                .count();
            assert_eq!(hits, 1, "id {g}");
        }
        // Striping coalesces to one dense run per shard.
        let m = ShardMap::new(4);
        assert_eq!(m.split_scan(0, 16).len(), 4);
    }

    fn sharded_fixture(sim: &Sim, shards: usize, clients: usize) -> Fleet {
        let cluster = Cluster::new(sim.handle(), ClusterConfig::with_servers(shards, clients));
        let cfg = DurableConfig {
            profile: ServerProfile::light(),
            slot_payload: 1024,
            object_slot: 1024,
            store_capacity: 1 << 20,
            log_slots: 64,
            ..Default::default()
        };
        let client_nodes: Vec<usize> = (shards..shards + clients).collect();
        let spec = FleetSpec {
            replicas: 1,
            cache: None,
        };
        build_fleet(&cluster, ShardMap::new(shards), &client_nodes, &cfg, spec)
    }

    #[test]
    fn sharded_put_get_roundtrip_spans_shards() {
        let mut sim = Sim::new(17);
        let svc = sharded_fixture(&sim, 3, 1);
        let client = svc.clients.into_iter().next().unwrap();
        let servers = svc.servers;
        sim.block_on(async move {
            for obj in 0..9u64 {
                let data = Payload::from_bytes(vec![0x40 + obj as u8; 64]);
                let r = client.call(Request::Put { obj, data }).await.unwrap();
                assert!(r.durable);
            }
            for obj in 0..9u64 {
                let r = client.call(Request::Get { obj, len: 64 }).await.unwrap();
                assert_eq!(r.payload.unwrap().len(), 64, "obj {obj}");
            }
        });
        sim.run();
        // Striping spread 9 objects as 3 per shard, applied to each
        // shard's own store under *local* ids 0..3.
        for (shard, per_client) in servers.iter().enumerate() {
            let server = &per_client[0];
            assert_eq!(server.puts_processed(), 3, "shard {shard}");
            for local in 0..3u64 {
                let global = local * 3 + shard as u64;
                assert_eq!(
                    server.store().persistent_bytes(local, 64),
                    vec![0x40 + global as u8; 64],
                    "shard {shard} local {local}"
                );
            }
        }
    }

    #[test]
    fn replicated_sharded_mirrors_each_shard_to_its_backup() {
        let mut sim = Sim::new(29);
        let cluster = Cluster::new(sim.handle(), ClusterConfig::with_servers(2, 1));
        let cfg = DurableConfig {
            profile: ServerProfile::light(),
            slot_payload: 1024,
            object_slot: 1024,
            store_capacity: 1 << 20,
            log_slots: 64,
            ..Default::default()
        };
        let spec = FleetSpec {
            replicas: 2,
            cache: None,
        };
        let svc = build_fleet(&cluster, ShardMap::new(2), &[2], &cfg, spec);
        let client = svc.clients.into_iter().next().unwrap();
        assert_eq!(client.shard_epoch(0), Some(0));
        assert_eq!(client.primary_of(0), Some(0));
        assert_eq!(client.primary_of(1), Some(1));
        let groups = svc.groups;
        sim.block_on(async move {
            for obj in 0..8u64 {
                let data = Payload::from_bytes(vec![0x40 + obj as u8; 64]);
                let r = client.call(Request::Put { obj, data }).await.unwrap();
                assert!(r.durable);
            }
        });
        sim.run();
        // Each shard's 4 objects are applied on BOTH its replicas'
        // stores (different nodes, same local ids); the co-hosted other
        // shard's objects never leak into this shard's region.
        for (shard, shard_groups) in groups.iter().enumerate() {
            for (slot, server) in shard_groups[0].servers.iter().enumerate() {
                for local in 0..4u64 {
                    let global = local * 2 + shard as u64;
                    assert_eq!(
                        server.store().persistent_bytes(local, 64),
                        vec![0x40 + global as u8; 64],
                        "shard {shard} replica {slot} local {local}"
                    );
                }
            }
        }
    }

    /// `recover(node, kind)` by hand, for a plain and a replicated fleet:
    /// only the logs hosted on the crashed node replay, and every ACKed
    /// put ends up applied.
    #[test]
    fn recover_replays_the_crashed_node_and_no_other() {
        for replicas in [1, 2] {
            let mut sim = Sim::new(43);
            let cluster = Cluster::new(sim.handle(), ClusterConfig::with_servers(2, 1));
            let cfg = DurableConfig {
                // Heavy: the puts are ACKed but unprocessed at the crash.
                profile: ServerProfile::heavy(),
                slot_payload: 1024,
                object_slot: 1024,
                store_capacity: 1 << 20,
                log_slots: 64,
                ..Default::default()
            };
            let spec = FleetSpec {
                replicas,
                cache: None,
            };
            let mut svc = build_fleet(&cluster, ShardMap::new(2), &[2], &cfg, spec);
            let client = svc.clients.remove(0);
            let victim = cluster.node(0).clone();
            sim.block_on(async move {
                for obj in 0..4u64 {
                    let data = Payload::from_bytes(vec![0x60 + obj as u8; 64]);
                    client.call(Request::Put { obj, data }).await.unwrap();
                }
                victim.crash();
                victim.restart();
            });
            let crash = FaultKind::NodeCrash {
                down_for: prdma_simnet::SimDuration::ZERO,
            };
            assert_eq!(svc.recover(2, crash), 0, "the client node hosts no log");
            // Node 0 hosts shard 0 (2 puts) and, replicated, shard 1's
            // backup (2 more).
            assert_eq!(svc.recover(0, crash), 2 * replicas);
            sim.run();
            let shard0 = match replicas {
                1 => &svc.servers[0][0],
                _ => &svc.groups[0][0].servers[0],
            };
            for local in 0..2u64 {
                assert_eq!(
                    shard0.store().persistent_bytes(local, 64),
                    vec![0x60 + 2 * local as u8; 64],
                    "replicas {replicas} local {local}"
                );
            }
        }
    }

    #[test]
    fn sharded_scan_aggregates_across_shards() {
        let mut sim = Sim::new(19);
        let svc = sharded_fixture(&sim, 2, 1);
        let client = svc.clients.into_iter().next().unwrap();
        let got = sim.block_on(async move {
            client
                .call(Request::Scan {
                    start: 0,
                    count: 8,
                    len: 100,
                })
                .await
                .unwrap()
        });
        assert_eq!(got.payload.unwrap().len(), 800);
    }

    #[test]
    fn cached_sharded_gets_hit_the_client_cache() {
        let mut sim = Sim::new(31);
        let cluster = Cluster::new(sim.handle(), ClusterConfig::with_servers(2, 1));
        let cfg = DurableConfig {
            profile: ServerProfile::light(),
            slot_payload: 1024,
            object_slot: 1024,
            store_capacity: 1 << 20,
            log_slots: 64,
            ..Default::default()
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
        let svc = build_fleet(&cluster, ShardMap::new(2), &[2], &cfg, spec);
        assert_eq!(svc.leases.len(), 2);
        let lease = svc.leases[0].clone();
        let client = svc.clients.into_iter().next().unwrap();
        let h = sim.handle();
        sim.block_on(async move {
            for obj in 0..4u64 {
                let data = Payload::synthetic(256, obj);
                let r = client.call(Request::Put { obj, data }).await.unwrap();
                assert!(r.durable);
            }
            // The put to global object 0 (shard 0, local 0) bumped its lease.
            assert_eq!(lease.epoch(0), 1);
            // First GET is the filling miss: a full durable RPC.
            let t0 = h.now();
            client
                .call(Request::Get { obj: 0, len: 256 })
                .await
                .unwrap();
            let miss_ns = h.now().duration_since(t0).as_nanos();
            // Every later GET is a validated cache hit: far cheaper.
            let t1 = h.now();
            for _ in 0..8 {
                let r = client
                    .call(Request::Get { obj: 0, len: 256 })
                    .await
                    .unwrap();
                assert!(r.durable);
                assert_eq!(r.payload.unwrap().len(), 256);
            }
            let hit_ns = h.now().duration_since(t1).as_nanos() / 8;
            assert!(
                hit_ns * 4 < miss_ns,
                "cache hit {hit_ns} ns should be far below the {miss_ns} ns miss"
            );
            // A new put revokes the lease: the next GET misses again.
            let data = Payload::synthetic(256, 99);
            client.call(Request::Put { obj: 0, data }).await.unwrap();
            assert_eq!(lease.epoch(0), 2);
            let t2 = h.now();
            client
                .call(Request::Get { obj: 0, len: 256 })
                .await
                .unwrap();
            let refill_ns = h.now().duration_since(t2).as_nanos();
            assert!(
                refill_ns > hit_ns * 4,
                "post-put GET {refill_ns} ns should pay the RPC again (hit was {hit_ns} ns)"
            );
        });
        sim.run();
    }

    #[test]
    fn hot_stable_keys_promote_to_the_one_sided_mirror_tier() {
        let mut sim = Sim::new(41);
        let cluster = Cluster::new(sim.handle(), ClusterConfig::with_servers(1, 1));
        let cfg = DurableConfig {
            profile: ServerProfile::light(),
            slot_payload: 1024,
            object_slot: 1024,
            store_capacity: 1 << 20,
            log_slots: 64,
            ..Default::default()
        };
        let cache = CacheConfig {
            hot_threshold: 1,
            mirror: true,
            ..Default::default()
        };
        let spec = FleetSpec {
            replicas: 1,
            cache: Some(cache),
        };
        let svc = build_fleet(&cluster, ShardMap::new(1), &[1], &cfg, spec);
        let lease = svc.leases[0].clone();
        let client = svc.clients.into_iter().next().unwrap();
        sim.block_on(async move {
            let data = Payload::synthetic(256, 7);
            client.call(Request::Put { obj: 7, data }).await.unwrap();
            // Miss + fill, then exactly the mirror threshold's 8
            // validated hits, which publish the key.
            for _ in 0..9 {
                let r = client
                    .call(Request::Get { obj: 7, len: 256 })
                    .await
                    .unwrap();
                assert!(r.durable);
                assert_eq!(r.payload.unwrap().len(), 256);
            }
            let mirror = lease.mirror().unwrap();
            assert_eq!(mirror.published_count(), 1, "hot key must be published");
            assert!(mirror.addr_of(7).is_some());
            // Mirror-tier GETs keep validating against the slot header.
            let r = client
                .call(Request::Get { obj: 7, len: 256 })
                .await
                .unwrap();
            assert!(r.durable);
        });
        sim.run();
    }

    #[test]
    fn replicated_cached_service_serves_puts_and_gets() {
        let mut sim = Sim::new(37);
        let cluster = Cluster::new(sim.handle(), ClusterConfig::with_servers(2, 1));
        let cfg = DurableConfig {
            profile: ServerProfile::light(),
            slot_payload: 1024,
            object_slot: 1024,
            store_capacity: 1 << 20,
            log_slots: 64,
            ..Default::default()
        };
        let cache = CacheConfig {
            hot_threshold: 1,
            ..Default::default()
        };
        let spec = FleetSpec {
            replicas: 2,
            cache: Some(cache),
        };
        let svc = build_fleet(&cluster, ShardMap::new(2), &[2], &cfg, spec);
        let leases = svc.leases.clone();
        let client = svc.clients.into_iter().next().unwrap();
        assert_eq!(client.shard_epoch(0), Some(0));
        sim.block_on(async move {
            for obj in 0..6u64 {
                let data = Payload::from_bytes(vec![0x40 + obj as u8; 64]);
                let r = client.call(Request::Put { obj, data }).await.unwrap();
                assert!(r.durable);
            }
            for _ in 0..4 {
                let r = client.call(Request::Get { obj: 2, len: 64 }).await.unwrap();
                assert!(r.durable);
                assert_eq!(r.payload.unwrap().len(), 64);
            }
        });
        sim.run();
        // Replication fans each put to both replicas: 2 sub-puts per put.
        assert!(leases[0].epoch(0) >= 1, "puts must bump the lease epoch");
    }

    #[test]
    fn sharded_batch_preserves_request_order() {
        let mut sim = Sim::new(23);
        let svc = sharded_fixture(&sim, 2, 1);
        let client = svc.clients.into_iter().next().unwrap();
        sim.block_on(async move {
            let reqs: Vec<Request> = (0..6u64)
                .map(|i| Request::Put {
                    obj: i,
                    data: Payload::synthetic(256, i),
                })
                .collect();
            let resps = client.call_batch(reqs).await.unwrap();
            assert_eq!(resps.len(), 6);
            assert!(resps.iter().all(|r| r.durable));
        });
    }
}
