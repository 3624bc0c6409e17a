//! Hot-key lease caching and the adaptive one-sided READ fast path.
//!
//! Zipfian traffic concentrates GETs on a few keys, yet every GET pays a
//! full durable RPC through the server CPU. This module removes that cost
//! for hot, stable keys with two cooperating layers:
//!
//! 1. **A lease-protected client DRAM cache** ([`CachedClient`]). Every
//!    cached entry is stamped with a server-granted *lease epoch*
//!    ([`LeaseState`], shared by all clients of one shard). A durable put
//!    bumps the key's epoch **before** its flush is acknowledged (the
//!    bump sits on the put path ahead of the flush wait in
//!    `DurableClient`), so a cached read validated against the shared
//!    epoch can never return bytes newer than the last flush-ACKed put —
//!    auditor invariant I5 checks exactly this ordering in the journal.
//! 2. **A one-sided mirror fast path**. Keys that stay hot and stable are
//!    published into a server DRAM [`MirrorRegion`]
//!    (an 8-byte epoch header plus the object bytes); the client then
//!    serves GETs with a single RDMA READ (`Qp::read_mirror`) and
//!    validates the header against its lease — no server CPU at all.
//!
//! A per-key hotness/stability tracker promotes keys durable-RPC GET →
//! cached → one-sided READ (`Tier`) and demotes them back on
//! invalidation churn. Writes and cold keys always take the durable RPC
//! path unchanged.
//!
//! Determinism rule: cache state draws no randomness and exposes no
//! iteration order. Keys are found through [`IdMap`], a hash map under a
//! fixed hasher, and the only whole-table walk (`Records::revoke_all`, on
//! a view change) applies the same reset to every record, so the order it
//! visits them in cannot reach a journal record, a metric or the
//! schedule. Eviction order is the intrusive LRU list's, which depends on
//! the sequence of GETs alone. A fixed seed therefore still yields a
//! byte-identical schedule; every journal record and metric is gated on
//! the respective facility being enabled.
//!
//! Host cost: a GET resolves its key's record once (one `IdMap` lookup)
//! and every later step — LRU touch, fill, eviction, invalidation, streak
//! — indexes the record slab by that id, so a GET is O(1) in the number
//! of keys and of cached entries (DESIGN.md §16).

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use prdma_node::Node;
use prdma_rnic::{MemTarget, Payload, Qp};
use prdma_simnet::journal::ids::{self, Ids};
use prdma_simnet::journal::{EventKind, Journal, Subsystem};
use prdma_simnet::metrics::{Counter, Key};
use prdma_simnet::rng::IdMap;

use crate::log::OpCode;
use crate::replication::GroupView;
use crate::rpc::{
    Request, Response, RpcAppendFuture, RpcBatchFuture, RpcClient, RpcFuture, RpcResult,
};
use crate::store::{MirrorRegion, MIRROR_HEADER_BYTES};

/// Client-side cache behaviour knobs.
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    /// Max cached entries per client per shard (LRU beyond this).
    pub capacity: usize,
    /// GETs observed on a key before its first fill (1 = cache on first
    /// miss; higher values keep one-hit wonders out).
    pub hot_threshold: u64,
    /// Invalidations on a key before it is demoted back to the durable
    /// RPC tier (write-churned keys stop being cached).
    pub churn_demote: u32,
    /// Whether the one-sided mirror tier is enabled at all.
    pub mirror: bool,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            capacity: 1024,
            hot_threshold: 2,
            churn_demote: 2,
            mirror: true,
        }
    }
}

struct LeaseInner {
    keys: Ids,
    epochs: RefCell<IdMap<u64>>,
    mirror: Option<MirrorRegion>,
}

/// Per-shard lease table: one epoch per key, shared (reference-counted)
/// between the shard's server put path and every client caching against
/// it. A key's epoch starts at 0 and is bumped by each durable put
/// *before* the put's flush is acknowledged; cached entries stamped with
/// an older epoch fail validation and fall back to the durable RPC path.
#[derive(Clone)]
pub struct LeaseState {
    inner: Rc<LeaseInner>,
}

impl LeaseState {
    /// A lease table for the shard identified by `tag`, backed by a server
    /// DRAM `mirror` region when the one-sided tier is on.
    pub fn new(tag: u64, mirror: Option<MirrorRegion>) -> Self {
        LeaseState {
            inner: Rc::new(LeaseInner {
                keys: ids::lease_keys(tag),
                epochs: RefCell::default(),
                mirror,
            }),
        }
    }

    /// The globally unique journal key id for `obj` under this shard's
    /// tag (`wr_id` of every lease record).
    pub fn key_id(&self, obj: u64) -> u64 {
        self.inner.keys.id(obj)
    }

    /// Current lease epoch of `obj` (0 if never written).
    pub fn epoch(&self, obj: u64) -> u64 {
        self.inner.epochs.borrow().get(&obj).copied().unwrap_or(0)
    }

    /// Bump `obj`'s epoch for the put identified by `rpc_id`, revoking
    /// every outstanding lease on the key and refreshing its mirror slot
    /// header. Called on the durable put path *before* the flush wait, so
    /// the journaled invalidation always precedes the put's ACK
    /// (invariant I5a). Returns the new epoch.
    pub fn bump(&self, obj: u64, rpc_id: u64, journal: &Journal) -> u64 {
        let mut epochs = self.inner.epochs.borrow_mut();
        let e = epochs.entry(obj).or_insert(0);
        *e += 1;
        let new = *e;
        drop(epochs);
        if let Some(m) = &self.inner.mirror {
            m.refresh(obj, new);
        }
        journal.record(
            Subsystem::Rpc,
            EventKind::LeaseInvalidate,
            rpc_id,
            self.key_id(obj),
            new,
        );
        new
    }

    /// Journal a lease grant of `epoch` on `obj` (client cache fill).
    pub fn jot_grant(&self, obj: u64, epoch: u64, journal: &Journal) {
        journal.record(
            Subsystem::Rpc,
            EventKind::LeaseGrant,
            journal.next_rpc_id(),
            self.key_id(obj),
            epoch,
        );
    }

    /// The shard's mirror region, when the one-sided tier is enabled.
    pub fn mirror(&self) -> Option<&MirrorRegion> {
        self.inner.mirror.as_ref()
    }
}

/// Serving tier of one key, promoted on sustained hits and demoted on
/// invalidation churn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tier {
    /// Cold or churned: every GET is a durable RPC.
    Rpc,
    /// Hot: GETs served from the client DRAM cache under a lease.
    Cached,
    /// Hot and stable: GETs served with a one-sided READ of the server's
    /// DRAM mirror.
    Mirror,
}

/// Null link of the LRU list.
const NIL: u32 = u32::MAX;

/// Everything the client tracks about one key: the promotion state
/// machine's counters, the cached entry if there is one, and the entry's
/// links in the LRU list. `entry.is_some()` exactly when the record is
/// linked.
struct Record {
    hits: u64,
    streak: u64,
    churn: u32,
    tier: Tier,
    /// `(lease epoch, length)` the key is cached at.
    entry: Option<(u64, u64)>,
    prev: u32,
    next: u32,
}

/// One [`Record`] per key ever read, in a slab that only grows, so a
/// record id stays valid across awaits. Records holding an entry form a
/// doubly linked list in recency order: `head` is the least recently
/// used (the next victim), `tail` the most recent.
struct Records {
    index: IdMap<u32>,
    slab: Vec<Record>,
    head: u32,
    tail: u32,
    cached: usize,
}

impl Records {
    fn new() -> Self {
        Records {
            index: IdMap::default(),
            slab: Vec::new(),
            head: NIL,
            tail: NIL,
            cached: 0,
        }
    }

    /// The id of `obj`'s record, created cold on first sight. The one
    /// index lookup of a GET.
    fn resolve(&mut self, obj: u64) -> u32 {
        let next = self.slab.len() as u32;
        let id = *self.index.entry(obj).or_insert(next);
        if id == next {
            assert!(next != NIL, "record ids exhausted");
            self.slab.push(Record {
                hits: 0,
                streak: 0,
                churn: 0,
                tier: Tier::Rpc,
                entry: None,
                prev: NIL,
                next: NIL,
            });
        }
        id
    }

    fn rec(&mut self, id: u32) -> &mut Record {
        &mut self.slab[id as usize]
    }

    fn unlink(&mut self, id: u32) {
        let (prev, next) = {
            let r = self.rec(id);
            (r.prev, r.next)
        };
        match prev {
            NIL => self.head = next,
            p => self.rec(p).next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.rec(n).prev = prev,
        }
    }

    fn push_mru(&mut self, id: u32) {
        let old_tail = self.tail;
        let r = self.rec(id);
        r.prev = old_tail;
        r.next = NIL;
        match old_tail {
            NIL => self.head = id,
            t => self.rec(t).next = id,
        }
        self.tail = id;
    }

    /// Mark `id`'s entry, if it still has one, most recently used.
    fn touch(&mut self, id: u32) {
        if self.rec(id).entry.is_some() && self.tail != id {
            self.unlink(id);
            self.push_mru(id);
        }
    }

    /// Drop `id`'s entry, if any.
    fn drop_entry(&mut self, id: u32) {
        if self.rec(id).entry.take().is_some() {
            self.unlink(id);
            self.cached -= 1;
        }
    }

    /// Cache `id` at `(epoch, len)` as the most recently used entry,
    /// evicting the least recently used one when `capacity` (> 0) entries
    /// are already held.
    fn fill(&mut self, id: u32, epoch: u64, len: u64, capacity: usize) {
        debug_assert!(capacity > 0, "a zero-capacity cache never fills");
        if self.rec(id).entry.is_some() {
            self.unlink(id);
        } else {
            if self.cached >= capacity {
                self.drop_entry(self.head);
            }
            self.cached += 1;
        }
        self.rec(id).entry = Some((epoch, len));
        self.push_mru(id);
    }

    /// Drop every entry and restart every key from the durable RPC tier.
    /// Returns how many entries were held.
    fn revoke_all(&mut self) -> usize {
        for r in &mut self.slab {
            r.entry = None;
            r.prev = NIL;
            r.next = NIL;
            r.tier = Tier::Rpc;
            r.streak = 0;
        }
        self.head = NIL;
        self.tail = NIL;
        std::mem::take(&mut self.cached)
    }
}

/// Pre-resolved cache metric handles (one lookup at build time, none on
/// the hot path), labeled with the shard and the inner system's kind.
struct CacheMetrics {
    hits: Counter,
    misses: Counter,
    fills: Counter,
    invalidations: Counter,
    promotions: Counter,
    demotions: Counter,
    mirror_reads: Counter,
    revocations: Counter,
}

/// An [`RpcClient`] decorator adding the lease cache and the adaptive
/// one-sided fast path in front of any durable client (a per-shard
/// `DurableClient` or a `ReplicatedClient`). Writes, scans, and cold keys
/// pass straight through; hot keys climb the tier ladder.
pub struct CachedClient {
    inner: Box<dyn RpcClient>,
    lease: LeaseState,
    cfg: CacheConfig,
    node: Node,
    /// The one-sided tier's switch: the client→server QP its READs take
    /// and the shard's mirror region they read, or `None` when the tier
    /// is off.
    mirror: Option<(Qp, MirrorRegion)>,
    /// Replicated topology only: promotion of a backup revokes every
    /// lease this client holds (tracked by the group's view epoch).
    view: Option<GroupView>,
    seen_view_epoch: Cell<u64>,
    records: RefCell<Records>,
    metrics: CacheMetrics,
}

impl CachedClient {
    /// Wrap `inner` with a lease cache against `lease`. `shard` labels
    /// this client's metric series; `mirror_qp` (client→shard server)
    /// enables the one-sided tier over `lease`'s mirror region; `view`
    /// enables revocation on backup promotion for replicated groups.
    pub(crate) fn new(
        inner: Box<dyn RpcClient>,
        lease: LeaseState,
        cfg: CacheConfig,
        node: Node,
        shard: u32,
        mirror_qp: Option<Qp>,
        view: Option<GroupView>,
    ) -> Self {
        let kind = inner.name();
        let m = &node.metrics;
        let k = |name: &'static str| Key::new(name).shard(shard).kind(kind);
        let metrics = CacheMetrics {
            hits: m.counter_handle(k("cache_hits")),
            misses: m.counter_handle(k("cache_misses")),
            fills: m.counter_handle(k("cache_fills")),
            invalidations: m.counter_handle(k("cache_invalidations")),
            promotions: m.counter_handle(k("cache_promotions")),
            demotions: m.counter_handle(k("cache_demotions")),
            mirror_reads: m.counter_handle(k("mirror_reads")),
            revocations: m.counter_handle(k("lease_revocations")),
        };
        let seen_view_epoch = Cell::new(view.as_ref().map_or(0, |v| v.epoch()));
        CachedClient {
            inner,
            cfg,
            node,
            mirror: mirror_qp.zip(lease.mirror().cloned()),
            lease,
            view,
            seen_view_epoch,
            records: RefCell::new(Records::new()),
            metrics,
        }
    }

    /// A backup promotion invalidates every lease granted by the failed
    /// primary: drop all entries and restart every key from the durable
    /// RPC tier.
    fn check_view(&self) {
        let Some(view) = &self.view else { return };
        let now = view.epoch();
        if now == self.seen_view_epoch.get() {
            return;
        }
        self.seen_view_epoch.set(now);
        let dropped = self.records.borrow_mut().revoke_all() as u64;
        self.metrics.revocations.incr(dropped.max(1));
    }

    fn jot(&self, kind: EventKind, obj: u64, epoch: u64) {
        let j = &self.node.journal;
        j.record(
            Subsystem::Rpc,
            kind,
            j.next_rpc_id(),
            self.lease.key_id(obj),
            epoch,
        );
    }

    /// Record an invalidation observed on record `id` (stale entry or
    /// stale mirror header): drop the entry and demote churned keys.
    fn note_invalidation(&self, id: u32) {
        let mut records = self.records.borrow_mut();
        records.drop_entry(id);
        let ks = records.rec(id);
        ks.streak = 0;
        ks.churn += 1;
        if ks.churn >= self.cfg.churn_demote && ks.tier != Tier::Rpc {
            ks.tier = Tier::Rpc;
            ks.churn = 0;
            self.metrics.demotions.incr(1);
        }
        self.metrics.invalidations.incr(1);
    }

    fn fill(&self, id: u32, epoch: u64, len: u64) {
        self.records
            .borrow_mut()
            .fill(id, epoch, len, self.cfg.capacity);
    }

    /// Serve a GET on the mirror tier. `Ok(Some(..))` on a validated
    /// one-sided read; `Ok(None)` when the key must fall back (not
    /// published, stale header) — the caller takes the miss path.
    async fn try_mirror_get(
        &self,
        id: u32,
        obj: u64,
        len: u64,
        epoch: u64,
    ) -> RpcResult<Option<Response>> {
        let Some((qp, mirror)) = &self.mirror else {
            return Ok(None);
        };
        let Some(addr) = mirror.addr_of(obj) else {
            return Ok(None);
        };
        // The journaled claim is "a one-sided read was issued under a
        // valid lease of `epoch`" — jotted at issue time, when the shared
        // lease table was just checked, so a put bumping the epoch while
        // the READ is in flight is concurrent, not a protocol violation.
        self.jot(EventKind::MirrorRead, obj, epoch);
        let bytes = qp
            .read_mirror(MemTarget::Dram(addr), MIRROR_HEADER_BYTES + len)
            .await?;
        self.metrics.mirror_reads.incr(1);
        if MirrorRegion::decode_epoch(&bytes) == Some(epoch) {
            Ok(Some(Response {
                payload: Some(Payload::synthetic(len, obj)),
                durable: true,
            }))
        } else {
            // The slot header moved past our lease while the READ was in
            // flight (or before publication caught up): treat as an
            // invalidation and fall back to the durable path.
            self.note_invalidation(id);
            Ok(None)
        }
    }

    async fn do_get(&self, obj: u64, len: u64) -> RpcResult<Response> {
        // The GET's one index lookup; every later step goes by `id`.
        let (id, tier, hits, cached) = {
            let mut records = self.records.borrow_mut();
            let id = records.resolve(obj);
            let ks = records.rec(id);
            ks.hits += 1;
            (id, ks.tier, ks.hits, ks.entry)
        };

        // Fast tiers. A *valid* local entry always serves locally — the
        // cheapest path on any tier (the hit pays one CPU poll). The
        // one-sided mirror READ is the *miss* accelerator: a Mirror-tier
        // key whose entry was evicted or invalidated refills with a
        // single RDMA READ of the server's mirror slot instead of a full
        // durable RPC.
        if tier != Tier::Rpc {
            let current = self.lease.epoch(obj);
            if let Some((entry_epoch, entry_len)) = cached {
                if entry_epoch == current && len <= entry_len {
                    self.jot(EventKind::CacheRead, obj, current);
                    self.node.cpu.poll_dispatch().await;
                    self.note_hit(id, obj, len);
                    return Ok(Response {
                        payload: Some(Payload::synthetic(len, obj)),
                        durable: true,
                    });
                } else if entry_epoch != current {
                    self.note_invalidation(id);
                }
            }
            // `note_invalidation` may have demoted the key; only a key
            // still on the mirror tier retries one-sided.
            let still_mirror = self.records.borrow().slab[id as usize].tier == Tier::Mirror;
            if still_mirror {
                if let Some(resp) = self.try_mirror_get(id, obj, len, current).await? {
                    // The slot header carried the current epoch: the READ
                    // re-validated the lease, so the entry refills without
                    // an RPC grant (the put's own invalidation record is
                    // the epoch's publication — see invariant I5b).
                    self.fill(id, current, len);
                    self.note_hit(id, obj, len);
                    return Ok(resp);
                }
            }
        }

        // Miss path: durable RPC, then fill under a version-validated
        // lease (only when no put bumped the epoch while the GET was in
        // flight — a fill at a newer epoch could claim bytes fresher than
        // the response actually carries). A zero-capacity cache holds
        // nothing, so it grants no lease and promotes no key.
        self.metrics.misses.incr(1);
        let before = self.lease.epoch(obj);
        let resp = self.inner.call(Request::Get { obj, len }).await?;
        if self.cfg.capacity > 0
            && hits >= self.cfg.hot_threshold
            && self.lease.epoch(obj) == before
        {
            self.fill(id, before, len);
            self.lease.jot_grant(obj, before, &self.node.journal);
            let mut records = self.records.borrow_mut();
            let ks = records.rec(id);
            if ks.tier == Tier::Rpc {
                ks.tier = Tier::Cached;
                self.metrics.promotions.incr(1);
            }
            self.metrics.fills.incr(1);
        }
        Ok(resp)
    }

    /// Consecutive validated hits before a key is promoted to the
    /// one-sided mirror tier.
    const MIRROR_THRESHOLD: u64 = 8;

    /// A validated hit makes the entry (if it survived the serving await)
    /// most recently used and extends the key's stability streak; a
    /// streak of [`MIRROR_THRESHOLD`](Self::MIRROR_THRESHOLD) publishes
    /// the key into the server mirror and promotes it to the one-sided
    /// tier.
    fn note_hit(&self, id: u32, obj: u64, len: u64) {
        self.metrics.hits.incr(1);
        let mut records = self.records.borrow_mut();
        records.touch(id);
        let ks = records.rec(id);
        ks.streak += 1;
        let Some((_, mirror)) = &self.mirror else {
            return;
        };
        if ks.tier == Tier::Cached
            && ks.streak >= Self::MIRROR_THRESHOLD
            && len <= mirror.value_capacity()
            && mirror.publish(obj, self.lease.epoch(obj)).is_some()
        {
            ks.tier = Tier::Mirror;
            self.metrics.promotions.incr(1);
        }
    }
}

impl RpcClient for CachedClient {
    fn call(&self, req: Request) -> RpcFuture<'_> {
        self.check_view();
        match req {
            Request::Get { obj, len } => Box::pin(self.do_get(obj, len)),
            other => self.inner.call(other),
        }
    }

    fn call_batch(&self, reqs: Vec<Request>) -> RpcBatchFuture<'_> {
        self.check_view();
        self.inner.call_batch(reqs)
    }

    fn append_record(&self, opcode: OpCode, obj_id: u64, data: Payload) -> RpcAppendFuture<'_> {
        self.inner.append_record(opcode, obj_id, data)
    }

    fn name(&self) -> &'static str {
        match self.inner.name() {
            "WFlush-RPC" => "WFlush-RPC+cache",
            "SFlush-RPC" => "SFlush-RPC+cache",
            "W-RFlush-RPC" => "W-RFlush-RPC+cache",
            "S-RFlush-RPC" => "S-RFlush-RPC+cache",
            _ => "cached",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prdma_pmem::VolatileMemory;
    use prdma_simnet::journal::NO_ID;
    use prdma_simnet::rng::SmallRng;
    use std::collections::BTreeMap;

    /// The bookkeeping `Records` replaced, kept as the reference: one
    /// `last_used` tick per cached key, the victim found by a scan.
    #[derive(Default)]
    struct ScanModel {
        tick: u64,
        last_used: BTreeMap<u64, u64>,
    }

    impl ScanModel {
        fn next_tick(&mut self) -> u64 {
            self.tick += 1;
            self.tick
        }

        fn touch(&mut self, obj: u64) {
            let t = self.next_tick();
            if let Some(e) = self.last_used.get_mut(&obj) {
                *e = t;
            }
        }

        /// Returns the key evicted to make room, if any.
        fn fill(&mut self, obj: u64, capacity: usize) -> Option<u64> {
            let t = self.next_tick();
            let mut victim = None;
            if !self.last_used.contains_key(&obj) && self.last_used.len() >= capacity {
                victim = self
                    .last_used
                    .iter()
                    .min_by_key(|(_, &used)| used)
                    .map(|(&k, _)| k);
                self.last_used.remove(&victim.expect("capacity > 0"));
            }
            self.last_used.insert(obj, t);
            victim
        }

        /// Cached keys, least recently used first.
        fn lru_order(&self) -> Vec<u64> {
            let mut v: Vec<_> = self.last_used.iter().map(|(&k, &t)| (t, k)).collect();
            v.sort_unstable();
            v.into_iter().map(|(_, k)| k).collect()
        }
    }

    /// Record ids head to tail, checking every back link on the way.
    fn lru_ids(r: &Records) -> Vec<u32> {
        let mut ids = Vec::new();
        let (mut prev, mut at) = (NIL, r.head);
        while at != NIL {
            assert_eq!(r.slab[at as usize].prev, prev, "back link of record {at}");
            ids.push(at);
            (prev, at) = (at, r.slab[at as usize].next);
        }
        assert_eq!(r.tail, prev, "tail is the last linked record");
        ids
    }

    /// Random fill / touch / invalidate / view-change steps: the LRU list
    /// must agree with the scan it replaced — same victim on every
    /// eviction, same recency order after every step — and never hold
    /// more than `capacity` entries.
    #[test]
    fn lru_list_matches_min_last_used_scan() {
        for case in 0..24u64 {
            let mut rng = SmallRng::seed_from_u64(0x16C4_C4E0 + case);
            let capacity = rng.gen_range(1usize..12);
            let keys = rng.gen_range(2 * capacity as u64..4 * capacity as u64 + 1);
            let mut real = Records::new();
            let mut model = ScanModel::default();
            let mut obj_of = Vec::new();
            let mut evictions = 0;
            for step in 0..400 {
                let ctx = format!("case {case} step {step}");
                // Sparse ids, so the index sees more than 0..n.
                let obj = rng.gen_range(0..keys) * 0x9E37_79B9;
                let id = real.resolve(obj);
                if id as usize == obj_of.len() {
                    obj_of.push(obj);
                }
                assert_eq!(obj_of[id as usize], obj, "{ctx}: id is stable");
                match rng.gen_range(0u32..100) {
                    0..=44 => {
                        let victim = model.fill(obj, capacity);
                        real.fill(id, step, 1024, capacity);
                        assert_eq!(real.slab[id as usize].entry, Some((step, 1024)));
                        if let Some(v) = victim {
                            evictions += 1;
                            let vid = real.resolve(v);
                            assert_eq!(real.slab[vid as usize].entry, None, "{ctx}: victim {v}");
                        }
                    }
                    45..=79 => {
                        model.touch(obj);
                        real.touch(id);
                    }
                    80..=96 => {
                        model.last_used.remove(&obj);
                        real.drop_entry(id);
                    }
                    _ => {
                        let held = model.last_used.len();
                        model.last_used.clear();
                        assert_eq!(real.revoke_all(), held, "{ctx}: entries revoked");
                        assert_eq!((real.head, real.tail, real.cached), (NIL, NIL, 0));
                    }
                }
                let listed: Vec<u64> = lru_ids(&real).iter().map(|&i| obj_of[i as usize]).collect();
                assert_eq!(listed, model.lru_order(), "{ctx}: recency order");
                let holding = real.slab.iter().filter(|r| r.entry.is_some()).count();
                assert_eq!(listed.len(), holding, "{ctx}: linked == holding an entry");
                assert_eq!(real.cached, holding, "{ctx}: cached count");
                assert!(real.cached <= capacity, "{ctx}: over capacity");
            }
            assert!(evictions > 0, "case {case} never evicted");
        }
    }

    #[test]
    fn lease_epochs_start_at_zero_and_bump() {
        let lease = LeaseState::new(3, None);
        assert_eq!(lease.epoch(7), 0);
        assert_eq!(lease.bump(7, NO_ID, &Journal::off()), 1);
        assert_eq!(lease.bump(7, NO_ID, &Journal::off()), 2);
        assert_eq!(lease.epoch(7), 2);
        assert_eq!(lease.epoch(8), 0);
        assert_eq!(lease.key_id(7), (3 << 44) | 7);
    }

    #[test]
    fn bump_refreshes_published_mirror_slot() {
        let dram = VolatileMemory::new(1 << 16);
        let mirror = MirrorRegion::new(dram.clone(), 0, 72, 4);
        let lease = LeaseState::new(0, Some(mirror));
        let addr = lease.mirror().unwrap().publish(5, 0).unwrap();
        assert_eq!(MirrorRegion::decode_epoch(&dram.read(addr, 8)), Some(0));
        lease.bump(5, NO_ID, &Journal::off());
        assert_eq!(MirrorRegion::decode_epoch(&dram.read(addr, 8)), Some(1));
    }
}
