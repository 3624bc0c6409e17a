//! Durable multi-shard transactions: FaRM-style OCC reads + durable 2PC
//! over the per-(client, shard) PM redo logs.
//!
//! The paper's durable RPCs decide durability at the PM log append and
//! recover by replaying the log suffix without client re-transmission.
//! This module lifts that property from single RPCs to atomic multi-key
//! updates spanning shards:
//!
//! 1. **Execution** — reads record `(key, version)` pairs; writes buffer
//!    locally in the [`Txn`].
//! 2. **Lock + validate** — commit locks the write set in shard host
//!    state (deterministic `(shard, local)` order) and validates that no
//!    read version moved and no read key is locked by another txn.
//! 3. **Prepare** — a durable `prepare` record (coordinator shard + the
//!    participant's write set) is appended — and flush-ACKed, per the
//!    connection's [`DurableKind`](crate::durable::DurableKind) — in
//!    *each participant shard's* redo log, fanned out concurrently like
//!    replicated puts. Fan-out is parallel across shards only: records to
//!    one shard share its connection with the client's puts and queue on
//!    that connection's persist permit (one persisting op at a time, see
//!    [`crate::durable`]).
//! 4. **Decide** — a durable `decided` record (commit flag + participant
//!    list) is appended at the *coordinator shard's* log (the lowest
//!    participant shard). The transaction is durably committed at this
//!    append's ACK: every later step is recoverable from the logs alone.
//! 5. **Ack** — the client bumps every written key's lease epoch (so
//!    cached reads are revoked *before* the txn ACK, preserving auditor
//!    invariant I5) and acknowledges commit. Commit-apply records fan
//!    out to the participants off the critical path; processing applies
//!    the staged writes and releases locks.
//!
//! **In-doubt resolution.** A prepare record is *not* marked done until
//! its transaction resolves, so a crashed participant's replay re-sees
//! it. Replay re-stages the writes (locks held) and consults the
//! coordinator's decided record through the [`TxnDirectory`] — for a txn
//! whose decide was issued, a scan of the coordinator shard's persistent
//! log rings, i.e. the logs alone; no client retransmit (a txn whose
//! decide was never issued has no such record, and no PM is read on its
//! behalf) — applying on commit, discarding on abort, and holding the
//! stage (locks and log head) while the outcome is genuinely unknown
//! (presumed-abort would race a live coordinator client that decides
//! commit after the participant recovered).
//!
//! The journal auditor checks invariant I6 over this protocol: no
//! `TxnAck` before every participant's prepare append and the decided
//! append, and no aborted txn ever applies staged writes.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use prdma_node::{Cluster, Node};
use prdma_rnic::Payload;
use prdma_simnet::journal::ids::{self, Ids};
use prdma_simnet::journal::{EventKind, Subsystem};
use prdma_simnet::rng::IdMap;
use prdma_simnet::JoinHandle;

use crate::cache::LeaseState;
use crate::durable::DurableConfig;
use crate::log::{LogEntry, OpCode, RedoLog};
use crate::rpc::{Request, RpcError, RpcResult};
use crate::shard::{build_fleet, Fleet, FleetSpec, ShardMap, ShardedClient};
use crate::store::ObjectStore;

// ---------------------------------------------------------------------------
// Record encoding
// ---------------------------------------------------------------------------

/// Decoded payload of a `TxnPrepare` log record.
struct PrepareRecord {
    /// Coordinator shard (where the decided record will live).
    coord: usize,
    /// The participant's write set: `(local object id, value bytes)`.
    writes: Vec<(u64, Payload)>,
}

/// Decoded payload of a `TxnDecide` log record.
struct DecideRecord {
    commit: bool,
}

/// A participant's prepare record from its `(local object id, value
/// bytes)` writes.
fn encode_prepare<'a, W>(coord: usize, writes: W) -> Payload
where
    W: ExactSizeIterator<Item = (u64, &'a [u8])> + Clone,
{
    let bytes = writes.clone().map(|(_, v)| 16 + v.len()).sum::<usize>();
    let mut out = Vec::with_capacity(16 + bytes);
    out.extend_from_slice(&(coord as u64).to_le_bytes());
    out.extend_from_slice(&(writes.len() as u64).to_le_bytes());
    for (obj, val) in writes {
        out.extend_from_slice(&obj.to_le_bytes());
        out.extend_from_slice(&(val.len() as u64).to_le_bytes());
        out.extend_from_slice(val);
    }
    Payload::from_bytes(out)
}

fn u64_at(bytes: &[u8], off: usize) -> Option<u64> {
    Some(u64::from_le_bytes(
        bytes.get(off..off + 8)?.try_into().ok()?,
    ))
}

fn decode_prepare(payload: &[u8]) -> Option<PrepareRecord> {
    let coord = u64_at(payload, 0)? as usize;
    let n = u64_at(payload, 8)? as usize;
    let mut writes = Vec::with_capacity(n);
    let mut off = 16usize;
    for _ in 0..n {
        let obj = u64_at(payload, off)?;
        let len = u64_at(payload, off + 8)? as usize;
        let val = payload.get(off + 16..off + 16 + len)?;
        writes.push((obj, Payload::from_slice(val)));
        off += 16 + len;
    }
    Some(PrepareRecord { coord, writes })
}

fn encode_decide(commit: bool, participants: &[usize]) -> Payload {
    let mut out = Vec::with_capacity(16 + 8 * participants.len());
    out.extend_from_slice(&(commit as u64).to_le_bytes());
    out.extend_from_slice(&(participants.len() as u64).to_le_bytes());
    for &p in participants {
        out.extend_from_slice(&(p as u64).to_le_bytes());
    }
    Payload::from_bytes(out)
}

fn decode_decide(payload: &[u8]) -> Option<DecideRecord> {
    let commit = u64_at(payload, 0)? == 1;
    Some(DecideRecord { commit })
}

// ---------------------------------------------------------------------------
// Directory: decision lookup from the logs alone
// ---------------------------------------------------------------------------

/// A registry of every shard's redo logs plus a volatile decision table.
///
/// In-doubt resolution asks "did txn T's coordinator decide?". The
/// durable ground truth is the coordinator shard's `TxnDecide` record,
/// and a positive answer the table does not already hold comes only from
/// the *persistent* view of the coordinator's rings — exactly what a
/// recovering node can see. The table decides *whether* PM is read, never
/// what it says: a client marks a txn [`Issued`](Decision::Issued) before
/// it posts the `TxnDecide` append, so a txn with no entry has no decided
/// record in any ring and resolves to `None` without a scan. Like the
/// shared [`LogCursor`](crate::log::LogCursor), the mark is harness-side
/// knowledge that survives a crash; outcomes do not —
/// [`forget_volatile`](TxnDirectory::forget_volatile) (recovery paths
/// call it first) downgrades them to `Issued`, forcing the next lookup
/// back to the logs.
#[derive(Clone, Default)]
pub struct TxnDirectory {
    inner: Rc<DirInner>,
}

/// What the directory knows about one txn's decided record.
#[derive(Clone, Copy)]
enum Decision {
    /// The `TxnDecide` append was (or is about to be) posted; whether it
    /// persisted, and what it says, is in the coordinator's rings.
    Issued,
    /// A decide / commit record was processed, or a scan found commit.
    Committed,
    /// An abort record was processed, or a scan found abort.
    Aborted,
}

#[derive(Default)]
struct DirInner {
    /// By shard: every redo log hosted by that shard (one per client
    /// lane).
    logs: RefCell<Vec<Vec<RedoLog>>>,
    /// Txn id → decision state; absent = no decide was ever issued.
    decisions: RefCell<IdMap<Decision>>,
    /// Lookups that read a coordinator's rings.
    ring_scans: Cell<u64>,
    /// Ring scans that found a decided record.
    scan_resolved: Cell<u64>,
    /// Lookups cross-checked against the full-scan reference.
    #[cfg(test)]
    oracle_checks: Cell<u64>,
}

impl TxnDirectory {
    /// An empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register one of `shard`'s redo logs for decision lookups.
    pub fn register(&self, shard: usize, log: RedoLog) {
        let mut logs = self.inner.logs.borrow_mut();
        if logs.len() <= shard {
            logs.resize_with(shard + 1, Vec::new);
        }
        logs[shard].push(log);
    }

    /// Announce that txn `txn`'s `TxnDecide` append is about to be
    /// posted. Must precede the append: from here on a lookup reads PM.
    fn note_issued(&self, txn: u64) {
        self.inner
            .decisions
            .borrow_mut()
            .entry(txn)
            .or_insert(Decision::Issued);
    }

    /// Record a decision observed in-band (processing a decide / commit /
    /// abort record). Volatile — survives nothing; the log records do.
    fn note_decision(&self, txn: u64, commit: bool) {
        let d = if commit {
            Decision::Committed
        } else {
            Decision::Aborted
        };
        self.inner.decisions.borrow_mut().insert(txn, d);
    }

    /// Forget every volatile outcome (keeping only that a decide was
    /// issued), forcing the next lookup to the durable log records.
    /// Recovery calls this so in-doubt resolution provably comes from
    /// the logs alone.
    pub fn forget_volatile(&self) {
        for d in self.inner.decisions.borrow_mut().values_mut() {
            *d = Decision::Issued;
        }
    }

    /// Lookups that read a coordinator's log rings so far (whether or
    /// not they found a decided record). Zero in fault-free operation.
    pub fn ring_scans(&self) -> u64 {
        self.inner.ring_scans.get()
    }

    /// Decisions that were resolved by scanning a coordinator's log rings
    /// (rather than the volatile table) so far.
    pub fn scan_resolved(&self) -> u64 {
        self.inner.scan_resolved.get()
    }

    /// Look up txn `txn`'s outcome: the volatile table, else — only if
    /// its decide was issued — a persistent ring scan of the coordinator
    /// shard's logs for its `TxnDecide` record. `None` means genuinely
    /// undecided (no decided record has persisted) — the caller must
    /// hold the transaction in-doubt.
    pub fn decision(&self, coord: usize, txn: u64) -> Option<bool> {
        let known = self.inner.decisions.borrow().get(&txn).copied();
        let answer = match known {
            Some(Decision::Committed) => return Some(true),
            Some(Decision::Aborted) => return Some(false),
            Some(Decision::Issued) => self.scan_coordinator(coord, txn),
            None => None,
        };
        #[cfg(test)]
        self.check_against_full_scan(coord, txn, answer);
        answer
    }

    /// Search `coord`'s persistent rings for txn `txn`'s decided record.
    /// A malformed record is skipped, not trusted: a valid retry
    /// duplicate may sit in a later slot or ring.
    fn scan_coordinator(&self, coord: usize, txn: u64) -> Option<bool> {
        let bump = |c: &Cell<u64>| c.set(c.get() + 1);
        bump(&self.inner.ring_scans);
        let commit = self
            .inner
            .logs
            .borrow()
            .get(coord)
            .into_iter()
            .flatten()
            .flat_map(|log| log.find_in_ring(OpCode::TxnDecide, txn))
            .find_map(|e| decode_decide(&e.payload))?
            .commit;
        bump(&self.inner.scan_resolved);
        self.note_decision(txn, commit);
        Some(commit)
    }

    /// The reference lookup — materialise every resident entry of every
    /// coordinator ring, whatever the table says — must agree with every
    /// answer the table did not already hold.
    #[cfg(test)]
    fn check_against_full_scan(&self, coord: usize, txn: u64, answer: Option<bool>) {
        let reference = self
            .inner
            .logs
            .borrow()
            .get(coord)
            .into_iter()
            .flatten()
            .flat_map(RedoLog::scan_ring)
            .filter(|e| e.op.opcode == OpCode::TxnDecide && e.op.obj_id == txn)
            .find_map(|e| decode_decide(&e.payload))
            .map(|d| d.commit);
        assert_eq!(answer, reference, "decision({coord}, {txn:#x})");
        self.inner
            .oracle_checks
            .set(self.inner.oracle_checks.get() + 1);
    }
}

// ---------------------------------------------------------------------------
// Per-shard transaction state
// ---------------------------------------------------------------------------

/// A staged (prepared, unresolved) transaction at one participant.
struct Staged {
    coord: usize,
    /// The prepare record's log index — marked done only at resolution.
    prep_index: u64,
    writes: Vec<(u64, Payload)>,
}

/// One shard's transaction host state: object versions (OCC), write
/// locks, and staged prepares. Shared (`Rc`) between the shard's server
/// processing path and every client's commit path — host state in the
/// simulation harness, like the lease tables; the durable ground truth
/// stays in the PM logs.
#[derive(Clone)]
pub struct TxnState {
    inner: Rc<StateInner>,
}

struct StateInner {
    shard: usize,
    dir: TxnDirectory,
    /// Local object id → version (bumped on every committed txn write).
    versions: RefCell<IdMap<u64>>,
    /// Local object id → owning txn id.
    locks: RefCell<IdMap<u64>>,
    /// Txn id → staged prepare awaiting resolution.
    staged: RefCell<IdMap<Staged>>,
    /// Committed transactions applied on this shard.
    applies: Cell<u64>,
}

impl TxnState {
    /// Fresh state for `shard`, resolving decisions through `dir`.
    pub fn new(shard: usize, dir: TxnDirectory) -> Self {
        TxnState {
            inner: Rc::new(StateInner {
                shard,
                dir,
                versions: RefCell::default(),
                locks: RefCell::default(),
                staged: RefCell::default(),
                applies: Cell::new(0),
            }),
        }
    }

    /// The shard this state belongs to.
    pub fn shard(&self) -> usize {
        self.inner.shard
    }

    /// Current version of local object `obj` (0 = never txn-written).
    pub fn version(&self, obj: u64) -> u64 {
        self.inner.versions.borrow().get(&obj).copied().unwrap_or(0)
    }

    /// The txn currently holding `obj`'s write lock, if any.
    pub fn lock_owner(&self, obj: u64) -> Option<u64> {
        self.inner.locks.borrow().get(&obj).copied()
    }

    /// Staged (in-doubt or not-yet-applied) transactions on this shard.
    pub fn staged_count(&self) -> usize {
        self.inner.staged.borrow().len()
    }

    /// Committed transactions applied on this shard so far.
    pub fn applied_txns(&self) -> u64 {
        self.inner.applies.get()
    }

    /// Acquire `obj`'s write lock for `txn`. Idempotent for the owner.
    fn try_lock(&self, obj: u64, txn: u64) -> bool {
        let mut locks = self.inner.locks.borrow_mut();
        match locks.get(&obj) {
            None => {
                locks.insert(obj, txn);
                true
            }
            Some(&owner) => owner == txn,
        }
    }

    /// Release every lock `txn` holds on this shard.
    fn unlock_all(&self, txn: u64) {
        self.inner
            .locks
            .borrow_mut()
            .retain(|_, owner| *owner != txn);
    }

    fn is_staged(&self, txn: u64) -> bool {
        self.inner.staged.borrow().contains_key(&txn)
    }

    /// Stage a prepared write set (replay-safe: locks are re-acquired
    /// idempotently — after a crash the host-state locks may or may not
    /// have survived, and never stomp another txn's lock).
    fn stage(&self, txn: u64, coord: usize, prep_index: u64, writes: Vec<(u64, Payload)>) {
        for (obj, _) in &writes {
            self.try_lock(*obj, txn);
        }
        self.inner.staged.borrow_mut().insert(
            txn,
            Staged {
                coord,
                prep_index,
                writes,
            },
        );
    }

    /// Apply a committed txn's staged writes to the store, bump their
    /// versions, release locks, and mark the prepare record done. Gated
    /// by the log's applied-id table: exactly-once under duplicate
    /// resolution paths (decide processing vs. commit record vs. replay).
    async fn apply_staged(&self, node: &Node, log: &RedoLog, store: &ObjectStore, txn: u64) {
        let st = self.inner.staged.borrow_mut().remove(&txn);
        let Some(st) = st else { return };
        if log.note_applied(txn) {
            let mut bytes = 0u64;
            for (obj, val) in &st.writes {
                let _ = store.put(*obj, val).await;
                bytes += val.len();
            }
            {
                let mut versions = self.inner.versions.borrow_mut();
                for (obj, _) in &st.writes {
                    *versions.entry(*obj).or_insert(0) += 1;
                }
            }
            self.inner.applies.set(self.inner.applies.get() + 1);
            node.journal.record(
                Subsystem::Rpc,
                EventKind::TxnApply,
                txn,
                node.id.0 as u64,
                bytes,
            );
        }
        self.unlock_all(txn);
        let _ = log.mark_done(st.prep_index).await;
    }

    /// Discard an aborted txn's staged writes, release locks, and mark
    /// the prepare record done (it resolved — to nothing).
    async fn discard_staged(&self, log: &RedoLog, txn: u64) {
        let st = self.inner.staged.borrow_mut().remove(&txn);
        self.unlock_all(txn);
        if let Some(st) = st {
            let _ = log.mark_done(st.prep_index).await;
        }
    }
}

/// Server-side interpretation of a transaction log record, called from
/// the durable worker pool (and, through it, recovery replay). `state`
/// is `None` on connections built without a transaction table: the
/// record is a no-op (marked done) rather than a wedge.
pub(crate) async fn process_txn_entry(
    node: &Node,
    log: &RedoLog,
    store: &ObjectStore,
    state: Option<&TxnState>,
    entry: &LogEntry,
) {
    let Some(state) = state else {
        let _ = log.mark_done(entry.index).await;
        return;
    };
    let txn = entry.op.obj_id;
    match entry.op.opcode {
        OpCode::TxnPrepare => {
            if log.was_applied(txn) {
                // Duplicate append (retry) of an already-applied txn.
                let _ = log.mark_done(entry.index).await;
                return;
            }
            if state.is_staged(txn) {
                // A retry duplicate at a new index, or a replay re-seeing
                // the staged prepare itself: the original stage governs.
                // Either way, re-consult the directory — this is how a
                // recovering participant resolves an in-doubt txn whose
                // coordinator decided while it was down.
                let (staged_idx, coord) = {
                    let staged = state.inner.staged.borrow();
                    let st = &staged[&txn];
                    (st.prep_index, st.coord)
                };
                if staged_idx != entry.index {
                    let _ = log.mark_done(entry.index).await;
                }
                match state.inner.dir.decision(coord, txn) {
                    Some(true) => state.apply_staged(node, log, store, txn).await,
                    Some(false) => state.discard_staged(log, txn).await,
                    None => {}
                }
                return;
            }
            let Some(p) = decode_prepare(&entry.payload) else {
                let _ = log.mark_done(entry.index).await;
                return;
            };
            let coord = p.coord;
            state.stage(txn, coord, entry.index, p.writes);
            // Resolution: the coordinator's decided record (via the
            // directory — the logs alone), observed in-band or found by
            // a replay's ring scan. Genuinely undecided prepares stay
            // staged, locked, and *not done* — they hold the log head
            // back so replay always re-sees them.
            match state.inner.dir.decision(coord, txn) {
                Some(true) => state.apply_staged(node, log, store, txn).await,
                Some(false) => state.discard_staged(log, txn).await,
                None => {}
            }
        }
        OpCode::TxnDecide => {
            if let Some(d) = decode_decide(&entry.payload) {
                state.inner.dir.note_decision(txn, d.commit);
                // The coordinator shard may itself be a participant with
                // a staged prepare; resolve it now.
                if d.commit {
                    state.apply_staged(node, log, store, txn).await;
                } else {
                    state.discard_staged(log, txn).await;
                }
            }
            let _ = log.mark_done(entry.index).await;
        }
        OpCode::TxnCommit => {
            state.inner.dir.note_decision(txn, true);
            state.apply_staged(node, log, store, txn).await;
            let _ = log.mark_done(entry.index).await;
        }
        OpCode::TxnAbort => {
            state.inner.dir.note_decision(txn, false);
            state.discard_staged(log, txn).await;
            let _ = log.mark_done(entry.index).await;
        }
        _ => {
            let _ = log.mark_done(entry.index).await;
        }
    }
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// Why a transaction aborted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortReason {
    /// A write-set key was locked by another transaction.
    WriteConflict,
    /// A read-set key's version moved (or it was locked) since the read.
    ReadValidation,
    /// A participant's prepare append failed even after retries.
    PrepareFailed,
}

/// Outcome of a [`ShardedClient::commit`] that reached a decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnOutcome {
    /// Durably committed: every participant's prepare and the decided
    /// record are flush-ACKed in PM.
    Committed,
    /// Aborted; no staged write will ever apply.
    Aborted(AbortReason),
}

/// Commit-pipeline observation points, for deterministic crash tests: a
/// hook installed via [`ShardedClient::set_phase_hook`] fires synchronously
/// at each point and may crash nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnPhase {
    /// A participant's prepare record was flush-ACKed (`1..=n`, in join
    /// order).
    AfterPrepare(usize),
    /// The coordinator's decided record was flush-ACKed.
    AfterDecide,
    /// The commit was acknowledged to the caller.
    AfterAck,
}

/// An open transaction: recorded reads and buffered writes.
pub struct Txn {
    id: u64,
    /// `(shard, local id, version at read)`.
    reads: Vec<(usize, u64, u64)>,
    /// `(global id, value bytes)`, in program order.
    writes: Vec<(u64, Vec<u8>)>,
}

impl Txn {
    /// This transaction's id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Buffer a write (applied only if the transaction commits). Later
    /// writes to the same key win.
    pub fn put(&mut self, obj: u64, data: &Payload) {
        let bytes = data
            .bytes()
            .map(|b| b.to_vec())
            .unwrap_or_else(|| vec![0u8; data.len() as usize]);
        self.writes.push((obj, bytes));
    }
}

/// Refusal of a client whose fleet keeps no transaction tables.
const NO_TXN_TABLES: RpcError =
    RpcError::Unsupported("transactions need an unreplicated build_fleet client");

/// One fleet client's 2PC bookkeeping (see [`ShardedClient::commit`]):
/// the fleet's per-shard tables its commits lock, validate and revoke
/// on, plus its own txn ids, counters and phase hook. The tables are
/// empty on a replicated fleet's client and on a [`ShardedClient::new`]
/// router, whose `read` and `commit` refuse.
pub(crate) struct TxnBook {
    states: Vec<TxnState>,
    leases: Vec<LeaseState>,
    node: Node,
    next_txn: Cell<u64>,
    ids: Ids,
    commits: Cell<u64>,
    aborts: Cell<u64>,
    #[allow(clippy::type_complexity)]
    hook: RefCell<Option<Box<dyn FnMut(TxnPhase)>>>,
}

impl TxnBook {
    /// The bookkeeping of client ordinal `lane` on `node` over the
    /// fleet's per-shard `states` and `leases`.
    pub(crate) fn new(
        node: &Node,
        lane: usize,
        states: &[TxnState],
        leases: &[LeaseState],
    ) -> Self {
        TxnBook {
            states: states.to_vec(),
            leases: leases.to_vec(),
            node: node.clone(),
            next_txn: Cell::new(0),
            ids: ids::txns(lane),
            commits: Cell::new(0),
            aborts: Cell::new(0),
            hook: RefCell::new(None),
        }
    }
}

impl ShardedClient {
    /// Transactions committed by this client.
    pub fn commits(&self) -> u64 {
        self.txn.commits.get()
    }

    /// Transactions aborted by this client.
    pub fn aborts(&self) -> u64 {
        self.txn.aborts.get()
    }

    /// Install a commit-pipeline observation hook (see [`TxnPhase`]).
    pub fn set_phase_hook(&self, f: impl FnMut(TxnPhase) + 'static) {
        *self.txn.hook.borrow_mut() = Some(Box::new(f));
    }

    fn phase(&self, p: TxnPhase) {
        if let Some(f) = self.txn.hook.borrow_mut().as_mut() {
            f(p);
        }
    }

    fn jot(&self, kind: EventKind, rpc_id: u64, wr_id: u64, bytes: u64) {
        let j = &self.txn.node.journal;
        j.record(Subsystem::Rpc, kind, rpc_id, wr_id, bytes);
    }

    /// Open a transaction.
    pub fn begin(&self) -> Txn {
        let c = self.txn.next_txn.get();
        self.txn.next_txn.set(c + 1);
        Txn {
            id: self.txn.ids.id(c),
            reads: Vec::new(),
            writes: Vec::new(),
        }
    }

    /// Transactional read: a GET on the owning shard's endpoint (served
    /// by its cache when the fleet has one), with the key's version
    /// recorded for commit-time validation.
    pub async fn read(&self, txn: &mut Txn, obj: u64, len: u64) -> RpcResult<Payload> {
        let (shard, local) = self.map.route(obj);
        let state = self.txn.states.get(shard).ok_or(NO_TXN_TABLES)?;
        let resp = self.shards[shard]
            .call(Request::Get { obj: local, len })
            .await?;
        txn.reads.push((shard, local, state.version(local)));
        Ok(resp.payload.unwrap_or_else(|| Payload::synthetic(0, local)))
    }

    fn validate_reads(&self, txn: &Txn) -> bool {
        txn.reads.iter().all(|&(shard, local, v)| {
            let st = &self.txn.states[shard];
            st.version(local) == v && st.lock_owner(local).is_none_or(|o| o == txn.id)
        })
    }

    /// A txn-record append on shard `shard`'s connection as a task of its
    /// own: prepares fan out this way and are joined; resolution records
    /// (commit-apply or abort) are fired and forgotten — their failures
    /// are survivable, the participant's replay resolves from the
    /// coordinator's decided record instead. Records to one shard queue
    /// behind each other (and behind puts) on the connection's permit.
    fn spawn_append(
        &self,
        shard: usize,
        opcode: OpCode,
        txn: u64,
        data: Payload,
    ) -> JoinHandle<RpcResult<u64>> {
        let client = Rc::clone(&self.shards[shard]);
        let h = self.txn.node.rnic().handle();
        h.spawn(async move { client.append_record(opcode, txn, data).await })
    }

    /// Commit the transaction: lock + OCC-validate, durable 2PC, lease
    /// revocation, ACK. `Ok(Aborted(_))` is a clean abort (nothing will
    /// apply anywhere); `Err(_)` means the decided append's fate is
    /// unknown — the transaction may commit during recovery, and the
    /// caller must not assume either outcome. A client without
    /// transaction tables (a replicated fleet's: 2PC over replica groups
    /// is not modelled) refuses with [`RpcError::Unsupported`] before
    /// logging anything.
    pub async fn commit(&self, mut txn: Txn) -> RpcResult<TxnOutcome> {
        let book = &self.txn;
        if book.states.is_empty() {
            return Err(NO_TXN_TABLES);
        }
        let id = txn.id;
        // Deduplicated write set in deterministic (shard, local) order:
        // a stable sort keeps each key's writes in program order, and the
        // dedup keeps the last of them.
        let mut ws: Vec<((usize, u64), Vec<u8>)> = std::mem::take(&mut txn.writes)
            .into_iter()
            .map(|(obj, bytes)| (self.map.route(obj), bytes))
            .collect();
        ws.sort_by_key(|&(key, _)| key);
        ws.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                std::mem::swap(&mut later.1, &mut kept.1);
            }
            same
        });

        if ws.is_empty() {
            // Read-only: validation against host state, no log records.
            return Ok(if self.validate_reads(&txn) {
                book.commits.set(book.commits.get() + 1);
                TxnOutcome::Committed
            } else {
                book.aborts.set(book.aborts.get() + 1);
                TxnOutcome::Aborted(AbortReason::ReadValidation)
            });
        }

        let mut participants: Vec<usize> = ws.iter().map(|&((shard, _), _)| shard).collect();
        participants.dedup();
        let coord = participants[0];

        // Phase 0: lock the write set, then validate the read set.
        let abort_local = |reason: AbortReason| {
            for &shard in &participants {
                book.states[shard].unlock_all(id);
            }
            self.jot(EventKind::TxnAbort, id, 0, 0);
            book.aborts.set(book.aborts.get() + 1);
            Ok(TxnOutcome::Aborted(reason))
        };
        for &((shard, local), _) in &ws {
            if !book.states[shard].try_lock(local, id) {
                return abort_local(AbortReason::WriteConflict);
            }
        }
        if !self.validate_reads(&txn) {
            return abort_local(AbortReason::ReadValidation);
        }

        // Phase 1: durable prepare records, fanned out concurrently to
        // every participant shard's log (like replicated puts).
        let mut joins = Vec::with_capacity(participants.len());
        for (&shard, writes) in participants
            .iter()
            .zip(ws.chunk_by(|((a, _), _), ((b, _), _)| a == b))
        {
            let writes = writes
                .iter()
                .map(|((_, local), bytes)| (*local, bytes.as_slice()));
            let payload = encode_prepare(coord, writes);
            let bytes = payload.len();
            let join = self.spawn_append(shard, OpCode::TxnPrepare, id, payload);
            joins.push((shard, bytes, join));
        }
        let mut prepared: Vec<usize> = Vec::with_capacity(participants.len());
        for (shard, bytes, join) in joins {
            if join.await.is_ok() {
                prepared.push(shard);
                self.jot(EventKind::TxnPrepare, id, shard as u64, bytes);
                self.phase(TxnPhase::AfterPrepare(prepared.len()));
            }
        }
        if prepared.len() < participants.len() {
            // Abort: durable abort records to the shards that did stage a
            // prepare (background, retried) release their stages; host
            // locks release now. No decided record ever says commit, so
            // replay can only discard.
            self.jot(EventKind::TxnAbort, id, prepared.len() as u64, 0);
            for &shard in &prepared {
                self.spawn_append(shard, OpCode::TxnAbort, id, Payload::from_bytes(Vec::new()));
            }
            for &shard in &participants {
                book.states[shard].unlock_all(id);
            }
            book.aborts.set(book.aborts.get() + 1);
            return Ok(TxnOutcome::Aborted(AbortReason::PrepareFailed));
        }

        // Phase 2: the decided record at the coordinator shard. Its
        // flush ACK is the commit point. A failure here is indeterminate
        // (the record may have persisted): surface the error, append no
        // aborts, and let recovery resolve from the logs. The directory
        // hears of the append before it is posted: from here on (and
        // only from here on) a lookup for this txn reads PM.
        let decide = encode_decide(true, &participants);
        book.states[coord].inner.dir.note_issued(id);
        self.shards[coord]
            .append_record(OpCode::TxnDecide, id, decide)
            .await?;
        self.jot(EventKind::TxnDecide, id, coord as u64, 1);
        self.phase(TxnPhase::AfterDecide);

        // Lease revocation for every written key *before* the txn ACK
        // (invariant I5a, with the TxnAck standing in for RpcComplete) —
        // on the tables a cached fleet's clients validate against.
        let mut total_bytes = 0u64;
        for &((shard, local), ref bytes) in &ws {
            book.leases[shard].bump(local, id, &book.node.journal);
            total_bytes += bytes.len() as u64;
        }
        self.jot(
            EventKind::TxnAck,
            id,
            participants.len() as u64,
            total_bytes,
        );
        book.commits.set(book.commits.get() + 1);
        self.phase(TxnPhase::AfterAck);

        // Phase 3 (off the critical path): commit-apply records fan out
        // to the participants; processing applies the staged writes and
        // releases locks. Lost records are covered by the decided record
        // at replay.
        for &shard in &participants {
            self.spawn_append(
                shard,
                OpCode::TxnCommit,
                id,
                Payload::from_bytes(Vec::new()),
            );
        }
        Ok(TxnOutcome::Committed)
    }
}

impl Fleet {
    /// The decision directory every connection's redo log is registered
    /// in.
    pub fn directory(&self) -> &TxnDirectory {
        &self.directory
    }

    /// Transactions currently in doubt (staged, unresolved) on `shard`.
    pub fn in_doubt(&self, shard: usize) -> usize {
        self.states[shard].staged_count()
    }
}

/// [`build_fleet`] with one server per shard and no cache: the fleet
/// whose clients run transactions. Kept under its old name for
/// `examples/perfbench` only.
pub fn build_sharded_txn(
    cluster: &Cluster,
    map: ShardMap,
    client_nodes: &[usize],
    cfg: &DurableConfig,
) -> Fleet {
    build_fleet(
        cluster,
        map,
        client_nodes,
        cfg,
        FleetSpec {
            replicas: 1,
            cache: None,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use crate::durable::DurableKind;
    use crate::rpc::{RetryPolicy, RpcClient, ServerProfile};
    use prdma_node::ClusterConfig;
    use prdma_simnet::fault::FaultKind;
    use prdma_simnet::{Sim, SimDuration};

    fn fixture(
        sim: &Sim,
        shards: usize,
        clients: usize,
        profile: ServerProfile,
        retry: RetryPolicy,
    ) -> (Cluster, Fleet) {
        let cluster = Cluster::new(sim.handle(), ClusterConfig::with_servers(shards, clients));
        let cfg = DurableConfig {
            profile,
            slot_payload: 1024,
            object_slot: 1024,
            store_capacity: 1 << 20,
            log_slots: 64,
            retry,
            ..Default::default()
        };
        let client_nodes: Vec<usize> = (shards..shards + clients).collect();
        let spec = FleetSpec {
            replicas: 1,
            cache: None,
        };
        let svc = build_fleet(&cluster, ShardMap::new(shards), &client_nodes, &cfg, spec);
        (cluster, svc)
    }

    fn txn_fixture(sim: &Sim, shards: usize, clients: usize) -> Fleet {
        let (profile, retry) = (ServerProfile::light(), RetryPolicy::default());
        fixture(sim, shards, clients, profile, retry).1
    }

    /// Heavy-profile fixture with a flat, short retry schedule, as in
    /// `tests/txn_commit_crash.rs`: `max_retries` decides whether an
    /// append rides out an outage or gives up.
    fn crash_fixture(
        sim: &Sim,
        shards: usize,
        clients: usize,
        max_retries: u32,
    ) -> (Cluster, Fleet) {
        let retry = RetryPolicy {
            request_timeout: SimDuration::from_micros(300),
            max_retries,
            backoff: SimDuration::from_micros(100),
            backoff_cap: SimDuration::from_micros(100),
            jitter_pct: 0,
        };
        fixture(sim, shards, clients, ServerProfile::heavy(), retry)
    }

    #[test]
    fn prepare_record_roundtrip() {
        let writes = vec![(3u64, vec![1u8, 2, 3]), (9, vec![]), (12, vec![0xFF; 64])];
        let p = encode_prepare(2, writes.iter().map(|(obj, v)| (*obj, v.as_slice())));
        let bytes: Vec<u8> = p.bytes().unwrap().to_vec();
        let d = decode_prepare(&bytes).unwrap();
        assert_eq!(d.coord, 2);
        let decoded: Vec<(u64, Vec<u8>)> = d
            .writes
            .iter()
            .map(|(obj, v)| (*obj, v.bytes().unwrap().to_vec()))
            .collect();
        assert_eq!(decoded, writes);
        assert!(decode_prepare(&bytes[..bytes.len() - 1]).is_none());
    }

    #[test]
    fn decide_record_roundtrip() {
        for commit in [true, false] {
            let p = encode_decide(commit, &[0, 3, 5]);
            let d = decode_decide(p.bytes().unwrap()).unwrap();
            assert_eq!(d.commit, commit);
        }
    }

    #[test]
    fn multi_shard_txn_commits_and_applies_everywhere() {
        let mut sim = Sim::new(101);
        let svc = txn_fixture(&sim, 3, 1);
        let client = svc.clients.into_iter().next().unwrap();
        let servers = svc.servers;
        let states = svc.states;
        sim.block_on(async move {
            let mut txn = client.begin();
            for obj in 0..3u64 {
                txn.put(obj, &Payload::from_bytes(vec![0x60 + obj as u8; 48]));
            }
            let out = client.commit(txn).await.unwrap();
            assert_eq!(out, TxnOutcome::Committed);
        });
        sim.run();
        // Striping: global obj o → shard o, local 0. Applied on all three.
        for (shard, per_client) in servers.iter().enumerate() {
            assert_eq!(
                per_client[0].store().persistent_bytes(0, 48),
                vec![0x60 + shard as u8; 48],
                "shard {shard}"
            );
            assert_eq!(states[shard].applied_txns(), 1, "shard {shard}");
            assert_eq!(states[shard].staged_count(), 0, "shard {shard}");
            assert_eq!(states[shard].version(0), 1, "shard {shard}");
        }
    }

    #[test]
    fn txn_reads_validate_and_commit_bumps_versions() {
        let mut sim = Sim::new(103);
        let svc = txn_fixture(&sim, 2, 1);
        let client = svc.clients.into_iter().next().unwrap();
        sim.block_on(async move {
            // Seed a value transactionally.
            let mut t0 = client.begin();
            t0.put(0, &Payload::from_bytes(vec![0xAB; 32]));
            assert_eq!(client.commit(t0).await.unwrap(), TxnOutcome::Committed);

            // Read-modify-write across both shards.
            let mut t1 = client.begin();
            let v = client.read(&mut t1, 0, 32).await.unwrap();
            assert_eq!(v.len(), 32);
            t1.put(1, &Payload::from_bytes(vec![0xCD; 32]));
            assert_eq!(client.commit(t1).await.unwrap(), TxnOutcome::Committed);
            assert_eq!(client.commits(), 2);
            assert_eq!(client.aborts(), 0);
        });
        sim.run();
    }

    #[test]
    fn conflicting_writers_abort_with_write_conflict() {
        let mut sim = Sim::new(107);
        let svc = txn_fixture(&sim, 2, 2);
        let mut it = svc.clients.into_iter();
        let c0 = it.next().unwrap();
        let c1 = it.next().unwrap();
        let states = svc.states;
        sim.block_on(async move {
            // c0 locks key 0 by reaching prepare… simulate the window by
            // taking the host lock directly through a half-committed txn:
            // run c0's commit and c1's commit concurrently on the same key.
            let mut t0 = c0.begin();
            t0.put(0, &Payload::from_bytes(vec![1; 16]));
            let mut t1 = c1.begin();
            t1.put(0, &Payload::from_bytes(vec![2; 16]));
            // Manually hold c0's lock to force the conflict window.
            assert!(states[0].try_lock(0, t0.id()));
            let out = c1.commit(t1).await.unwrap();
            assert_eq!(out, TxnOutcome::Aborted(AbortReason::WriteConflict));
            states[0].unlock_all(t0.id());
            assert_eq!(c0.commit(t0).await.unwrap(), TxnOutcome::Committed);
        });
        sim.run();
    }

    #[test]
    fn stale_read_aborts_with_read_validation() {
        let mut sim = Sim::new(109);
        let svc = txn_fixture(&sim, 2, 2);
        let mut it = svc.clients.into_iter();
        let c0 = it.next().unwrap();
        let c1 = it.next().unwrap();
        let h = sim.handle();
        sim.block_on(async move {
            let mut seed = c0.begin();
            seed.put(0, &Payload::from_bytes(vec![0; 16]));
            assert_eq!(c0.commit(seed).await.unwrap(), TxnOutcome::Committed);

            // c1 reads key 0, then c0 commits a new version under it.
            let mut t1 = c1.begin();
            c1.read(&mut t1, 0, 16).await.unwrap();
            t1.put(2, &Payload::from_bytes(vec![3; 16]));

            let mut t0 = c0.begin();
            t0.put(0, &Payload::from_bytes(vec![9; 16]));
            assert_eq!(c0.commit(t0).await.unwrap(), TxnOutcome::Committed);
            // Wait for the commit record to apply (version bump).
            loop {
                if c1.txn.states[0].version(0) >= 2 {
                    break;
                }
                h.sleep(prdma_simnet::SimDuration::from_micros(50)).await;
            }

            let out = c1.commit(t1).await.unwrap();
            assert_eq!(out, TxnOutcome::Aborted(AbortReason::ReadValidation));
        });
        sim.run();
    }

    #[test]
    fn every_durable_kind_commits_transactions() {
        for kind in DurableKind::ALL {
            let mut sim = Sim::new(113);
            let cluster = Cluster::new(sim.handle(), ClusterConfig::with_servers(2, 1));
            let cfg = DurableConfig {
                kind,
                profile: ServerProfile::light(),
                slot_payload: 1024,
                object_slot: 1024,
                store_capacity: 1 << 20,
                log_slots: 64,
                ..Default::default()
            };
            let spec = FleetSpec {
                replicas: 1,
                cache: None,
            };
            let svc = build_fleet(&cluster, ShardMap::new(2), &[2], &cfg, spec);
            let client = svc.clients.into_iter().next().unwrap();
            let servers = svc.servers;
            sim.block_on(async move {
                let mut txn = client.begin();
                txn.put(0, &Payload::from_bytes(vec![0x11; 24]));
                txn.put(1, &Payload::from_bytes(vec![0x22; 24]));
                assert_eq!(
                    client.commit(txn).await.unwrap(),
                    TxnOutcome::Committed,
                    "{kind:?}"
                );
            });
            sim.run();
            for (shard, per_client) in servers.iter().enumerate() {
                assert_eq!(
                    per_client[0].store().persistent_bytes(0, 24),
                    vec![0x11 + 0x11 * shard as u8; 24],
                    "{kind:?} shard {shard}"
                );
            }
        }
    }

    #[test]
    fn directory_resolves_decision_from_log_scan_alone() {
        let mut sim = Sim::new(127);
        let svc = txn_fixture(&sim, 2, 1);
        let dir = svc.directory().clone();
        let client = svc.clients.into_iter().next().unwrap();
        let txn_id = sim.block_on(async move {
            let mut txn = client.begin();
            txn.put(0, &Payload::from_bytes(vec![5; 16]));
            txn.put(1, &Payload::from_bytes(vec![6; 16]));
            let id = txn.id();
            assert_eq!(client.commit(txn).await.unwrap(), TxnOutcome::Committed);
            id
        });
        sim.run();
        // Drop the volatile cache: the decision must still be resolvable
        // from the coordinator's persisted decided record.
        dir.forget_volatile();
        let before = dir.scan_resolved();
        assert_eq!(dir.decision(0, txn_id), Some(true));
        assert_eq!(
            dir.scan_resolved(),
            before + 1,
            "resolution must scan the log"
        );
        // A txn whose decide was never issued has no record to find:
        // `None`, and no ring is read to say so.
        let scans = dir.ring_scans();
        assert_eq!(dir.decision(0, ids::txns(0).id(0xDEAD)), None);
        assert_eq!(dir.ring_scans(), scans, "never-issued lookup read PM");
    }

    #[test]
    fn fault_free_commits_never_scan_a_ring() {
        const CLIENTS: u64 = 4;
        const TXNS: u64 = 50;
        let mut sim = Sim::new(137);
        let svc = txn_fixture(&sim, 4, CLIENTS as usize);
        let dir = svc.directory().clone();
        let joins: Vec<_> = svc
            .clients
            .into_iter()
            .zip(0u64..)
            .map(|(client, c)| {
                sim.spawn(async move {
                    for i in 0..TXNS {
                        // Four fresh keys, one per shard (striped map).
                        let mut txn = client.begin();
                        for s in 0..4 {
                            let key = (c * TXNS + i) * 4 + s;
                            txn.put(key, &Payload::from_bytes(vec![key as u8; 32]));
                        }
                        assert_eq!(client.commit(txn).await.unwrap(), TxnOutcome::Committed);
                    }
                })
            })
            .collect();
        sim.block_on(async move {
            for j in joins {
                j.await;
            }
        });
        sim.run();
        for st in &svc.states {
            assert_eq!(st.applied_txns(), CLIENTS * TXNS);
            assert_eq!(st.staged_count(), 0);
        }
        assert_eq!(dir.ring_scans(), 0, "steady-state 2PC read a log ring");
        assert_eq!(dir.scan_resolved(), 0);
        // Every prepare's lookup was still cross-checked against the
        // full-scan reference: the `None`s were exact, not assumed.
        assert!(dir.inner.oracle_checks.get() >= CLIENTS * TXNS * 4);
    }

    #[test]
    fn corrupt_decide_record_does_not_hide_a_valid_duplicate() {
        let mut sim = Sim::new(139);
        let svc = txn_fixture(&sim, 1, 1);
        let dir = svc.directory().clone();
        let client = svc.clients.into_iter().next().unwrap();
        let id = ids::txns(0).id(77);
        dir.note_issued(id);
        sim.block_on(async move {
            // Slot 0: a truncated decide (no commit flag to decode).
            // Slot 1: the valid retry duplicate.
            let torn = Payload::from_bytes(vec![1, 0, 0]);
            let shard = &client.shards[0];
            shard
                .append_record(OpCode::TxnDecide, id, torn)
                .await
                .unwrap();
            let decide = encode_decide(true, &[0]);
            shard
                .append_record(OpCode::TxnDecide, id, decide)
                .await
                .unwrap();
        });
        sim.run();
        dir.forget_volatile();
        assert_eq!(dir.decision(0, id), Some(true));
        assert_eq!(dir.scan_resolved(), 1);
    }

    /// One 2-shard txn with node `victim` crashed at `at`, restarted and
    /// replayed 3 ms later. Every `decision` call on the way runs the
    /// `cfg(test)` full-scan cross-check; returns the service and the
    /// commit result.
    fn crash_during_commit(
        seed: u64,
        victim: usize,
        at: TxnPhase,
        max_retries: u32,
    ) -> (Rc<Fleet>, RpcResult<TxnOutcome>) {
        let mut sim = Sim::new(seed);
        let (cluster, mut svc) = crash_fixture(&sim, 2, 1, max_retries);
        let client = svc.clients.remove(0);
        let node = cluster.node(victim).clone();
        {
            let node = node.clone();
            client.set_phase_hook(move |ph| {
                if ph == at {
                    node.crash();
                }
            });
        }
        let svc = Rc::new(svc);
        let h = sim.handle();
        let out = sim.block_on({
            let svc = Rc::clone(&svc);
            async move {
                let commit = h.spawn(async move {
                    let mut t = client.begin();
                    t.put(0, &Payload::from_bytes(vec![0xA5; 64]));
                    t.put(1, &Payload::from_bytes(vec![0x5A; 64]));
                    client.commit(t).await
                });
                h.sleep(SimDuration::from_millis(3)).await;
                node.restart();
                let crash = FaultKind::NodeCrash {
                    down_for: SimDuration::from_millis(3),
                };
                svc.recover(victim, crash);
                let out = commit.await;
                h.sleep(SimDuration::from_millis(5)).await;
                out
            }
        });
        sim.run();
        assert!(svc.directory().inner.oracle_checks.get() > 0);
        (svc, out)
    }

    #[test]
    fn decisions_match_the_full_scan_reference_across_commit_crashes() {
        // Participant dies after the decide persisted; commit-record
        // retries exhaust, so its replay resolves by scan.
        let (svc, out) = crash_during_commit(0x27C2, 1, TxnPhase::AfterDecide, 3);
        assert_eq!(out.unwrap(), TxnOutcome::Committed);
        assert_eq!(svc.directory().scan_resolved(), 1);
        assert_eq!(svc.states[1].applied_txns(), 1);

        // Coordinator dies after both prepares; the decide rides out the
        // outage. Its replayed prepare finds nothing issued: no scan.
        let (svc, out) = crash_during_commit(0xC0DE, 0, TxnPhase::AfterPrepare(2), 200);
        assert_eq!(out.unwrap(), TxnOutcome::Committed);
        assert_eq!(
            svc.states[0].applied_txns() + svc.states[1].applied_txns(),
            2
        );

        // Coordinator down past the decide retries: issued, never
        // persisted. Replay scans, finds nothing, stays in doubt.
        let (svc, out) = crash_during_commit(0xD0BB, 0, TxnPhase::AfterPrepare(2), 3);
        assert!(out.is_err());
        assert!(svc.directory().ring_scans() > 0);
        assert_eq!(svc.directory().scan_resolved(), 0);
        assert_eq!(svc.in_doubt(0), 1);
    }

    #[test]
    fn decisions_match_the_full_scan_reference_in_a_seeded_mix_with_crashes() {
        use prdma_simnet::fault::FaultPlan;
        use prdma_simnet::rng::SmallRng;
        use prdma_simnet::SimTime;

        const SHARDS: usize = 4;
        const KEYS: u64 = 64;
        let mut sim = Sim::new(0x5EED);
        let (cluster, svc) = crash_fixture(&sim, SHARDS, 4, 200);
        // A node crash every 150 us, round-robin over the shards (each
        // is back up, 400 us later, before its next turn).
        const CRASHES: u64 = 16;
        let plan = (0..CRASHES).fold(FaultPlan::new(), |plan, i| {
            plan.at(
                SimTime::from_nanos(30_000 + i * 150_000),
                i as usize % SHARDS,
                FaultKind::NodeCrash {
                    down_for: SimDuration::from_micros(400),
                },
            )
        });
        let inj = cluster.inject_faults(plan);
        svc.wire_recovery(&inj);
        let dir = svc.directory().clone();
        let h = sim.handle();
        let joins: Vec<_> = svc
            .clients
            .into_iter()
            .zip(0u64..)
            .map(|(client, c)| {
                let h = h.clone();
                sim.spawn(async move {
                    // The txn_mix shape: 2 reads + 2 writes over a small
                    // shared keyspace, so clients collide and abort too.
                    let mut rng = SmallRng::seed_from_u64(0x5EED ^ c);
                    let mut committed = 0u64;
                    for _ in 0..60 {
                        let mut t = client.begin();
                        for _ in 0..2 {
                            let _ = client.read(&mut t, rng.gen_range(0..KEYS), 32).await;
                        }
                        for _ in 0..2 {
                            let key = rng.gen_range(0..KEYS);
                            t.put(key, &Payload::from_bytes(vec![key as u8; 32]));
                        }
                        if let Ok(TxnOutcome::Committed) = client.commit(t).await {
                            committed += 1;
                        }
                        h.sleep(SimDuration::from_micros(20)).await;
                    }
                    committed
                })
            })
            .collect();
        let committed = sim.block_on(async move {
            let mut committed = 0u64;
            for j in joins {
                committed += j.await;
            }
            h.sleep(SimDuration::from_millis(5)).await;
            committed
        });
        sim.run();
        assert_eq!(inj.stats().node_crashes, CRASHES);
        assert!(committed > 0);
        assert!(dir.ring_scans() > 0, "no crash opened a scan window");
        assert!(dir.inner.oracle_checks.get() > committed);
    }

    #[test]
    fn lease_epochs_bump_before_txn_ack() {
        let mut sim = Sim::new(131);
        let svc = txn_fixture(&sim, 2, 1);
        let client = svc.clients.into_iter().next().unwrap();
        let leases = svc.leases;
        sim.block_on(async move {
            let mut txn = client.begin();
            txn.put(0, &Payload::from_bytes(vec![1; 16]));
            txn.put(1, &Payload::from_bytes(vec![2; 16]));
            assert_eq!(client.commit(txn).await.unwrap(), TxnOutcome::Committed);
        });
        sim.run();
        assert_eq!(leases[0].epoch(0), 1);
        assert_eq!(leases[1].epoch(0), 1);
    }

    /// A journaled 2-shard fleet with `replicas` servers per shard and an
    /// optional cache, its client on node 2.
    fn journaled_fleet(sim: &Sim, replicas: usize, cache: Option<CacheConfig>) -> (Cluster, Fleet) {
        let mut ccfg = ClusterConfig::with_servers(2, 1);
        ccfg.journal = true;
        let cluster = Cluster::new(sim.handle(), ccfg);
        let cfg = DurableConfig {
            profile: ServerProfile::light(),
            slot_payload: 1024,
            object_slot: 1024,
            store_capacity: 1 << 20,
            log_slots: 64,
            ..Default::default()
        };
        let spec = FleetSpec { replicas, cache };
        let svc = build_fleet(&cluster, ShardMap::new(2), &[2], &cfg, spec);
        (cluster, svc)
    }

    /// 2PC over replica groups is not modelled: a replicated fleet's
    /// client refuses `read` and `commit` with `Unsupported` before it
    /// journals a transaction record or appends anything to a log.
    #[test]
    fn replicated_fleet_refuses_transactions_before_logging() {
        let mut sim = Sim::new(149);
        let (cluster, svc) = journaled_fleet(&sim, 2, None);
        assert!(svc.states.is_empty());
        let client = svc.clients.into_iter().next().unwrap();
        let (read, commit) = sim.block_on(async move {
            let mut txn = client.begin();
            let read = client.read(&mut txn, 0, 16).await.map(|_| ());
            txn.put(0, &Payload::from_bytes(vec![1; 16]));
            txn.put(1, &Payload::from_bytes(vec![2; 16]));
            (read, client.commit(txn).await)
        });
        sim.run();
        assert_eq!(read, Err(NO_TXN_TABLES));
        assert_eq!(commit, Err(NO_TXN_TABLES));
        let logged: Vec<_> = cluster
            .journal_records()
            .into_iter()
            .filter(|r| {
                matches!(
                    r.kind,
                    EventKind::LogAppend
                        | EventKind::TxnPrepare
                        | EventKind::TxnDecide
                        | EventKind::TxnAck
                        | EventKind::TxnAbort
                )
            })
            .collect();
        assert!(logged.is_empty(), "refused txn logged {logged:?}");
    }

    /// `append_record` is a trait method: a fleet's durable endpoint
    /// appends the record to its shard's log — through a cache in front
    /// of it too — while a replica group's endpoint and the sharded
    /// router itself refuse.
    #[test]
    fn records_append_through_durable_and_cached_endpoints_only() {
        let cache = CacheConfig {
            hot_threshold: 1,
            mirror: false,
            ..Default::default()
        };
        let id = ids::txns(0).id(5);
        for cache in [None, Some(cache)] {
            let mut sim = Sim::new(151);
            let (_cluster, svc) = journaled_fleet(&sim, 1, cache);
            let dir = svc.directory().clone();
            dir.note_issued(id);
            let client = svc.clients.into_iter().next().unwrap();
            sim.block_on(async move {
                let decide = encode_decide(true, &[0]);
                let shard = &client.shards[0];
                shard
                    .append_record(OpCode::TxnDecide, id, decide)
                    .await
                    .unwrap();
                let refused =
                    client.append_record(OpCode::TxnDecide, id, Payload::from_bytes(vec![]));
                assert!(matches!(refused.await, Err(RpcError::Unsupported(_))));
            });
            sim.run();
            dir.forget_volatile();
            assert_eq!(dir.decision(0, id), Some(true), "cache {}", cache.is_some());
        }
        let mut sim = Sim::new(151);
        let (_cluster, svc) = journaled_fleet(&sim, 2, None);
        let client = svc.clients.into_iter().next().unwrap();
        let got = sim.block_on(async move {
            let decide = encode_decide(true, &[0]);
            client.shards[0]
                .append_record(OpCode::TxnDecide, id, decide)
                .await
        });
        assert!(matches!(got, Err(RpcError::Unsupported(_))));
    }
}
