//! The PM redo log (paper Section 4.2, Fig. 5).
//!
//! A slotted ring buffer in the server's persistent memory. Clients append
//! log entries *remotely* (RDMA write or send + Flush); the server consumes
//! them with a worker pool and marks them done. Failure atomicity comes
//! from the entry layout: the commit word is the **last** 8 bytes the DMA
//! engine writes, so a torn entry is never mistaken for a valid one — this
//! is the paper's "data is always persisted before the RPC operator"
//! invariant, realized by DMA write ordering within one transfer.
//!
//! # The slot format
//!
//! This module is the format's one home: it sizes every ring, builds and
//! parses every entry image, and builds, reads and strips every causal
//! tag. No other module adds a header, tag or footer size to an address
//! or a length; they ask [`LogLayout`] for a slot, an entry's extent or
//! a value's address. All fields are little-endian `u64`s.
//!
//! | where | bytes | field | written by, when |
//! |---|---|---|---|
//! | region +0 | 8 | persisted head index | server CPU store + `clflush` in [`RedoLog::mark_done`], once the head is the persist interval past its last persisted value |
//! | region +8 | 56 | unused | — |
//! | slot +0 | 8 | `seq`: global index (monotonic across laps) | the client's RDMA write or send (DMA), as part of the entry image |
//! | slot +8 | 8 | opcode | DMA |
//! | slot +16 | 8 | `obj_id`, the operand | DMA |
//! | slot +24 | 8 | `payload_len`: the tag (if any) plus the value | DMA |
//! | slot +32 | 8 | state: 0 pending, 1 done | DMA writes 0; the server CPU stores 1 in [`RedoLog::mark_done`], unflushed |
//! | slot +40 | 8 | causal tag, on [`OpCode::RPut`] entries only | DMA |
//! | after the tag | value | the value | DMA |
//! | after the value | 0–7 | zero padding to an 8-byte boundary | DMA |
//! | slot +40 + `payload_len` rounded up to 8 | 8 | commit word, `seq` xor a fixed magic | DMA, last |
//!
//! The 64-byte region header holds the persistent head; recovery scans
//! forward from it, accepting entries whose commit word matches their
//! expected global index, and returns those not yet marked done — in
//! FIFO order, preserving the paper's ordering guarantee for concurrent
//! RPCs. Every ring's slot holds a tagged value of the configured
//! largest size (`LogLayout::alloc`), so a plain put and a tagged one
//! of the same value both fit.
//!
//! # Who reads payload bytes
//!
//! Validity, the operator and `done` sit in the header and the commit
//! word, so [`RedoLog::read_header`] answers them from 48 bytes whatever
//! the entry's size. The per-put paths read the header alone: the arrival
//! check (`ServerCtx::handle_arrival`) and the worker's dispatch of a
//! plain `Put` (`process_entry`), whose data travels with the work item.
//! Payload bytes are read only where they are decoded: a tagged put's tag
//! (`RedoLog::tag_of`), the four `Txn*` records, the recovery scans
//! (the replayed entry *is* its payload) and the decided record
//! [`RedoLog::find_in_ring`] returns.

use std::cell::Cell;
use std::rc::Rc;

use prdma_pmem::{DaxAllocator, PmDevice, PmRegion};
use prdma_rnic::{MemTarget, Payload, PersistToken, Qp, RdmaResult};
use prdma_simnet::journal::ids::Ids;
use prdma_simnet::journal::{EventKind, Subsystem, NO_ID};
use prdma_simnet::rng::IdSet;
use prdma_simnet::trace::Phase;
use prdma_simnet::SimDuration;

use crate::flush::FlushOps;

/// Commit-word magic; an entry is valid iff `commit == COMMIT_MAGIC ^ seq`.
const COMMIT_MAGIC: u64 = 0x5052_444D_414C_4F47; // "PRDMALOG"

/// Bytes reserved at the start of the log region for the header.
const LOG_HEADER_BYTES: u64 = 64;

/// Fixed per-entry header bytes (seq..state).
const ENTRY_HEADER: u64 = 40;

/// Commit word size.
const ENTRY_FOOTER: u64 = 8;

/// Bytes of the causal tag that prefixes a tagged entry's value.
const TAG_BYTES: u64 = 8;

const STATE_PENDING: u64 = 0;
const STATE_DONE: u64 = 1;

/// Flow control: how long a throttled sender backs off before it looks at
/// the ring again.
const THROTTLE_BACKOFF: SimDuration = SimDuration::from_micros(20);

/// Operators that get logged (reads are not logged — they mutate nothing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpCode {
    /// Store an object.
    Put,
    /// A tagged put: the payload is an 8-byte causal tag, shared by every
    /// re-append of the same logical put (every replica's leg, every
    /// retry of a batch), then the value; the tag deduplicates retry
    /// re-appends at apply time.
    RPut,
    /// A transaction's prepare record at one participant shard: the
    /// payload encodes the coordinator shard and the participant's write
    /// set; `obj_id` carries the txn id. Not marked done until the txn
    /// resolves, so recovery always re-sees in-flight prepares.
    TxnPrepare,
    /// The coordinator's decided record (`obj_id` = txn id; payload =
    /// commit flag + participant shard list). In-doubt participant
    /// replays consult this record — and only this record — to resolve.
    TxnDecide,
    /// A commit-apply record at one participant (`obj_id` = txn id):
    /// processing applies the staged writes and releases locks.
    TxnCommit,
    /// An abort record at one participant (`obj_id` = txn id):
    /// processing discards the staged writes and releases locks.
    TxnAbort,
}

impl OpCode {
    fn to_u64(self) -> u64 {
        match self {
            OpCode::Put => 1,
            // 2 is unassigned and decodes as invalid.
            OpCode::RPut => 3,
            OpCode::TxnPrepare => 4,
            OpCode::TxnDecide => 5,
            OpCode::TxnCommit => 6,
            OpCode::TxnAbort => 7,
        }
    }

    fn from_u64(v: u64) -> Option<Self> {
        match v {
            1 => Some(OpCode::Put),
            3 => Some(OpCode::RPut),
            4 => Some(OpCode::TxnPrepare),
            5 => Some(OpCode::TxnDecide),
            6 => Some(OpCode::TxnCommit),
            7 => Some(OpCode::TxnAbort),
            _ => None,
        }
    }
}

/// The logged RPC operator: opcode + operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RpcOperator {
    /// What to do.
    pub opcode: OpCode,
    /// Which object it concerns.
    pub obj_id: u64,
}

/// Geometry of a log ring within a PM region.
#[derive(Debug, Clone, Copy)]
pub struct LogLayout {
    /// The backing PM region (header + slots).
    region: PmRegion,
    /// Slot size in bytes (must hold header + max payload + footer).
    slot_size: u64,
    /// Number of slots.
    pub slots: u64,
}

impl LogLayout {
    /// Allocate region `name` from `alloc` for a ring of `slots` slots,
    /// each holding a tagged value of up to `max_value` bytes.
    ///
    /// # Panics
    /// Panics if the PM cannot hold the region, or `slots` is below two.
    pub(crate) fn alloc(alloc: &DaxAllocator, name: &str, slots: u64, max_value: u64) -> Self {
        assert!(slots >= 2, "a log ring needs at least 2 slots");
        let slot_size = align8(TAG_BYTES + max_value) + ENTRY_HEADER + ENTRY_FOOTER;
        let region = alloc
            .alloc(name, LOG_HEADER_BYTES + slots * slot_size, 64)
            .expect("PM too small for log region");
        LogLayout {
            region,
            slot_size,
            slots,
        }
    }

    /// Largest payload an entry can carry.
    fn max_payload(&self) -> u64 {
        self.slot_size - ENTRY_HEADER - ENTRY_FOOTER
    }

    /// Device address of the slot for global index `index`.
    pub fn slot_addr(&self, index: u64) -> u64 {
        self.region.offset + LOG_HEADER_BYTES + (index % self.slots) * self.slot_size
    }

    /// Device address of the payload (tag, then value) of entry `index`.
    fn payload_addr(&self, index: u64) -> u64 {
        self.slot_addr(index) + ENTRY_HEADER
    }

    /// Device address of the value of entry `index`, logged as `opcode`:
    /// past the tag of a tagged entry.
    pub fn value_addr(&self, index: u64, opcode: OpCode) -> u64 {
        self.payload_addr(index) + if opcode == OpCode::RPut { TAG_BYTES } else { 0 }
    }

    /// Offset of the commit word within a slot, for a given payload size.
    fn commit_offset(payload_len: u64) -> u64 {
        ENTRY_HEADER + align8(payload_len)
    }

    /// `(address, length)` of the bytes the DMA writes for entry `index`
    /// with a `payload_len`-byte payload: header through commit word.
    pub(crate) fn entry_extent(&self, index: u64, payload_len: u64) -> (u64, u64) {
        let len = Self::commit_offset(payload_len) + ENTRY_FOOTER;
        (self.slot_addr(index), len)
    }
}

#[inline]
fn align8(v: u64) -> u64 {
    (v + 7) & !7
}

/// The payload of a tagged entry ([`OpCode::RPut`]): causal tag `tag`,
/// then `value`. The value is shared, not copied.
pub(crate) fn tagged(tag: u64, value: Payload) -> Payload {
    Payload::composite_of([Payload::from_slice(&tag.to_le_bytes()), value])
}

/// A tagged payload's value, without its tag. An arrival carries
/// [`tagged`]'s `[tag, value]` as built, so the value is shared, and a
/// synthetic one stays timing-only; a recovery requeue carries the logged
/// bytes, which are copied.
pub(crate) fn untagged(payload: &Payload) -> Payload {
    match payload {
        Payload::Composite(parts) if parts.len() == 2 && parts[0].len() == TAG_BYTES => {
            parts[1].clone()
        }
        Payload::Inline(bytes) => {
            Payload::from_slice(bytes.get(TAG_BYTES as usize..).unwrap_or_default())
        }
        other => Payload::synthetic(other.len().saturating_sub(TAG_BYTES), 0),
    }
}

/// Serialize a log entry as a DMA image: real header/footer bytes wrapped
/// around the (possibly synthetic) payload, so the commit word is the last
/// thing written. Three allocations: the header, the footer and the part
/// list, each built on the stack first.
pub fn encode_entry(index: u64, op: RpcOperator, data: &Payload) -> Payload {
    let payload_len = data.len();
    let mut header = [0u8; ENTRY_HEADER as usize];
    let fields = [
        index,
        op.opcode.to_u64(),
        op.obj_id,
        payload_len,
        STATE_PENDING,
    ];
    for (at, field) in header.chunks_exact_mut(8).zip(fields) {
        at.copy_from_slice(&field.to_le_bytes());
    }
    // Zero padding up to the 8-byte boundary, then the commit word.
    let pad = (align8(payload_len) - payload_len) as usize;
    let mut footer = [0u8; 7 + ENTRY_FOOTER as usize];
    footer[pad..pad + 8].copy_from_slice(&(COMMIT_MAGIC ^ index).to_le_bytes());
    Payload::composite_of([
        Payload::from_slice(&header),
        data.clone(),
        Payload::from_slice(&footer[..pad + 8]),
    ])
}

/// Parse the entry index back out of a DMA image produced by
/// [`encode_entry`] — the first header field. Send-based arrival handling
/// identifies an inbound entry from the packet itself rather than trusting
/// uninterrupted in-order delivery: a recv WQE consumed by a crash-aborted
/// send never completes, so a completion counter would stay offset for
/// every entry after the restart.
pub fn entry_index_from_image(image: &Payload) -> Option<u64> {
    let header = match image {
        Payload::Composite(parts) => parts.first()?,
        other => other,
    };
    let bytes = header.bytes()?;
    Some(u64::from_le_bytes(bytes.get(..8)?.try_into().ok()?))
}

/// Extract the data part from an entry image produced by [`encode_entry`]
/// (header, data, footer) — used by arrival handlers that need the payload
/// without re-reading PM.
pub(crate) fn entry_data_part(image: &Payload) -> Payload {
    match image {
        Payload::Composite(parts) if parts.len() == 3 => parts[1].clone(),
        other => other.clone(),
    }
}

/// A committed entry found in the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEntry {
    /// Global slot index.
    pub index: u64,
    /// The logged operator.
    pub op: RpcOperator,
    /// Payload bytes as read from PM (synthetic benchmark payloads read
    /// back as whatever the region held; correctness tests use inline
    /// payloads).
    pub payload: Vec<u8>,
    /// Whether the server had marked it done before the scan.
    pub done: bool,
}

/// The fixed fields of a committed entry, read without its payload: what
/// the arrival path needs to accept an entry and what the worker needs to
/// dispatch it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryHeader {
    /// Global slot index.
    pub index: u64,
    /// The logged operator.
    pub op: RpcOperator,
    /// Payload length in bytes.
    pub payload_len: u64,
    /// Whether the server had marked it done.
    pub done: bool,
}

impl EntryHeader {
    /// The whole entry, given the payload bytes read for this header.
    pub fn with_payload(self, payload: Vec<u8>) -> LogEntry {
        LogEntry {
            index: self.index,
            op: self.op,
            payload,
            done: self.done,
        }
    }
}

/// Shared head/tail cursors: the client advances `tail` as it appends, the
/// server advances `head` as it completes. `tail - head` is the outstanding
/// depth the flow controller watches.
#[derive(Clone, Default)]
pub struct LogCursor {
    inner: Rc<CursorInner>,
}

#[derive(Default)]
struct CursorInner {
    head: Cell<u64>,
    tail: Cell<u64>,
    /// Head value durably recorded in PM. In a `DurableServer` it stays
    /// 0 until the head first reaches the head-persist interval and then
    /// follows the head, one flush per advance ([`RedoLog::mark_done`]).
    /// The writer must never reuse slots past this point, or recovery
    /// could miss live entries after a wrap.
    durable_head: Cell<u64>,
}

impl LogCursor {
    /// A fresh cursor at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Completed-up-to index.
    pub fn head(&self) -> u64 {
        self.inner.head.get()
    }

    /// Next index to append.
    pub fn tail(&self) -> u64 {
        self.inner.tail.get()
    }

    /// Entries appended but not yet completed.
    pub fn outstanding(&self) -> u64 {
        self.inner.tail.get() - self.inner.head.get()
    }

    fn advance_tail(&self) -> u64 {
        let t = self.inner.tail.get();
        self.inner.tail.set(t + 1);
        t
    }

    fn set_head(&self, h: u64) {
        self.inner.head.set(h);
    }

    /// Durably-recorded head (wrap-safety bound for the writer).
    pub fn durable_head(&self) -> u64 {
        self.inner.durable_head.get()
    }

    fn set_durable_head(&self, h: u64) {
        self.inner.durable_head.set(h);
    }

    /// Reset both cursors (post-recovery reinitialization).
    pub fn reset(&self, head: u64, tail: u64) {
        self.inner.head.set(head);
        self.inner.tail.set(tail);
        self.inner.durable_head.set(head);
    }
}

/// Server-side view of the redo log: completion marking, head advancement,
/// and crash recovery.
#[derive(Clone)]
pub struct RedoLog {
    pm: PmDevice,
    layout: LogLayout,
    cursor: LogCursor,
    /// Done flags of the entries at or past the head, one bit per ring
    /// slot (`index % slots`): the writer never runs a lap ahead of the
    /// head, so `[head, head + slots)` maps onto the slots one to one.
    /// Volatile; cleared on recovery.
    done_window: Rc<[Cell<u64>]>,
    /// Causal put ids already applied to the object store (replicated
    /// puts only, see [`OpCode::RPut`]). Retained across [`recover`]
    /// (RedoLog::recover): it models the dedup table a production system
    /// would persist alongside the store, so a retry duplicate whose
    /// original was applied pre-crash still skips re-apply after replay.
    applied_ids: Rc<std::cell::RefCell<IdSet>>,
    /// Persist the head pointer once it is this many entries past
    /// `persisted_head` (1 = persist on every completion). Up to
    /// `interval - 1` already-processed entries then replay after a
    /// crash — harmless, because Put replay is idempotent.
    head_persist_interval: u64,
    /// Last head value this copy durably recorded. A plain `Cell`, so
    /// each clone counts from the value it was cloned with: a clone
    /// taken from a copy that never flushed starts at 0 and, once the
    /// head reaches the interval, flushes on every advance.
    persisted_head: Cell<u64>,
    /// This log's journal ids: log events carry the entry's id as
    /// `rpc_id`, so the auditor can match appends, completions, and
    /// recovery replays per lane.
    ids: Ids,
}

impl RedoLog {
    /// Open a redo log over `layout`, sharing `cursor` with the client,
    /// journaled under `ids` and persisting its head once it
    /// is `head_persist_interval` entries past the last persisted value
    /// (see the field docs).
    pub fn new(
        pm: PmDevice,
        layout: LogLayout,
        cursor: LogCursor,
        ids: Ids,
        head_persist_interval: u64,
    ) -> Self {
        RedoLog {
            pm,
            layout,
            cursor,
            done_window: (0..layout.slots.div_ceil(64))
                .map(|_| Cell::new(0))
                .collect(),
            applied_ids: Rc::default(),
            head_persist_interval: head_persist_interval.max(1),
            persisted_head: Cell::new(0),
            ids,
        }
    }

    /// Record causal put id `id` as applied; returns `true` iff it was
    /// fresh (first application). A `false` return means a retry
    /// duplicate: the entry must still be marked done, but the store
    /// write is skipped (exactly-once apply under at-least-once append).
    pub fn note_applied(&self, id: u64) -> bool {
        self.applied_ids.borrow_mut().insert(id)
    }

    /// Whether causal id `id` has already been applied (no side effect).
    pub fn was_applied(&self, id: u64) -> bool {
        self.applied_ids.borrow().contains(&id)
    }

    /// Find the resident `(opcode, obj_id)` entries in the *persistent*
    /// view of the ring, regardless of cursor state, in slot order. Each
    /// slot stores the sequence number of the entry occupying it; only
    /// the 40-byte header is read per slot, and a slot whose resident seq
    /// maps back to itself and whose header matches is then validated
    /// (commit word) and its payload copied. Used by transaction
    /// recovery to look up a coordinator's decided record from the logs
    /// alone — valid for any record appended within the last ring lap,
    /// which covers in-flight transactions (their prepare records hold
    /// participant heads back).
    pub fn find_in_ring(&self, opcode: OpCode, obj_id: u64) -> impl Iterator<Item = LogEntry> + '_ {
        let want = opcode.to_u64();
        (0..self.layout.slots).filter_map(move |slot| {
            let header = self
                .pm
                .read_persistent_view(self.layout.slot_addr(slot), ENTRY_HEADER);
            let seq = u64_at(&header, 0);
            if seq % self.layout.slots != slot
                || u64_at(&header, 8) != want
                || u64_at(&header, 16) != obj_id
            {
                return None;
            }
            self.read_entry_from(seq, true)
        })
    }

    /// Every ring slot's resident entry from the persistent view, fully
    /// materialised: the reference [`find_in_ring`](RedoLog::find_in_ring)
    /// is tested against.
    #[cfg(test)]
    pub(crate) fn scan_ring(&self) -> Vec<LogEntry> {
        let mut out = Vec::new();
        for slot in 0..self.layout.slots {
            let addr = self.layout.slot_addr(slot);
            let seq = u64_at(&self.pm.read_persistent_view(addr, 8), 0);
            if seq % self.layout.slots != slot {
                continue;
            }
            if let Some(e) = self.read_entry_from(seq, true) {
                out.push(e);
            }
        }
        out
    }

    fn jot(&self, subsystem: Subsystem, kind: EventKind, index: u64, bytes: u64) {
        let j = self.pm.journal();
        j.record(subsystem, kind, self.ids.id(index), index, bytes);
    }

    /// The log geometry.
    pub fn layout(&self) -> &LogLayout {
        &self.layout
    }

    /// The shared cursor.
    pub fn cursor(&self) -> &LogCursor {
        &self.cursor
    }

    /// The header of the committed entry at `index` in the CPU's view of
    /// PM (`None` unless the slot holds a valid entry for `index`), at the
    /// cost of 48 bytes read whatever the payload size.
    pub fn read_header(&self, index: u64) -> Option<EntryHeader> {
        self.read_header_from(index, false)
    }

    /// The payload bytes of the entry `header` was read from.
    pub fn read_payload(&self, header: &EntryHeader) -> Vec<u8> {
        self.read_payload_from(header, false)
    }

    /// The causal tag of tagged entry `index`, from the CPU's view of PM:
    /// the only bytes of its payload a replicated put's apply reads back.
    pub(crate) fn tag_of(&self, index: u64) -> u64 {
        let mut tag = [0u8; TAG_BYTES as usize];
        let addr = self.layout.payload_addr(index);
        self.pm.copy_volatile_view(addr, &mut tag);
        u64::from_le_bytes(tag)
    }

    fn read_payload_from(&self, header: &EntryHeader, persistent_only: bool) -> Vec<u8> {
        let addr = self.layout.payload_addr(header.index);
        if persistent_only {
            self.pm.read_persistent_view(addr, header.payload_len)
        } else {
            self.pm.read_volatile_view(addr, header.payload_len)
        }
    }

    /// The validity rule: the slot's sequence number is `index`, the
    /// opcode is known, the length fits a slot, and the commit word —
    /// the last bytes the DMA wrote — matches.
    fn read_header_from(&self, index: u64, persistent_only: bool) -> Option<EntryHeader> {
        let addr = self.layout.slot_addr(index);
        let copy = |addr: u64, out: &mut [u8]| {
            if persistent_only {
                self.pm.copy_persistent_view(addr, out)
            } else {
                self.pm.copy_volatile_view(addr, out)
            }
        };
        let mut header = [0u8; ENTRY_HEADER as usize];
        copy(addr, &mut header);
        if u64_at(&header, 0) != index {
            return None;
        }
        let opcode = OpCode::from_u64(u64_at(&header, 8))?;
        let payload_len = u64_at(&header, 24);
        if payload_len > self.layout.max_payload() {
            return None;
        }
        let mut commit = [0u8; ENTRY_FOOTER as usize];
        copy(addr + LogLayout::commit_offset(payload_len), &mut commit);
        (u64::from_le_bytes(commit) == COMMIT_MAGIC ^ index).then_some(EntryHeader {
            index,
            op: RpcOperator {
                opcode,
                obj_id: u64_at(&header, 16),
            },
            payload_len,
            done: u64_at(&header, 32) == STATE_DONE,
        })
    }

    fn read_entry_from(&self, index: u64, persistent_only: bool) -> Option<LogEntry> {
        let header = self.read_header_from(index, persistent_only)?;
        let payload = self.read_payload_from(&header, persistent_only);
        Some(header.with_payload(payload))
    }

    /// `read_entry_from` as it was before the header and the payload were
    /// read apart: the reference [`read_header`](RedoLog::read_header) is
    /// tested against.
    #[cfg(test)]
    fn read_entry_reference(&self, index: u64, persistent_only: bool) -> Option<LogEntry> {
        let addr = self.layout.slot_addr(index);
        let read = |a: u64, l: u64| {
            if persistent_only {
                self.pm.read_persistent_view(a, l)
            } else {
                self.pm.read_volatile_view(a, l)
            }
        };
        let header = read(addr, ENTRY_HEADER);
        let seq = u64_at(&header, 0);
        if seq != index {
            return None;
        }
        let opcode = OpCode::from_u64(u64_at(&header, 8))?;
        let obj_id = u64_at(&header, 16);
        let payload_len = u64_at(&header, 24);
        let state = u64_at(&header, 32);
        if payload_len > self.layout.max_payload() {
            return None;
        }
        let commit_addr = addr + LogLayout::commit_offset(payload_len);
        let commit = u64_at(&read(commit_addr, 8), 0);
        if commit != COMMIT_MAGIC ^ index {
            return None;
        }
        let payload = read(addr + ENTRY_HEADER, payload_len);
        Some(LogEntry {
            index,
            op: RpcOperator { opcode, obj_id },
            payload,
            done: state == STATE_DONE,
        })
    }

    /// The done-window word and bit of entry `index`'s ring slot.
    fn done_bit(&self, index: u64) -> (&Cell<u64>, u64) {
        let slot = index % self.layout.slots;
        (&self.done_window[(slot / 64) as usize], 1 << (slot % 64))
    }

    /// Mark entry `index` done: a volatile 8-byte state update (CPU
    /// store), advance the head over contiguous completions, and persist
    /// the head pointer once it is the configured interval past this
    /// copy's last persisted value. Through one handle that is every
    /// `interval` completions, and a crash replays fewer than `interval`
    /// already-applied entries (idempotent). A `DurableServer` marks
    /// through a fresh clone per handler, each cloned from a copy that
    /// never flushed, so there the head is not persisted until it
    /// reaches `interval` and then on every advance (DESIGN.md §6).
    pub async fn mark_done(&self, index: u64) -> RdmaResult<()> {
        let state_addr = self.layout.slot_addr(index) + 32;
        self.pm.cache_write(state_addr, &STATE_DONE.to_le_bytes())?;
        self.jot(Subsystem::Log, EventKind::LogDone, index, 0);
        // Advance head over contiguous completions. An index the head has
        // already passed (a stale re-completion) sets no bit.
        let mut head = self.cursor.head();
        assert!(index < head + self.layout.slots, "done a lap ahead");
        if index >= head {
            let (word, bit) = self.done_bit(index);
            word.set(word.get() | bit);
        }
        loop {
            let (word, bit) = self.done_bit(head);
            if word.get() & bit == 0 {
                break;
            }
            word.set(word.get() & !bit);
            head += 1;
        }
        if head != self.cursor.head() {
            self.cursor.set_head(head);
            if head - self.persisted_head.get() >= self.head_persist_interval {
                // Log maintenance: composite LogPersist span on top of the
                // PmMedia time the flush itself records.
                let _span = self.pm.tracer().span(Phase::LogPersist);
                let head_addr = self.layout.region.offset;
                self.pm.cache_write(head_addr, &head.to_le_bytes())?;
                self.pm.clflush(head_addr, 8).await?;
                self.persisted_head.set(head);
                self.cursor.set_durable_head(head);
            }
        }
        Ok(())
    }

    /// Crash recovery: read the persistent head, scan forward collecting
    /// valid entries, and return the **incomplete** ones in FIFO order.
    /// Zero simulated time is charged here: the entries replay through
    /// the server's worker pool like fresh arrivals
    /// (`DurableServer::recover`).
    pub fn recover(&self) -> Vec<LogEntry> {
        let head_bytes = self.pm.read_persistent_view(self.layout.region.offset, 8);
        let head = u64_at(&head_bytes, 0);
        self.jot(Subsystem::Recovery, EventKind::RecoveryStart, head, 0);
        // The shared cursor survives the crash in the harness (it is host
        // state): its tail is how far the client had appended, which bounds
        // the slots the scan can fail to reach.
        let appended_tail = self.cursor.tail().max(head);
        // A full lap from the head sees everything.
        let (pending, end) = self.scan(head, head + self.layout.slots, true);
        for e in &pending {
            let replay = EventKind::RecoveryReplay;
            self.jot(Subsystem::Recovery, replay, e.index, e.payload.len() as u64);
        }
        // Slots appended beyond the first invalid entry did not survive
        // the crash (torn or still in volatile buffers): report them lost
        // so the auditor can account for every append.
        for lost in end..appended_tail {
            self.jot(Subsystem::Recovery, EventKind::RecoveryLost, lost, 0);
        }
        // Rebuild volatile cursors: tail = first invalid index.
        self.cursor.reset(head, end);
        self.persisted_head.set(head);
        self.done_window.iter().for_each(|word| word.set(0));
        pending
    }

    /// Service-restart scan: the un-done suffix from the current head, in
    /// FIFO order, **without** touching cursors. A service-only crash
    /// preserves the NIC, caches, PM, and the shared cursor, and clients
    /// keep appending one-sided entries while the service is away — a
    /// [`recover`](RedoLog::recover)-style tail rewind here would reissue
    /// indices the client already used. The scan stops at the first
    /// invalid slot: entries beyond it are in-flight appends whose DMA has
    /// not landed yet; the normal arrival path delivers those.
    ///
    /// Journals an informational `RecoveryStart` (ids `NO_ID`, so the
    /// auditor's replay-window invariant — which models all-or-nothing
    /// volatile loss, not a live log — does not apply) carrying the number
    /// of entries to replay.
    pub fn scan_pending(&self) -> Vec<LogEntry> {
        let (pending, _) = self.scan(self.cursor.head(), self.cursor.tail(), false);
        self.pm.journal().record(
            Subsystem::Recovery,
            EventKind::RecoveryStart,
            NO_ID,
            NO_ID,
            pending.len() as u64,
        );
        pending
    }

    /// The one scan both recoveries run: walk the valid entries from
    /// `from` up to (not including) `until`, in the persistent view or the
    /// CPU's, and stop at the first invalid slot. Returns the un-done
    /// entries in FIFO order and the index the walk stopped at.
    fn scan(&self, from: u64, until: u64, persistent_only: bool) -> (Vec<LogEntry>, u64) {
        let mut end = from;
        let pending = (from..until)
            .map_while(|idx| self.read_header_from(idx, persistent_only))
            .inspect(|_| end += 1)
            .filter(|header| !header.done)
            .map(|header| header.with_payload(self.read_payload_from(&header, persistent_only)))
            .collect();
        (pending, end)
    }
}

fn u64_at(bytes: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(bytes[off..off + 8].try_into().expect("u64 slice"))
}

/// Client-side remote appender: composes entry images and writes them into
/// the server's log ring over RDMA.
pub struct RemoteLogWriter {
    qp: Qp,
    flush: FlushOps,
    layout: LogLayout,
    cursor: LogCursor,
    /// Flow control: max outstanding entries before throttling (paper
    /// Section 4.2: "the receiver should notify the sender to slow down").
    throttle_threshold: u64,
    /// Journal ids of the [`RedoLog`] this writer appends to.
    ids: Ids,
    /// Times the flow controller put this sender to sleep (throttle
    /// threshold hit or ring-wrap safety); shared so a metrics provider
    /// can sample it.
    stalls: Rc<Cell<u64>>,
}

/// Receipt for an appended entry.
pub struct Appended {
    /// The entry's global index.
    pub index: u64,
    /// Flush probe target (last written byte).
    pub probe: MemTarget,
    /// Resolves when the entry's DMA lands (durable if DDIO is off).
    pub token: PersistToken,
}

impl RemoteLogWriter {
    /// Build a writer over `qp` appending into `layout`, flow-controlled by
    /// the shared `cursor`, journaled under `ids` (those of the
    /// [`RedoLog`] it appends to).
    pub fn new(
        qp: Qp,
        flush: FlushOps,
        layout: LogLayout,
        cursor: LogCursor,
        throttle_threshold: u64,
        ids: Ids,
    ) -> Self {
        RemoteLogWriter {
            qp,
            flush,
            layout,
            cursor,
            throttle_threshold,
            ids,
            stalls: Rc::default(),
        }
    }

    /// Shared stall counter, for metrics providers.
    pub(crate) fn stall_cell(&self) -> Rc<Cell<u64>> {
        Rc::clone(&self.stalls)
    }

    /// The journal id for log entry `index` — what LogAppend records
    /// carry, and what RPC dispatch/complete records should reuse so the
    /// auditor can pair them.
    pub fn journal_id(&self, index: u64) -> u64 {
        self.ids.id(index)
    }

    fn jot_append(&self, index: u64, bytes: u64) {
        self.qp.local().journal().record(
            Subsystem::Log,
            EventKind::LogAppend,
            self.journal_id(index),
            index,
            bytes,
        );
    }

    /// The flush operations bound to this writer's QP.
    pub fn flush(&self) -> &FlushOps {
        &self.flush
    }

    /// The log geometry.
    pub fn layout(&self) -> &LogLayout {
        &self.layout
    }

    /// Throttle while the server is saturated: the paper's flow control —
    /// when outstanding entries exceed the threshold the sender briefly
    /// pauses new RPCs.
    pub async fn flow_control(&self) {
        // Hard bound: never reuse a slot that is not durably trimmed —
        // recovery scans from the durable head, so overwriting beyond it
        // could hide live entries after a ring wrap.
        let hard = self.layout.slots - 1;
        loop {
            let throttled = self.cursor.outstanding() >= self.throttle_threshold.min(hard);
            let wrap_unsafe = self.cursor.tail() - self.cursor.durable_head() >= hard;
            if !throttled && !wrap_unsafe {
                return;
            }
            self.stalls.set(self.stalls.get() + 1);
            self.qp.local().handle().sleep(THROTTLE_BACKOFF).await;
        }
    }

    /// The slot-staging prelude every append shares: check the payload
    /// fits a slot, claim the next index, journal the append, and compose
    /// the entry's DMA image.
    fn stage(&self, op: RpcOperator, data: &Payload) -> (u64, Payload) {
        assert!(
            data.len() <= self.layout.max_payload(),
            "payload {} exceeds slot capacity {}",
            data.len(),
            self.layout.max_payload()
        );
        let index = self.cursor.advance_tail();
        self.jot_append(index, data.len());
        (index, encode_entry(index, op, data))
    }

    fn receipt(&self, index: u64, len: u64, token: PersistToken) -> Appended {
        // The probe is the last byte the DMA writes: the commit word's.
        let (addr, len) = self.layout.entry_extent(index, len);
        let probe = MemTarget::Pm(addr + len - 1);
        Appended {
            index,
            probe,
            token,
        }
    }

    /// Append via one-sided RDMA write (WFlush / W-RFlush RPC families).
    /// Returns once the sender's WC fires (data in remote SRAM); call
    /// [`FlushOps::wflush`] on `probe` (or await a receiver ACK) for
    /// durability.
    pub async fn append_write(&self, op: RpcOperator, data: &Payload) -> RdmaResult<Appended> {
        self.flow_control().await;
        let (index, image) = self.stage(op, data);
        // Stamp the QP so the NIC-level journal records (doorbell, wire
        // segments, ACK) of this append carry the entry's rpc id — the
        // span analyzer stitches them into the per-RPC causal tree.
        self.qp.tag_rpc(self.journal_id(index));
        let slot = MemTarget::Pm(self.layout.slot_addr(index));
        let token = self.qp.write(slot, image).await?;
        Ok(self.receipt(index, data.len(), token))
    }

    /// Doorbell-batched appends (paper Fig. 19 / Section 4.3): `k` entries
    /// posted with one doorbell, pipelined on the wire, single coalesced
    /// RC ACK. Flush once on the last receipt's probe.
    pub async fn append_write_batch<'a>(
        &self,
        items: impl Iterator<Item = (RpcOperator, &'a Payload)>,
    ) -> RdmaResult<Vec<Appended>> {
        self.flow_control().await;
        let (writes, metas): (Vec<_>, Vec<_>) = items
            .map(|(op, data)| {
                let (index, image) = self.stage(op, data);
                let slot = MemTarget::Pm(self.layout.slot_addr(index));
                ((slot, image), (index, data.len()))
            })
            .unzip();
        // One doorbell for the whole batch: its NIC records carry the
        // first entry's id (the batch is a single causal unit).
        if let Some((first, _)) = metas.first() {
            self.qp.tag_rpc(self.journal_id(*first));
        }
        let tokens = self.qp.write_batch(writes).await?;
        Ok(metas
            .into_iter()
            .zip(tokens)
            .map(|((index, len), token)| self.receipt(index, len, token))
            .collect())
    }

    /// Append via two-sided RDMA send (SFlush / S-RFlush RPC families).
    /// The server must keep recv buffers posted at the upcoming slots (the
    /// model of the RNIC resolving the destination address itself).
    pub async fn append_send(&self, op: RpcOperator, data: &Payload) -> RdmaResult<Appended> {
        self.flow_control().await;
        let (index, image) = self.stage(op, data);
        self.qp.tag_rpc(self.journal_id(index));
        let token = self.qp.send(image).await?;
        Ok(self.receipt(index, data.len(), token))
    }
}

/// The largest value of the test rings, whose slots are 1 KiB.
#[cfg(test)]
const TEST_VALUE: u64 = 1024 - ENTRY_HEADER - TAG_BYTES - ENTRY_FOOTER;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flush::FlushImpl;
    use prdma_node::{Cluster, ClusterConfig};
    use prdma_rnic::QpMode;
    use prdma_simnet::journal::ids;
    use prdma_simnet::Sim;

    fn fixture(sim: &Sim) -> (RemoteLogWriter, RedoLog, Cluster) {
        let cluster = Cluster::new(sim.handle(), ClusterConfig::with_nodes(2));
        let server = cluster.node(0);
        let layout = LogLayout::alloc(&server.alloc, "log", 8, TEST_VALUE);
        let cursor = LogCursor::new();
        let (qc, _qs) = cluster.connect(1, 0, QpMode::Rc);
        let writer = RemoteLogWriter::new(
            qc.clone(),
            FlushOps::new(qc, FlushImpl::Emulated),
            layout,
            cursor.clone(),
            64,
            ids::log_lane(0, 0),
        );
        // Tests assert exact recovery sets; persist the head eagerly.
        let log = RedoLog::new(server.pm.clone(), layout, cursor, ids::log_lane(0, 0), 1);
        (writer, log, cluster)
    }

    fn put(obj: u64) -> RpcOperator {
        RpcOperator {
            opcode: OpCode::Put,
            obj_id: obj,
        }
    }

    #[test]
    fn append_then_read_roundtrip() {
        let mut sim = Sim::new(1);
        let (writer, log, _c) = fixture(&sim);
        sim.block_on(async move {
            let data = Payload::from_bytes(b"hello log".to_vec());
            let a = writer.append_write(put(7), &data).await.unwrap();
            writer.flush().wflush(a.probe).await.unwrap();
            let e = log.read_entry_from(a.index, false).expect("entry valid");
            assert_eq!(e.op, put(7));
            assert_eq!(e.payload, b"hello log");
            assert!(!e.done);
        });
    }

    #[test]
    fn entry_survives_crash_after_flush_ack() {
        let mut sim = Sim::new(1);
        let (writer, log, cluster) = fixture(&sim);
        let node = cluster.node(0).clone();
        sim.block_on(async move {
            let a = writer
                .append_write(put(1), &Payload::from_bytes(vec![0xCD; 100]))
                .await
                .unwrap();
            writer.flush().wflush(a.probe).await.unwrap();
            // Power failure after the flush ACK.
            node.crash();
            node.restart();
            let pending = log.recover();
            assert_eq!(pending.len(), 1);
            assert_eq!(pending[0].op, put(1));
            assert_eq!(pending[0].payload, vec![0xCD; 100]);
        });
    }

    #[test]
    fn unflushed_entry_may_be_lost_but_never_torn() {
        let mut sim = Sim::new(1);
        let (writer, log, cluster) = fixture(&sim);
        let node = cluster.node(0).clone();
        sim.block_on(async move {
            // Crash immediately after the WC, before any flush: the entry
            // may be in RNIC SRAM only.
            let a = writer
                .append_write(put(2), &Payload::from_bytes(vec![1; 64]))
                .await
                .unwrap();
            drop(a);
            node.crash();
            node.restart();
            let pending = log.recover();
            // Either fully there or fully absent; a torn entry would have
            // been returned with a mismatched commit word (read_entry
            // rejects it).
            assert!(pending.len() <= 1);
            for e in pending {
                assert_eq!(e.payload, vec![1; 64]);
            }
        });
    }

    #[test]
    fn mark_done_excludes_from_recovery_and_advances_head() {
        let mut sim = Sim::new(1);
        let (writer, log, cluster) = fixture(&sim);
        let node = cluster.node(0).clone();
        sim.block_on(async move {
            let mut receipts = Vec::new();
            for i in 0..3u64 {
                let a = writer
                    .append_write(put(i), &Payload::from_bytes(vec![i as u8; 32]))
                    .await
                    .unwrap();
                writer.flush().wflush(a.probe).await.unwrap();
                receipts.push(a);
            }
            log.mark_done(receipts[0].index).await.unwrap();
            log.mark_done(receipts[1].index).await.unwrap();
            assert_eq!(log.cursor().head(), 2);
            node.crash();
            node.restart();
            let pending = log.recover();
            assert_eq!(pending.len(), 1);
            assert_eq!(pending[0].op.obj_id, 2);
        });
    }

    #[test]
    fn out_of_order_completion_holds_head_back() {
        let mut sim = Sim::new(1);
        let (writer, log, _c) = fixture(&sim);
        sim.block_on(async move {
            for i in 0..3u64 {
                let a = writer
                    .append_write(put(i), &Payload::from_bytes(vec![0; 8]))
                    .await
                    .unwrap();
                writer.flush().wflush(a.probe).await.unwrap();
            }
            // Complete 1 then 2; head must stay at 0 until 0 completes.
            log.mark_done(1).await.unwrap();
            log.mark_done(2).await.unwrap();
            assert_eq!(log.cursor().head(), 0);
            log.mark_done(0).await.unwrap();
            assert_eq!(log.cursor().head(), 3);
        });
    }

    #[test]
    fn ring_wraps_and_recovery_stops_at_stale_lap() {
        let mut sim = Sim::new(1);
        let (writer, log, cluster) = fixture(&sim);
        let node = cluster.node(0).clone();
        // 8 slots; append 11 entries, completing the first 8 so the ring
        // can wrap; entries 8..10 stay pending.
        sim.block_on(async move {
            assert_eq!(log.layout().slots, 8);
            for i in 0..11u64 {
                let a = writer
                    .append_write(put(i), &Payload::from_bytes(vec![i as u8; 16]))
                    .await
                    .unwrap();
                writer.flush().wflush(a.probe).await.unwrap();
                if i < 8 {
                    log.mark_done(i).await.unwrap();
                }
            }
            node.crash();
            node.restart();
            let pending = log.recover();
            assert_eq!(
                pending.iter().map(|e| e.op.obj_id).collect::<Vec<_>>(),
                vec![8, 9, 10]
            );
        });
    }

    #[test]
    fn flow_control_throttles_at_threshold() {
        let mut sim = Sim::new(1);
        let cluster = Cluster::new(sim.handle(), ClusterConfig::with_nodes(2));
        let server = cluster.node(0);
        let layout = LogLayout::alloc(&server.alloc, "log", 64, TEST_VALUE);
        let cursor = LogCursor::new();
        let (qc, _qs) = cluster.connect(1, 0, QpMode::Rc);
        let writer = RemoteLogWriter::new(
            qc.clone(),
            FlushOps::new(qc, FlushImpl::Emulated),
            layout,
            cursor.clone(),
            4, // throttle at 4 outstanding
            ids::log_lane(0, 0),
        );
        // The server "completes" the first entry only at t = 300us.
        {
            let cursor = cursor.clone();
            let h = sim.handle();
            sim.spawn(async move {
                h.sleep(SimDuration::from_micros(300)).await;
                let tail = cursor.tail();
                cursor.reset(1, tail);
            });
        }
        let h = sim.handle();
        let t = sim.block_on(async move {
            for _ in 0..5 {
                let a = writer
                    .append_write(put(0), &Payload::synthetic(64, 0))
                    .await
                    .unwrap();
                writer.flush().wflush(a.probe).await.unwrap();
            }
            h.now()
        });
        // The 5th append hits the threshold and must wait for the server's
        // completion at 300us before proceeding.
        assert!(t.as_nanos() >= 300_000, "no throttling observed: {t}");
    }

    #[test]
    fn encode_entry_sizes_are_consistent() {
        let data = Payload::synthetic(100, 5);
        let image = encode_entry(3, put(9), &data);
        assert_eq!(image.len(), ENTRY_HEADER + align8(100) + ENTRY_FOOTER);
        assert_eq!(LogLayout::commit_offset(100), ENTRY_HEADER + 104);
    }
}

#[cfg(test)]
mod torn_entry_tests {
    use super::*;
    use prdma_node::{Cluster, ClusterConfig};
    use prdma_simnet::journal::ids;
    use prdma_simnet::Sim;

    /// The header-only read and the whole-entry read it was split from
    /// must agree, at each of `indices` and in both views, on validity,
    /// operator, length and `done`; and header + payload must compose to
    /// the same entry.
    fn header_read_agrees(log: &RedoLog, indices: impl IntoIterator<Item = u64>) {
        for index in indices {
            for persistent_only in [false, true] {
                let whole = log.read_entry_reference(index, persistent_only);
                let at = format!("index {index}, persistent_only {persistent_only}");
                assert_eq!(
                    log.read_header_from(index, persistent_only),
                    whole.as_ref().map(|e| EntryHeader {
                        index: e.index,
                        op: e.op,
                        payload_len: e.payload.len() as u64,
                        done: e.done,
                    }),
                    "{at}"
                );
                assert_eq!(log.read_entry_from(index, persistent_only), whole, "{at}");
            }
        }
    }

    fn place(pm: &PmDevice, addr: u64, image: &Payload) {
        for (off, bytes) in image.inline_parts() {
            pm.commit_persistent(addr + off, bytes).unwrap();
        }
    }

    /// A slot reused by a later lap, a done mark that is still only in the
    /// cache, and the header fields a hostile or torn image can carry.
    #[test]
    fn header_read_agrees_on_overwritten_done_and_corrupt_slots() {
        let sim = Sim::new(73);
        let cluster = Cluster::new(sim.handle(), ClusterConfig::with_nodes(1));
        let server = cluster.node(0);
        let layout = LogLayout::alloc(&server.alloc, "log", 8, TEST_VALUE);
        let slots = layout.slots;
        let log = RedoLog::new(
            server.pm.clone(),
            layout,
            LogCursor::new(),
            ids::log_lane(0, 0),
            16,
        );
        let pm = &server.pm;
        let op = |opcode, obj_id| RpcOperator { opcode, obj_id };
        let every_lap = [0, 1, 2, slots, slots + 1, slots + 2, 2 * slots];

        // Slot 0: entry 0, then overwritten by entry `slots` of the next
        // lap with another operator and a shorter payload, whose commit
        // word therefore sits inside the old payload.
        let old = Payload::from_bytes(vec![0x11; 200]);
        place(
            pm,
            layout.slot_addr(0),
            &encode_entry(0, op(OpCode::Put, 5), &old),
        );
        header_read_agrees(&log, every_lap);
        assert!(log.read_header(0).is_some());
        let new = Payload::from_bytes(vec![0x22; 24]);
        let image = encode_entry(slots, op(OpCode::RPut, 6), &new);
        place(pm, layout.slot_addr(slots), &image);
        header_read_agrees(&log, every_lap);
        assert!(log.read_header(0).is_none(), "the old lap's index is gone");
        let header = log.read_header(slots).expect("the new lap's entry");
        assert_eq!((header.op, header.payload_len), (op(OpCode::RPut, 6), 24));
        assert_eq!(log.read_payload(&header), vec![0x22; 24]);

        // Slot 1: done in the CPU's view, pending in the persistent one.
        let data = Payload::from_bytes(vec![0x33; 64]);
        place(
            pm,
            layout.slot_addr(1),
            &encode_entry(1, op(OpCode::TxnDecide, 9), &data),
        );
        pm.cache_write(layout.slot_addr(1) + 32, &STATE_DONE.to_le_bytes())
            .unwrap();
        header_read_agrees(&log, every_lap);
        assert!(log.read_header(1).expect("valid").done);
        assert!(!log.read_header_from(1, true).expect("valid").done);

        // Slot 2: a valid entry, then one header field at a time made
        // invalid (and restored): unknown opcode, a length past the slot,
        // a length whose commit offset holds payload bytes, a wrong seq.
        let addr = layout.slot_addr(2);
        let data = Payload::from_bytes(vec![0x44; 128]);
        place(pm, addr, &encode_entry(2, op(OpCode::Put, 7), &data));
        header_read_agrees(&log, every_lap);
        for (field, bad) in [
            (8, 99),
            (24, layout.max_payload() + 8),
            (24, 64),
            (24, u64::MAX),
            (0, slots + 2),
        ] {
            let good = pm.read_persistent_view(addr + field, 8);
            pm.commit_persistent(addr + field, &bad.to_le_bytes())
                .unwrap();
            header_read_agrees(&log, every_lap);
            assert_eq!(log.read_header(2), None, "field +{field} = {bad}");
            pm.commit_persistent(addr + field, &good).unwrap();
            assert!(log.read_header(2).is_some());
        }
    }

    /// Hand-craft a torn entry — valid header, data, but a corrupt commit
    /// word — directly in PM: recovery must treat the slot as invalid and
    /// stop the scan there (never replaying garbage).
    #[test]
    fn torn_commit_word_is_never_replayed() {
        let mut sim = Sim::new(71);
        let cluster = Cluster::new(sim.handle(), ClusterConfig::with_nodes(1));
        let server = cluster.node(0);
        let layout = LogLayout::alloc(&server.alloc, "log", 8, TEST_VALUE);
        let log = RedoLog::new(
            server.pm.clone(),
            layout,
            LogCursor::new(),
            ids::log_lane(0, 0),
            16,
        );
        let pm = server.pm.clone();
        sim.block_on(async move {
            // Entry 0: fully valid.
            let img = encode_entry(
                0,
                RpcOperator {
                    opcode: OpCode::Put,
                    obj_id: 1,
                },
                &Payload::from_bytes(vec![0xAA; 32]),
            );
            pm.simulate_write_time(img.len()).await;
            for (off, bytes) in img.inline_parts() {
                pm.commit_persistent(layout.slot_addr(0) + off, bytes)
                    .unwrap();
            }
            // Entry 1: torn — header + data landed, commit word did not
            // (the DMA was cut by the power failure before its last 8B).
            let img = encode_entry(
                1,
                RpcOperator {
                    opcode: OpCode::Put,
                    obj_id: 2,
                },
                &Payload::from_bytes(vec![0xBB; 32]),
            );
            let parts = img.inline_parts();
            // Write all but the final 8 bytes of the last part.
            for (i, (off, bytes)) in parts.iter().enumerate() {
                let bytes = if i + 1 == parts.len() {
                    &bytes[..bytes.len() - 8]
                } else {
                    bytes
                };
                pm.commit_persistent(layout.slot_addr(1) + off, bytes)
                    .unwrap();
            }
            // Entry 2: fully valid — but unreachable past the tear.
            let img = encode_entry(
                2,
                RpcOperator {
                    opcode: OpCode::Put,
                    obj_id: 3,
                },
                &Payload::from_bytes(vec![0xCC; 32]),
            );
            for (off, bytes) in img.inline_parts() {
                pm.commit_persistent(layout.slot_addr(2) + off, bytes)
                    .unwrap();
            }
        });
        let pending = log.recover();
        // Only entry 0 is replayable: the torn entry is rejected and the
        // FIFO scan cannot skip past it (ordering guarantee).
        assert_eq!(pending.len(), 1);
        assert_eq!(pending[0].op.obj_id, 1);
        assert_eq!(pending[0].payload, vec![0xAA; 32]);
        header_read_agrees(&log, (0..4).chain(layout.slots..layout.slots + 4));
        assert!(log.read_header(1).is_none() && log.read_header(2).is_some());
    }

    /// A stale entry from a previous ring lap (valid commit for an OLD
    /// index) must not be accepted for the current index.
    #[test]
    fn stale_lap_commit_rejected() {
        let mut sim = Sim::new(72);
        let cluster = Cluster::new(sim.handle(), ClusterConfig::with_nodes(1));
        let server = cluster.node(0);
        let layout = LogLayout::alloc(&server.alloc, "log", 8, TEST_VALUE);
        let slots = layout.slots;
        let log = RedoLog::new(
            server.pm.clone(),
            layout,
            LogCursor::new(),
            ids::log_lane(0, 0),
            16,
        );
        let pm = server.pm.clone();
        sim.block_on(async move {
            // Slot 0 holds an entry committed for index 0 (lap 0)...
            let img = encode_entry(
                0,
                RpcOperator {
                    opcode: OpCode::Put,
                    obj_id: 1,
                },
                &Payload::from_bytes(vec![1; 16]),
            );
            for (off, bytes) in img.inline_parts() {
                pm.commit_persistent(layout.slot_addr(0) + off, bytes)
                    .unwrap();
            }
            // ...but the durable head says we are already at lap 1.
            pm.commit_persistent(layout.region.offset, &slots.to_le_bytes())
                .unwrap();
        });
        // Scanning from index `slots` at slot 0: seq 0 != slots → invalid.
        let pending = log.recover();
        assert!(pending.is_empty(), "stale-lap entry replayed: {pending:?}");
        header_read_agrees(&log, [0, slots, 2 * slots]);
    }
}
