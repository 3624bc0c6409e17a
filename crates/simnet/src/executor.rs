//! The virtual-time async executor.
//!
//! A [`Sim`] owns a single-threaded task slab, a ready queue, and a timer
//! queue keyed on virtual time. Tasks are ordinary Rust futures; awaiting
//! [`SimHandle::sleep`] registers a timer instead of blocking, and the run
//! loop advances the clock discretely to the next due timer whenever the
//! ready queue drains. Identical seeds produce identical event orderings.
//!
//! # Hot-path design
//!
//! The executor is the floor under every benchmark in the workspace, so
//! its per-event cost is kept allocation- and lock-free on the paths that
//! run once per scheduling step:
//!
//! * **Ready queue** ([`ReadyQueue`]): wakers must be `Send + Sync` by
//!   contract, but the simulation itself is single-threaded (`Sim` holds
//!   `Rc`s and cannot move across threads). The queue therefore keeps an
//!   *unsynchronized* `VecDeque` fast path used only by the thread that
//!   created the `Sim`, plus a mutex-protected overflow list for the
//!   (never-in-practice, but contractually possible) case of a waker
//!   cloned to another thread. See the `ReadyQueue` safety comment for
//!   the soundness argument.
//! * **Timer queue** ([`TimerQueue`]): a monotone radix queue keyed on
//!   the deadline. `last` is the deadline of the last *live* timer
//!   popped; an entry sits in the FIFO `due` list when its deadline
//!   equals `last`, and otherwise in bucket `63 - lzcnt(at ^ last)` — the
//!   highest bit in which it differs from `last`. A push is one `xor`,
//!   one `lzcnt` and a `Vec` append. A pop drains `due`, or, when that is
//!   empty, takes the lowest non-empty bucket, makes the smallest live
//!   deadline in it the new `last` and appends its entries, in the order
//!   they were in, to the buckets below (every entry of bucket `b` agrees
//!   with the new `last` above bit `b`, so each moves down and the
//!   buckets above are untouched). An entry moves at most 64 times and
//!   typically two or three, so push and pop are O(1) in the number of
//!   timers. Two invariants carry the executor's contract:
//!   1. *FIFO within a deadline.* Entries with equal deadlines are
//!      always in the same bucket (the bucket is a function of the
//!      deadline and `last`), a push appends, and a redistribution is
//!      stable into buckets that were empty — so timers pop in
//!      `(deadline, seq)` order, `seq` being the registration count.
//!   2. *`last ≤ now` whenever task code runs.* Only a live entry
//!      becomes `last`, and the run loop sets the clock to it before it
//!      wakes anything; an in-place advance (below) moves the clock and
//!      leaves `last` behind. A cancelled ("stale") entry is dropped when
//!      its bucket is redistributed, or skipped in `due`, and advances
//!      neither. So no registration can land below `last`, and a
//!      cancelled timer still moves nothing.
//! * **Timer slab and wake-by-id**: the queue holds only `(deadline,
//!   seq, slot)` index entries; what to wake lives in a free-listed slab
//!   slot. A [`Sleep`] polled under the slot waker of the task being
//!   polled — every `h.sleep(..).await` and `timeout(..)` in the
//!   workspace — stores that task's *id*, and firing it is a push onto
//!   the ready queue: no `Waker` clone at registration, no drop at fire,
//!   no vtable call — a clone and a drop are an atomic ref-count round
//!   trip each. Any other waker — a combinator's own, a
//!   hand-rolled `Context` — is cloned into the slot and woken through
//!   its vtable. A `Sleep` polled again under a different waker replaces
//!   its slot's target, as the `Future` contract requires; re-polled by
//!   the task it already wakes by id (every poll of a task under a
//!   `timeout`), it returns `Pending` without borrowing the timers.
//!   A fired task target is polled at once rather than pushed: the ready
//!   queue is empty when a timer fires, so the push-then-pop would poll
//!   the same task next anyway.
//!   Cancelled sleeps ([`Sleep`] dropped before the deadline) free their
//!   slot immediately; their stale queue entry is dropped (without
//!   advancing the clock) when it surfaces, or swept out earlier once
//!   stale entries clearly outnumber live ones — every RPC cancels a far
//!   timeout, and they would otherwise sit in the high buckets for good.
//! * **In-place advance**: a [`Sleep`] polled under its own task's slot
//!   waker, not yet registered, with nothing runnable, no cross-thread
//!   wake pending and every queued entry (live or stale) due strictly
//!   after its deadline, is the next event. It sets the clock to the
//!   deadline, counts the event and returns `Ready`: the fire and re-poll
//!   the run loop would do next, without the `Pending` unwind up the
//!   task's stack, the timer push and pop, or the descent back down.
//!   The queue answers in O(1) (`TimerQueue::all_after`). A future that
//!   races a `Sleep` against other work arms the `Sleep` before it polls
//!   that work, as `timeout` does (the arm rule): the armed deadline's
//!   queue entry stops every advance inside the work at the deadline.
//!   A `Sleep` that completes cancels its registration if the timer has
//!   not fired yet, so a deadline reached through another event at the
//!   same instant resumes nothing a second time.
//! * **Task cells**: a spawn is one allocation, an `Rc<TaskCell<F>>`
//!   holding the future beside its join state; the slab keeps it as
//!   `Rc<dyn Task>`, the [`JoinHandle`] as `Rc<dyn Joinable<T>>`. The
//!   future is polled where it lies and, on completion, dropped there
//!   before the output is stored and the joiner woken.
//! * **Teardown**: dropping the [`Sim`] drops every parked task's future
//!   in place, which breaks the task → `SimHandle` → task-slab cycle
//!   even where a `JoinHandle` keeps the cell itself alive, so a dropped
//!   simulation's whole world is freed by ordinary `Rc` counting.
//! * **Task wakers**: one `Arc`-backed waker is created per task *slot*
//!   and reused across every task that later occupies the slot, so a
//!   spawn in steady state performs no waker allocation and a poll
//!   performs no waker clone. A poll publishes the task id and the slot
//!   waker's `(data, vtable)` identity in a `Cell`, which is all a
//!   [`Sleep`] needs to recognise its own task's waker.

use std::cell::{Cell, RefCell, UnsafeCell};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, RawWakerVTable, Wake, Waker};
use std::thread::ThreadId;

use crate::rng::SmallRng;
use crate::time::{SimDuration, SimTime};

/// The calling thread's id, cached in TLS so the hot path avoids the
/// `Arc` traffic of `std::thread::current()`.
#[inline]
fn current_tid() -> ThreadId {
    thread_local! {
        static TID: Cell<Option<ThreadId>> = const { Cell::new(None) };
    }
    TID.with(|c| match c.get() {
        Some(t) => t,
        None => {
            let t = std::thread::current().id();
            c.set(Some(t));
            t
        }
    })
}

/// Queue of task ids made runnable by wakers.
///
/// # Safety argument
///
/// `Waker: Send + Sync` requires this structure to be shareable across
/// threads, but taking a mutex twice per scheduling step (push + pop)
/// dominates the executor's hot path. Instead:
///
/// * `local` is an unsynchronized `VecDeque` inside an `UnsafeCell`. It
///   is touched **only** when `current_tid() == self.owner` — the thread
///   that created the `Sim`. `Sim` itself is `!Send` (it holds `Rc`s), so
///   `pop`/`drain` always run on the owner thread; `push` checks the
///   thread id and takes the `remote` mutex when called from anywhere
///   else. `ThreadId`s are never reused for the lifetime of a process, so
///   the owner check cannot false-positive after the owner thread exits.
/// * Accesses on the owner thread are non-reentrant: `push` runs either
///   from `poll_task` (after `pop` returned) or from a timer fire, and
///   `is_idle` from a [`Sleep`] poll inside `poll_task`; none holds the
///   reference obtained by another — each method scopes its
///   `*self.local.get()` to a single non-nested call.
/// * `remote` entries are drained into `local` (preserving push order)
///   at the start of every `pop`, keeping cross-thread wakes FIFO with
///   respect to each other. A cross-thread waker cannot be ordered
///   deterministically against same-instant local wakes in any design;
///   simulation code never does this (the executor is single-threaded by
///   construction), the path exists only to keep the `Waker` contract
///   sound.
struct ReadyQueue {
    owner: ThreadId,
    local: UnsafeCell<VecDeque<usize>>,
    remote: Mutex<Vec<usize>>,
    remote_pending: AtomicBool,
}

// SAFETY: see the struct-level safety argument — `local` is only accessed
// from the owner thread, all other state is internally synchronized.
unsafe impl Send for ReadyQueue {}
unsafe impl Sync for ReadyQueue {}

impl ReadyQueue {
    fn new() -> Self {
        ReadyQueue {
            owner: current_tid(),
            local: UnsafeCell::new(VecDeque::with_capacity(64)),
            remote: Mutex::new(Vec::new()),
            remote_pending: AtomicBool::new(false),
        }
    }

    #[inline]
    fn push(&self, id: usize) {
        if current_tid() == self.owner {
            // SAFETY: owner-thread access, non-reentrant (see above).
            unsafe { &mut *self.local.get() }.push_back(id);
        } else {
            self.remote.lock().expect("ready queue poisoned").push(id);
            self.remote_pending.store(true, Ordering::Release);
        }
    }

    /// Owner-thread only (enforced by `Sim: !Send`).
    #[inline]
    fn pop(&self) -> Option<usize> {
        debug_assert_eq!(current_tid(), self.owner);
        // SAFETY: owner-thread access, non-reentrant (see above).
        let local = unsafe { &mut *self.local.get() };
        // Plain load on the fast path: `pop` runs once per scheduling
        // event, and an atomic swap is a locked RMW on x86 — only pay it
        // when a cross-thread wake actually set the flag.
        if self.remote_pending.load(Ordering::Acquire)
            && self.remote_pending.swap(false, Ordering::Acquire)
        {
            let mut remote = self.remote.lock().expect("ready queue poisoned");
            local.extend(remote.drain(..));
        }
        local.pop_front()
    }

    /// Whether a cross-thread wake is waiting to be drained.
    #[inline]
    fn remote_pending(&self) -> bool {
        self.remote_pending.load(Ordering::Acquire)
    }

    /// Whether nothing is runnable: the local queue is empty and no
    /// cross-thread wake is waiting. Owner-thread only (a [`Sleep`] is
    /// `!Send`, like the `Sim`).
    #[inline]
    fn is_idle(&self) -> bool {
        debug_assert_eq!(current_tid(), self.owner);
        // SAFETY: owner-thread access, non-reentrant (see above).
        unsafe { &*self.local.get() }.is_empty() && !self.remote_pending()
    }
}

struct TaskWaker {
    ready: Arc<ReadyQueue>,
    id: usize,
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.ready.push(self.id);
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.ready.push(self.id);
    }
}

/// A spawned task: the future and its join state in one allocation. The
/// slab holds it as `Rc<dyn Task>`, its [`JoinHandle`] as
/// `Rc<dyn Joinable<T>>`.
struct TaskCell<F: Future> {
    /// The future, polled in place; `None` once it completed or teardown
    /// dropped it.
    future: RefCell<Option<F>>,
    join: RefCell<JoinState<F::Output>>,
}

struct JoinState<T> {
    result: Option<T>,
    waker: Option<Waker>,
}

/// The slab's view of a [`TaskCell`]: poll it, or drop its future.
trait Task {
    /// Poll the future. On completion the future is dropped, then the
    /// output stored, then the joiner woken.
    fn poll(&self, cx: &mut Context<'_>) -> Poll<()>;

    /// Drop the future in place, if it has not completed.
    fn drop_future(&self);
}

/// A [`JoinHandle`]'s view of a [`TaskCell`].
trait Joinable<T> {
    fn join_state(&self) -> &RefCell<JoinState<T>>;
}

impl<F: Future> Task for TaskCell<F> {
    fn poll(&self, cx: &mut Context<'_>) -> Poll<()> {
        let mut slot = self.future.borrow_mut();
        let future = slot.as_mut().expect("a task in the slab has its future");
        // SAFETY: the future lives inside the cell's `Rc` allocation,
        // which never moves, and it is never moved out of its `Option`:
        // completion and teardown both drop it in place by assigning
        // `None`, and the cell is never unwrapped out of its `Rc`.
        let Poll::Ready(output) = unsafe { Pin::new_unchecked(future) }.poll(cx) else {
            return Poll::Pending;
        };
        *slot = None;
        drop(slot);
        let joiner = {
            let mut join = self.join.borrow_mut();
            join.result = Some(output);
            join.waker.take()
        };
        if let Some(w) = joiner {
            w.wake();
        }
        Poll::Ready(())
    }

    fn drop_future(&self) {
        *self.future.borrow_mut() = None;
    }
}

impl<F: Future> Joinable<F::Output> for TaskCell<F> {
    fn join_state(&self) -> &RefCell<JoinState<F::Output>> {
        &self.join
    }
}

struct TaskSlot {
    /// The task occupying the slot; `None` while vacant.
    task: Option<Rc<dyn Task>>,
    /// Slot waker, created once and reused by every task that occupies
    /// the slot (it encodes only the ready-queue handle and the slot id).
    /// An `Rc` so a poll can hold it with the slab unborrowed and without
    /// touching the waker's atomic count.
    waker: Rc<Waker>,
}

/// The task being polled and the identity of its slot waker — the
/// `(data, vtable)` pair [`Waker::will_wake`] compares — published for
/// the duration of the poll: a [`Sleep`] polled under a waker with that
/// identity registers the id.
#[derive(Clone, Copy)]
struct Polling {
    id: usize,
    data: *const (),
    vtable: &'static RawWakerVTable,
}

/// Index entry in the timer queue: fires at `at`, registered as `seq`
/// (monotone, so FIFO within an instant), target lives in timer-slab slot
/// `slot`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct TimerEntry {
    at: u64,
    seq: u64,
    slot: u32,
}

/// What a fired timer makes runnable.
enum TimerTarget {
    /// The task with this id: the [`Sleep`] was polled under that task's
    /// own slot waker, so firing is a ready-queue push.
    Task(usize),
    /// Whatever this waker wakes (a `Sleep` polled under any other waker).
    Waker(Waker),
}

impl TimerTarget {
    /// The target for a poll under `cx`: the task id when `polled` (the
    /// poll is under that task's own slot waker), else a clone of the
    /// waker.
    fn of(polled: Option<usize>, cx: &Context<'_>) -> Self {
        match polled {
            Some(id) => TimerTarget::Task(id),
            None => TimerTarget::Waker(cx.waker().clone()),
        }
    }

    fn wakes_same(&self, other: &TimerTarget) -> bool {
        match (self, other) {
            (TimerTarget::Task(a), TimerTarget::Task(b)) => a == b,
            (TimerTarget::Waker(a), TimerTarget::Waker(b)) => a.will_wake(b),
            _ => false,
        }
    }
}

/// Free-listed storage for pending timer targets. Each entry carries the
/// registration `seq` so a stale queue entry (or a [`Sleep`] cancel racing
/// a slot reuse) can detect that the slot no longer belongs to it.
#[derive(Default)]
struct TimerSlab {
    slots: Vec<Option<(u64, TimerTarget)>>,
    free: Vec<u32>,
    live: usize,
}

impl TimerSlab {
    fn insert(&mut self, seq: u64, target: TimerTarget) -> u32 {
        self.live += 1;
        match self.free.pop() {
            Some(slot) => {
                debug_assert!(self.slots[slot as usize].is_none());
                self.slots[slot as usize] = Some((seq, target));
                slot
            }
            None => {
                self.slots.push(Some((seq, target)));
                (self.slots.len() - 1) as u32
            }
        }
    }

    /// Whether (`slot`, `seq`) is still registered.
    fn is_live(&self, slot: u32, seq: u64) -> bool {
        matches!(self.slots.get(slot as usize), Some(Some((s, _))) if *s == seq)
    }

    /// The target registered as (`slot`, `seq`), if it still is.
    fn target_mut(&mut self, slot: u32, seq: u64) -> Option<&mut TimerTarget> {
        match self.slots.get_mut(slot as usize)? {
            Some((s, target)) if *s == seq => Some(target),
            _ => None,
        }
    }

    /// Take the target registered as (`slot`, `seq`); `None` if the
    /// registration was cancelled (or the slot reused since).
    fn take(&mut self, slot: u32, seq: u64) -> Option<TimerTarget> {
        let entry = self.slots.get_mut(slot as usize)?;
        match entry {
            Some((s, _)) if *s == seq => {
                let (_, target) = entry.take().expect("checked above");
                self.free.push(slot);
                self.live -= 1;
                Some(target)
            }
            _ => None,
        }
    }
}

/// Monotone radix queue of [`TimerEntry`]s (see the module doc for the
/// two invariants). It never looks inside the slab itself: `pop` and
/// `retain` are told which entries are still live.
struct TimerQueue {
    /// Deadline of the last live entry popped; no queued deadline is
    /// below it.
    last: u64,
    /// Entries with `at == last`, in registration order; `due[..due_head]`
    /// are already popped.
    due: Vec<TimerEntry>,
    due_head: usize,
    /// `buckets[b]`: entries whose highest bit differing from `last` is `b`.
    buckets: [Vec<TimerEntry>; 64],
    /// Bit `b` set iff `buckets[b]` is non-empty.
    occupied: u64,
    /// Entries queued, live and stale.
    len: usize,
}

impl TimerQueue {
    fn new() -> Self {
        TimerQueue {
            last: 0,
            due: Vec::new(),
            due_head: 0,
            buckets: std::array::from_fn(|_| Vec::new()),
            occupied: 0,
            len: 0,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    /// Whether every queued entry, live or stale, is due strictly after
    /// `at`. O(1): a pending `due` entry is due at `last`, no later than
    /// any deadline a task can ask for; otherwise the lowest occupied
    /// bucket `b` holds the earliest entries, none below `((last >> b) +
    /// 1) << b` (bit `b` set where `last` has it clear), and that bucket
    /// is scanned only when it holds at most 8 entries. A `false` may be
    /// conservative, never a `true`.
    fn all_after(&self, at: u64) -> bool {
        if self.due_head < self.due.len() {
            return false;
        }
        if self.occupied == 0 {
            return true;
        }
        let b = self.occupied.trailing_zeros();
        if ((self.last >> b) + 1) << b > at {
            return true;
        }
        let bucket = &self.buckets[b as usize];
        bucket.len() <= 8 && bucket.iter().all(|e| e.at > at)
    }

    fn push(&mut self, entry: TimerEntry) {
        debug_assert!(entry.at >= self.last, "timer registered in the past");
        self.len += 1;
        self.place(entry);
    }

    fn place(&mut self, entry: TimerEntry) {
        let diff = entry.at ^ self.last;
        if diff == 0 {
            self.due.push(entry);
        } else {
            let b = 63 - diff.leading_zeros();
            self.buckets[b as usize].push(entry);
            self.occupied |= 1 << b;
        }
    }

    /// Remove and return the live entry that is first in `(at, seq)`
    /// order, dropping the stale entries met on the way. `None` — with
    /// `last` where it was — when only stale entries (or none) remain.
    fn pop(&mut self, is_live: impl Fn(&TimerEntry) -> bool) -> Option<TimerEntry> {
        loop {
            while let Some(&entry) = self.due.get(self.due_head) {
                self.due_head += 1;
                self.len -= 1;
                if is_live(&entry) {
                    return Some(entry);
                }
            }
            self.due.clear();
            self.due_head = 0;
            if self.occupied == 0 {
                return None;
            }
            let b = self.occupied.trailing_zeros() as usize;
            self.occupied &= !(1 << b);
            // Work on the bucket's storage outside `self` (everything in
            // it moves to `due` or a lower bucket) and hand the emptied
            // allocation back afterwards.
            let mut bucket = std::mem::take(&mut self.buckets[b]);
            let queued = bucket.len();
            bucket.retain(&is_live);
            self.len -= queued - bucket.len();
            if let Some(min) = bucket.iter().map(|e| e.at).min() {
                self.last = min;
                for &entry in &bucket {
                    self.place(entry);
                }
            }
            bucket.clear();
            self.buckets[b] = bucket;
        }
    }

    /// Keep only the entries `is_live` accepts; the order of the rest is
    /// unchanged.
    fn retain(&mut self, is_live: impl Fn(&TimerEntry) -> bool) {
        self.due.drain(..self.due_head);
        self.due_head = 0;
        self.due.retain(&is_live);
        let mut len = self.due.len();
        let mut occupied = self.occupied;
        while occupied != 0 {
            let b = occupied.trailing_zeros() as usize;
            occupied &= occupied - 1;
            let bucket = &mut self.buckets[b];
            bucket.retain(&is_live);
            len += bucket.len();
            if bucket.is_empty() {
                self.occupied &= !(1 << b);
            }
        }
        self.len = len;
    }
}

/// The timer state behind one borrow: the queue, the slab its entries
/// index, and the registration counter.
struct Timers {
    queue: TimerQueue,
    slab: TimerSlab,
    next_seq: u64,
}

impl Timers {
    fn new() -> Self {
        Timers {
            queue: TimerQueue::new(),
            slab: TimerSlab::default(),
            next_seq: 0,
        }
    }

    /// Register `target` to fire at `at`; returns the (slot, seq) pair
    /// that names the registration from then on.
    fn register(&mut self, at: u64, target: TimerTarget) -> (u32, u64) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = self.slab.insert(seq, target);
        self.queue.push(TimerEntry { at, seq, slot });
        (slot, seq)
    }

    /// The next live timer in `(deadline, seq)` order: its deadline and
    /// target. Stale entries met on the way are dropped.
    fn pop(&mut self) -> Option<(u64, TimerTarget)> {
        let slab = &self.slab;
        let entry = self.queue.pop(|e| slab.is_live(e.slot, e.seq))?;
        let target = self.slab.take(entry.slot, entry.seq);
        Some((entry.at, target.expect("popped entry is live")))
    }

    /// Cancel the registration (`slot`, `seq`) if it is still pending and
    /// return its target (for the caller to drop with no borrow held).
    fn cancel(&mut self, slot: u32, seq: u64) -> Option<TimerTarget> {
        let target = self.slab.take(slot, seq)?;
        // The queue's index entry stays until virtual time reaches it,
        // and every RPC cancels a far timeout: once the stale entries
        // clearly outnumber the live ones, sweep them out. The survivors
        // keep their relative order, so their pop order is unchanged.
        if self.queue.len() - self.slab.live > (2 * self.slab.live).max(64) {
            let slab = &self.slab;
            self.queue.retain(|e| slab.is_live(e.slot, e.seq));
        }
        Some(target)
    }
}

struct SimInner {
    now: Cell<u64>,
    tasks: RefCell<Vec<TaskSlot>>,
    free_slots: RefCell<Vec<usize>>,
    live_tasks: Cell<usize>,
    ready: Arc<ReadyQueue>,
    timers: RefCell<Timers>,
    /// The task being polled, if any (see [`Polling`]).
    polling: Cell<Option<Polling>>,
    rng: RefCell<SmallRng>,
    events: Cell<u64>,
}

impl SimInner {
    /// Whether `deadline` is the next event: nothing is runnable, and
    /// every queued timer entry, live or stale, is due strictly after it.
    fn next_event_is(&self, deadline: u64) -> bool {
        self.ready.is_idle() && self.timers.borrow().queue.all_after(deadline)
    }
}

/// A deterministic discrete-event simulation.
///
/// ```
/// use prdma_simnet::{Sim, SimDuration};
///
/// let mut sim = Sim::new(42);
/// let h = sim.handle();
/// let elapsed = sim.block_on(async move {
///     h.sleep(SimDuration::from_micros(7)).await;
///     h.now()
/// });
/// assert_eq!(elapsed.as_nanos(), 7_000);
/// ```
pub struct Sim {
    inner: Rc<SimInner>,
}

/// A cheap, clonable handle to the simulation, usable inside tasks.
#[derive(Clone)]
pub struct SimHandle {
    inner: Rc<SimInner>,
}

/// Handle to a spawned task's eventual result.
///
/// Awaiting it yields the task's output. Dropping it detaches the task
/// (the task keeps running).
pub struct JoinHandle<T> {
    task: Rc<dyn Joinable<T>>,
}

impl<T> Future for JoinHandle<T> {
    type Output = T;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let mut st = self.task.join_state().borrow_mut();
        if let Some(v) = st.result.take() {
            Poll::Ready(v)
        } else {
            st.waker = Some(cx.waker().clone());
            Poll::Pending
        }
    }
}

impl<T> JoinHandle<T> {
    /// Whether the task has finished (result ready and not yet consumed).
    pub fn is_finished(&self) -> bool {
        self.task.join_state().borrow().result.is_some()
    }
}

impl Sim {
    /// Create a new simulation whose RNG is seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Sim {
            inner: Rc::new(SimInner {
                now: Cell::new(0),
                tasks: RefCell::new(Vec::new()),
                free_slots: RefCell::new(Vec::new()),
                live_tasks: Cell::new(0),
                ready: Arc::new(ReadyQueue::new()),
                timers: RefCell::new(Timers::new()),
                polling: Cell::new(None),
                rng: RefCell::new(SmallRng::seed_from_u64(seed)),
                events: Cell::new(0),
            }),
        }
    }

    /// A handle for use inside tasks (clocks, sleeping, spawning, RNG).
    pub fn handle(&self) -> SimHandle {
        SimHandle {
            inner: Rc::clone(&self.inner),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        SimTime::from_nanos(self.inner.now.get())
    }

    /// Task resumptions so far: polls plus in-place advances (a
    /// determinism fingerprint). An in-place advance counts as the poll
    /// the run loop would have made at the timer's fire.
    pub fn events_processed(&self) -> u64 {
        self.inner.events.get()
    }

    /// Timers currently registered and not yet fired or cancelled.
    pub fn live_timers(&self) -> usize {
        self.inner.timers.borrow().slab.live
    }

    /// Total timer-slab slots ever allocated (free-listed; bounded by the
    /// peak number of *concurrently* pending timers, not by the total
    /// number of sleeps — cancelled sleeps return their slot).
    pub fn timer_slab_size(&self) -> usize {
        self.inner.timers.borrow().slab.slots.len()
    }

    /// Entries in the timer queue, live and stale (a cancelled sleep leaves
    /// its index entry behind; [`Sleep`]'s drop compacts them away once
    /// they outnumber the live ones).
    pub fn timer_heap_len(&self) -> usize {
        self.inner.timers.borrow().queue.len()
    }

    /// Spawn a root task; see [`SimHandle::spawn`].
    pub fn spawn<F>(&self, future: F) -> JoinHandle<F::Output>
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        self.handle().spawn(future)
    }

    /// Run the simulation until no runnable tasks or pending timers remain.
    ///
    /// Tasks still blocked on channels or semaphores at that point are
    /// simply never scheduled again; their futures are dropped, and what
    /// they own released, when the `Sim` is dropped.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Drive `future` to completion and return its output.
    ///
    /// # Panics
    ///
    /// Panics if the simulation runs out of events before the future
    /// completes (a deadlock in simulated code).
    pub fn block_on<F>(&mut self, future: F) -> F::Output
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        let join = self.spawn(future);
        while !join.is_finished() {
            if !self.step() {
                panic!(
                    "simulation deadlock: block_on future not complete but no \
                     runnable tasks or timers remain ({} live tasks blocked)",
                    self.inner.live_tasks.get()
                );
            }
        }
        let result = join.task.join_state().borrow_mut().result.take();
        result.expect("join state lost result")
    }

    /// Execute one scheduling step: poll a ready task, or advance the clock
    /// to the next timer. Returns `false` once the event queue is exhausted.
    fn step(&mut self) -> bool {
        if let Some(id) = self.inner.ready.pop() {
            self.poll_task(id);
            return true;
        }
        // Ready queue empty: advance virtual time to the next live timer
        // (cancelled ones are dropped on the way and advance nothing).
        let fired = self.inner.timers.borrow_mut().pop();
        let Some((at, target)) = fired else {
            return false;
        };
        debug_assert!(at >= self.inner.now.get(), "timer in the past");
        self.inner.now.set(at);
        match target {
            // The ready queue is empty, so pushing the id and popping it
            // next step would poll exactly this task next: poll it now.
            TimerTarget::Task(id) if !self.inner.ready.remote_pending() => self.poll_task(id),
            TimerTarget::Task(id) => self.inner.ready.push(id),
            TimerTarget::Waker(w) => w.wake(),
        }
        true
    }

    fn poll_task(&mut self, id: usize) {
        // Hold the task and its slot waker by `Rc` so the task body may
        // spawn (and so borrow the slab) while it runs.
        let (task, waker) = match self.inner.tasks.borrow().get(id) {
            Some(TaskSlot {
                task: Some(task),
                waker,
            }) => (Rc::clone(task), Rc::clone(waker)),
            // A vacant slot: the task completed, this wake is stale.
            _ => return,
        };
        self.inner.events.set(self.inner.events.get() + 1);
        self.inner.polling.set(Some(Polling {
            id,
            data: waker.data(),
            vtable: waker.vtable(),
        }));
        let res = task.poll(&mut Context::from_waker(&waker));
        self.inner.polling.set(None);
        if res.is_ready() {
            self.inner.tasks.borrow_mut()[id].task = None;
            self.inner.free_slots.borrow_mut().push(id);
            self.inner.live_tasks.set(self.inner.live_tasks.get() - 1);
        }
        // The cell drops here if nothing else holds it, after every slab
        // borrow is released: an unjoined output's destructor may wake
        // other tasks or cancel timers.
    }
}

/// Dropping the `Sim` drops every task still parked in it.
///
/// Every task holds `SimHandle`s (an `Rc<SimInner>`) and `SimInner` holds
/// the task slab, so without this the cycle would keep the whole simulated
/// world — tasks, queue pairs, PM images — alive after the `Sim` is gone.
/// Handles that outlive the `Sim` stay usable; tasks spawned through them
/// are never polled.
impl Drop for Sim {
    fn drop(&mut self) {
        // A task's destructors cancel `Sleep`s, release semaphore permits,
        // wake join/oneshot peers and may `spawn`, all of which borrow the
        // slabs: take the tasks out first, drop their futures with no slab
        // borrow held, and go round again for whatever those drops
        // spawned. Each future is dropped in place: a `JoinHandle` that
        // outlives the `Sim` keeps its cell alive, and with it whatever
        // the future owns.
        loop {
            let parked: Vec<Rc<dyn Task>> = {
                let mut tasks = self.inner.tasks.borrow_mut();
                let mut free = self.inner.free_slots.borrow_mut();
                let vacate = |(id, slot): (usize, &mut TaskSlot)| {
                    let task = slot.task.take()?;
                    free.push(id);
                    Some(task)
                };
                tasks.iter_mut().enumerate().filter_map(vacate).collect()
            };
            if parked.is_empty() {
                break;
            }
            self.inner
                .live_tasks
                .set(self.inner.live_tasks.get() - parked.len());
            for task in &parked {
                task.drop_future();
            }
        }
        // Wakers held by timers nobody will fire; dropped after the borrow.
        drop(self.inner.timers.replace(Timers::new()));
    }
}

impl SimHandle {
    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        SimTime::from_nanos(self.inner.now.get())
    }

    /// Spawn a task onto the simulation.
    pub fn spawn<F>(&self, future: F) -> JoinHandle<F::Output>
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        let cell = Rc::new(TaskCell {
            future: RefCell::new(Some(future)),
            join: RefCell::new(JoinState {
                result: None,
                waker: None,
            }),
        });
        let task: Rc<dyn Task> = Rc::clone(&cell) as _;
        {
            let mut tasks = self.inner.tasks.borrow_mut();
            let id = match self.inner.free_slots.borrow_mut().pop() {
                Some(id) => {
                    // Reuse the vacant slot and its waker.
                    debug_assert!(tasks[id].task.is_none());
                    tasks[id].task = Some(task);
                    id
                }
                None => {
                    let id = tasks.len();
                    tasks.push(TaskSlot {
                        task: Some(task),
                        waker: Rc::new(Waker::from(Arc::new(TaskWaker {
                            ready: Arc::clone(&self.inner.ready),
                            id,
                        }))),
                    });
                    id
                }
            };
            self.inner.live_tasks.set(self.inner.live_tasks.get() + 1);
            self.inner.ready.push(id);
        }
        JoinHandle { task: cell }
    }

    /// Sleep for `dur` of virtual time.
    pub fn sleep(&self, dur: SimDuration) -> Sleep {
        self.sleep_until(self.now() + dur)
    }

    /// Sleep until the virtual instant `deadline`.
    pub fn sleep_until(&self, deadline: SimTime) -> Sleep {
        Sleep {
            handle: self.clone(),
            deadline: deadline.as_nanos(),
            registered: None,
            owner: None,
        }
    }

    /// Yield to the scheduler without advancing time (cooperative point).
    pub fn yield_now(&self) -> YieldNow {
        YieldNow { yielded: false }
    }

    /// Draw from `[low, high)`.
    pub fn gen_range(&self, low: u64, high: u64) -> u64 {
        assert!(low < high, "empty range");
        self.inner.rng.borrow_mut().gen_range(low..high)
    }

    /// Draw a float in `[0, 1)`.
    pub fn gen_f64(&self) -> f64 {
        self.inner.rng.borrow_mut().gen::<f64>()
    }

    /// The task being polled, if `cx` carries its own slot waker: the
    /// [`Waker::will_wake`] comparison against the published identity.
    fn polled_task(&self, cx: &Context<'_>) -> Option<usize> {
        let polling = self.inner.polling.get()?;
        let waker = cx.waker();
        (waker.data() == polling.data && std::ptr::eq(waker.vtable(), polling.vtable))
            .then_some(polling.id)
    }
}

/// Future returned by [`SimHandle::sleep`].
///
/// Dropping an unfired `Sleep` cancels it: its slot is returned to the
/// timer slab immediately (the queue's index entry is dropped when it
/// surfaces, or compacted away before that), so abandoned timeouts do not
/// accumulate state or wake their task spuriously at the stale deadline.
///
/// Polled under its own task's waker when its deadline is the next event
/// — nothing runnable, no timer queued at or before it — a `Sleep` sets
/// the clock to the deadline and completes in place: the step the run
/// loop would take next. So a future that races a `Sleep` against other
/// work, as [`timeout`](crate::timeout) does, arms the `Sleep` before it
/// polls that work (the arm rule): the deadline is queued first, and no
/// sleep inside the work can advance the clock past it.
///
/// A `Sleep` that completes while its timer is still pending (another
/// event at the same instant resumed the task first) cancels the timer.
pub struct Sleep {
    handle: SimHandle,
    deadline: u64,
    /// `(slot, seq)` of the pending registration, if any.
    registered: Option<(u32, u64)>,
    /// The task the registration wakes by id, if it does: that task's
    /// re-polls need not look at the timers.
    owner: Option<usize>,
}

impl Sleep {
    /// Queue the deadline before the work this `Sleep` races is polled
    /// (the arm rule): register the target [`poll`](Future::poll) would,
    /// without its in-place check. A deadline already due registers at
    /// `now`, so it still stops every advance inside the work; that
    /// includes a deadline whose timer has fired, since the work is polled
    /// again in the resumption the fire causes. A no-op while the
    /// registration is pending.
    pub(crate) fn arm(&mut self, cx: &Context<'_>) {
        let inner = &*self.handle.inner;
        let now = inner.now.get();
        if let Some((slot, seq)) = self.registered {
            if now < self.deadline || inner.timers.borrow().slab.is_live(slot, seq) {
                return;
            }
        }
        self.owner = self.handle.polled_task(cx);
        let target = TimerTarget::of(self.owner, cx);
        let at = self.deadline.max(now);
        self.registered = Some(inner.timers.borrow_mut().register(at, target));
    }

    /// Cancel the registration if it is still pending; a no-op once the
    /// timer fired (seq mismatch or empty slot).
    fn cancel(&mut self) {
        if let Some((slot, seq)) = self.registered.take() {
            // Bound, so that a waker target is dropped after the borrow
            // is released.
            let cancelled = self.handle.inner.timers.borrow_mut().cancel(slot, seq);
            drop(cancelled);
        }
    }
}

impl Future for Sleep {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        let inner = &*this.handle.inner;
        if inner.now.get() >= this.deadline {
            // Fired, created with a no-op deadline, or reached through
            // another event at the same instant: then the timer is still
            // pending, and would resume the task once more for nothing.
            this.cancel();
            return Poll::Ready(());
        }
        let polled = this.handle.polled_task(cx);
        match (polled, this.registered) {
            // Re-polled by the task the registration already wakes.
            (Some(_), Some(_)) if polled == this.owner => return Poll::Pending,
            // The deadline is the next event: the run loop would fire this
            // timer next and poll this task straight back to here.
            (Some(_), None) if inner.next_event_is(this.deadline) => {
                inner.now.set(this.deadline);
                inner.events.set(inner.events.get() + 1);
                return Poll::Ready(());
            }
            _ => {}
        }
        this.owner = polled;
        let target = TimerTarget::of(polled, cx);
        let mut timers = inner.timers.borrow_mut();
        match this.registered {
            None => this.registered = Some(timers.register(this.deadline, target)),
            // Polled again before the deadline: the timer must wake the
            // waker of *this* poll, which need not be the first one's.
            Some((slot, seq)) => {
                let current = timers
                    .slab
                    .target_mut(slot, seq)
                    .expect("a timer registered for a future deadline is pending");
                if !current.wakes_same(&target) {
                    let replaced = std::mem::replace(current, target);
                    drop(timers);
                    drop(replaced);
                }
            }
        }
        Poll::Pending
    }
}

impl Drop for Sleep {
    fn drop(&mut self) {
        self.cancel();
    }
}

/// Future returned by [`SimHandle::yield_now`].
pub struct YieldNow {
    yielded: bool,
}

impl Future for YieldNow {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.yielded {
            Poll::Ready(())
        } else {
            self.yielded = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    use std::rc::Rc;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn clock_starts_at_zero() {
        let sim = Sim::new(1);
        assert_eq!(sim.now(), SimTime::ZERO);
    }

    #[test]
    fn sleep_advances_virtual_time() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let t = sim.block_on(async move {
            h.sleep(SimDuration::from_micros(100)).await;
            h.now()
        });
        assert_eq!(t.as_nanos(), 100_000);
    }

    #[test]
    fn zero_sleep_completes() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        sim.block_on(async move {
            h.sleep(SimDuration::ZERO).await;
        });
    }

    #[test]
    fn concurrent_sleeps_interleave_in_time_order() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let log: Rc<RefCell<Vec<(u64, u64)>>> = Rc::default();
        for i in 0..5u64 {
            let h2 = h.clone();
            let log2 = Rc::clone(&log);
            sim.spawn(async move {
                h2.sleep(SimDuration::from_micros(10 * (5 - i))).await;
                log2.borrow_mut().push((i, h2.now().as_nanos()));
            });
        }
        sim.run();
        let log = log.borrow();
        // Task 4 sleeps shortest, so completes first.
        assert_eq!(
            log.iter().map(|&(i, _)| i).collect::<Vec<_>>(),
            vec![4, 3, 2, 1, 0]
        );
        assert!(log.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    fn spawn_returns_result_via_join_handle() {
        let mut sim = Sim::new(7);
        let h = sim.handle();
        let out = sim.block_on(async move {
            let j = h.spawn(async { 21 * 2 });
            j.await
        });
        assert_eq!(out, 42);
    }

    #[test]
    fn nested_spawn_inside_task() {
        let mut sim = Sim::new(7);
        let h = sim.handle();
        let out = sim.block_on(async move {
            let h2 = h.clone();
            let j = h.spawn(async move {
                let inner = h2.spawn(async { 10 });
                inner.await + 1
            });
            j.await
        });
        assert_eq!(out, 11);
    }

    #[test]
    fn yield_now_reschedules_without_time_advance() {
        let mut sim = Sim::new(7);
        let h = sim.handle();
        let t = sim.block_on(async move {
            for _ in 0..10 {
                h.yield_now().await;
            }
            h.now()
        });
        assert_eq!(t, SimTime::ZERO);
    }

    #[test]
    fn deterministic_given_same_seed() {
        let run = |seed| {
            let mut sim = Sim::new(seed);
            let h = sim.handle();
            let trace: Rc<RefCell<Vec<u64>>> = Rc::default();
            for _ in 0..20 {
                let h2 = h.clone();
                let tr = Rc::clone(&trace);
                sim.spawn(async move {
                    let d = h2.gen_range(1, 1000);
                    h2.sleep(SimDuration::from_nanos(d)).await;
                    tr.borrow_mut().push(h2.now().as_nanos());
                });
            }
            sim.run();
            let out = (trace.borrow().clone(), sim.events_processed());
            out
        };
        assert_eq!(run(99), run(99));
        assert_ne!(run(99).0, run(100).0);
    }

    #[test]
    fn same_deadline_timers_fire_in_fifo_order() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let log: Rc<RefCell<Vec<u64>>> = Rc::default();
        for i in 0..4u64 {
            let h2 = h.clone();
            let log2 = Rc::clone(&log);
            sim.spawn(async move {
                h2.sleep(SimDuration::from_micros(5)).await;
                log2.borrow_mut().push(i);
            });
        }
        sim.run();
        assert_eq!(*log.borrow(), vec![0, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn block_on_detects_deadlock() {
        let mut sim = Sim::new(1);
        sim.block_on(std::future::pending::<()>());
    }

    #[test]
    fn cancelled_sleeps_free_their_timer_slots() {
        // Spawn-and-cancel 10k sleeps in waves: the timer slab must reuse
        // slots from cancelled registrations instead of growing with the
        // total number of sleeps ever created.
        let mut sim = Sim::new(9);
        let h = sim.handle();
        let waves = 100usize;
        let per_wave = 100usize;
        for w in 0..waves {
            let h2 = h.clone();
            sim.spawn(async move {
                let mut pending = Vec::new();
                for i in 0..per_wave {
                    // Poll each sleep once so it registers a timer...
                    let mut s = Box::pin(h2.sleep(SimDuration::from_secs(3600 + i as u64)));
                    let res = futures_poll_once(&mut s);
                    assert!(res.is_pending());
                    pending.push(s);
                }
                // ...then cancel the whole wave by dropping.
                drop(pending);
                h2.sleep(SimDuration::from_nanos(w as u64)).await;
            });
        }
        sim.run();
        assert_eq!(sim.live_timers(), 0, "cancelled sleeps must free slots");
        assert!(
            sim.timer_slab_size() <= per_wave + waves + 1,
            "slab grew monotonically: {} slots for {} concurrent timers",
            sim.timer_slab_size(),
            per_wave + waves
        );
    }

    /// Poll every runnable task without advancing the clock.
    fn poll_ready(sim: &mut Sim) {
        while let Some(id) = sim.inner.ready.pop() {
            sim.poll_task(id);
        }
    }

    /// Poll a future once against a no-op waker.
    fn futures_poll_once<F: Future + Unpin>(f: &mut F) -> Poll<F::Output> {
        struct Noop;
        impl Wake for Noop {
            fn wake(self: Arc<Self>) {}
        }
        let waker = Waker::from(Arc::new(Noop));
        let mut cx = Context::from_waker(&waker);
        Pin::new(f).poll(&mut cx)
    }

    #[test]
    fn cancelled_timer_does_not_wake_or_advance_clock() {
        // A sleep dropped before its deadline must neither spuriously wake
        // its task at the stale deadline nor drag the clock to it.
        let mut sim = Sim::new(2);
        let h = sim.handle();
        let h2 = h.clone();
        let polls: Rc<Cell<u64>> = Rc::default();
        let polls2 = Rc::clone(&polls);
        sim.spawn(async move {
            let _ = crate::combinator::timeout(&h2, SimDuration::from_micros(1), async {
                std::future::pending::<()>().await;
            })
            .await;
            // Now parked forever on a channel; count how often we get here.
            let (_tx, mut rx) = crate::channel::<u8>();
            loop {
                polls2.set(polls2.get() + 1);
                if rx.recv().await.is_none() {
                    break;
                }
            }
        });
        sim.run();
        // The timeout's 1 us timer fired; the inner pending future was
        // dropped. No stale timer remains to advance the clock further.
        assert_eq!(sim.now().as_nanos(), 1_000);
        assert_eq!(polls.get(), 1, "spurious wakeups observed");
        assert_eq!(sim.live_timers(), 0);
    }

    #[test]
    fn a_sleep_done_before_its_timer_fires_cancels_it() {
        // U's sleep and T's timeout are both due at 5 us, U's registered
        // first. U's fire sends to T, T resumes, and its timeout elapses
        // before the timeout's own timer fires: that timer must not resume
        // T a second time at the same instant.
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let (tx, rx) = crate::oneshot::<()>();
        let h2 = h.clone();
        sim.spawn(async move {
            h2.sleep(SimDuration::from_micros(5)).await;
            tx.send(());
        });
        let polls: Rc<Cell<u64>> = Rc::default();
        let polls2 = Rc::clone(&polls);
        sim.spawn(async move {
            let inner = async {
                rx.await;
                std::future::pending::<()>().await;
            };
            let r = crate::combinator::timeout(&h, SimDuration::from_micros(5), inner).await;
            assert!(r.is_err());
            // Parked for good; count every resumption from here on.
            std::future::poll_fn(|_| {
                polls2.set(polls2.get() + 1);
                Poll::<()>::Pending
            })
            .await;
        });
        sim.run();
        assert_eq!(sim.now().as_nanos(), 5_000);
        assert_eq!(polls.get(), 1, "the elapsed timeout's timer resumed T");
        // Two spawn polls, U's fire, and T's resumption by U's send.
        assert_eq!(sim.events_processed(), 4);
        assert_eq!(sim.live_timers(), 0);
    }

    #[test]
    fn task_slots_and_wakers_are_reused() {
        let mut sim = Sim::new(4);
        let h = sim.handle();
        for _ in 0..1000 {
            let h2 = h.clone();
            sim.spawn(async move {
                h2.sleep(SimDuration::from_nanos(5)).await;
            });
            sim.run();
        }
        // Sequential spawn/complete cycles reuse one root slot.
        assert!(
            sim.inner.tasks.borrow().len() <= 2,
            "task slab grew: {} slots",
            sim.inner.tasks.borrow().len()
        );
    }

    #[test]
    fn timer_heap_stays_bounded_under_cancelled_timeouts() {
        // The durable-RPC shape: every op arms a far timeout and cancels it
        // microseconds later. Virtual time never reaches the stale entries,
        // so only the compaction in `Sleep::drop` keeps the heap small.
        let mut sim = Sim::new(5);
        let h = sim.handle();
        let peak: Rc<Cell<usize>> = Rc::default();
        let peak2 = Rc::clone(&peak);
        sim.block_on(async move {
            for _ in 0..10_000 {
                let op = h.sleep(SimDuration::from_micros(1));
                let res = crate::combinator::timeout(&h, SimDuration::from_millis(10), op).await;
                assert!(res.is_ok());
                peak2.set(peak2.get().max(h.inner.timers.borrow().queue.len()));
            }
        });
        assert!(peak.get() <= 200, "heap peaked at {} entries", peak.get());
        assert!(sim.timer_heap_len() <= 200);
        assert_eq!(sim.live_timers(), 0);
        assert_eq!(sim.now().as_nanos(), 10_000 * 1_000);
    }

    #[test]
    fn compaction_keeps_live_timers_and_their_order() {
        // 100 live sleeps with distinct deadlines, interleaved with 1000
        // cancelled ones: sweeps run while live entries are in the heap,
        // and every live sleep still fires, in deadline order.
        let mut sim = Sim::new(6);
        let h = sim.handle();
        let log: Rc<RefCell<Vec<u64>>> = Rc::default();
        // An earlier timer keeps every live sleep on the registered path:
        // alone, each would be the next event and complete in place.
        let mut earlier = Box::pin(h.sleep(SimDuration::from_micros(1)));
        assert!(futures_poll_once(&mut earlier).is_pending());
        for i in 0..100u64 {
            let (h2, log2) = (h.clone(), Rc::clone(&log));
            sim.spawn(async move {
                h2.sleep(SimDuration::from_micros(1_000 - i)).await;
                log2.borrow_mut().push(i);
            });
            for _ in 0..10 {
                let mut s = Box::pin(h.sleep(SimDuration::from_secs(1)));
                assert!(futures_poll_once(&mut s).is_pending());
            }
            poll_ready(&mut sim);
        }
        assert!(sim.timer_heap_len() < 100 + 3 * 100, "no sweep ran");
        sim.run();
        assert_eq!(*log.borrow(), (0..100).rev().collect::<Vec<_>>());
        assert_eq!(sim.now().as_nanos(), 1_000_000);
    }

    /// A waker that counts how often it is woken.
    struct Counting(AtomicUsize);

    impl Wake for Counting {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn repolled_sleep_wakes_the_latest_waker() {
        // The `Future` contract: only the waker of the most recent poll
        // must be woken. A `Sleep` polled under W1 and then under W2 (it
        // moved to another task, or a combinator polled it with its own
        // waker) used to keep W1 and never wake W2.
        let mut sim = Sim::new(1);
        let mut sleep = Box::pin(sim.handle().sleep(SimDuration::from_micros(3)));
        let counters = [(); 2].map(|()| Arc::new(Counting(Default::default())));
        for counter in &counters {
            let waker = Waker::from(Arc::clone(counter));
            let polled = sleep.as_mut().poll(&mut Context::from_waker(&waker));
            assert!(polled.is_pending());
        }
        assert_eq!(sim.live_timers(), 1, "a re-poll registers nothing new");
        sim.run();
        assert_eq!(sim.now().as_nanos(), 3_000);
        let [w1, w2] = counters.map(|c| c.0.load(Ordering::SeqCst));
        assert_eq!((w1, w2), (0, 1), "(W1, W2) wake counts");
    }

    #[test]
    fn sleep_moved_to_another_task_wakes_that_task() {
        // Same rule through the wake-by-id path: task A polls the sleep
        // once and hands it over; task B awaits it and must be the one
        // the timer makes runnable.
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let (tx, rx) = crate::oneshot::<Pin<Box<Sleep>>>();
        let h2 = h.clone();
        sim.spawn(async move {
            let mut sleep = Box::pin(h2.sleep(SimDuration::from_micros(2)));
            std::future::poll_fn(|cx| {
                assert!(sleep.as_mut().poll(cx).is_pending());
                Poll::Ready(())
            })
            .await;
            tx.send(sleep);
            std::future::pending::<()>().await;
        });
        let woke_at = sim.block_on(async move {
            rx.await.expect("sleep handed over").await;
            h.now()
        });
        assert_eq!(woke_at.as_nanos(), 2_000);
    }

    #[test]
    fn sleep_repolled_by_its_owner_keeps_one_registration() {
        // A task re-polls a registered `Sleep` many times within its own
        // polls (what a `timeout` around a busy future does): one
        // registration, one wake. A re-poll under a foreign waker must
        // still move the wake to that waker.
        const REPOLLS: usize = 50;
        let mut sim = Sim::new(1);
        let h = sim.handle();
        // Earlier timers at both deadlines keep both sleeps on the
        // registered path: alone, each would complete in place.
        let mut earlier = [2, 7].map(|us| Box::pin(h.sleep(SimDuration::from_micros(us))));
        for sleep in &mut earlier {
            assert!(futures_poll_once(sleep).is_pending());
        }
        let blockers = earlier.len();
        let foreign = Arc::new(Counting(Default::default()));
        let foreign_waker = Waker::from(Arc::clone(&foreign));
        let live: Rc<Cell<usize>> = Rc::default();
        let live2 = Rc::clone(&live);
        sim.spawn(async move {
            let mut owned = std::pin::pin!(h.sleep(SimDuration::from_micros(2)));
            std::future::poll_fn(|cx| {
                for _ in 0..REPOLLS {
                    if owned.as_mut().poll(cx).is_ready() {
                        return Poll::Ready(());
                    }
                }
                live2.set(live2.get().max(h.inner.timers.borrow().slab.live));
                Poll::Pending
            })
            .await;
            let mut handed = std::pin::pin!(h.sleep(SimDuration::from_micros(5)));
            std::future::poll_fn(|cx| {
                for _ in 0..REPOLLS {
                    assert!(handed.as_mut().poll(cx).is_pending());
                }
                Poll::Ready(())
            })
            .await;
            let polled = handed
                .as_mut()
                .poll(&mut Context::from_waker(&foreign_waker));
            assert!(polled.is_pending());
            std::future::pending::<()>().await;
        });
        poll_ready(&mut sim);
        assert_eq!(
            sim.live_timers(),
            blockers + 1,
            "re-polls registered nothing new"
        );
        sim.run();
        assert_eq!(live.get(), blockers + 1);
        // Polled at spawn and once at the 2 us fire; the 2 + 5 us fire
        // woke the foreign waker, not the task.
        assert_eq!(sim.events_processed(), 2);
        assert_eq!(foreign.0.load(Ordering::SeqCst), 1);
        assert_eq!(sim.now().as_nanos(), 7_000);
        assert_eq!(sim.live_timers(), 0);
    }

    #[test]
    fn own_task_sleep_registers_the_task_id_not_a_waker() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        sim.spawn(async move { h.sleep(SimDuration::from_micros(1)).await });
        // Runnable while the first task polls its sleep, so that sleep
        // registers instead of completing in place.
        sim.spawn(async {});
        poll_ready(&mut sim);
        {
            let timers = sim.inner.timers.borrow();
            let targets: Vec<_> = timers.slab.slots.iter().flatten().collect();
            assert!(matches!(targets[..], [(_, TimerTarget::Task(0))]));
        }
        sim.run();
        assert_eq!(sim.now().as_nanos(), 1_000);
    }

    #[test]
    fn lone_task_sleeps_advance_the_clock_in_place() {
        // Nothing else is runnable or queued, so each sleep is the next
        // event: it sets the clock and completes within the same poll,
        // one event per resumption, with no timer registered.
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let h2 = h.clone();
        sim.spawn(async move {
            for us in [1, 2, 3] {
                h2.sleep(SimDuration::from_micros(us)).await;
            }
        });
        poll_ready(&mut sim);
        assert_eq!(sim.now().as_nanos(), 6_000, "done within the spawn poll");
        assert_eq!(sim.events_processed(), 4, "the poll and three advances");
        assert_eq!(sim.live_timers(), 0);
        assert_eq!(sim.timer_slab_size(), 0, "no timer was registered");
        assert_eq!(sim.timer_heap_len(), 0);
    }

    #[test]
    fn a_runnable_task_or_an_earlier_timer_forces_registration() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let log: Rc<RefCell<Vec<u64>>> = Rc::default();
        // A runnable task: the first sleeper polls with the second in the
        // ready queue, and the second then finds the first's timer at the
        // same deadline. Both register, and fire in FIFO order.
        for i in 0..2u64 {
            let (h2, log2) = (h.clone(), Rc::clone(&log));
            sim.spawn(async move {
                h2.sleep(SimDuration::from_micros(5)).await;
                log2.borrow_mut().push(i);
            });
        }
        poll_ready(&mut sim);
        assert_eq!(sim.live_timers(), 2);
        sim.run();
        assert_eq!(*log.borrow(), [0, 1]);
        assert_eq!(sim.now().as_nanos(), 5_000);
        assert_eq!(sim.events_processed(), 4);

        // An earlier registration at the same deadline (under a foreign
        // waker) fires first: the lone task's sleep registers behind it.
        let counter = Arc::new(Counting(Default::default()));
        let mut earlier = Box::pin(h.sleep(SimDuration::from_micros(5)));
        let waker = Waker::from(Arc::clone(&counter));
        assert!(earlier
            .as_mut()
            .poll(&mut Context::from_waker(&waker))
            .is_pending());
        let (h2, seen) = (h.clone(), Arc::clone(&counter));
        sim.spawn(async move {
            h2.sleep(SimDuration::from_micros(5)).await;
            assert_eq!(
                seen.0.load(Ordering::SeqCst),
                1,
                "the earlier timer fired first"
            );
        });
        poll_ready(&mut sim);
        assert_eq!(sim.live_timers(), 2);
        sim.run();
        assert_eq!(sim.now().as_nanos(), 10_000);
        assert_eq!(counter.0.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn a_sleep_under_a_foreign_waker_never_completes_in_place() {
        // Inside a lone task, but polled under a combinator's own waker:
        // the fire must wake that waker, so the sleep registers.
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let counter = Arc::new(Counting(Default::default()));
        let waker = Waker::from(Arc::clone(&counter));
        let h2 = h.clone();
        sim.spawn(async move {
            let mut sleep = Box::pin(h2.sleep(SimDuration::from_micros(3)));
            let polled = sleep.as_mut().poll(&mut Context::from_waker(&waker));
            assert!(polled.is_pending());
            assert_eq!(h2.now(), SimTime::ZERO);
            std::future::pending::<()>().await;
        });
        poll_ready(&mut sim);
        assert_eq!(sim.live_timers(), 1);
        sim.run();
        assert_eq!(sim.now().as_nanos(), 3_000);
        assert_eq!(counter.0.load(Ordering::SeqCst), 1);
        assert_eq!(sim.events_processed(), 1);
    }

    /// The timer state this module had before the radix queue, kept as the
    /// reference [`Timers`] is checked against: a binary heap in `(at,
    /// seq)` order over the same slab, stale entries skipped as they
    /// surface and swept by the same rule.
    struct HeapTimers {
        heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
        slab: TimerSlab,
        next_seq: u64,
    }

    impl HeapTimers {
        fn register(&mut self, at: u64, target: TimerTarget) -> (u32, u64) {
            let seq = self.next_seq;
            self.next_seq += 1;
            let slot = self.slab.insert(seq, target);
            self.heap.push(Reverse((at, seq, slot)));
            (slot, seq)
        }

        fn pop(&mut self) -> Option<(u64, TimerTarget)> {
            loop {
                let Reverse((at, seq, slot)) = self.heap.pop()?;
                if let Some(target) = self.slab.take(slot, seq) {
                    return Some((at, target));
                }
            }
        }

        fn cancel(&mut self, slot: u32, seq: u64) {
            if self.slab.take(slot, seq).is_some()
                && self.heap.len() - self.slab.live > (2 * self.slab.live).max(64)
            {
                let slab = &self.slab;
                self.heap
                    .retain(|Reverse((_, seq, slot))| slab.is_live(*slot, *seq));
            }
        }
    }

    #[test]
    fn timer_queue_matches_the_binary_heap_under_random_ops() {
        fn id(popped: Option<(u64, TimerTarget)>) -> Option<(u64, usize)> {
            popped.map(|(at, target)| match target {
                TimerTarget::Task(id) => (at, id),
                TimerTarget::Waker(_) => unreachable!("the test registers task ids"),
            })
        }
        for case in 0..24u64 {
            let mut rng = SmallRng::seed_from_u64(0x71AE_0000 + case);
            let mut radix = Timers::new();
            let mut heap = HeapTimers {
                heap: Default::default(),
                slab: TimerSlab::default(),
                next_seq: 0,
            };
            // The executor's clock: the deadline of the last timer fired.
            let mut now = 0u64;
            let mut pending: Vec<(u32, u64)> = Vec::new();
            let mut registered = 0usize;
            let mut register = |radix: &mut Timers, heap: &mut HeapTimers, at: u64| {
                registered += 1;
                let reg = radix.register(at, TimerTarget::Task(registered));
                assert_eq!(
                    reg,
                    heap.register(at, TimerTarget::Task(registered)),
                    "case {case}: slot/seq assignment diverged"
                );
                reg
            };
            let mut popped = 0usize;
            let mut after = 0usize;
            for step in 0..2_500 {
                match rng.gen_range(0..16u64) {
                    // A burst of registrations, log-uniform from +1 ns to
                    // +10 ms; one in three bursts shares a single deadline.
                    0..=6 => {
                        let same = rng.gen_range(0..3u64) == 0;
                        let mut at = 0;
                        for i in 0..rng.gen_range(1..=6u64) {
                            if i == 0 || !same {
                                let magnitude = rng.gen_range(0..=23u32);
                                at = now + rng.gen_range(1..=(1u64 << magnitude)).min(10_000_000);
                            }
                            pending.push(register(&mut radix, &mut heap, at));
                        }
                    }
                    7..=10 if !pending.is_empty() => {
                        let (slot, seq) = pending.swap_remove(rng.gen_range(0..pending.len()));
                        let cancelled = radix.cancel(slot, seq).is_some();
                        heap.cancel(slot, seq);
                        // (A no-op for a registration that already fired,
                        // as for a `Sleep` dropped after its deadline.)
                        let stale = radix.queue.len() - radix.slab.live;
                        assert!(
                            !cancelled || stale <= (2 * radix.slab.live).max(64),
                            "case {case} step {step}: {stale} stale entries beside {} live",
                            radix.slab.live
                        );
                    }
                    // Cancel everything: what is left is a run of stale
                    // entries, which must neither fire nor move the clock,
                    // and a timer registered right after must still fire
                    // at its own deadline, in order.
                    11 => {
                        for (slot, seq) in pending.drain(..) {
                            radix.cancel(slot, seq);
                            heap.cancel(slot, seq);
                        }
                        assert!(id(radix.pop()).is_none(), "case {case} step {step}");
                        assert!(id(heap.pop()).is_none());
                        assert_eq!(radix.queue.last, now, "case {case} step {step}");
                        assert_eq!(radix.queue.len(), 0);
                        let near = register(&mut radix, &mut heap, now + 1);
                        let far = register(&mut radix, &mut heap, now + 5_000_000);
                        pending.extend([far, near]);
                    }
                    // The in-place check is conservative: when it says
                    // every entry is due after `at`, no live timer is due
                    // at or before it (the heap keeps stale entries the
                    // radix queue has already dropped).
                    12 => {
                        let magnitude = rng.gen_range(0..=23u32);
                        let at = now + rng.gen_range(0..=(1u64 << magnitude));
                        if radix.queue.all_after(at) {
                            let live = heap
                                .heap
                                .iter()
                                .filter(|Reverse((_, seq, slot))| heap.slab.is_live(*slot, *seq));
                            let first = live.map(|Reverse((due, _, _))| *due).min();
                            assert!(first.is_none_or(|due| due > at), "case {case} step {step}");
                            after += 1;
                        }
                    }
                    _ => {
                        let got = id(radix.pop());
                        assert_eq!(got, id(heap.pop()), "case {case} step {step}: pop order");
                        assert_eq!(radix.slab.live, heap.slab.live);
                        if let Some((at, _)) = got {
                            assert!(at >= now, "case {case} step {step}: clock went back");
                            now = at;
                            popped += 1;
                        }
                        assert_eq!(radix.queue.last, now, "case {case} step {step}");
                    }
                }
            }
            assert!(popped > 300, "case {case}: only {popped} pops");
            assert!(
                after > 10,
                "case {case}: only {after} in-place checks passed"
            );
            // Drain: the tails agree too.
            loop {
                let got = id(radix.pop());
                assert_eq!(got, id(heap.pop()), "case {case}: drain order");
                if got.is_none() {
                    break;
                }
            }
            assert_eq!(radix.queue.len(), 0);
        }
    }

    #[test]
    fn dropping_the_sim_drops_parked_tasks() {
        // A task parked forever owns a sentinel and a handle back to the
        // simulation; the handle must not keep the task (and so the
        // sentinel) alive once the `Sim` is gone — nor may its
        // `JoinHandle`, held outside the `Sim`, which keeps the task's
        // cell alive: teardown must drop the future itself.
        let mut sim = Sim::new(3);
        let h = sim.handle();
        let sentinel = Rc::new(());
        let held = Rc::clone(&sentinel);
        let notify = crate::Notify::new();
        let parked_on = notify.clone();
        let join = sim.spawn(async move {
            let _held = (held, h);
            parked_on.notified().await;
        });
        sim.run();
        assert_eq!(Rc::strong_count(&sentinel), 2);
        let outliving = sim.handle();
        drop(sim);
        assert_eq!(Rc::strong_count(&sentinel), 1, "parked task leaked");
        assert!(!join.is_finished());
        drop(join);
        // A handle that outlives the `Sim` still answers; what it spawns
        // is simply never polled.
        assert_eq!(outliving.now(), SimTime::ZERO);
        let late = outliving.spawn(async {});
        assert!(!late.is_finished());
        drop(outliving.sleep(SimDuration::from_micros(1)));
    }

    #[test]
    fn teardown_runs_task_destructors_without_a_borrow_held() {
        // Each parked task owns something whose destructor re-enters the
        // executor or a peer's state: a registered `Sleep` (timer slab and
        // heap), a held `SemPermit` with a waiter queued behind it, a
        // `Notified`, an un-awaited `JoinHandle`, a oneshot sender whose
        // receiver is parked, and a guard that spawns from `drop`.
        struct SpawnOnDrop(SimHandle, Rc<Cell<u32>>);
        impl Drop for SpawnOnDrop {
            fn drop(&mut self) {
                self.1.set(self.1.get() + 1);
                if self.1.get() < 3 {
                    let again = SpawnOnDrop(self.0.clone(), Rc::clone(&self.1));
                    self.0.spawn(async move {
                        let _again = again;
                        std::future::pending::<()>().await;
                    });
                }
            }
        }

        let mut sim = Sim::new(4);
        let h = sim.handle();
        let sem = crate::Semaphore::new(1);
        let notify = crate::Notify::new();
        let (tx, rx) = crate::oneshot::<u8>();
        let drops: Rc<Cell<u32>> = Rc::default();

        let h2 = h.clone();
        sim.spawn(async move { h2.sleep(SimDuration::from_secs(1)).await });
        let (sem2, h2) = (sem.clone(), h.clone());
        sim.spawn(async move {
            let _permit = sem2.acquire().await;
            h2.sleep(SimDuration::from_secs(2)).await;
        });
        let sem2 = sem.clone();
        sim.spawn(async move {
            let _queued = sem2.acquire().await;
        });
        sim.spawn(async move { notify.notified().await });
        let h2 = h.clone();
        sim.spawn(async move {
            let _unawaited = h2.spawn(std::future::pending::<()>());
            let _tx = tx;
            std::future::pending::<()>().await;
        });
        sim.spawn(async move {
            rx.await;
        });
        let guard = SpawnOnDrop(h.clone(), Rc::clone(&drops));
        sim.spawn(async move {
            let _guard = guard;
            std::future::pending::<()>().await;
        });

        // Park everything without reaching the 1 s deadline.
        poll_ready(&mut sim);
        assert_eq!(sim.live_timers(), 2);
        let inner = Rc::clone(&sim.inner);
        drop(sim);
        assert_eq!(
            drops.get(),
            3,
            "tasks spawned during teardown are dropped too"
        );
        assert_eq!(inner.live_tasks.get(), 0);
        assert_eq!(inner.timers.borrow().slab.live, 0);
        assert_eq!(inner.timers.borrow().queue.len(), 0);
        assert_eq!(sem.available(), 1, "the held permit was released");
        drop(h);
        assert_eq!(Rc::strong_count(&inner), 1, "no task still holds a handle");
    }

    #[test]
    fn cross_thread_wake_is_delivered() {
        // The Waker contract allows a waker to cross threads; the ready
        // queue must deliver such wakes through its synchronized path.
        let mut sim = Sim::new(8);
        let woken: Rc<Cell<bool>> = Rc::default();
        let woken2 = Rc::clone(&woken);
        let handle_out: Rc<RefCell<Option<Waker>>> = Rc::default();
        let handle_out2 = Rc::clone(&handle_out);
        sim.spawn(async move {
            let mut first = true;
            std::future::poll_fn(move |cx| {
                if first {
                    first = false;
                    *handle_out2.borrow_mut() = Some(cx.waker().clone());
                    Poll::Pending
                } else {
                    Poll::Ready(())
                }
            })
            .await;
            woken2.set(true);
        });
        // First poll parks the task and hands us its waker.
        sim.run();
        assert!(!woken.get());
        let waker = handle_out.borrow_mut().take().unwrap();
        std::thread::spawn(move || waker.wake()).join().unwrap();
        sim.run();
        assert!(woken.get());
    }
}
