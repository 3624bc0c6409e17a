//! Per-phase latency tracing against the virtual clock.
//!
//! The paper's Fig. 20 decomposes end-to-end RPC latency into where the
//! time actually goes: sender software, the wire, NIC DMA engines, PM
//! media, receiver software, log persistence, and flush waits. This
//! module provides the measurement layer for that breakdown: a [`Tracer`]
//! per node into which components ([`crate::FifoResource`] users like the
//! RNIC, the PM device, and the CPU model) open scoped [`Span`]s.
//!
//! Design constraints, in order:
//!
//! * **Zero simulated cost.** Opening and closing a span performs no
//!   `await`; the virtual clock never advances because of tracing, so a
//!   traced run and an untraced run produce *identical* schedules.
//! * **Safe across interleaved tasks.** A [`Span`] is an owned value
//!   capturing its start time; any number of spans (same or different
//!   phases) may be open concurrently across the executor's tasks, and
//!   they may close in any order.
//! * **Critical-path attribution.** Durable RPCs decouple request
//!   processing from the persistence ACK; that off-path work must not
//!   pollute the latency breakdown. Whole futures that run after the
//!   client-visible completion are wrapped in [`Tracer::offpath_scope`]
//!   (synchronous stretches can use [`Tracer::offpath`]); spans opened
//!   inside such a scope are accumulated separately. The scope is
//!   poll-local: it is only in effect while the wrapped future itself is
//!   executing, so interleaved on-path tasks on the same node are never
//!   misattributed.

use std::cell::Cell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use crate::executor::SimHandle;
use crate::time::{SimDuration, SimTime};

/// Where a traced duration belongs in the latency breakdown.
///
/// The first five phases are **exclusive**: every simulated activity is
/// recorded in at most one of them, so their totals can be compared and
/// summed. `LogPersist` and `FlushWait` are **composite**: they span whole
/// protocol operations whose constituent activities are also recorded in
/// the exclusive phases, so they must not be added to the exclusive sums.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Client-side software: verb posts, polling, request marshalling.
    SenderSw,
    /// Network: link serialization + propagation + NIC packet engines.
    Wire,
    /// PCIe DMA engines on the receiving NIC (payload DMA, WQE fetches).
    NicDma,
    /// PM media: write/read/flush service time (including port queueing).
    PmMedia,
    /// Server-side software: poll/dispatch, parsing, handlers, memcpy.
    ReceiverSw,
    /// Composite: a full log-append + persist operation (client-visible
    /// append leg, plus server-side log maintenance such as head
    /// persistence).
    LogPersist,
    /// Composite: waiting for a flush to complete (emulated
    /// read-after-write drain, native flush command, persist-ACK wait).
    FlushWait,
}

impl Phase {
    /// Every phase, in breakdown-column order.
    pub const ALL: [Phase; 7] = [
        Phase::SenderSw,
        Phase::Wire,
        Phase::NicDma,
        Phase::PmMedia,
        Phase::ReceiverSw,
        Phase::LogPersist,
        Phase::FlushWait,
    ];

    /// The exclusive (non-overlapping) phases; their totals partition the
    /// traced hardware/software activity.
    pub const EXCLUSIVE: [Phase; 5] = [
        Phase::SenderSw,
        Phase::Wire,
        Phase::NicDma,
        Phase::PmMedia,
        Phase::ReceiverSw,
    ];

    /// Stable snake_case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Phase::SenderSw => "sender_sw",
            Phase::Wire => "wire",
            Phase::NicDma => "nic_dma",
            Phase::PmMedia => "pm_media",
            Phase::ReceiverSw => "receiver_sw",
            Phase::LogPersist => "log_persist",
            Phase::FlushWait => "flush_wait",
        }
    }

    fn index(self) -> usize {
        match self {
            Phase::SenderSw => 0,
            Phase::Wire => 1,
            Phase::NicDma => 2,
            Phase::PmMedia => 3,
            Phase::ReceiverSw => 4,
            Phase::LogPersist => 5,
            Phase::FlushWait => 6,
        }
    }
}

/// Which side of the RPC a node plays; decides whether its software time
/// counts as [`Phase::SenderSw`] or [`Phase::ReceiverSw`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Role {
    /// Not yet assigned (standalone components); software time is
    /// attributed to the sender phase.
    #[default]
    Unassigned,
    /// Client side: software time is [`Phase::SenderSw`].
    Sender,
    /// Server side: software time is [`Phase::ReceiverSw`].
    Receiver,
}

const PHASES: usize = Phase::ALL.len();

struct TracerInner {
    handle: SimHandle,
    role: Cell<Role>,
    /// Critical-path total per phase (nanoseconds).
    onpath_ns: [Cell<u64>; PHASES],
    /// Off-critical-path total per phase (nanoseconds).
    offpath_ns: [Cell<u64>; PHASES],
    offpath_depth: Cell<u64>,
}

/// A per-node trace sink. Cheap to clone (shared state).
#[derive(Clone)]
pub struct Tracer {
    inner: Rc<TracerInner>,
}

impl Tracer {
    /// A tracer reading time from `handle`, with no role assigned yet.
    pub fn new(handle: SimHandle) -> Self {
        Tracer {
            inner: Rc::new(TracerInner {
                handle,
                role: Cell::new(Role::Unassigned),
                onpath_ns: std::array::from_fn(|_| Cell::new(0)),
                offpath_ns: std::array::from_fn(|_| Cell::new(0)),
                offpath_depth: Cell::new(0),
            }),
        }
    }

    /// Assign this node's RPC role (done once, at system construction).
    pub fn set_role(&self, role: Role) {
        self.inner.role.set(role);
    }

    /// The node's current role.
    pub fn role(&self) -> Role {
        self.inner.role.get()
    }

    /// Open a span in `phase`, started at the current virtual time.
    pub fn span(&self, phase: Phase) -> Span {
        Span {
            tracer: self.clone(),
            phase,
            start: self.inner.handle.now(),
            offpath: self.inner.offpath_depth.get() > 0,
            closed: false,
        }
    }

    /// Open a software span attributed per this node's [`Role`].
    pub fn span_sw(&self) -> Span {
        self.span(self.sw_phase())
    }

    /// The phase this node's software time belongs to.
    pub fn sw_phase(&self) -> Phase {
        match self.inner.role.get() {
            Role::Receiver => Phase::ReceiverSw,
            Role::Sender | Role::Unassigned => Phase::SenderSw,
        }
    }

    /// Enter an off-critical-path scope: spans opened while the guard is
    /// alive accumulate into the off-path totals instead of the breakdown
    /// totals. Scopes nest.
    ///
    /// Do **not** hold the guard across an `await`: in the cooperative
    /// executor other tasks run between polls, and their on-path spans
    /// would open under this scope. Wrap the whole future in
    /// [`offpath_scope`](Tracer::offpath_scope) instead.
    pub fn offpath(&self) -> OffpathGuard {
        self.inner
            .offpath_depth
            .set(self.inner.offpath_depth.get() + 1);
        OffpathGuard {
            tracer: self.clone(),
        }
    }

    /// Run `fut` off the critical path: every span opened *while the
    /// wrapped future is executing* records as off-path work. The scope
    /// is entered and left around each poll, so tasks that interleave
    /// with `fut` keep their own attribution.
    pub fn offpath_scope<F: Future>(&self, fut: F) -> OffpathFuture<F> {
        OffpathFuture {
            tracer: self.clone(),
            fut,
        }
    }

    /// Critical-path total recorded for `phase`.
    pub fn total(&self, phase: Phase) -> SimDuration {
        SimDuration::from_nanos(self.inner.onpath_ns[phase.index()].get())
    }

    /// Off-critical-path total recorded for `phase`.
    pub fn offpath_total(&self, phase: Phase) -> SimDuration {
        SimDuration::from_nanos(self.inner.offpath_ns[phase.index()].get())
    }

    /// Snapshot this tracer's measurements.
    pub fn report(&self) -> TraceReport {
        TraceReport {
            onpath_ns: std::array::from_fn(|i| self.inner.onpath_ns[i].get()),
            offpath_ns: std::array::from_fn(|i| self.inner.offpath_ns[i].get()),
        }
    }

    fn commit(&self, phase: Phase, d: SimDuration, offpath: bool) {
        let totals = if offpath {
            &self.inner.offpath_ns
        } else {
            &self.inner.onpath_ns
        };
        let c = &totals[phase.index()];
        c.set(c.get() + d.as_nanos());
    }
}

/// An open measurement interval; records its elapsed virtual time into
/// the owning [`Tracer`] on [`end`](Span::end) or drop.
pub struct Span {
    tracer: Tracer,
    phase: Phase,
    start: SimTime,
    offpath: bool,
    closed: bool,
}

impl Span {
    /// Close the span, recording `now - start`.
    pub fn end(mut self) {
        self.close();
    }

    fn close(&mut self) {
        if self.closed {
            return;
        }
        self.closed = true;
        let elapsed = self.tracer.inner.handle.now() - self.start;
        self.tracer.commit(self.phase, elapsed, self.offpath);
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.close();
    }
}

/// RAII guard for an off-critical-path scope (see [`Tracer::offpath`]).
pub struct OffpathGuard {
    tracer: Tracer,
}

impl Drop for OffpathGuard {
    fn drop(&mut self) {
        let d = &self.tracer.inner.offpath_depth;
        d.set(d.get() - 1);
    }
}

/// A future whose every poll runs inside an off-critical-path scope (see
/// [`Tracer::offpath_scope`]).
pub struct OffpathFuture<F> {
    tracer: Tracer,
    fut: F,
}

impl<F: Future> Future for OffpathFuture<F> {
    type Output = F::Output;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
        // SAFETY: `fut` is structurally pinned — it is never moved out of
        // the pinned struct, which has no `Drop` impl and is `Unpin` only
        // when `F` is; `tracer` is never pinned.
        let (tracer, fut) = unsafe {
            let this = self.get_unchecked_mut();
            (&this.tracer, Pin::new_unchecked(&mut this.fut))
        };
        let _scope = tracer.offpath();
        fut.poll(cx)
    }
}

/// A mergeable snapshot of a [`Tracer`]'s measurements.
#[derive(Clone, Default)]
pub struct TraceReport {
    onpath_ns: [u64; PHASES],
    offpath_ns: [u64; PHASES],
}

impl TraceReport {
    /// An empty report (identity for [`merge`](TraceReport::merge)).
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold another report into this one (cluster-wide aggregation).
    pub fn merge(&mut self, other: &TraceReport) {
        for i in 0..PHASES {
            self.onpath_ns[i] += other.onpath_ns[i];
            self.offpath_ns[i] += other.offpath_ns[i];
        }
    }

    /// Critical-path total for `phase`.
    pub fn total(&self, phase: Phase) -> SimDuration {
        SimDuration::from_nanos(self.onpath_ns[phase.index()])
    }

    /// Off-critical-path total for `phase`.
    pub fn offpath_total(&self, phase: Phase) -> SimDuration {
        SimDuration::from_nanos(self.offpath_ns[phase.index()])
    }

    /// Sum of the exclusive phases' critical-path totals — the breakdown
    /// denominator.
    pub fn exclusive_total(&self) -> SimDuration {
        Phase::EXCLUSIVE
            .iter()
            .fold(SimDuration::ZERO, |acc, &p| acc + self.total(p))
    }

    /// Fraction of the exclusive critical-path time spent in software
    /// (sender + receiver), in `[0, 1]`. Returns 0 when nothing was
    /// traced.
    pub fn software_share(&self) -> f64 {
        let total = self.exclusive_total().as_nanos();
        if total == 0 {
            return 0.0;
        }
        let sw = self.total(Phase::SenderSw).as_nanos() + self.total(Phase::ReceiverSw).as_nanos();
        sw as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Sim;

    /// Hold a span of `phase` open for `ns` of virtual time.
    fn spend(sim: &mut Sim, tracer: &Tracer, phase: Phase, ns: u64) {
        let (t, h) = (tracer.clone(), sim.handle());
        sim.block_on(async move {
            let s = t.span(phase);
            h.sleep(SimDuration::from_nanos(ns)).await;
            s.end();
        });
    }

    #[test]
    fn span_records_elapsed_virtual_time() {
        let mut sim = Sim::new(1);
        let tracer = Tracer::new(sim.handle());
        spend(&mut sim, &tracer, Phase::Wire, 1234);
        assert_eq!(tracer.total(Phase::Wire).as_nanos(), 1234);
        assert_eq!(tracer.report().total(Phase::Wire).as_nanos(), 1234);
    }

    #[test]
    fn spans_nest_and_interleave_across_tasks() {
        let mut sim = Sim::new(1);
        let tracer = Tracer::new(sim.handle());
        // Two tasks with overlapping spans of different lengths.
        for (phase, delay) in [(Phase::NicDma, 100u64), (Phase::PmMedia, 300)] {
            let t = tracer.clone();
            let h = sim.handle();
            sim.spawn(async move {
                let s = t.span(phase);
                h.sleep(SimDuration::from_nanos(delay)).await;
                s.end();
            });
        }
        sim.run();
        assert_eq!(tracer.total(Phase::NicDma).as_nanos(), 100);
        assert_eq!(tracer.total(Phase::PmMedia).as_nanos(), 300);
    }

    #[test]
    fn role_selects_software_phase() {
        let mut sim = Sim::new(1);
        let tracer = Tracer::new(sim.handle());
        assert_eq!(tracer.sw_phase(), Phase::SenderSw);
        tracer.set_role(Role::Receiver);
        assert_eq!(tracer.sw_phase(), Phase::ReceiverSw);
        let (t, h) = (tracer.clone(), sim.handle());
        sim.block_on(async move {
            let s = t.span_sw();
            h.sleep(SimDuration::from_nanos(7)).await;
            s.end();
        });
        assert_eq!(tracer.total(Phase::ReceiverSw).as_nanos(), 7);
        assert_eq!(tracer.total(Phase::SenderSw).as_nanos(), 0);
    }

    #[test]
    fn offpath_scope_diverts_recording() {
        let mut sim = Sim::new(1);
        let tracer = Tracer::new(sim.handle());
        let t2 = tracer.clone();
        let h = sim.handle();
        sim.block_on(async move {
            let guard = t2.offpath();
            let s = t2.span(Phase::ReceiverSw);
            h.sleep(SimDuration::from_nanos(50)).await;
            s.end();
            drop(guard);
            let s = t2.span(Phase::ReceiverSw);
            h.sleep(SimDuration::from_nanos(20)).await;
            s.end();
        });
        assert_eq!(tracer.offpath_total(Phase::ReceiverSw).as_nanos(), 50);
        assert_eq!(tracer.total(Phase::ReceiverSw).as_nanos(), 20);
    }

    #[test]
    fn nested_spans_close_correctly_and_cost_zero_time() {
        let mut sim = Sim::new(1);
        let tracer = Tracer::new(sim.handle());
        let t2 = tracer.clone();
        let h = sim.handle();
        sim.block_on(async move {
            // Opening and closing spans without awaiting must not move
            // the virtual clock.
            let outer = t2.span(Phase::LogPersist);
            let mid = t2.span_sw();
            let inner = t2.span(Phase::PmMedia);
            assert_eq!(h.now().as_nanos(), 0, "tracing advanced the clock");
            h.sleep(SimDuration::from_nanos(30)).await;
            inner.end();
            h.sleep(SimDuration::from_nanos(20)).await;
            drop(mid); // drop closes like end()
            h.sleep(SimDuration::from_nanos(10)).await;
            outer.end();
            assert_eq!(h.now().as_nanos(), 60, "tracing advanced the clock");
        });
        // Every span recorded exactly its own interval, once.
        let r = tracer.report();
        assert_eq!(r.total(Phase::PmMedia).as_nanos(), 30);
        assert_eq!(r.total(Phase::SenderSw).as_nanos(), 50);
        assert_eq!(r.total(Phase::LogPersist).as_nanos(), 60);
    }

    #[test]
    fn offpath_scope_is_poll_local_across_interleaving() {
        let mut sim = Sim::new(1);
        let tracer = Tracer::new(sim.handle());
        // Task A runs off-path and holds a span across an await.
        let t = tracer.clone();
        let h = sim.handle();
        sim.spawn(tracer.offpath_scope(async move {
            let s = t.span(Phase::ReceiverSw);
            h.sleep(SimDuration::from_nanos(100)).await;
            s.end();
        }));
        // Task B interleaves with A's sleep but is on the critical path.
        let t = tracer.clone();
        let h = sim.handle();
        sim.spawn(async move {
            h.sleep(SimDuration::from_nanos(10)).await;
            let s = t.span(Phase::ReceiverSw);
            h.sleep(SimDuration::from_nanos(50)).await;
            s.end();
        });
        sim.run();
        assert_eq!(tracer.offpath_total(Phase::ReceiverSw).as_nanos(), 100);
        assert_eq!(tracer.total(Phase::ReceiverSw).as_nanos(), 50);
    }

    #[test]
    fn report_merge_combines_totals() {
        let mut sim = Sim::new(1);
        let a = Tracer::new(sim.handle());
        let b = Tracer::new(sim.handle());
        spend(&mut sim, &a, Phase::Wire, 10);
        spend(&mut sim, &b, Phase::Wire, 30);
        let mut r = a.report();
        r.merge(&b.report());
        assert_eq!(r.total(Phase::Wire).as_nanos(), 40);
        assert_eq!(r.exclusive_total().as_nanos(), 40);
    }

    #[test]
    fn software_share_over_exclusive_phases() {
        let mut sim = Sim::new(1);
        let t = Tracer::new(sim.handle());
        spend(&mut sim, &t, Phase::SenderSw, 5);
        spend(&mut sim, &t, Phase::Wire, 90);
        spend(&mut sim, &t, Phase::ReceiverSw, 5);
        // Composite phases are excluded from the denominator.
        spend(&mut sim, &t, Phase::FlushWait, 1000);
        let r = t.report();
        assert!((r.software_share() - 0.10).abs() < 1e-9);
    }
}
