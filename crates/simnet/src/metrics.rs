//! Always-on, low-overhead per-node metrics: monotonic counters, gauges,
//! and windowed latency [`Histogram`]s over **virtual time**, with labeled
//! series and periodic snapshot ticks.
//!
//! This is the third observability layer next to [`crate::trace`] (offline
//! per-phase latency totals) and [`crate::journal`] (audited causal event
//! records). Unlike journaling — which is opt-in because it retains every
//! event — metrics are cheap enough to stay on by default: recording a
//! counter/gauge/window sample consumes **zero simulated time and zero
//! randomness**, so enabling metrics changes neither virtual-time results
//! nor the RNG stream of a seeded run.
//!
//! A node's [`Metrics`] handle aggregates series keyed by [`Key`]
//! (`name` + optional `shard` / `role` / `kind` labels). A background
//! snapshot tick runs at a fixed virtual-time interval, folding the
//! current values (plus any registered gauge *providers*, sampled lazily)
//! into a [`Snapshot`]. The ticker is self-quiescing: it is spawned on
//! the first recording, exits after an interval with no activity, and is
//! re-spawned on the next recording — so an idle cluster's event queue
//! drains and `Sim::run` terminates.
//!
//! Snapshots export to a deterministic JSONL time series via
//! [`to_jsonl`]: ticks are aligned to interval boundaries (identical
//! timestamps across nodes), series are emitted in `BTreeMap` key order,
//! and nothing depends on wall time — the export is byte-identical
//! across runs of the same seed.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;

use crate::executor::SimHandle;
use crate::stats::{Histogram, Summary};
use crate::time::{SimDuration, SimTime};

/// Label value meaning "no shard label" on a [`Key`].
pub const NO_SHARD: u32 = u32::MAX;

/// A labeled series identifier: metric name plus optional `shard`,
/// `replica_role`, and `kind` labels. Ordered (and therefore exported)
/// by derived lexicographic order, which is deterministic.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct Key {
    /// Metric name, e.g. `puts` or `log_outstanding`.
    pub name: &'static str,
    /// Shard index label, or [`NO_SHARD`].
    pub shard: u32,
    /// Replica-role label (`primary` / `backup`), or `""`.
    pub role: &'static str,
    /// Kind label (durable kind, fault kind, …), or `""`.
    pub kind: &'static str,
}

impl Key {
    /// An unlabeled series.
    pub fn new(name: &'static str) -> Self {
        Key {
            name,
            shard: NO_SHARD,
            role: "",
            kind: "",
        }
    }

    /// With a shard label.
    pub fn shard(mut self, shard: u32) -> Self {
        self.shard = shard;
        self
    }

    /// With a replica-role label.
    pub fn role(mut self, role: &'static str) -> Self {
        self.role = role;
        self
    }

    /// With a kind label.
    pub fn kind(mut self, kind: &'static str) -> Self {
        self.kind = kind;
        self
    }
}

/// One periodic capture of a node's series values.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// Virtual-time timestamp of the tick (aligned to the interval).
    pub ts_ns: u64,
    /// Node the snapshot belongs to.
    pub node: u32,
    /// Monotonic counter values at the tick (cumulative).
    pub counters: Vec<(Key, u64)>,
    /// Gauge values at the tick (explicit sets plus sampled providers).
    pub gauges: Vec<(Key, i64)>,
    /// Windowed histogram summaries for the interval ending at the tick;
    /// each window resets after it is captured.
    pub windows: Vec<(Key, Summary)>,
}

type Provider = Box<dyn Fn() -> i64>;

struct Inner {
    handle: SimHandle,
    node: u32,
    interval: SimDuration,
    counters: RefCell<BTreeMap<Key, Rc<Cell<u64>>>>,
    gauges: RefCell<BTreeMap<Key, Rc<Cell<i64>>>>,
    windows: RefCell<BTreeMap<Key, Rc<RefCell<Histogram>>>>,
    providers: RefCell<Vec<(Key, Provider)>>,
    snapshots: RefCell<Vec<Snapshot>>,
    ticking: Cell<bool>,
    dirty: Cell<bool>,
}

impl Inner {
    fn snapshot_now(&self) {
        let ts_ns = self.handle.now().as_nanos();
        let counters: Vec<(Key, u64)> = self
            .counters
            .borrow()
            .iter()
            .map(|(k, v)| (*k, v.get()))
            .collect();
        let mut gauges: BTreeMap<Key, i64> = self
            .gauges
            .borrow()
            .iter()
            .map(|(k, v)| (*k, v.get()))
            .collect();
        for (k, f) in self.providers.borrow().iter() {
            gauges.insert(*k, f());
        }
        // Summarise each window, then empty it in place: a fresh
        // histogram per window per tick would allocate its 30 KB of buckets.
        let windows: Vec<(Key, Summary)> = self
            .windows
            .borrow()
            .iter()
            .filter(|(_, h)| h.borrow().count() > 0)
            .map(|(k, h)| {
                let mut h = h.borrow_mut();
                let summary = h.summary();
                h.reset();
                (*k, summary)
            })
            .collect();
        self.snapshots.borrow_mut().push(Snapshot {
            ts_ns,
            node: self.node,
            counters,
            gauges: gauges.into_iter().collect(),
            windows,
        });
    }
}

/// A pre-resolved counter: bumping is two `Cell` ops plus the activity
/// mark — no key lookup. Resolve once (at client/server build time) with
/// [`Metrics::counter_handle`] and bump on the hot path.
#[derive(Clone)]
pub struct Counter {
    cell: Rc<Cell<u64>>,
    owner: Metrics,
}

impl Counter {
    /// Bump the counter.
    pub fn incr(&self, by: u64) {
        self.cell.set(self.cell.get() + by);
        self.owner.mark_active();
    }
}

/// A pre-resolved gauge handle (see [`Counter`]).
#[derive(Clone)]
pub struct Gauge {
    cell: Rc<Cell<i64>>,
    owner: Metrics,
}

impl Gauge {
    /// Set the gauge to an absolute value.
    pub fn set(&self, value: i64) {
        self.cell.set(value);
        self.owner.mark_active();
    }

    /// Adjust the gauge by a signed delta.
    pub fn add(&self, delta: i64) {
        self.cell.set(self.cell.get() + delta);
        self.owner.mark_active();
    }
}

/// A pre-resolved windowed-histogram handle (see [`Counter`]).
#[derive(Clone)]
pub struct Window {
    hist: Rc<RefCell<Histogram>>,
    owner: Metrics,
}

impl Window {
    /// Record one sample into the window.
    pub fn observe(&self, value_ns: u64) {
        self.hist.borrow_mut().record(value_ns);
        self.owner.mark_active();
    }

    /// Record a duration sample into the window.
    pub fn observe_duration(&self, d: SimDuration) {
        self.observe(d.as_nanos());
    }
}

/// A node's metrics registry (cheaply cloneable handle).
#[derive(Clone)]
pub struct Metrics {
    inner: Rc<Inner>,
}

impl Metrics {
    /// A registry ticking at `interval` of virtual time (per node).
    pub fn new(handle: SimHandle, node: u32, interval: SimDuration) -> Self {
        assert!(interval > SimDuration::ZERO, "metrics interval must be > 0");
        Metrics {
            inner: Rc::new(Inner {
                handle,
                node,
                interval,
                counters: RefCell::new(BTreeMap::new()),
                gauges: RefCell::new(BTreeMap::new()),
                windows: RefCell::new(BTreeMap::new()),
                providers: RefCell::new(Vec::new()),
                snapshots: RefCell::new(Vec::new()),
                ticking: Cell::new(false),
                dirty: Cell::new(false),
            }),
        }
    }

    /// The node id this registry belongs to.
    pub fn node(&self) -> u32 {
        self.inner.node
    }

    /// The snapshot interval.
    pub fn interval(&self) -> SimDuration {
        self.inner.interval
    }

    /// Resolve a counter handle for hot-path bumping (registers the
    /// series; repeated calls for one key share the same counter).
    pub fn counter_handle(&self, key: Key) -> Counter {
        let cell = self
            .inner
            .counters
            .borrow_mut()
            .entry(key)
            .or_default()
            .clone();
        Counter {
            cell,
            owner: self.clone(),
        }
    }

    /// Resolve a gauge handle (see [`Metrics::counter_handle`]).
    pub fn gauge_handle(&self, key: Key) -> Gauge {
        let cell = self
            .inner
            .gauges
            .borrow_mut()
            .entry(key)
            .or_default()
            .clone();
        Gauge {
            cell,
            owner: self.clone(),
        }
    }

    /// Resolve a windowed-histogram handle (see
    /// [`Metrics::counter_handle`]).
    pub fn window_handle(&self, key: Key) -> Window {
        let hist = self
            .inner
            .windows
            .borrow_mut()
            .entry(key)
            .or_insert_with(|| Rc::new(RefCell::new(Histogram::new())))
            .clone();
        Window {
            hist,
            owner: self.clone(),
        }
    }

    /// Bump a monotonic counter (one-shot; cold paths — resolve a
    /// [`Counter`] via [`Metrics::counter_handle`] for hot paths).
    pub fn incr(&self, key: Key, by: u64) {
        self.counter_handle(key).incr(by);
    }

    /// Set a gauge to an absolute value (one-shot; cold paths).
    pub fn gauge_set(&self, key: Key, value: i64) {
        self.gauge_handle(key).set(value);
    }

    /// Record one sample into the key's windowed histogram (one-shot;
    /// cold paths).
    pub fn observe(&self, key: Key, value_ns: u64) {
        self.window_handle(key).observe(value_ns);
    }

    /// Record a duration sample into the key's windowed histogram
    /// (one-shot; cold paths).
    pub fn observe_duration(&self, key: Key, d: SimDuration) {
        self.observe(key, d.as_nanos());
    }

    /// Register a gauge provider sampled at every snapshot tick (NIC
    /// SRAM occupancy, DMA inflight, PM media busy — values owned by
    /// other subsystems that would be costly to push on every change).
    pub fn register_provider(&self, key: Key, f: impl Fn() -> i64 + 'static) {
        self.inner.providers.borrow_mut().push((key, Box::new(f)));
        // Providers alone don't start the ticker; the first real
        // recording does. An idle node with registered providers stays
        // quiescent so `Sim::run` can terminate.
    }

    /// Current value of a counter (0 if never bumped). Test/report hook.
    pub fn counter(&self, key: Key) -> u64 {
        self.inner
            .counters
            .borrow()
            .get(&key)
            .map_or(0, |c| c.get())
    }

    /// Current value of a gauge (0 if never set). Test/report hook.
    pub fn gauge(&self, key: Key) -> i64 {
        self.inner.gauges.borrow().get(&key).map_or(0, |c| c.get())
    }

    /// Capture a snapshot immediately (end-of-run final state).
    pub fn force_snapshot(&self) {
        self.inner.snapshot_now();
    }

    /// All snapshots captured so far, in tick order.
    pub fn snapshots(&self) -> Vec<Snapshot> {
        self.inner.snapshots.borrow().clone()
    }

    fn mark_active(&self) {
        let inner = &self.inner;
        inner.dirty.set(true);
        if inner.ticking.get() {
            return;
        }
        inner.ticking.set(true);
        let rc = inner.clone();
        inner.handle.spawn(async move {
            loop {
                // Align ticks to interval boundaries so every node
                // snapshots at identical virtual timestamps.
                let iv = rc.interval.as_nanos().max(1);
                let now = rc.handle.now().as_nanos();
                let next = (now / iv + 1) * iv;
                rc.handle.sleep_until(SimTime::from_nanos(next)).await;
                if rc.dirty.replace(false) {
                    rc.snapshot_now();
                } else {
                    // Quiesce: nothing recorded for a whole interval.
                    // Exit so the sim's event queue can drain; the next
                    // recording re-spawns the ticker.
                    rc.ticking.set(false);
                    return;
                }
            }
        });
    }
}

/// Merge per-node snapshot streams into one fleet stream ordered by
/// `(ts_ns, node)` — deterministic because ticks are interval-aligned.
pub fn merge_snapshots(per_node: Vec<Vec<Snapshot>>) -> Vec<Snapshot> {
    let mut all: Vec<Snapshot> = per_node.into_iter().flatten().collect();
    all.sort_by_key(|s| (s.ts_ns, s.node));
    all
}

fn write_labels(out: &mut String, key: &Key) {
    let _ = write!(out, "\"name\":\"{}\",", key.name);
    if key.shard == NO_SHARD {
        out.push_str("\"shard\":null,");
    } else {
        let _ = write!(out, "\"shard\":{},", key.shard);
    }
    if key.role.is_empty() {
        out.push_str("\"role\":null,");
    } else {
        let _ = write!(out, "\"role\":\"{}\",", key.role);
    }
    if key.kind.is_empty() {
        out.push_str("\"kind\":null,");
    } else {
        let _ = write!(out, "\"kind\":\"{}\",", key.kind);
    }
}

/// Serialize snapshots as JSONL: one line per series per tick, fixed
/// field order, no floats except window means — byte-deterministic for a
/// given snapshot stream.
pub fn to_jsonl(snapshots: &[Snapshot]) -> String {
    let mut out = String::with_capacity(snapshots.len() * 256);
    for s in snapshots {
        for (k, v) in &s.counters {
            let _ = write!(out, "{{\"ts_ns\":{},\"node\":{},", s.ts_ns, s.node);
            out.push_str("\"series\":\"counter\",");
            write_labels(&mut out, k);
            let _ = writeln!(out, "\"value\":{v}}}");
        }
        for (k, v) in &s.gauges {
            let _ = write!(out, "{{\"ts_ns\":{},\"node\":{},", s.ts_ns, s.node);
            out.push_str("\"series\":\"gauge\",");
            write_labels(&mut out, k);
            let _ = writeln!(out, "\"value\":{v}}}");
        }
        for (k, w) in &s.windows {
            let _ = write!(out, "{{\"ts_ns\":{},\"node\":{},", s.ts_ns, s.node);
            out.push_str("\"series\":\"window\",");
            write_labels(&mut out, k);
            let _ = writeln!(
                out,
                "\"count\":{},\"p50_ns\":{},\"p99_ns\":{},\"p999_ns\":{},\"max_ns\":{}}}",
                w.count, w.p50_ns, w.p99_ns, w.p999_ns, w.max_ns
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Sim;

    fn interval() -> SimDuration {
        SimDuration::from_micros(100)
    }

    #[test]
    fn ticker_quiesces_and_run_terminates() {
        let mut sim = Sim::new(1);
        let m = Metrics::new(sim.handle(), 0, interval());
        let h = sim.handle();
        let m2 = m.clone();
        sim.spawn(async move {
            m2.incr(Key::new("ops"), 1);
            h.sleep(SimDuration::from_micros(250)).await;
            m2.incr(Key::new("ops"), 2);
        });
        // Would hang forever if the ticker never exited.
        sim.run();
        let snaps = m.snapshots();
        assert!(!snaps.is_empty());
        // Ticks are aligned to interval boundaries.
        for s in &snaps {
            assert_eq!(s.ts_ns % interval().as_nanos(), 0, "tick at {}", s.ts_ns);
        }
        // Final counter value is visible in the last snapshot.
        let last = snaps.last().unwrap();
        assert_eq!(last.counters, vec![(Key::new("ops"), 3)]);
    }

    #[test]
    fn windows_reset_per_tick_and_providers_sample() {
        let mut sim = Sim::new(1);
        let m = Metrics::new(sim.handle(), 3, interval());
        let depth = Rc::new(Cell::new(0i64));
        let d2 = depth.clone();
        m.register_provider(Key::new("queue_depth"), move || d2.get());
        let h = sim.handle();
        let m2 = m.clone();
        sim.spawn(async move {
            m2.observe(Key::new("lat").kind("put"), 1_000);
            depth.set(7);
            h.sleep(SimDuration::from_micros(150)).await;
            m2.observe(Key::new("lat").kind("put"), 9_000);
        });
        sim.run();
        let snaps = m.snapshots();
        assert!(snaps.len() >= 2);
        let w0 = &snaps[0].windows;
        assert_eq!(w0.len(), 1);
        assert_eq!(w0[0].1.count, 1);
        assert_eq!(w0[0].1.max_ns, 1_000);
        let w1 = &snaps[1].windows;
        assert_eq!(w1[0].1.count, 1, "window must reset between ticks");
        assert_eq!(w1[0].1.max_ns, 9_000);
        // Provider sampled at tick time.
        assert_eq!(snaps[0].gauges, vec![(Key::new("queue_depth"), 7)]);
    }

    #[test]
    fn jsonl_is_deterministic_across_runs() {
        let run = || {
            let mut sim = Sim::new(9);
            let m = Metrics::new(sim.handle(), 1, interval());
            let m2 = m.clone();
            let h = sim.handle();
            sim.spawn(async move {
                for i in 0..10u64 {
                    m2.incr(Key::new("puts").shard(2).role("primary"), 1);
                    m2.observe(Key::new("lat"), 500 + i * 100);
                    h.sleep(SimDuration::from_micros(40)).await;
                }
            });
            sim.run();
            to_jsonl(&m.snapshots())
        };
        let a = run();
        assert!(!a.is_empty());
        assert_eq!(a, run());
        assert!(a.contains("\"series\":\"counter\""));
        assert!(a.contains("\"shard\":2"));
        assert!(a.contains("\"role\":\"primary\""));
    }

    #[test]
    fn merge_orders_by_time_then_node() {
        let snap = |ts, node| Snapshot {
            ts_ns: ts,
            node,
            counters: Vec::new(),
            gauges: Vec::new(),
            windows: Vec::new(),
        };
        let merged = merge_snapshots(vec![
            vec![snap(100, 2), snap(200, 2)],
            vec![snap(100, 0), snap(200, 0)],
        ]);
        let order: Vec<(u64, u32)> = merged.iter().map(|s| (s.ts_ns, s.node)).collect();
        assert_eq!(order, vec![(100, 0), (100, 2), (200, 0), (200, 2)]);
    }
}
