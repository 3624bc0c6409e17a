//! Always-on, low-overhead per-node metrics: monotonic counters, gauges,
//! and windowed latency [`Histogram`]s over **virtual time**, with labeled
//! series and periodic snapshot ticks.
//!
//! This is the third observability layer next to [`crate::trace`] (offline
//! per-phase latency totals) and [`crate::journal`] (audited causal event
//! records). Unlike journaling — which is opt-in because it retains every
//! event — metrics are cheap enough to be always on: recording a
//! counter/gauge/window sample consumes **zero simulated time and zero
//! randomness**, so the snapshot interval changes neither virtual-time
//! results nor the RNG stream of a seeded run.
//!
//! A node's [`Metrics`] handle aggregates series keyed by [`Key`]
//! (`name` + optional `shard` / `role` / `kind` labels). A background
//! snapshot tick runs at a fixed virtual-time interval, appending the
//! current values (plus any registered gauge *providers*, sampled lazily)
//! to the node's packed history: bare values in series registration
//! order, with the keys kept once. [`Metrics::snapshots`] rebuilds them
//! as [`Snapshot`]s when read. The ticker is self-quiescing: it is spawned on
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

/// One kind of series in registration order, with a key lookup. Series
/// are only ever added, so the series a tick saw are a prefix of this
/// list, and every stored tick shares its keys.
struct Series<T> {
    index: BTreeMap<Key, usize>,
    list: Vec<(Key, T)>,
}

impl<T: Clone> Series<T> {
    fn new() -> Self {
        Series {
            index: BTreeMap::new(),
            list: Vec::new(),
        }
    }

    /// The series under `key`, registered with `make()` if it is new.
    fn resolve(&mut self, key: Key, make: impl FnOnce() -> T) -> T {
        let list = &mut self.list;
        let i = *self.index.entry(key).or_insert_with(|| {
            list.push((key, make()));
            list.len() - 1
        });
        list[i].1.clone()
    }

    fn get(&self, key: &Key) -> Option<&T> {
        self.index.get(key).map(|&i| &self.list[i].1)
    }
}

/// How many series of each kind one stored tick holds values for: the
/// first `counters` counters, `gauges` gauges and `providers` providers
/// in registration order, and `windows` non-empty windows.
struct Tick {
    ts_ns: u64,
    counters: u32,
    gauges: u32,
    providers: u32,
    windows: u32,
}

/// Every tick a node has taken, packed: bare values in registration
/// order, appended tick after tick, with no key beside them.
#[derive(Default)]
struct History {
    ticks: Vec<Tick>,
    counters: Vec<u64>,
    /// Each tick's gauge values, then its provider values.
    gauges: Vec<i64>,
    /// Each tick's non-empty windows: registration index and summary.
    windows: Vec<(u32, Summary)>,
}

fn series_count(n: usize) -> u32 {
    u32::try_from(n).expect("fewer than 2^32 series on a node")
}

struct Inner {
    handle: SimHandle,
    node: u32,
    interval: SimDuration,
    counters: RefCell<Series<Rc<Cell<u64>>>>,
    gauges: RefCell<Series<Rc<Cell<i64>>>>,
    windows: RefCell<Series<Rc<RefCell<Histogram>>>>,
    providers: RefCell<Vec<(Key, Provider)>>,
    history: RefCell<History>,
    ticking: Cell<bool>,
    dirty: Cell<bool>,
}

impl Inner {
    fn snapshot_now(&self) {
        let ts_ns = self.handle.now().as_nanos();
        let (counters, gauges, providers) = (
            self.counters.borrow(),
            self.gauges.borrow(),
            self.providers.borrow(),
        );
        let windows = self.windows.borrow();
        let mut history = self.history.borrow_mut();
        let h = &mut *history;
        h.counters
            .extend(counters.list.iter().map(|(_, c)| c.get()));
        h.gauges.extend(gauges.list.iter().map(|(_, g)| g.get()));
        h.gauges.extend(providers.iter().map(|(_, f)| f()));
        // Summarise each window, then empty it in place, keeping the
        // buckets it has grown.
        let first_window = h.windows.len();
        for (i, (_, w)) in windows.list.iter().enumerate() {
            let mut w = w.borrow_mut();
            if w.count() > 0 {
                h.windows.push((series_count(i), w.summary()));
                w.reset();
            }
        }
        h.ticks.push(Tick {
            ts_ns,
            counters: series_count(counters.list.len()),
            gauges: series_count(gauges.list.len()),
            providers: series_count(providers.len()),
            windows: series_count(h.windows.len() - first_window),
        });
    }

    /// The stored ticks as public [`Snapshot`]s, series in key order.
    fn snapshots(&self) -> Vec<Snapshot> {
        let (counters, gauges, providers) = (
            self.counters.borrow(),
            self.gauges.borrow(),
            self.providers.borrow(),
        );
        let windows = self.windows.borrow();
        let h = self.history.borrow();
        let (mut c, mut g, mut w) = (0, 0, 0);
        let mut out = Vec::with_capacity(h.ticks.len());
        for t in &h.ticks {
            let (nc, ng, np, nw) = (
                t.counters as usize,
                t.gauges as usize,
                t.providers as usize,
                t.windows as usize,
            );
            let mut tick_counters: Vec<(Key, u64)> = counters.list[..nc]
                .iter()
                .map(|(k, _)| *k)
                .zip(h.counters[c..c + nc].iter().copied())
                .collect();
            tick_counters.sort_unstable_by_key(|&(k, _)| k);
            // Explicit gauges, then providers: a provider's value wins
            // over a gauge's, and a later provider's over an earlier one's.
            let mut tick_gauges: BTreeMap<Key, i64> = BTreeMap::new();
            let gauge_keys = gauges.list[..ng].iter().map(|(k, _)| *k);
            let provider_keys = providers[..np].iter().map(|(k, _)| *k);
            for (k, v) in gauge_keys
                .chain(provider_keys)
                .zip(&h.gauges[g..g + ng + np])
            {
                tick_gauges.insert(k, *v);
            }
            let mut tick_windows: Vec<(Key, Summary)> = h.windows[w..w + nw]
                .iter()
                .map(|&(i, summary)| (windows.list[i as usize].0, summary))
                .collect();
            tick_windows.sort_unstable_by_key(|&(k, _)| k);
            out.push(Snapshot {
                ts_ns: t.ts_ns,
                node: self.node,
                counters: tick_counters,
                gauges: tick_gauges.into_iter().collect(),
                windows: tick_windows,
            });
            (c, g, w) = (c + nc, g + ng + np, w + nw);
        }
        out
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
                counters: RefCell::new(Series::new()),
                gauges: RefCell::new(Series::new()),
                windows: RefCell::new(Series::new()),
                providers: RefCell::new(Vec::new()),
                history: RefCell::new(History::default()),
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
        let cell = self.inner.counters.borrow_mut().resolve(key, Rc::default);
        Counter {
            cell,
            owner: self.clone(),
        }
    }

    /// Resolve a gauge handle (see [`Metrics::counter_handle`]).
    pub fn gauge_handle(&self, key: Key) -> Gauge {
        let cell = self.inner.gauges.borrow_mut().resolve(key, Rc::default);
        Gauge {
            cell,
            owner: self.clone(),
        }
    }

    /// Resolve a windowed-histogram handle (see
    /// [`Metrics::counter_handle`]).
    pub fn window_handle(&self, key: Key) -> Window {
        let hist = self.inner.windows.borrow_mut().resolve(key, Rc::default);
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

    /// All snapshots captured so far, in tick order, built from the
    /// packed store on each call.
    pub fn snapshots(&self) -> Vec<Snapshot> {
        self.inner.snapshots()
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

    /// Series registered between ticks: each snapshot holds exactly the
    /// series live at its tick, in key order, although every tick shares
    /// one key list per kind with the ticks after it.
    #[test]
    fn series_added_between_ticks_show_from_their_first_tick() {
        let sim = Sim::new(1);
        let m = Metrics::new(sim.handle(), 5, interval());
        let (a, b, q) = (Key::new("a"), Key::new("b"), Key::new("q"));
        let (w, v) = (Key::new("w"), Key::new("w").shard(0));
        let summary = |value| {
            let mut h = Histogram::new();
            h.record(value);
            h.summary()
        };
        m.incr(b, 1);
        m.force_snapshot();
        m.gauge_set(b, -5);
        m.register_provider(q, || 7);
        m.observe(w, 1_000);
        m.force_snapshot();
        m.incr(a, 2);
        m.register_provider(b, || 9);
        m.observe(v, 5);
        m.force_snapshot();
        m.force_snapshot();
        type Live = (Vec<(Key, u64)>, Vec<(Key, i64)>, Vec<(Key, Summary)>);
        let want: [Live; 4] = [
            (vec![(b, 1)], vec![], vec![]),
            (
                vec![(b, 1)],
                vec![(b, -5), (q, 7)],
                vec![(w, summary(1_000))],
            ),
            // A provider's value wins over the gauge under its key.
            (
                vec![(a, 2), (b, 1)],
                vec![(b, 9), (q, 7)],
                vec![(v, summary(5))],
            ),
            (vec![(a, 2), (b, 1)], vec![(b, 9), (q, 7)], vec![]),
        ];
        let got: Vec<Live> = m
            .snapshots()
            .into_iter()
            .map(|s| (s.counters, s.gauges, s.windows))
            .collect();
        assert_eq!(got, want);
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
