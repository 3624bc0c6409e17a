//! The five benchmark workloads. Each repetition builds fresh `Sim`s from
//! the seed, drives the stack through its public entry points only, checks
//! the outputs, and returns one [`Rep`]: host timings plus a map of
//! deterministic (virtual-time and count) results.
//!
//! Op counts are fixed constants per [`Sizes`] preset, never time-based, so
//! every virtual result is exact for a given seed and size.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use prdma::txn::build_sharded_txn;
use prdma::{
    build_durable, build_replicated_sharded, build_sharded_durable_cached, CacheConfig,
    DurableConfig, DurableKind, DurableServer, Request, Response, RetryPolicy, RpcClient,
    RpcFuture, ServerProfile, ShardMap,
};
use prdma_node::{Cluster, ClusterConfig};
use prdma_rnic::Payload;
use prdma_simnet::fault::{FaultKind, FaultPlan};
use prdma_simnet::{Histogram, Sim, SimDuration, SimHandle, SimTime, Summary};
use prdma_workloads::dist::{workload_rng, Zipfian};
use prdma_workloads::micro::{run_micro_split, MicroConfig};
use prdma_workloads::openloop::{gen_schedule, run_openloop, OpenLoopConfig, RateShape};
use prdma_workloads::txn_mix::{run_txn_mix, TxnMixConfig};

use crate::host;
use crate::layers::{self, Ledger};
use crate::trace::Recorder;

/// Workload names and the one-line reason each exists, in run order.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "put_closed",
        "closed loop, 1 client to 1 server, 100% durable puts over 4 kinds and 3 sizes: the paper's core path with replication, shard, cache and txn idle",
    ),
    (
        "openloop_fleet",
        "open-loop Poisson arrivals at 6 fixed rates onto 4 shards x 2 replicas: queueing turns layer costs into tail latency and the highest rate within the SLO",
    ),
    (
        "cached_read95",
        "closed loop, 95% GET / 5% put through the lease cache: the read fast path does the work while puts share the durable path beside it",
    ),
    (
        "txn_2pc",
        "closed loop, 4 clients of 2R+2W transactions over 4 shards: 2PC record appends dominate and it is the host-time outlier per op",
    ),
    (
        "crash_replay",
        "closed loop of 4 KB puts through 10 scripted node crashes: the redo log is scanned and replayed instead of appended, with the retry path live",
    ),
];

/// Offered rates the open-loop workload visits, in KOPS.
pub const OPENLOOP_RATES_KOPS: [u64; 6] = [400, 800, 1200, 1600, 1800, 2000];
/// The rate whose latency is the open-loop workload's end-to-end `op_*`.
pub const OPENLOOP_REF_KOPS: u64 = 1200;
/// Up to this rate the fleet is below saturation: every arrival must
/// complete and none may fail.
const OPENLOOP_CHECKED_KOPS: u64 = 1600;
/// p99 limit for `max_rate_slo_kops`.
pub const SLO_P99_US: f64 = 100.0;
/// A rate only meets the SLO if its last completion lands within this
/// long after the run's end (no growing backlog).
const SLO_DRAIN: SimDuration = SimDuration::from_millis(1);

/// Scripted crashes in `crash_replay`.
pub const CRASHES: u64 = 10;
const CRASH_DOWN: SimDuration = SimDuration::from_micros(300);
/// Virtual time one `crash_replay` put takes at the heavy profile's
/// processing bound (100 us over 8 workers); spaces the crash plan.
const CRASH_OP_NS: u64 = 12_500;

/// Op counts of one repetition.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// `put_closed`: ops per durable kind at 1 KB, and in the mixed-size
    /// unit.
    pub put_ops: u64,
    /// `put_closed`: ops at each of 64 B and 64 KB (WFlush).
    pub put_edge_ops: u64,
    /// `openloop_fleet`: simulated microseconds per offered rate.
    pub open_us: u64,
    /// `cached_read95`: ops.
    pub cache_ops: u64,
    /// `txn_2pc`: transactions per client (4 clients).
    pub txns: u64,
    /// `crash_replay`: puts.
    pub crash_ops: u64,
}

impl Sizes {
    /// The measured size: each repetition takes 1-2 s of host time.
    pub const FULL: Sizes = Sizes {
        put_ops: 30_000,
        put_edge_ops: 10_000,
        open_us: 10_000,
        cache_ops: 600_000,
        txns: 1_500,
        crash_ops: 100_000,
    };
    /// CI size: the whole five-workload run fits in 10 s.
    pub const SMOKE: Sizes = Sizes {
        put_ops: 2_000,
        put_edge_ops: 500,
        open_us: 1_000,
        cache_ops: 30_000,
        txns: 100,
        crash_ops: 5_000,
    };
    /// Traced size: at most 10 K ops per workload, so no journal ring
    /// drops a record and the super-linear audit stays bounded.
    pub const TRACED: Sizes = Sizes {
        put_ops: 1_200,
        put_edge_ops: 500,
        open_us: 1_000,
        cache_ops: 10_000,
        txns: 300,
        crash_ops: 5_000,
    };
}

/// One repetition's outcome.
#[derive(Default)]
pub struct Rep {
    /// Host seconds before the timed sections (cluster and fleet
    /// construction, schedule generation).
    pub setup_s: f64,
    /// Host nanoseconds inside `Sim::block_on` plus the drain.
    pub sim_ns: u64,
    /// Process CPU nanoseconds over the same sections.
    pub sim_cpu_ns: u64,
    /// Executor events processed in the timed sections.
    pub events: u64,
    /// Simulated operations completed (transactions attempted, for
    /// `txn_2pc`).
    pub ops: u64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or were unsupported (OCC aborts excluded).
    pub failed: u64,
    /// Deterministic results by metric name: virtual time and counts.
    pub exact: BTreeMap<String, f64>,
    /// Host-time readings by metric name.
    pub host: BTreeMap<String, f64>,
    /// `VmHWM` of the process after this repetition, MiB.
    pub peak_rss_mb: f64,
    /// `VmRSS` of the process after this repetition, MiB.
    pub rss_mb: f64,
}

impl Rep {
    /// A repetition whose wall time exceeds its process CPU time by more
    /// than 10 % was descheduled by the sandbox.
    pub fn disturbed(&self) -> bool {
        self.sim_ns as f64 > self.sim_cpu_ns as f64 * 1.10
    }

    /// Host nanoseconds of simulation per simulated operation.
    pub fn host_ns_per_op(&self) -> f64 {
        self.sim_ns as f64 / self.ops.max(1) as f64
    }

    fn add_setup(&mut self, ns: u64) {
        self.setup_s += ns as f64 / 1e9;
    }

    fn set(&mut self, name: &str, v: f64) {
        self.exact.insert(name.to_string(), v);
    }

    /// Record a latency distribution as `<prefix>_p50_us`,
    /// `<prefix>_p99_us` and the sample count beside them.
    fn set_summary(&mut self, prefix: &str, s: &Summary) {
        self.set(&format!("{prefix}_p50_us"), s.p50_us());
        self.set(&format!("{prefix}_p99_us"), s.p99_us());
        self.set(&format!("{prefix}_samples"), s.count as f64);
    }

    /// The workload's primary operation: exact mean (end to end) and the
    /// histogram's percentiles (layer metrics; see README on why).
    fn set_primary(&mut self, s: &Summary) {
        self.set("op_mean_us", s.mean_us());
        self.set_summary("bench.op", s);
    }
}

/// What a workload repetition needs from its caller.
pub struct Ctx<'a> {
    pub seed: u64,
    pub sizes: Sizes,
    /// Journal on, spans built, audit run.
    pub traced: bool,
    pub rec: &'a mut Recorder,
}

/// Run one repetition of `workload`.
pub fn run(workload: &str, ctx: &mut Ctx<'_>) -> Rep {
    let root = ctx.rec.open("rep");
    let mut rep = match workload {
        "put_closed" => put_closed(ctx),
        "openloop_fleet" => openloop_fleet(ctx),
        "cached_read95" => cached_read95(ctx),
        "txn_2pc" => txn_2pc(ctx),
        "crash_replay" => crash_replay(ctx),
        other => panic!("unknown workload {other}"),
    };
    ctx.rec.close(root);
    let ops = rep.ops.max(1) as f64;
    rep.set(
        "bench.failed_frac",
        rep.failed as f64 / rep.attempted.max(1) as f64,
    );
    rep.set("simnet.executor.events_per_op", rep.events as f64 / ops);
    rep
}

/// A fresh simulation and cluster for one unit, journaled iff traced.
fn new_cluster(ctx: &Ctx<'_>, mut ccfg: ClusterConfig) -> (Sim, Cluster) {
    let sim = Sim::new(ctx.seed);
    ccfg.journal = ctx.traced;
    let cluster = Cluster::new(sim.handle(), ccfg);
    (sim, cluster)
}

/// An [`RpcClient`] decorator that checks every response where it is
/// produced: a put must come back `durable`, a GET must carry a payload of
/// the requested length. The workload drivers discard responses, so this
/// is the only place every one of them can be seen.
struct Checked {
    inner: Box<dyn RpcClient>,
    bad: Rc<Cell<u64>>,
}

impl RpcClient for Checked {
    fn call(&self, req: Request) -> RpcFuture<'_> {
        let want = match &req {
            Request::Put { .. } => None,
            other => Some(other.transfer_len()),
        };
        let fut = self.inner.call(req);
        Box::pin(async move {
            let resp = fut.await?;
            let ok = match want {
                None => resp.durable,
                Some(len) => resp.payload.as_ref().is_some_and(|p| p.len() == len),
            };
            if !ok {
                self.bad.set(self.bad.get() + 1);
            }
            Ok(resp)
        })
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

fn checked(inner: impl RpcClient + 'static, bad: &Rc<Cell<u64>>) -> Box<dyn RpcClient> {
    Box::new(Checked {
        inner: Box::new(inner),
        bad: Rc::clone(bad),
    })
}

/// A put payload whose first 16 bytes are real (`obj`, `seq`) so the
/// persistent image can be compared, the rest synthetic (timing only).
fn marked_payload(len: u64, obj: u64, seq: u64) -> Payload {
    let marker = marker_bytes(obj, seq);
    if len <= marker.len() as u64 {
        return Payload::from_bytes(marker[..len as usize].to_vec());
    }
    Payload::composite(vec![
        Payload::from_bytes(marker.to_vec()),
        Payload::synthetic(len - marker.len() as u64, seq),
    ])
}

fn marker_bytes(obj: u64, seq: u64) -> [u8; 16] {
    let mut m = [0u8; 16];
    m[..8].copy_from_slice(&obj.to_le_bytes());
    m[8..].copy_from_slice(&(seq ^ 0xA5A5_5A5A_A5A5_5A5A).to_le_bytes());
    m
}

/// Sampled read-back: put a marked payload to `samples` objects through
/// `client`, let the decoupled processing drain, and require each
/// server's persistent image to hold the last ACKed marker.
fn readback_check(
    sim: &mut Sim,
    client: Box<dyn RpcClient>,
    server: &DurableServer,
    objects: u64,
    len: u64,
    what: &str,
) {
    const SAMPLES: u64 = 32;
    let stride = (objects / SAMPLES).max(1);
    let objs: Vec<u64> = (0..SAMPLES).map(|i| (i * stride) % objects).collect();
    let todo = objs.clone();
    let what = what.to_string();
    let label = what.clone();
    sim.block_on(async move {
        let what = label;
        for (seq, &obj) in todo.iter().enumerate() {
            let resp = client
                .call(Request::Put {
                    obj,
                    data: marked_payload(len, obj, seq as u64),
                })
                .await
                .unwrap_or_else(|e| panic!("{what}: read-back put of object {obj} failed: {e}"));
            assert!(
                resp.durable,
                "{what}: read-back put of object {obj} not durable"
            );
        }
    });
    sim.run();
    for (seq, &obj) in objs.iter().enumerate() {
        let want = marker_bytes(obj, seq as u64);
        let n = want.len().min(len as usize);
        assert_eq!(
            server.store().persistent_bytes(obj, n as u64),
            want[..n],
            "{what}: persistent image of object {obj} is not the last ACKed payload"
        );
    }
}

/// Time `f` (a `Sim::block_on` plus drain) on both host clocks and add it
/// to the repetition's timed section.
fn timed<T>(rep: &mut Rep, rec: &mut Recorder, sim: &mut Sim, f: impl FnOnce(&mut Sim) -> T) -> T {
    let ev0 = sim.events_processed();
    let cpu0 = host::cpu_ns();
    let id = rec.open("simulate");
    let out = f(sim);
    sim.run();
    rep.sim_ns += rec.close(id);
    rep.sim_cpu_ns += host::cpu_ns() - cpu0;
    rep.events += sim.events_processed() - ev0;
    out
}

/// The benchmark's own closed loop, for the units no `prdma_workloads`
/// driver covers: one request at a time from `make(seq)`, latency to the
/// ACK recorded, `on_ack(seq, ack time, response)` called per success.
/// Returns the latency histogram, the elapsed virtual time and the number
/// of failed requests.
async fn closed_loop(
    client: &dyn RpcClient,
    h: &SimHandle,
    ops: u64,
    mut make: impl FnMut(u64) -> Request,
    mut on_ack: impl FnMut(u64, SimTime, &Response),
) -> (Histogram, SimDuration, u64) {
    let mut hist = Histogram::new();
    let mut failed = 0u64;
    let t0 = h.now();
    for seq in 0..ops {
        let start = h.now();
        match client.call(make(seq)).await {
            Ok(resp) => {
                let now = h.now();
                hist.record_duration(now - start);
                on_ack(seq, now, &resp);
            }
            Err(_) => failed += 1,
        }
    }
    (hist, h.now() - t0, failed)
}

// ---------------------------------------------------------------------
// put_closed

const PUT_OBJECTS: u64 = 2_000;
const THETA: f64 = 0.99;

/// The six fixed `put_closed` units: (metric suffix, kind, object size).
/// The smallest size isolates the per-message cost, 64 KB the wire, DMA
/// and PM-bandwidth cost.
const PUT_UNITS: [(&str, DurableKind, u64); 6] = [
    ("wflush", DurableKind::WFlush, 1024),
    ("sflush", DurableKind::SFlush, 1024),
    ("w-rflush", DurableKind::WRFlush, 1024),
    ("s-rflush", DurableKind::SRFlush, 1024),
    ("wflush-64b", DurableKind::WFlush, 64),
    ("wflush-64k", DurableKind::WFlush, 64 * 1024),
];
/// The seventh unit: WFlush puts whose sizes are drawn log-uniformly from
/// 64 B to 64 KB. With one closed-loop client the model has no randomness
/// of its own, so this is where the seed reaches the result.
const PUT_MIX: &str = "wflush-mix";
const PUT_MAX: u64 = 64 * 1024;

fn put_closed(ctx: &mut Ctx<'_>) -> Rep {
    let mut rep = Rep::default();
    let mut ledger = Ledger::default();
    let mut elapsed = SimDuration::ZERO;
    let mut latency_ns = 0.0;
    let units = PUT_UNITS
        .iter()
        .map(|&(suffix, kind, size)| (suffix, kind, Some(size)))
        .chain([(PUT_MIX, DurableKind::WFlush, None)]);
    for (i, (suffix, kind, fixed)) in units.enumerate() {
        let ops = match i {
            4 | 5 => ctx.sizes.put_edge_ops,
            _ => ctx.sizes.put_ops,
        };
        let slot = fixed.unwrap_or(PUT_MAX);
        let id = ctx.rec.open("setup");
        let (mut sim, cluster) = new_cluster(ctx, ClusterConfig::with_nodes(2));
        let dcfg = DurableConfig {
            kind,
            profile: ServerProfile::light(),
            slot_payload: slot,
            object_slot: slot,
            store_capacity: PUT_OBJECTS * slot,
            ..Default::default()
        };
        let (client, server) = build_durable(&cluster, 1, 0, 0, dcfg);
        server.start();
        let bad = Rc::new(Cell::new(0));
        let client = checked(client, &bad);
        rep.add_setup(ctx.rec.close(id));
        let id = ctx.rec.open("generate");
        let unit_seed = ctx.seed ^ (i as u64 + 1);
        let mcfg = MicroConfig {
            objects: PUT_OBJECTS,
            ops,
            object_size: slot,
            read_ratio: 0.0,
            seed: unit_seed,
        };
        let mix: Vec<(u64, u64)> = if fixed.is_none() {
            let zipf = Zipfian::new(PUT_OBJECTS, THETA);
            let mut rng = workload_rng(unit_seed);
            (0..ops)
                .map(|_| {
                    let size = (64.0 * 1024f64.powf(rng.gen::<f64>())) as u64;
                    (zipf.sample(&mut rng), size.min(PUT_MAX))
                })
                .collect()
        } else {
            Vec::new()
        };
        rep.add_setup(ctx.rec.close(id));

        let user_bytes = match fixed {
            Some(size) => ops * size,
            None => mix.iter().map(|&(_, size)| size).sum(),
        };
        let h = sim.handle();
        let (put, unit_elapsed, client) = timed(&mut rep, ctx.rec, &mut sim, |sim| {
            sim.block_on(async move {
                if fixed.is_some() {
                    let r = run_micro_split(client.as_ref(), &h, &mcfg, THETA).await;
                    (r.put, r.elapsed, client)
                } else {
                    let make = |seq: u64| {
                        let (obj, size) = mix[seq as usize];
                        Request::Put {
                            obj,
                            data: Payload::synthetic(size, seq),
                        }
                    };
                    let (hist, elapsed, _) =
                        closed_loop(client.as_ref(), &h, ops, make, |_, _, _| {}).await;
                    (hist.summary(), elapsed, client)
                }
            })
        });
        assert_eq!(put.count, ops, "put_closed/{suffix}: an op failed");
        assert_eq!(
            bad.get(),
            0,
            "put_closed/{suffix}: a put was ACKed non-durable"
        );
        rep.ops += put.count;
        rep.attempted += ops;
        elapsed += unit_elapsed;
        latency_ns += put.mean_ns * put.count as f64;
        match suffix {
            "wflush" => rep.set_summary("core.durable.put", &put),
            PUT_MIX => rep.set("core.durable.put_mean_us.wflush-mix", put.mean_us()),
            _ => rep.set(&format!("core.durable.put_p50_us.{suffix}"), put.p50_us()),
        }
        if suffix == "wflush" {
            rep.set_summary("bench.op", &put);
        }
        ledger.fold_unit(
            ctx.rec,
            &sim,
            &cluster,
            &layers::UnitInfo {
                ops: put.count,
                puts: put.count,
                user_bytes,
                elapsed: unit_elapsed,
                servers: 1,
            },
            ctx.traced,
        );
        let id = ctx.rec.open("collect");
        readback_check(
            &mut sim,
            client,
            &server,
            PUT_OBJECTS,
            slot,
            &format!("put_closed/{suffix}"),
        );
        ctx.rec.close(id);
    }
    // End to end, the workload is every put of every unit.
    rep.set("op_mean_us", latency_ns / 1e3 / rep.ops as f64);
    rep.set("virt_kops", rep.ops as f64 / elapsed.as_secs_f64() / 1e3);
    ledger.finish(&mut rep);
    rep
}

// ---------------------------------------------------------------------
// openloop_fleet

const FLEET_SHARDS: usize = 4;
const FLEET_REPLICAS: usize = 2;
const FLEET_ENDPOINTS: usize = 8;
const FLEET_CLIENTS: u64 = 10_000;

fn openloop_fleet(ctx: &mut Ctx<'_>) -> Rep {
    let mut rep = Rep::default();
    let mut ledger = Ledger::default();
    let duration = SimDuration::from_micros(ctx.sizes.open_us);
    let mut max_rate_slo = 0u64;
    let mut slo_broken = false;
    let mut gen_ns = 0u64;
    for rate in OPENLOOP_RATES_KOPS {
        let id = ctx.rec.open("setup");
        let (mut sim, cluster) = new_cluster(
            ctx,
            ClusterConfig::with_servers(FLEET_SHARDS, FLEET_ENDPOINTS),
        );
        let map = ShardMap::new(FLEET_SHARDS);
        let dcfg = DurableConfig {
            kind: DurableKind::WFlush,
            profile: ServerProfile::light(),
            slot_payload: 1024,
            object_slot: 1024,
            store_capacity: map.local_span(PUT_OBJECTS) * 1024,
            log_slots: 512,
            ..Default::default()
        };
        let client_nodes: Vec<usize> = (FLEET_SHARDS..FLEET_SHARDS + FLEET_ENDPOINTS).collect();
        let sys = build_replicated_sharded(&cluster, map, &client_nodes, FLEET_REPLICAS, &dcfg);
        let bad = Rc::new(Cell::new(0));
        let endpoints: Vec<Box<dyn RpcClient>> =
            sys.clients.into_iter().map(|c| checked(c, &bad)).collect();
        rep.add_setup(ctx.rec.close(id));
        // `run_openloop` regenerates the same schedule from the config; it
        // is generated here too so that generation is timed as set-up and
        // the checks know the arrival count and the per-shard split.
        let ocfg = OpenLoopConfig {
            clients: FLEET_CLIENTS,
            rate_ops_per_sec: rate as f64 * 1e3,
            duration,
            shape: RateShape::Constant,
            objects: PUT_OBJECTS,
            object_size: 1024,
            read_ratio: 0.5,
            theta: THETA,
            skew_shift: None,
            seed: ctx.seed,
        };
        let (schedule, ns) = ctx.rec.span("generate", || gen_schedule(&ocfg));
        gen_ns += ns;
        rep.add_setup(ns);

        let h = sim.handle();
        let r = timed(&mut rep, ctx.rec, &mut sim, |sim| {
            sim.block_on(async move { run_openloop(endpoints, &h, &ocfg).await })
        });
        assert_eq!(
            r.arrivals,
            schedule.len() as u64,
            "openloop_fleet: the schedule is not a pure function of its config"
        );
        assert_eq!(
            bad.get(),
            0,
            "openloop_fleet@{rate}k: a response failed its check"
        );
        if rate <= OPENLOOP_CHECKED_KOPS {
            assert_eq!(r.ops, r.arrivals, "openloop_fleet@{rate}k: ops != arrivals");
            assert_eq!(
                r.failed + r.unsupported,
                0,
                "openloop_fleet@{rate}k: an op failed"
            );
        }
        rep.ops += r.ops;
        rep.attempted += r.arrivals;
        rep.failed += r.failed + r.unsupported;
        let p99 = r.latency.p99_us();
        rep.set(&format!("workloads.openloop.p99_us.at_{rate}k"), p99);
        rep.set(
            &format!("workloads.openloop.achieved_frac.at_{rate}k"),
            r.kops / r.offered_kops,
        );
        let meets = p99 <= SLO_P99_US && r.ops == r.arrivals && r.elapsed <= duration + SLO_DRAIN;
        if meets && !slo_broken {
            max_rate_slo = rate;
        } else {
            slo_broken = true;
        }
        if rate == OPENLOOP_REF_KOPS {
            rep.set_primary(&r.latency);
        }
        if rate == OPENLOOP_RATES_KOPS[OPENLOOP_RATES_KOPS.len() - 1] {
            // Offered past saturation, what completes is the capacity.
            rep.set("virt_kops", r.kops);
        }
        let puts = schedule.iter().filter(|a| !a.is_read).count() as u64;
        let mut per_shard = [0u64; FLEET_SHARDS];
        for a in &schedule {
            per_shard[map.shard_of(a.obj)] += 1;
        }
        ledger.shard_ops(&per_shard);
        ledger.fold_unit(
            ctx.rec,
            &sim,
            &cluster,
            &layers::UnitInfo {
                ops: r.ops,
                puts,
                user_bytes: puts * 1024,
                elapsed: r.elapsed,
                servers: FLEET_SHARDS,
            },
            ctx.traced,
        );
    }
    rep.set("workloads.openloop.max_rate_slo_kops", max_rate_slo as f64);
    // Arrivals are released at their scheduled virtual instants, so the
    // generator is never late by construction.
    rep.set("workloads.openloop.generator_late_ns", 0.0);
    rep.host.insert(
        "workloads.openloop.gen_ns_per_arrival".into(),
        gen_ns as f64 / rep.attempted.max(1) as f64,
    );
    ledger.finish(&mut rep);
    rep
}

// ---------------------------------------------------------------------
// cached_read95

fn cached_read95(ctx: &mut Ctx<'_>) -> Rep {
    let mut rep = Rep::default();
    let mut ledger = Ledger::default();
    let ops = ctx.sizes.cache_ops;
    let id = ctx.rec.open("setup");
    let (mut sim, cluster) = new_cluster(ctx, ClusterConfig::with_servers(1, 1));
    let map = ShardMap::new(1);
    let dcfg = DurableConfig {
        kind: DurableKind::WFlush,
        profile: ServerProfile::light(),
        slot_payload: 1024,
        object_slot: 1024,
        store_capacity: map.local_span(PUT_OBJECTS) * 1024,
        log_slots: 256,
        ..Default::default()
    };
    let cache = CacheConfig {
        capacity: 1024,
        hot_threshold: 1,
        churn_demote: 4,
        ..Default::default()
    };
    let (svc, _leases) = build_sharded_durable_cached(&cluster, map, &[1], &dcfg, &cache);
    let server = Rc::clone(&svc.servers[0][0]);
    let bad = Rc::new(Cell::new(0));
    let client = checked(svc.clients.into_iter().next().expect("one client"), &bad);
    rep.add_setup(ctx.rec.close(id));
    let id = ctx.rec.open("generate");
    let mcfg = MicroConfig {
        objects: PUT_OBJECTS,
        ops,
        object_size: 1024,
        read_ratio: 0.95,
        seed: ctx.seed,
    };
    rep.add_setup(ctx.rec.close(id));

    let h = sim.handle();
    let (r, client) = timed(&mut rep, ctx.rec, &mut sim, |sim| {
        sim.block_on(async move {
            let r = run_micro_split(client.as_ref(), &h, &mcfg, THETA).await;
            (r, client)
        })
    });
    assert_eq!(r.ops, ops, "cached_read95: an op failed");
    assert_eq!(bad.get(), 0, "cached_read95: a response failed its check");
    rep.ops = r.ops;
    rep.attempted = ops;
    rep.set_primary(&r.get);
    rep.set_summary("core.cache.get", &r.get);
    rep.set_summary("core.durable.put", &r.put);
    rep.set("virt_kops", r.kops);
    let puts = r.put.count;
    ledger.fold_unit(
        ctx.rec,
        &sim,
        &cluster,
        &layers::UnitInfo {
            ops: r.ops,
            puts,
            user_bytes: puts * 1024,
            elapsed: r.elapsed,
            servers: 1,
        },
        ctx.traced,
    );
    let id = ctx.rec.open("collect");
    readback_check(
        &mut sim,
        client,
        &server,
        PUT_OBJECTS,
        1024,
        "cached_read95",
    );
    ctx.rec.close(id);
    ledger.finish(&mut rep);
    rep
}

// ---------------------------------------------------------------------
// txn_2pc

const TXN_CLIENTS: usize = 4;
const TXN_SHARDS: usize = 4;
const TXN_OBJECTS: u64 = 1_000;

fn txn_2pc(ctx: &mut Ctx<'_>) -> Rep {
    let mut rep = Rep::default();
    let mut ledger = Ledger::default();
    let id = ctx.rec.open("setup");
    let (mut sim, cluster) = new_cluster(ctx, ClusterConfig::with_servers(TXN_SHARDS, TXN_CLIENTS));
    let map = ShardMap::new(TXN_SHARDS);
    let dcfg = DurableConfig {
        profile: ServerProfile::light(),
        slot_payload: 1024,
        object_slot: 1024,
        store_capacity: map.local_span(TXN_OBJECTS) * 1024,
        log_slots: 256,
        ..Default::default()
    };
    let client_nodes: Vec<usize> = (TXN_SHARDS..TXN_SHARDS + TXN_CLIENTS).collect();
    let svc = build_sharded_txn(&cluster, map, &client_nodes, &dcfg);
    let states = svc.states.clone();
    let clients: Vec<_> = svc.clients.into_iter().map(Rc::new).collect();
    rep.add_setup(ctx.rec.close(id));
    let id = ctx.rec.open("generate");
    let tcfg = TxnMixConfig {
        txns: ctx.sizes.txns,
        reads_per_txn: 2,
        writes_per_txn: 2,
        objects: TXN_OBJECTS,
        value_bytes: 128,
        theta: 0.9,
        seed: ctx.seed,
    };
    rep.add_setup(ctx.rec.close(id));

    let h = sim.handle();
    let r = timed(&mut rep, ctx.rec, &mut sim, |sim| {
        sim.block_on(async move { run_txn_mix(&h, &clients, &tcfg).await })
    });
    assert_eq!(r.attempted, ctx.sizes.txns * TXN_CLIENTS as u64);
    assert_eq!(
        r.committed + r.aborted,
        r.attempted,
        "txn_2pc: committed + aborted != attempted"
    );
    assert!(r.committed > 0, "txn_2pc: nothing committed");
    rep.ops = r.attempted;
    rep.attempted = r.attempted;
    rep.set_primary(&r.latency);
    rep.set_summary("core.txn.commit", &r.latency);
    rep.set("virt_kops", r.ktps);
    rep.set("core.txn.abort_frac", r.abort_rate());
    rep.set(
        "core.txn.staged_at_end",
        states.iter().map(|s| s.staged_count()).sum::<usize>() as f64,
    );
    rep.set(
        "core.txn.events_per_txn",
        rep.events as f64 / r.attempted as f64,
    );
    rep.host.insert(
        "core.txn.host_us_per_txn".into(),
        rep.sim_ns as f64 / 1e3 / r.attempted as f64,
    );
    ledger.txns(r.committed);
    ledger.fold_unit(
        ctx.rec,
        &sim,
        &cluster,
        &layers::UnitInfo {
            ops: r.attempted,
            puts: r.committed * 2,
            user_bytes: r.committed * 2 * 128,
            elapsed: r.elapsed,
            servers: TXN_SHARDS,
        },
        ctx.traced,
    );
    ledger.finish(&mut rep);
    rep
}

// ---------------------------------------------------------------------
// crash_replay

const CRASH_OBJECTS: u64 = 500;
const CRASH_VALUE: u64 = 4096;
/// The `fig12 --in-sim` retry policy: fire fast, retry through any
/// restart, flat schedule.
const CRASH_RETRY: RetryPolicy = RetryPolicy {
    request_timeout: SimDuration::from_micros(200),
    max_retries: 100_000,
    backoff: SimDuration::from_micros(100),
    backoff_cap: SimDuration::from_micros(100),
    jitter_pct: 0,
};

fn crash_replay(ctx: &mut Ctx<'_>) -> Rep {
    let mut rep = Rep::default();
    let mut ledger = Ledger::default();
    let ops = ctx.sizes.crash_ops;
    let id = ctx.rec.open("setup");
    let (mut sim, cluster) = new_cluster(ctx, ClusterConfig::with_nodes(2));
    let dcfg = DurableConfig {
        profile: ServerProfile::heavy(),
        slot_payload: CRASH_VALUE,
        object_slot: CRASH_VALUE,
        retry: CRASH_RETRY,
        ..DurableConfig::for_kind(DurableKind::WFlush)
    };
    let (client, server) = build_durable(&cluster, 1, 0, 0, dcfg);
    server.start();
    let server = Rc::new(server);
    rep.add_setup(ctx.rec.close(id));
    let id = ctx.rec.open("generate");
    // One crash per even slot of the run's expected virtual length, at a
    // seeded instant in the slot's first half: a closed loop of identical
    // puts has no other randomness for the seed to reach.
    let mut rng = workload_rng(ctx.seed);
    let slot = ops * CRASH_OP_NS / (CRASHES + 1);
    let crash_at: Vec<u64> = (1..=CRASHES)
        .map(|k| k * slot + rng.gen_range(0..slot / 2))
        .collect();
    let crash = FaultKind::NodeCrash {
        down_for: CRASH_DOWN,
    };
    let plan = crash_at.iter().fold(FaultPlan::new(), |plan, &at| {
        plan.at(SimTime::from_nanos(at), 0, crash)
    });
    let zipf = Zipfian::new(CRASH_OBJECTS, THETA);
    let keys: Vec<u64> = (0..ops).map(|_| zipf.sample(&mut rng)).collect();
    let inj = cluster.inject_faults(plan);
    let replayed = Rc::new(Cell::new(0u64));
    let recover_ns = Rc::new(Cell::new(0u64));
    {
        let server = Rc::clone(&server);
        let replayed = Rc::clone(&replayed);
        let recover_ns = Rc::clone(&recover_ns);
        inj.on_recovery(move |_, kind| {
            if matches!(kind, FaultKind::NodeCrash { .. }) {
                let t = Instant::now();
                let n = server.recover_and_requeue().len() as u64;
                recover_ns.set(recover_ns.get() + t.elapsed().as_nanos() as u64);
                replayed.set(replayed.get() + n);
            }
        });
    }
    rep.add_setup(ctx.rec.close(id));

    // Last ACKed sequence number per object, and per crash the longest
    // gap between consecutive ACKs that overlaps its outage.
    let last_acked: Rc<RefCell<BTreeMap<u64, u64>>> = Rc::default();
    let not_durable = Rc::new(Cell::new(0u64));
    let stall_ns: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(vec![0; crash_at.len()]));
    let h = sim.handle();
    let (hist, elapsed, failed) = {
        let last_acked = Rc::clone(&last_acked);
        let not_durable = Rc::clone(&not_durable);
        let stall_ns = Rc::clone(&stall_ns);
        let crash_at = crash_at.clone();
        timed(&mut rep, ctx.rec, &mut sim, |sim| {
            sim.block_on(async move {
                let make = |seq: u64| {
                    let obj = keys[seq as usize];
                    Request::Put {
                        obj,
                        data: marked_payload(CRASH_VALUE, obj, seq),
                    }
                };
                let mut prev_ack = 0u64;
                let mut first_open = 0usize;
                let on_ack = |seq: u64, now: SimTime, resp: &Response| {
                    not_durable.set(not_durable.get() + u64::from(!resp.durable));
                    last_acked.borrow_mut().insert(keys[seq as usize], seq);
                    let now = now.as_nanos();
                    let mut stalls = stall_ns.borrow_mut();
                    while first_open < crash_at.len()
                        && crash_at[first_open] + CRASH_DOWN.as_nanos() < prev_ack
                    {
                        first_open += 1;
                    }
                    for k in first_open..crash_at.len() {
                        if crash_at[k] > now {
                            break;
                        }
                        stalls[k] = stalls[k].max(now - prev_ack);
                    }
                    prev_ack = now;
                };
                closed_loop(&client, &h, ops, make, on_ack).await
            })
        })
    };
    let stats = inj.stats();
    assert_eq!(
        stats.node_crashes, CRASHES,
        "crash_replay: not every scripted crash was applied"
    );
    assert_eq!(
        stats.restarts, CRASHES,
        "crash_replay: a crashed node never restarted"
    );
    assert!(
        replayed.get() > 0,
        "crash_replay: recovery replayed nothing"
    );
    assert_eq!(
        not_durable.get(),
        0,
        "crash_replay: a put was ACKed non-durable"
    );
    for (&obj, &seq) in last_acked.borrow().iter() {
        assert_eq!(
            server.store().persistent_bytes(obj, 16),
            marker_bytes(obj, seq),
            "crash_replay: ACKed put {seq} of object {obj} is not in persistent memory"
        );
    }
    let s = hist.summary();
    rep.ops = s.count;
    rep.attempted = ops;
    rep.failed = failed;
    rep.set_primary(&s);
    rep.set_summary("core.durable.put", &s);
    rep.set("virt_kops", s.count as f64 / elapsed.as_secs_f64() / 1e3);
    rep.set(
        "core.durable.unavail_us",
        stall_ns.borrow().iter().sum::<u64>() as f64 / 1e3 / CRASHES as f64,
    );
    rep.set("core.log.replayed_entries", replayed.get() as f64);
    rep.host.insert(
        "core.log.recover_host_us".into(),
        recover_ns.get() as f64 / 1e3,
    );
    ledger.fold_unit(
        ctx.rec,
        &sim,
        &cluster,
        &layers::UnitInfo {
            ops: s.count,
            puts: s.count,
            user_bytes: s.count * CRASH_VALUE,
            elapsed,
            servers: 1,
        },
        ctx.traced,
    );
    ledger.finish(&mut rep);
    rep
}
