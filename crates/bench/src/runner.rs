//! Shared experiment plumbing: build a cluster with the experiment's
//! environment knobs, run a workload, and collect results plus resource
//! accounting for the breakdown figures.

use prdma::{FlushImpl, ServerProfile, ShardMap};
use prdma_baselines::{build_sharded_system, build_system, SystemKind, SystemOpts};
use prdma_node::{Cluster, ClusterConfig};
use prdma_simnet::journal;
use prdma_simnet::trace::TraceReport;
use prdma_simnet::{Sim, SimDuration, SimTime};
use prdma_workloads::micro::{run_micro, run_micro_fleet, MicroConfig, RunResult};
use prdma_workloads::ycsb::{run_ycsb, YcsbConfig};

use crate::report::output_dir;

/// Whether journal capture was requested for this bench process: pass
/// `--journal` after `--` on the bench command line (e.g. `cargo bench
/// --bench fig20_breakdown -- --journal`).
pub fn journal_enabled() -> bool {
    std::env::args().any(|a| a == "--journal")
}

/// Export the cluster's merged journal (JSONL + Chrome-trace JSON under
/// the output directory, named `journal_<tag>.*`) and run the durability
/// auditor, panicking on any ordering violation. No-op
/// unless [`journal_enabled`]. Repeated runs with the same tag overwrite
/// — each file holds the last run of that configuration.
pub(crate) fn export_and_audit(cluster: &Cluster, tag: &str) {
    if !journal_enabled() {
        return;
    }
    let records = cluster.journal_records();
    let t0 = std::time::Instant::now();
    let report = journal::audit(&records);
    let audit_ns = t0.elapsed().as_nanos() as usize / records.len().max(1);
    let gauges = journal::gauges(&records);
    let dir = output_dir();
    let _ = std::fs::create_dir_all(&dir);
    let slug: String = tag
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect();
    let _ = std::fs::write(
        dir.join(format!("journal_{slug}.jsonl")),
        journal::to_jsonl(&records),
    );
    let _ = std::fs::write(
        dir.join(format!("journal_{slug}.trace.json")),
        journal::to_chrome_trace(&records),
    );
    println!("   journal[{tag}]: {report} ({audit_ns} ns/record); {gauges:?}");
    report.assert_ok();
}

/// Sweep-level parallelism for this bench process: `PRDMA_PAR=<n>`
/// (`1` restores the serial runner), defaulting to
/// `available_parallelism`; any other value panics. Forced to 1 while
/// journal capture is on — journaled runs print per-point audit lines and
/// export files whose interleaving must stay deterministic.
pub fn par_level() -> usize {
    let par = parse_par(env_value("PRDMA_PAR").as_deref()).unwrap_or_else(|e| panic!("{e}"));
    if journal_enabled() {
        1
    } else {
        par
    }
}

/// `PRDMA_PAR`'s value (`None` when unset) as a worker count.
fn parse_par(v: Option<&str>) -> Result<usize, String> {
    match v {
        None => Ok(std::thread::available_parallelism().map_or(1, |n| n.get())),
        Some(v) => v
            .trim()
            .parse()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| format!("PRDMA_PAR={v:?}: expected a worker count of 1 or more")),
    }
}

/// The value of environment variable `name`, `None` when unset.
fn env_value(name: &str) -> Option<String> {
    std::env::var_os(name).map(|v| v.to_string_lossy().into_owned())
}

/// Run `f` over every sweep point in `items` across up to [`par_level`]
/// worker threads, returning results **in input order** — callers build
/// tables/CSV rows from the returned `Vec` exactly as the serial loop
/// did, so all printed and written artifacts are byte-identical to
/// `PRDMA_PAR=1`. Each point constructs its own seeded single-threaded
/// [`Sim`], so points share no state and any interleaving of their
/// execution yields the same per-point results.
///
/// A panic in any point propagates to the caller after the other
/// workers finish their current point.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    let workers = par_level().min(items.len());
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..slots.len()).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(slot) = slots.get(i) else { break };
                let item = slot
                    .lock()
                    .expect("sweep item poisoned")
                    .take()
                    .expect("sweep item claimed twice");
                let r = f(item);
                *results[i].lock().expect("sweep result poisoned") = Some(r);
            });
        }
    });
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("sweep result poisoned")
                .expect("sweep point missing result")
        })
        .collect()
}

/// Environment knobs an experiment can toggle.
#[derive(Debug, Clone)]
pub struct ExpEnv {
    /// Nodes in the cluster (node 0 = server).
    pub nodes: usize,
    /// Server load profile.
    pub profile: ServerProfile,
    /// Object/value size in bytes.
    pub object_size: u64,
    /// Flush implementation for durable RPCs.
    pub flush_impl: FlushImpl,
    /// Enable DDIO on every RNIC.
    pub ddio: bool,
    /// Congest the client<->server links with background traffic.
    pub network_busy: bool,
    /// Saturate the receiver's CPU with background compute.
    pub receiver_busy: bool,
    /// Saturate the sender's CPU with background compute.
    pub sender_busy: bool,
    /// Simulation seed.
    pub seed: u64,
}

impl Default for ExpEnv {
    fn default() -> Self {
        ExpEnv {
            nodes: 2,
            profile: ServerProfile::light(),
            object_size: 64 * 1024,
            flush_impl: FlushImpl::Emulated,
            ddio: false,
            network_busy: false,
            receiver_busy: false,
            sender_busy: false,
            seed: 20211114, // the paper's conference date
        }
    }
}

impl ExpEnv {
    /// Environment with a given size/profile, defaults otherwise.
    pub fn sized(object_size: u64, profile: ServerProfile) -> Self {
        ExpEnv {
            object_size,
            profile,
            ..Default::default()
        }
    }

    fn system_opts(&self) -> SystemOpts {
        SystemOpts {
            profile: self.profile.clone(),
            flush_impl: self.flush_impl,
            object_slot: self.object_size.max(64),
            ..Default::default()
        }
    }

    fn build_cluster(&self, sim: &Sim) -> Cluster {
        let mut cfg = ClusterConfig::with_nodes(self.nodes);
        cfg.rnic.ddio = self.ddio;
        cfg.journal = journal_enabled();
        let cluster = Cluster::new(sim.handle(), cfg);
        if self.network_busy {
            // A background stream of 32 KB packets, both directions,
            // for the whole experiment (paper Fig. 14's "busy" link).
            let f = cluster.fabric().clone();
            let a = cluster.node(0).id;
            let b = cluster.node(1).id;
            let forever = SimTime::from_nanos(u64::MAX / 2);
            f.background_traffic(b, a, 32 * 1024, SimDuration::ZERO, forever);
            f.background_traffic(a, b, 32 * 1024, SimDuration::ZERO, forever);
        }
        if self.receiver_busy {
            saturate_cpu(sim, &cluster, 0);
        }
        if self.sender_busy {
            for i in 1..self.nodes {
                saturate_cpu(sim, &cluster, i);
            }
        }
        cluster
    }
}

/// Occupy all but one core permanently and keep the last core ~80% busy
/// with short compute bursts (the paper's "busy" CPU condition).
fn saturate_cpu(sim: &Sim, cluster: &Cluster, node: usize) {
    let cpu = cluster.node(node).cpu.clone();
    cpu.make_busy();
    let h = sim.handle();
    let h2 = h.clone();
    h.spawn(async move {
        loop {
            // Antagonist load: outside the latency breakdown.
            cpu.compute_background(SimDuration::from_micros(8)).await;
            h2.sleep(SimDuration::from_micros(2)).await;
        }
    });
}

/// Results of one environment run, with resource accounting.
pub struct EnvResult {
    /// Workload results (latency, throughput).
    pub run: RunResult,
    /// Client CPU busy time per completed op (sender software).
    pub client_cpu_us_per_op: f64,
    /// Server CPU busy time per completed op (receiver software).
    pub server_cpu_us_per_op: f64,
    /// Server PM media busy time per completed op (data persisting cost).
    pub server_media_us_per_op: f64,
    /// Cluster-wide per-phase latency breakdown (Fig. 20's raw data).
    pub trace: TraceReport,
    /// Completed ops (for per-op normalization of trace totals).
    pub ops: u64,
}

impl EnvResult {
    /// Critical-path µs/op spent in `phase`.
    pub fn phase_us_per_op(&self, phase: prdma_simnet::trace::Phase) -> f64 {
        self.trace.total(phase).as_micros_f64() / self.ops.max(1) as f64
    }
}

/// Run the micro-benchmark for `kind` under `env`.
pub fn micro_run(kind: SystemKind, env: &ExpEnv, cfg: MicroConfig) -> EnvResult {
    single_client_run(kind, env, Workload::Micro(cfg))
}

/// What [`single_client_run`]'s one client drives.
enum Workload {
    Micro(MicroConfig),
    Ycsb(YcsbConfig),
}

/// Run `workload` from one client (node 1) against `kind`'s server
/// (node 0) under `env`, with client CPU, server CPU and server PM media
/// busy time per op. The run starts at t = 0, where every busy counter
/// reads 0.
fn single_client_run(kind: SystemKind, env: &ExpEnv, workload: Workload) -> EnvResult {
    let mut sim = Sim::new(env.seed);
    let cluster = env.build_cluster(&sim);
    let opts = env.system_opts();
    let client = build_system(&cluster, kind, 1, 0, 0, &opts);
    let server_cpu = cluster.node(0).cpu.clone();
    let client_cpu = cluster.node(1).cpu.clone();
    let server_pm = cluster.node(0).pm.clone();
    let h = sim.handle();
    let (name, run) = sim.block_on(async move {
        match &workload {
            Workload::Micro(cfg) => ("micro", run_micro(client.as_ref(), &h, cfg).await),
            Workload::Ycsb(cfg) => ("ycsb", run_ycsb(client.as_ref(), &h, cfg).await),
        }
    });
    export_and_audit(&cluster, &format!("{name}_{}", kind.name()));
    let ops = run.ops.max(1) as f64;
    EnvResult {
        client_cpu_us_per_op: client_cpu.busy_time().as_micros_f64() / ops,
        server_cpu_us_per_op: server_cpu.busy_time().as_micros_f64() / ops,
        server_media_us_per_op: server_pm.media_busy_time().as_micros_f64() / ops,
        trace: cluster.trace_report(),
        ops: run.ops,
        run,
    }
}

/// Run the micro-benchmark with `senders` concurrent clients (Fig. 17).
pub fn micro_run_concurrent(
    kind: SystemKind,
    env: &ExpEnv,
    cfg: MicroConfig,
    senders: usize,
) -> RunResult {
    let env = ExpEnv {
        nodes: senders + 1,
        ..env.clone()
    };
    let mut sim = Sim::new(env.seed);
    let cluster = env.build_cluster(&sim);
    let opts = env.system_opts();
    let clients: Vec<Box<dyn prdma::RpcClient>> = (1..=senders)
        .map(|i| build_system(&cluster, kind, i, 0, i - 1, &opts))
        .collect();
    let h = sim.handle();
    let run = sim.block_on(async move { run_micro_fleet(clients, &h, &cfg).await });
    export_and_audit(&cluster, &format!("conc{}_{}", senders, kind.name()));
    run
}

/// Run the micro-benchmark against a *sharded* service: `shards` server
/// nodes (one shard each, own PM/redo-log), `clients` client nodes each
/// driving one closed-loop generator through shard-aware routing. The
/// offered load is fixed by the client fleet, so sweeping `shards` at
/// constant `clients` measures scale-out. Per-shard store regions are
/// sized to the shard's share of the id space, so content-bearing
/// configs never wrap (see `ObjectStore` aliasing rules).
pub fn scaleout_run(
    kind: SystemKind,
    shards: usize,
    clients: usize,
    profile: ServerProfile,
    cfg: MicroConfig,
    seed: u64,
) -> RunResult {
    let mut sim = Sim::new(seed);
    let mut ccfg = ClusterConfig::with_servers(shards, clients);
    ccfg.journal = journal_enabled();
    let cluster = Cluster::new(sim.handle(), ccfg);
    let map = ShardMap::new(shards);
    let slot = cfg.object_size.max(64);
    let opts = SystemOpts {
        profile,
        object_slot: slot,
        store_capacity: map.local_span(cfg.objects) * slot,
        ..Default::default()
    };
    let fleet: Vec<Box<dyn prdma::RpcClient>> = (0..clients)
        .map(|c| {
            Box::new(build_sharded_system(
                &cluster,
                kind,
                map,
                shards + c,
                c,
                &opts,
            )) as Box<dyn prdma::RpcClient>
        })
        .collect();
    let h = sim.handle();
    let run = sim.block_on(async move { run_micro_fleet(fleet, &h, &cfg).await });
    export_and_audit(&cluster, &format!("scaleout{}_{}", shards, kind.name()));
    run
}

/// Run a YCSB workload for `kind` under `env`.
pub fn ycsb_run(kind: SystemKind, env: &ExpEnv, cfg: YcsbConfig) -> EnvResult {
    single_client_run(kind, env, Workload::Ycsb(cfg))
}

/// Experiment scale: paper-size runs for `cargo bench`, smaller for CI.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Micro-benchmark ops per configuration.
    pub micro_ops: u64,
    /// Objects in the store.
    pub objects: u64,
    /// YCSB ops per workload.
    pub ycsb_ops: u64,
    /// PageRank iterations.
    pub pr_iters: u32,
    /// Ops per sender in the concurrency sweep.
    pub concurrent_ops: u64,
    /// Ops in the failure-recovery replay.
    pub fault_ops: u64,
    /// Simulated milliseconds per open-loop sweep point.
    pub openloop_ms: u64,
}

impl Scale {
    /// The paper's full experiment sizes (minutes of wall time).
    pub fn paper() -> Self {
        Scale {
            micro_ops: 300_000,
            objects: 50_000,
            ycsb_ops: 300_000,
            pr_iters: 10,
            concurrent_ops: 30_000,
            fault_ops: 1_000_000_000,
            openloop_ms: 50,
        }
    }

    /// Default bench scale: same shapes, ~20x fewer ops.
    pub fn bench() -> Self {
        Scale {
            micro_ops: 15_000,
            objects: 50_000,
            ycsb_ops: 15_000,
            pr_iters: 5,
            concurrent_ops: 1_500,
            fault_ops: 1_000_000_000,
            openloop_ms: 20,
        }
    }

    /// Smoke scale for tests.
    pub fn smoke() -> Self {
        Scale {
            micro_ops: 300,
            objects: 500,
            ycsb_ops: 300,
            pr_iters: 2,
            concurrent_ops: 60,
            fault_ops: 10_000_000,
            openloop_ms: 4,
        }
    }

    /// Resolve from `PRDMA_SCALE` (`paper` / `bench` / `smoke`), default
    /// bench; any other value panics.
    pub fn from_env() -> Self {
        Scale::parse(env_value("PRDMA_SCALE").as_deref()).unwrap_or_else(|e| panic!("{e}"))
    }

    /// `PRDMA_SCALE`'s value (`None` when unset) as a scale.
    fn parse(v: Option<&str>) -> Result<Self, String> {
        match v {
            None | Some("bench") => Ok(Scale::bench()),
            Some("paper") => Ok(Scale::paper()),
            Some("smoke") => Ok(Scale::smoke()),
            Some(v) => Err(format!("PRDMA_SCALE={v:?}: expected smoke, bench or paper")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_accepts_its_three_names_and_rejects_the_rest() {
        let micro = |v| Scale::parse(v).map(|s| s.micro_ops);
        assert_eq!(micro(None), Ok(Scale::bench().micro_ops));
        assert_eq!(micro(Some("bench")), Ok(Scale::bench().micro_ops));
        assert_eq!(micro(Some("paper")), Ok(Scale::paper().micro_ops));
        assert_eq!(micro(Some("smoke")), Ok(Scale::smoke().micro_ops));
        for bad in ["Smoke", "", "small"] {
            let err = micro(Some(bad)).unwrap_err();
            assert!(err.contains("expected smoke, bench or paper"), "{err}");
        }
    }

    #[test]
    fn par_accepts_positive_counts_and_rejects_the_rest() {
        assert!(parse_par(None).unwrap() >= 1);
        assert_eq!(parse_par(Some("1")), Ok(1));
        assert_eq!(parse_par(Some(" 4 ")), Ok(4));
        for bad in ["0", "-2", "four", ""] {
            let err = parse_par(Some(bad)).unwrap_err();
            assert!(
                err.contains("expected a worker count of 1 or more"),
                "{err}"
            );
        }
    }
}
