//! The paper's micro-benchmark (Section 5.1): 50 K objects in the remote
//! server's PM, 300 K read/write operations, zipfian (0.99) access,
//! configurable object size, read ratio, and server load profile.

use prdma::{Request, RpcClient, RpcError};
use prdma_rnic::Payload;
use prdma_simnet::{Histogram, SimDuration, SimHandle, Summary};

use crate::dist::{workload_rng, Zipfian};

/// The paper's zipfian skew.
const PAPER_THETA: f64 = 0.99;

/// Micro-benchmark parameters (defaults follow the paper).
#[derive(Debug, Clone)]
pub struct MicroConfig {
    /// Objects pre-generated at the server.
    pub objects: u64,
    /// Operations to issue.
    pub ops: u64,
    /// Object size in bytes.
    pub object_size: u64,
    /// Fraction of reads (paper default: 1:1 read/write).
    pub read_ratio: f64,
    /// Workload RNG seed.
    pub seed: u64,
}

impl Default for MicroConfig {
    fn default() -> Self {
        MicroConfig {
            objects: 50_000,
            ops: 300_000,
            object_size: 64 * 1024,
            read_ratio: 0.5,
            seed: 42,
        }
    }
}

impl MicroConfig {
    /// Paper defaults with a different object size and op count (bench
    /// targets scale `ops` down; simulated time is unaffected by wall
    /// constraints, but harness runtime is).
    pub fn sized(object_size: u64, ops: u64) -> Self {
        MicroConfig {
            object_size,
            ops,
            ..Default::default()
        }
    }
}

/// Results of one micro-benchmark run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Operations completed.
    pub ops: u64,
    /// Operations rejected as unsupported (e.g. FaSST over-MTU).
    pub unsupported: u64,
    /// Operations that failed at the transport/RPC level even after the
    /// system's own retries (loss bursts, server crashes). These count
    /// toward elapsed time but not toward the latency distribution.
    pub failed: u64,
    /// Total simulated duration.
    pub elapsed: SimDuration,
    /// Per-op latency summary.
    pub latency: Summary,
    /// Throughput in K-operations per simulated second.
    pub kops: f64,
}

/// K-operations per simulated second.
fn kops(ops: u64, elapsed: SimDuration) -> f64 {
    if elapsed > SimDuration::ZERO {
        ops as f64 / elapsed.as_secs_f64() / 1e3
    } else {
        0.0
    }
}

/// The closed loop every variant below runs on one client: `cfg.ops`
/// times, draw a key (zipfian `theta`), then the read/write coin, issue
/// the call, and hand `sink` whether it was a read and its latency or
/// error.
async fn closed_loop(
    client: &dyn RpcClient,
    h: &SimHandle,
    cfg: &MicroConfig,
    theta: f64,
    mut sink: impl FnMut(bool, Result<SimDuration, RpcError>),
) {
    let mut rng = workload_rng(cfg.seed);
    let dist = Zipfian::new(cfg.objects, theta);
    for i in 0..cfg.ops {
        let obj = dist.sample(&mut rng);
        let is_read = rng.gen::<f64>() < cfg.read_ratio;
        let req = if is_read {
            Request::Get {
                obj,
                len: cfg.object_size,
            }
        } else {
            Request::Put {
                obj,
                data: Payload::synthetic(cfg.object_size, i),
            }
        };
        let start = h.now();
        let res = client.call(req).await;
        sink(is_read, res.map(|_| h.now() - start));
    }
}

/// One client's (or, merged, a fleet's) share of a [`RunResult`].
#[derive(Default)]
pub(crate) struct Tally {
    /// Latencies of the completed operations.
    hist: Histogram,
    unsupported: u64,
    failed: u64,
}

impl Tally {
    /// Run the paper's mix on `client` and tally every outcome.
    async fn of(client: &dyn RpcClient, h: &SimHandle, cfg: &MicroConfig) -> Tally {
        let mut t = Tally::default();
        closed_loop(client, h, cfg, PAPER_THETA, |_, res| t.record(res)).await;
        t
    }

    /// Count one op: its latency if it completed, else its error.
    pub(crate) fn record(&mut self, res: Result<SimDuration, RpcError>) {
        match res {
            Ok(d) => self.hist.record_duration(d),
            Err(RpcError::Unsupported(_)) => self.unsupported += 1,
            // Transport loss or a server outage the system's own retries
            // could not ride out: the op failed, the run continues (a
            // benchmark must survive the faults it measures).
            Err(_) => self.failed += 1,
        }
    }

    pub(crate) fn into_result(self, elapsed: SimDuration) -> RunResult {
        let ops = self.hist.count();
        RunResult {
            ops,
            unsupported: self.unsupported,
            failed: self.failed,
            elapsed,
            latency: self.hist.summary(),
            kops: kops(ops, elapsed),
        }
    }
}

/// Run the micro-benchmark against `client`. Returns per-op latency and
/// throughput in simulated time.
pub async fn run_micro(client: &dyn RpcClient, h: &SimHandle, cfg: &MicroConfig) -> RunResult {
    let t0 = h.now();
    let tally = Tally::of(client, h, cfg).await;
    tally.into_result(h.now() - t0)
}

/// Results of a mixed run with read and write latency summarized
/// *separately* — the cache figure needs the GET percentiles alone, since
/// a blended mean hides the read fast path behind the write tail.
#[derive(Debug, Clone)]
pub struct SplitResult {
    /// Operations completed (reads + writes).
    pub ops: u64,
    /// Total simulated duration.
    pub elapsed: SimDuration,
    /// Throughput in K-operations per simulated second.
    pub kops: f64,
    /// GET latency summary.
    pub get: Summary,
    /// PUT latency summary.
    pub put: Summary,
}

/// Run the micro-benchmark mix with an explicit zipfian skew `theta`,
/// recording GET and PUT latencies in separate histograms (the `fig_cache`
/// sweep varies skew and reads off the GET percentiles).
pub async fn run_micro_split(
    client: &dyn RpcClient,
    h: &SimHandle,
    cfg: &MicroConfig,
    theta: f64,
) -> SplitResult {
    let mut gets = Histogram::new();
    let mut puts = Histogram::new();
    let t0 = h.now();
    closed_loop(client, h, cfg, theta, |is_read, res| {
        if let Ok(d) = res {
            let hist = if is_read { &mut gets } else { &mut puts };
            hist.record_duration(d);
        }
    })
    .await;
    let elapsed = h.now() - t0;
    let ops = gets.count() + puts.count();
    SplitResult {
        ops,
        elapsed,
        kops: kops(ops, elapsed),
        get: gets.summary(),
        put: puts.summary(),
    }
}

/// Closed-loop multi-client generator (paper Fig. 17, the scale-out sweep
/// per shard): every client runs the micro loop independently (distinct
/// seed, think-time-free), each recording into its *own* histogram; the
/// per-client histograms are then merged with [`Histogram::merge`], which
/// is exact — summed per-bucket counts are structurally identical to
/// recording the union into one shared histogram.
pub async fn run_micro_fleet(
    clients: Vec<Box<dyn RpcClient>>,
    h: &SimHandle,
    cfg: &MicroConfig,
) -> RunResult {
    let t0 = h.now();
    let mut joins = Vec::with_capacity(clients.len());
    for (i, client) in clients.into_iter().enumerate() {
        let cfg = MicroConfig {
            seed: cfg.seed.wrapping_add(i as u64 * 7919),
            ..cfg.clone()
        };
        let h2 = h.clone();
        joins.push(h.spawn(async move { Tally::of(client.as_ref(), &h2, &cfg).await }));
    }
    let mut fleet = Tally::default();
    for j in joins {
        let t = j.await;
        fleet.hist.merge(&t.hist);
        fleet.unsupported += t.unsupported;
        fleet.failed += t.failed;
    }
    fleet.into_result(h.now() - t0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prdma::ServerProfile;
    use prdma_baselines::{build_system, SystemKind, SystemOpts};
    use prdma_node::{Cluster, ClusterConfig};
    use prdma_simnet::Sim;

    fn quick(kind: SystemKind, cfg: MicroConfig) -> RunResult {
        let mut sim = Sim::new(5);
        let cluster = Cluster::new(sim.handle(), ClusterConfig::with_nodes(2));
        let opts = SystemOpts::for_object_size(cfg.object_size, ServerProfile::light());
        let client = build_system(&cluster, kind, 1, 0, 0, &opts);
        let h = sim.handle();
        sim.block_on(async move { run_micro(client.as_ref(), &h, &cfg).await })
    }

    #[test]
    fn micro_run_produces_consistent_stats() {
        let cfg = MicroConfig {
            objects: 100,
            ops: 200,
            object_size: 1024,
            ..Default::default()
        };
        let r = quick(SystemKind::WFlush, cfg);
        assert_eq!(r.ops, 200);
        assert!(r.kops > 0.0);
        assert!(r.latency.p99_ns >= r.latency.p50_ns);
        assert!(r.elapsed > SimDuration::ZERO);
    }

    #[test]
    fn fasst_counts_unsupported_large_ops() {
        let cfg = MicroConfig {
            objects: 50,
            ops: 50,
            object_size: 65536,
            ..Default::default()
        };
        let r = quick(SystemKind::Fasst, cfg);
        assert_eq!(r.ops, 0);
        assert_eq!(r.unsupported, 50);
    }

    #[test]
    fn concurrent_clients_share_one_server() {
        let mut sim = Sim::new(6);
        let cluster = Cluster::new(sim.handle(), ClusterConfig::with_nodes(4));
        let opts = SystemOpts::for_object_size(1024, ServerProfile::light());
        let clients: Vec<Box<dyn prdma::RpcClient>> = (1..4)
            .map(|i| build_system(&cluster, SystemKind::Farm, i, 0, i, &opts))
            .collect();
        let h = sim.handle();
        let cfg = MicroConfig {
            objects: 100,
            ops: 50,
            object_size: 1024,
            ..Default::default()
        };
        let r = sim.block_on(async move { run_micro_fleet(clients, &h, &cfg).await });
        assert_eq!(r.ops, 150);
    }

    #[test]
    fn sharded_client_runs_micro_loop_across_servers() {
        let mut sim = Sim::new(11);
        let cluster = Cluster::new(sim.handle(), prdma_node::ClusterConfig::with_servers(2, 1));
        let map = prdma::ShardMap::new(2);
        let opts = SystemOpts::for_object_size(1024, ServerProfile::light());
        let client =
            prdma_baselines::build_sharded_system(&cluster, SystemKind::WFlush, map, 2, 0, &opts);
        let h = sim.handle();
        let cfg = MicroConfig {
            objects: 200,
            ops: 150,
            object_size: 1024,
            ..Default::default()
        };
        let r = sim.block_on(async move { run_micro(&client, &h, &cfg).await });
        assert_eq!(r.ops, 150);
        assert!(r.kops > 0.0);
    }
}
