//! Native YCSB-compatible workload generators (paper Section 5.1,
//! Fig. 11): 50 K records, 8-byte keys, 4 KB values, 300 K operations,
//! zipfian 0.99 (workload D uses the latest distribution).

use prdma::{Request, RpcClient, RpcResult};
use prdma_rnic::Payload;
use prdma_simnet::SimHandle;

use crate::dist::{workload_rng, KeyDist};
use crate::micro::{RunResult, Tally};

/// Max scan length for workload E (uniform `1..=MAX_SCAN`).
const MAX_SCAN: u32 = 100;

/// The six core YCSB workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum YcsbWorkload {
    /// 50% update / 50% read, zipfian.
    A,
    /// 5% update / 95% read, zipfian.
    B,
    /// 100% read, zipfian.
    C,
    /// 5% insert / 95% read-latest.
    D,
    /// 95% scan / 5% insert, zipfian start keys.
    E,
    /// 50% read / 50% read-modify-write, zipfian.
    F,
}

impl YcsbWorkload {
    /// All six, in order.
    pub const ALL: [YcsbWorkload; 6] = [
        YcsbWorkload::A,
        YcsbWorkload::B,
        YcsbWorkload::C,
        YcsbWorkload::D,
        YcsbWorkload::E,
        YcsbWorkload::F,
    ];

    /// Letter label.
    pub fn label(self) -> &'static str {
        match self {
            YcsbWorkload::A => "A",
            YcsbWorkload::B => "B",
            YcsbWorkload::C => "C",
            YcsbWorkload::D => "D",
            YcsbWorkload::E => "E",
            YcsbWorkload::F => "F",
        }
    }
}

/// YCSB driver parameters (defaults follow the paper).
#[derive(Debug, Clone)]
pub struct YcsbConfig {
    /// Records pre-loaded in the KV store.
    pub records: u64,
    /// Operations to run.
    pub ops: u64,
    /// Value size in bytes (keys are 8 B, maintained client-side).
    pub value_size: u64,
    /// Which workload mix.
    pub workload: YcsbWorkload,
    /// Workload RNG seed.
    pub seed: u64,
}

impl Default for YcsbConfig {
    fn default() -> Self {
        YcsbConfig {
            records: 50_000,
            ops: 300_000,
            value_size: 4 * 1024,
            workload: YcsbWorkload::A,
            seed: 7,
        }
    }
}

impl YcsbConfig {
    /// Default config for one workload with a custom op count.
    pub fn workload(workload: YcsbWorkload, ops: u64) -> Self {
        YcsbConfig {
            workload,
            ops,
            ..Default::default()
        }
    }
}

/// Run a YCSB workload against `client` (the KV index lives client-side,
/// per the paper; the server stores values in PM). A request shape the
/// system cannot serve counts as unsupported, any other error as failed;
/// a workload F read-modify-write is one op either way.
pub async fn run_ycsb(client: &dyn RpcClient, h: &SimHandle, cfg: &YcsbConfig) -> RunResult {
    let mut rng = workload_rng(cfg.seed);
    let dist = match cfg.workload {
        YcsbWorkload::D => KeyDist::latest(cfg.records),
        _ => KeyDist::zipfian(cfg.records),
    };
    let mut tally = Tally::default();
    let t0 = h.now();

    for i in 0..cfg.ops {
        let start = h.now();
        let res = match cfg.workload {
            YcsbWorkload::A => {
                let obj = dist.sample(&mut rng);
                if rng.gen::<f64>() < 0.5 {
                    get(client, obj, cfg).await
                } else {
                    put(client, obj, cfg, i).await
                }
            }
            YcsbWorkload::B => {
                let obj = dist.sample(&mut rng);
                if rng.gen::<f64>() < 0.95 {
                    get(client, obj, cfg).await
                } else {
                    put(client, obj, cfg, i).await
                }
            }
            YcsbWorkload::C => {
                let obj = dist.sample(&mut rng);
                get(client, obj, cfg).await
            }
            YcsbWorkload::D => {
                if rng.gen::<f64>() < 0.95 {
                    let obj = dist.sample(&mut rng);
                    get(client, obj, cfg).await
                } else {
                    let obj = dist.on_insert();
                    put(client, obj, cfg, i).await
                }
            }
            YcsbWorkload::E => {
                if rng.gen::<f64>() < 0.95 {
                    let start_key = dist.sample(&mut rng);
                    let count = rng.gen_range(1..=MAX_SCAN);
                    client
                        .call(Request::Scan {
                            start: start_key,
                            count,
                            len: cfg.value_size,
                        })
                        .await
                        .map(drop)
                } else {
                    let obj = dist.on_insert();
                    put(client, obj, cfg, i).await
                }
            }
            YcsbWorkload::F => {
                let obj = dist.sample(&mut rng);
                if rng.gen::<f64>() < 0.5 {
                    get(client, obj, cfg).await
                } else {
                    // read-modify-write: a read followed by an update,
                    // measured as one composite op.
                    match get(client, obj, cfg).await {
                        Ok(()) => put(client, obj, cfg, i).await,
                        err => err,
                    }
                }
            }
        };
        tally.record(res.map(|()| h.now() - start));
    }
    tally.into_result(h.now() - t0)
}

async fn get(client: &dyn RpcClient, obj: u64, cfg: &YcsbConfig) -> RpcResult<()> {
    client
        .call(Request::Get {
            obj,
            len: cfg.value_size,
        })
        .await
        .map(drop)
}

async fn put(client: &dyn RpcClient, obj: u64, cfg: &YcsbConfig, tag: u64) -> RpcResult<()> {
    client
        .call(Request::Put {
            obj,
            data: Payload::synthetic(cfg.value_size, tag),
        })
        .await
        .map(drop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prdma::{Response, RpcError, RpcFuture, ServerProfile};
    use prdma_baselines::{build_system, SystemKind, SystemOpts};
    use prdma_node::{Cluster, ClusterConfig};
    use prdma_simnet::Sim;

    fn run(workload: YcsbWorkload, kind: SystemKind) -> RunResult {
        let mut sim = Sim::new(21);
        let cluster = Cluster::new(sim.handle(), ClusterConfig::with_nodes(2));
        let opts = SystemOpts::for_object_size(4096, ServerProfile::light());
        let client = build_system(&cluster, kind, 1, 0, 0, &opts);
        let cfg = YcsbConfig {
            records: 200,
            ops: 120,
            value_size: 4096,
            workload,
            seed: 3,
        };
        let h = sim.handle();
        sim.block_on(async move { run_ycsb(client.as_ref(), &h, &cfg).await })
    }

    #[test]
    fn all_workloads_complete_on_wflush() {
        for w in YcsbWorkload::ALL {
            let r = run(w, SystemKind::WFlush);
            assert_eq!(r.ops, 120, "workload {w:?}");
            assert!(r.latency.mean_ns > 0.0);
        }
    }

    #[test]
    fn scans_cost_more_than_reads() {
        let r_scan = run(YcsbWorkload::E, SystemKind::Farm);
        let r_read = run(YcsbWorkload::C, SystemKind::Farm);
        assert!(
            r_scan.latency.mean_ns > r_read.latency.mean_ns * 1.5,
            "scan {} vs read {}",
            r_scan.latency.mean_ns,
            r_read.latency.mean_ns
        );
    }

    #[test]
    fn write_heavy_a_benefits_durable_rpcs_vs_farm() {
        let ours = run(YcsbWorkload::A, SystemKind::WFlush);
        let farm = run(YcsbWorkload::A, SystemKind::Farm);
        assert!(
            ours.latency.mean_ns < farm.latency.mean_ns,
            "WFlush {} !< FaRM {}",
            ours.latency.mean_ns,
            farm.latency.mean_ns
        );
    }

    /// Serves every GET, refuses every scan as an unsupported shape and
    /// fails every put with `put_err`.
    struct FailingPuts {
        put_err: RpcError,
    }

    impl RpcClient for FailingPuts {
        fn call(&self, req: Request) -> RpcFuture<'_> {
            let res = match req {
                Request::Get { .. } => Ok(Response {
                    payload: None,
                    durable: true,
                }),
                Request::Scan { .. } => Err(RpcError::Unsupported("scan")),
                _ => Err(self.put_err.clone()),
            };
            Box::pin(std::future::ready(res))
        }

        fn name(&self) -> &'static str {
            "failing-puts"
        }
    }

    fn run_stub(workload: YcsbWorkload, put_err: RpcError) -> RunResult {
        let mut sim = Sim::new(21);
        let h = sim.handle();
        let cfg = YcsbConfig {
            records: 200,
            ops: 400,
            workload,
            ..Default::default()
        };
        let client = FailingPuts { put_err };
        sim.block_on(async move { run_ycsb(&client, &h, &cfg).await })
    }

    #[test]
    fn failed_ops_are_not_counted_as_unsupported() {
        // E: 95 % scans (unsupported), 5 % inserts (failed).
        for err in [RpcError::TimedOut, RpcError::ServerDown] {
            let r = run_stub(YcsbWorkload::E, err.clone());
            assert_eq!(r.ops, 0, "{err:?}");
            assert!(r.unsupported > 0 && r.failed > 0, "{err:?}: {r:?}");
            assert!(r.unsupported > r.failed, "{err:?}: {r:?}");
            assert_eq!(r.unsupported + r.failed, 400, "{err:?}");
        }
        // F: a read-modify-write whose put fails is one failed op, not
        // two, and never an unsupported one.
        let r = run_stub(YcsbWorkload::F, RpcError::ServerDown);
        assert!(r.ops > 0 && r.failed > 0, "{r:?}");
        assert_eq!(r.unsupported, 0);
        assert_eq!(r.ops + r.failed, 400);
        // An unsupported put shape stays unsupported.
        let r = run_stub(YcsbWorkload::A, RpcError::Unsupported("put"));
        assert!(r.ops > 0 && r.unsupported > 0, "{r:?}");
        assert_eq!(r.failed, 0);
        assert_eq!(r.ops + r.unsupported, 400);
    }
}
