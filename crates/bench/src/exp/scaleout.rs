//! Scale-out sweep (beyond the paper): aggregate throughput and tail
//! latency of the sharded durable KV service vs. shard count, at a fixed
//! offered load, against the FaSST and ScaleRPC baselines.
//!
//! The offered load is a fixed fleet of closed-loop clients (one per
//! client node, zipfian 0.99 over the global id space); sweeping the
//! shard count at constant fleet size shows how far one more server
//! moves the saturation point. Under the heavy profile a single server's
//! worker pool is the bottleneck, so throughput scales with shards until
//! the fleet itself becomes the limit; p99 falls with the queueing delay.

use prdma::ServerProfile;
use prdma_baselines::SystemKind;
use prdma_workloads::micro::MicroConfig;

use crate::report::{kops_or_dash, us_or_dash, Table};
use crate::runner::{par_map, scaleout_run, Scale};

/// Shard counts the sweep visits.
pub const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Closed-loop client nodes generating the fixed offered load.
pub const FLEET: usize = 32;

/// Systems in the sweep: the four durable RPCs vs. the two strongest
/// two-sided baselines (per-connection state is exactly what ScaleRPC
/// exists to manage, and FaSST is the connectionless counterpoint).
pub const SYSTEMS: [SystemKind; 6] = [
    SystemKind::SRFlush,
    SystemKind::SFlush,
    SystemKind::WRFlush,
    SystemKind::WFlush,
    SystemKind::Fasst,
    SystemKind::ScaleRpc,
];

/// One sweep point's results, for tests and the tables.
pub struct ScaleoutPoint {
    /// Aggregate throughput (KOPS, simulated).
    pub kops: f64,
    /// p99 latency in µs.
    pub p99_us: f64,
    /// Completed ops across the fleet.
    pub ops: u64,
}

/// Run one (system, shard-count) point at `scale`.
pub fn scaleout_point(kind: SystemKind, shards: usize, scale: Scale) -> ScaleoutPoint {
    // 1 KB objects: big enough that persisting costs something, small
    // enough that FaSST's 4 KB UD MTU admits every op.
    let cfg = MicroConfig {
        objects: scale.objects,
        ops: scale.concurrent_ops,
        object_size: 1024,
        ..Default::default()
    };
    let run = scaleout_run(kind, shards, FLEET, ServerProfile::heavy(), cfg);
    ScaleoutPoint {
        kops: run.kops,
        p99_us: run.latency.p99_us(),
        ops: run.ops,
    }
}

/// `fig_scaleout`: throughput and p99 vs. 1/2/4/8 shards at fixed
/// offered load ([`FLEET`] closed-loop clients), all four durable RPC
/// kinds vs. FaSST and ScaleRPC.
pub fn fig_scaleout(scale: Scale) -> Vec<Table> {
    let mut points = Vec::new();
    for kind in SYSTEMS {
        for shards in SHARD_COUNTS {
            points.push((kind, shards));
        }
    }
    let cells = par_map(points, |(kind, shards)| {
        let p = scaleout_point(kind, shards, scale);
        (kops_or_dash(p.ops, p.kops), us_or_dash(p.ops, p.p99_us))
    });
    let mut cells = cells.into_iter();
    let mut tput = Table::new(
        "fig_scaleout_kops",
        format!(
            "Aggregate throughput (KOPS) vs shards, {FLEET} closed-loop clients, \
             1KB objects, heavy load"
        ),
        &["system", "1", "2", "4", "8"],
    );
    let mut p99 = Table::new(
        "fig_scaleout_p99",
        format!(
            "p99 latency (us) vs shards, {FLEET} closed-loop clients, \
             1KB objects, heavy load"
        ),
        &["system", "1", "2", "4", "8"],
    );
    for kind in SYSTEMS {
        let mut trow = vec![kind.name().to_string()];
        let mut prow = vec![kind.name().to_string()];
        for _ in SHARD_COUNTS {
            let (t, p) = cells.next().expect("cell per sweep point");
            trow.push(t);
            prow.push(p);
        }
        tput.row(trow);
        p99.row(prow);
    }
    vec![tput, p99]
}
