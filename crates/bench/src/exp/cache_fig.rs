//! The cache figure (`fig_cache`): hot-key lease caching and the
//! adaptive one-sided READ fast path vs the uncached durable RPCs and
//! the one-sided HERD baseline.
//!
//! Three sweeps, all on the read path the tentpole rebuilt:
//!
//! * **skew sweep** — GET p50/p99 and throughput vs zipfian theta for
//!   the uncached `WFlush-RPC`, the cached `WFlush-RPC+cache`, and
//!   `HERD` (95% reads). The crossover the figure must show: at
//!   theta ≥ 0.99 the cached GET p50 beats the durable-RPC GET p50 by
//!   ≥ 2x.
//! * **capacity sweep** — the cached kind at theta 0.99 as the client
//!   cache shrinks from 1024 entries to 4 (hit rate starves, latency
//!   converges back to the RPC path).
//! * **write mix** — 100% puts, cached vs uncached: the lease bump on
//!   the put path must be within noise of the uncached baseline.
//!
//! With `--journal` every point runs under the durability auditor, so
//! invariant I5 (invalidation before flush ACK; every cached read
//! covered by a lease grant) is checked on the real workload. The two
//! acceptance bounds — the crossover and the write-path delta — are
//! virtual-time results, deterministic per seed and scale, and are
//! asserted on every run.

use prdma::{
    build_fleet, CacheConfig, DurableConfig, DurableKind, FleetSpec, RpcClient, ServerProfile,
    ShardMap,
};
use prdma_baselines::{build_system, SystemKind, SystemOpts};
use prdma_node::{Cluster, ClusterConfig};
use prdma_simnet::Sim;
use prdma_workloads::micro::{run_micro_split, MicroConfig, SplitResult};

use crate::report::{kops, us, Table};
use crate::runner::{export_and_audit, journal_enabled, metrics_enabled, par_map, Scale};

/// One system under test in the cache sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CacheSys {
    /// A durable RPC kind, optionally fronted by the lease cache.
    Durable(DurableKind, bool),
    /// The one-sided HERD baseline (no durability).
    Herd,
}

impl CacheSys {
    fn name(self) -> &'static str {
        match self {
            CacheSys::Durable(DurableKind::WFlush, false) => "WFlush-RPC",
            CacheSys::Durable(DurableKind::WFlush, true) => "WFlush-RPC+cache",
            CacheSys::Durable(DurableKind::SFlush, false) => "SFlush-RPC",
            CacheSys::Durable(DurableKind::SFlush, true) => "SFlush-RPC+cache",
            CacheSys::Durable(..) => "durable",
            CacheSys::Herd => "HERD",
        }
    }
}

const OBJECT_SIZE: u64 = 1024;

/// Run one sweep point: `sys` under a zipfian(`theta`) mix with
/// `read_ratio` reads and a client cache of `capacity` entries.
fn cache_point(
    sys: CacheSys,
    theta: f64,
    capacity: usize,
    read_ratio: f64,
    scale: Scale,
    tag: &str,
) -> SplitResult {
    let objects = scale.objects.clamp(100, 2_000);
    // At least 4 draws per object on average, so the zipfian head is warm
    // and the steady-state hit rate (not the cold fill) sets the median.
    let cfg = MicroConfig {
        objects,
        ops: (scale.micro_ops / 2).max(4 * objects),
        object_size: OBJECT_SIZE,
        read_ratio,
        ..Default::default()
    };
    let mut sim = Sim::new(20211114);
    let mut ccfg = ClusterConfig::with_servers(1, 1);
    ccfg.journal = journal_enabled();
    ccfg.metrics = metrics_enabled();
    let cluster = Cluster::new(sim.handle(), ccfg);
    let client: Box<dyn RpcClient> = match sys {
        CacheSys::Herd => {
            let opts = SystemOpts::for_object_size(OBJECT_SIZE, ServerProfile::light());
            build_system(&cluster, SystemKind::Herd, 1, 0, 0, &opts)
        }
        CacheSys::Durable(kind, cached) => {
            let map = ShardMap::new(1);
            let dcfg = DurableConfig {
                kind,
                profile: ServerProfile::light(),
                slot_payload: OBJECT_SIZE,
                object_slot: OBJECT_SIZE,
                store_capacity: map.local_span(objects) * OBJECT_SIZE,
                log_slots: 256,
                ..Default::default()
            };
            // Fill on first miss and tolerate a little write churn: the
            // figure measures the steady-state read path, not the
            // admission policy.
            let cache = cached.then(|| CacheConfig {
                capacity,
                hot_threshold: 1,
                churn_demote: 4,
                ..Default::default()
            });
            let spec = FleetSpec { replicas: 1, cache };
            let svc = build_fleet(&cluster, map, &[1], &dcfg, spec);
            Box::new(svc.clients.into_iter().next().expect("one client"))
        }
    };
    let h = sim.handle();
    let r = sim.block_on(async move { run_micro_split(client.as_ref(), &h, &cfg, theta).await });
    sim.run();
    export_and_audit(&cluster, &format!("cache_{tag}"));
    r
}

/// The full cache figure: skew sweep, capacity sweep, write-mix check.
pub fn fig_cache(scale: Scale) -> Vec<Table> {
    // --- Skew sweep (95% reads): durable vs cached vs HERD. ---
    let systems = [
        CacheSys::Durable(DurableKind::WFlush, false),
        CacheSys::Durable(DurableKind::WFlush, true),
        CacheSys::Herd,
    ];
    let thetas = [0.50, 0.90, 0.99];
    let mut points = Vec::new();
    for &theta in &thetas {
        for &sys in &systems {
            points.push((theta, sys));
        }
    }
    let skew = par_map(points, |(theta, sys)| {
        let tag = format!("t{:02}_{}", (theta * 100.0) as u32, sys.name());
        cache_point(sys, theta, 1024, 0.95, scale, &tag)
    });
    let mut t_skew = Table::new(
        "fig_cache_skew",
        "GET latency vs zipfian skew (95% reads, 1KB): durable vs cached vs HERD",
        &["theta", "system", "get_p50_us", "get_p99_us", "kops"],
    );
    let mut it = skew.iter();
    let mut crossover: Vec<(f64, f64, f64)> = Vec::new(); // (theta, uncached p50, cached p50)
    for &theta in &thetas {
        let mut p50s = Vec::new();
        for &sys in &systems {
            let r = it.next().expect("one result per point");
            p50s.push(r.get.p50_us());
            t_skew.row(vec![
                format!("{theta:.2}"),
                sys.name().to_string(),
                us(r.get.p50_us()),
                us(r.get.p99_us()),
                kops(r.kops),
            ]);
        }
        crossover.push((theta, p50s[0], p50s[1]));
    }

    // --- Capacity sweep (theta 0.99, cached kind only). ---
    let caps = [4usize, 16, 64, 1024];
    let cap_rows = par_map(caps.to_vec(), |capacity| {
        let r = cache_point(
            CacheSys::Durable(DurableKind::WFlush, true),
            0.99,
            capacity,
            0.95,
            scale,
            &format!("cap{capacity}"),
        );
        (capacity, r)
    });
    let mut t_cap = Table::new(
        "fig_cache_capacity",
        "Cached WFlush-RPC GETs vs client cache capacity (theta 0.99, 95% reads)",
        &["capacity", "get_p50_us", "get_p99_us", "kops"],
    );
    for (capacity, r) in &cap_rows {
        t_cap.row(vec![
            capacity.to_string(),
            us(r.get.p50_us()),
            us(r.get.p99_us()),
            kops(r.kops),
        ]);
    }

    // --- Write mix: the lease bump must cost ~nothing. ---
    let writes = par_map(
        vec![
            CacheSys::Durable(DurableKind::WFlush, false),
            CacheSys::Durable(DurableKind::WFlush, true),
        ],
        |sys| {
            let r = cache_point(sys, 0.99, 1024, 0.0, scale, &format!("wr_{}", sys.name()));
            (sys, r)
        },
    );
    let mut t_wr = Table::new(
        "fig_cache_writes",
        "Pure-write mix (100% puts, theta 0.99): lease bump overhead",
        &["system", "put_p50_us", "put_p99_us", "kops"],
    );
    for (sys, r) in &writes {
        t_wr.row(vec![
            sys.name().to_string(),
            us(r.put.p50_us()),
            us(r.put.p99_us()),
            kops(r.kops),
        ]);
    }

    // Acceptance bounds: the crossover at high skew and the write-path
    // noise bound.
    let &(theta, rpc_p50, cached_p50) = crossover.last().expect("theta sweep ran");
    assert!(
        cached_p50 * 2.0 <= rpc_p50,
        "at theta {theta} cached GET p50 {cached_p50:.2} us must be \
         >= 2x better than the durable-RPC {rpc_p50:.2} us"
    );
    let (uncached, cached) = (&writes[0].1, &writes[1].1);
    let delta = (cached.put.p50_us() - uncached.put.p50_us()).abs();
    assert!(
        delta <= uncached.put.p50_us() * 0.05,
        "pure-write p50 moved {delta:.3} us (uncached {:.2}, cached {:.2}) \
         — the lease bump must be within noise",
        uncached.put.p50_us(),
        cached.put.p50_us()
    );

    vec![t_skew, t_cap, t_wr]
}
