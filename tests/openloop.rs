//! Open-loop load generation (ISSUE PR 8 tentpole): the arrival
//! schedule and the full journaled run must be byte-deterministic per
//! seed, the logical-client pool must scale to 10⁶ ids over a handful
//! of endpoints, and the latency-vs-load curve must behave like a
//! queueing system — flat below the knee, exploding above it.

use prdma_bench::exp::openloop::{openloop_curve, KNEE_TOLERANCE, RATES_KOPS};
use prdma_bench::Scale;
use prdma_suite::core::{
    build_fleet, DurableConfig, DurableKind, FleetSpec, RpcClient, ServerProfile, ShardMap,
};
use prdma_suite::node::{Cluster, ClusterConfig};
use prdma_suite::simnet::{journal, Sim, SimDuration};
use prdma_suite::workloads::openloop::{
    detect_knee, gen_schedule, run_openloop, OpenLoopConfig, RateShape, SkewShift,
};

fn pool_cfg(clients: u64, rate: f64) -> OpenLoopConfig {
    OpenLoopConfig {
        clients,
        rate_ops_per_sec: rate,
        duration: SimDuration::from_millis(3),
        objects: 1_000,
        object_size: 512,
        ..Default::default()
    }
}

/// Same seed ⇒ byte-identical arrival stream; different seed ⇒ not.
/// (The schedule is pure data, so equality here is exact, not
/// statistical.)
#[test]
fn schedule_bytes_are_a_function_of_the_seed() {
    for shape in [
        RateShape::Constant,
        RateShape::Diurnal { trough: 0.3 },
        RateShape::Bursty {
            factor: 6.0,
            period_frac: 0.25,
            duty_pct: 10,
        },
    ] {
        let cfg = OpenLoopConfig {
            shape,
            skew_shift: Some(SkewShift {
                at_frac: 0.6,
                theta: 0.4,
            }),
            ..pool_cfg(100_000, 300_000.0)
        };
        assert_eq!(gen_schedule(&cfg), gen_schedule(&cfg), "{shape:?}");
        let reseeded = OpenLoopConfig {
            seed: cfg.seed ^ 1,
            ..cfg
        };
        assert_ne!(gen_schedule(&cfg), gen_schedule(&reseeded), "{shape:?}");
    }
}

/// A 10⁶-logical-client pool over 4 endpoints: ids span the whole pool
/// (not just the endpoint count), and the run completes every arrival.
#[test]
fn million_client_pool_multiplexes_over_four_endpoints() {
    let cfg = pool_cfg(1_000_000, 100_000.0);
    let schedule = gen_schedule(&cfg);
    let max_id = schedule.iter().map(|a| a.client).max().unwrap();
    let distinct: std::collections::HashSet<u64> = schedule.iter().map(|a| a.client).collect();
    assert!(max_id > 500_000, "ids stop at {max_id}");
    assert!(
        distinct.len() * 10 > schedule.len() * 9,
        "at this arrival count almost every arrival is a distinct client \
         ({} distinct / {})",
        distinct.len(),
        schedule.len()
    );

    let mut sim = Sim::new(3);
    let ccfg = ClusterConfig::with_servers(2, 4);
    let cluster = Cluster::new(sim.handle(), ccfg);
    let map = ShardMap::new(2);
    let dcfg = DurableConfig {
        kind: DurableKind::WFlush,
        profile: ServerProfile::light(),
        slot_payload: 512,
        object_slot: 512,
        store_capacity: map.local_span(cfg.objects) * 512,
        ..Default::default()
    };
    let spec = FleetSpec {
        replicas: 2,
        cache: None,
    };
    let sys = build_fleet(&cluster, map, &[2, 3, 4, 5], &dcfg, spec);
    let endpoints: Vec<Box<dyn RpcClient>> = sys
        .clients
        .into_iter()
        .map(|c| Box::new(c) as Box<dyn RpcClient>)
        .collect();
    let h = sim.handle();
    let r = sim.block_on(async move { run_openloop(endpoints, &h, &cfg).await });
    assert_eq!(r.ops, r.arrivals, "every arrival completes");
    assert_eq!(r.failed + r.unsupported, 0);
}

/// Same seed + same schedule ⇒ byte-identical journal for the whole
/// open-loop run against the replicated sharded fleet (the generator
/// draws from its own stream, never the simulator's).
#[test]
fn openloop_journal_is_byte_deterministic_per_seed() {
    fn journaled_run(seed: u64) -> String {
        let mut sim = Sim::new(seed);
        let mut ccfg = ClusterConfig::with_servers(2, 2);
        ccfg.journal = true;
        let cluster = Cluster::new(sim.handle(), ccfg);
        let map = ShardMap::new(2);
        let dcfg = DurableConfig {
            kind: DurableKind::WFlush,
            profile: ServerProfile::light(),
            slot_payload: 512,
            object_slot: 512,
            store_capacity: map.local_span(1_000) * 512,
            ..Default::default()
        };
        let spec = FleetSpec {
            replicas: 2,
            cache: None,
        };
        let sys = build_fleet(&cluster, map, &[2, 3], &dcfg, spec);
        let endpoints: Vec<Box<dyn RpcClient>> = sys
            .clients
            .into_iter()
            .map(|c| Box::new(c) as Box<dyn RpcClient>)
            .collect();
        let cfg = OpenLoopConfig {
            shape: RateShape::Bursty {
                factor: 4.0,
                period_frac: 0.5,
                duty_pct: 25,
            },
            seed,
            ..pool_cfg(50_000, 80_000.0)
        };
        let h = sim.handle();
        sim.block_on(async move { run_openloop(endpoints, &h, &cfg).await });
        sim.run();
        cluster.audit_journal().assert_ok();
        journal::to_jsonl(&cluster.journal_records())
    }

    let a = journaled_run(20211114);
    let b = journaled_run(20211114);
    assert!(!a.is_empty());
    assert_eq!(a, b, "same seed must reproduce the journal byte-for-byte");
    let c = journaled_run(20211115);
    assert_ne!(a, c, "a different seed must perturb the run");
}

/// The knee is meaningful: on the full sweep curve, every point at or
/// below the knee has lower p99 than every point above it, and the
/// curve saturates (achieved throughput stops tracking offered load).
#[test]
fn knee_separates_flat_from_saturated() {
    let curve = openloop_curve(DurableKind::WFlush, Scale::smoke());
    let pairs: Vec<(f64, f64)> = RATES_KOPS
        .iter()
        .zip(&curve)
        .map(|(&rate, p)| (rate, p.latency.p99_us()))
        .collect();
    for (p, r) in curve.iter().zip(RATES_KOPS) {
        assert!(p.ops > 0, "no ops completed at {r} KOPS");
        assert_eq!(p.offered_kops, r);
    }
    let knee = detect_knee(&pairs, KNEE_TOLERANCE).expect("knee detected");
    assert!(
        knee < *RATES_KOPS.last().unwrap(),
        "knee {knee} must sit inside the sweep"
    );
    let below_max = pairs
        .iter()
        .filter(|&&(r, _)| r <= knee)
        .map(|&(_, p)| p)
        .fold(0.0f64, f64::max);
    let above_min = pairs
        .iter()
        .filter(|&&(r, _)| r > knee)
        .map(|&(_, p)| p)
        .fold(f64::INFINITY, f64::min);
    assert!(
        above_min > below_max,
        "p99 above the knee ({above_min}) dips under the flat region ({below_max})"
    );
    // Saturation: at the top of the sweep the fleet no longer keeps up
    // with the offered rate.
    let top = curve.last().unwrap();
    assert!(
        top.kops < top.offered_kops * 0.9,
        "top point achieved {} of {} offered KOPS — sweep never saturated",
        top.kops,
        top.offered_kops
    );
}
