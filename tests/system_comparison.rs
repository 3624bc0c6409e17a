//! The paper's headline comparative claims, asserted as integration
//! tests over the full stack. Absolute numbers are simulation-specific;
//! these check the *shapes* the paper reports.

use prdma_suite::baselines::{build_system, SystemKind, SystemOpts};
use prdma_suite::core::{Request, RpcClient, ServerProfile};
use prdma_suite::node::{Cluster, ClusterConfig};
use prdma_suite::rnic::Payload;
use prdma_suite::simnet::Sim;
use prdma_suite::workloads::micro::{run_micro, run_micro_fleet, MicroConfig, RunResult};

fn micro(
    kind: SystemKind,
    profile: ServerProfile,
    size: u64,
    ops: u64,
    read_ratio: f64,
) -> RunResult {
    let mut sim = Sim::new(606);
    let cluster = Cluster::new(sim.handle(), ClusterConfig::with_nodes(2));
    let opts = SystemOpts::for_object_size(size, profile);
    let client = build_system(&cluster, kind, 1, 0, 0, &opts);
    let cfg = MicroConfig {
        objects: 2000,
        ops,
        object_size: size,
        read_ratio,
        ..Default::default()
    };
    let h = sim.handle();
    sim.block_on(async move { run_micro(client.as_ref(), &h, &cfg).await })
}

/// Fig. 8(a): under heavy load our RPCs beat every baseline of their
/// family on throughput, by a substantial factor.
#[test]
fn heavy_load_throughput_improvement() {
    let ops = 400;
    let wflush = micro(SystemKind::WFlush, ServerProfile::heavy(), 1024, ops, 0.5);
    for base in [SystemKind::Farm, SystemKind::L5, SystemKind::Octopus] {
        let b = micro(base, ServerProfile::heavy(), 1024, ops, 0.5);
        let gain = wflush.kops / b.kops;
        assert!(
            gain > 1.3,
            "WFlush vs {base:?}: gain {gain:.2} below the paper's band"
        );
    }
    let sflush = micro(SystemKind::SFlush, ServerProfile::heavy(), 1024, ops, 0.5);
    let darpc = micro(SystemKind::Darpc, ServerProfile::heavy(), 1024, ops, 0.5);
    let gain = sflush.kops / darpc.kops;
    assert!(gain > 1.3, "SFlush vs DaRPC: gain {gain:.2}");
}

/// Fig. 9: our RPCs cut tail latency relative to their family. The gap
/// comes from the write path (persistence decoupled from copy+process),
/// so measure on a write-heavy mix at the paper's 64 KB default.
#[test]
fn tail_latency_reduction() {
    let ops = 400;
    let ours = micro(SystemKind::WRFlush, ServerProfile::light(), 65536, ops, 0.1);
    let farm = micro(SystemKind::Farm, ServerProfile::light(), 65536, ops, 0.1);
    assert!(
        (ours.latency.p99_ns as f64) < farm.latency.p99_ns as f64 * 0.9,
        "W-RFlush p99 {} not well under FaRM p99 {}",
        ours.latency.p99_ns,
        farm.latency.p99_ns
    );
}

/// Fig. 13 lesson: send-based DaRPC is the most sensitive to object size
/// (its staging memcpys and recv dispatch scale with the payload), in
/// absolute microseconds added per size step.
#[test]
fn darpc_most_size_sensitive() {
    let added_us = |kind| {
        let small = micro(kind, ServerProfile::light(), 64, 300, 0.5);
        let large = micro(kind, ServerProfile::light(), 16384, 300, 0.5);
        (large.latency.mean_ns - small.latency.mean_ns) / 1e3
    };
    let darpc = added_us(SystemKind::Darpc);
    let farm = added_us(SystemKind::Farm);
    assert!(
        darpc > farm,
        "DaRPC adds {darpc:.2}us (64B->16KB), FaRM {farm:.2}us — expected DaRPC larger"
    );
}

/// Fig. 18: for read-intensive mixes the systems converge; for
/// write-intensive mixes ours win clearly.
#[test]
fn write_intensive_gains_read_intensive_parity() {
    let ours_w = micro(SystemKind::WFlush, ServerProfile::light(), 65536, 300, 0.05);
    let farm_w = micro(SystemKind::Farm, ServerProfile::light(), 65536, 300, 0.05);
    let write_gain = farm_w.latency.mean_ns / ours_w.latency.mean_ns;

    let ours_r = micro(SystemKind::WFlush, ServerProfile::light(), 65536, 300, 0.95);
    let farm_r = micro(SystemKind::Farm, ServerProfile::light(), 65536, 300, 0.95);
    let read_gain = farm_r.latency.mean_ns / ours_r.latency.mean_ns;

    assert!(
        write_gain > read_gain,
        "write-mix gain {write_gain:.2} must exceed read-mix gain {read_gain:.2}"
    );
    assert!(write_gain > 1.1, "write-mix gain {write_gain:.2} too small");
    assert!(
        read_gain < 1.3,
        "read-intensive mixes should be near parity, got {read_gain:.2}"
    );
}

/// Fig. 17: our durable RPCs scale with concurrent senders better than
/// two-sided baselines (less remote CPU on the persistence path).
#[test]
fn concurrency_scaling_stability() {
    let latency_at = |kind, senders: usize| {
        let mut sim = Sim::new(707);
        let cluster = Cluster::new(sim.handle(), ClusterConfig::with_nodes(senders + 1));
        let opts = SystemOpts::for_object_size(1024, ServerProfile::light());
        let clients: Vec<Box<dyn RpcClient>> = (1..=senders)
            .map(|i| build_system(&cluster, kind, i, 0, i - 1, &opts))
            .collect();
        let cfg = MicroConfig {
            objects: 2000,
            ops: 100,
            object_size: 1024,
            ..Default::default()
        };
        let h = sim.handle();
        let r = sim.block_on(async move { run_micro_fleet(clients, &h, &cfg).await });
        r.latency.mean_ns
    };
    // Growth no worse than DaRPC's, and strictly lower absolute latency
    // at high concurrency (the paper's Fig. 17 ordering).
    let ours_lo = latency_at(SystemKind::WFlush, 2);
    let ours_hi = latency_at(SystemKind::WFlush, 12);
    let darpc_lo = latency_at(SystemKind::Darpc, 2);
    let darpc_hi = latency_at(SystemKind::Darpc, 12);
    assert!(
        ours_hi < darpc_hi,
        "at 12 senders ours {ours_hi:.0}ns must undercut DaRPC {darpc_hi:.0}ns"
    );
    let ours_growth = ours_hi / ours_lo;
    let darpc_growth = darpc_hi / darpc_lo;
    assert!(
        ours_growth < darpc_growth * 1.25,
        "ours grows {ours_growth:.2}x vs DaRPC {darpc_growth:.2}x with 6x senders"
    );
}

/// Fig. 19: batching helps the write-based durable RPCs substantially.
#[test]
fn batching_speeds_up_wflush() {
    let run = |k: usize| {
        let mut sim = Sim::new(808);
        let cluster = Cluster::new(sim.handle(), ClusterConfig::with_nodes(2));
        let opts = SystemOpts::for_object_size(1024, ServerProfile::light());
        let client = build_system(&cluster, SystemKind::WFlush, 1, 0, 0, &opts);
        let h = sim.handle();
        sim.block_on(async move {
            let t0 = h.now();
            let mut i = 0u64;
            while i < 240 {
                let batch: Vec<Request> = (0..k as u64)
                    .map(|j| Request::Put {
                        obj: (i + j) % 500,
                        data: Payload::synthetic(1024, i + j),
                    })
                    .collect();
                client.call_batch(batch).await.unwrap();
                i += k as u64;
            }
            (h.now() - t0).as_nanos()
        })
    };
    let t1 = run(1);
    let t8 = run(8);
    assert!(
        (t8 as f64) < t1 as f64 * 0.6,
        "batch=8 ({t8}) should be well under batch=1 ({t1})"
    );
}

/// FaSST serves small objects but hard-fails beyond its UD MTU, exactly
/// as the paper's evaluation is restricted.
#[test]
fn fasst_mtu_restriction() {
    let small = micro(SystemKind::Fasst, ServerProfile::light(), 1024, 100, 0.5);
    assert_eq!(small.ops, 100);
    let large = micro(SystemKind::Fasst, ServerProfile::light(), 65536, 50, 0.5);
    assert_eq!(large.ops, 0);
    assert_eq!(large.unsupported, 50);
}

/// Every evaluated system returns correct data lengths for gets.
#[test]
fn get_lengths_correct_across_systems() {
    for kind in SystemKind::PAPER_EVAL {
        let mut sim = Sim::new(909);
        let cluster = Cluster::new(sim.handle(), ClusterConfig::with_nodes(2));
        let opts = SystemOpts::for_object_size(2048, ServerProfile::light());
        let client = build_system(&cluster, kind, 1, 0, 0, &opts);
        let got = sim.block_on(async move {
            client
                .call(Request::Put {
                    obj: 3,
                    data: Payload::synthetic(2048, 3),
                })
                .await
                .unwrap();
            client
                .call(Request::Get { obj: 3, len: 2048 })
                .await
                .unwrap()
        });
        assert_eq!(
            got.payload.map(|p| p.len()),
            Some(2048),
            "{kind:?} returned wrong length"
        );
    }
}
