//! Per-system behavioural tests: each baseline's distinguishing protocol
//! feature must be visible in its timing/behaviour.

use prdma::{Request, ServerProfile};
use prdma_baselines::{build_system, SystemKind, SystemOpts};
use prdma_node::{Cluster, ClusterConfig};
use prdma_rnic::Payload;
use prdma_simnet::{Sim, SimDuration};

fn one_put_latency(kind: SystemKind, size: u64) -> SimDuration {
    let mut sim = Sim::new(31);
    let cluster = Cluster::new(sim.handle(), ClusterConfig::with_nodes(2));
    let opts = SystemOpts::for_object_size(size, ServerProfile::light());
    let client = build_system(&cluster, kind, 1, 0, 0, &opts);
    let h = sim.handle();
    sim.block_on(async move {
        // Warm one op (ScaleRPC's first op is a warm-up).
        client
            .call(Request::Put {
                obj: 0,
                data: Payload::synthetic(size, 0),
            })
            .await
            .unwrap();
        let t0 = h.now();
        client
            .call(Request::Put {
                obj: 1,
                data: Payload::synthetic(size, 1),
            })
            .await
            .unwrap();
        h.now() - t0
    })
}

/// L5 posts two writes (data + flag); its put must cost more than FaRM's
/// single write but far less than two full round trips.
#[test]
fn l5_pays_for_the_flag_write() {
    let farm = one_put_latency(SystemKind::Farm, 1024);
    let l5 = one_put_latency(SystemKind::L5, 1024);
    assert!(l5 > farm, "L5 {l5} must exceed FaRM {farm}");
    assert!(
        l5.as_nanos() < farm.as_nanos() * 2,
        "L5 {l5} should not double FaRM {farm}"
    );
}

/// LITE is Octopus plus kernel overhead on both sides.
#[test]
fn lite_slower_than_octopus_by_kernel_overhead() {
    let octopus = one_put_latency(SystemKind::Octopus, 1024);
    let lite = one_put_latency(SystemKind::Lite, 1024);
    let delta = lite.saturating_sub(octopus);
    // Two kernel traps of 1.2us each.
    assert!(
        (2_000..3_500).contains(&delta.as_nanos()),
        "LITE-Octopus delta {delta}"
    );
}

/// RFP's result-fetch polling makes its latency quantized by the poll
/// interval and strictly above FaRM's push-based reply.
#[test]
fn rfp_fetch_costs_more_than_push() {
    let farm = one_put_latency(SystemKind::Farm, 1024);
    let rfp = one_put_latency(SystemKind::Rfp, 1024);
    assert!(rfp > farm, "RFP {rfp} must exceed FaRM {farm}");
}

/// ScaleRPC's warm-up op (every 100th call) is costlier than its
/// process-phase ops.
#[test]
fn scalerpc_warmup_periodicity() {
    let mut sim = Sim::new(5);
    let cluster = Cluster::new(sim.handle(), ClusterConfig::with_nodes(2));
    let opts = SystemOpts::for_object_size(4096, ServerProfile::light());
    let client = build_system(&cluster, SystemKind::ScaleRpc, 1, 0, 0, &opts);
    let h = sim.handle();
    let lat: Vec<u64> = sim.block_on(async move {
        let mut lat = Vec::new();
        for i in 0..120u64 {
            let t0 = h.now();
            client
                .call(Request::Put {
                    obj: i,
                    data: Payload::synthetic(4096, i),
                })
                .await
                .unwrap();
            lat.push((h.now() - t0).as_nanos());
        }
        lat
    });
    // Ops 0 and 100 are warm-ups: costlier than their neighbours.
    assert!(lat[0] > lat[1], "eager warm-up: {} !> {}", lat[0], lat[1]);
    assert!(
        lat[100] > lat[99],
        "periodic warm-up: {} !> {}",
        lat[100],
        lat[99]
    );
    assert!(lat[100] > lat[101]);
}

/// Herd fragments large UD replies at the MTU; a 16 KB get takes more
/// reply messages (and so more time) than FaRM's single write-back.
#[test]
fn herd_fragments_large_replies() {
    let get_latency = |kind: SystemKind| {
        let mut sim = Sim::new(6);
        let cluster = Cluster::new(sim.handle(), ClusterConfig::with_nodes(2));
        let opts = SystemOpts::for_object_size(16384, ServerProfile::light());
        let client = build_system(&cluster, kind, 1, 0, 0, &opts);
        let h = sim.handle();
        sim.block_on(async move {
            client
                .call(Request::Put {
                    obj: 0,
                    data: Payload::synthetic(16384, 0),
                })
                .await
                .unwrap();
            let t0 = h.now();
            client
                .call(Request::Get { obj: 0, len: 16384 })
                .await
                .unwrap();
            h.now() - t0
        })
    };
    let farm = get_latency(SystemKind::Farm);
    let herd = get_latency(SystemKind::Herd);
    assert!(herd > farm, "Herd {herd} must exceed FaRM {farm} at 16KB");
}

/// Heavy-load baselines couple completion to processing: their put takes
/// at least the injected 100us; ours does not (sanity cross-check).
#[test]
fn baselines_couple_processing_to_completion() {
    for kind in [SystemKind::Farm, SystemKind::Darpc, SystemKind::Octopus] {
        let mut sim = Sim::new(8);
        let cluster = Cluster::new(sim.handle(), ClusterConfig::with_nodes(2));
        let opts = SystemOpts::for_object_size(1024, ServerProfile::heavy());
        let client = build_system(&cluster, kind, 1, 0, 0, &opts);
        let h = sim.handle();
        let t = sim.block_on(async move {
            let t0 = h.now();
            client
                .call(Request::Put {
                    obj: 0,
                    data: Payload::synthetic(1024, 0),
                })
                .await
                .unwrap();
            h.now() - t0
        });
        assert!(
            t.as_nanos() >= 100_000,
            "{kind:?} completed in {t}, below the injected processing"
        );
    }
}

/// DaRPC batching overlaps server work with later sends: total time for a
/// batch of 4 must undercut 4 sequential calls.
#[test]
fn darpc_batching_helps_but_less_than_ours() {
    let total = |kind: SystemKind, k: usize| {
        let mut sim = Sim::new(9);
        let cluster = Cluster::new(sim.handle(), ClusterConfig::with_nodes(2));
        let opts = SystemOpts::for_object_size(1024, ServerProfile::light());
        let client = build_system(&cluster, kind, 1, 0, 0, &opts);
        let h = sim.handle();
        sim.block_on(async move {
            let t0 = h.now();
            let mut i = 0u64;
            while i < 64 {
                let reqs = (0..k as u64)
                    .map(|j| Request::Put {
                        obj: i + j,
                        data: Payload::synthetic(1024, i + j),
                    })
                    .collect();
                client.call_batch(reqs).await.unwrap();
                i += k as u64;
            }
            (h.now() - t0).as_nanos() as f64
        })
    };
    let darpc_gain = total(SystemKind::Darpc, 1) / total(SystemKind::Darpc, 8);
    let wflush_gain = total(SystemKind::WFlush, 1) / total(SystemKind::WFlush, 8);
    assert!(darpc_gain > 1.05, "DaRPC batching gain {darpc_gain:.2}");
    assert!(
        wflush_gain > darpc_gain,
        "paper Fig 19: WFlush batching gain {wflush_gain:.2} must exceed DaRPC {darpc_gain:.2}"
    );
}

/// On a lossy fabric, reliable-connection systems and the retry-capable
/// unreliable ones all finish the workload; losses only cost time.
#[test]
fn lossy_fabric_is_survivable() {
    let forever = prdma_simnet::SimTime::from_nanos(u64::MAX / 2);
    for kind in [
        SystemKind::WFlush,
        SystemKind::Farm,
        SystemKind::Darpc,
        SystemKind::Fasst,
        SystemKind::Herd,
    ] {
        let mut sim = Sim::new(404);
        let cluster = Cluster::new(sim.handle(), ClusterConfig::with_nodes(2));
        for node in 0..2 {
            cluster.node(node).rnic().inject_loss(0.05, forever);
        }
        let opts = SystemOpts::for_object_size(1024, ServerProfile::light());
        let client = build_system(&cluster, kind, 1, 0, 0, &opts);
        let done = sim.block_on(async move {
            let mut ok = 0;
            for i in 0..60u64 {
                let req = if i % 2 == 0 {
                    Request::Put {
                        obj: i,
                        data: Payload::synthetic(1024, i),
                    }
                } else {
                    Request::Get {
                        obj: i - 1,
                        len: 1024,
                    }
                };
                if client.call(req).await.is_ok() {
                    ok += 1;
                }
            }
            ok
        });
        assert_eq!(done, 60, "{kind:?} lost operations on a lossy fabric");
    }
}

/// Losses slow a reliable-connection workload down but never corrupt it.
#[test]
fn rc_loss_costs_time_not_correctness() {
    let run = |loss: f64| {
        let mut sim = Sim::new(405);
        let cfg = prdma_node::ClusterConfig::with_nodes(2);
        let cluster = prdma_node::Cluster::new(sim.handle(), cfg);
        let forever = prdma_simnet::SimTime::from_nanos(u64::MAX / 2);
        for node in 0..2 {
            cluster.node(node).rnic().inject_loss(loss, forever);
        }
        let opts = SystemOpts::for_object_size(1024, ServerProfile::light());
        let client = build_system(&cluster, SystemKind::WFlush, 1, 0, 0, &opts);
        let pm = cluster.node(0).pm.clone();
        let h = sim.handle();
        let t = sim.block_on(async move {
            for i in 0..40u64 {
                client
                    .call(Request::Put {
                        obj: i,
                        data: prdma_rnic::Payload::from_bytes(vec![i as u8 + 1; 128]),
                    })
                    .await
                    .unwrap();
            }
            h.now()
        });
        sim.run();
        let region = cluster.node(0).alloc.lookup("objects").unwrap();
        for i in 0..40u64 {
            let got = pm.read_persistent_view(region.offset + i * 1024, 128);
            assert_eq!(
                got,
                vec![i as u8 + 1; 128],
                "object {i} corrupt at loss {loss}"
            );
        }
        t
    };
    let clean = run(0.0);
    let lossy = run(0.10);
    assert!(lossy > clean, "losses must cost time: {lossy} !> {clean}");
}
