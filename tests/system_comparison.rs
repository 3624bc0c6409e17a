//! Cross-system checks over the full stack. The paper's comparative
//! claims (Figs. 8, 9, 13, 17, 18, 19) assert inside their figures
//! (`prdma_bench::exp::micro_figs`), on each sweep's own results; each
//! test here runs one of those figures at smoke scale under the claim's
//! name, so a broken claim fails by name. `prdma_bench`'s
//! `every_figure_holds_its_claims_at_smoke_scale` runs the whole registry.

use prdma_bench::exp::{fig08, fig09, fig13, fig17, fig18, fig19};
use prdma_bench::{micro_run, ExpEnv, Scale};
use prdma_suite::baselines::{build_system, SystemKind, SystemOpts};
use prdma_suite::core::{Request, ServerProfile};
use prdma_suite::node::{Cluster, ClusterConfig};
use prdma_suite::rnic::Payload;
use prdma_suite::simnet::Sim;
use prdma_suite::workloads::micro::MicroConfig;

/// Fig. 8(a): under heavy load WFlush beats FaRM, L5 and Octopus, and
/// SFlush beats DaRPC, on 1 KB throughput by more than 1.3x.
#[test]
fn heavy_load_throughput_improvement() {
    assert!(!fig08(Scale::smoke()).is_empty());
}

/// Fig. 9: at 64 KB, W-RFlush's p99 is under 0.9x FaRM's.
#[test]
fn tail_latency_reduction() {
    assert!(!fig09(Scale::smoke()).is_empty());
}

/// Fig. 13: DaRPC adds more microseconds from 64 B to 16 KB than FaRM.
#[test]
fn darpc_most_size_sensitive() {
    assert!(!fig13(Scale::smoke()).is_empty());
}

/// Fig. 17: WFlush stays under DaRPC at the most senders, and its latency
/// grows less than 1.25x as much as DaRPC's from the fewest senders.
#[test]
fn concurrency_scaling_stability() {
    assert!(!fig17(Scale::smoke()).is_empty());
}

/// Fig. 18: WFlush's gain over FaRM exceeds 1.1 on the write-intensive
/// mix, stays under 1.3 on the read-intensive one, and is larger on the
/// former.
#[test]
fn write_intensive_gains_read_intensive_parity() {
    assert!(!fig18(Scale::smoke()).is_empty());
}

/// Fig. 19: WFlush at batch 8 takes under 0.6x the time of batch 1.
#[test]
fn batching_speeds_up_wflush() {
    assert!(!fig19(Scale::smoke()).is_empty());
}

/// FaSST serves small objects but hard-fails beyond its UD MTU, exactly
/// as the paper's evaluation is restricted.
#[test]
fn fasst_mtu_restriction() {
    let run = |size, ops| {
        let cfg = MicroConfig {
            objects: 2000,
            ops,
            object_size: size,
            ..Default::default()
        };
        let env = ExpEnv::sized(size, ServerProfile::light());
        micro_run(SystemKind::Fasst, &env, cfg).run
    };
    let small = run(1024, 100);
    assert_eq!(small.ops, 100);
    let large = run(65536, 50);
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
