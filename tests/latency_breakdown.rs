//! Regression tests pinning the paper's Fig. 20 shape.
//!
//! Fig. 20 decomposes each RPC's latency into software (sender + receiver
//! CPU) and hardware (wire, NIC DMA, PM media) phases and makes two
//! comparative claims this suite locks in:
//!
//! 1. The durable RPCs keep the critical-path software share small (≤ 7%):
//!    durability comes from one-sided hardware persistence, not from
//!    receiver software on the critical path.
//! 2. DaRPC (two-sided, thread-dispatched) pays ≥ 1.5× FaRM's hardware
//!    round trip: recv-WQE fetches (a PCIe read round trip) and CQE
//!    delivery DMA sit on the two-sided hardware path, on top of its much
//!    larger software cost.

use prdma::ServerProfile;
use prdma_baselines::{build_system, SystemKind, SystemOpts};
use prdma_bench::runner::{ycsb_run, EnvResult, ExpEnv, SEED};
use prdma_node::{Cluster, ClusterConfig};
use prdma_simnet::journal::{EventKind, Record};
use prdma_simnet::trace::{Phase, TraceReport};
use prdma_simnet::Sim;
use prdma_workloads::ycsb::{run_ycsb, YcsbConfig, YcsbWorkload};

fn ycsb_a_cfg(value_size: u64) -> YcsbConfig {
    YcsbConfig {
        records: 256,
        ops: 2_000,
        value_size,
        workload: YcsbWorkload::A,
        ..Default::default()
    }
}

/// The YCSB-A micro setup Fig. 20 is measured on: 2 nodes, light server,
/// a small record set, values of `value_size` bytes.
fn ycsb_a(kind: SystemKind, value_size: u64) -> EnvResult {
    let env = ExpEnv::sized(value_size, ServerProfile::light());
    ycsb_run(kind, &env, ycsb_a_cfg(value_size))
}

/// [`ycsb_a`] rebuilt by hand with the journal on: its phase totals and
/// the merged journal. Journaling costs no virtual time, so the totals
/// are the unjournaled run's.
fn ycsb_a_journaled(kind: SystemKind, value_size: u64) -> (TraceReport, Vec<Record>) {
    let env = ExpEnv::sized(value_size, ServerProfile::light());
    let mut sim = Sim::new(SEED);
    let mut ccfg = ClusterConfig::with_nodes(2);
    ccfg.journal = true;
    let cluster = Cluster::new(sim.handle(), ccfg);
    let opts = SystemOpts {
        profile: env.profile,
        flush_impl: env.flush_impl,
        object_slot: value_size.max(64),
        ..Default::default()
    };
    let client = build_system(&cluster, kind, 1, 0, 0, &opts);
    let h = sim.handle();
    let cfg = ycsb_a_cfg(value_size);
    sim.block_on(async move { run_ycsb(client.as_ref(), &h, &cfg).await });
    (cluster.trace_report(), cluster.journal_records())
}

/// The RDMA-transmission segment of Fig. 20: wire time plus NIC/PCIe DMA
/// (WQE fetches, payload DMA, CQE delivery). CPU software and PM media
/// are drawn as their own segments.
fn hardware_rtt_us(r: &EnvResult) -> f64 {
    r.phase_us_per_op(Phase::Wire) + r.phase_us_per_op(Phase::NicDma)
}

#[test]
fn durable_rpc_software_share_stays_below_seven_percent() {
    for kind in [
        SystemKind::WFlush,
        SystemKind::SFlush,
        SystemKind::WRFlush,
        SystemKind::SRFlush,
    ] {
        // 4 KB values: the YCSB default object size.
        let r = ycsb_a(kind, 4096);
        let share = r.trace.software_share();
        assert!(
            share <= 0.07,
            "{kind:?}: software share {:.1}% exceeds Fig. 20's 7% bound",
            share * 100.0
        );
        // Sanity: the breakdown actually measured something.
        assert!(
            r.ops > 0 && hardware_rtt_us(&r) > 0.5,
            "{kind:?}: empty trace"
        );
    }
}

#[test]
fn darpc_hardware_rtt_is_at_least_1_5x_farm() {
    // 1 KB values: small messages, where the two-sided per-message
    // hardware overhead (WQE fetch + CQE DMA) dominates the payload time.
    let farm = ycsb_a(SystemKind::Farm, 1024);
    let darpc = ycsb_a(SystemKind::Darpc, 1024);
    let (f, d) = (hardware_rtt_us(&farm), hardware_rtt_us(&darpc));
    assert!(
        d >= 1.5 * f,
        "DaRPC hardware RTT {d:.2}us is not >= 1.5x FaRM's {f:.2}us"
    );
    // The extra RTT must come from the two-sided hardware path: recv-WQE
    // fetches and CQE delivery DMA that one-sided writes never pay.
    let count = |records: &[Record], kind| records.iter().filter(|r| r.kind == kind).count();
    let (darpc_trace, darpc_journal) = ycsb_a_journaled(SystemKind::Darpc, 1024);
    let (farm_trace, farm_journal) = ycsb_a_journaled(SystemKind::Farm, 1024);
    for (plain, journaled) in [(&darpc.trace, &darpc_trace), (&farm.trace, &farm_trace)] {
        for phase in Phase::ALL {
            assert_eq!(plain.total(phase), journaled.total(phase), "{phase:?}");
        }
    }
    assert!(count(&darpc_journal, EventKind::WqeFetch) > 0);
    assert!(count(&darpc_journal, EventKind::CqeWrite) > 0);
    assert_eq!(count(&farm_journal, EventKind::WqeFetch), 0);
}
