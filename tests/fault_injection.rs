//! End-to-end fault injection on the 1:1 durable connection:
//! cross-validate the in-sim Fig. 12 sweep (real injected crashes on
//! the full transport) against the analytic `run_faulty` model, check
//! that seeded fault schedules are byte-for-byte deterministic, and
//! keep the recv-ring and `SramLoss` regressions. What a crash must
//! preserve is checked at every crash point by the sweep in
//! `tests/crash_sweep.rs`.

use std::rc::Rc;

use prdma_suite::core::{
    build_durable, DurableConfig, DurableKind, Request, RetryPolicy, RpcClient, ServerProfile,
};
use prdma_suite::node::{Cluster, ClusterConfig};
use prdma_suite::rnic::Payload;
use prdma_suite::simnet::fault::{FaultKind, FaultPlan};
use prdma_suite::simnet::{journal, Sim, SimDuration, SimTime};
use prdma_suite::sweep;

const OBJ_SLOT: u64 = 1024;
const VAL: usize = 256;

fn durable_cluster(
    sim: &Sim,
    kind: DurableKind,
) -> (
    Cluster,
    prdma_suite::core::DurableClient,
    Rc<prdma_suite::core::DurableServer>,
) {
    let mut ccfg = ClusterConfig::with_nodes(2);
    ccfg.journal = true;
    let cluster = Cluster::new(sim.handle(), ccfg);
    let cfg = DurableConfig {
        // 100us server processing: the crash reliably lands while
        // entries are appended (and flush-ACKed) but not yet processed,
        // so recovery must replay a non-empty suffix.
        profile: ServerProfile::heavy(),
        slot_payload: OBJ_SLOT,
        object_slot: OBJ_SLOT,
        retry: sweep::RETRY,
        ..DurableConfig::for_kind(kind)
    };
    let (client, server) = build_durable(&cluster, 1, 0, 0, cfg);
    server.start();
    (cluster, client, Rc::new(server))
}

/// The in-sim Fig. 12 measurement and the analytic Monte-Carlo model
/// must agree on the durable/traditional ratio within a stated
/// tolerance. Read mix has no log-absorption edge effects, so it gets
/// the tight bound; the write mix's absorption is an asymptotic
/// quantity, so a short run earns a looser one.
#[test]
fn in_sim_fig12_agrees_with_analytic_model() {
    let costs = prdma_bench::exp::measure_clean(150, 77);
    for (w, tol) in [(0.0, 0.20), (1.0, 0.35)] {
        let c = prdma_bench::exp::insim_cell(&costs, 0.99, w, 600, 77);
        assert_eq!(c.durable_failed, 0, "w={w}: durable ops lost");
        assert_eq!(c.traditional_failed, 0, "w={w}: traditional ops lost");
        assert!(
            c.durable_crashes > 0 && c.traditional_crashes > 0,
            "w={w}: no crashes applied ({}/{}) — the sweep measured nothing",
            c.durable_crashes,
            c.traditional_crashes
        );
        let delta = (c.in_sim_norm - c.analytic_norm).abs();
        assert!(
            delta <= tol,
            "w={w}: in-sim {:.3} vs analytic {:.3}, |delta| {delta:.3} > {tol}",
            c.in_sim_norm,
            c.analytic_norm
        );
    }
}

/// Same seed + same fault plan => byte-identical journal JSONL.
#[test]
fn seeded_fault_runs_are_byte_deterministic() {
    fn faulty_journal(seed: u64) -> String {
        let mut sim = Sim::new(seed);
        let (cluster, client, server) = durable_cluster(&sim, DurableKind::WFlush);
        let plan = FaultPlan::new()
            .at(
                SimTime::from_nanos(20_000),
                0,
                FaultKind::ServiceCrash {
                    down_for: SimDuration::from_micros(300),
                },
            )
            .at(
                SimTime::from_nanos(400_000),
                0,
                FaultKind::LossBurst {
                    rate: 0.3,
                    duration: SimDuration::from_micros(200),
                },
            )
            .at(
                SimTime::from_nanos(700_000),
                0,
                FaultKind::NodeCrash {
                    down_for: SimDuration::from_micros(400),
                },
            );
        let inj = cluster.inject_faults(plan);
        server.wire_recovery(&inj);
        let h = sim.handle();
        sim.block_on(async move {
            for i in 0..20u64 {
                let data = Payload::from_bytes(vec![i as u8; VAL]);
                client
                    .call(Request::Put { obj: i % 8, data })
                    .await
                    .unwrap_or_else(|e| panic!("put {i}: {e}"));
                h.sleep(SimDuration::from_micros(50)).await;
            }
            h.sleep(SimDuration::from_millis(2)).await;
        });
        cluster.audit_journal().assert_ok();
        journal::to_jsonl(&cluster.journal_records())
    }

    let a = faulty_journal(41);
    let b = faulty_journal(41);
    assert!(!a.is_empty());
    assert_eq!(a, b, "same seed + same plan must reproduce byte-for-byte");
    let c = faulty_journal(42);
    assert_ne!(a, c, "different seed should perturb the schedule");
}

/// Regression: a send in flight at the crash instant consumes a recv
/// WQE that can never complete (the NIC that would have written its CQE
/// lost power). Before the recovery-time recv-ring re-arm, the
/// pre-posted ring stayed offset by one forever after the restart —
/// every retried entry DMAed into the wrong log slot, was dropped as
/// invalid, and the connection wedged with endless timeouts. A tight
/// closed loop of large puts reliably straddles the crash for the
/// send-based kinds; every op must still complete, and the auditor must
/// sign off on the replayed suffix.
#[test]
fn crash_straddling_send_does_not_wedge_the_recv_ring() {
    for kind in [DurableKind::SFlush, DurableKind::SRFlush] {
        let mut sim = Sim::new(2021 ^ kind as u64);
        let mut ccfg = ClusterConfig::with_nodes(2);
        ccfg.journal = true;
        let cluster = Cluster::new(sim.handle(), ccfg);
        let cfg = DurableConfig {
            slot_payload: 4096,
            object_slot: 4096,
            retry: RetryPolicy {
                request_timeout: SimDuration::from_micros(200),
                max_retries: 300,
                backoff: SimDuration::from_micros(100),
                backoff_cap: SimDuration::from_micros(100),
                jitter_pct: 0,
            },
            ..DurableConfig::for_kind(kind)
        };
        let plan = FaultPlan::new().at(
            SimTime::from_nanos(50_000),
            0,
            FaultKind::NodeCrash {
                down_for: SimDuration::from_millis(3),
            },
        );
        let inj = cluster.inject_faults(plan);
        let (client, server) = build_durable(&cluster, 1, 0, 0, cfg);
        server.start();
        Rc::new(server).wire_recovery(&inj);
        let h = sim.handle();
        sim.block_on(async move {
            // No pacing: some op's delivery is mid-NIC when the crash
            // lands, and the ops after it must ride out the restart.
            for i in 0..12u64 {
                client
                    .call(Request::Put {
                        obj: i % 10,
                        data: Payload::synthetic(4096, i),
                    })
                    .await
                    .unwrap_or_else(|e| panic!("{kind:?} put {i} wedged after the crash: {e}"));
            }
            h.sleep(SimDuration::from_millis(2)).await;
        });
        assert_eq!(inj.stats().node_crashes, 1, "{kind:?}");
        cluster.audit_journal().assert_ok();
    }
}

/// NIC staging-SRAM loss (`SramLoss`: in-flight DMA and staged lines
/// dropped, NIC stays up) at 236 instants — every 250 ns from 1 µs to
/// 60 µs — of a 10-put stream, for each durable kind, with recovery
/// wired through `wire_recovery` (which replays nothing for this fault:
/// nothing at rest is lost).
///
/// *Safety* holds at every instant of every kind: each put the client
/// saw ACKed is in persistent PM and the auditor signs off. *Liveness*
/// holds at every instant of every kind too: a loss inside an entry DMA
/// fails only the next flush of the connection that posted it, and the
/// client's retry re-sends the put (DESIGN.md §10). The name dates from
/// when only the receiver-initiated kinds were live.
#[test]
fn sram_loss_sweep_is_safe_everywhere_and_live_under_receiver_acks() {
    for kind in DurableKind::ALL {
        let mut wedged = Vec::new();
        for at_ns in (1_000..60_000u64).step_by(250) {
            let mut sim = Sim::new(0x52A1 ^ kind as u64 ^ at_ns);
            let (cluster, client, server) = durable_cluster(&sim, kind);
            let plan = FaultPlan::new().at(SimTime::from_nanos(at_ns), 0, FaultKind::SramLoss);
            let inj = cluster.inject_faults(plan);
            server.wire_recovery(&inj);
            let h = sim.handle();
            let acked = sim.block_on(async move {
                let mut acked = Vec::new();
                for i in 0..10u64 {
                    let data = Payload::from_bytes(vec![0xA0 + i as u8; VAL]);
                    if client.call(Request::Put { obj: i, data }).await.is_ok() {
                        acked.push(i);
                    }
                }
                // Drain the decoupled processing.
                h.sleep(SimDuration::from_millis(5)).await;
                acked
            });
            assert_eq!(inj.stats().sram_losses, 1, "{kind:?} @{at_ns}");
            let pm = &cluster.node(0).pm;
            let region = cluster.node(0).alloc.lookup("objects").unwrap();
            for &i in &acked {
                let got = pm.read_persistent_view(region.offset + i * OBJ_SLOT, VAL as u64);
                assert_eq!(
                    got,
                    vec![0xA0 + i as u8; VAL],
                    "{kind:?} @{at_ns}: ACKed put {i} is not in persistent PM"
                );
            }
            cluster.audit_journal().assert_ok();
            if acked.len() < 10 {
                wedged.push(at_ns);
            }
        }
        println!(
            "{kind:?}: wedged at {} of 236 SramLoss instants: {wedged:?}",
            wedged.len()
        );
        assert!(
            wedged.is_empty(),
            "{kind:?}: puts failed after an SramLoss at {wedged:?} ns"
        );
    }
}
