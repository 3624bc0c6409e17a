//! Fig. 12 measured **in the simulator** (`fig12 --in-sim`).
//!
//! The analytic Fig. 12 (`macro_figs::fig12`) replays an op stream
//! against a closed-form failure model. This module instead *injects
//! real faults*: a seeded-stochastic [`FaultPlan`] crashes the server's
//! RPC service while the micro-benchmark runs on the full transport, the
//! durable server replays its redo-log suffix through the actual
//! recovery path, the traditional client re-sends through its actual
//! timeout path, and the normalized totals come out of the virtual
//! clock. Each cell also computes the analytic prediction with the same
//! geometry so the two models cross-validate (the agreement is a test,
//! `tests/fault_injection.rs`). This module measures what crashes cost;
//! what a crash must preserve is the crash-point sweep's job
//! (`src/sweep.rs` at the workspace root, run by `tests/crash_sweep.rs`),
//! which checks every ACKed put and committed transaction at every
//! record boundary.
//!
//! The paper's geometry (300 ms unikernel restart, 100 ms re-transfer,
//! 10⁹ ops) is scaled down 100x so a full-transport sweep finishes in
//! seconds of simulated time; both the injected and the analytic model
//! see the same scaled constants, so the normalized ratios remain
//! comparable.

use std::rc::Rc;

use prdma::{
    build_durable, build_replicated, DurableConfig, DurableKind, RetryPolicy, RpcClient,
    ServerProfile,
};
use prdma_baselines::{build_system, SystemKind, SystemOpts};
use prdma_node::{Cluster, ClusterConfig};
use prdma_simnet::fault::{FaultKind, FaultPlan};
use prdma_simnet::{Sim, SimDuration, SimTime};
use prdma_workloads::faults::{run_faulty, FaultConfig, MeasuredCosts, Scheme};
use prdma_workloads::micro::{run_micro, MicroConfig, RunResult};

use crate::report::Table;
use crate::runner::{export_and_audit, journal_enabled, par_map, Scale};

/// Service restart latency (the paper's 300 ms unikernel restart, /100).
const RESTART: SimDuration = SimDuration::from_millis(3);
/// RDMA re-transfer interval (the paper's 100 ms, /100).
const RETRANSFER: SimDuration = SimDuration::from_millis(1);
/// Object size for the sweep (the paper's Fig. 12 uses 4 KB values).
const OBJECT_SIZE: u64 = 4096;
/// Durable-client retry policy under faults: fire fast (healthy ops
/// finish in ~10 us) and keep retrying through any restart.
pub(crate) const FAULT_RETRY: RetryPolicy = RetryPolicy {
    request_timeout: SimDuration::from_micros(200),
    max_retries: 100_000,
    // Flat schedule (cap == backoff, no jitter): this sweep's journals
    // are pinned byte-identical per seed, so it opts out of the
    // exponential/jittered default rather than shift every retry.
    backoff: SimDuration::from_micros(100),
    backoff_cap: SimDuration::from_micros(100),
    jitter_pct: 0,
};

/// Run one scheme over the micro workload, optionally under a fault
/// plan. Returns the workload result, the number of crashes actually
/// applied, and the server PM media time per op (the durable scheme's
/// measured replay cost).
fn run_scheme(
    scheme: Scheme,
    ops: u64,
    write_ratio: f64,
    seed: u64,
    plan: Option<FaultPlan>,
    tag: &str,
) -> (RunResult, u64, f64) {
    let mut sim = Sim::new(seed);
    let mut ccfg = ClusterConfig::with_nodes(2);
    ccfg.rnic.retransfer_interval = RETRANSFER;
    ccfg.journal = journal_enabled();
    let cluster = Cluster::new(sim.handle(), ccfg);
    let pm = cluster.node(0).pm.clone();

    // The plan starts once the system is built; the durable server
    // replays its redo log at every restart, the traditional client has
    // nothing to replay and re-sends.
    let inject = |plan: Option<FaultPlan>| plan.map(|p| cluster.inject_faults(p));
    let (client, injector): (Box<dyn RpcClient>, _) = match scheme {
        Scheme::DurableRpc => {
            let cfg = DurableConfig {
                slot_payload: OBJECT_SIZE,
                object_slot: OBJECT_SIZE,
                retry: FAULT_RETRY,
                ..DurableConfig::for_kind(DurableKind::WFlush)
            };
            let (c, s) = build_durable(&cluster, 1, 0, 0, cfg);
            s.start();
            let injector = inject(plan);
            if let Some(inj) = &injector {
                Rc::new(s).wire_recovery(inj);
            }
            (Box::new(c), injector)
        }
        Scheme::Traditional => {
            let opts = SystemOpts::for_object_size(OBJECT_SIZE, ServerProfile::light());
            let client = build_system(&cluster, SystemKind::Farm, 1, 0, 0, &opts);
            (client, inject(plan))
        }
    };

    let mcfg = MicroConfig {
        objects: 500,
        ops,
        object_size: OBJECT_SIZE,
        read_ratio: 1.0 - write_ratio,
        seed: seed ^ 0x1357,
    };
    let h = sim.handle();
    let media0 = pm.media_busy_time();
    let run = sim.block_on(async move { run_micro(client.as_ref(), &h, &mcfg).await });
    let media_us_per_op = (pm.media_busy_time() - media0).as_micros_f64() / run.ops.max(1) as f64;
    let crashes = injector.map_or(0, |inj| {
        let s = inj.stats();
        s.node_crashes + s.service_crashes
    });
    export_and_audit(&cluster, tag);
    (run, crashes, media_us_per_op)
}

/// Per-op costs measured from clean (fault-free) runs of both schemes;
/// feeds the fault-plan geometry and the analytic cross-check.
pub struct CleanCosts {
    /// Durable (WFlush) mean read latency.
    pub d_read: SimDuration,
    /// Durable mean write latency (to flush-ACK).
    pub d_write: SimDuration,
    /// Durable server PM media time per written op (replay cost proxy).
    pub d_media_us: f64,
    /// Traditional (FaRM) mean read latency.
    pub t_read: SimDuration,
    /// Traditional mean write latency.
    pub t_write: SimDuration,
}

/// Measure [`CleanCosts`] with `ops` fault-free ops per (scheme, kind).
pub fn measure_clean(ops: u64, seed: u64) -> CleanCosts {
    let mean = |r: &RunResult| SimDuration::from_nanos(r.latency.mean_ns as u64);
    let (dr, _, _) = run_scheme(
        Scheme::DurableRpc,
        ops,
        0.0,
        seed,
        None,
        "insim_clean_d_read",
    );
    let (dw, _, dm) = run_scheme(
        Scheme::DurableRpc,
        ops,
        1.0,
        seed,
        None,
        "insim_clean_d_write",
    );
    let (tr, _, _) = run_scheme(
        Scheme::Traditional,
        ops,
        0.0,
        seed,
        None,
        "insim_clean_t_read",
    );
    let (tw, _, _) = run_scheme(
        Scheme::Traditional,
        ops,
        1.0,
        seed,
        None,
        "insim_clean_t_write",
    );
    CleanCosts {
        d_read: mean(&dr),
        d_write: mean(&dw),
        d_media_us: dm,
        t_read: mean(&tr),
        t_write: mean(&tw),
    }
}

/// One (availability, mix) cell: the injected measurement next to the
/// analytic prediction.
#[derive(Debug, Clone, Copy)]
pub struct InSimCell {
    /// Durable/traditional total-time ratio from the injected run.
    pub in_sim_norm: f64,
    /// Same ratio from the analytic model with identical geometry.
    pub analytic_norm: f64,
    /// Crashes applied during the durable run.
    pub durable_crashes: u64,
    /// Crashes applied during the traditional run.
    pub traditional_crashes: u64,
    /// Durable ops that failed even after retries (should be 0).
    pub durable_failed: u64,
    /// Traditional ops that failed even after retries (should be 0).
    pub traditional_failed: u64,
}

/// Crash plan for one scheme: exponential up-times sized so each *op*
/// observes the service up with probability `availability` (the paper's
/// definition), each crash a service-only restart of [`RESTART`].
///
/// The generic [`FaultPlan::stochastic_crashes`] only skips the outage
/// itself between events; here each event skips `recovery_skip` — at
/// least the outage plus re-transfer interval, or the scheme's whole
/// expected stall if longer — so a crash never lands while the service
/// is still down (or the client still mid-recovery) from the previous
/// one. Overlapping crashes hit an already-dead service: they inflate
/// the crash counter without costing the client anything, which matches
/// no availability definition and would make the cross-validation
/// meaningless. The price is that the *realized* crash density can sit
/// below the nominal `availability` (absorbed and re-transfer-window
/// ops dilute it); [`insim_cell`] therefore feeds the analytic model
/// each scheme's effective availability computed from the crashes
/// actually applied, so both models describe the same physical schedule
/// and the comparison validates the per-crash recovery costs.
fn plan_for(
    mix_mean: SimDuration,
    recovery_skip: SimDuration,
    availability: f64,
    ops: u64,
    seed: u64,
) -> FaultPlan {
    let mean_uptime = (mix_mean.as_nanos() as f64 / (1.0 - availability)).max(1.0);
    // Horizon: well past the expected faulty runtime (clean time plus
    // expected recovery per expected crash); the injector simply stops
    // when the workload finishes first.
    let clean_ns = mix_mean.as_nanos() as f64 * ops as f64;
    let downtime_ns = ops as f64 * (1.0 - availability) * recovery_skip.as_nanos() as f64;
    let horizon = SimTime::from_nanos(((clean_ns + downtime_ns) * 20.0) as u64 + 1_000_000);

    let mut rng = prdma_simnet::rng::SmallRng::seed_from_u64(seed ^ 0xC4A5_4A17);
    let mut plan = FaultPlan::new();
    let mut t = SimTime::ZERO;
    loop {
        let u: f64 = rng.gen_range(1e-12..1.0);
        let gap = SimDuration::from_nanos((-u.ln() * mean_uptime).max(1.0) as u64);
        t += gap;
        if t >= horizon {
            break;
        }
        plan = plan.at(t, 0, FaultKind::ServiceCrash { down_for: RESTART });
        t += recovery_skip;
    }
    plan
}

/// Run one cell of the sweep: both schemes under injected faults, plus
/// the analytic model with the same scaled geometry.
pub fn insim_cell(
    costs: &CleanCosts,
    availability: f64,
    write_ratio: f64,
    ops: u64,
    seed: u64,
) -> InSimCell {
    let mix = |r: SimDuration, w: SimDuration| {
        SimDuration::from_nanos(
            (write_ratio * w.as_nanos() as f64 + (1.0 - write_ratio) * r.as_nanos() as f64) as u64,
        )
    };
    let d_mix = mix(costs.d_read, costs.d_write);
    let t_mix = mix(costs.t_read, costs.t_write);

    // Expected non-productive wall time per crash, per scheme — the
    // same quantities the analytic model charges. The durable scheme's
    // one-sided write path keeps logging through an outage until flow
    // control kicks in at 128 outstanding entries (absorption); its
    // reads stall for the restart but skip the re-transfer interval
    // (the RC connection stays alive). The traditional client stalls
    // for restart plus re-transfer regardless of op kind.
    let absorb =
        SimDuration::from_nanos((128.0 * costs.d_write.as_nanos() as f64) as u64).min(RESTART);
    let d_stall = SimDuration::from_nanos(
        (write_ratio * (RESTART.as_nanos() - absorb.as_nanos()) as f64
            + (1.0 - write_ratio) * RESTART.as_nanos() as f64) as u64,
    );
    let no_overlap = RESTART + RETRANSFER;
    let d_skip = d_stall.max(no_overlap) + d_mix;
    let t_skip = no_overlap + t_mix;

    // Same seed for both plans: the exponential draws are identical, so
    // crashes land at the same *op index* positions in both runs (gaps
    // scale with each scheme's own op cost) and the ratio is insulated
    // from schedule noise.
    let plan_seed = seed ^ ((availability * 1e6) as u64) ^ (((write_ratio * 8.0) as u64) << 20);
    let slug = format!(
        "a{}_w{}",
        (availability * 1000.0) as u64,
        (write_ratio * 100.0) as u64
    );
    let (d_run, d_crashes, _) = run_scheme(
        Scheme::DurableRpc,
        ops,
        write_ratio,
        seed,
        Some(plan_for(d_mix, d_skip, availability, ops, plan_seed)),
        &format!("insim_{slug}_durable"),
    );
    let (t_run, t_crashes, _) = run_scheme(
        Scheme::Traditional,
        ops,
        write_ratio,
        seed,
        Some(plan_for(t_mix, t_skip, availability, ops, plan_seed)),
        &format!("insim_{slug}_farm"),
    );
    let in_sim_norm = d_run.elapsed.as_nanos() as f64 / t_run.elapsed.as_nanos().max(1) as f64;

    // Analytic cross-check with the same scaled geometry. The redo log
    // absorbs a service outage until flow control kicks in at
    // `throttle_threshold` (128) outstanding entries.
    let durable_costs = MeasuredCosts {
        read: costs.d_read,
        write: costs.d_write,
        persistence_window: costs.d_write,
        replay: SimDuration::from_micros_f64(costs.d_media_us.max(0.1)),
    };
    let traditional_costs = MeasuredCosts {
        read: costs.t_read,
        write: costs.t_write,
        persistence_window: costs.t_write,
        replay: SimDuration::ZERO,
    };
    // Feed the analytic model each scheme's *effective* availability —
    // one minus the crash density actually realized by the non-overlap
    // schedule — so both models describe the same physical run and the
    // comparison validates the per-crash recovery costs (see
    // [`plan_for`]).
    let fc = |crashes: u64| FaultConfig {
        availability: (1.0 - crashes as f64 / ops as f64).min(1.0 - 1e-12),
        restart: RESTART,
        retransfer: RETRANSFER,
        ops,
        write_ratio,
        avg_outstanding: 8,
        log_absorption: absorb,
        seed: plan_seed,
    };
    let durable = run_faulty(Scheme::DurableRpc, &durable_costs, &fc(d_crashes));
    let trad = run_faulty(Scheme::Traditional, &traditional_costs, &fc(t_crashes));
    let analytic_norm = durable.total.as_nanos() as f64 / trad.total.as_nanos().max(1) as f64;

    InSimCell {
        in_sim_norm,
        analytic_norm,
        durable_crashes: d_crashes,
        traditional_crashes: t_crashes,
        durable_failed: d_run.failed,
        traditional_failed: t_run.failed,
    }
}

/// Run `ops` mixed (50/50) micro ops against either one durable server
/// (node 0) or a primary–backup replicated pair (nodes 0 and 1, node 0
/// primary), optionally crashing node 0 mid-run for [`RESTART`].
/// Returns the workload result and the crashes applied.
fn run_replicated_scheme(
    kind: DurableKind,
    replicated: bool,
    ops: u64,
    seed: u64,
    crash_at: Option<SimTime>,
    tag: &str,
) -> (RunResult, u64) {
    let mut sim = Sim::new(seed);
    let mut ccfg = ClusterConfig::with_servers(2, 1);
    ccfg.rnic.retransfer_interval = RETRANSFER;
    ccfg.journal = journal_enabled();
    let cluster = Cluster::new(sim.handle(), ccfg);
    let cfg = DurableConfig {
        slot_payload: OBJECT_SIZE,
        object_slot: OBJECT_SIZE,
        retry: FAULT_RETRY,
        ..DurableConfig::for_kind(kind)
    };
    let injector = crash_at.map(|at| {
        cluster.inject_faults(FaultPlan::new().at(
            at,
            0,
            FaultKind::NodeCrash { down_for: RESTART },
        ))
    });
    let client: Box<dyn RpcClient> = if replicated {
        let (c, group) = build_replicated(&cluster, 2, &[0, 1], cfg);
        if let Some(inj) = &injector {
            // Fast failover: promote the backup the moment the primary
            // crashes; replay + rejoin + catch-up at restart.
            group.wire_recovery(inj);
        }
        Box::new(c)
    } else {
        let (c, s) = build_durable(&cluster, 2, 0, 0, cfg);
        s.start();
        if let Some(inj) = &injector {
            Rc::new(s).wire_recovery(inj);
        }
        Box::new(c)
    };
    let mcfg = MicroConfig {
        objects: 500,
        ops,
        object_size: OBJECT_SIZE,
        read_ratio: 0.5,
        seed: seed ^ 0x1357,
    };
    let h = sim.handle();
    let run = sim.block_on(async move { run_micro(client.as_ref(), &h, &mcfg).await });
    let crashes = injector.map_or(0, |inj| inj.stats().node_crashes);
    export_and_audit(&cluster, tag);
    (run, crashes)
}

/// The replicated companion to the availability sweep: measured
/// availability (clean elapsed / faulty elapsed) of an unreplicated vs
/// a primary–backup replicated durable service when the (primary)
/// server node crashes mid-run. The unreplicated client rides out the
/// whole restart on retries; the replicated client fails over to the
/// promoted backup, so its availability must come out strictly higher —
/// asserted here, so every sweep enforces it.
fn replicated_availability_table(ops: u64) -> Table {
    let mut t = Table::new(
        "fig12_insim_replicated",
        format!(
            "Measured availability under a NodeCrash of the primary \
             ({ops} ops, 50%R+50%W, 3ms restart): primary–backup \
             replication vs riding out the restart on retries"
        ),
        &[
            "kind",
            "clean_unrep_us",
            "faulty_unrep_us",
            "avail_unrep",
            "clean_repl_us",
            "faulty_repl_us",
            "avail_repl",
        ],
    );
    let rows = par_map(vec![DurableKind::WFlush, DurableKind::SRFlush], |kind| {
        let seed = 2021 ^ kind as u64;
        let slug = kind.name().to_lowercase().replace('-', "_");
        let cell = |replicated: bool, crash_at: Option<SimTime>, leg: &str| {
            run_replicated_scheme(
                kind,
                replicated,
                ops,
                seed,
                crash_at,
                &format!("insim_repl_{slug}_{leg}"),
            )
        };
        let (clean_u, _) = cell(false, None, "clean_unrep");
        let (clean_r, _) = cell(true, None, "clean_repl");
        // Crash mid-run: half of each scheme's own clean elapsed.
        let mid = |clean: &RunResult| SimTime::from_nanos(clean.elapsed.as_nanos() / 2);
        let (faulty_u, crashes_u) = cell(false, Some(mid(&clean_u)), "crash_unrep");
        let (faulty_r, crashes_r) = cell(true, Some(mid(&clean_r)), "crash_repl");
        assert_eq!(crashes_u, 1, "{kind:?}: unreplicated crash not applied");
        assert_eq!(crashes_r, 1, "{kind:?}: replicated crash not applied");
        assert_eq!(
            faulty_u.failed + faulty_r.failed,
            0,
            "{kind:?}: ops lost despite retries/failover"
        );
        let avail = |clean: &RunResult, faulty: &RunResult| {
            clean.elapsed.as_nanos() as f64 / faulty.elapsed.as_nanos().max(1) as f64
        };
        let avail_u = avail(&clean_u, &faulty_u);
        let avail_r = avail(&clean_r, &faulty_r);
        assert!(
            avail_r > avail_u,
            "{kind:?}: replicated availability {avail_r:.3} must strictly exceed \
                 unreplicated {avail_u:.3}"
        );
        let us = |r: &RunResult| format!("{:.1}", r.elapsed.as_nanos() as f64 / 1000.0);
        vec![
            kind.name().to_string(),
            us(&clean_u),
            us(&faulty_u),
            format!("{avail_u:.3}"),
            us(&clean_r),
            us(&faulty_r),
            format!("{avail_r:.3}"),
        ]
    });
    for row in rows {
        t.row(row);
    }
    t
}

/// The `fig12 --in-sim` sweep: availability x mix, in-sim vs analytic.
pub fn fig12_in_sim(scale: Scale) -> Vec<Table> {
    let ops = scale.micro_ops.clamp(300, 1200);
    let costs = measure_clean(200, 2021);
    let mut t = Table::new(
        "fig12_insim_failure_recovery",
        format!(
            "Normalized total time under *injected* service crashes \
             ({ops} ops, 3ms restart, 1ms re-transfer; analytic model \
             alongside for cross-validation)"
        ),
        &[
            "availability",
            "mix",
            "in_sim_norm",
            "analytic_norm",
            "delta",
            "crashes_durable",
            "crashes_farm",
        ],
    );
    let mut points = Vec::new();
    for a in [0.99, 0.999] {
        for (w, label) in [(0.0, "100%Read"), (0.5, "50%R+50%W"), (1.0, "100%Write")] {
            points.push((a, w, label));
        }
    }
    let rows = par_map(points, |(a, w, label)| {
        let c = insim_cell(&costs, a, w, ops, 2021);
        assert_eq!(
            c.durable_failed + c.traditional_failed,
            0,
            "ops lost despite retries at a={a} w={w}"
        );
        vec![
            format!("{:.1}%", a * 100.0),
            label.to_string(),
            format!("{:.3}", c.in_sim_norm),
            format!("{:.3}", c.analytic_norm),
            format!("{:+.3}", c.in_sim_norm - c.analytic_norm),
            c.durable_crashes.to_string(),
            c.traditional_crashes.to_string(),
        ]
    });
    for row in rows {
        t.row(row);
    }
    vec![t, replicated_availability_table(ops)]
}
