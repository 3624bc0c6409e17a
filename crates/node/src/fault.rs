//! The fault injector: walks a [`FaultPlan`] against the virtual clock
//! and applies each event to the simulated hardware, with recovery hooks
//! so protocol servers can replay their redo logs at restart.
//!
//! Fault semantics (what each kind destroys vs. preserves):
//!
//! | fault            | destroys                                   | preserves            |
//! |------------------|--------------------------------------------|----------------------|
//! | `NodeCrash`      | NIC SRAM, in-flight DMA, DRAM, dirty lines | persisted PM         |
//! | `ServiceCrash`   | nothing (software stops responding)        | NIC, PM, DRAM        |
//! | `SramLoss`       | NIC SRAM, in-flight DMA                    | PM, DRAM, liveness   |
//! | `LossBurst`      | a fraction of in-flight UC/UD messages     | everything at rest   |
//! | `LinkDegrade`    | nothing (ingress bandwidth only)           | everything           |

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use prdma_simnet::fault::{FaultEvent, FaultKind, FaultPlan};
use prdma_simnet::journal::{EventKind, Subsystem, NO_ID};

use crate::cluster::{Cluster, Node};

/// Counts of fault events applied so far (virtual-time progress).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Full node (power) crashes applied.
    pub node_crashes: u64,
    /// Service-only crashes applied.
    pub service_crashes: u64,
    /// NIC SRAM losses applied.
    pub sram_losses: u64,
    /// Packet-loss bursts started.
    pub loss_bursts: u64,
    /// Link degradations started.
    pub link_degrades: u64,
    /// Restarts completed (node or service back up, hooks run).
    pub restarts: u64,
}

type RecoveryHook = Box<dyn Fn(usize, FaultKind)>;

struct InjectorInner {
    stats: Cell<FaultStats>,
    /// Run at each recovery point: after a node/service restart, and
    /// immediately after an SRAM loss (the NIC-reset path). Receives the
    /// node index and the fault that was recovered from.
    hooks: RefCell<Vec<RecoveryHook>>,
    /// Run synchronously when a node/service crash is *applied* (before
    /// the restart is even scheduled). This is the failure-detection
    /// point: replication layers promote a backup here so traffic fails
    /// over instead of waiting out the downtime.
    fault_hooks: RefCell<Vec<RecoveryHook>>,
    applied: Cell<usize>,
    total: usize,
}

/// Handle to a running fault injection; clones share state.
#[derive(Clone)]
pub struct FaultInjector {
    inner: Rc<InjectorInner>,
}

impl FaultInjector {
    /// Register a recovery hook. Hooks run synchronously at every
    /// recovery point (node restart, service restart, SRAM-loss reset),
    /// in registration order — typically a redo-log replay (the
    /// `wire_recovery` of whatever shape serves the node, which ends in
    /// `DurableServer::recover`). Register before the simulation runs
    /// past the first fault.
    pub fn on_recovery<F: Fn(usize, FaultKind) + 'static>(&self, hook: F) {
        self.inner.hooks.borrow_mut().push(Box::new(hook));
    }

    /// Register a fault hook. Fault hooks run synchronously the moment a
    /// `NodeCrash` or `ServiceCrash` is applied — the simulated
    /// equivalent of instant failure detection — receiving the node
    /// index and the fault being applied. Replication layers use this to
    /// promote a backup with near-zero downtime
    /// (`ReplicaGroup::wire_recovery`). Other fault kinds do not fire
    /// these hooks: nothing crashes, so there is nothing to fail over.
    pub fn on_fault<F: Fn(usize, FaultKind) + 'static>(&self, hook: F) {
        self.inner.fault_hooks.borrow_mut().push(Box::new(hook));
    }

    /// Counters of applied events.
    pub fn stats(&self) -> FaultStats {
        self.inner.stats.get()
    }

    /// Events applied so far, out of the plan's total.
    pub fn progress(&self) -> (usize, usize) {
        (self.inner.applied.get(), self.inner.total)
    }

    fn bump<F: FnOnce(&mut FaultStats)>(&self, f: F) {
        let mut s = self.inner.stats.get();
        f(&mut s);
        self.inner.stats.set(s);
    }

    fn run_hooks(&self, node: usize, kind: FaultKind) {
        for hook in self.inner.hooks.borrow().iter() {
            hook(node, kind);
        }
        self.bump(|s| s.restarts += 1);
    }

    fn run_fault_hooks(&self, node: usize, kind: FaultKind) {
        for hook in self.inner.fault_hooks.borrow().iter() {
            hook(node, kind);
        }
    }
}

fn jot_fault(node: &Node, kind: EventKind, wr_id: u64) {
    if let Some(j) = node.journal() {
        j.record(Subsystem::Fault, kind, NO_ID, wr_id, 0);
    }
    if let Some(m) = node.metrics() {
        m.incr(
            prdma_simnet::metrics::Key::new("faults").kind(kind.name()),
            1,
        );
    }
}

impl Cluster {
    /// Start applying `plan` to this cluster: one driver task walks the
    /// schedule on the virtual clock; timed faults (crash downtime,
    /// bursts, degradations) restore themselves via companion tasks, so
    /// overlapping faults on different nodes proceed independently.
    ///
    /// Returns the injector handle for registering recovery hooks and
    /// reading progress. Fully deterministic: the plan's times are fixed
    /// data and the executor's scheduling is seeded.
    pub fn inject_faults(&self, plan: FaultPlan) -> FaultInjector {
        let injector = FaultInjector {
            inner: Rc::new(InjectorInner {
                stats: Cell::new(FaultStats::default()),
                hooks: RefCell::new(Vec::new()),
                fault_hooks: RefCell::new(Vec::new()),
                applied: Cell::new(0),
                total: plan.len(),
            }),
        };
        let handle = self.handle().clone();
        let fabric = self.fabric().clone();
        let nodes: Vec<Node> = (0..self.len()).map(|i| self.node(i).clone()).collect();
        let inj = injector.clone();
        let h = handle.clone();
        handle.spawn(async move {
            for ev in plan.events().to_vec() {
                h.sleep_until(ev.at).await;
                apply_event(&h, &fabric, &nodes, &inj, ev);
                inj.inner.applied.set(inj.inner.applied.get() + 1);
            }
        });
        injector
    }
}

fn apply_event(
    h: &prdma_simnet::SimHandle,
    fabric: &prdma_rnic::Fabric,
    nodes: &[Node],
    inj: &FaultInjector,
    ev: FaultEvent,
) {
    let node = nodes[ev.node].clone();
    match ev.kind {
        FaultKind::NodeCrash { down_for } => {
            node.crash();
            jot_fault(&node, EventKind::NodeCrash, down_for.as_nanos());
            inj.bump(|s| s.node_crashes += 1);
            inj.run_fault_hooks(ev.node, ev.kind);
            let inj = inj.clone();
            let h2 = h.clone();
            h.spawn(async move {
                h2.sleep(down_for).await;
                node.restart();
                jot_fault(&node, EventKind::NodeRestart, NO_ID);
                inj.run_hooks(ev.node, ev.kind);
            });
        }
        FaultKind::ServiceCrash { down_for } => {
            node.crash_service();
            jot_fault(&node, EventKind::ServiceCrash, down_for.as_nanos());
            inj.bump(|s| s.service_crashes += 1);
            inj.run_fault_hooks(ev.node, ev.kind);
            let inj = inj.clone();
            let h2 = h.clone();
            h.spawn(async move {
                h2.sleep(down_for).await;
                node.restart_service();
                jot_fault(&node, EventKind::ServiceRestart, NO_ID);
                inj.run_hooks(ev.node, ev.kind);
            });
        }
        FaultKind::SramLoss => {
            node.rnic().lose_sram();
            jot_fault(&node, EventKind::SramLoss, NO_ID);
            inj.bump(|s| s.sram_losses += 1);
            // The NIC-reset recovery path runs immediately. Each aborted
            // PM-bound DMA fails its own QP's next flush barrier, once.
            inj.run_hooks(ev.node, ev.kind);
        }
        FaultKind::LossBurst { rate, duration } => {
            node.rnic().inject_loss(rate, h.now() + duration);
            jot_fault(&node, EventKind::LossBurst, duration.as_nanos());
            inj.bump(|s| s.loss_bursts += 1);
        }
        FaultKind::LinkDegrade { factor, duration } => {
            fabric.degrade_ingress(node.id, factor);
            jot_fault(&node, EventKind::LinkDegrade, duration.as_nanos());
            inj.bump(|s| s.link_degrades += 1);
            let fabric = fabric.clone();
            let h2 = h.clone();
            h.spawn(async move {
                h2.sleep(duration).await;
                fabric.degrade_ingress(node.id, 1.0);
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use prdma_simnet::{Sim, SimDuration, SimTime};

    #[test]
    fn scripted_plan_crashes_and_restarts_on_schedule() {
        let mut sim = Sim::new(1);
        let mut cfg = ClusterConfig::with_nodes(2);
        cfg.journal = true;
        let cluster = Cluster::new(sim.handle(), cfg);
        let plan = FaultPlan::new()
            .at(
                SimTime::from_nanos(1_000),
                0,
                FaultKind::NodeCrash {
                    down_for: SimDuration::from_micros(5),
                },
            )
            .at(SimTime::from_nanos(10_000), 1, FaultKind::SramLoss);
        let inj = cluster.inject_faults(plan);
        let recovered: Rc<RefCell<Vec<(usize, &'static str)>>> = Rc::default();
        let rec2 = Rc::clone(&recovered);
        inj.on_recovery(move |node, kind| rec2.borrow_mut().push((node, kind.name())));

        let node0 = cluster.node(0).clone();
        let h = sim.handle();
        sim.block_on(async move {
            h.sleep(SimDuration::from_micros(2)).await;
            assert!(!node0.is_up(), "node 0 must be down at t=2us");
            assert!(!node0.service_is_up());
            h.sleep(SimDuration::from_micros(20)).await;
            assert!(node0.is_up(), "node 0 must be back at t=22us");
            assert!(node0.service_is_up());
        });
        assert_eq!(inj.stats().node_crashes, 1);
        assert_eq!(inj.stats().sram_losses, 1);
        assert_eq!(inj.stats().restarts, 2);
        assert_eq!(inj.progress(), (2, 2));
        assert_eq!(
            *recovered.borrow(),
            vec![(0, "node_crash"), (1, "sram_loss")]
        );
        let kinds: Vec<EventKind> = cluster
            .journal_records()
            .iter()
            .filter(|r| r.subsystem == Subsystem::Fault)
            .map(|r| r.kind)
            .collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::NodeCrash,
                EventKind::NodeRestart,
                EventKind::SramLoss
            ]
        );
    }

    #[test]
    fn fault_hooks_fire_at_crash_time_not_restart() {
        let mut sim = Sim::new(4);
        let cluster = Cluster::new(sim.handle(), ClusterConfig::with_nodes(2));
        let plan = FaultPlan::new().at(
            SimTime::from_nanos(1_000),
            0,
            FaultKind::NodeCrash {
                down_for: SimDuration::from_micros(5),
            },
        );
        let inj = cluster.inject_faults(plan);
        let crashed_at: Rc<Cell<Option<u64>>> = Rc::default();
        {
            let crashed_at = Rc::clone(&crashed_at);
            let h = sim.handle();
            inj.on_fault(move |node, kind| {
                assert_eq!(node, 0);
                assert!(matches!(kind, FaultKind::NodeCrash { .. }));
                crashed_at.set(Some(h.now().as_nanos()));
            });
        }
        sim.run();
        // The fault hook fires when the crash is applied, 5us before the
        // restart (and its recovery hooks).
        assert_eq!(crashed_at.get(), Some(1_000));
        assert_eq!(inj.stats().restarts, 1);
    }

    #[test]
    fn service_crash_leaves_nic_up() {
        let mut sim = Sim::new(2);
        let cluster = Cluster::new(sim.handle(), ClusterConfig::with_nodes(2));
        let plan = FaultPlan::new().at(
            SimTime::from_nanos(100),
            0,
            FaultKind::ServiceCrash {
                down_for: SimDuration::from_micros(10),
            },
        );
        let inj = cluster.inject_faults(plan);
        let node0 = cluster.node(0).clone();
        let h = sim.handle();
        sim.block_on(async move {
            h.sleep(SimDuration::from_micros(1)).await;
            assert!(node0.is_up(), "NIC stays up through a service crash");
            assert!(!node0.service_is_up());
            node0.wait_service_up().await;
            assert!(node0.service_is_up());
        });
        assert_eq!(inj.stats().service_crashes, 1);
        assert_eq!(inj.stats().restarts, 1);
    }

    #[test]
    fn loss_burst_and_degrade_restore_themselves() {
        let mut sim = Sim::new(3);
        let cluster = Cluster::new(sim.handle(), ClusterConfig::with_nodes(2));
        let plan = FaultPlan::new()
            .at(
                SimTime::from_nanos(0),
                0,
                FaultKind::LossBurst {
                    rate: 0.9,
                    duration: SimDuration::from_micros(3),
                },
            )
            .at(
                SimTime::from_nanos(0),
                0,
                FaultKind::LinkDegrade {
                    factor: 4.0,
                    duration: SimDuration::from_micros(3),
                },
            );
        let inj = cluster.inject_faults(plan);
        let nic = cluster.node(0).rnic().clone();
        let fabric = cluster.fabric().clone();
        let server = cluster.node(0).id;
        let client = cluster.node(1).id;
        let h = sim.handle();
        sim.block_on(async move {
            h.sleep(SimDuration::from_micros(1)).await;
            assert_eq!(nic.injected_loss(), 0.9);
            assert_eq!(fabric.link(client, server).slowdown(), 4.0);
            h.sleep(SimDuration::from_micros(5)).await;
            assert_eq!(nic.injected_loss(), 0.0);
            assert_eq!(fabric.link(client, server).slowdown(), 1.0);
        });
        assert_eq!(inj.stats().loss_bursts, 1);
        assert_eq!(inj.stats().link_degrades, 1);
    }
}
