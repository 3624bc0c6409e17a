//! Fault plans: deterministic schedules of crash, loss, and degradation
//! events driven from virtual time.
//!
//! A [`FaultPlan`] is pure data — a time-sorted list of [`FaultEvent`]s —
//! so the same plan applied to the same seeded simulation replays the
//! exact same fault sequence. Plans are scripted with [`FaultPlan::at`]
//! (a seeded generator, such as the bench's `fault_insim::plan_for`, draws
//! its times from its own RNG and scripts them the same way), so every
//! event time is fixed *before* the simulation starts, which keeps the
//! executor's RNG stream untouched and runs byte-reproducible.
//!
//! The plan itself knows nothing about NICs or clusters: an injector
//! (see `prdma_node`) walks the schedule against the virtual clock and
//! applies each event to the simulated hardware.

use crate::time::{SimDuration, SimTime};

/// What a fault does to the target node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Full node (power) crash: the NIC goes down, staging SRAM,
    /// in-flight DMA, and unflushed DRAM are lost; PM contents survive.
    /// The node restarts after `down_for`.
    NodeCrash {
        /// Time from crash to restart.
        down_for: SimDuration,
    },
    /// Service (software) crash: the RPC service stops responding for
    /// `down_for` while the NIC and PM keep operating — the paper's
    /// unikernel-restart fault, during which one-sided log appends are
    /// still absorbed by PM.
    ServiceCrash {
        /// Time from crash to service restart.
        down_for: SimDuration,
    },
    /// NIC staging-SRAM loss: dirty staged lines and in-flight DMA are
    /// dropped (as on an NIC-internal reset) but the NIC stays up.
    SramLoss,
    /// Elevated packet-loss probability on messages *into* the node for
    /// `duration` (UC/UD drops, RC hardware retransmits).
    LossBurst {
        /// Loss probability while the burst is active.
        rate: f64,
        /// Burst length.
        duration: SimDuration,
    },
    /// The node's ingress link serializes `factor`× slower for
    /// `duration` (congestion / link-training degradation).
    LinkDegrade {
        /// Serialization-time multiplier (> 1 slows the link).
        factor: f64,
        /// Degradation length.
        duration: SimDuration,
    },
}

impl FaultKind {
    /// Stable lower-case name for logs and reports.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::NodeCrash { .. } => "node_crash",
            FaultKind::ServiceCrash { .. } => "service_crash",
            FaultKind::SramLoss => "sram_loss",
            FaultKind::LossBurst { .. } => "loss_burst",
            FaultKind::LinkDegrade { .. } => "link_degrade",
        }
    }
}

/// One scheduled fault: `kind` strikes `node` at virtual time `at`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Virtual time the fault strikes.
    pub at: SimTime,
    /// Target node index (cluster ordering).
    pub node: usize,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic, time-sorted schedule of fault events.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Builder-style: add one scripted event, keeping the schedule sorted.
    pub fn at(mut self, at: SimTime, node: usize, kind: FaultKind) -> Self {
        self.push(FaultEvent { at, node, kind });
        self
    }

    /// Add one event, keeping the schedule sorted by time (stable for
    /// equal timestamps, so scripted ordering is preserved).
    pub fn push(&mut self, ev: FaultEvent) {
        let pos = self.events.partition_point(|e| e.at <= ev.at);
        self.events.insert(pos, ev);
    }

    /// The scheduled events, in time order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripted_plans_stay_sorted() {
        let plan = FaultPlan::new()
            .at(
                SimTime::from_nanos(300),
                0,
                FaultKind::ServiceCrash {
                    down_for: SimDuration::from_micros(1),
                },
            )
            .at(SimTime::from_nanos(100), 1, FaultKind::SramLoss)
            .at(
                SimTime::from_nanos(200),
                0,
                FaultKind::LossBurst {
                    rate: 0.5,
                    duration: SimDuration::from_micros(2),
                },
            );
        let times: Vec<u64> = plan.events().iter().map(|e| e.at.as_nanos()).collect();
        assert_eq!(times, vec![100, 200, 300]);
    }
}
