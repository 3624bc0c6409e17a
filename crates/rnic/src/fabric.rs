//! The network fabric: RNIC registry, directed links, QP connection
//! establishment, and background-traffic injection (paper Fig. 14).

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use prdma_pmem::{PmDevice, VolatileMemory};
use prdma_simnet::{FifoResource, SharedLink, SimDuration, SimHandle, SimTime};

use crate::config::RnicConfig;
use crate::nic::Rnic;
use crate::qp::{connect, Qp, QpMode};

/// Link bandwidth in Gbit/s (paper: 40/56 GbE; the model runs 40).
pub(crate) const LINK_GBPS: f64 = 40.0;
/// One-way propagation + switch delay (single ToR switch: ~300 ns
/// cut-through + cable/PHY).
pub(crate) const PROPAGATION: SimDuration = SimDuration::from_nanos(500);

/// Identifies a node on the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

struct FabricInner {
    handle: SimHandle,
    cfg: RnicConfig,
    nodes: RefCell<Vec<Rnic>>,
    /// One ingress link per *destination* node: the fabric is a
    /// full-bisection switch, so the bottleneck is each node's NIC port —
    /// all traffic towards a node serializes on its ingress (exactly the
    /// paper's single-server, many-senders topology in Fig. 17).
    links: RefCell<HashMap<NodeId, SharedLink>>,
}

/// A full-mesh RDMA fabric over simulated nodes.
#[derive(Clone)]
pub struct Fabric {
    inner: Rc<FabricInner>,
}

impl Fabric {
    /// A fabric whose RNICs use `cfg`.
    pub fn new(handle: SimHandle, cfg: RnicConfig) -> Self {
        Fabric {
            inner: Rc::new(FabricInner {
                handle,
                cfg,
                nodes: RefCell::new(Vec::new()),
                links: RefCell::new(HashMap::new()),
            }),
        }
    }

    /// The simulation handle.
    pub fn handle(&self) -> &SimHandle {
        &self.inner.handle
    }

    /// Register a node with its memories; returns its id.
    pub fn add_node(&self, pm: PmDevice, dram: VolatileMemory) -> NodeId {
        let rnic = Rnic::new(self.inner.handle.clone(), self.inner.cfg.clone(), pm, dram);
        let mut nodes = self.inner.nodes.borrow_mut();
        nodes.push(rnic);
        NodeId(nodes.len() - 1)
    }

    /// The RNIC of a node.
    pub fn rnic(&self, id: NodeId) -> Rnic {
        self.inner.nodes.borrow()[id.0].clone()
    }

    /// The path `from -> to`: the destination's shared ingress link
    /// (created on first use).
    pub fn link(&self, from: NodeId, to: NodeId) -> SharedLink {
        assert_ne!(from, to, "no loopback links");
        self.ingress(to)
    }

    /// `node`'s ingress link, created on first use.
    fn ingress(&self, node: NodeId) -> SharedLink {
        let handle = &self.inner.handle;
        let mut links = self.inner.links.borrow_mut();
        let link = links
            .entry(node)
            .or_insert_with(|| SharedLink::new(handle.clone(), LINK_GBPS, PROPAGATION));
        link.clone()
    }

    /// Establish a connected QP pair between two nodes; `a`'s verb posts
    /// queue on `a_cpu` if given (see [`connect`]).
    pub fn connect(
        &self,
        a: NodeId,
        b: NodeId,
        mode: QpMode,
        a_cpu: Option<FifoResource>,
    ) -> (Qp, Qp) {
        let ra = self.rnic(a);
        let rb = self.rnic(b);
        let ab = self.link(a, b);
        let ba = self.link(b, a);
        connect(self.inner.handle.clone(), mode, ra, rb, ab, ba, a_cpu)
    }

    /// Degrade (or restore, with `factor == 1.0`) the ingress link of
    /// `node`: every message towards it serializes `factor`× slower.
    /// Fault-injection hook for `FaultKind::LinkDegrade`.
    pub fn degrade_ingress(&self, node: NodeId, factor: f64) {
        // Materialize the ingress link even if nothing has used it yet so
        // the degradation applies to the first message too.
        self.ingress(node).set_slowdown(factor);
    }

    /// Congest the `from -> to` link with a background stream of
    /// `msg_bytes`-sized packets every `period` until `until`.
    ///
    /// This reproduces the paper's "busy network" condition (Fig. 14): a
    /// background program contiguously sending small data packets.
    pub fn background_traffic(
        &self,
        from: NodeId,
        to: NodeId,
        msg_bytes: u64,
        period: SimDuration,
        until: SimTime,
    ) {
        let link = self.link(from, to);
        let handle = self.inner.handle.clone();
        let h2 = handle.clone();
        handle.spawn(async move {
            while h2.now() < until {
                link.transmit(msg_bytes).await;
                if period > SimDuration::ZERO {
                    h2.sleep(period).await;
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nic::MemTarget;
    use crate::payload::Payload;
    use prdma_simnet::{Sim, Tracer};

    fn two_node_fabric(sim: &Sim) -> (Fabric, NodeId, NodeId) {
        let f = Fabric::new(sim.handle(), RnicConfig::default());
        let mk = || {
            let tracer = Tracer::new(sim.handle());
            (
                PmDevice::new(sim.handle(), 1 << 20, tracer, None),
                VolatileMemory::new(1 << 20),
            )
        };
        let (pm_a, dram_a) = mk();
        let (pm_b, dram_b) = mk();
        let a = f.add_node(pm_a, dram_a);
        let b = f.add_node(pm_b, dram_b);
        (f, a, b)
    }

    #[test]
    fn links_are_memoized_per_direction() {
        let sim = Sim::new(1);
        let (f, a, b) = two_node_fabric(&sim);
        let l1 = f.link(a, b);
        let l2 = f.link(a, b);
        let l3 = f.link(b, a);
        drop(l1.transmit(0)); // never polled; links compared via shared stats
        assert_eq!(l1.bytes_moved(), l2.bytes_moved());
        assert_eq!(l3.bytes_moved(), 0);
        assert_eq!((a, b), (NodeId(0), NodeId(1)));
    }

    #[test]
    fn connect_yields_working_pair() {
        let mut sim = Sim::new(1);
        let (f, a, b) = two_node_fabric(&sim);
        let (qa, qb) = f.connect(a, b, QpMode::Rc, None);
        sim.block_on(async move {
            let tok = qa
                .write(MemTarget::Pm(0), Payload::from_bytes(vec![1, 2, 3]))
                .await
                .unwrap();
            assert!(tok.wait().await);
        });
        assert_eq!(qb.local().pm().read_persistent_view(0, 3), vec![1, 2, 3]);
    }

    #[test]
    fn background_traffic_inflates_latency() {
        let run = |congested: bool| {
            let mut sim = Sim::new(5);
            let (f, a, b) = two_node_fabric(&sim);
            if congested {
                // Saturating stream of 4KB packets, no gaps.
                f.background_traffic(
                    a,
                    b,
                    32768,
                    SimDuration::ZERO,
                    SimTime::from_nanos(u64::MAX / 2),
                );
            }
            let (qa, _qb) = f.connect(a, b, QpMode::Rc, None);
            let h = sim.handle();
            sim.block_on(async move {
                h.sleep(SimDuration::from_micros(10)).await;
                let t0 = h.now();
                for _ in 0..20 {
                    qa.write(MemTarget::Pm(0), Payload::synthetic(1024, 0))
                        .await
                        .unwrap();
                }
                h.now() - t0
            })
        };
        let idle = run(false);
        let busy = run(true);
        assert!(
            busy.as_nanos() > idle.as_nanos() * 3 / 2,
            "busy {busy} vs idle {idle}"
        );
    }

    #[test]
    fn degraded_ingress_slows_writes_until_restored() {
        let run = |degrade: bool| {
            let mut sim = Sim::new(5);
            let (f, a, b) = two_node_fabric(&sim);
            if degrade {
                f.degrade_ingress(b, 8.0);
            }
            let (qa, _qb) = f.connect(a, b, QpMode::Rc, None);
            let h = sim.handle();
            sim.block_on(async move {
                let t0 = h.now();
                for _ in 0..10 {
                    qa.write(MemTarget::Pm(0), Payload::synthetic(8192, 0))
                        .await
                        .unwrap();
                }
                h.now() - t0
            })
        };
        let healthy = run(false);
        let degraded = run(true);
        assert!(
            degraded.as_nanos() > healthy.as_nanos() * 3 / 2,
            "degraded {degraded} vs healthy {healthy}"
        );
    }

    #[test]
    #[should_panic(expected = "no loopback")]
    fn loopback_link_rejected() {
        let sim = Sim::new(1);
        let (f, a, _b) = two_node_fabric(&sim);
        f.link(a, a);
    }
}
