//! RDMA Flush primitives (paper Section 4.1).
//!
//! Two sender-initiated primitives — `WFlush` (accompanies an RDMA write)
//! and `SFlush` (accompanies an RDMA send) — force data out of the remote
//! RNIC's volatile SRAM into the persistence domain and ACK the sender once
//! it is durable. The receiver-initiated `RFlush` is realized in the
//! durable-RPC server loop (the receiver CPU persists and notifies), not
//! here.
//!
//! Because no shipping RNIC implements Flush, the paper *emulates* the
//! primitives (Section 4.1.3); [`FlushImpl::Emulated`] reproduces exactly
//! that emulation, and [`FlushImpl::HardwareNative`] models the proposed
//! firmware implementation as an ablation:
//!
//! | | `Emulated` (what the paper measured) | `HardwareNative` (proposed) |
//! |---|---|---|
//! | `WFlush` | RDMA read of the last byte — PCIe ordering drains the posted DMA | RNIC flush command: drain + ACK, no PCIe read |
//! | `SFlush` | 7 µs address-lookup stall, then the read | drain + ACK after on-NIC address resolution |

use prdma_rnic::{MemTarget, Qp, RdmaResult, POST_ONESIDED};
use prdma_simnet::journal::{EventKind, Subsystem, NO_ID};
use prdma_simnet::trace::{Phase, Span};
use prdma_simnet::SimDuration;

/// Emulated address-lookup latency for `SFlush`: the paper charges a
/// conservative 7 µs `sleep(0)` for the RNIC to resolve the destination
/// address of a send.
const SFLUSH_ADDRESSING: SimDuration = SimDuration::from_micros(7);

/// How the Flush primitives are realized (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FlushImpl {
    /// The paper's emulation on stock RNICs (read-after-write; `sleep(0)`
    /// ≈ 7 µs for SFlush address lookup). This is the default because it is
    /// what the paper's evaluation measured.
    #[default]
    Emulated,
    /// The proposed native RNIC implementation: a flush verb the remote
    /// RNIC executes by draining its posted DMA writes.
    HardwareNative,
}

/// Flush operations bound to a QP.
#[derive(Clone)]
pub struct FlushOps {
    qp: Qp,
    imp: FlushImpl,
}

impl FlushOps {
    /// Bind flush operations to `qp` using implementation `imp`.
    pub fn new(qp: Qp, imp: FlushImpl) -> Self {
        FlushOps { qp, imp }
    }

    /// The implementation in use.
    pub fn implementation(&self) -> FlushImpl {
        self.imp
    }

    /// Composite span covering a whole flush round trip (its wire/DMA/media
    /// constituents are also recorded under their exclusive phases).
    fn flush_span(&self) -> Span {
        self.qp.local().tracer().span(Phase::FlushWait)
    }

    /// Address-resolution work done by the remote RNIC, attributed to its
    /// node's NIC phase.
    fn remote_nic_span(&self) -> Span {
        self.qp.remote().tracer().span(Phase::NicDma)
    }

    /// Journal the client-side view of a flush round trip. The barrier
    /// itself (with its covered-ticket check) is recorded by the remote
    /// NIC's posted-write drain; these records are informational, so they
    /// carry no barrier ticket.
    fn jot(&self, kind: EventKind) {
        let j = self.qp.local().journal();
        j.record(Subsystem::Flush, kind, NO_ID, NO_ID, 0);
    }

    /// `WFlush`: guarantee that all writes previously posted on this QP
    /// (up to and including the one ending at `probe`) are durable in the
    /// remote persistence domain. Resolves at the flush ACK.
    pub async fn wflush(&self, probe: MemTarget) -> RdmaResult<()> {
        let _span = self.flush_span();
        self.jot(EventKind::FlushIssue);
        let r = match self.imp {
            FlushImpl::Emulated => {
                // Read the last byte of the written data: PCIe ordering
                // forces the remote RNIC to drain posted DMA writes first.
                self.qp.read_synthetic(probe, 1).await
            }
            FlushImpl::HardwareNative => self.native_flush(SimDuration::ZERO).await,
        };
        if r.is_ok() {
            self.jot(EventKind::FlushAck);
        }
        r
    }

    /// `SFlush`: like `WFlush`, but accompanies an RDMA send — the remote
    /// RNIC must first resolve the destination address from the packet.
    pub async fn sflush(&self, probe: MemTarget) -> RdmaResult<()> {
        let _span = self.flush_span();
        self.jot(EventKind::FlushIssue);
        let r = match self.imp {
            FlushImpl::Emulated => {
                // The paper waits `sleep(0)` (~7 us, conservative) for the
                // address lookup, then forces the flush with a read. The
                // lookup is remote-RNIC work, so it counts as NIC time in
                // the breakdown.
                {
                    let _nic = self.remote_nic_span();
                    self.qp.local().handle().sleep(SFLUSH_ADDRESSING).await;
                }
                self.qp.read_synthetic(probe, 1).await
            }
            FlushImpl::HardwareNative => {
                // On-NIC address resolution is a table lookup: charge a
                // small fraction of the emulated stall.
                self.native_flush(SFLUSH_ADDRESSING / 16).await
            }
        };
        if r.is_ok() {
            self.jot(EventKind::FlushAck);
        }
        r
    }

    /// The modeled native flush verb: a header-sized command to the remote
    /// RNIC, which drains posted DMA writes and ACKs.
    async fn native_flush(&self, remote_extra: SimDuration) -> RdmaResult<()> {
        let qp = &self.qp;
        qp.remote().check_up()?;
        qp.local().handle().sleep(POST_ONESIDED).await;
        // Flush command on the wire (header only).
        qp.flush_command().await?;
        if remote_extra > SimDuration::ZERO {
            let _nic = self.remote_nic_span();
            qp.local().handle().sleep(remote_extra).await;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prdma_node::{Cluster, ClusterConfig};
    use prdma_rnic::{Payload, QpMode};
    use prdma_simnet::Sim;

    fn setup(sim: &Sim) -> (Qp, Qp, Cluster) {
        let cluster = Cluster::new(sim.handle(), ClusterConfig::with_nodes(2));
        let (qc, qs) = cluster.connect(1, 0, QpMode::Rc);
        (qc, qs, cluster)
    }

    #[test]
    fn emulated_wflush_guarantees_durability() {
        let mut sim = Sim::new(1);
        let (qc, _qs, cluster) = setup(&sim);
        let pm = cluster.node(0).pm.clone();
        let flush = FlushOps::new(qc.clone(), FlushImpl::Emulated);
        sim.block_on(async move {
            qc.write(MemTarget::Pm(0), Payload::from_bytes(vec![0xAB; 8192]))
                .await
                .unwrap();
            flush.wflush(MemTarget::Pm(8191)).await.unwrap();
            assert!(pm.is_persisted(0, 8192));
            assert_eq!(pm.read_persistent_view(0, 8192), vec![0xAB; 8192]);
        });
    }

    #[test]
    fn native_wflush_guarantees_durability_and_is_faster() {
        let run = |imp: FlushImpl| {
            let mut sim = Sim::new(2);
            let (qc, _qs, cluster) = setup(&sim);
            let pm = cluster.node(0).pm.clone();
            let flush = FlushOps::new(qc.clone(), imp);
            let h = sim.handle();
            sim.block_on(async move {
                qc.write(MemTarget::Pm(0), Payload::from_bytes(vec![1; 4096]))
                    .await
                    .unwrap();
                flush.wflush(MemTarget::Pm(4095)).await.unwrap();
                assert!(pm.is_persisted(0, 4096));
                h.now()
            })
        };
        let t_native = run(FlushImpl::HardwareNative);
        let t_emulated = run(FlushImpl::Emulated);
        assert!(t_native <= t_emulated, "{t_native} > {t_emulated}");
    }

    #[test]
    fn sflush_charges_addressing_latency() {
        let mut sim = Sim::new(3);
        let (qc, _qs, _cluster) = setup(&sim);
        let h = sim.handle();
        let flush = FlushOps::new(qc.clone(), FlushImpl::Emulated);
        let (t_w, t_s) = sim.block_on(async move {
            qc.write(MemTarget::Pm(0), Payload::synthetic(64, 0))
                .await
                .unwrap();
            let t0 = h.now();
            flush.wflush(MemTarget::Pm(63)).await.unwrap();
            let t1 = h.now();
            flush.sflush(MemTarget::Pm(63)).await.unwrap();
            let t2 = h.now();
            (t1 - t0, t2 - t1)
        });
        // SFlush pays ~7us of address-lookup on top of the read trip.
        let extra = t_s.saturating_sub(t_w);
        assert!((6_500..8_500).contains(&extra.as_nanos()), "extra {extra}");
    }
}
