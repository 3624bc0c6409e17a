//! The responder configuration the experiments vary.
//!
//! Everything else about the RNIC and the fabric is a calibration
//! constant beside the code that reads it (`fabric`, `nic`, `qp`),
//! matched to the paper's testbed (Mellanox ConnectX-4, 40/56 GbE) and
//! its Fig. 20 latency breakdown: a small RC write completes in
//! ~2.5–3 µs round trip; verbs-post software costs are on the order of
//! 100 ns (FaSST/HERD measure 65–100 ns per post); two-sided operations
//! additionally pay recv-WQE fetches (a PCIe read round trip) and CQE
//! delivery DMA on the hardware path, which is what makes DaRPC's RTT
//! roughly twice FaRM's while remaining software-light.

use prdma_simnet::SimDuration;

/// The RNIC settings experiments change.
#[derive(Debug, Clone)]
pub struct RnicConfig {
    /// Whether DDIO routes inbound DMA into the LLC (volatile!) instead of
    /// directly to the memory/PM controller. The paper disables DDIO by
    /// default; we do the same.
    pub ddio: bool,
    /// RDMA packet re-transfer interval after a connection-loss (used by
    /// the failure-recovery experiments; the paper cites 100 ms).
    pub retransfer_interval: SimDuration,
}

impl Default for RnicConfig {
    fn default() -> Self {
        RnicConfig {
            ddio: false,
            retransfer_interval: SimDuration::from_millis(100),
        }
    }
}

impl RnicConfig {
    /// The testbed with DDIO enabled (Section 4.4.2 case study).
    pub fn with_ddio() -> Self {
        RnicConfig {
            ddio: true,
            ..Self::default()
        }
    }
}
