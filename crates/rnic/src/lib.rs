//! # prdma-rnic
//!
//! The RDMA substrate of PRDMA-RS: a discrete-event model of RDMA NICs,
//! queue pairs, and the network fabric, reproducing the hardware behaviours
//! the SC '21 paper's argument rests on:
//!
//! * the RNIC's **volatile SRAM staging buffer** — an RC ACK (sender WC)
//!   fires when data reaches SRAM, *before* it is persistent;
//! * **PCIe posted-write ordering** — an RDMA read drains prior DMA writes,
//!   which is what makes the emulated read-after-write `WFlush` correct;
//! * **DDIO** — when enabled, inbound DMA lands in the volatile LLC and
//!   needs a receiver-CPU `clflush` to become durable;
//! * **RC/UC/UD transports** with their differing completion semantics and
//!   the UD 4 KB MTU (FaSST's limit);
//! * shared links with bandwidth, propagation, and background traffic.
//!
//! ```
//! use prdma_simnet::{Journal, Sim, Tracer};
//! use prdma_pmem::{PmDevice, VolatileMemory};
//! use prdma_rnic::{Fabric, MemTarget, Payload, QpMode, RnicConfig};
//!
//! let mut sim = Sim::new(1);
//! // The paper's testbed: DDIO off. Timing is calibrated, not configured.
//! let fabric = Fabric::new(sim.handle(), RnicConfig::default());
//! // A node's RNIC records into the tracer (and journal, if any) of the
//! // PM device it is built over.
//! let mk = || {
//!     let pm = PmDevice::new(sim.handle(), 1 << 20, Tracer::new(sim.handle()), Journal::off());
//!     (pm, VolatileMemory::new(1 << 20))
//! };
//! let (pm_a, dram_a) = mk();
//! let (pm_b, dram_b) = mk();
//! let a = fabric.add_node(pm_a, dram_a);
//! let b = fabric.add_node(pm_b, dram_b);
//! // No core pool: the client's verb posts sleep their cost.
//! let (client, server) = fabric.connect(a, b, QpMode::Rc, None);
//! sim.block_on(async move {
//!     let token = client
//!         .write(MemTarget::Pm(0), Payload::from_bytes(b"durable".to_vec()))
//!         .await
//!         .unwrap();
//!     assert!(token.wait().await); // resolves at persistence, not at WC
//! });
//! assert_eq!(server.local().pm().read_persistent_view(0, 7), b"durable");
//! ```

#![warn(missing_docs)]

mod config;
mod fabric;
mod nic;
mod payload;
mod qp;

pub use config::RnicConfig;
pub use fabric::{Fabric, NodeId};
pub use nic::{MemTarget, RdmaError, RdmaResult, Rnic};
pub use payload::Payload;
pub use qp::{
    connect, DmaOutcome, PersistToken, Qp, QpMode, RecvCompletion, POST_ONESIDED, UD_MTU,
};
