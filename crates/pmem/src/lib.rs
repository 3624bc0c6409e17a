//! # prdma-pmem
//!
//! Persistent-memory substrate for PRDMA-RS: a simulated byte-addressable
//! PM device with an explicit **persistence domain**, a volatile CPU-cache
//! overlay (the LLC that DDIO routes incoming DMA into), `clflush`-style
//! flushing, Optane-calibrated timing, DAX-style region allocation, and
//! crash semantics (volatile state is lost, persisted bytes survive).
//!
//! The paper's correctness argument hinges on *when* bytes cross into the
//! persistence domain; this crate makes that moment explicit and testable:
//!
//! ```
//! use prdma_simnet::{Sim, Tracer};
//! use prdma_pmem::PmDevice;
//!
//! let mut sim = Sim::new(1);
//! // A 64 KiB device with Optane timing. It records its media time into
//! // its node's tracer, and its persistence-domain commits into the
//! // node's journal when there is one.
//! let tracer = Tracer::new(sim.handle());
//! let pm = PmDevice::new(sim.handle(), 1 << 16, tracer, None);
//! let pm2 = pm.clone();
//! sim.block_on(async move {
//!     // DDIO-style arrival: volatile until flushed.
//!     pm2.cache_write(0, b"payload").unwrap();
//!     assert!(!pm2.is_persisted(0, 7));
//!     pm2.clflush(0, 7).await.unwrap();
//!     assert!(pm2.is_persisted(0, 7));
//! });
//! pm.crash();
//! assert_eq!(pm.read_persistent_view(0, 7), b"payload");
//! ```

#![warn(missing_docs)]

mod device;
mod dram;
mod overlay;
mod region;
mod slab;
mod sparse;

pub use device::{PmDevice, PmError};
pub use dram::VolatileMemory;
pub use region::{AllocError, DaxAllocator, PmRegion};
