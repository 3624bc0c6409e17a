//! DAX-style region allocation over a [`PmDevice`](crate::PmDevice).
//!
//! Mirrors how the paper's testbed manages Optane DCPMM through the DAX
//! interface: applications carve named, aligned regions out of the device
//! and address them by offset.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use crate::device::PmDevice;

/// A named, contiguous slice of persistent memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PmRegion {
    /// Byte offset of the region on the device.
    pub offset: u64,
    /// Region length in bytes.
    pub len: u64,
}

impl PmRegion {
    /// Address of byte `idx` within the region.
    ///
    /// # Panics
    /// Panics if `idx >= len` (regions are bounds-checked at the API edge
    /// so protocol code can't silently scribble on a neighbour).
    #[inline]
    pub fn addr(&self, idx: u64) -> u64 {
        assert!(idx < self.len, "region index {idx} out of {}", self.len);
        self.offset + idx
    }
}

/// Errors raised by the allocator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllocError {
    /// Not enough space left on the device.
    OutOfSpace {
        /// Requested bytes.
        requested: u64,
        /// Remaining bytes.
        available: u64,
    },
    /// A region with this name already exists.
    NameTaken(String),
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::OutOfSpace {
                requested,
                available,
            } => write!(
                f,
                "PM out of space: requested {requested}, available {available}"
            ),
            AllocError::NameTaken(n) => write!(f, "PM region name already taken: {n}"),
        }
    }
}

impl std::error::Error for AllocError {}

struct AllocState {
    next: u64,
    capacity: u64,
    by_name: HashMap<String, PmRegion>,
}

/// A bump allocator handing out named regions; names survive lookups after
/// a crash (allocation metadata is considered persistent, as DAX namespaces
/// are).
#[derive(Clone)]
pub struct DaxAllocator {
    state: Rc<RefCell<AllocState>>,
}

impl DaxAllocator {
    /// An allocator covering the whole device.
    pub fn new(device: &PmDevice) -> Self {
        DaxAllocator {
            state: Rc::new(RefCell::new(AllocState {
                next: 0,
                capacity: device.capacity(),
                by_name: HashMap::new(),
            })),
        }
    }

    /// Allocate `len` bytes aligned to `align` under `name`.
    pub fn alloc(&self, name: &str, len: u64, align: u64) -> Result<PmRegion, AllocError> {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let mut st = self.state.borrow_mut();
        if st.by_name.contains_key(name) {
            return Err(AllocError::NameTaken(name.to_string()));
        }
        let offset = (st.next + align - 1) & !(align - 1);
        let end = offset.checked_add(len).ok_or(AllocError::OutOfSpace {
            requested: len,
            available: st.capacity.saturating_sub(st.next),
        })?;
        if end > st.capacity {
            return Err(AllocError::OutOfSpace {
                requested: len,
                available: st.capacity - st.next,
            });
        }
        let region = PmRegion { offset, len };
        st.next = end;
        st.by_name.insert(name.to_string(), region);
        Ok(region)
    }

    /// Look up a previously allocated region (crash-recovery path).
    pub fn lookup(&self, name: &str) -> Option<PmRegion> {
        self.state.borrow().by_name.get(name).copied()
    }

    /// Bytes not yet allocated.
    pub fn remaining(&self) -> u64 {
        let st = self.state.borrow();
        st.capacity - st.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prdma_simnet::Sim;

    fn alloc_fixture() -> DaxAllocator {
        let sim = Sim::new(1);
        let tracer = prdma_simnet::Tracer::new(sim.handle());
        let pm = PmDevice::new(sim.handle(), 4096, tracer, prdma_simnet::Journal::off());
        DaxAllocator::new(&pm)
    }

    #[test]
    fn alloc_is_aligned_and_disjoint() {
        let a = alloc_fixture();
        let r1 = a.alloc("log", 100, 64).unwrap();
        let r2 = a.alloc("data", 100, 64).unwrap();
        assert_eq!(r1.offset % 64, 0);
        assert_eq!(r2.offset % 64, 0);
        assert!(r1.offset + r1.len <= r2.offset);
    }

    #[test]
    fn lookup_by_name() {
        let a = alloc_fixture();
        let r = a.alloc("meta", 64, 8).unwrap();
        assert_eq!(a.lookup("meta"), Some(r));
        assert_eq!(a.lookup("nope"), None);
    }

    #[test]
    fn duplicate_names_rejected() {
        let a = alloc_fixture();
        a.alloc("x", 8, 8).unwrap();
        assert_eq!(
            a.alloc("x", 8, 8),
            Err(AllocError::NameTaken("x".to_string()))
        );
    }

    #[test]
    fn out_of_space_rejected() {
        let a = alloc_fixture();
        a.alloc("big", 4000, 8).unwrap();
        assert!(matches!(
            a.alloc("more", 200, 8),
            Err(AllocError::OutOfSpace { .. })
        ));
        assert!(a.remaining() < 200);
    }

    #[test]
    fn region_addr_bounds_checked() {
        let a = alloc_fixture();
        let r = a.alloc("r", 16, 8).unwrap();
        assert_eq!(r.addr(0), r.offset);
        assert_eq!(r.addr(15), r.offset + 15);
        let res = std::panic::catch_unwind(|| r.addr(16));
        assert!(res.is_err());
    }
}
