//! Volatile DRAM model: instant byte access, contents lost on crash.
//!
//! Used for message buffers and application memory on nodes. Timing of DMA
//! into DRAM is accounted by the RNIC's PCIe model; the store itself is
//! free (DRAM bandwidth is never the bottleneck in these experiments).

use std::cell::Cell;
use std::cell::RefCell;
use std::rc::Rc;

use crate::sparse::SparseBytes;

/// A byte-addressable volatile memory.
#[derive(Clone)]
pub struct VolatileMemory {
    bytes: Rc<RefCell<SparseBytes>>,
    epoch: Rc<Cell<u64>>,
}

impl VolatileMemory {
    /// A zeroed memory of `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        VolatileMemory {
            bytes: Rc::new(RefCell::new(SparseBytes::new(capacity))),
            epoch: Rc::new(Cell::new(0)),
        }
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.bytes.borrow().len()
    }

    /// Write `data` at `addr`.
    ///
    /// # Panics
    /// Panics on out-of-bounds access (volatile buffers are sized by the
    /// protocol code that owns them).
    pub fn write(&self, addr: u64, data: &[u8]) {
        self.bytes.borrow_mut().write(addr, data);
    }

    /// Read `len` bytes at `addr`.
    ///
    /// # Panics
    /// Panics on out-of-bounds access, like [`write`](Self::write).
    pub fn read(&self, addr: u64, len: u64) -> Vec<u8> {
        self.bytes.borrow().read(addr, len)
    }

    /// Crash: contents zeroed, epoch bumped (readers can detect loss).
    pub fn crash(&self) {
        self.bytes.borrow_mut().clear();
        self.epoch.set(self.epoch.get() + 1);
    }

    /// Number of crashes this memory has been through.
    pub fn epoch(&self) -> u64 {
        self.epoch.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_roundtrip() {
        let m = VolatileMemory::new(1024);
        m.write(100, b"abc");
        assert_eq!(m.read(100, 3), b"abc");
    }

    #[test]
    fn crash_zeroes_and_bumps_epoch() {
        let m = VolatileMemory::new(64);
        m.write(0, b"x");
        m.crash();
        assert_eq!(m.read(0, 1), vec![0]);
        assert_eq!(m.epoch(), 1);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_write_panics() {
        VolatileMemory::new(8).write(7, b"ab");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_read_with_wrapping_end_panics() {
        VolatileMemory::new(8).read(u64::MAX, 2);
    }

    #[test]
    fn crash_costs_the_pages_written_not_the_capacity() {
        let m = VolatileMemory::new(64 << 20);
        m.write(5 << 20, &[0xAB; 100]);
        let held = |m: &VolatileMemory| {
            let bytes = m.bytes.borrow();
            (bytes.materialised_pages(), bytes.materialised_lines())
        };
        assert_eq!(held(&m), (1, 2), "one page, two 64 B lines");
        m.crash();
        assert_eq!(held(&m), (0, 0));
        assert_eq!(m.read(5 << 20, 100), vec![0; 100]);
        assert_eq!(m.capacity(), 64 << 20);
    }
}
