//! Page-granular sparse byte store behind the simulated PM media and DRAM.
//!
//! A node models a 256 MiB PM image and 64 MiB of DRAM but touches a few
//! MiB of either, so the store materialises a 4 KiB page on first write,
//! reads holes as zeros and drops every page on `clear`. The page table is
//! flat (8 bytes per page); page-sized chunks keep a scattered 8-byte
//! write to one page of host memory. See DESIGN.md §19.

const PAGE: usize = 4096;

pub(crate) struct SparseBytes {
    len: u64,
    pages: Vec<Option<Box<[u8; PAGE]>>>,
}

impl SparseBytes {
    /// `len` zero bytes, none of them materialised.
    pub(crate) fn new(len: u64) -> Self {
        SparseBytes {
            len,
            pages: vec![None; (len as usize).div_ceil(PAGE)],
        }
    }

    pub(crate) fn len(&self) -> u64 {
        self.len
    }

    fn check(&self, addr: u64, len: u64) {
        assert!(
            addr.checked_add(len).is_some_and(|end| end <= self.len),
            "access out of bounds: [{addr}, {addr}+{len}) beyond {}",
            self.len
        );
    }

    /// Copy `data` in at `addr`.
    ///
    /// # Panics
    /// Panics when `[addr, addr + data.len())` is not inside the store.
    pub(crate) fn write(&mut self, addr: u64, data: &[u8]) {
        self.check(addr, data.len() as u64);
        let (mut page, mut at) = (addr as usize / PAGE, addr as usize % PAGE);
        let mut rest = data;
        while !rest.is_empty() {
            let (head, tail) = rest.split_at(rest.len().min(PAGE - at));
            let p = self.pages[page].get_or_insert_with(|| Box::new([0; PAGE]));
            p[at..at + head.len()].copy_from_slice(head);
            (page, at, rest) = (page + 1, 0, tail);
        }
    }

    /// The `len` bytes at `addr`; a never-written byte reads as zero.
    ///
    /// # Panics
    /// Panics when `[addr, addr + len)` is not inside the store.
    pub(crate) fn read(&self, addr: u64, len: u64) -> Vec<u8> {
        self.check(addr, len);
        let (page, at, len) = (addr as usize / PAGE, addr as usize % PAGE, len as usize);
        if at + len <= PAGE {
            // `get`: a zero-length read at the very end indexes one past.
            return match self.pages.get(page) {
                Some(Some(p)) => p[at..at + len].to_vec(),
                _ => vec![0; len],
            };
        }
        let mut out = vec![0; len];
        self.read_into(addr, &mut out);
        out
    }

    /// Fill `out` with the bytes at `addr` (holes as zeros).
    ///
    /// # Panics
    /// Panics when `[addr, addr + out.len())` is not inside the store.
    pub(crate) fn read_into(&self, addr: u64, out: &mut [u8]) {
        self.check(addr, out.len() as u64);
        let (mut page, mut at) = (addr as usize / PAGE, addr as usize % PAGE);
        let mut rest = out;
        while !rest.is_empty() {
            let (head, tail) = rest.split_at_mut(rest.len().min(PAGE - at));
            match &self.pages[page] {
                Some(p) => head.copy_from_slice(&p[at..at + head.len()]),
                None => head.fill(0),
            }
            (page, at, rest) = (page + 1, 0, tail);
        }
    }

    /// Back to all zeros: frees the pages written and writes to no other
    /// table entry, so an untouched stretch of the table stays untouched.
    pub(crate) fn clear(&mut self) {
        for p in self.pages.iter_mut().filter(|p| p.is_some()) {
            *p = None;
        }
    }

    #[cfg(test)]
    pub(crate) fn materialised_pages(&self) -> usize {
        self.pages.iter().flatten().count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prdma_simnet::rng::SmallRng;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Length of the stores under test: eight pages and a bit, so the last
    /// page is partial and every op lands near some boundary.
    const LEN: u64 = 8 * PAGE as u64 + 123;

    /// One seeded run of random ops against a plain `Vec<u8>`.
    fn differential(seed: u64) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut sparse = SparseBytes::new(LEN);
        let mut plain = vec![0u8; LEN as usize];
        for _ in 0..2_000 {
            // Up to a bit over two pages, so an op straddles 1-3 pages;
            // one in eight is zero-length.
            let len = match rng.gen_range(0..8u64) {
                0 => 0,
                _ => rng.gen_range(1..=2 * PAGE as u64 + 7),
            }
            .min(LEN);
            let addr = rng.gen_range(0..=LEN - len);
            match rng.gen_range(0..16u64) {
                0 => {
                    sparse.clear();
                    plain.fill(0);
                    assert_eq!(sparse.materialised_pages(), 0);
                }
                1..=8 => {
                    let data: Vec<u8> = (0..len).map(|_| rng.gen::<u64>() as u8).collect();
                    sparse.write(addr, &data);
                    plain[addr as usize..(addr + len) as usize].copy_from_slice(&data);
                }
                _ => assert_eq!(
                    sparse.read(addr, len),
                    plain[addr as usize..(addr + len) as usize],
                    "read({addr}, {len})"
                ),
            }
        }
        assert_eq!(sparse.read(0, LEN), plain, "whole image");
    }

    #[test]
    fn matches_a_plain_vec_under_random_ops() {
        for seed in 0..32 {
            if catch_unwind(|| differential(seed)).is_err() {
                panic!("SparseBytes diverged from Vec<u8>: replay with differential({seed})");
            }
        }
    }

    #[test]
    fn edges_and_out_of_bounds() {
        let mut s = SparseBytes::new(LEN);
        s.write(LEN - 1, &[7]);
        assert_eq!(s.read(LEN - 1, 1), [7]);
        assert_eq!(s.read(LEN - 2, 2), [0, 7]);
        // Zero-length ops are in bounds up to and including `len`.
        s.write(LEN, &[]);
        assert_eq!(s.read(LEN, 0), []);
        assert_eq!(
            SparseBytes::new(2 * PAGE as u64).read(2 * PAGE as u64, 0),
            []
        );
        for (addr, len) in [
            (LEN, 1),
            (LEN - 1, 2),
            (LEN + 1, 0),
            (u64::MAX, 2),
            (2, u64::MAX),
        ] {
            let read = catch_unwind(AssertUnwindSafe(|| s.read(addr, len)));
            assert!(read.is_err(), "read({addr}, {len}) must panic");
        }
        let write = catch_unwind(AssertUnwindSafe(|| s.write(LEN - 1, &[1, 2])));
        assert!(write.is_err(), "write past the end must panic");
        assert_eq!(s.read(LEN - 1, 1), [7], "a refused write leaves no bytes");
    }

    #[test]
    fn pages_follow_writes() {
        let mut s = SparseBytes::new(64 << 20);
        assert_eq!(s.materialised_pages(), 0);
        assert_eq!(s.read(12345, 3 * PAGE as u64), vec![0; 3 * PAGE]);
        assert_eq!(s.materialised_pages(), 0, "reads materialise nothing");
        s.write(PAGE as u64 - 1, &[1, 2]);
        assert_eq!(s.materialised_pages(), 2);
        s.clear();
        assert_eq!(s.materialised_pages(), 0);
        assert_eq!(s.read(PAGE as u64 - 1, 2), [0, 0]);
    }
}
