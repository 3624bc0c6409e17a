//! Line-granular sparse byte store behind the simulated PM media and DRAM.
//!
//! A node models a 256 MiB PM image and 64 MiB of DRAM but writes a few
//! MiB of either, and much of that as scattered words — a 40-byte log
//! header and an 8-byte commit word per 1 KiB log slot. So the store
//! materialises a 64-byte line on first write, reads holes as zeros and
//! frees every line on `clear`. Lookup is two levels: an index with one
//! 4-byte entry per 4 KiB page of address space, naming the page's
//! directory; the directory names the page's 64 lines. The index comes in
//! 4 KiB blocks allocated when a page they cover is first written, so
//! nothing is sized by the store's length but a pointer per block;
//! directories and lines are slots of one [`Slab`] type. See DESIGN.md
//! §19.

use crate::slab::Slab;

const PAGE: usize = 4096;
const LINE: usize = 64;
const LINES_PER_PAGE: usize = PAGE / LINE;
/// Pages one index block covers (4 MiB of address space).
const BLOCK_PAGES: usize = 1024;

/// How many of the lines `dir[i ..]` — at most `max` — sit in consecutive
/// slots of one chunk of `lines`, so their bytes are one slice. A page's
/// lines materialised by one write are, unless a chunk ends among them.
fn run_len(lines: &Slab<u8>, dir: &[u32], i: usize, max: usize) -> usize {
    let first = dir[i];
    let max = max.min(lines.chunk_left(first - 1));
    1 + (1..max)
        .take_while(|&k| dir[i + k] == first + k as u32)
        .count()
}

/// `directory slot + 1` for each page of a block; 0 for a page never
/// written.
type Block = [u32; BLOCK_PAGES];

pub(crate) struct SparseBytes {
    len: u64,
    /// The index, block by block; `None` where no page was written.
    blocks: Vec<Option<Box<Block>>>,
    /// Directories: `line slot + 1` (0: never written) for each line of
    /// the page.
    dirs: Slab<u32>,
    lines: Slab<u8>,
}

impl SparseBytes {
    /// `len` zero bytes, none of them materialised.
    pub(crate) fn new(len: u64) -> Self {
        let pages = (len as usize).div_ceil(PAGE);
        assert!(
            pages < u32::MAX as usize,
            "store of {len} B exceeds the page index"
        );
        SparseBytes {
            len,
            blocks: vec![None; pages.div_ceil(BLOCK_PAGES)],
            dirs: Slab::new(LINES_PER_PAGE),
            lines: Slab::new(LINE),
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
        let mut at = addr as usize;
        let mut rest = data;
        while !rest.is_empty() {
            let page = at / PAGE;
            let block =
                self.blocks[page / BLOCK_PAGES].get_or_insert_with(|| Box::new([0; BLOCK_PAGES]));
            let entry = &mut block[page % BLOCK_PAGES];
            if *entry == 0 {
                *entry = self.dirs.alloc() + 1;
            }
            let dir = self.dirs.get_mut(*entry - 1);
            // The page's share of `data`: materialise (zeroed) the lines it
            // covers that were never written, then copy run by run.
            let (mut head, tail) = rest.split_at(rest.len().min(PAGE - at % PAGE));
            rest = tail;
            let (mut i, last) = (at % PAGE / LINE, (at % PAGE + head.len() - 1) / LINE);
            for entry in &mut dir[i..=last] {
                if *entry == 0 {
                    *entry = self.lines.alloc() + 1;
                }
            }
            while !head.is_empty() {
                let k = run_len(&self.lines, dir, i, last + 1 - i);
                let off = at % LINE;
                let (bytes, more) = head.split_at(head.len().min(k * LINE - off));
                self.lines.run_mut(dir[i] - 1, k)[off..off + bytes.len()].copy_from_slice(bytes);
                (at, head, i) = (at + bytes.len(), more, i + k);
            }
        }
    }

    /// The `len` bytes at `addr`; a never-written byte reads as zero.
    ///
    /// # Panics
    /// Panics when `[addr, addr + len)` is not inside the store.
    pub(crate) fn read(&self, addr: u64, len: u64) -> Vec<u8> {
        self.check(addr, len);
        let mut out = Vec::with_capacity(len as usize);
        self.walk(addr as usize, len as usize, |bytes, n| match bytes {
            Some(bytes) => out.extend_from_slice(bytes),
            None => out.resize(out.len() + n, 0),
        });
        out
    }

    /// Fill `out` with the bytes at `addr` (holes as zeros).
    ///
    /// # Panics
    /// Panics when `[addr, addr + out.len())` is not inside the store.
    pub(crate) fn read_into(&self, addr: u64, out: &mut [u8]) {
        self.check(addr, out.len() as u64);
        let (at, off) = (addr as usize, addr as usize % LINE);
        if off + out.len() <= LINE {
            // Inside one line — a header, a commit word, a line fill.
            match self.line(at) {
                Some(line) => out.copy_from_slice(&line[off..off + out.len()]),
                None => out.fill(0),
            }
            return;
        }
        let mut rest = &mut *out;
        self.walk(addr as usize, rest.len(), |bytes, n| {
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(n);
            match bytes {
                Some(bytes) => head.copy_from_slice(bytes),
                None => head.fill(0),
            }
            rest = tail;
        });
    }

    /// The line holding byte `at`, if it was written.
    #[inline]
    fn line(&self, at: usize) -> Option<&[u8]> {
        let page = at / PAGE;
        let dir = self.blocks[page / BLOCK_PAGES].as_ref()?[page % BLOCK_PAGES].checked_sub(1)?;
        let slot = self.dirs.get(dir)[at % PAGE / LINE].checked_sub(1)?;
        Some(self.lines.get(slot))
    }

    /// Hand `piece` the bytes of `[at, at + len)` in address order: each
    /// written line's share as `Some(bytes)`, each run of hole — unwritten
    /// lines and pages, however many in a row — as `None` with its length.
    #[inline]
    fn walk(&self, mut at: usize, len: usize, mut piece: impl FnMut(Option<&[u8]>, usize)) {
        let end = at + len;
        let mut hole = 0;
        while at < end {
            let page = at / PAGE;
            let page_end = end.min((page + 1) * PAGE);
            let dir = match &self.blocks[page / BLOCK_PAGES] {
                Some(block) => block[page % BLOCK_PAGES],
                None => 0,
            };
            if dir == 0 {
                hole += page_end - at;
                at = page_end;
                continue;
            }
            let dir = self.dirs.get(dir - 1);
            while at < page_end {
                let i = at % PAGE / LINE;
                if dir[i] == 0 {
                    let n = page_end.min((at / LINE + 1) * LINE) - at;
                    (hole, at) = (hole + n, at + n);
                    continue;
                }
                if hole > 0 {
                    piece(None, hole);
                    hole = 0;
                }
                let k = run_len(&self.lines, dir, i, (page_end - 1) % PAGE / LINE + 1 - i);
                let n = page_end.min((at / LINE + k) * LINE) - at;
                piece(Some(&self.lines.run(dir[i] - 1, k)[at % LINE..][..n]), n);
                at += n;
            }
        }
        if hole > 0 {
            piece(None, hole);
        }
    }

    /// Back to all zeros: frees every line, directory and index block.
    /// The blocks are one pointer per 4 MiB of address space, so only the
    /// ones that exist are touched.
    pub(crate) fn clear(&mut self) {
        for block in self.blocks.iter_mut().filter(|b| b.is_some()) {
            *block = None;
        }
        self.dirs.clear();
        self.lines.clear();
    }

    /// Pages with at least one line written.
    #[cfg(test)]
    pub(crate) fn materialised_pages(&self) -> usize {
        self.dirs.len()
    }

    /// Lines written.
    #[cfg(test)]
    pub(crate) fn materialised_lines(&self) -> usize {
        self.lines.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prdma_simnet::rng::SmallRng;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Length of the stores under test: two index blocks and forty pages
    /// and a bit, so there are two block seams and the last page is
    /// partial.
    const LEN: u64 = (2 * BLOCK_PAGES + 40) as u64 * PAGE as u64 + 123;
    const BLOCK: u64 = (BLOCK_PAGES * PAGE) as u64;
    /// Ops fall within this many bytes of the start, a block seam or the
    /// end, so they meet and a run fills several slab chunks of
    /// directories (16 to a chunk) and of lines (64 to a chunk).
    const NEAR: u64 = 24 * PAGE as u64;

    /// One seeded run of random ops against a plain `Vec<u8>`. Returns the
    /// most pages, lines and index blocks the store held at once.
    fn differential(seed: u64) -> (usize, usize, usize) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut sparse = SparseBytes::new(LEN);
        let mut plain = vec![0u8; LEN as usize];
        let mut peak = (0, 0, 0);
        for _ in 0..2_000 {
            // Up to a bit over two pages, so an op straddles 1-3 pages and
            // up to 130 lines; one in eight is zero-length.
            let len = match rng.gen_range(0..8u64) {
                0 => 0,
                1..=3 => rng.gen_range(1..=2 * LINE as u64 + 3),
                4..=5 => rng.gen_range(1..=(PAGE + LINE) as u64),
                _ => rng.gen_range(1..=2 * PAGE as u64 + 7),
            }
            .min(LEN);
            // Start just before a line, page or block seam, or anywhere,
            // near one of the store's ends or block seams.
            let near = [0, BLOCK, 2 * BLOCK, LEN][rng.gen_range(0..4usize)];
            let at = (near + rng.gen_range(0..=2 * NEAR)).saturating_sub(NEAR);
            let seam = match rng.gen_range(0..4u64) {
                0 => at / LINE as u64 * LINE as u64,
                1 => at / PAGE as u64 * PAGE as u64,
                2 => near,
                _ => at,
            };
            let addr = seam
                .saturating_sub(rng.gen_range(0..=len.min(80)))
                .min(LEN - len);
            match rng.gen_range(0..64u64) {
                0 => {
                    sparse.clear();
                    plain.fill(0);
                    assert_eq!(sparse.materialised_pages(), 0);
                    assert_eq!(sparse.materialised_lines(), 0);
                    assert!(sparse.blocks.iter().all(Option::is_none), "index freed");
                }
                1..=32 => {
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
            peak.0 = peak.0.max(sparse.materialised_pages());
            peak.1 = peak.1.max(sparse.materialised_lines());
            peak.2 = peak.2.max(sparse.blocks.iter().flatten().count());
        }
        assert_eq!(sparse.read(0, LEN), plain, "whole image");
        peak
    }

    #[test]
    fn matches_a_plain_vec_under_random_ops() {
        let (mut pages, mut lines, mut blocks) = (0, 0, 0);
        for seed in 0..32 {
            match catch_unwind(|| differential(seed)) {
                Ok(peak) => {
                    (pages, lines) = (pages.max(peak.0), lines.max(peak.1));
                    blocks = blocks.max(peak.2);
                }
                Err(_) => {
                    panic!("SparseBytes diverged from Vec<u8>: replay with differential({seed})")
                }
            }
        }
        assert!(
            pages > 2 * 16,
            "directories spanned 3+ slab chunks ({pages})"
        );
        assert!(lines > 2 * 64, "lines spanned 3+ slab chunks ({lines})");
        assert!(blocks == 3, "every index block was written ({blocks})");
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
        assert_eq!((s.materialised_pages(), s.materialised_lines()), (1, 1));
    }

    #[test]
    fn pages_follow_writes() {
        let mut s = SparseBytes::new(64 << 20);
        assert_eq!(s.materialised_pages(), 0);
        assert_eq!(s.read(12345, 3 * PAGE as u64), vec![0; 3 * PAGE]);
        assert_eq!(s.materialised_pages(), 0, "reads materialise nothing");
        s.write(PAGE as u64 - 1, &[1, 2]);
        assert_eq!((s.materialised_pages(), s.materialised_lines()), (2, 2));
        // A word inside a written line adds nothing; one in a new line of
        // the same page adds a line, not a page.
        s.write(PAGE as u64 + 8, &[3; 8]);
        s.write(PAGE as u64 + 3 * LINE as u64, &[4; 8]);
        assert_eq!((s.materialised_pages(), s.materialised_lines()), (2, 3));
        assert_eq!(s.read(PAGE as u64 - 1, 10), [1, 2, 0, 0, 0, 0, 0, 0, 0, 3]);
        s.clear();
        assert_eq!((s.materialised_pages(), s.materialised_lines()), (0, 0));
        assert_eq!(s.read(PAGE as u64 - 1, 2), [0, 0]);
    }

    #[test]
    fn a_log_ring_materialises_its_headers_and_commit_words_only() {
        // The redo-log shape: 512 slots of 1 080 B after the ring's 64 B
        // header; per slot a 40 B entry header, its 8 B done mark and an
        // 8 B commit word at a payload-dependent offset.
        const SLOTS: u64 = 512;
        const SLOT: u64 = 1080;
        let mut s = SparseBytes::new(1 << 20);
        let base = 64;
        for i in 0..SLOTS {
            let slot = base + i * SLOT;
            s.write(slot, &[0xAB; 40]);
            s.write(slot + 32, &[0xCD; 8]);
            let commit = 40 + [64, 520, 1032][i as usize % 3];
            s.write(slot + commit, &i.to_le_bytes());
        }
        let lines = s.materialised_lines() as u64;
        assert!(lines <= 3 * SLOTS, "{lines} lines for {SLOTS} slots");
        assert!(s.materialised_pages() as u64 <= (SLOTS * SLOT).div_ceil(PAGE as u64) + 1);
        let slot = base + 7 * SLOT;
        assert_eq!(s.read(slot + 40, 8), [0; 8], "an unwritten body reads zero");
        assert_eq!(s.read(slot + 40 + 520, 8), 7u64.to_le_bytes());
        s.clear();
        assert_eq!((s.materialised_pages(), s.materialised_lines()), (0, 0));
        assert_eq!(s.read(slot, 40), [0; 40]);
    }
}
