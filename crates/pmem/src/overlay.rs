//! The volatile cache overlay of a [`PmDevice`](crate::PmDevice): which
//! cache lines are dirty, and their bytes.
//!
//! Every DMA placement asks "is any line in this range dirty?" and almost
//! always hears no, while the set itself is not small — each completed log
//! slot leaves one never-flushed `STATE_DONE` line behind, thousands per
//! server. So membership is a bitset (one bit per line, tested a 64-line
//! word at a time, walked in ascending line order) and the bytes sit in
//! line-sized slots of a [`Slab`] — the allocator the line store uses too
//! — behind a hash index that only a dirty line ever consults. Nothing is
//! sized by the device and nothing is reallocated as the set grows: the
//! bitset comes in [`CHUNK_LINES`]-line chunks allocated when a line in
//! them is first dirtied, the slab in 4 KiB chunks, and
//! [`clear`](DirtyLines::clear) drops all of it. See DESIGN.md §19.

use prdma_simnet::rng::IdMap;

use crate::slab::Slab;

/// Lines per bitset chunk (512 bytes of bits; 256 KiB of PM at 64-byte
/// lines).
const CHUNK_LINES: u64 = 4096;
const CHUNK_WORDS: usize = (CHUNK_LINES / 64) as usize;

/// The set of dirty cache lines and their contents.
pub(crate) struct DirtyLines {
    /// `bits[c]` covers lines `c * CHUNK_LINES ..`; `None` (or past the
    /// end) means none of them is dirty.
    bits: Vec<Option<Box<[u64; CHUNK_WORDS]>>>,
    /// Line number -> slab slot, for the dirty lines only.
    index: IdMap<u32>,
    /// The dirty lines' bytes, one line-sized slot each.
    slab: Slab<u8>,
}

impl DirtyLines {
    pub(crate) fn new(line: u64) -> Self {
        DirtyLines {
            bits: Vec::new(),
            index: IdMap::default(),
            slab: Slab::new(line as usize),
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    fn word(&self, word: u64) -> u64 {
        let chunk = (word / CHUNK_WORDS as u64) as usize;
        match self.bits.get(chunk) {
            Some(Some(bits)) => bits[word as usize % CHUNK_WORDS],
            _ => 0,
        }
    }

    pub(crate) fn contains(&self, lineno: u64) -> bool {
        self.word(lineno / 64) >> (lineno % 64) & 1 == 1
    }

    /// The lowest dirty line in `from..=last`.
    fn next_in(&self, from: u64, last: u64) -> Option<u64> {
        if self.is_empty() || from > last {
            return None;
        }
        let mut word = from / 64;
        let mut bits = self.word(word) & (!0 << (from % 64));
        loop {
            if bits != 0 {
                let lineno = word * 64 + bits.trailing_zeros() as u64;
                return (lineno <= last).then_some(lineno);
            }
            word += 1;
            if word > last / 64 {
                return None;
            }
            bits = self.word(word);
        }
    }

    fn bytes_of(&self, lineno: u64) -> &[u8] {
        self.slab.get(self.index[&lineno])
    }

    /// The dirty lines in `first..=last` and their bytes, ascending.
    pub(crate) fn in_range(&self, first: u64, last: u64) -> impl Iterator<Item = (u64, &[u8])> {
        let mut from = first;
        std::iter::from_fn(move || {
            let lineno = self.next_in(from, last)?;
            from = lineno + 1;
            Some((lineno, self.bytes_of(lineno)))
        })
    }

    /// Make every dirty line in `first..=last` clean, handing each to
    /// `taken` (ascending) as it goes.
    pub(crate) fn remove_range(
        &mut self,
        first: u64,
        last: u64,
        mut taken: impl FnMut(u64, &[u8]),
    ) {
        let mut from = first;
        while let Some(lineno) = self.next_in(from, last) {
            taken(lineno, self.bytes_of(lineno));
            let slot = self.index.remove(&lineno).expect("a set bit is indexed");
            self.slab.release(slot);
            let bits = self.bits[(lineno / CHUNK_LINES) as usize]
                .as_mut()
                .expect("a set bit has a chunk");
            bits[(lineno % CHUNK_LINES / 64) as usize] &= !(1 << (lineno % 64));
            from = lineno + 1;
        }
    }

    /// The bytes of line `lineno`, dirtying it first — its slot filled by
    /// `fill` — if it was clean.
    pub(crate) fn dirty(&mut self, lineno: u64, fill: impl FnOnce(&mut [u8])) -> &mut [u8] {
        let (slot, fresh) = match self.index.get(&lineno) {
            Some(&slot) => (slot, false),
            None => {
                let slot = self.slab.alloc();
                self.index.insert(lineno, slot);
                let chunk = (lineno / CHUNK_LINES) as usize;
                if self.bits.len() <= chunk {
                    self.bits.resize_with(chunk + 1, || None);
                }
                let bits = self.bits[chunk].get_or_insert_with(|| Box::new([0; CHUNK_WORDS]));
                bits[(lineno % CHUNK_LINES / 64) as usize] |= 1 << (lineno % 64);
                (slot, true)
            }
        };
        let bytes = self.slab.get_mut(slot);
        if fresh {
            fill(bytes);
        }
        bytes
    }

    /// Every line clean, every allocation returned.
    pub(crate) fn clear(&mut self) {
        self.bits = Vec::new();
        self.index = IdMap::default();
        self.slab.clear();
    }
}
