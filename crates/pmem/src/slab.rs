//! Fixed-width slots in fixed-size chunks: the one allocator behind the
//! line store ([`SparseBytes`](crate::sparse::SparseBytes): its page
//! directories and its lines) and the dirty-line overlay
//! ([`DirtyLines`](crate::overlay::DirtyLines): its line bytes).
//!
//! A chunk is about [`CHUNK_BYTES`] and holds a power-of-two number of
//! slots, so a slot number splits into chunk and offset with a shift and a
//! mask. Chunks are allocated as the slab grows and never move: growing
//! costs one chunk, never a copy of everything held so far (a doubling
//! `Vec` would realloc — and transiently double — the whole set).

/// Target chunk size in bytes.
const CHUNK_BYTES: usize = 4096;

/// Slots of `width` elements of `T`, handed out by number.
pub(crate) struct Slab<T> {
    /// Elements per slot.
    width: usize,
    /// log2 of the slots per chunk.
    shift: u32,
    /// Slot `s` is `chunks[s >> shift][(s & mask) * width ..][..width]`.
    chunks: Vec<Box<[T]>>,
    /// Slots ever handed out; the next fresh slot.
    next: u32,
    /// Released slots, handed out again before any fresh one.
    free: Vec<u32>,
}

impl<T: Copy + Default> Slab<T> {
    pub(crate) fn new(width: usize) -> Self {
        assert!(width > 0, "zero-width slab slots");
        let per_chunk = (CHUNK_BYTES / (width * size_of::<T>())).max(1);
        Slab {
            width,
            shift: per_chunk.next_power_of_two().trailing_zeros(),
            chunks: Vec::new(),
            next: 0,
            free: Vec::new(),
        }
    }

    /// Slots in use.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.next as usize - self.free.len()
    }

    /// A slot to use: a released one as it was left, else a fresh one
    /// holding `T::default()`.
    pub(crate) fn alloc(&mut self) -> u32 {
        if let Some(slot) = self.free.pop() {
            return slot;
        }
        let slot = self.next;
        if (slot >> self.shift) as usize == self.chunks.len() {
            let elems = (1 << self.shift) * self.width;
            self.chunks.push(vec![T::default(); elems].into());
        }
        self.next = slot.checked_add(1).expect("slab slot numbers exhausted");
        slot
    }

    /// Hand `slot` back for reuse.
    pub(crate) fn release(&mut self, slot: u32) {
        self.free.push(slot);
    }

    #[inline]
    pub(crate) fn get(&self, slot: u32) -> &[T] {
        self.run(slot, 1)
    }

    #[inline]
    pub(crate) fn get_mut(&mut self, slot: u32) -> &mut [T] {
        self.run_mut(slot, 1)
    }

    /// Slots `slot .. slot + count` as one slice; they must lie in one
    /// chunk (see [`chunk_left`](Self::chunk_left)).
    #[inline]
    pub(crate) fn run(&self, slot: u32, count: usize) -> &[T] {
        let at = (slot as usize & ((1 << self.shift) - 1)) * self.width;
        &self.chunks[(slot >> self.shift) as usize][at..at + count * self.width]
    }

    /// [`run`](Self::run), mutable.
    #[inline]
    pub(crate) fn run_mut(&mut self, slot: u32, count: usize) -> &mut [T] {
        let at = (slot as usize & ((1 << self.shift) - 1)) * self.width;
        &mut self.chunks[(slot >> self.shift) as usize][at..at + count * self.width]
    }

    /// Slots from `slot` to the end of its chunk, `slot` included.
    #[inline]
    pub(crate) fn chunk_left(&self, slot: u32) -> usize {
        (1 << self.shift) - (slot as usize & ((1 << self.shift) - 1))
    }

    /// Empty, every chunk freed.
    pub(crate) fn clear(&mut self) {
        *self = Slab::new(self.width);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn slots_span_chunks_and_are_reused() {
        // 260-byte slots: 15 fit in 4 KiB, rounded up to 16 per chunk.
        let mut s = Slab::<u32>::new(65);
        assert_eq!(1 << s.shift, 16);
        for i in 0..40u32 {
            assert_eq!(s.alloc(), i);
            assert!(s.get(i).iter().all(|&v| v == 0), "fresh slots are zero");
            s.get_mut(i).fill(i + 1);
        }
        assert_eq!((s.chunks.len(), s.len()), (3, 40));
        assert!((0..40).all(|i| s.get(i).iter().all(|&v| v == i + 1)));
        // Slots 14 and 15 end the first chunk; 16 starts the second.
        assert_eq!((s.chunk_left(14), s.chunk_left(16)), (2, 16));
        assert_eq!(s.run(14, 2), [[15; 65], [16; 65]].concat());
        s.run_mut(20, 2).fill(0);
        assert!(s.get(21).iter().all(|&v| v == 0));
        assert!(catch_unwind(AssertUnwindSafe(|| s.run(15, 2).len())).is_err());
        s.release(17);
        assert_eq!(s.len(), 39);
        assert_eq!(s.alloc(), 17, "a released slot comes back first");
        assert_eq!(s.get(17)[0], 18, "as it was left");
        assert_eq!(s.alloc(), 40);
        s.clear();
        assert_eq!((s.chunks.len(), s.len()), (0, 0));
        assert_eq!(s.alloc(), 0);
        assert!(s.get(0).iter().all(|&v| v == 0));
    }

    #[test]
    fn line_slots_are_64_to_a_4k_chunk() {
        let s = Slab::<u8>::new(64);
        assert_eq!(1 << s.shift, 64);
        // A slot wider than a chunk gets a chunk of its own.
        assert_eq!(Slab::<u8>::new(3 * CHUNK_BYTES).shift, 0);
    }
}
