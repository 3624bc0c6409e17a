//! A small, deterministic, dependency-free PRNG.
//!
//! The simulator must produce bit-identical runs from identical seeds on
//! every platform and build offline, so instead of the external `rand`
//! crate this module provides xoshiro256++ (Blackman & Vigna) seeded via
//! SplitMix64 — the same construction `rand`'s `SmallRng` used on 64-bit
//! targets — behind a API-compatible subset: [`SmallRng::seed_from_u64`],
//! [`SmallRng::gen`], [`SmallRng::gen_range`], and [`SmallRng::gen_bool`].
//!
//! The SplitMix64 finalizer [`mix64`] is also the workspace's one `u64`
//! hash: [`IdMap`] and [`IdSet`] key hash tables by it under a fixed
//! [`Mix64Hasher`].

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::{Range, RangeInclusive};

/// A fast, seedable, non-cryptographic PRNG (xoshiro256++).
#[derive(Debug, Clone)]
pub struct SmallRng {
    s: [u64; 4],
}

/// SplitMix64 finalizer: a well-mixed 64-bit permutation.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    mix64(*state)
}

/// Hashes one `u64` key with [`mix64`]. No per-process seed
/// (`RandomState`), so a table's layout repeats from run to run; the keys
/// are the simulation's own ids and addresses, never outside input, so
/// nothing can craft collisions.
#[derive(Default)]
pub struct Mix64Hasher(u64);

impl Hasher for Mix64Hasher {
    fn write_u64(&mut self, key: u64) {
        self.0 = mix64(key);
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("IdMap keys are u64");
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// O(1) map from a `u64` id to `V` under the fixed [`Mix64Hasher`].
pub type IdMap<V> = HashMap<u64, V, BuildHasherDefault<Mix64Hasher>>;

/// O(1) set of `u64` ids under the fixed [`Mix64Hasher`].
pub type IdSet = HashSet<u64, BuildHasherDefault<Mix64Hasher>>;

impl SmallRng {
    /// Seed the generator from a single `u64` (SplitMix64 expansion, so
    /// nearby seeds still give uncorrelated streams).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SmallRng { s }
    }

    /// The next raw 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Draw a uniformly distributed value of type `T`.
    #[inline]
    pub fn gen<T: RandValue>(&mut self) -> T {
        T::from_rng(self)
    }

    /// Draw a value uniformly from `range` (half-open or inclusive).
    #[inline]
    pub fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_from(self)
    }

    /// Bernoulli draw: `true` with probability `p`.
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen::<f64>() < p
    }

    /// A uniform `u64` in `[0, bound)` without modulo bias
    /// (Lemire's multiply-shift rejection method).
    #[inline]
    fn bounded_u64(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let low = m as u64;
            if low >= bound || low >= low.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }
}

/// Types drawable uniformly via [`SmallRng::gen`].
pub trait RandValue {
    /// Draw one value.
    fn from_rng(rng: &mut SmallRng) -> Self;
}

impl RandValue for u64 {
    #[inline]
    fn from_rng(rng: &mut SmallRng) -> u64 {
        rng.next_u64()
    }
}

impl RandValue for u32 {
    #[inline]
    fn from_rng(rng: &mut SmallRng) -> u32 {
        (rng.next_u64() >> 32) as u32
    }
}

impl RandValue for usize {
    #[inline]
    fn from_rng(rng: &mut SmallRng) -> usize {
        rng.next_u64() as usize
    }
}

impl RandValue for bool {
    #[inline]
    fn from_rng(rng: &mut SmallRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl RandValue for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    fn from_rng(rng: &mut SmallRng) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Ranges usable with [`SmallRng::gen_range`].
pub trait SampleRange<T> {
    /// Draw one value from the range.
    fn sample_from(self, rng: &mut SmallRng) -> T;
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            #[inline]
            fn sample_from(self, rng: &mut SmallRng) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end - self.start) as u64;
                self.start + rng.bounded_u64(span) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            #[inline]
            fn sample_from(self, rng: &mut SmallRng) -> $t {
                let (lo, hi) = self.into_inner();
                assert!(lo <= hi, "gen_range: empty range");
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo + rng.bounded_u64(span + 1) as $t
            }
        }
    )*};
}

impl_int_range!(u16, u32, u64, usize);

impl SampleRange<f64> for Range<f64> {
    #[inline]
    fn sample_from(self, rng: &mut SmallRng) -> f64 {
        assert!(self.start < self.end, "gen_range: empty range");
        self.start + rng.gen::<f64>() * (self.end - self.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SmallRng::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    /// The seed expansion is SplitMix64 exactly (the reference outputs
    /// for seed 0), so every seeded stream is the one it always was.
    #[test]
    fn seed_expansion_is_the_splitmix64_reference() {
        let s = SmallRng::seed_from_u64(0).s;
        let reference = [
            0xE220_A839_7B1D_CDAF,
            0x6E78_9E6A_A1B9_65F4,
            0x06C4_5D18_8009_454F,
            0xF88B_B8A8_724C_81EC,
        ];
        assert_eq!(s, reference);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SmallRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x: f64 = r.gen();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut r = SmallRng::seed_from_u64(9);
        for _ in 0..10_000 {
            let v = r.gen_range(10u64..20);
            assert!((10..20).contains(&v));
            let w = r.gen_range(1u32..=5);
            assert!((1..=5).contains(&w));
            let f = r.gen_range(1e-12..1.0);
            assert!((1e-12..1.0).contains(&f));
        }
    }

    #[test]
    fn bounded_is_roughly_uniform() {
        let mut r = SmallRng::seed_from_u64(1);
        let mut counts = [0u32; 10];
        let n = 100_000;
        for _ in 0..n {
            counts[r.gen_range(0usize..10)] += 1;
        }
        for c in counts {
            let dev = (c as f64 - n as f64 / 10.0).abs() / (n as f64 / 10.0);
            assert!(dev < 0.05, "bucket deviation {dev}");
        }
    }

    #[test]
    fn gen_bool_tracks_p() {
        let mut r = SmallRng::seed_from_u64(3);
        let hits = (0..100_000).filter(|_| r.gen_bool(0.25)).count();
        let frac = hits as f64 / 100_000.0;
        assert!((frac - 0.25).abs() < 0.01, "frac {frac}");
    }
}
