//! Measurement primitives: latency histograms and summary statistics.
//!
//! The histogram uses HDR-style log-linear buckets — 32 orders of magnitude,
//! each split into 64 linear sub-buckets — giving <= 1.6 % relative error at
//! any scale from nanoseconds to hours, with O(1) recording.

use crate::time::SimDuration;

const SUB_BITS: u32 = 6; // 64 sub-buckets per octave
const SUB_COUNT: u64 = 1 << SUB_BITS;

/// A log-linear latency histogram over `u64` nanosecond values.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        // Buckets: values < 64 map linearly; above that, one octave per
        // leading-bit position with 64 sub-buckets each.
        let octaves = 64 - SUB_BITS; // 58 octaves
        Histogram {
            counts: vec![0; (octaves as usize + 1) * SUB_COUNT as usize],
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn index_of(value: u64) -> usize {
        if value < SUB_COUNT {
            return value as usize;
        }
        let msb = 63 - value.leading_zeros() as u64; // >= SUB_BITS
        let octave = msb - SUB_BITS as u64;
        let sub = (value >> octave) - SUB_COUNT; // in [0, SUB_COUNT)
        (octave * SUB_COUNT + SUB_COUNT + sub) as usize
    }

    fn bucket_low(index: usize) -> u64 {
        let index = index as u64;
        if index < SUB_COUNT {
            return index;
        }
        let octave = index / SUB_COUNT - 1;
        let sub = index % SUB_COUNT;
        (SUB_COUNT + sub) << octave
    }

    /// Record one raw value.
    pub fn record(&mut self, value: u64) {
        let idx = Self::index_of(value);
        self.counts[idx] += 1;
        self.total += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Record a duration (as nanoseconds).
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_nanos());
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Arithmetic mean of the samples, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Smallest recorded value (0 if empty).
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Midpoint of the bucket at `index`, the unbiased representative of
    /// its `[low, low + width)` value range. Sub-buckets below `SUB_COUNT`
    /// hold a single value, so their midpoint is that value.
    fn bucket_mid(index: usize) -> u64 {
        let low = Self::bucket_low(index);
        if (index as u64) < SUB_COUNT {
            return low;
        }
        let octave = index as u64 / SUB_COUNT - 1;
        let width = 1u64 << octave;
        low.saturating_add(width / 2)
    }

    /// Value at quantile `q` in [0, 1]; midpoint of the matching bucket,
    /// clamped to the observed `[min, max]` so single-bucket and tail
    /// quantiles never report values that were not recorded. Returns 0
    /// for an empty histogram.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            seen += c;
            if seen >= rank {
                return Self::bucket_mid(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        if other.total > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// Back to empty in place, keeping the bucket storage: only the
    /// buckets from the smallest to the largest recorded value can be
    /// non-zero, and only they are zeroed.
    pub fn reset(&mut self) {
        if self.total > 0 {
            let (lo, hi) = (Self::index_of(self.min), Self::index_of(self.max));
            self.counts[lo..=hi].fill(0);
        }
        self.total = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }

    /// A compact summary of this histogram (values in nanoseconds).
    pub fn summary(&self) -> Summary {
        Summary {
            count: self.total,
            mean_ns: self.mean(),
            min_ns: self.min(),
            p50_ns: self.percentile(0.50),
            p95_ns: self.percentile(0.95),
            p99_ns: self.percentile(0.99),
            p999_ns: self.percentile(0.999),
            max_ns: self.max(),
        }
    }
}

/// Summary statistics extracted from a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: u64,
    /// Mean in nanoseconds.
    pub mean_ns: f64,
    /// Minimum in nanoseconds.
    pub min_ns: u64,
    /// Median in nanoseconds.
    pub p50_ns: u64,
    /// 95th percentile in nanoseconds.
    pub p95_ns: u64,
    /// 99th percentile in nanoseconds.
    pub p99_ns: u64,
    /// 99.9th percentile in nanoseconds.
    pub p999_ns: u64,
    /// Maximum in nanoseconds.
    pub max_ns: u64,
}

impl Summary {
    /// Mean in microseconds (reporting convenience).
    pub fn mean_us(&self) -> f64 {
        self.mean_ns / 1e3
    }

    /// Median in microseconds.
    pub fn p50_us(&self) -> f64 {
        self.p50_ns as f64 / 1e3
    }

    /// 95th percentile in microseconds.
    pub fn p95_us(&self) -> f64 {
        self.p95_ns as f64 / 1e3
    }

    /// 99th percentile in microseconds.
    pub fn p99_us(&self) -> f64 {
        self.p99_ns as f64 / 1e3
    }

    /// 99.9th percentile in microseconds.
    pub fn p999_us(&self) -> f64 {
        self.p999_ns as f64 / 1e3
    }

    /// Maximum in microseconds.
    pub fn max_us(&self) -> f64 {
        self.max_ns as f64 / 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_zeroed() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.percentile(0.99), 0);
        assert_eq!(h.min(), 0);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..64 {
            h.record(v);
        }
        assert_eq!(h.count(), 64);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 63);
        // rank-32 of 64 samples (0..=63) is value 31 (median-low convention)
        assert_eq!(h.percentile(0.5), 31);
    }

    #[test]
    fn percentiles_within_relative_error() {
        let mut h = Histogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for &(q, expect) in &[(0.5, 50_000.0), (0.95, 95_000.0), (0.99, 99_000.0)] {
            let got = h.percentile(q) as f64;
            let rel = (got - expect).abs() / expect;
            assert!(rel < 0.02, "q={q}: got {got}, expect {expect}, rel {rel}");
        }
    }

    #[test]
    fn mean_is_exact() {
        let mut h = Histogram::new();
        for v in [10, 20, 30, 40] {
            h.record(v);
        }
        assert_eq!(h.mean(), 25.0);
    }

    #[test]
    fn reset_is_a_fresh_histogram() {
        let mut h = Histogram::new();
        for v in [3u64, 64, 1_000, 77_777, 5_000_000_000] {
            h.record(v);
        }
        h.reset();
        assert!(h.counts.iter().all(|&c| c == 0), "every bucket zeroed");
        assert_eq!(h.summary(), Histogram::new().summary());
        let (mut fresh, mut reused) = (Histogram::new(), h);
        for v in [9u64, 900, 90_000] {
            fresh.record(v);
            reused.record(v);
        }
        assert_eq!(reused.summary(), fresh.summary());
    }

    #[test]
    fn merge_combines() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(100);
        b.record(300);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.mean(), 200.0);
        assert_eq!(a.min(), 100);
        assert_eq!(a.max(), 300);
    }

    #[test]
    fn merge_empty_into_nonempty_is_identity() {
        let mut a = Histogram::new();
        for v in [5u64, 700, 90_000] {
            a.record(v);
        }
        let before = a.summary();
        a.merge(&Histogram::new());
        let after = a.summary();
        assert_eq!(
            before, after,
            "merging an empty histogram must not move stats"
        );
        assert_eq!(a.min(), 5);
        assert_eq!(a.max(), 90_000);
    }

    #[test]
    fn merge_nonempty_into_empty_adopts_all_stats() {
        let mut src = Histogram::new();
        for v in [12u64, 340, 5_600, 78_000] {
            src.record(v);
        }
        let mut dst = Histogram::new();
        dst.merge(&src);
        assert_eq!(dst.count(), src.count());
        assert_eq!(dst.mean(), src.mean());
        assert_eq!(dst.min(), src.min());
        assert_eq!(dst.max(), src.max());
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(dst.percentile(q), src.percentile(q), "q={q}");
        }
        // The sentinel min (u64::MAX in an empty histogram) must never
        // leak into the merged result.
        assert_eq!(dst.min(), 12);
    }

    #[test]
    fn self_merge_doubles_count_preserving_min_max_and_percentiles() {
        let mut h = Histogram::new();
        let mut x = 3u64;
        for _ in 0..1000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            h.record(100 + x % 10_000);
        }
        let orig = h.summary();
        let copy = h.clone();
        h.merge(&copy);
        let merged = h.summary();
        assert_eq!(merged.count, orig.count * 2);
        assert_eq!(merged.min_ns, orig.min_ns);
        assert_eq!(merged.max_ns, orig.max_ns);
        assert_eq!(merged.mean_ns, orig.mean_ns);
        // Doubling every bucket leaves all quantiles in place.
        assert_eq!(merged.p50_ns, orig.p50_ns);
        assert_eq!(merged.p99_ns, orig.p99_ns);
        assert_eq!(merged.p999_ns, orig.p999_ns);
    }

    #[test]
    fn summary_max_us_converts_from_nanos() {
        let mut h = Histogram::new();
        h.record(2_500);
        assert_eq!(h.summary().max_us(), 2.5);
        assert_eq!(Histogram::new().summary().max_us(), 0.0);
    }

    #[test]
    fn huge_values_do_not_panic() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX / 2);
        assert_eq!(h.count(), 2);
        assert!(h.percentile(1.0) >= u64::MAX / 2);
    }

    #[test]
    fn summary_fields_consistent() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v * 1000); // 1us .. 1ms
        }
        let s = h.summary();
        assert_eq!(s.count, 1000);
        assert!(s.p50_ns <= s.p95_ns && s.p95_ns <= s.p99_ns && s.p99_ns <= s.max_ns);
        assert!((s.mean_us() - 500.5).abs() < 1.0);
    }

    #[test]
    fn percentile_of_constant_histogram_is_that_value() {
        // Regression: the old implementation returned the bucket *lower
        // bound*, so a histogram full of one value reported a percentile
        // below it once the value exceeded the linear range.
        for value in [1u64, 63, 64, 1000, 123_456, 7_000_000_000] {
            let mut h = Histogram::new();
            for _ in 0..100 {
                h.record(value);
            }
            for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
                assert_eq!(h.percentile(q), value, "q={q} value={value}");
            }
        }
    }

    #[test]
    fn percentile_midpoint_is_unbiased_not_low() {
        // 1000 and 1001 land in the same log-linear bucket (width 16 at
        // that scale); the reported percentile must be the bucket midpoint
        // clamped into [min, max], never below the bucket's true samples.
        let mut h = Histogram::new();
        for _ in 0..10 {
            h.record(1000);
        }
        let p = h.percentile(0.5);
        assert_eq!(p, 1000, "constant histogram must clamp to the sample");
        let mut spread = Histogram::new();
        spread.record(992); // bucket [992, 1008)
        spread.record(1007);
        let mid = spread.percentile(0.5);
        assert!(
            (992..=1007).contains(&mid) && mid >= 1000 - 8,
            "midpoint {mid} should sit at the bucket center"
        );
    }

    #[test]
    fn merged_shard_histograms_match_global_union() {
        // Multi-shard aggregation path: per-shard histograms merged after
        // a sweep must report the same percentiles (and count/mean/min/max)
        // as one global histogram fed the union of samples. Holds exactly
        // because merge() sums per-bucket counts — the merged state is
        // structurally identical to recording every sample into one
        // histogram, whatever the shard interleaving.
        let shards = 4;
        let mut per_shard: Vec<Histogram> = (0..shards).map(|_| Histogram::new()).collect();
        let mut global = Histogram::new();
        let mut x = 42u64;
        for i in 0..40_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            // Skewed latency-like values spanning several octaves.
            let v = 800 + (x % 1_000_000) / (1 + x % 97);
            per_shard[(i % shards as u64) as usize].record(v);
            global.record(v);
        }
        let mut merged = Histogram::new();
        for h in &per_shard {
            merged.merge(h);
        }
        assert_eq!(merged.count(), global.count());
        assert_eq!(merged.mean(), global.mean());
        for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0] {
            assert_eq!(
                merged.percentile(q),
                global.percentile(q),
                "merged per-shard percentile diverges from global at q={q}"
            );
        }
    }

    #[test]
    fn percentile_monotone_in_q() {
        let mut h = Histogram::new();
        let mut x = 7u64;
        for _ in 0..10_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            h.record(x % 1_000_000);
        }
        let mut last = 0;
        for i in 0..=100 {
            let p = h.percentile(i as f64 / 100.0);
            assert!(p >= last, "non-monotone at {i}");
            last = p;
        }
    }
}
