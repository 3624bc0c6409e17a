//! Key-access distributions: zipfian (YCSB's default, 0.99 skew), the
//! "latest" distribution (YCSB workload D), and uniform.

use prdma_simnet::rng::SmallRng;

/// Keys the threshold table covers: the hottest `HEAD`, which take most
/// draws at the skews the workloads use.
const HEAD: u64 = 256;
// The guide stores keys below `HEAD` as `u16`.
const _: () = assert!(HEAD <= u16::MAX as u64);
/// The guide over the table has at most `2^GUIDE_BITS` entries.
const GUIDE_BITS: u32 = 10;
/// Number of distinct draws: `gen::<f64>()` is `k · 2^-53` for a 53-bit
/// `k`, and a draw here is that `k`.
const DRAWS: u64 = 1 << 53;

/// A zipfian generator over `0..n` (Gray et al. / YCSB formulation).
///
/// Item 0 is the most popular. With `theta = 0.99` (the paper's "99%
/// skewness"), the hottest ~1% of keys absorb most accesses.
///
/// **The draw contract.** A draw is the top 53 bits `k` of one
/// `next_u64`, exactly what `gen::<f64>()` consumes, and its key is the
/// YCSB formula at `u = k · 2^-53` (`key_of`, the one definition of a
/// key). The formula is non-decreasing in `k`, so `new` stores, for each
/// of the hottest `HEAD` keys, the smallest draw that reaches past it,
/// plus a guide over those thresholds: a draw below the last threshold
/// is a guide lookup and a short scan, any other draw evaluates the
/// formula. Keys are bit-identical to evaluating the formula on every
/// draw; debug builds check that on every `sample`.
pub struct Zipfian {
    n: u64,
    alpha: f64,
    zeta_n: f64,
    eta: f64,
    /// `1 + 0.5^θ`: below `u · ζ(n)` of this the key is 1.
    key1_end: f64,
    /// `head[r]`: the smallest draw whose key exceeds `r` (`DRAWS` if no
    /// draw does), for `r < min(HEAD, n - 1)`.
    head: Vec<u64>,
    /// The last entry of `head` (0 if it is empty): draws below it are
    /// looked up, the rest evaluate the formula.
    head_end: u64,
    /// `guide[g]`: the key of draw `g << shift`, for every draw below
    /// `head_end`.
    guide: Vec<u16>,
    /// Draw bits below the guide's resolution.
    shift: u32,
}

impl Zipfian {
    /// Build a generator over `0..n` with skew `theta` in [0, 1).
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "empty key space");
        assert!((0.0..1.0).contains(&theta), "theta must be in [0,1)");
        let zeta_n = Self::zeta(n, theta);
        let zeta_2 = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta_2 / zeta_n);
        let mut z = Zipfian {
            n,
            alpha,
            zeta_n,
            eta,
            key1_end: 1.0 + 0.5f64.powf(theta),
            head: Vec::new(),
            head_end: 0,
            guide: Vec::new(),
            shift: 0,
        };
        z.build_table(theta);
        z
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    }

    /// The key of draw `k`: the YCSB formula at `u = k · 2^-53`.
    fn key_of(&self, k: u64) -> u64 {
        let u = k as f64 * (1.0 / DRAWS as f64);
        let uz = u * self.zeta_n;
        if uz < 1.0 {
            return 0;
        }
        if uz < self.key1_end {
            return 1;
        }
        let v = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        v.min(self.n - 1)
    }

    /// [`Self::key_of`] where the table build and the tail path call it;
    /// tests count these calls.
    fn eval(&self, k: u64) -> u64 {
        #[cfg(test)]
        tests::FORMULA_EVALS.with(|c| c.set(c.get() + 1));
        self.key_of(k)
    }

    /// Fill `head` and `guide`. Each threshold is searched from the
    /// formula's closed-form inverse, galloping out from the guess and
    /// bisecting the bracket; a guess outside the bracket or not a number
    /// (`eta` is 0/0 at n = 2) leaves plain bisection.
    fn build_table(&mut self, theta: f64) {
        let keys = HEAD.min(self.n - 1);
        let mut head = Vec::with_capacity(keys as usize);
        // The last threshold found and its key: a key that no draw maps
        // to shares its successor's threshold and costs no search.
        let (mut at, mut at_key) = (0, 0);
        for r in 1..=keys {
            if at_key < r {
                let u = match r {
                    1 => 1.0 / self.zeta_n,
                    2 => self.key1_end / self.zeta_n,
                    _ => ((r as f64 / self.n as f64).powf(1.0 - theta) + self.eta - 1.0) / self.eta,
                };
                (at, at_key) = self.first_draw_reaching(r, at, u * DRAWS as f64);
            }
            head.push(at);
        }
        self.head_end = head.last().copied().unwrap_or(0);
        if self.head_end > 0 {
            let bits = 64 - (self.head_end - 1).leading_zeros();
            self.shift = bits.saturating_sub(GUIDE_BITS);
            self.guide = (0..=(self.head_end - 1) >> self.shift)
                .map(|g| head.partition_point(|&t| t <= g << self.shift) as u16)
                .collect();
        }
        self.head = head;
    }

    /// The smallest draw above `lo` whose key is at least `r`, and that
    /// key; `(DRAWS, u64::MAX)` if no draw reaches `r`. `key_of(lo) < r`.
    fn first_draw_reaching(&self, r: u64, mut lo: u64, guess: f64) -> (u64, u64) {
        let reaching = |k: u64| Some(self.eval(k)).filter(|&key| key >= r);
        let (mut hi, mut hi_key) = (DRAWS, u64::MAX);
        // NaN and negative guesses convert to 0, below any bracket.
        let g = guess as u64;
        if lo < g && g < hi {
            let mut step = 8;
            if let Some(key) = reaching(g) {
                (hi, hi_key) = (g, key);
                while hi - lo > step {
                    let c = hi - step;
                    match reaching(c) {
                        Some(key) => (hi, hi_key, step) = (c, key, step * 2),
                        None => {
                            lo = c;
                            break;
                        }
                    }
                }
            } else {
                lo = g;
                while hi - lo > step {
                    let c = lo + step;
                    match reaching(c) {
                        Some(key) => {
                            (hi, hi_key) = (c, key);
                            break;
                        }
                        None => (lo, step) = (c, step * 2),
                    }
                }
            }
        }
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            match reaching(mid) {
                Some(key) => (hi, hi_key) = (mid, key),
                None => lo = mid,
            }
        }
        (hi, hi_key)
    }

    /// Draw the next key.
    pub fn sample(&self, rng: &mut SmallRng) -> u64 {
        self.key_at(rng.next_u64() >> 11)
    }

    /// The key of draw `k`, from the table where it covers `k`.
    fn key_at(&self, k: u64) -> u64 {
        if k >= self.head_end {
            return self.eval(k);
        }
        let mut key = self.guide[(k >> self.shift) as usize] as usize;
        while self.head[key] <= k {
            key += 1;
        }
        debug_assert_eq!(
            key as u64,
            self.key_of(k),
            "table and formula differ at draw {k}"
        );
        key as u64
    }

    /// Key-space size.
    pub fn n(&self) -> u64 {
        self.n
    }
}

/// YCSB-style access pattern selector.
pub enum KeyDist {
    /// Zipfian over the whole key space.
    Zipfian(Zipfian),
    /// "Latest": zipfian over recency — new inserts are hottest
    /// (YCSB workload D).
    Latest {
        /// Recency skew generator.
        zipf: Zipfian,
        /// Current number of records (grows with inserts).
        count: std::cell::Cell<u64>,
    },
    /// Uniform over the key space.
    Uniform {
        /// Key-space size.
        n: u64,
    },
}

impl KeyDist {
    /// Zipfian with the paper's 0.99 skew.
    pub fn zipfian(n: u64) -> Self {
        KeyDist::Zipfian(Zipfian::new(n, 0.99))
    }

    /// Latest-distribution over an initially `n`-record table.
    pub fn latest(n: u64) -> Self {
        KeyDist::Latest {
            zipf: Zipfian::new(n, 0.99),
            count: std::cell::Cell::new(n),
        }
    }

    /// Uniform over `0..n`.
    pub fn uniform(n: u64) -> Self {
        KeyDist::Uniform { n }
    }

    /// Draw a key.
    pub fn sample(&self, rng: &mut SmallRng) -> u64 {
        match self {
            KeyDist::Zipfian(z) => z.sample(rng),
            KeyDist::Latest { zipf, count } => {
                let n = count.get();
                let back = zipf.sample(rng).min(n - 1);
                n - 1 - back
            }
            KeyDist::Uniform { n } => rng.gen_range(0..*n),
        }
    }

    /// Record an insert (grows the "latest" key space).
    pub fn on_insert(&self) -> u64 {
        match self {
            KeyDist::Latest { count, .. } => {
                let k = count.get();
                count.set(k + 1);
                k
            }
            KeyDist::Zipfian(z) => z.n(),
            KeyDist::Uniform { n } => *n,
        }
    }
}

/// A deterministic RNG for workload generation, independent of the
/// simulator's scheduling RNG (so op sequences don't change when the
/// protocol model changes).
pub fn workload_rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    thread_local! {
        /// Formula evaluations outside `key_at`'s debug check, on this
        /// test's thread.
        pub(super) static FORMULA_EVALS: Cell<u64> = const { Cell::new(0) };
    }

    fn evals() -> u64 {
        FORMULA_EVALS.with(Cell::get)
    }

    /// The sampler the table replaced: the formula on every draw, at the
    /// `u` that `gen::<f64>()` returns.
    fn reference_sample(z: &Zipfian, theta: f64, rng: &mut SmallRng) -> u64 {
        let u: f64 = rng.gen();
        let uz = u * z.zeta_n;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(theta) {
            return 1;
        }
        let v = (z.n as f64 * (z.eta * u - z.eta + 1.0).powf(z.alpha)) as u64;
        v.min(z.n - 1)
    }

    #[test]
    fn table_matches_the_formula_on_every_grid_point() {
        for n in [1, 2, 3, 100, 500, 1_000, 2_000, 50_000] {
            for theta in [0.0, 0.5, 0.7, 0.9, 0.99] {
                let z = Zipfian::new(n, theta);
                assert_eq!(z.head.len() as u64, HEAD.min(n - 1), "n {n} θ {theta}");
                let mut near: Vec<u64> = vec![0, DRAWS - 1];
                for &t in z.head.iter().filter(|&&t| t < DRAWS) {
                    near.extend(t.saturating_sub(64)..=(t + 64).min(DRAWS - 1));
                }
                let mut last = None;
                for k in near {
                    let key = z.key_of(k);
                    assert_eq!(z.key_at(k), key, "n {n} θ {theta} draw {k}");
                    // Within a window the formula must not step back down.
                    if let Some((prev, prev_key)) = last {
                        assert!(
                            prev + 1 != k || prev_key <= key,
                            "n {n} θ {theta}: draw {k} steps down"
                        );
                    }
                    last = Some((k, key));
                }
                let mut a = workload_rng(n ^ theta.to_bits());
                let mut b = a.clone();
                for i in 0..1_000_000 {
                    assert_eq!(
                        z.sample(&mut a),
                        reference_sample(&z, theta, &mut b),
                        "n {n} θ {theta}: seeded draw {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn first_keys_at_seed_1_are_pinned() {
        // FNV-1a of the first 10^5 keys' little-endian bytes, as the
        // formula-per-draw sampler produced them.
        for (n, pin) in [
            (500, 0x2af1_5859_ced3_2ea3),
            (1_000, 0xf090_7a51_b87c_0c65),
            (2_000, 0xf683_f198_62e3_f41a),
        ] {
            let z = Zipfian::new(n, 0.99);
            let mut rng = workload_rng(1);
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for _ in 0..100_000 {
                for b in z.sample(&mut rng).to_le_bytes() {
                    h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
                }
            }
            assert_eq!(h, pin, "n {n}: {h:#018x}");
        }
    }

    #[test]
    fn formula_evaluations_are_pinned() {
        // (n, evaluations in `new`, seeded draws of 10^5 past the table)
        for (n, build, tail) in [(500, 1_552, 9_621), (2_000, 1_426, 25_100)] {
            let before = evals();
            let z = Zipfian::new(n, 0.99);
            let built = evals() - before;
            let mut rng = workload_rng(1);
            for _ in 0..100_000 {
                z.sample(&mut rng);
            }
            let drawn = evals() - before - built;
            assert_eq!((built, drawn), (build, tail), "n {n}");
        }
    }

    #[test]
    fn zipfian_is_heavily_skewed_at_099() {
        let z = Zipfian::new(50_000, 0.99);
        let mut rng = workload_rng(1);
        let mut head_hits = 0;
        let samples = 100_000;
        for _ in 0..samples {
            if z.sample(&mut rng) < 500 {
                head_hits += 1;
            }
        }
        // With theta=0.99 the hottest 1% of keys should draw >40% of
        // accesses.
        let frac = head_hits as f64 / samples as f64;
        assert!(frac > 0.4, "head fraction {frac}");
    }

    #[test]
    fn zipfian_stays_in_range() {
        let z = Zipfian::new(100, 0.99);
        let mut rng = workload_rng(2);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 100);
        }
    }

    #[test]
    fn zipfian_is_deterministic_per_seed() {
        let z = Zipfian::new(1000, 0.9);
        let draw = |seed| {
            let mut rng = workload_rng(seed);
            (0..50).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn latest_prefers_recent_keys() {
        let d = KeyDist::latest(10_000);
        let mut rng = workload_rng(3);
        let mut recent = 0;
        for _ in 0..10_000 {
            if d.sample(&mut rng) >= 9_000 {
                recent += 1;
            }
        }
        assert!(recent > 6_000, "recent fraction {recent}");
        // Inserts extend the space.
        let k = d.on_insert();
        assert_eq!(k, 10_000);
    }

    #[test]
    fn uniform_covers_space() {
        let d = KeyDist::uniform(10);
        let mut rng = workload_rng(4);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            seen[d.sample(&mut rng) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
