//! The comparison oracle: how the balancer invokes secure two-party
//! protocols.
//!
//! Every degree/workload comparison in Algorithms 1–3 must run under the
//! secure comparison of `lumos-crypto` (Definition 2). One [`CompareOracle`]
//! serves every (mode, backend) pair: in [`SecurityMode::Simulated`] it
//! executes the OT-based circuits, in [`SecurityMode::CostModel`] it
//! computes the same results in the clear while charging the *identical*
//! meter, so paper-scale experiments remain fast. The backend is the
//! circuit's lane width; tests in this module pin the two modes' meters
//! against each other, bit for bit, at both widths.

use std::cmp::Ordering;

use lumos_crypto::{
    circuit_cost, difference_cost, secure_compare_batch, secure_difference, CommMeter, TwoParty,
    LANES,
};

/// Which secure-comparison engine backs the oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CompareBackend {
    /// One circuit evaluation per comparison — the historical engine, and
    /// the default that keeps seed → bit-identical meters.
    #[default]
    Scalar,
    /// The bit-sliced 64-lane engine: independent comparisons in a sweep
    /// share each AND gate's two OTs, cutting OT messages ~64×. Outcomes
    /// and logical comparison counts are identical to `Scalar`
    /// (property-tested); only the communication meters shrink.
    Bitsliced,
}

impl CompareBackend {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            CompareBackend::Scalar => "scalar",
            CompareBackend::Bitsliced => "bitsliced",
        }
    }

    /// Lanes per circuit evaluation: 1, or a full 64-lane word.
    fn lanes(self) -> usize {
        match self {
            CompareBackend::Scalar => 1,
            CompareBackend::Bitsliced => LANES,
        }
    }
}

/// Whether the oracle runs the circuits or prices them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SecurityMode {
    /// Run the full OT-based circuits (slow: tests, `perf_compare` and the
    /// benchmark's compare sweeps run them).
    Simulated,
    /// Clear-text results with the identical cost model (paper-scale runs).
    CostModel,
}

/// The pairwise secure-comparison service of Algorithms 1–3.
#[derive(Debug)]
pub struct CompareOracle {
    mode: SecurityMode,
    lanes: usize,
    seed: u64,
    counter: u64,
    meter: CommMeter,
    comparisons: u64,
}

impl Default for CompareOracle {
    /// The default configuration's oracle: the scalar cost model.
    fn default() -> Self {
        Self::new(SecurityMode::CostModel, CompareBackend::default(), 0)
    }
}

impl CompareOracle {
    /// Creates the oracle; in `Simulated` mode each protocol call runs on
    /// a distinct seed derived from `seed`.
    pub fn new(mode: SecurityMode, backend: CompareBackend, seed: u64) -> Self {
        Self {
            mode,
            lanes: backend.lanes(),
            seed,
            counter: 0,
            meter: CommMeter::new(),
            comparisons: 0,
        }
    }

    fn next_seed(&mut self) -> u64 {
        self.counter += 1;
        self.seed ^ self.counter.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    /// Compares two private `bits`-bit values, revealing only the ordering.
    pub fn compare(&mut self, a: u64, b: u64, bits: u32) -> Ordering {
        match self.mode {
            // Allocation-free: Algorithm 3's phase 2 calls this once per
            // candidate.
            SecurityMode::CostModel => {
                self.meter.merge(&circuit_cost(bits, self.lanes));
                self.comparisons += 1;
                a.cmp(&b)
            }
            SecurityMode::Simulated => self.compare_batch(&[(a, b)], bits)[0],
        }
    }

    /// Compares many *independent* `bits`-bit pairs in one sweep (an
    /// Algorithm-1 or Algorithm-3 edge pass), revealing only the orderings,
    /// in input order. The sweep costs one circuit per `lanes` pairs.
    pub fn compare_batch(&mut self, pairs: &[(u64, u64)], bits: u32) -> Vec<Ordering> {
        if pairs.is_empty() {
            return Vec::new();
        }
        self.comparisons += pairs.len() as u64;
        match self.mode {
            SecurityMode::CostModel => {
                let circuits = pairs.len().div_ceil(self.lanes) as u64;
                self.meter
                    .merge(&circuit_cost(bits, self.lanes).times(circuits));
                pairs.iter().map(|&(a, b)| a.cmp(&b)).collect()
            }
            SecurityMode::Simulated => {
                let batch = secure_compare_batch(self.next_seed(), pairs, bits, self.lanes);
                self.meter.merge(&batch.meter);
                batch.outcomes.into_iter().map(|o| o.ordering()).collect()
            }
        }
    }

    /// Reveals the difference `a - b` (Algorithm 2, line 7).
    pub fn difference(&mut self, a: i64, b: i64) -> i64 {
        match self.mode {
            SecurityMode::CostModel => {
                self.meter.merge(&difference_cost());
                a.wrapping_sub(b)
            }
            SecurityMode::Simulated => {
                let mut ctx = TwoParty::new(self.next_seed(), self.lanes);
                let d = secure_difference(&mut ctx, a, b);
                self.meter.merge(&ctx.meter);
                d
            }
        }
    }

    /// Accumulated communication across all invocations.
    pub fn meter(&self) -> CommMeter {
        self.meter
    }

    /// Number of *logical* comparisons performed (a batch of `n` pairs
    /// counts `n`, whatever the engine packs them into).
    pub fn comparisons(&self) -> u64 {
        self.comparisons
    }
}

/// Builds the oracle for the requested mode and comparison backend.
pub fn make_oracle_backend(
    mode: SecurityMode,
    backend: CompareBackend,
    seed: u64,
) -> Box<CompareOracle> {
    Box::new(CompareOracle::new(mode, backend, seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secure(backend: CompareBackend, seed: u64) -> CompareOracle {
        CompareOracle::new(SecurityMode::Simulated, backend, seed)
    }

    fn plain(backend: CompareBackend) -> CompareOracle {
        CompareOracle::new(SecurityMode::CostModel, backend, 0)
    }

    #[test]
    fn oracles_agree_on_results() {
        let mut secure = secure(CompareBackend::Scalar, 5);
        let mut plain = CompareOracle::default();
        for (a, b) in [(3u64, 9u64), (9, 3), (7, 7), (0, 255), (255, 0)] {
            assert_eq!(secure.compare(a, b, 8), plain.compare(a, b, 8));
        }
        assert_eq!(secure.difference(42, -17), plain.difference(42, -17));
        assert_eq!(secure.comparisons(), 5);
        assert_eq!(plain.comparisons(), 5);
    }

    #[test]
    fn cost_model_matches_real_protocol_exactly() {
        // The analytic cost model must equal the measured cost of the real
        // protocol for several bit widths.
        for bits in [1u32, 2, 3, 5, 8, 16, 20, 32, 64] {
            let mut secure = secure(CompareBackend::Scalar, 11);
            let mut plain = CompareOracle::default();
            secure.compare(1, 0, bits);
            plain.compare(1, 0, bits);
            assert_eq!(secure.meter(), plain.meter(), "bits = {bits}");
        }
        let mut secure = secure(CompareBackend::Scalar, 12);
        secure.difference(5, 9);
        assert_eq!(secure.meter(), difference_cost());
    }

    #[test]
    fn cost_model_meters_match_the_pinned_table() {
        // messages / bytes / rounds of one circuit at `bits` bits, for one
        // lane and for a full 64-lane word: the meters every default digest
        // rests on. They are literals on purpose — a formula change must
        // show here as a changed number.
        let table: [(u32, [u64; 3], [u64; 3]); 5] = [
            (1, [10, 40, 4], [10, 96, 4]),
            (8, [108, 768, 10], [108, 1216, 10]),
            (16, [220, 1600, 12], [220, 2496, 12]),
            (48, [668, 4928, 16], [668, 7616, 16]),
            (64, [892, 6592, 16], [892, 10176, 16]),
        ];
        let meter = |[messages, bytes, rounds]: [u64; 3]| CommMeter {
            messages,
            bytes,
            rounds,
        };
        for (bits, scalar, word) in table {
            let mut o = plain(CompareBackend::Scalar);
            o.compare(1, 0, bits);
            assert_eq!(o.meter(), meter(scalar), "scalar, bits = {bits}");
            let mut o = plain(CompareBackend::Bitsliced);
            o.compare_batch(&[(1, 0); LANES], bits);
            assert_eq!(o.meter(), meter(word), "bitsliced, bits = {bits}");
        }
    }

    #[test]
    fn default_compare_batch_loops_the_scalar_path() {
        // At one lane a batch is one circuit per pair: observationally the
        // per-call loop — same results, same meter, same comparison count.
        let pairs = [(3u64, 9u64), (9, 3), (7, 7), (0, 255)];
        let mut batched = secure(CompareBackend::Scalar, 5);
        let outs = batched.compare_batch(&pairs, 8);
        let mut looped = secure(CompareBackend::Scalar, 5);
        let loop_outs: Vec<Ordering> = pairs
            .iter()
            .map(|&(a, b)| looped.compare(a, b, 8))
            .collect();
        assert_eq!(outs, loop_outs);
        assert_eq!(batched.meter(), looped.meter());
        assert_eq!(batched.comparisons(), looped.comparisons());
    }

    #[test]
    fn bitsliced_oracles_agree_with_scalar_on_results() {
        let pairs: Vec<(u64, u64)> = (0..130).map(|i| (i % 17, i % 13)).collect();
        let mut scalar = CompareOracle::default();
        let mut secure = secure(CompareBackend::Bitsliced, 7);
        let mut plain = plain(CompareBackend::Bitsliced);
        let want = scalar.compare_batch(&pairs, 16);
        assert_eq!(secure.compare_batch(&pairs, 16), want);
        assert_eq!(plain.compare_batch(&pairs, 16), want);
        // Logical comparison counts are identical across backends.
        assert_eq!(secure.comparisons(), scalar.comparisons());
        assert_eq!(plain.comparisons(), scalar.comparisons());
        assert_eq!(secure.difference(42, -17), plain.difference(42, -17));
    }

    #[test]
    fn bitsliced_cost_model_matches_real_protocol_exactly() {
        for (lanes, bits) in [
            (1usize, 8u32),
            (3, 16),
            (64, 48),
            (65, 48),
            (200, 64),
            (64, 1),
        ] {
            let pairs: Vec<(u64, u64)> = (0..lanes as u64).map(|i| (i % 2, 1 - i % 2)).collect();
            let mut secure = secure(CompareBackend::Bitsliced, 11);
            let mut plain = plain(CompareBackend::Bitsliced);
            secure.compare_batch(&pairs, bits);
            plain.compare_batch(&pairs, bits);
            assert_eq!(secure.meter(), plain.meter(), "lanes={lanes} bits={bits}");
        }
        let mut secure = secure(CompareBackend::Bitsliced, 12);
        secure.difference(5, 9);
        assert_eq!(secure.meter(), difference_cost());
    }

    #[test]
    fn bitsliced_batch_cuts_ot_messages_64x() {
        // A full word's sweep vs the scalar loop on the same pairs: the
        // lane packing must save ~64× on messages while both report the
        // same 64 logical comparisons.
        let pairs: Vec<(u64, u64)> = (0..64).map(|i| (i, 63 - i)).collect();
        let mut scalar = CompareOracle::default();
        let mut sliced = plain(CompareBackend::Bitsliced);
        scalar.compare_batch(&pairs, 48);
        sliced.compare_batch(&pairs, 48);
        assert_eq!(scalar.comparisons(), sliced.comparisons());
        assert_eq!(scalar.meter().messages, 64 * sliced.meter().messages);
        assert!(scalar.meter().bytes > 40 * sliced.meter().bytes);
    }

    #[test]
    fn default_backend_is_scalar() {
        assert_eq!(CompareBackend::default(), CompareBackend::Scalar);
    }

    #[test]
    fn make_oracle_backend_dispatches() {
        for backend in [CompareBackend::Scalar, CompareBackend::Bitsliced] {
            let mut a = make_oracle_backend(SecurityMode::Simulated, backend, 1);
            let mut b = make_oracle_backend(SecurityMode::CostModel, backend, 1);
            assert_eq!(a.compare(4, 2, 4), Ordering::Greater);
            assert_eq!(b.compare(4, 2, 4), Ordering::Greater);
            assert_eq!(a.meter(), b.meter(), "{}", backend.name());
        }
    }
}
