//! Comparison oracles: how the balancer invokes secure two-party protocols.
//!
//! Every degree/workload comparison in Algorithms 1–3 must run under the
//! secure comparison of `lumos-crypto` (Definition 2). [`SecureOracle`]
//! actually executes the OT-based circuits. [`MeteredPlainOracle`] computes
//! the same results in the clear while charging the *identical* cost model,
//! so paper-scale experiments remain fast; a test in this module pins the
//! two meters against each other, bit for bit.

use std::cmp::Ordering;

use lumos_crypto::{
    secure_compare, secure_compare_batch, secure_difference, CommMeter, TwoParty, LANES,
};

/// Which secure-comparison engine backs the oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CompareBackend {
    /// One scalar circuit evaluation per comparison — the historical
    /// engine, and the default that keeps seed → bit-identical meters.
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
}

/// Abstraction over the pairwise secure-comparison service.
pub trait CompareOracle {
    /// Compares two private `bits`-bit values, revealing only the ordering.
    fn compare(&mut self, a: u64, b: u64, bits: u32) -> Ordering;

    /// Compares many *independent* `bits`-bit pairs in one sweep (an
    /// Algorithm-1 or Algorithm-3 edge pass), revealing only the orderings,
    /// in input order.
    ///
    /// The default implementation loops the scalar path, so every oracle
    /// keeps its historical per-call results, meters, and session streams
    /// bit for bit; batched engines override it to share circuit
    /// evaluations across lanes.
    fn compare_batch(&mut self, pairs: &[(u64, u64)], bits: u32) -> Vec<Ordering> {
        pairs
            .iter()
            .map(|&(a, b)| self.compare(a, b, bits))
            .collect()
    }

    /// Reveals the difference `a - b` (Algorithm 2, line 7).
    fn difference(&mut self, a: i64, b: i64) -> i64;

    /// Accumulated communication across all invocations.
    fn meter(&self) -> CommMeter;

    /// Number of *logical* comparisons performed (a batch of `n` pairs
    /// counts `n`, whatever the engine packs them into).
    fn comparisons(&self) -> u64;
}

/// Executes the real simulated protocols of `lumos-crypto`.
#[derive(Debug)]
pub struct SecureOracle {
    seed: u64,
    counter: u64,
    meter: CommMeter,
    comparisons: u64,
}

impl SecureOracle {
    /// Creates the oracle; each protocol session gets a distinct seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            counter: 0,
            meter: CommMeter::new(),
            comparisons: 0,
        }
    }

    fn session(&mut self) -> TwoParty {
        self.counter += 1;
        TwoParty::new(self.seed ^ self.counter.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

impl CompareOracle for SecureOracle {
    fn compare(&mut self, a: u64, b: u64, bits: u32) -> Ordering {
        let mut ctx = self.session();
        let out = secure_compare(&mut ctx, a, b, bits);
        self.meter.merge(&ctx.meter);
        self.comparisons += 1;
        out.ordering()
    }

    fn difference(&mut self, a: i64, b: i64) -> i64 {
        let mut ctx = self.session();
        let d = secure_difference(&mut ctx, a, b);
        self.meter.merge(&ctx.meter);
        d
    }

    fn meter(&self) -> CommMeter {
        self.meter
    }

    fn comparisons(&self) -> u64 {
        self.comparisons
    }
}

/// Computes results in the clear but charges the exact communication the
/// secure protocols would have used.
#[derive(Debug, Default)]
pub struct MeteredPlainOracle {
    meter: CommMeter,
    comparisons: u64,
}

impl MeteredPlainOracle {
    /// Creates a zero-cost oracle.
    pub fn new() -> Self {
        Self::default()
    }

    /// The communication the bit-tree comparison protocol uses for `bits`-bit
    /// inputs (see `lumos-crypto::compare`): per-bit input sharing, one AND
    /// per leaf, two ANDs per balanced-tree merge (each AND = 2 OTs = 4
    /// messages / 34 bytes), layered rounds, two 1-bit reveals.
    pub fn compare_cost(bits: u32) -> CommMeter {
        let leaf_ands = bits as u64;
        let merge_ands = 2 * (bits as u64 - 1);
        let ands = leaf_ands + merge_ands;
        let share_msgs = 2 * bits as u64;
        let and_msgs = 4 * ands;
        let reveal_msgs = 4;
        // Layers: the leaf layer plus ceil(log2 bits) merge layers, 2 rounds
        // each; plus one round per reveal.
        let mut layers = 1u64;
        let mut width = bits as u64;
        while width > 1 {
            width = width.div_ceil(2);
            layers += 1;
        }
        CommMeter {
            messages: share_msgs + and_msgs + reveal_msgs,
            // share: 1 byte each; AND: 2 OTs × (1 + 16) bytes; reveal: 1 byte
            // each.
            bytes: share_msgs + ands * 2 * 17 + reveal_msgs,
            rounds: 2 * layers + 2,
        }
    }

    /// The communication of the masked-difference protocol: three 8-byte
    /// messages in three rounds.
    pub fn difference_cost() -> CommMeter {
        CommMeter {
            messages: 3,
            bytes: 24,
            rounds: 3,
        }
    }
}

impl CompareOracle for MeteredPlainOracle {
    fn compare(&mut self, a: u64, b: u64, bits: u32) -> Ordering {
        self.meter.merge(&Self::compare_cost(bits));
        self.comparisons += 1;
        a.cmp(&b)
    }

    fn difference(&mut self, a: i64, b: i64) -> i64 {
        self.meter.merge(&Self::difference_cost());
        a.wrapping_sub(b)
    }

    fn meter(&self) -> CommMeter {
        self.meter
    }

    fn comparisons(&self) -> u64 {
        self.comparisons
    }
}

/// Executes the bit-sliced 64-lane batch circuits of `lumos-crypto`:
/// one word session per 64 lanes, each AND gate's two wide OTs shared by
/// every lane in the word.
#[derive(Debug)]
pub struct BitslicedSecureOracle {
    seed: u64,
    counter: u64,
    meter: CommMeter,
    comparisons: u64,
}

impl BitslicedSecureOracle {
    /// Creates the oracle; each protocol session gets a distinct seed.
    pub fn new(seed: u64) -> Self {
        Self {
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
}

impl CompareOracle for BitslicedSecureOracle {
    fn compare(&mut self, a: u64, b: u64, bits: u32) -> Ordering {
        self.compare_batch(&[(a, b)], bits)[0]
    }

    fn compare_batch(&mut self, pairs: &[(u64, u64)], bits: u32) -> Vec<Ordering> {
        if pairs.is_empty() {
            return Vec::new();
        }
        let batch = secure_compare_batch(self.next_seed(), pairs, bits);
        self.meter.merge(&batch.meter);
        self.comparisons += pairs.len() as u64;
        batch.outcomes.into_iter().map(|o| o.ordering()).collect()
    }

    fn difference(&mut self, a: i64, b: i64) -> i64 {
        // The masked-difference protocol is already word-width; the scalar
        // session is the right tool either way.
        let mut ctx = TwoParty::new(self.next_seed());
        let d = secure_difference(&mut ctx, a, b);
        self.meter.merge(&ctx.meter);
        d
    }

    fn meter(&self) -> CommMeter {
        self.meter
    }

    fn comparisons(&self) -> u64 {
        self.comparisons
    }
}

/// Computes results in the clear but charges exactly what the bit-sliced
/// engine would: one word's traffic per 64 lanes (partial words price like
/// full ones — the wire must not reveal the lane count).
#[derive(Debug, Default)]
pub struct BitslicedPlainOracle {
    meter: CommMeter,
    comparisons: u64,
}

impl BitslicedPlainOracle {
    /// Creates a zero-cost oracle.
    pub fn new() -> Self {
        Self::default()
    }

    /// The communication one 64-lane word costs at `bits` bits: per-bit
    /// input sharing (8-byte words), the same `3·bits − 2` AND gates as the
    /// scalar circuit — each now two *wide* OTs (8 + 16 bytes) — the same
    /// layered rounds, and two 8-byte word reveals.
    pub fn word_cost(bits: u32) -> CommMeter {
        let ands = 3 * bits as u64 - 2;
        let share_msgs = 2 * bits as u64;
        let reveal_msgs = 4;
        let mut layers = 1u64;
        let mut width = bits as u64;
        while width > 1 {
            width = width.div_ceil(2);
            layers += 1;
        }
        CommMeter {
            messages: share_msgs + 4 * ands + reveal_msgs,
            bytes: 8 * share_msgs + ands * 2 * (8 + 16) + 8 * reveal_msgs,
            rounds: 2 * layers + 2,
        }
    }

    /// The communication a `lanes`-pair batch costs: one word per 64 lanes.
    pub fn batch_cost(lanes: usize, bits: u32) -> CommMeter {
        Self::word_cost(bits).times(lanes.div_ceil(LANES) as u64)
    }
}

impl CompareOracle for BitslicedPlainOracle {
    fn compare(&mut self, a: u64, b: u64, bits: u32) -> Ordering {
        self.compare_batch(&[(a, b)], bits)[0]
    }

    fn compare_batch(&mut self, pairs: &[(u64, u64)], bits: u32) -> Vec<Ordering> {
        if pairs.is_empty() {
            return Vec::new();
        }
        self.meter.merge(&Self::batch_cost(pairs.len(), bits));
        self.comparisons += pairs.len() as u64;
        pairs.iter().map(|&(a, b)| a.cmp(&b)).collect()
    }

    fn difference(&mut self, a: i64, b: i64) -> i64 {
        self.meter.merge(&MeteredPlainOracle::difference_cost());
        a.wrapping_sub(b)
    }

    fn meter(&self) -> CommMeter {
        self.meter
    }

    fn comparisons(&self) -> u64 {
        self.comparisons
    }
}

/// Which oracle the high-level constructors should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SecurityMode {
    /// Run the full OT-based circuits (slow, exercised in tests and small
    /// benches).
    Simulated,
    /// Clear-text results with the identical cost model (paper-scale runs).
    CostModel,
}

/// Builds an oracle for the requested mode and comparison backend.
pub fn make_oracle_backend(
    mode: SecurityMode,
    backend: CompareBackend,
    seed: u64,
) -> Box<dyn CompareOracle> {
    match (backend, mode) {
        (CompareBackend::Scalar, SecurityMode::Simulated) => Box::new(SecureOracle::new(seed)),
        (CompareBackend::Scalar, SecurityMode::CostModel) => Box::new(MeteredPlainOracle::new()),
        (CompareBackend::Bitsliced, SecurityMode::Simulated) => {
            Box::new(BitslicedSecureOracle::new(seed))
        }
        (CompareBackend::Bitsliced, SecurityMode::CostModel) => {
            Box::new(BitslicedPlainOracle::new())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracles_agree_on_results() {
        let mut secure = SecureOracle::new(5);
        let mut plain = MeteredPlainOracle::new();
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
            let mut secure = SecureOracle::new(11);
            secure.compare(1, 0, bits);
            let model = MeteredPlainOracle::compare_cost(bits);
            assert_eq!(secure.meter(), model, "bits = {bits}");
        }
        let mut secure = SecureOracle::new(12);
        secure.difference(5, 9);
        assert_eq!(secure.meter(), MeteredPlainOracle::difference_cost());
    }

    #[test]
    fn default_compare_batch_loops_the_scalar_path() {
        // A batch through the default trait method must be observationally
        // identical to the historical per-call loop: same results, same
        // meter, same session streams — the seed → bit-identical contract.
        let pairs = [(3u64, 9u64), (9, 3), (7, 7), (0, 255)];
        let mut batched = SecureOracle::new(5);
        let outs = batched.compare_batch(&pairs, 8);
        let mut looped = SecureOracle::new(5);
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
        let mut scalar = MeteredPlainOracle::new();
        let mut secure = BitslicedSecureOracle::new(7);
        let mut plain = BitslicedPlainOracle::new();
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
            let mut secure = BitslicedSecureOracle::new(11);
            secure.compare_batch(&pairs, bits);
            let model = BitslicedPlainOracle::batch_cost(lanes, bits);
            assert_eq!(secure.meter(), model, "lanes={lanes} bits={bits}");
        }
        let mut secure = BitslicedSecureOracle::new(12);
        secure.difference(5, 9);
        assert_eq!(secure.meter(), MeteredPlainOracle::difference_cost());
    }

    #[test]
    fn bitsliced_batch_cuts_ot_messages_64x() {
        // A full word's sweep vs the scalar loop on the same pairs: the
        // lane packing must save ~64× on messages while both report the
        // same 64 logical comparisons.
        let pairs: Vec<(u64, u64)> = (0..64).map(|i| (i, 63 - i)).collect();
        let mut scalar = MeteredPlainOracle::new();
        let mut sliced = BitslicedPlainOracle::new();
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
