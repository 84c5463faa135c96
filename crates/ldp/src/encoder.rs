//! Lumos's binned feature encoder (§VI-A).
//!
//! Device `u` with feature `x ∈ [a,b]^d` and trimmed workload `wl(u)`:
//!
//! 1. every element is one-bit encoded with per-element budget
//!    `ε' = ε·wl(u)/d` (Eq. 26);
//! 2. the `d` dimensions are distributed uniformly at random into `wl(u)`
//!    bins;
//! 3. neighbor `k` receives only the elements of bin `k`, with the other
//!    positions filled by the information-free constant ½;
//! 4. receivers apply the unbiased recovery map (Eq. 27).
//!
//! Each neighbor thus observes `d/wl(u)` privatized elements at budget
//! `ε·wl(u)/d` apiece — `ε`-LDP in total by composition (Theorem 4) — while
//! every dimension reaches exactly one neighbor, and the constant positions
//! keep the message variance low (the paper's argument for partial
//! encoding).

use lumos_common::rng::Xoshiro256pp;

use crate::onebit::{EncodedValue, OneBitMechanism};

/// Symbols per byte of an [`EncodedFeature`].
const PER_BYTE: usize = 4;

/// A decode table: the recovered value of each 2-bit
/// [`EncodedValue::code`] under one sender's per-element budget (the unused
/// code `3` repeats the midpoint).
pub type DecodeTable = [f32; 4];

/// A partial encoded feature as sent to one neighbor: one 2-bit symbol per
/// dimension, four to a byte, `Missing` outside this message's bin.
// lumos-lint: allow(secret-leak) — the binned message is already ε-LDP-privatized wire payload; only raw features are secret
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedFeature {
    dim: usize,
    /// Dimension `i` sits in bits `2·(i % 4)..` of byte `i / 4`; the bits
    /// past `dim` in the last byte stay `Missing`.
    codes: Vec<u8>,
}

impl EncodedFeature {
    /// A message of `dim` symbols, every one `Missing`.
    pub fn missing(dim: usize) -> Self {
        Self {
            dim,
            codes: vec![0; dim.div_ceil(PER_BYTE)],
        }
    }

    /// Number of dimensions.
    pub fn len(&self) -> usize {
        self.dim
    }

    /// Whether the feature has no dimensions.
    pub fn is_empty(&self) -> bool {
        self.dim == 0
    }

    /// The symbol of dimension `i`.
    pub fn get(&self, i: usize) -> EncodedValue {
        assert!(i < self.dim, "dimension {i} out of range");
        EncodedValue::from_code((self.codes[i / PER_BYTE] >> (2 * (i % PER_BYTE))) & 3)
    }

    fn set(&mut self, i: usize, v: EncodedValue) {
        let shift = 2 * (i % PER_BYTE);
        let byte = &mut self.codes[i / PER_BYTE];
        *byte = (*byte & !(3 << shift)) | (v.code() << shift);
    }

    /// Per-dimension symbols, in order.
    pub fn values(&self) -> impl Iterator<Item = EncodedValue> + '_ {
        (0..self.dim).map(|i| self.get(i))
    }

    /// The `{0, 0.5, 1}` wire form (the paper's `x'_u`).
    pub fn wire(&self) -> Vec<f32> {
        self.values().map(|v| v.wire_value()).collect()
    }

    /// Number of dimensions actually transmitted (non-missing).
    pub fn transmitted(&self) -> usize {
        // A symbol is non-missing iff either of its two bits is set.
        self.codes
            .iter()
            .map(|&b| ((b | (b >> 1)) & 0x55).count_ones() as usize)
            .sum()
    }

    /// Bytes of packed symbols held.
    pub fn packed_bytes(&self) -> usize {
        self.codes.len()
    }

    /// Writes `table[code]` of every dimension into `out`.
    ///
    /// # Panics
    /// Panics if `out.len()` is not the feature's dimension.
    pub fn decode_into(&self, table: &DecodeTable, out: &mut [f32]) {
        assert_eq!(out.len(), self.dim, "decode target dimension mismatch");
        for (quad, &byte) in out.chunks_mut(PER_BYTE).zip(&self.codes) {
            for (j, o) in quad.iter_mut().enumerate() {
                *o = table[usize::from((byte >> (2 * j)) & 3)];
            }
        }
    }
}

impl FromIterator<EncodedValue> for EncodedFeature {
    fn from_iter<I: IntoIterator<Item = EncodedValue>>(values: I) -> Self {
        let mut codes = Vec::new();
        let mut dim = 0;
        for v in values {
            if dim % PER_BYTE == 0 {
                codes.push(0);
            }
            codes[dim / PER_BYTE] |= v.code() << (2 * (dim % PER_BYTE));
            dim += 1;
        }
        Self { dim, codes }
    }
}

/// What a recipient keeps of a neighbor's feature: the message as received
/// and the sender's decode table — `dim / 4` bytes and four floats in place
/// of `dim` floats, of which only three are distinct.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredFeature {
    message: EncodedFeature,
    table: DecodeTable,
}

impl RecoveredFeature {
    /// The estimate of a feature nothing was received of: the
    /// information-free midpoint of `[0, 1]` in every dimension.
    pub fn absent(dim: usize) -> Self {
        Self {
            message: EncodedFeature::missing(dim),
            table: [0.5; 4],
        }
    }

    /// The unbiased estimate (Eq. 27), written into `out`.
    pub fn decode_into(&self, out: &mut [f32]) {
        self.message.decode_into(&self.table, out);
    }

    /// The unbiased estimate (Eq. 27).
    pub fn decoded(&self) -> Vec<f32> {
        let mut out = vec![0.0; self.message.len()];
        self.decode_into(&mut out);
        out
    }

    /// Bytes held: the packed symbols and the table.
    pub fn bytes(&self) -> usize {
        self.message.packed_bytes() + std::mem::size_of::<Self>()
    }
}

/// The Lumos feature encoder for one device.
#[derive(Debug, Clone)]
pub struct FeatureEncoder {
    mechanism: OneBitMechanism,
    dim: usize,
    workload: usize,
}

impl FeatureEncoder {
    /// Creates the encoder for a device with `workload = wl(u)` retained
    /// neighbors, feature dimension `dim`, total budget `epsilon`, and
    /// feature range `[a, b]`.
    ///
    /// # Panics
    /// Panics if `workload == 0` or `dim == 0`.
    pub fn new(epsilon: f64, workload: usize, dim: usize, a: f64, b: f64) -> Self {
        assert!(workload > 0, "encoder needs at least one neighbor");
        assert!(dim > 0, "feature dimension must be positive");
        let eps_elem = epsilon * workload as f64 / dim as f64;
        Self {
            mechanism: OneBitMechanism::new(eps_elem, a, b),
            dim,
            workload,
        }
    }

    /// The per-element budget `ε' = ε·wl/d`.
    pub fn per_element_epsilon(&self) -> f64 {
        self.mechanism.epsilon()
    }

    /// Encodes the feature once and splits it into one partial message per
    /// neighbor (`workload` messages). Message `k` is destined for the
    /// device's `k`-th retained neighbor.
    ///
    /// # Panics
    /// Panics if `feature.len() != dim`.
    pub fn encode_binned(&self, feature: &[f32], rng: &mut Xoshiro256pp) -> Vec<EncodedFeature> {
        assert_eq!(feature.len(), self.dim, "feature dimension mismatch");
        // Random bin per dimension, all drawn before the first symbol.
        let bins: Vec<usize> = (0..self.dim).map(|_| rng.index(self.workload)).collect();
        let mut messages = vec![EncodedFeature::missing(self.dim); self.workload];
        for (i, (&x, &bin)) in feature.iter().zip(&bins).enumerate() {
            messages[bin].set(i, self.mechanism.encode(x as f64, rng));
        }
        messages
    }

    /// Ablation: encodes *all* dimensions for every neighbor, with the
    /// per-element budget lowered to `ε/d` so each recipient still observes
    /// an ε-LDP view. This is the "naively encoding all the feature
    /// elements" variant §VI-A argues against.
    pub fn encode_full(
        &self,
        feature: &[f32],
        total_epsilon: f64,
        rng: &mut Xoshiro256pp,
    ) -> Vec<EncodedFeature> {
        assert_eq!(feature.len(), self.dim, "feature dimension mismatch");
        let mech = OneBitMechanism::new(
            total_epsilon / self.dim as f64,
            self.range().0,
            self.range().1,
        );
        (0..self.workload)
            .map(|_| {
                feature
                    .iter()
                    .map(|&x| mech.encode(x as f64, rng))
                    .collect()
            })
            .collect()
    }

    /// The recovered value (Eq. 27) of each symbol code under this
    /// encoder's per-element budget.
    pub fn decode_table(&self) -> DecodeTable {
        let of = |code| self.mechanism.decode(EncodedValue::from_code(code)) as f32;
        [of(0), of(1), of(2), of(0)]
    }

    /// Receives a message: keeps its symbols beside the table that decodes
    /// them.
    pub fn receive(&self, message: EncodedFeature) -> RecoveredFeature {
        RecoveredFeature {
            message,
            table: self.decode_table(),
        }
    }

    /// Recovery for the full-encoding ablation (budget `ε/d` per element).
    pub fn recover_full(&self, msg: &EncodedFeature, total_epsilon: f64) -> Vec<f32> {
        let mech = OneBitMechanism::new(
            total_epsilon / self.dim as f64,
            self.range().0,
            self.range().1,
        );
        msg.values().map(|v| mech.decode(v) as f32).collect()
    }

    fn range(&self) -> (f64, f64) {
        // OneBitMechanism doesn't expose (a, b); reconstruct from decode.
        let mid = self.mechanism.decode(EncodedValue::Missing);
        let hi = self.mechanism.decode(EncodedValue::One);
        let e = self.mechanism.epsilon().exp();
        let half_span = (hi - mid) * (e - 1.0) / (e + 1.0);
        (mid - half_span, mid + half_span)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Xoshiro256pp {
        Xoshiro256pp::seed_from_u64(4242)
    }

    #[test]
    fn binned_messages_partition_dimensions() {
        let enc = FeatureEncoder::new(2.0, 4, 32, 0.0, 1.0);
        let feature = vec![0.5f32; 32];
        let msgs = enc.encode_binned(&feature, &mut rng());
        assert_eq!(msgs.len(), 4);
        // Every dimension transmitted in exactly one message.
        for i in 0..32 {
            let senders = msgs
                .iter()
                .filter(|m| !matches!(m.get(i), EncodedValue::Missing))
                .count();
            assert_eq!(senders, 1, "dimension {i} must appear exactly once");
        }
        let total: usize = msgs.iter().map(|m| m.transmitted()).sum();
        assert_eq!(total, 32);
    }

    #[test]
    fn packed_symbols_round_trip_at_any_dimension() {
        // Dimensions around the four-per-byte boundary; the padding bits of
        // the last byte never count as transmitted.
        let mut r = rng();
        for dim in [1, 3, 4, 5, 8, 13, 64] {
            let values: Vec<EncodedValue> = (0..dim)
                .map(|_| EncodedValue::from_code(r.index(3) as u8))
                .collect();
            let msg: EncodedFeature = values.iter().copied().collect();
            assert_eq!(msg.len(), dim);
            assert_eq!(msg.packed_bytes(), dim.div_ceil(4));
            assert_eq!(msg.values().collect::<Vec<_>>(), values);
            let sent = values
                .iter()
                .filter(|v| !matches!(v, EncodedValue::Missing))
                .count();
            assert_eq!(msg.transmitted(), sent, "dim {dim}");
            assert_eq!(EncodedFeature::missing(dim).transmitted(), 0);
        }
    }

    #[test]
    fn kept_message_decodes_to_the_per_symbol_recovery() {
        // The table is the mechanism's decode (Eq. 27), symbol by symbol.
        let enc = FeatureEncoder::new(2.0, 3, 13, 0.0, 1.0);
        let feature: Vec<f32> = (0..13).map(|i| i as f32 / 12.0).collect();
        for msg in enc.encode_binned(&feature, &mut rng()) {
            let per_symbol: Vec<u32> = msg
                .values()
                .map(|v| (enc.mechanism.decode(v) as f32).to_bits())
                .collect();
            let kept = enc.receive(msg).decoded();
            let bits: Vec<u32> = kept.iter().map(|x| x.to_bits()).collect();
            assert_eq!(bits, per_symbol);
        }
        assert_eq!(RecoveredFeature::absent(5).decoded(), vec![0.5; 5]);
    }

    #[test]
    fn per_element_budget_matches_formula() {
        let enc = FeatureEncoder::new(2.0, 5, 100, 0.0, 1.0);
        assert!((enc.per_element_epsilon() - 2.0 * 5.0 / 100.0).abs() < 1e-12);
    }

    #[test]
    fn recovery_of_binned_messages_is_unbiased() {
        // Averaging the recovered value of a dimension across many fresh
        // encodings must converge to the true value (Theorem 3 end-to-end).
        let enc = FeatureEncoder::new(4.0, 2, 8, 0.0, 1.0);
        let feature: Vec<f32> = vec![0.1, 0.9, 0.4, 0.6, 0.0, 1.0, 0.25, 0.75];
        let mut r = rng();
        let n = 60_000;
        let mut sums = [0.0f64; 8];
        let mut counts = [0usize; 8];
        for _ in 0..n {
            let msgs = enc.encode_binned(&feature, &mut r);
            for m in &msgs {
                let rec = enc.receive(m.clone()).decoded();
                for (i, v) in m.values().enumerate() {
                    if !matches!(v, EncodedValue::Missing) {
                        sums[i] += rec[i] as f64;
                        counts[i] += 1;
                    }
                }
            }
        }
        for i in 0..8 {
            let mean = sums[i] / counts[i] as f64;
            assert!(
                (mean - feature[i] as f64).abs() < 0.05,
                "dim {i}: mean {mean} vs true {}",
                feature[i]
            );
        }
    }

    #[test]
    fn binned_encoding_has_lower_message_variance_than_full() {
        // §VI-A: with the same per-recipient budget, sending a constant for
        // most positions yields lower total variance per message.
        let dim = 64;
        let wl = 4;
        let eps = 2.0;
        let enc = FeatureEncoder::new(eps, wl, dim, 0.0, 1.0);
        let feature = vec![0.5f32; dim];
        let mut r = rng();
        let reps = 2_000;
        let mut var_binned = 0.0f64;
        let mut var_full = 0.0f64;
        for _ in 0..reps {
            let binned = enc.encode_binned(&feature, &mut r);
            let full = enc.encode_full(&feature, eps, &mut r);
            for m in binned {
                for v in enc.receive(m).decoded() {
                    var_binned += (v as f64 - 0.5).powi(2);
                }
            }
            for m in &full {
                for v in enc.recover_full(m, eps) {
                    var_full += (v as f64 - 0.5).powi(2);
                }
            }
        }
        // Same number of message-elements on both sides (wl*dim), so the
        // raw sums are comparable.
        assert!(
            var_binned < var_full * 0.5,
            "binned {var_binned} vs full {var_full}"
        );
    }

    #[test]
    fn wire_form_is_ternary() {
        let enc = FeatureEncoder::new(1.0, 3, 16, 0.0, 1.0);
        let feature = vec![0.3f32; 16];
        for m in enc.encode_binned(&feature, &mut rng()) {
            for w in m.wire() {
                assert!(w == 0.0 || w == 0.5 || w == 1.0);
            }
        }
    }

    #[test]
    #[should_panic]
    fn zero_workload_rejected() {
        FeatureEncoder::new(1.0, 0, 4, 0.0, 1.0);
    }
}
