//! Property suite for the comparison engine at its two lane widths.
//!
//! One circuit serves both backends: 64 lanes per session (bit-sliced) or
//! one (scalar). Three contracts keep the two widths interchangeable:
//!
//! 1. **Lane-for-lane agreement** — for random pair counts (1..=200) and
//!    bit widths (1..=64), every lane's `(a_greater, equal)` outcome at 64
//!    lanes equals the 1-lane circuit's on the same pair.
//! 2. **Input-independent transcript shape** — the wire pattern (meter and
//!    recorded word count, OT responses included) of a 64-lane word depends
//!    only on the bit width, never on the values or on how many lanes are
//!    active.
//! 3. **Partial-word handling** — a trailing word with fewer than 64 lanes
//!    evaluates, prices, and reveals exactly like a full word.

use proptest::prelude::*;

use lumos_common::rng::Xoshiro256pp;
use lumos_crypto::{secure_compare, secure_compare_batch, TwoParty, LANES};

/// Seeded random pairs fitting in `bits` bits.
fn random_pairs(seed: u64, lanes: usize, bits: u32) -> Vec<(u64, u64)> {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mask = if bits == 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    };
    (0..lanes)
        .map(|i| {
            // Mix in forced ties and asymmetric pairs so eq lanes are hit.
            if i % 7 == 0 {
                let v = rng.next_u64() & mask;
                (v, v)
            } else {
                (rng.next_u64() & mask, rng.next_u64() & mask)
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Bit-sliced outcomes equal scalar outcomes lane for lane, for random
    /// lane counts × widths, including multi-word batches with partial
    /// final words.
    #[test]
    fn bitsliced_agrees_with_scalar_lane_for_lane(seed in any::<u64>()) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let lanes = 1 + rng.index(200);
        let bits = 1 + rng.index(64) as u32;
        let pairs = random_pairs(seed ^ 0xA5A5, lanes, bits);
        let batch = secure_compare_batch(seed ^ 0x5A5A, &pairs, bits, LANES);
        prop_assert_eq!(batch.outcomes.len(), lanes);
        prop_assert_eq!(batch.words, lanes.div_ceil(LANES));
        for (j, (&(a, b), out)) in pairs.iter().zip(&batch.outcomes).enumerate() {
            let mut ctx = TwoParty::new(seed.wrapping_add(j as u64), 1);
            let scalar = secure_compare(&mut ctx, &[(a, b)], bits)[0];
            prop_assert_eq!(
                out.a_greater, scalar.a_greater,
                "gt lane {} of {} ({}-bit): a={} b={}", j, lanes, bits, a, b
            );
            prop_assert_eq!(
                out.equal, scalar.equal,
                "eq lane {} of {} ({}-bit): a={} b={}", j, lanes, bits, a, b
            );
        }
    }

    /// The transcript shape (meter, recorded words, gate count) of a word
    /// is a function of the bit width alone: different values and different
    /// active-lane counts are indistinguishable on the wire.
    #[test]
    fn transcript_shape_is_input_independent(seed in any::<u64>()) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let bits = 1 + rng.index(64) as u32;
        let lanes_full = 1 + rng.index(LANES);
        let lanes_sparse = 1 + rng.index(LANES);
        let run = |pairs: &[(u64, u64)]| {
            let mut ctx = TwoParty::with_transcript(seed ^ 0xF00D, LANES);
            let _ = secure_compare(&mut ctx, pairs, bits);
            (ctx.meter, ctx.transcript().len(), ctx.and_gates)
        };
        let zeros = vec![(0u64, 0u64); lanes_sparse];
        let (m1, t1, a1) = run(&random_pairs(seed ^ 1, lanes_full, bits));
        let (m2, t2, a2) = run(&random_pairs(seed ^ 2, lanes_full, bits));
        let (m3, t3, a3) = run(&zeros);
        prop_assert_eq!(m1, m2);
        prop_assert_eq!(m2, m3, "lane count must not show on the wire");
        prop_assert_eq!(t1, t2);
        prop_assert_eq!(t2, t3);
        prop_assert_eq!(a1, a2);
        prop_assert_eq!(a2, a3);
    }

    /// Partial final words: padding a batch to the next word boundary with
    /// dummy pairs changes neither the surviving lanes' outcomes nor the
    /// batch's communication (dummy lanes ride along for free).
    #[test]
    fn partial_final_words_are_handled(seed in any::<u64>()) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let bits = 1 + rng.index(64) as u32;
        // Deliberately straddle a word boundary: 65..=191 lanes.
        let lanes = LANES + 1 + rng.index(2 * LANES - 1);
        let pairs = random_pairs(seed ^ 3, lanes, bits);
        let mut padded = pairs.clone();
        padded.resize(pairs.len().div_ceil(LANES) * LANES, (0, 0));
        let part = secure_compare_batch(seed ^ 4, &pairs, bits, LANES);
        let full = secure_compare_batch(seed ^ 4, &padded, bits, LANES);
        prop_assert_eq!(part.words, full.words);
        prop_assert_eq!(part.meter, full.meter, "padding must be free");
        prop_assert_eq!(part.and_gates, full.and_gates);
        for (j, (a, b)) in part.outcomes.iter().zip(&full.outcomes).enumerate() {
            prop_assert_eq!(a.a_greater, b.a_greater, "lane {}", j);
            prop_assert_eq!(a.equal, b.equal, "lane {}", j);
        }
    }
}
