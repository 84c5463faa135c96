//! Secure two-party integer comparison (the millionaires' problem).
//!
//! This is the workhorse of the tree constructor: Algorithm 1 compares
//! `round(ln deg)` values across an edge, and Algorithm 3 compares workloads
//! to locate the most-loaded device — all without revealing the operands
//! (Definition 2's zero-knowledge requirement; Theorem 5).
//!
//! The circuit follows CrypTFlow2's recursive structure: per-bit
//! greater-than/equality signals are combined by a balanced tree of
//! `gt = gt_hi ⊕ (eq_hi ∧ gt_lo)`, `eq = eq_hi ∧ eq_lo` merges, giving
//! `O(L)` AND gates in `O(log L)` rounds (the `O(L log L)` communication
//! bound quoted in §V-C). We evaluate at radix 1 (one bit per leaf);
//! CrypTFlow2's larger-radix leaves are a constant-factor optimization.
//!
//! One evaluation compares as many independent pairs as its session has
//! lanes: pair `j` rides in lane `j` of every share word, so a 64-lane
//! session runs 64 comparisons for the messages and rounds of one.

use std::cmp::Ordering;

use crate::circuit::{SharedLanes, TwoParty};
use crate::meter::CommMeter;

/// Outcome of a secure comparison, revealed to both parties.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompareOutcome {
    /// Whether party A's value is strictly greater.
    pub a_greater: bool,
    /// Whether the two values are equal.
    pub equal: bool,
}

impl CompareOutcome {
    /// Converts to an [`Ordering`] from party A's perspective.
    pub fn ordering(self) -> Ordering {
        if self.equal {
            Ordering::Equal
        } else if self.a_greater {
            Ordering::Greater
        } else {
            Ordering::Less
        }
    }
}

/// Securely compares each pair `(a, b)` — `a` party A's secret, `b` party
/// B's — over `bits`-bit unsigned representations, one pair per lane of
/// `ctx`. Both parties learn only the outcomes, in input order.
///
/// Unused lanes of a partial word evaluate the constant pair `(0, 0)`;
/// their wire words are masked exactly like active lanes, so the
/// transcript shape depends only on `bits` and the session's lane width —
/// never on the pair count or the values.
///
/// # Panics
/// Panics if `bits` is not in `1..=64`, `pairs` is empty or longer than
/// the session's lanes, or any value does not fit in `bits` bits.
pub fn secure_compare(ctx: &mut TwoParty, pairs: &[(u64, u64)], bits: u32) -> Vec<CompareOutcome> {
    assert!((1..=64).contains(&bits), "bits must be in 1..=64");
    assert!(
        !pairs.is_empty() && pairs.len() <= ctx.lanes(),
        "a session compares 1..={} pairs, got {}",
        ctx.lanes(),
        pairs.len()
    );
    if bits < 64 {
        for &(a, b) in pairs {
            assert!(a < (1 << bits), "a_value {a} does not fit in {bits} bits");
            assert!(b < (1 << bits), "b_value {b} does not fit in {bits} bits");
        }
    }

    // Input sharing: MSB-first bit decomposition, lane-packed per position
    // (bit plane `i` holds bit `i` of pair `j`'s value in lane `j`).
    let (mut a_planes, mut b_planes) = ([0u64; 64], [0u64; 64]);
    for (j, &(a, b)) in pairs.iter().enumerate() {
        (a_planes[j], b_planes[j]) = (a, b);
    }
    transpose(&mut a_planes);
    transpose(&mut b_planes);
    let mut leaves: Vec<(SharedLanes, SharedLanes)> = Vec::with_capacity(bits as usize);
    for i in (0..bits as usize).rev() {
        let a_s = ctx.share_from_a(a_planes[i]);
        let b_s = ctx.share_from_b(b_planes[i]);
        // gt_i = a_i AND (NOT b_i); eq_i = NOT (a_i XOR b_i)
        let not_b = ctx.not(b_s);
        let gt = ctx.and(a_s, not_b);
        let xor = ctx.xor(a_s, b_s);
        let eq = ctx.not(xor);
        leaves.push((gt, eq));
    }
    ctx.end_layer(); // all leaf ANDs run in parallel

    // Balanced-tree merge, MSB-first: for adjacent blocks (hi, lo):
    //   gt = gt_hi ⊕ (eq_hi ∧ gt_lo)
    //   eq = eq_hi ∧ eq_lo
    let mut level = leaves;
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        for chunk in level.chunks(2) {
            if let [(gt_hi, eq_hi), (gt_lo, eq_lo)] = *chunk {
                let carry = ctx.and(eq_hi, gt_lo);
                let gt = ctx.xor(gt_hi, carry);
                let eq = ctx.and(eq_hi, eq_lo);
                next.push((gt, eq));
            } else {
                next.push(chunk[0]);
            }
        }
        ctx.end_layer(); // merges within a level are parallel
        level = next;
    }

    let (gt, eq) = level[0];
    let gt_word = ctx.reveal(gt);
    let eq_word = ctx.reveal(eq);
    (0..pairs.len())
        .map(|j| CompareOutcome {
            a_greater: (gt_word >> j) & 1 == 1,
            equal: (eq_word >> j) & 1 == 1,
        })
        .collect()
}

/// Transposes a 64×64 bit matrix in place: bit `i` of word `j` becomes bit
/// `j` of word `i`. Each pass swaps the off-diagonal blocks of width `w`.
fn transpose(m: &mut [u64; 64]) {
    let (mut w, mut mask) = (32, u64::MAX >> 32);
    while w > 0 {
        for block in (0..64).step_by(2 * w) {
            for r in block..block + w {
                let t = ((m[r] >> w) ^ m[r + w]) & mask;
                m[r] ^= t << w;
                m[r + w] ^= t;
            }
        }
        w /= 2;
        mask ^= mask << w;
    }
}

/// The communication one [`secure_compare`] session costs at `bits` bits
/// and `lanes` lanes, whatever the pair count: per-bit input sharing, one
/// AND per leaf and two per balanced-tree merge (`3·bits − 2` in all, each
/// two OTs of a lane-word choice and a 16-byte ciphertext pair), two
/// rounds per layer, and two lane-word reveals of one round each. A lane
/// word is `lanes.div_ceil(8)` bytes.
pub fn circuit_cost(bits: u32, lanes: usize) -> CommMeter {
    let word = lanes.div_ceil(8) as u64;
    let ands = 3 * u64::from(bits) - 2;
    let share_msgs = 2 * u64::from(bits);
    let reveal_msgs = 4;
    // Layers: the leaf layer plus ceil(log2 bits) merge layers.
    let layers = 1 + u64::from(bits.next_power_of_two().trailing_zeros());
    CommMeter {
        messages: share_msgs + 4 * ands + reveal_msgs,
        bytes: word * share_msgs + ands * 2 * (word + 16) + word * reveal_msgs,
        rounds: 2 * layers + 2,
    }
}

/// Securely reveals the signed difference `a_value - b_value` to both
/// parties (used in Algorithm 2, line 7, to evaluate the Metropolis
/// acceptance probability `e^{f(X_t) - f(X'_t)}`).
///
/// Protocol: B masks its value with a fresh random `r` and sends `b + r`;
/// A replies with `a - (b + r)`; B unmasks by adding `r` and sends the
/// difference back. Each party's incoming messages are uniformly masked;
/// the only new information either side learns is the difference itself
/// (from which the other's value follows — that is the agreed output of the
/// functionality, exactly as in the paper's protocol). The values are full
/// 8-byte words whatever the session's lane width.
pub fn secure_difference(ctx: &mut TwoParty, a_value: i64, b_value: i64) -> i64 {
    // B → A: masked value.
    let r = ctx.b_rng_next() as i64;
    let masked_b = b_value.wrapping_add(r);
    ctx.meter.message(8);
    ctx.meter.round();
    // A → B: a - (b + r).
    let masked_diff = a_value.wrapping_sub(masked_b);
    ctx.meter.message(8);
    ctx.meter.round();
    // B unmasks and broadcasts the difference.
    let diff = masked_diff.wrapping_add(r);
    ctx.meter.message(8);
    ctx.meter.round();
    diff
}

/// The communication of [`secure_difference`]: three 8-byte messages in
/// three rounds.
pub fn difference_cost() -> CommMeter {
    CommMeter {
        messages: 3,
        bytes: 24,
        rounds: 3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumos_common::rng::Xoshiro256pp;

    /// One comparison on a fresh 1-lane session.
    fn compare_one(seed: u64, a: u64, b: u64, bits: u32) -> (CompareOutcome, TwoParty) {
        let mut ctx = TwoParty::new(seed, 1);
        let out = secure_compare(&mut ctx, &[(a, b)], bits)[0];
        (out, ctx)
    }

    #[test]
    fn compare_matches_plain_ordering_exhaustive_small() {
        for a in 0..16u64 {
            for b in 0..16u64 {
                let (out, _) = compare_one(a * 31 + b, a, b, 4);
                assert_eq!(out.ordering(), a.cmp(&b), "a={a} b={b}");
            }
        }
    }

    #[test]
    fn compare_random_wide_values() {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        for _ in 0..200 {
            let a = rng.next_below(1 << 20);
            let b = rng.next_below(1 << 20);
            let (out, _) = compare_one(rng.next_u64(), a, b, 20);
            assert_eq!(out.ordering(), a.cmp(&b));
        }
    }

    #[test]
    fn compare_full_64_bits() {
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        for _ in 0..50 {
            let a = rng.next_u64();
            let b = rng.next_u64();
            let (out, _) = compare_one(rng.next_u64(), a, b, 64);
            assert_eq!(out.ordering(), a.cmp(&b));
        }
    }

    #[test]
    fn and_gate_count_is_linear_with_log_depth_rounds() {
        let bits = 32u32;
        let (_, ctx) = compare_one(9, 123456, 654321, bits);
        // Leaves: `bits` ANDs. Merges: 2 ANDs per internal node of a
        // balanced binary tree with `bits` leaves = 2*(bits-1).
        assert_eq!(ctx.and_gates, (bits + 2 * (bits - 1)) as u64);
        // Rounds: 2 per layer (leaf layer + ceil(log2 bits) merge layers)
        // + 2 reveals.
        let layers = 1 + (bits as f64).log2().ceil() as u64;
        assert_eq!(ctx.meter.rounds, 2 * layers + 2);
    }

    #[test]
    fn transpose_turns_values_into_bit_planes() {
        let mut rng = Xoshiro256pp::seed_from_u64(6);
        let values: [u64; 64] = std::array::from_fn(|_| rng.next_u64());
        let mut planes = values;
        transpose(&mut planes);
        for (i, plane) in planes.iter().enumerate() {
            for (j, value) in values.iter().enumerate() {
                assert_eq!((plane >> j) & 1, (value >> i) & 1, "plane {i}, lane {j}");
            }
        }
    }

    #[test]
    fn difference_is_exact_for_random_pairs() {
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        for _ in 0..300 {
            let a = (rng.next_u64() % 100_000) as i64 - 50_000;
            let b = (rng.next_u64() % 100_000) as i64 - 50_000;
            let mut ctx = TwoParty::new(rng.next_u64(), 1);
            assert_eq!(secure_difference(&mut ctx, a, b), a - b);
        }
    }

    #[test]
    fn difference_counts_three_messages() {
        let mut ctx = TwoParty::new(4, 1);
        let _ = secure_difference(&mut ctx, 10, 3);
        assert_eq!(ctx.meter, difference_cost());
        assert_eq!(ctx.meter.messages, 3);
        assert_eq!(ctx.meter.rounds, 3);
        assert_eq!(ctx.meter.bytes, 24);
    }

    #[test]
    fn transcript_length_is_input_independent() {
        // Zero-knowledge sanity: the protocol's communication pattern must
        // not depend on the secret values (only on the bit width).
        let run = |a: u64, b: u64| {
            let mut ctx = TwoParty::with_transcript(42, 1);
            let _ = secure_compare(&mut ctx, &[(a, b)], 16);
            (ctx.meter, ctx.transcript().len())
        };
        let (m1, t1) = run(0, 0);
        let (m2, t2) = run(65_535, 0);
        let (m3, t3) = run(12_345, 54_321);
        assert_eq!(m1, m2);
        assert_eq!(m2, m3);
        assert_eq!(t1, t2);
        assert_eq!(t2, t3);
    }

    #[test]
    fn transcript_bits_are_unbiased_across_sessions() {
        // With fresh session randomness, every wire bit — OT responses
        // included — should be close to a fair coin regardless of the
        // inputs being compared.
        for &(a, b) in &[(0u64, 1023u64), (1023, 0), (512, 512)] {
            let mut ones = 0u64;
            let mut total = 0usize;
            for seed in 0..300u64 {
                let mut ctx = TwoParty::with_transcript(seed, 1);
                let _ = secure_compare(&mut ctx, &[(a, b)], 10);
                ones += ctx.transcript().iter().sum::<u64>();
                total += ctx.transcript().len();
            }
            let frac = ones as f64 / total as f64;
            assert!(
                (frac - 0.5).abs() < 0.05,
                "wire bias {frac} for inputs ({a},{b})"
            );
        }
    }
}
