//! Batched secure comparison: any number of independent pairs, as sessions
//! of up to `lanes` pairs each.
//!
//! The tree constructor's comparisons come in large *independent* sweeps —
//! Algorithm 3 compares every edge of the graph per phase, Algorithm 1
//! every edge once — and the CrypTFlow2-style circuit is data-parallel
//! across those sweeps by construction. [`secure_compare_batch`] cuts a
//! sweep into sessions of `lanes` pairs ([`crate::compare::secure_compare`]
//! on a [`TwoParty`] of that width): at one lane every pair is its own
//! circuit, at [`LANES`] = 64 every AND gate's two OTs serve 64 pairs.
//!
//! Each session runs with a seed derived from its index, and large batches
//! spread the sessions across OS threads (`std::thread::scope`, the
//! workspace's established parallelism idiom). Results, meters, and gate
//! counts are folded back in session order, so the outcome is
//! bit-identical however many threads the host machine offers.

use std::sync::OnceLock;

use lumos_common::rng::SplitMix64;

use crate::circuit::TwoParty;
use crate::compare::{secure_compare, CompareOutcome};
use crate::meter::CommMeter;

/// Comparison lanes per word at the widest: the bit width of the share words.
pub const LANES: usize = 64;

/// Result of a batched comparison sweep.
#[derive(Debug, Clone)]
pub struct BatchComparison {
    /// Per-pair outcomes, in input order.
    pub outcomes: Vec<CompareOutcome>,
    /// Communication across all sessions.
    pub meter: CommMeter,
    /// AND gates evaluated (each covering one session's lanes).
    pub and_gates: u64,
    /// Number of lane words (sessions) the batch was packed into.
    pub words: usize,
}

/// Session seed for word `w` of a batch, keyed by word index so the word
/// order — not the thread schedule — decides every session's stream.
///
/// The word index goes through a full SplitMix64 mix rather than the
/// oracle layer's `seed ^ counter·K` discipline: composing two XOR layers
/// with the same odd constant is not injective across (batch, word) pairs
/// (`c=1, w=2` cancels against `c=3, w=0`), and colliding session seeds
/// would reuse dealer pads across sweeps — letting an observer XOR two
/// transcripts and cancel the masks off secret-dependent share words.
fn word_seed(seed: u64, w: usize) -> u64 {
    SplitMix64::new(seed.wrapping_add(w as u64)).next_u64()
}

/// Up to this many pairs a batch runs on the calling thread: spawning
/// costs more than the few sessions' circuit work it would spread (the
/// sequential and threaded paths are bit-identical by construction).
/// Seven 64-lane words.
const MAX_PAIRS_ON_CALLER: usize = 7 * LANES;

/// Securely compares any number of independent `(a, b)` pairs over
/// `bits`-bit representations, `lanes` pairs per session, sessions spread
/// across OS threads when the batch holds more than seven 64-lane words of
/// pairs. Deterministic in `seed` regardless of thread count; an empty
/// batch returns an empty result.
///
/// # Panics
/// Panics if `bits` is not in `1..=64`, `lanes` is not in `1..=64`, or any
/// value does not fit.
pub fn secure_compare_batch(
    seed: u64,
    pairs: &[(u64, u64)],
    bits: u32,
    lanes: usize,
) -> BatchComparison {
    let words = pairs.len().div_ceil(lanes);
    let mut outcomes = vec![CompareOutcome::default(); pairs.len()];
    let mut costs = vec![(CommMeter::new(), 0u64); words];
    // Runs the sessions of one contiguous run of words, the first of which
    // is word `first`.
    let run = |first: usize,
               pairs: &[(u64, u64)],
               outs: &mut [CompareOutcome],
               costs: &mut [(CommMeter, u64)]| {
        let sessions = pairs.chunks(lanes).zip(outs.chunks_mut(lanes));
        for (w, ((word, out), cost)) in sessions.zip(costs).enumerate() {
            let mut ctx = TwoParty::new(word_seed(seed, first + w), lanes);
            out.copy_from_slice(&secure_compare(&mut ctx, word, bits));
            *cost = (ctx.meter, ctx.and_gates);
        }
    };
    // std answers `available_parallelism` by re-reading procfs/cgroup files
    // (~17 µs a call, more than a small batch's circuit work): small
    // batches never ask, large ones share one answer per process.
    static HOST_THREADS: OnceLock<usize> = OnceLock::new();
    let threads = if pairs.len() <= MAX_PAIRS_ON_CALLER {
        1
    } else {
        (*HOST_THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get())))
            .min(words)
    };
    if threads <= 1 {
        run(0, pairs, &mut outcomes, &mut costs);
    } else {
        let per = words.div_ceil(threads);
        let run = &run;
        #[expect(
            clippy::disallowed_methods,
            reason = "each thread fills the slots of its own words, and the fold below reads them back in word order"
        )]
        std::thread::scope(|scope| {
            let chunks = pairs
                .chunks(per * lanes)
                .zip(outcomes.chunks_mut(per * lanes))
                .zip(costs.chunks_mut(per));
            for (t, ((pairs, outs), costs)) in chunks.enumerate() {
                scope.spawn(move || run(t * per, pairs, outs, costs));
            }
        });
    }

    let mut out = BatchComparison {
        outcomes,
        meter: CommMeter::new(),
        and_gates: 0,
        words,
    };
    for (meter, ands) in costs {
        out.meter.merge(&meter);
        out.and_gates += ands;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumos_common::rng::Xoshiro256pp;

    #[test]
    fn single_lane_truth_tables() {
        for seed in 0..30u64 {
            for (a, b) in [(0u64, 0u64), (0, 1), (1, 0), (5, 9), (9, 5), (7, 7)] {
                let mut ctx = TwoParty::new(seed, LANES);
                let out = secure_compare(&mut ctx, &[(a, b)], 4);
                assert_eq!(out[0].ordering(), a.cmp(&b), "seed={seed} a={a} b={b}");
            }
        }
    }

    #[test]
    fn full_word_matches_plain_ordering() {
        let mut rng = Xoshiro256pp::seed_from_u64(11);
        let pairs: Vec<(u64, u64)> = (0..64)
            .map(|_| (rng.next_below(1 << 20), rng.next_below(1 << 20)))
            .collect();
        let mut ctx = TwoParty::new(3, LANES);
        let out = secure_compare(&mut ctx, &pairs, 20);
        for (j, (&(a, b), o)) in pairs.iter().zip(&out).enumerate() {
            assert_eq!(o.ordering(), a.cmp(&b), "lane {j}");
        }
    }

    #[test]
    fn word_gate_count_matches_the_scalar_circuit() {
        // Same logical circuit: bits leaf ANDs + 2·(bits − 1) merge ANDs —
        // but counted in words, covering up to 64 lanes each.
        for bits in [1u32, 2, 5, 16, 48, 64] {
            let mut ctx = TwoParty::new(7, LANES);
            let _ = secure_compare(&mut ctx, &[(0, 0)], bits);
            assert_eq!(ctx.and_gates, (3 * bits - 2) as u64, "bits={bits}");
        }
    }

    #[test]
    fn full_word_pays_64x_fewer_messages_than_scalar() {
        let pairs: Vec<(u64, u64)> = (0..64).map(|j| (j, 63 - j)).collect();
        let batch = secure_compare_batch(5, &pairs, 16, LANES);
        let scalar = secure_compare_batch(5, &pairs, 16, 1);
        assert_eq!(batch.words, 1);
        assert_eq!(scalar.words, 64);
        assert_eq!(batch.outcomes, scalar.outcomes);
        assert_eq!(
            scalar.meter.messages,
            64 * batch.meter.messages,
            "64 lanes must share one word's messages"
        );
        assert!(scalar.meter.bytes > 40 * batch.meter.bytes);
        assert_eq!(scalar.meter.rounds, 64 * batch.meter.rounds);
    }

    #[test]
    fn batch_splits_into_words_and_keeps_order() {
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        let pairs: Vec<(u64, u64)> = (0..150)
            .map(|_| (rng.next_below(1 << 12), rng.next_below(1 << 12)))
            .collect();
        let batch = secure_compare_batch(9, &pairs, 12, LANES);
        assert_eq!(batch.words, 3);
        assert_eq!(batch.outcomes.len(), 150);
        for (j, (&(a, b), o)) in pairs.iter().zip(&batch.outcomes).enumerate() {
            assert_eq!(o.ordering(), a.cmp(&b), "pair {j}");
        }
        // Three words, identical per-word cost: partial words price like
        // full ones (the transcript must not reveal the lane count).
        let one = secure_compare_batch(9, &pairs[..1], 12, LANES);
        assert_eq!(batch.meter, one.meter.times(3));
        assert_eq!(batch.and_gates, 3 * one.and_gates);
    }

    #[test]
    fn word_seeds_do_not_collide_across_oracle_sessions() {
        // Regression: `seed ^ (w+1)·K` composed with the oracle layer's
        // per-batch `seed ^ c·K` (same odd K) cancelled by XOR — batch
        // c=1/word w=2 and batch c=3/word w=0 shared a session seed, hence
        // dealer pads. The SplitMix64 mix must keep every (batch, word)
        // session distinct.
        const K: u64 = 0x9E37_79B9_7F4A_7C15;
        let oracle_seed = 42u64;
        let mut seen = std::collections::BTreeSet::new();
        for c in 1..=64u64 {
            let batch_seed = oracle_seed ^ c.wrapping_mul(K);
            for w in 0..64usize {
                assert!(
                    seen.insert(word_seed(batch_seed, w)),
                    "session-seed collision at batch {c}, word {w}"
                );
            }
        }
    }

    #[test]
    fn large_batches_match_the_sequential_path() {
        // The threaded path (more than MAX_PAIRS_ON_CALLER pairs on
        // multicore hosts) must agree with the word-order semantics
        // whatever the host: pin it against the plain ordering, at both
        // lane widths.
        let pairs: Vec<(u64, u64)> = (0..MAX_PAIRS_ON_CALLER as u64 + 3 * 64)
            .map(|j| (j % 251, j % 127))
            .collect();
        for lanes in [1, LANES] {
            let batch = secure_compare_batch(13, &pairs, 8, lanes);
            assert_eq!(batch.words, pairs.len().div_ceil(lanes));
            for (j, (&(a, b), o)) in pairs.iter().zip(&batch.outcomes).enumerate() {
                assert_eq!(o.ordering(), a.cmp(&b), "lanes {lanes}, pair {j}");
            }
        }
    }

    #[test]
    fn empty_batch_is_free() {
        let batch = secure_compare_batch(1, &[], 16, LANES);
        assert!(batch.outcomes.is_empty());
        assert_eq!(batch.words, 0);
        assert_eq!(batch.meter, CommMeter::new());
    }

    #[test]
    fn batch_is_deterministic_in_seed() {
        let pairs: Vec<(u64, u64)> = (0..200).map(|j| (j % 37, j % 11)).collect();
        let a = secure_compare_batch(42, &pairs, 8, LANES);
        let b = secure_compare_batch(42, &pairs, 8, LANES);
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.meter, b.meter);
    }

    #[test]
    fn default_session_records_no_transcript() {
        let mut ctx = TwoParty::new(2, LANES);
        let _ = secure_compare(&mut ctx, &[(3, 4), (9, 9)], 8);
        assert!(ctx.transcript().is_empty());
        assert!(ctx.meter.messages > 0);
    }

    #[test]
    fn transcript_words_are_unbiased_across_sessions() {
        // With fresh session randomness every wire word — OT responses
        // included — must look uniform, whatever the lane values.
        for &(a, b) in &[(0u64, 1023u64), (1023, 0), (512, 512)] {
            let mut ones = 0u64;
            let mut total = 0u64;
            for seed in 0..150u64 {
                let mut ctx = TwoParty::with_transcript(seed, LANES);
                let _ = secure_compare(&mut ctx, &[(a, b); 64], 10);
                ones += ctx
                    .transcript()
                    .iter()
                    .map(|w| w.count_ones() as u64)
                    .sum::<u64>();
                total += ctx.transcript().len() as u64 * 64;
            }
            let frac = ones as f64 / total as f64;
            assert!(
                (frac - 0.5).abs() < 0.05,
                "wire bias {frac} for inputs ({a},{b})"
            );
        }
    }

    #[test]
    fn outcome_flags_match_scalar_not_just_ordering() {
        // gt/eq flags — not only the derived Ordering — must agree between
        // lane widths (eq drives candidate ties in Algorithm 3).
        let mut rng = Xoshiro256pp::seed_from_u64(8);
        let pairs: Vec<(u64, u64)> = (0..100)
            .map(|i| {
                if i % 5 == 0 {
                    let v = rng.next_below(1 << 16);
                    (v, v)
                } else {
                    (rng.next_below(1 << 16), rng.next_below(1 << 16))
                }
            })
            .collect();
        let batch = secure_compare_batch(77, &pairs, 16, LANES);
        let scalar = secure_compare_batch(1000, &pairs, 16, 1);
        for (i, (&(a, b), o)) in pairs.iter().zip(&batch.outcomes).enumerate() {
            assert_eq!(*o, scalar.outcomes[i], "pair {i}");
            assert_eq!(o.equal, a == b, "pair {i}");
            assert_eq!(o.a_greater, a > b, "pair {i}");
        }
    }
}
