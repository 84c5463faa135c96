//! Bit-sliced 64-lane secure comparison engine.
//!
//! [`crate::compare::secure_compare`] evaluates one comparator circuit per
//! call: every AND gate spends two oblivious transfers whose `u64` payloads
//! carry a single bit. But the tree constructor's comparisons come in large
//! *independent* sweeps — Algorithm 3 compares every edge of the graph per
//! phase, Algorithm 1 every edge once — and the CrypTFlow2-style circuit is
//! data-parallel across those sweeps by construction.
//!
//! This module packs up to [`LANES`] = 64 independent comparisons into the
//! bit positions of a `u64` word: a [`SharedWord`] is 64 XOR-shared bits,
//! one per lane, and one Gilboa AND — two OTs, exactly as many *messages*
//! as the scalar circuit's AND — evaluates the gate for all 64 comparators
//! at once ([`crate::ot::ot_transfer_wide`]). The leaf + balanced-merge
//! tree is identical to the scalar circuit, so a word evaluates the same
//! logical circuit 64 times for the wire traffic of once.
//!
//! Batches larger than one word are split word-by-word; each word runs in
//! its own [`SlicedTwoParty`] session with a seed derived from the word
//! index, and [`secure_compare_batch`] spreads the words across OS threads
//! (`std::thread::scope`, the workspace's established parallelism idiom).
//! Results, meters, and gate counts are folded back in word order, so the
//! outcome is bit-identical however many threads the host machine offers.

use std::sync::OnceLock;

use lumos_common::rng::{SplitMix64, Xoshiro256pp};

use crate::compare::CompareOutcome;
use crate::meter::CommMeter;
use crate::ot::{ot_transfer_wide, OtDealer};

/// Comparison lanes per word: the bit width of the share words.
pub const LANES: usize = 64;

/// 64 XOR-shared secret bits, one comparison lane per bit position: lane
/// `j`'s value is bit `j` of `share_a ^ share_b`.
// No `Debug`: a formatted share word leaks 64 lanes at once (lumos-lint
// `secret-leak`); reveal goes through the session, as in the scalar circuit.
#[derive(Clone, Copy)]
pub struct SharedWord {
    share_a: u64,
    share_b: u64,
}

/// Execution context for a bit-sliced two-party session: the 64-lane
/// counterpart of [`crate::circuit::TwoParty`], with the same seed
/// discipline (forked party streams, dealer from the root stream) and the
/// same opt-in transcript recording.
#[derive(Debug)]
pub struct SlicedTwoParty {
    dealer: OtDealer,
    rng_a: Xoshiro256pp,
    rng_b: Xoshiro256pp,
    /// Communication tallies for the whole session.
    pub meter: CommMeter,
    /// Wire words, recorded only on the [`SlicedTwoParty::with_transcript`]
    /// path (leakage tests).
    transcript: Option<Vec<u64>>,
    /// Number of *word* AND gates evaluated (each covers up to 64 lanes).
    pub and_gates: u64,
}

impl SlicedTwoParty {
    /// Creates a session; wire words are not recorded.
    pub fn new(seed: u64) -> Self {
        Self::build(seed, false)
    }

    /// Creates a session that records every wire word for leakage tests.
    pub fn with_transcript(seed: u64) -> Self {
        Self::build(seed, true)
    }

    fn build(seed: u64, record: bool) -> Self {
        let mut root = Xoshiro256pp::seed_from_u64(seed);
        let rng_a = root.fork();
        let rng_b = root.fork();
        Self {
            dealer: OtDealer::new(root.next_u64()),
            rng_a,
            rng_b,
            meter: CommMeter::new(),
            transcript: record.then(Vec::new),
            and_gates: 0,
        }
    }

    /// The recorded wire words (empty unless created with
    /// [`SlicedTwoParty::with_transcript`]).
    pub fn transcript(&self) -> &[u64] {
        self.transcript.as_deref().unwrap_or(&[])
    }

    fn record(&mut self, word: u64) {
        if let Some(t) = &mut self.transcript {
            t.push(word);
        }
    }

    /// Party A secret-shares an input word (one 8-byte masked word to B).
    pub fn share_from_a(&mut self, word: u64) -> SharedWord {
        let mask = self.rng_a.next_u64();
        self.meter.message(8);
        self.record(mask);
        SharedWord {
            share_a: word ^ mask,
            share_b: mask,
        }
    }

    /// Party B secret-shares an input word (one 8-byte masked word to A).
    pub fn share_from_b(&mut self, word: u64) -> SharedWord {
        let mask = self.rng_b.next_u64();
        self.meter.message(8);
        self.record(mask);
        SharedWord {
            share_a: mask,
            share_b: word ^ mask,
        }
    }

    /// Lane-wise XOR gate (free: local on both parties).
    pub fn xor(&self, x: SharedWord, y: SharedWord) -> SharedWord {
        SharedWord {
            share_a: x.share_a ^ y.share_a,
            share_b: x.share_b ^ y.share_b,
        }
    }

    /// Lane-wise NOT gate (free: party A flips its share word).
    pub fn not(&self, x: SharedWord) -> SharedWord {
        SharedWord {
            share_a: !x.share_a,
            share_b: x.share_b,
        }
    }

    /// Lane-wise AND gate via two wide oblivious transfers (Gilboa): the
    /// cross terms `x_a & y_b` and `x_b & y_a` are computed by one wide OT
    /// each — 64 comparator circuits advance one gate for two OTs' worth of
    /// traffic, where the scalar engine would pay 128 OTs.
    pub fn and(&mut self, x: SharedWord, y: SharedWord) -> SharedWord {
        self.and_gates += 1;
        // Wide OT 1: B offers (s_b, s_b ^ y_b) lane-wise; A chooses with x_a.
        let s_b = self.rng_b.next_u64();
        let (q_a, tr1) = ot_transfer_wide(
            s_b,
            s_b ^ y.share_b,
            x.share_a,
            &mut self.dealer,
            &mut self.meter,
        );
        // Wide OT 2: A offers (s_a, s_a ^ y_a) lane-wise; B chooses with x_b.
        let s_a = self.rng_a.next_u64();
        let (q_b, tr2) = ot_transfer_wide(
            s_a,
            s_a ^ y.share_a,
            x.share_b,
            &mut self.dealer,
            &mut self.meter,
        );
        self.record(tr1.masked_choice);
        self.record(tr2.masked_choice);
        SharedWord {
            share_a: (x.share_a & y.share_a) ^ q_a ^ s_a,
            share_b: (x.share_b & y.share_b) ^ q_b ^ s_b,
        }
    }

    /// Marks the end of a parallel layer of word gates (two rounds, as in
    /// the scalar session).
    pub fn end_layer(&mut self) {
        self.meter.round();
        self.meter.round();
    }

    /// Opens a shared word to both parties (two 8-byte share messages, one
    /// round).
    pub fn reveal(&mut self, x: SharedWord) -> u64 {
        self.meter.message(8);
        self.meter.message(8);
        self.meter.round();
        self.record(x.share_a);
        self.record(x.share_b);
        x.share_a ^ x.share_b
    }
}

/// Securely compares up to [`LANES`] independent `(a, b)` pairs in one
/// bit-sliced circuit evaluation over `bits`-bit unsigned representations.
///
/// Runs the same MSB-first leaf + balanced-merge tree as
/// [`crate::compare::secure_compare`], with every [`SharedBit`] replaced by
/// a [`SharedWord`] whose lane `j` carries pair `j`. Unused lanes of a
/// partial word evaluate the constant pair `(0, 0)`; their wire words are
/// masked exactly like active lanes, so the transcript shape depends only
/// on `bits` — never on the lane count or the values.
///
/// [`SharedBit`]: crate::circuit::SharedBit
///
/// # Panics
/// Panics if `bits` is not in `1..=64`, `pairs` is empty or longer than
/// [`LANES`], or any value does not fit in `bits` bits.
pub fn sliced_compare_word(
    ctx: &mut SlicedTwoParty,
    pairs: &[(u64, u64)],
    bits: u32,
) -> Vec<CompareOutcome> {
    assert!((1..=64).contains(&bits), "bits must be in 1..=64");
    assert!(
        !pairs.is_empty() && pairs.len() <= LANES,
        "a word holds 1..={LANES} lanes, got {}",
        pairs.len()
    );
    if bits < 64 {
        for &(a, b) in pairs {
            assert!(a < (1 << bits), "a_value {a} does not fit in {bits} bits");
            assert!(b < (1 << bits), "b_value {b} does not fit in {bits} bits");
        }
    }

    // Input sharing: MSB-first bit decomposition, lane-packed per position.
    let mut leaves: Vec<(SharedWord, SharedWord)> = Vec::with_capacity(bits as usize);
    for i in (0..bits).rev() {
        let mut a_word = 0u64;
        let mut b_word = 0u64;
        for (j, &(a, b)) in pairs.iter().enumerate() {
            a_word |= ((a >> i) & 1) << j;
            b_word |= ((b >> i) & 1) << j;
        }
        let a_s = ctx.share_from_a(a_word);
        let b_s = ctx.share_from_b(b_word);
        // Lane-wise gt_i = a_i AND (NOT b_i); eq_i = NOT (a_i XOR b_i).
        let not_b = ctx.not(b_s);
        let gt = ctx.and(a_s, not_b);
        let xor = ctx.xor(a_s, b_s);
        let eq = ctx.not(xor);
        leaves.push((gt, eq));
    }
    ctx.end_layer(); // all leaf ANDs run in parallel

    // Balanced-tree merge, MSB-first — the scalar circuit verbatim, one
    // word per node instead of one bit.
    let mut level = leaves;
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        for chunk in level.chunks(2) {
            if chunk.len() == 2 {
                let (gt_hi, eq_hi) = chunk[0];
                let (gt_lo, eq_lo) = chunk[1];
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

/// Result of a batched comparison sweep.
#[derive(Debug, Clone)]
pub struct BatchComparison {
    /// Per-pair outcomes, in input order.
    pub outcomes: Vec<CompareOutcome>,
    /// Communication across all word sessions.
    pub meter: CommMeter,
    /// Word AND gates evaluated (each covering up to 64 lanes).
    pub and_gates: u64,
    /// Number of 64-lane words the batch was packed into.
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

fn run_word(seed: u64, w: usize, lanes: &[(u64, u64)], bits: u32) -> WordResult {
    let mut ctx = SlicedTwoParty::new(word_seed(seed, w));
    let outcomes = sliced_compare_word(&mut ctx, lanes, bits);
    (outcomes, ctx.meter, ctx.and_gates)
}

type WordResult = (Vec<CompareOutcome>, CommMeter, u64);

/// Below this many words a batch runs on the calling thread: spawning
/// costs more than the few words' circuit work it would spread (the
/// sequential and threaded paths are bit-identical by construction).
const MIN_WORDS_TO_SPAWN: usize = 8;

/// Securely compares any number of independent `(a, b)` pairs over
/// `bits`-bit representations, 64 lanes per word, words spread across OS
/// threads. Deterministic in `seed` regardless of thread count; an empty
/// batch returns an empty result.
///
/// # Panics
/// Panics if `bits` is not in `1..=64` or any value does not fit.
pub fn secure_compare_batch(seed: u64, pairs: &[(u64, u64)], bits: u32) -> BatchComparison {
    let words: Vec<&[(u64, u64)]> = pairs.chunks(LANES).collect();
    let mut slots: Vec<Option<WordResult>> = vec![None; words.len()];
    // std answers `available_parallelism` by re-reading procfs/cgroup files
    // (~17 µs a call, more than a small batch's circuit work): small
    // batches never ask, large ones share one answer per process.
    static HOST_THREADS: OnceLock<usize> = OnceLock::new();
    let threads = if words.len() < MIN_WORDS_TO_SPAWN {
        1
    } else {
        (*HOST_THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get())))
            .min(words.len())
    };
    if threads <= 1 {
        for (w, (slot, lanes)) in slots.iter_mut().zip(&words).enumerate() {
            *slot = Some(run_word(seed, w, lanes, bits));
        }
    } else {
        let per = words.len().div_ceil(threads);
        std::thread::scope(|scope| {
            for (t, (slot_chunk, lane_chunk)) in
                slots.chunks_mut(per).zip(words.chunks(per)).enumerate()
            {
                scope.spawn(move || {
                    for (i, (slot, lanes)) in slot_chunk.iter_mut().zip(lane_chunk).enumerate() {
                        *slot = Some(run_word(seed, t * per + i, lanes, bits));
                    }
                });
            }
        });
    }

    let mut out = BatchComparison {
        outcomes: Vec::with_capacity(pairs.len()),
        meter: CommMeter::new(),
        and_gates: 0,
        words: words.len(),
    };
    for slot in slots {
        let (outcomes, meter, ands) = slot.expect("every word evaluated");
        out.outcomes.extend(outcomes);
        out.meter.merge(&meter);
        out.and_gates += ands;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::TwoParty;
    use crate::compare::secure_compare;

    #[test]
    fn single_lane_truth_tables() {
        for seed in 0..30u64 {
            for (a, b) in [(0u64, 0u64), (0, 1), (1, 0), (5, 9), (9, 5), (7, 7)] {
                let mut ctx = SlicedTwoParty::new(seed);
                let out = sliced_compare_word(&mut ctx, &[(a, b)], 4);
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
        let mut ctx = SlicedTwoParty::new(3);
        let out = sliced_compare_word(&mut ctx, &pairs, 20);
        for (j, (&(a, b), o)) in pairs.iter().zip(&out).enumerate() {
            assert_eq!(o.ordering(), a.cmp(&b), "lane {j}");
        }
    }

    #[test]
    fn word_gate_count_matches_the_scalar_circuit() {
        // Same logical circuit: bits leaf ANDs + 2·(bits − 1) merge ANDs —
        // but counted in words, covering up to 64 lanes each.
        for bits in [1u32, 2, 5, 16, 48, 64] {
            let mut ctx = SlicedTwoParty::new(7);
            let _ = sliced_compare_word(&mut ctx, &[(0, 0)], bits);
            assert_eq!(ctx.and_gates, (3 * bits - 2) as u64, "bits={bits}");
        }
    }

    #[test]
    fn full_word_pays_64x_fewer_messages_than_scalar() {
        let pairs: Vec<(u64, u64)> = (0..64).map(|j| (j, 63 - j)).collect();
        let batch = secure_compare_batch(5, &pairs, 16);
        let mut scalar = CommMeter::new();
        for (i, &(a, b)) in pairs.iter().enumerate() {
            let mut ctx = TwoParty::new(i as u64);
            let _ = secure_compare(&mut ctx, a, b, 16);
            scalar.merge(&ctx.meter);
        }
        assert_eq!(batch.words, 1);
        assert_eq!(
            scalar.messages,
            64 * batch.meter.messages,
            "64 lanes must share one word's messages"
        );
        assert!(scalar.bytes > 40 * batch.meter.bytes);
        assert_eq!(scalar.rounds, 64 * batch.meter.rounds);
    }

    #[test]
    fn batch_splits_into_words_and_keeps_order() {
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        let pairs: Vec<(u64, u64)> = (0..150)
            .map(|_| (rng.next_below(1 << 12), rng.next_below(1 << 12)))
            .collect();
        let batch = secure_compare_batch(9, &pairs, 12);
        assert_eq!(batch.words, 3);
        assert_eq!(batch.outcomes.len(), 150);
        for (j, (&(a, b), o)) in pairs.iter().zip(&batch.outcomes).enumerate() {
            assert_eq!(o.ordering(), a.cmp(&b), "pair {j}");
        }
        // Three words, identical per-word cost: partial words price like
        // full ones (the transcript must not reveal the lane count).
        let one = secure_compare_batch(9, &pairs[..1], 12);
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
        // The threaded path (≥ MIN_WORDS_TO_SPAWN words on multicore hosts)
        // must agree with the word-order semantics whatever the host: pin
        // it against a lane-by-lane scalar recomputation.
        let pairs: Vec<(u64, u64)> = (0..(MIN_WORDS_TO_SPAWN as u64 + 2) * 64)
            .map(|j| (j % 251, j % 127))
            .collect();
        let batch = secure_compare_batch(13, &pairs, 8);
        assert!(batch.words >= MIN_WORDS_TO_SPAWN);
        for (j, (&(a, b), o)) in pairs.iter().zip(&batch.outcomes).enumerate() {
            assert_eq!(o.ordering(), a.cmp(&b), "lane {j}");
        }
    }

    #[test]
    fn empty_batch_is_free() {
        let batch = secure_compare_batch(1, &[], 16);
        assert!(batch.outcomes.is_empty());
        assert_eq!(batch.words, 0);
        assert_eq!(batch.meter, CommMeter::new());
    }

    #[test]
    fn batch_is_deterministic_in_seed() {
        let pairs: Vec<(u64, u64)> = (0..200).map(|j| (j % 37, j % 11)).collect();
        let a = secure_compare_batch(42, &pairs, 8);
        let b = secure_compare_batch(42, &pairs, 8);
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.meter, b.meter);
    }

    #[test]
    fn default_session_records_no_transcript() {
        let mut ctx = SlicedTwoParty::new(2);
        let _ = sliced_compare_word(&mut ctx, &[(3, 4), (9, 9)], 8);
        assert!(ctx.transcript().is_empty());
        assert!(ctx.meter.messages > 0);
    }

    #[test]
    fn transcript_words_are_unbiased_across_sessions() {
        // With fresh session randomness every wire word must look uniform,
        // whatever the lane values — the bit-sliced leakage contract.
        for &(a, b) in &[(0u64, 1023u64), (1023, 0), (512, 512)] {
            let mut ones = 0u64;
            let mut total = 0u64;
            for seed in 0..150u64 {
                let mut ctx = SlicedTwoParty::with_transcript(seed);
                let _ = sliced_compare_word(&mut ctx, &[(a, b); 64], 10);
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

    impl CompareOutcome {
        fn key(self) -> (bool, bool) {
            (self.a_greater, self.equal)
        }
    }

    #[test]
    fn outcome_flags_match_scalar_not_just_ordering() {
        // gt/eq flags — not only the derived Ordering — must agree with the
        // scalar circuit (eq drives candidate ties in Algorithm 3).
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
        let batch = secure_compare_batch(77, &pairs, 16);
        for (i, (&(a, b), o)) in pairs.iter().zip(&batch.outcomes).enumerate() {
            let mut ctx = TwoParty::new(1000 + i as u64);
            let scalar = secure_compare(&mut ctx, a, b, 16);
            assert_eq!(o.key(), scalar.key(), "pair {i}");
        }
    }
}
