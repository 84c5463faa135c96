//! Two-party boolean circuit evaluation over XOR secret shares.
//!
//! XOR/NOT gates are local; AND gates use two oblivious transfers (Gilboa's
//! construction, the GMW online phase). The simulation executes both
//! parties in one process, but the information flow is enforced by the API:
//! a [`SharedLanes`]' shares are private, and only [`TwoParty::reveal`]
//! combines them — exactly the discipline a real deployment would have.
//!
//! A session has a lane width: every share is a word of that many
//! independent XOR-shared bits, and every gate acts on all lanes at once.
//! One lane is the classic bit circuit; 64 lanes evaluate the same circuit
//! for 64 independent inputs at the message count of one.

use lumos_common::rng::Xoshiro256pp;

use crate::meter::CommMeter;
use crate::ot::{ot_transfer, OtDealer, OtTranscript};

/// A word of XOR-shared secret bits, one per lane: lane `j`'s value is bit
/// `j` of `share_a ^ share_b`, with party A holding `share_a` and party B
/// holding `share_b`.
// No `Debug`: a formatted share is a cleartext leak (checked by
// `tests/source_contract.rs`); only `TwoParty::reveal` may combine the halves.
#[derive(Clone, Copy)]
pub struct SharedLanes {
    share_a: u64,
    share_b: u64,
}

/// Execution context for a two-party computation session.
#[derive(Debug)]
pub struct TwoParty {
    dealer: OtDealer,
    rng_a: Xoshiro256pp,
    rng_b: Xoshiro256pp,
    /// Communication tallies for the whole session.
    pub meter: CommMeter,
    /// Lane words each party received (share masks, OT choices, OT
    /// ciphertexts, reveals), recorded only when the session was created
    /// with [`TwoParty::with_transcript`]. `None` by default: a long-lived
    /// session would otherwise grow its transcript without bound.
    transcript: Option<Vec<u64>>,
    /// Number of AND gates evaluated (each covers every lane).
    pub and_gates: u64,
}

impl TwoParty {
    /// Creates a session of `lanes` lanes (1 to 64); `seed` drives the
    /// dealer and both parties' local randomness (forked into independent
    /// streams). Wire words are *not* recorded — use
    /// [`TwoParty::with_transcript`] for leakage analyses.
    pub fn new(seed: u64, lanes: usize) -> Self {
        Self::build(seed, lanes, false)
    }

    /// Creates a session that records every wire word for leakage tests.
    /// Identical protocol behavior (same RNG streams, meter, outputs); only
    /// the bookkeeping differs.
    pub fn with_transcript(seed: u64, lanes: usize) -> Self {
        Self::build(seed, lanes, true)
    }

    fn build(seed: u64, lanes: usize, record: bool) -> Self {
        let mut root = Xoshiro256pp::seed_from_u64(seed);
        let rng_a = root.fork();
        let rng_b = root.fork();
        Self {
            dealer: OtDealer::new(root.next_u64(), lanes),
            rng_a,
            rng_b,
            meter: CommMeter::new(),
            transcript: record.then(Vec::new),
            and_gates: 0,
        }
    }

    /// Lanes per share word.
    pub(crate) fn lanes(&self) -> usize {
        self.dealer.lanes()
    }

    /// The recorded wire words (empty unless the session was created with
    /// [`TwoParty::with_transcript`]).
    pub fn transcript(&self) -> &[u64] {
        self.transcript.as_deref().unwrap_or(&[])
    }

    /// Whether this session records wire words.
    pub fn records_transcript(&self) -> bool {
        self.transcript.is_some()
    }

    fn record(&mut self, words: &[u64]) {
        if let Some(t) = &mut self.transcript {
            t.extend_from_slice(words);
        }
    }

    fn record_ot(&mut self, tr: OtTranscript) {
        self.record(&[tr.masked_choice, tr.ciphertexts[0], tr.ciphertexts[1]]);
    }

    /// Party A secret-shares an input word (one masked word goes to B).
    pub fn share_from_a(&mut self, word: u64) -> SharedLanes {
        let mask = self.rng_a.next_u64() & self.dealer.mask();
        // A keeps word ^ mask, sends mask to B.
        self.meter.message(self.dealer.word_bytes());
        self.record(&[mask]);
        SharedLanes {
            share_a: word ^ mask,
            share_b: mask,
        }
    }

    /// Party B secret-shares an input word (one masked word goes to A).
    pub fn share_from_b(&mut self, word: u64) -> SharedLanes {
        let mask = self.rng_b.next_u64() & self.dealer.mask();
        self.meter.message(self.dealer.word_bytes());
        self.record(&[mask]);
        SharedLanes {
            share_a: mask,
            share_b: word ^ mask,
        }
    }

    /// Lane-wise XOR gate (free: local on both parties).
    pub fn xor(&self, x: SharedLanes, y: SharedLanes) -> SharedLanes {
        SharedLanes {
            share_a: x.share_a ^ y.share_a,
            share_b: x.share_b ^ y.share_b,
        }
    }

    /// Lane-wise NOT gate (free: party A flips its share's live lanes).
    pub fn not(&self, x: SharedLanes) -> SharedLanes {
        SharedLanes {
            share_a: x.share_a ^ self.dealer.mask(),
            share_b: x.share_b,
        }
    }

    /// Lane-wise AND gate via two oblivious transfers (Gilboa).
    ///
    /// `z = x & y` where `x = x_a ^ x_b`, `y = y_a ^ y_b`: the cross terms
    /// `x_a & y_b` and `x_b & y_a` are computed by one OT each, with the
    /// quadratic local terms folded in.
    pub fn and(&mut self, x: SharedLanes, y: SharedLanes) -> SharedLanes {
        self.and_gates += 1;
        // OT 1: B is sender offering (s_b, s_b ^ y_b); A chooses with x_a.
        let s_b = self.rng_b.next_u64() & self.dealer.mask();
        let (q_a, tr1) = ot_transfer(
            s_b,
            s_b ^ y.share_b,
            x.share_a,
            &mut self.dealer,
            &mut self.meter,
        );
        // OT 2: A is sender offering (s_a, s_a ^ y_a); B chooses with x_b.
        let s_a = self.rng_a.next_u64() & self.dealer.mask();
        let (q_b, tr2) = ot_transfer(
            s_a,
            s_a ^ y.share_a,
            x.share_b,
            &mut self.dealer,
            &mut self.meter,
        );
        self.record_ot(tr1);
        self.record_ot(tr2);
        SharedLanes {
            share_a: (x.share_a & y.share_a) ^ q_a ^ s_a,
            share_b: (x.share_b & y.share_b) ^ q_b ^ s_b,
        }
    }

    /// Marks the end of a parallel layer of gates: one synchronization round
    /// for the OT choice messages and one for the OT responses.
    pub fn end_layer(&mut self) {
        self.meter.round();
        self.meter.round();
    }

    /// Opens a shared word to both parties (two share messages, one round).
    pub fn reveal(&mut self, x: SharedLanes) -> u64 {
        self.meter.message(self.dealer.word_bytes());
        self.meter.message(self.dealer.word_bytes());
        self.meter.round();
        self.record(&[x.share_a, x.share_b]);
        x.share_a ^ x.share_b
    }

    /// Draws a full masking word from party B's local randomness stream.
    pub(crate) fn b_rng_next(&mut self) -> u64 {
        self.rng_b.next_u64()
    }

    /// Test-only accessor used by leakage analyses in this crate's tests:
    /// what party A's view of the shares is.
    #[cfg(test)]
    pub(crate) fn share_a_view(x: SharedLanes) -> u64 {
        x.share_a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval_and(seed: u64, x: u64, y: u64) -> u64 {
        let mut ctx = TwoParty::new(seed, 1);
        let xs = ctx.share_from_a(x);
        let ys = ctx.share_from_b(y);
        let z = ctx.and(xs, ys);
        ctx.end_layer();
        ctx.reveal(z)
    }

    #[test]
    fn and_gate_truth_table() {
        for seed in 0..50u64 {
            assert_eq!(eval_and(seed, 0, 0), 0);
            assert_eq!(eval_and(seed, 0, 1), 0);
            assert_eq!(eval_and(seed, 1, 0), 0);
            assert_eq!(eval_and(seed, 1, 1), 1);
        }
    }

    #[test]
    fn and_gate_on_same_party_inputs() {
        // Both inputs shared from A: (a AND a') correctness.
        for seed in 0..20u64 {
            let mut ctx = TwoParty::new(seed, 1);
            let x = ctx.share_from_a(1);
            let y = ctx.share_from_a(1);
            let z = ctx.and(x, y);
            assert_eq!(ctx.reveal(z), 1);
            let w = ctx.share_from_a(0);
            let z2 = ctx.and(x, w);
            assert_eq!(ctx.reveal(z2), 0);
        }
    }

    #[test]
    fn xor_not_gates_are_free_and_correct() {
        let mut ctx = TwoParty::new(3, 1);
        let x = ctx.share_from_a(1);
        let y = ctx.share_from_b(1);
        let baseline = ctx.meter;
        let z = ctx.xor(x, y);
        let nz = ctx.not(z);
        assert_eq!(ctx.meter, baseline, "xor/not must not communicate");
        assert_eq!(ctx.reveal(z), 0);
        assert_eq!(ctx.reveal(nz), 1);
    }

    #[test]
    fn constants_behave() {
        let mut ctx = TwoParty::new(4, 1);
        // A public constant is held as `(value, 0)` by convention.
        let one = SharedLanes {
            share_a: 1,
            share_b: 0,
        };
        let x = ctx.share_from_b(1);
        let z = ctx.and(one, x);
        assert_eq!(ctx.reveal(z), 1);
    }

    #[test]
    fn share_messages_are_unbiased_masks() {
        // The masked share a party sends must look like a fair coin
        // regardless of the secret bit — otherwise inputs leak.
        for secret in [0, 1] {
            let mut ones = 0u64;
            let n = 20_000;
            let mut ctx = TwoParty::new(99, 1);
            for _ in 0..n {
                // B's view is its share (the mask sent over the wire).
                ones += ctx.share_from_a(secret).share_b;
            }
            let frac = ones as f64 / n as f64;
            assert!((frac - 0.5).abs() < 0.02, "secret={secret}: {frac}");
        }
    }

    #[test]
    fn party_a_view_of_and_output_is_unbiased() {
        // After an AND, each party's output share alone must be uniform.
        let mut ones = 0u64;
        let n = 10_000;
        let mut ctx = TwoParty::new(123, 1);
        for _ in 0..n {
            let x = ctx.share_from_a(1);
            let y = ctx.share_from_b(1);
            let z = ctx.and(x, y);
            ones += TwoParty::share_a_view(z);
        }
        let frac = ones as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.03, "share bias {frac}");
    }

    #[test]
    fn default_session_records_no_transcript() {
        // Regression: the transcript used to grow unconditionally for the
        // life of the session — unbounded memory in long balancing runs.
        let mut ctx = TwoParty::new(6, 1);
        assert!(!ctx.records_transcript());
        let x = ctx.share_from_a(1);
        let y = ctx.share_from_b(0);
        let z = ctx.and(x, y);
        let _ = ctx.reveal(z);
        assert!(
            ctx.transcript().is_empty(),
            "default sessions must not record"
        );
        assert!(ctx.meter.messages > 0, "the meter still counts");
    }

    #[test]
    fn recording_session_behaves_identically() {
        // Same seed, with and without recording: identical protocol outputs
        // and meters — recording is pure bookkeeping.
        let run = |record: bool| {
            let mut ctx = if record {
                TwoParty::with_transcript(9, 1)
            } else {
                TwoParty::new(9, 1)
            };
            let x = ctx.share_from_a(1);
            let y = ctx.share_from_b(1);
            let z = ctx.and(x, y);
            (ctx.reveal(z), ctx.meter, ctx.transcript().to_vec())
        };
        let (out_off, meter_off, words_off) = run(false);
        let (out_on, meter_on, words_on) = run(true);
        assert_eq!(out_off, out_on);
        assert_eq!(meter_off, meter_on);
        assert!(words_off.is_empty());
        // Shares ×2 + per OT (choice + two ciphertexts) ×2 + reveal shares ×2,
        // each masked to the one lane.
        assert_eq!(words_on.len(), 10);
        assert!(words_on.iter().all(|&w| w <= 1));
    }

    #[test]
    fn communication_costs_match_protocol() {
        let mut ctx = TwoParty::new(5, 1);
        let x = ctx.share_from_a(1); // 1 msg
        let y = ctx.share_from_b(0); // 1 msg
        let z = ctx.and(x, y); // 2 OTs = 4 msgs
        ctx.end_layer(); // 2 rounds
        let _ = ctx.reveal(z); // 2 msgs, 1 round
        assert_eq!(ctx.meter.messages, 8);
        assert_eq!(ctx.meter.rounds, 3);
        assert_eq!(ctx.and_gates, 1);
    }
}
