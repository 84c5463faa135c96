//! Two-party boolean circuit evaluation over XOR secret shares.
//!
//! XOR/NOT gates are local; AND gates use two oblivious transfers (Gilboa's
//! construction, the GMW online phase). The simulation executes both
//! parties in one process, but the information flow is enforced by the API:
//! a [`SharedBit`]'s shares are private, and only [`TwoParty::reveal`]
//! combines them — exactly the discipline a real deployment would have.

use lumos_common::rng::Xoshiro256pp;

use crate::meter::CommMeter;
use crate::ot::{ot_transfer, OtDealer};

/// An XOR-shared secret bit: the actual value is `share_a ^ share_b`, with
/// party A holding `share_a` and party B holding `share_b`.
// No `Debug`: a formatted share is a cleartext leak (lumos-lint
// `secret-leak`); only `TwoParty::reveal` may combine the halves.
#[derive(Clone, Copy)]
pub struct SharedBit {
    share_a: bool,
    share_b: bool,
}

/// Execution context for a two-party computation session.
#[derive(Debug)]
pub struct TwoParty {
    dealer: OtDealer,
    rng_a: Xoshiro256pp,
    rng_b: Xoshiro256pp,
    /// Communication tallies for the whole session.
    pub meter: CommMeter,
    /// Values observed on the wire (masked share messages), recorded only
    /// when the session was created with [`TwoParty::with_transcript`].
    /// `None` by default: a long-lived session (e.g. a paper-scale MCMC
    /// run) would otherwise grow its transcript without bound.
    transcript: Option<Vec<bool>>,
    /// Number of AND gates evaluated.
    pub and_gates: u64,
}

impl TwoParty {
    /// Creates a session; `seed` drives the dealer and both parties' local
    /// randomness (forked into independent streams). Wire values are *not*
    /// recorded — use [`TwoParty::with_transcript`] for leakage analyses.
    pub fn new(seed: u64) -> Self {
        Self::build(seed, false)
    }

    /// Creates a session that records every wire value for leakage tests.
    /// Identical protocol behavior (same RNG streams, meter, outputs); only
    /// the bookkeeping differs.
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

    /// The recorded wire values (empty unless the session was created with
    /// [`TwoParty::with_transcript`]).
    pub fn transcript(&self) -> &[bool] {
        self.transcript.as_deref().unwrap_or(&[])
    }

    /// Whether this session records wire values.
    pub fn records_transcript(&self) -> bool {
        self.transcript.is_some()
    }

    fn record(&mut self, bit: bool) {
        if let Some(t) = &mut self.transcript {
            t.push(bit);
        }
    }

    /// Party A secret-shares an input bit (one masked bit goes to B).
    pub fn share_from_a(&mut self, bit: bool) -> SharedBit {
        let mask = self.rng_a.bernoulli(0.5);
        // A keeps bit ^ mask, sends mask to B.
        self.meter.message(1);
        self.record(mask);
        SharedBit {
            share_a: bit ^ mask,
            share_b: mask,
        }
    }

    /// Party B secret-shares an input bit (one masked bit goes to A).
    pub fn share_from_b(&mut self, bit: bool) -> SharedBit {
        let mask = self.rng_b.bernoulli(0.5);
        self.meter.message(1);
        self.record(mask);
        SharedBit {
            share_a: mask,
            share_b: bit ^ mask,
        }
    }

    /// XOR gate (free: local on both parties).
    pub fn xor(&self, x: SharedBit, y: SharedBit) -> SharedBit {
        SharedBit {
            share_a: x.share_a ^ y.share_a,
            share_b: x.share_b ^ y.share_b,
        }
    }

    /// NOT gate (free: party A flips its share).
    pub fn not(&self, x: SharedBit) -> SharedBit {
        SharedBit {
            share_a: !x.share_a,
            share_b: x.share_b,
        }
    }

    /// AND gate via two oblivious transfers (Gilboa).
    ///
    /// `z = x & y` where `x = x_a ^ x_b`, `y = y_a ^ y_b`:
    /// the cross terms `x_a·y_b` and `x_b·y_a` are computed by one OT each,
    /// with the quadratic local terms folded in.
    pub fn and(&mut self, x: SharedBit, y: SharedBit) -> SharedBit {
        self.and_gates += 1;
        // OT 1: B is sender offering (s_b, s_b ^ y_b); A chooses with x_a.
        let s_b = self.rng_b.bernoulli(0.5);
        let (q_a, tr1) = ot_transfer(
            s_b as u64,
            (s_b ^ y.share_b) as u64,
            x.share_a,
            &mut self.dealer,
            &mut self.meter,
        );
        // OT 2: A is sender offering (s_a, s_a ^ y_a); B chooses with x_b.
        let s_a = self.rng_a.bernoulli(0.5);
        let (q_b, tr2) = ot_transfer(
            s_a as u64,
            (s_a ^ y.share_a) as u64,
            x.share_b,
            &mut self.dealer,
            &mut self.meter,
        );
        self.record(tr1.masked_choice);
        self.record(tr2.masked_choice);
        SharedBit {
            share_a: (x.share_a & y.share_a) ^ (q_a != 0) ^ s_a,
            share_b: (x.share_b & y.share_b) ^ (q_b != 0) ^ s_b,
        }
    }

    /// Marks the end of a parallel layer of gates: one synchronization round
    /// for the OT choice messages and one for the OT responses.
    pub fn end_layer(&mut self) {
        self.meter.round();
        self.meter.round();
    }

    /// Opens a shared bit to both parties (two share messages, one round).
    pub fn reveal(&mut self, x: SharedBit) -> bool {
        self.meter.message(1);
        self.meter.message(1);
        self.meter.round();
        self.record(x.share_a);
        self.record(x.share_b);
        x.share_a ^ x.share_b
    }

    /// Draws masking material from party B's local randomness stream.
    pub(crate) fn b_rng_next(&mut self) -> u64 {
        self.rng_b.next_u64()
    }

    /// Test-only accessor used by leakage analyses in this crate's tests:
    /// what party A's view of the shares is.
    #[cfg(test)]
    pub(crate) fn share_a_view(x: SharedBit) -> bool {
        x.share_a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval_and(seed: u64, x: bool, y: bool) -> bool {
        let mut ctx = TwoParty::new(seed);
        let xs = ctx.share_from_a(x);
        let ys = ctx.share_from_b(y);
        let z = ctx.and(xs, ys);
        ctx.end_layer();
        ctx.reveal(z)
    }

    #[test]
    fn and_gate_truth_table() {
        for seed in 0..50u64 {
            assert!(!eval_and(seed, false, false));
            assert!(!eval_and(seed, false, true));
            assert!(!eval_and(seed, true, false));
            assert!(eval_and(seed, true, true));
        }
    }

    #[test]
    fn and_gate_on_same_party_inputs() {
        // Both inputs shared from A: (a AND a') correctness.
        for seed in 0..20u64 {
            let mut ctx = TwoParty::new(seed);
            let x = ctx.share_from_a(true);
            let y = ctx.share_from_a(true);
            let z = ctx.and(x, y);
            assert!(ctx.reveal(z));
            let w = ctx.share_from_a(false);
            let z2 = ctx.and(x, w);
            assert!(!ctx.reveal(z2));
        }
    }

    #[test]
    fn xor_not_gates_are_free_and_correct() {
        let mut ctx = TwoParty::new(3);
        let x = ctx.share_from_a(true);
        let y = ctx.share_from_b(true);
        let baseline = ctx.meter;
        let z = ctx.xor(x, y);
        let nz = ctx.not(z);
        assert_eq!(ctx.meter, baseline, "xor/not must not communicate");
        assert!(!ctx.reveal(z));
        assert!(ctx.reveal(nz));
    }

    #[test]
    fn constants_behave() {
        let mut ctx = TwoParty::new(4);
        // A public constant is held as `(value, false)` by convention.
        let one = SharedBit {
            share_a: true,
            share_b: false,
        };
        let x = ctx.share_from_b(true);
        let z = ctx.and(one, x);
        assert!(ctx.reveal(z));
    }

    #[test]
    fn share_messages_are_unbiased_masks() {
        // The masked share a party sends must look like a fair coin
        // regardless of the secret bit — otherwise inputs leak.
        for &secret in &[false, true] {
            let mut ones = 0usize;
            let n = 20_000;
            let mut ctx = TwoParty::new(99);
            for _ in 0..n {
                let s = ctx.share_from_a(secret);
                // B's view is its share (the mask sent over the wire).
                if s.share_b {
                    ones += 1;
                }
            }
            let frac = ones as f64 / n as f64;
            assert!((frac - 0.5).abs() < 0.02, "secret={secret}: {frac}");
        }
    }

    #[test]
    fn party_a_view_of_and_output_is_unbiased() {
        // After an AND, each party's output share alone must be uniform.
        let mut ones = 0usize;
        let n = 10_000;
        let mut ctx = TwoParty::new(123);
        for _ in 0..n {
            let x = ctx.share_from_a(true);
            let y = ctx.share_from_b(true);
            let z = ctx.and(x, y);
            if TwoParty::share_a_view(z) {
                ones += 1;
            }
        }
        let frac = ones as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.03, "share bias {frac}");
    }

    #[test]
    fn default_session_records_no_transcript() {
        // Regression: the transcript used to grow unconditionally for the
        // life of the session — unbounded memory in long balancing runs.
        let mut ctx = TwoParty::new(6);
        assert!(!ctx.records_transcript());
        let x = ctx.share_from_a(true);
        let y = ctx.share_from_b(false);
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
                TwoParty::with_transcript(9)
            } else {
                TwoParty::new(9)
            };
            let x = ctx.share_from_a(true);
            let y = ctx.share_from_b(true);
            let z = ctx.and(x, y);
            (ctx.reveal(z), ctx.meter, ctx.transcript().len())
        };
        let (out_off, meter_off, len_off) = run(false);
        let (out_on, meter_on, len_on) = run(true);
        assert_eq!(out_off, out_on);
        assert_eq!(meter_off, meter_on);
        assert_eq!(len_off, 0);
        // Shares ×2 + OT choices ×2 + reveal shares ×2.
        assert_eq!(len_on, 6);
    }

    #[test]
    fn communication_costs_match_protocol() {
        let mut ctx = TwoParty::new(5);
        let x = ctx.share_from_a(true); // 1 msg
        let y = ctx.share_from_b(false); // 1 msg
        let z = ctx.and(x, y); // 2 OTs = 4 msgs
        ctx.end_layer(); // 2 rounds
        let _ = ctx.reveal(z); // 2 msgs, 1 round
        assert_eq!(ctx.meter.messages, 8);
        assert_eq!(ctx.meter.rounds, 3);
        assert_eq!(ctx.and_gates, 1);
    }
}
