//! Simulated 1-out-of-2 oblivious transfer over lane words.
//!
//! CrypTFlow2's comparison protocol is built on oblivious transfer (the
//! paper's Theorem 5 cites the OT → zero-knowledge argument). We reproduce
//! the *protocol structure* of OT in the standard OT-hybrid model: a dealer
//! hands out correlated random pads (a "random OT"), and the online phase is
//! Beaver's derandomization — one choice message from the receiver, one
//! two-ciphertext message from the sender. The transcripts a party observes
//! are uniformly random given its own state, which is what the leakage tests
//! check. Public-key realizations of the dealer are out of scope.
//!
//! One transfer moves a *lane word*: lane `j` (bit `j`) of every operand is
//! an independent bit-OT, and the dealer's lane width (1 to 64) says how
//! many lanes are live. A 1-lane dealer is the classic bit-OT; a 64-lane
//! one runs 64 bit-OTs for the message count of one.

use lumos_common::rng::Xoshiro256pp;

use crate::meter::CommMeter;

/// Pads held by the OT sender after precomputation: two random pad words.
// The pads below carry the OT secrets; none derive `Debug` (checked by
// `tests/source_contract.rs`) so a pad can never be formatted into a log in the clear.
#[derive(Clone, Copy)]
pub struct SenderPad {
    r0: u64,
    r1: u64,
}

/// Pads held by the OT receiver after precomputation: a random choice word
/// and the per-lane selected pad bits `rc = (r0 & !c) | (r1 & c)`.
#[derive(Clone, Copy)]
pub struct ReceiverPad {
    c: u64,
    rc: u64,
}

/// Dealer for correlated OT randomness (the simulated offline phase) over
/// words of a fixed lane width.
#[derive(Debug, Clone)]
pub struct OtDealer {
    rng: Xoshiro256pp,
    lanes: usize,
    /// Number of random OTs dealt (offline-phase cost accounting).
    pub dealt: u64,
}

impl OtDealer {
    /// Creates a dealer from a seed, for words of `lanes` lanes.
    ///
    /// # Panics
    /// Panics if `lanes` is not in `1..=64`.
    pub fn new(seed: u64, lanes: usize) -> Self {
        assert!((1..=64).contains(&lanes), "a word holds 1..=64 lanes");
        Self {
            rng: Xoshiro256pp::seed_from_u64(seed),
            lanes,
            dealt: 0,
        }
    }

    /// Lanes per word.
    pub(crate) fn lanes(&self) -> usize {
        self.lanes
    }

    /// The live lanes of a word: the low `lanes` bits.
    pub(crate) fn mask(&self) -> u64 {
        u64::MAX >> (64 - self.lanes)
    }

    /// Wire bytes of one lane word (a share, a choice or a reveal): 1 for
    /// up to 8 lanes, 8 for 64.
    pub(crate) fn word_bytes(&self) -> u64 {
        self.lanes.div_ceil(8) as u64
    }

    /// Deals one random OT: the sender gets pad words `(r0, r1)`, the
    /// receiver a choice word `c` and its per-lane selected pads, all
    /// masked to the lane width.
    pub fn deal(&mut self) -> (SenderPad, ReceiverPad) {
        let mask = self.mask();
        let r0 = self.rng.next_u64() & mask;
        let r1 = self.rng.next_u64() & mask;
        let c = self.rng.next_u64() & mask;
        self.dealt += 1;
        (
            SenderPad { r0, r1 },
            ReceiverPad {
                c,
                rc: (r0 & !c) | (r1 & c),
            },
        )
    }
}

/// One observed OT transcript (for leakage analysis in tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OtTranscript {
    /// The receiver's masked choice word (seen by the sender).
    pub masked_choice: u64,
    /// The sender's two ciphertext words (seen by the receiver).
    pub ciphertexts: [u64; 2],
}

/// Executes one chosen-input 1-out-of-2 OT per lane, using a dealt random
/// OT of `dealer`'s lane width.
///
/// Lane `j` is an independent OT: the sender inputs message bits
/// `(m0_j, m1_j)`, the receiver inputs choice bit `choice_j` and obtains
/// `m_{choice_j}` in bit `j` of the output. The online traffic is one
/// masked choice word (`lanes.div_ceil(8)` bytes) and one 16-byte
/// ciphertext pair. Every operand must fit the lane width.
pub fn ot_transfer(
    m0: u64,
    m1: u64,
    choice: u64,
    dealer: &mut OtDealer,
    meter: &mut CommMeter,
) -> (u64, OtTranscript) {
    let (s, r) = dealer.deal();
    // Receiver → sender: d = choice XOR c, lane-wise.
    let d = choice ^ r.c;
    meter.message(dealer.word_bytes());
    // Sender → receiver: per-lane ciphertexts aligned so the lane's chosen
    // position decrypts under the receiver's pad bit (a lane-wise swap of
    // the pads where d is set).
    let k0 = (s.r0 & !d) | (s.r1 & d);
    let k1 = (s.r1 & !d) | (s.r0 & d);
    let e0 = m0 ^ k0;
    let e1 = m1 ^ k1;
    meter.message(16);
    // Round accounting is left to the caller: protocols run many OTs in
    // parallel within one synchronization round.
    let out = ((e0 & !choice) | (e1 & choice)) ^ r.rc;
    (
        out,
        OtTranscript {
            masked_choice: d,
            ciphertexts: [e0, e1],
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn receiver_gets_chosen_message() {
        let mut dealer = OtDealer::new(42, 1);
        let mut meter = CommMeter::new();
        for i in 0..200u64 {
            let m0 = i & 1;
            let m1 = (i >> 1) & 1;
            let (out0, _) = ot_transfer(m0, m1, 0, &mut dealer, &mut meter);
            let (out1, _) = ot_transfer(m0, m1, 1, &mut dealer, &mut meter);
            assert_eq!(out0, m0);
            assert_eq!(out1, m1);
        }
        assert_eq!(dealer.dealt, 400);
        assert_eq!(meter.messages, 800);
        assert_eq!(meter.bytes, 400 * 17);
        assert_eq!(meter.rounds, 0, "rounds are counted by the caller");
    }

    #[test]
    fn masked_choice_is_unbiased_regardless_of_choice() {
        // The sender's view (masked_choice) must be ~Bernoulli(1/2) whether
        // the receiver picks 0 or 1 — otherwise the choice bit leaks.
        for choice in [0, 1] {
            let mut dealer = OtDealer::new(7, 1);
            let mut meter = CommMeter::new();
            let n = 20_000;
            let ones = (0..n)
                .filter(|_| {
                    ot_transfer(1, 0, choice, &mut dealer, &mut meter)
                        .1
                        .masked_choice
                        == 1
                })
                .count();
            let frac = ones as f64 / n as f64;
            assert!((frac - 0.5).abs() < 0.02, "choice={choice}: {frac}");
        }
    }

    #[test]
    fn wide_ot_selects_per_lane() {
        // Every lane is an independent OT: bit j of the output must be
        // m0's bit where choice_j = 0 and m1's bit where choice_j = 1.
        let mut dealer = OtDealer::new(13, 64);
        let mut meter = CommMeter::new();
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        for _ in 0..200 {
            let m0 = rng.next_u64();
            let m1 = rng.next_u64();
            let choice = rng.next_u64();
            let (out, _) = ot_transfer(m0, m1, choice, &mut dealer, &mut meter);
            assert_eq!(out, (m0 & !choice) | (m1 & choice));
        }
        // Two messages per wide OT — the same count a single-lane OT pays.
        assert_eq!(meter.messages, 400);
        assert_eq!(meter.bytes, 200 * 24);
    }

    #[test]
    fn wide_ot_degenerates_to_scalar_semantics_on_lane_zero() {
        let mut dealer = OtDealer::new(21, 64);
        let mut meter = CommMeter::new();
        let (out0, _) = ot_transfer(0, 1, 0, &mut dealer, &mut meter);
        let (out1, _) = ot_transfer(0, 1, 1, &mut dealer, &mut meter);
        assert_eq!(out0 & 1, 0);
        assert_eq!(out1 & 1, 1);
    }

    #[test]
    fn wide_masked_choice_is_unbiased_per_lane() {
        // The sender's view (the masked choice word) must look uniform for
        // any fixed choice word — otherwise lane choices leak.
        for choice in [0u64, u64::MAX, 0xAAAA_AAAA_AAAA_AAAA] {
            let mut dealer = OtDealer::new(31, 64);
            let mut meter = CommMeter::new();
            let n = 4_000u32;
            let mut ones = 0u64;
            for _ in 0..n {
                let (_, tr) = ot_transfer(1, 2, choice, &mut dealer, &mut meter);
                ones += tr.masked_choice.count_ones() as u64;
            }
            let frac = ones as f64 / (n as f64 * 64.0);
            assert!((frac - 0.5).abs() < 0.02, "choice={choice:#x}: {frac}");
        }
    }

    #[test]
    fn ciphertexts_do_not_reveal_unchosen_message() {
        // The unchosen ciphertext is masked by a pad the receiver does not
        // hold; across runs with fixed messages its value must be ~uniform.
        let mut dealer = OtDealer::new(11, 1);
        let mut meter = CommMeter::new();
        let mut acc = 0u64;
        let n = 10_000;
        for _ in 0..n {
            let (_, tr) = ot_transfer(0, 0, 0, &mut dealer, &mut meter);
            // ciphertext[1] masks the message 0 with an unknown pad bit.
            acc += tr.ciphertexts[1];
        }
        let frac = acc as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.02, "ciphertext frequency {frac}");
    }
}
