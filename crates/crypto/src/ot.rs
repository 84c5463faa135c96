//! Simulated 1-out-of-2 oblivious transfer.
//!
//! CrypTFlow2's comparison protocol is built on oblivious transfer (the
//! paper's Theorem 5 cites the OT → zero-knowledge argument). We reproduce
//! the *protocol structure* of OT in the standard OT-hybrid model: a dealer
//! hands out correlated random pads (a "random OT"), and the online phase is
//! Beaver's derandomization — one choice-bit message from the receiver, one
//! two-ciphertext message from the sender. The transcripts a party observes
//! are uniformly random given its own state, which is what the leakage tests
//! check. Public-key realizations of the dealer are out of scope.

use lumos_common::rng::Xoshiro256pp;

use crate::meter::CommMeter;

/// Pads held by the OT sender after precomputation: two random messages.
// The pads below carry the OT secrets; none derive `Debug` (lumos-lint
// `secret-leak`) so a pad can never be formatted into a log in the clear.
#[derive(Clone, Copy)]
pub struct SenderPad {
    r0: u64,
    r1: u64,
}

/// Pads held by the OT receiver after precomputation: a random choice bit
/// and the pad at that position.
#[derive(Clone, Copy)]
pub struct ReceiverPad {
    c: bool,
    rc: u64,
}

/// Pads held by a *wide* OT receiver: 64 independent choice bits packed in
/// one word, and the per-bit selected pad bits. Lane `j` of a wide OT is a
/// complete 1-out-of-2 bit-OT; the bit-sliced comparison engine uses one
/// wide OT where the scalar circuit would use 64 scalar OTs.
#[derive(Clone, Copy)]
pub struct ReceiverWidePad {
    c: u64,
    rc: u64,
}

/// Dealer for correlated OT randomness (the simulated offline phase).
#[derive(Debug, Clone)]
pub struct OtDealer {
    rng: Xoshiro256pp,
    /// Number of random OTs dealt (offline-phase cost accounting).
    pub dealt: u64,
}

impl OtDealer {
    /// Creates a dealer from a seed.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: Xoshiro256pp::seed_from_u64(seed),
            dealt: 0,
        }
    }

    /// Deals one random OT: sender gets `(r0, r1)`, receiver gets `(c, r_c)`.
    pub fn deal(&mut self) -> (SenderPad, ReceiverPad) {
        let r0 = self.rng.next_u64();
        let r1 = self.rng.next_u64();
        let c = self.rng.bernoulli(0.5);
        let rc = if c { r1 } else { r0 };
        self.dealt += 1;
        (SenderPad { r0, r1 }, ReceiverPad { c, rc })
    }

    /// Deals one random *wide* OT: 64 bit-OT instances packed into words.
    /// The sender gets two pad words `(r0, r1)`; the receiver gets a choice
    /// word `c` and the per-lane selected pad bits
    /// `rc = (r0 & !c) | (r1 & c)`.
    pub fn deal_wide(&mut self) -> (SenderPad, ReceiverWidePad) {
        let r0 = self.rng.next_u64();
        let r1 = self.rng.next_u64();
        let c = self.rng.next_u64();
        let rc = (r0 & !c) | (r1 & c);
        self.dealt += 1;
        (SenderPad { r0, r1 }, ReceiverWidePad { c, rc })
    }
}

/// One observed OT transcript (for leakage analysis in tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OtTranscript {
    /// The receiver's masked choice bit (seen by the sender).
    pub masked_choice: bool,
    /// The sender's two ciphertexts (seen by the receiver).
    pub ciphertexts: [u64; 2],
}

/// Executes one chosen-input 1-out-of-2 OT using a dealt random OT.
///
/// The sender inputs `(m0, m1)`; the receiver inputs `choice` and obtains
/// `m_choice`. Returns the receiver output and the transcript.
pub fn ot_transfer(
    m0: u64,
    m1: u64,
    choice: bool,
    dealer: &mut OtDealer,
    meter: &mut CommMeter,
) -> (u64, OtTranscript) {
    let (s, r) = dealer.deal();
    // Receiver → sender: d = choice XOR c. One bit.
    let d = choice ^ r.c;
    meter.message(1);
    // Sender → receiver: ciphertexts aligned so position `choice` decrypts
    // under the receiver's pad r_c.
    //   e0 = m0 ^ (d ? r1 : r0),  e1 = m1 ^ (d ? r0 : r1)
    let (k0, k1) = if d { (s.r1, s.r0) } else { (s.r0, s.r1) };
    let e0 = m0 ^ k0;
    let e1 = m1 ^ k1;
    meter.message(16);
    // Round accounting is left to the caller: protocols run many OTs in
    // parallel within one synchronization round.
    // Receiver decrypts its choice.
    let out = if choice { e1 ^ r.rc } else { e0 ^ r.rc };
    (
        out,
        OtTranscript {
            masked_choice: d,
            ciphertexts: [e0, e1],
        },
    )
}

/// One observed *wide* OT transcript (for leakage analysis in tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WideOtTranscript {
    /// The receiver's masked choice word (seen by the sender).
    pub masked_choice: u64,
    /// The sender's two ciphertext words (seen by the receiver).
    pub ciphertexts: [u64; 2],
}

/// Executes 64 chosen-input 1-out-of-2 bit-OTs packed into one word
/// exchange, using a dealt random wide OT.
///
/// Lane `j` (bit `j` of every word) is an independent OT: the sender inputs
/// message bits `(m0_j, m1_j)`, the receiver inputs choice bit `choice_j`
/// and obtains `m_{choice_j}` in bit `j` of the output. The online traffic
/// is one 8-byte masked choice word and one 16-byte ciphertext pair —
/// exactly the message *count* of a single scalar OT, amortized over 64
/// protocol instances.
pub fn ot_transfer_wide(
    m0: u64,
    m1: u64,
    choice: u64,
    dealer: &mut OtDealer,
    meter: &mut CommMeter,
) -> (u64, WideOtTranscript) {
    let (s, r) = dealer.deal_wide();
    // Receiver → sender: d = choice XOR c, lane-wise. One word.
    let d = choice ^ r.c;
    meter.message(8);
    // Sender → receiver: per-lane ciphertexts aligned so the lane's chosen
    // position decrypts under the receiver's pad bit (the bitwise mux of the
    // scalar protocol's `if d { swap }`).
    let k0 = (s.r0 & !d) | (s.r1 & d);
    let k1 = (s.r1 & !d) | (s.r0 & d);
    let e0 = m0 ^ k0;
    let e1 = m1 ^ k1;
    meter.message(16);
    // Round accounting is left to the caller, as for the scalar OT.
    let out = ((e0 & !choice) | (e1 & choice)) ^ r.rc;
    (
        out,
        WideOtTranscript {
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
        let mut dealer = OtDealer::new(42);
        let mut meter = CommMeter::new();
        for i in 0..200u64 {
            let m0 = i.wrapping_mul(0x9E37_79B9);
            let m1 = !m0 ^ i;
            let (out0, _) = ot_transfer(m0, m1, false, &mut dealer, &mut meter);
            let (out1, _) = ot_transfer(m0, m1, true, &mut dealer, &mut meter);
            assert_eq!(out0, m0);
            assert_eq!(out1, m1);
        }
        assert_eq!(dealer.dealt, 400);
        assert_eq!(meter.messages, 800);
        assert_eq!(meter.rounds, 0, "rounds are counted by the caller");
    }

    #[test]
    fn masked_choice_is_unbiased_regardless_of_choice() {
        // The sender's view (masked_choice) must be ~Bernoulli(1/2) whether
        // the receiver picks 0 or 1 — otherwise the choice bit leaks.
        for &choice in &[false, true] {
            let mut dealer = OtDealer::new(7);
            let mut meter = CommMeter::new();
            let n = 20_000;
            let ones = (0..n)
                .filter(|_| {
                    ot_transfer(1, 2, choice, &mut dealer, &mut meter)
                        .1
                        .masked_choice
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
        let mut dealer = OtDealer::new(13);
        let mut meter = CommMeter::new();
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        for _ in 0..200 {
            let m0 = rng.next_u64();
            let m1 = rng.next_u64();
            let choice = rng.next_u64();
            let (out, _) = ot_transfer_wide(m0, m1, choice, &mut dealer, &mut meter);
            assert_eq!(out, (m0 & !choice) | (m1 & choice));
        }
        // Two messages per wide OT — the same count a single scalar OT pays.
        assert_eq!(meter.messages, 400);
        assert_eq!(meter.bytes, 200 * 24);
    }

    #[test]
    fn wide_ot_degenerates_to_scalar_semantics_on_lane_zero() {
        let mut dealer = OtDealer::new(21);
        let mut meter = CommMeter::new();
        let (out0, _) = ot_transfer_wide(0, 1, 0, &mut dealer, &mut meter);
        let (out1, _) = ot_transfer_wide(0, 1, 1, &mut dealer, &mut meter);
        assert_eq!(out0 & 1, 0);
        assert_eq!(out1 & 1, 1);
    }

    #[test]
    fn wide_masked_choice_is_unbiased_per_lane() {
        // The sender's view (the masked choice word) must look uniform for
        // any fixed choice word — otherwise lane choices leak.
        for &choice in &[0u64, u64::MAX, 0xAAAA_AAAA_AAAA_AAAA] {
            let mut dealer = OtDealer::new(31);
            let mut meter = CommMeter::new();
            let n = 4_000u32;
            let mut ones = 0u64;
            for _ in 0..n {
                let (_, tr) = ot_transfer_wide(1, 2, choice, &mut dealer, &mut meter);
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
        let mut dealer = OtDealer::new(11);
        let mut meter = CommMeter::new();
        let mut acc = 0u32;
        let n = 10_000;
        for _ in 0..n {
            let (_, tr) = ot_transfer(0, 0, false, &mut dealer, &mut meter);
            // ciphertext[1] masks the message 0 with an unknown pad: count
            // its low bit; should be fair.
            acc += (tr.ciphertexts[1] & 1) as u32;
        }
        let frac = acc as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.02, "low-bit frequency {frac}");
    }
}
