//! `lumos-crypto` — simulated two-party cryptography for degree protection.
//!
//! The paper protects node degrees behind a zero-knowledge-style secure
//! integer comparison (CrypTFlow2, its refs \[34\]/\[40\]/\[41\]): during tree
//! trimming only comparison *outcomes* are ever revealed (Definition 2,
//! Theorem 5). This crate reproduces the protocol structure — oblivious
//! transfer, XOR-shared boolean circuits with OT-based AND gates, and the
//! bit-tree comparison — with exact message/round accounting, while
//! simulating the offline correlated randomness with a dealer (see [`ot`]).

#![forbid(unsafe_code)]
// Shares, pads and raw features must never reach a terminal in the clear.
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
pub mod circuit;
pub mod compare;
pub mod meter;
pub mod ot;
pub mod slice;

pub use circuit::{SharedBit, TwoParty};
pub use compare::{secure_compare, secure_difference, CompareOutcome};
pub use meter::CommMeter;
pub use ot::{ot_transfer, ot_transfer_wide, OtDealer, OtTranscript, WideOtTranscript};
pub use slice::{
    secure_compare_batch, sliced_compare_word, BatchComparison, SharedWord, SlicedTwoParty, LANES,
};
