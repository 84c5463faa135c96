//! `lumos-crypto` — simulated two-party cryptography for degree protection.
//!
//! The paper protects node degrees behind a zero-knowledge-style secure
//! integer comparison (CrypTFlow2, its refs \[34\]/\[40\]/\[41\]): during tree
//! trimming only comparison *outcomes* are ever revealed (Definition 2,
//! Theorem 5). This crate reproduces the protocol structure — oblivious
//! transfer, XOR-shared boolean circuits with OT-based AND gates, and the
//! bit-tree comparison — with exact message/round accounting, while
//! simulating the offline correlated randomness with a dealer (see [`ot`]).
//!
//! There is one engine, parameterised by lane width: a session's shares
//! are words of 1 to 64 independent lanes, so one circuit evaluation
//! compares one pair (the scalar backend) or 64 (the bit-sliced one).
//! Modules, bottom up:
//! - [`ot`]: the dealer and the lane-word oblivious transfer;
//! - [`circuit`]: the session ([`TwoParty`]) and its shares and gates;
//! - [`compare`]: the comparator, the masked difference and their costs;
//! - [`mod@slice`]: a batch of any size as sessions of up to `lanes` pairs;
//! - [`meter`]: the communication tallies every protocol records.

#![forbid(unsafe_code)]
// Shares, pads and raw features must never reach a terminal in the clear.
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
pub mod circuit;
pub mod compare;
pub mod meter;
pub mod ot;
pub mod slice;

pub use circuit::{SharedLanes, TwoParty};
pub use compare::{
    circuit_cost, difference_cost, secure_compare, secure_difference, CompareOutcome,
};
pub use meter::CommMeter;
pub use ot::{ot_transfer, OtDealer, OtTranscript};
pub use slice::{secure_compare_batch, BatchComparison, LANES};
