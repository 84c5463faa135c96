//! `lumos-ldp` — local differential privacy mechanisms.
//!
//! Implements the paper's feature protection stack: the one-bit mechanism
//! with unbiased recovery (Eqs. 26–27, Theorems 3–4), Lumos's binned partial
//! feature encoder (§VI-A), and the mechanisms used by the baselines of
//! §VIII-C (multi-bit for LPGNN, Gaussian + randomized response for naive
//! FedGNN).

#![forbid(unsafe_code)]
// Shares, pads and raw features must never reach a terminal in the clear.
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
pub mod baseline_mechanisms;
pub mod encoder;
pub mod onebit;

pub use baseline_mechanisms::{GaussianMechanism, MultiBitMechanism, RandomizedResponse};
pub use encoder::{DecodeTable, EncodedFeature, FeatureEncoder, RecoveredFeature};
pub use onebit::{EncodedValue, OneBitMechanism};
