//! Every item below breaks one rule of the workspace's lint setup; none of
//! it is meant to pass.

// As in the `lumos-crypto` and `lumos-ldp` crate roots.
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

use std::collections::HashMap;
use std::hash::RandomState;
use std::time::{Instant, SystemTime};

pub fn unordered() -> HashMap<u32, u32> {
    HashMap::new()
}

pub fn clocks() -> (Instant, SystemTime) {
    (Instant::now(), SystemTime::now())
}

pub fn unaudited_join() {
    std::thread::scope(|_| {});
}

pub fn os_seeded() -> RandomState {
    RandomState::new()
}

pub fn leak(share: u64) {
    println!("{share}");
}

#[allow(dead_code)]
fn bare_waiver() {}

#[expect(dead_code)]
fn reasonless_waiver() {}

/// As in the fixed-point cost modules.
pub mod cost {
    #![deny(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_possible_wrap
    )]

    pub fn micros(x: u64) -> u32 {
        x as u32
    }
}
