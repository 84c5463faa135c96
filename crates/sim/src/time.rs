//! Virtual time.
//!
//! The simulator never reads a real clock: every event carries a
//! [`VirtualTime`], the first component of the schedule's total order
//! (`runtime.rs` defines the rest: kind rank, device id, construction
//! order).

use std::cmp::Ordering;

/// A point on the simulator's virtual clock, in abstract seconds.
///
/// Wraps an `f64` with a *total* order (`f64::total_cmp`) so it can key a
/// sort. Construction rejects NaN and negative values, so ordinary
/// comparisons never hit the exotic corners of the total order.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct VirtualTime(f64);

impl VirtualTime {
    /// The epoch origin, t = 0.
    pub const ZERO: VirtualTime = VirtualTime(0.0);

    /// Creates a virtual time at `secs`.
    ///
    /// # Panics
    /// Panics if `secs` is NaN or negative.
    pub fn new(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "virtual time must be finite and >= 0, got {secs}"
        );
        Self(secs)
    }

    /// The time as abstract seconds.
    pub fn secs(self) -> f64 {
        self.0
    }

    /// This time advanced by `delta` seconds.
    ///
    /// # Panics
    /// Panics if `delta` is NaN or negative.
    pub fn after(self, delta: f64) -> Self {
        assert!(
            delta.is_finite() && delta >= 0.0,
            "time delta must be finite and >= 0, got {delta}"
        );
        Self(self.0 + delta)
    }
}

impl Eq for VirtualTime {}

impl PartialOrd for VirtualTime {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for VirtualTime {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic]
    fn nan_time_panics() {
        VirtualTime::new(f64::NAN);
    }

    #[test]
    fn after_advances() {
        let t = VirtualTime::new(1.0).after(0.25);
        assert_eq!(t.secs(), 1.25);
        assert!(VirtualTime::new(1.0) < t);
    }
}
