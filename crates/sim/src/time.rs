//! Virtual time.
//!
//! The simulator never reads a real clock: every event carries a
//! [`VirtualTime`], the first component of the schedule's total order
//! (`runtime.rs` defines the rest: kind rank, then device id, then — for
//! one sender's simultaneous arrivals — receiver id).

use std::cmp::Ordering;

/// A point on the simulator's virtual clock, in abstract seconds.
///
/// Wraps an `f64` with a *total* order (`f64::total_cmp`'s, read through
/// its integer [`VirtualTime::order_bits`]) so it can key a sort. Construction rejects NaN and negative values, so ordinary
/// comparisons never hit the exotic corners of the total order.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct VirtualTime(f64);

impl VirtualTime {
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

    /// The time's bits as a `u64` whose unsigned order is
    /// `f64::total_cmp`'s: a negative value's bits flipped, a non-negative
    /// value's sign bit set. [`Ord`] compares these, and the schedule sorts
    /// on them.
    pub(crate) fn order_bits(self) -> u64 {
        let bits = self.0.to_bits();
        if bits >> 63 == 1 {
            !bits
        } else {
            bits | 1 << 63
        }
    }

    /// The time whose [`VirtualTime::order_bits`] are `bits`: the inverse
    /// map, bit for bit (so a schedule key decodes to the exact time it
    /// was built from, `-0.0` included).
    pub(crate) fn from_order_bits(bits: u64) -> Self {
        Self(f64::from_bits(if bits >> 63 == 1 {
            bits & !(1 << 63)
        } else {
            !bits
        }))
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
        self.order_bits().cmp(&other.order_bits())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    /// The corners of `f64::total_cmp`: both zeros, subnormals, the
    /// extremes, the infinities and NaNs of either sign.
    const CORNERS: [f64; 12] = [
        0.0,
        -0.0,
        f64::MIN_POSITIVE,
        5e-324,
        -5e-324,
        f64::MAX,
        f64::MIN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        -f64::NAN,
        1.0,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The order bits sort exactly as `f64::total_cmp`, on the corners
        /// and on random values of every magnitude and sign, and decode
        /// back to the very bits they were taken from — which covers every
        /// value [`VirtualTime::new`] admits: both zeros, `5e-324`,
        /// `f64::MAX` and random non-negative values.
        #[test]
        fn order_bits_sort_as_total_cmp(bits in any::<u64>(), secs in 0.0f64..1e6) {
            let random = [f64::from_bits(bits), secs, -secs, secs * 1e-310];
            for &a in CORNERS.iter().chain(&random) {
                let back = VirtualTime::from_order_bits(VirtualTime(a).order_bits());
                prop_assert_eq!(back.0.to_bits(), a.to_bits(), "{:e} did not round-trip", a);
                for &b in CORNERS.iter().chain(&random) {
                    let (ta, tb) = (VirtualTime(a), VirtualTime(b));
                    prop_assert_eq!(
                        ta.order_bits().cmp(&tb.order_bits()),
                        a.total_cmp(&b),
                        "{:e} vs {:e}",
                        a,
                        b
                    );
                    prop_assert_eq!(ta.cmp(&tb), a.total_cmp(&b));
                }
            }
        }
    }
}
