//! Order statistics over a handful of samples, and the bound arithmetic
//! that decides whether one set of runs regressed against another.

/// Median of the samples (mean of the two middle ones for an even count).
///
/// # Panics
/// Panics on an empty slice or a NaN sample.
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the "exclusive" method), so
/// the spreads printed here can be compared with the driver's. A single
/// sample is its own quartiles.
///
/// # Panics
/// Panics on an empty slice or a NaN sample.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let s = sorted(samples);
    let n = s.len();
    if n == 1 {
        return (s[0], s[0]);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    assert!(!samples.is_empty(), "no samples");
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    s
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How far a metric may worsen before it counts as a regression: a share
/// of the base value, but never less than an absolute floor (small timings
/// jitter by a fixed amount, not by a share).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bound {
    pub rel: f64,
    pub abs: f64,
}

impl Bound {
    /// The allowed worsening from `base`, in the metric's unit.
    pub fn allowed(&self, base: f64) -> f64 {
        (self.rel * base.abs()).max(self.abs)
    }

    /// By how much `new` is worse than `base` (negative when better).
    pub fn worse_by(better: Better, base: f64, new: f64) -> f64 {
        match better {
            Better::Lower => new - base,
            Better::Higher => base - new,
        }
    }

    /// True when `new` is worse than `base` by more than the bound allows.
    pub fn regressed(&self, better: Better, base: f64, new: f64) -> bool {
        Self::worse_by(better, base, new) > self.allowed(base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_tied_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0, 5.0, 5.0, 5.0]), 5.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([1,2,3,4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0]), (1.25, 3.75));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[2.0, 2.0, 2.0]), (2.0, 2.0));
        assert_eq!(quartiles(&[9.0]), (9.0, 9.0));
    }

    #[test]
    fn bound_uses_the_larger_of_share_and_floor() {
        let b = Bound {
            rel: 0.15,
            abs: 0.02,
        };
        // 15% of 1.0 s dominates the 20 ms floor ...
        assert!((b.allowed(1.0) - 0.15).abs() < 1e-12);
        // ... and the floor dominates 15% of 50 ms.
        assert_eq!(b.allowed(0.05), 0.02);
        assert!(!b.regressed(Better::Lower, 0.05, 0.069));
        assert!(b.regressed(Better::Lower, 0.05, 0.071));
        assert!(!b.regressed(Better::Lower, 0.05, 0.01), "faster is fine");
    }

    #[test]
    fn bound_direction_follows_better() {
        let b = Bound {
            rel: 0.10,
            abs: 0.0,
        };
        assert!(b.regressed(Better::Higher, 100.0, 89.0));
        assert!(!b.regressed(Better::Higher, 100.0, 91.0));
        assert!(!b.regressed(Better::Higher, 100.0, 150.0));
        assert!(b.regressed(Better::Lower, 100.0, 111.0));
        // An exact metric: any worsening regresses, equality does not.
        let exact = Bound { rel: 0.0, abs: 0.0 };
        assert!(!exact.regressed(Better::Lower, 14.0, 14.0));
        assert!(exact.regressed(Better::Lower, 14.0, 15.0));
    }
}
