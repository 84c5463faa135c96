//! Per-device capability profiles and heterogeneity distributions.
//!
//! The paper's Definition 3 heterogeneity is about *degree* (workload);
//! decentralized deployments add *capability* heterogeneity on top: phones
//! compute at different rates, uplinks are asymmetric and skewed, and
//! devices come and go. A [`DeviceProfile`] captures one device's
//! capabilities; [`Heterogeneity`] is a seeded sampler over slowdown
//! multipliers that turns a fleet baseline into mild → extreme skew.

// Fixed-point cost module: a narrowing `as` cast here silently corrupts
// the µs encoding, so each one is an error unless audited with `#[expect]`.
#![deny(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_possible_wrap
)]

use lumos_common::dist::Normal;
use lumos_common::rng::Xoshiro256pp;

/// Capabilities of one simulated device.
///
/// Rates are in abstract units per virtual second: compute consumes *work
/// units* (the trainer uses tree-nodes × layers, the same unit as
/// `CostModel::per_tree_node`), links consume payload bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceProfile {
    /// Work units executed per virtual second (> 0).
    pub compute_rate: f64,
    /// Uplink throughput in bytes per virtual second (> 0).
    pub uplink_bytes_per_sec: f64,
    /// Downlink throughput in bytes per virtual second (> 0).
    pub downlink_bytes_per_sec: f64,
    /// Fixed per-message propagation latency in virtual seconds (>= 0).
    pub latency_secs: f64,
    /// Whether the device participates in the current round.
    pub available: bool,
}

impl DeviceProfile {
    /// The fleet baseline: a mid-range device with a mobile-like asymmetric
    /// link (downlink faster than uplink).
    pub fn baseline() -> Self {
        Self {
            compute_rate: 100.0,
            uplink_bytes_per_sec: 4096.0,
            downlink_bytes_per_sec: 16384.0,
            latency_secs: 0.01,
            available: true,
        }
    }

    /// Virtual seconds to execute `work` units locally.
    pub fn compute_secs(&self, work: f64) -> f64 {
        work / self.compute_rate
    }

    /// Virtual seconds to push `bytes` through the uplink (excluding the
    /// fixed latency).
    pub fn upload_secs(&self, bytes: u64) -> f64 {
        bytes as f64 / self.uplink_bytes_per_sec
    }

    /// Virtual seconds to drain `bytes` from the downlink.
    pub fn download_secs(&self, bytes: u64) -> f64 {
        bytes as f64 / self.downlink_bytes_per_sec
    }

    /// Fixed-point cost of one retained tree node on this device, in
    /// virtual **microseconds**: `layers` work units of compute plus one
    /// embedding-sized message through each link direction per epoch. This
    /// is the per-node price the `VirtualSecs` balance objective feeds to
    /// the secure comparisons, which operate on integers — hence the µs
    /// fixed point. Clamped to ≥ 1 so the weighted workload of a non-empty
    /// tree is never zero.
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "deliberate fixed-point encode: f64→u64 `as` saturates (never wraps), inputs are finite positive seconds, and .max(1) pins the floor"
    )]
    pub fn micros_per_tree_node(&self, layers: usize, embedding_bytes: u64) -> u64 {
        let secs = self.compute_secs(layers as f64)
            + self.upload_secs(embedding_bytes)
            + self.download_secs(embedding_bytes);
        ((secs * 1e6).round() as u64).max(1)
    }

    /// Checks every rate is positive and finite.
    pub fn validate(&self) {
        assert!(
            self.compute_rate.is_finite() && self.compute_rate > 0.0,
            "compute_rate must be positive"
        );
        assert!(
            self.uplink_bytes_per_sec.is_finite() && self.uplink_bytes_per_sec > 0.0,
            "uplink must be positive"
        );
        assert!(
            self.downlink_bytes_per_sec.is_finite() && self.downlink_bytes_per_sec > 0.0,
            "downlink must be positive"
        );
        assert!(
            self.latency_secs.is_finite() && self.latency_secs >= 0.0,
            "latency must be >= 0"
        );
    }
}

/// Seeded samplers over *slowdown* multipliers (s >= small bound; a device
/// with slowdown `s` runs its resource at `baseline / s`).
///
/// The presets span the heterogeneity regimes the scenario sweep compares:
/// `Uniform` (none), `Jitter` (mild, bounded), `LogNormal` (moderate,
/// multiplicative noise), `Pareto` (extreme, heavy straggler tail — the
/// capability analogue of the degree power law in `lumos_common::dist`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Heterogeneity {
    /// Every device identical: slowdown exactly 1.
    Uniform,
    /// Slowdown uniform in `[1 - spread, 1 + spread]`, `spread` in `[0, 1)`.
    Jitter {
        /// Half-width of the uniform slowdown interval.
        spread: f64,
    },
    /// Slowdown `exp(sigma · N(0, 1))`: median 1, multiplicative skew.
    LogNormal {
        /// Log-scale standard deviation.
        sigma: f64,
    },
    /// Slowdown `(1 - U)^{-1/alpha}` >= 1: a Pareto straggler tail that
    /// gets heavier as `alpha` shrinks.
    Pareto {
        /// Tail index (> 0); smaller means more extreme stragglers.
        alpha: f64,
    },
}

/// Slowdowns are clamped into this range so a pathological draw cannot
/// produce a device that never finishes (or one that is infinitely fast).
const SLOWDOWN_RANGE: (f64, f64) = (0.05, 1000.0);

impl Heterogeneity {
    /// Draws one slowdown multiplier.
    pub fn sample_slowdown(&self, rng: &mut Xoshiro256pp) -> f64 {
        let raw = match *self {
            Heterogeneity::Uniform => 1.0,
            Heterogeneity::Jitter { spread } => {
                assert!((0.0..1.0).contains(&spread), "spread must be in [0, 1)");
                rng.range_f64(1.0 - spread, 1.0 + spread)
            }
            Heterogeneity::LogNormal { sigma } => Normal::new(0.0, sigma).sample(rng).exp(),
            Heterogeneity::Pareto { alpha } => {
                assert!(alpha > 0.0, "pareto alpha must be positive");
                (1.0 - rng.next_f64()).powf(-1.0 / alpha)
            }
        };
        raw.clamp(SLOWDOWN_RANGE.0, SLOWDOWN_RANGE.1)
    }
}

/// How a scenario skews the fleet: independent slowdowns for compute and
/// for the link (both directions share the link draw — a device on a bad
/// network is bad both ways), applied to [`DeviceProfile::baseline`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetSpec {
    /// Compute-rate slowdown distribution.
    pub compute: Heterogeneity,
    /// Link-throughput slowdown distribution.
    pub link: Heterogeneity,
    /// Per-round probability an available device drops out.
    pub dropout: f64,
    /// Per-round probability a dropped device rejoins.
    pub rejoin: f64,
}

impl FleetSpec {
    /// Samples one device profile: one compute slowdown, one link slowdown.
    /// (Distributions consume different RNG draw counts, so per-device
    /// draws do **not** line up across scenarios — each scenario is its
    /// own stream, deterministic only against itself.)
    pub fn sample_profile(&self, rng: &mut Xoshiro256pp) -> DeviceProfile {
        let compute_slowdown = self.compute.sample_slowdown(rng);
        let link_slowdown = self.link.sample_slowdown(rng);
        let base = DeviceProfile::baseline();
        let p = DeviceProfile {
            compute_rate: base.compute_rate / compute_slowdown,
            uplink_bytes_per_sec: base.uplink_bytes_per_sec / link_slowdown,
            downlink_bytes_per_sec: base.downlink_bytes_per_sec / link_slowdown,
            latency_secs: base.latency_secs * link_slowdown,
            available: true,
        };
        p.validate();
        p
    }

    /// Samples a fleet of `n` profiles.
    pub fn sample_fleet(&self, n: usize, rng: &mut Xoshiro256pp) -> Vec<DeviceProfile> {
        (0..n).map(|_| self.sample_profile(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Xoshiro256pp {
        Xoshiro256pp::seed_from_u64(0x5131_2001)
    }

    #[test]
    fn baseline_is_valid_and_asymmetric() {
        let p = DeviceProfile::baseline();
        p.validate();
        assert!(p.downlink_bytes_per_sec > p.uplink_bytes_per_sec);
        assert_eq!(p.compute_secs(200.0), 2.0);
        assert!(p.upload_secs(4096) > p.download_secs(4096));
    }

    #[test]
    fn per_node_micros_track_capability() {
        let base = DeviceProfile::baseline();
        let mut slow = base;
        slow.compute_rate /= 50.0;
        // Slower compute ⇒ strictly more µs per tree node.
        assert!(slow.micros_per_tree_node(2, 64) > base.micros_per_tree_node(2, 64));
        // Baseline, 2 layers, 64-byte embeddings: 2/100 s compute +
        // 64/4096 s up + 64/16384 s down = 39,531.25 µs, rounded.
        assert_eq!(base.micros_per_tree_node(2, 64), 39_531);
        // Even a degenerate zero-work node costs at least 1 µs.
        let fast = DeviceProfile {
            compute_rate: 1e12,
            uplink_bytes_per_sec: 1e12,
            downlink_bytes_per_sec: 1e12,
            latency_secs: 0.0,
            available: true,
        };
        assert_eq!(fast.micros_per_tree_node(0, 0), 1);
    }

    #[test]
    fn uniform_slowdown_is_exactly_one() {
        let mut r = rng();
        for _ in 0..32 {
            assert_eq!(Heterogeneity::Uniform.sample_slowdown(&mut r), 1.0);
        }
    }

    #[test]
    fn jitter_stays_in_band() {
        let mut r = rng();
        let h = Heterogeneity::Jitter { spread: 0.3 };
        for _ in 0..10_000 {
            let s = h.sample_slowdown(&mut r);
            assert!((0.7..1.3).contains(&s), "slowdown {s} out of band");
        }
    }

    #[test]
    fn pareto_has_a_heavier_tail_than_lognormal() {
        let mut r = rng();
        let n = 50_000;
        let max_of = |h: Heterogeneity, r: &mut Xoshiro256pp| {
            (0..n).map(|_| h.sample_slowdown(r)).fold(0.0f64, f64::max)
        };
        let pareto_max = max_of(Heterogeneity::Pareto { alpha: 1.2 }, &mut r);
        let lognormal_max = max_of(Heterogeneity::LogNormal { sigma: 0.5 }, &mut r);
        assert!(
            pareto_max > 2.0 * lognormal_max,
            "pareto {pareto_max} vs lognormal {lognormal_max}"
        );
    }

    #[test]
    fn slowdowns_are_clamped() {
        let mut r = rng();
        let h = Heterogeneity::Pareto { alpha: 0.2 };
        for _ in 0..50_000 {
            let s = h.sample_slowdown(&mut r);
            assert!(s <= SLOWDOWN_RANGE.1 && s >= SLOWDOWN_RANGE.0);
        }
    }

    #[test]
    fn fleet_sampling_is_seed_deterministic() {
        let spec = FleetSpec {
            compute: Heterogeneity::Pareto { alpha: 1.5 },
            link: Heterogeneity::LogNormal { sigma: 0.4 },
            dropout: 0.0,
            rejoin: 1.0,
        };
        let a = spec.sample_fleet(64, &mut Xoshiro256pp::seed_from_u64(9));
        let b = spec.sample_fleet(64, &mut Xoshiro256pp::seed_from_u64(9));
        assert_eq!(a, b);
        for p in &a {
            p.validate();
        }
        // Pareto slowdowns only slow devices down relative to baseline.
        assert!(a
            .iter()
            .all(|p| p.compute_rate <= DeviceProfile::baseline().compute_rate));
    }
}
