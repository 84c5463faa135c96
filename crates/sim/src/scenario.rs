//! Named device-fleet scenarios and their round-to-round evolution.
//!
//! A [`Scenario`] is a preset [`FleetSpec`] — a point on the mild → extreme
//! heterogeneity axis — plus churn behavior. [`ScenarioState`] owns the
//! sampled fleet and a private RNG stream, applies dropout/rejoin between
//! rounds, and guarantees at least one device stays available, so a run
//! can never stall on an empty fleet.

use lumos_common::rng::Xoshiro256pp;

use crate::profile::{DeviceProfile, FleetSpec, Heterogeneity};

/// The scenario presets the heterogeneity sweep compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Identical devices: the degenerate case where the event-driven
    /// makespan reduces to the old global cost model's shape.
    Uniform,
    /// A lognormal fleet of phones: moderate compute skew, strong
    /// bandwidth skew, no churn.
    MobileFleet,
    /// A Pareto compute tail: a few devices are extreme stragglers.
    StragglerTail,
    /// Mild heterogeneity plus devices dropping out and rejoining
    /// between rounds.
    Churn,
}

impl Scenario {
    /// All presets, in sweep order (mild → extreme → churn).
    pub const ALL: [Scenario; 4] = [
        Scenario::Uniform,
        Scenario::MobileFleet,
        Scenario::StragglerTail,
        Scenario::Churn,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Scenario::Uniform => "uniform",
            Scenario::MobileFleet => "mobile-fleet",
            Scenario::StragglerTail => "straggler-tail",
            Scenario::Churn => "churn",
        }
    }

    /// The fleet distribution this scenario samples devices from.
    pub fn fleet_spec(self) -> FleetSpec {
        match self {
            Scenario::Uniform => FleetSpec {
                compute: Heterogeneity::Uniform,
                link: Heterogeneity::Uniform,
                dropout: 0.0,
                rejoin: 1.0,
            },
            Scenario::MobileFleet => FleetSpec {
                compute: Heterogeneity::LogNormal { sigma: 0.5 },
                link: Heterogeneity::LogNormal { sigma: 0.75 },
                dropout: 0.0,
                rejoin: 1.0,
            },
            Scenario::StragglerTail => FleetSpec {
                compute: Heterogeneity::Pareto { alpha: 1.1 },
                link: Heterogeneity::Jitter { spread: 0.25 },
                dropout: 0.0,
                rejoin: 1.0,
            },
            Scenario::Churn => FleetSpec {
                compute: Heterogeneity::LogNormal { sigma: 0.35 },
                link: Heterogeneity::LogNormal { sigma: 0.5 },
                dropout: 0.10,
                rejoin: 0.60,
            },
        }
    }
}

/// A sampled fleet evolving round by round under its scenario's churn.
#[derive(Debug, Clone)]
pub struct ScenarioState {
    spec: FleetSpec,
    profiles: Vec<DeviceProfile>,
    rng: Xoshiro256pp,
    rounds: u64,
}

impl ScenarioState {
    /// Samples a fleet of `n` devices. The state owns an RNG stream derived
    /// only from `seed`, so scenario timing never perturbs the trainer's
    /// stochastic streams (same seed ⇒ same training math, scenario or not).
    pub fn new(scenario: Scenario, n: usize, seed: u64) -> Self {
        let spec = scenario.fleet_spec();
        // Domain-separate from the trainer's seed usage.
        let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0x51AC_051A_u64.rotate_left(17));
        let profiles = spec.sample_fleet(n, &mut rng);
        Self {
            spec,
            profiles,
            rng,
            rounds: 0,
        }
    }

    /// The fleet as of the current round.
    pub fn profiles(&self) -> &[DeviceProfile] {
        &self.profiles
    }

    /// Applies one round of churn: available devices drop with probability
    /// `dropout`, dropped devices rejoin with probability `rejoin`. At
    /// least one device always stays available.
    pub fn advance_round(&mut self) {
        self.rounds += 1;
        if self.spec.dropout > 0.0 || self.profiles.iter().any(|p| !p.available) {
            for p in self.profiles.iter_mut() {
                if p.available {
                    if self.rng.bernoulli(self.spec.dropout) {
                        p.available = false;
                    }
                } else if self.rng.bernoulli(self.spec.rejoin) {
                    p.available = true;
                }
            }
            if !self.profiles.is_empty() && self.profiles.iter().all(|p| !p.available) {
                // Revive a device drawn from the scenario's own seeded
                // stream. (Always reviving `profiles[0]` — the previous
                // behavior — systematically biased device 0's availability
                // whenever churn emptied the fleet.)
                let idx = self.rng.index(self.profiles.len());
                self.profiles[idx].available = true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_fleet_is_flat() {
        let st = ScenarioState::new(Scenario::Uniform, 16, 7);
        let first = st.profiles()[0];
        assert!(st.profiles().iter().all(|p| *p == first));
        assert!(first.available);
    }

    #[test]
    fn straggler_tail_is_more_skewed_than_uniform() {
        let st = ScenarioState::new(Scenario::StragglerTail, 256, 7);
        let rates: Vec<f64> = st.profiles().iter().map(|p| p.compute_rate).collect();
        let max = rates.iter().cloned().fold(0.0f64, f64::max);
        let min = rates.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max / min > 5.0, "expected a heavy tail, got {max}/{min}");
    }

    #[test]
    fn churn_drops_and_rejoins_but_never_empties() {
        let mut st = ScenarioState::new(Scenario::Churn, 64, 11);
        let mut saw_drop = false;
        for _ in 0..50 {
            st.advance_round();
            let avail = st.profiles().iter().filter(|p| p.available).count();
            assert!(avail >= 1, "fleet must never empty");
            saw_drop |= avail < 64;
        }
        assert!(saw_drop, "10% dropout over 50 rounds must drop someone");
        assert_eq!(st.rounds, 50);
    }

    #[test]
    fn no_churn_scenarios_keep_everyone() {
        for s in [
            Scenario::Uniform,
            Scenario::MobileFleet,
            Scenario::StragglerTail,
        ] {
            let mut st = ScenarioState::new(s, 32, 3);
            for _ in 0..10 {
                st.advance_round();
                assert!(st.profiles().iter().all(|p| p.available));
            }
        }
    }

    #[test]
    fn revival_is_unbiased_across_seeds_and_deterministic_per_seed() {
        // Force total churn: everyone drops every round, nobody rejoins,
        // so the keep-alive revival fires each time. The revived device
        // must come from the seeded stream, not always slot 0.
        let survivors = |seed: u64, rounds: usize| -> Vec<usize> {
            let mut st = ScenarioState::new(Scenario::Churn, 16, seed);
            st.spec.dropout = 1.0;
            st.spec.rejoin = 0.0;
            (0..rounds)
                .map(|_| {
                    st.advance_round();
                    let alive: Vec<usize> = st
                        .profiles()
                        .iter()
                        .enumerate()
                        .filter(|(_, p)| p.available)
                        .map(|(i, _)| i)
                        .collect();
                    assert_eq!(alive.len(), 1, "exactly the revived device survives");
                    alive[0]
                })
                .collect()
        };
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..8u64 {
            let a = survivors(seed, 12);
            let b = survivors(seed, 12);
            assert_eq!(a, b, "seed {seed}: revival must be deterministic");
            seen.extend(a);
        }
        assert!(
            seen.len() > 4,
            "revival must spread across the fleet, saw only {seen:?}"
        );
    }

    #[test]
    fn state_is_seed_deterministic() {
        let mut a = ScenarioState::new(Scenario::Churn, 32, 5);
        let mut b = ScenarioState::new(Scenario::Churn, 32, 5);
        for _ in 0..20 {
            a.advance_round();
            b.advance_round();
        }
        assert_eq!(a.profiles(), b.profiles());
    }
}
