//! Seeded, fully deterministic fault injection and recovery.
//!
//! [`FaultSpec`] names *what can go wrong* — per-device mid-round crashes,
//! per-send message loss, aggregator outage windows — and the recovery
//! constants of this module say *what the runtime does about it*: a
//! per-send timeout of 1 s, exponential backoff from a 500 ms base with
//! up to 100 ms of seeded jitter, and a budget of 3 retries.
//! [`FaultState`] owns a dedicated RNG stream (domain-separated from the
//! trainer's and the scenario's, same idiom as `ScenarioState`) and
//! compiles each round's concrete outcomes into a static [`FaultPlan`]
//! *before* the round's event schedule is built, so
//! [`EventDrivenRuntime`](crate::runtime::EventDrivenRuntime) can price a
//! faulty round exactly as it prices a clean one: every crash, loss, and
//! retry is an event under the schedule's one total order (the sort key in
//! `runtime.rs`), and the same seed plus the same spec replays the same
//! faults bit for bit.
//!
//! All retry/backoff arithmetic runs in saturating fixed-point
//! microseconds (the workspace's µs cost idiom) and converts to `f64`
//! seconds exactly once, at the schedule boundary — no narrowing `as`
//! casts anywhere in the chain.
//!
//! Exhausted sends never vanish: the runtime reports them with a `None`
//! delivery, and the trainer degrades them into the staleness buffer (the
//! PR 6 machinery), so an update either retries until it lands or is
//! carried to a later round.

// Fixed-point cost module: a narrowing `as` cast here silently corrupts
// the µs encoding, so each one is an error unless audited with `#[expect]`.
#![deny(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_possible_wrap
)]

use lumos_common::rng::Xoshiro256pp;

use crate::profile::DeviceProfile;

/// How long a sender waits before declaring an attempt lost, in µs.
const TIMEOUT_US: u64 = 1_000_000;
/// Backoff before retry `i` is `BACKOFF_BASE_US × 2^i`, in µs.
const BACKOFF_BASE_US: u64 = 500_000;
/// Seeded jitter added to each backoff, drawn uniformly from
/// `[0, JITTER_US)`, in µs.
const JITTER_US: u64 = 100_000;
/// Retries allowed per send before it is declared exhausted and degrades
/// into the staleness buffer, so even a loss rate of 1.0 terminates.
pub(crate) const RETRY_BUDGET: u32 = 3;

/// Crash instants are drawn uniformly from this fraction of the device's
/// compute span, so a crash always interrupts real mid-round work (never
/// "at the very start" or "after everything finished").
const CRASH_FRAC_RANGE: (f64, f64) = (0.05, 0.95);

/// One aggregator's outage: the shard it serves re-homes to its
/// deterministic successor for every round in `[from_round, until_round)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutageWindow {
    /// The aggregator (shard index) that is down.
    pub aggregator: u32,
    /// First round of the outage (0-based, inclusive).
    pub from_round: u64,
    /// First round after the outage (exclusive).
    pub until_round: u64,
}

impl OutageWindow {
    /// Whether this window covers `round`.
    pub fn covers(&self, round: u64) -> bool {
        (self.from_round..self.until_round).contains(&round)
    }
}

/// What can go wrong, per round. The default [`FaultSpec::None`] injects
/// nothing and is bit-identical to a fault-free run by construction (the
/// runtime takes the exact same code path).
#[derive(Debug, Clone, Default, PartialEq)]
pub enum FaultSpec {
    /// No faults: the seed's behavior, bit for bit.
    #[default]
    None,
    /// Seeded fault injection.
    Faults {
        /// Per-device probability of crashing mid-round (each round).
        crash_rate: f64,
        /// Per-attempt probability that a send is lost in transit.
        loss_rate: f64,
        /// Aggregator outage windows (hierarchical topologies only).
        outages: Vec<OutageWindow>,
    },
}

impl FaultSpec {
    /// True for the fault-free default.
    pub fn is_none(&self) -> bool {
        matches!(self, FaultSpec::None)
    }

    /// Message faults only: loss at `loss_rate`, no crashes, no outages.
    pub fn message_loss(loss_rate: f64) -> Self {
        FaultSpec::Faults {
            crash_rate: 0.0,
            loss_rate,
            outages: Vec::new(),
        }
    }

    /// The outage windows (empty for [`FaultSpec::None`]).
    pub fn outages(&self) -> &[OutageWindow] {
        match self {
            FaultSpec::None => &[],
            FaultSpec::Faults { outages, .. } => outages,
        }
    }
}

/// How lost sends are recovered: detect after `TIMEOUT_US`, retry with
/// exponential backoff plus seeded jitter, give up after `RETRY_BUDGET`
/// retries. It has no fields — the recovery constants above are the
/// policy; [`FaultState::new`] still takes one because the benchmark
/// package pins that signature.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryPolicy {}

/// Backoff before retry `retry` (0-based), in µs: exponential, saturating
/// at `u64::MAX` instead of wrapping. All durations are fixed-point
/// microseconds (the workspace µs idiom), so the arithmetic saturates
/// instead of silently truncating.
fn backoff_us(retry: u32) -> u64 {
    let factor = 1u64.checked_shl(retry).unwrap_or(u64::MAX);
    BACKOFF_BASE_US.saturating_mul(factor)
}

/// Fixed-point µs to `f64` seconds, at the schedule boundary only. The
/// widening `u64 → f64` cast is exact for every delay the saturating µs
/// chain can produce within a simulated round.
pub fn us_to_secs(us: u64) -> f64 {
    us as f64 * 1e-6
}

/// The compiled outcome of one send under the plan: which attempts are
/// lost (and the timeout + backoff + jitter delay before each retry), and
/// whether the retry budget ran out.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SendFaults {
    /// Delay before each retry, in µs: `timeout + backoff(i) + jitter_i`
    /// for the `i`-th lost attempt. One entry per retry performed.
    pub retry_delays_us: Vec<u64>,
    /// The final attempt was also lost: the send never lands and the
    /// update degrades into the staleness buffer.
    pub exhausted: bool,
}

impl SendFaults {
    /// No faults at all: the send lands on the first attempt.
    pub fn is_clean(&self) -> bool {
        self.retry_delays_us.is_empty() && !self.exhausted
    }

    /// Attempts lost in transit (retries, plus the final attempt when the
    /// budget ran out).
    pub fn lost_attempts(&self) -> u64 {
        self.retry_delays_us.len() as u64 + u64::from(self.exhausted)
    }

    /// Retries performed.
    pub fn retries(&self) -> u64 {
        self.retry_delays_us.len() as u64
    }

    /// Total timeout + backoff + jitter delay across all retries, in µs
    /// (saturating).
    pub fn total_delay_us(&self) -> u64 {
        self.retry_delays_us
            .iter()
            .fold(0u64, |acc, &d| acc.saturating_add(d))
    }
}

/// One round's recovery counters ([`FaultPlan::round_counters`]); the
/// trainer stores them in the round's record, and the report's `SimSummary`
/// folds them across rounds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultCounters {
    /// Send attempts lost in transit.
    pub lost_messages: u64,
    /// Retries performed.
    pub retries: u64,
    /// Virtual seconds spent in timeout + backoff before retries.
    pub retry_secs: f64,
    /// Device-rounds ended by a mid-round crash.
    pub crashed_devices: u64,
    /// Sends whose retry budget ran out (each degrades into the
    /// staleness buffer — never silently dropped).
    pub exhausted_sends: u64,
    /// Shards served by a failover successor aggregator this round. The
    /// plan knows no topology: the trainer fills this in from the round's
    /// failover map.
    pub failovers: u64,
}

/// One round's concrete fault outcomes, compiled from the spec's seeded
/// stream before the round's schedule is built. Every draw happens here;
/// the runtime only reads the plan, so the schedule stays a pure function
/// of `(profiles, work, plan)`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// `Some(fraction of the compute span)` per device that crashes this
    /// round; `None` for survivors and unavailable devices.
    crash_frac: Vec<Option<f64>>,
    /// Per-device outcome of the round's update upload (the
    /// device → aggregator/server send).
    upload: Vec<SendFaults>,
}

impl FaultPlan {
    /// Fleet size the plan was compiled for.
    pub fn num_devices(&self) -> usize {
        self.crash_frac.len()
    }

    /// The crash instant of device `d`, as a fraction of its compute
    /// span; `None` when it survives the round.
    pub fn crash_frac(&self, d: usize) -> Option<f64> {
        self.crash_frac.get(d).copied().flatten()
    }

    /// The upload outcome of device `d` (clean when out of range).
    pub fn upload(&self, d: usize) -> Option<&SendFaults> {
        self.upload.get(d).filter(|s| !s.is_clean())
    }

    /// True when the plan injects nothing (every outcome clean).
    pub fn is_clean(&self) -> bool {
        self.crash_frac.iter().all(Option::is_none) && self.upload.iter().all(SendFaults::is_clean)
    }

    /// Devices that crash this round, restricted to the currently
    /// available fleet (an absent device cannot crash).
    pub fn crashed_devices(&self, available: &[bool]) -> Vec<u32> {
        self.crash_frac
            .iter()
            .zip(available)
            .enumerate()
            .filter(|&(_, (c, &avail))| avail && c.is_some())
            .map(|(d, _)| u32::try_from(d).expect("fleet fits in u32"))
            .collect()
    }

    /// Devices whose upload retry budget ran out this round (available
    /// and not crashed): their updates degrade into the staleness buffer.
    pub fn exhausted_uploads(&self, available: &[bool]) -> Vec<u32> {
        self.upload
            .iter()
            .zip(available)
            .enumerate()
            .filter(|&(d, (s, &avail))| avail && self.crash_frac[d].is_none() && s.exhausted)
            .map(|(d, _)| u32::try_from(d).expect("fleet fits in u32"))
            .collect()
    }

    /// This round's counters over the devices that actually participate
    /// (available; crash suppresses the upload, which never dispatches).
    pub fn round_counters(&self, available: &[bool]) -> FaultCounters {
        let mut c = FaultCounters::default();
        for (d, &avail) in available.iter().enumerate() {
            if !avail {
                continue;
            }
            if self.crash_frac[d].is_some() {
                c.crashed_devices += 1;
                continue;
            }
            let s = &self.upload[d];
            c.lost_messages += s.lost_attempts();
            c.retries += s.retries();
            c.retry_secs += us_to_secs(s.total_delay_us());
            c.exhausted_sends += u64::from(s.exhausted);
        }
        c
    }
}

/// The evolving fault stream across rounds: owns the spec and a private
/// RNG stream derived only from the run seed. The mirror of
/// `ScenarioState` for faults.
#[derive(Debug, Clone)]
pub struct FaultState {
    spec: FaultSpec,
    rng: Xoshiro256pp,
    round: u64,
}

impl FaultState {
    /// Builds the stream for one run. The RNG is domain-separated from
    /// the trainer's and the scenario's seed usage, so enabling faults
    /// never perturbs training math or fleet sampling.
    pub fn new(spec: FaultSpec, _recovery: RecoveryPolicy, seed: u64) -> Self {
        Self {
            spec,
            rng: Xoshiro256pp::seed_from_u64(seed ^ 0xFA17_0FA1_u64.rotate_left(23)),
            round: 0,
        }
    }

    /// Aggregators whose outage window covers the current round, in
    /// ascending shard order, restricted to `num_aggregators`.
    pub fn outaged_aggregators(&self, num_aggregators: usize) -> Vec<u32> {
        let mut out: Vec<u32> = self
            .spec
            .outages()
            .iter()
            .filter(|w| w.covers(self.round) && (w.aggregator as usize) < num_aggregators)
            .map(|w| w.aggregator)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Compiles the current round's plan: one crash draw and one upload
    /// outcome per device (drawn for every slot so the stream's shape is
    /// independent of churn, then cleared for unavailable devices).
    /// Advances the round.
    pub fn compile_round(&mut self, profiles: &[DeviceProfile]) -> FaultPlan {
        let (crash_rate, loss_rate) = match &self.spec {
            FaultSpec::None => (0.0, 0.0),
            FaultSpec::Faults {
                crash_rate,
                loss_rate,
                ..
            } => (*crash_rate, *loss_rate),
        };
        let mut crash_frac = Vec::with_capacity(profiles.len());
        let mut upload = Vec::with_capacity(profiles.len());
        for p in profiles {
            let crashes = self.rng.bernoulli(crash_rate);
            let frac = if crashes {
                Some(self.rng.range_f64(CRASH_FRAC_RANGE.0, CRASH_FRAC_RANGE.1))
            } else {
                None
            };
            let send = self.draw_send(loss_rate);
            if p.available {
                crash_frac.push(frac);
                upload.push(if frac.is_some() {
                    SendFaults::default()
                } else {
                    send
                });
            } else {
                crash_frac.push(None);
                upload.push(SendFaults::default());
            }
        }
        self.round += 1;
        FaultPlan { crash_frac, upload }
    }

    /// Draws one send's outcome: repeated loss Bernoullis up to the retry
    /// budget, a timeout + backoff + jitter delay per retry (saturating
    /// µs).
    fn draw_send(&mut self, loss_rate: f64) -> SendFaults {
        let mut retry_delays_us = Vec::new();
        let mut exhausted = false;
        let mut retry = 0u32;
        while self.rng.bernoulli(loss_rate) {
            if retry >= RETRY_BUDGET {
                exhausted = true;
                break;
            }
            let jitter = self.rng.range_u64(0, JITTER_US);
            retry_delays_us.push(
                TIMEOUT_US
                    .saturating_add(backoff_us(retry))
                    .saturating_add(jitter),
            );
            retry += 1;
        }
        // One discarded draw per send keeps the fault stream's shape: every
        // seed's crash and loss draws land where the pinned event streams
        // and digests expect them.
        self.rng.next_f64();
        SendFaults {
            retry_delays_us,
            exhausted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet(n: usize) -> Vec<DeviceProfile> {
        vec![DeviceProfile::baseline(); n]
    }

    #[test]
    fn none_spec_compiles_to_a_clean_plan() {
        let mut st = FaultState::new(FaultSpec::None, RecoveryPolicy::default(), 7);
        let plan = st.compile_round(&fleet(8));
        assert!(plan.is_clean());
        assert_eq!(plan.round_counters(&[true; 8]), FaultCounters::default());
        assert_eq!(st.round, 1);
    }

    #[test]
    fn plans_are_seed_deterministic() {
        let spec = FaultSpec::Faults {
            crash_rate: 0.2,
            loss_rate: 0.3,
            outages: Vec::new(),
        };
        let run = || {
            let mut st = FaultState::new(spec.clone(), RecoveryPolicy::default(), 11);
            (0..5)
                .map(|_| st.compile_round(&fleet(16)))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn total_loss_terminates_at_the_retry_budget() {
        let mut st = FaultState::new(FaultSpec::message_loss(1.0), RecoveryPolicy::default(), 3);
        let plan = st.compile_round(&fleet(4));
        for d in 0..4 {
            let s = plan.upload(d).expect("total loss faults every upload");
            assert!(s.exhausted, "loss 1.0 must exhaust the budget");
            assert_eq!(s.retries(), u64::from(RETRY_BUDGET));
            assert_eq!(s.lost_attempts(), u64::from(RETRY_BUDGET) + 1);
        }
        let counters = plan.round_counters(&[true; 4]);
        assert_eq!(counters.exhausted_sends, 4);
        assert!(counters.retries > 0);
        assert!(counters.retry_secs > 0.0);
    }

    #[test]
    fn crashes_suppress_the_upload_and_are_counted() {
        let mut st = FaultState::new(
            FaultSpec::Faults {
                crash_rate: 1.0,
                loss_rate: 1.0,
                outages: Vec::new(),
            },
            RecoveryPolicy::default(),
            5,
        );
        let plan = st.compile_round(&fleet(3));
        for d in 0..3 {
            let frac = plan.crash_frac(d).expect("crash rate 1.0 crashes everyone");
            assert!((CRASH_FRAC_RANGE.0..CRASH_FRAC_RANGE.1).contains(&frac));
            assert!(
                plan.upload(d).is_none(),
                "a crashed device never dispatches"
            );
        }
        assert_eq!(plan.crashed_devices(&[true; 3]), vec![0, 1, 2]);
        let counters = plan.round_counters(&[true; 3]);
        assert_eq!(counters.crashed_devices, 3);
        assert_eq!(counters.lost_messages, 0);
    }

    #[test]
    fn unavailable_devices_neither_crash_nor_send() {
        let mut profiles = fleet(4);
        profiles[1].available = false;
        profiles[3].available = false;
        let mut st = FaultState::new(
            FaultSpec::Faults {
                crash_rate: 1.0,
                loss_rate: 1.0,
                outages: Vec::new(),
            },
            RecoveryPolicy::default(),
            9,
        );
        let plan = st.compile_round(&profiles);
        assert_eq!(plan.crash_frac(1), None);
        assert_eq!(plan.crash_frac(3), None);
        assert!(plan.upload(1).is_none());
        let available = [true, false, true, false];
        assert_eq!(plan.crashed_devices(&available), vec![0, 2]);
        assert_eq!(plan.round_counters(&available).crashed_devices, 2);
    }

    #[test]
    fn backoff_is_exponential_and_saturating() {
        assert_eq!(backoff_us(0), 500_000);
        assert_eq!(backoff_us(1), 1_000_000);
        assert_eq!(backoff_us(3), 4_000_000);
        assert_eq!(backoff_us(63), u64::MAX); // multiply saturates, never wraps
        assert_eq!(backoff_us(64), u64::MAX); // shift overflow saturates too
    }

    #[test]
    fn retry_delays_include_timeout_backoff_and_bounded_jitter() {
        let mut st = FaultState::new(FaultSpec::message_loss(1.0), RecoveryPolicy::default(), 13);
        let plan = st.compile_round(&fleet(1));
        let s = plan.upload(0).unwrap();
        assert_eq!(s.retries(), u64::from(RETRY_BUDGET));
        for (i, &d) in s.retry_delays_us.iter().enumerate() {
            let retry = u32::try_from(i).expect("retry index fits u32");
            let base = TIMEOUT_US + backoff_us(retry);
            assert!(
                (base..base + JITTER_US).contains(&d),
                "retry {i}: delay {d} outside [{base}, {})",
                base + JITTER_US
            );
        }
    }

    #[test]
    fn outage_windows_cover_their_rounds_only() {
        let spec = FaultSpec::Faults {
            crash_rate: 0.0,
            loss_rate: 0.0,
            outages: vec![
                OutageWindow {
                    aggregator: 1,
                    from_round: 2,
                    until_round: 4,
                },
                OutageWindow {
                    aggregator: 9,
                    from_round: 0,
                    until_round: 100,
                },
            ],
        };
        let mut st = FaultState::new(spec, RecoveryPolicy::default(), 1);
        // Round 0: window [2, 4) not yet open; aggregator 9 out of range.
        assert!(st.outaged_aggregators(4).is_empty());
        st.compile_round(&fleet(2));
        st.compile_round(&fleet(2));
        // Round 2: the window covers it.
        assert_eq!(st.outaged_aggregators(4), vec![1]);
        st.compile_round(&fleet(2));
        st.compile_round(&fleet(2));
        // Round 4: closed again.
        assert!(st.outaged_aggregators(4).is_empty());
    }
}
