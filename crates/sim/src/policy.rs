//! Semi-synchronous aggregation policies over the per-destination timing
//! signal.
//!
//! Lumos is synchronous: the round closes only when every update has
//! arrived (§IV-B), so one straggler prices the whole epoch. With the
//! per-destination schedule reporting *when each device's update actually
//! lands* ([`EpochStats::update_delivery_secs`]), a deadline policy becomes
//! well-defined: updates landing after a multiple of the round's median
//! finish time are dropped from the pooled update, and the barrier closes
//! without them — the Fig. 8c-style straggler-dropping trade the paper
//! motivates. The buffered policy keeps the same barrier cut but carries
//! the late updates instead of discarding them: each one is blended into a
//! later round's POOL with weight `decay^staleness` (FedAsync-style
//! staleness discounting), where the staleness is how many extra
//! round-lengths the update spent in flight. This module decides who is
//! late and by how much; the queue the carried updates wait in is
//! `lumos_fed::Runtime`'s, beside the ledger their sends land on.
//! The fully-asynchronous policy retires the barrier outright: the round
//! closes the moment `min_updates` have landed
//! ([`AggregationPolicy::Async`]), and every update that missed the quorum
//! is carried to the next round at full weight — nothing is dropped and
//! nothing is discounted.
//!
//! Each policy is also an *event handler* ([`RoundPolicy`]): subscribed to
//! an [`EventDrivenRuntime`] run, it closes the round the moment the last
//! update it still waits for lands, so the run that names the late set is
//! the run whose makespan prices the round. The schedule is static, so the
//! late set itself is decided at construction from the planned deliveries;
//! the post-hoc [`AggregationPolicy::late_with_staleness`] computes the
//! same set from a finished round's timing signal and is kept as the
//! independent reference the property tests hold the handler to.

use crate::epoch::EpochStats;
use crate::runtime::{Control, EventDrivenRuntime, SimEvent};
use crate::time::VirtualTime;

/// Upper bound on how many rounds a late update may stay in flight before
/// it is blended in: both its arrival round and its staleness exponent are
/// clamped to it, so no carried update is deferred (or discounted)
/// unboundedly — a device 1000× past the deadline still lands within
/// `STALENESS_CAP` rounds.
pub const STALENESS_CAP: u32 = 8;

/// How a round's updates are aggregated.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum AggregationPolicy {
    /// The paper's synchronous barrier: every update is waited for. The
    /// default, and the only policy under which a scenario is a pure
    /// timing overlay.
    #[default]
    FullSync,
    /// Semi-synchronous deadline: a device whose update lands after
    /// `factor × median update-delivery time` is dropped from that round's
    /// pooled update and message accounting, and its events no longer gate
    /// the barrier. `factor >= 1`, so the median device (and with it at
    /// least half the round) always survives.
    Deadline {
        /// Deadline as a multiple of the round's median delivery time.
        factor: f64,
    },
    /// Buffered semi-sync: the same deadline cut as
    /// [`AggregationPolicy::Deadline`] (late devices still leave the
    /// round's barrier, keeping its makespan win), but late updates are
    /// buffered instead of discarded and blended into the round where they
    /// actually arrive with weight `decay^staleness`. Their protocol
    /// messages are likewise accounted in the arrival round. `decay = 0`
    /// weighs every stale update by zero — exactly the deadline's discard —
    /// and collapses to it bit for bit via
    /// [`AggregationPolicy::effective`].
    Buffered {
        /// Deadline as a multiple of the round's median delivery time.
        factor: f64,
        /// Per-round staleness discount in `[0, 1]`: an update arriving
        /// `s` rounds late pools with weight `decay^s`.
        decay: f64,
    },
    /// Barrier-free asynchronous aggregation: the round pools the moment
    /// `min_updates` updates have landed — no global barrier at all. The
    /// quorum is the `min_updates` earliest landings in `(delivery time,
    /// device id)` order (the tie-break mirrors the schedule's total order
    /// — `runtime.rs`'s sort key — so the set is a function of the landing
    /// times alone); every other update is
    /// carried to the next round at *full* weight (staleness 1, no decay) —
    /// nothing is dropped (`late_drops = 0`) and nothing is wasted
    /// (`wasted_updates = 0`). With `min_updates >= n_devices` the quorum
    /// is the whole fleet, which is exactly the synchronous barrier:
    /// [`AggregationPolicy::resolve`] collapses that configuration to
    /// `FullSync` up front, bit for bit.
    Async {
        /// Updates that must land before the round closes and pools.
        min_updates: usize,
    },
}

impl AggregationPolicy {
    /// Display name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            AggregationPolicy::FullSync => "full-sync",
            AggregationPolicy::Deadline { .. } => "deadline",
            AggregationPolicy::Buffered { .. } => "buffered",
            AggregationPolicy::Async { .. } => "async",
        }
    }

    /// The policy actually executed: `Buffered` with `decay = 0` weighs
    /// every stale update by zero, which is the deadline's discard — it is
    /// resolved to `Deadline` up front so the two configurations are
    /// bit-identical by construction (same pool masks, same message
    /// accounting, no carry-over traffic).
    pub fn effective(self) -> AggregationPolicy {
        match self {
            AggregationPolicy::Buffered { factor, decay: 0.0 } => {
                AggregationPolicy::Deadline { factor }
            }
            p => p,
        }
    }

    /// The policy actually executed for a fleet of `n_devices`: applies
    /// [`AggregationPolicy::effective`], then collapses an `Async` quorum
    /// of the whole fleet (or more) to `FullSync` — waiting for every
    /// device *is* the synchronous barrier, so the two configurations are
    /// made bit-identical by construction (same code path, same reports).
    pub fn resolve(self, n_devices: usize) -> AggregationPolicy {
        match self.effective() {
            AggregationPolicy::Async { min_updates } if min_updates >= n_devices => {
                AggregationPolicy::FullSync
            }
            p => p,
        }
    }

    /// The deadline factor shared by the cutting policies (`None` under
    /// [`AggregationPolicy::FullSync`] and [`AggregationPolicy::Async`],
    /// which cut by quorum rank, not by deadline).
    fn cut_factor(&self) -> Option<f64> {
        match *self {
            AggregationPolicy::FullSync | AggregationPolicy::Async { .. } => None,
            AggregationPolicy::Deadline { factor } | AggregationPolicy::Buffered { factor, .. } => {
                Some(factor)
            }
        }
    }

    /// The devices this policy drops from a round with the given timing —
    /// those whose update landed strictly after `factor ×` the round's
    /// median delivery time (lower median — deterministic, no averaging) —
    /// each with its *staleness*: how many additional round-lengths its
    /// update spends in flight past the deadline, `ceil(delivery /
    /// deadline) - 1`, clamped to `1..=`[`STALENESS_CAP`]. An update
    /// landing just past the deadline arrives next round (staleness 1); one
    /// landing at 3× the deadline arrives two rounds later (staleness 2).
    /// Empty under [`AggregationPolicy::FullSync`] and for rounds where
    /// nothing ran. Sorted by device id.
    ///
    /// Under [`AggregationPolicy::Async`] the "late" set is the complement
    /// of the quorum — every device whose update lands after the
    /// `min_updates` earliest (in `(delivery time, device id)` order) —
    /// each at staleness 1: carried to the next round, undecayed.
    pub fn late_with_staleness(&self, stats: &EpochStats) -> Vec<(u32, u32)> {
        if let AggregationPolicy::Async { min_updates } = *self {
            return async_overflow(min_updates, &stats.update_delivery_secs);
        }
        let Some(factor) = self.cut_factor() else {
            return Vec::new();
        };
        let mut times: Vec<f64> = stats
            .update_delivery_secs
            .iter()
            .flatten()
            .copied()
            .collect();
        if times.is_empty() {
            return Vec::new();
        }
        times.sort_by(f64::total_cmp);
        let median = times[(times.len() - 1) / 2];
        let deadline = factor * median;
        stats
            .update_delivery_secs
            .iter()
            .enumerate()
            .filter_map(|(d, t)| {
                let t = (*t)?;
                if t <= deadline {
                    return None;
                }
                Some((d as u32, staleness(t, deadline)))
            })
            .collect()
    }
}

/// The devices an async quorum of `min_updates` leaves out, each at
/// staleness 1, sorted by device id. Empty when the whole round fits in
/// the quorum. The quorum is the `min_updates` earliest landings by time
/// with ties broken by device id — the order the sorted schedule walks
/// simultaneous landings in, so the boundary is a pure function of the
/// schedule.
fn async_overflow(min_updates: usize, planned: &[Option<f64>]) -> Vec<(u32, u32)> {
    let mut landed: Vec<(f64, u32)> = planned
        .iter()
        .enumerate()
        .filter_map(|(d, t)| t.map(|t| (t, d as u32)))
        .collect();
    if landed.len() <= min_updates {
        return Vec::new();
    }
    landed.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut late: Vec<(u32, u32)> = landed[min_updates..].iter().map(|&(_, d)| (d, 1)).collect();
    late.sort_unstable_by_key(|&(d, _)| d);
    late
}

/// Rounds a late update spends in flight past `deadline`:
/// `ceil(t / deadline) - 1`, clamped to `1..=`[`STALENESS_CAP`].
fn staleness(t: f64, deadline: f64) -> u32 {
    if deadline > 0.0 {
        ((t / deadline).ceil() - 1.0).clamp(1.0, STALENESS_CAP as f64) as u32
    } else {
        STALENESS_CAP
    }
}

/// One round of an aggregation policy, expressed as an event handler.
///
/// Where [`AggregationPolicy::late_with_staleness`] judges a *finished*
/// round from its timing signal, a `RoundPolicy` subscribes to the live
/// [`EventDrivenRuntime`] stream and ends the round from inside it. The
/// schedule is static, so the late set — the deadline cut against each
/// group's own lower median, or the async overflow past the quorum — is
/// priced from [`EventDrivenRuntime::update_delivery_secs`] at
/// construction, and is identical to the post-hoc path's (property-tested
/// in `tests/sim_properties.rs`). Every other landing is *awaited*, and one
/// rule closes every non-barrier round: [`Control::CloseRound`] when the
/// last awaited update lands. The late devices stay on the schedule — they
/// compute, and their busy time is clamped at the close — so the run's
/// [`EpochStats`] price the round its verdicts describe.
#[derive(Debug, Clone)]
pub struct RoundPolicy {
    mode: RoundMode,
    late: Vec<(u32, u32)>,
}

#[derive(Debug, Clone)]
enum RoundMode {
    /// Run to the barrier, drains included: `FullSync`, a cut round in
    /// which nobody is late, an async quorum of the whole fleet, and
    /// rounds where nothing lands.
    Barrier,
    /// Close once every awaited landing has run.
    Awaiting {
        /// Per device, the event its awaited update lands on — `Some(true)`
        /// its `Delivered` (it ships a burst), `Some(false)` its
        /// `ComputeDone` — and `None` once landed, or if never awaited.
        lands_on_delivery: Vec<Option<bool>>,
        remaining: usize,
    },
}

impl RoundPolicy {
    /// A handler judging the whole fleet as one group.
    pub fn new(policy: &AggregationPolicy, schedule: &EventDrivenRuntime) -> Self {
        let n = schedule.update_delivery_secs().len() as u32;
        Self::grouped(policy, schedule, std::iter::once(0..n))
    }

    /// A handler judging each of `groups` (disjoint device-id ranges: a
    /// topology's shards) against its own lower-median deadline. The async
    /// quorum is global whatever the grouping: it is the *server's*
    /// round-closure criterion and counts landings across the whole fleet.
    /// Devices in no group are awaited, never cut.
    ///
    /// # Panics
    /// Panics if a group reaches past the fleet.
    pub fn grouped(
        policy: &AggregationPolicy,
        schedule: &EventDrivenRuntime,
        groups: impl IntoIterator<Item = std::ops::Range<u32>>,
    ) -> Self {
        let planned = schedule.update_delivery_secs();
        let mut late = Vec::new();
        // A quorum short of the fleet closes at its last landing even when
        // churn left nobody to carry; a cut closes early only if it cut.
        let closes_early = match *policy {
            AggregationPolicy::FullSync => false,
            AggregationPolicy::Async { min_updates } => {
                late = async_overflow(min_updates, planned);
                min_updates < planned.len()
            }
            AggregationPolicy::Deadline { factor } | AggregationPolicy::Buffered { factor, .. } => {
                let mut times: Vec<f64> = Vec::new();
                for group in groups {
                    let members = &planned[group.start as usize..group.end as usize];
                    times.clear();
                    times.extend(members.iter().flatten());
                    if times.is_empty() {
                        continue;
                    }
                    times.sort_by(f64::total_cmp);
                    let deadline = factor * times[(times.len() - 1) / 2];
                    late.extend(group.zip(members).filter_map(|(d, t)| {
                        t.filter(|&t| t > deadline)
                            .map(|t| (d, staleness(t, deadline)))
                    }));
                }
                !late.is_empty()
            }
        };
        let mut mode = RoundMode::Barrier;
        if closes_early {
            let mut lands_on_delivery: Vec<Option<bool>> = planned
                .iter()
                .zip(schedule.ships_burst())
                .map(|(t, &burst)| t.map(|_| burst))
                .collect();
            for &(d, _) in &late {
                lands_on_delivery[d as usize] = None;
            }
            let remaining = lands_on_delivery.iter().flatten().count();
            if remaining > 0 {
                mode = RoundMode::Awaiting {
                    lands_on_delivery,
                    remaining,
                };
            }
        }
        Self { mode, late }
    }

    /// Feeds one event through the policy. A bursting device's update
    /// lands at its `Delivered` event, a burst-less one's at its
    /// `ComputeDone`; everything else (arrivals, drains, late devices) is
    /// passed through. Returns [`Control::CloseRound`] exactly when the
    /// last awaited update lands — the closing instant is that event's own
    /// timestamp, so `_t` goes unread.
    pub fn on_event(&mut self, _t: VirtualTime, ev: &SimEvent) -> Control {
        let RoundMode::Awaiting {
            lands_on_delivery,
            remaining,
        } = &mut self.mode
        else {
            return Control::Continue;
        };
        let landing = match ev {
            SimEvent::Delivered(_) => Some(true),
            SimEvent::ComputeDone(_) => Some(false),
            // Fault events are never landings: a crashed or exhausted
            // device has no planned delivery and is handled by the
            // recovery layer (dropped, or carried a round), not the round
            // policy.
            SimEvent::Arrived { .. }
            | SimEvent::InboxDrained(_)
            | SimEvent::Crashed(_)
            | SimEvent::Lost(_)
            | SimEvent::RetryDue(_) => return Control::Continue,
        };
        let awaited = &mut lands_on_delivery[ev.device() as usize];
        if *awaited != landing {
            return Control::Continue;
        }
        *awaited = None;
        *remaining -= 1;
        if *remaining == 0 {
            Control::CloseRound
        } else {
            Control::Continue
        }
    }

    /// The round's late/carried set, `(device, staleness)` sorted by
    /// device id — the same pairs the post-hoc
    /// [`AggregationPolicy::late_with_staleness`] computes.
    pub fn verdicts(mut self) -> Vec<(u32, u32)> {
        self.late.sort_unstable_by_key(|&(d, _)| d);
        self.late
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epoch::{simulate_epoch, DeviceWork};
    use crate::profile::DeviceProfile;

    fn stats_with(deliveries: Vec<Option<f64>>) -> EpochStats {
        EpochStats {
            makespan_secs: 0.0,
            busy_secs: vec![0.0; deliveries.len()],
            idle_secs: vec![0.0; deliveries.len()],
            update_delivery_secs: deliveries,
            straggler: None,
            active_devices: 0,
            events: 0,
        }
    }

    #[test]
    fn full_sync_never_drops() {
        let s = stats_with(vec![Some(1.0), Some(1e9)]);
        assert!(AggregationPolicy::FullSync
            .late_with_staleness(&s)
            .is_empty());
    }

    #[test]
    fn deadline_drops_the_tail_but_keeps_the_median() {
        let s = stats_with(vec![Some(1.0), Some(1.1), Some(0.9), None, Some(40.0)]);
        // Sorted deliveries: 0.9, 1.0, 1.1, 40 → lower median 1.0, deadline
        // 2.0 at factor 2 → only the 40s device is late; the absent device
        // (None) is never dropped.
        let late = AggregationPolicy::Deadline { factor: 2.0 }.late_with_staleness(&s);
        assert_eq!(late.iter().map(|&(d, _)| d).collect::<Vec<_>>(), vec![4]);
    }

    #[test]
    fn at_least_half_the_round_survives() {
        for n in 1..32usize {
            let s = stats_with((0..n).map(|i| Some((i + 1) as f64)).collect());
            let late = AggregationPolicy::Deadline { factor: 1.0 }.late_with_staleness(&s);
            assert!(
                n - late.len() >= n.div_ceil(2),
                "n={n}: {} dropped",
                late.len()
            );
        }
    }

    #[test]
    fn empty_round_drops_nobody() {
        let s = stats_with(vec![None, None]);
        assert!(AggregationPolicy::Deadline { factor: 2.0 }
            .late_with_staleness(&s)
            .is_empty());
    }

    #[test]
    fn reads_the_simulated_signal_end_to_end() {
        // A Pareto-style tail on real simulated timing: the slow device's
        // update lands far past 2× the median and is dropped.
        let mut profiles = vec![DeviceProfile::baseline(); 5];
        profiles[3].compute_rate /= 100.0;
        let w: Vec<DeviceWork> = (0..5)
            .map(|_| DeviceWork {
                compute_units: 100.0,
                messages_out: 1,
                bytes_out: 64,
                inbound: Vec::new(),
            })
            .collect();
        let stats = simulate_epoch(&profiles, &w);
        let late = AggregationPolicy::Deadline { factor: 2.0 }.late_with_staleness(&stats);
        assert_eq!(late.iter().map(|&(d, _)| d).collect::<Vec<_>>(), vec![3]);
        assert_eq!(AggregationPolicy::FullSync.name(), "full-sync");
        assert_eq!(
            AggregationPolicy::Deadline { factor: 2.0 }.name(),
            "deadline"
        );
    }

    #[test]
    fn buffered_cuts_exactly_like_the_deadline() {
        // Same factor ⇒ same late set: buffering changes what happens to a
        // late update, never who is late.
        let s = stats_with(vec![Some(1.0), Some(1.1), Some(0.9), None, Some(40.0)]);
        let deadline = AggregationPolicy::Deadline { factor: 2.0 };
        let buffered = AggregationPolicy::Buffered {
            factor: 2.0,
            decay: 0.5,
        };
        assert_eq!(
            buffered.late_with_staleness(&s),
            deadline.late_with_staleness(&s)
        );
        assert_eq!(buffered.name(), "buffered");
    }

    #[test]
    fn staleness_counts_round_lengths_past_the_deadline() {
        // Deadline 2.0 (factor 2 × lower median 1.0): 2.5s ⇒ next round
        // (staleness 1), 4.5s ⇒ ceil(2.25)-1 = 2 rounds, 1000s ⇒ capped.
        let s = stats_with(vec![
            Some(1.0),
            Some(1.0),
            Some(1.0),
            Some(2.5),
            Some(4.5),
            Some(1000.0),
        ]);
        let late = AggregationPolicy::Buffered {
            factor: 2.0,
            decay: 0.5,
        }
        .late_with_staleness(&s);
        assert_eq!(late, vec![(3, 1), (4, 2), (5, STALENESS_CAP)]);
    }

    #[test]
    fn zero_decay_is_effectively_the_deadline() {
        let collapsed = AggregationPolicy::Buffered {
            factor: 2.0,
            decay: 0.0,
        }
        .effective();
        assert_eq!(collapsed, AggregationPolicy::Deadline { factor: 2.0 });
        // Non-zero decay and the other policies pass through untouched.
        let buffered = AggregationPolicy::Buffered {
            factor: 2.0,
            decay: 0.5,
        };
        assert_eq!(buffered.effective(), buffered);
        assert_eq!(
            AggregationPolicy::FullSync.effective(),
            AggregationPolicy::FullSync
        );
    }

    #[test]
    fn async_quorum_carries_the_overflow_at_full_staleness() {
        // Quorum 2 over landings at 1.0 (d0), 3.0 (d1), 2.0 (d2), 5.0
        // (d4): the two earliest (d0, d2) pool; d1 and d4 are carried at
        // staleness 1. The absent device is never judged.
        let s = stats_with(vec![Some(1.0), Some(3.0), Some(2.0), None, Some(5.0)]);
        let late = AggregationPolicy::Async { min_updates: 2 }.late_with_staleness(&s);
        assert_eq!(late, vec![(1, 1), (4, 1)]);
        assert_eq!(AggregationPolicy::Async { min_updates: 2 }.name(), "async");
    }

    #[test]
    fn async_ties_at_the_quorum_boundary_break_by_device_id() {
        let s = stats_with(vec![Some(1.0), Some(1.0), Some(1.0)]);
        let late = AggregationPolicy::Async { min_updates: 2 }.late_with_staleness(&s);
        assert_eq!(late, vec![(2, 1)]);
    }

    #[test]
    fn async_quorum_of_everyone_carries_nobody() {
        let s = stats_with(vec![Some(1.0), Some(40.0), None]);
        let late = AggregationPolicy::Async { min_updates: 2 }.late_with_staleness(&s);
        assert!(late.is_empty(), "both landings fit in the quorum");
    }

    #[test]
    fn full_fleet_quorum_resolves_to_full_sync() {
        // min_updates >= n_devices is the synchronous barrier, collapsed up
        // front so both configurations share one code path bit for bit.
        let whole = AggregationPolicy::Async { min_updates: 8 };
        assert_eq!(whole.resolve(8), AggregationPolicy::FullSync);
        assert_eq!(whole.resolve(7), AggregationPolicy::FullSync);
        let partial = AggregationPolicy::Async { min_updates: 7 };
        assert_eq!(partial.resolve(8), partial);
        // resolve() still applies the zero-decay buffered collapse.
        let buffered = AggregationPolicy::Buffered {
            factor: 2.0,
            decay: 0.0,
        };
        assert_eq!(
            buffered.resolve(8),
            AggregationPolicy::Deadline { factor: 2.0 }
        );
    }

    fn straggler_fleet() -> (Vec<DeviceProfile>, Vec<DeviceWork>) {
        let mut profiles = vec![DeviceProfile::baseline(); 5];
        profiles[3].compute_rate /= 100.0;
        let w: Vec<DeviceWork> = (0..5)
            .map(|_| DeviceWork {
                compute_units: 100.0,
                messages_out: 1,
                bytes_out: 64,
                inbound: Vec::new(),
            })
            .collect();
        (profiles, w)
    }

    #[test]
    fn round_policy_verdicts_match_the_post_hoc_path() {
        // The arrival-time handler and the finished-round computation must
        // agree exactly: the post-hoc cut is the reference the handler's
        // construction-time late set is held to.
        let (profiles, w) = straggler_fleet();
        for policy in [
            AggregationPolicy::FullSync,
            AggregationPolicy::Deadline { factor: 2.0 },
            AggregationPolicy::Buffered {
                factor: 2.0,
                decay: 0.5,
            },
            AggregationPolicy::Async { min_updates: 3 },
        ] {
            let schedule = EventDrivenRuntime::new(&profiles, &w);
            let mut round = RoundPolicy::new(&policy, &schedule);
            let stats = schedule.run(|t, ev| round.on_event(t, ev));
            assert_eq!(
                round.verdicts(),
                policy.late_with_staleness(&stats),
                "{} handler disagreed with the post-hoc cut",
                policy.name()
            );
        }
    }

    #[test]
    fn round_policy_closes_the_async_round_at_the_quorum() {
        let (profiles, w) = straggler_fleet();
        let full = simulate_epoch(&profiles, &w);
        let schedule = EventDrivenRuntime::new(&profiles, &w);
        let mut round = RoundPolicy::new(&AggregationPolicy::Async { min_updates: 4 }, &schedule);
        let stats = schedule.run(|t, ev| round.on_event(t, ev));
        assert!(
            stats.makespan_secs < full.makespan_secs,
            "closing at the quorum must beat the barrier ({} !< {})",
            stats.makespan_secs,
            full.makespan_secs
        );
        assert_eq!(round.verdicts(), vec![(3, 1)], "the straggler is carried");
    }

    #[test]
    fn round_policy_closes_a_cut_round_at_its_last_awaited_landing() {
        let (profiles, w) = straggler_fleet();
        let full = simulate_epoch(&profiles, &w);
        let run = |factor: f64| {
            let schedule = EventDrivenRuntime::new(&profiles, &w);
            let mut round = RoundPolicy::new(&AggregationPolicy::Deadline { factor }, &schedule);
            let stats = schedule.run(|t, ev| round.on_event(t, ev));
            (stats, round.verdicts())
        };
        // The straggler is cut: the round ends when the other four have
        // landed. It still computed — active, busy up to the close.
        let (cut, late) = run(2.0);
        assert_eq!(late.len(), 1);
        assert_eq!(late[0].0, 3);
        let last_awaited = [0, 1, 2, 4]
            .map(|d| cut.update_delivery_secs[d].unwrap())
            .into_iter()
            .fold(0.0, f64::max);
        assert_eq!(cut.makespan_secs.to_bits(), last_awaited.to_bits());
        assert!(cut.makespan_secs < full.makespan_secs);
        assert_eq!(cut.active_devices, 5);
        assert_eq!(cut.busy_secs[3].to_bits(), cut.makespan_secs.to_bits());
        // Nobody misses a deadline this lax: the round is the barrier,
        // drains included — not "closed at the last landing".
        let (lax, late) = run(1e12);
        assert!(late.is_empty());
        assert_eq!(lax, full);
    }

    #[test]
    fn churn_shrunk_async_quorum_clamps_to_the_live_fleet() {
        // Regression: a quorum of 4 with only 2 live devices used to fall
        // back to the full barrier — waiting on updates that can never
        // arrive this round. The clamp closes the round at the last live
        // landing instead.
        let mut profiles = vec![DeviceProfile::baseline(); 6];
        for p in &mut profiles[2..] {
            p.available = false;
        }
        let w: Vec<DeviceWork> = (0..6u32)
            .map(|d| DeviceWork {
                compute_units: 100.0 + 10.0 * d as f64,
                messages_out: 1,
                bytes_out: 64,
                inbound: vec![((d + 1) % 6, 64)],
            })
            .collect();
        let full = EventDrivenRuntime::new(&profiles, &w).run(|_, _| Control::Continue);
        let schedule = EventDrivenRuntime::new(&profiles, &w);
        let mut landings: Vec<f64> = schedule
            .update_delivery_secs()
            .iter()
            .flatten()
            .copied()
            .collect();
        landings.sort_by(f64::total_cmp);
        assert_eq!(landings.len(), 2, "only the live devices land");
        let mut round = RoundPolicy::new(&AggregationPolicy::Async { min_updates: 4 }, &schedule);
        let stats = schedule.run(|t, ev| round.on_event(t, ev));
        assert_eq!(
            stats.makespan_secs.to_bits(),
            landings[1].to_bits(),
            "the clamped quorum closes at the last live landing"
        );
        assert!(
            stats.makespan_secs < full.makespan_secs,
            "closing early must beat the drain barrier"
        );
        assert!(
            round.verdicts().is_empty(),
            "every live update made the clamped quorum"
        );
    }

    #[test]
    fn shard_scoped_round_policy_ignores_outsiders() {
        // Members 0..3 of a 5-device fleet: the shard's median ignores the
        // outside straggler, and outsiders are never judged.
        let (profiles, w) = straggler_fleet();
        let schedule = EventDrivenRuntime::new(&profiles, &w);
        let policy = AggregationPolicy::Deadline { factor: 2.0 };
        let mut round = RoundPolicy::grouped(&policy, &schedule, Some(0..3));
        let _stats = schedule.run(|t, ev| round.on_event(t, ev));
        assert!(
            round.verdicts().is_empty(),
            "the slow device is not a member, so the shard has no stragglers"
        );
    }
}
