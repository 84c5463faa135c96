//! Property tests for the discrete-event core: the schedule runs in its
//! total order and keeps every device's causal chain, the epoch simulator's invariants hold for arbitrary
//! seeded fleets and workloads, and the per-destination schedule dominates
//! the aggregate (self-timed) one — every inbound byte from the server —
//! collapsing to it bit-for-bit exactly when every sender lands at or
//! before its receiver's own burst barrier.

use proptest::prelude::*;

use lumos_common::rng::Xoshiro256pp;
use lumos_sim::{
    simulate_epoch, AggregationPolicy, Control, DeviceProfile, DeviceWork, EventDrivenRuntime,
    FaultPlan, FaultSpec, FaultState, RecoveryPolicy, RoundPolicy, RoundWork, SimEvent,
    VirtualTime, SERVER_SENDER, STALENESS_CAP,
};

/// One device's own work and its inbound `(sender, bytes)` list.
type Listed = (DeviceWork, Vec<(u32, u64)>);

/// The round of per-device `(work, inbound list)` pairs.
fn round(work: &[Listed]) -> RoundWork {
    RoundWork::from_lists(work.iter().cloned())
}

/// Random fleet + aggregate workload of `n` devices from one seed: each
/// device's inbound bytes all come from [`SERVER_SENDER`], so its drain is
/// self-timed.
fn random_fleet(seed: u64, n: usize) -> (Vec<DeviceProfile>, Vec<Listed>) {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let profiles = (0..n)
        .map(|_| DeviceProfile {
            compute_rate: rng.range_f64(0.5, 500.0),
            uplink_bytes_per_sec: rng.range_f64(64.0, 1e5),
            downlink_bytes_per_sec: rng.range_f64(64.0, 1e5),
            latency_secs: rng.range_f64(0.0, 0.5),
            available: rng.bernoulli(0.9),
        })
        .collect();
    let work = (0..n)
        .map(|_| {
            let own = DeviceWork {
                compute_units: rng.range_f64(0.0, 5000.0),
                messages_out: rng.next_below(32),
                bytes_out: rng.next_below(1 << 16),
            };
            (own, vec![(SERVER_SENDER, rng.next_below(1 << 16))])
        })
        .collect();
    (profiles, work)
}

/// Splits each device's aggregate inbound bytes across random senders
/// (peers, itself, or the server), preserving the per-device totals.
fn scatter_inbound(seed: u64, work: &[Listed]) -> Vec<Listed> {
    let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0x5EED_CA57);
    let n = work.len() as u64;
    work.iter()
        .map(|(own, inbound)| {
            let total: u64 = inbound.iter().map(|&(_, b)| b).sum();
            let mut remaining = total;
            let mut list = Vec::new();
            while remaining > 0 {
                let chunk = (rng.next_below(remaining) + 1).min(remaining);
                let sender = match rng.next_below(n + 2) {
                    s if s < n => s as u32,
                    s if s == n => SERVER_SENDER,
                    _ => SERVER_SENDER, // second server slot keeps draws simple
                };
                list.push((sender, chunk));
                remaining -= chunk;
            }
            (*own, list)
        })
        .collect()
}

/// The sender's burst barrier, with the exact float operations of the
/// simulator's event chain.
fn barrier_secs(p: &DeviceProfile, w: &DeviceWork) -> f64 {
    (p.compute_secs(w.compute_units) + p.upload_secs(w.bytes_out)) + p.latency_secs
}

/// A tie-heavy, lossy round of `n` devices: a random fleet under a lossy,
/// crashing fault plan, with every other device pinned to one timestamp so
/// kinds and devices collide and senders reach several receivers at once.
fn tie_heavy_lossy_round(seed: u64, n: usize) -> (Vec<DeviceProfile>, RoundWork, FaultPlan) {
    let (mut profiles, aggregate) = random_fleet(seed, n);
    let mut work = scatter_inbound(seed, &aggregate);
    for (p, (w, _)) in profiles.iter_mut().zip(&mut work).step_by(2) {
        *p = DeviceProfile {
            available: p.available,
            latency_secs: 0.0,
            ..DeviceProfile::baseline()
        };
        w.compute_units = 100.0;
        w.messages_out = 1;
        w.bytes_out = 0;
    }
    let spec = FaultSpec::Faults {
        crash_rate: 0.1,
        loss_rate: 0.3,
        outages: Vec::new(),
    };
    let plan = FaultState::new(spec, RecoveryPolicy::default(), seed).compile_round(&profiles);
    (profiles, round(&work), plan)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The sorted schedule earns what the event heap gave by construction.
    /// On [`tie_heavy_lossy_round`], the stream a handler sees never steps
    /// back under `(time, kind rank, device)`, one sender's simultaneous
    /// arrivals ascend by receiver, and each device's chain keeps its
    /// causal order: `ComputeDone` before `Delivered` before every
    /// `Arrived` it sends, and before its own `InboxDrained` and any
    /// `Lost` / `RetryDue`.
    #[test]
    fn event_pops_are_monotone_in_time(seed in any::<u64>(), n in 1usize..48) {
        let (profiles, work, plan) = tie_heavy_lossy_round(seed, n);
        let mut seen: Vec<(VirtualTime, SimEvent)> = Vec::new();
        let stats = EventDrivenRuntime::new_with_faults(&profiles, &work, Some(&plan)).run(|t, ev| {
            seen.push((t, *ev));
            Control::Continue
        });
        prop_assert_eq!(seen.len() as u64, stats.events);
        let rank = |ev: &SimEvent| match ev {
            SimEvent::ComputeDone(_) => 0,
            SimEvent::Delivered(_) => 1,
            SimEvent::Arrived { .. } => 2,
            SimEvent::InboxDrained(_) => 3,
            SimEvent::Crashed(_) => 4,
            SimEvent::Lost(_) => 5,
            SimEvent::RetryDue(_) => 6,
        };
        for pair in seen.windows(2) {
            let [(t0, e0), (t1, e1)] = [pair[0], pair[1]];
            prop_assert!(
                (t0, rank(&e0), e0.device()) <= (t1, rank(&e1), e1.device()),
                "{:?} at {} ran before {:?} at {}", e0, t0.secs(), e1, t1.secs()
            );
            if let (SimEvent::Arrived { from: a, to: x }, SimEvent::Arrived { from: b, to: y }) = (e0, e1) {
                prop_assert!(t0 != t1 || a != b || x < y, "{:?} ran before {:?}", e0, e1);
            }
        }
        let at = |want: SimEvent| seen.iter().position(|&(_, ev)| ev == want);
        for (i, (_, ev)) in seen.iter().enumerate() {
            let d = ev.device();
            let cause = match ev {
                SimEvent::ComputeDone(_) | SimEvent::Crashed(_) => continue,
                SimEvent::Arrived { .. } => SimEvent::Delivered(d),
                _ => SimEvent::ComputeDone(d),
            };
            prop_assert!(at(cause).is_some_and(|c| c < i), "{:?} ran without its {:?}", ev, cause);
        }
    }

    /// An early close is a prefix of the stream. On
    /// [`tie_heavy_lossy_round`], recorded once in full, closing at the
    /// k-th event — at sampled k, at one inside a sender's arrival run, and
    /// at the last event — runs exactly k events, takes the k-th event's
    /// time bits as the makespan and its device as the straggler, and keeps
    /// every active device's busy time inside the makespan.
    #[test]
    fn a_closed_round_is_a_prefix_of_the_stream(seed in any::<u64>(), n in 1usize..48) {
        let (profiles, work, plan) = tie_heavy_lossy_round(seed, n);
        let mut full: Vec<(VirtualTime, SimEvent)> = Vec::new();
        EventDrivenRuntime::new_with_faults(&profiles, &work, Some(&plan)).run(|t, ev| {
            full.push((t, *ev));
            Control::Continue
        });
        // Closing on an `Arrived` its sender's next `Arrived` follows at the
        // same instant cuts the arrival run in two.
        let inside_run = full.windows(2).position(|w| {
            matches!(
                (w[0].1, w[1].1),
                (SimEvent::Arrived { from: a, .. }, SimEvent::Arrived { from: b, .. })
                    if a == b && w[0].0 == w[1].0
            )
        });
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mut closes: Vec<usize> = inside_run.map(|i| i + 1).into_iter().collect();
        if !full.is_empty() {
            closes.extend((0..4).map(|_| 1 + rng.next_below(full.len() as u64) as usize));
            closes.push(full.len());
        }
        for k in closes {
            let mut handled = 0;
            let stats = EventDrivenRuntime::new_with_faults(&profiles, &work, Some(&plan)).run(|_, _| {
                handled += 1;
                if handled == k { Control::CloseRound } else { Control::Continue }
            });
            let (t, ev) = full[k - 1];
            prop_assert_eq!(stats.events, k as u64, "closed at event {}", k);
            prop_assert_eq!(stats.makespan_secs.to_bits(), t.secs().to_bits(), "closed at {:?}", ev);
            prop_assert_eq!(stats.straggler, Some(ev.device()), "closed at {:?}", ev);
            for (d, p) in profiles.iter().enumerate() {
                prop_assert!(
                    !p.available || stats.busy_secs[d] <= stats.makespan_secs,
                    "device {} busy {} past the close at {}", d, stats.busy_secs[d], stats.makespan_secs
                );
            }
        }
    }

    /// The synchronous barrier dominates every device: busy time never
    /// exceeds the makespan, idle is the exact complement for available
    /// devices, and utilization stays in [0, 1] — under both inbound
    /// representations.
    #[test]
    fn epoch_invariants_hold_for_random_fleets(seed in any::<u64>(), n in 1usize..48) {
        let (profiles, aggregate) = random_fleet(seed, n);
        let per_sender = scatter_inbound(seed, &aggregate);
        for work in [round(&aggregate), round(&per_sender)] {
            let stats = simulate_epoch(&profiles, &work);
            prop_assert!(stats.makespan_secs >= 0.0);
            for (d, p) in profiles.iter().enumerate() {
                prop_assert!(
                    stats.busy_secs[d] <= stats.makespan_secs + 1e-9,
                    "device {} busy {} exceeds makespan {}",
                    d, stats.busy_secs[d], stats.makespan_secs
                );
                prop_assert!(stats.makespan_secs - stats.busy_secs[d] >= 0.0);
                if !p.available {
                    prop_assert_eq!(stats.busy_secs[d], 0.0);
                    prop_assert_eq!(stats.update_delivery_secs[d], None);
                }
            }
            let u = stats.mean_utilization();
            prop_assert!((0.0..=1.0 + 1e-12).contains(&u), "utilization {} out of range", u);
            // Straggler exists iff some available device had work.
            let any_ran = (0..n).any(|d| profiles[d].available && !work.is_idle(d));
            prop_assert_eq!(stats.straggler.is_some(), any_ran);
        }
    }

    /// Naming senders can only delay drains: on the same work, the
    /// per-destination makespan dominates the aggregate (self-timed) one.
    #[test]
    fn per_destination_makespan_dominates_aggregate(seed in any::<u64>(), n in 1usize..32) {
        let (profiles, aggregate) = random_fleet(seed, n);
        let per_sender = scatter_inbound(seed, &aggregate);
        let agg = simulate_epoch(&profiles, &round(&aggregate));
        let per = simulate_epoch(&profiles, &round(&per_sender));
        prop_assert!(
            per.makespan_secs >= agg.makespan_secs,
            "per-destination {} fell below aggregate {}",
            per.makespan_secs, agg.makespan_secs
        );
        // Busy time is the device's own critical path either way: waiting
        // for senders is idle, never busy.
        for d in 0..n {
            prop_assert_eq!(per.busy_secs[d].to_bits(), agg.busy_secs[d].to_bits());
        }
    }

    /// Degenerate case, bit for bit: when every inbound byte originates at
    /// or before its receiver's own burst barrier, the per-destination
    /// schedule IS the aggregate schedule — same makespan bits, same
    /// straggler, same busy/idle bits.
    #[test]
    fn early_senders_collapse_to_the_aggregate_schedule(seed in any::<u64>(), n in 1usize..32) {
        let (profiles, aggregate) = random_fleet(seed, n);
        // Keep only the cross-sender contributions that land at or before
        // the receiver's own barrier; reroute the rest to the receiver
        // itself (self-timed by definition). Totals are preserved.
        let scattered = scatter_inbound(seed, &aggregate);
        let idle = round(&scattered);
        let filtered: Vec<Listed> = scattered
            .iter()
            .enumerate()
            .map(|(d, (w, inbound))| {
                let own = barrier_secs(&profiles[d], w);
                let list = inbound
                    .iter()
                    .map(|&(s, b)| {
                        let keep = s != SERVER_SENDER
                            && (s as usize) < n
                            && profiles[s as usize].available
                            && !idle.is_idle(s as usize)
                            && barrier_secs(&profiles[s as usize], &scattered[s as usize].0) <= own;
                        if keep { (s, b) } else { (d as u32, b) }
                    })
                    .collect();
                (*w, list)
            })
            .collect();
        let agg = simulate_epoch(&profiles, &round(&aggregate));
        let per = simulate_epoch(&profiles, &round(&filtered));
        prop_assert_eq!(per.makespan_secs.to_bits(), agg.makespan_secs.to_bits());
        prop_assert_eq!(per.straggler, agg.straggler);
        for d in 0..n {
            prop_assert_eq!(per.busy_secs[d].to_bits(), agg.busy_secs[d].to_bits());
        }
    }

    /// Bit-identical replay: the simulator is a pure function of its
    /// inputs, with no hidden clock or iteration-order dependence.
    #[test]
    fn epoch_simulation_is_replayable(seed in any::<u64>(), n in 1usize..32) {
        let (profiles, aggregate) = random_fleet(seed, n);
        let work = round(&scatter_inbound(seed, &aggregate));
        let a = simulate_epoch(&profiles, &work);
        let b = simulate_epoch(&profiles, &work);
        prop_assert_eq!(a, b);
    }

    /// The deadline policy can never empty a round: the median device (and
    /// with it at least half the participants) always survives, and only
    /// participants are ever dropped.
    #[test]
    fn deadline_keeps_at_least_half_the_round(
        seed in any::<u64>(), n in 1usize..32, factor in 1.0f64..4.0
    ) {
        let (profiles, aggregate) = random_fleet(seed, n);
        let work = round(&scatter_inbound(seed, &aggregate));
        let stats = simulate_epoch(&profiles, &work);
        let late = AggregationPolicy::Deadline { factor }.late_with_staleness(&stats);
        let participants = stats.update_delivery_secs.iter().flatten().count();
        prop_assert!(late.len() <= participants / 2);
        for &(d, _) in &late {
            prop_assert!(stats.update_delivery_secs[d as usize].is_some());
        }
        prop_assert!(AggregationPolicy::FullSync.late_with_staleness(&stats).is_empty());
    }

    /// The buffered policy's cut is the deadline's cut — identical late set
    /// on any simulated round, stalenesses always within the cap — and at
    /// `decay = 0` the whole policy resolves to the deadline.
    #[test]
    fn buffered_cut_matches_deadline_and_zero_decay_collapses(
        seed in any::<u64>(), n in 1usize..32, factor in 1.0f64..4.0, decay in 0.0f64..=1.0
    ) {
        let (profiles, aggregate) = random_fleet(seed, n);
        let work = round(&scatter_inbound(seed, &aggregate));
        let stats = simulate_epoch(&profiles, &work);
        let deadline = AggregationPolicy::Deadline { factor };
        let buffered = AggregationPolicy::Buffered { factor, decay };
        prop_assert_eq!(
            buffered.late_with_staleness(&stats),
            deadline.late_with_staleness(&stats)
        );
        for (d, s) in buffered.late_with_staleness(&stats) {
            prop_assert!((1..=STALENESS_CAP).contains(&s), "device {} staleness {}", d, s);
        }
        prop_assert_eq!(
            AggregationPolicy::Buffered { factor, decay: 0.0 }.effective(),
            deadline
        );
    }

    /// The arrival-time handler is the post-hoc policy: for any fleet and
    /// any policy, the run it closes yields the exact `(device, staleness)`
    /// pairs the finished-round computation does — and the same run prices
    /// the round: when somebody is late (or the quorum is short of the
    /// fleet) it closes at the latest *awaited* planned delivery, bitwise,
    /// with every active device's busy time inside the makespan; otherwise
    /// it is the barrier, drains included.
    #[test]
    fn round_policy_verdicts_equal_the_post_hoc_cut(
        seed in any::<u64>(), n in 1usize..32, factor in 1.0f64..4.0,
        decay in 0.01f64..=1.0, quorum in 1usize..40
    ) {
        let (profiles, aggregate) = random_fleet(seed, n);
        let work = round(&scatter_inbound(seed, &aggregate));
        for policy in [
            AggregationPolicy::FullSync,
            AggregationPolicy::Deadline { factor },
            AggregationPolicy::Buffered { factor, decay },
            AggregationPolicy::Async { min_updates: quorum },
        ] {
            let schedule = EventDrivenRuntime::new(&profiles, &work);
            let mut round = RoundPolicy::new(&policy, &schedule);
            let stats = schedule.run(|t, ev| round.on_event(t, ev));
            let late = policy.late_with_staleness(&stats);
            prop_assert_eq!(
                round.verdicts(),
                late.clone(),
                "{} handler disagreed with the post-hoc path", policy.name()
            );
            let last_awaited = stats
                .update_delivery_secs
                .iter()
                .enumerate()
                .filter(|(d, _)| !late.iter().any(|&(l, _)| l as usize == *d))
                .filter_map(|(_, t)| *t)
                .max_by(f64::total_cmp);
            let short_quorum =
                matches!(policy, AggregationPolicy::Async { min_updates } if min_updates < n);
            match last_awaited {
                Some(close) if !late.is_empty() || short_quorum => prop_assert_eq!(
                    stats.makespan_secs.to_bits(), close.to_bits(),
                    "{} closed at {} instead of its last awaited landing {}",
                    policy.name(), stats.makespan_secs, close
                ),
                _ => prop_assert_eq!(&stats, &simulate_epoch(&profiles, &work)),
            }
            for (d, p) in profiles.iter().enumerate() {
                prop_assert!(!p.available || stats.busy_secs[d] <= stats.makespan_secs);
            }
        }
    }

    /// `Async` with a quorum the whole round fits inside never closes
    /// early: the run is the synchronous barrier, bit for bit — the
    /// sim-level half of the `min_updates >= n_devices` ⇒ `FullSync`
    /// collapse.
    #[test]
    fn async_full_quorum_is_the_barrier_bitwise(seed in any::<u64>(), n in 1usize..32) {
        let (profiles, aggregate) = random_fleet(seed, n);
        let work = round(&scatter_inbound(seed, &aggregate));
        let barrier = simulate_epoch(&profiles, &work);
        let schedule = EventDrivenRuntime::new(&profiles, &work);
        let mut round = RoundPolicy::new(
            &AggregationPolicy::Async { min_updates: n },
            &schedule,
        );
        let stats = schedule.run(|t, ev| round.on_event(t, ev));
        prop_assert_eq!(&stats, &barrier);
        prop_assert!(round.verdicts().is_empty(), "nobody misses a full quorum");
    }

    /// An async round closes exactly when its quorum completes: the
    /// makespan is the quorum's latest landing time (bitwise), never the
    /// barrier's.
    #[test]
    fn async_round_closes_at_the_quorum_landing(
        seed in any::<u64>(), n in 2usize..32, quorum in 1usize..31
    ) {
        let (profiles, aggregate) = random_fleet(seed, n);
        let work = round(&scatter_inbound(seed, &aggregate));
        let schedule = EventDrivenRuntime::new(&profiles, &work);
        // Quorum boundary from the static signal: `min_updates`-th landing
        // in (time, device) order.
        let mut landings: Vec<(f64, u32)> = schedule
            .update_delivery_secs()
            .iter()
            .enumerate()
            .filter_map(|(d, t)| t.map(|t| (t, d as u32)))
            .collect();
        landings.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        // Only rounds where someone actually misses the quorum close early.
        if quorum < landings.len() {
            let close_at = landings[quorum - 1].0;
            let mut round = RoundPolicy::new(
                &AggregationPolicy::Async { min_updates: quorum },
                &schedule,
            );
            let stats = schedule.run(|t, ev| round.on_event(t, ev));
            prop_assert_eq!(
                stats.makespan_secs.to_bits(), close_at.to_bits(),
                "round closed at {} instead of the quorum landing {}",
                stats.makespan_secs, close_at
            );
            prop_assert_eq!(round.verdicts().len(), landings.len() - quorum);
        }
    }
}
