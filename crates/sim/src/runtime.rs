//! The reusable event-driven runtime the training stack is built on.
//!
//! Any consumer — `lumos-fed`'s `Runtime`, `lumos-core`'s trainer, and
//! [`simulate_epoch`](crate::epoch::simulate_epoch), the barrier run —
//! subscribes a handler to the raw event stream and makes decisions *at
//! event granularity*: an aggregation policy judges each update at its
//! landing event, and an asynchronous round closes the moment a quorum has
//! landed ([`Control::CloseRound`]) instead of waiting for the global
//! barrier.
//!
//! The schedule is static, so it is a value: every device's compute end,
//! burst delivery, per-edge arrivals, and inbox drain are priced up front
//! from its [`DeviceProfile`] and [`RoundWork`]: the barrier run and every
//! early close read the same event times.
//! Every event but an arrival is one `u128` sort key (`key`) that
//! determines it, and the keys are sorted once as plain integers. Arrivals
//! are not keyed: a receiver table by sender is expanded right after each
//! equal-time run of `Delivered` keys, which is exactly where
//! `(t, Arrived, sender, receiver)` sorts. A run is a walk over that
//! stream, and an early close is a prefix of it. The handler does not
//! change *when* things happen — it changes what the round does about
//! them: pool now, buffer, drop, or close.

use crate::epoch::{EpochStats, RoundWork, SERVER_SENDER};
use crate::fault::{us_to_secs, FaultPlan};
use crate::profile::DeviceProfile;
use crate::time::VirtualTime;

/// Simulation events; each is attributed to the device that caused it.
///
/// Handlers subscribed through [`EventDrivenRuntime::run`] see every event
/// of the schedule, in deterministic `(time, kind, device)` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimEvent {
    /// Local compute finished.
    ComputeDone(u32),
    /// The last message of the device's outbound burst arrived.
    Delivered(u32),
    /// One sender's payload landed at one receiver (per incoming edge;
    /// attributed to the sender, whose burst it closes at that receiver).
    Arrived {
        /// The sender whose burst this arrival closes.
        from: u32,
        /// The receiver the payload landed at.
        to: u32,
    },
    /// All inbound payload drained through the downlink.
    InboxDrained(u32),
    /// The device crashed mid-round: its compute never finishes and its
    /// update never ships this round (injected by a [`FaultPlan`]).
    Crashed(u32),
    /// One attempt of the device's update upload was lost in transit;
    /// fires at the attempt's would-be landing time.
    Lost(u32),
    /// The sender's recovery timer expired: timeout + backoff + jitter
    /// elapsed after a loss, and the retry dispatches now.
    RetryDue(u32),
}

impl SimEvent {
    /// The device this event is attributed to ([`SimEvent::Arrived`] is
    /// attributed to its sender, whose burst it closes; fault events to
    /// the crashed device or the sender retrying).
    pub fn device(&self) -> u32 {
        match *self {
            SimEvent::ComputeDone(d)
            | SimEvent::Delivered(d)
            | SimEvent::InboxDrained(d)
            | SimEvent::Crashed(d)
            | SimEvent::Lost(d)
            | SimEvent::RetryDue(d) => d,
            SimEvent::Arrived { from, .. } => from,
        }
    }

    /// Rank used to order simultaneous events of different kinds: compute
    /// completions first, then burst deliveries, per-edge arrivals, inbox
    /// drains, and finally the fault/recovery events.
    fn kind_rank(&self) -> u32 {
        match self {
            SimEvent::ComputeDone(_) => 0,
            SimEvent::Delivered(_) => 1,
            SimEvent::Arrived { .. } => 2,
            SimEvent::InboxDrained(_) => 3,
            SimEvent::Crashed(_) => 4,
            SimEvent::Lost(_) => 5,
            SimEvent::RetryDue(_) => 6,
        }
    }
}

/// The schedule's total order, defined here and nowhere else, as one
/// integer: ascending time (its [`VirtualTime::order_bits`]), then kind
/// rank, then device id. A keyed event is fully determined by its key
/// ([`unkey`]), so equal keys are indistinguishable events (a device's
/// repeated `Lost` / `RetryDue`) and the stream a handler sees — and so
/// every statistic and verdict derived from it — is a function of the
/// event *set*. [`SimEvent::Arrived`] is never keyed: one sender's
/// simultaneous arrivals tie on all three, and run by ascending receiver
/// ([`EventDrivenRuntime::run`] expands them).
fn key(at: VirtualTime, event: SimEvent) -> u128 {
    debug_assert!(
        !matches!(event, SimEvent::Arrived { .. }),
        "arrivals are not keyed"
    );
    u128::from(at.order_bits()) << 64
        | u128::from(event.kind_rank()) << 32
        | u128::from(event.device())
}

/// The event a [`key`] was built from, bit for bit.
fn unkey(key: u128) -> (VirtualTime, SimEvent) {
    let at = VirtualTime::from_order_bits((key >> 64) as u64);
    let device = key as u32;
    let event = match (key >> 32) as u32 {
        0 => SimEvent::ComputeDone(device),
        1 => SimEvent::Delivered(device),
        3 => SimEvent::InboxDrained(device),
        4 => SimEvent::Crashed(device),
        5 => SimEvent::Lost(device),
        6 => SimEvent::RetryDue(device),
        rank => unreachable!("no keyed event has kind rank {rank}"),
    };
    (at, event)
}

/// A subscribed handler's verdict after each event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Keep running: the synchronous barrier (and every policy that keeps
    /// it) never returns anything else.
    Continue,
    /// Close the round at this event's timestamp: remaining events are
    /// discarded and the epoch's makespan is the close time. This is how
    /// `AggregationPolicy::Async` retires the global barrier.
    CloseRound,
}

/// One epoch's fully-priced event schedule, ready to run.
///
/// Construction performs the round's entire static pricing pass — compute
/// ends, burst barriers, per-destination drain starts, per-edge arrival
/// fan-out — and sorts the resulting keys once.
/// [`EventDrivenRuntime::run`] then walks them in that order, expanding
/// each delivered burst into its arrivals, and forwards every event to the
/// subscribed handler.
pub struct EventDrivenRuntime {
    /// Every event of the round but the arrivals, as sorted [`key`]s.
    keys: Vec<u128>,
    /// The receivers sender `s`'s burst arrives at, ascending:
    /// `receivers[receivers_from[s]..receivers_from[s + 1]]`.
    receivers_from: Vec<usize>,
    receivers: Vec<u32>,
    busy: Vec<f64>,
    update_delivery: Vec<Option<f64>>,
    bursts: Vec<bool>,
    available: Vec<bool>,
    active: usize,
}

impl EventDrivenRuntime {
    /// Prices one epoch over the fleet and builds its event schedule.
    ///
    /// Devices with `available == false` contribute nothing (their update
    /// is skipped this round). Each receiver's drain waits for the actual
    /// deliveries of the senders its [`RoundWork::inbound`] names (see
    /// `epoch.rs` for the collapse properties).
    ///
    /// # Panics
    /// Panics if `profiles` and `work` have different lengths.
    pub fn new(profiles: &[DeviceProfile], work: &RoundWork) -> Self {
        Self::new_with_faults(profiles, work, None)
    }

    /// [`EventDrivenRuntime::new`] with a compiled [`FaultPlan`] folded
    /// into the schedule. `None` (or a clean plan) takes the exact same
    /// code path as `new` — same float operations in the same order — so
    /// the fault-free schedule stays bit-identical to the seed's.
    ///
    /// Fault semantics, all priced statically so every consequence is an
    /// event under the existing total order:
    ///
    /// - **Crash**: the device stops at `crash_frac × compute_end`. A
    ///   [`SimEvent::Crashed`] fires there instead of its `ComputeDone`;
    ///   it ships nothing, lands nothing, and receivers treat its payload
    ///   as staged (the absent-sender rule).
    /// - **Lost upload**: each lost attempt fires [`SimEvent::Lost`] at
    ///   its would-be landing; the retry fires [`SimEvent::RetryDue`]
    ///   after the recovery policy's timeout + backoff + jitter, then
    ///   re-serializes the upload (upload + latency again). A recovered
    ///   update lands — `Delivered`, arrivals, and the policies' landing
    ///   signal all move to the final attempt. An exhausted send fires a
    ///   final `Lost` and never lands: its delivery is `None`, and the
    ///   caller degrades it into the staleness buffer.
    ///
    /// # Panics
    /// Panics if `profiles` and `work` have different lengths, or if the
    /// plan was compiled for a different fleet size.
    pub fn new_with_faults(
        profiles: &[DeviceProfile],
        work: &RoundWork,
        plan: Option<&FaultPlan>,
    ) -> Self {
        assert_eq!(
            profiles.len(),
            work.devices().len(),
            "one workload entry per device profile"
        );
        let faults = plan.filter(|p| !p.is_clean());
        if let Some(f) = faults {
            assert_eq!(
                f.num_devices(),
                profiles.len(),
                "fault plan compiled for a different fleet size"
            );
        }
        let n = profiles.len();
        let mut keys: Vec<u128> = Vec::new();
        let mut push = |at: VirtualTime, event: SimEvent| keys.push(key(at, event));
        let mut busy = vec![0.0f64; n];
        let mut update_delivery: Vec<Option<f64>> = vec![None; n];
        // Burst barrier (compute + upload + latency, retries included) of
        // every scheduled device; `delivered` is Some only when the device
        // actually lands a burst.
        let mut barrier: Vec<Option<VirtualTime>> = vec![None; n];
        let mut delivered: Vec<Option<VirtualTime>> = vec![None; n];
        let mut bursts = vec![false; n];
        let mut active = 0usize;

        for (d, (p, w)) in profiles.iter().zip(work.devices()).enumerate() {
            if !p.available {
                continue;
            }
            active += 1;
            if work.is_idle(d) {
                continue;
            }
            p.validate();
            let compute_end = VirtualTime::new(p.compute_secs(w.compute_units));
            if let Some(frac) = faults.and_then(|f| f.crash_frac(d)) {
                // Mid-round crash: the device dies a fraction into its
                // compute span. Nothing downstream of its ComputeDone is
                // scheduled, and its only cost this round is the work it
                // burned before dying.
                let crash = VirtualTime::new(compute_end.secs() * frac);
                push(crash, SimEvent::Crashed(d as u32));
                busy[d] = crash.secs();
                continue;
            }
            push(compute_end, SimEvent::ComputeDone(d as u32));
            let upload = p.upload_secs(w.bytes_out);
            let download = p.download_secs(work.bytes_in(d));
            let burst = w.messages_out > 0 || w.bytes_out > 0;
            bursts[d] = burst;
            // Uplink: messages serialize, so the burst's last message
            // lands one latency after the whole upload ends.
            let mut landing = compute_end.after(upload).after(p.latency_secs);
            update_delivery[d] = Some(if burst {
                landing.secs()
            } else {
                compute_end.secs()
            });
            // Busy time mirrors the event chain exactly (same additions in
            // the same order, so a self-timed straggler's idle time is a
            // bitwise 0.0): any traffic serializes upload → latency → drain
            // after the compute. Waiting on other senders' deliveries is
            // idle.
            let has_traffic = burst || work.bytes_in(d) > 0;
            busy[d] = if has_traffic {
                ((compute_end.secs() + upload) + p.latency_secs) + download
            } else {
                compute_end.secs()
            };
            let mut lands = burst;
            if let Some(send) = faults.and_then(|f| f.upload(d)).filter(|_| burst) {
                // Lost upload: walk the retry chain. Attempt i's would-be
                // landing is `landing`; each retry waits the recovery
                // delay, then re-serializes the burst (upload + latency
                // again).
                for &delay_us in &send.retry_delays_us {
                    push(landing, SimEvent::Lost(d as u32));
                    let due = landing.after(us_to_secs(delay_us));
                    push(due, SimEvent::RetryDue(d as u32));
                    landing = due.after(upload).after(p.latency_secs);
                }
                // Each retry re-pays the upload's serialization (the
                // timeout and backoff in between are idle waiting, not
                // busy time).
                busy[d] += send.retries() as f64 * upload;
                // An exhausted send loses its final attempt too: the
                // update never lands this round. The device's own drain
                // still runs (it is alive), but policies see no delivery —
                // the caller degrades the update into the staleness
                // buffer.
                lands = !send.exhausted;
                update_delivery[d] = lands.then_some(landing.secs());
                if send.exhausted {
                    push(landing, SimEvent::Lost(d as u32));
                }
            }
            barrier[d] = Some(landing);
            if lands {
                // Only the closing delivery of a burst is scheduled —
                // earlier intra-burst deliveries are strictly before it
                // and observable by nothing.
                push(landing, SimEvent::Delivered(d as u32));
                delivered[d] = Some(landing);
            }
        }

        // Per-destination pass: each scheduled receiver's drain starts at
        // the max of its own barrier and its live cross-senders' delivery
        // times, and each such sender's burst arrives at it at that
        // sender's delivery. A sender repeated in a receiver's ledger list
        // contributes one arrival, not one per occurrence: `arrived_at[s]`
        // is the last receiver `s` was scheduled into, and receivers
        // ascend, so each `(s, d)` edge is logged once, in receiver order.
        let mut arrived_at = vec![SERVER_SENDER; n];
        let mut edges: Vec<(u32, u32)> = Vec::new();
        let mut receivers_from = vec![0usize; n + 1];
        for d in 0..n {
            let Some(own_barrier) = barrier[d] else {
                continue;
            };
            let bytes_in = work.bytes_in(d);
            if bytes_in == 0 {
                continue;
            }
            let mut start = own_barrier;
            for &(s, bytes) in work.inbound(d) {
                if bytes == 0 || s == d as u32 || s == SERVER_SENDER {
                    continue;
                }
                let Some(t) = delivered.get(s as usize).copied().flatten() else {
                    // Absent/idle/burst-less sender: its payload is
                    // treated as staged (the overlay never blocks the
                    // round on a device the round skipped).
                    continue;
                };
                if t > start {
                    start = t;
                }
                if arrived_at[s as usize] != d as u32 {
                    arrived_at[s as usize] = d as u32;
                    edges.push((s, d as u32));
                    receivers_from[s as usize + 1] += 1;
                }
            }
            // Downlink: start >= the device's own barrier, so the drain
            // never ends before its ComputeDone.
            let end = start.after(profiles[d].download_secs(bytes_in));
            push(end, SimEvent::InboxDrained(d as u32));
        }
        keys.sort_unstable();
        // The receiver table: a counting sort of the edges by sender, which
        // keeps each sender's receivers in the ascending order logged.
        for s in 0..n {
            receivers_from[s + 1] += receivers_from[s];
        }
        let mut fill = receivers_from.clone();
        let mut receivers = vec![0u32; edges.len()];
        for (s, d) in edges {
            let slot = &mut fill[s as usize];
            receivers[*slot] = d;
            *slot += 1;
        }

        Self {
            keys,
            receivers_from,
            receivers,
            busy,
            update_delivery,
            bursts,
            available: profiles.iter().map(|p| p.available).collect(),
            active,
        }
    }

    /// When each device's own update will land: its burst delivery time, or
    /// its compute end when it ships nothing; `None` for absent or idle
    /// devices. The schedule is static, so this is known before the first
    /// event is handled — it is the signal arrival-time policies precompute
    /// their deadlines and quorums from.
    pub fn update_delivery_secs(&self) -> &[Option<f64>] {
        &self.update_delivery
    }

    /// Whether each device ships an outbound burst this epoch: a bursting
    /// device's update lands at its `Delivered` event, a burst-less one's
    /// at its `ComputeDone`.
    pub fn ships_burst(&self) -> &[bool] {
        &self.bursts
    }

    /// Runs the schedule to completion — or to the handler's
    /// [`Control::CloseRound`] — and returns the epoch's statistics.
    ///
    /// The handler sees every event in deterministic `(time, kind, device)`
    /// order, one sender's simultaneous arrivals by ascending receiver:
    /// the sorted keys, with each equal-time run of `Delivered` keys
    /// followed by its senders' arrivals. An uninterrupted run (a handler
    /// that always returns [`Control::Continue`]) is the synchronous
    /// barrier, [`simulate_epoch`](crate::epoch::simulate_epoch). On an
    /// early close the makespan is the closing event's timestamp, remaining
    /// events are discarded, and per-device busy time is clamped to the
    /// makespan, so no active device is busy for longer than the round.
    pub fn run(self, mut handler: impl FnMut(VirtualTime, &SimEvent) -> Control) -> EpochStats {
        let mut events = 0u64;
        let mut last: Option<(VirtualTime, u32)> = None;
        let mut emit = |t: VirtualTime, event: SimEvent| {
            events += 1;
            last = Some((t, event.device()));
            handler(t, &event) == Control::CloseRound
        };
        let keys = &self.keys;
        let closed = 'walk: {
            let mut i = 0;
            while i < keys.len() {
                let (t, event) = unkey(keys[i]);
                if !matches!(event, SimEvent::Delivered(_)) {
                    if emit(t, event) {
                        break 'walk true;
                    }
                    i += 1;
                    continue;
                }
                // An equal-time run of `Delivered` keys shares its time and
                // kind bits; every arrival at `t` sorts after the run and
                // before anything else at `t`, by sender then receiver.
                let len = keys[i..]
                    .iter()
                    .take_while(|&&k| k >> 32 == keys[i] >> 32)
                    .count();
                let run = &keys[i..i + len];
                for &k in run {
                    if emit(t, SimEvent::Delivered(k as u32)) {
                        break 'walk true;
                    }
                }
                for &k in run {
                    let from = k as u32;
                    let span =
                        self.receivers_from[from as usize]..self.receivers_from[from as usize + 1];
                    for &to in &self.receivers[span] {
                        if emit(t, SimEvent::Arrived { from, to }) {
                            break 'walk true;
                        }
                    }
                }
                i += run.len();
            }
            false
        };
        let makespan_secs = last.map_or(0.0, |(t, _)| t.secs());
        let mut busy = self.busy;
        if closed {
            // The round closed mid-schedule: devices still mid-chain spend
            // the remainder of their critical path in the *next* round's
            // accounting, so their busy time here is capped at the close.
            for (b, &avail) in busy.iter_mut().zip(&self.available) {
                if avail && *b > makespan_secs {
                    *b = makespan_secs;
                }
            }
        }
        for (&b, &avail) in busy.iter().zip(&self.available) {
            // Busy is each device's serialized critical path, computed with
            // the exact float additions of the event chain, and the closing
            // drain fires at or after that path's end — so busy can never
            // exceed the makespan (a clamp here once masked the missing
            // latency term).
            debug_assert!(
                !avail || makespan_secs - b >= 0.0,
                "busy {b} exceeds makespan {makespan_secs}"
            );
        }
        EpochStats {
            makespan_secs,
            busy_secs: busy,
            update_delivery_secs: self.update_delivery,
            straggler: last.map(|(_, device)| device),
            active_devices: self.active,
            events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epoch::DeviceWork;

    type Listed = (DeviceWork, Vec<(u32, u64)>);

    fn burst_work(units: f64) -> Listed {
        let own = DeviceWork {
            compute_units: units,
            messages_out: 1,
            bytes_out: 100,
        };
        (own, Vec::new())
    }

    /// The round of per-device `(work, inbound list)` pairs.
    fn round(work: Vec<Listed>) -> RoundWork {
        RoundWork::from_lists(work)
    }

    #[test]
    fn handler_sees_every_event_in_order() {
        let profiles = vec![DeviceProfile::baseline(); 2];
        let work = round(vec![burst_work(100.0), burst_work(200.0)]);
        let mut seen: Vec<(f64, SimEvent)> = Vec::new();
        let stats = EventDrivenRuntime::new(&profiles, &work).run(|t, ev| {
            seen.push((t.secs(), *ev));
            Control::Continue
        });
        assert_eq!(seen.len() as u64, stats.events);
        assert!(seen.windows(2).all(|w| w[0].0 <= w[1].0), "time went back");
        assert_eq!(seen[0].1, SimEvent::ComputeDone(0));
        assert_eq!(seen.last().unwrap().1, SimEvent::Delivered(1));
    }

    /// The full event stream of an uninterrupted, fault-free run.
    fn stream(profiles: &[DeviceProfile], work: Vec<Listed>) -> Vec<(f64, SimEvent)> {
        let mut seen = Vec::new();
        EventDrivenRuntime::new(profiles, &round(work)).run(|t, ev| {
            seen.push((t.secs(), *ev));
            Control::Continue
        });
        seen
    }

    #[test]
    fn colliding_timestamps_run_by_kind_then_device_not_construction_order() {
        // Zero latency and a zero-byte burst put every device's compute
        // end, delivery and arrivals on one timestamp. The schedule is
        // constructed device by device (ComputeDone(0), Delivered(0),
        // ComputeDone(1), …) and arrivals in ledger-list order; the run
        // must come out (kind, device) ascending whatever that order was.
        let mut profiles = vec![DeviceProfile::baseline(); 3];
        for p in &mut profiles {
            p.latency_secs = 0.0;
        }
        let fleet = |senders: Vec<(u32, u64)>| -> Vec<Listed> {
            let sender = DeviceWork {
                compute_units: 100.0,
                messages_out: 1,
                ..DeviceWork::default()
            };
            vec![
                (sender, senders),
                (sender, Vec::new()),
                (sender, Vec::new()),
            ]
        };
        let forward = stream(&profiles, fleet(vec![(1, 64), (2, 64)]));
        let reversed = stream(&profiles, fleet(vec![(2, 64), (1, 64)]));
        let want = vec![
            (1.0, SimEvent::ComputeDone(0)),
            (1.0, SimEvent::ComputeDone(1)),
            (1.0, SimEvent::ComputeDone(2)),
            (1.0, SimEvent::Delivered(0)),
            (1.0, SimEvent::Delivered(1)),
            (1.0, SimEvent::Delivered(2)),
            (1.0, SimEvent::Arrived { from: 1, to: 0 }),
            (1.0, SimEvent::Arrived { from: 2, to: 0 }),
            (1.0 + 128.0 / 16384.0, SimEvent::InboxDrained(0)),
        ];
        assert_eq!(forward, want);
        assert_eq!(reversed, want, "the run depended on construction order");
    }

    #[test]
    fn equal_keys_run_in_construction_order() {
        // One sender's burst lands at all of its receivers at once: the
        // arrivals tie on (time, kind, device), so only the receiver table
        // — ascending receiver, one arrival per edge however often the
        // ledger lists the sender — is left to order them.
        let profiles = vec![DeviceProfile::baseline(); 4];
        let from_3 = |entries: Vec<(u32, u64)>| (burst_work(100.0).0, entries);
        let work = vec![
            from_3(vec![(3, 64)]),
            from_3(vec![(3, 32), (0, 8), (3, 32)]),
            from_3(vec![(3, 64)]),
            burst_work(100.0),
        ];
        let arrivals: Vec<(f64, SimEvent)> = stream(&profiles, work)
            .into_iter()
            .filter(|(_, ev)| matches!(ev, SimEvent::Arrived { from: 3, .. }))
            .collect();
        let landed = arrivals[0].0;
        let want: Vec<(f64, SimEvent)> = (0..3)
            .map(|to| (landed, SimEvent::Arrived { from: 3, to }))
            .collect();
        assert_eq!(arrivals, want);
    }

    #[test]
    fn close_round_discards_the_tail_and_caps_busy() {
        // Device 1 is a 100× straggler; closing at device 0's delivery must
        // shrink the makespan to that instant and keep busy <= makespan.
        let mut profiles = vec![DeviceProfile::baseline(); 2];
        profiles[1].compute_rate /= 100.0;
        let work = round(vec![burst_work(100.0), burst_work(100.0)]);
        let full = EventDrivenRuntime::new(&profiles, &work).run(|_, _| Control::Continue);
        let closed = EventDrivenRuntime::new(&profiles, &work).run(|_, ev| {
            if *ev == SimEvent::Delivered(0) {
                Control::CloseRound
            } else {
                Control::Continue
            }
        });
        assert!(closed.makespan_secs < full.makespan_secs);
        assert_eq!(closed.straggler, Some(0));
        assert!(closed.events < full.events);
        for d in 0..2 {
            assert!(closed.busy_secs[d] <= closed.makespan_secs);
            assert!(closed.makespan_secs - closed.busy_secs[d] >= 0.0);
        }
        let u = closed.mean_utilization();
        assert!((0.0..=1.0).contains(&u), "utilization {u}");
    }

    #[test]
    fn arrived_events_name_their_receiver() {
        let profiles = vec![DeviceProfile::baseline(); 2];
        let receiver = DeviceWork {
            compute_units: 100.0,
            messages_out: 1,
            bytes_out: 64,
        };
        let work = round(vec![(receiver, vec![(1, 64)]), burst_work(100.0)]);
        let mut arrivals = Vec::new();
        EventDrivenRuntime::new(&profiles, &work).run(|_, ev| {
            if let SimEvent::Arrived { from, to } = *ev {
                arrivals.push((from, to));
            }
            Control::Continue
        });
        assert_eq!(arrivals, vec![(1, 0)]);
    }

    #[test]
    fn a_none_plan_is_the_unfaulted_schedule_bitwise() {
        use crate::fault::{FaultSpec, FaultState, RecoveryPolicy};
        let mut profiles = vec![DeviceProfile::baseline(); 4];
        profiles[2].compute_rate /= 3.0;
        let work = RoundWork::from_lists((0..4u32).map(|i| {
            let own = DeviceWork {
                compute_units: 60.0 * (i + 1) as f64,
                messages_out: 1,
                bytes_out: 64,
            };
            (own, vec![((i + 1) % 4, 32)])
        }));
        let mut st = FaultState::new(FaultSpec::None, RecoveryPolicy::default(), 3);
        let plan = st.compile_round(&profiles);
        let clean = EventDrivenRuntime::new(&profiles, &work).run(|_, _| Control::Continue);
        let planned = EventDrivenRuntime::new_with_faults(&profiles, &work, Some(&plan))
            .run(|_, _| Control::Continue);
        assert_eq!(clean, planned);
    }

    #[test]
    fn a_crash_replaces_the_device_chain_with_one_event() {
        use crate::fault::{FaultSpec, FaultState, RecoveryPolicy};
        let profiles = vec![DeviceProfile::baseline(); 2];
        let work = round(vec![burst_work(100.0), burst_work(100.0)]);
        let mut st = FaultState::new(
            FaultSpec::Faults {
                crash_rate: 1.0,
                loss_rate: 0.0,
                outages: Vec::new(),
            },
            RecoveryPolicy::default(),
            7,
        );
        let plan = st.compile_round(&profiles);
        let rt = EventDrivenRuntime::new_with_faults(&profiles, &work, Some(&plan));
        assert_eq!(rt.update_delivery_secs(), &[None, None]);
        let mut seen = Vec::new();
        let stats = rt.run(|t, ev| {
            seen.push((t.secs(), *ev));
            Control::Continue
        });
        assert_eq!(seen.len(), 2, "one Crashed per device, nothing else");
        for &(t, ev) in &seen {
            let SimEvent::Crashed(dev) = ev else {
                panic!("unexpected event {ev:?}");
            };
            let d = dev as usize;
            let frac = plan.crash_frac(d).unwrap();
            let compute = profiles[d].compute_secs(100.0);
            assert_eq!(t.to_bits(), (compute * frac).to_bits());
            assert_eq!(stats.busy_secs[d].to_bits(), t.to_bits());
        }
        assert_eq!(stats.active_devices, 2, "a crashed device still counts");
    }

    #[test]
    fn a_recovered_upload_lands_at_the_final_retry() {
        use crate::fault::{FaultSpec, FaultState, RecoveryPolicy, SendFaults};
        let profiles = vec![DeviceProfile::baseline(); 1];
        let work = round(vec![burst_work(100.0)]);
        // Find a seed whose single-device round has >= 1 retry that still
        // recovers (at loss 0.5 with a budget of 3, 7 in 16 seeds do).
        let (plan, send) = (0u64..64)
            .find_map(|seed| {
                let mut st = FaultState::new(
                    FaultSpec::message_loss(0.5),
                    RecoveryPolicy::default(),
                    seed,
                );
                let plan = st.compile_round(&profiles);
                let send: Option<SendFaults> = plan.upload(0).cloned();
                send.filter(|s| !s.exhausted && s.retries() >= 1)
                    .map(|s| (plan, s))
            })
            .expect("some seed recovers after at least one retry");
        let clean = EventDrivenRuntime::new(&profiles, &work);
        let first_landing = clean.update_delivery_secs()[0].unwrap();
        let rt = EventDrivenRuntime::new_with_faults(&profiles, &work, Some(&plan));
        let landed = rt.update_delivery_secs()[0].unwrap();
        // Each retry adds its recovery delay plus a full re-serialization.
        let p = &profiles[0];
        let mut expect = first_landing;
        for &delay_us in &send.retry_delays_us {
            expect =
                (expect + crate::fault::us_to_secs(delay_us) + p.upload_secs(100)) + p.latency_secs;
        }
        assert_eq!(landed.to_bits(), expect.to_bits());
        let mut lost = 0u32;
        let mut retries = 0u32;
        let stats = rt.run(|_, ev| {
            match ev {
                SimEvent::Lost(0) => lost += 1,
                SimEvent::RetryDue(0) => retries += 1,
                _ => {}
            }
            Control::Continue
        });
        assert_eq!(u64::from(lost), send.lost_attempts());
        assert_eq!(u64::from(retries), send.retries());
        assert_eq!(stats.update_delivery_secs[0], Some(landed));
        assert!(stats.makespan_secs >= landed);
        assert!(stats.makespan_secs - stats.busy_secs[0] >= 0.0);
    }

    #[test]
    fn an_exhausted_upload_never_lands_but_still_terminates() {
        use crate::fault::{FaultSpec, FaultState, RecoveryPolicy, RETRY_BUDGET};
        let profiles = vec![DeviceProfile::baseline(); 2];
        let work = round(vec![burst_work(100.0), burst_work(100.0)]);
        let mut st = FaultState::new(FaultSpec::message_loss(1.0), RecoveryPolicy::default(), 11);
        let plan = st.compile_round(&profiles);
        let rt = EventDrivenRuntime::new_with_faults(&profiles, &work, Some(&plan));
        assert_eq!(
            rt.update_delivery_secs(),
            &[None, None],
            "exhausted sends never land"
        );
        let mut lost = 0u64;
        let stats = rt.run(|_, ev| {
            if matches!(ev, SimEvent::Lost(_)) {
                lost += 1;
            }
            Control::Continue
        });
        // Per device, the budget's retries plus the final lost attempt.
        assert_eq!(lost, 2 * (u64::from(RETRY_BUDGET) + 1));
        assert!(stats.makespan_secs.is_finite());
        for d in 0..2 {
            assert!(stats.makespan_secs - stats.busy_secs[d] >= 0.0);
        }
    }

    #[test]
    fn fault_events_respect_the_total_order() {
        use crate::fault::{FaultSpec, FaultState, RecoveryPolicy};
        let profiles = vec![DeviceProfile::baseline(); 6];
        let work = round((0..6).map(|_| burst_work(100.0)).collect());
        let mut st = FaultState::new(
            FaultSpec::Faults {
                crash_rate: 0.3,
                loss_rate: 0.4,
                outages: Vec::new(),
            },
            RecoveryPolicy::default(),
            13,
        );
        let plan = st.compile_round(&profiles);
        let mut last = VirtualTime::default();
        let mut fault_events = 0u64;
        EventDrivenRuntime::new_with_faults(&profiles, &work, Some(&plan)).run(|t, ev| {
            assert!(t >= last, "time went backwards at {ev:?}");
            if matches!(
                ev,
                SimEvent::Crashed(_) | SimEvent::Lost(_) | SimEvent::RetryDue(_)
            ) {
                fault_events += 1;
            }
            last = t;
            Control::Continue
        });
        assert!(fault_events > 0, "seeded faults must surface as events");
    }

    #[test]
    fn schedule_exposes_the_static_timing_signal() {
        let mut profiles = vec![DeviceProfile::baseline(); 3];
        profiles[2].available = false;
        let quiet = DeviceWork {
            compute_units: 100.0,
            ..DeviceWork::default()
        };
        let work = round(vec![
            burst_work(100.0),
            (quiet, Vec::new()),
            burst_work(100.0),
        ]);
        let rt = EventDrivenRuntime::new(&profiles, &work);
        assert_eq!(rt.active, 2);
        assert_eq!(rt.ships_burst(), &[true, false, false]);
        let planned = rt.update_delivery_secs().to_vec();
        assert!(planned[0].is_some() && planned[1].is_some());
        assert_eq!(planned[2], None, "absent device has no landing");
        // The static signal is exactly what the finished run reports.
        let stats = rt.run(|_, _| Control::Continue);
        assert_eq!(planned, stats.update_delivery_secs);
    }

    /// A keyed event: when, and what.
    type Timed = (VirtualTime, SimEvent);

    /// The comparator the schedule was once sorted with, kept as the
    /// oracle [`key`] must agree with: `f64::total_cmp` on the time, then
    /// kind rank, then device.
    fn schedule_order(&(ta, ea): &Timed, &(tb, eb): &Timed) -> std::cmp::Ordering {
        ta.secs()
            .total_cmp(&tb.secs())
            .then_with(|| ea.kind_rank().cmp(&eb.kind_rank()))
            .then_with(|| ea.device().cmp(&eb.device()))
    }

    /// A random schedule of keyed events in construction order: every kind
    /// but the (never keyed) arrivals, a few devices and a few timestamps,
    /// so keys collide on every component and whole keys repeat.
    fn random_schedule(seed: u64) -> Vec<Timed> {
        let mut rng = lumos_common::rng::Xoshiro256pp::seed_from_u64(seed);
        let times = [0.0, -0.0, 5e-324, 1.0, 1.0 + f64::EPSILON, 2.5, f64::MAX];
        (0..rng.next_below(96))
            .map(|_| {
                let at = times[rng.next_below(times.len() as u64) as usize];
                let d = rng.next_below(6) as u32;
                let event = match rng.next_below(6) {
                    0 => SimEvent::ComputeDone(d),
                    1 => SimEvent::Delivered(d),
                    2 => SimEvent::InboxDrained(d),
                    3 => SimEvent::Crashed(d),
                    4 => SimEvent::Lost(d),
                    _ => SimEvent::RetryDue(d),
                };
                (VirtualTime::new(at), event)
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        /// The key is the order and the event: every pair compares as the
        /// oracle does, every key decodes to its event with the time's very
        /// bits, and the sorted keys are the oracle's sorted sequence.
        #[test]
        fn schedule_key_orders_as_the_comparator(seed in proptest::any::<u64>()) {
            let schedule = random_schedule(seed);
            let bits = |(t, ev): Timed| (t.secs().to_bits(), ev);
            for &(t, ev) in &schedule {
                proptest::prop_assert_eq!(bits(unkey(key(t, ev))), bits((t, ev)));
                for &b in &schedule {
                    proptest::prop_assert_eq!(
                        key(t, ev).cmp(&key(b.0, b.1)),
                        schedule_order(&(t, ev), &b),
                        "{:?} vs {:?}",
                        (t, ev),
                        b
                    );
                }
            }
            let mut keys: Vec<u128> = schedule.iter().map(|&(t, ev)| key(t, ev)).collect();
            keys.sort_unstable();
            let mut by_oracle = schedule;
            by_oracle.sort_by(schedule_order);
            let by_key: Vec<_> = keys.into_iter().map(|k| bits(unkey(k))).collect();
            let by_oracle: Vec<_> = by_oracle.into_iter().map(bits).collect();
            proptest::prop_assert_eq!(by_key, by_oracle);
        }
    }
}
