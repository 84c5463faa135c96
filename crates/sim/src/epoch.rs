//! Discrete-event simulation of one synchronous training epoch.
//!
//! Each available device computes its local update, serializes its outbound
//! messages through its uplink (the burst's last message lands one
//! propagation latency after the upload completes), and then drains its
//! inbound payload through its downlink. The drain can start no earlier
//! than the device's own burst barrier — inbound payloads are produced by
//! the rest of the synchronous round and the device's link is serialized —
//! and no earlier than the **latest of its senders' actual delivery
//! times** ([`DeviceWork::inbound`] names them).
//! (Earlier revisions first scheduled the drain from the receiver's own
//! `ComputeDone`, then from its own delivery time; both let a fast receiver
//! "drain" bytes its slow senders had not shipped yet, making makespans
//! optimistic exactly when a fast receiver's senders straggle.) The epoch
//! is synchronous (§IV-B): it ends when the last event fires, and the
//! device that fires it is the epoch's straggler.
//!
//! The simulator runs entirely on [`VirtualTime`](crate::VirtualTime) — no
//! `Instant`, no real clock — so identical inputs give bit-identical
//! statistics.

use crate::profile::DeviceProfile;
use crate::runtime::{Control, EventDrivenRuntime};

/// Sender id marking payloads from the aggregation server rather than a
/// peer device. The server is not simulated, so its payloads are treated as
/// staged by the receiver's own burst barrier (the self-timed
/// approximation, scoped to the one endpoint that has no profile).
pub const SERVER_SENDER: u32 = u32::MAX;

/// The work one device performs in one epoch, in the trainer's units
/// (compute: tree-nodes × layers; traffic: ledger-counted payload bytes).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeviceWork {
    /// Local compute, in work units.
    pub compute_units: f64,
    /// Outbound messages (device → device and device → server).
    pub messages_out: u64,
    /// Outbound payload bytes.
    pub bytes_out: u64,
    /// Inbound payload as per-sender contributions `(sender, bytes)`. The
    /// drain starts at the latest of the receiver's own burst barrier and
    /// every named sender's burst delivery time. [`SERVER_SENDER`], the
    /// receiver itself, absent devices, and devices with no outbound burst
    /// contribute no constraint beyond the receiver's own barrier — so a
    /// `SERVER_SENDER`-only list is the self-timed drain.
    pub inbound: Vec<(u32, u64)>,
}

impl DeviceWork {
    /// Total inbound payload bytes.
    pub fn bytes_in(&self) -> u64 {
        self.inbound.iter().map(|&(_, b)| b).sum()
    }

    /// Whether this device has anything to do this epoch.
    pub fn is_idle(&self) -> bool {
        self.compute_units == 0.0
            && self.messages_out == 0
            && self.bytes_out == 0
            && self.bytes_in() == 0
    }
}

/// What happened during one simulated epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochStats {
    /// Virtual seconds from epoch start to the last event — the epoch
    /// makespan under the synchronous barrier.
    pub makespan_secs: f64,
    /// Per-device busy time: the device's serialized critical path,
    /// compute + upload + propagation latency + downlink drain (latency
    /// included because the closing `Delivered`/`InboxDrained` events
    /// cannot fire before it). Time spent *waiting* for slow senders'
    /// payloads is idle, not busy.
    pub busy_secs: Vec<f64>,
    /// Per-device idle time (`makespan - busy`, zero for absent devices).
    pub idle_secs: Vec<f64>,
    /// When each device's own update landed: its burst delivery time, or
    /// its compute end when it shipped nothing. `None` for devices that
    /// were absent or idle this epoch. This is the per-sender signal the
    /// deadline aggregation policy reads.
    pub update_delivery_secs: Vec<Option<f64>>,
    /// The device whose event closed the epoch (None if nothing ran).
    pub straggler: Option<u32>,
    /// Devices that participated (available, regardless of workload).
    pub active_devices: usize,
    /// Events of the schedule the run walked (all of them, or the prefix
    /// up to an early close).
    pub events: u64,
}

impl EpochStats {
    /// Mean fraction of the makespan active devices spent busy
    /// (1.0 = perfectly balanced, → 0 under a dominant straggler).
    pub fn mean_utilization(&self) -> f64 {
        self.mean_utilization_over(self.makespan_secs)
    }

    /// [`EpochStats::mean_utilization`] against a round of `makespan_secs`:
    /// a round that outlasts its device tier (the aggregator hop of a
    /// hierarchical topology) spreads the same busy time over the longer
    /// span.
    pub fn mean_utilization_over(&self, makespan_secs: f64) -> f64 {
        if makespan_secs <= 0.0 || self.active_devices == 0 {
            return 0.0;
        }
        let busy: f64 = self.busy_secs.iter().sum();
        busy / (self.active_devices as f64 * makespan_secs)
    }
}

/// Runs one epoch over the fleet and returns its statistics.
///
/// Devices with `available == false` contribute nothing (their update is
/// skipped this round). Each receiver's drain waits for its senders' actual
/// deliveries, so the per-destination makespan dominates the self-timed one
/// (the same bytes, all from [`SERVER_SENDER`]) on the same work and
/// collapses to it bit-for-bit when every sender lands at or before the
/// receiver's own barrier (property-tested in `tests/sim_properties.rs`).
///
/// This is the synchronous barrier expressed on the event-driven core: an
/// [`EventDrivenRuntime`] run whose handler never closes the round — the
/// degenerate schedule every other aggregation policy is an early-exit of.
///
/// # Panics
/// Panics if `profiles` and `work` have different lengths.
pub fn simulate_epoch(profiles: &[DeviceProfile], work: &[DeviceWork]) -> EpochStats {
    EventDrivenRuntime::new(profiles, work).run(|_, _| Control::Continue)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat_fleet(n: usize) -> Vec<DeviceProfile> {
        vec![DeviceProfile::baseline(); n]
    }

    /// Work whose `inb` inbound bytes all come from the server: the
    /// self-timed drain.
    fn work(units: f64, msgs: u64, out: u64, inb: u64) -> DeviceWork {
        DeviceWork {
            compute_units: units,
            messages_out: msgs,
            bytes_out: out,
            inbound: vec![(SERVER_SENDER, inb)],
        }
    }

    #[test]
    fn empty_fleet_is_a_zero_epoch() {
        let stats = simulate_epoch(&[], &[]);
        assert_eq!(stats.makespan_secs, 0.0);
        assert_eq!(stats.straggler, None);
        assert_eq!(stats.events, 0);
        assert_eq!(stats.mean_utilization(), 0.0);
    }

    #[test]
    fn straggler_is_the_heaviest_device() {
        let profiles = flat_fleet(3);
        let w = vec![
            work(100.0, 2, 128, 0),
            work(5000.0, 2, 128, 0), // 50× the compute of its peers
            work(100.0, 2, 128, 0),
        ];
        let stats = simulate_epoch(&profiles, &w);
        assert_eq!(stats.straggler, Some(1));
        assert!(stats.makespan_secs >= 50.0); // 5000 units / 100 units-per-sec
        assert!(stats.busy_secs[1] > stats.busy_secs[0]);
        assert!(stats.idle_secs[0] > stats.idle_secs[1]);
        assert_eq!(stats.active_devices, 3);
    }

    #[test]
    fn slow_device_straggles_on_equal_work() {
        let mut profiles = flat_fleet(3);
        profiles[2].compute_rate /= 40.0;
        let w = vec![work(200.0, 1, 64, 64); 3];
        let stats = simulate_epoch(&profiles, &w);
        assert_eq!(stats.straggler, Some(2));
        assert!(stats.mean_utilization() < 0.5, "straggler dominates");
    }

    #[test]
    fn unavailable_devices_are_skipped() {
        let mut profiles = flat_fleet(2);
        profiles[0].available = false;
        let w = vec![work(1e9, 0, 0, 0), work(100.0, 0, 0, 0)];
        let stats = simulate_epoch(&profiles, &w);
        assert_eq!(stats.straggler, Some(1));
        assert_eq!(stats.active_devices, 1);
        assert_eq!(stats.busy_secs[0], 0.0);
        assert_eq!(stats.idle_secs[0], 0.0);
        assert_eq!(stats.update_delivery_secs[0], None);
        assert!((stats.makespan_secs - 1.0).abs() < 1e-12);
    }

    #[test]
    fn inbox_drains_only_after_delivery() {
        // Regression: the drain used to be scheduled from the receiver's
        // own ComputeDone, so this epoch closed at 3.5s — with the device
        // "draining" 100 inbound bytes that no sender could have shipped
        // yet. Corrected schedule: compute 1s → upload 2s → latency 0.5s →
        // download 1s, strictly serialized.
        let p = DeviceProfile {
            compute_rate: 10.0,
            uplink_bytes_per_sec: 100.0,
            downlink_bytes_per_sec: 100.0,
            latency_secs: 0.5,
            available: true,
        };
        let stats = simulate_epoch(&[p], &[work(10.0, 4, 200, 100)]);
        assert!((stats.makespan_secs - 4.5).abs() < 1e-12);
        // Events: compute done + burst delivered + inbox drained, and the
        // drain is the closing event.
        assert_eq!(stats.events, 3);
        assert_eq!(stats.straggler, Some(0));
        // The update landed when the burst did: compute + upload + latency.
        assert_eq!(stats.update_delivery_secs[0], Some(3.5));
    }

    #[test]
    fn drain_without_outbound_still_waits_for_propagation() {
        // A receive-only device cannot start draining at its own compute
        // barrier: the inbound payload crosses the network once.
        let p = DeviceProfile {
            compute_rate: 10.0,
            uplink_bytes_per_sec: 100.0,
            downlink_bytes_per_sec: 50.0,
            latency_secs: 0.25,
            available: true,
        };
        // compute 1s, no outbound, latency 0.25s, download 2s.
        let stats = simulate_epoch(&[p], &[work(10.0, 0, 0, 100)]);
        assert!((stats.makespan_secs - 3.25).abs() < 1e-12);
        assert_eq!(stats.events, 2, "compute done + inbox drained");
        // No burst: the device's "update" is just its local compute.
        assert_eq!(stats.update_delivery_secs[0], Some(1.0));
    }

    #[test]
    fn busy_time_includes_propagation_latency() {
        // Regression: busy used to be compute + max(upload, download),
        // omitting the latency the closing Delivered event includes — so a
        // lone device reported phantom idle time. Busy must equal the
        // device's own critical path exactly, making idle a bitwise zero.
        let p = DeviceProfile {
            compute_rate: 10.0,
            uplink_bytes_per_sec: 100.0,
            downlink_bytes_per_sec: 100.0,
            latency_secs: 0.5,
            available: true,
        };
        let stats = simulate_epoch(&[p], &[work(10.0, 4, 200, 100)]);
        assert_eq!(stats.busy_secs[0].to_bits(), stats.makespan_secs.to_bits());
        assert_eq!(stats.idle_secs[0], 0.0);
        assert_eq!(stats.mean_utilization(), 1.0);
        // Compute-only devices carry no phantom latency term.
        let quiet = simulate_epoch(&[p], &[work(10.0, 0, 0, 0)]);
        assert!((quiet.busy_secs[0] - 1.0).abs() < 1e-12);
        assert_eq!(quiet.events, 1);
    }

    #[test]
    fn receiver_waits_for_its_slowest_sender() {
        // The tentpole fix: device 0 is fast but its 100 inbound bytes come
        // from slow device 1, so its drain starts at device 1's delivery —
        // not at device 0's own barrier (the self-timed approximation).
        let mut profiles = flat_fleet(2);
        profiles[0] = DeviceProfile {
            compute_rate: 10.0,
            uplink_bytes_per_sec: 100.0,
            downlink_bytes_per_sec: 100.0,
            latency_secs: 0.5,
            available: true,
        };
        profiles[1] = DeviceProfile {
            compute_rate: 1.0, // 10s compute
            uplink_bytes_per_sec: 50.0,
            downlink_bytes_per_sec: 100.0,
            latency_secs: 0.5,
            available: true,
        };
        let w = vec![
            DeviceWork {
                compute_units: 10.0, // 1s
                messages_out: 1,
                bytes_out: 200, // 2s upload
                inbound: vec![(1, 100)],
            },
            DeviceWork {
                compute_units: 10.0, // 10s
                messages_out: 1,
                bytes_out: 100, // 2s upload
                inbound: Vec::new(),
            },
        ];
        let stats = simulate_epoch(&profiles, &w);
        // Device 1 delivers at 10 + 2 + 0.5 = 12.5s; device 0 then drains
        // 100 bytes in 1s → epoch closes at 13.5s, straggler = device 0.
        assert!((stats.makespan_secs - 13.5).abs() < 1e-12);
        assert_eq!(stats.straggler, Some(0));
        // Device 0's busy time excludes the 9s wait: 1 + 2 + 0.5 + 1.
        assert!((stats.busy_secs[0] - 4.5).abs() < 1e-12);
        assert!(stats.idle_secs[0] > 8.9);
        // Events: 2× ComputeDone + 2× Delivered + 1× Arrived(1→0) +
        // 1× InboxDrained(0).
        assert_eq!(stats.events, 6);
        // The self-timed approximation closed the same epoch at device 1's
        // delivery (12.5s): strictly optimistic.
        let approx = vec![work(10.0, 1, 200, 100), w[1].clone()];
        let old = simulate_epoch(&profiles, &approx);
        assert!(old.makespan_secs < stats.makespan_secs);
    }

    #[test]
    fn self_and_server_senders_collapse_to_the_aggregate_schedule() {
        // Inbound bytes from the receiver itself and from the server add no
        // constraint beyond the receiver's own barrier: the per-destination
        // schedule must equal the self-timed one (every byte from the
        // server) bit for bit.
        let mut profiles = flat_fleet(3);
        for (i, p) in profiles.iter_mut().enumerate() {
            p.compute_rate = 50.0 / (i + 1) as f64;
        }
        let aggregate: Vec<DeviceWork> = (0..3).map(|i| work(100.0, 2, 300, 128 + i)).collect();
        let per_sender: Vec<DeviceWork> = (0..3u32)
            .map(|i| DeviceWork {
                inbound: vec![(i, 100), (SERVER_SENDER, 28 + i as u64)],
                ..aggregate[i as usize].clone()
            })
            .collect();
        let a = simulate_epoch(&profiles, &aggregate);
        let b = simulate_epoch(&profiles, &per_sender);
        assert_eq!(a.makespan_secs.to_bits(), b.makespan_secs.to_bits());
        assert_eq!(a.straggler, b.straggler);
        assert_eq!(a.events, b.events);
        for d in 0..3 {
            assert_eq!(a.busy_secs[d].to_bits(), b.busy_secs[d].to_bits());
            assert_eq!(a.idle_secs[d].to_bits(), b.idle_secs[d].to_bits());
        }
    }

    #[test]
    fn duplicate_senders_schedule_one_arrival_per_edge() {
        // Regression: a sender repeated in a PerSender list used to push
        // the receiver into its out-edges once per occurrence, double-
        // scheduling Arrived events and inflating `events`. Splitting a
        // sender's bytes across ledger entries must be indistinguishable
        // from recording them summed.
        let profiles = flat_fleet(2);
        let split = vec![
            DeviceWork {
                compute_units: 10.0,
                messages_out: 1,
                bytes_out: 64,
                inbound: vec![(1, 64), (1, 64)],
            },
            work(10.0, 1, 128, 0),
        ];
        let summed = vec![
            DeviceWork {
                inbound: vec![(1, 128)],
                ..split[0].clone()
            },
            split[1].clone(),
        ];
        let a = simulate_epoch(&profiles, &split);
        let b = simulate_epoch(&profiles, &summed);
        assert_eq!(a.events, b.events, "duplicate sender inflated the count");
        assert_eq!(a.makespan_secs.to_bits(), b.makespan_secs.to_bits());
        assert_eq!(a.straggler, b.straggler);
    }

    #[test]
    fn absent_senders_never_block_the_round() {
        // Device 1 is offline this round; its recorded bytes toward device
        // 0 are treated as staged, so the drain is self-timed.
        let mut profiles = flat_fleet(2);
        profiles[1].available = false;
        let w = vec![
            DeviceWork {
                compute_units: 100.0,
                messages_out: 1,
                bytes_out: 64,
                inbound: vec![(1, 256)],
            },
            work(100.0, 1, 64, 0),
        ];
        let stats = simulate_epoch(&profiles, &w);
        let self_timed = simulate_epoch(&profiles, &[work(100.0, 1, 64, 256), w[1].clone()]);
        assert_eq!(
            stats.makespan_secs.to_bits(),
            self_timed.makespan_secs.to_bits()
        );
        assert_eq!(stats.straggler, Some(0));
    }

    #[test]
    fn busy_never_exceeds_makespan() {
        let profiles = flat_fleet(4);
        let w = vec![
            DeviceWork {
                compute_units: 50.0,
                messages_out: 3,
                bytes_out: 900,
                inbound: vec![(1, 1500), (3, 500)],
            },
            work(500.0, 1, 10, 0),
            work(0.0, 0, 0, 0),
            DeviceWork {
                compute_units: 20.0,
                messages_out: 8,
                bytes_out: 2000,
                inbound: vec![(0, 50)],
            },
        ];
        let stats = simulate_epoch(&profiles, &w);
        for d in 0..4 {
            assert!(
                stats.busy_secs[d] <= stats.makespan_secs + 1e-12,
                "device {d} busy {} > makespan {}",
                stats.busy_secs[d],
                stats.makespan_secs
            );
            assert!(stats.idle_secs[d] >= 0.0);
        }
        let u = stats.mean_utilization();
        assert!((0.0..=1.0).contains(&u), "utilization {u}");
    }

    #[test]
    fn identical_inputs_give_identical_stats() {
        let mut profiles = flat_fleet(8);
        for (i, p) in profiles.iter_mut().enumerate() {
            p.compute_rate = 100.0 / (i + 1) as f64;
        }
        let w: Vec<DeviceWork> = (0..8u32)
            .map(|i| DeviceWork {
                compute_units: i as f64 * 30.0,
                messages_out: i as u64,
                bytes_out: 64 * i as u64,
                inbound: vec![((i + 1) % 8, 32)],
            })
            .collect();
        let a = simulate_epoch(&profiles, &w);
        let b = simulate_epoch(&profiles, &w);
        assert_eq!(a, b);
    }
}
