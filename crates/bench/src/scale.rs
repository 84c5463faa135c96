//! Scale sweep: flat vs hierarchical aggregation at 10³–10⁵ devices.
//!
//! The datasets the accuracy experiments train on top out at a few
//! thousand vertices, so this sweep drives the federation substrate
//! directly — `lumos-fed`'s ledger, `lumos-sim`'s epoch engine, and
//! `lumos-topo`'s tier timing — with a synthetic per-round protocol (two
//! ring neighbors per device plus the aggregation upload) over a
//! [`Scenario::MobileFleet`] fleet. Three claims become measurable at
//! fleet sizes the full trainer cannot reach:
//!
//! * **server traffic** is O(devices) bytes/round flat but O(aggregators)
//!   hierarchical — each aggregator forwards one pooled partial;
//! * **ledger memory** is one round's sends in both modes: the window log
//!   holds one entry per device message of the round, and a hierarchical
//!   network logs the same window the flat one does (`ledger_entries` is
//!   the resident count), so both are priced per sender;
//! * **wall cost per simulated device** stays bounded as the fleet grows,
//!   which is what lets the 10⁵-device row finish inside a CI smoke job.
//!
//! [`ScaleRow`] lists its columns once, in [`Row::record`]; the
//! `scale_sweep` binary hands them to [`crate::emit`] for the table and the
//! machine-readable `BENCH_scale.json` record the CI scale gate asserts on.

use lumos_common::rng::Xoshiro256pp;
use lumos_common::timer::Stopwatch;
use lumos_fed::{ledger_work, SimNetwork};
use lumos_sim::{simulate_epoch, DeviceProfile, Scenario};
use lumos_topo::{tier_timing, Topology};

use crate::args::HarnessArgs;
use crate::emit::{Record, Row, Value};

/// Fleet sizes the sweep visits (the 10⁵-device row is the point).
pub const SWEEP_DEVICES: [usize; 3] = [4_000, 32_000, 100_000];

/// Bytes of one pooled-update message on the synthetic wire (mirrors the
/// trainer's 16-f32 embedding).
const UPDATE_BYTES: u64 = 64;

/// Tree nodes per device for the straggler cost model: every synthetic
/// device carries the same small tree, so timing spread comes from the
/// fleet's capability heterogeneity alone.
const TREE_NODES: usize = 4;

/// GNN layers priced by the cost model.
const LAYERS: usize = 2;

/// Aggregator count for `n` devices: `⌈√n⌉` balances the two tiers —
/// each aggregator hears O(√n) members and the server hears O(√n)
/// partials.
pub fn aggregators_for(n: usize) -> usize {
    (n as f64).sqrt().ceil() as usize
}

/// One (fleet size, topology) measurement.
#[derive(Debug, Clone)]
pub struct ScaleRow {
    /// Fleet size.
    pub devices: usize,
    /// `"flat"` or `"hierarchical"`.
    pub mode: &'static str,
    /// Aggregator count (0 in flat mode — devices report to the server).
    pub aggregators: usize,
    /// Rounds measured.
    pub rounds: usize,
    /// Mean simulated epoch makespan (hierarchical rows include the
    /// aggregator→server hop).
    pub makespan_secs: f64,
    /// Bytes arriving at the server per round — the O(devices) vs
    /// O(aggregators) claim.
    pub server_bytes_per_round: f64,
    /// Peak resident ledger entries (the round's logged messages).
    pub peak_ledger_entries: usize,
    /// Wall-clock microseconds per simulated device-round.
    pub wall_us_per_device: f64,
}

/// Rounds per measurement: the synthetic protocol is identical each
/// round, so a short window is enough; quick mode halves it for CI.
fn rounds(quick: bool) -> usize {
    if quick {
        2
    } else {
        4
    }
}

/// Runs `rounds` of the synthetic protocol at fleet size `n` and measures
/// one row. The fleet and the topology derive only from `seed`, so flat
/// and hierarchical rows time exactly the same devices.
pub fn measure(n: usize, hierarchical: bool, rounds: usize, seed: u64) -> ScaleRow {
    let mut rng = Xoshiro256pp::seed_from_u64(seed ^ (n as u64).rotate_left(13));
    let profiles = Scenario::MobileFleet.fleet_spec().sample_fleet(n, &mut rng);
    let topo = hierarchical.then(|| Topology::seeded(n, aggregators_for(n), seed));
    let mut net = match &topo {
        Some(t) => SimNetwork::new_sharded(t.shard_vector()),
        None => SimNetwork::new(n),
    };
    let tree_sizes = vec![TREE_NODES; n];
    let aggregator = DeviceProfile::baseline();

    let mut makespan_sum = 0.0f64;
    let mut peak_ledger = 0usize;
    // The wall-µs/device budget the CI gate asserts; never mixed into the
    // virtual-time results.
    let wall = Stopwatch::started();
    for _ in 0..rounds {
        let snap = net.snapshot();
        // Two ring neighbors per device stand in for the tree-update
        // exchange, then every device ships its pooled update.
        for d in 0..n as u32 {
            net.send(d, (d + 1) % n as u32, UPDATE_BYTES);
            net.send(d, (d + 7) % n as u32, UPDATE_BYTES);
        }
        net.round();
        for d in 0..n as u32 {
            net.send(d, SimNetwork::SERVER, UPDATE_BYTES);
        }
        net.send_partials(UPDATE_BYTES);
        net.round();
        peak_ledger = peak_ledger.max(net.ledger_entries());
        let work = ledger_work(&net, &snap, &tree_sizes, LAYERS);
        let stats = simulate_epoch(&profiles, &work);
        let tier2 = topo.as_ref().map_or(0.0, |t| {
            tier_timing(&stats, t, &aggregator, UPDATE_BYTES).server_makespan_secs
        });
        makespan_sum += stats.makespan_secs.max(tier2);
    }
    let elapsed_secs = wall.secs();

    ScaleRow {
        devices: n,
        mode: if hierarchical { "hierarchical" } else { "flat" },
        aggregators: net.num_aggregators(),
        rounds,
        makespan_secs: makespan_sum / rounds as f64,
        server_bytes_per_round: net.server_bytes_received() as f64 / rounds as f64,
        peak_ledger_entries: peak_ledger,
        wall_us_per_device: elapsed_secs * 1e6 / (n * rounds) as f64,
    }
}

/// Runs the full sweep: every fleet size in [`SWEEP_DEVICES`], flat then
/// hierarchical.
pub fn run(args: &HarnessArgs) -> Vec<ScaleRow> {
    let rounds = rounds(args.quick);
    let mut rows = Vec::with_capacity(2 * SWEEP_DEVICES.len());
    for &n in &SWEEP_DEVICES {
        for hierarchical in [false, true] {
            rows.push(measure(n, hierarchical, rounds, args.seed));
        }
    }
    rows
}

impl Row for ScaleRow {
    const TITLE: &'static str = "Scale sweep: flat vs hierarchical aggregation";

    fn record(&self) -> Record {
        use Value::{Num, Str, UInt};
        vec![
            ("devices", UInt(self.devices as u64)),
            ("mode", Str(self.mode.into())),
            ("aggregators", UInt(self.aggregators as u64)),
            ("rounds", UInt(self.rounds as u64)),
            ("makespan_secs", Num(self.makespan_secs)),
            ("server_bytes_per_round", Num(self.server_bytes_per_round)),
            ("peak_ledger_entries", UInt(self.peak_ledger_entries as u64)),
            ("wall_us_per_device", Num(self.wall_us_per_device)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hierarchical_mode_cuts_server_bytes_and_logs_the_flat_window() {
        let flat = measure(600, false, 2, 9);
        let tiered = measure(600, true, 2, 9);
        // Flat: every device's update lands at the server. Hierarchical:
        // only the ⌈√n⌉ aggregator partials do.
        assert_eq!(flat.server_bytes_per_round, 600.0 * UPDATE_BYTES as f64);
        assert_eq!(
            tiered.server_bytes_per_round,
            tiered.aggregators as f64 * UPDATE_BYTES as f64
        );
        assert!(tiered.server_bytes_per_round < flat.server_bytes_per_round / 10.0);
        // Both windows hold one round's sends — two ring messages and one
        // upload per device; the tier changes where uploads land, not what
        // is logged.
        assert_eq!(flat.peak_ledger_entries, 3 * flat.devices);
        assert_eq!(tiered.peak_ledger_entries, flat.peak_ledger_entries);
        // Both modes simulate a real barrier.
        assert!(flat.makespan_secs > 0.0);
        assert!(tiered.makespan_secs > 0.0);
    }

    #[test]
    fn measurements_are_seed_deterministic() {
        let a = measure(400, true, 2, 5);
        let b = measure(400, true, 2, 5);
        assert_eq!(a.makespan_secs.to_bits(), b.makespan_secs.to_bits());
        assert_eq!(a.server_bytes_per_round, b.server_bytes_per_round);
        assert_eq!(a.peak_ledger_entries, b.peak_ledger_entries);
    }

    #[test]
    fn sqrt_sizing_covers_the_sweep() {
        assert_eq!(aggregators_for(4_000), 64);
        assert_eq!(aggregators_for(32_000), 179);
        assert_eq!(aggregators_for(100_000), 317);
    }

    /// The keys `.github/workflows/ci.yml`'s scale step reads off each row.
    #[test]
    fn record_carries_every_key_the_ci_gate_reads() {
        let rows = [measure(300, false, 1, 9), measure(300, true, 1, 9)];
        crate::emit::tests::assert_has_keys(
            &rows[1].record(),
            &[
                "devices",
                "mode",
                "aggregators",
                "makespan_secs",
                "server_bytes_per_round",
                "peak_ledger_entries",
                "wall_us_per_device",
            ],
        );
        let json = crate::emit::rows(crate::emit::records(&rows)).render();
        assert!(json.contains("\"devices\": 300"));
        assert!(json.contains("\"mode\": \"flat\""));
        assert!(json.contains("\"mode\": \"hierarchical\""));
        let records = crate::emit::records(&rows);
        assert_eq!(crate::emit::table(ScaleRow::TITLE, &records).len(), 2);
    }
}
