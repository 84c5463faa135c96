//! `fleet_rounds`: the federation substrate with no model. Rounds of
//! `scale_sweep`'s synthetic protocol (two ring neighbours per device, then
//! the aggregation upload) over a churning fleet, each round driven the way
//! the trainer drives its own: ledger window → `ledger_work` → fault plan →
//! priced schedule → event run under the policy's handler → churn.
//!
//! The same function serves the untraced op (`NoSpans`) and the traced
//! replay (`Tracer`), so the spans sit exactly on the measured code.

use lumos::fed::{ledger_work, SimNetwork};
use lumos::sim::{
    AggregationPolicy, DeviceProfile, EventDrivenRuntime, FaultSpec, FaultState, RecoveryPolicy,
    RoundPolicy, Scenario, ScenarioState,
};
use lumos::topo::Topology;

use crate::trace::Spans;

/// Bytes of one update on the synthetic wire (the trainer's 16-f32 embedding).
pub const UPDATE_BYTES: u64 = 64;
/// Tree nodes every synthetic device carries, and the GNN layers priced.
pub const TREE_NODES: usize = 4;
pub const LAYERS: usize = 2;
/// Per-send loss probability.
pub const LOSS_RATE: f64 = 0.05;
/// The aggregation policy every round is judged under.
pub const POLICY: AggregationPolicy = AggregationPolicy::Buffered {
    factor: 2.0,
    decay: 0.5,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetInputs {
    pub devices: usize,
    pub rounds: usize,
    pub seed: u64,
}

/// Everything a fleet op decides; all of it repeats exactly for a seed.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    pub rounds: usize,
    /// Handler invocations, summed over the rounds.
    pub events: u64,
    /// Updates the policy judged late, summed over the rounds.
    pub late_verdicts: u64,
    /// Virtual makespan, summed over the rounds.
    pub makespan_secs: f64,
    /// Messages on the ledger at the end.
    pub messages: u64,
    pub ledger_entries: usize,
}

impl FleetReport {
    /// Mean virtual makespan per round (NaN for a zero-round op).
    pub fn sim_epoch_s(&self) -> f64 {
        self.makespan_secs / self.rounds as f64
    }
}

pub fn same_report(a: &FleetReport, b: &FleetReport) -> Result<(), String> {
    if a == b {
        Ok(())
    } else {
        Err(format!("{a:?} vs {b:?}"))
    }
}

/// Writes one round of the synthetic protocol onto the ledger; devices that
/// churned out send nothing. With a topology the upload goes through the
/// aggregators.
pub fn write_round(net: &mut SimNetwork, profiles: &[DeviceProfile], topo: Option<&Topology>) {
    let n = profiles.len() as u32;
    for d in (0..n).filter(|&d| profiles[d as usize].available) {
        net.send(d, (d + 1) % n, UPDATE_BYTES);
        net.send(d, (d + 7) % n, UPDATE_BYTES);
    }
    net.round();
    match topo {
        Some(topo) => {
            for d in (0..n).filter(|&d| profiles[d as usize].available) {
                net.send_to_aggregator(d, UPDATE_BYTES);
            }
            for shard in 0..topo.num_aggregators() as u32 {
                net.send_aggregator_to_server(shard, UPDATE_BYTES);
            }
        }
        None => {
            for d in (0..n).filter(|&d| profiles[d as usize].available) {
                net.send_to_server(d, UPDATE_BYTES);
            }
        }
    }
    net.round();
}

/// One op: bring the fleet up, then run `rounds` rounds (`inputs.rounds`
/// for the full op, 0 for the zero-round op that times the bring-up alone).
pub fn run<S: Spans>(inputs: &FleetInputs, rounds: usize, spans: &mut S) -> FleetReport {
    let n = inputs.devices;
    let (mut state, mut faults, mut net, tree_sizes) = spans.span("sim.fleet_init", |_| {
        (
            ScenarioState::new(Scenario::Churn, n, inputs.seed),
            FaultState::new(
                FaultSpec::message_loss(LOSS_RATE),
                RecoveryPolicy::default(),
                inputs.seed,
            ),
            SimNetwork::new(n),
            vec![TREE_NODES; n],
        )
    });
    let mut report = FleetReport {
        rounds,
        events: 0,
        late_verdicts: 0,
        makespan_secs: 0.0,
        messages: 0,
        ledger_entries: 0,
    };
    for _ in 0..rounds {
        let snap = spans.span("fed.ledger_write", |_| {
            let snap = net.snapshot();
            write_round(&mut net, state.profiles(), None);
            snap
        });
        let work = spans.span("fed.ledger_work", |_| {
            ledger_work(&net, &snap, &tree_sizes, LAYERS)
        });
        let plan = spans.span("sim.fault_plan", |_| faults.compile_round(state.profiles()));
        let schedule = spans.span("sim.schedule_build", |_| {
            EventDrivenRuntime::new_with_faults(state.profiles(), &work, Some(&plan))
        });
        let (events, verdicts, makespan) = spans.span("sim.event_run", |_| {
            let mut policy = RoundPolicy::new(&POLICY, &schedule);
            let mut events = 0u64;
            let stats = schedule.run(|t, ev| {
                events += 1;
                policy.on_event(t, ev)
            });
            (events, policy.verdicts().len() as u64, stats.makespan_secs)
        });
        spans.count("sim.events", events as f64);
        spans.count("sim.late_verdicts", verdicts as f64);
        report.events += events;
        report.late_verdicts += verdicts;
        report.makespan_secs += makespan;
        spans.span("sim.scenario_advance", |_| state.advance_round());
    }
    report.messages = net.total_messages();
    report.ledger_entries = net.ledger_entries();
    spans.count("fed.ledger_entries", report.ledger_entries as f64);
    report
}

/// The workload-level checks on a fleet report; one line per rejection.
pub fn check_report(inputs: &FleetInputs, r: &FleetReport) -> Vec<String> {
    let mut bad = Vec::new();
    // Every round pops at least one ComputeDone per available device.
    if r.events < (inputs.rounds * inputs.devices / 2) as u64 {
        bad.push(format!("only {} events over {} rounds", r.events, r.rounds));
    }
    if !(r.makespan_secs.is_finite() && r.makespan_secs > 0.0) {
        bad.push(format!("degenerate makespan {}", r.makespan_secs));
    }
    if r.messages == 0 || r.ledger_entries == 0 {
        bad.push("nothing reached the ledger".into());
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{NoSpans, Tracer};

    const SMALL: FleetInputs = FleetInputs {
        devices: 500,
        rounds: 3,
        seed: 9,
    };

    #[test]
    fn same_seed_same_report_and_another_seed_another() {
        let a = run(&SMALL, SMALL.rounds, &mut NoSpans);
        let b = run(&SMALL, SMALL.rounds, &mut NoSpans);
        let c = run(
            &FleetInputs { seed: 10, ..SMALL },
            SMALL.rounds,
            &mut NoSpans,
        );
        assert!(same_report(&a, &b).is_ok());
        assert!(same_report(&a, &c).is_err());
        assert!(check_report(&SMALL, &a).is_empty(), "{a:?}");
        // At most 3 messages per device per round; churn takes some away.
        let per_device_round = a.messages as f64 / (500.0 * 3.0);
        assert!(per_device_round > 2.0 && per_device_round <= 3.0);
    }

    #[test]
    fn tracing_changes_no_result_and_sees_every_round() {
        let plain = run(&SMALL, SMALL.rounds, &mut NoSpans);
        let mut tracer = Tracer::new();
        let traced = run(&SMALL, SMALL.rounds, &mut tracer);
        assert_eq!(plain, traced);
        assert_eq!(tracer.secs_of("sim.event_run").len(), 3);
        assert_eq!(tracer.secs_of("sim.fleet_init").len(), 1);
        let events: f64 = tracer.counts_of("sim.events").iter().sum();
        assert_eq!(events as u64, traced.events);
    }

    #[test]
    fn zero_round_op_only_brings_the_fleet_up() {
        let r = run(&SMALL, 0, &mut NoSpans);
        assert_eq!((r.events, r.messages, r.ledger_entries), (0, 0, 0));
    }
}
