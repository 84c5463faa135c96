//! What the benchmark measures: the four workloads, their sizes, and the
//! metric tables. `BENCHMARK.json` at the repository root repeats the
//! names, units, directions and relative bounds below; a test keeps the
//! two in step.

use lumos::data::Scale;

use crate::json::Value;
use crate::stats::{Better, Bound};

/// Default `--seed`.
pub const DEFAULT_SEED: u64 = 2023;

/// Default `--seconds`; equals `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 24.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TrainDefault,
    TrainLoaded,
    SecureConstructor,
    FleetRounds,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::TrainDefault,
        Workload::TrainLoaded,
        Workload::SecureConstructor,
        Workload::FleetRounds,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TrainDefault => "train_default",
            Workload::TrainLoaded => "train_loaded",
            Workload::SecureConstructor => "secure_constructor",
            Workload::FleetRounds => "fleet_rounds",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Listed in `BENCHMARK.json`, i.e. run and gated by the driver.
    ///
    /// `secure_constructor` is measured, printed and checked like the others
    /// but not listed: across four ten-seed sweeps on the 2-vCPU shared box
    /// its `run_s` spread (interquartile range over median) was 34%, 14%, 45%
    /// and 16%, beyond the largest bound the contract admits (25%), where the
    /// other three stayed within 5-17%. About 45% of its op is kernel time:
    /// `crypto::slice::secure_compare_batch` asks
    /// `std::thread::available_parallelism()` per batch, which re-reads
    /// procfs/cgroup files each time (17 us a call, tens of thousands of
    /// calls per op), and syscall-heavy code is what a contended host
    /// inflates. Once the program caches that count, a change correcting the
    /// benchmark can list the workload.
    pub fn listed(self) -> bool {
        self != Workload::SecureConstructor
    }

    /// Why the workload exists (one line; repeated in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::TrainDefault => {
                "run_lumos on the default config: tensor and gnn forward+backward own the op, so a tape or matmul change shows here"
            }
            Workload::TrainLoaded => {
                "run_lumos fully loaded (straggler fleet, 8 aggregators, buffered policy, 5% loss): the same layers on the sharded, weighted, tiered paths"
            }
            Workload::SecureConstructor => {
                "Algorithms 1-3 under the simulated bit-sliced OT circuits with one training epoch: crypto and balance own the op; bypasses tensor"
            }
            Workload::FleetRounds => {
                "100,000 churning devices, no model: sim and fed own the op and the event heap outgrows cache; bypasses tensor and crypto"
            }
        }
    }
}

/// Workload sizes. Full size is what `BENCHMARK.json` measures; quick size
/// is the smoke-scale variant the package's own tests run.
#[derive(Debug, Clone)]
pub struct Sizes {
    pub quick: bool,
    /// Dataset scale of the three `run_lumos` workloads.
    pub scale: Scale,
    /// Edge count the generated graph is steered to (see `e2e::generate`).
    pub target_edges: usize,
    /// Training epochs of `train_default` / `train_loaded`.
    pub epochs: usize,
    /// MCMC iterations of `train_default` / `train_loaded`.
    pub mcmc: usize,
    /// MCMC iterations of `secure_constructor`.
    pub secure_mcmc: usize,
    /// Devices and rounds of `fleet_rounds`.
    pub fleet_devices: usize,
    pub fleet_rounds: usize,
    /// Set-ups per run (their median is `setup_s`).
    pub setups: usize,
    /// Fewest timed ops, and fewest `epochs = 0` ops, per run.
    pub min_reps: usize,
    pub min_pretrain_reps: usize,
}

impl Sizes {
    /// The sizes `BENCHMARK.json` is measured at. ISSUE 11 sized the ops at
    /// 40 epochs / 1,000 secure MCMC iterations / 20 fleet rounds (2.7 to
    /// 6.9 s each); the driver's time cap (92 runs in 57 minutes) leaves
    /// about 1.5 s per op, so epochs, iterations and rounds were cut —
    /// never the dataset or the fleet.
    pub fn full() -> Self {
        Self {
            quick: false,
            scale: Scale::Small,
            target_edges: 7_300,
            epochs: 10,
            mcmc: 333,
            secure_mcmc: 500,
            fleet_devices: 100_000,
            fleet_rounds: 6,
            setups: 3,
            min_reps: 5,
            min_pretrain_reps: 3,
        }
    }

    pub fn quick() -> Self {
        Self {
            quick: true,
            scale: Scale::Smoke,
            target_edges: 1_500,
            epochs: 4,
            mcmc: 40,
            secure_mcmc: 40,
            fleet_devices: 4_000,
            fleet_rounds: 2,
            setups: 1,
            min_reps: 2,
            min_pretrain_reps: 2,
        }
    }
}

/// One end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Allowed worsening between two sets of runs of the same code
    /// (`--repeat 2`). `BENCHMARK.json` carries `bound.rel` only.
    pub bound: Bound,
    /// Listed in `BENCHMARK.json`: defined on every workload, never 0, and
    /// steady under a bound that is a share alone. The others are printed,
    /// compared by `--repeat` and enforced by the checks, but are n/a on at
    /// least one workload (a contract metric must come from every one) —
    /// or, `pretrain_s`, need the absolute floor the contract cannot
    /// express: `fleet_rounds`' zero-round op is 9 ms and jitters by 2.
    pub listed: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    rel: f64,
    abs: f64,
    listed: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound: Bound { rel, abs },
        listed,
    }
}

pub const END_TO_END: [EndToEnd; 10] = [
    e2e("setup_s", "s", Better::Lower, 0.25, 0.25, true),
    e2e("run_s", "s", Better::Lower, 0.25, 0.0, true),
    e2e(
        "device_rounds_per_s",
        "1/s",
        Better::Higher,
        0.25,
        0.0,
        true,
    ),
    e2e("pretrain_s", "s", Better::Lower, 0.25, 0.02, false),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.05, 0.0, true),
    e2e(
        "msgs_per_device_epoch",
        "msgs",
        Better::Lower,
        0.05,
        0.0,
        true,
    ),
    e2e("test_metric", "accuracy", Better::Higher, 0.0, 0.02, false),
    e2e("sim_epoch_s", "s", Better::Lower, 0.01, 0.0, false),
    e2e("max_workload", "nodes", Better::Lower, 0.0, 0.0, false),
    e2e("failed_share", "ratio", Better::Lower, 0.0, 0.0, false),
];

/// One per-layer metric of the traced run (layer = crate name).
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

pub const PER_LAYER: [PerLayer; 43] = [
    layer("data.generate_ms", "ms", Better::Lower),
    layer("core.constructor_ms", "ms", Better::Lower),
    layer("balance.greedy_ms", "ms", Better::Lower),
    layer("balance.mcmc_iter_us", "us", Better::Lower),
    layer("balance.comparisons", "count", Better::Lower),
    layer("balance.ot_msgs", "count", Better::Lower),
    layer("balance.ot_bytes", "bytes", Better::Lower),
    layer("balance.ot_rounds", "count", Better::Lower),
    layer("crypto.sliced_cmp_ns", "ns", Better::Lower),
    layer("crypto.scalar_cmp_ns", "ns", Better::Lower),
    layer("crypto.sliced_msgs_per_cmp", "msgs", Better::Lower),
    layer("core.tree_build_ms", "ms", Better::Lower),
    layer("core.exchange_ms", "ms", Better::Lower),
    layer("core.exchange_msgs", "count", Better::Lower),
    layer("core.batch_build_ms", "ms", Better::Lower),
    layer("core.batch_nodes", "count", Better::Lower),
    layer("core.pool_build_ms", "ms", Better::Lower),
    layer("gnn.forward_ms", "ms", Better::Lower),
    layer("tensor.backward_ms", "ms", Better::Lower),
    layer("tensor.optim_ms", "ms", Better::Lower),
    layer("tensor.alloc_ms", "ms", Better::Lower),
    layer("tensor.tape_ops", "count", Better::Lower),
    layer("tensor.matmul_gflops", "GFLOP/s", Better::Higher),
    layer("tensor.gather_gbps", "GB/s", Better::Higher),
    layer("tensor.scatter_gbps", "GB/s", Better::Higher),
    layer("gnn.eval_ms", "ms", Better::Lower),
    layer("core.epoch_other_ms", "ms", Better::Lower),
    layer("fed.ledger_write_ms", "ms", Better::Lower),
    layer("fed.ledger_work_ms", "ms", Better::Lower),
    layer("fed.ledger_entries", "count", Better::Lower),
    layer("sim.fault_plan_ms", "ms", Better::Lower),
    layer("sim.schedule_build_ms", "ms", Better::Lower),
    layer("sim.event_run_ms", "ms", Better::Lower),
    layer("sim.scenario_advance_ms", "ms", Better::Lower),
    layer("sim.events", "count", Better::Lower),
    layer("sim.events_per_s", "1/s", Better::Higher),
    layer("sim.late_verdicts", "count", Better::Lower),
    layer("topo.shard_run_ms", "ms", Better::Lower),
    layer("topo.tier_timing_ms", "ms", Better::Lower),
    layer("proc.user_s", "s", Better::Lower),
    layer("proc.sys_s", "s", Better::Lower),
    layer("trace.coverage", "ratio", Better::Higher),
    layer("trace.overhead_share", "ratio", Better::Lower),
];

/// The contract's rule for a workload or metric name: starts with a letter
/// or digit, at most 64 of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The contract's rule for a unit: 1 to 16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The command the driver runs from the root of a checkout; it appends
/// `--workload NAME --seed N --seconds S --trace 0|1`.
pub const COMMAND: [&str; 7] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// The text of `BENCHMARK.json`, from the tables above.
///
/// # Panics
/// Panics if a name or unit breaks the contract's rules.
pub fn benchmark_json() -> String {
    let strings = |items: &[&str]| Value::Arr(items.iter().map(|s| Value::str(*s)).collect());
    let block = |rows: Vec<Value>| {
        let rows: Vec<String> = rows.iter().map(|r| format!("    {}", r.render())).collect();
        format!("[\n{}\n  ]", rows.join(",\n"))
    };
    let named = |name: &'static str, unit: &'static str, better: Better| {
        assert!(valid_name(name) && valid_unit(unit), "{name} [{unit}]");
        vec![
            ("name", Value::str(name)),
            ("unit", Value::str(unit)),
            ("better", Value::str(better.name())),
        ]
    };
    let workloads = Workload::ALL
        .iter()
        .filter(|w| w.listed())
        .map(|w| {
            assert!(valid_name(w.name()) && w.why().len() <= 200, "{}", w.name());
            Value::obj([("name", Value::str(w.name())), ("why", Value::str(w.why()))])
        })
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .filter(|m| m.listed)
        .map(|m| {
            let mut fields = named(m.name, m.unit, m.better);
            fields.push(("bound", Value::Num(m.bound.rel)));
            Value::obj(fields)
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| Value::obj(named(m.name, m.unit, m.better)))
        .collect();
    format!(
        "{{\n  \"command\": {},\n  \"paths\": {},\n  \"run_seconds\": {},\n  \
         \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        strings(&COMMAND).render(),
        strings(&["benchmark"]).render(),
        DEFAULT_SECONDS as u32,
        block(workloads),
        block(end_to_end),
        block(per_layer),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn name_validator_follows_the_contract() {
        for good in ["run_s", "sim.events_per_s", "a", "9lives", "x-y.z_0"] {
            assert!(valid_name(good), "{good}");
        }
        let too_long = "a".repeat(65);
        for bad in [
            "",
            "_x",
            ".x",
            "-x",
            "has space",
            "µs",
            "a/b",
            too_long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"a".repeat(64)));
        for good in ["ms", "s", "1/s", "count", "GFLOP/s", "%"] {
            assert!(valid_unit(good), "{good}");
        }
        for bad in ["", "virtual s", "a-very-long-unit-name"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn every_name_is_valid_and_used_once() {
        let mut seen = BTreeSet::new();
        let names = Workload::ALL
            .iter()
            .map(|w| w.name())
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(valid_unit(unit), "{unit}");
        }
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    /// `BENCHMARK.json` is data the driver reads; the tables above are what
    /// the binary prints. The file is `--benchmark-json`'s output, verbatim.
    #[test]
    fn benchmark_json_is_generated_from_these_tables() {
        let text = benchmark_json();
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        assert_eq!(
            std::fs::read_to_string(path).unwrap(),
            text,
            "regenerate with `cargo run --manifest-path benchmark/Cargo.toml -- --benchmark-json`"
        );

        let doc = Value::parse(&text).unwrap();
        let Value::Obj(fields) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(doc.get("run_seconds"), Some(&Value::Int(24)));
        let len = |k: &str| doc.get(k).and_then(Value::as_arr).unwrap().len();
        assert_eq!(len("workloads"), 3);
        assert_eq!(len("per_layer"), PER_LAYER.len());
        let end_to_end = doc.get("end_to_end").and_then(Value::as_arr).unwrap();
        assert!(end_to_end
            .iter()
            .any(|m| m.get("name").and_then(Value::as_str) == Some("setup_s")));
        for m in end_to_end {
            let bound = m.get("bound").and_then(Value::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{m:?}");
        }
        assert!(text.len() < 64 * 1024);
    }
}
