//! `lumos-benchmark` — see README.md.
//!
//! With `--workload NAME` the process measures that one workload and
//! prints, as the last line of standard output, one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`. Without it the
//! process runs every workload as a child of its own (peak RSS is a
//! per-process number) and prints them side by side.

#![forbid(unsafe_code)]

mod e2e;
mod fleet;
mod json;
mod procfs;
mod replay;
mod spec;
mod stats;
mod trace;

use std::process::{Command, ExitCode};

use lumos::core::run_lumos;

use json::Value;
use spec::{Sizes, Workload, DEFAULT_SECONDS, DEFAULT_SEED, END_TO_END, PER_LAYER};
use stats::{median, quartiles, Bound};
use trace::NoSpans;

const USAGE: &str = "usage: lumos-benchmark [--workload NAME] [--seed N] [--seconds S] \
[--trace [0|1]] [--repeat N] [--quick] | --benchmark-json
  workloads: train_default train_loaded secure_constructor fleet_rounds (default: all)";

#[derive(Debug, Clone)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    quick: bool,
    /// Parent → child: report all ten end-to-end metrics (n/a as null), not
    /// only the ones `BENCHMARK.json` lists.
    full_result: bool,
    /// Print the `BENCHMARK.json` these tables stand for, and stop.
    benchmark_json: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        repeat: 1,
        quick: false,
        full_result: false,
        benchmark_json: false,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds needs a non-negative number")?;
            }
            "--repeat" => {
                args.repeat = value("a count")?
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or("--repeat needs a count of at least 1")?;
            }
            // `--trace` alone switches tracing on; the driver passes 0 or 1.
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--quick" => args.quick = true,
            "--full-result" => args.full_result = true,
            "--benchmark-json" => args.benchmark_json = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// One reported number. `value` is NaN where the metric does not apply.
struct Reading {
    name: &'static str,
    unit: &'static str,
    value: f64,
    note: String,
}

/// What one workload's run produced.
struct RunResult {
    attempted: u64,
    failures: Vec<String>,
    readings: Vec<Reading>,
}

/// Median of timing samples, with the quartiles and count as the note.
fn timing(samples: &[f64]) -> (f64, String) {
    let (q1, q3) = quartiles(samples);
    // The first samples in full, so a drift within the run is visible.
    let head: Vec<String> = samples.iter().take(12).map(|s| format!("{s:.4}")).collect();
    (
        median(samples),
        format!(
            "median of {} (q1 {q1:.4}, q3 {q3:.4}): {}{}",
            samples.len(),
            head.join(" "),
            if samples.len() > head.len() {
                " …"
            } else {
                ""
            }
        ),
    )
}

fn exact(value: Option<f64>) -> (f64, String) {
    match value {
        Some(v) => (v, "repeats exactly for a seed".into()),
        None => (f64::NAN, "n/a on this workload".into()),
    }
}

/// What the model workloads and the fleet one read off their first result
/// in different ways.
struct Facts {
    /// Devices × (epochs or rounds) of one op.
    device_rounds: f64,
    msgs: f64,
    test_metric: Option<f64>,
    sim_epoch_s: Option<f64>,
    max_workload: Option<f64>,
}

/// The untraced run: the ten end-to-end metrics, no spans recorded.
fn run_untraced(workload: Workload, sizes: &Sizes, seed: u64, seconds: f64) -> RunResult {
    match workload {
        Workload::FleetRounds => readings(
            e2e::measure(
                sizes,
                seconds,
                || fleet::FleetInputs {
                    devices: sizes.fleet_devices,
                    rounds: sizes.fleet_rounds,
                    seed,
                },
                |i| fleet::run(i, i.rounds, &mut NoSpans),
                |i| fleet::run(i, 0, &mut NoSpans),
                fleet::same_report,
            ),
            |input, r| {
                let device_rounds = (input.devices * input.rounds) as f64;
                let facts = Facts {
                    device_rounds,
                    msgs: r.messages as f64 / device_rounds,
                    test_metric: None,
                    sim_epoch_s: Some(r.sim_epoch_s()),
                    max_workload: None,
                };
                (facts, fleet::check_report(input, r))
            },
        ),
        _ => readings(
            e2e::measure(
                sizes,
                seconds,
                || e2e::lumos_inputs(workload, sizes, seed),
                |i| run_lumos(&i.ds, &i.cfg),
                |i| run_lumos(&i.ds, &i.cfg_pretrain),
                e2e::same_report,
            ),
            |input, r| {
                let facts = Facts {
                    device_rounds: (input.ds.num_nodes() * input.cfg.epochs) as f64,
                    msgs: r.avg_messages_per_device_per_epoch,
                    test_metric: Some(r.test_metric),
                    sim_epoch_s: r.sim.as_ref().map(|s| s.avg_epoch_virtual_secs),
                    max_workload: Some(r.constructor.max_workload as f64),
                };
                (facts, e2e::check_report(workload, sizes, seed, input, r))
            },
        ),
    }
}

/// Turns what the harness timed into the ten readings; `judge` reads the
/// facts off the first result and runs the workload-level checks on it.
fn readings<I, R>(
    timed: e2e::Timed<I, R>,
    judge: impl FnOnce(&I, &R) -> (Facts, Vec<String>),
) -> RunResult {
    let attempted = timed.attempted;
    let mut failures = timed.failures;
    let Some(first) = &timed.first else {
        failures.push("no op completed".into());
        return RunResult {
            attempted,
            failures,
            readings: Vec::new(),
        };
    };
    let (facts, rejected) = judge(&timed.input, first);
    failures.extend(rejected);
    let rate: Vec<f64> = timed
        .run_s
        .iter()
        .map(|s| facts.device_rounds / s)
        .collect();
    let failed = failures.len().min(attempted as usize);
    let values = [
        ("setup_s", timing(&timed.setup_s)),
        ("run_s", timing(&timed.run_s)),
        ("device_rounds_per_s", timing(&rate)),
        ("pretrain_s", timing(&timed.pretrain_s)),
        (
            "peak_rss_mb",
            (procfs::peak_rss_mib(), "VmHWM at workload end".into()),
        ),
        ("msgs_per_device_epoch", exact(Some(facts.msgs))),
        ("test_metric", exact(facts.test_metric)),
        ("sim_epoch_s", exact(facts.sim_epoch_s)),
        ("max_workload", exact(facts.max_workload)),
        (
            "failed_share",
            (
                failed as f64 / attempted as f64,
                format!("{failed} of {attempted} ops"),
            ),
        ),
    ];
    let readings = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, (name, (value, note)))| {
            assert_eq!(m.name, name, "END_TO_END and the readings share one order");
            Reading {
                name: m.name,
                unit: m.unit,
                value,
                note,
            }
        })
        .collect();
    RunResult {
        attempted,
        failures,
        readings,
    }
}

/// Child mode: measure one workload, print it, and say whether it passed.
fn run_child(args: &Args, workload: Workload) -> bool {
    let sizes = if args.quick {
        Sizes::quick()
    } else {
        Sizes::full()
    };
    let result = if args.trace {
        replay::run_traced(workload, &sizes, args.seed, args.seconds)
    } else {
        run_untraced(workload, &sizes, args.seed, args.seconds)
    };
    let wanted: Vec<&str> = if args.trace {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END
            .iter()
            .filter(|m| m.listed || args.full_result)
            .map(|m| m.name)
            .collect()
    };

    println!(
        "# {} seed {} {}{}: {}",
        workload.name(),
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        if args.quick { " (quick sizes)" } else { "" },
        workload.why()
    );
    for r in &result.readings {
        let value = if r.value.is_nan() {
            "n/a".to_string()
        } else {
            format!("{:.6}", r.value)
        };
        println!("{:<28} {value:>16} {:<8} {}", r.name, r.unit, r.note);
    }
    for f in &result.failures {
        println!("FAILED: {f}");
    }

    let missing = wanted
        .iter()
        .any(|w| !result.readings.iter().any(|r| r.name == *w));
    let correct = result.failures.is_empty() && !missing;
    let metrics = result
        .readings
        .iter()
        .filter(|r| wanted.contains(&r.name))
        .map(|r| {
            (
                r.name,
                Value::obj([("value", Value::Num(r.value)), ("unit", Value::str(r.unit))]),
            )
        });
    let line = Value::obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Int(result.attempted.max(1) as i64)),
        (
            "failed",
            Value::Int(result.failures.len().min(result.attempted as usize) as i64),
        ),
        ("metrics", Value::obj(metrics)),
    ]);
    println!("{}", line.render());
    correct
}

/// Parent mode: every workload in a child process of its own, `repeat`
/// times over, then the sets side by side.
fn run_parent(args: &Args) -> bool {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find own executable: {e}");
            return false;
        }
    };
    let mut ok = true;
    // sets[set][workload] = metric name → value
    let mut sets: Vec<Vec<Value>> = Vec::new();
    for set in 0..args.repeat {
        let mut results = Vec::new();
        for workload in Workload::ALL {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload.name()])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .arg("--full-result");
            if args.quick {
                cmd.arg("--quick");
            }
            // `output` waits for the child and collects its standard output.
            let out = match cmd.output() {
                Ok(out) => out,
                Err(e) => {
                    eprintln!("cannot run {}: {e}", workload.name());
                    return false;
                }
            };
            let stdout = String::from_utf8_lossy(&out.stdout);
            let stderr = String::from_utf8_lossy(&out.stderr);
            let lines: Vec<&str> = stdout.lines().collect();
            let (last, human) = lines.split_last().unwrap_or((&"", &[]));
            if args.repeat > 1 {
                println!("## set {}", set + 1);
            }
            for line in human {
                println!("{line}");
            }
            eprint!("{stderr}");
            let parsed = Value::parse(last).unwrap_or(Value::Null);
            let correct = parsed.get("correct") == Some(&Value::Bool(true));
            if !out.status.success() || !correct {
                println!("FAILED: {} did not pass its checks", workload.name());
                ok = false;
            }
            results.push(parsed.get("metrics").cloned().unwrap_or(Value::Null));
        }
        sets.push(results);
    }
    if args.repeat > 1 && !args.trace {
        ok &= compare_sets(&sets);
    }
    ok
}

/// `--repeat`: per workload × end-to-end metric, every set's value, the
/// largest worsening between two sets and the bound it is held to.
fn compare_sets(sets: &[Vec<Value>]) -> bool {
    println!("## repeatability: {} sets of the same code", sets.len());
    println!(
        "{:<20} {:<24} {:>14} {:>14} {:>12} {:>12}",
        "workload", "metric", "first", "last", "worst", "allowed"
    );
    let mut ok = true;
    for (w, workload) in Workload::ALL.iter().enumerate() {
        for m in &END_TO_END {
            let values: Vec<Option<f64>> = sets
                .iter()
                .map(|set| {
                    set[w]
                        .get(m.name)
                        .and_then(|v| v.get("value"))
                        .and_then(Value::as_f64)
                })
                .collect();
            let Some(values) = values.into_iter().collect::<Option<Vec<f64>>>() else {
                println!("{:<20} {:<24} {:>14}", workload.name(), m.name, "n/a");
                continue;
            };
            // Either order: the sets are runs of one code, neither is "new".
            let mut worst = 0.0f64;
            let mut outside = false;
            for (i, &a) in values.iter().enumerate() {
                for &b in &values[i + 1..] {
                    for (base, new) in [(a, b), (b, a)] {
                        worst = worst.max(Bound::worse_by(m.better, base, new));
                        outside |= m.bound.regressed(m.better, base, new);
                    }
                }
            }
            // `worst` and `allowed` are in the metric's own unit.
            let base = values[0];
            println!(
                "{:<20} {:<24} {:>14.6} {:>14.6} {:>12.6} {:>12.6}{}",
                workload.name(),
                m.name,
                base,
                values[values.len() - 1],
                worst,
                m.bound.allowed(base),
                if outside { "  OUTSIDE BOUND" } else { "" }
            );
            ok &= !outside;
        }
    }
    ok
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.benchmark_json {
        print!("{}", spec::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let ok = match args.workload {
        Some(workload) => run_child(&args, workload),
        None => run_parent(&args),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&argv)
    }

    #[test]
    fn driver_command_line_parses() {
        let a = parse("--workload fleet_rounds --seed 7 --seconds 15 --trace 0").unwrap();
        assert_eq!(a.workload, Some(Workload::FleetRounds));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 15.0, false));
        assert!(parse("--workload train_default --trace 1").unwrap().trace);
        assert!(parse("--trace --quick").unwrap().trace, "bare flag");
        assert!(parse("--trace").unwrap().trace);
        let d = parse("").unwrap();
        assert_eq!(
            (d.seed, d.seconds, d.repeat),
            (DEFAULT_SEED, DEFAULT_SECONDS, 1)
        );
        assert!(d.workload.is_none() && !d.trace && !d.quick);
    }

    #[test]
    fn malformed_command_lines_are_rejected() {
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds -1",
            "--repeat 0",
            "--workload",
            "--frobnicate",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    /// Every workload at smoke scale, two reps, passing its checks.
    #[test]
    fn quick_run_of_every_workload_passes_its_checks() {
        let sizes = Sizes::quick();
        for workload in Workload::ALL {
            let r = run_untraced(workload, &sizes, DEFAULT_SEED, 0.0);
            assert!(
                r.failures.is_empty(),
                "{}: {:?}",
                workload.name(),
                r.failures
            );
            assert!(r.attempted >= 5);
            let names: Vec<_> = r.readings.iter().map(|x| x.name).collect();
            let all: Vec<_> = END_TO_END.iter().map(|m| m.name).collect();
            assert_eq!(names, all);
            for (reading, m) in r.readings.iter().zip(&END_TO_END) {
                assert_eq!(reading.unit, m.unit);
                if m.listed {
                    assert!(
                        reading.value.is_finite() && reading.value > 0.0,
                        "{} {} = {}",
                        workload.name(),
                        m.name,
                        reading.value
                    );
                }
            }
        }
    }
}
