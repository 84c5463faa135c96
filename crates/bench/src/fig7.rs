//! Figure 7: CDF of per-device workload with and without tree trimming.
//!
//! Not a [`crate::figure::Figure`]: it trains nothing. Its numbers are the
//! tree constructor's per-device workloads, read off two
//! `construct_assignment` calls per dataset, not metrics of trained cells.

use lumos_balance::{CompareBackend, SecurityMode};
use lumos_common::stats::Ecdf;
use lumos_common::table::Table;
use lumos_core::construct_assignment;
use lumos_data::Dataset;

use crate::args::HarnessArgs;
use crate::emit::{self, Record, Value};
use crate::presets::{datasets, mcmc_iterations_for};

/// Workload distributions for one dataset.
#[derive(Debug)]
pub struct Fig7Result {
    /// Dataset name.
    pub dataset: String,
    /// CDF of trimmed workloads.
    pub trimmed: Ecdf,
    /// CDF of untrimmed workloads (raw degrees).
    pub untrimmed: Ecdf,
}

/// Runs the Figure 7 experiment.
pub fn run(args: &HarnessArgs) -> Vec<Fig7Result> {
    datasets(args.scale)
        .into_iter()
        .map(|ds: Dataset| {
            let workloads = |trim, mcmc| {
                let (mode, backend) = (SecurityMode::CostModel, CompareBackend::Scalar);
                let (_, rep) =
                    construct_assignment(&ds.graph, trim, mcmc, mode, backend, args.seed, None);
                Ecdf::new(rep.workloads.iter().map(|&w| w as f64).collect())
            };
            Fig7Result {
                trimmed: workloads(true, mcmc_iterations_for(args.scale, &ds.name)),
                untrimmed: workloads(false, 0),
                dataset: ds.name,
            }
        })
        .collect()
}

/// The CDF points the table shows, `P(w ≤ x)`.
const POINTS: [(&str, f64); 5] = [
    ("P(w≤5)", 5.0),
    ("P(w≤10)", 10.0),
    ("P(w≤20)", 20.0),
    ("P(w≤40)", 40.0),
    ("P(w≤80)", 80.0),
];

/// Renders the CDF series on a shared grid plus the max-workload headline
/// (the paper: Facebook 39 vs >150, LastFM 16 vs >100).
pub fn table(results: &[Fig7Result]) -> Table {
    let mut records = Vec::new();
    for r in results {
        for (series, e) in [("Lumos", &r.trimmed), ("Lumos w.o. TT", &r.untrimmed)] {
            let mut record: Record = vec![
                ("dataset", Value::Str(r.dataset.clone())),
                ("series", Value::Str(series.into())),
                ("max", Value::UInt(e.max() as u64)),
            ];
            record.extend(POINTS.map(|(header, x)| (header, Value::Num(e.eval(x)))));
            records.push(record);
        }
    }
    emit::table(
        "Figure 7: workload CDF with/without tree trimming",
        &records,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumos_data::Scale;

    #[test]
    fn trimming_removes_the_heavy_tail() {
        let args = HarnessArgs {
            scale: Scale::Smoke,
            seed: 4,
            quick: false,
            json: None,
            sensitivity: false,
        };
        let results = run(&args);
        assert_eq!(results.len(), 2);
        for r in &results {
            assert!(
                r.trimmed.max() * 2.0 <= r.untrimmed.max(),
                "{}: trimmed max {} vs untrimmed {}",
                r.dataset,
                r.trimmed.max(),
                r.untrimmed.max()
            );
            // CDF dominance at the tail: more mass below 20 after trimming.
            assert!(r.trimmed.eval(20.0) >= r.untrimmed.eval(20.0));
        }
        assert_eq!(table(&results).len(), 4);
    }
}
