//! Paper scale, accounted for: one `run_lumos` on a §VIII-A dataset with
//! its wall seconds per phase and its resident bytes per owner.
//!
//! The bytes are computed — `len × size_of` over what the run and the
//! dataset hold when the run ends ([`lumos_core::RunFootprint`]) — not read
//! from an allocator, so the table says *who* holds the memory; the
//! process's peak RSS (`VmHWM`) sits beside the total, and the gap between
//! them is what nobody in the table owns: transients that were freed before
//! the end (one sender's messages, a step's dropout masks), allocator slack,
//! the binary itself.
//!
//! [`PhaseRow`] and [`OwnerRow`] list their columns once, in
//! [`Row::record`]; the `paper_scale` binary hands them to [`crate::emit`]
//! for the tables and the `BENCH_paper.json` record.

use lumos_core::{run_lumos_measured, LumosConfig, TaskKind};
use lumos_data::{Dataset, Scale};
use lumos_gnn::Backbone;

use crate::emit::{Record, Row, Value};

/// The §VIII-A stand-in called `name` — `"lastfm"` (7,624 × 128 at paper
/// scale) or `"facebook"` (22,470 × 4,714).
pub fn dataset(name: &str, scale: Scale) -> Option<Dataset> {
    match name {
        "lastfm" => Some(Dataset::lastfm_like(scale)),
        "facebook" => Some(Dataset::facebook_like(scale)),
        _ => None,
    }
}

/// Wall seconds one phase of the run took.
#[derive(Debug, Clone)]
pub struct PhaseRow {
    /// Phase name (`generate` is the dataset, the rest are `run_lumos`'s).
    pub phase: &'static str,
    /// Seconds, summed over the epochs for a per-epoch phase.
    pub secs: f64,
}

impl Row for PhaseRow {
    const TITLE: &'static str = "Seconds per phase";

    fn record(&self) -> Record {
        vec![
            ("phase", Value::Str(self.phase.into())),
            ("secs", Value::Num(self.secs)),
        ]
    }
}

/// Bytes one owner holds.
#[derive(Debug, Clone)]
pub struct OwnerRow {
    /// Who holds them.
    pub owner: &'static str,
    /// `len × size_of` over the owner's arrays.
    pub bytes: u64,
}

impl Row for OwnerRow {
    const TITLE: &'static str = "Bytes by owner";

    fn record(&self) -> Record {
        vec![
            ("owner", Value::Str(self.owner.into())),
            ("bytes", Value::UInt(self.bytes)),
            ("mib", Value::Num(self.bytes as f64 / MIB)),
        ]
    }
}

const MIB: f64 = 1024.0 * 1024.0;

/// One measured run.
#[derive(Debug, Clone)]
pub struct PaperRun {
    /// Vertices (devices) and feature width of the generated dataset.
    pub devices: usize,
    /// Feature dimensionality.
    pub feature_dim: usize,
    /// Seconds per phase, dataset generation first.
    pub phases: Vec<PhaseRow>,
    /// Bytes per owner, the dataset's three arrays first.
    pub owners: Vec<OwnerRow>,
    /// Sum over `owners`.
    pub accounted_bytes: u64,
    /// The process's peak resident set (`VmHWM`), where `/proc` offers it.
    pub peak_rss_bytes: Option<u64>,
    /// [`lumos_core::RunFootprint::secs_per_epoch`].
    pub secs_per_epoch: f64,
    /// Training loss after the first and after the last epoch.
    pub first_loss: f64,
    /// See `first_loss`.
    pub last_loss: f64,
    /// Held-out test metric.
    pub test_metric: f64,
}

/// Runs Lumos on `ds`, which took `generate_secs` to generate (GCN,
/// supervised — the paper's headline configuration), for `epochs` epochs
/// after `mcmc` constructor iterations.
pub fn measure(
    ds: &Dataset,
    generate_secs: f64,
    epochs: usize,
    mcmc: usize,
    seed: u64,
) -> PaperRun {
    let cfg = LumosConfig::new(Backbone::Gcn, TaskKind::Supervised)
        .with_epochs(epochs)
        .with_mcmc_iterations(mcmc)
        .with_seed(seed);
    let (report, footprint) = run_lumos_measured(ds, &cfg);

    let mut phases = vec![PhaseRow {
        phase: "generate",
        secs: generate_secs,
    }];
    phases.extend(
        footprint
            .phase_secs
            .iter()
            .map(|&(phase, secs)| PhaseRow { phase, secs }),
    );

    let n = ds.num_nodes();
    let adjacency =
        2 * ds.graph.num_edges() * std::mem::size_of::<u32>() + n * std::mem::size_of::<Vec<u32>>();
    let mut owners = vec![
        OwnerRow {
            owner: "dataset features",
            bytes: std::mem::size_of_val(&ds.features[..]) as u64,
        },
        OwnerRow {
            owner: "dataset graph + labels",
            bytes: (adjacency + std::mem::size_of_val(&ds.labels[..])) as u64,
        },
    ];
    owners.extend(
        footprint
            .bytes
            .iter()
            .map(|&(owner, bytes)| OwnerRow { owner, bytes }),
    );

    PaperRun {
        devices: n,
        feature_dim: ds.feature_dim,
        accounted_bytes: owners.iter().map(|o| o.bytes).sum(),
        peak_rss_bytes: peak_rss_bytes(),
        secs_per_epoch: footprint.secs_per_epoch(),
        first_loss: report.rounds.first().map_or(f64::NAN, |r| r.loss),
        last_loss: report.rounds.last().map_or(f64::NAN, |r| r.loss),
        test_metric: report.test_metric,
        phases,
        owners,
    }
}

/// `VmHWM` of this process in bytes: the kernel's own high-water mark of the
/// resident set.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

impl PaperRun {
    /// The run's scalars, in the order `BENCH_paper.json` lists them.
    pub fn summary(&self) -> Record {
        let mib = |bytes: u64| Value::Num(bytes as f64 / MIB);
        vec![
            ("devices", Value::UInt(self.devices as u64)),
            ("feature_dim", Value::UInt(self.feature_dim as u64)),
            ("secs_per_epoch", Value::Num(self.secs_per_epoch)),
            ("first_loss", Value::Num(self.first_loss)),
            ("last_loss", Value::Num(self.last_loss)),
            ("test_metric", Value::Num(self.test_metric)),
            ("accounted_mib", mib(self.accounted_bytes)),
            ("peak_rss_mib", self.peak_rss_bytes.map_or(Value::Null, mib)),
            (
                "accounted_share_of_peak",
                self.peak_rss_bytes.map_or(Value::Null, |peak| {
                    Value::Num(self.accounted_bytes as f64 / peak as f64)
                }),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emit::tests::assert_has_keys;

    #[test]
    fn a_small_run_accounts_for_its_phases_and_owners() {
        let ds = dataset("lastfm", Scale::Smoke).expect("a known name");
        assert!(dataset("orkut", Scale::Smoke).is_none());
        let run = measure(&ds, 0.25, 2, 5, 7);
        let phase_names: Vec<&str> = run.phases.iter().map(|p| p.phase).collect();
        for phase in ["generate", "constructor", "exchange", "batch_build", "step"] {
            assert!(phase_names.contains(&phase), "{phase} in {phase_names:?}");
        }
        assert!(run.owners.iter().all(|o| o.bytes > 0), "{:?}", run.owners);
        // The coded memo is smaller than the float rows it replaced: one
        // `dim`-float row per pair was the floor before.
        let memo = run.owners.iter().find(|o| o.owner == "recovered memo");
        let features = &run.owners[0];
        assert!(memo.expect("memo row").bytes < 4 * features.bytes);
        assert_eq!(
            run.accounted_bytes,
            run.owners.iter().map(|o| o.bytes).sum::<u64>()
        );
        assert!(run.last_loss.is_finite() && run.secs_per_epoch > 0.0);
        // What the CI step reads.
        let read_by_ci = [
            "devices",
            "feature_dim",
            "secs_per_epoch",
            "peak_rss_mib",
            "last_loss",
        ];
        assert_has_keys(&run.summary(), &read_by_ci);
    }
}
