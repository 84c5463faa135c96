//! The trained grids as data: Figs. 3–6 and 8 of the paper's evaluation
//! (§VIII) are the [`Figure`] values in [`FIGURES`], and the CI sweeps over
//! heterogeneous and faulty fleets are the ones in [`SWEEPS`]. A figure's
//! rows are a [`Grid`] of config-space values on each of its datasets; each
//! row trains one labelled Lumos or baseline cell per variant. Its tables
//! read named metrics off the cells' reports, and the orderings it claims
//! are [`Claim`]s, which the tests assert. One runner ([`Figure::run`])
//! trains any figure, two cells at a time, and [`crate::emit`] renders every
//! table and JSON record.

use lumos_baselines::{run_centralized, run_lpgnn, run_naive_fedgnn, BaselineConfig};
use lumos_common::table::Table;
use lumos_core::{run_lumos_measured, AggregationPolicy, LumosConfig};
use lumos_core::{RunReport, SimSummary, TaskKind};
use lumos_data::{Dataset, Scale};
use lumos_gnn::Backbone;
use lumos_sim::{FaultSpec, Scenario};

use crate::args::HarnessArgs;
use crate::emit::{self, Record};
use crate::presets::{datasets, epochs_for, map_pairs, mcmc_iterations_for};
use crate::space::{
    self, Grid, Setting, BACKBONES, BUFFERED, DEADLINE, HIER_4, TASKS, VIRTUAL_SECS,
};
use emit::Value::{Fixed, Null, Num, UInt};

use Backbone::Gcn;
use Order::{Above, Equal, Near, NotBelow, Saves};
use Rhs::{Const, Series};
use Scenario::{Churn, StragglerTail, Uniform};
use TaskKind::{Supervised, Unsupervised};
use Value::{Diff, Gain, Of, Same, Saved, Score};

/// What a cell trains.
#[derive(Debug, Clone)]
pub enum Run {
    /// Lumos under this config.
    Lumos(LumosConfig),
    /// The centralized GNN, which sees every raw feature.
    Centralized(BaselineConfig),
    /// LPGNN (supervised only, §VIII-C).
    Lpgnn(BaselineConfig),
    /// Naive FedGNN.
    Naive(BaselineConfig),
}

/// What one cell measured.
#[derive(Debug, Clone)]
pub struct Measured {
    /// The run's report.
    pub report: RunReport,
    /// Wall seconds per epoch, `RunFootprint::secs_per_epoch` (`NaN` for a
    /// baseline, which is not timed).
    pub secs: f64,
}

impl Run {
    /// Trains the run on `ds`.
    pub(crate) fn measure(&self, ds: &Dataset) -> Measured {
        let (report, secs) = match self {
            Run::Lumos(cfg) => {
                let (report, footprint) = run_lumos_measured(ds, cfg);
                (report, footprint.secs_per_epoch())
            }
            Run::Centralized(cfg) => (run_centralized(ds, cfg), f64::NAN),
            Run::Lpgnn(cfg) => (run_lpgnn(ds, cfg), f64::NAN),
            Run::Naive(cfg) => {
                let report = run_naive_fedgnn(ds, cfg);
                (report, f64::NAN)
            }
        };
        Measured { report, secs }
    }
}

/// A metric of one cell: its value, as tables and JSON show it.
pub type Metric = fn(&Measured) -> emit::Value;

/// Test accuracy (supervised) or ROC-AUC (unsupervised).
pub const TEST: Metric = |m| Num(m.report.test_metric);
/// Messages per device per epoch (Fig. 8a).
pub const MESSAGES: Metric = |m| Num(m.report.avg_messages_per_device_per_epoch);
/// Wall seconds per epoch (Fig. 8b), shown at 4 decimals.
pub const EPOCH_SECS: Metric = |m| Fixed(m.secs, 4);
/// Modelled straggler makespan per epoch.
pub const MAKESPAN: Metric = |m| Num(m.report.avg_epoch_makespan);
/// Simulated seconds per epoch. This and every metric below read the run's
/// [`SimSummary`].
pub const SIM_SECS: Metric = |m| Num(sim(m).avg_epoch_virtual_secs);
/// Mean device utilization.
pub const UTILIZATION: Metric = |m| Num(sim(m).mean_utilization);
/// The most frequent straggler's device id (`null` when none).
pub const STRAGGLER: Metric = |m| {
    sim(m)
        .dominant_straggler()
        .map_or(Null, |(d, _)| UInt(d.into()))
};
/// Device-rounds lost to churn.
pub const ABSENT: Metric = |m| UInt(sim(m).dropped_device_rounds);
/// Device-rounds the policy cut from a barrier.
pub const LATE: Metric = |m| UInt(sim(m).late_drops);
/// Updates carried to a later round.
pub const CARRIED: Metric = |m| UInt(sim(m).buffered_updates);
/// Updates discarded forever.
pub const WASTED: Metric = |m| UInt(sim(m).wasted_updates);
/// Tree nodes the live re-balancer moved.
pub const MIGRATED: Metric = |m| UInt(sim(m).migrated_nodes);
/// Send attempts lost in transit.
pub const LOST: Metric = |m| UInt(sim(m).lost_messages);
/// Retransmissions scheduled.
pub const RETRIES: Metric = |m| UInt(sim(m).retries);
/// Virtual seconds of timeout and backoff before the retries.
pub const RETRY_SECS: Metric = |m| Num(sim(m).retry_secs);
/// Device-rounds lost to mid-round crashes.
pub const CRASHED: Metric = |m| UInt(sim(m).crashed_devices);
/// Shard-rounds served by a failover successor.
pub const FAILOVERS: Metric = |m| UInt(sim(m).failovers);

fn sim(m: &Measured) -> &SimSummary {
    let sim = m.report.sim.as_ref();
    sim.expect("a simulation metric reads a scenario run")
}

/// One table row: the measured cells of one grid point on one dataset.
#[derive(Debug, Clone)]
pub struct Row {
    /// Dataset name.
    pub dataset: String,
    /// The row's config — the figure's base with the point's values set —
    /// which its key columns read and its cells vary.
    pub config: LumosConfig,
    /// The dataset's devices, which the async quorum resolves against.
    pub(crate) devices: usize,
    pub(crate) cells: Vec<(&'static str, Measured)>,
}

impl Row {
    fn cell(&self, series: &str) -> &Measured {
        let cell = self.cells.iter().find(|(s, _)| *s == series);
        let (_, m) = cell.unwrap_or_else(|| panic!("no '{series}' cell in a {} row", self.dataset));
        m
    }

    /// The row's value of key column `header`: the dataset, or the value
    /// of the config axis the column names.
    ///
    /// # Panics
    /// Panics on a header that names no key column.
    pub(crate) fn key(&self, header: &str) -> emit::Value {
        use emit::Value::{Bool, Null, Num, Str, UInt};
        let c = &self.config;
        let (loss, crash) = match c.faults {
            FaultSpec::Faults {
                loss_rate,
                crash_rate,
                ..
            } => (loss_rate, crash_rate),
            FaultSpec::None => (0.0, 0.0),
        };
        match header {
            "dataset" => Str(self.dataset.clone()),
            "backbone" => Str(c.backbone.name().into()),
            "task" => Str(c.task.name().into()),
            "scenario" => Str(c.scenario.map_or("none", Scenario::name).into()),
            "loss_rate" => Num(loss),
            "crash_rate" => Num(crash),
            "outage" => Bool(!c.faults.outages().is_empty()),
            "decay" => match c.aggregation_policy {
                AggregationPolicy::Buffered { decay, .. } => Num(decay),
                _ => Null,
            },
            "threshold" => Num(c.rebalance_threshold),
            "patience" => UInt(c.rebalance_patience.into()),
            _ => panic!("no key column '{header}'"),
        }
    }

    /// The baselines' config for the row: its backbone, task, epochs and
    /// seed.
    pub(crate) fn baseline(&self) -> BaselineConfig {
        let c = &self.config;
        let base = BaselineConfig::new(c.backbone, c.task);
        base.with_epochs(c.epochs).with_seed(c.seed)
    }

    /// Whether every key column `at` names shows the value it names.
    pub(crate) fn is(&self, at: At) -> bool {
        at.iter().all(|&(h, v)| self.key(h).cell() == v)
    }
}

/// What a value column shows of a row.
#[derive(Debug, Clone, Copy)]
pub enum Value {
    /// A series' metric.
    Of(&'static str, Metric),
    /// A series' [`TEST`] as the paper shows it: accuracy in %
    /// (supervised rows), ROC-AUC at 4 decimals (unsupervised ones).
    Score(&'static str),
    /// `(reference − series) / reference` in %: what the first series saves
    /// against the second.
    Saved(&'static str, &'static str, Metric),
    /// `(series − reference) / reference` in %: what the first series gains
    /// over the second.
    Gain(&'static str, &'static str, Metric),
    /// `series − reference`.
    Diff(&'static str, &'static str, Metric),
    /// Whether the two series' reports are bit-identical (equal
    /// `RunReport::digest`s).
    Same(&'static str, &'static str),
}

impl Value {
    /// The value on `row`, as tables and JSON show it; a percentage of a
    /// zero reference is not finite, which shows as `n/a` / `null`.
    pub fn on(self, row: &Row) -> emit::Value {
        use emit::Value::{Bool, Fixed, Num};
        let num = |series, metric: Metric| metric(row.cell(series)).num();
        match self {
            Of(series, metric) => metric(row.cell(series)),
            Score(series) if row.config.task == Supervised => Num(100.0 * num(series, TEST)),
            Score(series) => Fixed(num(series, TEST), 4),
            Saved(a, b, m) => Num((num(b, m) - num(a, m)) / num(b, m) * 100.0),
            Gain(a, b, m) => Num((num(a, m) - num(b, m)) / num(b, m) * 100.0),
            Diff(a, b, m) => Num(num(a, m) - num(b, m)),
            Same(a, b) => Bool(row.cell(a).report.digest() == row.cell(b).report.digest()),
        }
    }

    /// The value on `row` as a number (`true` is 1).
    pub fn of(self, row: &Row) -> f64 {
        self.on(row).num()
    }

    /// The series the value reads.
    fn series(self) -> [&'static str; 2] {
        match self {
            Of(s, _) | Score(s) => [s, s],
            Saved(a, b, _) | Gain(a, b, _) | Diff(a, b, _) | Same(a, b) => [a, b],
        }
    }
}

/// A table: its title and its value columns, after the figure's key columns.
pub type TableSpec = (&'static str, &'static [(&'static str, Value)]);

/// How a claim's left side must stand to its right, with its margin.
#[derive(Debug, Clone, Copy)]
pub enum Order {
    /// `lhs > rhs + margin`.
    Above(f64),
    /// `lhs ≥ rhs − margin`: not clearly below.
    NotBelow(f64),
    /// `|lhs − rhs| < margin`.
    Near(f64),
    /// `(rhs − lhs) / rhs > margin`: lhs saves more than that share of rhs.
    Saves(f64),
    /// `lhs == rhs`.
    Equal,
}

/// A claim's right side.
#[derive(Debug, Clone, Copy)]
pub enum Rhs {
    /// The left side's metric on another series of the same row.
    Series(&'static str),
    /// A constant.
    Const(f64),
    /// The left side on the first row `At` selects (a figure whose rows
    /// differ in the `At` columns alone, as the hetero sweep's fleets do).
    Row(At),
}

/// The rows a claim reads: those whose key columns show these values
/// (`&[]` is every row).
pub type At = &'static [(&'static str, &'static str)];

/// An ordering claimed of a figure: on every row `at` selects, `lhs` stands
/// to `rhs` as `order` says.
#[derive(Debug, Clone, Copy)]
pub struct Claim {
    /// The rows.
    pub at: At,
    /// The left side.
    pub lhs: Value,
    /// The ordering and its margin.
    pub order: Order,
    /// The right side.
    pub rhs: Rhs,
    /// What the paper (or the sweep) says, paraphrased.
    pub says: &'static str,
}

impl Claim {
    /// Whether the claim reads `row`'s `series` cell.
    pub(crate) fn reads(&self, row: &Row, series: &str) -> bool {
        let named =
            self.lhs.series().contains(&series) || matches!(self.rhs, Series(s) if s == series);
        let other = matches!(self.rhs, Rhs::Row(at) if row.is(at));
        named && (row.is(self.at) || other)
    }

    /// Checks the claim on `rows`; the error is the claim and both sides'
    /// values where it fails.
    pub(crate) fn check(&self, rows: &[Row]) -> Result<(), String> {
        let mut claimed = rows.iter().filter(|r| r.is(self.at)).peekable();
        claimed.peek().ok_or(format!("{self:?}: no such row"))?;
        for row in claimed {
            let l = self.lhs.of(row);
            let r = match (self.rhs, self.lhs) {
                (Const(c), _) => c,
                (Series(s), Of(_, metric)) => Of(s, metric).of(row),
                (Series(_), lhs) => panic!("{lhs:?} has no metric for a Series side"),
                (Rhs::Row(at), lhs) => {
                    let other = rows.iter().find(|o| o.is(at));
                    lhs.of(other.ok_or(format!("{self:?}: no row at {at:?}"))?)
                }
            };
            let holds = match self.order {
                Above(m) => l > r + m,
                NotBelow(m) => l >= r - m,
                Near(m) => (l - r).abs() < m,
                Saves(m) => (r - l) / r > m,
                Equal => l == r,
            };
            if !holds {
                return Err(format!("{self:?} on {}: {l} vs {r}", row.dataset));
            }
        }
        Ok(())
    }
}

/// A cell's variant: its series label, and the run it makes of its row.
pub type Variant = (&'static str, fn(&Row) -> Run);

/// A trained figure: its grid, its tables and its claims.
#[derive(Debug)]
pub struct Figure {
    /// The figure's name (its binary's, for the paper's figures).
    pub name: &'static str,
    /// The datasets it runs on.
    pub datasets: fn(Scale) -> Vec<Dataset>,
    /// Its rows on each dataset: the grid points, the first list slowest.
    pub grid: fn(&HarnessArgs) -> Grid,
    /// The epochs a cell trains.
    pub epochs: fn(&HarnessArgs, TaskKind) -> usize,
    /// The key columns its tables lead with (`Row::key`).
    pub keys: &'static [&'static str],
    /// The cells of each row.
    pub variants: &'static [Variant],
    /// Its tables over the same rows: the figure's own first, then
    /// follow-ups (Fig. 3's).
    pub tables: &'static [TableSpec],
    /// The orderings claimed of it.
    pub claims: &'static [Claim],
}

impl Figure {
    /// The figure named `name`.
    ///
    /// # Panics
    /// Panics if neither [`FIGURES`] nor [`SWEEPS`] has that name.
    pub fn named(name: &str) -> &'static Figure {
        let figure = FIGURES.iter().chain(&SWEEPS).find(|f| f.name == name);
        figure.unwrap_or_else(|| panic!("no figure '{name}'"))
    }

    /// Its rows on `ds`, cells not yet trained: the scale's MCMC budget and
    /// the harness seed, then the point's values, then the figure's epochs
    /// for the task.
    pub(crate) fn rows_on(&self, ds: &Dataset, args: &HarnessArgs) -> Vec<Row> {
        let start = LumosConfig::new(Gcn, Supervised).with_seed(args.seed);
        let start = start.with_mcmc_iterations(mcmc_iterations_for(args.scale, &ds.name));
        let row = |point: Vec<Setting>| {
            let config = space::apply(start.clone(), &point);
            let config = config.clone().with_epochs((self.epochs)(args, config.task));
            let (dataset, devices, cells) = (ds.name.clone(), ds.num_nodes(), vec![]);
            Row {
                dataset,
                config,
                devices,
                cells,
            }
        };
        (self.grid)(args).points().into_iter().map(row).collect()
    }

    /// Trains every cell.
    pub fn run(&self, args: &HarnessArgs) -> Vec<Row> {
        self.run_where(args, |_, _| true)
    }

    /// The rows the claims `keep` selects read, trained only in the cells
    /// they read, and the claims that fail on them under `args`, each as its
    /// `Claim::check` error.
    pub fn claimed(
        &self,
        args: &HarnessArgs,
        keep: impl Fn(&Claim) -> bool,
    ) -> (Vec<Row>, Vec<String>) {
        let kept: Vec<&Claim> = self.claims.iter().filter(|k| keep(k)).collect();
        let reads = |row: &Row, s: &str| kept.iter().any(|k| k.reads(row, s));
        let rows = self.run_where(args, reads);
        let failed = kept.iter().filter_map(|k| k.check(&rows).err()).collect();
        (rows, failed)
    }

    /// Trains the cells `keep` selects by row and series, two at a time;
    /// a row none of whose cells is kept is left out. Cells of one dataset
    /// whose runs are equal share one training (chaos's fault-free
    /// baseline is one run per fleet, not one per row).
    pub(crate) fn run_where(
        &self,
        args: &HarnessArgs,
        keep: impl Fn(&Row, &str) -> bool,
    ) -> Vec<Row> {
        let datasets = (self.datasets)(args.scale);
        let (mut rows, mut cells) = (Vec::new(), Vec::new());
        let mut runs: Vec<(String, Run, &Dataset)> = Vec::new();
        for ds in &datasets {
            for row in self.rows_on(ds, args) {
                for (series, variant) in self.variants.iter().filter(|(s, _)| keep(&row, s)) {
                    let (run, name) = (variant(&row), &ds.name);
                    let key = format!("{name} {run:?}");
                    let i = runs.iter().position(|(k, ..)| *k == key);
                    cells.push((rows.len(), *series, i.unwrap_or(runs.len())));
                    if i.is_none() {
                        runs.push((key, run, ds));
                    }
                }
                rows.push(row);
            }
        }
        let measured = map_pairs(&runs, |(_, run, ds)| run.measure(ds));
        for (row, series, i) in cells {
            rows[row].cells.push((series, measured[i].clone()));
        }
        rows.retain(|r| !r.cells.is_empty());
        rows
    }

    /// Each table's records over `rows`: the key columns, then its values.
    pub fn records(&self, rows: &[Row]) -> Vec<Vec<Record>> {
        let record = |columns: &[(&'static str, Value)], row: &Row| -> Record {
            let values = columns.iter().map(|&(h, v)| (h, v.on(row)));
            self.keys
                .iter()
                .map(|&k| (k, row.key(k)))
                .chain(values)
                .collect()
        };
        let table = |(_, columns): &TableSpec| rows.iter().map(|r| record(columns, r)).collect();
        self.tables.iter().map(table).collect()
    }

    /// The figure's tables over `rows`.
    pub fn tables(&self, rows: &[Row]) -> Vec<Table> {
        let titled = self.tables.iter().zip(self.records(rows));
        titled.map(|((t, _), r)| emit::table(t, &r)).collect()
    }

    /// Trains the figure under `args`, prints its tables and returns its
    /// first table's records: a sweep's JSON rows.
    pub fn print(&self, args: &HarnessArgs) -> Vec<Record> {
        let rows = self.run(args);
        self.tables(&rows).iter().for_each(Table::print);
        self.records(&rows).swap_remove(0)
    }
}

/// Parses the harness flags, runs the figure named `name` and prints its
/// tables: the whole of each figure binary.
pub fn main(name: &str) {
    Figure::named(name).print(&HarnessArgs::parse());
}

/// The tasks × backbones grid of the accuracy and cost figures.
fn models(tasks: &[TaskKind], backbones: &[Backbone]) -> Grid {
    let tasks = tasks.iter().map(|&t| Setting::Task(t)).collect();
    let backbones = backbones.iter().map(|&b| Setting::Backbone(b)).collect();
    Grid(vec![tasks, backbones])
}

/// The fleets a sweep's grid crosses.
fn fleets(scenarios: &[Scenario]) -> Vec<Setting> {
    let fleets = scenarios.iter().map(|&s| Some(s));
    fleets.map(Setting::Scenario).collect()
}

/// The paper's datasets at a scale's preset epochs.
fn preset_epochs(args: &HarnessArgs, task: TaskKind) -> usize {
    epochs_for(args.scale, task, args.quick)
}

/// The sweeps' window: makespan and recovery statistics settle quickly and
/// do not depend on convergence, so 8 epochs (4 in quick mode).
fn cost_epochs(args: &HarnessArgs, _: TaskKind) -> usize {
    if args.quick {
        4
    } else {
        8
    }
}

const LUMOS: Variant = ("Lumos", |r| Run::Lumos(r.config.clone()));
const CENTRALIZED: Variant = ("Centralized", |r| Run::Centralized(r.baseline()));
const LPGNN: Variant = ("LPGNN", |r| Run::Lpgnn(r.baseline()));
const NAIVE: Variant = ("Naive FedGNN", |r| Run::Naive(r.baseline()));
const NO_VN: Variant = ("w.o. VN", |r| {
    Run::Lumos(r.config.clone().without_virtual_nodes())
});
const NO_TT: Variant = ("w.o. TT", |r| {
    Run::Lumos(r.config.clone().without_tree_trimming())
});

/// The key values the paper's claims select by.
const FACEBOOK: (&str, &str) = ("dataset", "facebook");
const LASTFM: (&str, &str) = ("dataset", "lastfm");
const GCN: (&str, &str) = ("backbone", "GCN");
const CLASSIFY: (&str, &str) = ("task", "supervised");
const PREDICT_LINKS: (&str, &str) = ("task", "unsupervised");
/// Facebook / LastFM, GCN, node classification or link prediction: the
/// rows the paper's claims read.
const FB_CLASSIFY: At = &[FACEBOOK, GCN, CLASSIFY];
const LFM_CLASSIFY: At = &[LASTFM, GCN, CLASSIFY];
const FB_LINKS: At = &[FACEBOOK, GCN, PREDICT_LINKS];
const LFM_LINKS: At = &[LASTFM, GCN, PREDICT_LINKS];

/// A claim that `lhs`'s `metric` stands to `rhs` as `order` says on the
/// rows `at` selects.
#[rustfmt::skip]
const fn claim(at: At, metric: Metric, lhs: &'static str, order: Order, rhs: Rhs, says: &'static str) -> Claim {
    Claim { at, lhs: Of(lhs, metric), order, rhs, says }
}

const CEILING: &str = "Fig. 3: the centralized GNN, which sees every raw feature, is the ceiling";
const OVER_NAIVE: &str = "Fig. 3: Lumos beats naive FedGNN (abstract: +39.48% accuracy)";
const LINK_CEILING: &str = "Fig. 4: the centralized GNN is the ceiling of link prediction";
const COMM: &str = "Fig. 8a: tree trimming cuts the messages a device sends per epoch";
const SHORTER: &str = "Fig. 8b: tree trimming shortens the straggler's epoch";
const TIMED: &str = "Fig. 8b: an epoch's wall time is measured";

/// The five trained figures of the paper, in the order `run_all` prints
/// them: the cost figure (ten epochs a cell) first, then the accuracy
/// figures. A figure's rows are its tasks × backbones on each dataset, its
/// columns the variants; a claim is one ordering a line: rows, metric, lhs,
/// order, rhs, what the paper says.
#[rustfmt::skip]
pub static FIGURES: [Figure; 5] = [
    Figure {
        name: "fig8_system_cost",
        datasets,
        grid: |_| models(&TASKS, &[Gcn]),
        // Communication and per-epoch time do not depend on convergence:
        // a 10-epoch window.
        epochs: |_, _| 10,
        keys: &["dataset", "task"],
        variants: &[LUMOS, NO_TT],
        tables: &[("Figure 8: system cost with (Lumos) vs without (w.o. TT) trimming", &[
            ("msgs/dev/epoch", Of("Lumos", MESSAGES)),
            ("msgs w.o. TT", Of("w.o. TT", MESSAGES)),
            ("saved %", Saved("Lumos", "w.o. TT", MESSAGES)),
            ("epoch secs", Of("Lumos", EPOCH_SECS)),
            ("epoch secs w.o. TT", Of("w.o. TT", EPOCH_SECS)),
            ("saved %", Saved("Lumos", "w.o. TT", EPOCH_SECS)),
            ("makespan", Of("Lumos", MAKESPAN)),
            ("makespan w.o. TT", Of("w.o. TT", MAKESPAN)),
            ("saved %", Saved("Lumos", "w.o. TT", MAKESPAN)),
        ])],
        claims: &[
            claim(FB_CLASSIFY,  MESSAGES,  "Lumos",   Saves(0.0),  Series("w.o. TT"), COMM),
            claim(FB_LINKS,     MESSAGES,  "Lumos",   Saves(0.0),  Series("w.o. TT"), COMM),
            claim(LFM_CLASSIFY, MESSAGES,  "Lumos",   Saves(0.10), Series("w.o. TT"),
                  "Fig. 8a: trimming saves 27–43% of the messages; a double-digit share here"),
            claim(FB_CLASSIFY,  MAKESPAN,  "Lumos",   Saves(0.0),  Series("w.o. TT"), SHORTER),
            claim(FB_LINKS,     MAKESPAN,  "Lumos",   Saves(0.0),  Series("w.o. TT"), SHORTER),
            claim(LFM_CLASSIFY, MAKESPAN,  "Lumos",   Saves(0.0),  Series("w.o. TT"), SHORTER),
            claim(FB_CLASSIFY,  EPOCH_SECS, "Lumos",   Above(0.0),  Const(0.0),        TIMED),
            claim(FB_CLASSIFY,  EPOCH_SECS, "w.o. TT", Above(0.0),  Const(0.0),        TIMED),
            claim(FB_LINKS,     EPOCH_SECS, "Lumos",   Above(0.0),  Const(0.0),        TIMED),
            claim(FB_LINKS,     EPOCH_SECS, "w.o. TT", Above(0.0),  Const(0.0),        TIMED),
        ],
    },
    Figure {
        name: "fig3_supervised",
        datasets,
        grid: |_| models(&[Supervised], &BACKBONES),
        epochs: preset_epochs,
        keys: &["dataset", "backbone"],
        // LPGNN only classifies (§VIII-C).
        variants: &[LUMOS, CENTRALIZED, LPGNN, NAIVE],
        tables: &[
            ("Figure 3: label classification accuracy (%)", &[
                ("Lumos", Score("Lumos")),
                ("Centralized", Score("Centralized")),
                ("LPGNN", Score("LPGNN")),
                ("Naive FedGNN", Score("Naive FedGNN")),
            ]),
            ("Figure 3 follow-ups (paper §VIII-D1 claims)", &[
                ("loss vs centralized (%)", Saved("Lumos", "Centralized", TEST)),
                ("gain vs LPGNN (%)", Gain("Lumos", "LPGNN", TEST)),
                ("gain vs naive (%)", Gain("Lumos", "Naive FedGNN", TEST)),
            ]),
        ],
        claims: &[
            claim(FB_CLASSIFY,  TEST, "Centralized", NotBelow(0.0), Series("Lumos"),        CEILING),
            claim(LFM_CLASSIFY, TEST, "Centralized", NotBelow(0.0), Series("Lumos"),        CEILING),
            claim(FB_CLASSIFY,  TEST, "Lumos",       Above(0.1),    Series("Naive FedGNN"), OVER_NAIVE),
            claim(LFM_CLASSIFY, TEST, "Lumos",       Above(0.0),    Series("Naive FedGNN"), OVER_NAIVE),
        ],
    },
    Figure {
        name: "fig4_link_prediction",
        datasets,
        grid: |_| models(&[Unsupervised], &BACKBONES),
        epochs: preset_epochs,
        keys: &["dataset", "backbone"],
        variants: &[LUMOS, CENTRALIZED, NAIVE],
        tables: &[("Figure 4: link prediction ROC-AUC", &[
            ("Lumos", Score("Lumos")),
            ("Centralized", Score("Centralized")),
            ("Naive FedGNN", Score("Naive FedGNN")),
        ])],
        claims: &[
            claim(LFM_LINKS, TEST, "Centralized", Above(0.0), Const(0.7),             LINK_CEILING),
            claim(LFM_LINKS, TEST, "Centralized", Above(0.0), Series("Lumos"),        LINK_CEILING),
            claim(LFM_LINKS, TEST, "Centralized", Above(0.0), Series("Naive FedGNN"), LINK_CEILING),
        ],
    },
    Figure {
        name: "fig5_epsilon",
        datasets,
        grid: |_| models(&TASKS, &[Gcn]),
        epochs: preset_epochs,
        keys: &["dataset", "task"],
        variants: &[
            ("ε=0.5", |r| Run::Lumos(r.config.clone().with_epsilon(0.5))),
            ("ε=1", |r| Run::Lumos(r.config.clone().with_epsilon(1.0))),
            ("ε=2", |r| Run::Lumos(r.config.clone().with_epsilon(2.0))),
            ("ε=4", |r| Run::Lumos(r.config.clone().with_epsilon(4.0))),
        ],
        tables: &[("Figure 5: effect of privacy parameter ε (GCN)", &[
            ("ε=0.5", Score("ε=0.5")),
            ("ε=1", Score("ε=1")),
            ("ε=2", Score("ε=2")),
            ("ε=4", Score("ε=4")),
        ])],
        claims: &[
            claim(FB_CLASSIFY, TEST, "ε=4", NotBelow(0.02), Series("ε=0.5"),
                  "Fig. 5: accuracy rises with the privacy budget ε"),
        ],
    },
    Figure {
        name: "fig6_ablation",
        datasets,
        grid: |_| models(&TASKS, &BACKBONES),
        // The ablation deltas emerge well before full convergence; trim the
        // unsupervised schedule to keep the 24-run grid tractable.
        epochs: |args, task| match (preset_epochs(args, task), task) {
            (epochs, Unsupervised) => epochs * 2 / 5,
            (epochs, Supervised) => epochs,
        },
        keys: &["dataset", "backbone", "task"],
        variants: &[LUMOS, NO_VN, NO_TT],
        tables: &[("Figure 6: ablation — accuracy/AUC contribution of each module", &[
            ("Lumos", Score("Lumos")),
            ("w.o. VN", Score("w.o. VN")),
            ("w.o. TT", Score("w.o. TT")),
        ])],
        claims: &[
            claim(FB_CLASSIFY, TEST, "Lumos", Above(0.0), Series("w.o. VN"),
                  "Fig. 6: virtual nodes raise accuracy"),
            claim(FB_CLASSIFY, TEST, "Lumos", Near(0.12), Series("w.o. TT"),
                  "Fig. 6: tree trimming costs almost no accuracy"),
        ],
    },
];

/// The hetero figure's series: trimmed under the node-count objective (the
/// barrier), under the capability-weighted one, under the three
/// non-barrier policies, and untrimmed.
const NODES: &str = "tree_nodes";
const VSECS: &str = "virtual_secs";
const CUT: &str = "deadline";
const BANKED: &str = "buffered";
const QUORUM: &str = "async";
const UNTRIMMED: &str = "untrimmed";
/// The chaos figure's series: the faulted run, and the same run without
/// faults.
const FAULTED: &str = "run";
const CALM_RUN: &str = "baseline";

const UNIFORM: At = &[("scenario", "uniform")];
const TAIL: At = &[("scenario", "straggler-tail")];
const CHURN: At = &[("scenario", "churn")];
const EVERY: At = &[];
const FAULT_FREE: At = &[
    ("loss_rate", "0.00"),
    ("crash_rate", "0.00"),
    ("outage", "false"),
];
const LOSSY: At = &[("loss_rate", "0.10")];
const CRASHING: At = &[("crash_rate", "0.05")];
const DARK: At = &[("outage", "true")];

const ZERO: Rhs = Const(0.0);

/// The fleets of the full sensitivity and chaos sweeps.
const TAIL_AND_CHURN: &[Scenario] = &[StragglerTail, Churn];

/// The CI sweeps over heterogeneous and faulty fleets: the Fig. 8 extension
/// (`fig8_hetero`), its buffered sensitivity grid (`--sensitivity`) and the
/// chaos sweep (`chaos_sweep`). Each runs the supervised GCN on the primary
/// dataset and its JSON record is the table's records, which CI's gates
/// read; the claims are asserted at seed 8 (`hetero::tests`,
/// `chaos::tests`).
#[rustfmt::skip]
pub static SWEEPS: [Figure; 3] = [
    Figure {
        name: "fig8_hetero",
        datasets: |scale| vec![Dataset::facebook_like(scale)],
        // Quick mode keeps the three fleets the CI gate reads.
        grid: |args| Grid(vec![fleets(if args.quick { &[Uniform, StragglerTail, Churn] } else { &Scenario::ALL })]),
        epochs: cost_epochs,
        keys: &["dataset", "scenario"],
        variants: &[
            (NODES, |r| Run::Lumos(r.config.clone())),
            (VSECS, |r| Run::Lumos(VIRTUAL_SECS.apply(r.config.clone()))),
            (CUT, |r| Run::Lumos(DEADLINE.apply(r.config.clone()))),
            (BANKED, |r| Run::Lumos(BUFFERED.apply(r.config.clone()))),
            (QUORUM, |r| Run::Lumos(r.config.clone().with_aggregation_policy(space::quorum(r.devices)))),
            (UNTRIMMED, |r| Run::Lumos(r.config.clone().without_tree_trimming())),
        ],
        tables: &[("Figure 8 (hetero): simulated epoch makespan by device scenario and balance objective", &[
            ("makespan_tree_nodes", Of(NODES, SIM_SECS)),
            ("makespan_virtual_secs", Of(VSECS, SIM_SECS)),
            ("makespan_deadline", Of(CUT, SIM_SECS)),
            ("makespan_buffered", Of(BANKED, SIM_SECS)),
            ("makespan_async", Of(QUORUM, SIM_SECS)),
            ("makespan_untrimmed", Of(UNTRIMMED, SIM_SECS)),
            ("weighted_win_secs", Diff(NODES, VSECS, SIM_SECS)),
            ("deadline_win_secs", Diff(NODES, CUT, SIM_SECS)),
            ("buffered_win_secs", Diff(NODES, BANKED, SIM_SECS)),
            ("async_win_secs", Diff(NODES, QUORUM, SIM_SECS)),
            ("late_drops", Of(CUT, LATE)),
            ("buffered_updates", Of(BANKED, CARRIED)),
            ("wasted_updates", Of(BANKED, WASTED)),
            ("migrated_nodes", Of(BANKED, MIGRATED)),
            ("async_carried", Of(QUORUM, CARRIED)),
            ("async_late_drops", Of(QUORUM, LATE)),
            ("async_wasted", Of(QUORUM, WASTED)),
            ("saved_secs", Diff(UNTRIMMED, NODES, SIM_SECS)),
            ("utilization_tree_nodes", Of(NODES, UTILIZATION)),
            ("utilization_virtual_secs", Of(VSECS, UTILIZATION)),
            ("utilization_untrimmed", Of(UNTRIMMED, UTILIZATION)),
            ("dominant_straggler", Of(NODES, STRAGGLER)),
            ("dropped_device_rounds", Of(NODES, ABSENT)),
        ])],
        claims: &[
            claim(TAIL,    SIM_SECS, NODES,     Above(0.0), Rhs::Row(UNIFORM), "the same workload on a slower tail takes longer"),
            claim(UNIFORM, SIM_SECS, UNTRIMMED, Above(0.0), Series(NODES),     "trimming shortens the simulated epoch"),
            claim(TAIL,    SIM_SECS, UNTRIMMED, Above(0.0), Series(NODES),     "trimming shortens the simulated epoch"),
            Claim { at: TAIL, lhs: Diff(UNTRIMMED, NODES, SIM_SECS), order: Above(0.0), rhs: Rhs::Row(UNIFORM),
                    says: "trimming's win grows with heterogeneity: a slow device's trimmed node is worth more" },
            claim(TAIL,    SIM_SECS, NODES,     Above(0.0), Series(VSECS),     "balancing virtual seconds beats node counts on unequal devices"),
            claim(TAIL,    SIM_SECS, NODES,     Above(0.0), Series(CUT),       "the deadline cuts the barrier under a Pareto tail"),
            claim(TAIL,    LATE,         CUT,       Above(0.0), ZERO,              "and pays for it in dropped device-rounds"),
            claim(TAIL,    CARRIED,     BANKED,    Above(0.0), ZERO,              "buffering banks the late updates"),
            claim(EVERY,   WASTED,      BANKED,    Equal,      ZERO,              "buffering wastes none"),
            claim(TAIL,    SIM_SECS, NODES,     Above(0.0), Series(QUORUM),    "the async quorum beats the barrier"),
            claim(TAIL,    CARRIED,     QUORUM,    Above(0.0), ZERO,              "the quorum carries its overflow forward"),
            claim(EVERY,   LATE,         QUORUM,    Equal,      ZERO,              "the quorum never drops an update"),
            claim(EVERY,   WASTED,      QUORUM,    Equal,      ZERO,              "the quorum never wastes an update"),
            claim(CHURN,   ABSENT,      NODES,     Above(0.0), ZERO,              "churn takes devices out of rounds"),
            claim(CHURN,   CARRIED,     BANKED,    Above(0.0), ZERO,              "churned stragglers land in the buffer"),
            claim(CHURN,   MIGRATED,    BANKED,    Above(0.0), ZERO,              "sustained absence triggers live migration"),
        ],
    },
    Figure {
        name: "fig8_hetero_sensitivity",
        datasets: |scale| vec![Dataset::facebook_like(scale)],
        // Every decay × (threshold, patience) trigger on the straggler tail
        // and, in full mode, churn (where the trigger fires); quick mode
        // keeps the 2 × 2 corners on the tail.
        grid: |args| {
            let quick = args.quick;
            let decays: &[f64] = if quick { &[0.3, 0.7] } else { &[0.3, 0.5, 0.7] };
            let triggers: &[(f64, u32)] = if quick { &[(1.5, 1), (2.0, 2)] } else { &[(1.5, 1), (2.0, 2), (3.0, 4)] };
            let buffered = |&decay: &f64| Setting::Policy(AggregationPolicy::Buffered { factor: 2.0, decay });
            let triggers = triggers.iter().map(|&(threshold, patience)| Setting::Trigger(threshold, patience));
            let fleets = fleets(if quick { &[StragglerTail] } else { TAIL_AND_CHURN });
            Grid(vec![fleets, decays.iter().map(buffered).collect(), triggers.collect()])
        },
        epochs: cost_epochs,
        keys: &["dataset", "scenario", "decay", "threshold", "patience"],
        variants: &[(BANKED, |r| Run::Lumos(r.config.clone()))],
        tables: &[("Buffered-policy sensitivity: accuracy × makespan across decay and re-balance trigger", &[
            ("accuracy", Of(BANKED, TEST)),
            ("makespan", Of(BANKED, SIM_SECS)),
            ("buffered_updates", Of(BANKED, CARRIED)),
            ("migrated_nodes", Of(BANKED, MIGRATED)),
        ])],
        claims: &[
            claim(EVERY, SIM_SECS, BANKED, Above(0.0), ZERO, "every cell simulates"),
            claim(EVERY, TEST,        BANKED, Above(0.0), ZERO, "every cell learns"),
            claim(EVERY, CARRIED,     BANKED, Above(0.0), ZERO, "the tail breaches the deadline in every cell"),
        ],
    },
    Figure {
        name: "chaos_sweep",
        datasets: |scale| vec![Dataset::facebook_like(scale)],
        // The hierarchical straggler tail (full mode adds churn, where faults
        // compound natural absence) under the loss × crash grid and the
        // outage, with the default retry/backoff recovery.
        grid: |args| {
            let fleets = fleets(if args.quick { &[StragglerTail] } else { TAIL_AND_CHURN });
            Grid(vec![vec![HIER_4], fleets, space::chaos_faults()])
        },
        epochs: cost_epochs,
        keys: &["dataset", "scenario", "loss_rate", "crash_rate", "outage"],
        variants: &[
            (FAULTED, |r| Run::Lumos(r.config.clone())),
            (CALM_RUN, |r| Run::Lumos(r.config.clone().with_faults(FaultSpec::None))),
        ],
        tables: &[("Chaos sweep: accuracy × makespan × recovery counters under seeded fault injection", &[
            ("accuracy", Of(FAULTED, TEST)),
            ("makespan", Of(FAULTED, SIM_SECS)),
            ("lost_messages", Of(FAULTED, LOST)),
            ("retries", Of(FAULTED, RETRIES)),
            ("retry_secs", Of(FAULTED, RETRY_SECS)),
            ("crashed_devices", Of(FAULTED, CRASHED)),
            ("failovers", Of(FAULTED, FAILOVERS)),
            ("buffered_updates", Of(FAULTED, CARRIED)),
            ("wasted_updates", Of(FAULTED, WASTED)),
            ("baseline_match", Same(FAULTED, CALM_RUN)),
        ])],
        claims: &[
            Claim { at: FAULT_FREE, lhs: Same(FAULTED, CALM_RUN), order: Equal, rhs: Const(1.0),
                    says: "the fault path with nothing firing is bit-identical to the no-fault run" },
            Claim { at: LOSSY, lhs: Same(FAULTED, CALM_RUN), order: Equal, rhs: ZERO, says: "and only that row is" },
            Claim { at: CRASHING, lhs: Same(FAULTED, CALM_RUN), order: Equal, rhs: ZERO, says: "and only that row is" },
            Claim { at: DARK, lhs: Same(FAULTED, CALM_RUN), order: Equal, rhs: ZERO, says: "and only that row is" },
            claim(LOSSY,    LOST,      FAULTED, Above(0.0), ZERO,                 "injected loss fires"),
            claim(LOSSY,    RETRIES,   FAULTED, Above(0.0), ZERO,                 "lost sends are retried"),
            claim(LOSSY,    RETRY_SECS, FAULTED, Above(0.0), ZERO,                 "backoff waits are priced"),
            claim(EVERY,    WASTED,    FAULTED, Equal,      ZERO,                 "recovery never discards an update"),
            claim(CRASHING, CRASHED,   FAULTED, Above(0.0), ZERO,                 "injected crashes fire"),
            claim(DARK,     FAILOVERS, FAULTED, Equal,      Const(2.0),           "one re-homed shard, in rounds 1 and 2"),
            claim(DARK,     TEST,      FAULTED, Equal,      Series(CALM_RUN),     "failover leaves the training math alone"),
        ],
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use lumos_core::SimSummary;

    /// Every figure's grid at smoke scale, laid out from stand-in reports
    /// (no cell is trained): one row per key, and every column and claim
    /// reads cells its rows have.
    #[test]
    fn every_table_and_claim_finds_its_cells() {
        let args = HarnessArgs {
            scale: Scale::Smoke,
            ..HarnessArgs::default()
        };
        let stand_in = Measured {
            report: RunReport {
                test_metric: 0.5,
                avg_messages_per_device_per_epoch: 1.0,
                avg_epoch_makespan: 1.0,
                sim: Some(SimSummary::default()),
                ..RunReport::new("lumos", "", "", "")
            },
            secs: 1.0,
        };
        // Rows per figure: Figs. 3 / 4 cross backbones, Figs. 5 / 8 tasks,
        // Fig. 6 both, over the two datasets; the sweeps cross 4 fleets,
        // 2 × 3 × 3 sensitivity cells and 2 × 5 fault settings.
        let all = FIGURES.iter().chain(&SWEEPS);
        for (figure, expected) in all.zip([4, 4, 4, 4, 8, 4, 18, 10]) {
            let datasets = (figure.datasets)(args.scale);
            let mut rows: Vec<Row> = datasets
                .iter()
                .flat_map(|d| figure.rows_on(d, &args))
                .collect();
            for row in &mut rows {
                row.cells = figure
                    .variants
                    .iter()
                    .map(|(s, _)| (*s, stand_in.clone()))
                    .collect();
            }
            for table in figure.tables(&rows) {
                assert_eq!(table.len(), expected, "{}", figure.name);
            }
            for claim in figure.claims {
                let read = rows
                    .iter()
                    .flat_map(|r| figure.variants.iter().filter(|(s, _)| claim.reads(r, s)));
                // A paper claim reads one row: one cell, or two for a Series side.
                let paper = FIGURES.iter().any(|f| f.name == figure.name);
                let count = read.count();
                let exact = if matches!(claim.rhs, Series(_)) { 2 } else { 1 };
                assert!(
                    count > 0 && (!paper || count == exact),
                    "{}: {}",
                    figure.name,
                    claim.says
                );
            }
        }
    }
}
