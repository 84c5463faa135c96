//! The paper's trained evaluation grids (§VIII) as data: Figs. 3–6 and 8 are
//! the [`Figure`] values in [`FIGURES`]. A figure lists its cells — one
//! labelled Lumos or baseline run each, landing in the row of its dataset,
//! backbone and task — the tables it reads off those rows, and the orderings
//! the paper claims of it as [`Claim`]s, which the tests assert. One runner
//! ([`Figure::run`]) trains any figure's cells and one renderer
//! ([`Figure::tables`]) lays them out.

use lumos_baselines::{
    run_centralized, run_lpgnn, run_naive_fedgnn, BaselineConfig, LpgnnParams, NaiveFedParams,
};
use lumos_common::table::{fmt2, fmt4, Table};
use lumos_core::{run_lumos_measured, LumosConfig, TaskKind};
use lumos_data::Dataset;
use lumos_gnn::Backbone;

use crate::args::HarnessArgs;
use crate::presets::{datasets, epochs_for, map_pairs, mcmc_iterations_for};

use Backbone::Gcn;
use Metric::{EpochSecs, Makespan, Messages, Test};
use Order::{Above, Near, NotBelow, Saves};
use Rhs::{Const, Series};
use TaskKind::{Supervised, Unsupervised};
use Value::{Gain, Of, Saved};

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

/// One run of a figure, labelled with the series it fills in its row.
pub type Cell = (&'static str, Run);

/// What one cell measured, indexed by `Metric as usize`.
pub type Measured = [f64; 4];

impl Run {
    /// The backbone and task the run trains: with the dataset, its row.
    pub(crate) fn model(&self) -> (Backbone, TaskKind) {
        match self {
            Run::Lumos(c) => (c.backbone, c.task),
            Run::Centralized(c) | Run::Lpgnn(c) | Run::Naive(c) => (c.backbone, c.task),
        }
    }

    /// Trains the run on `ds`. Only a Lumos run is timed (`NaN` seconds
    /// per epoch for the baselines).
    pub(crate) fn measure(&self, ds: &Dataset) -> Measured {
        let (report, epoch_secs) = match self {
            Run::Lumos(cfg) => {
                let (report, footprint) = run_lumos_measured(ds, cfg);
                (report, footprint.secs_per_epoch())
            }
            Run::Centralized(cfg) => (run_centralized(ds, cfg), f64::NAN),
            Run::Lpgnn(cfg) => (run_lpgnn(ds, cfg, &LpgnnParams::default()), f64::NAN),
            Run::Naive(cfg) => (
                run_naive_fedgnn(ds, cfg, &NaiveFedParams::default()),
                f64::NAN,
            ),
        };
        let messages = report.avg_messages_per_device_per_epoch;
        let (test, makespan) = (report.test_metric, report.avg_epoch_makespan);
        [test, messages, epoch_secs, makespan]
    }
}

/// A metric a column shows or a claim compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Test accuracy (supervised, shown in %) or ROC-AUC (unsupervised).
    Test,
    /// Messages per device per epoch (Fig. 8a).
    Messages,
    /// Wall seconds per epoch, `RunFootprint::secs_per_epoch` (Fig. 8b).
    EpochSecs,
    /// Modelled straggler makespan per epoch.
    Makespan,
}

/// One table row: the measured cells of one dataset, backbone and task.
#[derive(Debug, Clone)]
pub struct Row {
    /// Dataset name.
    pub dataset: String,
    /// Backbone.
    pub backbone: Backbone,
    /// Task.
    pub task: TaskKind,
    cells: Vec<(&'static str, Measured)>,
}

impl Row {
    /// `series`' `metric` in this row.
    ///
    /// # Panics
    /// Panics if the row has no cell labelled `series`.
    pub(crate) fn get(&self, series: &str, metric: Metric) -> f64 {
        let cell = self.cells.iter().find(|(s, _)| *s == series);
        let (_, m) = cell.unwrap_or_else(|| panic!("no '{series}' cell in a {} row", self.dataset));
        m[metric as usize]
    }

    /// The row's value of a key column: `"backbone"`, `"task"`, else the
    /// dataset.
    fn key(&self, header: &str) -> String {
        match header {
            "backbone" => self.backbone.name().into(),
            "task" => self.task.name().into(),
            _ => self.dataset.clone(),
        }
    }

    fn is(&self, (dataset, backbone, task): (&str, Backbone, TaskKind)) -> bool {
        self.dataset == dataset && self.backbone == backbone && self.task == task
    }
}

/// Groups measured cells into rows, each row where its first cell came.
pub(crate) fn rows<'a>(
    measured: impl IntoIterator<Item = (&'a str, &'a Cell, Measured)>,
) -> Vec<Row> {
    let mut rows: Vec<Row> = Vec::new();
    for (dataset, (series, run), m) in measured {
        let (backbone, task) = run.model();
        match rows.iter_mut().find(|r| r.is((dataset, backbone, task))) {
            Some(row) => row.cells.push((series, m)),
            None => {
                let (dataset, cells) = (dataset.to_string(), vec![(*series, m)]);
                rows.push(Row {
                    dataset,
                    backbone,
                    task,
                    cells,
                });
            }
        }
    }
    rows
}

/// What a value column shows of a row.
#[derive(Debug, Clone, Copy)]
pub enum Value {
    /// A series' metric.
    Of(&'static str, Metric),
    /// `(reference − series) / reference` in %: what the first series saves
    /// against the second.
    Saved(&'static str, &'static str, Metric),
    /// `(series − reference) / reference` in %: what the first series gains
    /// over the second.
    Gain(&'static str, &'static str, Metric),
}

impl Value {
    /// The value on `row`, unformatted.
    pub fn of(self, row: &Row) -> f64 {
        match self {
            Of(series, metric) => row.get(series, metric),
            Saved(series, reference, metric) => {
                let (a, b) = (row.get(series, metric), row.get(reference, metric));
                (b - a) / b * 100.0
            }
            Gain(series, reference, metric) => {
                let (a, b) = (row.get(series, metric), row.get(reference, metric));
                (a - b) / b * 100.0
            }
        }
    }

    /// The value as its table prints it; a percentage of a zero reference
    /// is `n/a`.
    fn show(self, row: &Row) -> String {
        let x = self.of(row);
        match (self, row.task) {
            (Of(_, Test), Supervised) => fmt2(100.0 * x),
            (Of(_, Test), Unsupervised) => fmt4(x),
            (Of(_, EpochSecs), _) => format!("{x:.4}"),
            _ if x.is_finite() => fmt2(x),
            _ => "n/a".into(),
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
}

/// A claim's right side: another series of the row, or a constant.
#[derive(Debug, Clone, Copy)]
pub enum Rhs {
    /// Another series' value of the same metric.
    Series(&'static str),
    /// A constant.
    Const(f64),
}

/// The row a claim reads: dataset, backbone, task.
pub type At = (&'static str, Backbone, TaskKind);

/// An ordering the paper claims of a figure: in row `at`, `lhs` stands to
/// `rhs` on `metric` as `order` says.
#[derive(Debug, Clone, Copy)]
pub struct Claim {
    /// The row.
    pub at: At,
    /// The metric both sides read.
    pub metric: Metric,
    /// The left side's series.
    pub lhs: &'static str,
    /// The ordering and its margin.
    pub order: Order,
    /// The right side.
    pub rhs: Rhs,
    /// What the paper says, paraphrased, with its figure.
    pub says: &'static str,
}

impl Claim {
    /// Whether `cell`, run on `dataset`, is one this claim reads.
    pub fn reads(&self, dataset: &str, (series, run): &Cell) -> bool {
        let named = *series == self.lhs || matches!(self.rhs, Series(s) if s == *series);
        let (backbone, task) = run.model();
        named && self.at == (dataset, backbone, task)
    }

    /// Checks the claim on `rows`; the error is the claim and both sides'
    /// values.
    pub fn check(&self, rows: &[Row]) -> Result<(), String> {
        let row = rows.iter().find(|r| r.is(self.at));
        let row = row.ok_or_else(|| format!("{self:?}: no such row"))?;
        let l = row.get(self.lhs, self.metric);
        let r = match self.rhs {
            Series(s) => row.get(s, self.metric),
            Const(c) => c,
        };
        let holds = match self.order {
            Above(m) => l > r + m,
            NotBelow(m) => l >= r - m,
            Near(m) => (l - r).abs() < m,
            Saves(m) => (r - l) / r > m,
        };
        holds
            .then_some(())
            .ok_or_else(|| format!("{self:?}: {l} vs {r}"))
    }
}

/// A cell's variant: its series label, and the run it makes of its row's
/// Lumos and baseline configs.
pub type Variant = (&'static str, fn(LumosConfig, BaselineConfig) -> Run);

/// One trained figure of §VIII: its grid, its tables and its claims.
#[derive(Debug)]
pub struct Figure {
    /// The figure's binary.
    pub name: &'static str,
    /// The tasks its grid crosses.
    pub tasks: &'static [TaskKind],
    /// The backbones its grid crosses.
    pub backbones: &'static [Backbone],
    /// The epochs a cell trains, given the scale's preset and the task.
    pub epochs: fn(usize, TaskKind) -> usize,
    /// The cells of each (task, backbone) row.
    pub variants: &'static [Variant],
    /// Its tables over the same rows: the figure's own first, then
    /// follow-ups (Fig. 3's).
    pub tables: &'static [TableSpec],
    /// The orderings the paper claims of it.
    pub claims: &'static [Claim],
}

impl Figure {
    /// The figure named `name`.
    ///
    /// # Panics
    /// Panics if no figure in [`FIGURES`] has that name.
    pub fn named(name: &str) -> &'static Figure {
        let figure = FIGURES.iter().find(|f| f.name == name);
        figure.unwrap_or_else(|| panic!("no figure '{name}'"))
    }

    /// The cells it trains on `ds`: every variant of every (task, backbone)
    /// row, task-major, on the scale's MCMC budget and the harness seed.
    pub(crate) fn cells(&self, ds: &Dataset, args: &HarnessArgs) -> Vec<Cell> {
        let mcmc = mcmc_iterations_for(args.scale, &ds.name);
        let mut cells = Vec::new();
        for &task in self.tasks {
            let epochs = (self.epochs)(epochs_for(args.scale, task, args.quick), task);
            for &b in self.backbones {
                let lumos = LumosConfig::new(b, task)
                    .with_epochs(epochs)
                    .with_mcmc_iterations(mcmc)
                    .with_seed(args.seed);
                let base = BaselineConfig::new(b, task)
                    .with_epochs(epochs)
                    .with_seed(args.seed);
                for (series, run) in self.variants {
                    cells.push((*series, run(lumos.clone(), base.clone())));
                }
            }
        }
        cells
    }

    /// The key columns: the dataset, and each axis the grid crosses.
    fn keys(&self) -> Vec<&'static str> {
        let axes = [
            ("backbone", self.backbones.len()),
            ("task", self.tasks.len()),
        ];
        let crossed = axes.into_iter().filter(|(_, n)| *n > 1).map(|(key, _)| key);
        std::iter::once("dataset").chain(crossed).collect()
    }

    /// Trains every cell, the two datasets side by side.
    pub fn run(&self, args: &HarnessArgs) -> Vec<Row> {
        self.run_where(args, |_, _| true)
    }

    /// The claims `keep` selects that fail under `args`, each as its
    /// [`Claim::check`] error. Trains only the cells those claims read.
    pub fn failed_claims(&self, args: &HarnessArgs, keep: impl Fn(&Claim) -> bool) -> Vec<String> {
        let claims: Vec<&Claim> = self.claims.iter().filter(|k| keep(k)).collect();
        let rows = self.run_where(args, |d, c| claims.iter().any(|k| k.reads(d, c)));
        claims.iter().filter_map(|k| k.check(&rows).err()).collect()
    }

    /// Trains the cells `keep` selects by dataset name, the two datasets
    /// side by side.
    fn run_where(&self, args: &HarnessArgs, keep: impl Fn(&str, &Cell) -> bool + Sync) -> Vec<Row> {
        let ds = datasets(args.scale);
        let measured = map_pairs(&ds, |d| {
            let cells = self.cells(d, args).into_iter().filter(|c| keep(&d.name, c));
            let cells: Vec<Cell> = cells.collect();
            let measured: Vec<Measured> = cells.iter().map(|(_, run)| run.measure(d)).collect();
            (cells, measured)
        });
        let tagged = ds
            .iter()
            .zip(&measured)
            .flat_map(|(d, (cells, m))| cells.iter().zip(m).map(|(c, m)| (d.name.as_str(), c, *m)));
        rows(tagged)
    }

    /// The figure's tables over `rows`.
    pub fn tables(&self, rows: &[Row]) -> Vec<Table> {
        let keys = self.keys();
        let table = |(title, columns): &TableSpec| {
            let values = columns.iter().map(|(header, _)| *header);
            let headers: Vec<&str> = keys.iter().copied().chain(values).collect();
            let mut t = Table::new(*title, &headers);
            for row in rows {
                let keys = keys.iter().map(|k| row.key(k));
                t.push_row(keys.chain(columns.iter().map(|(_, v)| v.show(row))));
            }
            t
        };
        self.tables.iter().map(table).collect()
    }
}

/// Parses the harness flags, runs the figure named `name` and prints its
/// tables: the whole of each figure binary.
pub fn main(name: &str) {
    let figure = Figure::named(name);
    figure
        .tables(&figure.run(&HarnessArgs::parse()))
        .iter()
        .for_each(Table::print);
}

/// The two backbones every accuracy grid crosses.
const BACKBONES: &[Backbone] = &[Gcn, Backbone::Gat];
/// The two tasks: node classification and link prediction.
const TASKS: &[TaskKind] = &[Supervised, Unsupervised];

const LUMOS: Variant = ("Lumos", |lumos, _| Run::Lumos(lumos));
const CENTRALIZED: Variant = ("Centralized", |_, base| Run::Centralized(base));
const LPGNN: Variant = ("LPGNN", |_, base| Run::Lpgnn(base));
const NAIVE: Variant = ("Naive FedGNN", |_, base| Run::Naive(base));
const NO_VN: Variant = ("w.o. VN", |l, _| Run::Lumos(l.without_virtual_nodes()));
const NO_TT: Variant = ("w.o. TT", |l, _| Run::Lumos(l.without_tree_trimming()));

/// Facebook / LastFM, GCN, node classification or link prediction: the
/// rows the claims read.
const FB_CLASSIFY: At = ("facebook", Gcn, Supervised);
const LFM_CLASSIFY: At = ("lastfm", Gcn, Supervised);
const FB_LINKS: At = ("facebook", Gcn, Unsupervised);
const LFM_LINKS: At = ("lastfm", Gcn, Unsupervised);

#[rustfmt::skip]
const fn claim(at: At, metric: Metric, lhs: &'static str, order: Order, rhs: Rhs, says: &'static str) -> Claim {
    Claim { at, metric, lhs, order, rhs, says }
}

const CEILING: &str = "Fig. 3: the centralized GNN, which sees every raw feature, is the ceiling";
const OVER_NAIVE: &str = "Fig. 3: Lumos beats naive FedGNN (abstract: +39.48% accuracy)";
const LINK_CEILING: &str = "Fig. 4: the centralized GNN is the ceiling of link prediction";
const COMM: &str = "Fig. 8a: tree trimming cuts the messages a device sends per epoch";
const MAKESPAN: &str = "Fig. 8b: tree trimming shortens the straggler's epoch";
const TIMED: &str = "Fig. 8b: an epoch's wall time is measured";

/// The five trained figures, in the order `run_all` prints them: the cost
/// figure (ten epochs a cell) first, then the accuracy figures. A figure's
/// rows are its tasks × backbones on each dataset, its columns the variants;
/// a claim is one ordering a line: row, metric, lhs, order, rhs, what the
/// paper says.
#[rustfmt::skip]
pub static FIGURES: [Figure; 5] = [
    Figure {
        name: "fig8_system_cost",
        tasks: TASKS,
        backbones: &[Gcn],
        // Communication and per-epoch time do not depend on convergence:
        // a 10-epoch window.
        epochs: |_, _| 10,
        variants: &[LUMOS, NO_TT],
        tables: &[("Figure 8: system cost with (Lumos) vs without (w.o. TT) trimming", &[
            ("msgs/dev/epoch", Of("Lumos", Messages)),
            ("msgs w.o. TT", Of("w.o. TT", Messages)),
            ("saved %", Saved("Lumos", "w.o. TT", Messages)),
            ("epoch secs", Of("Lumos", EpochSecs)),
            ("epoch secs w.o. TT", Of("w.o. TT", EpochSecs)),
            ("saved %", Saved("Lumos", "w.o. TT", EpochSecs)),
            ("makespan", Of("Lumos", Makespan)),
            ("makespan w.o. TT", Of("w.o. TT", Makespan)),
            ("saved %", Saved("Lumos", "w.o. TT", Makespan)),
        ])],
        claims: &[
            claim(FB_CLASSIFY,  Messages,  "Lumos",   Saves(0.0),  Series("w.o. TT"), COMM),
            claim(FB_LINKS,     Messages,  "Lumos",   Saves(0.0),  Series("w.o. TT"), COMM),
            claim(LFM_CLASSIFY, Messages,  "Lumos",   Saves(0.10), Series("w.o. TT"),
                  "Fig. 8a: trimming saves 27–43% of the messages; a double-digit share here"),
            claim(FB_CLASSIFY,  Makespan,  "Lumos",   Saves(0.0),  Series("w.o. TT"), MAKESPAN),
            claim(FB_LINKS,     Makespan,  "Lumos",   Saves(0.0),  Series("w.o. TT"), MAKESPAN),
            claim(LFM_CLASSIFY, Makespan,  "Lumos",   Saves(0.0),  Series("w.o. TT"), MAKESPAN),
            claim(FB_CLASSIFY,  EpochSecs, "Lumos",   Above(0.0),  Const(0.0),        TIMED),
            claim(FB_CLASSIFY,  EpochSecs, "w.o. TT", Above(0.0),  Const(0.0),        TIMED),
            claim(FB_LINKS,     EpochSecs, "Lumos",   Above(0.0),  Const(0.0),        TIMED),
            claim(FB_LINKS,     EpochSecs, "w.o. TT", Above(0.0),  Const(0.0),        TIMED),
        ],
    },
    Figure {
        name: "fig3_supervised",
        tasks: &[Supervised],
        backbones: BACKBONES,
        epochs: |epochs, _| epochs,
        // LPGNN only classifies (§VIII-C).
        variants: &[LUMOS, CENTRALIZED, LPGNN, NAIVE],
        tables: &[
            ("Figure 3: label classification accuracy (%)", &[
                ("Lumos", Of("Lumos", Test)),
                ("Centralized", Of("Centralized", Test)),
                ("LPGNN", Of("LPGNN", Test)),
                ("Naive FedGNN", Of("Naive FedGNN", Test)),
            ]),
            ("Figure 3 follow-ups (paper §VIII-D1 claims)", &[
                ("loss vs centralized (%)", Saved("Lumos", "Centralized", Test)),
                ("gain vs LPGNN (%)", Gain("Lumos", "LPGNN", Test)),
                ("gain vs naive (%)", Gain("Lumos", "Naive FedGNN", Test)),
            ]),
        ],
        claims: &[
            claim(FB_CLASSIFY,  Test, "Centralized", NotBelow(0.0), Series("Lumos"),        CEILING),
            claim(LFM_CLASSIFY, Test, "Centralized", NotBelow(0.0), Series("Lumos"),        CEILING),
            claim(FB_CLASSIFY,  Test, "Lumos",       Above(0.1),    Series("Naive FedGNN"), OVER_NAIVE),
            claim(LFM_CLASSIFY, Test, "Lumos",       Above(0.0),    Series("Naive FedGNN"), OVER_NAIVE),
        ],
    },
    Figure {
        name: "fig4_link_prediction",
        tasks: &[Unsupervised],
        backbones: BACKBONES,
        epochs: |epochs, _| epochs,
        variants: &[LUMOS, CENTRALIZED, NAIVE],
        tables: &[("Figure 4: link prediction ROC-AUC", &[
            ("Lumos", Of("Lumos", Test)),
            ("Centralized", Of("Centralized", Test)),
            ("Naive FedGNN", Of("Naive FedGNN", Test)),
        ])],
        claims: &[
            claim(LFM_LINKS, Test, "Centralized", Above(0.0), Const(0.7),             LINK_CEILING),
            claim(LFM_LINKS, Test, "Centralized", Above(0.0), Series("Lumos"),        LINK_CEILING),
            claim(LFM_LINKS, Test, "Centralized", Above(0.0), Series("Naive FedGNN"), LINK_CEILING),
        ],
    },
    Figure {
        name: "fig5_epsilon",
        tasks: TASKS,
        backbones: &[Gcn],
        epochs: |epochs, _| epochs,
        variants: &[
            ("ε=0.5", |lumos, _| Run::Lumos(lumos.with_epsilon(0.5))),
            ("ε=1", |lumos, _| Run::Lumos(lumos.with_epsilon(1.0))),
            ("ε=2", |lumos, _| Run::Lumos(lumos.with_epsilon(2.0))),
            ("ε=4", |lumos, _| Run::Lumos(lumos.with_epsilon(4.0))),
        ],
        tables: &[("Figure 5: effect of privacy parameter ε (GCN)", &[
            ("ε=0.5", Of("ε=0.5", Test)),
            ("ε=1", Of("ε=1", Test)),
            ("ε=2", Of("ε=2", Test)),
            ("ε=4", Of("ε=4", Test)),
        ])],
        claims: &[
            claim(FB_CLASSIFY, Test, "ε=4", NotBelow(0.02), Series("ε=0.5"),
                  "Fig. 5: accuracy rises with the privacy budget ε"),
        ],
    },
    Figure {
        name: "fig6_ablation",
        tasks: TASKS,
        backbones: BACKBONES,
        // The ablation deltas emerge well before full convergence; trim the
        // unsupervised schedule to keep the 24-run grid tractable.
        epochs: |epochs, task| if task == Unsupervised { epochs * 2 / 5 } else { epochs },
        variants: &[LUMOS, NO_VN, NO_TT],
        tables: &[("Figure 6: ablation — accuracy/AUC contribution of each module", &[
            ("Lumos", Of("Lumos", Test)),
            ("w.o. VN", Of("w.o. VN", Test)),
            ("w.o. TT", Of("w.o. TT", Test)),
        ])],
        claims: &[
            claim(FB_CLASSIFY, Test, "Lumos", Above(0.0), Series("w.o. VN"),
                  "Fig. 6: virtual nodes raise accuracy"),
            claim(FB_CLASSIFY, Test, "Lumos", Near(0.12), Series("w.o. TT"),
                  "Fig. 6: tree trimming costs almost no accuracy"),
        ],
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use lumos_data::Scale;

    /// Every figure's grid at smoke scale, laid out from stand-in numbers (no
    /// cell is trained): one row per key, and every column and claim names a
    /// series its row has.
    #[test]
    fn every_table_and_claim_finds_its_cells() {
        let args = HarnessArgs {
            scale: Scale::Smoke,
            ..HarnessArgs::default()
        };
        let ds = datasets(Scale::Smoke);
        let stand_in: Measured = [0.5, 1.0, 1.0, 1.0];
        // Rows per figure: Figs. 3 / 4 cross backbones, Figs. 5 / 8 tasks,
        // Fig. 6 both, over the two datasets.
        for (figure, expected) in FIGURES.iter().zip([4, 4, 4, 4, 8]) {
            let cells: Vec<_> = ds.iter().map(|d| (d, figure.cells(d, &args))).collect();
            let measured = cells
                .iter()
                .flat_map(|(d, cs)| cs.iter().map(|c| (d.name.as_str(), c, stand_in)));
            let rows = rows(measured);
            for table in figure.tables(&rows) {
                assert_eq!(table.len(), expected, "{}", figure.name);
            }
            for claim in figure.claims {
                let read = cells
                    .iter()
                    .flat_map(|(d, cs)| cs.iter().filter(|c| claim.reads(&d.name, c)));
                let expected = if matches!(claim.rhs, Series(_)) { 2 } else { 1 };
                assert_eq!(read.count(), expected, "{}: {}", figure.name, claim.says);
            }
        }
    }
}
