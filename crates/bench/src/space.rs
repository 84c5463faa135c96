//! One config space: [`LumosConfig`]'s opt-in axes, each one list of the
//! values the tree uses, its degenerate value first. Every grid the harness
//! trains is a selection from these lists: a [`crate::figure::Figure`]'s
//! rows are a [`Grid`] of them, `examples/digests.rs` names eleven points,
//! and `tests/conformance.rs` trains a seeded all-pairs cover of all eight
//! axes ([`Grid::pairwise`]) under the laws of `tests/common/laws.rs`.

use lumos_common::rng::Xoshiro256pp;
use lumos_core::{AggregationPolicy, BalanceObjective, CompareBackend, LumosConfig, TaskKind};
use lumos_gnn::Backbone;
use lumos_sim::{FaultSpec, OutageWindow, Scenario};
use lumos_topo::TopologyConfig;

use AggregationPolicy::{Buffered, Deadline, FullSync};

/// One value of one axis: the config fields it sets.
#[derive(Debug, Clone, PartialEq)]
pub enum Setting {
    /// The aggregation policy.
    Policy(AggregationPolicy),
    /// The aggregation topology.
    Topology(TopologyConfig),
    /// The injected faults.
    Faults(FaultSpec),
    /// The device fleet, or none (no simulation).
    Scenario(Option<Scenario>),
    /// What the tree constructor balances.
    Objective(BalanceObjective),
    /// The secure-comparison engine.
    Backend(CompareBackend),
    /// The task, with its default learning rate.
    Task(TaskKind),
    /// The GNN backbone.
    Backbone(Backbone),
    /// The live re-balance trigger `(threshold, patience)`: the buffered
    /// sensitivity figure's list, which no cover crosses.
    Trigger(f64, u32),
}

impl Setting {
    /// `cfg` with this value set.
    pub fn apply(&self, cfg: LumosConfig) -> LumosConfig {
        match self.clone() {
            Setting::Policy(p) => cfg.with_aggregation_policy(p),
            Setting::Topology(t) => cfg.with_topology(t),
            Setting::Faults(f) => cfg.with_faults(f),
            Setting::Scenario(scenario) => LumosConfig { scenario, ..cfg },
            Setting::Objective(o) => cfg.with_balance_objective(o),
            Setting::Backend(b) => cfg.with_compare_backend(b),
            Setting::Task(task) => LumosConfig {
                task,
                lr: task.lr(),
                ..cfg
            },
            Setting::Backbone(backbone) => LumosConfig { backbone, ..cfg },
            Setting::Trigger(t, p) => cfg.with_rebalance_trigger(t, p),
        }
    }
}

/// `cfg` with every value of `point` set, in order.
pub fn apply(cfg: LumosConfig, point: &[Setting]) -> LumosConfig {
    point.iter().fold(cfg, |cfg, s| s.apply(cfg))
}

/// The semi-synchronous cut: updates landing after twice the median
/// delivery are dropped.
pub const DEADLINE: Setting = Setting::Policy(Deadline { factor: 2.0 });
/// The same cut, carrying late updates at `0.5^staleness`.
pub const BUFFERED: Setting = Setting::Policy(Buffered {
    factor: 2.0,
    decay: 0.5,
});
/// Hierarchical topologies of four and eight edge aggregators.
pub const HIER_4: Setting = Setting::Topology(TopologyConfig::Hierarchical { aggregators: 4 });
/// See [`HIER_4`].
pub const HIER_8: Setting = Setting::Topology(TopologyConfig::Hierarchical { aggregators: 8 });
/// Capability-weighted balancing.
pub const VIRTUAL_SECS: Setting = Setting::Objective(BalanceObjective::VirtualSecs);
/// The two tasks: node classification and link prediction.
pub(crate) const TASKS: [TaskKind; 2] = [TaskKind::Supervised, TaskKind::Unsupervised];
/// The two backbones the paper evaluates (§VIII-B).
pub(crate) const BACKBONES: [Backbone; 2] = [Backbone::Gcn, Backbone::Gat];

/// The barrier-free quorum of an `n`-device fleet: ⌈0.8·n⌉ updates close a
/// round (240 on Facebook `Smoke`).
pub fn quorum(n: usize) -> AggregationPolicy {
    let min_updates = (n * 4).div_ceil(5);
    AggregationPolicy::Async { min_updates }
}

/// The outage window: aggregator 1 is dark for rounds 1 and 2.
const OUTAGE: OutageWindow = OutageWindow {
    aggregator: 1,
    from_round: 1,
    until_round: 3,
};

/// Seeded faults at these loss and crash rates, with [`OUTAGE`] or none.
fn faults(loss_rate: f64, crash_rate: f64, outage: bool) -> Setting {
    Setting::Faults(FaultSpec::Faults {
        crash_rate,
        loss_rate,
        outages: if outage { vec![OUTAGE] } else { vec![] },
    })
}

/// The chaos figure's faults: the loss × crash grid, zero rates first, then
/// the outage.
pub(crate) fn chaos_faults() -> Vec<Setting> {
    let grid = [(0.0, 0.0), (0.1, 0.0), (0.0, 0.05), (0.1, 0.05)];
    let rates = grid.map(|(loss, crash)| faults(loss, crash, false));
    [&rates[..], &[faults(0.0, 0.0, true)]].concat()
}

/// A product of chosen values, one list an axis, the first list varying
/// slowest.
#[derive(Debug, Clone)]
pub struct Grid(pub Vec<Vec<Setting>>);

impl Grid {
    /// Every axis of [`LumosConfig`] on an `n`-device fleet, each list the
    /// values the tree uses with the degenerate one first (the one that
    /// leaves the default path as it is): policy, topology, faults,
    /// scenario, objective, backend, task, backbone.
    pub fn axes(n: usize) -> Self {
        use Setting as S;
        let quorum = S::Policy(quorum(n));
        let lossy = S::Faults(FaultSpec::message_loss(0.05));
        let faults = [vec![S::Faults(FaultSpec::None), lossy], chaos_faults()].concat();
        let scenarios = [None].into_iter().chain(Scenario::ALL.map(Some));
        Grid(vec![
            vec![S::Policy(FullSync), DEADLINE, BUFFERED, quorum],
            vec![S::Topology(TopologyConfig::Flat), HIER_4, HIER_8],
            faults,
            scenarios.map(S::Scenario).collect(),
            vec![S::Objective(BalanceObjective::TreeNodes), VIRTUAL_SECS],
            [CompareBackend::Scalar, CompareBackend::Bitsliced]
                .map(S::Backend)
                .into(),
            TASKS.map(S::Task).into(),
            BACKBONES.map(S::Backbone).into(),
        ])
    }

    /// Every point of the product, the first list varying slowest.
    pub(crate) fn points(&self) -> Vec<Vec<Setting>> {
        let mut points = vec![vec![]];
        for values in &self.0 {
            let mut longer = Vec::with_capacity(points.len() * values.len());
            for p in &points {
                longer.extend(values.iter().map(|v| [p, std::slice::from_ref(v)].concat()));
            }
            points = longer;
        }
        points
    }

    /// A seeded all-pairs cover: points in which every pair of values of any
    /// two lists meets at least once. Greedy: each point starts from the
    /// first pair no point has met yet and fixes the other lists in a seeded
    /// order, each to the value that meets the most new pairs — the first
    /// such, so a list with nothing left to meet takes its degenerate value.
    pub fn pairwise(&self, seed: u64) -> Vec<Vec<Setting>> {
        let sizes: Vec<usize> = self.0.iter().map(Vec::len).collect();
        let (k, m) = (sizes.len(), sizes.iter().copied().max().unwrap_or(0));
        // `open[at((a, x), (b, y))]`: whether value x of list a has yet to
        // meet value y of list b, both ways round.
        let at = |(a, x): (usize, usize), (b, y): (usize, usize)| ((a * k + b) * m + x) * m + y;
        let mut open = vec![false; k * k * m * m];
        for (a, b) in (0..k)
            .flat_map(|a| (0..k).map(move |b| (a, b)))
            .filter(|(a, b)| a != b)
        {
            for (x, y) in (0..sizes[a]).flat_map(|x| (0..sizes[b]).map(move |y| (x, y))) {
                open[at((a, x), (b, y))] = true;
            }
        }
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mut cover = Vec::new();
        while let Some(i) = open.iter().position(|&o| o) {
            let (a, b, x, y) = (i / (k * m * m), i / (m * m) % k, i / m % m, i % m);
            let mut point = vec![None; k];
            (point[a], point[b]) = (Some(x), Some(y));
            let mut order: Vec<usize> = (0..k).collect();
            rng.shuffle(&mut order);
            for c in order.into_iter().filter(|&c| c != a && c != b) {
                let fixed: Vec<(usize, usize)> = point
                    .iter()
                    .enumerate()
                    .filter_map(|(d, v)| Some((d, (*v)?)))
                    .collect();
                let gain = |z| fixed.iter().filter(|&&f| open[at((c, z), f)]).count();
                point[c] = (0..sizes[c]).rev().max_by_key(|&z| gain(z));
            }
            let point: Vec<(usize, usize)> =
                point.into_iter().map(Option::unwrap).enumerate().collect();
            for (&p, &q) in point.iter().flat_map(|p| point.iter().map(move |q| (p, q))) {
                open[at(p, q)] = false;
            }
            cover.push(point.iter().map(|&(a, x)| self.0[a][x].clone()).collect());
        }
        cover
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_cover_meets_every_pair_and_undercuts_the_product() {
        let grid = Grid::axes(300);
        let product = grid.points().len();
        assert_eq!(product, 4 * 3 * 7 * 5 * 2 * 2 * 2 * 2);
        for seed in [1, 2023] {
            let cover = grid.pairwise(seed);
            for (a, xs) in grid.0.iter().enumerate() {
                for (b, ys) in grid.0.iter().enumerate().skip(a + 1) {
                    for x in xs {
                        for y in ys {
                            let met = cover.iter().any(|p| p[a] == *x && p[b] == *y);
                            assert!(met, "seed {seed}: {x:?} never meets {y:?}");
                        }
                    }
                }
            }
            // The two largest lists bound it below: 7 faults × 5 scenarios.
            assert!((35..=50).contains(&cover.len()), "{} points", cover.len());
            assert_eq!(
                cover,
                grid.pairwise(seed),
                "the cover is a function of its seed"
            );
        }
    }

    #[test]
    fn the_quorum_resolves_against_the_fleet_and_values_apply() {
        assert_eq!(quorum(300), AggregationPolicy::Async { min_updates: 240 });
        let base = LumosConfig::new(Backbone::Gcn, TaskKind::Supervised);
        for (from, to) in [
            (TaskKind::Supervised, TaskKind::Unsupervised),
            (TaskKind::Unsupervised, TaskKind::Supervised),
        ] {
            let cfg = Setting::Task(to).apply(LumosConfig::new(Backbone::Gcn, from));
            assert_eq!((cfg.task, cfg.lr), (to, to.lr()));
        }
        for values in Grid::axes(300).0 {
            let cfg = values[0].apply(base.clone());
            assert_eq!(format!("{cfg:?}"), format!("{base:?}"), "{:?}", values[0]);
        }
    }
}
