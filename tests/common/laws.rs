//! The laws every point of the config space (`lumos_bench::space`) keeps,
//! as assertions over its runs. `tests/conformance.rs` checks them on a
//! seeded all-pairs cover; the named tests that pin one instance call the
//! law instead of spelling it out.
//!
//! - (i) [`same_seed`]: a config run twice gives identical reports;
//! - (ii) [`conserves_updates`]: every round record accounts for every
//!   update once, and the records refold to the summary;
//! - (iii) [`meters_secure_comparisons`]: a run that compared reports the
//!   comparisons' traffic;
//! - (iv) [`Collapse`]: a degenerate setting is the setting it degenerates
//!   to.

use lumos::core::{
    run_lumos, AggregationPolicy, BalanceObjective, CompareBackend, LumosConfig, RoundSim,
    RunReport, TopologyConfig,
};
use lumos::crypto::CommMeter;
use lumos::data::Dataset;
use lumos::sim::{FaultSpec, Scenario};

use AggregationPolicy::{Buffered, Deadline, FullSync};

/// Asserts `a` and `b` agree on every field, bit for bit
/// ([`RunReport::digest`]), and on every round record, naming the first
/// round, then the first field, that differs.
///
/// # Panics
/// When they differ.
pub fn assert_identical(a: &RunReport, b: &RunReport, what: &str) {
    let round = a.first_divergent_round(b);
    assert_eq!(
        round, None,
        "{what}: round records diverged; the first differing round is the bug"
    );
    let field = a.first_difference(b);
    assert_eq!(
        a.digest(),
        b.digest(),
        "{what}: reports diverged; first differing field: {field:?}"
    );
}

/// Law (i): `cfg` run twice on `ds` gives identical reports. Returns one.
///
/// # Panics
/// When the two runs differ.
pub fn same_seed(ds: &Dataset, cfg: &LumosConfig) -> RunReport {
    let (a, b) = (run_lumos(ds, cfg), run_lumos(ds, cfg));
    assert_identical(&a, &b, &format!("same seed, {cfg:?}"));
    a
}

/// Law (ii): `report`, a run of `cfg` on `devices` devices, keeps one
/// record a round, and each record accounts for every update its round's
/// devices formed exactly once (`active = pooled + carried + crashed +
/// discarded`); every carried update arrives or is still in flight at the
/// end (`Σ carried = Σ arrived + last.in_flight`); and the run-level sums
/// are the records, refolded bit for bit.
///
/// # Panics
/// When an identity breaks.
pub fn conserves_updates(report: &RunReport, cfg: &LumosConfig, devices: usize) {
    let (n, what) = (devices as u64, format!("{cfg:?}"));
    assert_eq!(report.rounds.len(), cfg.epochs, "{what}");
    for (epoch, r) in report.rounds.iter().enumerate() {
        assert_eq!(r.epoch, epoch, "{what}");
        assert_eq!(
            r.sim.is_some(),
            cfg.scenario.is_some(),
            "{what} round {epoch}"
        );
        assert_eq!(
            r.messages_per_device,
            r.messages as f64 / n as f64,
            "{what}"
        );
        assert!(
            r.bytes >= r.messages && r.mean_cost <= r.makespan,
            "{what} round {epoch}"
        );
    }
    let evaluated = report.rounds.iter().filter(|r| r.val_metric.is_some());
    assert_eq!(evaluated.count(), report.history.len(), "{what}");
    for h in &report.history {
        let r = &report.rounds[h.epoch];
        assert_eq!(r.loss.to_bits(), h.loss.to_bits(), "{what}");
        assert_eq!(
            r.val_metric.map(f64::to_bits),
            Some(h.val_metric.to_bits()),
            "{what}"
        );
    }
    let mut refolded = report.clone();
    refolded.sim = None;
    refolded.avg_messages_per_device_per_epoch = f64::NAN;
    refolded.avg_epoch_makespan = f64::NAN;
    refolded.fold_rounds(cfg.scenario.map(Scenario::name));
    assert_identical(report, &refolded, &format!("refold, {what}"));

    let sims: Vec<&RoundSim> = report
        .rounds
        .iter()
        .filter_map(|r| r.sim.as_ref())
        .collect();
    for (epoch, s) in sims.iter().enumerate() {
        assert_eq!(s.active + s.absent, n, "{what} round {epoch}");
        let accounted = s.pooled + s.carried + s.crashed + s.discarded;
        assert_eq!(s.active, accounted, "{what} round {epoch}: {s:?}");
        assert!(
            s.discarded <= s.cut && s.exhausted <= s.carried && s.events > 0,
            "{s:?}"
        );
        assert!(
            s.tier2_secs >= 0.0 && s.tier2_secs < s.makespan_secs,
            "{s:?}"
        );
    }
    let total = |f: fn(&RoundSim) -> u64| sims.iter().map(|s| f(s)).sum::<u64>();
    let stranded = sims.last().map_or(0, |s| s.in_flight);
    assert_eq!(
        total(|s| s.carried),
        total(|s| s.arrived) + stranded,
        "{what}"
    );
}

/// Law (iii): `report`, a run of `cfg`, reports the traffic of the secure
/// comparisons it made — positive messages, bytes and rounds — however its
/// constructor sharded them.
///
/// # Panics
/// When a meter reads zero.
pub fn meters_secure_comparisons(report: &RunReport, cfg: &LumosConfig) {
    let c = &report.constructor;
    let CommMeter {
        messages,
        bytes,
        rounds,
    } = c.secure_comm;
    let metered = messages > 0 && bytes > 0 && rounds > 0;
    let (n, meter) = (c.comparisons, c.secure_comm);
    assert!(
        n == 0 || metered,
        "{n} comparisons metered as {meter:?}: {cfg:?}"
    );
}

/// Law (iv): a config whose setting is degenerate runs as the config it
/// degenerates to. Each law names a premise (the configs it applies to) and
/// the counterpart it sets; [`Collapse::holds`] runs both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Collapse {
    /// `Hier{1}` ≡ `Flat`.
    SingleAggregator,
    /// `Buffered{f, 0}` ≡ `Deadline{f}`: a late update worth nothing is a
    /// dropped one.
    ZeroDecay,
    /// `Async{n}` ≡ `FullSync`: a quorum of the fleet is the barrier.
    FullQuorum,
    /// `Deadline{1e12}` ≡ `FullSync`: a cut round in which nobody is late
    /// runs to the barrier.
    LaxDeadline,
    /// Zero-rate `Faults` ≡ `None`: the fault path with nothing firing.
    ZeroRates,
    /// With no scenario, the policy, the faults and `VirtualSecs` are
    /// inert.
    NoScenario,
    /// `Bitsliced` ≡ `Scalar` on everything but the secure traffic, which
    /// it cuts.
    Bitsliced,
}

impl Collapse {
    /// Every collapse law.
    pub const ALL: [Collapse; 7] = [
        Collapse::SingleAggregator,
        Collapse::ZeroDecay,
        Collapse::FullQuorum,
        Collapse::LaxDeadline,
        Collapse::ZeroRates,
        Collapse::NoScenario,
        Collapse::Bitsliced,
    ];

    /// The counterpart of `cfg` on `devices` devices, when `cfg` fits the
    /// law's premise.
    pub fn counterpart(self, cfg: &LumosConfig, devices: usize) -> Option<LumosConfig> {
        let twin = cfg.clone();
        let zero = FaultSpec::Faults {
            crash_rate: 0.0,
            loss_rate: 0.0,
            outages: vec![],
        };
        let policy = |p| Some(twin.clone().with_aggregation_policy(p));
        match (self, cfg.aggregation_policy) {
            (Collapse::SingleAggregator, _) if cfg.topology == TopologyConfig::Flat => {
                Some(twin.with_topology(TopologyConfig::Hierarchical { aggregators: 1 }))
            }
            (Collapse::ZeroDecay, Deadline { factor }) => policy(Buffered { factor, decay: 0.0 }),
            (Collapse::FullQuorum, FullSync) => policy(AggregationPolicy::Async {
                min_updates: devices,
            }),
            (Collapse::LaxDeadline, FullSync) => policy(Deadline { factor: 1e12 }),
            (Collapse::ZeroRates, _) if cfg.faults == FaultSpec::None => {
                Some(twin.with_faults(zero))
            }
            (Collapse::NoScenario, _) if cfg.scenario.is_none() => Some(
                twin.with_aggregation_policy(FullSync)
                    .with_faults(FaultSpec::None)
                    .with_balance_objective(BalanceObjective::TreeNodes),
            ),
            (Collapse::Bitsliced, _) if cfg.compare_backend == CompareBackend::Scalar => {
                Some(twin.with_compare_backend(CompareBackend::Bitsliced))
            }
            _ => None,
        }
    }

    /// Asserts the law of `report` (a run of a config that fits the
    /// premise) and `twin` (its counterpart's).
    ///
    /// # Panics
    /// When the two runs differ where the law says they agree.
    pub fn assert(self, report: &RunReport, twin: &RunReport, what: &str) {
        let what = format!("{self:?} on {what}");
        if self != Collapse::Bitsliced {
            return assert_identical(report, twin, &what);
        }
        let (scalar, sliced) = (report.constructor.secure_comm, twin.constructor.secure_comm);
        let mut unmetered = [report.clone(), twin.clone()];
        for r in &mut unmetered {
            r.constructor.secure_comm = CommMeter::default();
        }
        assert_identical(&unmetered[0], &unmetered[1], &what);
        let compared = report.constructor.comparisons > 0;
        assert!(
            !compared || sliced.messages < scalar.messages,
            "{what}: {sliced:?} vs {scalar:?}"
        );
    }

    /// Runs `cfg` and its counterpart on `ds` and asserts the law; returns
    /// both reports.
    ///
    /// # Panics
    /// When `cfg` does not fit the premise, or the law breaks.
    pub fn holds(self, ds: &Dataset, cfg: &LumosConfig) -> (RunReport, RunReport) {
        let twin = self.counterpart(cfg, ds.num_nodes());
        let twin = twin.unwrap_or_else(|| panic!("{self:?} does not apply to {cfg:?}"));
        let (report, collapsed) = (run_lumos(ds, cfg), run_lumos(ds, &twin));
        self.assert(&report, &collapsed, &format!("{cfg:?}"));
        (report, collapsed)
    }
}
