//! Helpers shared by the integration suites.

use lumos::core::RunReport;

/// Asserts two reports agree on every deterministic field, bit for bit
/// (`RunReport::digest`; the wall-clock fields are the only exempt ones),
/// and on every round record — naming the first round, then the first
/// field, that differs when they do not.
pub fn assert_reports_identical(a: &RunReport, b: &RunReport) {
    assert_eq!(
        a.first_divergent_round(b),
        None,
        "round records diverged; the first differing round is the bug"
    );
    assert_eq!(
        a.digest(),
        b.digest(),
        "reports diverged; first differing field: {:?}",
        a.first_difference(b)
    );
}
