//! Helpers shared by the integration suites.

use lumos::core::RunReport;

/// Asserts two reports agree on every field, bit for bit
/// (`RunReport::digest` — no field is exempt), and on every round record — naming the first round, then the first
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
