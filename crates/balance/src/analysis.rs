//! Balance-quality summary of an assignment (max, mean, tail, imbalance).

use lumos_common::stats::Ecdf;

use crate::problem::Assignment;

/// Summary of the balance quality of an assignment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BalanceSummary {
    /// Largest workload (the objective).
    pub max: usize,
    /// Mean workload.
    pub mean: f64,
    /// 95th-percentile workload.
    pub p95: f64,
    /// Ratio max/mean — 1.0 is perfectly balanced; heavy tails push it up.
    pub imbalance: f64,
}

/// Computes the balance summary.
pub fn summarize(assignment: &Assignment) -> BalanceSummary {
    let wl = assignment.workloads();
    let max = wl.iter().copied().max().unwrap_or(0);
    let mean = if wl.is_empty() {
        0.0
    } else {
        wl.iter().sum::<usize>() as f64 / wl.len() as f64
    };
    let ecdf = Ecdf::new(wl.iter().map(|&w| w as f64).collect());
    BalanceSummary {
        max,
        mean,
        p95: ecdf.quantile(0.95),
        imbalance: if mean > 0.0 { max as f64 / mean } else { 0.0 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumos_graph::Graph;

    #[test]
    fn summary_reflects_imbalance() {
        let edges: Vec<(u32, u32)> = (1..=9).map(|v| (0u32, v)).collect();
        let g = Graph::from_edges(10, &edges);
        let s = summarize(&Assignment::full(&g));
        assert_eq!(s.max, 9);
        assert!((s.mean - 1.8).abs() < 1e-9);
        assert!(s.imbalance > 4.0);
        // A balanced assignment (each leaf keeps the hub) has imbalance ~1.
        let balanced = Assignment::from_sets(
            std::iter::once(vec![])
                .chain((1..=9).map(|_| vec![0u32]))
                .collect(),
        );
        let s2 = summarize(&balanced);
        assert_eq!(s2.max, 1);
        assert!(s2.imbalance < 1.2);
    }
}
