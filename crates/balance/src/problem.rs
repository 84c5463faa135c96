//! The workload-balancing problem (Eq. 9–10), optionally cost-weighted.
//!
//! The decision variable `x_(u,v) = 1` means "device u includes neighbor v
//! in its tree"; an [`Assignment`] stores the retained-neighbor sets `N_u`.
//! The paper's objective `f(X) = max_u |N_u|` is minimized subject to every
//! edge appearing in at least one tree (`x_(u,v) + x_(v,u) ≥ 1`). Theorem 1
//! proves the problem NP-hard (reduction to min–max colored TSP), which is
//! why Lumos approximates it with greedy + MCMC.
//!
//! Heterogeneity-aware extension: each device may carry a fixed-point
//! per-tree-node cost `c_u` (virtual microseconds, from the device's
//! capability profile), turning the objective into the weighted makespan
//! `f(X) = max_u c_u · |N_u|`. Costs stay integers so the secure-comparison
//! circuits operate on them unchanged; the all-ones cost vector degenerates
//! to the paper's node-count objective bit for bit.

// Fixed-point cost module: a narrowing `as` cast here silently corrupts
// the µs encoding, so each one is an error unless audited with `#[expect]`.
#![deny(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_possible_wrap
)]

use lumos_graph::Graph;

/// Which quantity the balancer minimizes the maximum of.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BalanceObjective {
    /// The paper's objective: tree-node count per device, `max_u |N_u|`.
    #[default]
    TreeNodes,
    /// Capability-weighted objective: virtual seconds per device,
    /// `max_u c_u · |N_u|` with `c_u` in fixed-point microseconds.
    VirtualSecs,
}

/// Retained-neighbor sets for every device, plus optional per-node costs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment {
    keep: Vec<Vec<u32>>,
    /// Per-device fixed-point cost (virtual µs) of one retained tree node;
    /// `None` means the unweighted node-count objective (cost 1 everywhere).
    costs: Option<Vec<u64>>,
}

/// Checked `usize → u32` device-id conversion. Device ids are `u32` on the
/// wire (protocol messages, tree centers, share lanes), so a fleet larger
/// than `u32::MAX` is unrepresentable — fail loudly instead of letting an
/// `as` cast wrap ids into collisions (this module denies `clippy::cast_possible_truncation`).
pub fn device_id_count(n: usize) -> u32 {
    u32::try_from(n).expect("fleet size exceeds the u32 device-id space")
}

impl Assignment {
    /// Creates an assignment where every device keeps all its neighbors
    /// (the untrimmed trees — "Lumos w.o. TT" in the ablation).
    pub fn full(g: &Graph) -> Self {
        Self {
            keep: (0..device_id_count(g.num_nodes()))
                .map(|v| g.neighbors(v).to_vec())
                .collect(),
            costs: None,
        }
    }

    /// Creates an assignment from explicit per-device sets.
    pub fn from_sets(keep: Vec<Vec<u32>>) -> Self {
        let mut keep = keep;
        for set in &mut keep {
            set.sort_unstable();
            set.dedup();
        }
        Self { keep, costs: None }
    }

    /// Attaches per-device tree-node costs (fixed-point virtual µs),
    /// switching every weighted accessor — and the balancers driven by them
    /// — to the `max_u c_u · |N_u|` objective.
    ///
    /// # Panics
    /// Panics if the cost vector length differs from the device count or
    /// any cost is zero (a zero-cost device would absorb the whole graph
    /// for free and break the fixed-point log encoding).
    pub fn with_costs(mut self, costs: Vec<u64>) -> Self {
        assert_eq!(costs.len(), self.keep.len(), "one cost per device");
        assert!(costs.iter().all(|&c| c >= 1), "costs must be >= 1");
        self.costs = Some(costs);
        self
    }

    /// The per-device costs, if the weighted objective is active.
    pub fn costs(&self) -> Option<&[u64]> {
        self.costs.as_deref()
    }

    /// Cost of one retained tree node on device `u` (1 when unweighted).
    pub fn node_cost(&self, u: u32) -> u64 {
        self.costs.as_ref().map_or(1, |c| c[u as usize])
    }

    /// Mean per-node cost, the natural unit for the MCMC acceptance
    /// temperature (exactly 1.0 for the unweighted objective, so the
    /// degenerate case divides by one and stays bit-identical).
    pub fn cost_scale(&self) -> f64 {
        match &self.costs {
            None => 1.0,
            Some(c) if c.is_empty() => 1.0,
            Some(c) => c.iter().map(|&x| x as f64).sum::<f64>() / c.len() as f64,
        }
    }

    /// Number of devices.
    pub fn num_devices(&self) -> usize {
        self.keep.len()
    }

    /// Retained neighbors of device `u` (sorted).
    pub fn kept(&self, u: u32) -> &[u32] {
        &self.keep[u as usize]
    }

    /// Workload of device `u`: `wl(u) = |N_u|`.
    pub fn workload(&self, u: u32) -> usize {
        self.keep[u as usize].len()
    }

    /// All workloads.
    pub fn workloads(&self) -> Vec<usize> {
        self.keep.iter().map(|s| s.len()).collect()
    }

    /// The objective `f(X) = max_u |N_u|` (0 for an empty system).
    pub fn objective(&self) -> usize {
        self.keep.iter().map(|s| s.len()).max().unwrap_or(0)
    }

    /// Weighted workload of device `u`: `c_u · |N_u|` virtual µs (reduces
    /// to the node count when no costs are attached).
    ///
    /// # Panics
    /// Panics if `c_u · |N_u|` exceeds `i64::MAX` — the secure-difference
    /// protocol subtracts workloads as signed 64-bit values, and a wrapped
    /// product would silently balance on garbage. Profile-derived costs are
    /// clamped far below this; only extreme caller-supplied costs hit it.
    pub fn weighted_workload(&self, u: u32) -> u64 {
        match self
            .node_cost(u)
            .checked_mul(self.keep[u as usize].len() as u64)
        {
            Some(w) if w <= i64::MAX as u64 => w,
            _ => panic!(
                "weighted workload c_u * |N_u| overflows on device {u}; \
                 use smaller fixed-point costs"
            ),
        }
    }

    /// All weighted workloads.
    pub fn weighted_workloads(&self) -> Vec<u64> {
        (0..device_id_count(self.keep.len()))
            .map(|u| self.weighted_workload(u))
            .collect()
    }

    /// The weighted objective `f(X) = max_u c_u · |N_u|` (0 for an empty
    /// system).
    pub fn weighted_objective(&self) -> u64 {
        (0..device_id_count(self.keep.len()))
            .map(|u| self.weighted_workload(u))
            .max()
            .unwrap_or(0)
    }

    /// Whether `v ∈ N_u`.
    pub fn keeps(&self, u: u32, v: u32) -> bool {
        self.keep[u as usize].binary_search(&v).is_ok()
    }

    /// Applies the transition of Eq. 16: `N_u ← N_u \ {v}`,
    /// `N_v ← N_v ∪ {u}`. Returns `false` (and does nothing) if `v ∉ N_u`.
    pub fn transfer(&mut self, u: u32, v: u32) -> bool {
        let Ok(pos) = self.keep[u as usize].binary_search(&v) else {
            return false;
        };
        self.keep[u as usize].remove(pos);
        if let Err(ins) = self.keep[v as usize].binary_search(&u) {
            self.keep[v as usize].insert(ins, u);
        }
        true
    }

    /// Reverses [`Assignment::transfer`] given whether `u` was already in
    /// `N_v` beforehand.
    pub fn untransfer(&mut self, u: u32, v: u32, v_kept_u_before: bool) {
        if let Err(ins) = self.keep[u as usize].binary_search(&v) {
            self.keep[u as usize].insert(ins, v);
        }
        if !v_kept_u_before {
            if let Ok(pos) = self.keep[v as usize].binary_search(&u) {
                self.keep[v as usize].remove(pos);
            }
        }
    }

    /// Checks the covering constraint of Eq. 10: every edge of `g` is
    /// retained by at least one endpoint, and no device keeps a non-neighbor.
    pub fn check_feasible(&self, g: &Graph) -> Result<(), String> {
        if self.keep.len() != g.num_nodes() {
            return Err("device count mismatch".into());
        }
        for (u, set) in self.keep.iter().enumerate() {
            let u = u32::try_from(u).expect("device ids are u32 wire values");
            for &v in set {
                if !g.has_edge(u, v) {
                    return Err(format!("device {u} keeps non-neighbor {v}"));
                }
            }
        }
        for (u, v) in g.edges() {
            if !self.keeps(u, v) && !self.keeps(v, u) {
                return Err(format!("edge ({u},{v}) is covered by neither tree"));
            }
        }
        Ok(())
    }

    /// Total retained entries `Σ_u |N_u|` (the total system workload).
    pub fn total_workload(&self) -> usize {
        self.keep.iter().map(|s| s.len()).sum()
    }
}

/// A trivial lower bound on the optimal objective: every edge must be kept
/// somewhere, so some device carries at least `⌈|E| / |V|⌉`; and a vertex
/// pair connected by an edge has at least one retainer, so
/// `f(X*) ≥ max(1, ⌈|E|/|V|⌉)` whenever `|E| > 0`.
pub fn objective_lower_bound(g: &Graph) -> usize {
    if g.num_edges() == 0 {
        0
    } else {
        g.num_edges().div_ceil(g.num_nodes()).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph() -> Graph {
        Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)])
    }

    #[test]
    fn full_assignment_keeps_everything() {
        let g = path_graph();
        let a = Assignment::full(&g);
        assert_eq!(a.workloads(), vec![1, 2, 2, 1]);
        assert_eq!(a.objective(), 2);
        assert_eq!(a.total_workload(), 2 * g.num_edges());
        a.check_feasible(&g).unwrap();
    }

    #[test]
    fn transfer_moves_the_edge() {
        let g = path_graph();
        let mut a = Assignment::full(&g);
        let before = a.keeps(2, 1);
        assert!(before, "full assignment keeps both directions");
        assert!(a.transfer(1, 2));
        assert!(!a.keeps(1, 2));
        assert!(a.keeps(2, 1));
        a.check_feasible(&g).unwrap();
        // Transfer of an absent neighbor is a no-op.
        assert!(!a.transfer(1, 2));
    }

    #[test]
    fn untransfer_restores_state() {
        let g = path_graph();
        let mut a = Assignment::from_sets(vec![vec![1], vec![2], vec![3], vec![]]);
        a.check_feasible(&g).unwrap();
        let v_kept = a.keeps(2, 1);
        assert!(!v_kept);
        let snapshot = a.clone();
        assert!(a.transfer(1, 2));
        a.untransfer(1, 2, v_kept);
        assert_eq!(a, snapshot);
    }

    #[test]
    fn infeasible_assignments_are_detected() {
        let g = path_graph();
        // Edge (1,2) uncovered.
        let a = Assignment::from_sets(vec![vec![1], vec![], vec![], vec![2]]);
        assert!(a.check_feasible(&g).is_err());
        // Device keeps a non-neighbor.
        let b = Assignment::from_sets(vec![vec![3], vec![0, 2], vec![3], vec![]]);
        assert!(b.check_feasible(&g).is_err());
    }

    #[test]
    fn default_objective_is_the_papers() {
        assert_eq!(BalanceObjective::default(), BalanceObjective::TreeNodes);
    }

    #[test]
    fn weighted_accessors_reduce_to_counts_without_costs() {
        let g = path_graph();
        let a = Assignment::full(&g);
        assert_eq!(a.costs(), None);
        assert_eq!(a.cost_scale(), 1.0);
        assert_eq!(a.weighted_workloads(), vec![1, 2, 2, 1]);
        assert_eq!(a.weighted_objective(), 2);
        for u in 0..4u32 {
            assert_eq!(a.weighted_workload(u), a.workload(u) as u64);
        }
    }

    #[test]
    fn costs_weight_the_objective() {
        let g = path_graph();
        let a = Assignment::full(&g).with_costs(vec![100, 1, 1, 7]);
        assert_eq!(a.weighted_workloads(), vec![100, 2, 2, 7]);
        assert_eq!(a.weighted_objective(), 100);
        // Node-count views are unchanged by costs.
        assert_eq!(a.objective(), 2);
        assert!((a.cost_scale() - 27.25).abs() < 1e-12);
        // Transfers preserve the cost vector.
        let mut b = a.clone();
        assert!(b.transfer(0, 1));
        assert_eq!(b.costs(), Some(&[100u64, 1, 1, 7][..]));
        assert_eq!(b.weighted_workload(0), 0);
    }

    #[test]
    #[should_panic(expected = "one cost per device")]
    fn mismatched_cost_length_panics() {
        let g = path_graph();
        let _ = Assignment::full(&g).with_costs(vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "costs must be >= 1")]
    fn zero_cost_panics() {
        let g = path_graph();
        let _ = Assignment::full(&g).with_costs(vec![1, 0, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "overflows on device 1")]
    fn overflowing_weighted_workload_panics() {
        // Device 1 keeps 2 neighbors; u64::MAX · 2 would wrap silently in
        // release and balance on garbage — it must panic instead.
        let g = path_graph();
        let a = Assignment::full(&g).with_costs(vec![1, u64::MAX, 1, 1]);
        let _ = a.weighted_workload(1);
    }

    #[test]
    fn lower_bound_is_sane() {
        let g = path_graph();
        assert_eq!(objective_lower_bound(&g), 1);
        let empty = Graph::new(3);
        assert_eq!(objective_lower_bound(&empty), 0);
        let dense = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        assert_eq!(objective_lower_bound(&dense), 1);
    }
}
