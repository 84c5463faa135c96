//! Straggler-aware epoch time model.
//!
//! The paper's Definition 3 argument: devices compute in parallel, so the
//! wall time of a synchronous epoch is governed by the *slowest* device —
//! the straggler — whose cost grows with its tree size. Tree trimming caps
//! that maximum, which is exactly what Figure 8b measures. We report both
//! the measured wall time of the simulator (all devices computed on one
//! machine) and this model's makespan in abstract cost units.

/// Fixed per-epoch overhead per device.
const FIXED: f64 = 1.0;
/// Cost per tree node per GNN layer.
const PER_TREE_NODE: f64 = 1.0;
/// Cost per message sent or received.
const PER_MESSAGE: f64 = 0.25;

/// The linear per-device compute-cost model of `device_cost`. It has no
/// fields — the coefficients are this module's constants;
/// `Runtime::new` still takes one because the benchmark package pins that
/// signature.
#[derive(Debug, Clone, Copy, Default)]
pub struct CostModel {}

/// Cost of one device-epoch, linear in its work:
/// `FIXED + PER_TREE_NODE · tree_nodes · layers + PER_MESSAGE · messages`.
/// Message-passing work scales with tree size (3·wl + 1 nodes per trimmed
/// tree, §V-A) and communication with the number of messages the device
/// exchanges.
pub(crate) fn device_cost(tree_nodes: usize, layers: usize, messages: u64) -> f64 {
    FIXED + PER_TREE_NODE * (tree_nodes * layers) as f64 + PER_MESSAGE * messages as f64
}

/// The makespan of a synchronous epoch: the maximum device cost.
pub fn epoch_makespan(device_costs: &[f64]) -> f64 {
    device_costs.iter().copied().fold(0.0, f64::max)
}

/// Mean device cost (the "perfectly balanced" reference point).
pub fn epoch_mean_cost(device_costs: &[f64]) -> f64 {
    if device_costs.is_empty() {
        0.0
    } else {
        device_costs.iter().sum::<f64>() / device_costs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_cost_is_linear() {
        // 3·wl+1 = 10 nodes, 2 layers, 8 messages.
        assert_eq!(device_cost(10, 2, 8), 1.0 + 1.0 * 20.0 + 0.25 * 8.0);
    }

    #[test]
    fn makespan_is_max_not_mean() {
        let costs = vec![1.0, 2.0, 50.0, 3.0];
        assert_eq!(epoch_makespan(&costs), 50.0);
        assert_eq!(epoch_mean_cost(&costs), 14.0);
        assert_eq!(epoch_makespan(&[]), 0.0);
    }

    #[test]
    fn trimming_reduces_makespan_in_the_model() {
        // Untrimmed: one straggler with a 150-neighbor tree (451 nodes).
        let untrimmed: Vec<f64> = vec![
            device_cost(451, 2, 300),
            device_cost(31, 2, 20),
            device_cost(16, 2, 10),
        ];
        // Trimmed: maximum workload 39 (118 nodes).
        let trimmed: Vec<f64> = vec![
            device_cost(118, 2, 78),
            device_cost(61, 2, 40),
            device_cost(46, 2, 30),
        ];
        assert!(epoch_makespan(&trimmed) < epoch_makespan(&untrimmed) / 2.0);
    }
}
