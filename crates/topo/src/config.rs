//! The `LumosConfig` opt-in switch for the aggregation topology.

/// How device updates reach the server each round.
///
/// `Flat` is the seed behaviour: every device uploads straight to the
/// server (O(devices) server messages per round). `Hierarchical` routes
/// uploads through K edge aggregators that each forward one pooled
/// partial, so the server sees O(K) messages instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TopologyConfig {
    /// The paper's star topology: device → server. Default.
    #[default]
    Flat,
    /// Devices report to one of `aggregators` edge aggregators; the
    /// aggregators report to the server.
    Hierarchical {
        /// Number of edge aggregators (K ≥ 1).
        aggregators: usize,
    },
}

impl TopologyConfig {
    /// Short name for tables and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            TopologyConfig::Flat => "flat",
            TopologyConfig::Hierarchical { .. } => "hierarchical",
        }
    }

    /// Resolves the config against a concrete fleet size.
    ///
    /// `Hierarchical` with more aggregators than devices clamps to one
    /// aggregator per device, and a single-aggregator tree resolves to
    /// `Flat`: one aggregator that hears every device and forwards one
    /// partial *is* the server's front door, so the flat path is the
    /// same protocol with the relabelling removed. Resolving up front is
    /// how the 1-aggregator degenerate case stays bit-identical to the
    /// seed path by construction (the `Buffered { decay: 0 } → Deadline`
    /// pattern).
    pub fn effective(self, num_devices: usize) -> TopologyConfig {
        match self {
            TopologyConfig::Flat => TopologyConfig::Flat,
            TopologyConfig::Hierarchical { aggregators } => {
                let k = aggregators.min(num_devices.max(1));
                if k <= 1 {
                    TopologyConfig::Flat
                } else {
                    TopologyConfig::Hierarchical { aggregators: k }
                }
            }
        }
    }

    /// Number of aggregators, if hierarchical.
    pub fn aggregators(&self) -> Option<usize> {
        match self {
            TopologyConfig::Flat => None,
            TopologyConfig::Hierarchical { aggregators } => Some(*aggregators),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_flat() {
        assert_eq!(TopologyConfig::default(), TopologyConfig::Flat);
        assert_eq!(TopologyConfig::Flat.name(), "flat");
    }

    #[test]
    fn single_aggregator_resolves_to_flat() {
        assert_eq!(
            TopologyConfig::Hierarchical { aggregators: 1 }.effective(100),
            TopologyConfig::Flat
        );
        // More aggregators than devices clamps first, then resolves.
        assert_eq!(
            TopologyConfig::Hierarchical { aggregators: 8 }.effective(1),
            TopologyConfig::Flat
        );
        assert_eq!(
            TopologyConfig::Hierarchical { aggregators: 8 }.effective(5),
            TopologyConfig::Hierarchical { aggregators: 5 }
        );
        assert_eq!(
            TopologyConfig::Hierarchical { aggregators: 4 }.effective(100),
            TopologyConfig::Hierarchical { aggregators: 4 }
        );
    }
}
