//! Deterministic partition of a device fleet into contiguous shards.

use lumos_common::rng::Xoshiro256pp;

/// A partition of `n` devices into K non-empty **contiguous** shards,
/// one per edge aggregator.
///
/// Contiguity is a deliberate restriction, not a simplification: the
/// batched training forest (`core::build_compact`) lays device trees
/// out in device order, so a contiguous shard is a contiguous slice of
/// the pool arrays. Tiered pooling can then gather/scatter per-shard
/// slices in the same global order as the flat path, which is what
/// makes the single-shard degenerate case the *identical* op sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    /// Shard boundaries: `starts[k]..starts[k + 1]` is shard `k`'s
    /// device range. `starts[0] == 0`, `starts[K] == n`, strictly
    /// increasing (every shard is non-empty).
    starts: Vec<usize>,
}

impl Topology {
    fn from_starts(starts: Vec<usize>) -> Self {
        debug_assert!(starts.len() >= 2);
        debug_assert_eq!(starts[0], 0);
        debug_assert!(starts.windows(2).all(|w| w[0] < w[1]));
        Topology { starts }
    }

    /// Even contiguous split: the first `n % k` shards get one extra
    /// device. Panics if `k == 0` or `k > n`.
    pub fn contiguous(num_devices: usize, aggregators: usize) -> Self {
        assert!(aggregators >= 1, "need at least one aggregator");
        assert!(
            aggregators <= num_devices,
            "more aggregators ({aggregators}) than devices ({num_devices})"
        );
        let base = num_devices / aggregators;
        let extra = num_devices % aggregators;
        let mut starts = Vec::with_capacity(aggregators + 1);
        let mut at = 0;
        starts.push(0);
        for k in 0..aggregators {
            at += base + usize::from(k < extra);
            starts.push(at);
        }
        Topology::from_starts(starts)
    }

    /// Seeded contiguous split: shard sizes are apportioned from seeded
    /// positive weights (largest-remainder style), so different seeds
    /// give different — but always deterministic — boundary placements.
    pub fn seeded(num_devices: usize, aggregators: usize, seed: u64) -> Self {
        assert!(aggregators >= 1, "need at least one aggregator");
        assert!(
            aggregators <= num_devices,
            "more aggregators ({aggregators}) than devices ({num_devices})"
        );
        let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0x7090_7090_u64.rotate_left(11));
        let weights: Vec<f64> = (0..aggregators).map(|_| rng.range_f64(0.5, 1.5)).collect();
        let total: f64 = weights.iter().sum();
        // Floor-apportion with every shard guaranteed one device, then
        // hand remaining devices to shards in weight order.
        let spare = num_devices - aggregators;
        let mut sizes: Vec<usize> = weights
            .iter()
            .map(|w| 1 + ((w / total) * spare as f64).floor() as usize)
            .collect();
        let mut assigned: usize = sizes.iter().sum();
        let mut order: Vec<usize> = (0..aggregators).collect();
        order.sort_by(|&a, &b| weights[b].total_cmp(&weights[a]).then(a.cmp(&b)));
        let mut i = 0;
        while assigned < num_devices {
            sizes[order[i % aggregators]] += 1;
            assigned += 1;
            i += 1;
        }
        let mut starts = Vec::with_capacity(aggregators + 1);
        let mut at = 0;
        starts.push(0);
        for s in sizes {
            at += s;
            starts.push(at);
        }
        Topology::from_starts(starts)
    }

    /// Cost-balanced contiguous split: boundaries are swept so each
    /// shard's total cost tracks `k/K` of the fleet total (devices with
    /// heavier per-node prices land in smaller shards). Greedy and
    /// deterministic; shards stay non-empty.
    pub fn cost_balanced(costs: &[u64], aggregators: usize) -> Self {
        let n = costs.len();
        assert!(aggregators >= 1, "need at least one aggregator");
        assert!(
            aggregators <= n,
            "more aggregators ({aggregators}) than devices ({n})"
        );
        let total: u128 = costs.iter().map(|&c| c as u128).sum();
        let mut starts = Vec::with_capacity(aggregators + 1);
        starts.push(0);
        let mut acc: u128 = 0;
        let mut d = 0;
        for k in 0..aggregators - 1 {
            let target = total * (k as u128 + 1) / aggregators as u128;
            // Every shard keeps ≥ 1 device, and enough devices must be
            // left for the remaining shards.
            let min_d = starts[k] + 1;
            let max_d = n - (aggregators - 1 - k);
            while d < min_d || (d < max_d && acc + costs[d] as u128 / 2 < target) {
                acc += costs[d] as u128;
                d += 1;
            }
            starts.push(d);
        }
        starts.push(n);
        Topology::from_starts(starts)
    }

    /// Total devices across all shards.
    pub fn num_devices(&self) -> usize {
        *self.starts.last().unwrap()
    }

    /// Number of aggregators (shards).
    pub fn num_aggregators(&self) -> usize {
        self.starts.len() - 1
    }

    /// The shard (aggregator) a device reports to.
    pub fn shard_of(&self, device: u32) -> u32 {
        let d = device as usize;
        assert!(d < self.num_devices(), "device {device} out of range");
        // partition_point gives the first start > d; shard is one left.
        (self.starts.partition_point(|&s| s <= d) - 1) as u32
    }

    /// The contiguous device range of shard `k`.
    pub fn members(&self, shard: usize) -> std::ops::Range<u32> {
        assert!(shard < self.num_aggregators(), "shard {shard} out of range");
        self.starts[shard] as u32..self.starts[shard + 1] as u32
    }

    /// Materialized per-device shard vector (what a sharded `SimNetwork`
    /// routes uploads by).
    pub fn shard_vector(&self) -> Vec<u32> {
        let mut v = Vec::with_capacity(self.num_devices());
        for k in 0..self.num_aggregators() {
            v.extend(self.members(k).map(|_| k as u32));
        }
        v
    }

    /// Iterator over `(shard, device range)` pairs.
    pub fn ranges(&self) -> impl Iterator<Item = (usize, std::ops::Range<u32>)> + '_ {
        (0..self.num_aggregators()).map(|k| (k, self.members(k)))
    }

    /// The deterministic failover map for a set of outaged aggregators:
    /// `map[k]` is the aggregator actually serving shard `k` this round.
    /// A healthy shard serves itself; an outaged shard re-homes to the
    /// next healthy aggregator cyclically (`k+1, k+2, …` mod K) — the
    /// successor rule is a pure function of the topology, so every
    /// replica of the run re-homes identically without coordination.
    ///
    /// When *every* aggregator is down there is no healthy successor;
    /// the map degenerates to the identity (no failover — the round
    /// proceeds as if unaided, rather than inventing a survivor).
    pub fn failover_map(&self, outaged: &[u32]) -> Vec<u32> {
        let k = self.num_aggregators();
        let mut down = vec![false; k];
        for &a in outaged {
            if let Some(slot) = down.get_mut(a as usize) {
                *slot = true;
            }
        }
        if down.iter().all(|&d| d) {
            return (0..k as u32).collect();
        }
        (0..k)
            .map(|shard| {
                let mut target = shard;
                while down[target] {
                    target = (target + 1) % k;
                }
                target as u32
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_partition(t: &Topology, n: usize, k: usize) {
        assert_eq!(t.num_devices(), n);
        assert_eq!(t.num_aggregators(), k);
        let mut seen = 0usize;
        for (shard, range) in t.ranges() {
            assert!(!range.is_empty(), "shard {shard} is empty");
            assert_eq!(range.start as usize, seen, "shards must be contiguous");
            for d in range.clone() {
                assert_eq!(t.shard_of(d), shard as u32);
            }
            seen = range.end as usize;
        }
        assert_eq!(seen, n, "shards must cover every device exactly once");
    }

    #[test]
    fn contiguous_split_partitions_evenly() {
        let t = Topology::contiguous(10, 3);
        assert_partition(&t, 10, 3);
        let sizes: Vec<usize> = t.ranges().map(|(_, r)| r.len()).collect();
        assert_eq!(sizes, vec![4, 3, 3]);
    }

    #[test]
    fn seeded_split_is_deterministic_and_seed_sensitive() {
        let a = Topology::seeded(100, 7, 1);
        let b = Topology::seeded(100, 7, 1);
        assert_eq!(a, b);
        assert_partition(&a, 100, 7);
        let c = Topology::seeded(100, 7, 2);
        assert_partition(&c, 100, 7);
        assert_ne!(a, c, "different seeds should move boundaries");
    }

    #[test]
    fn cost_balanced_tracks_cost_not_count() {
        // First half of the fleet is 9× pricier: it should land in
        // far fewer devices per shard.
        let mut costs = vec![900u64; 50];
        costs.extend(vec![100u64; 50]);
        let t = Topology::cost_balanced(&costs, 2);
        assert_partition(&t, 100, 2);
        let cut = t.members(0).end as usize;
        assert!(
            cut < 40,
            "expensive prefix should close shard 0 early, cut at {cut}"
        );
        let shard0: u64 = costs[..cut].iter().sum();
        let shard1: u64 = costs[cut..].iter().sum();
        let imbalance = shard0.abs_diff(shard1) as f64 / (shard0 + shard1) as f64;
        assert!(imbalance < 0.1, "cost imbalance {imbalance} too high");
    }

    #[test]
    fn single_shard_covers_everything() {
        let t = Topology::contiguous(5, 1);
        assert_partition(&t, 5, 1);
        assert_eq!(t.members(0), 0..5);
        assert_eq!(t.shard_vector(), vec![0; 5]);
    }

    #[test]
    fn zero_cost_fleet_still_partitions() {
        let t = Topology::cost_balanced(&[0; 8], 4);
        assert_partition(&t, 8, 4);
    }

    #[test]
    #[should_panic(expected = "more aggregators")]
    fn more_shards_than_devices_panics() {
        Topology::contiguous(2, 3);
    }

    #[test]
    fn failover_maps_outaged_shards_to_the_cyclic_successor() {
        let t = Topology::contiguous(12, 4);
        assert_eq!(t.failover_map(&[]), vec![0, 1, 2, 3]);
        assert_eq!(t.failover_map(&[1]), vec![0, 2, 2, 3]);
        // Adjacent outages chain to the same survivor; the wrap-around
        // outage re-homes to the front.
        assert_eq!(t.failover_map(&[1, 2]), vec![0, 3, 3, 3]);
        assert_eq!(t.failover_map(&[3]), vec![0, 1, 2, 0]);
        // Out-of-range aggregators are ignored.
        assert_eq!(t.failover_map(&[9]), vec![0, 1, 2, 3]);
    }

    #[test]
    fn total_outage_degenerates_to_identity() {
        let t = Topology::contiguous(6, 3);
        assert_eq!(t.failover_map(&[0, 1, 2]), vec![0, 1, 2]);
    }
}
