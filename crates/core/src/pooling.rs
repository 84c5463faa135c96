//! The POOL layer (Eq. 31), evaluated tier by tier: device leaves →
//! aggregator partials → the server's per-vertex mean.

use std::ops::Range;
use std::rc::Rc;

use lumos_tensor::{Tape, VarId};
use lumos_topo::Topology;

use crate::batch::PoolArrays;

/// The POOL layer over the forest's leaf embeddings `h_tree`: the weighted
/// mean per global vertex, gathered through `pool` — a
/// [`BatchedTrees::weighted_pool`](crate::BatchedTrees::weighted_pool) view
/// of the round's per-device weights, which for all-ones weights is the
/// batch's own arrays. It is evaluated tier by tier: each aggregator
/// scatter-adds its own members' (optionally staleness-scaled) leaf rows
/// into a local partial, the server sums the partials, and the per-vertex
/// mean coefficients normalize once at the top. The shard slices come
/// straight off the pool arrays: trees are laid out in device order, so an
/// aggregator's leaves are one contiguous run of `owners`. Without a
/// topology — or when no shard holds a surviving leaf, which pools the
/// empty arrays to zero — the server is the one aggregator and the whole
/// array the one run: the seed's flat op sequence, on the pool's own `Rc`s.
pub(crate) fn tiered_pool(
    tape: &mut Tape<'_>,
    h_tree: VarId,
    pool: &PoolArrays,
    topo: Option<&Topology>,
) -> VarId {
    let (total, num_vertices) = (pool.leaves.len(), pool.coeff.len());
    let mut runs: Vec<Range<usize>> = Vec::new();
    let mut lo = 0usize;
    for (_, members) in topo.into_iter().flat_map(Topology::ranges) {
        let hi = lo + pool.owners[lo..].partition_point(|&o| o < members.end);
        if lo < hi {
            runs.push(lo..hi);
        }
        lo = hi;
    }
    if runs.is_empty() {
        runs.push(0..total);
    }
    fn share<T: Clone>(all: &Rc<Vec<T>>, run: &Range<usize>) -> Rc<Vec<T>> {
        if run.len() == all.len() {
            all.clone()
        } else {
            Rc::new(all[run.clone()].to_vec())
        }
    }
    let mut server_sum: Option<VarId> = None;
    for run in &runs {
        let mut leaves = tape.gather_rows(h_tree, share(&pool.leaves, run));
        // Fractional staleness weights insert one extra per-leaf scale
        // between gather and scatter; uniform pools skip it, keeping the
        // default op sequence — and therefore its float results — untouched.
        if let Some(w) = &pool.leaf_weights {
            leaves = tape.scale_rows(leaves, share(w, run));
        }
        let partial = tape.scatter_add_rows(leaves, share(&pool.vertices, run), num_vertices);
        server_sum = Some(match server_sum {
            Some(acc) => tape.add(acc, partial),
            None => partial,
        });
    }
    let summed = server_sum.expect("POOL runs over at least one range");
    tape.scale_rows(summed, pool.coeff.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchedTrees;
    use lumos_common::rng::Xoshiro256pp;
    use lumos_tensor::Tensor;

    /// A forest over `n` devices (one vertex each) whose leaf `i`, owned by
    /// `owners[i]` (in device order), pools into `vertices[i]`.
    fn forest(n: usize, owners: Vec<u32>, vertices: Vec<u32>) -> BatchedTrees<()> {
        let mut counts = vec![0u32; n];
        for &v in &vertices {
            counts[v as usize] += 1;
        }
        let coeff = counts
            .iter()
            .map(|&c| if c == 0 { 0.0 } else { 1.0 / c as f32 })
            .collect();
        BatchedTrees {
            mg: lumos_gnn::MessageGraph::from_undirected(owners.len(), &[]),
            features: (),
            pool_leaves: Rc::new((0..owners.len() as u32).collect()),
            pool_vertices: Rc::new(vertices),
            pool_coeff: Rc::new(coeff),
            pool_owners: Rc::new(owners),
            tree_sizes: Vec::new(),
            num_vertices: n,
        }
    }

    /// A seeded random forest over `n` devices: every device owns one to
    /// four leaves, each pooling into a random vertex.
    fn random_forest(n: usize, rng: &mut Xoshiro256pp) -> BatchedTrees<()> {
        let (mut owners, mut vertices) = (Vec::new(), Vec::new());
        for d in 0..n as u32 {
            for _ in 0..1 + rng.index(4) {
                owners.push(d);
                vertices.push(rng.index(n) as u32);
            }
        }
        forest(n, owners, vertices)
    }

    /// [`tiered_pool`] over the leaf embeddings `h_tree`, read off the tape.
    fn pool_on_tape(h_tree: &Tensor, pool: &PoolArrays, topo: Option<&Topology>) -> Vec<f32> {
        let mut tape = Tape::new();
        let h = tape.constant(h_tree.clone());
        let pooled = tiered_pool(&mut tape, h, pool, topo);
        tape.value(pooled).data().to_vec()
    }

    /// One value per leaf, as a `[leaves × 1]` embedding.
    fn column(values: &[f32]) -> Tensor {
        Tensor::from_vec(values.len(), 1, values.to_vec())
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn tiers_conserve_the_pool_on_a_small_case() {
        // 4 devices in 2 shards, each contributing two leaves to vertices
        // 0..3 (vertex 3 gets none). All-ones weights: the tiers must pool
        // what the flat server pools, the plain mean per vertex.
        let trees = forest(
            4,
            vec![0, 0, 1, 1, 2, 2, 3, 3],
            vec![0, 1, 1, 2, 0, 2, 1, 0],
        );
        let pool = trees.weighted_pool(&[1.0; 4]);
        let h = column(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let flat = pool_on_tape(&h, &pool, None);
        let tiered = pool_on_tape(&h, &pool, Some(&Topology::contiguous(4, 2)));
        let means: [f32; 4] = [14.0 / 3.0, 4.0, 5.0, 0.0];
        for ((f, t), mean) in flat.iter().zip(&tiered).zip(means) {
            assert!((f - t).abs() <= 1e-6, "flat {f} vs tiered {t}");
            assert!((f - mean).abs() <= 1e-6, "flat {f} vs the mean {mean}");
        }
    }

    #[test]
    fn single_shard_is_bitwise_flat() {
        // Fractional weights take the extra per-leaf scale; one shard is
        // still the flat op sequence, bit for bit.
        let trees = forest(3, vec![0, 1, 2], vec![0, 0, 1]);
        let pool = trees.weighted_pool(&[1.0, 0.5, 2.0]);
        assert!(pool.leaf_weights.is_some());
        let h = column(&[0.25, 0.5, -3.0]);
        let flat = pool_on_tape(&h, &pool, None);
        let tiered = pool_on_tape(&h, &pool, Some(&Topology::contiguous(3, 1)));
        assert_eq!(bits(&flat), bits(&tiered), "one shard is the flat pool");
    }

    #[test]
    fn zero_weight_vertices_pool_to_zero() {
        let trees = forest(2, vec![0, 1], vec![0, 1]);
        let pool = trees.weighted_pool(&[0.0, 1.0]);
        let h = column(&[9.0, 9.0]);
        let tiered = pool_on_tape(&h, &pool, Some(&Topology::contiguous(2, 2)));
        assert_eq!(tiered, vec![0.0, 9.0]);
    }

    #[test]
    fn tiered_pool_conserves_the_flat_pool() {
        // The two-tier POOL against the flat one, over the arrays a round
        // really pools: all-ones, a 0/1 mask (a deadline's cut) and
        // fractional staleness weights (buffering). The tiers only
        // re-associate the sums, so K shards agree with the server to f32
        // rounding, and one shard is the flat op sequence bit for bit.
        let mut rng = Xoshiro256pp::seed_from_u64(0x9001);
        for _ in 0..40 {
            let n = 1 + rng.index(48);
            let trees = random_forest(n, &mut rng);
            let leaves = trees.pool_leaves.len();
            let mask: Vec<f32> = (0..n)
                .map(|_| f32::from(u8::from(rng.bernoulli(0.7))))
                .collect();
            let fractional: Vec<f32> = (0..n)
                .map(|_| [0.0, 0.25, 0.5, 1.0, 1.5][rng.index(5)])
                .collect();
            let topo = Topology::seeded(n, 1 + rng.index(n), rng.next_u64());
            let one_shard = Topology::contiguous(n, 1);
            for weights in [vec![1.0; n], mask, fractional] {
                let pool = trees.weighted_pool(&weights);
                let constant = Tensor::full(leaves, 1, 0.75);
                let random = Tensor::rand_uniform(leaves, 3, -1.0, 1.0, &mut rng);
                for h_tree in [constant, random] {
                    let flat = pool_on_tape(&h_tree, &pool, None);
                    let tiered = pool_on_tape(&h_tree, &pool, Some(&topo));
                    for (f, t) in flat.iter().zip(&tiered) {
                        assert!((f - t).abs() <= 1e-5, "flat {f} vs tiered {t}");
                    }
                    let single = pool_on_tape(&h_tree, &pool, Some(&one_shard));
                    assert_eq!(bits(&flat), bits(&single), "one shard is the flat pool");
                }
                // A constant embedding pools to itself wherever a weight
                // survives, and to zero where none does.
                let constant = Tensor::full(leaves, 1, 0.75);
                let tiered = pool_on_tape(&constant, &pool, Some(&topo));
                for (v, &x) in tiered.iter().enumerate() {
                    let expect = if pool.coeff[v] == 0.0 { 0.0 } else { 0.75 };
                    assert!((x - expect).abs() <= 1e-6, "vertex {v}: {x} vs {expect}");
                }
            }
        }
    }
}
