//! GraphSAGE layer (Hamilton et al., the paper's ref \[24\]) — an extension
//! backbone beyond the paper's GCN/GAT evaluation.
//!
//! Mean-aggregator variant: `h'_v = W_self·h_v + W_neigh·mean h_u + b`.
//! The open-neighborhood mean runs over the shared [`MessageGraph`] with its
//! `mean_coeff` (zero on self-loop arcs), so the same batched tree structure
//! drives all three backbones.

use lumos_common::rng::Xoshiro256pp;
use lumos_tensor::{ParamId, ParamStore, Tape, Tensor, VarId};

use crate::adj::MessageGraph;

/// A GraphSAGE layer with mean aggregation.
#[derive(Debug, Clone)]
pub struct SageLayer {
    w_self: ParamId,
    w_neigh: ParamId,
    b: ParamId,
    out_dim: usize,
}

impl SageLayer {
    /// Registers the layer's parameters in `store`.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut Xoshiro256pp,
    ) -> Self {
        Self {
            w_self: store.add(
                format!("{name}.w_self"),
                Tensor::glorot(in_dim, out_dim, rng),
            ),
            w_neigh: store.add(
                format!("{name}.w_neigh"),
                Tensor::glorot(in_dim, out_dim, rng),
            ),
            b: store.add(format!("{name}.bias"), Tensor::zeros(1, out_dim)),
            out_dim,
        }
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// One propagation step.
    pub fn forward(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        x: VarId,
        mg: &MessageGraph,
    ) -> VarId {
        let w_self = tape.param(store, self.w_self);
        let w_neigh = tape.param(store, self.w_neigh);
        let b = tape.param(store, self.b);
        let self_term = tape.matmul(x, w_self);
        let xw = tape.matmul(x, w_neigh);
        let agg = tape.propagate(
            xw,
            mg.src.clone(),
            mg.mean_coeff.clone(),
            mg.dst.clone(),
            mg.num_nodes,
        );
        let sum = tape.add(self_term, agg);
        tape.add_row_broadcast(sum, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumos_tensor::gradcheck::numeric_grad;

    fn rng() -> Xoshiro256pp {
        Xoshiro256pp::seed_from_u64(321)
    }

    #[test]
    fn forward_shape_and_isolated_nodes() {
        let mut r = rng();
        let mut store = ParamStore::new();
        let layer = SageLayer::new(&mut store, "sage", 3, 2, &mut r);
        // Node 2 is isolated: its output must equal x·W_self + b.
        let mg = MessageGraph::from_undirected(3, &[(0, 1)]);
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::from_vec(
            3,
            3,
            vec![0.1, 0.2, 0.3, -0.1, 0.5, 0.9, 1.0, -1.0, 0.5],
        ));
        let y = layer.forward(&mut tape, &store, x, &mg);
        assert_eq!(tape.value(y).dims(), (3, 2));
        // Hand-compute node 2: x2 · W_self (+ zero bias).
        let x2 = [1.0f32, -1.0, 0.5];
        let w = store.value(layer.w_self);
        for j in 0..2 {
            let expect: f32 = (0..3).map(|k| x2[k] * w.at(k, j)).sum();
            assert!((tape.value(y).at(2, j) - expect).abs() < 1e-5);
        }
    }

    #[test]
    fn neighborhood_mean_is_exact_on_a_star() {
        // Star 0-{1,2}: node 0's aggregate = mean of nodes 1 and 2.
        let mut r = rng();
        let mut store = ParamStore::new();
        let layer = SageLayer::new(&mut store, "sage", 1, 1, &mut r);
        // Make the transforms identities to read off the mean directly.
        store.get_mut(layer.w_self).value = Tensor::zeros(1, 1);
        store.get_mut(layer.w_neigh).value = Tensor::scalar(1.0);
        let mg = MessageGraph::from_undirected(3, &[(0, 1), (0, 2)]);
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::from_vec(3, 1, vec![10.0, 2.0, 4.0]));
        let y = layer.forward(&mut tape, &store, x, &mg);
        assert!((tape.value(y).at(0, 0) - 3.0).abs() < 1e-6, "mean(2,4) = 3");
        assert!(
            (tape.value(y).at(1, 0) - 10.0).abs() < 1e-6,
            "mean(10) = 10"
        );
    }

    /// The layer's output and parameter gradients equal, bit for bit, the
    /// gather → scale-rows → scatter-add recording `propagate` replaced,
    /// with the mean coefficients derived from the arcs as the layer used to.
    #[test]
    fn matches_the_three_op_reference_bit_for_bit() {
        let mut r = rng();
        let mut store = ParamStore::new();
        let layer = SageLayer::new(&mut store, "sage", 4, 3, &mut r);
        store.get_mut(layer.b).value = Tensor::rand_uniform(1, 3, -1.0, 1.0, &mut r);
        // A hub, a pendant path and two isolated nodes.
        let edges = [(0, 1), (0, 2), (0, 3), (1, 2), (3, 4), (4, 5)];
        let mg = MessageGraph::from_undirected(8, &edges);
        let x = Tensor::rand_uniform(8, 4, -1.0, 1.0, &mut r);

        let mut indeg = vec![0u32; mg.num_nodes];
        for &d in mg.dst.iter() {
            indeg[d as usize] += 1;
        }
        let mean: Vec<f32> = (mg.src.iter().zip(mg.dst.iter()))
            .map(|(&s, &d)| {
                let open = indeg[d as usize] - 1;
                if s == d || open == 0 {
                    0.0
                } else {
                    1.0 / open as f32
                }
            })
            .collect();
        let mean = std::rc::Rc::new(mean);

        let mut run = |fused: bool| {
            let mut tape = Tape::new();
            let xv = tape.constant_ref(&x);
            let y = if fused {
                layer.forward(&mut tape, &store, xv, &mg)
            } else {
                let w_self = tape.param(&store, layer.w_self);
                let w_neigh = tape.param(&store, layer.w_neigh);
                let b = tape.param(&store, layer.b);
                let self_term = tape.matmul(xv, w_self);
                let xw = tape.matmul(xv, w_neigh);
                let gathered = tape.gather_rows(xw, mg.src.clone());
                let averaged = tape.scale_rows(gathered, mean.clone());
                let agg = tape.scatter_add_rows(averaged, mg.dst.clone(), mg.num_nodes);
                let sum = tape.add(self_term, agg);
                tape.add_row_broadcast(sum, b)
            };
            let s = tape.sigmoid(y);
            let l = tape.mean_all(s);
            store.zero_grad();
            tape.accumulate_param_grads(&tape.backward(l), &mut store);
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let grad = |store: &ParamStore, id| bits(&store.get(id).grad);
            (
                bits(tape.value(y)),
                grad(&store, layer.w_self),
                grad(&store, layer.w_neigh),
                grad(&store, layer.b),
            )
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn gradients_match_finite_difference() {
        let mut r = rng();
        let mut store = ParamStore::new();
        let layer = SageLayer::new(&mut store, "sage", 3, 2, &mut r);
        let mg = MessageGraph::from_undirected(4, &[(0, 1), (1, 2), (2, 3)]);
        let x = Tensor::rand_uniform(4, 3, -1.0, 1.0, &mut r);
        let eval = |store: &ParamStore| -> f32 {
            let mut tape = Tape::new();
            let xv = tape.constant(x.clone());
            let y = layer.forward(&mut tape, store, xv, &mg);
            let s = tape.sigmoid(y);
            let l = tape.mean_all(s);
            tape.value(l).item()
        };
        let mut tape = Tape::new();
        let xv = tape.constant(x.clone());
        let y = layer.forward(&mut tape, &store, xv, &mg);
        let s = tape.sigmoid(y);
        let l = tape.mean_all(s);
        let grads = tape.backward(l);
        store.zero_grad();
        tape.accumulate_param_grads(&grads, &mut store);
        for pid in [layer.w_self, layer.w_neigh, layer.b] {
            let numeric = numeric_grad(&mut store, pid, &eval, 1e-2);
            assert!(
                store.get(pid).grad.max_abs_diff(&numeric) < 5e-2,
                "param {} gradient mismatch",
                store.get(pid).name
            );
        }
    }
}
