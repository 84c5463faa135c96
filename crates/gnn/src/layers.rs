//! Hand-rolled GNN layers: GCN (Kipf & Welling) and GAT (Veličković et al.),
//! the two backbones the paper evaluates (§VIII-B).

use lumos_common::rng::Xoshiro256pp;
use lumos_tensor::{ParamId, ParamStore, Tape, Tensor, VarId};

use crate::adj::MessageGraph;

/// GAT attention heads per layer (4 in the paper).
const HEADS: usize = 4;
/// Negative slope of the LeakyReLU on GAT attention logits (0.2, as in the
/// original GAT).
const LEAKY_SLOPE: f32 = 0.2;
/// Dropout probability between layers (0.01 in the paper).
const DROPOUT: f32 = 0.01;

/// A graph-convolution layer: `H' = Â H W + b` with symmetric normalization.
#[derive(Debug, Clone)]
pub struct GcnLayer {
    w: ParamId,
    b: ParamId,
    out_dim: usize,
}

impl GcnLayer {
    /// Registers the layer's parameters in `store`.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut Xoshiro256pp,
    ) -> Self {
        let w = store.add(
            format!("{name}.weight"),
            Tensor::glorot(in_dim, out_dim, rng),
        );
        let b = store.add(format!("{name}.bias"), Tensor::zeros(1, out_dim));
        Self { w, b, out_dim }
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// One propagation step over the message graph.
    pub fn forward(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        x: VarId,
        mg: &MessageGraph,
    ) -> VarId {
        let w = tape.param(store, self.w);
        let b = tape.param(store, self.b);
        let xw = tape.matmul(x, w);
        let agg = tape.propagate(
            xw,
            mg.src.clone(),
            mg.gcn_coeff.clone(),
            mg.dst.clone(),
            mg.num_nodes,
        );
        tape.add_row_broadcast(agg, b)
    }
}

/// One attention head of a GAT layer.
#[derive(Debug, Clone)]
struct GatHead {
    w: ParamId,
    a_src: ParamId,
    a_dst: ParamId,
}

/// A graph-attention layer of four heads (`HEADS`).
///
/// Per head: `e_(u→v) = LeakyReLU(a_srcᵀ W h_u + a_dstᵀ W h_v)`, attention
/// `α = segment-softmax over incoming arcs of v`, output
/// `h'_v = Σ_u α_(u→v) W h_u`. Heads are concatenated (hidden layers) or
/// averaged (output layer), as in the original GAT.
#[derive(Debug, Clone)]
pub struct GatLayer {
    heads: Vec<GatHead>,
    bias: ParamId,
    head_dim: usize,
    concat: bool,
}

impl GatLayer {
    /// Registers a GAT layer of `HEADS` attention heads with `head_dim`
    /// outputs each. If `concat` is true the heads are concatenated
    /// (output dim `HEADS·head_dim`), otherwise averaged (`head_dim`).
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        head_dim: usize,
        concat: bool,
        rng: &mut Xoshiro256pp,
    ) -> Self {
        let heads = (0..HEADS)
            .map(|h| GatHead {
                w: store.add(
                    format!("{name}.head{h}.weight"),
                    Tensor::glorot(in_dim, head_dim, rng),
                ),
                a_src: store.add(
                    format!("{name}.head{h}.a_src"),
                    Tensor::glorot(head_dim, 1, rng),
                ),
                a_dst: store.add(
                    format!("{name}.head{h}.a_dst"),
                    Tensor::glorot(head_dim, 1, rng),
                ),
            })
            .collect();
        let out_dim = if concat { HEADS * head_dim } else { head_dim };
        let bias = store.add(format!("{name}.bias"), Tensor::zeros(1, out_dim));
        Self {
            heads,
            bias,
            head_dim,
            concat,
        }
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        if self.concat {
            self.heads.len() * self.head_dim
        } else {
            self.head_dim
        }
    }

    /// One attention propagation step.
    pub fn forward(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        x: VarId,
        mg: &MessageGraph,
    ) -> VarId {
        let mut head_outputs: Vec<VarId> = Vec::with_capacity(self.heads.len());
        for head in &self.heads {
            let w = tape.param(store, head.w);
            let a_src = tape.param(store, head.a_src);
            let a_dst = tape.param(store, head.a_dst);
            let wh = tape.matmul(x, w); // [n, f']
            let s_src = tape.matmul(wh, a_src); // [n, 1]
            let s_dst = tape.matmul(wh, a_dst); // [n, 1]
            let e_src = tape.gather_rows(s_src, mg.src.clone()); // [E, 1]
            let e_dst = tape.gather_rows(s_dst, mg.dst.clone()); // [E, 1]
            let logits = tape.add(e_src, e_dst);
            let logits = tape.leaky_relu(logits, LEAKY_SLOPE);
            let alpha = tape.segment_softmax(logits, mg.dst.clone(), mg.num_nodes); // [E,1]
            let msgs = tape.gather_rows(wh, mg.src.clone()); // [E, f']
            let weighted = tape.mul_col_broadcast(msgs, alpha);
            let agg = tape.scatter_add_rows(weighted, mg.dst.clone(), mg.num_nodes);
            head_outputs.push(agg);
        }
        let combined = if self.concat {
            tape.concat_cols(&head_outputs)
        } else {
            // Average the heads.
            let mut acc = head_outputs[0];
            for &h in &head_outputs[1..] {
                acc = tape.add(acc, h);
            }
            tape.scale(acc, 1.0 / self.heads.len() as f32)
        };
        let b = tape.param(store, self.bias);
        tape.add_row_broadcast(combined, b)
    }
}

/// Either backbone layer, type-erased for the encoder stack.
#[derive(Debug, Clone)]
pub enum Layer {
    /// Graph convolution.
    Gcn(GcnLayer),
    /// Graph attention.
    Gat(GatLayer),
}

impl Layer {
    /// Forward dispatch.
    pub fn forward(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        x: VarId,
        mg: &MessageGraph,
    ) -> VarId {
        match self {
            Layer::Gcn(l) => l.forward(tape, store, x, mg),
            Layer::Gat(l) => l.forward(tape, store, x, mg),
        }
    }
}

/// Dropout wrapper used between layers (inverted dropout at `DROPOUT` =
/// 0.01, the paper's). A no-op when `training` is false.
pub fn apply_dropout(tape: &mut Tape, x: VarId, training: bool, rng: &mut Xoshiro256pp) -> VarId {
    if !training {
        return x;
    }
    let len = tape.value(x).len();
    let mask = lumos_tensor::nn::dropout_mask(len, DROPOUT, rng);
    tape.dropout(x, mask)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumos_tensor::gradcheck::numeric_grad;

    fn rng() -> Xoshiro256pp {
        Xoshiro256pp::seed_from_u64(1000)
    }

    fn tiny_graph() -> MessageGraph {
        MessageGraph::from_undirected(4, &[(0, 1), (1, 2), (2, 3), (0, 3)])
    }

    #[test]
    fn gcn_forward_shape_and_finiteness() {
        let mut r = rng();
        let mut store = ParamStore::new();
        let layer = GcnLayer::new(&mut store, "gcn", 5, 3, &mut r);
        let mg = tiny_graph();
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::rand_uniform(4, 5, -1.0, 1.0, &mut r));
        let y = layer.forward(&mut tape, &store, x, &mg);
        assert_eq!(tape.value(y).dims(), (4, 3));
        assert!(tape.value(y).all_finite());
    }

    #[test]
    fn gcn_on_isolated_node_is_self_transform() {
        // A single node with only a self-loop: output = x W + b with
        // coefficient 1.
        let mut r = rng();
        let mut store = ParamStore::new();
        let layer = GcnLayer::new(&mut store, "gcn", 2, 2, &mut r);
        let mg = MessageGraph::from_undirected(1, &[]);
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::from_vec(1, 2, vec![1.0, -1.0]));
        let y = layer.forward(&mut tape, &store, x, &mg);
        let w = store.value(layer.w);
        let expected0 = 1.0 * w.at(0, 0) - 1.0 * w.at(1, 0);
        assert!((tape.value(y).at(0, 0) - expected0).abs() < 1e-5);
    }

    #[test]
    fn gcn_gradients_match_finite_difference() {
        let mut r = rng();
        let mut store = ParamStore::new();
        let layer = GcnLayer::new(&mut store, "gcn", 3, 2, &mut r);
        let mg = tiny_graph();
        let x = Tensor::rand_uniform(4, 3, -1.0, 1.0, &mut r);
        let wid = layer.w;

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
        let numeric = numeric_grad(&mut store, wid, &eval, 1e-2);
        assert!(
            store.get(wid).grad.max_abs_diff(&numeric) < 5e-2,
            "{:?} vs {numeric:?}",
            store.get(wid).grad
        );
    }

    /// The layer's output and parameter gradients equal, bit for bit, the
    /// gather → scale-rows → scatter-add recording `propagate` replaced.
    #[test]
    fn gcn_matches_the_three_op_reference_bit_for_bit() {
        let mut r = rng();
        let mut store = ParamStore::new();
        let layer = GcnLayer::new(&mut store, "gcn", 5, 3, &mut r);
        store.get_mut(layer.b).value = Tensor::rand_uniform(1, 3, -1.0, 1.0, &mut r);
        // Hubs, a pendant path and two isolated nodes.
        let edges = [(0, 1), (0, 2), (0, 3), (1, 2), (3, 4), (4, 5), (5, 6)];
        let mg = MessageGraph::from_undirected(9, &edges);
        let x = Tensor::rand_uniform(9, 5, -1.0, 1.0, &mut r);

        let mut run = |fused: bool| {
            let mut tape = Tape::new();
            let xv = tape.constant_ref(&x);
            let y = if fused {
                layer.forward(&mut tape, &store, xv, &mg)
            } else {
                let w = tape.param(&store, layer.w);
                let b = tape.param(&store, layer.b);
                let xw = tape.matmul(xv, w);
                let gathered = tape.gather_rows(xw, mg.src.clone());
                let scaled = tape.scale_rows(gathered, mg.gcn_coeff.clone());
                let agg = tape.scatter_add_rows(scaled, mg.dst.clone(), mg.num_nodes);
                tape.add_row_broadcast(agg, b)
            };
            let s = tape.sigmoid(y);
            let l = tape.mean_all(s);
            store.zero_grad();
            tape.accumulate_param_grads(&tape.backward(l), &mut store);
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            (
                bits(tape.value(y)),
                bits(&store.get(layer.w).grad),
                bits(&store.get(layer.b).grad),
            )
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn gat_forward_shapes_concat_and_mean() {
        let mut r = rng();
        let mut store = ParamStore::new();
        let concat = GatLayer::new(&mut store, "gat1", 5, 4, true, &mut r);
        let avg = GatLayer::new(&mut store, "gat2", 16, 6, false, &mut r);
        assert_eq!(concat.out_dim(), 16);
        assert_eq!(avg.out_dim(), 6);
        let mg = tiny_graph();
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::rand_uniform(4, 5, -1.0, 1.0, &mut r));
        let h = concat.forward(&mut tape, &store, x, &mg);
        assert_eq!(tape.value(h).dims(), (4, 16));
        let out = avg.forward(&mut tape, &store, h, &mg);
        assert_eq!(tape.value(out).dims(), (4, 6));
        assert!(tape.value(out).all_finite());
    }

    #[test]
    fn gat_attention_is_a_convex_combination() {
        // With identical inputs everywhere, the GAT output (pre-bias) equals
        // W h for every node: attention weights sum to 1.
        let mut r = rng();
        let mut store = ParamStore::new();
        let layer = GatLayer::new(&mut store, "gat", 3, 2, true, &mut r);
        let mg = tiny_graph();
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::from_vec(4, 3, vec![0.5; 12]));
        let y = layer.forward(&mut tape, &store, x, &mg);
        // All rows identical (same neighborhood value distribution).
        let v = tape.value(y);
        for i in 1..4 {
            for j in 0..layer.out_dim() {
                assert!((v.at(i, j) - v.at(0, j)).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn gat_gradients_match_finite_difference() {
        let mut r = rng();
        let mut store = ParamStore::new();
        let layer = GatLayer::new(&mut store, "gat", 3, 2, true, &mut r);
        let mg = tiny_graph();
        let x = Tensor::rand_uniform(4, 3, -1.0, 1.0, &mut r);
        let wid = layer.heads[0].w;
        let aid = layer.heads[0].a_src;

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
        for pid in [wid, aid] {
            let numeric = numeric_grad(&mut store, pid, &eval, 1e-2);
            assert!(
                store.get(pid).grad.max_abs_diff(&numeric) < 5e-2,
                "param {}: {:?} vs {numeric:?}",
                store.get(pid).name,
                store.get(pid).grad
            );
        }
    }

    #[test]
    fn dropout_wrapper_noop_in_eval_mode() {
        let mut r = rng();
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::ones(2, 4));
        let y = apply_dropout(&mut tape, x, false, &mut r);
        assert_eq!(y, x, "eval mode must not insert a node");
        let z = apply_dropout(&mut tape, x, true, &mut r);
        assert_ne!(z, x);
    }
}
