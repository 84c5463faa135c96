//! The 2-layer GNN encoder of §VIII-B: backbone ∈ {GCN, GAT}, hidden and
//! output dimension 16, ReLU + dropout(0.01) between layers, GAT with four
//! attention heads.

use lumos_common::rng::Xoshiro256pp;
use lumos_tensor::{ParamStore, Tape, VarId};

use crate::adj::MessageGraph;
use crate::layers::{apply_dropout, GatLayer, GcnLayer, Layer};

/// Backbone architecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backbone {
    /// Graph convolutional network (Kipf & Welling).
    Gcn,
    /// Graph attention network (Veličković et al.), 4 heads.
    Gat,
}

impl Backbone {
    /// Display name used in experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            Backbone::Gcn => "GCN",
            Backbone::Gat => "GAT",
        }
    }
}

/// Output embedding dimensionality (16 in the paper).
const OUT_DIM: usize = 16;

/// Encoder hyperparameters (defaults follow §VIII-B).
#[derive(Debug, Clone)]
pub struct EncoderConfig {
    /// Backbone architecture.
    pub backbone: Backbone,
    /// Input feature dimensionality.
    pub in_dim: usize,
    /// Hidden dimensionality (16 in the paper).
    pub hidden_dim: usize,
    /// Number of message-passing layers (2 in the paper).
    pub num_layers: usize,
}

impl EncoderConfig {
    /// The paper's configuration for a given backbone and input size.
    pub fn paper(backbone: Backbone, in_dim: usize) -> Self {
        Self {
            backbone,
            in_dim,
            hidden_dim: 16,
            num_layers: 2,
        }
    }
}

/// A stack of GNN layers producing node embeddings.
#[derive(Debug, Clone)]
pub struct GnnEncoder {
    layers: Vec<Layer>,
}

impl GnnEncoder {
    /// Registers all layer parameters in `store`.
    ///
    /// For GAT, hidden layers concatenate four heads of `hidden_dim`
    /// outputs each; the final layer averages four heads of the output
    /// dimension.
    ///
    /// # Panics
    /// Panics if `num_layers == 0`.
    pub fn new(store: &mut ParamStore, cfg: &EncoderConfig, rng: &mut Xoshiro256pp) -> Self {
        assert!(cfg.num_layers >= 1, "encoder needs at least one layer");
        let mut layers = Vec::with_capacity(cfg.num_layers);
        let mut dim = cfg.in_dim;
        for i in 0..cfg.num_layers {
            let last = i + 1 == cfg.num_layers;
            let name = format!("enc{i}");
            match cfg.backbone {
                Backbone::Gcn => {
                    let out = if last { OUT_DIM } else { cfg.hidden_dim };
                    let layer = GcnLayer::new(store, &name, dim, out, rng);
                    dim = layer.out_dim();
                    layers.push(Layer::Gcn(layer));
                }
                Backbone::Gat => {
                    let (head_dim, concat) = if last {
                        (OUT_DIM, false)
                    } else {
                        (cfg.hidden_dim, true)
                    };
                    let layer = GatLayer::new(store, &name, dim, head_dim, concat, rng);
                    dim = layer.out_dim();
                    layers.push(Layer::Gat(layer));
                }
            }
        }
        Self { layers }
    }

    /// Output embedding dimensionality.
    pub fn out_dim(&self) -> usize {
        OUT_DIM
    }

    /// Full forward pass: layer → (ReLU → dropout) between layers. Each
    /// layer records in its own [`Tape::scope`], so the activations no
    /// adjoint reads back are released as soon as it returns.
    pub fn forward(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        x: VarId,
        mg: &MessageGraph,
        training: bool,
        rng: &mut Xoshiro256pp,
    ) -> VarId {
        let mut h = x;
        for (i, layer) in self.layers.iter().enumerate() {
            h = tape.scope(|tape| {
                let y = layer.forward(tape, store, h, mg);
                if i + 1 == self.layers.len() {
                    return y;
                }
                let y = tape.relu(y);
                apply_dropout(tape, y, training, rng)
            });
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumos_tensor::Tensor;

    fn rng() -> Xoshiro256pp {
        Xoshiro256pp::seed_from_u64(555)
    }

    #[test]
    fn gcn_encoder_dimensions() {
        let mut r = rng();
        let mut store = ParamStore::new();
        let cfg = EncoderConfig::paper(Backbone::Gcn, 32);
        let enc = GnnEncoder::new(&mut store, &cfg, &mut r);
        assert_eq!(enc.layers.len(), 2);
        assert_eq!(enc.out_dim(), 16);
        let mg = MessageGraph::from_undirected(5, &[(0, 1), (1, 2), (3, 4)]);
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::rand_uniform(5, 32, 0.0, 1.0, &mut r));
        let h = enc.forward(&mut tape, &store, x, &mg, true, &mut r);
        assert_eq!(tape.value(h).dims(), (5, 16));
        assert!(tape.value(h).all_finite());
    }

    #[test]
    fn gat_encoder_dimensions() {
        let mut r = rng();
        let mut store = ParamStore::new();
        let cfg = EncoderConfig::paper(Backbone::Gat, 12);
        let enc = GnnEncoder::new(&mut store, &cfg, &mut r);
        // Hidden layer: 4 heads × 16 concat = 64; final: 4 heads avg → 16.
        assert_eq!(enc.out_dim(), 16);
        let mg = MessageGraph::from_undirected(4, &[(0, 1), (2, 3)]);
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::rand_uniform(4, 12, 0.0, 1.0, &mut r));
        let h = enc.forward(&mut tape, &store, x, &mg, false, &mut r);
        assert_eq!(tape.value(h).dims(), (4, 16));
    }

    #[test]
    fn eval_mode_is_deterministic() {
        let mut r = rng();
        let mut store = ParamStore::new();
        let cfg = EncoderConfig::paper(Backbone::Gcn, 8);
        let enc = GnnEncoder::new(&mut store, &cfg, &mut r);
        let mg = MessageGraph::from_undirected(3, &[(0, 1), (1, 2)]);
        let x_data = Tensor::rand_uniform(3, 8, 0.0, 1.0, &mut r);
        let run = |rng: &mut Xoshiro256pp| {
            let mut tape = Tape::new();
            let x = tape.constant(x_data.clone());
            let h = enc.forward(&mut tape, &store, x, &mg, false, rng);
            tape.value(h).clone()
        };
        let mut r1 = Xoshiro256pp::seed_from_u64(1);
        let mut r2 = Xoshiro256pp::seed_from_u64(2);
        assert_eq!(run(&mut r1), run(&mut r2), "no stochasticity in eval mode");
    }

    #[test]
    fn param_counts() {
        let mut r = rng();
        let mut store = ParamStore::new();
        let cfg = EncoderConfig::paper(Backbone::Gcn, 10);
        let _ = GnnEncoder::new(&mut store, &cfg, &mut r);
        // Two GCN layers: W + b each.
        assert_eq!(store.len(), 4);
        assert_eq!(store.num_scalars(), 10 * 16 + 16 + 16 * 16 + 16);
        let mut store2 = ParamStore::new();
        let cfg2 = EncoderConfig::paper(Backbone::Gat, 10);
        let _ = GnnEncoder::new(&mut store2, &cfg2, &mut r);
        // Layer 1: 4 heads × (W + a_src + a_dst) + bias; layer 2 likewise.
        assert_eq!(store2.len(), 4 * 3 + 1 + 4 * 3 + 1);
    }
}
