//! Decoders: the linear classification head (Eq. 32 / Eq. 3) and the
//! pairwise dot-product link decoder (Eq. 4).

use std::rc::Rc;

use lumos_common::rng::Xoshiro256pp;
use lumos_tensor::{ParamId, ParamStore, Tape, Tensor, VarId};

/// Linear classification head: `z_u = LINEAR(h_u)` (Eq. 32).
#[derive(Debug, Clone)]
pub struct LinearDecoder {
    w: ParamId,
    b: ParamId,
}

impl LinearDecoder {
    /// Registers the head's parameters.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        num_classes: usize,
        rng: &mut Xoshiro256pp,
    ) -> Self {
        Self {
            w: store.add(
                format!("{name}.weight"),
                Tensor::glorot(in_dim, num_classes, rng),
            ),
            b: store.add(format!("{name}.bias"), Tensor::zeros(1, num_classes)),
        }
    }

    /// Produces per-node class logits `[n, L]`.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, h: VarId) -> VarId {
        let w = tape.param(store, self.w);
        let b = tape.param(store, self.b);
        let z = tape.matmul(h, w);
        tape.add_row_broadcast(z, b)
    }
}

/// Pairwise link logits: `z_(u,v) = h_u · h_v` (the decoder of Eq. 4 /
/// Eq. 33). Returns a `[P, 1]` column of dot products for pairs
/// `(src[i], dst[i])`.
pub fn link_logits(tape: &mut Tape, h: VarId, src: Rc<Vec<u32>>, dst: Rc<Vec<u32>>) -> VarId {
    assert_eq!(src.len(), dst.len(), "pair endpoint lists must align");
    let d = tape.value(h).cols();
    let hu = tape.gather_rows(h, src);
    let hv = tape.gather_rows(h, dst);
    let prod = tape.mul(hu, hv);
    // Row-wise sum via multiplication with a ones column.
    let ones = tape.constant(Tensor::ones(d, 1));
    tape.matmul(prod, ones)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Xoshiro256pp {
        Xoshiro256pp::seed_from_u64(808)
    }

    #[test]
    fn linear_decoder_shapes() {
        let mut r = rng();
        let mut store = ParamStore::new();
        let dec = LinearDecoder::new(&mut store, "head", 16, 4, &mut r);
        let mut tape = Tape::new();
        let h = tape.constant(Tensor::rand_uniform(7, 16, -1.0, 1.0, &mut r));
        let z = dec.forward(&mut tape, &store, h);
        assert_eq!(tape.value(z).dims(), (7, 4));
    }

    #[test]
    fn link_logits_are_dot_products() {
        let mut tape = Tape::new();
        let h = tape.constant(Tensor::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, -1.0, 0.5]));
        let z = link_logits(&mut tape, h, Rc::new(vec![0, 1, 2]), Rc::new(vec![1, 2, 0]));
        let v = tape.value(z);
        assert_eq!(v.dims(), (3, 1));
        assert!((v.at(0, 0) - (1.0 * 3.0 + 2.0 * 4.0)).abs() < 1e-6);
        assert!((v.at(1, 0) - (-3.0 + 4.0 * 0.5)).abs() < 1e-6);
        assert!((v.at(2, 0) - (-1.0 + 0.5 * 2.0)).abs() < 1e-6);
    }

    #[test]
    fn link_logits_gradients_flow() {
        let mut r = rng();
        let mut store = ParamStore::new();
        let hid = store.add("h", Tensor::rand_uniform(4, 3, -1.0, 1.0, &mut r));
        let src = Rc::new(vec![0u32, 2]);
        let dst = Rc::new(vec![1u32, 3]);
        let mut tape = Tape::new();
        let h = tape.param(&store, hid);
        let z = link_logits(&mut tape, h, src, dst);
        let l = tape.sum_all(z);
        let grads = tape.backward(l);
        tape.accumulate_param_grads(&grads, &mut store);
        // d(h0·h1)/dh0 = h1 etc.
        let h_val = store.value(hid).clone();
        let g = &store.get(hid).grad;
        for j in 0..3 {
            assert!((g.at(0, j) - h_val.at(1, j)).abs() < 1e-6);
            assert!((g.at(1, j) - h_val.at(0, j)).abs() < 1e-6);
        }
    }
}
