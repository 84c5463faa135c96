//! Finite-difference gradient checking.
//!
//! Exposed publicly (not just for this crate's tests) so downstream crates
//! (`lumos-gnn`, `lumos-core`) can verify their layer compositions against
//! numeric derivatives.

use crate::param::{ParamId, ParamStore};
use crate::tensor::Tensor;

/// Central-difference numeric gradient of `eval` with respect to parameter
/// `id`. `eval` must be a pure function of the store (rebuild the tape inside
/// it). The store is restored to its original values before returning.
pub fn numeric_grad(
    store: &mut ParamStore,
    id: ParamId,
    eval: &dyn Fn(&ParamStore) -> f32,
    eps: f32,
) -> Tensor {
    let (r, c) = store.value(id).dims();
    let mut grad = Tensor::zeros(r, c);
    for i in 0..r * c {
        let orig = store.value(id).data()[i];
        store.get_mut(id).value.data_mut()[i] = orig + eps;
        let plus = eval(store);
        store.get_mut(id).value.data_mut()[i] = orig - eps;
        let minus = eval(store);
        store.get_mut(id).value.data_mut()[i] = orig;
        grad.data_mut()[i] = (plus - minus) / (2.0 * eps);
    }
    grad
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::Tape;

    #[test]
    fn numeric_grad_of_quadratic_is_linear() {
        let mut store = ParamStore::new();
        let a = store.add("a", Tensor::from_vec(1, 3, vec![1.0, -2.0, 0.5]));
        let eval = |store: &ParamStore| -> f32 {
            let mut t = Tape::new();
            let av = t.param(store, a);
            let sq = t.mul(av, av);
            let l = t.sum_all(sq);
            t.value(l).item()
        };
        let g = numeric_grad(&mut store, a, &eval, 1e-3);
        // d/dx x^2 = 2x
        let expected = Tensor::from_vec(1, 3, vec![2.0, -4.0, 1.0]);
        assert!(g.max_abs_diff(&expected) < 1e-2, "{g:?}");
        // Store restored.
        assert_eq!(store.value(a).data(), &[1.0, -2.0, 0.5]);
    }
}
