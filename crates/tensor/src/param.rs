//! Trainable parameters and their store.
//!
//! A [`ParamStore`] owns every weight of a model together with its gradient
//! accumulator. Each training step records on a (reset) [`crate::tape::Tape`],
//! introduces the parameters as leaves, runs backward, and folds the leaf
//! gradients back into the store, after which an optimizer consumes them.

use crate::tensor::Tensor;

/// Opaque handle to a parameter inside a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

impl ParamId {
    /// The raw index (stable for the lifetime of the store).
    pub fn index(self) -> usize {
        self.0
    }
}

/// One named parameter with its gradient accumulator.
#[derive(Debug, Clone)]
pub struct Param {
    /// Human-readable name (e.g. `"gcn0.weight"`).
    pub name: String,
    /// Current value.
    pub value: Tensor,
    /// Gradient accumulated by the most recent backward pass(es).
    pub grad: Tensor,
}

/// Container for all trainable parameters of a model.
#[derive(Debug, Clone, Default)]
pub struct ParamStore {
    params: Vec<Param>,
}

impl ParamStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter, returning its handle.
    pub fn add(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        let (r, c) = value.dims();
        self.params.push(Param {
            name: name.into(),
            value,
            grad: Tensor::zeros(r, c),
        });
        ParamId(self.params.len() - 1)
    }

    /// Parameter accessor.
    pub fn get(&self, id: ParamId) -> &Param {
        &self.params[id.0]
    }

    /// Mutable parameter accessor.
    pub fn get_mut(&mut self, id: ParamId) -> &mut Param {
        &mut self.params[id.0]
    }

    /// Current value of a parameter.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.params[id.0].value
    }

    /// Zeroes every gradient accumulator.
    pub fn zero_grad(&mut self) {
        for p in &mut self.params {
            p.grad.map_inplace(|_| 0.0);
        }
    }

    /// Adds `g` into the gradient accumulator of `id`.
    pub fn accumulate_grad(&mut self, id: ParamId, g: &Tensor) {
        self.params[id.0].grad.add_assign(g);
    }

    /// Number of parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Total number of scalar weights.
    pub fn num_scalars(&self) -> usize {
        self.params.iter().map(|p| p.value.len()).sum()
    }

    /// Iterator over all parameters.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &Param)> {
        self.params.iter().enumerate().map(|(i, p)| (ParamId(i), p))
    }

    /// Iterator over ids only.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.params.len()).map(ParamId)
    }

    /// Global gradient L2 norm (diagnostic; useful for detecting blow-ups).
    pub fn grad_norm(&self) -> f32 {
        self.params
            .iter()
            .map(|p| p.grad.sq_norm())
            .sum::<f32>()
            .sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_lookup() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::ones(2, 3));
        let b = store.add("b", Tensor::zeros(1, 3));
        assert_eq!(store.len(), 2);
        assert_eq!(store.num_scalars(), 9);
        assert_eq!(store.get(w).name, "w");
        assert_eq!(store.value(b).dims(), (1, 3));
    }

    #[test]
    fn grad_accumulation_and_zeroing() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::zeros(1, 2));
        store.accumulate_grad(w, &Tensor::from_vec(1, 2, vec![1.0, 2.0]));
        store.accumulate_grad(w, &Tensor::from_vec(1, 2, vec![0.5, 0.5]));
        assert_eq!(store.get(w).grad.data(), &[1.5, 2.5]);
        assert!((store.grad_norm() - (1.5f32 * 1.5 + 2.5 * 2.5).sqrt()).abs() < 1e-6);
        store.zero_grad();
        assert_eq!(store.get(w).grad.data(), &[0.0, 0.0]);
    }
}
