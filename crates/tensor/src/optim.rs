//! The first-order optimizer.
//!
//! The paper trains every model with Adam at `lr = 0.01` (§VIII-B).

use crate::param::ParamStore;
use crate::tensor::Tensor;

/// Adam optimizer (Kingma & Ba) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u32,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Creates Adam with the standard β₁=0.9, β₂=0.999, ε=1e-8.
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u32 {
        self.t
    }

    fn ensure_state(&mut self, store: &ParamStore) {
        while self.m.len() < store.len() {
            let idx = self.m.len();
            let (r, c) = store
                .iter()
                .nth(idx)
                .map(|(_, p)| p.value.dims())
                .expect("index within store");
            self.m.push(Tensor::zeros(r, c));
            self.v.push(Tensor::zeros(r, c));
        }
    }

    /// Applies one Adam update using the gradients accumulated in `store`.
    pub fn step(&mut self, store: &mut ParamStore) {
        self.ensure_state(store);
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        for id in store.ids().collect::<Vec<_>>() {
            let i = id.index();
            let p = store.get_mut(id);
            let m = &mut self.m[i];
            let v = &mut self.v[i];
            for ((w, &g), (mi, vi)) in p
                .value
                .data_mut()
                .iter_mut()
                .zip(p.grad.data())
                .zip(m.data_mut().iter_mut().zip(v.data_mut().iter_mut()))
            {
                *mi = self.beta1 * *mi + (1.0 - self.beta1) * g;
                *vi = self.beta2 * *vi + (1.0 - self.beta2) * g * g;
                let m_hat = *mi / b1t;
                let v_hat = *vi / b2t;
                *w -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::Tape;

    /// Minimizing `(x - 3)^2` should converge to 3 quickly with Adam.
    #[test]
    fn adam_minimizes_quadratic() {
        let mut store = ParamStore::new();
        let x = store.add("x", Tensor::scalar(-5.0));
        let mut opt = Adam::new(0.1);
        for _ in 0..300 {
            store.zero_grad();
            let mut t = Tape::new();
            let xv = t.param(&store, x);
            let c = t.constant(Tensor::scalar(3.0));
            let d = t.sub(xv, c);
            let sq = t.mul(d, d);
            let l = t.sum_all(sq);
            let grads = t.backward(l);
            t.accumulate_param_grads(&grads, &mut store);
            opt.step(&mut store);
        }
        let xf = store.value(x).item();
        assert!((xf - 3.0).abs() < 1e-2, "x converged to {xf}");
        assert_eq!(opt.steps(), 300);
    }

    #[test]
    fn adam_handles_params_added_between_steps() {
        let mut store = ParamStore::new();
        let a = store.add("a", Tensor::scalar(1.0));
        let mut opt = Adam::new(0.01);
        store.zero_grad();
        store.accumulate_grad(a, &Tensor::scalar(1.0));
        opt.step(&mut store);
        // Register a second parameter afterwards; state must grow lazily.
        let b = store.add("b", Tensor::scalar(2.0));
        store.zero_grad();
        store.accumulate_grad(b, &Tensor::scalar(1.0));
        opt.step(&mut store);
        assert!(store.value(a).item() < 1.0);
        assert!(store.value(b).item() < 2.0);
    }
}
