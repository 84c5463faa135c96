//! Small neural-network helpers shared by GNN layers.

use std::rc::Rc;

use lumos_common::rng::Xoshiro256pp;

/// Samples an inverted-dropout mask: each entry is `0.0` with probability
/// `p` and `1/(1-p)` otherwise, so the expected activation is unchanged.
///
/// # Panics
/// Panics unless `0 <= p < 1`.
pub fn dropout_mask(len: usize, p: f32, rng: &mut Xoshiro256pp) -> Rc<Vec<f32>> {
    assert!(
        (0.0..1.0).contains(&p),
        "dropout probability must be in [0,1)"
    );
    if p == 0.0 {
        return Rc::new(vec![1.0; len]);
    }
    let keep = 1.0 / (1.0 - p);
    Rc::new(
        (0..len)
            .map(|_| if rng.bernoulli(p as f64) { 0.0 } else { keep })
            .collect(),
    )
}

/// Row-wise argmax of a tensor; returns one class index per row.
pub fn argmax_rows(x: &crate::tensor::Tensor) -> Vec<u32> {
    (0..x.rows())
        .map(|i| {
            let row = x.row(i);
            let mut best = 0usize;
            for (j, &v) in row.iter().enumerate() {
                if v > row[best] {
                    best = j;
                }
            }
            best as u32
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;

    #[test]
    fn dropout_mask_values_and_rate() {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let p = 0.3f32;
        let mask = dropout_mask(100_000, p, &mut rng);
        let keep = 1.0 / (1.0 - p);
        let mut zeros = 0usize;
        for &m in mask.iter() {
            assert!(m == 0.0 || (m - keep).abs() < 1e-6);
            if m == 0.0 {
                zeros += 1;
            }
        }
        let rate = zeros as f64 / mask.len() as f64;
        assert!((rate - 0.3).abs() < 0.01, "drop rate {rate}");
    }

    #[test]
    fn dropout_zero_probability_is_identity() {
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        let mask = dropout_mask(16, 0.0, &mut rng);
        assert!(mask.iter().all(|&m| m == 1.0));
    }

    #[test]
    fn argmax_rows_picks_max() {
        let x = Tensor::from_vec(2, 3, vec![0.1, 0.9, 0.3, 2.0, -1.0, 1.0]);
        assert_eq!(argmax_rows(&x), vec![1, 0]);
    }
}
