//! Small neural-network helpers shared by GNN layers.

use lumos_common::rng::Xoshiro256pp;

use crate::tensor::Tensor;

/// An inverted-dropout mask: one bit per element, set where the element is
/// kept. A kept element is multiplied by `1/(1-p)` and a dropped one by
/// `0.0`, so the expected activation is unchanged.
#[derive(Debug, Clone)]
pub struct DropoutMask {
    /// Bit `j` of byte `i` is element `8i + j`.
    kept: Vec<u8>,
    len: usize,
    keep: f32,
}

impl DropoutMask {
    /// The mask keeping the elements where `kept` yields `true`, at drop
    /// probability `p`.
    ///
    /// # Panics
    /// Panics unless `0 <= p < 1`.
    pub fn from_kept(kept: impl IntoIterator<Item = bool>, p: f32) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "dropout probability must be in [0,1)"
        );
        let (mut bytes, mut byte, mut len) = (Vec::new(), 0u8, 0);
        for k in kept {
            byte |= u8::from(k) << (len % 8);
            len += 1;
            if len % 8 == 0 {
                bytes.push(std::mem::take(&mut byte));
            }
        }
        if len % 8 != 0 {
            bytes.push(byte);
        }
        Self {
            kept: bytes,
            len,
            keep: 1.0 / (1.0 - p),
        }
    }

    /// Number of elements.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// `x ⊙ mask` into `out`. The eight factors of a mask byte come from a
    /// table indexed by the byte, so the inner loop is a product of two
    /// slices; testing each bit there costs several times as much.
    pub(crate) fn scale_into(&self, x: &Tensor, out: &mut Tensor) {
        assert_eq!(x.len(), self.len, "dropout mask length mismatch");
        let mut table = [[0.0f32; 8]; 256];
        for (byte, factors) in table.iter_mut().enumerate() {
            for (j, f) in factors.iter_mut().enumerate() {
                *f = if byte >> j & 1 == 1 { self.keep } else { 0.0 };
            }
        }
        let buf = out.reshape_empty(x.rows(), x.cols());
        for (chunk, &byte) in x.data().chunks(8).zip(&self.kept) {
            buf.extend(
                chunk
                    .iter()
                    .zip(&table[usize::from(byte)])
                    .map(|(&v, &m)| v * m),
            );
        }
    }
}

/// Samples an inverted-dropout mask of `len` elements: each is dropped with
/// probability `p`, one `bernoulli(p)` draw per element in order (none at
/// `p = 0`).
///
/// # Panics
/// Panics unless `0 <= p < 1`.
pub fn dropout_mask(len: usize, p: f32, rng: &mut Xoshiro256pp) -> DropoutMask {
    if p == 0.0 {
        return DropoutMask::from_kept(std::iter::repeat_n(true, len), p);
    }
    DropoutMask::from_kept((0..len).map(|_| !rng.bernoulli(p as f64)), p)
}

/// Row-wise argmax of a tensor; returns one class index per row.
pub fn argmax_rows(x: &Tensor) -> Vec<u32> {
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

    /// Each element's factor, in order: `0.0` (dropped) or `1/(1-p)`.
    fn factors(mask: &DropoutMask) -> Vec<f32> {
        let mut out = Tensor::default();
        mask.scale_into(&Tensor::ones(1, mask.len()), &mut out);
        out.data().to_vec()
    }

    #[test]
    fn dropout_mask_values_and_rate() {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let p = 0.3f32;
        let mask = dropout_mask(100_000, p, &mut rng);
        let keep = 1.0 / (1.0 - p);
        let mut zeros = 0usize;
        for m in factors(&mask) {
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
        assert!(factors(&mask).iter().all(|&m| m == 1.0));
        assert_eq!(rng, Xoshiro256pp::seed_from_u64(2), "p = 0 draws nothing");
    }

    /// The bit mask holds, bit for bit, the factors the one-`f32`-per-element
    /// mask held — drawn by the same loop — and leaves the stream where
    /// that loop left it; lengths straddle the 64-element words.
    #[test]
    fn the_bit_mask_holds_the_f32_mask_factors() {
        let mut rng = Xoshiro256pp::seed_from_u64(2023);
        for (len, p) in [
            (0, 0.5),
            (1, 0.5),
            (63, 0.3),
            (64, 0.01),
            (65, 0.5),
            (1000, 0.01),
        ] {
            let mut reference_rng = rng.clone();
            let keep = 1.0 / (1.0 - p);
            let reference: Vec<u32> = (0..len)
                .map(|_| {
                    if reference_rng.bernoulli(p as f64) {
                        0.0f32
                    } else {
                        keep
                    }
                })
                .map(f32::to_bits)
                .collect();
            let mask = dropout_mask(len, p, &mut rng);
            assert_eq!(mask.len(), len);
            assert_eq!(
                factors(&mask)
                    .into_iter()
                    .map(f32::to_bits)
                    .collect::<Vec<_>>(),
                reference
            );
            assert_eq!(rng, reference_rng, "len {len}");
        }
    }

    #[test]
    fn argmax_rows_picks_max() {
        let x = Tensor::from_vec(2, 3, vec![0.1, 0.9, 0.3, 2.0, -1.0, 1.0]);
        assert_eq!(argmax_rows(&x), vec![1, 0]);
    }
}
