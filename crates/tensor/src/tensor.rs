//! A dense, row-major, two-dimensional `f32` tensor.
//!
//! Everything the GNN trainer needs is expressible over matrices: node
//! feature matrices `[n, d]`, weight matrices `[d_in, d_out]`, per-edge
//! attention logits `[e, heads]`, column vectors `[n, 1]` and scalars
//! `[1, 1]`. Restricting the engine to rank 2 keeps every kernel simple,
//! auditable and fast.

use lumos_common::rng::Xoshiro256pp;

use crate::matmul::{self, RowOperand};

/// Dense row-major matrix of `f32` values.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor from raw parts.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match shape [{rows}, {cols}]",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// All-zeros tensor.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// All-ones tensor.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self::full(rows, cols, 1.0)
    }

    /// Constant-filled tensor.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        let mut out = Self::default();
        out.reshape_filled(rows, cols, value);
        out
    }

    /// An empty `[0, 0]` tensor that keeps `data`'s allocation, ready to be
    /// the output of an `_into` op.
    pub(crate) fn from_buffer(mut data: Vec<f32>) -> Self {
        data.clear();
        Self {
            rows: 0,
            cols: 0,
            data,
        }
    }

    /// The backing buffer, for recycling.
    pub(crate) fn into_buffer(self) -> Vec<f32> {
        self.data
    }

    /// Values the backing buffer has room for: what the tensor holds
    /// allocated, however many it uses.
    pub(crate) fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Re-dimensions to `[rows, cols]` and hands out the emptied buffer with
    /// room reserved; the caller must push exactly `rows * cols` values.
    /// Ops that overwrite every element start here, so a recycled buffer
    /// costs them no fill and its old contents are unreachable.
    pub(crate) fn reshape_empty(&mut self, rows: usize, cols: usize) -> &mut Vec<f32> {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.reserve(rows * cols);
        &mut self.data
    }

    /// Re-dimensions to `[rows, cols]` with every element set to `value`.
    /// Ops that accumulate into their output (`matmul*`, `sum_rows`,
    /// `scatter_add_rows`, `propagate`) start here with `0.0`: a recycled
    /// buffer holds an earlier tensor's values.
    pub(crate) fn reshape_filled(&mut self, rows: usize, cols: usize, value: f32) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, value);
    }

    /// Copies `self` into `out`, reusing `out`'s buffer.
    pub(crate) fn copy_into(&self, out: &mut Self) {
        out.reshape_empty(self.rows, self.cols)
            .extend_from_slice(&self.data);
    }

    /// 1×1 tensor holding a scalar.
    pub fn scalar(value: f32) -> Self {
        Self::from_vec(1, 1, vec![value])
    }

    /// I.i.d. uniform entries in `[lo, hi)`.
    pub fn rand_uniform(
        rows: usize,
        cols: usize,
        lo: f32,
        hi: f32,
        rng: &mut Xoshiro256pp,
    ) -> Self {
        let data = (0..rows * cols)
            .map(|_| lo + (hi - lo) * rng.next_f32())
            .collect();
        Self { rows, cols, data }
    }

    /// I.i.d. standard-normal entries scaled by `std` (Box–Muller).
    pub fn randn(rows: usize, cols: usize, std: f32, rng: &mut Xoshiro256pp) -> Self {
        let dist = lumos_common::dist::Normal::new(0.0, std as f64);
        let data = (0..rows * cols).map(|_| dist.sample(rng) as f32).collect();
        Self { rows, cols, data }
    }

    /// Glorot/Xavier uniform initialization for a `[fan_in, fan_out]` weight.
    pub fn glorot(fan_in: usize, fan_out: usize, rng: &mut Xoshiro256pp) -> Self {
        let limit = (6.0 / (fan_in + fan_out) as f32).sqrt();
        Self::rand_uniform(fan_in, fan_out, -limit, limit, rng)
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn dims(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the backing buffer (row-major).
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing buffer (row-major).
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The single element of a 1×1 tensor.
    ///
    /// # Panics
    /// Panics if the tensor is not 1×1.
    pub fn item(&self) -> f32 {
        assert_eq!(
            (self.rows, self.cols),
            (1, 1),
            "item() requires a 1x1 tensor"
        );
        self.data[0]
    }

    /// Applies `f` elementwise, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        let mut out = Self::default();
        self.map_into(&mut out, f);
        out
    }

    /// [`Tensor::map`] into `out`, reusing its buffer.
    pub(crate) fn map_into(&self, out: &mut Self, f: impl Fn(f32) -> f32) {
        out.reshape_empty(self.rows, self.cols)
            .extend(self.data.iter().map(|&x| f(x)));
    }

    /// Applies `f` elementwise in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in self.data.iter_mut() {
            *x = f(*x);
        }
    }

    /// Elementwise combination with another tensor of identical shape.
    pub fn zip(&self, other: &Self, f: impl Fn(f32, f32) -> f32) -> Self {
        let mut out = Self::default();
        self.zip_into(other, &mut out, f);
        out
    }

    /// [`Tensor::zip`] into `out`, reusing its buffer.
    pub(crate) fn zip_into(&self, other: &Self, out: &mut Self, f: impl Fn(f32, f32) -> f32) {
        assert_eq!(
            self.dims(),
            other.dims(),
            "shape mismatch in elementwise op"
        );
        self.zip_slice_into(&other.data, out, f);
    }

    /// Elementwise combination with a flat slice holding one value per
    /// element (a dropout mask, per-element targets), into `out`.
    pub(crate) fn zip_slice_into(
        &self,
        other: &[f32],
        out: &mut Self,
        f: impl Fn(f32, f32) -> f32,
    ) {
        assert_eq!(self.data.len(), other.len(), "length mismatch in zip");
        out.reshape_empty(self.rows, self.cols)
            .extend(self.data.iter().zip(other).map(|(&a, &b)| f(a, b)));
    }

    /// In-place `self += other`.
    pub fn add_assign(&mut self, other: &Self) {
        assert_eq!(self.dims(), other.dims(), "shape mismatch in add_assign");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 if empty).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Squared Frobenius norm.
    pub fn sq_norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum()
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Self {
        let mut out = Self::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Matrix product `self @ other`, skipping zero multipliers of `self`
    /// (LDP-encoded features contain many constants).
    ///
    /// Like [`Tensor::matmul_tn`] and the tape's `self @ other^T`, the
    /// product is tiled, but every element is still one sum from `+0.0` in
    /// ascending inner index: the result's bits do not depend on the tiling.
    ///
    /// # Panics
    /// Panics if the inner dimensions disagree.
    pub fn matmul(&self, other: &Self) -> Self {
        matmul_rows(self, other)
    }

    /// `self @ other^T` into `out` without materializing the transpose,
    /// reusing its buffer.
    pub(crate) fn matmul_nt_into(&self, other: &Self, out: &mut Self) {
        assert_eq!(
            self.cols, other.cols,
            "matmul_nt inner dims: [{},{}] @ [{},{}]^T",
            self.rows, self.cols, other.rows, other.cols
        );
        let dims = (self.rows, self.cols, other.rows);
        out.reshape_filled(self.rows, other.rows, 0.0);
        matmul::matmul_nt(&self.data, &other.data, &mut out.data, dims);
    }

    /// `self^T @ other` without materializing the transpose, skipping zero
    /// multipliers of `self`.
    pub fn matmul_tn(&self, other: &Self) -> Self {
        matmul_tn_rows(self, other)
    }

    /// Sum over rows into `out`, a `[1, cols]` row vector, reusing its
    /// buffer.
    pub(crate) fn sum_rows_into(&self, out: &mut Self) {
        out.reshape_filled(1, self.cols, 0.0);
        for r in 0..self.rows {
            for (o, &x) in out.data.iter_mut().zip(self.row(r)) {
                *o += x;
            }
        }
    }

    /// Sum over columns into `out`, an `[rows, 1]` column vector, reusing
    /// its buffer.
    pub(crate) fn sum_cols_into(&self, out: &mut Self) {
        out.reshape_empty(self.rows, 1)
            .extend((0..self.rows).map(|r| self.row(r).iter().sum::<f32>()));
    }

    /// Maximum absolute difference from another tensor of identical shape.
    pub fn max_abs_diff(&self, other: &Self) -> f32 {
        assert_eq!(self.dims(), other.dims(), "shape mismatch in max_abs_diff");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0, f32::max)
    }

    /// True if all entries are finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

impl RowOperand for Tensor {
    fn dims(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    fn row<'s>(&'s self, r: usize, _scratch: &'s mut [f32]) -> Option<&'s [f32]> {
        Some(Tensor::row(self, r))
    }

    fn scratch_len(&self) -> usize {
        0
    }
}

/// `a @ b` for a left operand read row by row: bit for bit
/// [`Tensor::matmul`] of the operand written out densely.
///
/// # Panics
/// Panics if the inner dimensions disagree.
pub fn matmul_rows(a: &(impl RowOperand + ?Sized), b: &Tensor) -> Tensor {
    let mut out = Tensor::default();
    matmul_rows_into(a, b, &mut out);
    out
}

/// [`matmul_rows`] into `out`, reusing its buffer.
pub(crate) fn matmul_rows_into(a: &(impl RowOperand + ?Sized), b: &Tensor, out: &mut Tensor) {
    let (m, k) = a.dims();
    assert_eq!(
        k, b.rows,
        "matmul inner dims: [{m},{k}] @ [{},{}]",
        b.rows, b.cols
    );
    out.reshape_filled(m, b.cols, 0.0);
    matmul::matmul(a, &b.data, &mut out.data, (m, k, b.cols));
}

/// `aᵀ @ b` for a left operand read row by row: bit for bit
/// [`Tensor::matmul_tn`] of the operand written out densely.
///
/// # Panics
/// Panics if the inner dimensions disagree.
pub fn matmul_tn_rows(a: &(impl RowOperand + ?Sized), b: &Tensor) -> Tensor {
    let mut out = Tensor::default();
    matmul_tn_rows_into(a, b, &mut out);
    out
}

/// [`matmul_tn_rows`] into `out`, reusing its buffer.
pub(crate) fn matmul_tn_rows_into(a: &(impl RowOperand + ?Sized), b: &Tensor, out: &mut Tensor) {
    let (k, m) = a.dims();
    assert_eq!(
        k, b.rows,
        "matmul_tn inner dims: [{k},{m}]^T @ [{},{}]",
        b.rows, b.cols
    );
    out.reshape_filled(m, b.cols, 0.0);
    matmul::matmul_tn(a, &b.data, &mut out.data, (m, k, b.cols));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_shape() {
        let t = Tensor::zeros(2, 3);
        assert_eq!(t.dims(), (2, 3));
        assert_eq!(t.len(), 6);
        assert_eq!(Tensor::ones(1, 2).data(), &[1.0, 1.0]);
        assert_eq!(Tensor::scalar(4.0).item(), 4.0);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.dims(), (2, 2));
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_nt_and_tn_agree_with_explicit_transpose() {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let a = Tensor::rand_uniform(4, 3, -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(5, 3, -1.0, 1.0, &mut rng);
        let via_t = a.matmul(&b.transpose());
        let mut direct = Tensor::default();
        a.matmul_nt_into(&b, &mut direct);
        assert!(via_t.max_abs_diff(&direct) < 1e-6);

        let c = Tensor::rand_uniform(4, 6, -1.0, 1.0, &mut rng);
        let via_t2 = a.transpose().matmul(&c);
        let direct2 = a.matmul_tn(&c);
        assert!(via_t2.max_abs_diff(&direct2) < 1e-6);
    }

    #[test]
    fn transpose_involution() {
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        let a = Tensor::rand_uniform(3, 7, -2.0, 2.0, &mut rng);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(1, 3, vec![1., 2., 3.]);
        let b = Tensor::from_vec(1, 3, vec![4., 5., 6.]);
        assert_eq!(a.zip(&b, |x, y| x + y).data(), &[5., 7., 9.]);
        assert_eq!(b.zip(&a, |x, y| x - y).data(), &[3., 3., 3.]);
        assert_eq!(a.zip(&b, |x, y| x * y).data(), &[4., 10., 18.]);
        assert_eq!(a.map(|x| 2.0 * x).data(), &[2., 4., 6.]);
        assert_eq!(a.sum(), 6.0);
        assert!((a.mean() - 2.0).abs() < 1e-7);
        assert_eq!(a.sq_norm(), 14.0);
    }

    #[test]
    fn axpy_and_add_assign() {
        let mut a = Tensor::from_vec(1, 2, vec![1., 1.]);
        let b = Tensor::from_vec(1, 2, vec![2., 3.]);
        a.add_assign(&b);
        assert_eq!(a.data(), &[3., 4.]);
    }

    #[test]
    fn row_and_col_sums() {
        let a = Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let mut out = Tensor::default();
        a.sum_rows_into(&mut out);
        assert_eq!(out.data(), &[5., 7., 9.]);
        a.sum_cols_into(&mut out);
        assert_eq!(out.data(), &[6., 15.]);
    }

    #[test]
    fn glorot_within_limit() {
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let w = Tensor::glorot(64, 16, &mut rng);
        let limit = (6.0f32 / 80.0).sqrt();
        assert!(w.data().iter().all(|&x| x.abs() <= limit));
        // Should not be degenerate.
        assert!(w.data().iter().any(|&x| x.abs() > limit * 0.1));
    }

    #[test]
    fn randn_moments() {
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        let x = Tensor::randn(100, 100, 2.0, &mut rng);
        let mean = x.mean();
        let var = x
            .data()
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f32>()
            / x.len() as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.2, "var {var}");
    }

    #[test]
    #[should_panic]
    fn matmul_shape_mismatch_panics() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(4, 2);
        let _ = a.matmul(&b);
    }

    #[test]
    #[should_panic]
    fn item_requires_scalar() {
        Tensor::zeros(2, 1).item();
    }
}
