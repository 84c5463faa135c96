//! Sparse-access kernels for graph neural networks.
//!
//! Message passing on the batched tree graph reduces to three primitives:
//! gathering source-node rows along edges, scatter-adding edge messages into
//! destination nodes, and a segment softmax for attention coefficients —
//! plus [`propagate`], the gather → scale → scatter-add chain of a
//! constant-coefficient layer as one pass. All are implemented over the
//! dense [`Tensor`] with explicit index arrays.
//!
//! Each kernel is written once, as an `_into` form that fills a caller-owned
//! output (the tape hands it recycled buffers); where code outside the tape
//! calls a forward kernel, the allocating function of the same name wraps
//! it.

use crate::tensor::Tensor;

/// Gathers rows: `out[i, :] = x[idx[i], :]`.
///
/// # Panics
/// Panics if any index is out of bounds.
pub fn gather_rows(x: &Tensor, idx: &[u32]) -> Tensor {
    let mut out = Tensor::default();
    gather_rows_into(x, idx, &mut out);
    out
}

/// [`gather_rows`] into `out`, reusing its buffer.
pub(crate) fn gather_rows_into(x: &Tensor, idx: &[u32], out: &mut Tensor) {
    let (n, d) = x.dims();
    let buf = out.reshape_empty(idx.len(), d);
    for &j in idx {
        let j = j as usize;
        assert!(j < n, "gather index {j} out of bounds for {n} rows");
        buf.extend_from_slice(x.row(j));
    }
}

/// Scatter-add rows: `out[idx[i], :] += x[i, :]`, with `out` having
/// `out_rows` rows.
///
/// This is the adjoint of [`gather_rows`]; in the GNN it accumulates edge
/// messages at their destination vertices and leaf embeddings at their
/// global vertices (the POOL layer).
///
/// # Panics
/// Panics if `idx.len() != x.rows()` or any index is out of bounds.
pub fn scatter_add_rows(x: &Tensor, idx: &[u32], out_rows: usize) -> Tensor {
    let mut out = Tensor::default();
    scatter_add_rows_into(x, idx, out_rows, &mut out);
    out
}

/// [`scatter_add_rows`] into `out`, reusing its buffer.
pub(crate) fn scatter_add_rows_into(x: &Tensor, idx: &[u32], out_rows: usize, out: &mut Tensor) {
    let (n, d) = x.dims();
    assert_eq!(idx.len(), n, "scatter index length must match row count");
    out.reshape_filled(out_rows, d, 0.0);
    for (i, &j) in idx.iter().enumerate() {
        let j = j as usize;
        assert!(
            j < out_rows,
            "scatter index {j} out of bounds for {out_rows} rows"
        );
        for (o, &v) in out.row_mut(j).iter_mut().zip(x.row(i)) {
            *o += v;
        }
    }
}

/// Multiplies row `i` of `x` by the scalar `coeff[i]` (constant weights, as
/// used for the symmetric GCN normalization `1/sqrt(d_u d_v)` and for mean
/// pooling `1/count`).
///
/// # Panics
/// Panics if `coeff.len() != x.rows()`.
pub fn scale_rows(x: &Tensor, coeff: &[f32]) -> Tensor {
    let mut out = Tensor::default();
    scale_rows_into(x, coeff, &mut out);
    out
}

/// [`scale_rows`] into `out`, reusing its buffer.
pub(crate) fn scale_rows_into(x: &Tensor, coeff: &[f32], out: &mut Tensor) {
    let (n, d) = x.dims();
    assert_eq!(coeff.len(), n, "coefficient length must match row count");
    let buf = out.reshape_empty(n, d);
    for (row, &c) in x.data().chunks_exact(d.max(1)).zip(coeff) {
        buf.extend(row.iter().map(|&v| v * c));
    }
}

/// One message-passing step, fused: `out[dst[i], :] += x[src[i], :] *
/// coeff[i]` over the arcs in index order, with `out` having `out_rows`
/// rows.
///
/// Equal, bit for bit, to `scatter_add_rows(scale_rows(gather_rows(x, src),
/// coeff), dst, out_rows)` — the same products added in the same order —
/// without the two arc-sized intermediates. Its adjoint is itself with `src`
/// and `dst` exchanged.
///
/// # Panics
/// Panics if the three arc arrays differ in length or any index is out of
/// bounds.
pub fn propagate(x: &Tensor, src: &[u32], coeff: &[f32], dst: &[u32], out_rows: usize) -> Tensor {
    let mut out = Tensor::default();
    propagate_into(x, src, coeff, dst, out_rows, &mut out);
    out
}

/// [`propagate`] into `out`, reusing its buffer.
pub(crate) fn propagate_into(
    x: &Tensor,
    src: &[u32],
    coeff: &[f32],
    dst: &[u32],
    out_rows: usize,
    out: &mut Tensor,
) {
    let (n, d) = x.dims();
    assert_eq!(src.len(), dst.len(), "arc endpoints must pair up");
    assert_eq!(coeff.len(), src.len(), "one coefficient per arc");
    out.reshape_filled(out_rows, d, 0.0);
    for ((&s, &t), &c) in src.iter().zip(dst).zip(coeff) {
        let (s, t) = (s as usize, t as usize);
        assert!(s < n, "gather index {s} out of bounds for {n} rows");
        assert!(
            t < out_rows,
            "scatter index {t} out of bounds for {out_rows} rows"
        );
        for (o, &v) in out.row_mut(t).iter_mut().zip(x.row(s)) {
            *o += v * c;
        }
    }
}

/// Softmax over segments: entries of `x` (shape `[e, h]`) are grouped by
/// `seg[i]` (values in `0..n_seg`), and a numerically stable softmax is
/// taken independently within each segment for each column.
///
/// Empty segments are fine (they simply produce no output rows). This is the
/// GAT attention normalization: one segment per destination node, one column
/// per attention head.
///
/// # Panics
/// Panics if `seg.len() != x.rows()` or a segment id is out of bounds.
pub fn segment_softmax(x: &Tensor, seg: &[u32], n_seg: usize) -> Tensor {
    let mut out = Tensor::default();
    segment_softmax_into(x, seg, n_seg, &mut out);
    out
}

/// [`segment_softmax`] into `out`, reusing its buffer.
pub(crate) fn segment_softmax_into(x: &Tensor, seg: &[u32], n_seg: usize, out: &mut Tensor) {
    let (e, h) = x.dims();
    assert_eq!(seg.len(), e, "segment length must match row count");
    // Per-segment, per-column max for stability.
    let mut seg_max = vec![f32::NEG_INFINITY; n_seg * h];
    for (i, &s) in seg.iter().enumerate() {
        let s = s as usize;
        assert!(s < n_seg, "segment id {s} out of bounds for {n_seg}");
        let row = x.row(i);
        let m = &mut seg_max[s * h..(s + 1) * h];
        for (mx, &v) in m.iter_mut().zip(row) {
            *mx = mx.max(v);
        }
    }
    // exp(x - max), accumulate sums.
    let buf = out.reshape_empty(e, h);
    let mut seg_sum = vec![0.0f32; n_seg * h];
    for (i, &s) in seg.iter().enumerate() {
        let s = s as usize;
        let m = &seg_max[s * h..(s + 1) * h];
        let sums = &mut seg_sum[s * h..(s + 1) * h];
        let row_in = x.row(i);
        for c in 0..h {
            let v = (row_in[c] - m[c]).exp();
            buf.push(v);
            sums[c] += v;
        }
    }
    // Normalize.
    for (i, &s) in seg.iter().enumerate() {
        let s = s as usize;
        let sums = &seg_sum[s * h..(s + 1) * h];
        let row_out = out.row_mut(i);
        for c in 0..h {
            // A segment sum is zero only if the segment is empty, which
            // cannot happen for a row that belongs to it.
            row_out[c] /= sums[c];
        }
    }
}

/// Backward pass for [`segment_softmax`]: given the forward output `y` and
/// the upstream gradient `dy`, fills `dx = y * (dy - sum_seg(dy * y))`,
/// reusing its buffer.
pub(crate) fn segment_softmax_backward_into(
    y: &Tensor,
    dy: &Tensor,
    seg: &[u32],
    n_seg: usize,
    dx: &mut Tensor,
) {
    let (e, h) = y.dims();
    assert_eq!(dy.dims(), (e, h), "dy shape mismatch");
    assert_eq!(seg.len(), e, "segment length must match row count");
    let mut seg_dot = vec![0.0f32; n_seg * h];
    for (i, &s) in seg.iter().enumerate() {
        let s = s as usize;
        let dots = &mut seg_dot[s * h..(s + 1) * h];
        let yr = y.row(i);
        let dyr = dy.row(i);
        for c in 0..h {
            dots[c] += yr[c] * dyr[c];
        }
    }
    let buf = dx.reshape_empty(e, h);
    for (i, &s) in seg.iter().enumerate() {
        let s = s as usize;
        let dots = &seg_dot[s * h..(s + 1) * h];
        let yr = y.row(i);
        let dyr = dy.row(i);
        buf.extend((0..h).map(|c| yr[c] * (dyr[c] - dots[c])));
    }
}

/// Row-wise log-softmax for classification heads, into `out`, reusing its
/// buffer.
pub(crate) fn log_softmax_rows_into(x: &Tensor, out: &mut Tensor) {
    let (n, c) = x.dims();
    let buf = out.reshape_empty(n, c);
    for i in 0..n {
        let row = x.row(i);
        let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let lse = m + row.iter().map(|&v| (v - m).exp()).sum::<f32>().ln();
        buf.extend(row.iter().map(|&v| v - lse));
    }
}

/// Concatenates tensors horizontally (same row count) into `out`, reusing
/// its buffer.
///
/// # Panics
/// Panics if the list is empty or row counts differ.
pub(crate) fn concat_cols_into(parts: &[&Tensor], out: &mut Tensor) {
    assert!(!parts.is_empty(), "concat_cols needs at least one input");
    let n = parts[0].rows();
    let total: usize = parts.iter().map(|p| p.cols()).sum();
    let buf = out.reshape_empty(n, total);
    for i in 0..n {
        for p in parts {
            assert_eq!(p.rows(), n, "concat_cols requires equal row counts");
            buf.extend_from_slice(p.row(i));
        }
    }
}

/// Copies the `width` columns of `x` starting at column `off` into `out`,
/// reusing its buffer: one block of a [`concat_cols_into`] output.
pub(crate) fn copy_cols_into(x: &Tensor, off: usize, width: usize, out: &mut Tensor) {
    let n = x.rows();
    let buf = out.reshape_empty(n, width);
    for i in 0..n {
        buf.extend_from_slice(&x.row(i)[off..off + width]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gather_then_scatter_is_degree_weighted_identity() {
        let x = Tensor::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]);
        let idx = vec![0u32, 1, 1, 2];
        let g = gather_rows(&x, &idx);
        assert_eq!(g.dims(), (4, 2));
        assert_eq!(g.row(2), &[3., 4.]);
        let s = scatter_add_rows(&g, &idx, 3);
        // Row 1 was gathered twice, so it doubles.
        assert_eq!(s.row(0), &[1., 2.]);
        assert_eq!(s.row(1), &[6., 8.]);
        assert_eq!(s.row(2), &[5., 6.]);
    }

    #[test]
    fn scatter_into_larger_output() {
        let x = Tensor::from_vec(2, 1, vec![1., 2.]);
        let s = scatter_add_rows(&x, &[4, 4], 6);
        assert_eq!(s.rows(), 6);
        assert_eq!(s.at(4, 0), 3.0);
        assert_eq!(s.at(0, 0), 0.0);
    }

    #[test]
    fn scale_rows_applies_per_row_coefficient() {
        let x = Tensor::from_vec(2, 2, vec![1., 2., 3., 4.]);
        let y = scale_rows(&x, &[2.0, 0.5]);
        assert_eq!(y.data(), &[2., 4., 1.5, 2.]);
    }

    #[test]
    fn segment_softmax_sums_to_one_per_segment() {
        let x = Tensor::from_vec(5, 2, vec![1., 0., 2., 0., 3., 0., -1., 5., 0.5, 5.]);
        let seg = vec![0u32, 0, 0, 1, 1];
        let y = segment_softmax(&x, &seg, 2);
        let sum0: f32 = (0..3).map(|i| y.at(i, 0)).sum();
        let sum1: f32 = (3..5).map(|i| y.at(i, 0)).sum();
        assert!((sum0 - 1.0).abs() < 1e-6);
        assert!((sum1 - 1.0).abs() < 1e-6);
        // Monotone in the logits.
        assert!(y.at(2, 0) > y.at(1, 0));
        assert!(y.at(1, 0) > y.at(0, 0));
        // Second head column normalizes independently.
        let h1: f32 = (3..5).map(|i| y.at(i, 1)).sum();
        assert!((h1 - 1.0).abs() < 1e-6);
    }

    #[test]
    fn segment_softmax_single_element_segment_is_one() {
        let x = Tensor::from_vec(1, 1, vec![-42.0]);
        let y = segment_softmax(&x, &[0], 3);
        assert!((y.item() - 1.0).abs() < 1e-7);
    }

    #[test]
    fn segment_softmax_is_stable_for_large_logits() {
        let x = Tensor::from_vec(2, 1, vec![1e4, 1e4 + 1.0]);
        let y = segment_softmax(&x, &[0, 0], 1);
        assert!(y.all_finite());
        assert!((y.at(0, 0) + y.at(1, 0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn segment_softmax_backward_zero_for_uniform_upstream() {
        // If dy is constant within a segment, dx must be ~0 (softmax is
        // shift-invariant).
        let x = Tensor::from_vec(3, 1, vec![0.3, -1.2, 2.0]);
        let seg = vec![0u32, 0, 0];
        let y = segment_softmax(&x, &seg, 1);
        let dy = Tensor::full(3, 1, 5.0);
        let mut dx = Tensor::default();
        segment_softmax_backward_into(&y, &dy, &seg, 1, &mut dx);
        for i in 0..3 {
            assert!(dx.at(i, 0).abs() < 1e-5, "dx[{i}] = {}", dx.at(i, 0));
        }
    }

    #[test]
    fn log_softmax_rows_normalizes() {
        let x = Tensor::from_vec(2, 3, vec![1., 2., 3., -1., 0., 1.]);
        let mut lp = Tensor::default();
        log_softmax_rows_into(&x, &mut lp);
        for i in 0..2 {
            let total: f32 = lp.row(i).iter().map(|&v| v.exp()).sum();
            assert!((total - 1.0).abs() < 1e-6);
        }
        // argmax preserved
        assert!(lp.at(0, 2) > lp.at(0, 0));
    }

    #[test]
    fn concat_and_split_roundtrip() {
        let a = Tensor::from_vec(2, 1, vec![1., 2.]);
        let b = Tensor::from_vec(2, 2, vec![3., 4., 5., 6.]);
        let mut cat = Tensor::default();
        concat_cols_into(&[&a, &b], &mut cat);
        assert_eq!(cat.dims(), (2, 3));
        assert_eq!(cat.row(1), &[2., 5., 6.]);
        let mut part = Tensor::default();
        copy_cols_into(&cat, 0, 1, &mut part);
        assert_eq!(part, a);
        copy_cols_into(&cat, 1, 2, &mut part);
        assert_eq!(part, b);
    }

    #[test]
    #[should_panic]
    fn gather_out_of_bounds_panics() {
        let x = Tensor::zeros(2, 2);
        gather_rows(&x, &[5]);
    }

    #[test]
    #[should_panic(expected = "gather index 2 out of bounds")]
    fn propagate_source_out_of_bounds_panics() {
        propagate(&Tensor::zeros(2, 2), &[2], &[1.0], &[0], 3);
    }

    #[test]
    #[should_panic(expected = "scatter index 3 out of bounds")]
    fn propagate_destination_out_of_bounds_panics() {
        propagate(&Tensor::zeros(2, 2), &[1], &[1.0], &[3], 3);
    }

    #[test]
    #[should_panic(expected = "one coefficient per arc")]
    fn propagate_needs_a_coefficient_per_arc() {
        propagate(&Tensor::zeros(2, 2), &[1, 0], &[1.0], &[0, 1], 3);
    }
}
