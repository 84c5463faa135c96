//! The three dense products — `A·B`, `Aᵀ·B`, `A·Bᵀ` — as register-tiled
//! kernels over row-major slices.
//!
//! Every output element is one running sum that starts at `+0.0` and takes
//! its products in ascending inner index, whatever the tiling: a product's
//! bits do not depend on [`TILE`] or the block sizes.
//!
//! Output columns are walked in tiles of [`TILE`]: a full tile's sums sit in
//! a local array — registers — while the inner index sweeps, and are stored
//! once; the narrower last tile runs the same sweep in place.
//!
//! `A·B` and `Aᵀ·B` read their left operand a row at a time through
//! [`RowOperand`], so how `A` is stored is the operand's business: a dense
//! [`Tensor`](crate::Tensor) lends its rows, a compact operand decodes one
//! into the scratch it is handed, names a row all-zero, or points a row at
//! an earlier equal one. The sweep over a row is the same either way.
//!
//! The kernels run on the calling thread. A split by output rows across
//! scoped threads would keep every bit, but on a shared two-thread host its
//! wall time follows whatever else holds the second thread (measured: ten
//! runs spread 25% between their quartiles, against 4% unsplit).

use std::fmt::Debug;

/// The left operand of `A·B` / `Aᵀ·B`, read one row at a time.
///
/// A constant operand whose rows are mostly structure — all-zero, copies of
/// rows held elsewhere, a few distinct values — implements this instead of
/// being materialised as a [`Tensor`](crate::Tensor); it enters a recording
/// through [`Tape::constant_rows`](crate::Tape::constant_rows).
pub trait RowOperand: Debug {
    /// `(rows, cols)`.
    fn dims(&self) -> (usize, usize);

    /// The values of row `r`, or `None` when every one is zero. A row the
    /// operand does not hold as floats is written into `scratch`
    /// ([`scratch_len`](Self::scratch_len) long) and returned from there.
    fn row<'s>(&'s self, r: usize, scratch: &'s mut [f32]) -> Option<&'s [f32]>;

    /// Length of the scratch [`row`](Self::row) is handed: `cols`, or 0 for
    /// an operand that lends every row and so pays for none.
    fn scratch_len(&self) -> usize {
        self.dims().1
    }

    /// An earlier row (`< r`) with exactly the values of row `r`, if the
    /// operand knows one: `A·B` then copies that row's outputs.
    fn alias(&self, _r: usize) -> Option<usize> {
        None
    }
}

/// Output columns per tile: four SSE registers of accumulators, and the
/// whole output row at the paper's hidden width of 16.
const TILE: usize = 16;

/// Rows of `A` that `Aᵀ·B` folds into an output tile before moving to the
/// next one: the tile is loaded and stored once per block instead of once
/// per row, and a block of `A` (32 × 192 floats on the batch features)
/// stays in L1 while every output row visits it.
const TN_BLOCK: usize = 32;

/// Inner indices per transposed block of `A·Bᵀ` (a 4 KiB stack buffer).
const NT_BLOCK: usize = 64;

/// Runs `sweep` on one tile of an output row: a full tile through a local
/// copy whose length the compiler knows, the remainder tile in place.
#[inline(always)]
fn on_tile(o: &mut [f32], sweep: impl Fn(&mut [f32])) {
    match <&mut [f32; TILE]>::try_from(&mut *o) {
        Ok(full) => {
            let mut acc = *full;
            sweep(&mut acc);
            *full = acc;
        }
        Err(_) => sweep(o),
    }
}

/// `acc += x * b`, elementwise.
#[inline(always)]
fn axpy(acc: &mut [f32], x: f32, b: &[f32]) {
    for (o, &v) in acc.iter_mut().zip(b) {
        *o += x * v;
    }
}

/// `out[m, n] = a[m, k] · b[k, n]`, skipping zero multipliers — and zero
/// rows — of `a`, and copying the outputs of an aliased row. `out` must
/// arrive zero-filled.
pub(crate) fn matmul<A: RowOperand + ?Sized>(
    a: &A,
    b: &[f32],
    out: &mut [f32],
    (m, k, n): (usize, usize, usize),
) {
    debug_assert_eq!((a.dims(), b.len(), out.len()), ((m, k), k * n, m * n));
    if k == 0 || n == 0 {
        return;
    }
    let mut scratch = vec![0.0f32; a.scratch_len()];
    for r in 0..m {
        if let Some(first) = a.alias(r) {
            debug_assert!(first < r, "row {r} aliases a later row {first}");
            out.copy_within(first * n..(first + 1) * n, r * n);
            continue;
        }
        let Some(a_row) = a.row(r, &mut scratch) else {
            continue;
        };
        for (t, o) in out[r * n..(r + 1) * n].chunks_mut(TILE).enumerate() {
            on_tile(o, |acc| {
                for (&x, b_row) in a_row.iter().zip(b.chunks_exact(n)) {
                    if x != 0.0 {
                        axpy(acc, x, &b_row[t * TILE..t * TILE + acc.len()]);
                    }
                }
            });
        }
    }
}

/// `out[m, n] = a[k, m]ᵀ · b[k, n]`, skipping zero multipliers — and zero
/// rows — of `a`. `out` must arrive zero-filled. A block's rows of `a` are
/// fetched once — decoded ones side by side in one scratch block — before
/// every output row visits them.
pub(crate) fn matmul_tn<A: RowOperand + ?Sized>(
    a: &A,
    b: &[f32],
    out: &mut [f32],
    (m, k, n): (usize, usize, usize),
) {
    debug_assert_eq!((a.dims(), b.len(), out.len()), ((k, m), k * n, m * n));
    if m == 0 || n == 0 {
        return;
    }
    let slot_len = a.scratch_len();
    let mut scratch = vec![0.0f32; TN_BLOCK.min(k) * slot_len];
    for k0 in (0..k).step_by(TN_BLOCK) {
        // The block's non-zero rows of `a`, each beside its row of `b`.
        let mut live: [(&[f32], &[f32]); TN_BLOCK] = [(&[], &[]); TN_BLOCK];
        let mut len = 0;
        let mut slots = &mut scratch[..];
        for kk in k0..k.min(k0 + TN_BLOCK) {
            let (slot, rest) = slots.split_at_mut(slot_len);
            slots = rest;
            if let Some(a_row) = a.row(kk, slot) {
                live[len] = (a_row, &b[kk * n..(kk + 1) * n]);
                len += 1;
            }
        }
        let live = &live[..len];
        if live.is_empty() {
            continue;
        }
        for (i, o_row) in out.chunks_exact_mut(n).enumerate() {
            for (t, o) in o_row.chunks_mut(TILE).enumerate() {
                on_tile(o, |acc| {
                    for (a_row, b_row) in live {
                        let x = a_row[i];
                        if x != 0.0 {
                            axpy(acc, x, &b_row[t * TILE..t * TILE + acc.len()]);
                        }
                    }
                });
            }
        }
    }
}

/// `out[m, n] = a[m, k] · b[n, k]ᵀ`: every product taken, no zero skip.
/// `out` must arrive zero-filled. A tile's [`TILE`] rows of `b` are
/// transposed, [`NT_BLOCK`] inner indices at a time, into a stack buffer
/// every output row then sweeps as it would rows of `A·B`.
pub(crate) fn matmul_nt(a: &[f32], b: &[f32], out: &mut [f32], (m, k, n): (usize, usize, usize)) {
    debug_assert_eq!((a.len(), b.len(), out.len()), (m * k, n * k, m * n));
    if k == 0 || n == 0 {
        return;
    }
    let mut bt = [[0.0f32; TILE]; NT_BLOCK];
    for (t, b_tile) in b.chunks(TILE * k).enumerate() {
        for k0 in (0..k).step_by(NT_BLOCK) {
            let block = k0..(k0 + NT_BLOCK).min(k);
            for (j, b_row) in b_tile.chunks_exact(k).enumerate() {
                for (bt_row, &v) in bt.iter_mut().zip(&b_row[block.clone()]) {
                    bt_row[j] = v;
                }
            }
            for (a_row, o_row) in a.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
                let o = &mut o_row[t * TILE..n.min((t + 1) * TILE)];
                on_tile(o, |acc| {
                    for (&x, bt_row) in a_row[block.clone()].iter().zip(&bt) {
                        axpy(acc, x, &bt_row[..acc.len()]);
                    }
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use lumos_common::rng::Xoshiro256pp;

    use super::*;

    type Dims = (usize, usize, usize);
    type Kernel = fn(&[f32], &[f32], &mut [f32], Dims);
    type Reference = fn(&[f32], &[f32], Dims) -> Vec<f32>;

    /// `out[i, j] = Σ_kk a(i, kk) · b(kk, j)`: one sum per element from
    /// `+0.0` in ascending `kk`, optionally skipping zero multipliers.
    fn naive(
        (m, k, n): (usize, usize, usize),
        skip_zeros: bool,
        a: impl Fn(usize, usize) -> f32,
        b: impl Fn(usize, usize) -> f32,
    ) -> Vec<f32> {
        let mut out = Vec::with_capacity(m * n);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    if !(skip_zeros && a(i, kk) == 0.0) {
                        acc += a(i, kk) * b(kk, j);
                    }
                }
                out.push(acc);
            }
        }
        out
    }

    fn naive_matmul(a: &[f32], b: &[f32], (m, k, n): (usize, usize, usize)) -> Vec<f32> {
        naive(
            (m, k, n),
            true,
            |i, kk| a[i * k + kk],
            |kk, j| b[kk * n + j],
        )
    }

    fn naive_tn(a: &[f32], b: &[f32], (m, k, n): (usize, usize, usize)) -> Vec<f32> {
        naive(
            (m, k, n),
            true,
            |i, kk| a[kk * m + i],
            |kk, j| b[kk * n + j],
        )
    }

    fn naive_nt(a: &[f32], b: &[f32], (m, k, n): (usize, usize, usize)) -> Vec<f32> {
        naive(
            (m, k, n),
            false,
            |i, kk| a[i * k + kk],
            |kk, j| b[j * k + kk],
        )
    }

    /// `rows × cols` values in `[-1, 1)` with about `zeros` of them zero —
    /// some `-0.0`, some as whole zero rows.
    fn sparse(rows: usize, cols: usize, zeros: f64, rng: &mut Xoshiro256pp) -> Vec<f32> {
        let mut data = Vec::with_capacity(rows * cols);
        for _ in 0..rows {
            let zero_row = rng.bernoulli(zeros / 2.0);
            for _ in 0..cols {
                let v = 2.0 * rng.next_f32() - 1.0;
                data.push(if zero_row || rng.bernoulli(zeros / 2.0) {
                    if rng.bernoulli(0.5) {
                        0.0
                    } else {
                        -0.0
                    }
                } else {
                    v
                });
            }
        }
        data
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// A slice as the dense operand it is.
    #[derive(Debug)]
    struct Dense<'a>(&'a [f32], (usize, usize));

    impl RowOperand for Dense<'_> {
        fn dims(&self) -> (usize, usize) {
            self.1
        }

        fn row<'s>(&'s self, r: usize, _: &'s mut [f32]) -> Option<&'s [f32]> {
            let cols = self.1 .1;
            Some(&self.0[r * cols..(r + 1) * cols])
        }

        fn scratch_len(&self) -> usize {
            0
        }
    }

    fn dense_matmul(a: &[f32], b: &[f32], out: &mut [f32], dims: Dims) {
        matmul(&Dense(a, (dims.0, dims.1)), b, out, dims);
    }

    fn dense_tn(a: &[f32], b: &[f32], out: &mut [f32], dims: Dims) {
        matmul_tn(&Dense(a, (dims.1, dims.0)), b, out, dims);
    }

    /// Every kernel against its reference at `dims`.
    fn check(dims: (usize, usize, usize), zeros: f64, rng: &mut Xoshiro256pp) {
        let (m, k, n) = dims;
        let cases: [(&str, Kernel, Reference, _, _); 3] = [
            ("matmul", dense_matmul, naive_matmul, (m, k), (k, n)),
            ("matmul_tn", dense_tn, naive_tn, (k, m), (k, n)),
            ("matmul_nt", matmul_nt, naive_nt, (m, k), (n, k)),
        ];
        for (name, kernel, reference, a_dims, b_dims) in cases {
            let a = sparse(a_dims.0, a_dims.1, zeros, rng);
            let b = sparse(b_dims.0, b_dims.1, zeros / 4.0, rng);
            let mut out = vec![0.0f32; m * n];
            kernel(&a, &b, &mut out, dims);
            assert_eq!(
                bits(&out),
                bits(&reference(&a, &b, dims)),
                "{name} {dims:?} zeros {zeros}"
            );
        }
    }

    /// How [`Sketch`] holds one row.
    #[derive(Debug, Clone)]
    enum SketchRow {
        Zero,
        /// Held as floats.
        Lent(Vec<f32>),
        /// Held as indices into a three-value table.
        Coded(Vec<u8>, [f32; 3]),
        /// Equal to this earlier row.
        Same(usize),
    }

    /// An operand with every kind of row the trait describes.
    #[derive(Debug)]
    struct Sketch {
        cols: usize,
        rows: Vec<SketchRow>,
    }

    impl Sketch {
        /// `rows` rows in runs of one kind, so whole blocks come out
        /// all-zero, all-aliased, or mixed.
        fn random(rows: usize, cols: usize, rng: &mut Xoshiro256pp) -> Self {
            let mut out: Vec<SketchRow> = Vec::with_capacity(rows);
            while out.len() < rows {
                let run = 1 + rng.index(2 * TN_BLOCK);
                let kind = rng.index(4);
                for _ in 0..run.min(rows - out.len()) {
                    let lent = out
                        .iter()
                        .rposition(|r| matches!(r, SketchRow::Lent(_) | SketchRow::Coded(..)));
                    out.push(match (kind, lent) {
                        (0, _) => SketchRow::Zero,
                        (1, _) => SketchRow::Lent(sparse(1, cols, 0.3, rng)),
                        (2, _) | (_, None) => SketchRow::Coded(
                            (0..cols).map(|_| rng.index(3) as u8).collect(),
                            [0.5, -1.25, 2.5],
                        ),
                        (_, Some(first)) => SketchRow::Same(first),
                    });
                }
            }
            Self { cols, rows: out }
        }

        fn dense(&self) -> Vec<f32> {
            let mut scratch = vec![0.0; self.cols];
            (0..self.rows.len())
                .flat_map(|r| match self.row(r, &mut scratch) {
                    Some(row) => row.to_vec(),
                    None => vec![0.0; self.cols],
                })
                .collect()
        }
    }

    impl RowOperand for Sketch {
        fn dims(&self) -> (usize, usize) {
            (self.rows.len(), self.cols)
        }

        fn row<'s>(&'s self, r: usize, scratch: &'s mut [f32]) -> Option<&'s [f32]> {
            match &self.rows[r] {
                SketchRow::Zero => None,
                SketchRow::Lent(values) => Some(values),
                SketchRow::Coded(codes, table) => {
                    for (o, &c) in scratch.iter_mut().zip(codes) {
                        *o = table[usize::from(c)];
                    }
                    Some(scratch)
                }
                SketchRow::Same(first) => self.row(*first, scratch),
            }
        }

        fn alias(&self, r: usize) -> Option<usize> {
            match self.rows[r] {
                SketchRow::Same(first) => Some(first),
                _ => None,
            }
        }
    }

    #[test]
    fn a_structured_operand_multiplies_as_its_dense_form() {
        let mut rng = Xoshiro256pp::seed_from_u64(29);
        for rows in [0, 1, TN_BLOCK - 1, TN_BLOCK, 3 * TN_BLOCK + 5, 200] {
            for cols in [1, 5, 7, 192] {
                for n in [1, 7, TILE, TILE + 1] {
                    let a = Sketch::random(rows, cols, &mut rng);
                    let dense = a.dense();
                    let w = sparse(cols, n, 0.1, &mut rng);
                    let g = sparse(rows, n, 0.1, &mut rng);
                    let (mut got, mut want) = (vec![0.0; rows * n], vec![0.0; rows * n]);
                    matmul(&a, &w, &mut got, (rows, cols, n));
                    dense_matmul(&dense, &w, &mut want, (rows, cols, n));
                    assert_eq!(bits(&got), bits(&want), "A·B {rows}x{cols}x{n}");
                    let (mut got, mut want) = (vec![0.0; cols * n], vec![0.0; cols * n]);
                    matmul_tn(&a, &g, &mut got, (cols, rows, n));
                    dense_tn(&dense, &g, &mut want, (cols, rows, n));
                    assert_eq!(bits(&got), bits(&want), "Aᵀ·B {rows}x{cols}x{n}");
                }
            }
        }
    }

    #[test]
    fn kernels_equal_the_naive_sums_at_any_tile_fill() {
        let mut rng = Xoshiro256pp::seed_from_u64(19);
        // n below, at, above and far from a multiple of the tile width; k
        // across the tn / nt block sizes; empty dimensions.
        let ms = [0, 1, 2, 3, 7, 33];
        let ks = [0, 1, 5, TN_BLOCK - 1, TN_BLOCK, NT_BLOCK, NT_BLOCK + 3];
        let ns = [0, 1, 7, TILE - 1, TILE, TILE + 1, 2 * TILE, 2 * TILE + 9];
        for &m in &ms {
            for &k in &ks {
                for &n in &ns {
                    let zeros = 0.9 * rng.next_f64();
                    check((m, k, n), zeros, &mut rng);
                }
            }
        }
    }

    #[test]
    fn kernels_equal_the_naive_sums_on_seeded_random_shapes() {
        let mut rng = Xoshiro256pp::seed_from_u64(23);
        for _ in 0..60 {
            let dims = (rng.index(70), rng.index(150), rng.index(50));
            let zeros = 0.9 * rng.next_f64();
            check(dims, zeros, &mut rng);
        }
    }

    #[test]
    fn a_zero_multiplier_skips_a_non_finite_partner() {
        // 0 · ∞ is NaN; the skip never forms it. `A·Bᵀ` takes every product.
        let a = [0.0, 2.0];
        let b = [f32::INFINITY, 3.0];
        let mut out = [0.0];
        dense_matmul(&a, &b, &mut out, (1, 2, 1));
        assert_eq!(out, [6.0]);
        out = [0.0];
        dense_tn(&a, &b, &mut out, (1, 2, 1));
        assert_eq!(out, [6.0]);
        out = [0.0];
        matmul_nt(&a, &b, &mut out, (1, 2, 1));
        assert!(out[0].is_nan());
    }
}
