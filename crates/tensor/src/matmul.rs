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
//! The kernels run on the calling thread. A split by output rows across
//! scoped threads would keep every bit, but on a shared two-thread host its
//! wall time follows whatever else holds the second thread (measured: ten
//! runs spread 25% between their quartiles, against 4% unsplit).

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

/// `out[m, n] = a[m, k] · b[k, n]`, skipping zero multipliers of `a`.
/// `out` must arrive zero-filled.
pub(crate) fn matmul(a: &[f32], b: &[f32], out: &mut [f32], (m, k, n): (usize, usize, usize)) {
    debug_assert_eq!((a.len(), b.len(), out.len()), (m * k, k * n, m * n));
    if k == 0 || n == 0 {
        return;
    }
    for (a_row, o_row) in a.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
        for (t, o) in o_row.chunks_mut(TILE).enumerate() {
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

/// `out[m, n] = a[k, m]ᵀ · b[k, n]`, skipping zero multipliers of `a`.
/// `out` must arrive zero-filled.
pub(crate) fn matmul_tn(a: &[f32], b: &[f32], out: &mut [f32], (m, k, n): (usize, usize, usize)) {
    debug_assert_eq!((a.len(), b.len(), out.len()), (k * m, k * n, m * n));
    if n == 0 {
        return;
    }
    for k0 in (0..k).step_by(TN_BLOCK) {
        let block = k0..(k0 + TN_BLOCK).min(k);
        for (i, o_row) in out.chunks_exact_mut(n).enumerate() {
            for (t, o) in o_row.chunks_mut(TILE).enumerate() {
                on_tile(o, |acc| {
                    for kk in block.clone() {
                        let x = a[kk * m + i];
                        if x != 0.0 {
                            let j0 = kk * n + t * TILE;
                            axpy(acc, x, &b[j0..j0 + acc.len()]);
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

    /// Every kernel against its reference at `dims`.
    fn check(dims: (usize, usize, usize), zeros: f64, rng: &mut Xoshiro256pp) {
        let (m, k, n) = dims;
        let cases: [(&str, Kernel, Reference, _, _); 3] = [
            ("matmul", matmul, naive_matmul, (m, k), (k, n)),
            ("matmul_tn", matmul_tn, naive_tn, (k, m), (k, n)),
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
        matmul(&a, &b, &mut out, (1, 2, 1));
        assert_eq!(out, [6.0]);
        out = [0.0];
        matmul_tn(&a, &b, &mut out, (1, 2, 1));
        assert_eq!(out, [6.0]);
        out = [0.0];
        matmul_nt(&a, &b, &mut out, (1, 2, 1));
        assert!(out[0].is_nan());
    }
}
