//! Block-tridiagonal Cholesky factorization.
//!
//! SpotWeb's multi-period KKT matrix has a special sparsity: the risk
//! and constraint terms act within one planning period (diagonal
//! `N × N` blocks) and only the churn term couples *adjacent* periods
//! (sub-/super-diagonal blocks). For a horizon `H` the matrix is
//! block-tridiagonal:
//!
//! ```text
//! K = ⎡D₀  E₁ᵀ         ⎤
//!     ⎢E₁  D₁  E₂ᵀ     ⎥
//!     ⎢    E₂  D₂  ⋱   ⎥
//!     ⎣        ⋱   ⋱   ⎦
//! ```
//!
//! The block Cholesky factorization costs `O(H·N³)` instead of the
//! dense `O((HN)³)` — an `H²` speedup that makes long look-ahead
//! horizons as cheap per period as short ones (the paper's Fig. 7(b)
//! scalability claim). The factor is block-bidiagonal:
//! `L = bidiag(L₀…, B₁…)` with `Bᵢ = Eᵢ·Lᵢ₋₁⁻ᵀ` and
//! `Lᵢ = chol(Dᵢ − Bᵢ·Bᵢᵀ)`.
//!
//! A solve is bound by the bytes of factor it streams, so each block is
//! kept once and read along its rows in both passes: the forward pass
//! takes `Bᵢ·z` as a dot product per row, the backward pass takes
//! `Bᵢᵀ·x` as a sweep of row `k` scaled by `x[k]` into a scratch sum.
//! And it reads no structural zero: `factor` records the *nonzero hull*
//! `[lo, hi)` of every row of `Bᵢ` and both passes stay inside it. The
//! churn coupling `Eᵢ` is diagonal, which makes `Bᵢ` upper-triangular —
//! half of every block — but the hull is read off the factor, whatever
//! the caller passed. Leaving out a term `±0.0·x` is exact under the
//! guard DESIGN.md "The accumulator rule" states, so every iterate is
//! bit-identical to the scalar block loops.

use crate::cholesky::Cholesky;
use crate::{LinalgError, Matrix, Result};

const NEG_ZERO: u64 = (-0.0_f64).to_bits();

/// One sub-diagonal block `B` of the block factor.
#[derive(Debug, Clone)]
struct Coupling {
    b: Matrix,
    /// Per row of `b`, the half-open column range outside which the
    /// row is `±0.0`; `(0, 0)` for an all-zero row.
    hull: Vec<(usize, usize)>,
}

/// The range covering every non-empty hull in `hull` — what a tile of
/// rows that advance together runs over; `lo ≥ hi` if all are empty.
fn joint_hull(hull: &[(usize, usize)]) -> (usize, usize) {
    hull.iter()
        .filter(|h| h.0 < h.1)
        .fold((usize::MAX, 0), |(lo, hi), h| (lo.min(h.0), hi.max(h.1)))
}

fn row_hull(row: &[f64]) -> (usize, usize) {
    match row.iter().position(|v| *v != 0.0) {
        Some(lo) => (
            lo,
            1 + row.iter().rposition(|v| *v != 0.0).expect("lo exists"),
        ),
        None => (0, 0),
    }
}

impl Coupling {
    /// `B = E·L⁻ᵀ`: each row of `E` forward-substituted through `prev`,
    /// in `E`'s own storage.
    ///
    /// Four rows share each pass over `prev`'s factor, and the pivots
    /// ahead of a row's first live entry are left out: on a right-hand
    /// side that is `+0.0` so far they yield `+0.0` and then take
    /// `±0.0` off the later entries, which changes one only if it is
    /// `−0.0` — so a tile holding a `−0.0` anywhere starts at pivot 0.
    fn factor(prev: &Cholesky, e: Matrix) -> Coupling {
        let n = e.rows();
        let mut b = e;
        for tile in b.as_mut_slice().chunks_mut(4 * n.max(1)) {
            let start = if tile.iter().any(|v| v.to_bits() == NEG_ZERO) {
                0
            } else {
                tile.chunks(n)
                    .map(|row| row.iter().position(|v| v.to_bits() != 0).unwrap_or(n))
                    .min()
                    .unwrap_or(n)
            };
            prev.forward_from(start, tile);
        }
        let hull = (0..n).map(|r| row_hull(b.row(r))).collect();
        Coupling { b, hull }
    }

    /// `d ← d − B·Bᵀ`, lower triangle only (all `Cholesky::factor`
    /// reads; the upper triangle is left as it was). Entry `(i, j)` sums
    /// `B[i, k]·B[j, k]` from `+0.0` in ascending `k` over the two
    /// rows' common hull, skipping `B[i, k] == 0.0` as
    /// `Matrix::matmul` does, four `j` together.
    fn schur_lower(&self, s: &mut Matrix) {
        let n = s.rows();
        for i in 0..n {
            let (lo_i, hi_i) = self.hull[i];
            let row_i = self.b.row(i);
            let mut j = 0;
            while j + 4 <= i + 1 {
                let (lo, hi) = joint_hull(&self.hull[j..j + 4]);
                let (lo, hi) = (lo.max(lo_i), hi.min(hi_i));
                let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
                if lo < hi {
                    let (r0, r1, r2, r3) = (
                        &self.b.row(j)[lo..hi],
                        &self.b.row(j + 1)[lo..hi],
                        &self.b.row(j + 2)[lo..hi],
                        &self.b.row(j + 3)[lo..hi],
                    );
                    for ((((&a, b0), b1), b2), b3) in
                        row_i[lo..hi].iter().zip(r0).zip(r1).zip(r2).zip(r3)
                    {
                        if a == 0.0 {
                            continue;
                        }
                        s0 += a * b0;
                        s1 += a * b1;
                        s2 += a * b2;
                        s3 += a * b3;
                    }
                }
                for (out, acc) in s.row_mut(i)[j..j + 4].iter_mut().zip([s0, s1, s2, s3]) {
                    *out -= acc;
                }
                j += 4;
            }
            for j in j..=i {
                let (lo, hi) = (lo_i.max(self.hull[j].0), hi_i.min(self.hull[j].1));
                let mut acc = 0.0;
                if lo < hi {
                    for (&a, bj) in row_i[lo..hi].iter().zip(&self.b.row(j)[lo..hi]) {
                        if a == 0.0 {
                            continue;
                        }
                        acc += a * bj;
                    }
                }
                s[(i, j)] -= acc;
            }
        }
    }

    /// Forward coupling, `cur[i] ← ((cur[i] − B[i, lo]·z[lo]) − …)`:
    /// a dot product per row over its hull, four rows interleaved (a
    /// single chain is bound by the subtract latency). Taking `±0.0`
    /// off a sum changes it only if the sum is `−0.0`, which it can be
    /// only if it started there: such a tile runs its rows in full.
    fn sub_bz(&self, z: &[f64], cur: &mut [f64]) {
        let n = cur.len();
        let hull_of = |s: &[f64], hull: &[(usize, usize)]| {
            if s.iter().any(|v| v.to_bits() == NEG_ZERO) {
                (0, n)
            } else {
                joint_hull(hull)
            }
        };
        let mut i = 0;
        while i + 4 <= n {
            let (lo, hi) = hull_of(&cur[i..i + 4], &self.hull[i..i + 4]);
            if lo < hi {
                let (r0, r1, r2, r3) = (
                    &self.b.row(i)[lo..hi],
                    &self.b.row(i + 1)[lo..hi],
                    &self.b.row(i + 2)[lo..hi],
                    &self.b.row(i + 3)[lo..hi],
                );
                let (mut s0, mut s1, mut s2, mut s3) = (cur[i], cur[i + 1], cur[i + 2], cur[i + 3]);
                for ((((zk, a0), a1), a2), a3) in z[lo..hi].iter().zip(r0).zip(r1).zip(r2).zip(r3) {
                    s0 -= a0 * zk;
                    s1 -= a1 * zk;
                    s2 -= a2 * zk;
                    s3 -= a3 * zk;
                }
                cur[i..i + 4].copy_from_slice(&[s0, s1, s2, s3]);
            }
            i += 4;
        }
        for i in i..n {
            let (lo, hi) = hull_of(&cur[i..=i], &self.hull[i..=i]);
            if lo < hi {
                let mut s = cur[i];
                for (zk, a) in z[lo..hi].iter().zip(&self.b.row(i)[lo..hi]) {
                    s -= a * zk;
                }
                cur[i] = s;
            }
        }
    }

    /// Backward coupling, `cur[i] ← cur[i] − Σ_k B[k, i]·x[k]` with the
    /// sum built from `+0.0` in ascending `k` in `acc`: row `k` of `B`
    /// scaled by `x[k]` is swept into `acc` over its hull, four rows a
    /// pass. A sum that starts at `+0.0` never becomes `−0.0`, so the
    /// `±0.0` terms outside the hull would change nothing.
    fn sub_btx(&self, x: &[f64], cur: &mut [f64], acc: &mut [f64]) {
        let n = cur.len();
        acc.fill(0.0);
        let mut k = 0;
        while k + 4 <= n {
            let (lo, hi) = joint_hull(&self.hull[k..k + 4]);
            if lo < hi {
                let (x0, x1, x2, x3) = (x[k], x[k + 1], x[k + 2], x[k + 3]);
                let (r0, r1, r2, r3) = (
                    &self.b.row(k)[lo..hi],
                    &self.b.row(k + 1)[lo..hi],
                    &self.b.row(k + 2)[lo..hi],
                    &self.b.row(k + 3)[lo..hi],
                );
                for ((((s, a0), a1), a2), a3) in
                    acc[lo..hi].iter_mut().zip(r0).zip(r1).zip(r2).zip(r3)
                {
                    *s = (((*s + a0 * x0) + a1 * x1) + a2 * x2) + a3 * x3;
                }
            }
            k += 4;
        }
        for k in k..n {
            let (lo, hi) = self.hull[k];
            for (s, a) in acc[lo..hi].iter_mut().zip(&self.b.row(k)[lo..hi]) {
                *s += a * x[k];
            }
        }
        for (c, s) in cur.iter_mut().zip(&*acc) {
            *c -= s;
        }
    }
}

/// A Cholesky factorization of a symmetric positive definite
/// block-tridiagonal matrix.
#[derive(Debug, Clone)]
pub struct BlockTridiagCholesky {
    /// Per-block Cholesky factors of the Schur complements.
    diag: Vec<Cholesky>,
    /// Sub-diagonal blocks of the block factor (`B_i`, `i ∈ 1..H`).
    sub: Vec<Coupling>,
    /// Block dimension `N`.
    block: usize,
}

impl BlockTridiagCholesky {
    /// Factor from diagonal blocks `diag[t]` (symmetric PD after Schur
    /// updates) and sub-diagonal coupling blocks `sub[t]` (the block at
    /// row `t+1`, column `t`; pass an empty vec for block-diagonal).
    ///
    /// A [`LinalgError::NotPositiveDefinite`] pivot is an index into
    /// the whole `H·N` matrix. The blocks are copied once and factored
    /// by [`BlockTridiagCholesky::factor_in_place`].
    pub fn factor(diag: &[Matrix], sub: &[Matrix]) -> Result<Self> {
        Self::factor_in_place(diag.to_vec(), sub.to_vec())
    }

    /// [`BlockTridiagCholesky::factor`] on blocks it owns: each
    /// diagonal block takes its Schur update and becomes its Cholesky
    /// factor in place, and each coupling block becomes `B`, so the
    /// factor is made in the blocks' own storage.
    pub fn factor_in_place(diag: Vec<Matrix>, sub: Vec<Matrix>) -> Result<Self> {
        if diag.is_empty() {
            return Err(LinalgError::DimensionMismatch {
                context: "block tridiag: need at least one diagonal block",
            });
        }
        if sub.len() + 1 != diag.len() {
            return Err(LinalgError::DimensionMismatch {
                context: "block tridiag: need H-1 coupling blocks for H diagonal blocks",
            });
        }
        let n = diag[0].rows();
        for d in &diag {
            if d.rows() != n || d.cols() != n {
                return Err(LinalgError::DimensionMismatch {
                    context: "block tridiag: inconsistent diagonal block shape",
                });
            }
        }
        for e in &sub {
            if e.rows() != n || e.cols() != n {
                return Err(LinalgError::DimensionMismatch {
                    context: "block tridiag: inconsistent coupling block shape",
                });
            }
        }

        let h = diag.len();
        let mut factors: Vec<Cholesky> = Vec::with_capacity(h);
        let mut subs: Vec<Coupling> = Vec::with_capacity(h - 1);
        let mut diag = diag.into_iter();
        factors.push(Cholesky::factor_in_place(diag.next().expect("checked"))?);
        for (t, (mut s, e)) in (1..).zip(diag.zip(sub)) {
            let coupling = Coupling::factor(&factors[t - 1], e);
            coupling.schur_lower(&mut s);
            factors.push(Cholesky::factor_in_place(s).map_err(|e| match e {
                LinalgError::NotPositiveDefinite { pivot } => LinalgError::NotPositiveDefinite {
                    pivot: t * n + pivot,
                },
                other => other,
            })?);
            subs.push(coupling);
        }
        Ok(BlockTridiagCholesky {
            diag: factors,
            sub: subs,
            block: n,
        })
    }

    /// Number of diagonal blocks (`H`).
    pub fn blocks(&self) -> usize {
        self.diag.len()
    }

    /// Total dimension (`H · N`).
    pub fn dim(&self) -> usize {
        self.blocks() * self.block
    }

    /// Solve `K x = b` in place. `scratch` is one block (`N`) long and
    /// is overwritten; the caller owns it so that a solve per ADMM
    /// iteration allocates nothing.
    pub fn solve_in_place(&self, x: &mut [f64], scratch: &mut [f64]) -> Result<()> {
        if x.len() != self.dim() {
            return Err(LinalgError::DimensionMismatch {
                context: "block tridiag solve: rhs length mismatch",
            });
        }
        if scratch.len() != self.block {
            return Err(LinalgError::DimensionMismatch {
                context: "block tridiag solve: scratch must be one block long",
            });
        }
        let n = self.block;
        let h = self.blocks();
        // Forward: solve the block-bidiagonal L z = b.
        //   z₀ = L₀⁻¹ b₀; z_t = L_t⁻¹ (b_t − B_t z_{t−1}).
        for t in 0..h {
            let (solved, rest) = x.split_at_mut(t * n);
            let cur = &mut rest[..n];
            if t > 0 {
                self.sub[t - 1].sub_bz(&solved[(t - 1) * n..], cur);
            }
            self.diag[t].forward_solve_in_place(cur)?;
        }
        // Backward: Lᵀ x = z (block upper-bidiagonal with Bᵀ blocks).
        //   x_{H−1} = L_{H−1}⁻ᵀ z_{H−1};
        //   x_t = L_t⁻ᵀ (z_t − B_{t+1}ᵀ x_{t+1}).
        for t in (0..h).rev() {
            let (head, solved) = x.split_at_mut((t + 1) * n);
            let cur = &mut head[t * n..];
            if t + 1 < h {
                self.sub[t].sub_btx(&solved[..n], cur, scratch);
            }
            self.diag[t].backward_solve_in_place(cur)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cholesky::tests::{
        assert_bits, assert_small_residual, scalar_backward, scalar_factor, scalar_forward, sizes,
    };

    /// `solve_in_place` with a scratch block of its own.
    fn solve(f: &BlockTridiagCholesky, x: &mut [f64]) {
        let mut scratch = vec![f64::NAN; f.block];
        f.solve_in_place(x, &mut scratch).unwrap();
    }

    /// Assemble the dense matrix from blocks (test oracle).
    fn assemble(diag: &[Matrix], sub: &[Matrix]) -> Matrix {
        let n = diag[0].rows();
        let h = diag.len();
        let mut k = Matrix::zeros(n * h, n * h);
        // The blocks do not overlap, so adding each into zeros sets it.
        for (t, d) in diag.iter().enumerate() {
            k.add_block(t * n, t * n, d);
        }
        for (t, e) in sub.iter().enumerate() {
            k.add_block((t + 1) * n, t * n, e);
            k.add_block(t * n, (t + 1) * n, &e.transpose());
        }
        k
    }

    fn spd_block(seed: f64, n: usize) -> Matrix {
        // Deterministic PD block: B Bᵀ + (2 + seed) I.
        let mut b = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                b[(i, j)] = ((i * 3 + j * 7) as f64 * 0.37 + seed).sin();
            }
        }
        let mut m = b.matmul(&b.transpose()).unwrap();
        m.add_diag_mut(2.0 + seed);
        m
    }

    fn coupling(seed: f64, n: usize) -> Matrix {
        let mut e = Matrix::zeros(n, n);
        for i in 0..n {
            e[(i, i)] = -0.3 - 0.05 * seed;
        }
        // Small off-diagonal dirt so the blocks are not pure scalars.
        e[(0, n - 1)] = 0.05 * (seed + 1.0);
        e
    }

    #[test]
    fn matches_dense_cholesky() {
        let n = 4;
        let h = 5;
        let diag: Vec<Matrix> = (0..h).map(|t| spd_block(t as f64, n)).collect();
        let sub: Vec<Matrix> = (1..h).map(|t| coupling(t as f64, n)).collect();
        let dense = assemble(&diag, &sub);
        let x_true: Vec<f64> = (0..n * h).map(|i| (i as f64 * 0.31).cos()).collect();
        let b = dense.matvec(&x_true).unwrap();

        let block = BlockTridiagCholesky::factor(&diag, &sub).unwrap();
        let mut x = b.clone();
        solve(&block, &mut x);
        for (got, want) in x.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-8, "{got} vs {want}");
        }

        // Cross-check against the dense factorization.
        let dense_x = Cholesky::factor(&dense).unwrap().solve(&b).unwrap();
        for (a, c) in x.iter().zip(&dense_x) {
            assert!((a - c).abs() < 1e-8);
        }
    }

    /// The plain scalar block solve the kernels must reproduce bit for
    /// bit: every term taken — zeros included — and `Bᵀ` read by
    /// column; each row one accumulator, in `Cholesky`'s order within
    /// a block (`scalar_forward` / `scalar_backward`) and in ascending
    /// `k` for the couplings.
    fn scalar_solve(f: &BlockTridiagCholesky, x: &mut [f64]) {
        let n = f.block;
        for t in 0..f.blocks() {
            if t > 0 {
                for i in 0..n {
                    let mut s = x[t * n + i];
                    for k in 0..n {
                        s -= f.sub[t - 1].b[(i, k)] * x[(t - 1) * n + k];
                    }
                    x[t * n + i] = s;
                }
            }
            scalar_forward(&f.diag[t].l(), &mut x[t * n..(t + 1) * n]);
        }
        for t in (0..f.blocks()).rev() {
            if t + 1 < f.blocks() {
                for i in 0..n {
                    let mut s = 0.0;
                    for k in 0..n {
                        s += f.sub[t].b[(k, i)] * x[(t + 1) * n + k];
                    }
                    x[t * n + i] -= s;
                }
            }
            scalar_backward(&f.diag[t].l(), &mut x[t * n..(t + 1) * n]);
        }
    }

    #[test]
    fn blocked_kernels_are_bitwise_the_scalar_reference() {
        for &n in sizes() {
            let h = 3;
            let diag: Vec<Matrix> = (0..h).map(|t| spd_block(t as f64, n)).collect();
            let sub: Vec<Matrix> = (1..h)
                .map(|t| {
                    let mut e = coupling(t as f64, n);
                    // Fill the coupling so every mat-vec term is live.
                    for i in 0..n {
                        for j in 0..n {
                            e[(i, j)] += 0.01 * ((i * 5 + j * 11 + t) as f64).cos();
                        }
                    }
                    e
                })
                .collect();
            let f = BlockTridiagCholesky::factor(&diag, &sub).unwrap();
            let b: Vec<f64> = (0..n * h).map(|i| (i as f64 * 0.43).sin() * 2.0).collect();
            let mut want = b.clone();
            scalar_solve(&f, &mut want);
            let mut got = b;
            solve(&f, &mut got);
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.to_bits(), w.to_bits(), "n = {n}: {g} vs {w}");
            }
        }
    }

    /// Coupling blocks by where their zeros are. The solver's is
    /// `Diagonal`; the rest make the hulls ragged, empty or full, and
    /// `NegZeros` puts `−0.0` where the others have `+0.0`.
    #[derive(Debug, Clone, Copy)]
    enum Shape {
        Diagonal,
        UpperBanded,
        LowerBanded,
        Dense,
        DenseZeroRows,
        NegZeros,
    }

    const SHAPES: [Shape; 6] = [
        Shape::Diagonal,
        Shape::UpperBanded,
        Shape::LowerBanded,
        Shape::Dense,
        Shape::DenseZeroRows,
        Shape::NegZeros,
    ];

    fn shaped_coupling(shape: Shape, t: usize, n: usize) -> Matrix {
        let mut e = Matrix::zeros(n, n);
        let wave = |i: usize, j: usize| 0.01 * ((i * 5 + j * 11 + t) as f64).cos();
        for i in 0..n {
            for j in 0..n {
                let diagonal = if i == j { -0.3 - 0.05 * t as f64 } else { 0.0 };
                e[(i, j)] = match shape {
                    Shape::Diagonal => diagonal,
                    Shape::UpperBanded if j >= i && j <= i + 2 => diagonal + wave(i, j),
                    Shape::LowerBanded if j <= i && j + 2 >= i => diagonal + wave(i, j),
                    Shape::UpperBanded | Shape::LowerBanded => 0.0,
                    Shape::Dense => diagonal + wave(i, j),
                    Shape::DenseZeroRows if i % 2 == 0 => 0.0,
                    Shape::DenseZeroRows => diagonal + wave(i, j),
                    // A third of the rows are zero throughout, the
                    // others diagonal; the zeros alternate in sign.
                    Shape::NegZeros if i == j && i % 3 != 2 => diagonal,
                    Shape::NegZeros if (i + j) % 2 == 1 => -0.0,
                    Shape::NegZeros => 0.0,
                };
            }
        }
        e
    }

    /// Right-hand sides by where their zeros are (`h = 3` blocks).
    fn right_hand_sides(f: &BlockTridiagCholesky) -> Vec<Vec<f64>> {
        let n = f.block;
        let live = |i: usize| (i as f64 * 0.43).sin() * 2.0;
        let l0 = f.diag[0].l();
        // The cancelling blocks below rest on `L₀[0, 0]·(1 / L₀[0, 0])`
        // rounding to exactly 1, a property of the data: check it.
        let mut z0: Vec<f64> = (0..n).map(|i| -l0[(i, 0)]).collect();
        f.diag[0].forward_solve_in_place(&mut z0).unwrap();
        let exact: Vec<f64> = (0..n).map(|i| if i == 0 { -1.0 } else { 0.0 }).collect();
        assert_bits(&z0, &exact, &format!("n = {n}: z₀ of the cancelling block"));
        vec![
            (0..3 * n).map(live).collect(),
            // Zeros of both signs among live entries.
            (0..3 * n)
                .map(|i| match i % 4 {
                    0 => 0.0,
                    2 => -0.0,
                    _ => live(i),
                })
                .collect(),
            // The first block cancels to z₀ = (−1, +0.0, …, +0.0)
            // exactly and the blocks below start at −0.0: every term a
            // hull leaves out of `B·z₀` is `±0.0·(−1)`, and taking a
            // `−0.0` off a `−0.0` start makes it `+0.0`. This is the
            // case the forward guard exists for.
            (0..3 * n)
                .map(|i| if i < n { -l0[(i, 0)] } else { -0.0 })
                .collect(),
            // The same with a live last block, so that the backward
            // sweep has non-zero `x` to scale the rows by.
            (0..3 * n)
                .map(|i| match i / n {
                    0 => -l0[(i, 0)],
                    1 => -0.0,
                    _ => live(i),
                })
                .collect(),
        ]
    }

    fn shaped_system(shape: Shape, n: usize) -> (Vec<Matrix>, Vec<Matrix>) {
        let h = 3;
        (
            (0..h).map(|t| spd_block(t as f64, n)).collect(),
            (1..h).map(|t| shaped_coupling(shape, t, n)).collect(),
        )
    }

    #[test]
    fn hull_kernels_are_bitwise_the_scalar_reference_on_every_zero_pattern() {
        for &n in sizes() {
            for shape in SHAPES {
                let (diag, sub) = shaped_system(shape, n);
                let f = BlockTridiagCholesky::factor(&diag, &sub).unwrap();
                for (r, b) in right_hand_sides(&f).into_iter().enumerate() {
                    let mut want = b.clone();
                    scalar_solve(&f, &mut want);
                    let mut got = b;
                    solve(&f, &mut got);
                    assert_bits(&got, &want, &format!("n = {n}, {shape:?}, rhs {r}"));
                }
            }
        }
    }

    /// The oracle that knows no summation order: on every shaped
    /// system and right-hand side, the solve's residual against the
    /// dense assembly is within the backward-error bound of
    /// `assert_small_residual`.
    fn assert_shaped_residuals(sizes: &[usize]) {
        for &n in sizes {
            for shape in SHAPES {
                let (diag, sub) = shaped_system(shape, n);
                let dense = assemble(&diag, &sub);
                let f = BlockTridiagCholesky::factor(&diag, &sub).unwrap();
                for (r, b) in right_hand_sides(&f).into_iter().enumerate() {
                    let mut x = b.clone();
                    solve(&f, &mut x);
                    assert_small_residual(&dense, &x, &b, &format!("n = {n}, {shape:?}, rhs {r}"));
                }
            }
        }
    }

    #[test]
    fn residual_is_within_the_backward_error_bound_on_every_shaped_system() {
        assert_shaped_residuals(&[1, 3, 4, 5, 37]);
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn residual_is_within_the_backward_error_bound_at_the_benchmark_block_size() {
        assert_shaped_residuals(&[144]);
    }

    #[test]
    fn a_negative_zero_start_runs_its_rows_in_full() {
        // The forward guard at the kernel itself, where no later
        // substitution can wash a zero's sign out, on the four-row tile
        // and on the remainder rows: `B ≥ 0` upper-banded, so the one
        // `−0.0` product of row `i ≥ 1` is `B[i, 0]·z[0]`, outside its
        // hull, and it turns the `−0.0` start into `+0.0`.
        for n in [5, 10] {
            let mut b = Matrix::zeros(n, n);
            for i in 0..n {
                for j in i..n.min(i + 2) {
                    b[(i, j)] = 0.5;
                }
            }
            let hull = (0..n).map(|i| row_hull(b.row(i))).collect();
            let c = Coupling { b, hull };
            let z: Vec<f64> = (0..n).map(|k| if k == 0 { -1.0 } else { 0.0 }).collect();
            let mut want = vec![-0.0; n];
            for (i, s) in want.iter_mut().enumerate() {
                for (k, zk) in z.iter().enumerate() {
                    *s -= c.b[(i, k)] * zk;
                }
            }
            assert!(want[1..].iter().all(|v| v.to_bits() == 0), "{want:?}");
            let mut got = vec![-0.0; n];
            c.sub_bz(&z, &mut got);
            assert_bits(&got, &want, &format!("n = {n}"));
        }
    }

    /// The factorization step by step, with nothing skipped: each row
    /// of `E` forward-substituted on its own from pivot 0
    /// (`scalar_forward`), `B·Bᵀ` by `Matrix::matmul` and subtracted in
    /// full, the textbook left-looking Cholesky. Returns `(B, S, L)`
    /// per block (`B` and `S` from block 1 on).
    fn reference_factor(
        diag: &[Matrix],
        sub: &[Matrix],
    ) -> (Vec<Matrix>, Vec<Matrix>, Vec<Matrix>) {
        let n = diag[0].rows();
        let (mut bs, mut schurs) = (Vec::new(), Vec::new());
        let mut ls = vec![scalar_factor(&diag[0])];
        for t in 1..diag.len() {
            let l = &ls[t - 1];
            let mut b = Matrix::zeros(n, n);
            for r in 0..n {
                let mut y = sub[t - 1].row(r).to_vec();
                scalar_forward(l, &mut y);
                b.row_mut(r).copy_from_slice(&y);
            }
            let bbt = b.matmul(&b.transpose()).unwrap();
            let mut s = diag[t].clone();
            for i in 0..n {
                for j in 0..n {
                    s[(i, j)] -= bbt[(i, j)];
                }
            }
            ls.push(scalar_factor(&s));
            bs.push(b);
            schurs.push(s);
        }
        (bs, schurs, ls)
    }

    #[test]
    fn factor_is_bitwise_the_factorization_it_replaces() {
        for &n in sizes() {
            for shape in SHAPES {
                let (diag, sub) = shaped_system(shape, n);
                let f = BlockTridiagCholesky::factor(&diag, &sub).unwrap();
                let (bs, schurs, ls) = reference_factor(&diag, &sub);
                let at = |t: usize, what: &str| format!("n = {n}, {shape:?}, {what} {t}");
                for (t, l) in ls.iter().enumerate() {
                    assert_bits(f.diag[t].l().as_slice(), l.as_slice(), &at(t, "L"));
                }
                for (t, (c, b)) in f.sub.iter().zip(&bs).enumerate() {
                    assert_bits(c.b.as_slice(), b.as_slice(), &at(t + 1, "B"));
                    let mut s = diag[t + 1].clone();
                    c.schur_lower(&mut s);
                    for i in 0..n {
                        assert_bits(&s.row(i)[..=i], &schurs[t].row(i)[..=i], &at(t + 1, "S"));
                    }
                }
            }
        }
    }

    #[test]
    fn recorded_hulls_equal_a_brute_force_scan() {
        for &n in sizes() {
            for shape in SHAPES {
                let (diag, sub) = shaped_system(shape, n);
                let f = BlockTridiagCholesky::factor(&diag, &sub).unwrap();
                for c in &f.sub {
                    for i in 0..n {
                        let live: Vec<usize> = (0..n).filter(|&k| c.b[(i, k)] != 0.0).collect();
                        let want = match (live.first(), live.last()) {
                            (Some(&lo), Some(&hi)) => (lo, hi + 1),
                            _ => (0, 0),
                        };
                        assert_eq!(c.hull[i], want, "n = {n}, {shape:?}, row {i}");
                    }
                }
            }
        }
        // The solver's case: a diagonal coupling makes `B` exactly
        // upper-triangular, so half of every block is never read.
        let (diag, sub) = shaped_system(Shape::Diagonal, 5);
        let f = BlockTridiagCholesky::factor(&diag, &sub).unwrap();
        for c in &f.sub {
            assert_eq!(c.hull, [(0, 5), (1, 5), (2, 5), (3, 5), (4, 5)]);
        }
    }

    #[test]
    fn single_block_degenerates_to_cholesky() {
        let d = spd_block(0.0, 3);
        let block = BlockTridiagCholesky::factor(std::slice::from_ref(&d), &[]).unwrap();
        let b = vec![1.0, -2.0, 0.5];
        let mut x = b.clone();
        solve(&block, &mut x);
        let dense = Cholesky::factor(&d).unwrap().solve(&b).unwrap();
        for (a, c) in x.iter().zip(&dense) {
            assert!((a - c).abs() < 1e-10);
        }
    }

    #[test]
    fn rejects_bad_shapes() {
        let d = spd_block(0.0, 3);
        assert!(BlockTridiagCholesky::factor(&[], &[]).is_err());
        assert!(
            BlockTridiagCholesky::factor(std::slice::from_ref(&d), std::slice::from_ref(&d))
                .is_err()
        );
        let small = spd_block(0.0, 2);
        assert!(
            BlockTridiagCholesky::factor(&[d.clone(), small], std::slice::from_ref(&d)).is_err()
        );
        let f = BlockTridiagCholesky::factor(std::slice::from_ref(&d), &[]).unwrap();
        assert!(f.solve_in_place(&mut [0.0; 2], &mut [0.0; 3]).is_err());
        assert!(f.solve_in_place(&mut [0.0; 3], &mut [0.0; 2]).is_err());
    }

    #[test]
    fn rejects_indefinite() {
        let mut d = spd_block(0.0, 3);
        d.scale_mut(-1.0);
        assert!(BlockTridiagCholesky::factor(std::slice::from_ref(&d), &[]).is_err());
        // The pivot is reported in the caller's matrix, not the block:
        // with the indefinite block last, its first pivot is 2·3 + 0.
        let diag = [spd_block(0.0, 3), spd_block(1.0, 3), d];
        let sub = [coupling(1.0, 3), coupling(2.0, 3)];
        assert_eq!(
            BlockTridiagCholesky::factor(&diag, &sub).unwrap_err(),
            LinalgError::NotPositiveDefinite { pivot: 6 }
        );
    }

    #[test]
    fn long_horizon_stays_accurate() {
        // 40 blocks of size 3: accumulated Schur updates must not lose
        // accuracy.
        let n = 3;
        let h = 40;
        let diag: Vec<Matrix> = (0..h).map(|t| spd_block((t % 7) as f64, n)).collect();
        let sub: Vec<Matrix> = (1..h).map(|t| coupling((t % 5) as f64, n)).collect();
        let dense = assemble(&diag, &sub);
        let x_true: Vec<f64> = (0..n * h).map(|i| ((i * i) as f64 * 0.13).sin()).collect();
        let b = dense.matvec(&x_true).unwrap();
        let block = BlockTridiagCholesky::factor(&diag, &sub).unwrap();
        let mut x = b.clone();
        solve(&block, &mut x);
        for (got, want) in x.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-7, "{got} vs {want}");
        }
        assert_small_residual(&dense, &x, &b, "40 blocks of 3");
    }
}
