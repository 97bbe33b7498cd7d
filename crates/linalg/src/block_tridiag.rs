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

use crate::cholesky::Cholesky;
use crate::{LinalgError, Matrix, Result};

/// A Cholesky factorization of a symmetric positive definite
/// block-tridiagonal matrix.
#[derive(Debug, Clone)]
pub struct BlockTridiagCholesky {
    /// Per-block Cholesky factors of the Schur complements.
    diag: Vec<Cholesky>,
    /// Sub-diagonal blocks of the block factor (`B_i`, `i ∈ 1..H`).
    sub: Vec<Matrix>,
    /// `B_iᵀ`, row-major, so the backward pass reads rows too.
    sub_t: Vec<Matrix>,
    /// Block dimension `N`.
    block: usize,
}

/// `y[i] ← finish(y[i], fold over k of step(s, m[i, k]·x[k]))` with
/// `s` starting at `start(y[i])` — a mat-vec whose every row keeps one
/// accumulator fed in ascending `k`, so the rounding is that of the
/// plain scalar loop. Four rows run interleaved: a single accumulator
/// is bound by the add latency, four independent ones are not.
#[inline(always)]
fn fold_rows(
    m: &Matrix,
    x: &[f64],
    y: &mut [f64],
    start: impl Fn(f64) -> f64,
    step: impl Fn(f64, f64) -> f64,
    finish: impl Fn(f64, f64) -> f64,
) {
    let n = y.len();
    let mut i = 0;
    while i + 4 <= n {
        let (r0, r1, r2, r3) = (m.row(i), m.row(i + 1), m.row(i + 2), m.row(i + 3));
        let (mut s0, mut s1, mut s2, mut s3) = (
            start(y[i]),
            start(y[i + 1]),
            start(y[i + 2]),
            start(y[i + 3]),
        );
        for ((((xk, a0), a1), a2), a3) in x.iter().zip(r0).zip(r1).zip(r2).zip(r3) {
            s0 = step(s0, a0 * xk);
            s1 = step(s1, a1 * xk);
            s2 = step(s2, a2 * xk);
            s3 = step(s3, a3 * xk);
        }
        y[i] = finish(y[i], s0);
        y[i + 1] = finish(y[i + 1], s1);
        y[i + 2] = finish(y[i + 2], s2);
        y[i + 3] = finish(y[i + 3], s3);
        i += 4;
    }
    for i in i..n {
        let mut s = start(y[i]);
        for (xk, a) in x.iter().zip(m.row(i)) {
            s = step(s, a * xk);
        }
        y[i] = finish(y[i], s);
    }
}

impl BlockTridiagCholesky {
    /// Factor from diagonal blocks `diag[t]` (symmetric PD after Schur
    /// updates) and sub-diagonal coupling blocks `sub[t]` (the block at
    /// row `t+1`, column `t`; pass an empty vec for block-diagonal).
    pub fn factor(diag: &[Matrix], sub: &[Matrix]) -> Result<Self> {
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
        for d in diag {
            if d.rows() != n || d.cols() != n {
                return Err(LinalgError::DimensionMismatch {
                    context: "block tridiag: inconsistent diagonal block shape",
                });
            }
        }
        for e in sub {
            if e.rows() != n || e.cols() != n {
                return Err(LinalgError::DimensionMismatch {
                    context: "block tridiag: inconsistent coupling block shape",
                });
            }
        }

        let h = diag.len();
        let mut factors: Vec<Cholesky> = Vec::with_capacity(h);
        let mut subs: Vec<Matrix> = Vec::with_capacity(h.saturating_sub(1));
        factors.push(Cholesky::factor(&diag[0])?);
        for t in 1..h {
            let prev = &factors[t - 1];
            // B = E · L⁻ᵀ  ⇔  for each row e of E, solve L y = e.
            let e = &sub[t - 1];
            let mut b = Matrix::zeros(n, n);
            let mut row_buf = vec![0.0; n];
            for r in 0..n {
                row_buf.copy_from_slice(e.row(r));
                prev.forward_solve_in_place(&mut row_buf)?;
                b.row_mut(r).copy_from_slice(&row_buf);
            }
            // Schur complement S = D − B Bᵀ.
            let mut s = diag[t].clone();
            let bbt = b.matmul(&b.transpose()).expect("square blocks");
            for i in 0..n {
                for j in 0..n {
                    s[(i, j)] -= bbt[(i, j)];
                }
            }
            factors.push(Cholesky::factor(&s)?);
            subs.push(b);
        }
        Ok(BlockTridiagCholesky {
            diag: factors,
            sub_t: subs.iter().map(Matrix::transpose).collect(),
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

    /// Solve `K x = b` in place.
    pub fn solve_in_place(&self, x: &mut [f64]) -> Result<()> {
        if x.len() != self.dim() {
            return Err(LinalgError::DimensionMismatch {
                context: "block tridiag solve: rhs length mismatch",
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
                // cur[i] ← ((cur[i] − B[i,0]·z₀) − B[i,1]·z₁) − …
                let z_prev = &solved[(t - 1) * n..];
                fold_rows(&self.sub[t - 1], z_prev, cur, |y| y, |s, p| s - p, |_, s| s);
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
                // cur[i] ← cur[i] − Σ_k Bᵀ[i,k]·x_k, the sum from 0.0.
                let x_next = &solved[..n];
                fold_rows(
                    &self.sub_t[t],
                    x_next,
                    cur,
                    |_| 0.0,
                    |s, p| s + p,
                    |y, s| y - s,
                );
            }
            self.diag[t].backward_solve_in_place(cur)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Assemble the dense matrix from blocks (test oracle).
    fn assemble(diag: &[Matrix], sub: &[Matrix]) -> Matrix {
        let n = diag[0].rows();
        let h = diag.len();
        let mut k = Matrix::zeros(n * h, n * h);
        for (t, d) in diag.iter().enumerate() {
            k.set_block(t * n, t * n, d);
        }
        for (t, e) in sub.iter().enumerate() {
            k.set_block((t + 1) * n, t * n, e);
            k.set_block(t * n, (t + 1) * n, &e.transpose());
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
        block.solve_in_place(&mut x).unwrap();
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
    /// bit: one accumulator per row, ascending `k`, `Bᵀ` read by column.
    fn scalar_solve(f: &BlockTridiagCholesky, x: &mut [f64]) {
        let n = f.block;
        let forward = |l: &Matrix, x: &mut [f64]| {
            for i in 0..n {
                let mut s = x[i];
                for k in 0..i {
                    s -= l[(i, k)] * x[k];
                }
                x[i] = s / l[(i, i)];
            }
        };
        let backward = |l: &Matrix, x: &mut [f64]| {
            for i in (0..n).rev() {
                let mut s = x[i];
                for k in (i + 1)..n {
                    s -= l[(k, i)] * x[k];
                }
                x[i] = s / l[(i, i)];
            }
        };
        for t in 0..f.blocks() {
            if t > 0 {
                for i in 0..n {
                    let mut s = x[t * n + i];
                    for k in 0..n {
                        s -= f.sub[t - 1][(i, k)] * x[(t - 1) * n + k];
                    }
                    x[t * n + i] = s;
                }
            }
            forward(f.diag[t].l(), &mut x[t * n..(t + 1) * n]);
        }
        for t in (0..f.blocks()).rev() {
            if t + 1 < f.blocks() {
                for i in 0..n {
                    let mut s = 0.0;
                    for k in 0..n {
                        s += f.sub[t][(k, i)] * x[(t + 1) * n + k];
                    }
                    x[t * n + i] -= s;
                }
            }
            backward(f.diag[t].l(), &mut x[t * n..(t + 1) * n]);
        }
    }

    #[test]
    fn blocked_kernels_are_bitwise_the_scalar_reference() {
        // Block sizes around the four-row tile, and the benchmark's.
        // Miri skips the last: it is ~1000× slower than native.
        let sizes: &[usize] = if cfg!(miri) {
            &[1, 3, 4, 5, 37]
        } else {
            &[1, 3, 4, 5, 37, 144]
        };
        for &n in sizes {
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
            f.solve_in_place(&mut got).unwrap();
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.to_bits(), w.to_bits(), "n = {n}: {g} vs {w}");
            }
        }
    }

    #[test]
    fn single_block_degenerates_to_cholesky() {
        let d = spd_block(0.0, 3);
        let block = BlockTridiagCholesky::factor(std::slice::from_ref(&d), &[]).unwrap();
        let b = vec![1.0, -2.0, 0.5];
        let mut x = b.clone();
        block.solve_in_place(&mut x).unwrap();
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
    }

    #[test]
    fn rejects_indefinite() {
        let mut d = spd_block(0.0, 3);
        d.scale_mut(-1.0);
        assert!(BlockTridiagCholesky::factor(&[d], &[]).is_err());
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
        let mut x = b;
        block.solve_in_place(&mut x).unwrap();
        for (got, want) in x.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-7, "{got} vs {want}");
        }
    }
}
