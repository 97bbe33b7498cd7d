//! Cholesky factorization `A = L Lᵀ` for symmetric positive definite matrices.

use crate::{LinalgError, Matrix, Result};

/// A Cholesky factorization of a symmetric positive definite matrix.
///
/// The factor `L` (lower triangular) is stored densely together with
/// its transpose, both row-major, so that the forward substitution
/// reads rows of `L` and the backward substitution reads rows of `Lᵀ`
/// — both contiguous. This is the workhorse behind the ADMM solver's
/// cached linear system: factor once per problem, solve once per
/// iteration.
///
/// Every substitution subtracts its terms in ascending column order,
/// one accumulator per row; the forward pass merely interleaves four
/// rows' accumulators. Results are therefore bit-identical to the
/// textbook scalar loops (the goldens depend on it).
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
    /// `Lᵀ`, row-major (upper triangular).
    lt: Matrix,
}

impl Cholesky {
    /// Factor a symmetric positive definite matrix.
    ///
    /// Only the lower triangle of `a` is read. Returns
    /// [`LinalgError::NotPositiveDefinite`] if a pivot is ≤ 0 (within a
    /// small numerical guard), and [`LinalgError::DimensionMismatch`]
    /// for non-square input.
    pub fn factor(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::DimensionMismatch {
                context: "cholesky: matrix must be square",
            });
        }
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for j in 0..n {
            // Diagonal entry.
            let mut d = a[(j, j)];
            for k in 0..j {
                d -= l[(j, k)] * l[(j, k)];
            }
            if d <= 0.0 || !d.is_finite() {
                return Err(LinalgError::NotPositiveDefinite { pivot: j });
            }
            let dj = d.sqrt();
            l[(j, j)] = dj;
            // Column below the diagonal.
            for i in (j + 1)..n {
                let mut s = a[(i, j)];
                for k in 0..j {
                    s -= l[(i, k)] * l[(j, k)];
                }
                l[(i, j)] = s / dj;
            }
        }
        let lt = l.transpose();
        Ok(Cholesky { l, lt })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Borrow the lower-triangular factor `L`.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Solve `A x = b`, returning a fresh vector.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x)?;
        Ok(x)
    }

    /// Solve `A x = b` in place (`x` holds `b` on entry, the solution on exit).
    pub fn solve_in_place(&self, x: &mut [f64]) -> Result<()> {
        self.forward_solve_in_place(x)?;
        self.backward_solve_in_place(x)
    }

    /// Forward substitution only: solve `L y = b` in place.
    ///
    /// Building block for structured (block-wise) factorizations that
    /// need `L⁻¹` applied without the `Lᵀ` half.
    pub fn forward_solve_in_place(&self, x: &mut [f64]) -> Result<()> {
        let n = self.dim();
        if x.len() != n {
            return Err(LinalgError::DimensionMismatch {
                context: "cholesky forward solve: rhs length mismatch",
            });
        }
        // Four rows at a time: over the columns left of the 4×4
        // diagonal tile the four accumulators are independent chains
        // (a single chain is bound by the subtract latency), then the
        // tile itself is finished row by row. Each row still subtracts
        // `L[i, k]·x[k]` for k = 0, 1, …, i−1 in that order.
        let mut i = 0;
        while i + 4 <= n {
            let (r0, r1, r2, r3) = (
                self.l.row(i),
                self.l.row(i + 1),
                self.l.row(i + 2),
                self.l.row(i + 3),
            );
            let (done, rest) = x.split_at_mut(i);
            let (mut s0, mut s1, mut s2, mut s3) = (rest[0], rest[1], rest[2], rest[3]);
            for ((((xk, a0), a1), a2), a3) in done.iter().zip(r0).zip(r1).zip(r2).zip(r3) {
                s0 -= a0 * xk;
                s1 -= a1 * xk;
                s2 -= a2 * xk;
                s3 -= a3 * xk;
            }
            let x0 = s0 / r0[i];
            s1 -= r1[i] * x0;
            let x1 = s1 / r1[i + 1];
            s2 -= r2[i] * x0;
            s2 -= r2[i + 1] * x1;
            let x2 = s2 / r2[i + 2];
            s3 -= r3[i] * x0;
            s3 -= r3[i + 1] * x1;
            s3 -= r3[i + 2] * x2;
            let x3 = s3 / r3[i + 3];
            rest[..4].copy_from_slice(&[x0, x1, x2, x3]);
            i += 4;
        }
        for i in i..n {
            let row = self.l.row(i);
            let mut s = x[i];
            for k in 0..i {
                s -= row[k] * x[k];
            }
            x[i] = s / row[i];
        }
        Ok(())
    }

    /// Backward substitution only: solve `Lᵀ x = b` in place.
    pub fn backward_solve_in_place(&self, x: &mut [f64]) -> Result<()> {
        let n = self.dim();
        if x.len() != n {
            return Err(LinalgError::DimensionMismatch {
                context: "cholesky backward solve: rhs length mismatch",
            });
        }
        // Row i's first term needs x[i+1], the *result* of the row
        // below, so ascending-k order leaves one serial chain; reading
        // it from the row-major `Lᵀ` at least makes it contiguous.
        for i in (0..n).rev() {
            let row = self.lt.row(i);
            let mut s = x[i];
            for (a, xk) in row[i + 1..].iter().zip(&x[i + 1..]) {
                s -= a * xk;
            }
            x[i] = s / row[i];
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        // A = B Bᵀ + I for a fixed B → guaranteed SPD.
        Matrix::from_rows(&[&[4.0, 2.0, 0.6], &[2.0, 5.0, 1.2], &[0.6, 1.2, 3.0]])
    }

    #[test]
    fn factor_reconstructs() {
        let a = spd3();
        let ch = Cholesky::factor(&a).unwrap();
        let rec = ch.l().matmul(&ch.l().transpose()).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert!((rec[(i, j)] - a[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn solve_recovers_known_solution() {
        let a = spd3();
        let x_true = vec![1.0, -2.0, 0.5];
        let b = a.matvec(&x_true).unwrap();
        let x = Cholesky::factor(&a).unwrap().solve(&b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-10);
        }
    }

    #[test]
    fn rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        assert!(matches!(
            Cholesky::factor(&a),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn rejects_non_square() {
        let a = Matrix::zeros(2, 3);
        assert!(Cholesky::factor(&a).is_err());
    }

    /// Deterministic SPD matrix `B Bᵀ + (2 + seed) I`.
    fn spd(seed: f64, n: usize) -> Matrix {
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

    /// The textbook scalar substitutions the kernels must reproduce
    /// bit for bit: one accumulator per row, ascending `k`.
    fn scalar_solve(l: &Matrix, x: &mut [f64]) {
        let n = l.rows();
        for i in 0..n {
            let mut s = x[i];
            for k in 0..i {
                s -= l[(i, k)] * x[k];
            }
            x[i] = s / l[(i, i)];
        }
        for i in (0..n).rev() {
            let mut s = x[i];
            for k in (i + 1)..n {
                s -= l[(k, i)] * x[k];
            }
            x[i] = s / l[(i, i)];
        }
    }

    #[test]
    fn blocked_solve_is_bitwise_the_scalar_reference() {
        // Sizes around the four-row tile: below it, exact multiples,
        // with a remainder, and the benchmark's block size.
        // Miri skips the last: it is ~1000× slower than native.
        let sizes: &[usize] = if cfg!(miri) {
            &[1, 3, 4, 5, 37]
        } else {
            &[1, 3, 4, 5, 37, 144]
        };
        for &n in sizes {
            let ch = Cholesky::factor(&spd(0.5, n)).unwrap();
            let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.61).cos() * 3.0).collect();
            let mut want = b.clone();
            scalar_solve(ch.l(), &mut want);
            let got = ch.solve(&b).unwrap();
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.to_bits(), w.to_bits(), "n = {n}: {g} vs {w}");
            }
        }
    }

    #[test]
    fn identity_solve_is_identity() {
        let ch = Cholesky::factor(&Matrix::identity(4)).unwrap();
        let b = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(ch.solve(&b).unwrap(), b);
    }
}
