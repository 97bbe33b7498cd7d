//! Cholesky factorization `A = L Lᵀ` for symmetric positive definite matrices.
//!
//! One copy of the factor is kept: `Lᵀ`, row-major, of which only the
//! upper triangle is ever read. Both substitutions walk its rows — the
//! backward one as a dot product per row, the forward one
//! *right-looking*: once `x[k]` is final, `x[i] −= Lᵀ[k, i]·x[k]` for
//! every later `i`, a contiguous sweep along row `k`. Either way row
//! `i`'s accumulator takes its terms in ascending `k` (DESIGN.md "The
//! accumulator rule"), so results are bit-identical to the textbook
//! scalar loops (the goldens depend on it).

use crate::{LinalgError, Matrix, Result};

/// A Cholesky factorization of a symmetric positive definite matrix.
///
/// This is the workhorse behind the ADMM solver's cached linear
/// system: factor once per problem, solve once per iteration.
#[derive(Debug, Clone)]
pub struct Cholesky {
    /// `Lᵀ`, row-major: the factor in the upper triangle, zeros below.
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
        // Left-looking, column by column, on a row-major `L`:
        // `L[i, j] = (a[i, j] − Σ_{k<j} L[i, k]·L[j, k]) / L[j, j]`, each
        // a dot product of two rows summed in ascending `k`. Four rows
        // `i` run against row `j` together: one chain is bound by the
        // subtract latency, four independent ones are not.
        let mut l = Matrix::zeros(n, n);
        for j in 0..n {
            let (head, below) = l.as_mut_slice().split_at_mut((j + 1) * n);
            let row_j = &mut head[j * n..];
            let mut d = a[(j, j)];
            for v in &row_j[..j] {
                d -= v * v;
            }
            if d <= 0.0 || !d.is_finite() {
                return Err(LinalgError::NotPositiveDefinite { pivot: j });
            }
            let dj = d.sqrt();
            row_j[j] = dj;
            let row_j = &row_j[..j];
            for (c, quad) in below.chunks_mut(4 * n).enumerate() {
                let i = j + 1 + 4 * c;
                if quad.len() == 4 * n {
                    let (r0, rest) = quad.split_at_mut(n);
                    let (r1, rest) = rest.split_at_mut(n);
                    let (r2, r3) = rest.split_at_mut(n);
                    let (mut s0, mut s1, mut s2, mut s3) =
                        (a[(i, j)], a[(i + 1, j)], a[(i + 2, j)], a[(i + 3, j)]);
                    for ((((ljk, a0), a1), a2), a3) in
                        row_j.iter().zip(&*r0).zip(&*r1).zip(&*r2).zip(&*r3)
                    {
                        s0 -= a0 * ljk;
                        s1 -= a1 * ljk;
                        s2 -= a2 * ljk;
                        s3 -= a3 * ljk;
                    }
                    r0[j] = s0 / dj;
                    r1[j] = s1 / dj;
                    r2[j] = s2 / dj;
                    r3[j] = s3 / dj;
                } else {
                    for (r, row) in quad.chunks_mut(n).enumerate() {
                        let mut s = a[(i + r, j)];
                        for (lik, ljk) in row.iter().zip(row_j) {
                            s -= lik * ljk;
                        }
                        row[j] = s / dj;
                    }
                }
            }
        }
        Ok(Cholesky { lt: l.transpose() })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.lt.rows()
    }

    /// The lower-triangular factor `L`, transposed out of the stored
    /// `Lᵀ` (an `n²` copy: for inspection and tests, not for hot paths).
    pub fn l(&self) -> Matrix {
        self.lt.transpose()
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
        // Four pivots a pass: finish `x[k..k+4]` inside the 4 × 4
        // diagonal tile, then one sweep along the four rows of `Lᵀ`
        // takes all four terms off every later `x[i]` — in the order
        // k, k+1, k+2, k+3, so row `i` still subtracts `L[i, k]·x[k]`
        // for k = 0, 1, …, i−1. The sweep has no chain between
        // different `i`: it is contiguous and vectorizable.
        let mut k = 0;
        while k + 4 <= n {
            let (r0, r1, r2, r3) = (
                self.lt.row(k),
                self.lt.row(k + 1),
                self.lt.row(k + 2),
                self.lt.row(k + 3),
            );
            let (tile, later) = x[k..].split_at_mut(4);
            let x0 = tile[0] / r0[k];
            let x1 = (tile[1] - r0[k + 1] * x0) / r1[k + 1];
            let x2 = ((tile[2] - r0[k + 2] * x0) - r1[k + 2] * x1) / r2[k + 2];
            let x3 = (((tile[3] - r0[k + 3] * x0) - r1[k + 3] * x1) - r2[k + 3] * x2) / r3[k + 3];
            tile.copy_from_slice(&[x0, x1, x2, x3]);
            let at = k + 4;
            for ((((xi, a0), a1), a2), a3) in later
                .iter_mut()
                .zip(&r0[at..])
                .zip(&r1[at..])
                .zip(&r2[at..])
                .zip(&r3[at..])
            {
                *xi = (((*xi - a0 * x0) - a1 * x1) - a2 * x2) - a3 * x3;
            }
            k += 4;
        }
        self.forward_from(k, x);
        Ok(())
    }

    /// Pivots `start..n` of the forward substitution, one a pass, on
    /// every `n`-long right-hand side stored back to back in `rhs`
    /// (a row of `Lᵀ` is read once for all of them). The caller
    /// vouches that pivots `..start` are done — or would change
    /// nothing, see `BlockTridiagCholesky::factor`.
    pub(crate) fn forward_from(&self, start: usize, rhs: &mut [f64]) {
        let n = self.dim();
        debug_assert!(rhs.len().is_multiple_of(n));
        for k in start..n {
            let row = self.lt.row(k);
            for y in rhs.chunks_exact_mut(n) {
                let (done, later) = y.split_at_mut(k + 1);
                let yk = done[k] / row[k];
                done[k] = yk;
                for (yi, a) in later.iter_mut().zip(&row[k + 1..]) {
                    *yi -= a * yk;
                }
            }
        }
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
        // below, so ascending-k order leaves one serial chain; the
        // row-major `Lᵀ` at least makes it contiguous.
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
pub(crate) mod tests {
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

    /// Sizes around the four-wide tiles: below one, exact multiples,
    /// with a remainder, and the benchmark's block size. Miri skips
    /// the last: it is ~1000× slower than native.
    pub(crate) fn sizes() -> &'static [usize] {
        if cfg!(miri) {
            &[1, 3, 4, 5, 37]
        } else {
            &[1, 3, 4, 5, 37, 144]
        }
    }

    pub(crate) fn assert_bits(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}, entry {i}: {g} vs {w}");
        }
    }

    #[test]
    fn blocked_solve_is_bitwise_the_scalar_reference() {
        for &n in sizes() {
            let ch = Cholesky::factor(&spd(0.5, n)).unwrap();
            let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.61).cos() * 3.0).collect();
            let mut want = b.clone();
            scalar_solve(&ch.l(), &mut want);
            let got = ch.solve(&b).unwrap();
            assert_bits(&got, &want, &format!("n = {n}"));
        }
    }

    /// The textbook left-looking factorization `Cholesky::factor` must
    /// reproduce bit for bit: one accumulator per entry, ascending `k`.
    pub(crate) fn scalar_factor(a: &Matrix) -> Matrix {
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for j in 0..n {
            let mut d = a[(j, j)];
            for k in 0..j {
                d -= l[(j, k)] * l[(j, k)];
            }
            assert!(d > 0.0, "reference pivot {j}");
            let dj = d.sqrt();
            l[(j, j)] = dj;
            for i in (j + 1)..n {
                let mut s = a[(i, j)];
                for k in 0..j {
                    s -= l[(i, k)] * l[(j, k)];
                }
                l[(i, j)] = s / dj;
            }
        }
        l
    }

    #[test]
    fn interleaved_factor_is_bitwise_the_scalar_reference() {
        // Every count of rows left below a pivot, modulo the four-row
        // tile, occurs on the way down each of these.
        for &n in sizes() {
            let a = spd(0.5, n);
            let got = Cholesky::factor(&a).unwrap().l();
            assert_bits(
                got.as_slice(),
                scalar_factor(&a).as_slice(),
                &format!("n = {n}"),
            );
        }
    }

    #[test]
    fn identity_solve_is_identity() {
        let ch = Cholesky::factor(&Matrix::identity(4)).unwrap();
        let b = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(ch.solve(&b).unwrap(), b);
    }
}
