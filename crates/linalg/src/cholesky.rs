//! Cholesky factorization `A = L Lᵀ` for symmetric positive definite matrices.
//!
//! One `n × n` buffer holds the factor in both triangles: `L` below the
//! diagonal, its mirror `Lᵀ` above, the pivots on it — row `k` is
//! `L[k, ..k]` followed by `Lᵀ[k, k..]`. Both substitutions are
//! *right-looking*: once `x[k]` is final, its term is taken off every
//! `x[i]` still open in one contiguous sweep along row `k` — the upper
//! part (`Lᵀ[k, i]`, every later `i`) forward, the lower part
//! (`L[k, i]`, every earlier `i`) backward. No row's sum waits on
//! another's; what is serial is the 4 × 4 diagonal tile each pass
//! finishes first. The pivots' reciprocals are stored once, so those
//! tiles multiply instead of divide.
//!
//! Row `i`'s accumulator takes its terms in ascending `k` forward and
//! in descending `k` backward — the backward order is DESIGN.md "The
//! accumulator rule"'s one exception. The kernels are bit-identical to
//! the scalar loops in that order, which the tests keep.

use crate::{LinalgError, Matrix, Result};

/// A Cholesky factorization of a symmetric positive definite matrix.
///
/// This is the workhorse behind the ADMM solver's cached linear
/// system: factor once per problem, solve once per iteration.
#[derive(Debug, Clone)]
pub struct Cholesky {
    /// `L` on and below the diagonal, `Lᵀ` above it, row-major.
    l_lt: Matrix,
    /// `1 / L[k, k]` for every pivot `k`.
    inv_pivot: Vec<f64>,
}

impl Cholesky {
    /// Factor a symmetric positive definite matrix.
    ///
    /// Only the lower triangle of `a` is read. Returns
    /// [`LinalgError::NotPositiveDefinite`] if a pivot is ≤ 0 (within a
    /// small numerical guard), and [`LinalgError::DimensionMismatch`]
    /// for non-square input. One copy of `a` is made and factored by
    /// [`Cholesky::factor_in_place`].
    pub fn factor(a: &Matrix) -> Result<Self> {
        Self::factor_in_place(a.clone())
    }

    /// [`Cholesky::factor`] on a matrix it owns, whose storage becomes
    /// the factor: no second `n × n` buffer is made. The errors are
    /// `factor`'s, and the matrix is dropped with them.
    pub fn factor_in_place(a: Matrix) -> Result<Self> {
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
        // subtract latency, four independent ones are not. `L[i, j]`
        // overwrites `a[i, j]`, which no later step reads, and is
        // mirrored into row `j` right of the pivot, in the upper
        // triangle no step reads.
        let mut l = a;
        for j in 0..n {
            let (head, below) = l.as_mut_slice().split_at_mut((j + 1) * n);
            let (row_j, mirror) = head[j * n..].split_at_mut(j);
            let mut d = mirror[0];
            for v in &*row_j {
                d -= v * v;
            }
            if d <= 0.0 || !d.is_finite() {
                return Err(LinalgError::NotPositiveDefinite { pivot: j });
            }
            let dj = d.sqrt();
            mirror[0] = dj;
            let row_j = &*row_j;
            for (c, quad) in below.chunks_mut(4 * n).enumerate() {
                let at = 1 + 4 * c;
                if quad.len() == 4 * n {
                    let (r0, rest) = quad.split_at_mut(n);
                    let (r1, rest) = rest.split_at_mut(n);
                    let (r2, r3) = rest.split_at_mut(n);
                    let (mut s0, mut s1, mut s2, mut s3) = (r0[j], r1[j], r2[j], r3[j]);
                    for ((((ljk, a0), a1), a2), a3) in
                        row_j.iter().zip(&*r0).zip(&*r1).zip(&*r2).zip(&*r3)
                    {
                        s0 -= a0 * ljk;
                        s1 -= a1 * ljk;
                        s2 -= a2 * ljk;
                        s3 -= a3 * ljk;
                    }
                    let column = [s0 / dj, s1 / dj, s2 / dj, s3 / dj];
                    for (row, v) in [r0, r1, r2, r3].into_iter().zip(column) {
                        row[j] = v;
                    }
                    mirror[at..at + 4].copy_from_slice(&column);
                } else {
                    for (r, row) in quad.chunks_mut(n).enumerate() {
                        let mut s = row[j];
                        for (lik, ljk) in row.iter().zip(row_j) {
                            s -= lik * ljk;
                        }
                        row[j] = s / dj;
                        mirror[at + r] = row[j];
                    }
                }
            }
        }
        let inv_pivot = (0..n).map(|k| 1.0 / l[(k, k)]).collect();
        Ok(Cholesky { l_lt: l, inv_pivot })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l_lt.rows()
    }

    /// The lower-triangular factor `L`, zeros above the diagonal (an
    /// `n²` copy: for inspection and tests, not for hot paths).
    pub fn l(&self) -> Matrix {
        let mut l = self.l_lt.clone();
        for i in 0..self.dim() {
            l.row_mut(i)[i + 1..].fill(0.0);
        }
        l
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
        // diagonal tile, then one sweep along the upper parts of rows
        // `k..k+4` takes all four terms off every later `x[i]` — in the
        // order k, k+1, k+2, k+3, so row `i` still subtracts
        // `L[i, k]·x[k]` for k = 0, 1, …, i−1.
        let mut k = 0;
        while k + 4 <= n {
            let (r0, r1, r2, r3) = (
                self.l_lt.row(k),
                self.l_lt.row(k + 1),
                self.l_lt.row(k + 2),
                self.l_lt.row(k + 3),
            );
            let inv = &self.inv_pivot[k..k + 4];
            let (tile, later) = x[k..].split_at_mut(4);
            let x0 = tile[0] * inv[0];
            let x1 = (tile[1] - r0[k + 1] * x0) * inv[1];
            let x2 = ((tile[2] - r0[k + 2] * x0) - r1[k + 2] * x1) * inv[2];
            let x3 = (((tile[3] - r0[k + 3] * x0) - r1[k + 3] * x1) - r2[k + 3] * x2) * inv[3];
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
            let (row, inv) = (self.l_lt.row(k), self.inv_pivot[k]);
            for y in rhs.chunks_exact_mut(n) {
                let (done, later) = y.split_at_mut(k + 1);
                let yk = done[k] * inv;
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
        // The forward pass mirrored: four pivots a pass from the
        // bottom, `x[k−4..k]` finished in their tile, then one sweep
        // along the lower parts of rows `k−1, …, k−4` takes all four
        // terms off every earlier `x[i]`; the `n mod 4` pivots left at
        // the top go one a pass. Row `i` subtracts `L[k, i]·x[k]` for
        // k = n−1, n−2, …, i+1.
        let mut k = n;
        while k >= 4 {
            let at = k - 4;
            let (r0, r1, r2, r3) = (
                self.l_lt.row(at),
                self.l_lt.row(at + 1),
                self.l_lt.row(at + 2),
                self.l_lt.row(at + 3),
            );
            let inv = &self.inv_pivot[at..k];
            let (earlier, tile) = x[..k].split_at_mut(at);
            let x3 = tile[3] * inv[3];
            let x2 = (tile[2] - r3[at + 2] * x3) * inv[2];
            let x1 = ((tile[1] - r3[at + 1] * x3) - r2[at + 1] * x2) * inv[1];
            let x0 = (((tile[0] - r3[at] * x3) - r2[at] * x2) - r1[at] * x1) * inv[0];
            tile.copy_from_slice(&[x0, x1, x2, x3]);
            for ((((xi, a3), a2), a1), a0) in earlier
                .iter_mut()
                .zip(&r3[..at])
                .zip(&r2[..at])
                .zip(&r1[..at])
                .zip(&r0[..at])
            {
                *xi = (((*xi - a3 * x3) - a2 * x2) - a1 * x1) - a0 * x0;
            }
            k = at;
        }
        for k in (0..k).rev() {
            let (earlier, rest) = x.split_at_mut(k);
            let xk = rest[0] * self.inv_pivot[k];
            rest[0] = xk;
            for (xi, a) in earlier.iter_mut().zip(self.l_lt.row(k)) {
                *xi -= a * xk;
            }
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

    /// The scalar substitutions the kernels must reproduce bit for
    /// bit, in the kernels' order: one accumulator per row, ascending
    /// `k` forward, each finished by a multiply with the pivot's
    /// reciprocal.
    pub(crate) fn scalar_forward(l: &Matrix, x: &mut [f64]) {
        for i in 0..x.len() {
            let mut s = x[i];
            for k in 0..i {
                s -= l[(i, k)] * x[k];
            }
            x[i] = s * (1.0 / l[(i, i)]);
        }
    }

    /// …and descending `k` backward.
    pub(crate) fn scalar_backward(l: &Matrix, x: &mut [f64]) {
        let n = x.len();
        for i in (0..n).rev() {
            let mut s = x[i];
            for k in ((i + 1)..n).rev() {
                s -= l[(k, i)] * x[k];
            }
            x[i] = s * (1.0 / l[(i, i)]);
        }
    }

    /// `‖A·x − b‖∞ ≤ 4·n·ε·(‖A‖∞·‖x‖∞ + ‖b‖∞)`: the backward-error bound
    /// of a stable solve, which holds whatever order its sums take.
    pub(crate) fn assert_small_residual(a: &Matrix, x: &[f64], b: &[f64], what: &str) {
        let inf = |v: &[f64]| v.iter().fold(0.0_f64, |m, e| m.max(e.abs()));
        let a_norm = (0..a.rows())
            .map(|i| a.row(i).iter().map(|e| e.abs()).sum::<f64>())
            .fold(0.0, f64::max);
        let ax = a.matvec(x).unwrap();
        let r: Vec<f64> = ax.iter().zip(b).map(|(p, q)| p - q).collect();
        let bound = 4.0 * x.len() as f64 * f64::EPSILON * (a_norm * inf(x) + inf(b));
        assert!(
            inf(&r) <= bound,
            "{what}: residual {} over {bound}",
            inf(&r)
        );
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

    /// Right-hand sides by where their zeros are: live; `+0.0` and
    /// `−0.0` among live entries; `−0.0` throughout.
    fn signed_zero_rhs(n: usize) -> Vec<Vec<f64>> {
        let live = |i: usize| (i as f64 * 0.61).cos() * 3.0;
        vec![
            (0..n).map(live).collect(),
            (0..n)
                .map(|i| match i % 4 {
                    0 => 0.0,
                    2 => -0.0,
                    _ => live(i),
                })
                .collect(),
            vec![-0.0; n],
        ]
    }

    #[test]
    fn blocked_solve_is_bitwise_the_scalar_reference() {
        for &n in sizes() {
            let ch = Cholesky::factor(&spd(0.5, n)).unwrap();
            let l = ch.l();
            for (r, b) in signed_zero_rhs(n).into_iter().enumerate() {
                let at = |what: &str| format!("n = {n}, rhs {r}, {what}");
                let (mut want, mut got) = (b.clone(), b.clone());
                scalar_forward(&l, &mut want);
                ch.forward_solve_in_place(&mut got).unwrap();
                assert_bits(&got, &want, &at("forward"));
                scalar_backward(&l, &mut want);
                ch.backward_solve_in_place(&mut got).unwrap();
                assert_bits(&got, &want, &at("solve"));
                let (mut want, mut got) = (b.clone(), b);
                scalar_backward(&l, &mut want);
                ch.backward_solve_in_place(&mut got).unwrap();
                assert_bits(&got, &want, &at("backward"));
            }
        }
    }

    #[test]
    fn solve_has_a_small_residual() {
        for &n in sizes() {
            let a = spd(0.5, n);
            let ch = Cholesky::factor(&a).unwrap();
            for (r, b) in signed_zero_rhs(n).into_iter().enumerate() {
                let x = ch.solve(&b).unwrap();
                assert_small_residual(&a, &x, &b, &format!("n = {n}, rhs {r}"));
            }
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
