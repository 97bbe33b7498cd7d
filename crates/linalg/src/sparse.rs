//! Compressed sparse row (CSR) matrices.
//!
//! SpotWeb's portfolio QP is sparse by construction — box rows have
//! one nonzero, budget rows have `N`, and the quadratic cost is an
//! `N × N` covariance replicated down a block-tridiagonal band — so
//! the solver carries both `P` and `A` in CSR from assembly to the
//! final report: equilibration, structure checks, KKT accumulation
//! and the per-iteration products all run at `O(nnz)`, which is what
//! keeps hundred-market × long-horizon instances fast (Fig. 7(b)).
//!
//! Column indices are strictly ascending within every row; every
//! constructor establishes that and every kernel may rely on it.

use crate::{LinalgError, Matrix, Result};

/// A CSR matrix: row pointers + column indices + values.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    indptr: Vec<usize>,
    indices: Vec<usize>,
    data: Vec<f64>,
}

impl CsrMatrix {
    /// Convert from dense, dropping entries with `|v| <= tol` (a NaN
    /// is never dropped, so validation downstream still sees it).
    pub fn from_dense(m: &Matrix, tol: f64) -> CsrMatrix {
        let (rows, cols) = (m.rows(), m.cols());
        let mut indptr = Vec::with_capacity(rows + 1);
        let mut indices = Vec::new();
        let mut data = Vec::new();
        indptr.push(0);
        for r in 0..rows {
            for (c, &v) in m.row(r).iter().enumerate() {
                if v.abs() > tol || v.is_nan() {
                    indices.push(c);
                    data.push(v);
                }
            }
            indptr.push(indices.len());
        }
        CsrMatrix {
            rows,
            cols,
            indptr,
            indices,
            data,
        }
    }

    /// Build from raw CSR arrays: `indptr` has `rows + 1` monotone
    /// offsets into `indices`/`data`, and the column indices of each
    /// row are strictly ascending and `< cols`.
    pub fn from_parts(
        rows: usize,
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        data: Vec<f64>,
    ) -> Result<CsrMatrix> {
        let shape_ok = indptr.len() == rows + 1
            && indptr[0] == 0
            && indptr[rows] == indices.len()
            && indices.len() == data.len()
            && indptr.windows(2).all(|w| w[0] <= w[1]);
        if !shape_ok {
            return Err(LinalgError::DimensionMismatch {
                context: "csr from_parts: indptr/indices/data are inconsistent",
            });
        }
        let sorted = indptr.windows(2).all(|w| {
            let row = &indices[w[0]..w[1]];
            row.windows(2).all(|c| c[0] < c[1]) && row.last().is_none_or(|&c| c < cols)
        });
        if !sorted {
            return Err(LinalgError::DimensionMismatch {
                context: "csr from_parts: row indices must be ascending and < cols",
            });
        }
        Ok(CsrMatrix {
            rows,
            cols,
            indptr,
            indices,
            data,
        })
    }

    /// Expand to a dense matrix (absent entries are `+0.0`).
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            let (cols, vals) = self.row(r);
            let out = m.row_mut(r);
            for (&c, &v) in cols.iter().zip(vals) {
                out[c] = v;
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.data.len()
    }

    /// Stored entries of row `r`: ascending column indices and values.
    #[inline]
    pub fn row(&self, r: usize) -> (&[usize], &[f64]) {
        let span = self.indptr[r]..self.indptr[r + 1];
        (&self.indices[span.clone()], &self.data[span])
    }

    /// All stored values, row by row.
    pub fn values(&self) -> &[f64] {
        &self.data
    }

    /// `self ← diag(row_scale) · self · diag(col_scale)` over the
    /// stored entries (each is multiplied by the *product* of its two
    /// factors, as the dense `m[(i, j)] *= r[i] * c[j]` would).
    pub fn scale_rows_cols(&mut self, row_scale: &[f64], col_scale: &[f64]) {
        assert!(row_scale.len() == self.rows && col_scale.len() == self.cols);
        for r in 0..self.rows {
            for k in self.indptr[r]..self.indptr[r + 1] {
                self.data[k] *= row_scale[r] * col_scale[self.indices[k]];
            }
        }
    }

    /// Scale every stored entry by `s`.
    pub fn scale_mut(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// `out[j] ← max(out[j], maxᵢ |self[i, j]|)` — column ∞-norms,
    /// folded into `out` so several matrices can share one pass.
    pub fn col_abs_max_into(&self, out: &mut [f64]) {
        assert_eq!(out.len(), self.cols);
        for (&c, v) in self.indices.iter().zip(&self.data) {
            out[c] = out[c].max(v.abs());
        }
    }

    /// ∞-norm of row `r`.
    pub fn row_abs_max(&self, r: usize) -> f64 {
        self.row(r).1.iter().fold(0.0_f64, |m, v| m.max(v.abs()))
    }

    /// The transpose, in CSR.
    pub fn transpose(&self) -> CsrMatrix {
        let mut indptr = vec![0usize; self.cols + 1];
        for &c in &self.indices {
            indptr[c + 1] += 1;
        }
        for c in 0..self.cols {
            indptr[c + 1] += indptr[c];
        }
        let mut next = indptr.clone();
        let mut indices = vec![0usize; self.nnz()];
        let mut data = vec![0.0; self.nnz()];
        // Source rows are visited in ascending order, so each
        // transposed row receives its column indices ascending.
        for r in 0..self.rows {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                indices[next[c]] = r;
                data[next[c]] = v;
                next[c] += 1;
            }
        }
        CsrMatrix {
            rows: self.cols,
            cols: self.rows,
            indptr,
            indices,
            data,
        }
    }

    /// `(self + selfᵀ) / 2` for a square matrix: every off-diagonal
    /// pair becomes `0.5 · (a[i, j] + a[j, i])` (absent entries count
    /// as zero), the diagonal is kept — entry for entry what
    /// [`Matrix::symmetrize_mut`] computes.
    pub fn symmetrized(&self) -> Result<CsrMatrix> {
        if self.rows != self.cols {
            return Err(LinalgError::DimensionMismatch {
                context: "csr symmetrized: matrix must be square",
            });
        }
        let t = self.transpose();
        let mut indptr = Vec::with_capacity(self.rows + 1);
        let mut indices = Vec::with_capacity(self.nnz());
        let mut data = Vec::with_capacity(self.nnz());
        indptr.push(0);
        for r in 0..self.rows {
            let ((ac, av), (bc, bv)) = (self.row(r), t.row(r));
            let (mut x, mut y) = (0, 0);
            // Merge the two ascending index lists.
            while x < ac.len() || y < bc.len() {
                let ca = ac.get(x).copied().unwrap_or(usize::MAX);
                let cb = bc.get(y).copied().unwrap_or(usize::MAX);
                let c = ca.min(cb);
                let a = if ca == c { av[x] } else { 0.0 };
                let b = if cb == c { bv[y] } else { 0.0 };
                x += usize::from(ca == c);
                y += usize::from(cb == c);
                indices.push(c);
                data.push(if c == r { a } else { 0.5 * (a + b) });
            }
            indptr.push(indices.len());
        }
        Ok(CsrMatrix {
            rows: self.rows,
            cols: self.cols,
            indptr,
            indices,
            data,
        })
    }

    /// `y ← self · x`.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) -> Result<()> {
        if x.len() != self.cols || y.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                context: "csr matvec: x/y length mismatch",
            });
        }
        for r in 0..self.rows {
            let mut s = 0.0;
            for k in self.indptr[r]..self.indptr[r + 1] {
                s += self.data[k] * x[self.indices[k]];
            }
            y[r] = s;
        }
        Ok(())
    }

    /// `y ← selfᵀ · x`.
    pub fn matvec_transpose_into(&self, x: &[f64], y: &mut [f64]) -> Result<()> {
        if x.len() != self.rows || y.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                context: "csr matvec_transpose: x/y length mismatch",
            });
        }
        y.iter_mut().for_each(|v| *v = 0.0);
        for r in 0..self.rows {
            let xr = x[r];
            if xr == 0.0 {
                continue;
            }
            for k in self.indptr[r]..self.indptr[r + 1] {
                y[self.indices[k]] += self.data[k] * xr;
            }
        }
        Ok(())
    }

    /// Convenience allocating variants.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        let mut y = vec![0.0; self.rows];
        self.matvec_into(x, &mut y)?;
        Ok(y)
    }

    /// `selfᵀ · x` into a fresh vector.
    pub fn matvec_transpose(&self, x: &[f64]) -> Result<Vec<f64>> {
        let mut y = vec![0.0; self.cols];
        self.matvec_transpose_into(x, &mut y)?;
        Ok(y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Matrix, CsrMatrix) {
        let d = Matrix::from_rows(&[&[1.0, 0.0, 2.0], &[0.0, 0.0, 0.0], &[0.0, 3.0, 0.0]]);
        let s = CsrMatrix::from_dense(&d, 0.0);
        (d, s)
    }

    #[test]
    fn conversion_counts_nonzeros() {
        let (_, s) = sample();
        assert_eq!(s.nnz(), 3);
        assert_eq!(s.rows(), 3);
        assert_eq!(s.cols(), 3);
    }

    #[test]
    fn matvec_matches_dense() {
        let (d, s) = sample();
        let x = [1.0, 2.0, 3.0];
        assert_eq!(s.matvec(&x).unwrap(), d.matvec(&x).unwrap());
    }

    #[test]
    fn matvec_transpose_matches_dense() {
        let (d, s) = sample();
        let x = [1.0, 2.0, 3.0];
        assert_eq!(
            s.matvec_transpose(&x).unwrap(),
            d.matvec_transpose(&x).unwrap()
        );
    }

    #[test]
    fn tolerance_drops_small_entries() {
        let d = Matrix::from_rows(&[&[1e-12, 1.0]]);
        let s = CsrMatrix::from_dense(&d, 1e-9);
        assert_eq!(s.nnz(), 1);
    }

    #[test]
    fn dimension_errors() {
        let (_, s) = sample();
        let mut y = vec![0.0; 2];
        assert!(s.matvec_into(&[1.0; 3], &mut y).is_err());
        assert!(s.matvec_transpose_into(&[1.0; 2], &mut [0.0; 3]).is_err());
    }

    /// Deterministic pseudo-random pattern, about a third filled.
    fn patterned(rows: usize, cols: usize) -> Matrix {
        let mut d = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                if (i * cols + j).is_multiple_of(3) {
                    d[(i, j)] = ((i + 2 * j) as f64 * 0.7).sin();
                }
            }
        }
        d
    }

    #[test]
    fn from_parts_round_trips_and_validates() {
        let (d, s) = sample();
        let built =
            CsrMatrix::from_parts(3, 3, vec![0, 2, 2, 3], vec![0, 2, 1], vec![1.0, 2.0, 3.0])
                .unwrap();
        assert_eq!(built, s);
        assert_eq!(built.to_dense(), d);
        // Descending columns, an out-of-range column, a short indptr.
        assert!(CsrMatrix::from_parts(1, 3, vec![0, 2], vec![2, 0], vec![1.0; 2]).is_err());
        assert!(CsrMatrix::from_parts(1, 3, vec![0, 1], vec![3], vec![1.0]).is_err());
        assert!(CsrMatrix::from_parts(2, 3, vec![0, 1], vec![0], vec![1.0]).is_err());
    }

    #[test]
    fn symmetrized_matches_dense_symmetrize_bitwise() {
        let mut d = patterned(6, 6);
        let sym = CsrMatrix::from_dense(&d, 0.0).symmetrized().unwrap();
        d.symmetrize_mut();
        assert_eq!(sym.to_dense(), d);
        assert_eq!(sym.transpose(), sym);
        assert!(CsrMatrix::from_dense(&patterned(2, 3), 0.0)
            .symmetrized()
            .is_err());
    }

    #[test]
    fn scalings_and_norms_match_dense_bitwise() {
        let d = patterned(5, 4);
        let mut s = CsrMatrix::from_dense(&d, 0.0);
        let (rs, cs) = ([0.5, 3.0, 0.1, 7.0, 1.5], [2.0, 0.3, 1.1, 9.0]);
        let mut col_norms = [0.0; 4];
        s.col_abs_max_into(&mut col_norms);
        for j in 0..4 {
            let want = d.col(j).iter().fold(0.0_f64, |m, v| m.max(v.abs()));
            assert_eq!(col_norms[j], want);
        }
        for i in 0..5 {
            let want = d.row(i).iter().fold(0.0_f64, |m, v| m.max(v.abs()));
            assert_eq!(s.row_abs_max(i), want);
        }
        s.scale_rows_cols(&rs, &cs);
        s.scale_mut(0.7);
        let mut want = d.clone();
        for i in 0..5 {
            for j in 0..4 {
                want[(i, j)] *= rs[i] * cs[j];
            }
        }
        want.scale_mut(0.7);
        assert_eq!(s.to_dense(), want);
    }

    #[test]
    fn random_matrices_agree_with_dense() {
        let d = patterned(7, 5);
        let s = CsrMatrix::from_dense(&d, 0.0);
        let x: Vec<f64> = (0..5).map(|i| i as f64 - 2.0).collect();
        let xr: Vec<f64> = (0..7).map(|i| (i as f64 * 0.4).cos()).collect();
        for (a, b) in s.matvec(&x).unwrap().iter().zip(d.matvec(&x).unwrap()) {
            assert!((a - b).abs() < 1e-14);
        }
        for (a, b) in s
            .matvec_transpose(&xr)
            .unwrap()
            .iter()
            .zip(d.matvec_transpose(&xr).unwrap())
        {
            assert!((a - b).abs() < 1e-14);
        }
    }
}
