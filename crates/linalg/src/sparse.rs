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

    /// Row `r` with its values writable; the pattern stays fixed.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> (&[usize], &mut [f64]) {
        let span = self.indptr[r]..self.indptr[r + 1];
        (&self.indices[span.clone()], &mut self.data[span])
    }

    /// All stored values, row by row.
    pub fn values(&self) -> &[f64] {
        &self.data
    }

    /// Scale every stored entry by `s`.
    pub fn scale_mut(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
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
    /// [`Matrix::symmetrize_mut`] computes. A matrix that arithmetic
    /// would leave as it is comes back untouched.
    pub fn symmetrized(self) -> Result<CsrMatrix> {
        if self.rows != self.cols {
            return Err(LinalgError::DimensionMismatch {
                context: "csr symmetrized: matrix must be square",
            });
        }
        Ok(if self.is_fixed_by_symmetrizing() {
            self
        } else {
            self.merged_with_transpose()
        })
    }

    /// `(self + selfᵀ) / 2` computed entry by entry (`self` square).
    fn merged_with_transpose(&self) -> CsrMatrix {
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
        CsrMatrix {
            rows: self.rows,
            cols: self.cols,
            indptr,
            indices,
            data,
        }
    }

    /// Whether every stored off-diagonal entry has a stored mirror
    /// image with the same bits, and doubling it stays finite — then
    /// `0.5 · (a + a)` is `a` exactly and [`CsrMatrix::symmetrized`]
    /// has nothing to compute. One walk: `next[c]` is the first entry
    /// of row `c` no earlier row has claimed; rows `< r` claim exactly
    /// row `r`'s entries left of the diagonal, in column order, or the
    /// matrix is not symmetric.
    fn is_fixed_by_symmetrizing(&self) -> bool {
        let mut next = self.indptr[..self.rows].to_vec();
        for r in 0..self.rows {
            let end = self.indptr[r + 1];
            let k = next[r];
            let diagonal = usize::from(k < end && self.indices[k] == r);
            for k in k + diagonal..end {
                // Right of the diagonal — or left of it and unclaimed,
                // and then row `c < r` is done and holds no `(c, r)`.
                let (c, a) = (self.indices[k], self.data[k]);
                let mirror = next[c];
                if mirror == self.indptr[c + 1] || self.indices[mirror] != r {
                    return false;
                }
                let b = self.data[mirror];
                if a.to_bits() != b.to_bits() || !(a + b).is_finite() {
                    return false;
                }
                next[c] = mirror + 1;
            }
        }
        true
    }

    /// `y ← self · x`. Each row's sum takes its stored entries left to
    /// right from `+0.0`; four rows that share a stretch of two or more
    /// entries advance through it together.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) -> Result<()> {
        if x.len() != self.cols || y.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                context: "csr matvec: x/y length mismatch",
            });
        }
        // Continue the sum `s` over the stored entries `(cols, vals)`.
        let dot_from = |s: f64, cols: &[usize], vals: &[f64]| {
            cols.iter().zip(vals).fold(s, |s, (&c, &v)| s + v * x[c])
        };
        let mut quads = y.chunks_exact_mut(4);
        for (q, out) in quads.by_ref().enumerate() {
            let ptr = &self.indptr[4 * q..4 * q + 5];
            // The shortest row bounds the stretch all four share. Under
            // two entries there is no add chain to overlap, and a row
            // costs less than the four-way split does.
            let shared = (ptr[1] - ptr[0])
                .min(ptr[2] - ptr[1])
                .min(ptr[3] - ptr[2])
                .min(ptr[4] - ptr[3]);
            if shared < 2 {
                for (lane, out) in out.iter_mut().enumerate() {
                    let (cols, vals) = self.row(4 * q + lane);
                    *out = dot_from(0.0, cols, vals);
                }
                continue;
            }
            let [(c0, v0), (c1, v1), (c2, v2), (c3, v3)] =
                [0, 1, 2, 3].map(|lane| self.row(4 * q + lane));
            // Each row finishes its own tail alone.
            let ((c0, t0), (v0, u0)) = (c0.split_at(shared), v0.split_at(shared));
            let ((c1, t1), (v1, u1)) = (c1.split_at(shared), v1.split_at(shared));
            let ((c2, t2), (v2, u2)) = (c2.split_at(shared), v2.split_at(shared));
            let ((c3, t3), (v3, u3)) = (c3.split_at(shared), v3.split_at(shared));
            let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
            for k in 0..shared {
                s0 += v0[k] * x[c0[k]];
                s1 += v1[k] * x[c1[k]];
                s2 += v2[k] * x[c2[k]];
                s3 += v3[k] * x[c3[k]];
            }
            out[0] = dot_from(s0, t0, u0);
            out[1] = dot_from(s1, t1, u1);
            out[2] = dot_from(s2, t2, u2);
            out[3] = dot_from(s3, t3, u3);
        }
        let tail = self.rows - self.rows % 4;
        for (r, out) in (tail..).zip(quads.into_remainder()) {
            let (cols, vals) = self.row(r);
            *out = dot_from(0.0, cols, vals);
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
        for (r, &xr) in x.iter().enumerate() {
            if xr == 0.0 {
                continue;
            }
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                y[c] += v * xr;
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

    fn bits(m: &CsrMatrix) -> Vec<u64> {
        m.values().iter().map(|v| v.to_bits()).collect()
    }

    /// A bit-symmetric `n × n` matrix: a full diagonal band `band` wide
    /// (SpotWeb's block-tridiagonal shape) when `band > 0`, else a
    /// pseudo-random pattern; row 1 and column 1 empty, a stored `−0.0`
    /// pair, magnitudes from 1e-300 to 1e300.
    fn symmetric(n: usize, band: usize) -> CsrMatrix {
        let mut d = Matrix::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                let keep = if band > 0 {
                    j - i <= band
                } else {
                    (i * 7 + j * 3) % 5 < 2
                };
                if keep && i != 1 && j != 1 {
                    let exp = ((i + j) % 7) as i32 * 100 - 300;
                    d[(i, j)] = ((i * n + j) as f64 + 0.37).sin() * 10f64.powi(exp);
                    d[(j, i)] = d[(i, j)];
                }
            }
        }
        let mut s = CsrMatrix::from_dense(&d, 0.0);
        if n > 3 {
            // `from_dense` drops zeros; store a signed one by hand.
            let at = |s: &CsrMatrix, r: usize, c: usize| {
                s.indptr[r] + s.row(r).0.iter().position(|&x| x == c).unwrap()
            };
            if d[(0, 2)] != 0.0 {
                let (up, down) = (at(&s, 0, 2), at(&s, 2, 0));
                s.data[up] = -0.0;
                s.data[down] = -0.0;
            }
        }
        s
    }

    #[test]
    fn symmetrized_returns_a_symmetric_matrix_as_the_merge_would_leave_it() {
        let sizes: &[usize] = if cfg!(miri) {
            &[0, 1, 5]
        } else {
            &[0, 1, 2, 5, 12, 40]
        };
        for &n in sizes {
            for band in [0, 1, 3] {
                let s = symmetric(n, band);
                assert!(s.is_fixed_by_symmetrizing(), "n = {n}, band = {band}");
                let merged = s.merged_with_transpose();
                assert_eq!(merged, s);
                assert_eq!(bits(&merged), bits(&s), "n = {n}, band = {band}");
                assert_eq!(bits(&s.clone().symmetrized().unwrap()), bits(&s));
            }
        }
    }

    #[test]
    fn symmetrized_falls_through_to_the_merge_on_any_asymmetry() {
        let s = symmetric(9, 3);
        let at =
            |r: usize, c: usize| s.indptr[r] + s.row(r).0.iter().position(|&x| x == c).unwrap();
        // One flipped mantissa bit, above and below the diagonal.
        for (r, c) in [(2, 4), (4, 2), (7, 8), (8, 7)] {
            let mut m = s.clone();
            m.data[at(r, c)] = f64::from_bits(m.data[at(r, c)].to_bits() ^ 1);
            assert!(!m.is_fixed_by_symmetrizing(), "bit flip at ({r}, {c})");
            assert_eq!(m.clone().symmetrized().unwrap(), m.merged_with_transpose());
            assert_ne!(m.clone().symmetrized().unwrap(), m);
        }
        // A missing mirror entry: first, middle and last of a row, on
        // either side of the diagonal.
        for (r, c) in [(0, 2), (2, 0), (3, 4), (4, 3), (5, 8), (8, 5), (8, 7)] {
            let k = at(r, c);
            let mut m = s.clone();
            m.indices.remove(k);
            m.data.remove(k);
            for p in &mut m.indptr[r + 1..] {
                *p -= 1;
            }
            assert!(!m.is_fixed_by_symmetrizing(), "({r}, {c}) dropped");
            let sym = m.clone().symmetrized().unwrap();
            assert_eq!(sym, m.merged_with_transpose());
            assert_eq!(sym.nnz(), s.nnz(), "the merge restores the pair");
        }
        // Rows with entries their columns lack altogether: distinct
        // values, then all ones (a cycle, so that only the pattern can
        // tell — every cursor finds *an* entry with the right bits).
        for rows in [
            [[1.0, 0.0, 0.0], [2.0, 1.0, 3.0], [0.0, 0.0, 1.0]],
            [[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]],
        ] {
            let dense = Matrix::from_rows(&[&rows[0], &rows[1], &rows[2]]);
            let lopsided = CsrMatrix::from_dense(&dense, 0.0);
            assert!(!lopsided.is_fixed_by_symmetrizing(), "{rows:?}");
            let mut want = dense;
            want.symmetrize_mut();
            assert_eq!(lopsided.symmetrized().unwrap().to_dense(), want);
        }
        // A bit-equal pair whose sum overflows is the merge's to turn
        // into the ∞ the dense arithmetic yields.
        let huge =
            CsrMatrix::from_dense(&Matrix::from_rows(&[&[1.0, 1.2e308], &[1.2e308, 1.0]]), 0.0);
        assert!(!huge.is_fixed_by_symmetrizing());
        assert_eq!(huge.symmetrized().unwrap().values()[1], f64::INFINITY);
    }

    /// The row loop `matvec_into` replaced, kept as its oracle.
    fn matvec_scalar(m: &CsrMatrix, x: &[f64]) -> Vec<f64> {
        (0..m.rows)
            .map(|r| {
                let mut s = 0.0;
                for k in m.indptr[r]..m.indptr[r + 1] {
                    s += m.data[k] * x[m.indices[k]];
                }
                s
            })
            .collect()
    }

    #[test]
    fn four_row_matvec_is_bitwise_the_scalar_row_loop_on_ragged_rows() {
        let cols = 11;
        let x: Vec<f64> = (0..cols)
            .map(|j| match j % 4 {
                0 => -0.0,
                1 => 1e-3 * (j as f64 + 0.1).cos(),
                2 => 1e5 * (j as f64).sin(),
                _ => -(j as f64) / 3.0,
            })
            .collect();
        // Every row count 0–9; row `r` of variant `shift` holds
        // `(r · 5 + shift) % 10` entries, so each quad mixes lengths
        // 0–9 in a different order and every tail length occurs.
        for rows in 0..10 {
            for shift in 0..10 {
                let (mut indptr, mut indices, mut data) = (vec![0], Vec::new(), Vec::new());
                for r in 0..rows {
                    let len = (r * 5 + shift) % 10;
                    for k in 0..len {
                        indices.push(k + r % 2);
                        data.push(match (r + k) % 5 {
                            0 => 0.0,
                            1 => -0.0,
                            _ => ((r * 13 + k * 7) as f64 + 0.5).sin() * 10f64.powi(k as i32 - 4),
                        });
                    }
                    indptr.push(indices.len());
                }
                let m = CsrMatrix::from_parts(rows, cols, indptr, indices, data).unwrap();
                let want: Vec<u64> = matvec_scalar(&m, &x).iter().map(|v| v.to_bits()).collect();
                let got: Vec<u64> = m.matvec(&x).unwrap().iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "rows = {rows}, shift = {shift}");
            }
        }
    }

    #[test]
    fn row_mut_and_scale_mut_match_dense_bitwise() {
        let d = patterned(5, 4);
        let mut s = CsrMatrix::from_dense(&d, 0.0);
        let (rs, cs) = ([0.5, 3.0, 0.1, 7.0, 1.5], [2.0, 0.3, 1.1, 9.0]);
        for (i, ri) in rs.iter().enumerate() {
            let (cols, vals) = s.row_mut(i);
            for (v, &j) in vals.iter_mut().zip(cols) {
                *v *= ri * cs[j];
            }
        }
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
