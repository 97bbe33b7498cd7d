//! Row-major dense matrix.

use crate::{LinalgError, Result};

/// A dense, row-major `f64` matrix.
///
/// Storage is a single contiguous `Vec<f64>` of length `rows * cols`;
/// element `(i, j)` lives at `data[i * cols + j]`. All dimensions are
/// checked at API boundaries and panic-free variants returning
/// [`Result`] are provided for the operations the solvers use.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Create a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Create the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Create a matrix from a row-major data vector.
    ///
    /// Returns an error if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::DimensionMismatch {
                context: "from_vec: data length != rows * cols",
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Create a matrix from nested row slices (convenient in tests).
    ///
    /// # Panics
    /// Panics if rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "from_rows: ragged rows");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Create a diagonal matrix from a slice of diagonal entries.
    pub fn from_diag(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `true` when the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow the underlying row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the underlying row-major storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrow row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i` as a slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copy column `j` into a new vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Transpose into a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix–matrix product `self * other`.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.rows {
            return Err(LinalgError::DimensionMismatch {
                context: "matmul: self.cols != other.rows",
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        // ikj loop order: stride-1 inner accesses on both `other` and `out`.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                let orow = other.row(k);
                let out_row = out.row_mut(i);
                for (o, &b) in out_row.iter_mut().zip(orow.iter()) {
                    *o += a * b;
                }
            }
        }
        Ok(out)
    }

    /// Matrix–vector product `self * x`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        let mut y = vec![0.0; self.rows];
        self.matvec_into(x, &mut y)?;
        Ok(y)
    }

    /// Matrix–vector product into a caller-provided buffer.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) -> Result<()> {
        if x.len() != self.cols || y.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                context: "matvec: x/y length mismatch",
            });
        }
        for (i, yi) in y.iter_mut().enumerate() {
            *yi = crate::vector::dot(self.row(i), x);
        }
        Ok(())
    }

    /// Transposed matrix–vector product `selfᵀ * x` into a buffer.
    pub fn matvec_transpose_into(&self, x: &[f64], y: &mut [f64]) -> Result<()> {
        if x.len() != self.rows || y.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                context: "matvec_transpose: x/y length mismatch",
            });
        }
        y.iter_mut().for_each(|v| *v = 0.0);
        for i in 0..self.rows {
            let xi = x[i];
            if xi == 0.0 {
                continue;
            }
            for (yj, &a) in y.iter_mut().zip(self.row(i)) {
                *yj += a * xi;
            }
        }
        Ok(())
    }

    /// Transposed matrix–vector product `selfᵀ * x`.
    pub fn matvec_transpose(&self, x: &[f64]) -> Result<Vec<f64>> {
        let mut y = vec![0.0; self.cols];
        self.matvec_transpose_into(x, &mut y)?;
        Ok(y)
    }

    /// Gram matrix `selfᵀ * self` (symmetric positive semidefinite).
    pub fn gram(&self) -> Matrix {
        let n = self.cols;
        let mut g = Matrix::zeros(n, n);
        for k in 0..self.rows {
            let row = self.row(k);
            for i in 0..n {
                let a = row[i];
                if a == 0.0 {
                    continue;
                }
                for j in i..n {
                    g[(i, j)] += a * row[j];
                }
            }
        }
        // Mirror the upper triangle.
        for i in 0..n {
            for j in 0..i {
                g[(i, j)] = g[(j, i)];
            }
        }
        g
    }

    /// Elementwise sum `self + other`.
    pub fn add(&self, other: &Matrix) -> Result<Matrix> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(LinalgError::DimensionMismatch {
                context: "add: shape mismatch",
            });
        }
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Elementwise difference `self - other`.
    pub fn sub(&self, other: &Matrix) -> Result<Matrix> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(LinalgError::DimensionMismatch {
                context: "sub: shape mismatch",
            });
        }
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a - b)
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Scale every element by `s`, in place.
    pub fn scale_mut(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// A scaled copy of the matrix.
    pub fn scaled(&self, s: f64) -> Matrix {
        let mut m = self.clone();
        m.scale_mut(s);
        m
    }

    /// Add `s` to every diagonal entry (square matrices only).
    pub fn add_diag_mut(&mut self, s: f64) {
        debug_assert!(self.is_square());
        let n = self.rows.min(self.cols);
        for i in 0..n {
            self[(i, i)] += s;
        }
    }

    /// Quadratic form `xᵀ * self * x` (square matrices only).
    pub fn quadratic_form(&self, x: &[f64]) -> Result<f64> {
        if !self.is_square() || x.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                context: "quadratic_form: shape mismatch",
            });
        }
        let mut acc = 0.0;
        for i in 0..self.rows {
            acc += x[i] * crate::vector::dot(self.row(i), x);
        }
        Ok(acc)
    }

    /// Maximum absolute element (∞-norm of the vectorized matrix).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, v| m.max(v.abs()))
    }

    /// Symmetrize in place: `self ← (self + selfᵀ) / 2`.
    pub fn symmetrize_mut(&mut self) {
        debug_assert!(self.is_square());
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                let avg = 0.5 * (self[(i, j)] + self[(j, i)]);
                self[(i, j)] = avg;
                self[(j, i)] = avg;
            }
        }
    }

    /// Add `block` into `self` with its top-left corner at `(r0, c0)`.
    ///
    /// # Panics
    /// Panics if the block does not fit.
    pub fn add_block(&mut self, r0: usize, c0: usize, block: &Matrix) {
        assert!(r0 + block.rows <= self.rows && c0 + block.cols <= self.cols);
        for i in 0..block.rows {
            for j in 0..block.cols {
                self[(r0 + i, c0 + j)] += block[(i, j)];
            }
        }
    }
}

impl core::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl core::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.rows(), 2);
        assert_eq!(z.cols(), 3);
        assert!(z.as_slice().iter().all(|&v| v == 0.0));

        let i = Matrix::identity(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(1, 2)], 0.0);
    }

    #[test]
    fn from_vec_checks_len() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_dimension_error() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn matvec_and_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.matvec(&[1.0, 0.0, -1.0]).unwrap(), vec![-2.0, -2.0]);
        assert_eq!(
            a.matvec_transpose(&[1.0, 1.0]).unwrap(),
            vec![5.0, 7.0, 9.0]
        );
        assert_eq!(a.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn gram_matches_explicit_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let g = a.gram();
        let explicit = a.transpose().matmul(&a).unwrap();
        for i in 0..2 {
            for j in 0..2 {
                assert!((g[(i, j)] - explicit[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn quadratic_form_simple() {
        let m = Matrix::from_diag(&[2.0, 3.0]);
        let q = m.quadratic_form(&[1.0, 2.0]).unwrap();
        assert_eq!(q, 2.0 + 12.0);
    }

    #[test]
    fn symmetrize_averages_the_off_diagonal_pair() {
        let mut m = Matrix::from_rows(&[&[1.0, 2.0], &[4.0, 1.0]]);
        m.symmetrize_mut();
        assert_eq!(m, Matrix::from_rows(&[&[1.0, 3.0], &[3.0, 1.0]]));
    }

    #[test]
    fn blocks() {
        let mut m = Matrix::zeros(3, 3);
        let b = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        m.add_block(1, 1, &b);
        assert_eq!(m[(2, 2)], 4.0);
        m.add_block(1, 1, &b);
        assert_eq!(m[(1, 1)], 2.0);
    }

    #[test]
    fn add_sub_scale() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 5.0]]);
        assert_eq!(a.add(&b).unwrap().as_slice(), &[4.0, 7.0]);
        assert_eq!(b.sub(&a).unwrap().as_slice(), &[2.0, 3.0]);
        assert_eq!(a.scaled(2.0).as_slice(), &[2.0, 4.0]);
    }

    #[test]
    fn diag_and_norms() {
        let mut m = Matrix::from_diag(&[3.0, 4.0]);
        assert_eq!(m.max_abs(), 4.0);
        m.add_diag_mut(1.0);
        assert_eq!(m[(0, 0)], 4.0);
    }
}
