//! Householder QR factorization.
//!
//! The dense reference of the tests: least squares via QR avoids
//! squaring the condition number the way normal equations do, so the
//! KKT oracle and the spline fit's oracle solve through it, sharing no
//! code with the factorizations they check.

use crate::{LinalgError, Matrix, Result};

/// A Householder QR factorization of an `m × n` matrix with `m ≥ n`.
///
/// The factorization is stored compactly: the upper triangle of `qr`
/// holds `R`; the essential parts of the Householder vectors live below
/// the diagonal, with their scaling factors in `tau`.
#[derive(Debug, Clone)]
pub struct Qr {
    qr: Matrix,
    tau: Vec<f64>,
}

impl Qr {
    /// Factor `a` (requires `rows ≥ cols`).
    pub fn factor(a: &Matrix) -> Result<Self> {
        Self::factor_owned(a.clone())
    }

    /// Factor `a` in its own storage (requires `rows ≥ cols`).
    ///
    /// Each reflector is applied to the trailing columns by sweeping
    /// rows: `s[j] = a[k][j] + Σ_{i>k} v[i]·a[i][j]` is accumulated for
    /// all `j` at once with `i` outermost, so the inner loops run along
    /// the row-major storage. Every `s[j]` still adds its terms in
    /// ascending `i` — one accumulator per column, bit-identical to the
    /// column-at-a-time textbook loop.
    fn factor_owned(mut qr: Matrix) -> Result<Self> {
        let (m, n) = (qr.rows(), qr.cols());
        if m < n {
            return Err(LinalgError::DimensionMismatch {
                context: "qr: requires rows >= cols",
            });
        }
        let mut tau = vec![0.0; n];
        let mut s = vec![0.0; n];
        for k in 0..n {
            // Build the Householder reflector for column k.
            let mut norm = 0.0;
            for i in k..m {
                norm += qr[(i, k)] * qr[(i, k)];
            }
            let norm = norm.sqrt();
            if norm == 0.0 {
                return Err(LinalgError::Singular { pivot: k });
            }
            let alpha = if qr[(k, k)] >= 0.0 { -norm } else { norm };
            // v = x - alpha e1, normalized so v[0] = 1.
            let v0 = qr[(k, k)] - alpha;
            for i in (k + 1)..m {
                let scaled = qr[(i, k)] / v0;
                qr[(i, k)] = scaled;
            }
            tau[k] = -v0 / alpha;
            qr[(k, k)] = alpha;
            // Apply the reflector to the remaining columns.
            let (head, below) = qr.as_mut_slice().split_at_mut((k + 1) * n);
            let pivot = &mut head[k * n + k + 1..];
            let s = &mut s[k + 1..];
            s.copy_from_slice(pivot);
            for row in below.chunks_exact(n) {
                let v = row[k];
                for (sj, a) in s.iter_mut().zip(&row[k + 1..]) {
                    *sj += v * a;
                }
            }
            for (sj, a) in s.iter_mut().zip(pivot) {
                *sj *= tau[k];
                *a -= *sj;
            }
            for row in below.chunks_exact_mut(n) {
                let v = row[k];
                for (sj, a) in s.iter().zip(&mut row[k + 1..]) {
                    *a -= sj * v;
                }
            }
        }
        Ok(Qr { qr, tau })
    }

    /// Number of rows of the original matrix.
    pub fn rows(&self) -> usize {
        self.qr.rows()
    }

    /// Number of columns of the original matrix.
    pub fn cols(&self) -> usize {
        self.qr.cols()
    }

    /// Apply `Qᵀ` to a vector of length `rows`, in place.
    pub fn apply_qt(&self, b: &mut [f64]) -> Result<()> {
        let (m, n) = (self.rows(), self.cols());
        if b.len() != m {
            return Err(LinalgError::DimensionMismatch {
                context: "qr apply_qt: rhs length mismatch",
            });
        }
        for k in 0..n {
            let mut s = b[k];
            for i in (k + 1)..m {
                s += self.qr[(i, k)] * b[i];
            }
            s *= self.tau[k];
            b[k] -= s;
            for i in (k + 1)..m {
                b[i] -= s * self.qr[(i, k)];
            }
        }
        Ok(())
    }

    /// Solve the least-squares problem `min ‖A x − b‖₂`.
    ///
    /// Returns the length-`cols` solution vector.
    pub fn solve_lstsq(&self, b: &[f64]) -> Result<Vec<f64>> {
        let (_, n) = (self.rows(), self.cols());
        let mut y = b.to_vec();
        self.apply_qt(&mut y)?;
        // Back-substitute R x = y[..n].
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let rii = self.qr[(i, i)];
            if rii.abs() < 1e-300 {
                return Err(LinalgError::Singular { pivot: i });
            }
            let mut s = y[i];
            for j in (i + 1)..n {
                s -= self.qr[(i, j)] * x[j];
            }
            x[i] = s / rii;
        }
        Ok(x)
    }

    /// Copy out the upper-triangular `R` factor (`cols × cols`).
    pub fn r(&self) -> Matrix {
        let n = self.cols();
        let mut r = Matrix::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                r[(i, j)] = self.qr[(i, j)];
            }
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::ops::RangeInclusive;

    /// The column-at-a-time Householder loop `factor_owned` replaced,
    /// kept as the bitwise reference.
    fn factor_by_columns(a: &Matrix) -> Result<Qr> {
        let (m, n) = (a.rows(), a.cols());
        let mut qr = a.clone();
        let mut tau = vec![0.0; n];
        for k in 0..n {
            let mut norm = 0.0;
            for i in k..m {
                norm += qr[(i, k)] * qr[(i, k)];
            }
            let norm = norm.sqrt();
            if norm == 0.0 {
                return Err(LinalgError::Singular { pivot: k });
            }
            let alpha = if qr[(k, k)] >= 0.0 { -norm } else { norm };
            let v0 = qr[(k, k)] - alpha;
            for i in (k + 1)..m {
                let scaled = qr[(i, k)] / v0;
                qr[(i, k)] = scaled;
            }
            tau[k] = -v0 / alpha;
            qr[(k, k)] = alpha;
            for j in (k + 1)..n {
                let mut s = qr[(k, j)];
                for i in (k + 1)..m {
                    s += qr[(i, k)] * qr[(i, j)];
                }
                s *= tau[k];
                qr[(k, j)] -= s;
                for i in (k + 1)..m {
                    let vik = qr[(i, k)];
                    qr[(i, j)] -= s * vik;
                }
            }
        }
        Ok(Qr { qr, tau })
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `R`, the stored reflectors, `tau` and a least-squares solve all
    /// agree with the column walk to the bit.
    fn assert_matches_column_walk(a: &Matrix, b: &[f64]) {
        match (Qr::factor(a), factor_by_columns(a)) {
            (Ok(swept), Ok(walked)) => {
                assert_eq!(bits(swept.qr.as_slice()), bits(walked.qr.as_slice()));
                assert_eq!(bits(&swept.tau), bits(&walked.tau));
                assert_eq!(bits(swept.r().as_slice()), bits(walked.r().as_slice()));
                match (swept.solve_lstsq(b), walked.solve_lstsq(b)) {
                    (Ok(x), Ok(y)) => assert_eq!(bits(&x), bits(&y)),
                    (x, y) => assert_eq!(x.is_err(), y.is_err()),
                }
            }
            (swept, walked) => assert_eq!(swept.err(), walked.err()),
        }
    }

    /// An `m × n` system with `n` drawn from `cols` and `m = n + extra`.
    fn tall_system(
        cols: RangeInclusive<usize>,
        extra: RangeInclusive<usize>,
    ) -> impl Strategy<Value = (Matrix, Vec<f64>)> {
        proptest::FnStrategy(move |rng: &mut proptest::TestRng| {
            let n = cols.sample(rng);
            let m = n + extra.sample(rng);
            let data = prop::collection::vec(-5.0f64..5.0, m * n).sample(rng);
            let b = prop::collection::vec(-3.0f64..3.0, m).sample(rng);
            (Matrix::from_vec(m, n, data).unwrap(), b)
        })
    }

    proptest! {
        #[test]
        fn row_sweep_is_bitwise_the_column_walk(
            tall in tall_system(1..=9, 0..=16),
            one_column in tall_system(1..=1, 0..=16),
            square in tall_system(1..=9, 0..=0),
        ) {
            for (a, b) in [tall, one_column, square] {
                assert_matches_column_walk(&a, &b);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// The shape `predict::spline`'s oracle factors: 336 window
        /// rows of four-wide periodic support plus a trend column,
        /// stacked on 29 ridge rows (mostly exact zeros).
        #[test]
        #[cfg_attr(miri, ignore)]
        fn row_sweep_is_bitwise_the_column_walk_on_the_ridge_stacked_spline_shape(
            support in prop::collection::vec(0.01f64..1.0, 336 * 4),
            b in prop::collection::vec(-3.0f64..3.0, 336),
        ) {
            let (window, knots) = (336, 28);
            let mut a = Matrix::zeros(window + knots + 1, knots + 1);
            for r in 0..window {
                for (lane, v) in support[r * 4..(r + 1) * 4].iter().enumerate() {
                    a[(r, (r / 6 + lane) % knots)] = *v;
                }
                a[(r, knots)] = (r as f64 - 167.5) / window as f64;
            }
            for i in 0..=knots {
                a[(window + i, i)] = 1e-3;
            }
            let mut rhs = b;
            rhs.resize(a.rows(), 0.0);
            assert_matches_column_walk(&a, &rhs);
        }
    }

    #[test]
    fn solves_square_system() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let x_true = [1.0, -1.0];
        let b = a.matvec(&x_true).unwrap();
        let x = Qr::factor(&a).unwrap().solve_lstsq(&b).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] + 1.0).abs() < 1e-12);
    }

    #[test]
    fn overdetermined_least_squares() {
        // Fit y = 2x + 1 exactly from 4 points: residual must be ~0.
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[1.0, 2.0], &[1.0, 3.0]]);
        let b = [1.0, 3.0, 5.0, 7.0];
        let x = Qr::factor(&a).unwrap().solve_lstsq(&b).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-10);
        assert!((x[1] - 2.0).abs() < 1e-10);
    }

    #[test]
    fn least_squares_minimizes_residual() {
        // Inconsistent system: solution must satisfy the normal equations.
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[1.0, 2.0]]);
        let b = [0.0, 1.0, 1.0];
        let x = Qr::factor(&a).unwrap().solve_lstsq(&b).unwrap();
        // Normal equations: Aᵀ(Ax - b) = 0.
        let ax = a.matvec(&x).unwrap();
        let r: Vec<f64> = ax.iter().zip(&b).map(|(p, q)| p - q).collect();
        let g = a.matvec_transpose(&r).unwrap();
        assert!(g.iter().all(|v| v.abs() < 1e-10), "gradient {g:?}");
    }

    #[test]
    fn rejects_underdetermined() {
        let a = Matrix::zeros(2, 3);
        assert!(Qr::factor(&a).is_err());
    }

    #[test]
    fn rejects_zero_column() {
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[2.0, 0.0], &[3.0, 0.0]]);
        assert!(matches!(Qr::factor(&a), Err(LinalgError::Singular { .. })));
    }

    #[test]
    fn r_is_upper_triangular() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let r = Qr::factor(&a).unwrap().r();
        assert_eq!(r[(1, 0)], 0.0);
        // RᵀR should equal AᵀA (up to sign conventions absorbed in Q).
        let rtr = r.transpose().matmul(&r).unwrap();
        let ata = a.gram();
        for i in 0..2 {
            for j in 0..2 {
                assert!((rtr[(i, j)] - ata[(i, j)]).abs() < 1e-10);
            }
        }
    }
}
