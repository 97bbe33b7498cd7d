//! Linear least squares.

use crate::{Matrix, Qr, Result};

/// Solve `min_x ‖A x − b‖₂` via Householder QR.
///
/// `a` must have at least as many rows as columns and full column rank.
/// Returns the coefficient vector of length `a.cols()`.
pub fn lstsq(a: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
    Qr::factor(a)?.solve_lstsq(b)
}

/// Solve a *ridge-regularized* least squares `min ‖Ax − b‖² + λ‖x‖²`.
///
/// Implemented by stacking `√λ·I` below `A` — numerically equivalent to
/// the regularized normal equations but solved through QR. Ridge keeps
/// spline fits well-posed when the moving window contains near-duplicate
/// rows (flat workload periods).
pub fn lstsq_ridge(a: &Matrix, b: &[f64], lambda: f64) -> Result<Vec<f64>> {
    assert!(lambda >= 0.0, "ridge penalty must be non-negative");
    if lambda == 0.0 {
        return lstsq(a, b);
    }
    let (m, n) = (a.rows(), a.cols());
    let mut stacked = Matrix::zeros(m + n, n);
    stacked.set_block(0, 0, a);
    let sqrt_l = lambda.sqrt();
    for i in 0..n {
        stacked[(m + i, i)] = sqrt_l;
    }
    let mut rhs = b.to_vec();
    rhs.resize(m + n, 0.0);
    Qr::factor_owned(stacked)?.solve_lstsq(&rhs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_fit() {
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 2.0], &[1.0, 3.0]]);
        let b = [2.0, 3.0, 4.0]; // y = 1 + x
        let x = lstsq(&a, &b).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-10 && (x[1] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn ridge_shrinks_towards_zero() {
        let a = Matrix::from_rows(&[&[1.0], &[1.0]]);
        let b = [2.0, 2.0];
        let x0 = lstsq_ridge(&a, &b, 0.0).unwrap();
        let x1 = lstsq_ridge(&a, &b, 10.0).unwrap();
        assert!((x0[0] - 2.0).abs() < 1e-10);
        assert!(x1[0] < x0[0] && x1[0] > 0.0);
        // Closed form: x = (AᵀA + λ)⁻¹ Aᵀ b = 4 / 12.
        assert!((x1[0] - 4.0 / 12.0).abs() < 1e-10);
    }

    #[test]
    fn ridge_handles_rank_deficiency() {
        // Perfectly collinear columns are singular for plain QR but fine
        // with any positive ridge.
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 2.0], &[3.0, 3.0]]);
        let b = [1.0, 2.0, 3.0];
        let x = lstsq_ridge(&a, &b, 1e-6).unwrap();
        // Symmetry → both coefficients equal.
        assert!((x[0] - x[1]).abs() < 1e-8);
    }
}
