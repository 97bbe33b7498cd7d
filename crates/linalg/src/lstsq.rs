//! Linear least squares via QR: the dense reference the tests check
//! the solver's polished KKT solves and the spline fit against.

use crate::{Matrix, Qr, Result};

/// Solve `min_x ‖A x − b‖₂` via Householder QR.
///
/// `a` must have at least as many rows as columns and full column rank.
/// Returns the coefficient vector of length `a.cols()`.
pub fn lstsq(a: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
    Qr::factor(a)?.solve_lstsq(b)
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
}
