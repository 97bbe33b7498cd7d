//! Cholesky factorization of a symmetric positive definite *band*
//! matrix, in storage the caller owns.
//!
//! An `n × n` matrix whose entries vanish more than `bw` places off
//! the diagonal is kept as its lower band: row `i` holds
//! `A[i, i − bw ..= i]` in `band[i·(bw + 1) .. (i + 1)·(bw + 1)]`, the
//! diagonal last (the slots left of column 0 in the first rows are
//! never read). Factoring overwrites the band with `L`'s in
//! `O(n·bw²)` and allocates nothing, so a caller that re-solves small
//! systems inside a larger computation (the QP solver's polish) can
//! keep one buffer for all of them: no per-solve heap traffic, and no
//! small blocks left between the large ones it frees.

use crate::{LinalgError, Result};

fn check(len: usize, n: usize, bw: usize) -> Result<()> {
    if len != n * (bw + 1) {
        return Err(LinalgError::DimensionMismatch {
            context: "band: storage must be n·(bw + 1) long",
        });
    }
    Ok(())
}

/// Factor `A = L Lᵀ` in place. [`LinalgError::NotPositiveDefinite`]
/// when a pivot is ≤ 0 or not finite.
pub fn factor_in_place(band: &mut [f64], n: usize, bw: usize) -> Result<()> {
    check(band.len(), n, bw)?;
    let w = bw + 1;
    for i in 0..n {
        let first = i.saturating_sub(bw);
        for j in first..=i {
            // A[i, j] − Σₖ L[i, k]·L[j, k] over the columns both rows
            // hold, ascending.
            let mut s = band[i * w + j + bw - i];
            for k in first.max(j.saturating_sub(bw))..j {
                s -= band[i * w + k + bw - i] * band[j * w + k + bw - j];
            }
            if j < i {
                band[i * w + j + bw - i] = s / band[j * w + bw];
            } else if s > 0.0 && s.is_finite() {
                band[i * w + bw] = s.sqrt();
            } else {
                return Err(LinalgError::NotPositiveDefinite { pivot: i });
            }
        }
    }
    Ok(())
}

/// Solve `A x = b` in place with the factor [`factor_in_place`] left
/// in `band` (`x` holds `b` on entry).
pub fn solve_in_place(band: &[f64], n: usize, bw: usize, x: &mut [f64]) -> Result<()> {
    check(band.len(), n, bw)?;
    if x.len() != n {
        return Err(LinalgError::DimensionMismatch {
            context: "band solve: rhs length mismatch",
        });
    }
    let w = bw + 1;
    for i in 0..n {
        let mut s = x[i];
        for k in i.saturating_sub(bw)..i {
            s -= band[i * w + k + bw - i] * x[k];
        }
        x[i] = s / band[i * w + bw];
    }
    for i in (0..n).rev() {
        let mut s = x[i];
        for r in i + 1..(i + w).min(n) {
            s -= band[r * w + i + bw - r] * x[r];
        }
        x[i] = s / band[i * w + bw];
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cholesky, Matrix};

    /// A deterministic SPD matrix with bandwidth `bw`, and its band.
    fn banded(n: usize, bw: usize) -> (Matrix, Vec<f64>) {
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in i.saturating_sub(bw)..i {
                let v = ((i * 7 + j * 3) as f64 * 0.37).sin();
                a[(i, j)] = v;
                a[(j, i)] = v;
            }
            a[(i, i)] = 2.0 * bw as f64 + 1.0 + (i as f64 * 0.11).cos();
        }
        let w = bw + 1;
        let mut band = vec![0.0; n * w];
        for i in 0..n {
            for j in i.saturating_sub(bw)..=i {
                band[i * w + j + bw - i] = a[(i, j)];
            }
        }
        (a, band)
    }

    #[test]
    fn solves_like_the_dense_cholesky() {
        for (n, bw) in [(1, 0), (5, 0), (6, 2), (9, 4), (7, 6), (12, 11)] {
            let (a, mut band) = banded(n, bw);
            factor_in_place(&mut band, n, bw).unwrap();
            let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.5).cos()).collect();
            let mut x = b.clone();
            solve_in_place(&band, n, bw, &mut x).unwrap();
            let want = Cholesky::factor(&a).unwrap().solve(&b).unwrap();
            for (got, want) in x.iter().zip(&want) {
                assert!((got - want).abs() < 1e-12, "n {n} bw {bw}: {got} vs {want}");
            }
        }
    }

    #[test]
    fn singular_and_misshapen_inputs_are_errors() {
        // [[1, 1], [1, 1]]: the second pivot is 0.
        let mut band = vec![0.0, 1.0, 1.0, 1.0];
        assert_eq!(
            factor_in_place(&mut band, 2, 1),
            Err(LinalgError::NotPositiveDefinite { pivot: 1 })
        );
        let mut zero = vec![0.0];
        assert!(factor_in_place(&mut zero, 1, 0).is_err());
        assert!(factor_in_place(&mut [1.0; 3], 2, 1).is_err());
        assert!(solve_in_place(&[1.0; 2], 2, 0, &mut [0.0; 3]).is_err());
    }
}
