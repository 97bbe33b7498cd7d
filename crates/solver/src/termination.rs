//! Convergence criteria for the ADMM iteration.

use spotweb_linalg::vector::{max_nan, max_nan_of, norm_inf};
use spotweb_linalg::CsrMatrix;

/// Primal and dual residuals plus the scale factors used for the
/// relative part of the tolerance (OSQP §3.4).
#[derive(Debug, Clone, Copy)]
pub struct Residuals {
    /// `‖Ax − z‖∞`.
    pub primal: f64,
    /// `‖Px + q + Aᵀy‖∞`.
    pub dual: f64,
    /// `max(‖Ax‖∞, ‖z‖∞)` — scales the primal tolerance.
    pub primal_scale: f64,
    /// `max(‖Px‖∞, ‖Aᵀy‖∞, ‖q‖∞)` — scales the dual tolerance.
    pub dual_scale: f64,
}

impl Residuals {
    /// Compute both residuals at the current iterate.
    ///
    /// `p` must be stored symmetric to the bit, as [`crate::SparseQp`]
    /// stores it: `P·x` reads only the rows `x` uses (see
    /// [`CsrMatrix::symmetric_matvec_into`]). Scratch buffers (`ax`,
    /// `px`, `aty`) must be sized `m`, `n`, `n`; they are overwritten.
    #[allow(
        clippy::too_many_arguments,
        reason = "the ADMM iterate (x, z, y), the problem (P, q, A) and three caller-owned scratch buffers"
    )]
    pub fn compute(
        p: &CsrMatrix,
        q: &[f64],
        a: &CsrMatrix,
        x: &[f64],
        z: &[f64],
        y: &[f64],
        ax: &mut [f64],
        px: &mut [f64],
        aty: &mut [f64],
    ) -> Residuals {
        a.matvec_into(x, ax).expect("residual: A·x shape");
        p.symmetric_matvec_into(x, px).expect("residual: P·x shape");
        a.matvec_transpose_into(y, aty)
            .expect("residual: Aᵀ·y shape");
        Self::reduce(q, z, ax, px, aty)
    }

    /// The residuals from the products `A·x`, `P·x` and `Aᵀy` at hand.
    pub(crate) fn reduce(q: &[f64], z: &[f64], ax: &[f64], px: &[f64], aty: &[f64]) -> Residuals {
        // Every max keeps a NaN: a NaN iterate must read as a NaN
        // residual, not as the 0 an `f64::max` fold makes of it.
        let (z, q, aty) = (&z[..ax.len()], &q[..px.len()], &aty[..px.len()]);
        Residuals {
            primal: max_nan_of(ax.len(), |i| (ax[i] - z[i]).abs()),
            dual: max_nan_of(px.len(), |i| (px[i] + q[i] + aty[i]).abs()),
            primal_scale: max_nan(norm_inf(ax), norm_inf(z)),
            dual_scale: max_nan(max_nan(norm_inf(px), norm_inf(aty)), norm_inf(q)),
        }
    }

    /// `false` once the iterate holds a NaN or an infinity: it reaches
    /// a residual through `Ax`, `Px` or `Aᵀy`, the NaN-keeping max
    /// reports it, and no later iteration recovers.
    pub fn is_finite(&self) -> bool {
        self.primal.is_finite() && self.dual.is_finite()
    }

    /// OSQP-style stopping test. Never met by a non-finite residual
    /// (`∞ ≤ eps_abs + eps_rel·∞` would otherwise hold).
    pub fn converged(&self, eps_abs: f64, eps_rel: f64) -> bool {
        let eps_pri = eps_abs + eps_rel * self.primal_scale;
        let eps_dua = eps_abs + eps_rel * self.dual_scale;
        self.is_finite() && self.primal <= eps_pri && self.dual <= eps_dua
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotweb_linalg::Matrix;

    fn csr(m: &Matrix) -> CsrMatrix {
        CsrMatrix::from_dense(m, 0.0)
    }

    #[test]
    fn zero_iterate_converges_for_zero_problem() {
        let p = csr(&Matrix::zeros(2, 2));
        let a = csr(&Matrix::zeros(1, 2));
        let q = [0.0, 0.0];
        let (x, z, y) = ([0.0, 0.0], [0.0], [0.0]);
        let mut ax = [0.0];
        let mut px = [0.0; 2];
        let mut aty = [0.0; 2];
        let r = Residuals::compute(&p, &q, &a, &x, &z, &y, &mut ax, &mut px, &mut aty);
        assert!(r.converged(1e-9, 1e-9));
    }

    #[test]
    fn detects_primal_gap() {
        let p = csr(&Matrix::zeros(1, 1));
        let a = csr(&Matrix::identity(1));
        let q = [0.0];
        let x = [2.0];
        let z = [1.0]; // Ax = 2 but z = 1 → primal residual 1.
        let y = [0.0];
        let mut ax = [0.0];
        let mut px = [0.0];
        let mut aty = [0.0];
        let r = Residuals::compute(&p, &q, &a, &x, &z, &y, &mut ax, &mut px, &mut aty);
        assert_eq!(r.primal, 1.0);
        assert!(!r.converged(1e-3, 1e-3));
    }

    #[test]
    fn detects_dual_gap() {
        // P = I, q = -1 → stationarity requires x = 1; at x = 0 the dual
        // residual is |q| = 1.
        let p = csr(&Matrix::identity(1));
        let a = csr(&Matrix::identity(1));
        let q = [-1.0];
        let x = [0.0];
        let z = [0.0];
        let y = [0.0];
        let mut ax = [0.0];
        let mut px = [0.0];
        let mut aty = [0.0];
        let r = Residuals::compute(&p, &q, &a, &x, &z, &y, &mut ax, &mut px, &mut aty);
        assert_eq!(r.dual, 1.0);
        assert!(!r.converged(1e-3, 1e-3));
    }

    #[test]
    fn non_finite_iterate_is_never_converged() {
        // Every comparison with NaN is false and `f64::max` drops it:
        // an all-NaN iterate used to read primal = dual = 0, converged.
        let p = csr(&Matrix::identity(2));
        let a = csr(&Matrix::identity(2));
        let q = [0.0, 0.0];
        let mut ax = [0.0; 2];
        let mut px = [0.0; 2];
        let mut aty = [0.0; 2];
        for bad in [f64::NAN, f64::INFINITY] {
            let x = [bad, bad];
            let r = Residuals::compute(&p, &q, &a, &x, &x, &x, &mut ax, &mut px, &mut aty);
            assert!(!r.is_finite(), "{r:?}");
            assert!(!r.converged(1e-3, 1e-3), "{r:?}");
            // One bad entry among good ones, in either position.
            for at in 0..2 {
                let mut x = [0.0, 0.0];
                x[at] = bad;
                let z = [0.0, 0.0];
                let r = Residuals::compute(&p, &q, &a, &x, &z, &z, &mut ax, &mut px, &mut aty);
                assert!(!r.is_finite() && !r.converged(1e-3, 1e-3), "{r:?}");
            }
        }
    }
}
