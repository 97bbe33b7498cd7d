//! Convergence criteria for the ADMM iteration.

use spotweb_linalg::vector::norm_inf;
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
    /// Scratch buffers (`ax`, `px`, `aty`) must be sized `m`, `n`, `n`;
    /// they are overwritten.
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
        p.matvec_into(x, px).expect("residual: P·x shape");
        a.matvec_transpose_into(y, aty)
            .expect("residual: Aᵀ·y shape");
        Self::reduce(q, z, ax, px, aty)
    }

    fn reduce(q: &[f64], z: &[f64], ax: &[f64], px: &[f64], aty: &[f64]) -> Residuals {
        let mut primal: f64 = 0.0;
        for (axi, zi) in ax.iter().zip(z) {
            primal = primal.max((axi - zi).abs());
        }
        let mut dual: f64 = 0.0;
        for ((pxi, qi), atyi) in px.iter().zip(q).zip(aty.iter()) {
            dual = dual.max((pxi + qi + atyi).abs());
        }
        Residuals {
            primal,
            dual,
            primal_scale: norm_inf(ax).max(norm_inf(z)),
            dual_scale: norm_inf(px).max(norm_inf(aty)).max(norm_inf(q)),
        }
    }

    /// OSQP-style stopping test.
    pub fn converged(&self, eps_abs: f64, eps_rel: f64) -> bool {
        let eps_pri = eps_abs + eps_rel * self.primal_scale;
        let eps_dua = eps_abs + eps_rel * self.dual_scale;
        self.primal <= eps_pri && self.dual <= eps_dua
    }

    /// Ratio used by adaptive-ρ: relative primal over relative dual
    /// residual, guarded against division by zero.
    pub fn rho_ratio(&self) -> f64 {
        let rp = self.primal / self.primal_scale.max(1e-10);
        let rd = self.dual / self.dual_scale.max(1e-10);
        (rp / rd.max(1e-10)).sqrt()
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
    fn rho_ratio_is_finite() {
        let r = Residuals {
            primal: 1.0,
            dual: 0.0,
            primal_scale: 1.0,
            dual_scale: 1.0,
        };
        assert!(r.rho_ratio().is_finite());
    }
}
