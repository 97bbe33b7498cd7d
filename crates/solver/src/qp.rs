//! QP problem, settings and solution types.

use spotweb_linalg::{CsrMatrix, Matrix};

use crate::{Result, SolverError};

/// A convex quadratic program in OSQP standard form:
///
/// ```text
/// minimize   ½ xᵀPx + qᵀx
/// subject to l ≤ Ax ≤ u
/// ```
///
/// `P` must be symmetric positive semidefinite (it is symmetrized on
/// construction; PSD-ness is enforced indirectly via the σ-regularized
/// KKT factorization). Equality constraints are encoded by `l[i] == u[i]`;
/// one-sided constraints use `f64::INFINITY` / `f64::NEG_INFINITY`.
///
/// This dense form is an *input adapter*: the solver converts it to a
/// [`SparseQp`] once, at set-up, and works on that. Callers that can
/// assemble `P` and `A` sparsely should build a [`SparseQp`] directly
/// and skip the `n²` storage.
///
/// ```
/// use spotweb_linalg::Matrix;
/// use spotweb_solver::{AdmmSolver, QpProblem, Settings};
///
/// // min (x − 2)²  subject to 0 ≤ x ≤ 1  →  x = 1.
/// let qp = QpProblem::new(
///     Matrix::from_diag(&[2.0]),
///     vec![-4.0],
///     Matrix::identity(1),
///     vec![0.0],
///     vec![1.0],
/// ).unwrap();
/// let sol = AdmmSolver::new(qp, Settings::default()).unwrap().solve();
/// assert!(sol.is_solved());
/// assert!((sol.x[0] - 1.0).abs() < 1e-4);
/// ```
#[derive(Debug, Clone)]
pub struct QpProblem {
    /// Quadratic cost matrix, `n × n`, symmetric PSD.
    pub p: Matrix,
    /// Linear cost vector, length `n`.
    pub q: Vec<f64>,
    /// Constraint matrix, `m × n`.
    pub a: Matrix,
    /// Lower bounds, length `m`.
    pub l: Vec<f64>,
    /// Upper bounds, length `m`.
    pub u: Vec<f64>,
}

impl QpProblem {
    /// Build and validate a problem.
    pub fn new(p: Matrix, q: Vec<f64>, a: Matrix, l: Vec<f64>, u: Vec<f64>) -> Result<Self> {
        let (p_shape, a_shape) = ((p.rows(), p.cols()), (a.rows(), a.cols()));
        validate_shapes(p_shape, q.len(), a_shape, l.len(), u.len())?;
        let mut p = p;
        p.symmetrize_mut();
        validate_values(p.as_slice(), &q, a.as_slice(), &l, &u)?;
        Ok(QpProblem { p, q, a, l, u })
    }

    /// Number of decision variables.
    pub fn num_vars(&self) -> usize {
        self.q.len()
    }

    /// Number of constraint rows.
    pub fn num_constraints(&self) -> usize {
        self.l.len()
    }

    /// Objective value `½ xᵀPx + qᵀx` at a point.
    pub fn objective(&self, x: &[f64]) -> f64 {
        0.5 * self.p.quadratic_form(x).expect("dimension checked")
            + spotweb_linalg::vector::dot(&self.q, x)
    }

    /// Worst constraint violation `max(l − Ax, Ax − u, 0)` at a point.
    pub fn max_violation(&self, x: &[f64]) -> f64 {
        let ax = self.a.matvec(x).expect("dimension checked");
        let mut v: f64 = 0.0;
        for ((axi, &lo), &hi) in ax.iter().zip(&self.l).zip(&self.u) {
            v = v.max(lo - axi).max(axi - hi);
        }
        v
    }
}

/// What both constructors check before symmetrizing `P`: consistent
/// dimensions.
fn validate_shapes(
    p_shape: (usize, usize),
    n: usize,
    a_shape: (usize, usize),
    m: usize,
    u_len: usize,
) -> Result<()> {
    if p_shape != (n, n) {
        return Err(SolverError::Dimension("P must be n×n matching q"));
    }
    if a_shape.1 != n {
        return Err(SolverError::Dimension("A must have n columns"));
    }
    if a_shape.0 != m || u_len != m {
        return Err(SolverError::Dimension("A, l, u must agree on m"));
    }
    Ok(())
}

/// …and after, so that a mirrored pair whose sum overflows is caught
/// with the entries that were non-finite to begin with (either leaves
/// a non-finite entry in the symmetrized `P`): no non-finite entry in
/// `P`, `q` or `A`; no NaN bound (±∞ means "one-sided" and is fine) and
/// no bound pair with `l > u`.
fn validate_values(p: &[f64], q: &[f64], a: &[f64], l: &[f64], u: &[f64]) -> Result<()> {
    for (what, values) in [("P", p), ("q", q), ("A", a)] {
        if !values.iter().all(|v| v.is_finite()) {
            return Err(SolverError::NonFinite { what });
        }
    }
    for (i, (&lo, &hi)) in l.iter().zip(u).enumerate() {
        if lo > hi {
            return Err(SolverError::InfeasibleBounds { row: i });
        }
        if lo.is_nan() || hi.is_nan() {
            return Err(SolverError::NonFinite { what: "bounds" });
        }
    }
    Ok(())
}

/// The same QP as [`QpProblem`] with `P` and `A` in compressed sparse
/// row form — the solver's one internal representation. SpotWeb's
/// portfolio QP has ≤ 2 nonzeros per column of `A` and a
/// block-tridiagonal `P`; carried this way, set-up is `O(nnz)` plus the
/// factorization instead of several passes over `(N·H)²` zeros.
///
/// Fields are private so that a `SparseQp` always holds a validated
/// problem: consistent dimensions, finite data, ordered non-NaN
/// bounds, and a `P` stored symmetric (both triangles).
///
/// ```
/// use spotweb_linalg::{CsrMatrix, Matrix};
/// use spotweb_solver::{AdmmSolver, Settings, SparseQp};
///
/// // min (x − 2)²  subject to 0 ≤ x ≤ 1  →  x = 1.
/// let qp = SparseQp::new(
///     CsrMatrix::from_dense(&Matrix::from_diag(&[2.0]), 0.0),
///     vec![-4.0],
///     CsrMatrix::from_dense(&Matrix::identity(1), 0.0),
///     vec![0.0],
///     vec![1.0],
/// ).unwrap();
/// let sol = AdmmSolver::new(qp, Settings::default()).unwrap().solve();
/// assert!(sol.is_solved());
/// assert!((sol.x[0] - 1.0).abs() < 1e-4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SparseQp {
    pub(crate) p: CsrMatrix,
    pub(crate) q: Vec<f64>,
    pub(crate) a: CsrMatrix,
    pub(crate) l: Vec<f64>,
    pub(crate) u: Vec<f64>,
}

impl SparseQp {
    /// Build and validate a problem. Like [`QpProblem::new`], `P` is
    /// symmetrized (`(P + Pᵀ)/2`, the same arithmetic entry for entry),
    /// so a matrix that is already symmetric is kept bit for bit.
    pub fn new(p: CsrMatrix, q: Vec<f64>, a: CsrMatrix, l: Vec<f64>, u: Vec<f64>) -> Result<Self> {
        let (p_shape, a_shape) = ((p.rows(), p.cols()), (a.rows(), a.cols()));
        validate_shapes(p_shape, q.len(), a_shape, l.len(), u.len())?;
        let p = p.symmetrized().expect("P checked square");
        validate_values(p.values(), &q, a.values(), &l, &u)?;
        Ok(SparseQp { p, q, a, l, u })
    }

    /// Quadratic cost matrix, `n × n`, stored symmetric.
    pub fn p(&self) -> &CsrMatrix {
        &self.p
    }

    /// Constraint matrix, `m × n`.
    pub fn a(&self) -> &CsrMatrix {
        &self.a
    }

    /// Number of decision variables.
    pub fn num_vars(&self) -> usize {
        self.q.len()
    }

    /// Number of constraint rows.
    pub fn num_constraints(&self) -> usize {
        self.l.len()
    }

    /// The same problem with `P` and `A` expanded densely.
    pub fn to_dense(&self) -> QpProblem {
        QpProblem {
            p: self.p.to_dense(),
            q: self.q.clone(),
            a: self.a.to_dense(),
            l: self.l.clone(),
            u: self.u.clone(),
        }
    }
}

/// The dense adapter: drop the exact zeros of `P` and `A` and validate
/// again (a [`QpProblem`]'s fields are public, so it may have been
/// edited since [`QpProblem::new`] checked it).
impl TryFrom<QpProblem> for SparseQp {
    type Error = SolverError;

    fn try_from(dense: QpProblem) -> Result<Self> {
        SparseQp::new(
            CsrMatrix::from_dense(&dense.p, 0.0),
            dense.q,
            CsrMatrix::from_dense(&dense.a, 0.0),
            dense.l,
            dense.u,
        )
    }
}

/// The solver's tuning. It carries nothing: the knobs are constants
/// beside the ADMM iteration that reads them, close to OSQP's defaults,
/// and every SpotWeb portfolio instance solves with them. The type
/// stays because [`crate::AdmmSolver`]'s constructors take it; build it
/// with `Settings::default()`.
#[derive(Debug, Clone, Copy, Default)]
#[non_exhaustive]
pub struct Settings;

/// Why the solver stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QpStatus {
    /// The reported point passes the full-tolerance residual test —
    /// reached by the ADMM iteration itself or by polishing its
    /// iterate ([`QpSolution::polished`]).
    Solved,
    /// Hit `max_iter` before converging (the iterate is still usable,
    /// check the reported residuals).
    MaxIterations,
    /// The iterate picked up a NaN or an infinity (overflow, or a
    /// non-finite warm start) and the iteration stopped at the first
    /// residual check that saw it. `x`, `y` and `z` are not usable.
    NonFinite,
    /// The KKT matrix, left stale by [`crate::AdmmSolver::rebind`], did
    /// not factor (a `P` that is not positive semidefinite) and no
    /// iteration ran. `x` and `y` are the warm start (zero when cold).
    Unfactorable,
}

/// The result of a solve.
#[derive(Debug, Clone)]
pub struct QpSolution {
    /// Primal solution.
    pub x: Vec<f64>,
    /// Dual solution (Lagrange multipliers of `l ≤ Ax ≤ u`).
    pub y: Vec<f64>,
    /// Final slack `z ≈ Ax`, projected into `[l, u]`.
    pub z: Vec<f64>,
    /// Termination status.
    pub status: QpStatus,
    /// ADMM iterations performed; a polish is not one of them.
    pub iterations: usize,
    /// Whether the reported point is the polished one: the equality
    /// KKT system of the active set the ADMM iterate identified, solved
    /// directly, which made `x` and `y` exact to round-off.
    pub polished: bool,
    /// Reduced KKT systems the polishes of this solve factored and
    /// solved, accepted or not: the work `iterations` does not count.
    pub polish_solves: usize,
    /// Factorizations of the ADMM KKT matrix this solve made: at most
    /// one, of the factor an [`crate::AdmmSolver::rebind`] left stale.
    pub factorizations: usize,
    /// Objective value at `x`.
    pub objective: f64,
    /// Primal residual `‖Ax − z‖∞` at the last termination check, in
    /// the Ruiz-scaled problem the iteration runs on — what the
    /// stopping test judged. [`QpSolution::certificate`] has it in the
    /// original problem's units.
    pub primal_residual: f64,
    /// Dual residual `‖Px + q + Aᵀy‖∞` at the last termination check,
    /// scaled like [`QpSolution::primal_residual`].
    pub dual_residual: f64,
    pub(crate) certificate: Certificate,
}

impl QpSolution {
    /// `true` when the solver reports full convergence.
    pub fn is_solved(&self) -> bool {
        self.status == QpStatus::Solved
    }

    /// How far the reported `(x, y, z)` is from optimal, measured on
    /// the original, unscaled problem.
    pub fn certificate(&self) -> Certificate {
        self.certificate
    }
}

/// Optimality measures of a reported solution, on the original
/// (unscaled) problem; see [`QpSolution::certificate`]. A NaN anywhere
/// in the solution reads as a NaN here.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Certificate {
    /// Primal residual `‖Ax − z‖∞`: with the reported `z` (`Ax`
    /// projected into `[l, u]`), the worst constraint violation.
    pub primal_residual: f64,
    /// Dual residual `‖Px + q + Aᵀy‖∞`.
    pub dual_residual: f64,
    /// Duality gap `|xᵀPx + qᵀx + Σᵢ sᵢ(yᵢ)|`, the primal objective
    /// `½xᵀPx + qᵀx` less the dual one `−½xᵀPx − Σᵢ sᵢ(yᵢ)`, where
    /// `sᵢ(yᵢ) = uᵢ·yᵢ` for `yᵢ > 0` and `lᵢ·yᵢ` for `yᵢ < 0` is the
    /// support function of `[lᵢ, uᵢ]` — taken as 0 where that bound is
    /// infinite: a multiplier on an unbounded side is round-off.
    pub duality_gap: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> QpProblem {
        QpProblem::new(
            Matrix::identity(2),
            vec![0.0, 0.0],
            Matrix::identity(2),
            vec![0.0, 0.0],
            vec![1.0, 1.0],
        )
        .unwrap()
    }

    #[test]
    fn dimensions_validated() {
        let bad = QpProblem::new(
            Matrix::identity(2),
            vec![0.0; 3],
            Matrix::identity(2),
            vec![0.0; 2],
            vec![1.0; 2],
        );
        assert!(matches!(bad, Err(SolverError::Dimension(_))));
    }

    #[test]
    fn crossing_bounds_rejected() {
        let bad = QpProblem::new(
            Matrix::identity(1),
            vec![0.0],
            Matrix::identity(1),
            vec![2.0],
            vec![1.0],
        );
        assert!(matches!(bad, Err(SolverError::InfeasibleBounds { row: 0 })));
    }

    #[test]
    fn objective_and_violation() {
        let p = tiny();
        assert_eq!(p.objective(&[1.0, 1.0]), 1.0);
        assert_eq!(p.max_violation(&[0.5, 0.5]), 0.0);
        assert_eq!(p.max_violation(&[2.0, 0.5]), 1.0);
        assert_eq!(p.max_violation(&[-0.25, 0.5]), 0.25);
    }

    #[test]
    fn p_is_symmetrized() {
        let p = Matrix::from_rows(&[&[1.0, 2.0], &[0.0, 1.0]]);
        let prob = QpProblem::new(
            p,
            vec![0.0; 2],
            Matrix::identity(2),
            vec![0.0; 2],
            vec![1.0; 2],
        )
        .unwrap();
        assert_eq!(prob.p[(0, 1)], 1.0);
        assert_eq!(prob.p[(1, 0)], 1.0);
    }

    #[test]
    fn non_finite_data_rejected_by_both_constructors() {
        let (nan, inf) = (f64::NAN, f64::INFINITY);
        // (what, P[0][1], P[1][0], q[0], A[1][0], l[0], u[1])
        let table = [
            ("P", nan, 0.0, 0.0, 0.0, 0.0, 1.0),
            ("P", inf, 0.0, 0.0, 0.0, 0.0, 1.0),
            // Finite, symmetric to the bit, and ∞ once averaged.
            ("P", 1.2e308, 1.2e308, 0.0, 0.0, 0.0, 1.0),
            ("q", 0.0, 0.0, nan, 0.0, 0.0, 1.0),
            ("q", 0.0, 0.0, -inf, 0.0, 0.0, 1.0),
            ("A", 0.0, 0.0, 0.0, nan, 0.0, 1.0),
            ("A", 0.0, 0.0, 0.0, inf, 0.0, 1.0),
            ("bounds", 0.0, 0.0, 0.0, 0.0, nan, 1.0),
            ("bounds", 0.0, 0.0, 0.0, 0.0, 0.0, nan),
        ];
        for (what, p01, p10, q0, a10, l0, u1) in table {
            let mut p = Matrix::identity(2);
            p[(0, 1)] = p01;
            p[(1, 0)] = p10;
            let mut a = Matrix::identity(2);
            a[(1, 0)] = a10;
            let (q, l, u) = (vec![q0, 0.0], vec![l0, 0.0], vec![1.0, u1]);
            let want = Err(SolverError::NonFinite { what });
            let dense = QpProblem::new(p.clone(), q.clone(), a.clone(), l.clone(), u.clone());
            assert_eq!(dense.map(|_| ()), want, "dense, bad {what}");
            let (p, a) = (
                CsrMatrix::from_dense(&p, 0.0),
                CsrMatrix::from_dense(&a, 0.0),
            );
            let sparse = SparseQp::new(p, q, a, l, u);
            assert_eq!(sparse.map(|_| ()), want, "sparse, bad {what}");
        }
        // Infinite bounds mean one-sided rows and stay legal.
        let open = SparseQp::new(
            CsrMatrix::from_dense(&Matrix::identity(1), 0.0),
            vec![0.0],
            CsrMatrix::from_dense(&Matrix::identity(1), 0.0),
            vec![-inf],
            vec![inf],
        );
        assert!(open.is_ok());
    }

    #[test]
    fn dense_adapter_revalidates_and_round_trips() {
        let dense = tiny();
        let sparse = SparseQp::try_from(dense.clone()).unwrap();
        assert_eq!((sparse.num_vars(), sparse.num_constraints()), (2, 2));
        assert_eq!(sparse.p().nnz(), 2);
        let back = sparse.to_dense();
        assert_eq!((back.p, back.a), (dense.p.clone(), dense.a.clone()));
        // Fields are public: a NaN written after `new` is still caught.
        let mut edited = dense;
        edited.a[(0, 1)] = f64::NAN;
        assert_eq!(
            SparseQp::try_from(edited).map(|_| ()),
            Err(SolverError::NonFinite { what: "A" })
        );
    }

    #[test]
    fn sparse_p_is_symmetrized_like_dense() {
        let p = Matrix::from_rows(&[&[1.0, 2.0], &[0.0, 1.0]]);
        let sparse = SparseQp::new(
            CsrMatrix::from_dense(&p, 0.0),
            vec![0.0; 2],
            CsrMatrix::from_dense(&Matrix::identity(2), 0.0),
            vec![0.0; 2],
            vec![1.0; 2],
        )
        .unwrap();
        let dense = QpProblem::new(
            p,
            vec![0.0; 2],
            Matrix::identity(2),
            vec![0.0; 2],
            vec![1.0; 2],
        )
        .unwrap();
        assert_eq!(sparse.p().to_dense(), dense.p);
    }
}
