//! Convex quadratic-program solver for SpotWeb.
//!
//! The paper solves its multi-period portfolio optimization with
//! CVXPY + the SCS conic solver. The MPO instance is a convex QP —
//! linear cost terms, a quadratic risk term `α·AᵀMA`, and box/budget
//! constraints — so this crate implements a first-order operator-
//! splitting QP solver in the style of
//! [OSQP](https://osqp.org) (Stellato et al., 2020):
//!
//! ```text
//! minimize   ½ xᵀPx + qᵀx
//! subject to l ≤ Ax ≤ u
//! ```
//!
//! with `P ⪰ 0`. The ADMM iteration factors `P + σI + ρAᵀA` **once**
//! (Cholesky from `spotweb-linalg`, blockwise when the problem is
//! multi-period) at a fixed penalty ρ and reuses the factorization
//! every iteration; a re-bind that moves `P` leaves it stale, and the
//! next solve that has to iterate factors it again. Ruiz equilibration
//! preconditions badly scaled problems (per-request costs span orders
//! of magnitude across markets).
//! At every termination check the solver *polishes* (OSQP §5.2): it
//! solves the equality KKT system of the active set the iterate
//! identifies, directly, and keeps that exact point when it is
//! feasible and certifies no worse ([`QpSolution::polished`]).
//!
//! `P` and `A` are carried in CSR from set-up to the final report
//! ([`SparseQp`]); the dense [`QpProblem`] is an input adapter that is
//! converted once.
//!
//! Two entry points:
//! * [`admm::AdmmSolver`] — the general path used by the MPO optimizer.
//! * [`pgd::BoxBudget`] — the exact projection onto a box plus one
//!   budget row and a fixed-step projected gradient over it: the zoo's
//!   ExoSphere solver, and the independent oracle the ADMM proptests and
//!   the `H = 1` optimizer check compare against.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used)]
#![allow(
    clippy::needless_range_loop,
    reason = "numeric kernels use explicit index loops throughout: the dual-array access patterns (L[(i,k)]·x[k], row/col scalings) read far clearer with indices than with zipped iterator chains"
)]
#![deny(missing_docs)]

pub mod admm;
pub mod pgd;
pub mod qp;
pub mod scaling;
pub mod termination;

pub use admm::{AdmmSolver, Update};
pub use qp::{Certificate, QpProblem, QpSolution, QpStatus, Settings, SparseQp};

/// Errors reported when constructing or solving a QP.
#[derive(Debug, Clone, PartialEq)]
pub enum SolverError {
    /// Problem dimensions are inconsistent.
    Dimension(&'static str),
    /// A bound pair has `l > u`.
    InfeasibleBounds {
        /// Constraint row with crossing bounds.
        row: usize,
    },
    /// The KKT system could not be factored (P not PSD after
    /// regularization, or numerical breakdown).
    Factorization(String),
    /// The problem data holds a NaN or an infinity where a number is
    /// needed (bounds may be ±∞, never NaN).
    NonFinite {
        /// Which part of the problem: `"P"`, `"q"`, `"A"`, `"bounds"`,
        /// or the `"point"` a [`pgd::BoxBudget`] projects.
        what: &'static str,
    },
    /// A [`pgd::BoxBudget`]'s budget interval misses every sum its box
    /// can reach.
    UnreachableBudget,
    /// A parameter holds a value the iteration cannot run with (the
    /// step of [`pgd::BoxBudget::descend`]).
    InvalidSetting {
        /// The field, by name.
        field: &'static str,
        /// What it has to satisfy.
        must_be: &'static str,
    },
}

impl core::fmt::Display for SolverError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SolverError::Dimension(c) => write!(f, "dimension error: {c}"),
            SolverError::InfeasibleBounds { row } => {
                write!(f, "infeasible bounds at constraint row {row} (l > u)")
            }
            SolverError::Factorization(msg) => write!(f, "factorization failed: {msg}"),
            SolverError::NonFinite { what } => write!(f, "non-finite value in {what}"),
            SolverError::UnreachableBudget => write!(f, "no point of the box meets the budget"),
            SolverError::InvalidSetting { field, must_be } => {
                write!(f, "invalid setting: {field} must be {must_be}")
            }
        }
    }
}

impl std::error::Error for SolverError {}

/// Lets the solver's constructors take `impl TryInto<SparseQp>`: a
/// [`SparseQp`] converts to itself infallibly, a [`QpProblem`] fallibly.
impl From<core::convert::Infallible> for SolverError {
    fn from(never: core::convert::Infallible) -> Self {
        match never {}
    }
}

/// Convenience result alias.
pub type Result<T> = core::result::Result<T, SolverError>;
