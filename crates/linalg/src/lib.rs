//! Linear algebra substrate for SpotWeb.
//!
//! SpotWeb's multi-period portfolio optimizer is a convex quadratic
//! program, and its workload predictor is a cubic-spline regression —
//! both reduce to small dense factorizations plus, for the QP, sparse
//! problem data. This crate implements exactly the kernels those
//! consumers need, from scratch:
//!
//! * [`Matrix`] — a row-major dense matrix with the usual arithmetic,
//!   products, transposes and Gram matrices.
//! * [`cholesky`] — Cholesky factorization for symmetric positive
//!   definite systems (the ADMM solver's cached factorization).
//! * [`block_tridiag`] — block-tridiagonal Cholesky for the
//!   multi-period KKT structure (`O(H·N³)` instead of `O((HN)³)`).
//! * [`qr`] — Householder QR, the numerically robust path for
//!   least-squares spline fitting.
//! * [`mod@lstsq`] — linear least squares built on QR.
//! * [`sparse`] — CSR matrices: the QP's `P` and `A` from assembly
//!   through equilibration to the per-iteration products.
//! * [`vector`] — free functions on `&[f64]` (dot, norms, axpy…).
//!
//! Everything is `f64`, deterministic, and allocation-conscious: the
//! factorizations expose in-place `solve_into` entry points so hot
//! loops (ADMM iterations) can reuse buffers.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used)]
#![allow(
    clippy::needless_range_loop,
    reason = "numeric kernels use explicit index loops throughout: the dual-array access patterns (L[(i,k)]·x[k], row/col scalings) read far clearer with indices than with zipped iterator chains"
)]
#![warn(missing_docs)]

pub mod block_tridiag;
pub mod cholesky;
pub mod lstsq;
pub mod matrix;
pub mod qr;
pub mod sparse;
pub mod vector;

pub use block_tridiag::BlockTridiagCholesky;
pub use cholesky::Cholesky;
pub use lstsq::lstsq;
pub use matrix::Matrix;
pub use qr::Qr;
pub use sparse::CsrMatrix;

/// Errors reported by factorizations and solvers in this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// Matrix dimensions do not conform for the requested operation.
    DimensionMismatch {
        /// Human-readable description of the conflicting shapes.
        context: &'static str,
    },
    /// The matrix is not positive definite (Cholesky pivot ≤ 0).
    NotPositiveDefinite {
        /// Index of the failing pivot.
        pivot: usize,
    },
    /// A pivot underflowed to (numerical) zero and the system is singular.
    Singular {
        /// Index of the failing pivot.
        pivot: usize,
    },
}

impl core::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            LinalgError::DimensionMismatch { context } => {
                write!(f, "dimension mismatch: {context}")
            }
            LinalgError::NotPositiveDefinite { pivot } => {
                write!(f, "matrix not positive definite at pivot {pivot}")
            }
            LinalgError::Singular { pivot } => write!(f, "singular matrix at pivot {pivot}"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// Convenience result alias used throughout the crate.
pub type Result<T> = core::result::Result<T, LinalgError>;
