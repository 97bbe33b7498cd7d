//! SpotWeb core: SLO-aware multi-period portfolio optimization for
//! transient cloud servers (paper §4).
//!
//! Given a market catalog, forecasts of workload / prices / revocation
//! probabilities over a look-ahead horizon `H`, and a revocation
//! covariance matrix `M`, the optimizer chooses fractional traffic
//! allocations `A[τ][i]` (the share of requests served by market `i` in
//! interval `τ`) minimizing
//!
//! ```text
//! Σ_τ  provisioning(τ) + SLA-violation(τ) + α·A(τ)ᵀMA(τ) + γ‖A(τ)−A(τ−1)‖²
//! ```
//!
//! subject to `0 ≤ A[τ][i] ≤ a_max` and `A_min ≤ Σ_i A[τ][i] ≤ A_max`
//! (Eq. 3–10). Only the first interval's allocation is executed —
//! receding horizon — and it converts to integer server counts.
//!
//! Modules:
//! * [`config`] — all paper parameters (`α`, `P`, `L`, bounds, `H`, `γ`).
//! * [`forecast`] — the forecast bundle the optimizer consumes and
//!   builders that poll `spotweb-predict` predictors.
//! * [`portfolio`] — translation of the paper's formulation into the
//!   `spotweb-solver` QP standard form.
//! * [`mpo`] — the multi-period optimizer (warm-started, receding
//!   horizon); at `H = 1` without churn it is the ExoSphere baseline.
//! * [`allocation`] — fractional allocation → integer server counts.
//! * [`policy`] — pluggable provisioning policies: SpotWeb, ExoSphere-
//!   in-a-loop, constant portfolio + autoscaler, on-demand only.
//! * [`evaluate`] — the coarse-grained (interval-level) cost evaluation
//!   harness behind Figs. 5–7.
//! * [`risk`] — the Herfindahl concentration diagnostic.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used)]
#![deny(missing_docs)]

pub mod allocation;
pub mod config;
pub mod evaluate;
pub mod forecast;
pub mod mpo;
pub mod policy;
pub mod portfolio;
pub mod risk;

pub use allocation::{to_server_counts, total_capacity_rps};
pub use config::SpotWebConfig;
pub use evaluate::{simulate_costs, CostReport};
pub use forecast::ForecastBundle;
pub use mpo::{MpoOptimizer, PortfolioDecision};
pub use policy::exosphere::ExoSphereMarkowitzPolicy;
pub use policy::factory::{build_policy, normalize_policy_name, ZOO_POLICIES};
pub use policy::het_spot_groups::HetSpotGroupsPolicy;
pub use policy::index_tracking::IndexTrackingPolicy;
pub use policy::{
    ConstantPortfolioPolicy, ExoSpherePolicy, OnDemandPolicy, Policy, PolicyObservation,
    SpotWebPolicy,
};

/// Errors surfaced by the optimizer layer.
#[derive(Debug)]
pub enum CoreError {
    /// Mismatched input dimensions (markets vs forecasts vs covariance).
    Dimension(String),
    /// The underlying QP solver failed to set up.
    Solver(spotweb_solver::SolverError),
}

impl core::fmt::Display for CoreError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CoreError::Dimension(msg) => write!(f, "dimension error: {msg}"),
            CoreError::Solver(e) => write!(f, "solver error: {e}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<spotweb_solver::SolverError> for CoreError {
    fn from(e: spotweb_solver::SolverError) -> Self {
        CoreError::Solver(e)
    }
}

/// Convenience result alias.
pub type Result<T> = core::result::Result<T, CoreError>;
