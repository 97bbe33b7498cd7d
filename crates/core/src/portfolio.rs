//! Translation of the paper's MPO formulation (Eq. 3–10) into the
//! `spotweb-solver` QP standard form.
//!
//! Decision vector `x` stacks the per-interval fractional allocations:
//! `x[τ·N + i] = A[τ][i]`, the share of predicted traffic served by
//! market `i` in interval `t+τ+1`.
//!
//! * Provisioning cost (Eq. 3): `Σ_τ Σ_i A[τ][i]·λ̂(τ)·C_i(τ)·Δt`,
//!   with `C_i(τ) = price_i(τ)/r_i` the per-request cost and `Δt` the
//!   interval length in hours — a **linear** term.
//! * SLA-violation cost (Eq. 4): `P·Σ A[τ][i]·f_i(τ)·λ̂(τ)·L` — the
//!   component of Eq. 4 that depends on the allocation. (The
//!   misprediction component `λ − λ̂` does not depend on `A`; it is
//!   handled by the predictor's CI padding, §4.3.) Also linear.
//! * Risk (Eq. 5): `α·A(τ)ᵀMA(τ)` — quadratic, `M` PSD.
//! * Churn: `γ·‖A(τ) − A(τ−1)‖²` with `A(t−1)` the currently-running
//!   allocation — quadratic coupling between adjacent intervals.
//! * Constraints (Eq. 7–10): per-market boxes `0 ≤ A[τ][i] ≤ a_max` and
//!   per-interval budget `A_min ≤ Σ_i A[τ][i] ≤ A_max`.

use spotweb_linalg::{CsrMatrix, Matrix};
use spotweb_market::Catalog;
use spotweb_solver::{QpProblem, SparseQp};

use crate::config::SpotWebConfig;
use crate::forecast::ForecastBundle;
use crate::{CoreError, Result};

/// A built portfolio QP, expanded densely, plus the metadata to
/// interpret its solution — the form tests and benches inspect. The
/// optimizer itself never builds this: it hands [`build_sparse_qp`]'s
/// CSR problem straight to the solver.
#[derive(Debug, Clone)]
pub struct PortfolioProblem {
    /// The QP in standard form.
    pub qp: QpProblem,
    /// Market count `N`.
    pub markets: usize,
    /// Horizon `H`.
    pub horizon: usize,
}

impl PortfolioProblem {
    /// Build the QP. `covariance` is the `N×N` revocation covariance
    /// `M`; `prev_allocation` is the allocation currently running
    /// (length `N`, used by the churn term; pass zeros at cold start).
    pub fn build(
        catalog: &Catalog,
        forecast: &ForecastBundle,
        covariance: &Matrix,
        prev_allocation: &[f64],
        config: &SpotWebConfig,
    ) -> Result<PortfolioProblem> {
        let qp = build_sparse_qp(catalog, forecast, covariance, prev_allocation, config)?;
        Ok(PortfolioProblem {
            qp: qp.to_dense(),
            markets: catalog.len(),
            horizon: config.horizon,
        })
    }
}

/// Assemble the portfolio QP directly in CSR — `(N·H)²` zeros are
/// never written. Arguments as for [`PortfolioProblem::build`].
///
/// `P` is block-tridiagonal: the symmetrized risk block `2α·M` (plus
/// the churn diagonal) repeated on each interval's diagonal block, and
/// `−2γ·I` coupling adjacent intervals. `A` stacks the `N·H` box rows
/// (one entry each) over the `H` budget rows (`N` entries each). Exact
/// zeros are not stored, so the result equals the CSR of the dense
/// assembly entry for entry.
pub fn build_sparse_qp(
    catalog: &Catalog,
    forecast: &ForecastBundle,
    covariance: &Matrix,
    prev_allocation: &[f64],
    config: &SpotWebConfig,
) -> Result<SparseQp> {
    config.validate().map_err(CoreError::Dimension)?;
    let n = catalog.len();
    let h = config.horizon;
    if covariance.rows() != n || covariance.cols() != n {
        return Err(CoreError::Dimension("covariance must be N×N".into()));
    }
    // ---- Linear part q (validates the forecast and `prev_allocation`). ----
    let q = build_linear_cost(catalog, forecast, prev_allocation, config)?;
    let nv = n * h;

    // ---- Quadratic part P (in ½xᵀPx convention → factor 2). ----
    // One interval's diagonal block: the risk term 2α·M, made symmetric
    // ((P + Pᵀ)/2 off the diagonal) as every QP constructor would.
    // Churn γ Σ_τ ‖A(τ) − A(τ−1)‖² adds 2γ to the diagonal once for
    // the τ-th difference and once more for the (τ+1)-th when it
    // exists, and −2γ between A[τ][i] and A[τ+1][i].
    let mut risk = covariance.scaled(2.0 * config.alpha);
    risk.symmetrize_mut();
    let g = config.churn_gamma;
    let churn = g > 0.0;
    let mut p_indptr = Vec::with_capacity(nv + 1);
    let mut p_indices = Vec::with_capacity(nv * (n + 2));
    let mut p_data = Vec::with_capacity(nv * (n + 2));
    p_indptr.push(0);
    for tau in 0..h {
        let last = tau + 1 == h;
        for i in 0..n {
            let row = risk.row(i);
            let diag = match (churn, last) {
                (false, _) => row[i],
                (true, true) => row[i] + 2.0 * g,
                (true, false) => row[i] + 2.0 * g + 2.0 * g,
            };
            let mut push = |col: usize, v: f64| {
                if v != 0.0 {
                    p_indices.push(col);
                    p_data.push(v);
                }
            };
            if churn && tau > 0 {
                push((tau - 1) * n + i, -2.0 * g);
            }
            for (j, &v) in row.iter().enumerate() {
                push(tau * n + j, if j == i { diag } else { v });
            }
            if churn && !last {
                push((tau + 1) * n + i, -2.0 * g);
            }
            p_indptr.push(p_indices.len());
        }
    }
    let p = CsrMatrix::from_parts(nv, nv, p_indptr, p_indices, p_data)
        .expect("rows assembled with ascending columns");

    // ---- Constraints. ----
    // Rows: per-τ per-market boxes (N·H), then per-τ budgets (H).
    let m_rows = nv + h;
    let a_indptr = (0..=nv).chain((1..=h).map(|t| nv + t * n)).collect();
    let a_indices = (0..nv).chain(0..nv).collect();
    let a = CsrMatrix::from_parts(m_rows, nv, a_indptr, a_indices, vec![1.0; 2 * nv])
        .expect("one entry per box row, one interval per budget row");
    let mut l = vec![0.0; m_rows];
    let mut u = vec![config.a_max_per_market; m_rows];
    l[nv..].fill(config.a_min);
    u[nv..].fill(config.a_max_total);

    Ok(SparseQp::new(p, q, a, l, u)?)
}

/// Split a flat `N·H` solution vector into per-interval allocation
/// rows (`result[τ][i] = A[τ][i]`), clamping solver jitter below zero
/// into bounds. Free-standing so the optimizer (which never builds a
/// [`PortfolioProblem`]) can unpack too.
pub fn unpack_plan(x: &[f64], markets: usize, horizon: usize) -> Vec<Vec<f64>> {
    assert_eq!(x.len(), markets * horizon);
    (0..horizon)
        .map(|tau| {
            x[tau * markets..(tau + 1) * markets]
                .iter()
                .map(|v| v.max(0.0))
                .collect()
        })
        .collect()
}

/// Assemble the linear cost `q` alone: the fresh price, workload and
/// failure forecasts, and the churn cross-term with the currently
/// running allocation. Validates the forecast and `prev_allocation`.
fn build_linear_cost(
    catalog: &Catalog,
    forecast: &ForecastBundle,
    prev_allocation: &[f64],
    config: &SpotWebConfig,
) -> Result<Vec<f64>> {
    forecast.validate().map_err(CoreError::Dimension)?;
    let n = catalog.len();
    let h = config.horizon;
    if forecast.horizon() < h {
        return Err(CoreError::Dimension(format!(
            "forecast horizon {} < config horizon {h}",
            forecast.horizon()
        )));
    }
    if forecast.markets() != n {
        return Err(CoreError::Dimension(format!(
            "forecast markets {} != catalog {n}",
            forecast.markets()
        )));
    }
    if prev_allocation.len() != n {
        return Err(CoreError::Dimension(
            "prev_allocation must have one entry per market".into(),
        ));
    }

    let interval_hours = config.interval_secs / 3600.0;
    let mut q = vec![0.0; n * h];
    for tau in 0..h {
        let lam = forecast.workload[tau];
        for (i, market) in catalog.markets().iter().enumerate() {
            let r = market.capacity_rps();
            let per_request_cost = forecast.prices[tau][i] / r;
            let provisioning = lam * per_request_cost * interval_hours;
            let sla = config.penalty_per_request
                * forecast.failures[tau][i]
                * lam
                * config.long_running_fraction;
            q[tau * n + i] = provisioning + sla;
        }
    }
    // Churn cross-term with the fixed previous allocation:
    // γ(A(0) − A_prev)² contributes −2γ·A_prev to q(0).
    let g = config.churn_gamma;
    if g > 0.0 {
        for i in 0..n {
            q[i] -= 2.0 * g * prev_allocation[i];
        }
    }
    Ok(q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotweb_market::Catalog;

    fn setup() -> (Catalog, ForecastBundle, Matrix, SpotWebConfig) {
        let catalog = Catalog::fig5_three_markets();
        let forecast = ForecastBundle::flat(1000.0, &[6.0, 1.0, 1.0], &[0.04, 0.04, 0.04], 4);
        let m = Matrix::identity(3).scaled(1e-4);
        (catalog, forecast, m, SpotWebConfig::default())
    }

    /// The dense assembly `build_sparse_qp` replaced, kept as its
    /// oracle: `P` and `A` written into zeroed `(N·H)²` matrices and
    /// symmetrized by `QpProblem::new`.
    fn build_dense_reference(
        catalog: &Catalog,
        forecast: &ForecastBundle,
        covariance: &Matrix,
        prev_allocation: &[f64],
        config: &SpotWebConfig,
    ) -> QpProblem {
        let (n, h) = (catalog.len(), config.horizon);
        let nv = n * h;
        let mut p = Matrix::zeros(nv, nv);
        let risk_block = covariance.scaled(2.0 * config.alpha);
        for tau in 0..h {
            p.add_block(tau * n, tau * n, &risk_block);
        }
        let g = config.churn_gamma;
        if g > 0.0 {
            for tau in 0..h {
                for i in 0..n {
                    let d = tau * n + i;
                    p[(d, d)] += 2.0 * g;
                    if tau + 1 < h {
                        p[(d, d)] += 2.0 * g;
                        let e = (tau + 1) * n + i;
                        p[(d, e)] -= 2.0 * g;
                        p[(e, d)] -= 2.0 * g;
                    }
                }
            }
        }
        let q = build_linear_cost(catalog, forecast, prev_allocation, config).unwrap();
        let m_rows = nv + h;
        let mut a = Matrix::zeros(m_rows, nv);
        let mut l = vec![0.0; m_rows];
        let mut u = vec![0.0; m_rows];
        for tau in 0..h {
            for i in 0..n {
                let row = tau * n + i;
                a[(row, tau * n + i)] = 1.0;
                u[row] = config.a_max_per_market;
            }
            let row = nv + tau;
            for i in 0..n {
                a[(row, tau * n + i)] = 1.0;
            }
            l[row] = config.a_min;
            u[row] = config.a_max_total;
        }
        QpProblem::new(p, q, a, l, u).unwrap()
    }

    #[test]
    fn sparse_build_equals_the_csr_of_the_dense_reference() {
        for (n, h) in [(3usize, 1usize), (3, 4), (18, 4), (36, 10)] {
            for gamma in [0.0, 0.05] {
                let catalog = Catalog::ec2_subset(n);
                let prices: Vec<f64> = (0..n).map(|i| 0.2 + 0.03 * i as f64).collect();
                let fails: Vec<f64> = (0..n).map(|i| 0.02 + 0.01 * (i % 5) as f64).collect();
                let forecast = ForecastBundle::flat(4000.0, &prices, &fails, h);
                // Slightly asymmetric, with exact zeros off the
                // every-third-market correlation pattern.
                let mut cov = Matrix::identity(n).scaled(1e-3);
                for i in 0..n {
                    for j in 0..n {
                        if i != j && i % 3 == j % 3 {
                            cov[(i, j)] = 2e-4 + 1e-6 * (i as f64 - 0.5 * j as f64);
                        }
                    }
                }
                let prev: Vec<f64> = (0..n).map(|i| 0.1 * (i % 2) as f64).collect();
                let config = SpotWebConfig {
                    churn_gamma: gamma,
                    ..SpotWebConfig::default().with_horizon(h)
                };

                let dense = build_dense_reference(&catalog, &forecast, &cov, &prev, &config);
                let sparse = build_sparse_qp(&catalog, &forecast, &cov, &prev, &config).unwrap();
                let case = format!("N = {n}, H = {h}, γ = {gamma}");
                assert_eq!(
                    *sparse.p(),
                    CsrMatrix::from_dense(&dense.p, 0.0),
                    "P, {case}"
                );
                assert_eq!(
                    *sparse.a(),
                    CsrMatrix::from_dense(&dense.a, 0.0),
                    "A, {case}"
                );
                // …and the dense view handed to tests and benches is
                // the old dense build.
                let built = PortfolioProblem::build(&catalog, &forecast, &cov, &prev, &config);
                let built = built.unwrap().qp;
                assert_eq!((built.p, built.a), (dense.p, dense.a), "{case}");
                assert_eq!((built.q, built.l, built.u), (dense.q, dense.l, dense.u));
            }
        }
    }

    #[test]
    fn builds_expected_dimensions() {
        let (c, f, m, cfg) = setup();
        let p = PortfolioProblem::build(&c, &f, &m, &[0.0; 3], &cfg).unwrap();
        assert_eq!(p.qp.num_vars(), 12);
        assert_eq!(p.qp.num_constraints(), 12 + 4);
        assert_eq!(p.markets, 3);
        assert_eq!(p.horizon, 4);
    }

    #[test]
    fn linear_cost_matches_hand_computation() {
        let (c, f, m, mut cfg) = setup();
        cfg.churn_gamma = 0.0;
        let p = PortfolioProblem::build(&c, &f, &m, &[0.0; 3], &cfg).unwrap();
        // Market 0: price 6 $/h, r = 1920 → C = 0.003125 $/h per req/s;
        // λ = 1000, Δt = 1 h → q = 3.125. L = 0 → no SLA term.
        assert!((p.qp.q[0] - 1000.0 * 6.0 / 1920.0).abs() < 1e-12);
    }

    #[test]
    fn sla_term_enters_with_positive_l() {
        let (c, f, m, mut cfg) = setup();
        cfg.churn_gamma = 0.0;
        cfg.long_running_fraction = 0.5;
        let p = PortfolioProblem::build(&c, &f, &m, &[0.0; 3], &cfg).unwrap();
        let provisioning = 1000.0 * 6.0 / 1920.0;
        let sla = 0.02 * 0.04 * 1000.0 * 0.5;
        assert!((p.qp.q[0] - (provisioning + sla)).abs() < 1e-12);
    }

    #[test]
    fn churn_couples_adjacent_intervals() {
        let (c, f, m, cfg) = setup();
        let p = PortfolioProblem::build(&c, &f, &m, &[0.2, 0.0, 0.0], &cfg).unwrap();
        let g = cfg.churn_gamma;
        // Off-diagonal coupling between A[0][0] and A[1][0].
        assert!((p.qp.p[(0, 3)] + 2.0 * g).abs() < 1e-12);
        // Previous allocation shows up in q[0].
        let base = 1000.0 * 6.0 / 1920.0;
        assert!((p.qp.q[0] - (base - 2.0 * g * 0.2)).abs() < 1e-12);
    }

    #[test]
    fn budget_rows_bound_totals() {
        let (c, f, m, cfg) = setup();
        let p = PortfolioProblem::build(&c, &f, &m, &[0.0; 3], &cfg).unwrap();
        let row = 12; // first budget row
        assert_eq!(p.qp.l[row], cfg.a_min);
        assert_eq!(p.qp.u[row], cfg.a_max_total);
    }

    #[test]
    fn dimension_errors_detected() {
        let (c, f, m, cfg) = setup();
        assert!(PortfolioProblem::build(&c, &f, &m, &[0.0; 2], &cfg).is_err());
        let bad_m = Matrix::identity(2);
        assert!(PortfolioProblem::build(&c, &f, &bad_m, &[0.0; 3], &cfg).is_err());
        let short = ForecastBundle::flat(1.0, &[1.0, 1.0, 1.0], &[0.0; 3], 2);
        assert!(PortfolioProblem::build(&c, &short, &m, &[0.0; 3], &cfg).is_err());
    }

    #[test]
    fn nan_gamma_is_an_error_not_a_churn_free_qp() {
        // `g > 0.0` is false for NaN, so without the config check this
        // built (and solved) the problem with the churn term dropped.
        let (c, f, m, cfg) = setup();
        let cfg = SpotWebConfig {
            churn_gamma: f64::NAN,
            ..cfg
        };
        match build_sparse_qp(&c, &f, &m, &[0.0; 3], &cfg) {
            Err(CoreError::Dimension(msg)) => assert!(msg.contains("churn_gamma"), "{msg}"),
            other => panic!("NaN churn_gamma must be a CoreError, got {other:?}"),
        }
    }

    #[test]
    fn unpack_round_trips() {
        let (c, f, m, cfg) = setup();
        let p = PortfolioProblem::build(&c, &f, &m, &[0.0; 3], &cfg).unwrap();
        let x: Vec<f64> = (0..12).map(|i| i as f64 / 12.0).collect();
        let rows = unpack_plan(&x, p.markets, p.horizon);
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[1][0], 3.0 / 12.0);
    }
}
