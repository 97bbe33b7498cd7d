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
//! * SLA-violation cost (Eq. 4): `P·Σ A[τ][i]·f_i(τ)·λ̂(τ)·L`, the
//!   component of Eq. 4 that depends on the allocation, is identically
//!   zero at the paper's `L = 0` (sub-second web requests all finish
//!   inside the revocation warning), so no term is built. Capacity
//!   shortfall is the `A_min` budget row below; the misprediction
//!   component `λ − λ̂` does not depend on `A` and is handled by the
//!   predictor's CI padding (§4.3).
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

/// Minimum total fractional allocation `A_min` (Eq. 8): cover the full
/// predicted workload.
pub(crate) const A_MIN: f64 = 1.0;
/// Maximum total fractional allocation `A_max` (Eq. 9): caps
/// over-provisioning.
pub(crate) const A_MAX_TOTAL: f64 = 1.6;

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
    let (mut p, mut q) = (PValues::default(), Vec::new());
    stage(
        &mut p,
        &mut q,
        catalog,
        forecast,
        covariance,
        prev_allocation,
        config,
    )?;
    assemble(&p, q, config)
}

/// Validate one decision's inputs as [`build_sparse_qp`] does and
/// write its values, in the storage of the last decision's: `P`'s into
/// `p`, the linear cost into `q`. Non-finite values are left for
/// [`assemble`] to reject.
pub(crate) fn stage(
    p: &mut PValues,
    q: &mut Vec<f64>,
    catalog: &Catalog,
    forecast: &ForecastBundle,
    covariance: &Matrix,
    prev_allocation: &[f64],
    config: &SpotWebConfig,
) -> Result<()> {
    config.validate().map_err(CoreError::Dimension)?;
    let n = catalog.len();
    if covariance.rows() != n || covariance.cols() != n {
        return Err(CoreError::Dimension("covariance must be N×N".into()));
    }
    // Validates the forecast and `prev_allocation`.
    write_linear_cost(q, catalog, forecast, prev_allocation, config)?;
    p.assign(covariance, config);
    Ok(())
}

/// The QP around staged values: `P` stores the nonzeros of the rows
/// [`PValues::write_row`] writes, and the constraints are the boxes and
/// budgets of `config`.
pub(crate) fn assemble(p: &PValues, q: Vec<f64>, config: &SpotWebConfig) -> Result<SparseQp> {
    let n = p.risk.rows();
    let h = config.horizon;
    let nv = n * h;
    let mut p_indptr = Vec::with_capacity(nv + 1);
    let mut p_indices = Vec::with_capacity(nv * (n + 2));
    let mut p_data = Vec::with_capacity(nv * (n + 2));
    p_indptr.push(0);
    let (mut cols, mut vals) = (Vec::with_capacity(n + 2), Vec::with_capacity(n + 2));
    for r in 0..nv {
        // Every column the row may hold: the previous interval's churn
        // coupling, the interval's own block, the next one's coupling.
        let (tau, i) = (r / n, r % n);
        let (left, right) = p.couplings(tau);
        cols.clear();
        cols.extend(left.then(|| (tau - 1) * n + i));
        cols.extend(tau * n..(tau + 1) * n);
        cols.extend(right.then(|| (tau + 1) * n + i));
        vals.clear();
        vals.resize(cols.len(), 0.0);
        p.write_row(r, &cols, &mut vals);
        for (&col, &v) in cols.iter().zip(&vals) {
            if v != 0.0 {
                p_indices.push(col);
                p_data.push(v);
            }
        }
        p_indptr.push(p_indices.len());
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
    l[nv..].fill(A_MIN);
    u[nv..].fill(A_MAX_TOTAL);

    Ok(SparseQp::new(p, q, a, l, u)?)
}

/// The values of the quadratic part `P` (in ½xᵀPx convention, hence the
/// factor 2) for one covariance and configuration: one formula for
/// [`assemble`], which stores a row's nonzeros, and for the optimizer,
/// which writes a later decision's values over the pattern its solver
/// holds.
///
/// One interval's diagonal block is the risk term `2α·M`, made
/// symmetric (`(P + Pᵀ)/2` off the diagonal) as every QP constructor
/// would. Churn `γ Σ_τ ‖A(τ) − A(τ−1)‖²` adds `2γ` to the diagonal once
/// for the τ-th difference and once more for the (τ+1)-th when it
/// exists, and `−2γ` between `A[τ][i]` and `A[τ+1][i]`.
#[derive(Debug, Clone)]
pub(crate) struct PValues {
    /// `2α·sym(M)`, `N × N`.
    risk: Matrix,
    horizon: usize,
    /// The churn weight γ.
    gamma: f64,
}

impl Default for PValues {
    fn default() -> Self {
        PValues {
            risk: Matrix::zeros(0, 0),
            horizon: 0,
            gamma: 0.0,
        }
    }
}

impl PValues {
    /// Recompute for `covariance` (square) under `config`.
    fn assign(&mut self, covariance: &Matrix, config: &SpotWebConfig) {
        let n = covariance.rows();
        if (self.risk.rows(), self.risk.cols()) != (n, n) {
            self.risk = Matrix::zeros(n, n);
        }
        let s = 2.0 * config.alpha;
        let dst = self.risk.as_mut_slice();
        for (d, &m) in dst.iter_mut().zip(covariance.as_slice()) {
            *d = m * s;
        }
        self.risk.symmetrize_mut();
        self.horizon = config.horizon;
        self.gamma = config.churn_gamma;
    }

    /// Whether the rows of interval `τ` hold a churn coupling to the
    /// previous interval and to the next one.
    fn couplings(&self, tau: usize) -> (bool, bool) {
        let churn = self.gamma > 0.0;
        (churn && tau > 0, churn && tau + 1 < self.horizon)
    }

    /// Row `(τ, i)`'s diagonal entry.
    fn diagonal(&self, tau: usize, i: usize) -> f64 {
        let (d, g) = (self.risk[(i, i)], self.gamma);
        match (g > 0.0, tau + 1 == self.horizon) {
            (false, _) => d,
            (true, true) => d + 2.0 * g,
            (true, false) => d + 2.0 * g + 2.0 * g,
        }
    }

    /// Write row `r` of `P` at the ascending columns `cols` into
    /// `vals`. `cols` hold the row's churn couplings and some of its
    /// interval's block. A row that holds the whole block is a copy of
    /// the risk row with the diagonal patched; any other is written
    /// entry by entry.
    pub(crate) fn write_row(&self, r: usize, cols: &[usize], vals: &mut [f64]) {
        let n = self.risk.rows();
        let (tau, i) = (r / n, r % n);
        let (left, right) = self.couplings(tau);
        let (lo, hi) = (usize::from(left), vals.len() - usize::from(right));
        let coupling = -2.0 * self.gamma;
        vals[..lo].fill(coupling);
        vals[hi..].fill(coupling);
        let (cols, vals) = (&cols[lo..hi], &mut vals[lo..hi]);
        let (row, diagonal) = (self.risk.row(i), self.diagonal(tau, i));
        if vals.len() == n {
            vals.copy_from_slice(row);
            vals[i] = diagonal;
        } else {
            for (v, &col) in vals.iter_mut().zip(cols) {
                let j = col - tau * n;
                *v = if j == i { diagonal } else { row[j] };
            }
        }
    }

    /// Whether these values, written over `p`'s pattern, give the `P`
    /// [`build_sparse_qp`] would build from them. `p` must store, in
    /// rows of this shape, the churn couplings and every nonzero of the
    /// interval blocks and nothing else; every interval holds the same
    /// risk block, so the first interval's rows and the last one's
    /// diagonal cover the pattern. The values must be ones
    /// [`SparseQp::new`] accepts unchanged: finite, and an off-diagonal
    /// entry finite when doubled, or symmetrizing would overflow it.
    /// The doubling rule is checked on the whole risk block, whose own
    /// diagonal it holds to more than it needs: such a decision takes
    /// the full build.
    pub(crate) fn fits(&self, p: &CsrMatrix) -> bool {
        let (n, h) = (self.risk.rows(), self.horizon);
        let coupling = -2.0 * self.gamma;
        let block = self.risk.as_slice().iter();
        let finite = block.fold((coupling + coupling).is_finite(), |ok, &v| {
            ok & (v + v).is_finite()
        });
        finite
            && p.rows() == n * h
            && (0..n).all(|i| {
                let last = (h - 1) * n + i;
                let diagonal = self.diagonal(h - 1, i);
                let stored = p.row(last).0.binary_search(&last).is_ok();
                self.stores(i, p.row(i).0) && diagonal.is_finite() && stored == (diagonal != 0.0)
            })
    }

    /// Whether `cols` are the columns the first interval's row `i`
    /// stores: its block's nonzeros and its churn coupling. As many
    /// block columns as the row has nonzeros, each at a nonzero, are
    /// the nonzeros; a row that stores the whole block needs only the
    /// count.
    fn stores(&self, i: usize, cols: &[usize]) -> bool {
        let (row, diagonal) = (self.risk.row(i), self.diagonal(0, i));
        let coupled = usize::from(self.couplings(0).1);
        let Some(block) = cols.len().checked_sub(coupled).map(|k| &cols[..k]) else {
            return false;
        };
        let nonzeros = row.iter().filter(|&&v| v != 0.0).count() + usize::from(diagonal != 0.0)
            - usize::from(row[i] != 0.0);
        let value = |j: usize| if j == i { diagonal } else { row[j] };
        // `N` ascending columns, the last `N − 1`, are the whole block.
        let whole = block.len() == row.len() && block.last() == Some(&(row.len() - 1));
        diagonal.is_finite()
            && nonzeros == block.len()
            && (whole || block.iter().all(|&j| j < row.len() && value(j) != 0.0))
            && cols[block.len()..].iter().all(|&j| j == row.len() + i)
    }
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

/// Write the linear cost `q` alone: the fresh price, workload and
/// failure forecasts, and the churn cross-term with the currently
/// running allocation. Validates the forecast and `prev_allocation`.
fn write_linear_cost(
    q: &mut Vec<f64>,
    catalog: &Catalog,
    forecast: &ForecastBundle,
    prev_allocation: &[f64],
    config: &SpotWebConfig,
) -> Result<()> {
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
    q.clear();
    q.resize(n * h, 0.0);
    for tau in 0..h {
        let lam = forecast.workload[tau];
        for (i, market) in catalog.markets().iter().enumerate() {
            let r = market.capacity_rps();
            let per_request_cost = forecast.prices[tau][i] / r;
            q[tau * n + i] = lam * per_request_cost * interval_hours;
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
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use spotweb_market::Catalog;

    fn build_linear_cost(
        catalog: &Catalog,
        forecast: &ForecastBundle,
        prev_allocation: &[f64],
        config: &SpotWebConfig,
    ) -> Result<Vec<f64>> {
        let mut q = Vec::new();
        write_linear_cost(&mut q, catalog, forecast, prev_allocation, config)?;
        Ok(q)
    }

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
            l[row] = A_MIN;
            u[row] = A_MAX_TOTAL;
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

    prop_compose! {
        /// An asymmetric `N × N` covariance, a third of its
        /// off-diagonal pairs exact zeros, and the pair whose zeros
        /// the test moves.
        fn sparse_covariance(n: usize)(
            cells in prop::collection::vec(-1e-3f64..1e-3, n * n),
            diagonal in prop::collection::vec(1e-4f64..1e-2, n),
            zeros in prop::collection::vec(prop::bool::weighted(0.35), n * n),
            (i, j) in (0..n, 0..n - 1),
        ) -> (Matrix, (usize, usize)) {
            let mut m = Matrix::zeros(n, n);
            for r in 0..n {
                for c in 0..n {
                    let zero = zeros[r.min(c) * n + r.max(c)];
                    m[(r, c)] = if r == c { diagonal[r] } else if zero { 0.0 } else { cells[r * n + c] };
                }
            }
            (m, (i, j + usize::from(j >= i)))
        }
    }

    /// The stored values of `p`'s pattern as the value writer writes
    /// them for `values`.
    fn written(values: &PValues, p: &CsrMatrix) -> Vec<u64> {
        let mut out = Vec::with_capacity(p.nnz());
        for r in 0..p.rows() {
            let cols = p.row(r).0;
            let mut vals = vec![f64::NAN; cols.len()];
            values.write_row(r, cols, &mut vals);
            out.extend(vals.iter().map(|v| v.to_bits()));
        }
        out
    }

    fn bits(p: &CsrMatrix) -> Vec<u64> {
        p.values().iter().map(|v| v.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The value writer is `build_sparse_qp`'s `P`, bit for bit: on
        /// the pattern built from the same covariance, and on the
        /// pattern of an earlier covariance with the same zeros. A zero
        /// that appears or vanishes is a mismatch.
        #[test]
        fn the_value_writer_is_the_builders_p_bitwise(
            (cov, (i, j)) in sparse_covariance(6),
            scale in 0.5f64..2.0,
        ) {
            let catalog = Catalog::ec2_subset(6);
            let forecast = ForecastBundle::flat(4000.0, &[0.3; 6], &[0.05; 6], 4);
            let prev = [0.1; 6];
            let mut moved = cov.clone();
            moved.as_mut_slice().iter_mut().for_each(|v| *v *= scale);
            let mut flipped = moved.clone();
            let cell = if flipped[(i, j)] == 0.0 { 3e-4 } else { 0.0 };
            flipped[(i, j)] = cell;
            flipped[(j, i)] = cell;
            for (h, gamma) in [(1, 0.0), (1, 0.05), (4, 0.0), (4, 0.05)] {
                let config = SpotWebConfig {
                    churn_gamma: gamma,
                    ..SpotWebConfig::default().with_horizon(h)
                };
                let staged = |m: &Matrix| {
                    let (mut p, mut q) = (PValues::default(), Vec::new());
                    stage(&mut p, &mut q, &catalog, &forecast, m, &prev, &config).unwrap();
                    p
                };
                let build = |m: &Matrix| {
                    build_sparse_qp(&catalog, &forecast, m, &prev, &config).unwrap().p().clone()
                };
                let first = build(&cov);
                prop_assert!(staged(&cov).fits(&first));
                prop_assert_eq!(written(&staged(&cov), &first), bits(&first), "H = {}, γ = {}", h, gamma);

                let (next, want) = (staged(&moved), build(&moved));
                prop_assert!(next.fits(&first), "same zeros, H = {}, γ = {}", h, gamma);
                prop_assert_eq!(written(&next, &first), bits(&want), "H = {}, γ = {}", h, gamma);

                // The pair's zero appeared or vanished: `P`'s pattern
                // moved, and the writer says so.
                let (flip, rebuilt) = (staged(&flipped), build(&flipped));
                prop_assert_ne!(rebuilt.nnz(), first.nnz());
                prop_assert!(!flip.fits(&first), "({}, {}) moved, H = {}, γ = {}", i, j, h, gamma);
                prop_assert!(!staged(&cov).fits(&rebuilt), "the reverse, H = {}, γ = {}", h, gamma);
            }
        }
    }

    #[test]
    fn the_value_writer_turns_down_what_the_builder_rejects() {
        let (c, f, m, cfg) = setup();
        let stage_of = |m: &Matrix| {
            let (mut p, mut q) = (PValues::default(), Vec::new());
            stage(&mut p, &mut q, &c, &f, m, &[0.0; 3], &cfg).unwrap();
            p
        };
        let built = build_sparse_qp(&c, &f, &m, &[0.0; 3], &cfg).unwrap();
        assert!(stage_of(&m).fits(built.p()));
        // A NaN, and an entry whose risk term is finite but overflows
        // when symmetrizing adds it to its mirror image.
        for bad in [f64::NAN, 0.75 * f64::MAX / (2.0 * cfg.alpha)] {
            let mut cov = m.clone();
            cov[(0, 1)] = bad;
            cov[(1, 0)] = bad;
            assert!(!stage_of(&cov).fits(built.p()), "{bad}");
            assert!(
                build_sparse_qp(&c, &f, &cov, &[0.0; 3], &cfg).is_err(),
                "{bad}"
            );
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
        assert_eq!(p.qp.l[row], A_MIN);
        assert_eq!(p.qp.u[row], A_MAX_TOTAL);
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
