//! ExoSphere-style single-period Markowitz portfolio selection
//! (Sharma, Irwin, Shenoy — arXiv:1704.08738).
//!
//! ExoSphere picks a server portfolio by one-shot mean–variance
//! optimization over the markets' *current* cost and revocation risk:
//! minimize `cᵀa + α·aᵀMa` over the capped simplex, where `c` is the
//! normalized per-request cost tilted by each market's failure
//! probability and `M` the revocation-correlation matrix. Unlike
//! [`crate::SpotWebPolicy`] there is no look-ahead horizon, no churn
//! term and no workload forecast — the portfolio is re-derived from
//! scratch every interval from current observations only.
//!
//! The portfolio is solved by [`spotweb_solver::pgd::BoxBudget`]'s
//! deterministic projected gradient over `{0 ≤ aᵢ ≤ cap, Σa = S}`, not
//! by the ADMM QP behind [`crate::ExoSpherePolicy`]: the zoo's
//! competitors are meant to be *independent* implementations, so an
//! ADMM bug can't silently make two "different" strategies agree. (The
//! `exosphere-loop` baseline of Fig. 6(b) is the MPO at `H = 1`.)

use spotweb_market::Catalog;
use spotweb_solver::pgd::BoxBudget;
use spotweb_telemetry::{names, TelemetrySink};

use crate::allocation::{to_server_counts, MIN_ALLOCATION};
use crate::config::SpotWebConfig;
use crate::policy::{Policy, PolicyObservation};
use crate::portfolio::{A_MAX_TOTAL, A_MIN};

/// Fixed projected-gradient iteration budget. The problem is a small,
/// strongly convex QP; 160 steps converge far past the `MIN_ALLOCATION`
/// resolution any fleet rounding can see.
const PGD_STEPS: usize = 160;

/// The ExoSphere competitor: single-period Markowitz, re-solved from
/// current observations each interval.
pub struct ExoSphereMarkowitzPolicy {
    config: SpotWebConfig,
    weights: Vec<f64>,
    telemetry: TelemetrySink,
}

impl ExoSphereMarkowitzPolicy {
    /// Build from the shared config (horizon/churn are meaningless to a
    /// single-period optimizer and ignored).
    pub fn new(config: &SpotWebConfig, markets: usize) -> Self {
        ExoSphereMarkowitzPolicy {
            config: config.clone(),
            weights: vec![0.0; markets],
            telemetry: TelemetrySink::disabled(),
        }
    }

    /// Attach a telemetry sink (counts one decision per `decide`).
    pub fn with_telemetry(mut self, sink: TelemetrySink) -> Self {
        self.telemetry = sink;
        self
    }

    /// Solve `min cᵀa + α·aᵀMa` over the capped simplex at total
    /// allocation `target`; `None` when the box cannot hold `target`
    /// or an observation is not finite.
    fn solve(&self, cost: &[f64], obs: &PolicyObservation<'_>, target: f64) -> Option<Vec<f64>> {
        let n = cost.len();
        let cap = self.config.a_max_per_market;
        // Lipschitz constant of the gradient: ‖2αM‖∞ + guard.
        let row_max = (0..n)
            .map(|i| (0..n).map(|j| obs.covariance[(i, j)].abs()).sum::<f64>())
            .fold(0.0, f64::max);
        let step = 1.0 / (2.0 * self.config.alpha * row_max + 1.0);
        let simplex = BoxBudget::new(vec![0.0; n], vec![cap; n], target, target).ok()?;
        // Feasible uniform start.
        let start = vec![(target / n as f64).min(cap); n];
        let gradient = |a: &[f64], grad: &mut [f64]| {
            for i in 0..n {
                let risk: f64 = (0..n).map(|j| obs.covariance[(i, j)] * a[j]).sum();
                grad[i] = cost[i] + 2.0 * self.config.alpha * risk;
            }
        };
        simplex.descend(start, step, PGD_STEPS, gradient).ok()
    }
}

impl Policy for ExoSphereMarkowitzPolicy {
    fn name(&self) -> &str {
        "exosphere"
    }

    fn decide(&mut self, catalog: &Catalog, obs: &PolicyObservation<'_>) -> Vec<u32> {
        self.telemetry.count(names::POLICY_DECISIONS_TOTAL, 1);
        let n = catalog.len();
        // Normalized per-request cost tilted by the revocation
        // probability: losing a server costs its share of the workload.
        let per_req: Vec<f64> = (0..n)
            .map(|i| obs.prices[i] / catalog.market(i).capacity_rps())
            .collect();
        let mean = per_req.iter().sum::<f64>() / n as f64;
        let cost: Vec<f64> = per_req
            .iter()
            .zip(obs.failure_probs)
            .map(|(&c, &f)| c / mean.max(f64::MIN_POSITIVE) + f)
            .collect();

        // First pass at full coverage, then inflate the total by the
        // portfolio's expected capacity loss (ExoSphere's
        // fault-tolerance margin) and re-solve.
        let feasible_max = (n as f64 * self.config.a_max_per_market).min(A_MAX_TOTAL);
        let base = A_MIN.min(feasible_max);
        let solved = self.solve(&cost, obs, base).and_then(|first| {
            let expected_loss: f64 = first
                .iter()
                .zip(obs.failure_probs)
                .map(|(a, f)| a * f)
                .sum();
            self.solve(&cost, obs, (base * (1.0 + expected_loss)).min(feasible_max))
        });
        // A set the solver refuses keeps the previous portfolio.
        if let Some(weights) = solved {
            self.weights = weights;
        }

        let lambda = obs
            .oracle
            .and_then(|v| v.workload.first().copied())
            .unwrap_or(obs.current_workload);
        to_server_counts(catalog, &self.weights, lambda, MIN_ALLOCATION)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotweb_linalg::Matrix;

    fn obs<'a>(prices: &'a [f64], failures: &'a [f64], cov: &'a Matrix) -> PolicyObservation<'a> {
        PolicyObservation {
            interval: 0,
            current_workload: 1000.0,
            prices,
            failure_probs: failures,
            covariance: cov,
            oracle: None,
        }
    }

    #[test]
    fn prefers_cheap_markets_and_covers_demand() {
        let catalog = Catalog::fig5_three_markets();
        let prices = [6.5, 0.4, 1.1];
        let failures = [0.04; 3];
        let cov = Matrix::identity(3).scaled(1e-4);
        let mut p = ExoSphereMarkowitzPolicy::new(&SpotWebConfig::default(), 3);
        let counts = p.decide(&catalog, &obs(&prices, &failures, &cov));
        let w = &p.weights;
        assert!(
            w[1] > w[0] && w[1] > w[2],
            "cheapest market dominates: {w:?}"
        );
        let cap: f64 = counts
            .iter()
            .enumerate()
            .map(|(i, &c)| c as f64 * catalog.market(i).capacity_rps())
            .sum();
        assert!(cap >= 1000.0, "capacity {cap} covers the workload");
    }

    #[test]
    fn correlation_pushes_the_portfolio_apart() {
        let catalog = Catalog::fig5_three_markets();
        // Same per-request cost everywhere so only risk discriminates.
        let prices: Vec<f64> = catalog
            .markets()
            .iter()
            .map(|m| m.capacity_rps() * 1e-3)
            .collect();
        let failures = [0.05; 3];
        let independent = Matrix::identity(3);
        let mut correlated = Matrix::identity(3);
        correlated[(0, 1)] = 0.95;
        correlated[(1, 0)] = 0.95;
        let config = SpotWebConfig {
            a_max_per_market: 0.9,
            ..SpotWebConfig::default()
        };
        let mut p = ExoSphereMarkowitzPolicy::new(&config, 3);
        p.decide(&catalog, &obs(&prices, &failures, &independent));
        let w_ind = p.weights.clone();
        p.decide(&catalog, &obs(&prices, &failures, &correlated));
        let w_cor = p.weights.clone();
        // Correlated 0/1 pair loses combined share to the independent 2.
        assert!(
            w_cor[2] > w_ind[2] + 1e-6,
            "uncorrelated market gains share: {w_ind:?} -> {w_cor:?}"
        );
    }

    #[test]
    fn decide_is_a_pure_function_of_observations() {
        let catalog = Catalog::fig5_three_markets();
        let prices = [2.0, 1.0, 1.2];
        let failures = [0.1, 0.02, 0.05];
        let cov = Matrix::identity(3).scaled(1e-2);
        let run = || {
            let mut p = ExoSphereMarkowitzPolicy::new(&SpotWebConfig::default(), 3);
            p.decide(&catalog, &obs(&prices, &failures, &cov))
        };
        assert_eq!(run(), run());
    }
}
