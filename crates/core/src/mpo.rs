//! The multi-period portfolio optimizer (receding horizon).
//!
//! Per §4.1: "while all trades over the horizon H are computed, only
//! the first interval portfolio allocation is actually executed to
//! limit error propagation" — [`MpoOptimizer::optimize`] returns the
//! full horizon plan but callers deploy only
//! [`PortfolioDecision::first`]. The optimizer warm-starts each solve
//! from the previous solution and keeps its solver's equilibration
//! across intervals, which is why re-optimizing every interval stays
//! cheap (Fig. 7(b)).

use spotweb_linalg::Matrix;
use spotweb_market::Catalog;
use spotweb_solver::{AdmmSolver, Certificate, QpStatus, Settings, Update};
use spotweb_telemetry::{names, prof};

use crate::config::SpotWebConfig;
use crate::forecast::ForecastBundle;
use crate::portfolio::{build_sparse_qp, unpack_plan};
use crate::Result;

/// Output of one optimization run.
#[derive(Debug, Clone)]
pub struct PortfolioDecision {
    /// Planned allocations for each horizon interval: `plan[τ][i]`.
    pub plan: Vec<Vec<f64>>,
    /// QP objective value at the solution.
    pub objective: f64,
    /// ADMM iterations used.
    pub iterations: usize,
    /// Whether the solver reached full tolerance.
    pub solved: bool,
    /// Whether the solve started from the previous interval's
    /// primal/dual iterate (vs the zero cold start).
    pub warm_started: bool,
    /// Whether the previous solve's KKT factorization was reused: `P`
    /// bitwise unchanged (same covariance, same configuration), so only
    /// the linear cost was replaced. A moved covariance refactors.
    pub factor_reused: bool,
    /// How far the solution is from optimal, on the unscaled QP.
    pub certificate: Certificate,
}

impl PortfolioDecision {
    /// The executed (first-interval) allocation.
    pub fn first(&self) -> &[f64] {
        &self.plan[0]
    }
}

/// The SpotWeb multi-period optimizer.
pub struct MpoOptimizer {
    config: SpotWebConfig,
    /// Previous primal/dual solution for warm starting.
    warm: Option<(Vec<f64>, Vec<f64>)>,
    /// Warm starting on by default; disable to measure the cold cost.
    warm_start_enabled: bool,
    /// The solver of the previous call, re-bound to each next problem
    /// while its constraints and the pattern of `P` hold.
    solver: Option<AdmmSolver>,
}

impl std::fmt::Debug for MpoOptimizer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MpoOptimizer")
            .field("config", &self.config)
            .field("warm", &self.warm.is_some())
            .field("warm_start_enabled", &self.warm_start_enabled)
            .field("cached_solver", &self.solver.is_some())
            .finish()
    }
}

impl Clone for MpoOptimizer {
    /// Clones carry the configuration and warm-start iterate but not
    /// the built solver (it is rebuilt on the clone's first solve).
    fn clone(&self) -> Self {
        MpoOptimizer {
            config: self.config.clone(),
            warm: self.warm.clone(),
            warm_start_enabled: self.warm_start_enabled,
            solver: None,
        }
    }
}

impl MpoOptimizer {
    /// New optimizer with default solver settings.
    pub fn new(config: SpotWebConfig) -> Self {
        MpoOptimizer {
            config,
            warm: None,
            warm_start_enabled: true,
            solver: None,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &SpotWebConfig {
        &self.config
    }

    /// Enable or disable warm starting (on by default). Disabling
    /// forces every solve to the zero cold start — the knob behind the
    /// warm-vs-cold iteration counts `figures sweep` reports.
    pub fn set_warm_start(&mut self, enabled: bool) {
        self.warm_start_enabled = enabled;
        if !enabled {
            self.warm = None;
        }
    }

    /// Run one optimization. `prev_allocation` is the currently
    /// deployed first-interval allocation (zeros at cold start).
    ///
    /// Two reuses cut the per-interval cost of the receding-horizon
    /// loop (Fig. 7(b)):
    /// * **warm start** — the previous interval's primal/dual solution
    ///   seeds the ADMM iteration via `solve_from` whenever the
    ///   problem dimensions are unchanged;
    /// * **solver reuse** — consecutive problems share their
    ///   constraints and the pattern of `P`, so the previous solver is
    ///   re-bound to the new one ([`AdmmSolver::update`]): its Ruiz
    ///   equilibration is kept, and the KKT matrix is refactored only
    ///   when `P` (the covariance) moved.
    pub fn optimize(
        &mut self,
        catalog: &Catalog,
        forecast: &ForecastBundle,
        covariance: &Matrix,
        prev_allocation: &[f64],
    ) -> Result<PortfolioDecision> {
        prof::scope!(names::SPAN_MPO_SOLVE);
        let n = catalog.len();
        let h = self.config.horizon;

        let qp = build_sparse_qp(catalog, forecast, covariance, prev_allocation, &self.config)?;
        let update = match self.solver.as_mut() {
            Some(solver) => solver.update(&qp)?,
            None => Update::Rebuild,
        };
        if update == Update::Rebuild {
            // The portfolio QP is block-tridiagonal in the horizon (risk
            // and constraints are per-period; churn couples neighbours),
            // so a multi-period instance factors blockwise in O(H·N³).
            // The builder guarantees the structure, so the problem is
            // moved into the solver; a failed check is an error, not a
            // fallback.
            self.solver = Some(if h >= 2 {
                AdmmSolver::with_block_structure(qp, Settings::default(), n)?
            } else {
                AdmmSolver::new(qp, Settings::default())?
            });
        }

        let solver = self.solver.as_mut().expect("solver bound above");
        let nv = solver.num_vars();
        let mc = solver.num_constraints();
        let warm = if self.warm_start_enabled {
            self.warm
                .as_ref()
                .filter(|(x, y)| x.len() == nv && y.len() == mc)
        } else {
            None
        };
        let warm_started = warm.is_some();
        let sol = match warm {
            Some((x, y)) => solver.solve_from(x, y),
            None => solver.solve(),
        };
        if self.warm_start_enabled {
            // A non-finite iterate would poison every solve it seeds.
            self.warm = (sol.status != QpStatus::NonFinite).then(|| (sol.x.clone(), sol.y.clone()));
        }
        Ok(PortfolioDecision {
            plan: unpack_plan(&sol.x, n, h),
            objective: sol.objective,
            iterations: sol.iterations,
            solved: sol.is_solved(),
            warm_started,
            factor_reused: update == Update::Kept,
            certificate: sol.certificate(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotweb_market::Catalog;

    fn identity_cov(n: usize) -> Matrix {
        Matrix::identity(n).scaled(1e-4)
    }

    fn flat_forecast(prices: &[f64], h: usize) -> ForecastBundle {
        let fails = vec![0.04; prices.len()];
        ForecastBundle::flat(1000.0, prices, &fails, h)
    }

    #[test]
    fn covers_demand_and_prefers_cheap_market() {
        let catalog = Catalog::fig5_three_markets();
        // Per-request costs: m0 = 2/1920 ≈ 0.00104 (cheapest),
        // m1 = 1/320 ≈ 0.0031, m2 = 1.2/320 = 0.00375.
        let forecast = flat_forecast(&[2.0, 1.0, 1.2], 4);
        let mut opt = MpoOptimizer::new(SpotWebConfig::default());
        let d = opt
            .optimize(&catalog, &forecast, &identity_cov(3), &[0.0; 3])
            .unwrap();
        assert!(d.solved);
        let total: f64 = d.first().iter().sum();
        assert!(
            (0.99..=1.61).contains(&total),
            "total allocation {total} outside [A_min, A_max]"
        );
        // The cheapest per-request market takes the largest share.
        let a = d.first();
        assert!(a[0] > a[1] && a[0] > a[2], "allocation {a:?}");
    }

    /// At `H = 1` without churn the portfolio QP is one box plus one
    /// budget row, which `solver::pgd` minimizes without any ADMM code:
    /// on the Fig. 5 and Fig. 6(b) catalogs the optimizer must reach the
    /// same objective within the solver proptests' certificate
    /// tolerance, and a feasible point.
    #[test]
    fn single_period_matches_projected_gradient() {
        use crate::portfolio::PortfolioProblem;
        use spotweb_solver::pgd::BoxBudget;

        let config = SpotWebConfig {
            horizon: 1,
            churn_gamma: 0.0,
            ..SpotWebConfig::default()
        };
        let catalogs = [
            Catalog::fig5_three_markets(),
            Catalog::ec2_subset(9),
            Catalog::ec2_subset(18),
            Catalog::ec2_subset(36),
        ];
        for catalog in catalogs {
            let n = catalog.len();
            let markets = catalog.markets();
            let prices: Vec<f64> = markets
                .iter()
                .map(|m| m.instance.on_demand_price * 0.3)
                .collect();
            let failures: Vec<f64> = markets.iter().map(|m| m.base_revocation_prob).collect();
            let forecast = ForecastBundle::flat(20_000.0, &prices, &failures, 1);
            let mut covariance = Matrix::identity(n).scaled(1e-3);
            for i in 0..n {
                for j in 0..n {
                    if i != j && i % 4 == j % 4 {
                        covariance[(i, j)] = 2e-4;
                    }
                }
            }
            let zeros = vec![0.0; n];
            let decision = MpoOptimizer::new(config.clone())
                .optimize(&catalog, &forecast, &covariance, &zeros)
                .unwrap();
            assert!(decision.solved, "{n} markets");

            // The same QP: rows 0..n are the boxes, row n the budget.
            let qp = PortfolioProblem::build(&catalog, &forecast, &covariance, &zeros, &config)
                .unwrap()
                .qp;
            let set =
                BoxBudget::new(qp.l[..n].to_vec(), qp.u[..n].to_vec(), qp.l[n], qp.u[n]).unwrap();
            let norm_inf = (0..n)
                .map(|i| qp.p.row(i).iter().map(|v| v.abs()).sum::<f64>())
                .fold(0.0, f64::max);
            let start = set.project(&zeros).unwrap();
            let x = set
                .descend(start, 1.0 / norm_inf, 2_000, |x, g| {
                    qp.p.matvec_into(x, g).unwrap();
                    g.iter_mut().zip(&qp.q).for_each(|(gi, qi)| *gi += qi);
                })
                .unwrap();
            let (mpo, pgd) = (qp.objective(decision.first()), qp.objective(&x));
            assert!(
                (mpo - pgd).abs() <= 1e-4 * (1.0 + pgd.abs()),
                "{n} markets: MPO objective {mpo} vs projected gradient {pgd}"
            );
            assert!(qp.max_violation(decision.first()) <= 1e-4, "{n} markets");
        }
    }

    #[test]
    fn risk_aversion_diversifies() {
        let catalog = Catalog::fig5_three_markets();
        let forecast = flat_forecast(&[2.0, 1.0, 1.2], 1);
        // Strongly correlated markets → high α should spread allocation.
        let mut cov = Matrix::zeros(3, 3);
        for i in 0..3 {
            for j in 0..3 {
                cov[(i, j)] = if i == j { 0.02 } else { 0.015 };
            }
        }
        // Market 0 extra risky on its own.
        cov[(0, 0)] = 0.08;

        let herfindahl = |a: &[f64]| -> f64 {
            let s: f64 = a.iter().sum();
            a.iter().map(|v| (v / s) * (v / s)).sum()
        };

        let mut low = MpoOptimizer::new(SpotWebConfig {
            alpha: 0.0,
            horizon: 1,
            churn_gamma: 0.0,
            ..SpotWebConfig::default()
        });
        let mut high = MpoOptimizer::new(SpotWebConfig {
            alpha: 200.0,
            horizon: 1,
            churn_gamma: 0.0,
            ..SpotWebConfig::default()
        });
        let d_low = low.optimize(&catalog, &forecast, &cov, &[0.0; 3]).unwrap();
        let d_high = high.optimize(&catalog, &forecast, &cov, &[0.0; 3]).unwrap();
        assert!(
            herfindahl(d_high.first()) < herfindahl(d_low.first()),
            "high α must diversify: low {:?} high {:?}",
            d_low.first(),
            d_high.first()
        );
    }

    #[test]
    fn per_market_cap_enforced() {
        let catalog = Catalog::fig5_three_markets();
        let forecast = flat_forecast(&[2.0, 1.0, 1.2], 2);
        let mut opt = MpoOptimizer::new(SpotWebConfig {
            a_max_per_market: 0.5,
            horizon: 2,
            ..SpotWebConfig::default()
        });
        let d = opt
            .optimize(&catalog, &forecast, &identity_cov(3), &[0.0; 3])
            .unwrap();
        for tau in 0..2 {
            for &a in &d.plan[tau] {
                assert!(a <= 0.5 + 1e-3, "cap violated: {a}");
            }
        }
    }

    #[test]
    fn future_price_knowledge_shifts_allocation() {
        // Market 1 is cheapest now but becomes expensive next interval;
        // market 2 is the opposite. With churn cost, MPO should already
        // lean toward market 2 versus what a myopic (H=1) run does.
        let catalog = Catalog::fig5_three_markets();
        let fails = vec![0.04; 3];
        // Per-request: m0 = 9/1920 ≈ 4.7e-3 (always expensive),
        // m1 = 0.7/320 ≈ 2.2e-3 now but 3.5/320 ≈ 10.9e-3 later,
        // m2 = 1.1/320 ≈ 3.4e-3 throughout.
        let myopic_forecast = ForecastBundle::flat(1000.0, &[9.0, 0.7, 1.1], &fails, 1);
        let mpo_forecast = ForecastBundle {
            workload: vec![1000.0; 4],
            prices: vec![
                vec![9.0, 0.7, 1.1],
                vec![9.0, 3.5, 1.1],
                vec![9.0, 3.5, 1.1],
                vec![9.0, 3.5, 1.1],
            ],
            failures: vec![fails.clone(); 4],
        };
        let cfg = SpotWebConfig {
            churn_gamma: 0.3,
            ..SpotWebConfig::default()
        };
        let mut myopic = MpoOptimizer::new(cfg.with_horizon(1));
        let mut mpo = MpoOptimizer::new(cfg.clone());
        let dm = myopic
            .optimize(&catalog, &myopic_forecast, &identity_cov(3), &[0.0; 3])
            .unwrap();
        let dp = mpo
            .optimize(&catalog, &mpo_forecast, &identity_cov(3), &[0.0; 3])
            .unwrap();
        let share2 = |a: &[f64]| a[2] / a.iter().sum::<f64>();
        assert!(
            share2(dp.first()) > share2(dm.first()),
            "MPO {:?} should favor the future-cheap market vs myopic {:?}",
            dp.first(),
            dm.first()
        );
    }

    #[test]
    fn warm_start_reduces_iterations() {
        let catalog = Catalog::ec2_subset(18);
        let prices: Vec<f64> = catalog
            .markets()
            .iter()
            .map(|m| m.instance.on_demand_price * 0.3)
            .collect();
        let fails = vec![0.05; 18];
        let forecast = ForecastBundle::flat(5000.0, &prices, &fails, 4);
        let mut opt = MpoOptimizer::new(SpotWebConfig::default());
        let cov = identity_cov(18);
        let d1 = opt.optimize(&catalog, &forecast, &cov, &[0.0; 18]).unwrap();
        // Slightly perturbed prices next interval.
        let prices2: Vec<f64> = prices.iter().map(|p| p * 1.02).collect();
        let forecast2 = ForecastBundle::flat(5100.0, &prices2, &fails, 4);
        let d2 = opt
            .optimize(&catalog, &forecast2, &cov, d1.first())
            .unwrap();
        assert!(d2.solved);
        assert!(
            d2.iterations <= d1.iterations,
            "warm {} vs cold {}",
            d2.iterations,
            d1.iterations
        );
    }

    #[test]
    fn non_finite_solve_is_unsolved_and_never_becomes_the_warm_start() {
        let catalog = Catalog::fig5_three_markets();
        let forecast = flat_forecast(&[2.0, 1.0, 1.2], 4);
        let cov = identity_cov(3);
        let mut opt = MpoOptimizer::new(SpotWebConfig::default());
        let d1 = opt.optimize(&catalog, &forecast, &cov, &[0.0; 3]).unwrap();
        assert!(d1.solved);
        // Poison the stored iterate, as an overflowing solve would.
        let (x, _) = opt.warm.as_mut().expect("warm start kept");
        x[0] = f64::NAN;
        let d2 = opt.optimize(&catalog, &forecast, &cov, d1.first()).unwrap();
        assert!(d2.warm_started && !d2.solved);
        assert!(opt.warm.is_none(), "a NaN iterate must not seed a solve");
        // The next interval starts cold and recovers.
        let d3 = opt.optimize(&catalog, &forecast, &cov, d1.first()).unwrap();
        assert!(!d3.warm_started && d3.solved);
        assert!(d3.first().iter().all(|a| a.is_finite()));
    }

    #[test]
    fn factor_cache_hits_when_covariance_unchanged() {
        let catalog = Catalog::fig5_three_markets();
        let cov = identity_cov(3);
        let mut opt = MpoOptimizer::new(SpotWebConfig::default());
        let d1 = opt
            .optimize(
                &catalog,
                &flat_forecast(&[2.0, 1.0, 1.2], 4),
                &cov,
                &[0.0; 3],
            )
            .unwrap();
        assert!(!d1.factor_reused && !d1.warm_started, "first solve is cold");
        let d2 = opt
            .optimize(
                &catalog,
                &flat_forecast(&[2.1, 0.9, 1.3], 4),
                &cov,
                d1.first(),
            )
            .unwrap();
        assert!(d2.factor_reused, "same covariance must reuse the factor");
        assert!(d2.warm_started);
        assert!(d2.solved);
        // A changed covariance forces a rebuild.
        let d3 = opt
            .optimize(
                &catalog,
                &flat_forecast(&[2.1, 0.9, 1.3], 4),
                &identity_cov(3).scaled(2.0),
                d2.first(),
            )
            .unwrap();
        assert!(!d3.factor_reused);
    }

    #[test]
    fn factor_cache_matches_full_rebuild() {
        // The fast path must land on the same allocation (within
        // solver tolerance) as a from-scratch rebuild.
        let catalog = Catalog::fig5_three_markets();
        let cov = identity_cov(3);
        let f1 = flat_forecast(&[2.0, 1.0, 1.2], 4);
        let f2 = flat_forecast(&[2.0, 1.4, 0.9], 4);

        let mut cached = MpoOptimizer::new(SpotWebConfig::default());
        cached.optimize(&catalog, &f1, &cov, &[0.0; 3]).unwrap();
        cached.set_warm_start(false); // isolate the factor reuse
        let fast = cached.optimize(&catalog, &f2, &cov, &[0.0; 3]).unwrap();
        assert!(fast.factor_reused && !fast.warm_started);

        let mut fresh = MpoOptimizer::new(SpotWebConfig::default());
        let full = fresh.optimize(&catalog, &f2, &cov, &[0.0; 3]).unwrap();
        assert!(!full.factor_reused);

        for (a, b) in fast.first().iter().zip(full.first()) {
            assert!((a - b).abs() < 1e-4, "fast {a} vs rebuild {b}");
        }
        assert!((fast.objective - full.objective).abs() < 1e-5 * (1.0 + full.objective.abs()));
    }

    #[test]
    fn disabling_warm_start_forces_cold_solves() {
        let catalog = Catalog::fig5_three_markets();
        let cov = identity_cov(3);
        let mut opt = MpoOptimizer::new(SpotWebConfig::default());
        opt.set_warm_start(false);
        let f = flat_forecast(&[2.0, 1.0, 1.2], 4);
        let d1 = opt.optimize(&catalog, &f, &cov, &[0.0; 3]).unwrap();
        let d2 = opt.optimize(&catalog, &f, &cov, d1.first()).unwrap();
        assert!(!d1.warm_started && !d2.warm_started);
    }

    #[test]
    fn non_finite_inputs_are_errors_not_garbage_iterates() {
        let catalog = Catalog::fig5_three_markets();
        let good_cov = identity_cov(3);
        let good = flat_forecast(&[2.0, 1.0, 1.2], 4);
        let mut nan_price = good.clone();
        nan_price.prices[1][2] = f64::NAN;
        let mut nan_cov = good_cov.clone();
        nan_cov[(0, 2)] = f64::NAN;
        // Finite inputs whose product overflows: q = λ·price/r = ∞.
        let mut overflow = good.clone();
        overflow.workload = vec![1e300; 4];
        overflow.prices = vec![vec![1e300; 3]; 4];
        let nan_bound = SpotWebConfig {
            a_min: f64::NAN,
            ..SpotWebConfig::default()
        };
        let table = [
            ("NaN price", SpotWebConfig::default(), &nan_price, &good_cov),
            (
                "NaN covariance cell",
                SpotWebConfig::default(),
                &good,
                &nan_cov,
            ),
            ("∞ in q", SpotWebConfig::default(), &overflow, &good_cov),
            ("NaN bound", nan_bound, &good, &good_cov),
        ];
        for (case, config, forecast, cov) in table {
            let mut opt = MpoOptimizer::new(config);
            let got = opt.optimize(&catalog, forecast, cov, &[0.0; 3]);
            assert!(got.is_err(), "{case} must be rejected, got {got:?}");
        }

        // A solver kept from the previous call rejects it the same way.
        let mut opt = MpoOptimizer::new(SpotWebConfig::default());
        opt.optimize(&catalog, &good, &good_cov, &[0.0; 3]).unwrap();
        let reused = opt.optimize(&catalog, &overflow, &good_cov, &[0.0; 3]);
        assert!(
            matches!(
                reused,
                Err(crate::CoreError::Solver(
                    spotweb_solver::SolverError::NonFinite { what: "q" }
                ))
            ),
            "got {reused:?}"
        );
    }
}
