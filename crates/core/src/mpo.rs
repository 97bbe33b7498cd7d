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

use spotweb_linalg::{Cholesky, Matrix};
use spotweb_market::Catalog;
use spotweb_solver::{AdmmSolver, Certificate, QpStatus, Settings, Update};
use spotweb_telemetry::{names, prof};

use crate::config::SpotWebConfig;
use crate::forecast::ForecastBundle;
use crate::portfolio::{assemble, build_sparse_qp, stage, unpack_plan, PValues};
use crate::Result;

/// Round-off allowance of the covariance check: `M` passes when
/// `(M + Mᵀ)/2 + PSD_TOL·max Mᵢᵢ·I` factors, so a singular positive
/// semidefinite `M` (a sample covariance of fewer observations than
/// markets) passes and one with an eigenvalue below `−PSD_TOL·max Mᵢᵢ`
/// does not. The factorization's own round-off, at most about
/// `N²·ε·max Mᵢᵢ` for a semidefinite `M` (5e-12 of it at 144
/// markets), stays far below the allowance.
const PSD_TOL: f64 = 1e-9;

/// Whether the square `m` is positive semidefinite to [`PSD_TOL`].
fn is_psd(m: &Matrix) -> bool {
    let n = m.rows();
    let scale = (0..n).fold(0.0_f64, |s, i| s.max(m[(i, i)]));
    // The factor reads the lower triangle only: `(M + Mᵀ)/2` there,
    // shifted on the diagonal; `M`'s own upper triangle goes unread.
    let mut s = m.clone();
    for i in 0..n {
        for j in 0..i {
            s[(i, j)] = 0.5 * m[(i, j)] + 0.5 * m[(j, i)];
        }
        s[(i, i)] += PSD_TOL * scale;
    }
    if scale == 0.0 {
        // No positive diagonal: semidefinite only if zero throughout.
        return (0..n).all(|i| s.row(i)[..=i].iter().all(|&v| v == 0.0));
    }
    Cholesky::factor_in_place(s).is_ok()
}

/// Output of one optimization run.
#[derive(Debug, Clone)]
pub struct PortfolioDecision {
    /// Planned allocations for each horizon interval: `plan[τ][i]`.
    pub plan: Vec<Vec<f64>>,
    /// QP objective value at the solution.
    pub objective: f64,
    /// ADMM iterations used; the polish, when there was one, is not
    /// counted here but in [`PortfolioDecision::polished`]. 0 when the
    /// polish of the warm start settled the decision.
    pub iterations: usize,
    /// Whether the solution passes the solver's full-tolerance test,
    /// polished or not.
    pub solved: bool,
    /// Whether the solver polished its iterate: the active set's
    /// equality KKT system solved directly, exact to round-off.
    pub polished: bool,
    /// Reduced KKT systems the solver's polishes solved.
    pub polish_solves: usize,
    /// Factorizations of the ADMM KKT matrix this decision made: at
    /// construction when the solver was built for it, or during the
    /// solve when it had to iterate on a stale factor. At most one.
    pub kkt_factorizations: usize,
    /// Whether the solve started from the previous interval's
    /// primal/dual iterate (vs the zero cold start).
    pub warm_started: bool,
    /// Whether the previous solve's KKT factorization was kept: `P`
    /// bitwise unchanged (same covariance, same configuration), so only
    /// the linear cost was replaced. A moved covariance leaves it
    /// stale, to be refactored if the solve iterates.
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
    /// The solver of the previous call, re-bound to each next
    /// decision's values while the pattern of `P` holds.
    solver: Option<AdmmSolver>,
    /// The decision's values, staged before the covariance check:
    /// `P`'s here, the linear cost in `q`.
    staged: PValues,
    q: Vec<f64>,
    /// Decisions that assembled a fresh QP: the first, and each whose
    /// values do not fit the held pattern.
    assemblies: usize,
}

impl std::fmt::Debug for MpoOptimizer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MpoOptimizer")
            .field("config", &self.config)
            .field("warm", &self.warm.is_some())
            .field("warm_start_enabled", &self.warm_start_enabled)
            .field("cached_solver", &self.solver.is_some())
            .field("assemblies", &self.assemblies)
            .finish()
    }
}

impl Clone for MpoOptimizer {
    /// Clones carry the configuration and warm-start iterate but not
    /// the built solver (it is rebuilt on the clone's first solve).
    fn clone(&self) -> Self {
        MpoOptimizer {
            warm: self.warm.clone(),
            warm_start_enabled: self.warm_start_enabled,
            ..MpoOptimizer::new(self.config.clone())
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
            staged: PValues::default(),
            q: Vec::new(),
            assemblies: 0,
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
    /// Three reuses cut the per-interval cost of the receding-horizon
    /// loop (Fig. 7(b)):
    /// * **values in place** — consecutive problems share their
    ///   constraints and, while `M`'s zeros stay put, the pattern of
    ///   `P`, so the QP is assembled once and each later decision
    ///   writes only `P`'s values and `q` over the solver's own
    ///   ([`AdmmSolver::rebind`]). A decision whose values do not fit
    ///   the held pattern (`M`'s zero pattern moved, or a value is not
    ///   finite) assembles a fresh QP, which reports the error or is
    ///   built into a new solver;
    /// * **solver reuse** — the re-bound solver keeps its Ruiz
    ///   equilibration, and the KKT matrix is refactored only when `P`
    ///   (the covariance) moved and the polish of the warm start does
    ///   not settle the solve;
    /// * **warm start** — the previous interval's primal/dual solution
    ///   seeds the ADMM iteration via `solve_from` whenever the
    ///   problem dimensions are unchanged.
    ///
    /// A covariance that is not positive semidefinite ends the decision
    /// unsolved (`solved == false`), not in an error, and so does a
    /// moved `P` whose KKT matrix does not factor. The covariance is
    /// checked on its own, before the solver sees the new values: the
    /// polish of a warm start at a vertex, where no variable is free,
    /// never factors `P` and would accept any. A decision the check
    /// turns down leaves the solver and the warm start as they were,
    /// and plans `prev_allocation` for every interval.
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

        // Malformed inputs are errors here and non-finite ones in
        // `assemble`, so the check below sees a square, finite `M`.
        let fresh = {
            prof::scope!(names::SPAN_MPO_SOLVE_BUILD);
            let config = &self.config;
            match &self.solver {
                // Nothing holds a pattern to write into yet: the QP is
                // built whole, and its staging buffers go with it.
                None => Some(build_sparse_qp(
                    catalog,
                    forecast,
                    covariance,
                    prev_allocation,
                    config,
                )?),
                Some(solver) => {
                    let (p, q) = (&mut self.staged, &mut self.q);
                    stage(p, q, catalog, forecast, covariance, prev_allocation, config)?;
                    if p.fits(solver.problem().p()) && q.iter().all(|v| v.is_finite()) {
                        None
                    } else {
                        Some(assemble(p, q.clone(), config)?)
                    }
                }
            }
        };
        {
            prof::scope!(names::SPAN_MPO_SOLVE_CHECK);
            if !is_psd(covariance) {
                return Ok(PortfolioDecision {
                    plan: vec![prev_allocation.to_vec(); h],
                    objective: f64::NAN,
                    iterations: 0,
                    solved: false,
                    polished: false,
                    polish_solves: 0,
                    kkt_factorizations: 0,
                    warm_started: false,
                    factor_reused: false,
                    certificate: Certificate {
                        primal_residual: f64::NAN,
                        dual_residual: f64::NAN,
                        duality_gap: f64::NAN,
                    },
                });
            }
        }
        // `None` when the solver was built for this decision.
        let rebound = {
            prof::scope!(names::SPAN_MPO_SOLVE_REBIND);
            match (fresh, self.solver.as_mut()) {
                (None, Some(solver)) => {
                    let staged = &self.staged;
                    Some(solver.rebind(&self.q, |r, cols, vals| staged.write_row(r, cols, vals)))
                }
                (Some(qp), _) => {
                    self.assemblies += 1;
                    // The portfolio QP is block-tridiagonal in the
                    // horizon (risk and constraints are per-period;
                    // churn couples neighbours), so a multi-period
                    // instance factors blockwise in O(H·N³); at `H = 1`
                    // the one block is the whole problem. The builder
                    // guarantees the structure, so the problem is moved
                    // into the solver; a failed check is an error, not
                    // a fallback.
                    self.solver = Some(AdmmSolver::with_block_structure(
                        qp,
                        Settings::default(),
                        n,
                    )?);
                    None
                }
                (None, None) => unreachable!("values are written in place only on a held solver"),
            }
        };

        prof::scope!(names::SPAN_MPO_SOLVE_ITERATE);
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
            polished: sol.polished,
            polish_solves: sol.polish_solves,
            kkt_factorizations: sol.factorizations + usize::from(rebound.is_none()),
            warm_started,
            factor_reused: rebound == Some(Update::Kept),
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
            a_max_per_market: f64::NAN,
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
            let fresh =
                MpoOptimizer::new(config.clone()).optimize(&catalog, forecast, cov, &[0.0; 3]);
            let fresh = format!("{:?}", fresh.expect_err(case));

            // A solver kept from a good decision rejects it the same
            // way, and still solves the next good one. A configuration
            // cannot change through the API; swapping it in runs the
            // in-place path's own check of it.
            let mut kept = MpoOptimizer::new(SpotWebConfig::default());
            kept.optimize(&catalog, &good, &good_cov, &[0.0; 3])
                .unwrap();
            kept.config = config;
            let got = kept.optimize(&catalog, forecast, cov, &[0.0; 3]);
            assert_eq!(format!("{:?}", got.expect_err(case)), fresh, "{case}");
            kept.config = SpotWebConfig::default();
            let next = kept
                .optimize(&catalog, &good, &good_cov, &[0.0; 3])
                .unwrap();
            assert!(next.solved && next.factor_reused, "{case}: {next:?}");
        }
        // The overflow is the solver's check of `q`.
        let overflowed = MpoOptimizer::new(SpotWebConfig::default())
            .optimize(&catalog, &overflow, &good_cov, &[0.0; 3]);
        assert!(
            matches!(
                overflowed,
                Err(crate::CoreError::Solver(
                    spotweb_solver::SolverError::NonFinite { what: "q" }
                ))
            ),
            "got {overflowed:?}"
        );
    }

    #[test]
    fn a_moved_zero_pattern_reassembles_then_the_values_go_back_in_place() {
        use spotweb_market::MarketHistory;

        // Market 2's failure series turns constant: once the window
        // holds nothing else, `correlation` zeroes its row and column,
        // and `P` stores fewer entries.
        let catalog = Catalog::fig5_three_markets();
        let forecast = flat_forecast(&[2.0, 1.0, 1.2], 4);
        let mut history = MarketHistory::new(3, 4);
        let mut opt = MpoOptimizer::new(SpotWebConfig::default());
        let decide = |history: &MarketHistory, opt: &mut MpoOptimizer| {
            let m = history.correlation(0.1);
            let d = opt.optimize(&catalog, &forecast, &m, &[0.0; 3]).unwrap();
            let fresh = MpoOptimizer::new(SpotWebConfig::default())
                .optimize(&catalog, &forecast, &m, &[0.0; 3])
                .unwrap();
            assert!(d.solved && fresh.solved);
            for (a, b) in d.first().iter().zip(fresh.first()) {
                assert!((a - b).abs() < 1e-6, "kept {a} vs fresh {b}");
            }
            (d, m.as_slice().iter().filter(|&&v| v == 0.0).count())
        };
        for t in 0..4 {
            let x = 0.01 * f64::from(t);
            history.record(&[0.02 + x, 0.05 - 0.5 * x, 0.03 + x * x]);
        }
        let (d, zeros) = decide(&history, &mut opt);
        assert_eq!((d.kkt_factorizations, opt.assemblies, zeros), (1, 1, 0));
        history.record(&[0.06, 0.04, 0.01]);
        let (d, _) = decide(&history, &mut opt);
        assert!(!d.factor_reused, "the correlation moved");
        assert_eq!(opt.assemblies, 1, "same zeros: written in place");

        // Market 2 reads 0.01 from the fifth record on: at the eighth
        // the window holds nothing else.
        for t in 0..2 {
            history.record(&[0.03 + 0.01 * f64::from(t), 0.05, 0.01]);
            let (_, zeros) = decide(&history, &mut opt);
            assert_eq!((opt.assemblies, zeros), (1, 0), "record {t}");
        }
        history.record(&[0.02, 0.03, 0.01]);
        let (d, zeros) = decide(&history, &mut opt);
        assert_eq!(zeros, 4, "market 2 uncorrelated");
        assert_eq!(
            (d.kkt_factorizations, opt.assemblies),
            (1, 2),
            "rebuilt: {d:?}"
        );
        history.record(&[0.05, 0.02, 0.01]);
        let (d, zeros) = decide(&history, &mut opt);
        assert_eq!(zeros, 4);
        assert_eq!(opt.assemblies, 2, "back in place: {d:?}");
    }

    #[test]
    fn a_traced_decision_splits_into_build_check_rebind_and_iterate() {
        let catalog = Catalog::fig5_three_markets();
        let forecast = flat_forecast(&[2.0, 1.0, 1.2], 4);
        let mut opt = MpoOptimizer::new(SpotWebConfig::default());
        let session = prof::begin();
        for _ in 0..2 {
            opt.optimize(&catalog, &forecast, &identity_cov(3), &[0.0; 3])
                .unwrap();
        }
        let tree = session.finish().merged();
        let solve = tree
            .children
            .iter()
            .find(|c| c.name == names::SPAN_MPO_SOLVE)
            .expect("an mpo.solve span");
        let children: Vec<&str> = solve.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(
            children,
            [
                names::SPAN_MPO_SOLVE_BUILD,
                names::SPAN_MPO_SOLVE_CHECK,
                names::SPAN_MPO_SOLVE_ITERATE,
                names::SPAN_MPO_SOLVE_REBIND,
            ]
        );
        assert!(solve.children.iter().all(|c| c.children.is_empty()));
    }

    #[test]
    fn decisions_count_their_polish_solves_and_kkt_factorizations() {
        let catalog = Catalog::fig5_three_markets();
        let forecast = flat_forecast(&[2.0, 1.0, 1.2], 4);
        let mut opt = MpoOptimizer::new(SpotWebConfig::default());
        // Cold: the solver is built (one factorization) and iterates.
        let d1 = opt
            .optimize(&catalog, &forecast, &identity_cov(3), &[0.0; 3])
            .unwrap();
        assert!(d1.polished && d1.iterations > 0);
        assert_eq!(d1.kkt_factorizations, 1);
        assert!(d1.polish_solves >= 1);
        // The same problem again: the warm start is its optimum, and one
        // reduced solve settles it.
        let d2 = opt
            .optimize(&catalog, &forecast, &identity_cov(3), &[0.0; 3])
            .unwrap();
        assert!(d2.warm_started && d2.factor_reused && d2.polished);
        assert_eq!(
            (d2.iterations, d2.polish_solves, d2.kkt_factorizations),
            (0, 1, 0)
        );
        assert_eq!(d2.first(), d1.first());
    }

    #[test]
    fn an_indefinite_risk_matrix_after_a_solve_ends_unsolved_not_in_an_error() {
        // Same pattern as the first covariance, so a solver bound to it
        // would be kept with a `P` whose KKT matrix no longer factors.
        // The check turns it down first and leaves the solver alone.
        let catalog = Catalog::fig5_three_markets();
        let forecast = flat_forecast(&[2.0, 1.0, 1.2], 4);
        let mut opt = MpoOptimizer::new(SpotWebConfig::default());
        let d1 = opt
            .optimize(&catalog, &forecast, &identity_cov(3), &[0.0; 3])
            .unwrap();
        assert!(d1.solved);
        opt.set_warm_start(false);
        let indefinite = Matrix::identity(3).scaled(-1e3);
        let d2 = opt
            .optimize(&catalog, &forecast, &indefinite, d1.first())
            .expect("an unsolved decision, not an error");
        assert!(!d2.factor_reused && !d2.solved && !d2.polished);
        assert_eq!((d2.iterations, d2.kkt_factorizations), (0, 0));
        // The next covariance is the first one again: it solves on the
        // factor the first decision made.
        let d3 = opt
            .optimize(&catalog, &forecast, &identity_cov(3), d1.first())
            .unwrap();
        assert!(d3.solved && d3.factor_reused);
    }

    #[test]
    fn an_indefinite_risk_matrix_is_unsolved_where_the_warm_polish_factors_nothing() {
        // Market 0 is so cheap that the optimum is the vertex (1, 0, 0)
        // in every period: no variable is free, so the warm polish
        // needs no factor of `P` and would settle the decision whatever
        // `P` is.
        let catalog = Catalog::fig5_three_markets();
        let forecast = flat_forecast(&[1.0, 6.0, 6.0], 4);
        let mut opt = MpoOptimizer::new(SpotWebConfig::default());
        let d1 = opt
            .optimize(&catalog, &forecast, &identity_cov(3), &[0.0; 3])
            .unwrap();
        assert!(d1.solved && d1.polished);
        assert_eq!(d1.first(), [1.0, 0.0, 0.0]);
        let indefinite = Matrix::identity(3).scaled(-1e3);
        let d2 = opt
            .optimize(&catalog, &forecast, &indefinite, d1.first())
            .expect("an unsolved decision, not an error");
        assert!(!d2.solved && !d2.polished, "{d2:?}");
        assert_eq!((d2.iterations, d2.kkt_factorizations), (0, 0));
        assert!(d2.plan.iter().all(|p| p == d1.first()));
        // The warm start survives, and a positive definite matrix
        // settles at iteration 0 again.
        let d3 = opt
            .optimize(&catalog, &forecast, &identity_cov(3), d1.first())
            .unwrap();
        assert!(d3.warm_started && d3.solved && d3.polished && d3.iterations == 0);
        assert_eq!(d3.first(), d1.first());
    }

    #[test]
    fn the_covariance_check_passes_singular_and_fails_indefinite_matrices() {
        // Rank one, `vvᵀ`: positive semidefinite and singular, its
        // factorization at round-off without the allowance.
        let v = [1e-2, -3e-3, 7e-3, 2e-3];
        let mut rank_one = Matrix::zeros(4, 4);
        for i in 0..4 {
            for j in 0..4 {
                rank_one[(i, j)] = v[i] * v[j];
            }
        }
        assert!(is_psd(&rank_one));
        assert!(is_psd(&Matrix::zeros(4, 4)));
        // An eigenvalue of −1e-6 against entries of 1e-2 is no
        // round-off: `vvᵀ − 1e-6·uuᵀ` with `u` orthogonal to `v`.
        let u = [3e-3 / 1e-2, 1.0, 0.0, 0.0];
        let norm2: f64 = u.iter().map(|x| x * x).sum();
        let mut indefinite = rank_one.clone();
        for i in 0..4 {
            for j in 0..4 {
                indefinite[(i, j)] -= 1e-6 * u[i] * u[j] / norm2;
            }
        }
        assert!(!is_psd(&indefinite));
        assert!(!is_psd(&Matrix::identity(3).scaled(-1e3)));
    }
}
