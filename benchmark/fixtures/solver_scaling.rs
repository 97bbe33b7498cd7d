//! `solver_scaling`: the Fig. 7(b) grid solved cold. Same `core::mpo`,
//! `solver` and `linalg` layers as `control_plane`, used the other
//! way round: factorization and cold ADMM at up to 1 440 variables
//! instead of warm re-solves at 144. A warm-path gain that taxes
//! set-up, or the reverse, shows here.

use spotweb_core::portfolio::PortfolioProblem;
use spotweb_core::{ForecastBundle, MpoOptimizer, PortfolioDecision, SpotWebConfig};
use spotweb_linalg::block_tridiag::BlockTridiagCholesky;
use spotweb_linalg::cholesky::Cholesky;
use spotweb_linalg::Matrix;
use spotweb_market::{Catalog, InstanceType};
use spotweb_solver::{AdmmSolver, Settings};
use spotweb_telemetry::prof::{self, MergedNode};
use spotweb_workload::rng::{stream_id, CounterStream, DOMAIN_NOISE};

use crate::ledger::Ledger;
use crate::measure::{median, repeat_for, timed, Digest, Stopwatch};
use crate::{Outcome, Tally, Workload};

/// (markets, horizon, metric suffix) of the Fig. 7(b) cells.
const GRID: [(usize, usize, &str); 6] = [
    (36, 4, "n36_h4"),
    (36, 10, "n36_h10"),
    (72, 4, "n72_h4"),
    (72, 10, "n72_h10"),
    (144, 4, "n144_h4"),
    (144, 10, "n144_h10"),
];
const SMALLEST: usize = 0;
const LARGEST: usize = GRID.len() - 1;
const FORECAST_RPS: f64 = 20_000.0;

struct Cell {
    horizon: usize,
    label: &'static str,
    catalog: Catalog,
    prices: Vec<f64>,
    failures: Vec<f64>,
    covariance: Matrix,
}

pub struct SolverScaling {
    cells: Vec<Cell>,
}

/// What one cold solve of one cell took and found.
struct ColdSolve {
    secs: f64,
    iterations: usize,
}

/// `n` markets: the EC2 catalog up to 36, beyond that the synthetic
/// extension the Fig. 7(b) sweep defines (eight sizes, price and
/// revocation probability stepping with the index).
fn catalog_of(n: usize) -> Catalog {
    if n <= 36 {
        return Catalog::ec2_subset(n);
    }
    const VCPUS: [u32; 8] = [2, 4, 8, 16, 32, 48, 64, 96];
    let types = (0..n)
        .map(|i| {
            let vcpus = VCPUS[i % 8];
            let family = i / 8;
            let price = f64::from(vcpus) * 0.05 * (1.0 + 0.1 * family as f64);
            InstanceType::new(
                &format!("syn{family}.{vcpus}x"),
                vcpus,
                f64::from(vcpus) * 4.0,
                price,
            )
        })
        .collect();
    let revocation_probs = (0..n).map(|i| 0.03 + 0.03 * (i % 4) as f64).collect();
    Catalog::new(types, revocation_probs, false)
}

impl Cell {
    fn forecast(&self, price_scale: f64) -> ForecastBundle {
        let prices: Vec<f64> = self.prices.iter().map(|p| p * price_scale).collect();
        ForecastBundle::flat(FORECAST_RPS, &prices, &self.failures, self.horizon)
    }

    fn optimizer(&self) -> MpoOptimizer {
        MpoOptimizer::new(SpotWebConfig::default().with_horizon(self.horizon))
    }

    fn solve(&self, optimizer: &mut MpoOptimizer, price_scale: f64) -> (PortfolioDecision, f64) {
        let forecast = self.forecast(price_scale);
        let nothing_deployed = vec![0.0; self.catalog.len()];
        let mut watch = Stopwatch::start();
        let decision = optimizer
            .optimize(
                &self.catalog,
                &forecast,
                &self.covariance,
                &nothing_deployed,
            )
            .expect("the grid's portfolios are well-formed");
        (decision, watch.lap())
    }
}

impl SolverScaling {
    /// Every cell once, each on a fresh optimizer: nothing to warm-start
    /// from, no factorization to reuse.
    fn pass(&self) -> (Outcome, Vec<ColdSolve>) {
        let mut digest = Digest::new();
        let mut unsolved = 0;
        let mut solves = Vec::with_capacity(self.cells.len());
        for cell in &self.cells {
            let (decision, secs) = cell.solve(&mut cell.optimizer(), 1.0);
            unsolved += u64::from(!decision.solved);
            digest.u64(decision.iterations as u64);
            for share in decision.plan.iter().flatten() {
                digest.f64(*share);
            }
            solves.push(ColdSolve {
                secs,
                iterations: decision.iterations,
            });
        }
        let outcome = Outcome {
            digest: digest.finish(),
            ops: self.cells.len() as u64,
            failed: unsolved,
            requests: 0,
            parts: solves.iter().map(|s| s.secs).collect(),
            decisions: 0,
            sim: None,
        };
        (outcome, solves)
    }
}

impl Workload for SolverScaling {
    fn setup(seed: u64) -> Self {
        let cells = GRID
            .iter()
            .enumerate()
            .map(|(index, &(markets, horizon, label))| {
                let catalog = catalog_of(markets);
                let prices = catalog
                    .markets()
                    .iter()
                    .map(|m| m.instance.on_demand_price * 0.3)
                    .collect();
                let failures = catalog
                    .markets()
                    .iter()
                    .map(|m| m.base_revocation_prob)
                    .collect();
                // The seed scales the risk by up to five percent and
                // leaves prices alone: ADMM's iteration count is chaotic
                // in per-market price noise (80 to 1 510 iterations on
                // the largest cell for a 2 % jitter), which would make
                // every seed a different amount of work.
                let draws = CounterStream::new(seed, stream_id(DOMAIN_NOISE, index as u64));
                let variance = 1e-3 * (1.0 + 0.05 * draws.unit_f64_at(0));
                // Mildly correlated: every fourth market moves together.
                let mut covariance = Matrix::identity(markets).scaled(variance);
                for i in 0..markets {
                    for j in 0..markets {
                        if i != j && i % 4 == j % 4 {
                            covariance[(i, j)] = 2e-4;
                        }
                    }
                }
                Cell {
                    horizon,
                    label,
                    catalog,
                    prices,
                    failures,
                    covariance,
                }
            })
            .collect();
        SolverScaling { cells }
    }

    fn rep(&self) -> Outcome {
        self.pass().0
    }

    fn traced(
        &self,
        seconds: f64,
        reference: &Outcome,
        ledger: &mut Ledger,
        tally: &mut Tally,
    ) -> MergedNode {
        let session = prof::begin();

        let mut cold: Vec<Vec<f64>> = vec![Vec::new(); self.cells.len()];
        let mut iterations = Vec::new();
        {
            let _span = prof::ScopeGuard::enter("bench.solver_scaling.cold_grid");
            repeat_for(seconds * 0.6, 2, || {
                let (outcome, solves) = self.pass();
                tally.check(&outcome, reference);
                for (samples, solve) in cold.iter_mut().zip(&solves) {
                    samples.push(solve.secs);
                }
                iterations = solves.iter().map(|s| s.iterations).collect();
            });
        }
        let cold_ms: Vec<f64> = cold.iter().map(|samples| median(samples) * 1e3).collect();
        for (cell, ms) in self.cells.iter().zip(&cold_ms) {
            ledger.layer(&format!("core.mpo.cold_ms.{}", cell.label), "ms", *ms);
        }
        ledger.layer("core.mpo.scaling_exponent", "x", {
            let points: Vec<(f64, f64)> = self
                .cells
                .iter()
                .zip(&cold_ms)
                .map(|(cell, ms)| (((cell.catalog.len() * cell.horizon) as f64).ln(), ms.ln()))
                .collect();
            log_log_slope(&points)
        });

        for index in [SMALLEST, LARGEST] {
            let cell = &self.cells[index];
            ledger.layer_exact(
                &format!("solver.admm.iters.{}", cell.label),
                "count",
                iterations[index] as f64,
            );
            // The receding-horizon step: same optimizer, same
            // covariance, prices moved by one percent.
            let _span = prof::ScopeGuard::enter("bench.solver_scaling.warm");
            let mut warm = Vec::new();
            repeat_for(seconds * 0.05, 2, || {
                let mut optimizer = cell.optimizer();
                cell.solve(&mut optimizer, 1.0);
                let (decision, secs) = cell.solve(&mut optimizer, 1.01);
                assert!(decision.warm_started && decision.factor_reused);
                tally.attempted += 1;
                tally.failed += u64::from(!decision.solved);
                warm.push(secs);
            });
            ledger.layer(
                &format!("core.mpo.warm_ms.{}", cell.label),
                "ms",
                median(&warm) * 1e3,
            );
        }

        self.factor_probes(seconds * 0.3, ledger);
        session.finish().merged()
    }
}

impl SolverScaling {
    /// The largest cell's QP taken apart: ADMM set-up against solve,
    /// and the two factorizations `solver` chooses between.
    fn factor_probes(&self, seconds: f64, ledger: &mut Ledger) {
        let cell = &self.cells[LARGEST];
        let markets = cell.catalog.len();
        let config = SpotWebConfig::default().with_horizon(cell.horizon);
        let problem = PortfolioProblem::build(
            &cell.catalog,
            &cell.forecast(1.0),
            &cell.covariance,
            &vec![0.0; markets],
            &config,
        )
        .expect("the grid's portfolios are well-formed");

        let (mut setups, mut solves) = (Vec::new(), Vec::new());
        {
            let _span = prof::ScopeGuard::enter("bench.solver.admm.v1440");
            repeat_for(seconds * 0.4, 2, || {
                let (solver, setup) = timed(|| {
                    AdmmSolver::with_block_structure(
                        problem.qp.clone(),
                        Settings::default(),
                        markets,
                    )
                });
                let mut solver = solver.expect("the portfolio QP is block-tridiagonal");
                setups.push(setup);
                solves.push(timed(|| std::hint::black_box(solver.solve())).1);
            });
        }
        ledger.layer("solver.admm.setup_ms.v1440", "ms", median(&setups) * 1e3);
        ledger.layer("solver.admm.solve_ms.v1440", "ms", median(&solves) * 1e3);

        // P plus the identity: positive definite, P's sparsity.
        let mut dense = problem.qp.p.clone();
        dense.add_diag_mut(1.0);
        let block = |row: usize, col: usize| {
            let mut out = Matrix::zeros(markets, markets);
            for i in 0..markets {
                for j in 0..markets {
                    out[(i, j)] = dense[(row * markets + i, col * markets + j)];
                }
            }
            out
        };
        let diagonal: Vec<Matrix> = (0..cell.horizon).map(|t| block(t, t)).collect();
        let coupling: Vec<Matrix> = (1..cell.horizon).map(|t| block(t, t - 1)).collect();

        let dense_factor = {
            let _span = prof::ScopeGuard::enter("bench.linalg.cholesky.d1440");
            repeat_for(seconds * 0.4, 2, || {
                std::hint::black_box(Cholesky::factor(&dense).expect("positive definite"));
            })
        };
        ledger.layer(
            "linalg.cholesky.factor_ms.d1440",
            "ms",
            median(&dense_factor) * 1e3,
        );
        let block_factor = {
            let _span = prof::ScopeGuard::enter("bench.linalg.block_tridiag.b144x10");
            repeat_for(seconds * 0.2, 2, || {
                std::hint::black_box(
                    BlockTridiagCholesky::factor(&diagonal, &coupling).expect("positive definite"),
                );
            })
        };
        ledger.layer(
            "linalg.block_tridiag.factor_ms.b144x10",
            "ms",
            median(&block_factor) * 1e3,
        );
    }
}

/// Least-squares slope of `y` on `x`.
fn log_log_slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let mean_x = points.iter().map(|p| p.0).sum::<f64>() / n;
    let mean_y = points.iter().map(|p| p.1).sum::<f64>() / n;
    let covariance: f64 = points.iter().map(|p| (p.0 - mean_x) * (p.1 - mean_y)).sum();
    let variance: f64 = points.iter().map(|p| (p.0 - mean_x).powi(2)).sum();
    covariance / variance
}
