//! `figures sweep`: the deterministic policy × scenario × seed grid,
//! fanned out over `spotweb_sim::sweep::parallel_map` workers.
//!
//! Each grid entry is a [`Cell`]: one chaos scenario replayed through
//! the full stack with its own seeded cloud and its own telemetry
//! sink. Per-run summaries ([`RunSummary`]) are a pure function of
//! (policy, scenario, seed): the command runs the grid at `--jobs 1`
//! and at `--jobs J` and proves the two renderings byte-identical via
//! FNV digests. What a pass costs on the clock, and what `--jobs` buys,
//! is `benchmark/`'s to say (`sim.sweep.parallel_speedup_at_nproc`).

use spotweb_core::{ForecastBundle, MpoOptimizer, SpotWebConfig};
use spotweb_linalg::Matrix;
use spotweb_market::Catalog;
use spotweb_sim::sweep::{digest, parallel_map, RunSummary};

use crate::cell::{grid, scenario_axis, Cell};

/// Policy names the sweep grid runs.
pub const SWEEP_POLICIES: &[&str] = &["spotweb", "reactive"];

/// Build the grid: every sweep policy × the requested scenarios ×
/// `seed`. `scenario` restricts to one scenario (leniently spelled);
/// `None` sweeps all of them.
pub fn build_grid(scenario: Option<&str>, seed: u64) -> Result<Vec<Cell>, String> {
    Ok(grid(SWEEP_POLICIES, &scenario_axis(scenario)?, &[seed]))
}

/// Run `cells` at `jobs` workers; summaries in grid order.
pub fn run_grid(jobs: usize, cells: Vec<Cell>) -> Vec<RunSummary> {
    parallel_map(jobs, cells, |_, cell| cell.run().summary())
}

/// A grid that rendered the same bytes at `--jobs 1` and at `--jobs J`:
/// the determinism proof every grid command makes before it renders
/// anything.
pub struct VerifiedGrid {
    /// Per-cell summaries, grid order.
    pub summaries: Vec<RunSummary>,
    /// FNV digest over those summaries.
    pub digest: String,
}

/// Run `cells` serially, run them again at `jobs` workers, and compare
/// the two renderings line for line and as digests. A mismatch is the
/// determinism contract broken, and an error.
pub fn run_grid_verified(jobs: usize, cells: Vec<Cell>) -> Result<VerifiedGrid, String> {
    let serial = run_grid(1, cells.clone());
    let summaries = run_grid(jobs, cells);
    let (digest_serial, digest_parallel) = (digest(&serial), digest(&summaries));
    let same_lines = serial
        .iter()
        .zip(&summaries)
        .all(|(a, b)| a.to_json() == b.to_json());
    if digest_serial != digest_parallel || !same_lines {
        return Err(format!(
            "grid at --jobs {jobs} diverged from --jobs 1 (determinism contract violated): \
             digest {digest_parallel} vs {digest_serial}"
        ));
    }
    Ok(VerifiedGrid {
        summaries,
        digest: digest_parallel,
    })
}

/// Mean ADMM iterations per MPO solve with the receding-horizon warm
/// start on vs off, measured on a deterministic 18-market, H=4
/// price-drift sequence (the Fig. 7(b) shape). The first solve of each
/// sequence is cold by construction and excluded from both means.
#[derive(Debug, Clone)]
pub struct WarmStartStats {
    /// Markets in the probe problem.
    pub markets: usize,
    /// Horizon of the probe problem.
    pub horizon: usize,
    /// Solves averaged (per mode, excluding the first).
    pub solves: usize,
    /// Mean iterations per solve, warm start disabled.
    pub cold_mean_iterations: f64,
    /// Mean iterations per solve, warm start enabled.
    pub warm_mean_iterations: f64,
}

impl WarmStartStats {
    /// Fraction of cold-start iterations the warm start saves.
    pub fn saved_fraction(&self) -> f64 {
        if self.cold_mean_iterations == 0.0 {
            0.0
        } else {
            1.0 - self.warm_mean_iterations / self.cold_mean_iterations
        }
    }
}

/// Measure [`WarmStartStats`]: run the same 8-interval receding-horizon
/// sequence twice — warm start enabled vs disabled — and average the
/// per-solve ADMM iterations. Fully deterministic (the price drift is
/// a fixed arithmetic pattern, no RNG).
pub fn warm_start_probe() -> WarmStartStats {
    const MARKETS: usize = 18;
    const INTERVALS: usize = 8;
    let catalog = Catalog::ec2_subset(MARKETS);
    let config = SpotWebConfig::default();
    let horizon = config.horizon;
    let base_prices: Vec<f64> = catalog
        .markets()
        .iter()
        .map(|m| m.instance.on_demand_price * 0.3)
        .collect();
    let fails = vec![0.05; MARKETS];
    let cov = Matrix::identity(MARKETS).scaled(1e-4);

    let run = |warm: bool| -> Vec<usize> {
        let mut opt = MpoOptimizer::new(config.clone());
        opt.set_warm_start(warm);
        let mut prev = vec![0.0; MARKETS];
        let mut iters = Vec::with_capacity(INTERVALS);
        for t in 0..INTERVALS {
            // Small deterministic drift so consecutive problems differ
            // the way live price forecasts do.
            let prices: Vec<f64> = base_prices
                .iter()
                .enumerate()
                .map(|(i, p)| p * (1.0 + 0.01 * ((t * 7 + i * 3) % 5) as f64))
                .collect();
            let workload = 5000.0 + 100.0 * t as f64;
            let forecast = ForecastBundle::flat(workload, &prices, &fails, horizon);
            let d = opt
                .optimize(&catalog, &forecast, &cov, &prev)
                .expect("probe problem is well-posed");
            prev = d.first().to_vec();
            iters.push(d.iterations);
        }
        iters
    };

    let mean_tail = |iters: &[usize]| -> f64 {
        let tail = &iters[1..];
        tail.iter().sum::<usize>() as f64 / tail.len() as f64
    };
    let cold = run(false);
    let warm = run(true);
    WarmStartStats {
        markets: MARKETS,
        horizon,
        solves: INTERVALS - 1,
        cold_mean_iterations: mean_tail(&cold),
        warm_mean_iterations: mean_tail(&warm),
    }
}

/// Result of [`run_command`]: the deterministic stdout body and its
/// digest.
pub struct SweepOutput {
    /// Per-run JSON lines (byte-stable, grid order) for stdout.
    pub summary_lines: String,
    /// FNV digest over the summaries (the value `tests/sweep.rs` pins).
    pub digest: String,
}

/// Execute the sweep command: run the grid serially, run it again at
/// `jobs` workers, verify byte-identical summaries, and render the
/// stdout body.
pub fn run_command(jobs: usize, scenario: Option<&str>, seed: u64) -> Result<SweepOutput, String> {
    let run = run_grid_verified(jobs, build_grid(scenario, seed)?)?;
    Ok(SweepOutput {
        summary_lines: run.summaries.iter().map(|s| s.to_json() + "\n").collect(),
        digest: run.digest,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::SCENARIOS;

    #[test]
    fn grid_covers_policies_and_scenarios() {
        let grid = build_grid(None, 1234).unwrap();
        assert_eq!(grid.len(), SWEEP_POLICIES.len() * SCENARIOS.len());
        let one = build_grid(Some("revocation_storm"), 7).unwrap();
        assert_eq!(one.len(), SWEEP_POLICIES.len());
        assert!(one.iter().all(|s| s.scenario == "revocation-storm"));
    }

    #[test]
    fn sweep_runs_are_deterministic_across_job_counts() {
        // Small grid (one scenario) to keep the double pass cheap; the
        // root tests/sweep.rs golden test covers the CLI-visible path.
        let run = run_grid_verified(4, build_grid(Some("zero-warning"), 1234).unwrap())
            .expect("sweep output must be byte-identical at any jobs");
        // The spotweb run actually exercised the optimizer.
        let spot = &run.summaries[0];
        assert_eq!(spot.policy, "spotweb");
        assert!(spot.mpo_solves > 0);
        assert!(spot.admm_iterations > 0);
    }

    #[test]
    fn warm_start_probe_shows_iteration_savings() {
        let stats = warm_start_probe();
        assert!(
            stats.warm_mean_iterations < stats.cold_mean_iterations,
            "warm {} vs cold {}",
            stats.warm_mean_iterations,
            stats.cold_mean_iterations
        );
        assert!(stats.saved_fraction() > 0.0);
    }
}
