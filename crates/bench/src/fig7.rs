//! Figure 7 — sensitivity and scalability.
//!
//! * **Fig. 7(a)**: cost savings as a function of workload-prediction
//!   error. Paper: savings degrade gracefully as the error grows but
//!   stay positive even at large errors (SpotWeb's own predictor sits
//!   at 3–5% error).
//! * **Fig. 7(b)**: optimizer wall-clock time vs number of markets ×
//!   look-ahead horizon. Paper: sub-second to ~5 s, scaling
//!   *sub-linearly* in the number of markets.

use std::time::Instant;

use serde::Serialize;
use spotweb_core::evaluate::EvalOptions;
use spotweb_core::{
    simulate_costs, ExoSpherePolicy, ForecastBundle, MpoOptimizer, SpotWebConfig, SpotWebPolicy,
};
use spotweb_linalg::Matrix;
use spotweb_market::{Catalog, InstanceType};
use spotweb_predict::{NoisyPredictor, SpotWebPredictor};
use spotweb_workload::wikipedia_like;

/// One Fig. 7(a) row.
#[derive(Debug, Clone, Serialize)]
pub struct Fig7aRow {
    /// Injected relative prediction-error level (0.1 = ±10%).
    pub error_level: f64,
    /// SpotWeb total cost ($).
    pub spotweb_cost: f64,
    /// Savings vs the ExoSphere-in-a-loop reference.
    pub savings: f64,
}

/// Fig. 7(a) output.
#[derive(Debug, Clone, Serialize)]
pub struct Fig7a {
    /// ExoSphere reference cost ($).
    pub exosphere_cost: f64,
    /// Sweep rows.
    pub rows: Vec<Fig7aRow>,
}

/// Run Fig. 7(a): sweep injected error on SpotWeb's workload forecasts.
pub fn run_fig7a(error_levels: &[f64], intervals: usize, seed: u64) -> Fig7a {
    let n = 9;
    let catalog = Catalog::ec2_subset(n);
    let trace = wikipedia_like(intervals + 16, seed).with_mean(20_000.0);
    let options = EvalOptions {
        intervals,
        seed,
        ..EvalOptions::default()
    };
    let mut exo = ExoSpherePolicy::new(SpotWebConfig::default(), n);
    let exosphere_cost = simulate_costs(&mut exo, &catalog, &trace, &options).total_cost();
    let rows = error_levels
        .iter()
        .map(|&e| {
            let predictor = NoisyPredictor::new(SpotWebPredictor::new(), e, seed ^ 0xE44);
            let mut sw =
                SpotWebPolicy::with_predictor(SpotWebConfig::default(), n, Box::new(predictor));
            let cost = simulate_costs(&mut sw, &catalog, &trace, &options).total_cost();
            Fig7aRow {
                error_level: e,
                spotweb_cost: cost,
                savings: 1.0 - cost / exosphere_cost,
            }
        })
        .collect();
    Fig7a {
        exosphere_cost,
        rows,
    }
}

/// One Fig. 7(b) cell: solve-time stats over repeated optimizations.
#[derive(Debug, Clone, Serialize)]
pub struct Fig7bCell {
    /// Markets in the catalog.
    pub markets: usize,
    /// Look-ahead horizon.
    pub horizon: usize,
    /// Decision variables (markets × horizon).
    pub variables: usize,
    /// Minimum solve time (s).
    pub min_secs: f64,
    /// Median solve time (s).
    pub median_secs: f64,
    /// Maximum solve time (s).
    pub max_secs: f64,
}

/// Fig. 7(b) output.
#[derive(Debug, Clone, Serialize)]
pub struct Fig7b {
    /// All (markets × horizon) cells.
    pub cells: Vec<Fig7bCell>,
}

/// A synthetic catalog of `n` markets (extends beyond the 36 EC2 types
/// for the scalability sweep, as public clouds now list hundreds of
/// configurations).
pub fn synthetic_catalog(n: usize) -> Catalog {
    if n <= 36 {
        return Catalog::ec2_subset(n);
    }
    let types: Vec<InstanceType> = (0..n)
        .map(|i| {
            let vcpus = [2u32, 4, 8, 16, 32, 48, 64, 96][i % 8];
            let price = vcpus as f64 * 0.05 * (1.0 + 0.1 * ((i / 8) as f64));
            InstanceType::new(
                &format!("syn{}.{}x", i / 8, vcpus),
                vcpus,
                vcpus as f64 * 4.0,
                price,
            )
        })
        .collect();
    let probs: Vec<f64> = (0..n).map(|i| 0.03 + 0.03 * ((i % 4) as f64)).collect();
    Catalog::new(types, probs, false)
}

/// Run Fig. 7(b): time `repeats` receding-horizon optimizations per
/// (markets, horizon) cell, with realistic (warm-started) operation.
pub fn run_fig7b(market_counts: &[usize], horizons: &[usize], repeats: usize, seed: u64) -> Fig7b {
    assert!(repeats >= 1);
    let mut cells = Vec::new();
    for &n in market_counts {
        let catalog = synthetic_catalog(n);
        let base_prices: Vec<f64> = catalog
            .markets()
            .iter()
            .map(|m| m.instance.on_demand_price * 0.3)
            .collect();
        let failures: Vec<f64> = catalog
            .markets()
            .iter()
            .map(|m| m.base_revocation_prob)
            .collect();
        // A mildly correlated covariance keeps the risk term non-trivial.
        let mut cov = Matrix::identity(n).scaled(1e-3);
        for i in 0..n {
            for j in 0..n {
                if i != j && i % 4 == j % 4 {
                    cov[(i, j)] = 2e-4;
                }
            }
        }
        for &h in horizons {
            let mut opt = MpoOptimizer::new(SpotWebConfig::default().with_horizon(h));
            let mut prev = vec![0.0; n];
            let mut times = Vec::with_capacity(repeats);
            for r in 0..repeats {
                // Perturb prices per repeat (receding-horizon realism).
                let scale = 1.0 + 0.02 * ((r as f64 + seed as f64 % 7.0).sin());
                let prices: Vec<f64> = base_prices.iter().map(|p| p * scale).collect();
                let forecast = ForecastBundle::flat(20_000.0, &prices, &failures, h);
                #[expect(
                    clippy::disallowed_methods,
                    reason = "Fig. 7(b) optimizer scalability is a timing figure; its seconds are declared machine-dependent and reach no golden"
                )]
                let started = Instant::now();
                let d = opt
                    .optimize(&catalog, &forecast, &cov, &prev)
                    .expect("solvable portfolio");
                times.push(started.elapsed().as_secs_f64());
                prev = d.first().to_vec();
            }
            times.sort_by(f64::total_cmp);
            cells.push(Fig7bCell {
                markets: n,
                horizon: h,
                variables: n * h,
                min_secs: times[0],
                median_secs: times[times.len() / 2],
                max_secs: times[times.len() - 1],
            });
        }
    }
    Fig7b { cells }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7a_savings_decay_but_stay_positive() {
        // The paper's sweep: savings decrease as prediction error grows
        // but remain positive in the realistic error regime (SpotWeb's
        // own predictor sits at 3–5% error).
        let f = run_fig7a(&[0.05, 0.2], 72, crate::DEFAULT_SEED);
        assert_eq!(f.rows.len(), 2);
        assert!(
            f.rows[0].savings > 0.1,
            "low-error savings {}",
            f.rows[0].savings
        );
        assert!(
            f.rows[1].savings > 0.0,
            "20% error savings {}",
            f.rows[1].savings
        );
        assert!(
            f.rows[0].savings > f.rows[1].savings,
            "savings must decay with error"
        );
    }

    #[test]
    fn fig7b_times_are_sane_and_subquadratic() {
        let f = run_fig7b(&[9, 36], &[4], 3, 1);
        assert_eq!(f.cells.len(), 2);
        for c in &f.cells {
            assert!(c.median_secs > 0.0 && c.median_secs < 30.0);
        }
        // 4× markets should cost far less than 16× time once warm
        // (sub-linear claim is asserted loosely — debug builds jitter).
        let t9 = f.cells[0].median_secs;
        let t36 = f.cells[1].median_secs;
        assert!(t36 < 64.0 * t9.max(1e-4), "scaling blow-up: {t9} → {t36}");
    }

    #[test]
    fn synthetic_catalog_extends() {
        assert_eq!(synthetic_catalog(20).len(), 20);
        let big = synthetic_catalog(72);
        assert_eq!(big.len(), 72);
        assert!(big.markets().iter().all(|m| m.capacity_rps() > 0.0));
    }
}
