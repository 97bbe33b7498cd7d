//! Figure 6 — cost savings against the state of the art.
//!
//! * **Fig. 6(a)**: SpotWeb (oracle forecasts, look-ahead 2 and 4) vs a
//!   constant portfolio + oracle autoscaler on the three Fig. 5
//!   markets. Paper: SpotWeb's cost is ~37% lower.
//! * **Fig. 6(b)**: SpotWeb (look-ahead ∈ {2, 4, 6, 10}) vs ExoSphere
//!   re-run every interval, sweeping the number of markets. Paper:
//!   savings up to 50%, growing with the number of markets, and
//!   roughly flat in the look-ahead horizon; ~25% on the spiky VoD
//!   workload.

use serde::Serialize;
use spotweb_core::evaluate::EvalOptions;
use spotweb_core::{
    simulate_costs, ConstantPortfolioPolicy, ExoSpherePolicy, SpotWebConfig, SpotWebPolicy,
};
use spotweb_market::Catalog;
use spotweb_workload::{vod_like, wikipedia_like, Trace};

/// One Fig. 6(a) row.
#[derive(Debug, Clone, Serialize)]
pub struct Fig6aRow {
    /// Look-ahead horizon.
    pub horizon: usize,
    /// SpotWeb total cost ($).
    pub spotweb_cost: f64,
    /// Constant-portfolio total cost ($).
    pub constant_cost: f64,
    /// Relative savings (1 − spotweb/constant).
    pub savings: f64,
}

/// Fig. 6(a) output.
#[derive(Debug, Clone, Serialize)]
pub struct Fig6a {
    /// Rows for the swept horizons.
    pub rows: Vec<Fig6aRow>,
}

/// Run Fig. 6(a): oracle predictors, three markets, no revocations
/// (the experiment isolates price dynamics).
pub fn run_fig6a(intervals: usize, seed: u64) -> Fig6a {
    let catalog = Catalog::fig5_three_markets();
    let trace = wikipedia_like(intervals + 16, seed).with_mean(30_000.0);
    let options = EvalOptions {
        intervals,
        seed,
        oracle: true,
        oracle_horizon: 12,
        revocations: false,
        ..EvalOptions::default()
    };
    // As in Fig. 5: equal revocation probabilities across the three
    // markets → the risk term is uninformative; a small α isolates the
    // price dynamics the experiment studies.
    let config = SpotWebConfig {
        alpha: 0.2,
        ..SpotWebConfig::default()
    };
    let mut constant = ConstantPortfolioPolicy::new(config.clone(), catalog.len(), 2);
    let constant_cost = simulate_costs(&mut constant, &catalog, &trace, &options).total_cost();

    let rows = [2usize, 4]
        .iter()
        .map(|&h| {
            let mut sw = SpotWebPolicy::new(config.with_horizon(h), catalog.len());
            let cost = simulate_costs(&mut sw, &catalog, &trace, &options).total_cost();
            Fig6aRow {
                horizon: h,
                spotweb_cost: cost,
                constant_cost,
                savings: 1.0 - cost / constant_cost,
            }
        })
        .collect();
    Fig6a { rows }
}

/// One Fig. 6(b) cell.
#[derive(Debug, Clone, Serialize)]
pub struct Fig6bCell {
    /// Number of markets considered.
    pub markets: usize,
    /// SpotWeb look-ahead horizon.
    pub horizon: usize,
    /// SpotWeb total cost ($).
    pub spotweb_cost: f64,
    /// ExoSphere-in-a-loop total cost ($).
    pub exosphere_cost: f64,
    /// Relative savings.
    pub savings: f64,
}

/// Fig. 6(b) output.
#[derive(Debug, Clone, Serialize)]
pub struct Fig6b {
    /// Workload used (`"wikipedia"` or `"vod"`).
    pub workload: String,
    /// All (markets × horizon) cells.
    pub cells: Vec<Fig6bCell>,
}

/// Which workload Fig. 6(b) runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fig6bWorkload {
    /// The smooth Wikipedia-like trace (headline ~50% savings).
    Wikipedia,
    /// The spiky VoD trace (~25% savings, §6.4).
    Vod,
}

/// Market counts `figures fig6b` sweeps.
pub const FIG6B_MARKETS: [usize; 3] = [9, 18, 36];

/// Horizons `figures fig6b` sweeps.
pub const FIG6B_HORIZONS: [usize; 4] = [2, 4, 6, 10];

/// Run Fig. 6(b): deployable predictors (no oracle), revocations on.
pub fn run_fig6b(
    workload: Fig6bWorkload,
    market_counts: &[usize],
    horizons: &[usize],
    intervals: usize,
    seed: u64,
) -> Fig6b {
    let trace: Trace = match workload {
        Fig6bWorkload::Wikipedia => wikipedia_like(intervals + 16, seed).with_mean(20_000.0),
        Fig6bWorkload::Vod => vod_like(intervals + 16, seed).with_mean(20_000.0),
    };
    let options = EvalOptions {
        intervals,
        seed,
        oracle: false,
        ..EvalOptions::default()
    };
    let mut cells = Vec::new();
    for &n in market_counts {
        let catalog = Catalog::ec2_subset(n);
        let mut exo = ExoSpherePolicy::new(SpotWebConfig::default(), n);
        let exo_cost = simulate_costs(&mut exo, &catalog, &trace, &options).total_cost();
        for &h in horizons {
            let mut sw = SpotWebPolicy::new(SpotWebConfig::default().with_horizon(h), n);
            let cost = simulate_costs(&mut sw, &catalog, &trace, &options).total_cost();
            cells.push(Fig6bCell {
                markets: n,
                horizon: h,
                spotweb_cost: cost,
                exosphere_cost: exo_cost,
                savings: 1.0 - cost / exo_cost,
            });
        }
    }
    Fig6b {
        workload: match workload {
            Fig6bWorkload::Wikipedia => "wikipedia".into(),
            Fig6bWorkload::Vod => "vod".into(),
        },
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6a_spotweb_beats_constant_portfolio() {
        let f = run_fig6a(72, crate::DEFAULT_SEED);
        for row in &f.rows {
            assert!(
                row.savings > 0.05,
                "H={} savings {} too small",
                row.horizon,
                row.savings
            );
        }
    }

    #[test]
    fn fig6b_spotweb_beats_exosphere() {
        let f = run_fig6b(
            Fig6bWorkload::Wikipedia,
            &[9],
            &[4],
            96,
            crate::DEFAULT_SEED,
        );
        let c = &f.cells[0];
        assert!(
            c.savings > 0.0,
            "spotweb {} vs exosphere {}",
            c.spotweb_cost,
            c.exosphere_cost
        );
    }
}
