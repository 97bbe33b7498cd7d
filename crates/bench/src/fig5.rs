//! Figure 5 — the benefit of price awareness.
//!
//! Three markets (r5d.24xlarge, r5.4xlarge, r4.4xlarge); prices move,
//! so the cheapest market changes over time (Fig. 5(a)). A constant
//! portfolio frozen after two hours with an oracle autoscaler keeps
//! buying the same mix (Fig. 5(c)); MPO shifts the portfolio to
//! whichever market is cheap (Fig. 5(d)).

use serde::Serialize;
use spotweb_core::evaluate::EvalOptions;
use spotweb_core::{simulate_costs, ConstantPortfolioPolicy, SpotWebConfig, SpotWebPolicy};
use spotweb_market::{Catalog, CloudSim};
use spotweb_workload::wikipedia_like;

/// Fig. 5 output.
#[derive(Debug, Clone, Serialize)]
pub struct Fig5 {
    /// Market names, indexed like the series below.
    pub markets: Vec<String>,
    /// Fig. 5(a): per-request price per interval per market ($/req·h⁻¹·r⁻¹,
    /// i.e. hourly price divided by capacity).
    pub per_request_prices: Vec<Vec<f64>>,
    /// Fig. 5(b)-style zoomed workload (req/s per interval).
    pub workload: Vec<f64>,
    /// Fig. 5(c): constant-portfolio fleet per interval (servers/market).
    pub constant_fleet: Vec<Vec<u32>>,
    /// Fig. 5(d): MPO fleet per interval.
    pub mpo_fleet: Vec<Vec<u32>>,
    /// Totals for the two policies ($).
    pub constant_cost: f64,
    /// MPO total cost ($).
    pub mpo_cost: f64,
}

/// SpotWeb configuration for the price-awareness experiments: the
/// paper assumes *equal* sub-5% revocation probabilities across the
/// three markets, so the risk term carries no information — a small α
/// keeps the experiment about price dynamics. The workload is scaled
/// up so integer-server quantization (the 1920-req/s r5d instance is
/// chunky) does not drown the price signal.
fn price_experiment_config() -> SpotWebConfig {
    SpotWebConfig {
        alpha: 0.2,
        ..SpotWebConfig::default()
    }
}

/// Mean workload for the price-awareness experiments (req/s).
const PRICE_EXPERIMENT_MEAN_RPS: f64 = 30_000.0;

/// Run the Fig. 5 experiment over `intervals` hourly steps.
pub fn run(intervals: usize, seed: u64) -> Fig5 {
    let catalog = Catalog::fig5_three_markets();
    let trace = wikipedia_like(intervals + 16, seed).with_mean(PRICE_EXPERIMENT_MEAN_RPS);
    let options = EvalOptions {
        intervals,
        seed,
        oracle: true,
        oracle_horizon: 10,
        // Fig. 5 isolates *price* awareness: the paper assumes equal,
        // low revocation probabilities and an oracle predictor.
        revocations: false,
        ..EvalOptions::default()
    };

    // Record the price path (identical for both policies by seed).
    let mut price_probe = CloudSim::new(catalog.clone(), seed, 8);
    price_probe.warm_up(options.cloud_warmup.max(4));
    let mut per_request_prices = Vec::with_capacity(intervals);
    for _ in 0..intervals {
        price_probe.step();
        per_request_prices.push(
            (0..catalog.len())
                .map(|i| price_probe.per_request_price(i))
                .collect(),
        );
    }

    let mut constant = ConstantPortfolioPolicy::new(price_experiment_config(), catalog.len(), 2);
    let constant_report = simulate_costs(&mut constant, &catalog, &trace, &options);
    let mut mpo = SpotWebPolicy::new(price_experiment_config(), catalog.len());
    let mpo_report = simulate_costs(&mut mpo, &catalog, &trace, &options);

    Fig5 {
        markets: catalog
            .markets()
            .iter()
            .map(|m| m.instance.name.clone())
            .collect(),
        per_request_prices,
        workload: constant_report.records.iter().map(|r| r.workload).collect(),
        constant_fleet: constant_report
            .records
            .iter()
            .map(|r| r.fleet.clone())
            .collect(),
        mpo_fleet: mpo_report.records.iter().map(|r| r.fleet.clone()).collect(),
        constant_cost: constant_report.total_cost(),
        mpo_cost: mpo_report.total_cost(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mpo_shifts_markets_constant_does_not() {
        let f = run(72, crate::DEFAULT_SEED);
        // Cheapest market changes over the run (Fig. 5(a) premise).
        let argmin = |row: &Vec<f64>| {
            row.iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap()
                .0
        };
        let mins: std::collections::BTreeSet<usize> =
            f.per_request_prices.iter().map(argmin).collect();
        assert!(mins.len() >= 2, "cheapest market never changed");

        // Constant portfolio: the *set* of markets used after freezing
        // stays fixed.
        let used = |fleet: &[Vec<u32>]| -> Vec<std::collections::BTreeSet<usize>> {
            fleet
                .iter()
                .map(|row| {
                    row.iter()
                        .enumerate()
                        .filter(|(_, &n)| n > 0)
                        .map(|(i, _)| i)
                        .collect()
                })
                .collect()
        };
        let const_used = used(&f.constant_fleet[4..]);
        let first = &const_used[0];
        assert!(
            const_used.iter().all(|s| s == first),
            "constant portfolio must not change markets"
        );
        // MPO: the market mix changes over the run.
        let mpo_used = used(&f.mpo_fleet[4..]);
        let distinct: std::collections::BTreeSet<_> = mpo_used.iter().cloned().collect();
        assert!(distinct.len() >= 2, "MPO should shift across markets");
        // And MPO is cheaper.
        assert!(f.mpo_cost < f.constant_cost);
    }
}
