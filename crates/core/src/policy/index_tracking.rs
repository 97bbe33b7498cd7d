//! Cloud Index Tracking (arXiv:1809.03110): hold the spot *index*
//! instead of optimizing against it.
//!
//! The strategy's pitch is predictability, not minimal cost: a
//! portfolio that tracks the aggregate spot market pays the
//! market-average price, whose variance is far below any single
//! market's. The target is the capacity index
//! ([`spotweb_market::index::spot_index_weights`]) **tilted by relative
//! per-request cost**: market `i`'s instantaneous weight is
//! `index_i · (mean per-request cost / per-request cost_i)`, so when
//! every market charges the market-average rate the portfolio *is* the
//! index, and markets trading cheap (expensive) relative to the average
//! get over- (under-)weighted in proportion. Target weights are
//! EWMA-smoothed ([`spotweb_predict::index::IndexWeightTracker`]) so
//! transient price wiggles do not churn servers — the tracking analogue
//! of rebalancing bands.

use spotweb_market::{spot_index_weights, Catalog};
use spotweb_predict::index::IndexWeightTracker;
use spotweb_telemetry::{names, TelemetrySink};

use crate::allocation::{to_server_counts, MIN_ALLOCATION};
use crate::policy::{Policy, PolicyObservation};

/// EWMA gain of the smoothed target weights (see
/// [`IndexWeightTracker`]).
const EWMA_BETA: f64 = 0.2;
/// Capacity headroom multiplier provisioned above the target rate: the
/// tracker does not over-provision per the CI like the MPO, so it
/// carries a flat margin instead.
const HEADROOM: f64 = 1.1;

/// The index-tracking competitor.
pub struct IndexTrackingPolicy {
    tracker: IndexWeightTracker,
    weights: Vec<f64>,
    telemetry: TelemetrySink,
}

impl IndexTrackingPolicy {
    /// Build for `markets` markets.
    pub fn new(markets: usize) -> Self {
        Self::with_ewma_beta(EWMA_BETA, markets)
    }

    fn with_ewma_beta(beta: f64, markets: usize) -> Self {
        IndexTrackingPolicy {
            tracker: IndexWeightTracker::new(beta),
            weights: vec![0.0; markets],
            telemetry: TelemetrySink::disabled(),
        }
    }

    /// Attach a telemetry sink (counts one decision per `decide`).
    pub fn with_telemetry(mut self, sink: TelemetrySink) -> Self {
        self.telemetry = sink;
        self
    }
}

impl Policy for IndexTrackingPolicy {
    fn name(&self) -> &str {
        "index-tracking"
    }

    fn decide(&mut self, catalog: &Catalog, obs: &PolicyObservation<'_>) -> Vec<u32> {
        self.telemetry.count(names::POLICY_DECISIONS_TOTAL, 1);
        // Instantaneous target: the capacity index tilted by each
        // market's per-request cost relative to the mean (tilt 1.0
        // everywhere = hold the index exactly).
        let index = spot_index_weights(catalog);
        let n = catalog.len();
        let per_req: Vec<f64> = (0..n)
            .map(|i| obs.prices[i] / catalog.market(i).capacity_rps())
            .collect();
        let priced = per_req.iter().filter(|c| **c > 0.0).count();
        let mean_cost = if priced > 0 {
            per_req.iter().filter(|c| **c > 0.0).sum::<f64>() / priced as f64
        } else {
            0.0
        };
        let raw: Vec<f64> = index
            .iter()
            .zip(&per_req)
            .map(|(&w, &c)| if c > 0.0 { w * (mean_cost / c) } else { 0.0 })
            .collect();
        let total: f64 = raw.iter().sum();
        let instant: Vec<f64> = if total > 0.0 {
            raw.iter().map(|x| x / total).collect()
        } else {
            index
        };
        self.tracker.observe(&instant);
        let smoothed = self.tracker.weights();
        self.weights = smoothed.iter().map(|w| w * HEADROOM).collect();

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
    fn holds_every_index_market() {
        let catalog = Catalog::fig4_testbed();
        let prices = [0.06, 0.12, 0.24];
        let failures = [0.05; 3];
        let cov = Matrix::identity(3);
        let mut p = IndexTrackingPolicy::new(3);
        let counts = p.decide(&catalog, &obs(&prices, &failures, &cov));
        assert!(
            counts.iter().all(|&c| c > 0),
            "tracking holds the whole index: {counts:?}"
        );
        let cap: f64 = counts
            .iter()
            .enumerate()
            .map(|(i, &c)| c as f64 * catalog.market(i).capacity_rps())
            .sum();
        assert!(cap >= 1000.0);
    }

    #[test]
    fn at_average_prices_the_portfolio_is_the_index() {
        let catalog = Catalog::fig4_testbed();
        // Per-request cost identical everywhere → tilt 1.0 → the
        // smoothed target is exactly the capacity index × headroom.
        let prices: Vec<f64> = catalog
            .markets()
            .iter()
            .map(|m| m.capacity_rps() * 7.5e-4)
            .collect();
        let failures = [0.05; 3];
        let cov = Matrix::identity(3);
        let mut p = IndexTrackingPolicy::new(3);
        p.decide(&catalog, &obs(&prices, &failures, &cov));
        let index = spot_index_weights(&catalog);
        for (w, i) in p.weights.iter().zip(&index) {
            assert!((w - i * HEADROOM).abs() < 1e-12, "{w} vs index {i}");
        }
    }

    #[test]
    fn relatively_cheap_markets_are_overweighted_vs_the_index() {
        let catalog = Catalog::fig5_three_markets();
        // Market 1 trades at half of market 2's per-request cost, so
        // its tilt (and weight relative to index) must be larger.
        let prices = [2.0, 0.5, 1.0];
        let failures = [0.04; 3];
        let cov = Matrix::identity(3);
        let mut p = IndexTrackingPolicy::new(3);
        p.decide(&catalog, &obs(&prices, &failures, &cov));
        let w = &p.weights;
        let index = spot_index_weights(&catalog);
        assert!(
            w[1] / index[1] > w[2] / index[2],
            "half-price market is overweighted vs the index: {w:?}"
        );
    }

    #[test]
    fn smoothing_rebalances_slowly_after_a_price_flip() {
        let catalog = Catalog::fig5_three_markets();
        let failures = [0.04; 3];
        let cov = Matrix::identity(3);
        let calm = [1.0, 1.0, 1.0];
        let mut p = IndexTrackingPolicy::new(3);
        let mut o = obs(&calm, &failures, &cov);
        for k in 0..5 {
            o.interval = k;
            p.decide(&catalog, &o);
        }
        let before = p.weights.to_vec();
        // Market 0's price spikes 10×; one interval later the target
        // has moved, but only by the EWMA gain, not all the way.
        let spiked = [10.0, 1.0, 1.0];
        o.prices = &spiked;
        o.interval = 5;
        p.decide(&catalog, &o);
        let after = p.weights.to_vec();
        assert!(after[0] < before[0], "weight shifts away from the spike");
        let mut instant = IndexTrackingPolicy::with_ewma_beta(1.0, 3);
        instant.decide(&catalog, &obs(&spiked, &failures, &cov));
        assert!(
            after[0] > instant.weights[0],
            "smoothed target stays above the instantaneous one"
        );
    }

    #[test]
    fn decide_is_a_pure_function_of_observations() {
        let catalog = Catalog::fig4_testbed();
        let prices = [0.07, 0.11, 0.31];
        let failures = [0.03; 3];
        let cov = Matrix::identity(3);
        let run = || {
            let mut p = IndexTrackingPolicy::new(3);
            (0..3)
                .map(|k| {
                    let mut o = obs(&prices, &failures, &cov);
                    o.interval = k;
                    p.decide(&catalog, &o)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
