//! Property tests on the optimizer layer: feasibility and safety of
//! portfolio decisions across randomized market conditions.

use proptest::prelude::*;
use spotweb_core::{
    to_server_counts, total_capacity_rps, ForecastBundle, MpoOptimizer, SpotWebConfig,
};
use spotweb_linalg::Matrix;
use spotweb_market::Catalog;

/// The optimizer's budget bounds `A_min`, `A_max` and the conversion
/// floor every policy uses (`core::portfolio`, `core::allocation`).
const A_MIN: f64 = 1.0;
const A_MAX: f64 = 1.6;
const MIN_ALLOCATION: f64 = 5e-3;

fn catalog() -> Catalog {
    Catalog::ec2_subset(6)
}

prop_compose! {
    /// Random market conditions: prices 10–100% of on-demand, failure
    /// probabilities up to 0.2, workload 1k–50k req/s.
    fn conditions()(
        discounts in prop::collection::vec(0.1f64..1.0, 6),
        failures in prop::collection::vec(0.0f64..0.2, 6),
        lambda in 1_000.0f64..50_000.0,
    ) -> (Vec<f64>, Vec<f64>, f64) {
        let cat = catalog();
        let prices: Vec<f64> = cat
            .markets()
            .iter()
            .zip(&discounts)
            .map(|(m, d)| m.instance.on_demand_price * d)
            .collect();
        (prices, failures, lambda)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The optimizer always returns a feasible allocation: non-negative,
    /// within the per-market cap, total within [A_min, A_max].
    #[test]
    fn decisions_always_feasible((prices, failures, lambda) in conditions()) {
        let cat = catalog();
        let config = SpotWebConfig::default();
        let forecast = ForecastBundle::flat(lambda, &prices, &failures, config.horizon);
        let cov = Matrix::identity(6).scaled(0.5);
        let mut opt = MpoOptimizer::new(config.clone());
        let d = opt.optimize(&cat, &forecast, &cov, &[0.0; 6]).unwrap();
        for tau in 0..config.horizon {
            let total: f64 = d.plan[tau].iter().sum();
            prop_assert!(total >= A_MIN - 1e-2, "total {total} below A_min");
            prop_assert!(total <= A_MAX + 1e-2, "total {total} above A_max");
            for &a in &d.plan[tau] {
                prop_assert!(a >= -1e-9);
                prop_assert!(a <= config.a_max_per_market + 1e-2);
            }
        }
    }

    /// Integer conversion never under-provisions the allocated share.
    #[test]
    fn server_counts_cover_allocation(
        (prices, failures, lambda) in conditions(),
    ) {
        let cat = catalog();
        let config = SpotWebConfig::default();
        let forecast = ForecastBundle::flat(lambda, &prices, &failures, config.horizon);
        let cov = Matrix::identity(6).scaled(0.5);
        let mut opt = MpoOptimizer::new(config.clone());
        let d = opt.optimize(&cat, &forecast, &cov, &[0.0; 6]).unwrap();
        let counts = to_server_counts(&cat, d.first(), lambda, MIN_ALLOCATION);
        // Dropping sub-threshold slivers loses at most markets·min_allocation.
        let kept_share: f64 = d
            .first()
            .iter()
            .filter(|a| **a >= MIN_ALLOCATION)
            .sum();
        let capacity = total_capacity_rps(&cat, &counts);
        prop_assert!(
            capacity >= kept_share * lambda - 1e-6,
            "capacity {capacity} below kept share {kept_share} × λ {lambda}"
        );
    }

    /// More risk aversion never increases portfolio concentration.
    #[test]
    fn alpha_monotone_in_concentration((prices, failures, lambda) in conditions()) {
        let cat = catalog();
        let forecast = ForecastBundle::flat(lambda, &prices, &failures, 1);
        // Correlated risk: family-structured covariance.
        let mut cov = Matrix::identity(6);
        for i in 0..6 {
            for j in 0..6 {
                if i != j {
                    cov[(i, j)] = 0.4;
                }
            }
        }
        let hhi = |alpha: f64| -> f64 {
            let mut opt = MpoOptimizer::new(SpotWebConfig {
                alpha,
                horizon: 1,
                churn_gamma: 0.0,
                ..SpotWebConfig::default()
            });
            let d = opt.optimize(&cat, &forecast, &cov, &[0.0; 6]).unwrap();
            spotweb_core::risk::herfindahl(d.first())
        };
        let low = hhi(0.0);
        let high = hhi(50.0);
        prop_assert!(high <= low + 0.05, "α=50 HHI {high} vs α=0 HHI {low}");
    }

    /// Warm-started receding-horizon runs stay solved across steps.
    #[test]
    fn receding_horizon_stays_solved(
        (prices, failures, lambda) in conditions(),
        drift in 0.9f64..1.1,
    ) {
        let cat = catalog();
        let config = SpotWebConfig::default();
        let cov = Matrix::identity(6).scaled(0.5);
        let mut opt = MpoOptimizer::new(config.clone());
        let mut prev = vec![0.0; 6];
        let mut prices = prices;
        for _ in 0..4 {
            let forecast = ForecastBundle::flat(lambda, &prices, &failures, config.horizon);
            let d = opt.optimize(&cat, &forecast, &cov, &prev).unwrap();
            prop_assert!(d.solved, "receding-horizon step failed to converge");
            prev = d.first().to_vec();
            for p in prices.iter_mut() {
                *p *= drift;
            }
        }
    }
}
