//! Single-period portfolio optimization — the ExoSphere baseline.
//!
//! ExoSphere (Sharma et al., SIGMETRICS'17) chooses a portfolio by
//! Markowitz-style single-period optimization over *current* prices and
//! failure statistics (§3.1, §4.1 "Single Point Portfolio
//! Optimization"). We express it as the `H = 1`, zero-churn special
//! case of the same QP, fed flat (reactive) forecasts — exactly how the
//! paper runs "ExoSphere in a loop" for Fig. 6(b).

use spotweb_linalg::Matrix;
use spotweb_market::Catalog;
use spotweb_solver::Settings;

use crate::config::SpotWebConfig;
use crate::forecast::ForecastBundle;
use crate::mpo::{MpoOptimizer, PortfolioDecision};
use crate::Result;

/// A single-period optimizer with the ExoSphere objective.
#[derive(Debug, Clone)]
pub struct SpoOptimizer {
    inner: MpoOptimizer,
}

impl SpoOptimizer {
    /// Build from a SpotWeb config: the horizon is forced to 1 and the
    /// churn term (a multi-period concept) is dropped.
    pub fn new(config: SpotWebConfig) -> Self {
        let spo_config = SpotWebConfig {
            horizon: 1,
            churn_gamma: 0.0,
            ..config
        };
        SpoOptimizer {
            inner: MpoOptimizer::new(spo_config),
        }
    }

    /// Override solver settings.
    pub fn with_settings(config: SpotWebConfig, settings: Settings) -> Self {
        let spo_config = SpotWebConfig {
            horizon: 1,
            churn_gamma: 0.0,
            ..config
        };
        SpoOptimizer {
            inner: MpoOptimizer::with_settings(spo_config, settings),
        }
    }

    /// Optimize for the next interval from *current* observations only.
    pub fn optimize(
        &mut self,
        catalog: &Catalog,
        workload: f64,
        prices: &[f64],
        failures: &[f64],
        covariance: &Matrix,
    ) -> Result<PortfolioDecision> {
        let forecast = ForecastBundle::flat(workload, prices, failures, 1);
        // SPO carries no memory of the previous allocation (no churn
        // term), so prev is irrelevant; pass zeros.
        let zeros = vec![0.0; catalog.len()];
        self.inner.optimize(catalog, &forecast, covariance, &zeros)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotweb_market::Catalog;

    #[test]
    fn spo_equals_mpo_with_h1() {
        let catalog = Catalog::fig5_three_markets();
        let prices = [2.0, 1.0, 1.2];
        let failures = [0.04; 3];
        let cov = Matrix::identity(3).scaled(1e-4);

        let mut spo = SpoOptimizer::new(SpotWebConfig::default());
        let d_spo = spo
            .optimize(&catalog, 1000.0, &prices, &failures, &cov)
            .unwrap();

        let mut mpo = MpoOptimizer::new(SpotWebConfig {
            horizon: 1,
            churn_gamma: 0.0,
            ..SpotWebConfig::default()
        });
        let f = ForecastBundle::flat(1000.0, &prices, &failures, 1);
        let d_mpo = mpo.optimize(&catalog, &f, &cov, &[0.0; 3]).unwrap();

        for (a, b) in d_spo.first().iter().zip(d_mpo.first()) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn spo_is_myopic_to_future_prices() {
        // SPO fed only the current (cheap) price of market 1 allocates
        // to it even if it is about to become expensive — the behavior
        // Fig. 6(b) exploits.
        let catalog = Catalog::fig5_three_markets();
        let cov = Matrix::identity(3).scaled(1e-4);
        let mut spo = SpoOptimizer::new(SpotWebConfig::default());
        let d = spo
            .optimize(&catalog, 1000.0, &[6.5, 0.4, 1.1], &[0.04; 3], &cov)
            .unwrap();
        let a = d.first();
        assert!(
            a[1] > a[0] && a[1] > a[2],
            "myopically picks market 1: {a:?}"
        );
    }

    #[test]
    fn covers_demand() {
        let catalog = Catalog::ec2_subset(9);
        let prices: Vec<f64> = catalog
            .markets()
            .iter()
            .map(|m| m.instance.on_demand_price * 0.3)
            .collect();
        let failures = vec![0.05; 9];
        let cov = Matrix::identity(9).scaled(1e-4);
        let mut spo = SpoOptimizer::new(SpotWebConfig::default());
        let d = spo
            .optimize(&catalog, 2000.0, &prices, &failures, &cov)
            .unwrap();
        assert!(d.solved);
        assert!(d.first().iter().sum::<f64>() >= 0.99);
    }
}
