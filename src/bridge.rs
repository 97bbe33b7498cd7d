//! Bridge between the optimizer-level policies (`spotweb-core`) and
//! the request-level simulator (`spotweb-sim`).
//!
//! `spotweb-core` and `spotweb-sim` are deliberately decoupled (the
//! simulator must not depend on the optimizer); this facade module
//! supplies the glue: [`PolicyBridge`] adapts any
//! [`spotweb_core::policy::Policy`] to the simulator's
//! [`spotweb_sim::runner::FleetPolicy`], reading the revocation
//! correlation from the market history's running sums exactly as the
//! coarse harness does.

use spotweb_core::policy::{Policy, PolicyObservation};
use spotweb_market::{Catalog, MarketHistory, DEFAULT_SHRINKAGE};
use spotweb_sim::runner::FleetPolicy;

/// Adapter: drive a provisioning [`Policy`] from the request-level
/// simulator's observations.
pub struct PolicyBridge<P> {
    policy: P,
    catalog: Catalog,
}

impl<P: Policy> PolicyBridge<P> {
    /// Wrap `policy` operating over `catalog`.
    pub fn new(policy: P, catalog: Catalog) -> Self {
        PolicyBridge { policy, catalog }
    }
}

impl<P: Policy> FleetPolicy for PolicyBridge<P> {
    fn decide_fleet(
        &mut self,
        interval: usize,
        observed_rps: f64,
        prices: &[f64],
        failure_probs: &[f64],
        history: &MarketHistory,
    ) -> Vec<u32> {
        let covariance = if history.len() >= 2 {
            history.correlation(DEFAULT_SHRINKAGE)
        } else {
            spotweb_linalg::Matrix::identity(self.catalog.len())
        };
        let obs = PolicyObservation {
            interval,
            current_workload: observed_rps,
            prices,
            failure_probs,
            covariance: &covariance,
            oracle: None,
        };
        self.policy.decide(&self.catalog, &obs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotweb_core::{SpotWebConfig, SpotWebPolicy};
    use spotweb_market::{Catalog, CloudSim};
    use spotweb_sim::runner::{run_full_stack, RunnerConfig};
    use spotweb_workload::Trace;

    #[test]
    fn spotweb_policy_drives_request_level_simulation() {
        let catalog = Catalog::fig4_testbed();
        let config = RunnerConfig {
            intervals: 5,
            seed: 4,
            ..RunnerConfig::default()
        };
        let mut cloud = CloudSim::new(catalog.clone(), 6, 64);
        cloud.warm_up(8);
        let trace = Trace::new(config.interval_secs, vec![300.0; 7]);
        let mut bridge = PolicyBridge::new(
            SpotWebPolicy::new(
                SpotWebConfig {
                    // The testbed intervals are 10 min, not hourly.
                    interval_secs: config.interval_secs,
                    ..SpotWebConfig::default()
                },
                catalog.len(),
            ),
            catalog,
        );
        let report = run_full_stack(&mut bridge, &mut cloud, &trace, &config);
        assert!(report.served > 10_000, "served {}", report.served);
        assert!(
            report.drop_fraction < 0.05,
            "drops {}",
            report.drop_fraction
        );
        assert!(report.p90 < 1.0, "p90 {}", report.p90);
        assert!(report.cost > 0.0);
    }
}
