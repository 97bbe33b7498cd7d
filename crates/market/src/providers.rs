//! Cloud-provider profiles (§7 "Other Cloud providers").
//!
//! The paper's measurements are EC2-based but §7 argues the approach
//! transfers: on Google Cloud "prices are constant, \[but\] both the
//! workload variations, and the probability of preemption — which
//! varies between 0.05 and 0.15 — will lead to cost savings", and
//! "since all instances are terminated after running for 24 hours …
//! SpotWeb can utilize its transiency-aware load-balancer to relinquish
//! the resources". Azure's low-priority VMs add hourly billing and a
//! 30 s warning. A [`Provider`] bundles the differences the market
//! substrate models — price process, warning period, preemption rates —
//! so any experiment can swap clouds with one argument. (The 24 h cap
//! is the simulator's `RunnerConfig.max_lifetime_secs`; billing is per
//! second everywhere, which equals hourly billing at the hourly
//! decision interval the §7 comparison runs at.)

use crate::catalog::Catalog;
use crate::cloud::CloudSim;
use crate::price::{PriceParams, SpotPriceProcess};
use crate::revocation::RevocationModel;

/// A transient-capacity provider model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provider {
    /// Amazon EC2 Spot: market-driven prices, 120 s warning.
    Ec2Spot,
    /// Google Cloud preemptible VMs: fixed ~70%-off prices, 30 s
    /// warning, 0.05–0.15 preemption probability.
    GcpPreemptible,
    /// Azure low-priority VMs: fixed ~60%-off prices, 30 s warning.
    AzureLowPriority,
}

impl Provider {
    /// Advance revocation warning in seconds.
    pub fn warning_secs(self) -> f64 {
        match self {
            Provider::Ec2Spot => 120.0,
            Provider::GcpPreemptible | Provider::AzureLowPriority => 30.0,
        }
    }

    /// Price-process parameters for one market. Fixed-price providers
    /// get zero volatility and no surge regime — the discount simply
    /// holds.
    pub fn price_params(self) -> PriceParams {
        match self {
            Provider::Ec2Spot => PriceParams::default(),
            Provider::GcpPreemptible => PriceParams {
                base_discount: 0.30,
                volatility: 0.0,
                surge_enter: 0.0,
                reversion: 1.0,
            },
            Provider::AzureLowPriority => PriceParams {
                base_discount: 0.40,
                volatility: 0.0,
                surge_enter: 0.0,
                reversion: 1.0,
            },
        }
    }

    /// Baseline per-interval preemption probability override.
    /// GCP's published preemption rates span 0.05–0.15; EC2/Azure use
    /// the catalog's per-market values.
    pub fn revocation_override(self, market_index: usize) -> Option<f64> {
        match self {
            Provider::GcpPreemptible => Some(0.05 + 0.10 * ((market_index % 5) as f64 / 4.0)),
            _ => None,
        }
    }

    /// Build a [`CloudSim`] whose dynamics follow this provider.
    pub fn cloud(self, catalog: Catalog, seed: u64, history_len: usize) -> CloudSim {
        let mut catalog = catalog;
        if let Provider::GcpPreemptible = self {
            // Re-stamp the catalog's baseline revocation probabilities.
            let markets: Vec<_> = catalog
                .markets()
                .iter()
                .cloned()
                .enumerate()
                .map(|(i, mut m)| {
                    if let Some(f) = self.revocation_override(i) {
                        if m.is_transient() {
                            m.base_revocation_prob = f;
                        }
                    }
                    m
                })
                .collect();
            catalog = Catalog::from_markets(markets);
        }
        let params = self.price_params();
        let prices = SpotPriceProcess::with_params(
            &catalog,
            seed.wrapping_mul(2).wrapping_add(1),
            move |_| params.clone(),
        );
        let mut revocations = RevocationModel::new(&catalog, seed.wrapping_mul(2).wrapping_add(2));
        revocations.warning_secs = self.warning_secs();
        CloudSim::from_parts(catalog, prices, revocations, history_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;

    #[test]
    fn gcp_prices_are_constant() {
        let mut cloud = Provider::GcpPreemptible.cloud(Catalog::fig5_three_markets(), 1, 16);
        cloud.step();
        let first = cloud.current().prices;
        cloud.warm_up(50);
        assert_eq!(cloud.current().prices, first);
        // And discounted ~70% off on-demand.
        let od = cloud.catalog().market(0).instance.on_demand_price;
        assert!((first[0] / od - 0.30).abs() < 1e-9);
    }

    #[test]
    fn ec2_prices_move() {
        let mut cloud = Provider::Ec2Spot.cloud(Catalog::fig5_three_markets(), 1, 16);
        cloud.step();
        let first = cloud.current().prices;
        cloud.warm_up(50);
        assert_ne!(cloud.current().prices, first);
    }

    #[test]
    fn gcp_preemption_rates_in_published_range() {
        let mut cloud = Provider::GcpPreemptible.cloud(Catalog::ec2_subset(9), 2, 16);
        cloud.warm_up(10);
        for f in cloud.current().failure_probs {
            assert!(
                (0.04..=0.17).contains(&f),
                "gcp preemption {f} outside 0.05–0.15 (±wiggle)"
            );
        }
    }

    #[test]
    fn provider_metadata() {
        assert_eq!(Provider::Ec2Spot.warning_secs(), 120.0);
        assert_eq!(Provider::GcpPreemptible.warning_secs(), 30.0);
    }
}
