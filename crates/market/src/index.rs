//! The "spot index": capacity-weighted market portfolio weights.
//!
//! Cloud Index Tracking (arXiv:1809.03110) proposes *tracking* the
//! aggregate spot market — holding every market in proportion to its
//! size — instead of optimizing against it. The tracked portfolio's
//! hourly cost then follows the market-average spot price, which is far
//! less volatile than any single market: cost becomes *predictable*
//! rather than minimal.
//!
//! This module computes the index weights a tracking policy rebalances
//! toward. Without public depth data, market "size" is proxied by
//! serving capacity (`capacity_rps`), the same notion of size every
//! other layer of this repo uses.

use crate::catalog::{Catalog, MarketKind};

/// Capacity-proportional index weights over the catalog's *spot*
/// markets.
///
/// `weights[i]` is market `i`'s share of total transient serving
/// capacity; on-demand markets get weight 0 (they are not part of the
/// spot index). When the catalog has no spot markets at all the index
/// degenerates to uniform weights over every market, so a tracking
/// policy still provisions *something* on an all-on-demand catalog.
/// Weights are non-negative and sum to 1.
pub fn spot_index_weights(catalog: &Catalog) -> Vec<f64> {
    let spot_capacity: f64 = catalog
        .markets()
        .iter()
        .filter(|m| m.kind == MarketKind::Spot)
        .map(|m| m.capacity_rps())
        .sum();
    if spot_capacity <= 0.0 {
        let n = catalog.len().max(1) as f64;
        return vec![1.0 / n; catalog.len()];
    }
    catalog
        .markets()
        .iter()
        .map(|m| {
            if m.kind == MarketKind::Spot {
                m.capacity_rps() / spot_capacity
            } else {
                0.0
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;

    #[test]
    fn weights_are_a_capacity_share_distribution() {
        let c = Catalog::fig4_testbed();
        let w = spot_index_weights(&c);
        assert_eq!(w.len(), c.len());
        assert!(w.iter().all(|&x| x >= 0.0));
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        for (i, m) in c.markets().iter().enumerate() {
            if m.kind == MarketKind::OnDemand {
                assert_eq!(w[i], 0.0, "on-demand markets are not in the index");
            } else {
                assert!(w[i] > 0.0, "every spot market is in the index");
            }
        }
    }

    #[test]
    fn bigger_spot_markets_get_bigger_weights() {
        let c = Catalog::ec2_subset(6);
        let w = spot_index_weights(&c);
        for i in 0..c.len() {
            for j in 0..c.len() {
                let (ci, cj) = (c.market(i).capacity_rps(), c.market(j).capacity_rps());
                if ci > cj {
                    assert!(w[i] > w[j], "capacity order must carry to weight order");
                }
            }
        }
    }

    #[test]
    fn on_demand_only_catalog_falls_back_to_uniform() {
        let c = Catalog::fig5_three_markets().with_on_demand();
        // Keep only the on-demand entries.
        let od: Vec<_> = c
            .markets()
            .iter()
            .filter(|m| m.kind == MarketKind::OnDemand)
            .cloned()
            .collect();
        let n = od.len();
        assert!(n > 0);
        let c = Catalog::from_markets(od);
        let w = spot_index_weights(&c);
        assert!(w.iter().all(|&x| (x - 1.0 / n as f64).abs() < 1e-12));
    }
}
