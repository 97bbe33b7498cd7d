//! Fractional allocation → integer server counts.
//!
//! The optimizer emits `A[i]`, the fraction of predicted traffic market
//! `i` should serve. Deployment needs whole servers:
//! `n_i = ⌈A_i · λ̂ / r_i⌉` (§4.2). Rounding up guarantees the deployed
//! capacity covers at least the allocated share; allocations below the
//! configured floor are dropped so the portfolio doesn't sprawl across
//! markets serving negligible traffic.

use spotweb_market::Catalog;

/// Convert fractional allocations to per-market server counts.
///
/// * `allocation[i]` — fraction of `lambda` assigned to market `i`.
/// * `lambda` — predicted peak request rate (req/s) to provision for.
/// * `min_allocation` — fractions below this are treated as zero.
pub fn to_server_counts(
    catalog: &Catalog,
    allocation: &[f64],
    lambda: f64,
    min_allocation: f64,
) -> Vec<u32> {
    assert_eq!(allocation.len(), catalog.len(), "allocation per market");
    assert!(lambda >= 0.0, "lambda must be non-negative");
    allocation
        .iter()
        .enumerate()
        .map(|(i, &a)| {
            if a < min_allocation || lambda == 0.0 {
                0
            } else {
                let rps = a * lambda;
                let r = catalog.market(i).capacity_rps();
                (rps / r).ceil() as u32
            }
        })
        .collect()
}

/// Total serving capacity (req/s) of a fleet.
pub fn total_capacity_rps(catalog: &Catalog, counts: &[u32]) -> f64 {
    assert_eq!(counts.len(), catalog.len());
    counts
        .iter()
        .enumerate()
        .map(|(i, &n)| n as f64 * catalog.market(i).capacity_rps())
        .sum()
}

/// Effective weighted-round-robin weights for a fleet: each market's
/// share of total capacity. Used to program the load balancer (§4.4:
/// "The weights are set to be equal to the relative weight of a market
/// within the portfolio"). Returns zeros when the fleet is empty.
pub fn wrr_weights(catalog: &Catalog, counts: &[u32]) -> Vec<f64> {
    let total = total_capacity_rps(catalog, counts);
    if total == 0.0 {
        return vec![0.0; counts.len()];
    }
    counts
        .iter()
        .enumerate()
        .map(|(i, &n)| n as f64 * catalog.market(i).capacity_rps() / total)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotweb_market::Catalog;

    #[test]
    fn counts_round_up() {
        let c = Catalog::fig5_three_markets(); // capacities 1920, 320, 320
        let counts = to_server_counts(&c, &[0.5, 0.5, 0.0], 1000.0, 1e-3);
        // 500 rps / 1920 → 1 server; 500 / 320 → 2 servers.
        assert_eq!(counts, vec![1, 2, 0]);
    }

    #[test]
    fn capacity_never_below_allocated_share() {
        let c = Catalog::fig5_three_markets();
        let alloc = [0.4, 0.35, 0.25];
        let lambda = 2500.0;
        let counts = to_server_counts(&c, &alloc, lambda, 1e-3);
        for i in 0..3 {
            let cap = counts[i] as f64 * c.market(i).capacity_rps();
            assert!(cap >= alloc[i] * lambda - 1e-9);
        }
    }

    #[test]
    fn tiny_allocations_dropped() {
        let c = Catalog::fig5_three_markets();
        let counts = to_server_counts(&c, &[1.0, 0.0004, 0.0], 1000.0, 1e-3);
        assert_eq!(counts[1], 0);
    }

    #[test]
    fn zero_lambda_zero_servers() {
        let c = Catalog::fig5_three_markets();
        assert_eq!(
            to_server_counts(&c, &[1.0, 1.0, 1.0], 0.0, 1e-3),
            vec![0, 0, 0]
        );
    }

    #[test]
    fn capacity_sums_per_market_servers() {
        let c = Catalog::fig5_three_markets();
        assert_eq!(total_capacity_rps(&c, &[1, 2, 0]), 1920.0 + 640.0);
    }

    #[test]
    fn wrr_weights_proportional_to_capacity() {
        let c = Catalog::fig5_three_markets();
        let w = wrr_weights(&c, &[1, 2, 0]);
        assert!((w[0] - 1920.0 / 2560.0).abs() < 1e-12);
        assert!((w[1] - 640.0 / 2560.0).abs() < 1e-12);
        assert_eq!(w[2], 0.0);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_fleet_zero_weights() {
        let c = Catalog::fig5_three_markets();
        assert_eq!(wrr_weights(&c, &[0, 0, 0]), vec![0.0; 3]);
    }
}
