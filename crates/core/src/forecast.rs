//! The forecast bundle the optimizer consumes.
//!
//! One bundle holds, for a horizon of `H` intervals: the predicted peak
//! workload `λ̂(τ)`, and per-market predicted prices and revocation
//! probabilities. §5.1: "When the optimizer runs, it polls the
//! predictors, to get new predictions for the future request arrival
//! rates, failure rates, and the future per request price" —
//! `SpotWebPolicy::decide` does that polling and fills a bundle.

/// Forecasts over a horizon `H` for `N` markets.
#[derive(Debug, Clone, PartialEq)]
pub struct ForecastBundle {
    /// `λ̂[τ]`, predicted peak request rate (req/s) in interval `t+τ+1`.
    pub workload: Vec<f64>,
    /// `prices[τ][i]`, predicted $/hour of market `i` in interval `t+τ+1`.
    pub prices: Vec<Vec<f64>>,
    /// `failures[τ][i]`, predicted revocation probability.
    pub failures: Vec<Vec<f64>>,
}

impl ForecastBundle {
    /// Horizon length.
    pub fn horizon(&self) -> usize {
        self.workload.len()
    }

    /// Market count (0 for an empty horizon).
    pub fn markets(&self) -> usize {
        self.prices.first().map_or(0, |p| p.len())
    }

    /// Validate internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        let h = self.horizon();
        if self.prices.len() != h || self.failures.len() != h {
            return Err("prices/failures must cover the workload horizon".into());
        }
        let n = self.markets();
        for (tau, (p, f)) in self.prices.iter().zip(&self.failures).enumerate() {
            if p.len() != n || f.len() != n {
                return Err(format!("ragged market dimension at tau={tau}"));
            }
            if p.iter().any(|v| !v.is_finite() || *v < 0.0) {
                return Err(format!("bad price at tau={tau}"));
            }
            if f.iter().any(|v| !v.is_finite() || !(0.0..=1.0).contains(v)) {
                return Err(format!("failure prob out of [0,1] at tau={tau}"));
            }
        }
        if self.workload.iter().any(|v| !v.is_finite() || *v < 0.0) {
            return Err("bad workload forecast".into());
        }
        Ok(())
    }

    /// Build a *flat* bundle: the same workload/prices/failures repeated
    /// across the horizon (the reactive-predictor configuration, and the
    /// natural input for SPO).
    pub fn flat(workload: f64, prices: &[f64], failures: &[f64], h: usize) -> ForecastBundle {
        assert_eq!(prices.len(), failures.len());
        ForecastBundle {
            workload: vec![workload; h],
            prices: vec![prices.to_vec(); h],
            failures: vec![failures.to_vec(); h],
        }
    }

    /// Build an *oracle* bundle from true future series.
    /// `future_workload[τ]`, `future_prices[τ][i]` for `τ ∈ 0..h`.
    pub fn oracle(
        future_workload: &[f64],
        future_prices: &[Vec<f64>],
        failures: &[f64],
        h: usize,
    ) -> ForecastBundle {
        let take = |idx: usize, len: usize| idx.min(len.saturating_sub(1));
        let workload = (0..h)
            .map(|tau| future_workload[take(tau, future_workload.len())])
            .collect();
        let prices = (0..h)
            .map(|tau| future_prices[take(tau, future_prices.len())].clone())
            .collect();
        ForecastBundle {
            workload,
            prices,
            failures: vec![failures.to_vec(); h],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_bundle_shape() {
        let b = ForecastBundle::flat(100.0, &[1.0, 2.0], &[0.1, 0.2], 3);
        assert_eq!(b.horizon(), 3);
        assert_eq!(b.markets(), 2);
        assert!(b.validate().is_ok());
        assert_eq!(b.prices[2], vec![1.0, 2.0]);
    }

    #[test]
    fn oracle_clamps_past_end() {
        let b = ForecastBundle::oracle(&[10.0, 20.0], &[vec![1.0], vec![2.0]], &[0.0], 4);
        assert_eq!(b.workload, vec![10.0, 20.0, 20.0, 20.0]);
        assert_eq!(b.prices[3], vec![2.0]);
    }

    #[test]
    fn validate_rejects_bad_prob() {
        let mut b = ForecastBundle::flat(1.0, &[1.0], &[0.5], 1);
        b.failures[0][0] = 1.5;
        assert!(b.validate().is_err());
    }

    #[test]
    fn validate_rejects_ragged() {
        let mut b = ForecastBundle::flat(1.0, &[1.0, 2.0], &[0.0, 0.0], 2);
        b.prices[1] = vec![1.0];
        assert!(b.validate().is_err());
    }
}
