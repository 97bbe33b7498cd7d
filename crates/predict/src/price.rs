//! Per-market price predictors.
//!
//! The paper (§4.2): "If a price predictor is available, then priceᵢₜ
//! will vary over the time horizon H. If price prediction is
//! unavailable, a fixed priceᵢₜ may be used."
//! [`MeanRevertingPricePredictor`] fits the mean-reversion level and
//! speed of a market's recent price window and forecasts decay toward
//! that level. Spot prices genuinely mean-revert, so this is the
//! realistic "a price predictor is available" configuration.

use std::collections::VecDeque;

use crate::SeriesPredictor;

/// Mean-reverting forecast: fit `p_{t+1} − p_t ≈ κ(μ − p_t)` over a
/// window, forecast `p` decaying toward `μ`.
#[derive(Debug, Clone)]
pub struct MeanRevertingPricePredictor {
    window: VecDeque<f64>,
    capacity: usize,
    count: usize,
}

impl MeanRevertingPricePredictor {
    /// Fit over the most recent `window` prices (≥ 4).
    pub fn new(window: usize) -> Self {
        assert!(window >= 4);
        MeanRevertingPricePredictor {
            window: VecDeque::with_capacity(window),
            capacity: window,
            count: 0,
        }
    }

    /// Estimate (μ, κ) from the window. κ is clamped into [0, 1].
    fn fit(&self) -> Option<(f64, f64)> {
        if self.window.len() < 4 {
            return None;
        }
        let v: Vec<f64> = self.window.iter().copied().collect();
        let mu = spotweb_linalg::vector::mean(&v);
        // Least squares for κ in Δp = κ(μ − p): κ = Σ Δp(μ−p) / Σ (μ−p)².
        let mut num = 0.0;
        let mut den = 0.0;
        for w in v.windows(2) {
            let gap = mu - w[0];
            num += (w[1] - w[0]) * gap;
            den += gap * gap;
        }
        let kappa = if den < 1e-12 {
            0.0
        } else {
            (num / den).clamp(0.0, 1.0)
        };
        Some((mu, kappa))
    }
}

impl SeriesPredictor for MeanRevertingPricePredictor {
    fn observe(&mut self, value: f64) {
        if self.window.len() == self.capacity {
            self.window.pop_front();
        }
        self.window.push_back(value);
        self.count += 1;
    }

    fn predict(&self, horizon: usize) -> Vec<f64> {
        let last = self.window.back().copied().unwrap_or(0.0);
        match self.fit() {
            Some((mu, kappa)) => {
                let mut out = Vec::with_capacity(horizon);
                let mut p = last;
                for _ in 0..horizon {
                    p += kappa * (mu - p);
                    out.push(p.max(0.0));
                }
                out
            }
            None => vec![last; horizon],
        }
    }

    fn observations(&self) -> usize {
        self.count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_reverting_pulls_toward_mean() {
        // Stationary history around 10, then a spike to 20: the
        // forecast must decay from the spike back toward ~10.
        let mut p = MeanRevertingPricePredictor::new(60);
        // Genuine AR(1) reversion toward 10 with κ = 0.25 plus a small
        // alternating perturbation, ending with a fresh spike.
        let mut price = 20.0;
        for i in 0..59 {
            p.observe(price);
            let bump = if i % 2 == 0 { 0.2 } else { -0.2 };
            price = 10.0 + 0.75 * (price - 10.0) + bump;
        }
        p.observe(18.0);
        let f = p.predict(10);
        assert!(f[0] < 18.0, "first step must revert, got {}", f[0]);
        assert!(f[9] < f[0], "must keep decaying: {} vs {}", f[9], f[0]);
        assert!(f[9] > 9.0, "must not undershoot the mean, got {}", f[9]);
    }

    #[test]
    fn short_history_is_flat() {
        let mut p = MeanRevertingPricePredictor::new(10);
        p.observe(5.0);
        assert_eq!(p.predict(3), vec![5.0, 5.0, 5.0]);
    }

    #[test]
    fn constant_series_stays_constant() {
        let mut p = MeanRevertingPricePredictor::new(10);
        for _ in 0..10 {
            p.observe(3.0);
        }
        assert_eq!(p.predict(4), vec![3.0; 4]);
    }
}
