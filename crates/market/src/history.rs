//! Rolling per-market history of revocation probabilities.
//!
//! The monitoring component of SpotWeb (§5.2) keeps time series of
//! failure probabilities and exposes them to the covariance estimator
//! (prices go straight to the policy's price predictors, which keep
//! their own windows). `MarketHistory` is that record: a bounded window
//! per market, O(1) append, row access for estimation.

use std::collections::VecDeque;

/// Bounded time-series history for `n` markets.
#[derive(Debug, Clone)]
pub struct MarketHistory {
    failure_probs: Vec<VecDeque<f64>>,
    capacity: usize,
}

impl MarketHistory {
    /// Create a history for `markets` markets keeping at most
    /// `capacity` intervals each.
    pub fn new(markets: usize, capacity: usize) -> Self {
        assert!(capacity > 0, "history capacity must be positive");
        MarketHistory {
            failure_probs: (0..markets)
                .map(|_| VecDeque::with_capacity(capacity))
                .collect(),
            capacity,
        }
    }

    /// Number of markets tracked.
    pub fn markets(&self) -> usize {
        self.failure_probs.len()
    }

    /// Number of recorded intervals (same for all markets).
    pub fn len(&self) -> usize {
        self.failure_probs.first().map_or(0, |q| q.len())
    }

    /// `true` before the first record.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Record one interval of observations.
    ///
    /// # Panics
    /// Panics if slice lengths don't match the market count.
    pub fn record(&mut self, failure_probs: &[f64]) {
        assert_eq!(
            failure_probs.len(),
            self.markets(),
            "failure prob per market"
        );
        for (q, &v) in self.failure_probs.iter_mut().zip(failure_probs) {
            if q.len() == self.capacity {
                q.pop_front();
            }
            q.push_back(v);
        }
    }

    /// Failure-probability series of market `id`, oldest first.
    pub fn failure_series(&self, id: usize) -> Vec<f64> {
        self.failure_probs[id].iter().copied().collect()
    }

    /// All failure series as rows (market-major) — the covariance
    /// estimator's input layout.
    pub fn failure_matrix(&self) -> Vec<Vec<f64>> {
        (0..self.markets())
            .map(|i| self.failure_series(i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_read() {
        let mut h = MarketHistory::new(2, 10);
        assert!(h.is_empty());
        h.record(&[0.1, 0.2]);
        h.record(&[0.15, 0.25]);
        assert_eq!(h.len(), 2);
        assert_eq!(h.failure_series(0), vec![0.1, 0.15]);
        assert_eq!(h.failure_series(1), vec![0.2, 0.25]);
    }

    #[test]
    fn window_evicts_oldest() {
        let mut h = MarketHistory::new(1, 3);
        for i in 0..5 {
            h.record(&[i as f64]);
        }
        assert_eq!(h.len(), 3);
        assert_eq!(h.failure_series(0), vec![2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "failure prob per market")]
    fn mismatched_record_panics() {
        let mut h = MarketHistory::new(2, 3);
        h.record(&[0.1]);
    }

    #[test]
    fn failure_matrix_layout() {
        let mut h = MarketHistory::new(2, 4);
        h.record(&[0.1, 0.3]);
        h.record(&[0.2, 0.4]);
        let m = h.failure_matrix();
        assert_eq!(m, vec![vec![0.1, 0.2], vec![0.3, 0.4]]);
    }
}
