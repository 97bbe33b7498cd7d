//! Confidence-interval padding (the paper's "intelligent
//! over-provisioning", §4.3).
//!
//! SpotWeb computes the 99% confidence interval around each point
//! prediction and provisions for its **upper bound**. The band width
//! comes from the empirical standard deviation of recent prediction
//! errors (the paper tracks mean-absolute-error over a window of recent
//! predictions), scaled by the forecast horizon through the AR model's
//! error growth.

use std::collections::VecDeque;

/// z-scores for common confidence levels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfidenceLevel {
    /// 90% two-sided (z = 1.645).
    P90,
    /// 95% two-sided (z = 1.960).
    P95,
    /// 99% two-sided (z = 2.576) — the paper's choice.
    P99,
    /// 99.9% two-sided (z = 3.291).
    P999,
    /// Custom z-score.
    Z(f64),
}

impl ConfidenceLevel {
    /// The z multiplier.
    pub fn z(self) -> f64 {
        match self {
            ConfidenceLevel::P90 => 1.645,
            ConfidenceLevel::P95 => 1.960,
            ConfidenceLevel::P99 => 2.576,
            ConfidenceLevel::P999 => 3.291,
            ConfidenceLevel::Z(z) => z,
        }
    }
}

/// Tracks recent one-step prediction errors and pads predictions with
/// the CI upper bound.
#[derive(Debug, Clone)]
pub struct ErrorTracker {
    errors: VecDeque<f64>,
    capacity: usize,
}

impl ErrorTracker {
    /// Track the most recent `capacity` errors.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 2);
        ErrorTracker {
            errors: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    /// Record one realized prediction error (`observed − predicted`).
    pub fn record(&mut self, error: f64) {
        if self.errors.len() == self.capacity {
            self.errors.pop_front();
        }
        self.errors.push_back(error);
    }

    /// Number of recorded errors.
    pub fn len(&self) -> usize {
        self.errors.len()
    }

    /// `true` before any error is recorded.
    pub fn is_empty(&self) -> bool {
        self.errors.is_empty()
    }

    /// Standard deviation of recorded errors (0 when < 2 samples).
    pub fn error_sd(&self) -> f64 {
        let n = self.errors.len();
        if n < 2 {
            return 0.0;
        }
        let m = self.bias();
        let squares: f64 = self.errors.iter().map(|e| (e - m) * (e - m)).sum();
        (squares / (n - 1) as f64).sqrt()
    }

    /// Mean absolute error over the window (the paper's tracked metric).
    pub fn mae(&self) -> f64 {
        if self.errors.is_empty() {
            return 0.0;
        }
        self.errors.iter().map(|e| e.abs()).sum::<f64>() / self.errors.len() as f64
    }

    /// Mean error (bias); positive = systematic under-prediction.
    pub fn bias(&self) -> f64 {
        if self.errors.is_empty() {
            return 0.0;
        }
        self.errors.iter().sum::<f64>() / self.errors.len() as f64
    }

    /// Upper bound of the confidence interval around `prediction` for a
    /// forecast `h ≥ 1` steps ahead. Error growth over the horizon is
    /// modeled as `√h` (independent-increment approximation), matching
    /// how uncertainty compounds when each step adds fresh innovation.
    pub fn upper_bound(&self, prediction: f64, h: usize, level: ConfidenceLevel) -> f64 {
        let sd = self.error_sd();
        prediction + level.z() * sd * (h.max(1) as f64).sqrt() + self.bias().max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn z_scores() {
        assert!((ConfidenceLevel::P99.z() - 2.576).abs() < 1e-12);
        assert_eq!(ConfidenceLevel::Z(1.0).z(), 1.0);
        assert!(ConfidenceLevel::P999.z() > ConfidenceLevel::P99.z());
    }

    #[test]
    fn window_bounded() {
        let mut t = ErrorTracker::new(3);
        for e in [1.0, 2.0, 3.0, 4.0] {
            t.record(e);
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.mae(), 3.0);
    }

    #[test]
    fn upper_bound_widens_with_horizon_and_level() {
        let mut t = ErrorTracker::new(10);
        for e in [-2.0, 1.0, -1.0, 2.0, 0.0, 1.5] {
            t.record(e);
        }
        let p = 100.0;
        let u1 = t.upper_bound(p, 1, ConfidenceLevel::P99);
        let u4 = t.upper_bound(p, 4, ConfidenceLevel::P99);
        assert!(u1 > p);
        assert!((u4 - p) > 1.9 * (u1 - p), "√4 = 2× wider");
        assert!(t.upper_bound(p, 1, ConfidenceLevel::P90) < u1);
    }

    #[test]
    fn bias_correction_raises_bound() {
        let mut unbiased = ErrorTracker::new(10);
        let mut biased = ErrorTracker::new(10);
        for e in [-1.0, 1.0, -1.0, 1.0] {
            unbiased.record(e);
        }
        for e in [4.0, 6.0, 4.0, 6.0] {
            // under-predicting by ~5
            biased.record(e);
        }
        assert_eq!(unbiased.bias(), 0.0);
        assert!((biased.bias() - 5.0).abs() < 1e-12);
        assert!(
            biased.upper_bound(100.0, 1, ConfidenceLevel::P99)
                > unbiased.upper_bound(100.0, 1, ConfidenceLevel::P99)
        );
    }

    #[test]
    fn deque_folds_are_bitwise_the_vector_kernels() {
        use spotweb_linalg::vector;
        // Capacity 5 over 12 records: empty, filling and wrapped deques.
        let mut t = ErrorTracker::new(5);
        for k in 0..12 {
            let v: Vec<f64> = t.errors.iter().copied().collect();
            assert_eq!(t.error_sd().to_bits(), vector::std_dev(&v).to_bits());
            assert_eq!(t.bias().to_bits(), vector::mean(&v).to_bits());
            t.record(f64::from(k * 37 % 11 - 5) * 0.3);
        }
    }

    #[test]
    fn no_errors_no_padding() {
        let t = ErrorTracker::new(5);
        assert_eq!(t.upper_bound(50.0, 1, ConfidenceLevel::P99), 50.0);
        assert!(t.is_empty());
    }
}
