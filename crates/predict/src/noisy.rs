//! Controlled error injection around any predictor.
//!
//! Fig. 7(a) sweeps SpotWeb's savings against the prediction error
//! "relative to using a reactive predictor". To regenerate that curve
//! we need a predictor whose error level is a *dial*: `NoisyPredictor`
//! wraps an inner predictor and multiplies each forecast by a
//! deterministic pseudo-random factor `1 + ε`, `ε ~ U(−e, e)`.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::SeriesPredictor;

/// A predictor wrapper that injects bounded relative error.
#[derive(Debug, Clone)]
pub struct NoisyPredictor<P> {
    inner: P,
    /// Maximum relative error magnitude (0.1 = ±10%).
    error_level: f64,
    rng: ChaCha8Rng,
}

impl<P: SeriesPredictor> NoisyPredictor<P> {
    /// Wrap `inner`, perturbing forecasts by up to ±`error_level`.
    pub fn new(inner: P, error_level: f64, seed: u64) -> Self {
        assert!(error_level >= 0.0, "error level must be non-negative");
        NoisyPredictor {
            inner,
            error_level,
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }
}

impl<P: SeriesPredictor> SeriesPredictor for NoisyPredictor<P> {
    fn observe(&mut self, value: f64) {
        self.inner.observe(value);
    }

    fn predict(&self, horizon: usize) -> Vec<f64> {
        // The RNG must advance deterministically per call but `predict`
        // takes &self — derive a fresh stream keyed by observation count
        // so repeated calls at the same step agree.
        let mut rng = self.rng.clone();
        let skip = self.inner.observations() as u64;
        let mut stream =
            ChaCha8Rng::seed_from_u64(rng.gen::<u64>() ^ skip.wrapping_mul(0x9E3779B97F4A7C15));
        self.inner
            .predict(horizon)
            .into_iter()
            .map(|v| {
                let eps = stream.gen_range(-self.error_level..=self.error_level);
                (v * (1.0 + eps)).max(0.0)
            })
            .collect()
    }

    fn observations(&self) -> usize {
        self.inner.observations()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::ReactivePredictor;

    #[test]
    fn zero_error_is_identity() {
        let mut p = NoisyPredictor::new(ReactivePredictor::new(), 0.0, 1);
        p.observe(100.0);
        assert_eq!(p.predict(3), vec![100.0; 3]);
    }

    #[test]
    fn error_bounded() {
        let mut p = NoisyPredictor::new(ReactivePredictor::new(), 0.2, 2);
        p.observe(100.0);
        for v in p.predict(50) {
            assert!((80.0 - 1e-9..=120.0 + 1e-9).contains(&v), "forecast {v}");
        }
    }

    #[test]
    fn repeated_predict_same_step_is_stable() {
        let mut p = NoisyPredictor::new(ReactivePredictor::new(), 0.3, 3);
        p.observe(50.0);
        assert_eq!(p.predict(5), p.predict(5));
    }

    #[test]
    fn different_steps_differ() {
        let mut p = NoisyPredictor::new(ReactivePredictor::new(), 0.3, 4);
        p.observe(50.0);
        let a = p.predict(5);
        p.observe(50.0);
        let b = p.predict(5);
        assert_ne!(a, b);
    }

    #[test]
    fn larger_level_larger_spread() {
        let measure = |level: f64| {
            let mut p = NoisyPredictor::new(ReactivePredictor::new(), level, 5);
            p.observe(100.0);
            let f = p.predict(200);
            f.iter().map(|v| (v - 100.0).abs()).sum::<f64>() / f.len() as f64
        };
        assert!(measure(0.4) > measure(0.05));
    }
}
