//! AR(1) residual model for spike handling.
//!
//! \[1\] augments the spline with an auto-regressive model of lag
//! structure one: spikes show up as serially correlated residuals, and
//! forecasting the residual `φ·r_t` one (or `φʰ·r_t`, `h` steps) ahead
//! lets the predictor ride a spike instead of ignoring it.

use spotweb_linalg::vector;

/// An AR(1) fit `r_{t+1} ≈ φ · r_t` over a residual series.
#[derive(Debug, Clone, Copy)]
pub struct Ar1 {
    /// Estimated persistence coefficient, clamped to `[-0.99, 0.99]`.
    pub phi: f64,
}

impl Ar1 {
    /// Fit by least squares on consecutive pairs. Returns a zero model
    /// (φ = 0) when fewer than 3 points or a degenerate series is given.
    pub fn fit(residuals: &[f64]) -> Ar1 {
        if residuals.len() < 3 {
            return Ar1 { phi: 0.0 };
        }
        let x = &residuals[..residuals.len() - 1];
        let y = &residuals[1..];
        let denom = vector::dot(x, x);
        if denom < 1e-12 {
            return Ar1 { phi: 0.0 };
        }
        Ar1 {
            phi: (vector::dot(x, y) / denom).clamp(-0.99, 0.99),
        }
    }

    /// Forecast the residual `h ≥ 1` steps ahead from the latest
    /// residual `r_t`: `φʰ · r_t`.
    pub fn forecast(&self, last_residual: f64, h: usize) -> f64 {
        self.phi.powi(h as i32) * last_residual
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_known_phi() {
        // Deterministic AR(1): r_{t+1} = 0.7 r_t exactly.
        let mut r = vec![10.0];
        for _ in 0..50 {
            r.push(0.7 * r.last().unwrap());
        }
        let m = Ar1::fit(&r);
        assert!((m.phi - 0.7).abs() < 1e-9, "phi {}", m.phi);
    }

    #[test]
    fn forecast_decays() {
        let m = Ar1 { phi: 0.5 };
        assert_eq!(m.forecast(8.0, 1), 4.0);
        assert_eq!(m.forecast(8.0, 3), 1.0);
    }

    #[test]
    fn short_series_yields_zero_model() {
        let m = Ar1::fit(&[1.0, 2.0]);
        assert_eq!(m.phi, 0.0);
    }

    #[test]
    fn white_noise_phi_near_zero() {
        // Deterministic pseudo-noise with no serial correlation.
        let r: Vec<f64> = (0..200)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let m = Ar1::fit(&r);
        assert!(m.phi < 0.0, "alternating series has negative phi");
    }

    #[test]
    fn phi_is_clamped() {
        // Explosive series — fit must clamp below 1.
        let mut r = vec![1.0];
        for _ in 0..30 {
            r.push(1.5 * r.last().unwrap());
        }
        let m = Ar1::fit(&r);
        assert!(m.phi <= 0.99);
    }
}
