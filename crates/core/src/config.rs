//! SpotWeb configuration (the paper's tunables, §6 "SpotWeb's
//! configuration").

use crate::portfolio::A_MAX_TOTAL;

/// The SpotWeb parameters callers vary. [`SpotWebConfig::default`]
/// reproduces the paper's evaluation configuration: `α = 5`, horizon 4,
/// hourly decision intervals. The paper's `L = 0` (no long-running
/// requests) makes Eq. 4's SLA term vanish, so its penalty `P` never
/// reaches the QP; the allocation bounds `A_min`, `A_max` and the
/// server-conversion floor are constants beside their readers
/// (`core::portfolio`, `core::allocation`).
#[derive(Debug, Clone)]
pub struct SpotWebConfig {
    /// Look-ahead horizon `H` in decision intervals (≥ 1; 1 = SPO).
    pub horizon: usize,
    /// Risk-aversion parameter `α` (Eq. 5).
    pub alpha: f64,
    /// Maximum fractional allocation `a_max` per market (Eq. 10) —
    /// forces diversification when < 1.
    pub a_max_per_market: f64,
    /// Churn (transaction-cost) weight `γ` on `‖A(τ) − A(τ−1)‖²`.
    /// Multi-period trading (Boyd et al. 2017) motivates this term; the
    /// paper cites reduced churn as an MPO benefit. Set 0 to ablate.
    pub churn_gamma: f64,
    /// Decision interval length in seconds (the paper uses hourly).
    pub interval_secs: f64,
}

impl Default for SpotWebConfig {
    fn default() -> Self {
        SpotWebConfig {
            horizon: 4,
            alpha: 5.0,
            a_max_per_market: 1.0,
            churn_gamma: 0.05,
            interval_secs: 3600.0,
        }
    }
}

impl SpotWebConfig {
    /// Validate invariants; call after hand-building a config. Every
    /// `f64` field must be finite and non-negative (a NaN would
    /// otherwise slip through every `<` test below and, downstream,
    /// silently switch off the term it weights); the error names the
    /// offending field.
    pub fn validate(&self) -> Result<(), String> {
        if self.horizon == 0 {
            return Err("horizon must be >= 1".into());
        }
        for (name, value) in [
            ("alpha", self.alpha),
            ("a_max_per_market", self.a_max_per_market),
            ("churn_gamma", self.churn_gamma),
            ("interval_secs", self.interval_secs),
        ] {
            if !(value.is_finite() && value >= 0.0) {
                return Err(format!(
                    "{name} must be finite and non-negative, got {value}"
                ));
            }
        }
        if !(self.a_max_per_market > 0.0 && self.a_max_per_market <= A_MAX_TOTAL) {
            return Err(format!(
                "need 0 < a_max_per_market <= A_max = {A_MAX_TOTAL}"
            ));
        }
        if self.interval_secs == 0.0 {
            return Err("interval_secs must be positive".into());
        }
        Ok(())
    }

    /// A copy with a different horizon (for the Fig. 6(b)/7(b) sweeps).
    pub fn with_horizon(&self, horizon: usize) -> Self {
        SpotWebConfig {
            horizon,
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_paper_config() {
        let c = SpotWebConfig::default();
        assert_eq!((c.alpha, c.horizon), (5.0, 4));
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_bounds() {
        let bad_horizon = SpotWebConfig {
            horizon: 0,
            ..SpotWebConfig::default()
        };
        assert!(bad_horizon.validate().is_err());
        let bad_cap = SpotWebConfig {
            a_max_per_market: 0.0,
            ..SpotWebConfig::default()
        };
        assert!(bad_cap.validate().is_err());
        let above_budget = SpotWebConfig {
            a_max_per_market: 2.0, // above A_max = 1.6
            ..SpotWebConfig::default()
        };
        assert!(above_budget.validate().is_err());
    }

    #[test]
    fn validation_rejects_non_finite_and_negative_fields() {
        type Set = fn(&mut SpotWebConfig, f64);
        let fields: [(&str, Set); 4] = [
            ("alpha", |c, v| c.alpha = v),
            ("a_max_per_market", |c, v| c.a_max_per_market = v),
            ("churn_gamma", |c, v| c.churn_gamma = v),
            ("interval_secs", |c, v| c.interval_secs = v),
        ];
        for (name, set) in fields {
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
                let mut c = SpotWebConfig::default();
                set(&mut c, bad);
                let err = c
                    .validate()
                    .expect_err(&format!("{name} = {bad} must be rejected"));
                assert!(
                    err.contains(name),
                    "{name} = {bad}: error must name it: {err}"
                );
            }
        }
    }

    #[test]
    fn with_horizon_preserves_rest() {
        let c = SpotWebConfig::default().with_horizon(10);
        assert_eq!(c.horizon, 10);
        assert_eq!(c.alpha, SpotWebConfig::default().alpha);
    }
}
