//! SpotWeb configuration (the paper's tunables, §6 "SpotWeb's
//! configuration").

/// All SpotWeb parameters. [`SpotWebConfig::default`] reproduces the
/// paper's evaluation configuration: `P = 0.02`, `L = 0`, `α = 5`,
/// horizon 4, hourly decision intervals.
#[derive(Debug, Clone)]
pub struct SpotWebConfig {
    /// Look-ahead horizon `H` in decision intervals (≥ 1; 1 = SPO).
    pub horizon: usize,
    /// Risk-aversion parameter `α` (Eq. 5).
    pub alpha: f64,
    /// Per-request SLO-violation penalty `P` in $ (Eq. 4). The paper
    /// sets it to twice the most expensive per-request serving cost so
    /// dropping is never cheaper than serving.
    pub penalty_per_request: f64,
    /// Fraction `L` of long-running requests that cannot migrate within
    /// the warning period (Eq. 4). Zero for sub-second web requests.
    pub long_running_fraction: f64,
    /// Minimum total fractional allocation `A_min` (Eq. 8) — 1.0 means
    /// "cover the full predicted workload".
    pub a_min: f64,
    /// Maximum total fractional allocation `A_max` (Eq. 9) — caps
    /// over-provisioning.
    pub a_max_total: f64,
    /// Maximum fractional allocation `a_max` per market (Eq. 10) —
    /// forces diversification when < 1.
    pub a_max_per_market: f64,
    /// Churn (transaction-cost) weight `γ` on `‖A(τ) − A(τ−1)‖²`.
    /// Multi-period trading (Boyd et al. 2017) motivates this term; the
    /// paper cites reduced churn as an MPO benefit. Set 0 to ablate.
    pub churn_gamma: f64,
    /// Decision interval length in seconds (the paper uses hourly).
    pub interval_secs: f64,
    /// Drop allocations below this fraction when converting to servers
    /// (avoids spinning up a server for 0.1% of traffic).
    pub min_allocation: f64,
}

impl Default for SpotWebConfig {
    fn default() -> Self {
        SpotWebConfig {
            horizon: 4,
            alpha: 5.0,
            penalty_per_request: 0.02,
            long_running_fraction: 0.0,
            a_min: 1.0,
            a_max_total: 1.6,
            a_max_per_market: 1.0,
            churn_gamma: 0.05,
            interval_secs: 3600.0,
            min_allocation: 5e-3,
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
            ("penalty_per_request", self.penalty_per_request),
            ("long_running_fraction", self.long_running_fraction),
            ("a_min", self.a_min),
            ("a_max_total", self.a_max_total),
            ("a_max_per_market", self.a_max_per_market),
            ("churn_gamma", self.churn_gamma),
            ("interval_secs", self.interval_secs),
            ("min_allocation", self.min_allocation),
        ] {
            if !(value.is_finite() && value >= 0.0) {
                return Err(format!(
                    "{name} must be finite and non-negative, got {value}"
                ));
            }
        }
        if self.a_min > self.a_max_total {
            return Err("need 0 <= a_min <= a_max_total".into());
        }
        if !(self.a_max_per_market > 0.0 && self.a_max_per_market <= self.a_max_total) {
            return Err("need 0 < a_max_per_market <= a_max_total".into());
        }
        if self.interval_secs == 0.0 {
            return Err("interval_secs must be positive".into());
        }
        if self.long_running_fraction > 1.0 {
            return Err("long_running_fraction in [0,1]".into());
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
        assert_eq!(c.alpha, 5.0);
        assert_eq!(c.penalty_per_request, 0.02);
        assert_eq!(c.long_running_fraction, 0.0);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_bounds() {
        let bad_min = SpotWebConfig {
            a_min: 2.0, // above a_max_total 1.6
            ..SpotWebConfig::default()
        };
        assert!(bad_min.validate().is_err());
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
    }

    #[test]
    fn validation_rejects_non_finite_and_negative_fields() {
        type Set = fn(&mut SpotWebConfig, f64);
        let fields: [(&str, Set); 9] = [
            ("alpha", |c, v| c.alpha = v),
            ("penalty_per_request", |c, v| c.penalty_per_request = v),
            ("long_running_fraction", |c, v| c.long_running_fraction = v),
            ("a_min", |c, v| c.a_min = v),
            ("a_max_total", |c, v| c.a_max_total = v),
            ("a_max_per_market", |c, v| c.a_max_per_market = v),
            ("churn_gamma", |c, v| c.churn_gamma = v),
            ("interval_secs", |c, v| c.interval_secs = v),
            ("min_allocation", |c, v| c.min_allocation = v),
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
