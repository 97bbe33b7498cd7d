//! Revocation dynamics of transient markets.
//!
//! Each spot market has a *revocation probability per decision
//! interval* `f_i(t)`. The paper found these near-static per market
//! (§5.1: "for almost all markets, there is no, to very little
//! dynamics, in the revocation probability"), so our model is a slowly
//! varying probability: the market's Spot-Advisor-style baseline
//! modulated by a shared, per-family *demand pressure* factor plus a
//! small idiosyncratic wiggle. During price surges the revocation
//! probability rises sharply — surges *are* demand spikes, which is
//! also when the provider reclaims capacity.
//!
//! The model yields: (a) near-static `f_i(t)` most of the time, (b)
//! positive correlation within a family, (c) correlated *events* when a
//! family surges — exactly the structure the covariance matrix `M` and
//! the diversification argument need.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::catalog::{Catalog, MarketKind};

/// Advance warning (seconds) given before a revocation — EC2 gives
/// 120 s, Azure 30 s; the paper quotes 30–120 s. Default: 120 s.
pub const DEFAULT_WARNING_SECS: f64 = 120.0;

/// A revocation event for one running server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RevocationEvent {
    /// Market the server belongs to.
    pub market: usize,
    /// Index of the server within its market's fleet.
    pub server_index: usize,
}

/// Stepped per-market revocation model.
#[derive(Debug, Clone)]
pub struct RevocationModel {
    /// Baseline probability per interval, from the catalog.
    base: Vec<f64>,
    /// Current probability per interval.
    current: Vec<f64>,
    family_of: Vec<usize>,
    family_count: usize,
    /// Per-family demand pressure in [0, 1] (0 = calm).
    pressure: Vec<f64>,
    rng: ChaCha8Rng,
    /// Warning period (seconds) attached to every event.
    pub warning_secs: f64,
}

impl RevocationModel {
    /// Build a model for `catalog` seeded with `seed`.
    pub fn new(catalog: &Catalog, seed: u64) -> Self {
        let mut fam_names: Vec<&str> = Vec::new();
        let mut family_of = Vec::with_capacity(catalog.len());
        for m in catalog.markets() {
            let fam = m.instance.family.as_str();
            let idx = match fam_names.iter().position(|f| *f == fam) {
                Some(i) => i,
                None => {
                    fam_names.push(fam);
                    fam_names.len() - 1
                }
            };
            family_of.push(idx);
        }
        let base: Vec<f64> = catalog
            .markets()
            .iter()
            .map(|m| {
                if m.kind == MarketKind::Spot {
                    m.base_revocation_prob
                } else {
                    0.0
                }
            })
            .collect();
        RevocationModel {
            current: base.clone(),
            base,
            family_count: fam_names.len(),
            family_of,
            pressure: vec![0.0; fam_names.len()],
            rng: ChaCha8Rng::seed_from_u64(seed),
            warning_secs: DEFAULT_WARNING_SECS,
        }
    }

    /// Number of markets.
    pub fn len(&self) -> usize {
        self.base.len()
    }

    /// `true` when no markets are tracked.
    pub fn is_empty(&self) -> bool {
        self.base.is_empty()
    }

    /// Advance one interval. `surging[i]` should say whether market `i`
    /// is in a price surge (from
    /// [`SpotPriceProcess::is_surging`](crate::price::SpotPriceProcess::is_surging));
    /// pass all-false when running the model standalone.
    pub fn step(&mut self, surging: &[bool]) {
        assert_eq!(surging.len(), self.len(), "surge flags per market");
        // Family pressure follows the max surge state of its members,
        // with exponential decay when calm.
        let mut fam_surge = vec![false; self.family_count];
        for (i, &s) in surging.iter().enumerate() {
            if s {
                fam_surge[self.family_of[i]] = true;
            }
        }
        for (p, &s) in self.pressure.iter_mut().zip(&fam_surge) {
            if s {
                *p = (*p + 0.5).min(1.0);
            } else {
                *p *= 0.6;
            }
        }
        for i in 0..self.len() {
            if self.base[i] == 0.0 {
                self.current[i] = 0.0;
                continue;
            }
            let pressure = self.pressure[self.family_of[i]];
            // Idiosyncratic wiggle of ±10% of baseline.
            let wiggle = 1.0 + 0.1 * (self.rng.gen::<f64>() * 2.0 - 1.0);
            // Pressure multiplies risk up to 6× baseline, capped at 0.9.
            self.current[i] = (self.base[i] * wiggle * (1.0 + 5.0 * pressure)).min(0.9);
        }
    }

    /// Current per-market revocation probabilities for this interval.
    pub fn probabilities(&self) -> &[f64] {
        &self.current
    }

    /// Sample revocation events for a fleet: `fleet[i]` is the number
    /// of running servers in market `i`. When a market is revoked under
    /// surge pressure the provider typically reclaims *the whole pool*;
    /// we model that by drawing one market-level coin and, on
    /// revocation, taking every server in the market.
    pub fn sample_events(&mut self, fleet: &[u32]) -> Vec<RevocationEvent> {
        assert_eq!(fleet.len(), self.len(), "fleet sizes per market");
        let mut events = Vec::new();
        for (i, &n) in fleet.iter().enumerate() {
            if n == 0 || self.current[i] == 0.0 {
                continue;
            }
            if self.rng.gen::<f64>() < self.current[i] {
                events.extend((0..n).map(|s| RevocationEvent {
                    market: i,
                    server_index: s as usize,
                }));
            }
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;

    fn calm(n: usize) -> Vec<bool> {
        vec![false; n]
    }

    #[test]
    fn on_demand_never_revokes() {
        let c = Catalog::fig5_three_markets().with_on_demand();
        let mut m = RevocationModel::new(&c, 1);
        for _ in 0..100 {
            m.step(&calm(c.len()));
        }
        for mk in c.markets() {
            if mk.kind == MarketKind::OnDemand {
                assert_eq!(m.probabilities()[mk.id], 0.0);
            }
        }
        let fleet = vec![5u32; c.len()];
        let events = m.sample_events(&fleet);
        assert!(events.iter().all(|e| c.market(e.market).is_transient()));
    }

    #[test]
    fn probabilities_near_static_when_calm() {
        let c = Catalog::ec2_us_east_36();
        let mut m = RevocationModel::new(&c, 2);
        let mut min_p = f64::INFINITY;
        let mut max_p: f64 = 0.0;
        for _ in 0..200 {
            m.step(&calm(c.len()));
            min_p = min_p.min(m.probabilities()[0]);
            max_p = max_p.max(m.probabilities()[0]);
        }
        let base = c.market(0).base_revocation_prob;
        assert!(
            min_p >= base * 0.85 && max_p <= base * 1.15,
            "wiggle too large"
        );
    }

    #[test]
    fn surge_raises_probability() {
        let c = Catalog::ec2_us_east_36();
        let mut m = RevocationModel::new(&c, 3);
        m.step(&calm(c.len()));
        let calm_p = m.probabilities()[0];
        let mut surging = calm(c.len());
        surging[0] = true;
        for _ in 0..5 {
            m.step(&surging);
        }
        assert!(
            m.probabilities()[0] > 2.0 * calm_p,
            "surge should raise risk"
        );
    }

    #[test]
    fn family_correlation() {
        // Market 0 surging raises probabilities for its whole family.
        let c = Catalog::ec2_us_east_36();
        let mut m = RevocationModel::new(&c, 4);
        let fam0 = c.market(0).instance.family.clone();
        let sibling = c
            .markets()
            .iter()
            .position(|mk| mk.instance.family == fam0 && mk.id != 0)
            .unwrap();
        m.step(&calm(c.len()));
        let before = m.probabilities()[sibling];
        let mut surging = calm(c.len());
        surging[0] = true;
        for _ in 0..5 {
            m.step(&surging);
        }
        assert!(
            m.probabilities()[sibling] > before,
            "family members co-move"
        );
    }

    #[test]
    fn deterministic_sampling() {
        let c = Catalog::ec2_us_east_36();
        let fleet = vec![3u32; c.len()];
        let run = |seed| {
            let mut m = RevocationModel::new(&c, seed);
            let mut all = Vec::new();
            for _ in 0..50 {
                m.step(&calm(c.len()));
                all.extend(m.sample_events(&fleet));
            }
            all
        };
        assert_eq!(run(7), run(7));
    }
}
