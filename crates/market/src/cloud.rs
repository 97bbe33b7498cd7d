//! Stepped façade over the whole market substrate.
//!
//! `CloudSim` advances price and revocation dynamics together, records
//! them into a [`MarketHistory`], and samples revocation events for a
//! fleet. It is the single object the discrete-event simulator and the
//! figure harness drive per decision interval.

use crate::catalog::Catalog;
use crate::history::MarketHistory;
use crate::price::SpotPriceProcess;
use crate::revocation::{RevocationEvent, RevocationModel};
use spotweb_telemetry::{names, TelemetrySink, TraceEvent};

/// One decision interval's market observations.
#[derive(Debug, Clone)]
pub struct MarketTick {
    /// Current $/hour prices, indexed by market id.
    pub prices: Vec<f64>,
    /// Current per-interval revocation probabilities.
    pub failure_probs: Vec<f64>,
}

/// The combined transient-cloud simulator.
#[derive(Debug, Clone)]
pub struct CloudSim {
    catalog: Catalog,
    prices: SpotPriceProcess,
    revocations: RevocationModel,
    history: MarketHistory,
    telemetry: TelemetrySink,
    steps: u64,
}

impl CloudSim {
    /// Build a cloud simulation over `catalog`, keeping `history_len`
    /// intervals of history. The seed derives independent sub-streams
    /// for prices and revocations.
    pub fn new(catalog: Catalog, seed: u64, history_len: usize) -> Self {
        let prices = SpotPriceProcess::new(&catalog, seed.wrapping_mul(2).wrapping_add(1));
        let revocations = RevocationModel::new(&catalog, seed.wrapping_mul(2).wrapping_add(2));
        let history = MarketHistory::new(catalog.len(), history_len);
        CloudSim {
            catalog,
            prices,
            revocations,
            history,
            telemetry: TelemetrySink::disabled(),
            steps: 0,
        }
    }

    /// Assemble from already-built components (used by
    /// [`crate::providers::Provider`] profiles that customize the price
    /// process or revocation model).
    pub fn from_parts(
        catalog: Catalog,
        prices: SpotPriceProcess,
        revocations: RevocationModel,
        history_len: usize,
    ) -> Self {
        let history = MarketHistory::new(catalog.len(), history_len);
        CloudSim {
            catalog,
            prices,
            revocations,
            history,
            telemetry: TelemetrySink::disabled(),
            steps: 0,
        }
    }

    /// Attach a telemetry sink; each [`CloudSim::step`] emits a
    /// `market_tick` trace event and fault hooks are traced.
    pub fn set_telemetry(&mut self, sink: TelemetrySink) {
        self.telemetry = sink;
    }

    /// The market catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Rolling observation history (read by predictors / covariance).
    pub fn history(&self) -> &MarketHistory {
        &self.history
    }

    /// Revocation warning period in seconds.
    pub fn warning_secs(&self) -> f64 {
        self.revocations.warning_secs
    }

    /// Advance one decision interval and record the new observations.
    pub fn step(&mut self) -> MarketTick {
        self.prices.step();
        let surging: Vec<bool> = (0..self.catalog.len())
            .map(|i| self.prices.is_surging(i))
            .collect();
        self.revocations.step(&surging);
        let tick = MarketTick {
            prices: self.prices.prices(),
            failure_probs: self.revocations.probabilities().to_vec(),
        };
        self.history.record(&tick.failure_probs);
        self.steps += 1;
        self.telemetry.count(names::MARKET_STEPS_TOTAL, 1);
        self.telemetry.emit(TraceEvent::MarketTick {
            step: self.steps,
            prices: tick.prices.clone(),
            failure_probs: tick.failure_probs.clone(),
        });
        tick
    }

    /// Warm up the simulation (and history) by `steps` intervals —
    /// predictors need a filled window before the experiment proper.
    pub fn warm_up(&mut self, steps: usize) {
        for _ in 0..steps {
            self.step();
        }
    }

    /// Latest observations without advancing.
    pub fn current(&self) -> MarketTick {
        MarketTick {
            prices: self.prices.prices(),
            failure_probs: self.revocations.probabilities().to_vec(),
        }
    }

    /// Sample revocation events for this interval given a fleet
    /// (`fleet[i]` = running servers in market `i`).
    pub fn sample_revocations(&mut self, fleet: &[u32]) -> Vec<RevocationEvent> {
        let events = self.revocations.sample_events(fleet);
        if !events.is_empty() {
            self.telemetry
                .count(names::MARKET_REVOCATIONS_TOTAL, events.len() as u64);
        }
        events
    }

    /// Per-request price of market `id` right now (`price / r_i`) —
    /// the series Fig. 5(a) plots.
    pub fn per_request_price(&self, id: usize) -> f64 {
        self.prices.price(id) / self.catalog.market(id).capacity_rps()
    }

    /// Fault-injection hook: spike (or crash) spot prices in `market`
    /// (all spot markets when `None`) by `multiplier`, pinning the
    /// injected regime for `hold_steps` intervals. Delegates to
    /// [`SpotPriceProcess::inject_shock`]; a pinned surge also raises
    /// revocation pressure through the normal coupling in
    /// [`CloudSim::step`].
    pub fn inject_price_shock(&mut self, market: Option<usize>, multiplier: f64, hold_steps: u32) {
        self.prices.inject_shock(market, multiplier, hold_steps);
        self.telemetry.emit(TraceEvent::FaultInjected {
            fault: "price_shock".to_string(),
            detail: match market {
                Some(m) => format!("market {m} x{multiplier} for {hold_steps} steps"),
                None => format!("all spot markets x{multiplier} for {hold_steps} steps"),
            },
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;

    #[test]
    fn step_records_history() {
        let mut c = CloudSim::new(Catalog::fig5_three_markets(), 1, 100);
        assert!(c.history().is_empty());
        c.step();
        c.step();
        assert_eq!(c.history().len(), 2);
    }

    #[test]
    fn deterministic_by_seed() {
        let run = |seed| {
            let mut c = CloudSim::new(Catalog::fig5_three_markets(), seed, 10);
            c.warm_up(20);
            c.current().prices
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn per_request_price_scales_by_capacity() {
        let mut c = CloudSim::new(Catalog::fig5_three_markets(), 2, 10);
        c.step();
        let tick = c.current();
        let expected = tick.prices[0] / 1920.0;
        assert!((c.per_request_price(0) - expected).abs() < 1e-12);
    }

    #[test]
    fn sample_revocations_respects_fleet() {
        let mut c = CloudSim::new(Catalog::ec2_us_east_36(), 3, 10);
        c.warm_up(5);
        let fleet = vec![0u32; 36];
        assert!(c.sample_revocations(&fleet).is_empty());
    }

    #[test]
    fn price_shock_raises_failure_pressure() {
        // A held surge must feed the revocation model: failure
        // probabilities in the shocked market rise above the unshocked
        // twin run.
        let run = |shock: bool| {
            let mut c = CloudSim::new(Catalog::fig5_three_markets(), 8, 50);
            c.warm_up(10);
            if shock {
                c.inject_price_shock(Some(0), 3.0, 8);
            }
            let mut worst: f64 = 0.0;
            for _ in 0..8 {
                let tick = c.step();
                worst = worst.max(tick.failure_probs[0]);
            }
            worst
        };
        assert!(
            run(true) > run(false),
            "surge pressure must raise revocation probability"
        );
    }
}
