//! Provisioning policies: SpotWeb and the baselines it is evaluated
//! against (§6).
//!
//! A [`Policy`] is called once per decision interval with the latest
//! observations and returns the fleet (server count per market) to run
//! for the *next* interval. Implementations:
//!
//! * [`SpotWebPolicy`] — MPO + SpotWeb predictor (or oracle forecasts).
//! * [`ExoSpherePolicy`] — "ExoSphere in a loop": single-period
//!   optimization (the MPO at `H = 1`, no churn) re-run every interval
//!   on current observations (Fig. 6(b) baseline).
//! * [`ConstantPortfolioPolicy`] — portfolio frozen after a settling
//!   period, thereafter only the *size* scales with load (Fig. 5(c)/6(a)
//!   baseline).
//! * [`OnDemandPolicy`] — conventional on-demand provisioning (the
//!   "up to 90% savings" comparison of §8).
//!
//! The **policy zoo** submodules add related-work portfolio strategies
//! as first-class competitors, built by name through
//! [`factory::build_policy`]:
//!
//! * [`exosphere`] — single-period Markowitz selection (arXiv:1704.08738).
//! * [`index_tracking`] — hold the spot index (arXiv:1809.03110).
//! * [`het_spot_groups`] — fault-tolerance-aware failure-domain
//!   grouping (arXiv:1509.05197).
//! * [`randomized_market`] — seeded randomized market selection
//!   (arXiv:2601.14612).

pub mod exosphere;
pub mod factory;
pub mod het_spot_groups;
pub mod index_tracking;
pub mod randomized_market;

use spotweb_linalg::Matrix;
use spotweb_market::{Catalog, Market, MarketKind};
use spotweb_predict::price::MeanRevertingPricePredictor;
use spotweb_predict::{SeriesPredictor, SpotWebPredictor};
use spotweb_solver::Certificate;
use spotweb_telemetry::{names, DecisionRecord, MarketEval, TelemetrySink, TraceEvent};

use crate::allocation::to_server_counts;
use crate::config::SpotWebConfig;
use crate::forecast::ForecastBundle;
use crate::mpo::MpoOptimizer;

/// Oracle view of the true future (used when the experiment grants
/// perfect predictions, as in Figs. 5 and 6(a)).
#[derive(Debug, Clone)]
pub struct OracleView {
    /// True workload for the next intervals (`[0]` = next).
    pub workload: Vec<f64>,
    /// True per-market prices for the next intervals.
    pub prices: Vec<Vec<f64>>,
}

/// Everything a policy may look at when deciding.
#[derive(Debug, Clone)]
pub struct PolicyObservation<'a> {
    /// Index of the current decision interval.
    pub interval: usize,
    /// Arrival rate observed over the current interval (req/s).
    pub current_workload: f64,
    /// Current $/hour price per market.
    pub prices: &'a [f64],
    /// Current revocation probability per market.
    pub failure_probs: &'a [f64],
    /// Revocation covariance estimate `M`.
    pub covariance: &'a Matrix,
    /// Perfect future knowledge, when the experiment provides it.
    pub oracle: Option<&'a OracleView>,
}

/// A provisioning policy.
pub trait Policy {
    /// Short name for reports.
    fn name(&self) -> &str;

    /// Decide the fleet for the next interval.
    fn decide(&mut self, catalog: &Catalog, obs: &PolicyObservation<'_>) -> Vec<u32>;
}

/// Price-predictor window for the deployable configuration (hours).
const PRICE_WINDOW: usize = 48;

/// The SpotWeb policy: multi-period optimization over forecast bundles.
///
/// # Examples
///
/// Decide a fleet for one interval from current market observations:
///
/// ```
/// use spotweb_core::policy::{Policy, PolicyObservation};
/// use spotweb_core::{SpotWebConfig, SpotWebPolicy};
/// use spotweb_linalg::Matrix;
/// use spotweb_market::Catalog;
///
/// let catalog = Catalog::fig5_three_markets();
/// let mut policy = SpotWebPolicy::new(SpotWebConfig::default(), catalog.len());
/// let obs = PolicyObservation {
///     interval: 0,
///     current_workload: 1000.0,          // req/s observed this interval
///     prices: &[2.0, 1.0, 1.2],          // $/hour per market
///     failure_probs: &[0.04, 0.04, 0.04],
///     covariance: &Matrix::identity(3).scaled(1e-4),
///     oracle: None,
/// };
/// let fleet = policy.decide(&catalog, &obs);
/// assert_eq!(fleet.len(), catalog.len());
/// // The decided fleet covers the observed workload.
/// let capacity: f64 = fleet
///     .iter()
///     .enumerate()
///     .map(|(i, &n)| n as f64 * catalog.market(i).capacity_rps())
///     .sum();
/// assert!(capacity >= 1000.0);
/// ```
pub struct SpotWebPolicy {
    optimizer: MpoOptimizer,
    workload_predictor: Box<dyn SeriesPredictor + Send>,
    /// Per-market mean-reverting price predictors (§4.2: "if a price
    /// predictor is available, priceᵢₜ will vary over the horizon H").
    price_predictors: Vec<MeanRevertingPricePredictor>,
    prev_allocation: Vec<f64>,
    name: String,
    telemetry: TelemetrySink,
}

/// Human-readable market label for decision records.
fn market_label(m: &Market) -> String {
    let kind = match m.kind {
        MarketKind::OnDemand => "on-demand",
        MarketKind::Spot => "spot",
    };
    format!("{}/{kind}", m.instance.name)
}

impl SpotWebPolicy {
    /// Standard configuration: SpotWeb workload predictor (spline + AR
    /// + 99% CI) and per-market mean-reverting price predictors.
    pub fn new(config: SpotWebConfig, markets: usize) -> Self {
        Self::with_predictor(config, markets, Box::new(SpotWebPredictor::new()))
    }

    /// Custom workload predictor (ablations, Fig. 7(a) noise injection).
    pub fn with_predictor(
        config: SpotWebConfig,
        markets: usize,
        predictor: Box<dyn SeriesPredictor + Send>,
    ) -> Self {
        let h = config.horizon;
        SpotWebPolicy {
            optimizer: MpoOptimizer::new(config),
            workload_predictor: predictor,
            price_predictors: (0..markets)
                .map(|_| MeanRevertingPricePredictor::new(PRICE_WINDOW))
                .collect(),
            prev_allocation: vec![0.0; markets],
            name: format!("spotweb(H={h})"),
            telemetry: TelemetrySink::disabled(),
        }
    }

    /// Attach a telemetry sink: every decide emits a
    /// [`DecisionRecord`] trace event, solver wall-clock goes to the
    /// timings store, and the workload predictor explains its
    /// forecasts through the same sink.
    pub fn with_telemetry(mut self, sink: TelemetrySink) -> Self {
        self.workload_predictor.set_telemetry(sink.clone());
        self.telemetry = sink;
        self
    }
}

impl Policy for SpotWebPolicy {
    fn name(&self) -> &str {
        &self.name
    }

    fn decide(&mut self, catalog: &Catalog, obs: &PolicyObservation<'_>) -> Vec<u32> {
        let h = self.optimizer.config().horizon;
        self.workload_predictor.observe(obs.current_workload);
        for (p, &price) in self.price_predictors.iter_mut().zip(obs.prices) {
            p.observe(price);
        }
        let forecast = match obs.oracle {
            Some(view) => {
                ForecastBundle::oracle(&view.workload, &view.prices, obs.failure_probs, h)
            }
            None => {
                let workload = self.workload_predictor.predict(h);
                // τ-major transpose of per-market forecasts.
                let per_market: Vec<Vec<f64>> =
                    self.price_predictors.iter().map(|p| p.predict(h)).collect();
                let prices = (0..h)
                    .map(|tau| per_market.iter().map(|f| f[tau]).collect())
                    .collect();
                ForecastBundle {
                    workload,
                    prices,
                    failures: vec![obs.failure_probs.to_vec(); h],
                }
            }
        };
        let min_alloc = self.optimizer.config().min_allocation;
        let (counts, objective, iterations, solved, certificate) =
            match self
                .optimizer
                .optimize(catalog, &forecast, obs.covariance, &self.prev_allocation)
            {
                Ok(decision) => {
                    self.prev_allocation = decision.first().to_vec();
                    self.telemetry.count(names::MPO_SOLVES_TOTAL, 1);
                    // Iterations-to-convergence: the number the
                    // warm-start fast path exists to shrink.
                    self.telemetry
                        .count(names::ADMM_ITERATIONS_TOTAL, decision.iterations as u64);
                    self.telemetry
                        .observe(names::ADMM_ITERATIONS_HIST, decision.iterations as f64);
                    self.telemetry.count(
                        if decision.warm_started {
                            names::MPO_WARM_SOLVES_TOTAL
                        } else {
                            names::MPO_COLD_SOLVES_TOTAL
                        },
                        1,
                    );
                    if decision.factor_reused {
                        self.telemetry.count(names::MPO_FACTOR_REUSE_TOTAL, 1);
                    }
                    let counts = to_server_counts(
                        catalog,
                        decision.first(),
                        forecast.workload[0],
                        min_alloc,
                    );
                    (
                        counts,
                        decision.objective,
                        decision.iterations,
                        decision.solved,
                        decision.certificate,
                    )
                }
                // On solver failure keep the previous fleet (fail static,
                // never fail empty).
                Err(_) => {
                    self.telemetry.count(names::MPO_SOLVE_FAILURES_TOTAL, 1);
                    let counts = to_server_counts(
                        catalog,
                        &self.prev_allocation,
                        forecast.workload[0],
                        min_alloc,
                    );
                    let unsolved = Certificate {
                        primal_residual: f64::NAN,
                        dual_residual: f64::NAN,
                        duality_gap: f64::NAN,
                    };
                    (counts, f64::NAN, 0, false, unsolved)
                }
            };
        if self.telemetry.is_enabled() {
            let markets: Vec<MarketEval> = (0..catalog.len())
                .map(|i| {
                    let m = catalog.market(i);
                    let a = self.prev_allocation[i];
                    let chosen = counts[i] > 0;
                    // Fixed-precision reasons keep the trace byte-stable
                    // and human-readable.
                    let reason = if chosen {
                        format!("allocated {a:.4} of workload across {} servers", counts[i])
                    } else if a < min_alloc {
                        format!("allocation {a:.4} below min {min_alloc:.4}")
                    } else {
                        "allocation rounded to zero servers".to_string()
                    };
                    MarketEval {
                        market: i,
                        name: market_label(m),
                        price: forecast.prices[0][i],
                        capacity_rps: m.capacity_rps(),
                        cost_per_mreq: forecast.prices[0][i] / m.capacity_rps() / 3600.0 * 1e6,
                        revocation_prob: forecast.failures[0][i],
                        risk: obs.covariance[(i, i)],
                        allocation: a,
                        servers: counts[i],
                        chosen,
                        reason,
                    }
                })
                .collect();
            self.telemetry.emit(TraceEvent::Decision(DecisionRecord {
                interval: obs.interval as u64,
                policy: self.name.clone(),
                observed_rps: obs.current_workload,
                horizon: h,
                predicted_workload: forecast.workload.clone(),
                objective,
                iterations,
                solved,
                primal_residual: certificate.primal_residual,
                dual_residual: certificate.dual_residual,
                duality_gap: certificate.duality_gap,
                total_allocation: self.prev_allocation.iter().sum(),
                markets,
            }));
        }
        counts
    }
}

/// ExoSphere re-run every interval: single-period, reactive inputs.
pub struct ExoSpherePolicy {
    optimizer: MpoOptimizer,
    min_allocation: f64,
    last_allocation: Vec<f64>,
}

impl ExoSpherePolicy {
    /// ExoSphere's single-period optimization (Sharma et al.,
    /// SIGMETRICS'17, §4.1): the MPO on the shared config with the
    /// horizon forced to 1 and the (multi-period) churn term dropped.
    pub fn new(config: SpotWebConfig, markets: usize) -> Self {
        let min_allocation = config.min_allocation;
        ExoSpherePolicy {
            optimizer: MpoOptimizer::new(SpotWebConfig {
                horizon: 1,
                churn_gamma: 0.0,
                ..config
            }),
            min_allocation,
            last_allocation: vec![0.0; markets],
        }
    }

    /// Re-solve from *current* observations only — flat forecasts, and
    /// zeros for the previous allocation, which no churn term reads —
    /// and return the allocation; a failed solve keeps the last one.
    fn allocate(&mut self, catalog: &Catalog, obs: &PolicyObservation<'_>) -> &[f64] {
        let forecast = ForecastBundle::flat(obs.current_workload, obs.prices, obs.failure_probs, 1);
        let zeros = vec![0.0; catalog.len()];
        let solved = self
            .optimizer
            .optimize(catalog, &forecast, obs.covariance, &zeros);
        if let Ok(decision) = solved {
            self.last_allocation = decision.first().to_vec();
        }
        &self.last_allocation
    }
}

impl Policy for ExoSpherePolicy {
    fn name(&self) -> &str {
        "exosphere-loop"
    }

    fn decide(&mut self, catalog: &Catalog, obs: &PolicyObservation<'_>) -> Vec<u32> {
        let min_allocation = self.min_allocation;
        let allocation = self.allocate(catalog, obs);
        to_server_counts(catalog, allocation, obs.current_workload, min_allocation)
    }
}

/// Constant portfolio + autoscaler: portfolio weights frozen at
/// `fix_at_interval`; afterwards only the fleet size tracks the load
/// (using the oracle's next-interval workload when available — the
/// paper's "oracle auto-scaler").
pub struct ConstantPortfolioPolicy {
    /// The settling phase's optimizer, and the allocation frozen.
    exosphere: ExoSpherePolicy,
    fix_at_interval: usize,
    frozen_weights: Option<Vec<f64>>,
}

impl ConstantPortfolioPolicy {
    /// Freeze the portfolio after `fix_at_interval` decisions (the
    /// paper freezes after 2 hours).
    pub fn new(config: SpotWebConfig, markets: usize, fix_at_interval: usize) -> Self {
        ConstantPortfolioPolicy {
            exosphere: ExoSpherePolicy::new(config, markets),
            fix_at_interval,
            frozen_weights: None,
        }
    }
}

impl Policy for ConstantPortfolioPolicy {
    fn name(&self) -> &str {
        "constant-portfolio"
    }

    fn decide(&mut self, catalog: &Catalog, obs: &PolicyObservation<'_>) -> Vec<u32> {
        // Next-interval target: oracle if present, else reactive.
        let lambda_next = obs
            .oracle
            .and_then(|v| v.workload.first().copied())
            .unwrap_or(obs.current_workload);
        let min_allocation = self.exosphere.min_allocation;

        if let Some(weights) = &self.frozen_weights {
            return to_server_counts(catalog, weights, lambda_next, min_allocation);
        }
        // Settling phase: behave like ExoSphere; freeze at the configured step.
        let allocation = self.exosphere.allocate(catalog, obs);
        let counts = to_server_counts(catalog, allocation, lambda_next, min_allocation);
        if obs.interval + 1 >= self.fix_at_interval {
            // Normalize the allocation into weights summing to A_min-ish
            // shape; sizes rescale with λ afterwards.
            let total: f64 = allocation.iter().sum();
            if total > 0.0 {
                self.frozen_weights = Some(allocation.to_vec());
            }
        }
        counts
    }
}

/// Head-room multiplier [`OnDemandPolicy`] applies to the target rate
/// (on-demand deployments over-provision too; 1.2 is a
/// generous-but-typical utilization target of ~83%).
const ON_DEMAND_HEADROOM: f64 = 1.2;

/// Conventional on-demand provisioning: cheapest-per-request on-demand
/// configuration, scaled to the load (reactive or oracle) plus 20%
/// headroom.
#[derive(Debug, Clone, Copy, Default)]
pub struct OnDemandPolicy;

impl OnDemandPolicy {
    /// The policy has no state.
    pub fn new() -> Self {
        OnDemandPolicy
    }
}

impl Policy for OnDemandPolicy {
    fn name(&self) -> &str {
        "on-demand"
    }

    fn decide(&mut self, catalog: &Catalog, obs: &PolicyObservation<'_>) -> Vec<u32> {
        let lambda = obs
            .oracle
            .and_then(|v| v.workload.first().copied())
            .unwrap_or(obs.current_workload)
            * ON_DEMAND_HEADROOM;
        // Cheapest per-request among *on-demand* markets; when the
        // catalog is spot-only (some experiments), fall back to any
        // market but note the billed price will then be the spot price.
        let candidates: Vec<_> = catalog
            .markets()
            .iter()
            .filter(|m| m.kind == spotweb_market::MarketKind::OnDemand)
            .collect();
        let pool: Vec<_> = if candidates.is_empty() {
            catalog.markets().iter().collect()
        } else {
            candidates
        };
        let best = pool
            .into_iter()
            .min_by(|a, b| {
                a.instance
                    .on_demand_cost_per_request()
                    .partial_cmp(&b.instance.on_demand_cost_per_request())
                    .expect("finite prices")
            })
            .expect("non-empty catalog");
        let mut counts = vec![0u32; catalog.len()];
        counts[best.id] = (lambda / best.capacity_rps()).ceil() as u32;
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotweb_market::Catalog;

    fn obs_fixture<'a>(
        prices: &'a [f64],
        failures: &'a [f64],
        cov: &'a Matrix,
    ) -> PolicyObservation<'a> {
        PolicyObservation {
            interval: 0,
            current_workload: 1000.0,
            prices,
            failure_probs: failures,
            covariance: cov,
            oracle: None,
        }
    }

    #[test]
    fn spotweb_policy_provisions_enough_capacity() {
        let catalog = Catalog::fig5_three_markets();
        let prices = [2.0, 1.0, 1.2];
        let failures = [0.04; 3];
        let cov = Matrix::identity(3).scaled(1e-4);
        let mut p = SpotWebPolicy::new(SpotWebConfig::default(), 3);
        let counts = p.decide(&catalog, &obs_fixture(&prices, &failures, &cov));
        let cap: f64 = counts
            .iter()
            .enumerate()
            .map(|(i, &n)| n as f64 * catalog.market(i).capacity_rps())
            .sum();
        assert!(cap >= 1000.0, "capacity {cap} must cover the workload");
    }

    #[test]
    fn spotweb_policy_emits_decision_records() {
        let catalog = Catalog::fig5_three_markets();
        let prices = [2.0, 1.0, 1.2];
        let failures = [0.04; 3];
        let cov = Matrix::identity(3).scaled(1e-4);
        let sink = TelemetrySink::enabled();
        let mut p = SpotWebPolicy::new(SpotWebConfig::default(), 3).with_telemetry(sink.clone());
        let mut obs = obs_fixture(&prices, &failures, &cov);
        for k in 0..3 {
            obs.interval = k;
            p.decide(&catalog, &obs);
        }
        let records: Vec<DecisionRecord> = sink
            .events()
            .iter()
            .filter_map(|e| match &e.event {
                TraceEvent::Decision(d) => Some(d.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(records.len(), 3, "one decision record per solve");
        assert_eq!(sink.counter("spotweb_mpo_solves_total"), 3);
        let last = records.last().unwrap();
        assert_eq!(last.interval, 2);
        assert_eq!(last.markets.len(), 3);
        assert!(last.total_allocation >= 1.0, "full coverage");
        // Chosen markets explain their share; rejected ones say why.
        for m in &last.markets {
            assert_eq!(m.chosen, m.servers > 0);
            assert!(!m.reason.is_empty());
            if !m.chosen {
                assert!(m.reason.contains("below min") || m.reason.contains("zero servers"));
            }
        }
    }

    #[test]
    fn exosphere_tracks_current_load_only() {
        let catalog = Catalog::fig5_three_markets();
        let prices = [2.0, 1.0, 1.2];
        let failures = [0.04; 3];
        let cov = Matrix::identity(3).scaled(1e-4);
        let mut p = ExoSpherePolicy::new(SpotWebConfig::default(), 3);
        let mut obs = obs_fixture(&prices, &failures, &cov);
        let low = p.decide(&catalog, &obs);
        obs.current_workload = 4000.0;
        let high = p.decide(&catalog, &obs);
        let cap = |c: &[u32]| -> f64 {
            c.iter()
                .enumerate()
                .map(|(i, &n)| n as f64 * catalog.market(i).capacity_rps())
                .sum()
        };
        assert!(cap(&high) > cap(&low));
    }

    #[test]
    fn exosphere_is_myopic_to_future_prices() {
        // Fed only the current (cheap) price of market 1, ExoSphere
        // allocates to it even though the oracle knows it is about to
        // become expensive — the behavior Fig. 6(b) exploits.
        let catalog = Catalog::fig5_three_markets();
        let prices = [6.5, 0.4, 1.1];
        let failures = [0.04; 3];
        let cov = Matrix::identity(3).scaled(1e-4);
        let oracle = OracleView {
            workload: vec![1000.0],
            prices: vec![vec![6.5, 9.0, 1.1]],
        };
        let mut obs = obs_fixture(&prices, &failures, &cov);
        obs.oracle = Some(&oracle);
        let mut p = ExoSpherePolicy::new(SpotWebConfig::default(), 3);
        p.decide(&catalog, &obs);
        let a = &p.last_allocation;
        assert!(
            a[1] > a[0] && a[1] > a[2],
            "myopically picks market 1: {a:?}"
        );
    }

    #[test]
    fn exosphere_covers_demand() {
        let catalog = Catalog::ec2_subset(9);
        let prices: Vec<f64> = catalog
            .markets()
            .iter()
            .map(|m| m.instance.on_demand_price * 0.3)
            .collect();
        let failures = vec![0.05; 9];
        let cov = Matrix::identity(9).scaled(1e-4);
        let mut obs = obs_fixture(&prices, &failures, &cov);
        obs.current_workload = 2000.0;
        let mut p = ExoSpherePolicy::new(SpotWebConfig::default(), 9);
        // The solve `decide` makes, made directly for its status.
        let forecast = ForecastBundle::flat(2000.0, &prices, &failures, 1);
        let d = p
            .optimizer
            .clone()
            .optimize(&catalog, &forecast, &cov, &[0.0; 9]);
        assert!(d.unwrap().solved);
        let counts = p.decide(&catalog, &obs);
        assert!(p.last_allocation.iter().sum::<f64>() >= 0.99);
        let cap: f64 = counts
            .iter()
            .enumerate()
            .map(|(i, &n)| n as f64 * catalog.market(i).capacity_rps())
            .sum();
        assert!(cap >= 2000.0, "capacity {cap} covers the workload");
    }

    #[test]
    fn constant_portfolio_freezes_weights() {
        let catalog = Catalog::fig5_three_markets();
        let failures = [0.04; 3];
        let cov = Matrix::identity(3).scaled(1e-4);
        let mut p = ConstantPortfolioPolicy::new(SpotWebConfig::default(), 3, 2);
        let prices1 = [2.0, 1.0, 1.2];
        let mut obs = obs_fixture(&prices1, &failures, &cov);
        p.decide(&catalog, &obs);
        obs.interval = 1;
        p.decide(&catalog, &obs);
        let frozen = p.frozen_weights.clone();
        assert!(frozen.is_some(), "weights frozen after interval 2");
        // Prices flip; the frozen policy must not change its mix.
        let prices2 = [9.0, 0.2, 5.0];
        obs.interval = 2;
        obs.prices = &prices2;
        p.decide(&catalog, &obs);
        assert_eq!(p.frozen_weights, frozen);
    }

    #[test]
    fn on_demand_picks_single_cheapest_market() {
        let catalog = Catalog::fig5_three_markets();
        let prices = [2.0, 1.0, 1.2]; // ignored: policy uses on-demand prices
        let failures = [0.0; 3];
        let cov = Matrix::identity(3).scaled(1e-4);
        let mut p = OnDemandPolicy::new();
        let counts = p.decide(&catalog, &obs_fixture(&prices, &failures, &cov));
        assert_eq!(counts.iter().filter(|&&n| n > 0).count(), 1);
        // Capacity covers λ with headroom.
        let cap: f64 = counts
            .iter()
            .enumerate()
            .map(|(i, &n)| n as f64 * catalog.market(i).capacity_rps())
            .sum();
        assert!(cap >= 1200.0);
    }

    #[test]
    fn oracle_overrides_reactive_target() {
        let catalog = Catalog::fig5_three_markets();
        let prices = [2.0, 1.0, 1.2];
        let failures = [0.0; 3];
        let cov = Matrix::identity(3).scaled(1e-4);
        let oracle = OracleView {
            workload: vec![5000.0],
            prices: vec![prices.to_vec()],
        };
        let mut obs = obs_fixture(&prices, &failures, &cov);
        obs.oracle = Some(&oracle);
        let mut p = OnDemandPolicy::new();
        let counts = p.decide(&catalog, &obs);
        let cap: f64 = counts
            .iter()
            .enumerate()
            .map(|(i, &n)| n as f64 * catalog.market(i).capacity_rps())
            .sum();
        assert!(cap >= 6000.0, "oracle-sized fleet {cap}");
    }
}
