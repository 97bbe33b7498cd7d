//! Interval-level cost evaluation — the simulation harness behind
//! Figs. 5, 6 and 7(a).
//!
//! The paper's long-horizon experiments use a discrete-event simulator
//! at coarse granularity: per decision interval, the policy picks a
//! fleet, the market moves, revocations strike, and the ledger records
//! provisioning cost and SLO-violation penalties. (The fine-grained
//! request-level simulator lives in `spotweb-sim` and backs Fig. 4(a).)
//!
//! Timeline per interval `t`:
//! 1. the cloud advances (prices, failure probabilities),
//! 2. the policy observes interval `t`'s workload + the fresh market
//!    tick and decides the fleet for interval `t+1`,
//! 3. revocations strike the deployed fleet during `t+1` (a revoked
//!    server contributes half the interval in expectation),
//! 4. the ledger charges server-hours at realized prices and penalties
//!    for requests beyond the surviving capacity.

use spotweb_linalg::Matrix;
use spotweb_market::{Catalog, CloudSim, Provider, DEFAULT_SHRINKAGE};
use spotweb_workload::Trace;

use crate::policy::{OracleView, Policy, PolicyObservation};

/// Options for an evaluation run.
#[derive(Debug, Clone)]
pub struct EvalOptions {
    /// Intervals to simulate (capped by trace length − 1).
    pub intervals: usize,
    /// Market warm-up steps before the run (fills history windows).
    pub cloud_warmup: usize,
    /// RNG seed for the cloud simulation.
    pub seed: u64,
    /// Penalty per dropped request ($). The paper sets its `P` to
    /// twice the *most expensive* per-request serving cost so that
    /// dropping is never cheaper than serving; the priciest market in
    /// our catalog (x1e.16xlarge) serves a request for ≈ 2.9 µ$, so
    /// the default is 6 µ$ per dropped request.
    pub penalty_per_request: f64,
    /// Grant the policy perfect future knowledge (oracle experiments).
    pub oracle: bool,
    /// Oracle look-ahead length (intervals) when `oracle` is set.
    pub oracle_horizon: usize,
    /// Sample random revocations against the deployed fleet.
    pub revocations: bool,
    /// Decision interval in seconds.
    pub interval_secs: f64,
    /// Capacity gap per revoked server: the seconds between losing the
    /// server and its replacement serving at full speed (warning-period
    /// drain + startup + cache warm-up; §6.1 measures ≈ 1 min startup +
    /// 30–90 s warm-up). The controller reprovisions reactively, so the
    /// gap is minutes, not the rest of the interval.
    pub recovery_gap_secs: f64,
    /// Cloud-provider profile (price dynamics, warning period,
    /// preemption rates — §7 "Other Cloud providers").
    pub provider: Provider,
    /// §6.2 reactive provisioning: when the deployed capacity falls
    /// short mid-interval, request on-demand top-up servers "to add
    /// additional capacity to the cluster for the remainder of the
    /// interval". Off by default so the headline figures measure the
    /// proactive system alone.
    pub reactive_topup: bool,
    /// Seconds before top-up capacity serves (request + boot + warm).
    pub topup_reaction_secs: f64,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            intervals: 336,
            cloud_warmup: 48,
            seed: 42,
            penalty_per_request: 6e-6,
            oracle: false,
            oracle_horizon: 10,
            revocations: true,
            interval_secs: 3600.0,
            recovery_gap_secs: 180.0,
            provider: Provider::Ec2Spot,
            reactive_topup: false,
            topup_reaction_secs: 300.0,
        }
    }
}

/// Per-interval record (figures plot these series).
#[derive(Debug, Clone)]
pub struct IntervalRecord {
    /// Interval index.
    pub interval: usize,
    /// Workload the fleet had to serve (req/s).
    pub workload: f64,
    /// Deployed server counts per market.
    pub fleet: Vec<u32>,
    /// Provisioning cost for the interval ($).
    pub provisioning_cost: f64,
    /// Penalty cost for the interval ($).
    pub penalty_cost: f64,
    /// Requests dropped in the interval.
    pub dropped_requests: f64,
    /// Capacity after revocations (req/s).
    pub effective_capacity: f64,
    /// Number of servers revoked during the interval.
    pub revoked_servers: u32,
    /// Reactive on-demand top-up servers started this interval (§6.2).
    pub topup_servers: u32,
}

/// Aggregate result of an evaluation run.
#[derive(Debug, Clone)]
pub struct CostReport {
    /// Policy name.
    pub policy: String,
    /// Total provisioning cost ($).
    pub provisioning_cost: f64,
    /// Total SLO penalty ($).
    pub penalty_cost: f64,
    /// Total requests offered.
    pub total_requests: f64,
    /// Total requests dropped.
    pub dropped_requests: f64,
    /// Per-interval detail.
    pub records: Vec<IntervalRecord>,
}

impl CostReport {
    /// Provisioning + penalties ($).
    pub fn total_cost(&self) -> f64 {
        self.provisioning_cost + self.penalty_cost
    }

    /// Fraction of requests dropped.
    pub fn drop_fraction(&self) -> f64 {
        if self.total_requests == 0.0 {
            0.0
        } else {
            self.dropped_requests / self.total_requests
        }
    }

    /// Cost savings of `self` relative to `other` (positive = cheaper).
    pub fn savings_vs(&self, other: &CostReport) -> f64 {
        if other.total_cost() == 0.0 {
            return 0.0;
        }
        1.0 - self.total_cost() / other.total_cost()
    }
}

/// Run `policy` over `trace` on a fresh cloud built from `catalog`.
///
/// Deterministic for a given `(catalog, trace, options.seed)` triple —
/// competing policies evaluated with the same seed see *identical*
/// price and revocation-probability paths.
pub fn simulate_costs(
    policy: &mut dyn Policy,
    catalog: &Catalog,
    trace: &Trace,
    options: &EvalOptions,
) -> CostReport {
    assert!(trace.len() >= 2, "trace too short to evaluate");
    let mut cloud = options
        .provider
        .cloud(catalog.clone(), options.seed, 24 * 60);
    cloud.warm_up(options.cloud_warmup.max(4));

    let intervals = options.intervals.min(trace.len() - 1);
    let interval_hours = options.interval_secs / 3600.0;
    let mut records = Vec::with_capacity(intervals);
    let mut provisioning_total = 0.0;
    let mut penalty_total = 0.0;
    let mut total_requests = 0.0;
    let mut dropped_total = 0.0;

    for t in 0..intervals {
        let tick = cloud.step();
        let covariance = covariance_from_cloud(&cloud);
        let current_workload = trace.get(t);

        // Oracle: clone the cloud to peek at the true future prices.
        let oracle_view = if options.oracle {
            let h = options.oracle_horizon;
            let mut peek = cloud.clone();
            let mut prices = Vec::with_capacity(h);
            for _ in 0..h {
                prices.push(peek.step().prices);
            }
            let workload: Vec<f64> = (0..h)
                .map(|k| trace.get((t + 1 + k).min(trace.len() - 1)))
                .collect();
            Some(OracleView { workload, prices })
        } else {
            None
        };

        let obs = PolicyObservation {
            interval: t,
            current_workload,
            prices: &tick.prices,
            failure_probs: &tick.failure_probs,
            covariance: &covariance,
            oracle: oracle_view.as_ref(),
        };
        let fleet = policy.decide(catalog, &obs);
        assert_eq!(fleet.len(), catalog.len(), "policy fleet length");

        // The fleet serves interval t+1.
        let served_workload = trace.get(t + 1);
        let offered = served_workload * options.interval_secs;
        total_requests += offered;

        // Revocations against the deployed fleet.
        let (revoked, surviving) = if options.revocations {
            let events = cloud.sample_revocations(&fleet);
            let mut surviving = fleet.clone();
            for e in &events {
                if surviving[e.market] > 0 {
                    surviving[e.market] -= 1;
                }
            }
            (events.len() as u32, surviving)
        } else {
            (0, fleet.clone())
        };

        // Capacity: a revoked server is replaced reactively (the
        // controller requests a substitute on the warning, §4.4/§6.2),
        // so the fleet only loses each revoked server's capacity for
        // the recovery gap, amortized over the interval.
        let cap = |counts: &[u32]| -> f64 {
            counts
                .iter()
                .enumerate()
                .map(|(i, &n)| n as f64 * catalog.market(i).capacity_rps())
                .sum()
        };
        let full_cap = cap(&fleet);
        let surv_cap = cap(&surviving);
        let gap_fraction = (options.recovery_gap_secs / options.interval_secs).clamp(0.0, 1.0);
        let effective_capacity = full_cap - gap_fraction * (full_cap - surv_cap);

        let mut unserved_rps = (served_workload - effective_capacity).max(0.0);
        let mut topup_servers = 0u32;
        let mut topup_cost = 0.0;
        if options.reactive_topup && unserved_rps > 0.0 {
            // §6.2: request on-demand capacity for the rest of the
            // interval. Pick the cheapest per-request configuration at
            // on-demand prices; the gap persists for the reaction time.
            let best = catalog
                .markets()
                .iter()
                .min_by(|a, b| {
                    a.instance
                        .on_demand_cost_per_request()
                        .partial_cmp(&b.instance.on_demand_cost_per_request())
                        .expect("finite prices")
                })
                .expect("non-empty catalog");
            topup_servers = (unserved_rps / best.capacity_rps()).ceil() as u32;
            let serving_secs = (options.interval_secs - options.topup_reaction_secs).max(0.0);
            topup_cost =
                topup_servers as f64 * best.instance.on_demand_price * (serving_secs / 3600.0);
            // Only the reaction window still drops requests.
            let reaction_fraction =
                (options.topup_reaction_secs / options.interval_secs).clamp(0.0, 1.0);
            unserved_rps *= reaction_fraction;
        }
        let dropped = unserved_rps * options.interval_secs;
        dropped_total += dropped;
        let penalty = dropped * options.penalty_per_request;
        penalty_total += penalty;

        // Charge realized prices for the full fleet (the revoked server
        // and its replacement together cover the interval; the short
        // recovery gap is not billed). Prices are the decision tick's —
        // identical across competing policies for a given seed.
        let mut provisioning = topup_cost;
        for (i, &n_full) in fleet.iter().enumerate() {
            provisioning += tick.prices[i] * interval_hours * n_full as f64;
        }
        provisioning_total += provisioning;

        records.push(IntervalRecord {
            interval: t,
            workload: served_workload,
            fleet,
            provisioning_cost: provisioning,
            penalty_cost: penalty,
            dropped_requests: dropped,
            effective_capacity,
            revoked_servers: revoked,
            topup_servers,
        });
    }

    CostReport {
        policy: policy.name().to_string(),
        provisioning_cost: provisioning_total,
        penalty_cost: penalty_total,
        total_requests,
        dropped_requests: dropped_total,
        records,
    }
}

/// The risk matrix the harness hands every policy, for policies/tests
/// that need the same estimator. §6: "M is chosen based on correlation
/// between the failure probabilities" — scale-free, so the paper's
/// α = 5 is commensurate with the O(1) cost terms. Read in O(n²) from
/// the history's running sums ([`spotweb_market::MarketHistory::correlation`]).
pub fn covariance_from_cloud(cloud: &CloudSim) -> Matrix {
    cloud.history().correlation(DEFAULT_SHRINKAGE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SpotWebConfig;
    use crate::policy::{OnDemandPolicy, SpotWebPolicy};
    use spotweb_workload::wikipedia_like;

    fn short_options() -> EvalOptions {
        EvalOptions {
            intervals: 48,
            cloud_warmup: 24,
            seed: 7,
            ..EvalOptions::default()
        }
    }

    #[test]
    fn report_accounting_consistent() {
        let catalog = Catalog::fig5_three_markets();
        let trace = wikipedia_like(100, 1).with_mean(2000.0);
        let mut policy = OnDemandPolicy::new();
        let r = simulate_costs(&mut policy, &catalog, &trace, &short_options());
        assert_eq!(r.records.len(), 48);
        let sum_prov: f64 = r.records.iter().map(|x| x.provisioning_cost).sum();
        assert!((sum_prov - r.provisioning_cost).abs() < 1e-9);
        let sum_drop: f64 = r.records.iter().map(|x| x.dropped_requests).sum();
        assert!((sum_drop - r.dropped_requests).abs() < 1e-6);
        assert!(r.total_cost() > 0.0);
    }

    #[test]
    fn deterministic_across_runs() {
        let catalog = Catalog::fig5_three_markets();
        let trace = wikipedia_like(100, 2).with_mean(2000.0);
        let run = || {
            let mut policy = OnDemandPolicy::new();
            simulate_costs(&mut policy, &catalog, &trace, &short_options()).total_cost()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn spot_policy_cheaper_than_on_demand() {
        // The headline §8 claim: transient provisioning is far cheaper
        // than conventional on-demand. Both policies face the same
        // 6-market catalog (3 spot + 3 on-demand twins); the on-demand
        // baseline only buys the non-revocable twins.
        let catalog = Catalog::fig5_three_markets().with_on_demand();
        let n = catalog.len();
        let trace = wikipedia_like(120, 3).with_mean(3000.0);
        let opts = EvalOptions {
            intervals: 72,
            ..short_options()
        };
        let mut sw = SpotWebPolicy::new(SpotWebConfig::default(), n);
        let r_sw = simulate_costs(&mut sw, &catalog, &trace, &opts);
        let mut od = OnDemandPolicy::new();
        let r_od = simulate_costs(&mut od, &catalog, &trace, &opts);
        assert!(
            r_sw.total_cost() < r_od.total_cost(),
            "spotweb {} vs on-demand {}",
            r_sw.total_cost(),
            r_od.total_cost()
        );
        let savings = r_sw.savings_vs(&r_od);
        assert!(savings > 0.3, "savings {savings} too small");
    }

    #[test]
    fn oracle_view_provided_when_requested() {
        let catalog = Catalog::fig5_three_markets();
        let trace = wikipedia_like(100, 4).with_mean(2000.0);

        struct Probe {
            saw_oracle: bool,
        }
        impl Policy for Probe {
            fn name(&self) -> &str {
                "probe"
            }
            fn decide(&mut self, catalog: &Catalog, obs: &PolicyObservation<'_>) -> Vec<u32> {
                if let Some(v) = obs.oracle {
                    assert_eq!(v.workload.len(), 10);
                    assert_eq!(v.prices.len(), 10);
                    self.saw_oracle = true;
                }
                vec![1; catalog.len()]
            }
        }
        let mut probe = Probe { saw_oracle: false };
        let opts = EvalOptions {
            oracle: true,
            intervals: 4,
            ..short_options()
        };
        simulate_costs(&mut probe, &catalog, &trace, &opts);
        assert!(probe.saw_oracle);
    }

    #[test]
    fn no_revocations_means_no_revoked_servers() {
        let catalog = Catalog::fig5_three_markets();
        let trace = wikipedia_like(60, 5).with_mean(2000.0);
        let opts = EvalOptions {
            revocations: false,
            intervals: 24,
            ..short_options()
        };
        let mut policy = OnDemandPolicy::new();
        let r = simulate_costs(&mut policy, &catalog, &trace, &opts);
        assert!(r.records.iter().all(|rec| rec.revoked_servers == 0));
    }

    #[test]
    fn reactive_topup_trades_drops_for_cost() {
        // An under-provisioning policy: half the needed capacity.
        struct HalfPolicy;
        impl Policy for HalfPolicy {
            fn name(&self) -> &str {
                "half"
            }
            fn decide(&mut self, catalog: &Catalog, obs: &PolicyObservation<'_>) -> Vec<u32> {
                let mut fleet = vec![0u32; catalog.len()];
                let cap = catalog.market(0).capacity_rps();
                fleet[0] = ((obs.current_workload * 0.5) / cap).ceil() as u32;
                fleet
            }
        }
        let catalog = Catalog::fig5_three_markets();
        let trace = wikipedia_like(80, 9).with_mean(4000.0);
        let base = EvalOptions {
            intervals: 48,
            cloud_warmup: 8,
            seed: 5,
            revocations: false,
            ..EvalOptions::default()
        };
        let without = simulate_costs(&mut HalfPolicy, &catalog, &trace, &base);
        let with_topup = simulate_costs(
            &mut HalfPolicy,
            &catalog,
            &trace,
            &EvalOptions {
                reactive_topup: true,
                ..base
            },
        );
        assert!(
            with_topup.drop_fraction() < without.drop_fraction(),
            "topup {} vs bare {}",
            with_topup.drop_fraction(),
            without.drop_fraction()
        );
        assert!(
            with_topup.provisioning_cost > without.provisioning_cost,
            "top-up capacity must cost money"
        );
        assert!(with_topup.records.iter().any(|r| r.topup_servers > 0));
    }
}
