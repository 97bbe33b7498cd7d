//! Decision-explain records: structured "why did the system do that"
//! payloads emitted at the three decision points of the SpotWeb stack
//! — the MPO solve (which markets, at what risk-adjusted cost), the
//! workload predictor (forecast vs. actual vs. CI padding), and the
//! load balancer's revocation-warning drain (per-backend migration
//! timeline).

use crate::json::{json_f64, json_f64_array, json_string};

/// One market's evaluation inside a [`DecisionRecord`]: the inputs
/// the optimizer saw and what it decided, including why a market was
/// rejected.
#[derive(Debug, Clone, PartialEq)]
pub struct MarketEval {
    /// Market index in the catalog.
    pub market: usize,
    /// Human-readable market name.
    pub name: String,
    /// Spot price ($/hour) the horizon opened at.
    pub price: f64,
    /// Per-server capacity in requests/second.
    pub capacity_rps: f64,
    /// Expected cost per million requests at the current price.
    pub cost_per_mreq: f64,
    /// Revocation probability for the first horizon step.
    pub revocation_prob: f64,
    /// Diagonal of the risk (covariance) matrix for this market.
    pub risk: f64,
    /// Fraction of the workload allocated here by the first step of
    /// the plan.
    pub allocation: f64,
    /// Concrete server count the allocation was rounded to.
    pub servers: u32,
    /// Whether the market made it into the executed allocation.
    pub chosen: bool,
    /// Why the market was chosen or rejected.
    pub reason: String,
}

impl MarketEval {
    fn to_json(&self) -> String {
        format!(
            "{{\"market\":{},\"name\":{},\"price\":{},\"capacity_rps\":{},\
             \"cost_per_mreq\":{},\"revocation_prob\":{},\"risk\":{},\
             \"allocation\":{},\"servers\":{},\"chosen\":{},\"reason\":{}}}",
            self.market,
            json_string(&self.name),
            json_f64(self.price),
            json_f64(self.capacity_rps),
            json_f64(self.cost_per_mreq),
            json_f64(self.revocation_prob),
            json_f64(self.risk),
            json_f64(self.allocation),
            self.servers,
            self.chosen,
            json_string(&self.reason),
        )
    }
}

/// Emitted once per MPO solve: everything needed to audit the
/// portfolio decision — horizon inputs, per-market scores, the chosen
/// allocation, and the rejected alternatives with reasons.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionRecord {
    /// Control interval index.
    pub interval: u64,
    /// Policy name (e.g. `spotweb-mpo`).
    pub policy: String,
    /// Workload the policy observed at the start of the interval.
    pub observed_rps: f64,
    /// Horizon length (number of lookahead intervals).
    pub horizon: usize,
    /// CI-padded workload forecast over the horizon.
    pub predicted_workload: Vec<f64>,
    /// Objective value at the solution.
    pub objective: f64,
    /// ADMM iterations used (a polish is not one of them).
    pub iterations: usize,
    /// Whether the solver converged (fail-static reuses the previous
    /// allocation and reports `false`).
    pub solved: bool,
    /// Whether the solution is the solver's polished point: the active
    /// set's equality KKT system solved directly.
    pub polished: bool,
    /// Reduced KKT systems the solver's polishes solved, accepted or
    /// not: with `iterations` 0, the whole of the solve's work.
    pub polish_solves: usize,
    /// Factorizations of the ADMM KKT matrix the decision made (0 when
    /// it kept the previous factor or never iterated).
    pub kkt_factorizations: usize,
    /// The solution's certificate on the unscaled QP: primal residual
    /// `‖Ax − z‖∞`, dual residual `‖Px + q + Aᵀy‖∞` and duality gap.
    /// NaN (rendered `null`) when the solve failed.
    pub primal_residual: f64,
    /// See [`DecisionRecord::primal_residual`].
    pub dual_residual: f64,
    /// See [`DecisionRecord::primal_residual`].
    pub duality_gap: f64,
    /// Sum of the executed first-step allocation (≥ 1 means full
    /// coverage plus over-provisioning headroom).
    pub total_allocation: f64,
    /// Per-market evaluation, catalog order.
    pub markets: Vec<MarketEval>,
}

impl DecisionRecord {
    /// Inner JSON fields (no braces), for embedding in a trace line.
    pub fn to_json_fields(&self) -> String {
        let markets: Vec<String> = self.markets.iter().map(|m| m.to_json()).collect();
        format!(
            "\"interval\":{},\"policy\":{},\"observed_rps\":{},\"horizon\":{},\
             \"predicted_workload\":{},\"objective\":{},\"iterations\":{},\
             \"solved\":{},\"polished\":{},\"polish_solves\":{},\"kkt_factorizations\":{},\
             \"primal_residual\":{},\"dual_residual\":{},\"duality_gap\":{},\
             \"total_allocation\":{},\"markets\":[{}]",
            self.interval,
            json_string(&self.policy),
            json_f64(self.observed_rps),
            self.horizon,
            json_f64_array(&self.predicted_workload),
            json_f64(self.objective),
            self.iterations,
            self.solved,
            self.polished,
            self.polish_solves,
            self.kkt_factorizations,
            json_f64(self.primal_residual),
            json_f64(self.dual_residual),
            json_f64(self.duality_gap),
            json_f64(self.total_allocation),
            markets.join(","),
        )
    }
}

/// Emitted once per predictor step: the forecast made one step ago,
/// the CI-padded value capacity was actually provisioned for, and the
/// actual that materialised.
#[derive(Debug, Clone, PartialEq)]
pub struct ForecastRecord {
    /// What is being forecast (e.g. `workload_rps`).
    pub quantity: String,
    /// Predictor step index (number of observations so far).
    pub step: u64,
    /// The value that actually materialised.
    pub actual: f64,
    /// The point forecast made one step earlier for this step.
    pub predicted: f64,
    /// The CI-padded (upper-bound) forecast used for provisioning.
    pub padded: f64,
    /// Forecast error, `actual - predicted`.
    pub error: f64,
    /// CI padding applied, `padded - predicted`.
    pub ci_pad: f64,
}

impl ForecastRecord {
    /// Inner JSON fields (no braces), for embedding in a trace line.
    pub fn to_json_fields(&self) -> String {
        format!(
            "\"quantity\":{},\"step\":{},\"actual\":{},\"predicted\":{},\
             \"padded\":{},\"error\":{},\"ci_pad\":{}",
            json_string(&self.quantity),
            self.step,
            json_f64(self.actual),
            json_f64(self.predicted),
            json_f64(self.padded),
            json_f64(self.error),
            json_f64(self.ci_pad),
        )
    }
}

/// Emitted when a backend starts draining (revocation warning or
/// planned decommission): the per-backend migration timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct DrainRecord {
    /// Backend being drained.
    pub backend: usize,
    /// Market the backend belongs to.
    pub market: usize,
    /// `"revocation"` (finite warning) or `"decommission"` (planned).
    pub kind: String,
    /// Warning window in seconds (`null` in JSON for a planned
    /// decommission, which has no deadline).
    pub warning_secs: f64,
    /// Absolute sim time the backend dies (`null` when unbounded).
    pub deadline: f64,
    /// Sessions migrated to surviving backends inside the budget.
    pub sessions_migrated: usize,
    /// Sessions left in place (vanilla mode, or over budget).
    pub sessions_stayed: usize,
    /// Capacity lost to the fleet, requests/second.
    pub capacity_gap_rps: f64,
}

impl DrainRecord {
    /// Inner JSON fields (no braces), for embedding in a trace line.
    pub fn to_json_fields(&self) -> String {
        format!(
            "\"backend\":{},\"market\":{},\"drain_kind\":{},\"warning_secs\":{},\
             \"deadline\":{},\"sessions_migrated\":{},\"sessions_stayed\":{},\
             \"capacity_gap_rps\":{}",
            self.backend,
            self.market,
            json_string(&self.kind),
            json_f64(self.warning_secs),
            json_f64(self.deadline),
            self.sessions_migrated,
            self.sessions_stayed,
            json_f64(self.capacity_gap_rps),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decision_record_renders_rejections() {
        let rec = DecisionRecord {
            interval: 3,
            policy: "spotweb-mpo".to_string(),
            observed_rps: 600.0,
            horizon: 4,
            predicted_workload: vec![610.0, 620.0],
            objective: 1.25,
            iterations: 40,
            solved: true,
            polished: true,
            polish_solves: 2,
            kkt_factorizations: 0,
            primal_residual: 2e-7,
            dual_residual: 5e-6,
            duality_gap: f64::NAN,
            total_allocation: 1.1,
            markets: vec![MarketEval {
                market: 0,
                name: "m4.large".to_string(),
                price: 0.05,
                capacity_rps: 80.0,
                cost_per_mreq: 0.17,
                revocation_prob: 0.01,
                risk: 0.02,
                allocation: 0.0,
                servers: 0,
                chosen: false,
                reason: "allocation 0.000 below min 0.005".to_string(),
            }],
        };
        let json = format!("{{{}}}", rec.to_json_fields());
        assert!(json.contains(
            "\"solved\":true,\"polished\":true,\"polish_solves\":2,\"kkt_factorizations\":0,"
        ));
        assert!(json.contains(
            "\"primal_residual\":0.0000002,\"dual_residual\":0.000005,\"duality_gap\":null"
        ));
        assert!(json.contains("\"chosen\":false"));
        assert!(json.contains("below min"));
        assert!(json.contains("\"predicted_workload\":[610.0,620.0]"));
    }

    #[test]
    fn drain_record_null_deadline_for_decommission() {
        let rec = DrainRecord {
            backend: 2,
            market: 1,
            kind: "decommission".to_string(),
            warning_secs: f64::INFINITY,
            deadline: f64::INFINITY,
            sessions_migrated: 10,
            sessions_stayed: 0,
            capacity_gap_rps: 160.0,
        };
        let json = format!("{{{}}}", rec.to_json_fields());
        assert!(json.contains("\"warning_secs\":null"));
        assert!(json.contains("\"deadline\":null"));
    }
}
