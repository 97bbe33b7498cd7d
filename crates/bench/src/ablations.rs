//! Ablations beyond the paper's figures, and the related-work runs.
//!
//! DESIGN.md commits to four ablation sweeps that probe SpotWeb's
//! design choices:
//!
//! * **churn** — the transaction-cost weight γ (0 = the paper's bare
//!   formulation; positive values damp portfolio churn),
//! * **alpha** — the risk-aversion parameter (diversification dial),
//! * **padding** — the confidence level of the over-provisioning
//!   (90/95/99/99.9%),
//! * **horizon** — look-ahead beyond the paper's 10.
//!
//! [`related_work`] runs the policy zoo on the same setup, so each
//! related-work policy's scorecard row reads its own source paper's
//! metric off the same record walk.

use serde::Serialize;
use spotweb_core::evaluate::EvalOptions;
use spotweb_core::policy::Policy;
use spotweb_core::risk::herfindahl;
use spotweb_core::{
    simulate_costs, ExoSphereMarkowitzPolicy, HetSpotGroupsPolicy, IndexTrackingPolicy,
    SpotWebConfig, SpotWebPolicy,
};
use spotweb_market::Catalog;
use spotweb_predict::confidence::ConfidenceLevel;
use spotweb_predict::SpotWebPredictor;
use spotweb_workload::wikipedia_like;

/// Markets of the setup every run here shares.
const MARKETS: usize = 9;

/// One ablation row.
#[derive(Debug, Clone, Serialize)]
pub struct AblationRow {
    /// Value of the swept parameter.
    pub value: f64,
    /// Total cost ($).
    pub total_cost: f64,
    /// Penalty share of the total cost.
    pub penalty_fraction: f64,
    /// Drop fraction.
    pub drop_fraction: f64,
    /// Mean fleet-churn per interval (servers started+stopped).
    pub mean_churn: f64,
    /// Mean portfolio concentration (Herfindahl over fleet capacity).
    pub mean_hhi: f64,
    /// Coefficient of variation (population standard deviation over
    /// mean) of the hourly provisioning $ per request across the run.
    pub cost_cv: f64,
}

/// An ablation sweep result.
#[derive(Debug, Clone, Serialize)]
pub struct Ablation {
    /// Which parameter was swept.
    pub parameter: String,
    /// Rows, in sweep order.
    pub rows: Vec<AblationRow>,
}

/// Run `policy` on the shared setup: [`MARKETS`] EC2 markets, the
/// Wikipedia-like trace at a 20 000 req/s mean, `intervals` hours at
/// `seed`. The row's `value` is 0, for the caller to fill.
fn evaluate(policy: &mut dyn Policy, intervals: usize, seed: u64) -> AblationRow {
    let catalog = Catalog::ec2_subset(MARKETS);
    let trace = wikipedia_like(intervals + 16, seed).with_mean(20_000.0);
    let options = EvalOptions {
        intervals,
        seed,
        ..EvalOptions::default()
    };
    let report = simulate_costs(policy, &catalog, &trace, &options);

    // Churn: per-market absolute fleet delta between intervals.
    let mut churn_total = 0.0;
    for w in report.records.windows(2) {
        churn_total += w[0]
            .fleet
            .iter()
            .zip(&w[1].fleet)
            .map(|(&a, &b)| (a as f64 - b as f64).abs())
            .sum::<f64>();
    }
    let mean_churn = churn_total / (report.records.len().max(2) - 1) as f64;

    // Concentration: HHI over capacity shares, averaged.
    let mut hhi_sum = 0.0;
    for rec in &report.records {
        let caps: Vec<f64> = rec
            .fleet
            .iter()
            .enumerate()
            .map(|(i, &c)| c as f64 * catalog.market(i).capacity_rps())
            .collect();
        hhi_sum += herfindahl(&caps);
    }

    // Predictability: an hour's $ over its req/s is a fixed multiple
    // of its $ per request, so both have the same CV.
    let per_request: Vec<f64> = report
        .records
        .iter()
        .filter(|rec| rec.workload > 0.0)
        .map(|rec| rec.provisioning_cost / rec.workload)
        .collect();
    let n = per_request.len().max(1) as f64;
    let mean = per_request.iter().sum::<f64>() / n;
    let variance = per_request.iter().map(|c| (c - mean).powi(2)).sum::<f64>() / n;

    AblationRow {
        value: 0.0,
        total_cost: report.total_cost(),
        penalty_fraction: if report.total_cost() > 0.0 {
            report.penalty_cost / report.total_cost()
        } else {
            0.0
        },
        drop_fraction: report.drop_fraction(),
        mean_churn,
        mean_hhi: hhi_sum / report.records.len().max(1) as f64,
        cost_cv: variance.sqrt() / mean,
    }
}

/// [`evaluate`] for SpotWeb under `config`, with the default predictor
/// or one padded to `level`.
fn evaluate_spotweb(
    config: SpotWebConfig,
    level: Option<ConfidenceLevel>,
    intervals: usize,
    seed: u64,
) -> AblationRow {
    let mut policy = match level {
        Some(l) => SpotWebPolicy::with_predictor(
            config,
            MARKETS,
            Box::new(SpotWebPredictor::with_level(l)),
        ),
        None => SpotWebPolicy::new(config, MARKETS),
    };
    evaluate(&mut policy, intervals, seed)
}

/// The related-work policies on the ablations' setup, each beside the
/// run its source paper's claim is measured against.
pub struct RelatedWork {
    /// Zoo ExoSphere (arXiv:1704.08738) at the default risk aversion.
    pub exosphere: AblationRow,
    /// The same policy at `α = 0`: cost alone, no diversification.
    pub exosphere_cost_only: AblationRow,
    /// Cloud Index Tracking (arXiv:1809.03110).
    pub index_tracking: AblationRow,
    /// SpotWeb at `H = 2`, the index tracker's yardstick.
    pub spotweb: AblationRow,
    /// Heterogeneous spot groups (arXiv:1509.05197).
    pub het_spot_groups: AblationRow,
}

/// Run every [`RelatedWork`] policy for `intervals` hours at `seed`.
pub fn related_work(intervals: usize, seed: u64) -> RelatedWork {
    let exosphere = |config: &SpotWebConfig| {
        evaluate(
            &mut ExoSphereMarkowitzPolicy::new(config, MARKETS),
            intervals,
            seed,
        )
    };
    RelatedWork {
        exosphere: exosphere(&SpotWebConfig::default()),
        exosphere_cost_only: exosphere(&SpotWebConfig {
            alpha: 0.0,
            ..SpotWebConfig::default()
        }),
        index_tracking: evaluate(&mut IndexTrackingPolicy::new(MARKETS), intervals, seed),
        spotweb: evaluate_spotweb(
            SpotWebConfig::default().with_horizon(2),
            None,
            intervals,
            seed,
        ),
        het_spot_groups: evaluate(&mut HetSpotGroupsPolicy::new(MARKETS), intervals, seed),
    }
}

/// Sweep the churn weight γ.
pub fn churn(gammas: &[f64], intervals: usize, seed: u64) -> Ablation {
    let rows = gammas
        .iter()
        .map(|&g| {
            let mut row = evaluate_spotweb(
                SpotWebConfig {
                    churn_gamma: g,
                    ..SpotWebConfig::default()
                },
                None,
                intervals,
                seed,
            );
            row.value = g;
            row
        })
        .collect();
    Ablation {
        parameter: "churn_gamma".into(),
        rows,
    }
}

/// Sweep risk aversion α.
pub fn alpha(alphas: &[f64], intervals: usize, seed: u64) -> Ablation {
    let rows = alphas
        .iter()
        .map(|&a| {
            let mut row = evaluate_spotweb(
                SpotWebConfig {
                    alpha: a,
                    ..SpotWebConfig::default()
                },
                None,
                intervals,
                seed,
            );
            row.value = a;
            row
        })
        .collect();
    Ablation {
        parameter: "alpha".into(),
        rows,
    }
}

/// Sweep the CI padding level.
pub fn padding(intervals: usize, seed: u64) -> Ablation {
    let levels = [
        (90.0, ConfidenceLevel::P90),
        (95.0, ConfidenceLevel::P95),
        (99.0, ConfidenceLevel::P99),
        (99.9, ConfidenceLevel::P999),
    ];
    let rows = levels
        .iter()
        .map(|&(v, l)| {
            let mut row = evaluate_spotweb(SpotWebConfig::default(), Some(l), intervals, seed);
            row.value = v;
            row
        })
        .collect();
    Ablation {
        parameter: "ci_padding".into(),
        rows,
    }
}

/// Sweep the look-ahead horizon (beyond the paper's 10).
pub fn horizon(horizons: &[usize], intervals: usize, seed: u64) -> Ablation {
    let rows = horizons
        .iter()
        .map(|&h| {
            let mut row = evaluate_spotweb(
                SpotWebConfig::default().with_horizon(h),
                None,
                intervals,
                seed,
            );
            row.value = h as f64;
            row
        })
        .collect();
    Ablation {
        parameter: "horizon".into(),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_penalty_reduces_churn() {
        let a = churn(&[0.0, 0.5], 48, 3);
        assert!(
            a.rows[1].mean_churn <= a.rows[0].mean_churn + 1e-9,
            "γ=0.5 churn {} vs γ=0 churn {}",
            a.rows[1].mean_churn,
            a.rows[0].mean_churn
        );
    }

    #[test]
    fn higher_alpha_diversifies() {
        let a = alpha(&[0.0, 100.0], 48, 4);
        assert!(
            a.rows[1].mean_hhi <= a.rows[0].mean_hhi + 0.05,
            "α=100 HHI {} vs α=0 HHI {}",
            a.rows[1].mean_hhi,
            a.rows[0].mean_hhi
        );
    }

    #[test]
    fn more_padding_fewer_drops() {
        let a = padding(48, 5);
        let p90 = &a.rows[0];
        let p999 = &a.rows[3];
        assert!(p999.drop_fraction <= p90.drop_fraction + 1e-9);
    }
}
