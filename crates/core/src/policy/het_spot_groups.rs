//! Heterogeneous spot auto-scaling with fault-tolerance-aware grouping
//! (Qu, Calheiros, Buyya — arXiv:1509.05197).
//!
//! The strategy's insight is that spreading over *many* spot markets is
//! useless if those markets fail together: capacity must be spread
//! across **failure domains**, not market names. Markets whose
//! revocation dynamics are strongly correlated (one spot pool's demand
//! spike drags its siblings) are clustered into groups via
//! [`spotweb_market::covariance::correlation_groups`]; the policy then
//! serves traffic from the cheapest market *of each group* and inflates
//! capacity so that losing any `fault_tolerance` whole groups
//! simultaneously still leaves the workload covered — a fixed-threshold
//! alternative to SpotWeb's probability-weighted risk term.

use spotweb_market::{correlation_groups, Catalog};
use spotweb_telemetry::{names, TelemetrySink};

use crate::allocation::to_server_counts;
use crate::policy::{Policy, PolicyObservation};

/// Absolute-correlation threshold above which two markets share a
/// failure-domain group.
const CORR_THRESHOLD: f64 = 0.5;
/// Number of whole correlation groups the policy over-provisions to
/// survive losing simultaneously.
const FAULT_TOLERANCE: usize = 1;

/// The fault-tolerance-aware heterogeneous-groups competitor.
pub struct HetSpotGroupsPolicy {
    min_allocation: f64,
    weights: Vec<f64>,
    telemetry: TelemetrySink,
}

impl HetSpotGroupsPolicy {
    /// Build for `markets` markets, dropping shares below
    /// `min_allocation` when converting to servers.
    pub fn new(min_allocation: f64, markets: usize) -> Self {
        HetSpotGroupsPolicy {
            min_allocation,
            weights: vec![0.0; markets],
            telemetry: TelemetrySink::disabled(),
        }
    }

    /// Attach a telemetry sink (counts one decision per `decide`).
    pub fn with_telemetry(mut self, sink: TelemetrySink) -> Self {
        self.telemetry = sink;
        self
    }
}

impl Policy for HetSpotGroupsPolicy {
    fn name(&self) -> &str {
        "het-spot-groups"
    }

    fn decide(&mut self, catalog: &Catalog, obs: &PolicyObservation<'_>) -> Vec<u32> {
        self.telemetry.count(names::POLICY_DECISIONS_TOTAL, 1);
        let n = catalog.len();
        // The observation's covariance slot carries the shrunk
        // correlation estimate (see the runner bridge) — exactly the
        // statistic the grouping needs.
        let groups = correlation_groups(obs.covariance, CORR_THRESHOLD);
        let group_count = groups.iter().copied().max().map_or(0, |g| g + 1);

        // Cheapest per-request market of each group represents it.
        let mut representative: Vec<Option<usize>> = vec![None; group_count];
        for i in 0..n {
            let cost = obs.prices[i] / catalog.market(i).capacity_rps();
            let slot = &mut representative[groups[i]];
            let better = match *slot {
                None => true,
                Some(best) => cost < obs.prices[best] / catalog.market(best).capacity_rps(),
            };
            if better {
                *slot = Some(i);
            }
        }
        let reps: Vec<usize> = representative.into_iter().flatten().collect();

        // Even spread over the groups, inflated so any
        // `FAULT_TOLERANCE` of them can vanish at once: the surviving
        // `g − f` groups must still cover the full workload.
        let g = reps.len();
        let f = FAULT_TOLERANCE.min(g.saturating_sub(1));
        let survivors = (g - f).max(1) as f64;
        let share = 1.0 / survivors;
        self.weights = vec![0.0; n];
        for &m in &reps {
            self.weights[m] = share;
        }

        let lambda = obs
            .oracle
            .and_then(|v| v.workload.first().copied())
            .unwrap_or(obs.current_workload);
        to_server_counts(catalog, &self.weights, lambda, self.min_allocation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotweb_linalg::Matrix;

    fn obs<'a>(prices: &'a [f64], failures: &'a [f64], cov: &'a Matrix) -> PolicyObservation<'a> {
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
    fn uncorrelated_markets_each_form_a_group() {
        let catalog = Catalog::fig4_testbed();
        let prices = [0.06, 0.12, 0.24];
        let failures = [0.05; 3];
        let cov = Matrix::identity(3);
        let mut p = HetSpotGroupsPolicy::new(1e-3, 3);
        let counts = p.decide(&catalog, &obs(&prices, &failures, &cov));
        // 3 independent groups, tolerate 1: each carries 1/2 of λ.
        assert_eq!(counts.iter().filter(|&&c| c > 0).count(), 3);
        for &w in &p.weights {
            assert!((w - 0.5).abs() < 1e-12, "share 1/(3-1) per group");
        }
        // Losing any one market leaves λ covered.
        for skip in 0..3 {
            let cap: f64 = counts
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != skip)
                .map(|(i, &c)| c as f64 * catalog.market(i).capacity_rps())
                .sum();
            assert!(cap >= 1000.0, "losing market {skip} leaves {cap} < λ");
        }
    }

    #[test]
    fn correlated_markets_collapse_into_one_failure_domain() {
        let catalog = Catalog::fig4_testbed();
        // Market 1 is cheapest per request; 0 and 1 fail together.
        let prices = [0.08, 0.10, 0.40];
        let failures = [0.05; 3];
        let mut cov = Matrix::identity(3);
        cov[(0, 1)] = 0.9;
        cov[(1, 0)] = 0.9;
        let mut p = HetSpotGroupsPolicy::new(1e-3, 3);
        let counts = p.decide(&catalog, &obs(&prices, &failures, &cov));
        // Group {0,1} is represented by exactly one of its markets.
        assert!(
            (counts[0] > 0) ^ (counts[1] > 0),
            "one representative per correlated group: {counts:?}"
        );
        assert!(counts[2] > 0, "independent market serves its own group");
        // The correlated group's representative is its cheaper member.
        let m1_cost = prices[1] / catalog.market(1).capacity_rps();
        let m0_cost = prices[0] / catalog.market(0).capacity_rps();
        let expect_rep = if m1_cost < m0_cost { 1 } else { 0 };
        assert!(counts[expect_rep] > 0);
    }

    #[test]
    fn single_group_degenerates_to_full_coverage() {
        let catalog = Catalog::fig4_testbed();
        let prices = [0.06, 0.12, 0.24];
        let failures = [0.05; 3];
        let mut cov = Matrix::identity(3);
        for i in 0..3 {
            for j in 0..3 {
                if i != j {
                    cov[(i, j)] = 0.95;
                }
            }
        }
        let mut p = HetSpotGroupsPolicy::new(1e-3, 3);
        let counts = p.decide(&catalog, &obs(&prices, &failures, &cov));
        // Everything is one failure domain: no spread can help, so one
        // market carries the whole load at share 1.
        assert_eq!(counts.iter().filter(|&&c| c > 0).count(), 1);
        assert!((p.weights.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn decide_is_a_pure_function_of_observations() {
        let catalog = Catalog::fig4_testbed();
        let prices = [0.09, 0.13, 0.22];
        let failures = [0.04, 0.08, 0.02];
        let mut cov = Matrix::identity(3);
        cov[(1, 2)] = 0.7;
        cov[(2, 1)] = 0.7;
        let run = || {
            let mut p = HetSpotGroupsPolicy::new(1e-3, 3);
            p.decide(&catalog, &obs(&prices, &failures, &cov))
        };
        assert_eq!(run(), run());
    }
}
