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

use crate::allocation::{to_server_counts, MIN_ALLOCATION};
use crate::policy::{Policy, PolicyObservation};

/// Absolute-correlation threshold above which two markets share a
/// failure-domain group.
const CORR_THRESHOLD: f64 = 0.5;
/// Number of whole correlation groups the policy over-provisions to
/// survive losing simultaneously.
const FAULT_TOLERANCE: usize = 1;

/// The fault-tolerance-aware heterogeneous-groups competitor.
pub struct HetSpotGroupsPolicy {
    weights: Vec<f64>,
    telemetry: TelemetrySink,
}

impl HetSpotGroupsPolicy {
    /// Build for `markets` markets.
    pub fn new(markets: usize) -> Self {
        HetSpotGroupsPolicy {
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
        to_server_counts(catalog, &self.weights, lambda, MIN_ALLOCATION)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotweb_linalg::Matrix;
    use spotweb_workload::rng::CounterStream;

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
        let mut p = HetSpotGroupsPolicy::new(3);
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
        let mut p = HetSpotGroupsPolicy::new(3);
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
        let mut p = HetSpotGroupsPolicy::new(3);
        let counts = p.decide(&catalog, &obs(&prices, &failures, &cov));
        // Everything is one failure domain: no spread can help, so one
        // market carries the whole load at share 1.
        assert_eq!(counts.iter().filter(|&&c| c > 0).count(), 1);
        assert!((p.weights.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    /// The sizing oracle: over a seeded sequence of observations with
    /// varied correlation matrices, whenever `g > f` groups form,
    /// zeroing the servers of every `f`-subset of groups still leaves
    /// capacity ≥ the λ the policy sized for; when `g ≤ f`, one market
    /// carries share 1.
    #[test]
    fn losing_any_f_groups_leaves_lambda_covered() {
        let stream = CounterStream::new(150_905_197, 0);
        let mut counter = 0;
        let mut unit = || {
            counter += 1;
            stream.unit_f64_at(counter)
        };
        let (mut spread, mut single) = (0, 0);
        for round in 0..200 {
            let n = 2 + (unit() * 9.0) as usize;
            let catalog = Catalog::ec2_subset(n);
            let prices: Vec<f64> = catalog
                .markets()
                .iter()
                .map(|m| m.instance.on_demand_price * (0.1 + 0.9 * unit()))
                .collect();
            let failures = vec![0.05; n];
            // Even rounds: planted clusters, correlated at or above the
            // threshold inside and below it across. Odd rounds: every
            // pair uniform in [-1, 1], so groups chain transitively.
            let clusters = 1 + (unit() * n as f64) as usize;
            let cluster: Vec<usize> = (0..n)
                .map(|_| (unit() * clusters as f64) as usize)
                .collect();
            let mut cov = Matrix::identity(n);
            for i in 0..n {
                for j in 0..i {
                    let c = if round % 2 == 1 {
                        2.0 * unit() - 1.0
                    } else if cluster[i] == cluster[j] {
                        CORR_THRESHOLD + (1.0 - CORR_THRESHOLD) * unit()
                    } else {
                        CORR_THRESHOLD * (2.0 * unit() - 1.0) * 0.99
                    };
                    cov[(i, j)] = c;
                    cov[(j, i)] = c;
                }
            }
            let lambda = 100.0 + 50_000.0 * unit();
            let obs = PolicyObservation {
                current_workload: lambda,
                ..obs(&prices, &failures, &cov)
            };
            let mut p = HetSpotGroupsPolicy::new(n);
            let counts = p.decide(&catalog, &obs);

            let groups = correlation_groups(&cov, CORR_THRESHOLD);
            let g = groups.iter().max().map_or(0, |m| m + 1);
            if g > FAULT_TOLERANCE {
                spread += 1;
                for lost in (0u32..1 << g).filter(|m| m.count_ones() as usize == FAULT_TOLERANCE) {
                    let left: f64 = (0..n)
                        .filter(|&i| lost & (1 << groups[i]) == 0)
                        .map(|i| counts[i] as f64 * catalog.market(i).capacity_rps())
                        .sum();
                    assert!(
                        left >= lambda,
                        "round {round}: losing groups {lost:#b} of {g} leaves {left} < λ {lambda}"
                    );
                }
            } else {
                single += 1;
                let carrying: Vec<f64> = p.weights.iter().copied().filter(|w| *w > 0.0).collect();
                assert_eq!(
                    carrying,
                    [1.0],
                    "round {round}: {g} group(s), {:?}",
                    p.weights
                );
            }
        }
        assert!(spread > 0 && single > 0, "{spread} spread, {single} single");
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
            let mut p = HetSpotGroupsPolicy::new(3);
            p.decide(&catalog, &obs(&prices, &failures, &cov))
        };
        assert_eq!(run(), run());
    }
}
