//! The Fig. 4(a) failover scenario.
//!
//! [`FailoverScenario`] reproduces the paper's Fig. 4(a) testbed
//! experiment: a heterogeneous six-server cluster at 70–95% utilization
//! serving ~600 req/s; three minutes in, correlated revocations take
//! out four of the six servers; the transiency-aware balancer reacts to
//! the warning (drain + migrate + reactively start replacements that
//! come up within the warning period), while the vanilla balancer keeps
//! routing to the doomed servers and loses everything in flight when
//! they die.
//!
//! The scenario is a *configuration* of the chaos loop, not a loop of
//! its own: [`FailoverScenario::run`] builds the equivalent
//! [`ChaosScenario`], so it runs under the invariant checker too.

use crate::faults::{ChaosScenario, FaultKind, FaultPlan, Replacement};
use crate::metrics::BucketStats;

/// One server in the initial cluster.
#[derive(Debug, Clone, Copy)]
pub struct ServerSpec {
    /// Market/pool identifier (victim selection keys on this).
    pub market: usize,
    /// Serving capacity (req/s).
    pub capacity_rps: f64,
}

/// The Fig. 4(a) testbed cluster: 2× m4.xlarge (80 rps), 2× m4.2xlarge
/// (160), 2× m4.4xlarge (320), one market per size — 1120 rps total
/// against ≈ 600 rps offered, so utilization rises to ~95% on the
/// survivors once markets 1 and 2 are revoked.
pub fn fig4a_cluster() -> Vec<ServerSpec> {
    [
        (0, 80.0),
        (0, 80.0),
        (1, 160.0),
        (1, 160.0),
        (2, 320.0),
        (2, 320.0),
    ]
    .into_iter()
    .map(|(market, capacity_rps)| ServerSpec {
        market,
        capacity_rps,
    })
    .collect()
}

/// Scenario parameters. Defaults reproduce Fig. 4(a).
#[derive(Debug, Clone)]
pub struct FailoverScenario {
    /// Initial cluster.
    pub servers: Vec<ServerSpec>,
    /// Poisson arrival rate (req/s).
    pub arrival_rps: f64,
    /// Total simulated time (seconds).
    pub duration_secs: f64,
    /// Induce correlated revocations at this time (None = no failures).
    pub revocation_at: Option<f64>,
    /// Markets whose servers are revoked at `revocation_at`.
    pub victim_markets: Vec<usize>,
    /// Transiency-aware (SpotWeb) or vanilla balancer.
    pub transiency_aware: bool,
    /// RNG seed (arrival process).
    pub seed: u64,
}

impl Default for FailoverScenario {
    fn default() -> Self {
        FailoverScenario {
            servers: fig4a_cluster(),
            arrival_rps: 600.0,
            duration_secs: 600.0,
            revocation_at: Some(180.0),
            victim_markets: vec![1, 2],
            transiency_aware: true,
            seed: 42,
        }
    }
}

/// Result of a scenario run.
#[derive(Debug, Clone)]
pub struct FailoverReport {
    /// Per-bucket latency stats (the Fig. 4(a) boxplot series).
    pub buckets: Vec<BucketStats>,
    /// Requests served.
    pub served: usize,
    /// Requests dropped.
    pub dropped: u64,
    /// Overall drop fraction.
    pub drop_fraction: f64,
    /// Overall p90 latency (seconds).
    pub p90: f64,
    /// Overall p99 latency (seconds).
    pub p99: f64,
    /// Sessions migrated by warnings.
    pub migrated_sessions: u64,
    /// Sessions lost to abrupt death.
    pub lost_sessions: u64,
    /// Invariant violations the run's checker recorded (empty on a
    /// healthy run; see [`crate::faults::InvariantChecker`]).
    pub invariant_violations: Vec<String>,
}

impl FailoverScenario {
    /// Run the scenario to completion, as a [`ChaosScenario`].
    ///
    /// The revocation is a timed fault, so a `revocation_at` at or past
    /// `duration_secs` never fires ([`FaultPlan::compile`] drops faults
    /// beyond the horizon).
    pub fn run(&self) -> FailoverReport {
        let mut plan = FaultPlan::new();
        if let Some(at_secs) = self.revocation_at {
            plan = plan.at(
                at_secs,
                FaultKind::CorrelatedRevocation {
                    markets: self.victim_markets.clone(),
                    warning_secs: None,
                },
            );
        }
        let report = ChaosScenario {
            name: "failover".to_string(),
            servers: self.servers.clone(),
            arrival_rps: self.arrival_rps,
            duration_secs: self.duration_secs,
            transiency_aware: self.transiency_aware,
            replacement: if self.transiency_aware {
                Replacement::OnWarning
            } else {
                Replacement::OnDeath
            },
            seed: self.seed,
            plan,
            ..ChaosScenario::default()
        }
        .run();
        FailoverReport {
            buckets: report.buckets,
            served: report.served,
            dropped: report.dropped,
            drop_fraction: report.drop_fraction,
            p90: report.p90,
            p99: report.p99,
            migrated_sessions: report.migrated_sessions,
            lost_sessions: report.lost_sessions,
            invariant_violations: report.invariant_violations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_scenario(aware: bool, revoke: bool) -> FailoverScenario {
        FailoverScenario {
            duration_secs: 420.0,
            revocation_at: revoke.then_some(120.0),
            transiency_aware: aware,
            arrival_rps: 400.0,
            seed: 7,
            ..FailoverScenario::default()
        }
    }

    fn quick(aware: bool, revoke: bool) -> FailoverReport {
        quick_scenario(aware, revoke).run()
    }

    #[test]
    fn steady_state_low_latency_no_drops() {
        let r = quick(true, false);
        assert_eq!(r.dropped, 0, "no failures → no drops");
        assert!(r.p90 < 0.3, "p90 {} too high in steady state", r.p90);
        assert!(r.served > 100_000, "served {}", r.served);
    }

    #[test]
    fn aware_beats_vanilla_on_drops() {
        let aware = quick(true, true);
        let vanilla = quick(false, true);
        assert!(
            aware.drop_fraction < vanilla.drop_fraction,
            "aware {} vs vanilla {}",
            aware.drop_fraction,
            vanilla.drop_fraction
        );
        // The paper's numbers: SpotWeb ~0 drops, vanilla drops massively
        // right after the revocation. Shape assertions:
        assert!(
            aware.drop_fraction < 0.01,
            "aware drops {}",
            aware.drop_fraction
        );
        assert!(
            vanilla.drop_fraction > 0.02,
            "vanilla drops {}",
            vanilla.drop_fraction
        );
    }

    #[test]
    fn aware_migrates_vanilla_loses_sessions() {
        let aware = quick(true, true);
        let vanilla = quick(false, true);
        assert!(aware.migrated_sessions > 0);
        assert_eq!(vanilla.migrated_sessions, 0);
        assert!(vanilla.lost_sessions > aware.lost_sessions);
    }

    #[test]
    fn latency_rises_then_recovers() {
        let r = quick(true, true);
        // Bucket index 2 covers [120, 180): the revocation minute.
        let before = &r.buckets[1];
        let recovery = r.buckets.last().unwrap();
        assert!(before.count > 0 && recovery.count > 0);
        // After replacements warm up, p90 returns near pre-failure level.
        assert!(
            recovery.p90 < 3.0 * before.p90.max(0.05),
            "no recovery: before {} after {}",
            before.p90,
            recovery.p90
        );
    }

    #[test]
    fn deterministic_runs() {
        let a = quick(true, true);
        let b = quick(true, true);
        assert_eq!(a.served, b.served);
        assert_eq!(a.dropped, b.dropped);
    }

    #[test]
    fn revocation_past_the_horizon_never_fires() {
        // The one semantic edge of running on the chaos loop: the
        // revocation is a timed fault, and `FaultPlan::compile` drops
        // faults at or past `duration_secs` (the old private loop
        // delivered such warnings during the post-arrival drain).
        let late = FailoverScenario {
            revocation_at: Some(420.0),
            ..quick_scenario(true, true)
        }
        .run();
        let never = quick(true, false);
        assert_eq!(late.migrated_sessions, 0);
        assert_eq!((late.served, late.dropped), (never.served, never.dropped));
        assert_eq!(late.p99.to_bits(), never.p99.to_bits());
    }

    #[test]
    fn every_mode_runs_under_the_invariant_checker() {
        for (aware, revoke) in [(true, true), (false, true), (true, false)] {
            let r = quick(aware, revoke);
            assert!(
                r.invariant_violations.is_empty(),
                "aware {aware} revoke {revoke}: {:?}",
                r.invariant_violations
            );
        }
    }

    #[test]
    #[should_panic(expected = "`arrival_rps` must be finite and positive (got inf)")]
    fn infinite_arrival_rate_is_rejected_by_name() {
        let _ = FailoverScenario {
            arrival_rps: f64::INFINITY,
            ..FailoverScenario::default()
        }
        .run();
    }

    #[test]
    fn slow_startup_triggers_admission_control() {
        // §6.1 scenario 3: "system utilization is high, and new
        // instances can not be started within the warning period.
        // Load will be migrated to the other running instances, or
        // dropped until the new instances are available." Replacements
        // take 55 + 245 = 300 s against a 120 s warning, and the
        // survivors (2 × 80 req/s) cannot carry 400 req/s — the
        // admission controller must shed load without melting the
        // survivors.
        let storm = FaultKind::CorrelatedRevocation {
            markets: vec![1, 2],
            warning_secs: None,
        };
        let r = ChaosScenario {
            duration_secs: 600.0,
            arrival_rps: 400.0,
            seed: 7,
            plan: FaultPlan::new()
                .at(0.0, FaultKind::StartupDelay { extra_secs: 245.0 })
                .at(120.0, storm),
            ..ChaosScenario::default()
        }
        .run();
        // Some requests are necessarily dropped during the gap…
        assert!(r.dropped > 0, "gap must force drops");
        // …but the served ones keep bounded latency (protection works;
        // the admission budget is 2 s of queueing).
        assert!(r.p99 < 4.0, "p99 {} — survivors melted", r.p99);
        // And the cluster recovers once replacements warm up: the last
        // minute is clean.
        let last = r.buckets.last().unwrap();
        assert_eq!(last.dropped, 0, "no drops after recovery");
        assert!(last.p90 < 0.7, "recovered p90 {}", last.p90);
    }
}
