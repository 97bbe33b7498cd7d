//! Property-style integration tests on the request-level simulator:
//! conservation laws and dominance of the transiency-aware balancer,
//! across randomized scenario parameters.

use proptest::prelude::*;
use spotweb::sim::scenario::{FailoverScenario, ServerSpec};

fn scenario(rate: f64, servers: usize, aware: bool, revoke: bool, seed: u64) -> FailoverScenario {
    FailoverScenario {
        servers: (0..servers)
            .map(|i| ServerSpec {
                market: i % 3,
                capacity_rps: [80.0, 160.0, 320.0][i % 3],
            })
            .collect(),
        arrival_rps: rate,
        duration_secs: 360.0,
        revocation_at: revoke.then_some(120.0),
        victim_markets: vec![2],
        transiency_aware: aware,
        seed,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Conservation: every generated request is either served or dropped.
    #[test]
    fn requests_conserved(
        rate in 100.0f64..400.0,
        seed in 0u64..1000,
        aware in any::<bool>(),
    ) {
        let r = scenario(rate, 6, aware, true, seed).run();
        let total = r.served as u64 + r.dropped;
        // Expected arrivals over 360 s of Poisson(rate): mean rate*360.
        let expected = rate * 360.0;
        prop_assert!(
            (total as f64 - expected).abs() < 6.0 * expected.sqrt() + 10.0,
            "total {total} vs expected {expected}"
        );
        prop_assert!(r.invariant_violations.is_empty(), "{:?}", r.invariant_violations);
    }

    /// Dominance: the transiency-aware balancer never drops more than
    /// vanilla under the same seed and load.
    #[test]
    fn aware_never_worse(rate in 150.0f64..350.0, seed in 0u64..200) {
        let aware = scenario(rate, 6, true, true, seed).run();
        let vanilla = scenario(rate, 6, false, true, seed).run();
        for r in [&aware, &vanilla] {
            prop_assert!(r.invariant_violations.is_empty(), "{:?}", r.invariant_violations);
        }
        prop_assert!(
            aware.drop_fraction <= vanilla.drop_fraction + 1e-9,
            "aware {} vanilla {}",
            aware.drop_fraction,
            vanilla.drop_fraction
        );
    }

    /// No failures → no drops and no lost sessions, at sane utilization.
    #[test]
    fn no_failure_no_loss(rate in 100.0f64..500.0, seed in 0u64..200, aware in any::<bool>()) {
        let r = scenario(rate, 6, aware, false, seed).run();
        prop_assert_eq!(r.dropped, 0);
        prop_assert_eq!(r.lost_sessions, 0);
        prop_assert!(r.invariant_violations.is_empty(), "{:?}", r.invariant_violations);
    }
}

/// Byte-exact pin of the default Fig. 4(a) scenario (recorded before
/// the failover loop was folded into the chaos loop): the four failover
/// cells per seed pair that the benchmark's `event_loops` workload
/// replays. `tests/golden.rs` compares `fig4a.json` at a relative
/// tolerance and one seed, so a one-ulp drift would slip past it.
#[test]
fn failover_reports_are_pinned() {
    // (seed, aware, served, dropped, p99 bits, migrated, lost)
    let pins: [(u64, bool, usize, u64, u64, u64, u64); 4] = [
        (1234, true, 360_484, 0, 0x3fce_ddb5_44e4_99c2, 2294, 0),
        (1234, false, 336_915, 23_569, 0x4000_1001_3b67_e611, 0, 1714),
        (1235, true, 359_127, 0, 0x3fce_ddb5_44e4_99c2, 2294, 0),
        (1235, false, 335_402, 23_725, 0x4000_1001_3b67_e611, 0, 1714),
    ];
    for (seed, aware, served, dropped, p99_bits, migrated, lost) in pins {
        let r = FailoverScenario {
            seed,
            transiency_aware: aware,
            ..FailoverScenario::default()
        }
        .run();
        let label = format!("seed {seed} aware {aware}");
        assert_eq!(r.served, served, "{label}: served");
        assert_eq!(r.dropped, dropped, "{label}: dropped");
        assert_eq!(r.p99.to_bits(), p99_bits, "{label}: p99 {}", r.p99);
        assert_eq!(r.migrated_sessions, migrated, "{label}: migrated");
        assert_eq!(r.lost_sessions, lost, "{label}: lost");
        assert!(r.invariant_violations.is_empty(), "{label}: invariants");
    }
}
