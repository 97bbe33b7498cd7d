//! Property tests for the policy zoo (ISSUE 6): every policy the
//! factory can build must, for every tournament seed,
//!
//! * return one server count per catalog market,
//! * cover the requested workload (allocated capacity ≥ λ),
//! * stay within the configured over-provisioning envelope (no policy
//!   buys unboundedly many servers), and
//! * be a pure function of `(observation sequence, seed)`: building
//!   the policy twice and replaying the same observations produces
//!   byte-identical decision sequences.

use spotweb::core::policy::{OracleView, Policy, PolicyObservation};
use spotweb::core::{build_policy, SpotWebConfig, ZOO_POLICIES};
use spotweb::linalg::Matrix;
use spotweb::market::Catalog;
use spotweb::telemetry::TelemetrySink;

const SEEDS: &[u64] = &[1234, 7, 99];
const INTERVALS: usize = 6;
const LAMBDA: f64 = 1000.0;

/// Deterministic observation path: prices drift per (interval, market)
/// by a fixed arithmetic pattern, failure probabilities and a mild
/// correlation structure stay constant.
struct ObsPath {
    prices: Vec<Vec<f64>>,
    failures: Vec<f64>,
    cov: Matrix,
}

fn obs_path(catalog: &Catalog) -> ObsPath {
    let n = catalog.len();
    let base: Vec<f64> = catalog
        .markets()
        .iter()
        .map(|m| m.instance.on_demand_price * 0.3)
        .collect();
    let prices = (0..INTERVALS)
        .map(|t| {
            base.iter()
                .enumerate()
                .map(|(i, p)| p * (1.0 + 0.02 * ((t * 5 + i * 3) % 7) as f64))
                .collect()
        })
        .collect();
    let failures: Vec<f64> = (0..n).map(|i| 0.03 + 0.01 * i as f64).collect();
    let mut cov = Matrix::identity(n);
    if n >= 2 {
        cov[(0, 1)] = 0.6;
        cov[(1, 0)] = 0.6;
    }
    ObsPath {
        prices,
        failures,
        cov,
    }
}

/// Replay the fixed observation path through a freshly built policy,
/// returning the decision sequence.
fn drive(name: &str, seed: u64, catalog: &Catalog, path: &ObsPath) -> Vec<Vec<u32>> {
    let policy = build_policy(
        name,
        &SpotWebConfig::default(),
        catalog.len(),
        seed,
        &TelemetrySink::disabled(),
    )
    .expect("registered policies build");
    let mut policy: Box<dyn Policy + Send> = policy;
    (0..INTERVALS)
        .map(|t| {
            let obs = PolicyObservation {
                interval: t,
                current_workload: LAMBDA,
                prices: &path.prices[t],
                failure_probs: &path.failures,
                covariance: &path.cov,
                oracle: None,
            };
            policy.decide(catalog, &obs)
        })
        .collect()
}

fn capacity(catalog: &Catalog, counts: &[u32]) -> f64 {
    counts
        .iter()
        .enumerate()
        .map(|(i, &c)| c as f64 * catalog.market(i).capacity_rps())
        .sum()
}

#[test]
fn every_policy_covers_the_workload_within_the_envelope() {
    let catalog = Catalog::fig4_testbed();
    let path = obs_path(&catalog);
    // Generous over-provisioning envelope covering every registered
    // policy's worst case: het-spot-groups spreads 1/(G−f) per group
    // (total weight up to 2.0 here), spotweb pads its forecast by the
    // 99% CI, and integer rounding adds up to one server per market.
    let slack: f64 = catalog.markets().iter().map(|m| m.capacity_rps()).sum();
    let envelope = 3.0 * LAMBDA + slack;
    for name in ZOO_POLICIES {
        for &seed in SEEDS {
            for (t, counts) in drive(name, seed, &catalog, &path).iter().enumerate() {
                assert_eq!(
                    counts.len(),
                    catalog.len(),
                    "{name}/seed {seed}: one count per market"
                );
                let cap = capacity(&catalog, counts);
                assert!(
                    cap >= LAMBDA,
                    "{name}/seed {seed}/interval {t}: capacity {cap} < λ {LAMBDA}"
                );
                assert!(
                    cap <= envelope,
                    "{name}/seed {seed}/interval {t}: capacity {cap} blows the \
                     over-provisioning envelope {envelope}"
                );
            }
        }
    }
}

#[test]
fn every_policy_is_a_pure_function_of_observations_and_seed() {
    let catalog = Catalog::fig4_testbed();
    let path = obs_path(&catalog);
    for name in ZOO_POLICIES {
        for &seed in SEEDS {
            let a = drive(name, seed, &catalog, &path);
            let b = drive(name, seed, &catalog, &path);
            // Byte-level equality of the rendered decision sequences:
            // the same contract the sweep digest enforces end-to-end.
            assert_eq!(
                format!("{a:?}"),
                format!("{b:?}"),
                "{name}/seed {seed}: double invocation must be byte-identical"
            );
        }
    }
}

#[test]
fn oracle_workload_overrides_the_reactive_target() {
    // Every zoo policy sizes to the oracle's next-interval workload
    // when one is provided (the non-MPO policies all share the
    // oracle-or-current convention; the MPO forecasts through it).
    let catalog = Catalog::fig4_testbed();
    let path = obs_path(&catalog);
    let oracle = OracleView {
        workload: vec![4.0 * LAMBDA],
        prices: vec![path.prices[0].clone()],
    };
    for name in ZOO_POLICIES {
        if *name == "spotweb" {
            continue; // sizes from its own forecast, covered elsewhere
        }
        let mut policy = build_policy(
            name,
            &SpotWebConfig::default(),
            catalog.len(),
            1234,
            &TelemetrySink::disabled(),
        )
        .expect("registered policies build");
        let obs = PolicyObservation {
            interval: 0,
            current_workload: LAMBDA,
            prices: &path.prices[0],
            failure_probs: &path.failures,
            covariance: &path.cov,
            oracle: Some(&oracle),
        };
        let counts = policy.decide(&catalog, &obs);
        assert!(
            capacity(&catalog, &counts) >= 4.0 * LAMBDA,
            "{name}: oracle-sized fleet must cover the oracle workload"
        );
    }
}
