//! Acceptance tests for the parallel sweep engine (ISSUE 3): the
//! policy × scenario × seed grid must render byte-identically at any
//! `--jobs` count, unknown scenario names must produce a helpful
//! error rather than a panic, and warm-started ADMM must converge to
//! the same allocation in fewer iterations than cold solves.

use spotweb::sim::sweep::digest;
use spotweb_bench::bless::GOLDEN_SEEDS;
use spotweb_bench::cell::{grid, POLICIES};
use spotweb_bench::sweep::{build_grid, run_grid, warm_start_probe, SWEEP_POLICIES};
use spotweb_bench::DEFAULT_SEED;

/// The golden determinism property: summaries at `--jobs 1` and
/// `--jobs 4` are byte-identical, line for line and as a digest.
#[test]
fn sweep_is_byte_identical_at_jobs_1_and_4() {
    // One scenario keeps the full-stack grid small (2 policies).
    let specs = build_grid(Some("revocation_storm"), DEFAULT_SEED).expect("known scenario");
    assert_eq!(specs.len(), SWEEP_POLICIES.len());

    let serial_summaries = run_grid(1, specs.clone());
    let parallel_summaries = run_grid(4, specs);
    for (s, p) in serial_summaries.iter().zip(&parallel_summaries) {
        assert_eq!(
            s.to_json(),
            p.to_json(),
            "per-run JSON must not depend on the jobs count"
        );
    }
    assert_eq!(digest(&serial_summaries), digest(&parallel_summaries));
}

#[test]
fn sweep_rejects_unknown_scenarios_with_a_helpful_error() {
    let err = build_grid(Some("no-such-scenario"), DEFAULT_SEED)
        .expect_err("unknown scenario must not panic");
    assert!(
        err.contains("revocation-storm"),
        "error should list the valid scenario names, got: {err}"
    );
    // Underscore/hyphen leniency: both spellings resolve.
    assert!(build_grid(Some("zero_warning"), DEFAULT_SEED).is_ok());
    assert!(build_grid(Some("zero-warning"), DEFAULT_SEED).is_ok());
}

/// The whole-registry grid (every cell policy, the factory-built zoo
/// and the reactive baseline, on one scenario at the three golden
/// seeds) is byte-identical at `--jobs 1` and `--jobs 4` — the sweep
/// determinism contract extended to the factory-built policies.
#[test]
fn tournament_grid_is_byte_identical_at_jobs_1_and_4() {
    let specs = grid(POLICIES, &["zero-warning"], &GOLDEN_SEEDS);
    assert_eq!(specs.len(), POLICIES.len() * GOLDEN_SEEDS.len());

    let serial_summaries = run_grid(1, specs.clone());
    let parallel_summaries = run_grid(4, specs);
    for (s, p) in serial_summaries.iter().zip(&parallel_summaries) {
        assert_eq!(
            s.to_json(),
            p.to_json(),
            "zoo cell JSON must not depend on the jobs count"
        );
    }
    assert_eq!(digest(&serial_summaries), digest(&parallel_summaries));
}

/// Seed-swept cross-policy regression (ISSUE 6): routing the MPO and
/// reactive baselines through the policy factory must not move a
/// single byte of the sweep grid. The constants are the full-grid
/// digests recorded when the counter-based arrival RNG landed
/// (ISSUE 10) — any later refactor must reproduce them exactly.
///
/// Re-recorded when the solver started polishing, from
/// `dd89cc681eefa2fa` / `0cbc211b0b46d267` / `96cda72316c02a98`: the
/// first record differs at every seed, and in each only its
/// `admm_iterations` moves (e.g. 200 → 70 on seed 1234's first cell).
/// Across the 30 summaries of the three grids 15 iteration counts move
/// and no other leaf does: the polished fleets round to the same
/// servers, so every request-level number is byte-equal
/// (`runner_equivalence.jsonl`, blessed at epoch 3, holds the same
/// summaries).
///
/// Re-recorded again, from `ac22b054ab8351c3` / `0ede622110067a85` /
/// `41dfa90b4458a5ec`, when warm solves started by polishing the
/// previous active set: the same 15 `admm_iterations` move (70 → 40,
/// 50 → 20) and no other leaf does (`runner_equivalence.jsonl` epoch 4).
///
/// Re-recorded again, from `e556cb6f2712d9e0` / `c1895361f9e2aa90` /
/// `c786b97b1fc5d12b`, when cold solves started polishing at every
/// ADMM check: the same 15 `admm_iterations` move (40 → 10 at seeds
/// 1234 and 7, 20 → 10 at seed 99) and no other leaf does
/// (`runner_equivalence.jsonl` epoch 5).
#[test]
fn mpo_and_reactive_sweep_digests_survive_the_factory_refactor() {
    const GOLDEN_DIGESTS: &[(u64, &str)] = &[
        (1234, "e11e9a32c385b565"),
        (7, "d6f7f5fe382237ff"),
        (99, "57b71bb9b5f73d40"),
    ];
    for &(seed, expected) in GOLDEN_DIGESTS {
        let specs = build_grid(None, seed).expect("full grid builds");
        let summaries = run_grid(4, specs);
        assert_eq!(
            digest(&summaries),
            expected,
            "seed {seed}: sweep digest drifted after the factory refactor"
        );
    }
}

/// Warm-started receding-horizon solves converge in fewer mean ADMM
/// iterations than cold ones (the fixed-covariance probe `figures
/// sweep` reports on stderr).
#[test]
fn warm_started_admm_uses_fewer_iterations_than_cold() {
    let stats = warm_start_probe();
    assert!(stats.solves >= 2);
    assert!(
        stats.warm_mean_iterations < stats.cold_mean_iterations,
        "warm {} !< cold {}",
        stats.warm_mean_iterations,
        stats.cold_mean_iterations
    );
}
