//! Seed-swept equivalence suite for the fast-path runner (ISSUE 5).
//!
//! The hot-loop restructuring (control-event batching, fixed-slot
//! service queues, calendar completion queue, interned telemetry
//! handles) is only admissible because it is *behaviour-invisible*:
//! every simulated quantity must be byte-identical to what the
//! straight-line loop produced. These tests pin that contract against
//! recorded goldens:
//!
//! * `tests/golden/runner_equivalence.jsonl` — full sweep-grid
//!   summaries (2 policies × 5 scenarios) at seeds 1234, 7 and 99,
//!   captured before the fast-path landed.
//! * `tests/golden/chaos_reports.json` — the named chaos scenario
//!   reports (`figures chaos` output), same vintage.
//!
//! Regenerate (only after an *intentional* behaviour change):
//!
//! ```text
//! for s in 1234 7 99; do figures sweep --seed $s --jobs 1; done \
//!     > tests/golden/runner_equivalence.jsonl   # stdout only
//! figures chaos > tests/golden/chaos_reports.json
//! ```

use spotweb::sim::sweep::digest;
use spotweb::sim::{ChaosScenario, NAMED_SCENARIOS};
use spotweb_bench::cell::Cell;
use spotweb_bench::sweep::{build_grid, run_grid};
use spotweb_bench::DEFAULT_SEED;

/// Seeds the equivalence golden was recorded at. Three seeds so a
/// regression that happens to cancel out at one RNG stream still
/// trips the suite.
const GOLDEN_SEEDS: [u64; 3] = [1234, 7, 99];

fn golden_lines() -> Vec<&'static str> {
    include_str!("golden/runner_equivalence.jsonl")
        .lines()
        .collect()
}

/// The batched hot loop reproduces the recorded sweep grid byte for
/// byte at every golden seed — summaries, not just digests, so a
/// mismatch names the exact run that diverged.
#[test]
fn sweep_grid_matches_pre_fastpath_golden_at_three_seeds() {
    let golden = golden_lines();
    let mut cursor = 0;
    for seed in GOLDEN_SEEDS {
        let grid = build_grid(None, seed).expect("full grid builds");
        // `--jobs 4`: exercises the parallel path too; the golden was
        // recorded serially, so this doubles as a jobs-1 ≡ jobs-J check.
        for summary in run_grid(4, grid) {
            assert_eq!(
                summary.to_json(),
                golden[cursor],
                "seed {seed}: run {} diverged from pre-fast-path golden",
                summary.label()
            );
            cursor += 1;
        }
    }
    assert_eq!(
        cursor,
        golden.len(),
        "golden file has runs the grid no longer produces"
    );
}

/// Chaos scenario reports — drops, migrations, invariant counters,
/// per-phase timelines — are byte-identical to the recorded
/// `figures chaos` output.
#[test]
fn chaos_reports_match_pre_fastpath_golden() {
    let rendered: Vec<String> = NAMED_SCENARIOS
        .iter()
        .map(|name| {
            let mut scenario = ChaosScenario::named(name);
            scenario.seed = DEFAULT_SEED;
            scenario.run().to_json_pretty()
        })
        .collect();
    let joined = rendered.join("\n\n") + "\n";
    let golden = include_str!("golden/chaos_reports.json");
    assert_eq!(
        joined, golden,
        "chaos reports diverged from the pre-fast-path golden"
    );
}

/// A reactive-policy cell of the given shape.
fn reactive_cell(
    scenario: &str,
    seed: u64,
    rps: f64,
    interval_secs: f64,
    intervals: usize,
) -> Cell {
    Cell {
        rps,
        interval_secs,
        intervals,
        ..Cell::trace_default(scenario, "reactive", seed).expect("known names")
    }
}

/// Week-scale smoke: one simulated week of the revocation-storm fault
/// plan. Offered load is scaled down (the acceptance-scale 20 krps ×
/// day run lives behind `figures soak`; at test scale the point is
/// that the calendar queue, fixed-slot services and control-event
/// batching survive 168 intervals and ~1.2 M arrivals without drift).
#[test]
fn week_scale_smoke_run_stays_sane() {
    let cell = reactive_cell("revocation-storm", DEFAULT_SEED, 2.0, 3600.0, 168);
    let run = cell.run();
    let summary = run.summary();
    let simulated_secs = cell.interval_secs * cell.intervals as f64;
    assert_eq!(simulated_secs, 604_800.0, "one simulated week");
    // Poisson arrivals at rate λ over horizon T: within 5σ of λT.
    let arrivals = (summary.served + summary.dropped) as f64;
    let expected = cell.rps * simulated_secs;
    assert!(
        (arrivals - expected).abs() < 5.0 * expected.sqrt(),
        "arrival count {arrivals} implausible for Poisson mean {expected}"
    );
    assert!(
        summary.drop_fraction < 0.05,
        "storm with warnings must not collapse at week scale: {}",
        summary.drop_fraction
    );
    // Fleet scans for `lb.route` stay a handful per interval however
    // long the run is (see the storm gate below).
    let rebuilds = run.report.route_epoch_rebuilds;
    assert!(
        rebuilds <= 6 * cell.intervals as u64,
        "{rebuilds} fleet scans over {} intervals",
        cell.intervals
    );
}

/// Determinism double-run at perf scale: two invocations produce the
/// same summary bytes and the same digest.
#[test]
fn perf_entries_are_deterministic_across_runs() {
    let cell = reactive_cell("backend-flaps", 99, 400.0, 120.0, 3);
    let a = cell.run().summary();
    let b = cell.run().summary();
    assert_eq!(a.to_json(), b.to_json());
    assert!(a.served > 0);
    assert_eq!(
        digest(std::slice::from_ref(&a)),
        digest(std::slice::from_ref(&b)),
        "digest must be a pure function of the summary"
    );
}

/// Exact work-count gate on `lb.route`: the balancer re-scans the fleet
/// once per lifecycle edge crossed (a replacement turning ready, then
/// warm; a victim entering its drain margin, then dying) and once per
/// batch of control events — a handful per interval, never once per
/// request. The count is a pure function of the seed, so a regression
/// to per-request scanning fails here on a number with no noise in it.
#[test]
fn storm_run_rescans_the_fleet_per_edge_not_per_request() {
    let cell = reactive_cell("revocation-storm", DEFAULT_SEED, 400.0, 120.0, 6);
    let report = cell.run().report;
    let requests = report.served as u64 + report.dropped;
    assert!(
        requests > 250_000,
        "the storm run routes {requests} requests"
    );
    assert!(report.revocations > 0, "the storm must revoke something");
    let rebuilds = report.route_epoch_rebuilds;
    assert!(
        (1..=6 * cell.intervals as u64).contains(&rebuilds),
        "{rebuilds} fleet scans over {} intervals and {requests} requests",
        cell.intervals
    );
}
