//! Golden regression tests: fixed-seed outputs pinned under
//! `tests/golden/`, each tracked by `MANIFEST.json` (`figures bless`).
//! A behavioural change anywhere in the pipeline — RNG streams, market
//! dynamics, balancer policy, service model, optimizer — shows up here
//! as a diff.
//!
//! * `fig4a.json`, `fig6a.json`, `fig6b.json` — the Fig. 4(a), 6(a) and
//!   6(b) statistics, compared leaf by leaf. `fig6a` pins the constant
//!   portfolio, `fig6b` ExoSphere-in-a-loop (the MPO at `H = 1`).
//! * `runner_equivalence.jsonl` — full sweep-grid summaries (2 policies
//!   × 5 scenarios) at seeds 1234, 7 and 99, and `chaos_reports.json`,
//!   the named chaos scenario reports, both byte for byte. They were
//!   captured before the runner's batched hot loop (control-event
//!   batching, fixed-slot service queues, calendar completion queue,
//!   interned telemetry handles) landed, which is only admissible
//!   because it is behaviour-invisible.
//!
//! Regenerate a fixture (only after an *intentional* change) through
//! `figures bless <fixture> --note "why"`; the manifest records each
//! fixture's producing command.

use serde_json::Value;
use spotweb::sim::sweep::digest;
use spotweb::sim::{ChaosScenario, NAMED_SCENARIOS};
use spotweb_bench::cell::Cell;
use spotweb_bench::sweep::{build_grid, run_grid};
use spotweb_bench::{fig4, fig6, DEFAULT_SEED};

const GOLDEN_INTERVALS: usize = 24;
/// Relative tolerance on numeric leaves. The pipeline is deterministic,
/// so this only absorbs float-formatting round-trips, not drift.
const REL_TOL: f64 = 1e-9;

fn assert_close(actual: &Value, golden: &Value, path: &str) {
    match (actual, golden) {
        (Value::Number(a), Value::Number(g)) => {
            let scale = g.abs().max(1.0);
            assert!(
                (a - g).abs() <= REL_TOL * scale,
                "{path}: {a} deviates from golden {g}"
            );
        }
        (Value::String(a), Value::String(g)) => {
            assert_eq!(a, g, "{path}: string mismatch");
        }
        (Value::Bool(a), Value::Bool(g)) => {
            assert_eq!(a, g, "{path}: bool mismatch");
        }
        (Value::Null, Value::Null) => {}
        (Value::Array(a), Value::Array(g)) => {
            assert_eq!(a.len(), g.len(), "{path}: array length changed");
            for (i, (av, gv)) in a.iter().zip(g).enumerate() {
                assert_close(av, gv, &format!("{path}[{i}]"));
            }
        }
        (Value::Object(a), Value::Object(g)) => {
            let mut a_keys: Vec<&str> = a.iter().map(|(k, _)| k.as_str()).collect();
            let mut g_keys: Vec<&str> = g.iter().map(|(k, _)| k.as_str()).collect();
            a_keys.sort_unstable();
            g_keys.sort_unstable();
            assert_eq!(a_keys, g_keys, "{path}: object keys changed");
            for (k, av) in a {
                assert_close(
                    av,
                    golden.get(k).expect("key checked"),
                    &format!("{path}.{k}"),
                );
            }
        }
        _ => panic!("{path}: JSON type changed ({actual:?} vs golden {golden:?})"),
    }
}

fn reserialize<T: serde::Serialize>(value: &T) -> Value {
    let text = serde_json::to_string(value).expect("figure serializes");
    serde_json::from_str(&text).expect("round-trips")
}

#[test]
fn fig4a_matches_golden_trace() {
    let actual = reserialize(&fig4::run_fig4a(DEFAULT_SEED));
    let golden = serde_json::from_str(include_str!("golden/fig4a.json")).expect("fixture parses");
    assert_close(&actual, &golden, "fig4a");
}

#[test]
fn fig6a_matches_golden_trace() {
    let actual = reserialize(&fig6::run_fig6a(GOLDEN_INTERVALS, DEFAULT_SEED));
    let golden = serde_json::from_str(include_str!("golden/fig6a.json")).expect("fixture parses");
    assert_close(&actual, &golden, "fig6a");
}

#[test]
fn fig6b_matches_golden_trace() {
    let actual = reserialize(&fig6::run_fig6b(
        fig6::Fig6bWorkload::Wikipedia,
        &fig6::FIG6B_MARKETS,
        &fig6::FIG6B_HORIZONS,
        GOLDEN_INTERVALS,
        DEFAULT_SEED,
    ));
    let golden = serde_json::from_str(include_str!("golden/fig6b.json")).expect("fixture parses");
    assert_close(&actual, &golden, "fig6b");
}

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
