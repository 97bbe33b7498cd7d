//! Acceptance tests for the policy-zoo tournament (ISSUE 6): the full
//! policy × scenario × seed leaderboard is golden-locked byte for
//! byte, re-running the ranking is a no-op (double-run cmp), and the
//! CLI-facing name resolution is lenient about case and separators
//! while listing the registry on failure.
//!
//! Regenerate the golden (only after an *intentional* change to a
//! policy, the runner, or the scoring):
//!
//! ```text
//! figures tournament --jobs 4 --out tests/golden/
//! ```
//! (the command refuses to render unless its `--jobs 1` and
//! `--jobs 4` passes are byte-identical, so the recorded file is
//! jobs-count-independent by construction).

use spotweb_bench::cell::{resolve_policy, POLICIES, SCENARIOS};
use spotweb_bench::sweep::run_grid;
use spotweb_bench::tournament::{
    build_tournament_grid, leaderboard, render_leaderboard_json, render_table, TOURNAMENT_SEEDS,
};

/// The tournament leaderboard over the full grid matches the recorded
/// golden byte for byte. The grid runs at `--jobs 4`, and the golden
/// was captured from a digest-verified jobs-1 ≡ jobs-4 run, so this
/// also re-proves the parallel path against the serial recording.
#[test]
fn full_grid_leaderboard_matches_golden() {
    let grid = build_tournament_grid(None, None).expect("full grid builds");
    assert_eq!(
        grid.len(),
        POLICIES.len() * SCENARIOS.len() * TOURNAMENT_SEEDS.len(),
        "full cross product"
    );
    let summaries = run_grid(4, grid);
    let rendered = render_leaderboard_json(&leaderboard(&summaries), SCENARIOS);
    let golden = include_str!("golden/tournament_leaderboard.json");
    assert_eq!(
        rendered, golden,
        "tournament leaderboard diverged from the recorded golden"
    );
}

/// Double-run cmp on a single-scenario slice: replaying the same grid
/// twice renders byte-identical leaderboards and tables — ranking and
/// rendering are pure functions of the (deterministic) summaries.
#[test]
fn leaderboard_double_run_is_byte_identical() {
    let pass = || {
        let grid =
            build_tournament_grid(None, Some("backend-flaps")).expect("known scenario builds");
        let summaries = run_grid(4, grid);
        let standings = leaderboard(&summaries);
        (
            render_leaderboard_json(&standings, &["backend-flaps"]),
            render_table(&standings),
        )
    };
    let (json_a, table_a) = pass();
    let (json_b, table_b) = pass();
    assert_eq!(json_a, json_b, "leaderboard JSON must be double-run stable");
    assert_eq!(table_a, table_b, "human table must be double-run stable");
    // Every competitor appears exactly once in the slice's standings.
    for p in POLICIES {
        assert_eq!(
            json_a.matches(&format!("\"policy\":\"{p}\"")).count(),
            1,
            "{p} appears once in the standings"
        );
    }
}

/// Hyphen/underscore/case leniency and a registry-listing error for
/// unknown names — the behaviour `figures tournament --policy` (and
/// `sweep --policy`) exposes on the CLI.
#[test]
fn policy_resolution_is_lenient_and_errors_list_the_registry() {
    assert_eq!(resolve_policy("exosphere"), Ok("exosphere"));
    assert_eq!(resolve_policy("Index_Tracking"), Ok("index-tracking"));
    assert_eq!(resolve_policy("  HET_SPOT_GROUPS  "), Ok("het-spot-groups"));
    assert_eq!(resolve_policy("randomized_market"), Ok("randomized-market"));
    assert_eq!(resolve_policy("SpotWeb"), Ok("spotweb"));
    assert_eq!(resolve_policy("REACTIVE"), Ok("reactive"));

    let err = resolve_policy("quantum-annealer").expect_err("unknown names must not resolve");
    assert!(err.contains("unknown policy 'quantum-annealer'"), "{err}");
    for p in POLICIES {
        assert!(err.contains(p), "error must list {p}: {err}");
    }
}
