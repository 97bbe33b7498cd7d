//! `figures tournament`: rank every policy-zoo competitor against
//! SpotWeb across the full chaos-scenario × seed grid and emit a
//! byte-stable leaderboard.
//!
//! The tournament is the sweep grid widened to the whole zoo
//! ([`POLICIES`]) and deepened to several seeds
//! ([`TOURNAMENT_SEEDS`]): one [`Cell`] per policy × scenario × seed,
//! each replayed through the full stack with nothing shared between
//! cells. The command runs the grid at `--jobs 1` and again at
//! `--jobs J` and proves both passes byte-identical before rendering
//! anything — the same determinism contract as `figures sweep`.
//!
//! Leaderboard metrics per policy (aggregated over its cells):
//!
//! * `mean_cost` — mean provisioning spend per cell ($).
//! * `normalized_cost` — `mean_cost / min over policies` (1.00 = the
//!   cheapest competitor).
//! * `slo_violation_rate` — fraction of cells whose p99 latency
//!   exceeded [`SLO_P99_SECS`].
//! * `drop_rate` — total dropped / total offered requests.
//! * `revocation_survival` — served fraction over the cells that saw
//!   at least one revocation (how much of the workload survived the
//!   storms).
//! * `score` — `normalized_cost + slo_violation_rate + drop_rate +
//!   (1 − revocation_survival)`; lower is better. A deliberately
//!   simple equal-weight composite: each term is already on a
//!   comparable ~O(1) scale, and the point of the tournament is the
//!   per-metric columns, not the scalar.
//!
//! Outputs: a fixed-precision human table (stdout) and the
//! deterministic `tournament_leaderboard.json` (golden-locked in
//! `tests/tournament.rs`).

use spotweb_sim::sweep::RunSummary;
use spotweb_telemetry::json::{json_f64, json_string};

use crate::cell::{grid, resolve_policy, scenario_axis, Cell, POLICIES};
use crate::sweep::run_grid_verified;

/// Seeds each policy × scenario cell is replayed at.
pub const TOURNAMENT_SEEDS: &[u64] = &[1234, 7, 99];

/// p99 latency SLO the violation rate counts against. Observed p99s
/// across the grid span ~0.1 s (healthy) to several seconds (capacity
/// collapse), so half a second cleanly separates the two regimes.
pub const SLO_P99_SECS: f64 = 0.5;

/// Build the tournament grid: (one policy or all of [`POLICIES`]) ×
/// (one scenario or all of [`crate::cell::SCENARIOS`]) × every seed in
/// [`TOURNAMENT_SEEDS`], in that nesting order. Names are leniently
/// spelled; unknown ones list the registry.
pub fn build_tournament_grid(
    policy: Option<&str>,
    scenario: Option<&str>,
) -> Result<Vec<Cell>, String> {
    let policies = match policy {
        Some(raw) => vec![resolve_policy(raw)?],
        None => POLICIES.to_vec(),
    };
    Ok(grid(&policies, &scenario_axis(scenario)?, TOURNAMENT_SEEDS))
}

/// One leaderboard row: a policy's aggregate standing over its cells.
#[derive(Debug, Clone)]
pub struct PolicyStanding {
    /// Policy name.
    pub policy: String,
    /// Grid cells aggregated into this row.
    pub cells: usize,
    /// Mean provisioning spend per cell ($).
    pub mean_cost: f64,
    /// `mean_cost` / the cheapest policy's `mean_cost`.
    pub normalized_cost: f64,
    /// Fraction of cells with p99 latency above [`SLO_P99_SECS`].
    pub slo_violation_rate: f64,
    /// Total dropped / total offered requests across the cells.
    pub drop_rate: f64,
    /// Served fraction over cells that saw at least one revocation
    /// (1.0 when no cell did).
    pub revocation_survival: f64,
    /// Equal-weight composite; lower is better.
    pub score: f64,
}

/// Aggregate per-cell summaries into ranked standings (best score
/// first; ties broken by policy name so the order is total).
pub fn leaderboard(summaries: &[RunSummary]) -> Vec<PolicyStanding> {
    // Policies in first-appearance order (= grid order).
    let mut policies: Vec<String> = Vec::new();
    for s in summaries {
        if !policies.contains(&s.policy) {
            policies.push(s.policy.clone());
        }
    }

    struct Agg {
        cells: usize,
        cost: f64,
        slo_violations: usize,
        served: u64,
        dropped: u64,
        revoked_served: u64,
        revoked_offered: u64,
    }
    let mut rows: Vec<(String, Agg)> = Vec::with_capacity(policies.len());
    for p in &policies {
        let mut agg = Agg {
            cells: 0,
            cost: 0.0,
            slo_violations: 0,
            served: 0,
            dropped: 0,
            revoked_served: 0,
            revoked_offered: 0,
        };
        for s in summaries.iter().filter(|s| &s.policy == p) {
            agg.cells += 1;
            agg.cost += s.cost;
            if s.p99 > SLO_P99_SECS {
                agg.slo_violations += 1;
            }
            agg.served += s.served;
            agg.dropped += s.dropped;
            if s.revocations > 0 {
                agg.revoked_served += s.served;
                agg.revoked_offered += s.served + s.dropped;
            }
        }
        rows.push((p.clone(), agg));
    }

    let min_mean = rows
        .iter()
        .filter(|(_, a)| a.cells > 0)
        .map(|(_, a)| a.cost / a.cells as f64)
        .fold(f64::INFINITY, f64::min);

    let mut standings: Vec<PolicyStanding> = rows
        .into_iter()
        .filter(|(_, a)| a.cells > 0)
        .map(|(policy, a)| {
            let mean_cost = a.cost / a.cells as f64;
            let normalized_cost = if min_mean > 0.0 {
                mean_cost / min_mean
            } else {
                1.0
            };
            let slo_violation_rate = a.slo_violations as f64 / a.cells as f64;
            let offered = a.served + a.dropped;
            let drop_rate = if offered > 0 {
                a.dropped as f64 / offered as f64
            } else {
                0.0
            };
            let revocation_survival = if a.revoked_offered > 0 {
                a.revoked_served as f64 / a.revoked_offered as f64
            } else {
                1.0
            };
            let score =
                normalized_cost + slo_violation_rate + drop_rate + (1.0 - revocation_survival);
            PolicyStanding {
                policy,
                cells: a.cells,
                mean_cost,
                normalized_cost,
                slo_violation_rate,
                drop_rate,
                revocation_survival,
                score,
            }
        })
        .collect();
    standings.sort_by(|a, b| {
        a.score
            .total_cmp(&b.score)
            .then_with(|| a.policy.cmp(&b.policy))
    });
    standings
}

/// Render the standings as the byte-stable
/// `tournament_leaderboard.json`: pure function of the grid's
/// deterministic summaries, fixed key order, canonical numbers.
pub fn render_leaderboard_json(standings: &[PolicyStanding], scenarios: &[&str]) -> String {
    let seeds = TOURNAMENT_SEEDS
        .iter()
        .map(|s| s.to_string())
        .collect::<Vec<_>>()
        .join(",");
    let scenario_list = scenarios
        .iter()
        .map(|s| json_string(s))
        .collect::<Vec<_>>()
        .join(",");
    let mut rows = String::new();
    for (rank, s) in standings.iter().enumerate() {
        if rank > 0 {
            rows.push(',');
        }
        rows.push_str(&format!(
            "\n    {{\"rank\":{},\"policy\":{},\"cells\":{},\"mean_cost\":{},\
             \"normalized_cost\":{},\"slo_violation_rate\":{},\"drop_rate\":{},\
             \"revocation_survival\":{},\"score\":{}}}",
            rank + 1,
            json_string(&s.policy),
            s.cells,
            json_f64(s.mean_cost),
            json_f64(s.normalized_cost),
            json_f64(s.slo_violation_rate),
            json_f64(s.drop_rate),
            json_f64(s.revocation_survival),
            json_f64(s.score),
        ));
    }
    format!(
        "{{\n  \"slo_p99_secs\": {},\n  \"seeds\": [{seeds}],\n  \
         \"scenarios\": [{scenario_list}],\n  \"standings\": [{rows}\n  ]\n}}\n",
        json_f64(SLO_P99_SECS),
    )
}

/// Render the standings as the human leaderboard table (fixed
/// precision throughout, so the text is as byte-stable as the JSON).
pub fn render_table(standings: &[PolicyStanding]) -> String {
    let mut out = String::with_capacity(1024);
    out.push_str(&format!(
        "{:<4} {:<18} {:>5} {:>10} {:>9} {:>8} {:>7} {:>9} {:>7}\n",
        "rank",
        "policy",
        "cells",
        "mean-cost",
        "norm-cost",
        "slo-viol",
        "drops",
        "rev-surv",
        "score"
    ));
    for (rank, s) in standings.iter().enumerate() {
        out.push_str(&format!(
            "{:<4} {:<18} {:>5} {:>10} {:>9} {:>7}% {:>6}% {:>8}% {:>7}\n",
            rank + 1,
            s.policy,
            s.cells,
            format!("${:.2}", s.mean_cost),
            format!("{:.3}", s.normalized_cost),
            format!("{:.1}", 100.0 * s.slo_violation_rate),
            format!("{:.2}", 100.0 * s.drop_rate),
            format!("{:.2}", 100.0 * s.revocation_survival),
            format!("{:.3}", s.score),
        ));
    }
    out
}

/// Result of [`run_command`]: the renderings and the grid's digest.
pub struct TournamentOutput {
    /// Human leaderboard table for stdout.
    pub table: String,
    /// The deterministic `tournament_leaderboard.json` contents.
    pub leaderboard_json: String,
    /// FNV digest over the per-cell summaries.
    pub digest: String,
}

/// Execute the tournament: run the grid serially and at `jobs`
/// workers, verify byte-identical summaries, rank, and render.
pub fn run_command(
    jobs: usize,
    policy: Option<&str>,
    scenario: Option<&str>,
) -> Result<TournamentOutput, String> {
    let run = run_grid_verified(jobs, build_tournament_grid(policy, scenario)?)?;
    let standings = leaderboard(&run.summaries);
    Ok(TournamentOutput {
        table: render_table(&standings),
        leaderboard_json: render_leaderboard_json(&standings, &scenario_axis(scenario)?),
        digest: run.digest,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(policy: &str, scenario: &str, seed: u64, cost: f64, p99: f64, rev: u64) -> RunSummary {
        RunSummary {
            policy: policy.to_string(),
            scenario: scenario.to_string(),
            seed,
            served: 900,
            dropped: 100,
            drop_fraction: 0.1,
            p50: 0.05,
            p99,
            cost,
            revocations: rev,
            migrated_sessions: 0,
            mpo_solves: 0,
            admm_iterations: 0,
        }
    }

    #[test]
    fn grid_covers_the_full_cross_product() {
        let grid = build_tournament_grid(None, None).unwrap();
        assert_eq!(
            grid.len(),
            POLICIES.len() * crate::cell::SCENARIOS.len() * TOURNAMENT_SEEDS.len()
        );
        // Restricting either axis restricts the product.
        let one = build_tournament_grid(Some("Index_Tracking"), Some("zero_warning")).unwrap();
        assert_eq!(one.len(), TOURNAMENT_SEEDS.len());
        assert!(one
            .iter()
            .all(|s| s.policy == "index-tracking" && s.scenario == "zero-warning"));
    }

    #[test]
    fn leaderboard_ranks_by_score_and_normalizes_cost() {
        let cells = vec![
            cell("a", "s", 1, 10.0, 0.1, 0),
            cell("a", "s", 2, 14.0, 0.1, 0),
            cell("b", "s", 1, 24.0, 0.9, 1),
            cell("b", "s", 2, 24.0, 0.9, 1),
        ];
        let board = leaderboard(&cells);
        assert_eq!(board.len(), 2);
        assert_eq!(board[0].policy, "a", "cheap + in-SLO policy ranks first");
        assert!((board[0].normalized_cost - 1.0).abs() < 1e-12);
        assert!((board[1].normalized_cost - 2.0).abs() < 1e-12);
        assert_eq!(board[0].slo_violation_rate, 0.0);
        assert_eq!(board[1].slo_violation_rate, 1.0);
        // Policy a saw no revocations: survival defaults to 1.
        assert_eq!(board[0].revocation_survival, 1.0);
        assert!((board[1].revocation_survival - 0.9).abs() < 1e-12);
        assert!(board[0].score < board[1].score);
    }

    #[test]
    fn renderings_are_pure_functions_of_the_standings() {
        let cells = vec![
            cell("a", "s", 1, 10.0, 0.1, 0),
            cell("b", "s", 1, 20.0, 0.9, 3),
        ];
        let json_a = render_leaderboard_json(&leaderboard(&cells), &["s"]);
        let json_b = render_leaderboard_json(&leaderboard(&cells), &["s"]);
        assert_eq!(json_a, json_b);
        assert!(json_a.contains("\"rank\":1"));
        assert!(json_a.contains("\"slo_p99_secs\""));
        let table = render_table(&leaderboard(&cells));
        assert!(table.contains("rank"));
        assert!(table.contains("$10.00"));
    }
}
