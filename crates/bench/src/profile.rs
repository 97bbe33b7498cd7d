//! `prof`-session wrappers around the crate's two full-stack shapes.
//!
//! A [`spotweb_telemetry::prof`] session records the span *structure*
//! of whatever runs inside it — names, nesting, call counts, lock-wait
//! counts — and that structure is a pure function of the simulated
//! run. This module opens a session around one request-path [`Cell`]
//! ([`runner_phase`]) or one pass over the sweep grid
//! ([`sweep_phase`]) so `tests/profile.rs` can pin the structure, and
//! renders the document `figures bless profile_spans.json` writes.
//! What the spans *cost* (wall seconds, lock-wait seconds) is
//! `benchmark/`'s to say: its traced runs write the same tree, timed,
//! to `<workload>.traced.spans.json`.

use spotweb_telemetry::json::json_string;
use spotweb_telemetry::prof;

use crate::cell::{resolve_scenario, Cell};
use crate::sweep::{build_grid, run_grid};

/// Offered load of the runner phase (req/s): high enough that the
/// per-arrival loop, not the interval bookkeeping, is what the span
/// counts describe (~2.4 M requests).
pub const RUNNER_PHASE_RPS: f64 = 2000.0;

/// One profiled phase: the collected profile plus what ran under it.
#[derive(Debug, Clone)]
pub struct ProfilePhase {
    /// Phase name (stable identifier, e.g. `runner_short`).
    pub name: String,
    /// Worker threads requested for this phase (1 for runner phases).
    pub jobs: usize,
    /// Simulated arrivals processed, when the phase is a single runner
    /// run (0 for sweep phases).
    pub arrivals: u64,
    /// The collected span profile.
    pub profile: prof::Profile,
}

impl ProfilePhase {
    fn run(name: &str, jobs: usize, body: impl FnOnce() -> u64) -> ProfilePhase {
        let session = prof::begin();
        let arrivals = body();
        ProfilePhase {
            name: name.to_string(),
            jobs,
            arrivals,
            profile: session.finish(),
        }
    }
}

/// Profile one request-path cell — `scenario` under the reactive
/// policy (it isolates the request path) at [`RUNNER_PHASE_RPS`] for
/// the trace-default 4 × 300 s — covering the runner arrival / control
/// / drain spans, `lb.route`, and the telemetry histogram locks.
pub fn runner_phase(scenario: &str, seed: u64) -> Result<ProfilePhase, String> {
    // Resolve the names before the session starts.
    let cell = Cell {
        rps: RUNNER_PHASE_RPS,
        ..Cell::trace_default(scenario, "reactive", seed)?
    };
    Ok(ProfilePhase::run("runner_short", 1, || {
        let report = cell.run().report;
        report.served as u64 + report.dropped
    }))
}

/// Profile one pass over the sweep grid at `jobs` workers. The grid
/// replays every sweep policy — this is the phase where the MPO solver
/// (`mpo.solve`) and, at `jobs > 1`, the `sweep.worker` spans appear.
pub fn sweep_phase(
    name: &str,
    jobs: usize,
    scenario: Option<&str>,
    seed: u64,
) -> Result<ProfilePhase, String> {
    let grid = build_grid(scenario, seed)?;
    Ok(ProfilePhase::run(name, jobs, move || {
        run_grid(jobs, grid);
        0
    }))
}

/// The golden document for `tests/golden/profile_spans.json`: the
/// deterministic span structure of the runner phase.
pub fn runner_spans_golden_json(scenario: &str, seed: u64) -> Result<String, String> {
    let scenario = resolve_scenario(scenario)?;
    let phase = runner_phase(scenario, seed)?;
    Ok(format!(
        "{{\"schema\":\"spotweb-profile-spans/1\",\"scenario\":{},\"seed\":{},\"spans\":{}}}\n",
        json_string(scenario),
        seed,
        phase.profile.merged().structure_json()
    ))
}
