//! `figures trace` / `figures report`: replay a named chaos scenario
//! through the *full stack* — MPO policy, market simulator, load
//! balancer, request-level runner — with telemetry enabled, and
//! export the byte-stable trace plus human-readable explanations.
//!
//! The chaos scenarios in `spotweb-sim` exercise a fixed cluster; the
//! replay here is the [`Cell`] with the real
//! [`spotweb_core::SpotWebPolicy`], so the trace carries the whole
//! decision story: one `decision` record per MPO solve, `forecast`
//! records from the workload predictor, per-backend `drain` /
//! `backend_death` / `replacement_started` timelines around the
//! injected faults, and an `interval_summary` per control interval.
//!
//! Determinism contract (see DESIGN.md): the trace JSONL is a pure
//! function of `(scenario, seed)`.

use spotweb_telemetry::TraceEvent;

use crate::cell::{Cell, CellRun};

/// Replay `scenario` (any of [`crate::cell::SCENARIOS`], leniently
/// spelled) under the SpotWeb policy at the trace-default shape.
pub fn run_trace(scenario: &str, seed: u64) -> Result<CellRun, String> {
    Ok(Cell::trace_default(scenario, "spotweb", seed)?.run())
}

/// Render a traced run as a human-readable explanation: the decision
/// story per interval, forecast accuracy, and the drain/replacement
/// timeline around every injected fault.
pub fn render_report(run: &CellRun) -> String {
    let mut out = String::with_capacity(8192);
    let r = &run.report;
    out.push_str(&format!(
        "scenario {} (seed {})\n\
         served {} dropped {} ({:.2}% drops), p50 {:.0} ms, p99 {:.0} ms, cost ${:.2}\n\
         revocations {}, migrated sessions {}, trace events {} (dropped {})\n",
        run.cell.scenario,
        run.cell.seed,
        r.served,
        r.dropped,
        100.0 * r.drop_fraction,
        1000.0 * r.p50,
        1000.0 * r.p99,
        r.cost,
        r.revocations,
        r.migrated_sessions,
        run.sink.events().len(),
        run.sink.dropped_events(),
    ));
    let events = run.sink.events();
    let decisions: Vec<_> = events
        .iter()
        .filter_map(|e| match &e.event {
            TraceEvent::Decision(d) => Some(d),
            _ => None,
        })
        .collect();
    if !decisions.is_empty() {
        let count = decisions.len() as f64;
        let iterations: usize = decisions.iter().map(|d| d.iterations).sum();
        let polished = decisions.iter().filter(|d| d.polished).count();
        let polish_solves: usize = decisions.iter().map(|d| d.polish_solves).sum();
        let factored = decisions
            .iter()
            .filter(|d| d.kkt_factorizations > 0)
            .count();
        out.push_str(&format!(
            "decisions {}: {:.1} ADMM iterations a solve, {:.0}% polished, \
             {:.1} polish solves a solve, {:.0}% factored the KKT matrix\n",
            decisions.len(),
            iterations as f64 / count,
            100.0 * polished as f64 / count,
            polish_solves as f64 / count,
            100.0 * factored as f64 / count,
        ));
    }

    for e in &events {
        match &e.event {
            TraceEvent::Decision(d) => {
                let chosen: Vec<String> = d
                    .markets
                    .iter()
                    .filter(|m| m.chosen)
                    .map(|m| format!("{}×{}", m.servers, m.name))
                    .collect();
                let rejected = d.markets.iter().filter(|m| !m.chosen).count();
                out.push_str(&format!(
                    "[t={:7.1}] decision #{}: observed {:.0} rps, objective {:.4}, \
                     chose [{}], rejected {} markets; {} ADMM iterations, \
                     {} polish solves, {} KKT factorizations\n",
                    e.t,
                    d.interval,
                    d.observed_rps,
                    d.objective,
                    chosen.join(", "),
                    rejected,
                    d.iterations,
                    d.polish_solves,
                    d.kkt_factorizations,
                ));
                for m in d.markets.iter().filter(|m| !m.chosen) {
                    out.push_str(&format!("             rejected {}: {}\n", m.name, m.reason));
                }
            }
            TraceEvent::Forecast(f) => {
                out.push_str(&format!(
                    "[t={:7.1}] forecast {} step {}: actual {:.1}, predicted {:.1} \
                     (err {:+.1}), padded {:.1} (+{:.1} CI)\n",
                    e.t, f.quantity, f.step, f.actual, f.predicted, f.error, f.padded, f.ci_pad
                ));
            }
            TraceEvent::Drain(d) => {
                out.push_str(&format!(
                    "[t={:7.1}] drain backend {} (market {}, {}): warning {:.0}s, \
                     deadline {:.1}, migrated {}, stayed {}, gap {:.0} rps\n",
                    e.t,
                    d.backend,
                    d.market,
                    d.kind,
                    d.warning_secs,
                    d.deadline,
                    d.sessions_migrated,
                    d.sessions_stayed,
                    d.capacity_gap_rps
                ));
            }
            TraceEvent::BackendDeath {
                backend,
                market,
                sessions_lost,
            } => {
                out.push_str(&format!(
                    "[t={:7.1}] death backend {backend} (market {market}), \
                     {sessions_lost} sessions lost\n",
                    e.t
                ));
            }
            TraceEvent::ReplacementStarted {
                replaces,
                backend,
                market,
                ready_at,
            } => {
                out.push_str(&format!(
                    "[t={:7.1}] replacement backend {backend} for {replaces} \
                     (market {market}), ready at {ready_at:.1}\n",
                    e.t
                ));
            }
            TraceEvent::FaultInjected { fault, detail } => {
                out.push_str(&format!("[t={:7.1}] FAULT {fault}: {detail}\n", e.t));
            }
            TraceEvent::IntervalSummary {
                interval,
                fleet_size,
                arrival_rate,
                throughput,
                drop_rate,
                p99_latency,
                ..
            } => {
                out.push_str(&format!(
                    "[t={:7.1}] interval {interval} summary: fleet {fleet_size}, \
                     arrivals {arrival_rate:.0} rps, throughput {throughput:.0} rps, \
                     drops {:.2}%, p99 {:.0} ms\n",
                    e.t,
                    100.0 * drop_rate,
                    1000.0 * p99_latency
                ));
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_is_byte_identical_across_runs_and_tells_the_story() {
        let a = run_trace("revocation_storm", 1234).expect("runs");
        let b = run_trace("revocation-storm", 1234).expect("runs");
        assert_eq!(a.cell.scenario, "revocation-storm", "underscores normalize");
        let jsonl_a = a.sink.export_jsonl();
        assert_eq!(jsonl_a, b.sink.export_jsonl(), "trace must be byte-stable");
        assert!(!jsonl_a.is_empty());

        let events = a.sink.events();
        let count = |k: &str| events.iter().filter(|e| e.event.kind() == k).count();
        assert_eq!(count("decision"), 4, "one DecisionRecord per MPO solve");
        assert!(count("forecast") >= 3, "forecast-vs-actual per step");
        assert!(count("drain") > 0, "storm must drain backends");
        assert!(count("backend_death") > 0);
        assert!(count("replacement_started") > 0);
        assert_eq!(count("interval_summary"), 4);

        let report = render_report(&a);
        assert!(report.contains("decision #"));
        assert!(report.contains("ADMM iterations a solve,"), "{report}");
        assert!(report.contains("polish solves a solve,"), "{report}");
        assert!(report.contains(" polish solves, "), "{report}");
        assert!(report.contains("FAULT correlated_revocation"));
    }
}
