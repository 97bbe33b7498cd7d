//! Acceptance tests for the telemetry stack (ISSUE 2): the full-stack
//! trace replay must be byte-stable, explain every MPO solve, carry
//! forecast-vs-actual records, and lay out the per-backend
//! drain/death/replacement timeline around the injected storm.
//!
//! Regenerate the golden trace (after an *intentional* change) with:
//!
//! ```text
//! cargo run --release -p spotweb-bench --bin figures -- trace \
//!     --scenario revocation_storm --seed 1234 \
//!     > tests/golden/trace_revocation_storm.jsonl
//! ```

use spotweb::telemetry::{prof, TraceEvent};
use spotweb_bench::cell::SCENARIOS;
use spotweb_bench::telem::run_trace;
use spotweb_bench::DEFAULT_SEED;

#[test]
fn revocation_storm_trace_is_byte_identical_across_runs() {
    let a = run_trace("revocation_storm", DEFAULT_SEED).expect("trace runs");
    let b = run_trace("revocation_storm", DEFAULT_SEED).expect("trace runs");
    let jsonl = a.sink.export_jsonl();
    assert!(!jsonl.is_empty());
    assert_eq!(
        jsonl,
        b.sink.export_jsonl(),
        "same seed + same plan must produce a byte-identical trace"
    );
    // The metrics registry is part of the determinism contract too.
    assert_eq!(a.sink.render_prometheus(), b.sink.render_prometheus());
}

#[test]
fn revocation_storm_trace_matches_golden() {
    let traced = run_trace("revocation-storm", DEFAULT_SEED).expect("trace runs");
    let golden = include_str!("golden/trace_revocation_storm.jsonl");
    assert_eq!(
        traced.sink.export_jsonl(),
        golden,
        "trace deviates from the committed fixture; if the change is \
         intentional, regenerate it (see the header of this file)"
    );
}

#[test]
fn trace_explains_decisions_forecasts_and_drains() {
    let traced = run_trace("revocation-storm", DEFAULT_SEED).expect("trace runs");
    let events = traced.sink.events();

    // One DecisionRecord per MPO solve (one solve per interval), each
    // with per-market evaluations and at least one chosen market.
    let decisions: Vec<_> = events
        .iter()
        .filter_map(|e| match &e.event {
            TraceEvent::Decision(d) => Some(d),
            _ => None,
        })
        .collect();
    assert_eq!(decisions.len(), 4, "one decision per control interval");
    for d in &decisions {
        assert!(!d.markets.is_empty(), "decision must evaluate every market");
        assert!(
            d.markets.iter().any(|m| m.chosen),
            "every solve allocates somewhere"
        );
        for m in d.markets.iter().filter(|m| !m.chosen) {
            assert!(!m.reason.is_empty(), "rejections carry a reason");
        }
        assert_eq!(d.predicted_workload.len(), d.horizon);
    }

    // Forecast-vs-actual-vs-CI-padding from the workload predictor.
    let forecasts: Vec<_> = events
        .iter()
        .filter_map(|e| match &e.event {
            TraceEvent::Forecast(f) => Some(f),
            _ => None,
        })
        .collect();
    assert!(
        forecasts.len() >= 3,
        "predictor emits forecast records from the second observation on"
    );
    for f in &forecasts {
        assert!((f.padded - f.predicted - f.ci_pad).abs() < 1e-9);
        assert!((f.actual - f.predicted - f.error).abs() < 1e-9);
    }

    // The storm's per-backend migration timeline: every drained
    // backend has a drain record, a death, and a replacement whose
    // ready_at lands after the drain deadline was issued.
    let drains: Vec<_> = events
        .iter()
        .filter_map(|e| match &e.event {
            TraceEvent::Drain(d) => Some((e.t, d)),
            _ => None,
        })
        .collect();
    assert!(!drains.is_empty(), "the storm must drain backends");
    for (t, d) in &drains {
        assert_eq!(d.kind, "revocation");
        assert!(d.deadline >= *t, "deadline after the warning");
    }
    let deaths = events
        .iter()
        .filter(|e| matches!(e.event, TraceEvent::BackendDeath { .. }))
        .count();
    assert!(deaths > 0, "drained backends eventually die");
    let replacements: Vec<_> = events
        .iter()
        .filter_map(|e| match &e.event {
            TraceEvent::ReplacementStarted { ready_at, .. } => Some((e.t, *ready_at)),
            _ => None,
        })
        .collect();
    assert!(!replacements.is_empty(), "storm victims get replacements");
    for (t, ready_at) in &replacements {
        assert!(ready_at > t, "replacements take startup + warmup time");
    }
}

#[test]
fn every_trace_scenario_replays_cleanly() {
    for name in SCENARIOS {
        let traced = run_trace(name, DEFAULT_SEED).expect("trace runs");
        assert!(
            traced.report.invariant_violations.is_empty(),
            "{name}: {:?}",
            traced.report.invariant_violations
        );
        assert!(traced.report.served > 0, "{name}: nothing served");
        assert_eq!(
            traced.sink.dropped_events(),
            0,
            "{name}: trace ring buffer must hold the whole scenario"
        );
    }
}

/// Every series a traced run emits and every span it opens is named by
/// a `telemetry::names` constant: the name must appear as a quoted
/// literal in that file. Checked on what the run *emitted*, so a name
/// spelled inline anywhere on the way to the sink — a literal at the
/// call site, a local `let`, a `format!` — fails here.
#[test]
fn every_emitted_series_and_span_is_a_names_constant() {
    fn span_names(node: &prof::MergedNode, out: &mut Vec<String>) {
        for child in &node.children {
            out.push(child.name.clone());
            span_names(child, out);
        }
    }

    let names_rs = include_str!("../crates/telemetry/src/names.rs");
    for scenario in SCENARIOS {
        let session = prof::begin();
        let traced = run_trace(scenario, DEFAULT_SEED).expect("trace runs");
        let profile = session.finish();

        let prometheus = traced.sink.render_prometheus();
        let series: Vec<&str> = prometheus
            .lines()
            .filter_map(|l| l.strip_prefix("# TYPE "))
            .filter_map(|l| l.split(' ').next())
            .collect();
        assert!(!series.is_empty(), "{scenario}: no series exported");
        let mut spans = Vec::new();
        span_names(&profile.merged(), &mut spans);
        assert!(!spans.is_empty(), "{scenario}: no span recorded");

        for name in series.into_iter().chain(spans.iter().map(String::as_str)) {
            assert!(
                names_rs.contains(&format!("\"{name}\"")),
                "{scenario}: `{name}` is emitted but is not a constant in telemetry::names"
            );
        }
    }
}
