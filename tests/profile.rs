//! Acceptance tests for the self-profiler (ISSUE 7): the span *tree*
//! recorded while profiling a full-stack runner phase — names,
//! nesting, call counts, lock-wait counts — is a pure function of the
//! simulated run, so it must be identical across runs and is pinned
//! as a golden. Wall-clock seconds never appear in the structure
//! document; the timed tree is what `benchmark/` writes to
//! `<workload>.traced.spans.json`.
//!
//! Regenerate the golden (after an *intentional* change to the
//! instrumentation or the simulated behaviour) with:
//!
//! ```text
//! cargo run --release -p spotweb-bench --bin figures -- bless profile_spans.json
//! ```

use spotweb_bench::profile::{runner_phase, runner_spans_golden_json, sweep_phase};
use spotweb_bench::DEFAULT_SEED;

const SCENARIO: &str = "revocation_storm";

/// Two profiled runs of the same scenario + seed produce the same
/// span tree once wall-clock figures are set aside: `structure_json`
/// carries only names, nesting, counts, and lock-wait counts.
#[test]
fn span_structure_is_identical_across_runs() {
    let a = runner_phase(SCENARIO, DEFAULT_SEED).expect("profiled run");
    let b = runner_phase(SCENARIO, DEFAULT_SEED).expect("profiled run");
    let sa = a.profile.merged().structure_json();
    let sb = b.profile.merged().structure_json();
    assert!(!sa.is_empty());
    assert_eq!(sa, sb, "span structure must not depend on wall time");
    // The timed export, by contrast, is *expected* to differ between
    // runs (it carries seconds); nothing asserts on it here.
}

/// The span structure of the short runner phase matches the committed
/// golden byte for byte.
#[test]
fn span_structure_matches_golden() {
    let doc = runner_spans_golden_json(SCENARIO, DEFAULT_SEED).expect("profiled run");
    assert_eq!(
        doc,
        include_str!("golden/profile_spans.json"),
        "span structure deviates from tests/golden/profile_spans.json; \
         if the change is intentional, regenerate it (see the header \
         of this file)"
    );
}

/// The acceptance contract of ISSUE 7: across the profiled phases the
/// span tree covers the runner's arrival loop, control batch, and
/// drain, the balancer route, the sweep workers, and the MPO solve,
/// with counts consistent with the simulated run. The runner phase
/// replays the reactive policy (it isolates the request path — see
/// `bench::profile`), so the optimizer spans are asserted on a sweep
/// phase, which replays every policy.
#[test]
fn span_tree_covers_the_contracted_paths() {
    fn count_of(node: &spotweb::telemetry::prof::MergedNode, name: &str) -> u64 {
        let own = if node.name == name { node.count } else { 0 };
        own + node.children.iter().map(|c| count_of(c, name)).sum::<u64>()
    }

    let phase = runner_phase(SCENARIO, DEFAULT_SEED).expect("profiled run");
    let merged = phase.profile.merged();
    let m = &merged;
    assert_eq!(count_of(m, "runner.run"), 1);
    assert!(count_of(m, "runner.interval") >= 1);
    assert!(count_of(m, "runner.arrival_loop") >= 1);
    assert!(count_of(m, "runner.control_batch") >= 1);
    assert!(count_of(m, "runner.drain") >= 1);
    assert_eq!(
        count_of(m, "lb.route"),
        phase.arrivals,
        "one route span per simulated arrival"
    );

    let sweep = sweep_phase("sweep_test", 2, Some(SCENARIO), DEFAULT_SEED).expect("profiled sweep");
    let merged = sweep.profile.merged();
    let s = &merged;
    assert!(
        count_of(s, "sweep.worker") >= 1,
        "parallel sweep spawns workers"
    );
    assert!(count_of(s, "sweep.task") >= 1);
    assert!(
        count_of(s, "mpo.solve") >= 1,
        "the sweep's spotweb cells reach the optimizer"
    );
}
