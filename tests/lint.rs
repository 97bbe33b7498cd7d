//! The workspace must lint clean, and the linter's own behaviour is
//! locked by goldens: the report over the real tree and over the
//! fixture tree at `tests/fixtures/lint/` are both byte-stable.
//!
//! Both reports are manifest-tracked goldens; regenerate intentional
//! changes through the audited flow:
//! `cargo run --release -p spotweb-bench --bin figures -- bless \
//!  lint_fixture_report.json lint_report.json`.

use std::path::Path;

use spotweb_lint::files::SourceFile;
use spotweb_lint::rules::lint_files;
use spotweb_lint::{lint_workspace, LintConfig};

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn golden(name: &str) -> String {
    let path = manifest_dir().join("tests/golden").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn fixture_report() -> spotweb_lint::Report {
    let root = manifest_dir().join("tests/fixtures/lint");
    lint_workspace(&root, &LintConfig::spotweb()).expect("fixture scan")
}

#[test]
fn workspace_is_clean_and_report_matches_golden() {
    let report = lint_workspace(manifest_dir(), &LintConfig::spotweb()).expect("workspace scan");
    assert!(
        report.is_clean(),
        "unsuppressed lint findings:\n{}",
        report.render_human()
    );
    assert_eq!(
        report.to_json(),
        golden("lint_report.json"),
        "workspace lint report drifted from tests/golden/lint_report.json; \
         if the change is intentional, regenerate with \
         `cargo run --release -p spotweb-bench --bin figures -- bless lint_report.json`"
    );
}

#[test]
fn fixture_tree_report_matches_golden() {
    let report = fixture_report();
    assert!(!report.is_clean(), "fixture tree must have findings");
    assert_eq!(
        report.to_json(),
        golden("lint_fixture_report.json"),
        "fixture lint report drifted from tests/golden/lint_fixture_report.json"
    );
}

#[test]
fn report_is_deterministic_across_runs() {
    let a = lint_workspace(manifest_dir(), &LintConfig::spotweb()).expect("scan");
    let b = lint_workspace(manifest_dir(), &LintConfig::spotweb()).expect("scan");
    assert_eq!(a.to_json(), b.to_json());
}

#[test]
fn seeded_nondeterminism_in_any_crate_is_one_named_finding() {
    // The whole determinism gate is per-file: a stray wall-clock read
    // or OS-entropy RNG in an unquarantined module of *any* workspace
    // crate is exactly one named finding at the token. There is no
    // list of protected crates to fall outside of.
    const CRATES: [&str; 10] = [
        "telemetry",
        "linalg",
        "solver",
        "market",
        "workload",
        "predict",
        "core",
        "lb",
        "sim",
        "bench",
    ];
    const SOURCES: [(&str, &str); 2] = [
        (
            "pub fn t() -> f64 { std::time::Instant::now().elapsed().as_secs_f64() }\n",
            "wall-clock-quarantine",
        ),
        (
            "pub fn r() -> u64 { rand::thread_rng().next_u64() }\n",
            "seeded-rng-only",
        ),
    ];
    for krate in CRATES {
        for (src, rule) in SOURCES {
            let path = format!("crates/{krate}/src/seeded.rs");
            let file = SourceFile::from_source(&path, src.to_string());
            let report = lint_files(&LintConfig::spotweb(), &[file]);
            let got: Vec<(&str, u32)> = report
                .findings
                .iter()
                .map(|f| (f.rule.as_str(), f.line))
                .collect();
            assert_eq!(got, [(rule, 1)], "{path}:\n{}", report.render_human());
        }
    }
}

#[test]
fn a_wall_clock_callee_is_flagged_where_its_token_sits() {
    // `sim::decide::decide_scale` calls `lb::clock::now_epoch_ms`. No
    // call graph links them and none is needed: the callee's own file
    // fails the run, so the caller can stay clean without the tree
    // going green.
    let report = fixture_report();
    assert!(
        !report
            .findings
            .iter()
            .any(|f| f.file == "crates/sim/src/decide.rs"),
        "decide.rs holds no offending token:\n{}",
        report.render_human()
    );
    let callee: Vec<u32> = report
        .findings
        .iter()
        .filter(|f| f.rule == "wall-clock-quarantine" && f.file == "crates/lb/src/clock.rs")
        .map(|f| f.line)
        .collect();
    assert_eq!(callee, [6, 6, 9, 10], "{}", report.render_human());
}

#[test]
fn tampered_golden_without_epoch_bump_is_a_manifest_finding() {
    // Acceptance criterion: `tests/fixtures/lint/tests/golden/stale.json`
    // differs from its manifest digest (epoch not bumped) — the
    // manifest-consistency rule must fire and name the bless command.
    let report = fixture_report();
    let finding = report
        .findings
        .iter()
        .find(|f| f.rule == "manifest-consistency" && f.file == "tests/golden/stale.json")
        .unwrap_or_else(|| {
            panic!(
                "no manifest-consistency finding for stale.json:\n{}",
                report.render_human()
            )
        });
    assert!(finding.message.contains("figures -- bless stale.json"));
    assert!(finding.message.contains("without a bless"));
    // The consistent sibling stays clean.
    assert!(
        !report
            .findings
            .iter()
            .any(|f| f.file == "tests/golden/fresh.json"),
        "fresh.json must not be flagged:\n{}",
        report.render_human()
    );
}

#[test]
fn golden_write_outside_bless_is_caught_on_the_fixture_tree() {
    let report = fixture_report();
    let finding = report
        .findings
        .iter()
        .find(|f| f.rule == "golden-write-outside-bless")
        .unwrap_or_else(|| {
            panic!(
                "no golden-write-outside-bless finding:\n{}",
                report.render_human()
            )
        });
    assert_eq!(
        (finding.file.as_str(), finding.line),
        ("crates/sim/src/export.rs", 7)
    );
    assert!(finding.message.contains("fig_debug.json"));
}
