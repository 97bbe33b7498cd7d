//! `tools/ab.sh --from-dirs` over the committed fixture pair in
//! `tests/ab_fixture/`: ten alternating pairs of `control_plane` runs
//! at seed 1234 in which the change wins nine on `wall_s` and all ten
//! on `setup_s`. The statistics the paired A/B method rests on —
//! medians, the parent's quartiles, the win count and the exact
//! two-sided sign test — are checked against values worked by hand.

use std::fs;
use std::path::Path;
use std::process::Command;

fn judge(extra: &[&str]) -> String {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/ab_fixture");
    judge_dirs(&fixture.join("parent"), &fixture.join("change"), extra)
}

fn judge_dirs(parent: &Path, change: &Path, extra: &[&str]) -> String {
    let root = env!("CARGO_MANIFEST_DIR");
    let out = Command::new("bash")
        .arg(format!("{root}/tools/ab.sh"))
        .arg("--from-dirs")
        .arg(parent)
        .arg(change)
        .args(extra)
        .output()
        .expect("bash runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert!(
        out.status.success(),
        "ab.sh failed: {stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

/// The line of `metric`, split on whitespace.
fn row(report: &str, metric: &str) -> Vec<String> {
    report
        .lines()
        .find(|l| l.starts_with(&format!("{metric} ")))
        .unwrap_or_else(|| panic!("no {metric} line in\n{report}"))
        .split_whitespace()
        .map(str::to_string)
        .collect()
}

#[test]
fn the_paired_statistics_match_the_hand_worked_fixture() {
    let report = judge(&[]);
    assert!(
        report.contains("== control_plane, seed 1234: 10 pairs"),
        "{report}"
    );
    // Parent walls 0.46 … 0.53 (median 0.50, quartiles 0.4775 and 0.52
    // by linear interpolation); the change's median 0.40; it loses the
    // fifth pair (0.49 → 0.50). 9 of 10 is p = 2·11/1024.
    assert_eq!(
        row(&report, "wall_s"),
        [
            "wall_s",
            "0.5",
            "0.4",
            "-20.0%",
            "0.4775–0.52",
            "9",
            "/",
            "10",
            "0.021"
        ]
    );
    // 10 of 10 is p = 2/1024; an unchanged metric wins no pair.
    assert_eq!(row(&report, "setup_s")[5..], ["10", "/", "10", "0.002"]);
    assert_eq!(row(&report, "peak_rss_mib")[5..], ["0", "/", "0", "1.000"]);
    assert!(report.contains("host.off_cpu_frac: parent 0.0100, change 0.0200"));
    assert!(report.contains("exact metrics: all matched"));
}

#[test]
fn the_ledger_row_is_experiments_md_shaped() {
    let report = judge(&["--ledger", "A change — A/B against the parent"]);
    let ledger = report.lines().last().expect("a ledger row");
    assert_eq!(
        ledger,
        "| A change — A/B against the parent | sign test p = 0.021, met | `control_plane` \
         | `wall_s` | 0.5 → 0.4 s (−20.0 %; parent IQR 0.477–0.52) | 9 / 10 | 1234 |"
    );
}

/// Two workloads judged in one call: every pair directory of the
/// fixture also holds a `request_path` run, a copy of its
/// `control_plane` run under the other name. `--ledger` prints the row
/// of the workload `--workload` lists first.
#[test]
fn the_ledger_row_is_the_first_listed_workloads() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/ab_fixture");
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("ab_two_workloads");
    let _ = fs::remove_dir_all(&dir);
    for side in ["parent", "change"] {
        for pair in fs::read_dir(fixture.join(side).join("1234")).expect("fixture pairs") {
            let pair = pair.expect("a pair directory").path();
            let out = dir
                .join(side)
                .join("1234")
                .join(pair.file_name().expect("named"));
            fs::create_dir_all(&out).expect("temporary directory");
            let run = fs::read_to_string(pair.join("control_plane.untraced.json")).expect("a run");
            fs::write(out.join("control_plane.untraced.json"), &run).expect("written");
            let renamed = run.replace(
                "\"workload\": \"control_plane\"",
                "\"workload\": \"request_path\"",
            );
            assert_ne!(renamed, run);
            fs::write(out.join("request_path.untraced.json"), renamed).expect("written");
        }
    }
    for (listed, first) in [
        ("request_path,control_plane", "request_path"),
        ("control_plane,request_path", "control_plane"),
    ] {
        let extra = ["--workload", listed, "--ledger", "Two workloads"];
        let report = judge_dirs(&dir.join("parent"), &dir.join("change"), &extra);
        for workload in ["control_plane", "request_path"] {
            assert!(
                report.contains(&format!("== {workload}, seed 1234: 10 pairs")),
                "{report}"
            );
        }
        let ledger = report.lines().last().expect("a ledger row");
        assert!(ledger.starts_with("| Two workloads |"), "{ledger}");
        assert!(
            ledger.contains(&format!("| `{first}` | `wall_s` | 0.5 → 0.4 s")),
            "{ledger}"
        );
    }
}
