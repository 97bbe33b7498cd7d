//! `tools/ab.sh --from-dirs` over the committed fixture pair in
//! `tests/ab_fixture/`: ten alternating pairs of `control_plane` runs
//! at seed 1234 in which the change wins nine on `wall_s` and all ten
//! on `setup_s`. The statistics the paired A/B method rests on —
//! medians, the parent's quartiles, the win count and the exact
//! two-sided sign test — are checked against values worked by hand.

use std::process::Command;

fn judge(extra: &[&str]) -> String {
    let root = env!("CARGO_MANIFEST_DIR");
    let out = Command::new("bash")
        .arg(format!("{root}/tools/ab.sh"))
        .arg("--from-dirs")
        .arg(format!("{root}/tests/ab_fixture/parent"))
        .arg(format!("{root}/tests/ab_fixture/change"))
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
