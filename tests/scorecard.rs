//! `figures scorecard` at a size tier-1 can afford: two seeds, 48
//! intervals. Its rows must be the golden's rows (same figures, claims
//! and paper values, in order), and its bytes must not depend on the
//! worker count. The full N = 8 golden is CI's `scorecard` job.

use std::path::Path;

use spotweb_bench::scorecard;

/// The first three cells (figure, claim, paper) of every table row.
fn row_keys(table: &str) -> Vec<String> {
    table
        .lines()
        .filter(|l| l.starts_with("| ") && !l.starts_with("| figure |"))
        .map(|l| l.split(" | ").take(3).collect::<Vec<_>>().join(" | "))
        .collect()
}

#[test]
fn small_scorecard_has_the_golden_rows_at_any_job_count() {
    let seeds = [1234, 20190622];
    let serial = scorecard::render(&seeds, 48, 1).expect("scorecard renders");
    let parallel = scorecard::render(&seeds, 48, 2).expect("scorecard renders");
    assert_eq!(serial, parallel, "scorecard bytes depend on --jobs");

    let golden = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/scorecard.md"),
    )
    .expect("golden scorecard");
    let rows = row_keys(&serial);
    assert!(rows.len() >= 19, "{serial}");
    assert_eq!(rows, row_keys(&golden));
    assert!(serial.contains("(N = 2); 48 hourly intervals"), "{serial}");
    assert!(serial.contains("= 50.0 %"), "{serial}");
}
