//! The `figures` command line: its flags and their checks, and the
//! output of the commands that only compute and print. Library code so
//! `tests/docs.rs` can parse every invocation the docs name, and so a
//! golden is its command's stdout by construction (`crate::bless`).

use std::path::{Path, PathBuf};

use crate::fig6::{self, Fig6bWorkload};
use crate::{ablations, cell, discussion, fig3, fig4, fig5, fig7, scorecard};
use crate::{DEFAULT_SEED, FIVE_DAYS_HOURS, ONE_WEEK_HOURS, THREE_WEEKS_HOURS};

/// Every subcommand, in usage order.
#[rustfmt::skip]
pub const COMMANDS: [&str; 18] = [
    "fig3", "fig4a", "fig4bcd", "fig5", "fig6a", "fig6b", "fig7a", "fig7b", "ablations",
    "discussion", "scorecard", "chaos", "trace", "report", "sweep", "tournament", "soak", "bless",
];

/// The usage line printed with every parse error.
pub fn usage() -> String {
    format!(
        "usage: figures <{}> [--seed N] [--intervals N] [--workload wikipedia|vod] \
         [--scenario NAME] [--policy NAME] [--out DIR] [--jobs J] [--hours N] [--init] \
         [--note TEXT] [--check] [--base-manifest FILE] [FIXTURE...]",
        COMMANDS.join("|")
    )
}

/// One parsed `figures` invocation.
#[derive(Debug)]
pub struct Args {
    /// The subcommand, one of [`COMMANDS`].
    pub command: String,
    /// Seed every experiment derives its randomness from.
    pub seed: u64,
    /// Hourly intervals to simulate (at least 1).
    pub intervals: usize,
    /// `fig6b` only: which trace.
    pub workload: Fig6bWorkload,
    /// Chaos / trace scenario name.
    pub scenario: Option<String>,
    /// `tournament` only: restrict the grid to one registered policy.
    pub policy: Option<String>,
    /// Output directory (`trace`, `tournament`).
    pub out: Option<String>,
    /// Worker threads for `sweep`/`tournament`/`scorecard` (accepted
    /// everywhere).
    pub jobs: usize,
    /// `soak` only: simulated hours.
    pub hours: usize,
    /// `bless` only: fixture names to regenerate (positional).
    pub fixtures: Vec<String>,
    /// `bless` only: bootstrap/extend the manifest from on-disk bytes.
    pub init: bool,
    /// `bless` only: history note recorded with each epoch bump.
    pub note: Option<String>,
    /// `bless` only: verify instead of regenerating.
    pub check: bool,
    /// `bless --check` only: the merge base's manifest.
    pub base_manifest: Option<String>,
}

/// The value of a count flag: a number, at least 1.
fn count(value: Option<String>, flag: &str) -> Result<usize, String> {
    let value = value.ok_or(format!("{flag} needs a value"))?;
    let name = flag.trim_start_matches('-');
    match value.parse() {
        Ok(0) => Err(format!("{flag} must be at least 1")),
        Ok(n) => Ok(n),
        Err(e) => Err(format!("bad {name}: {e}")),
    }
}

/// Parse the arguments after the program name.
pub fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = args.into_iter();
    let command = args.next().ok_or("missing command")?;
    if !COMMANDS.contains(&command.as_str()) {
        return Err(format!("unknown command {command}"));
    }
    let mut out = Args {
        command,
        seed: DEFAULT_SEED,
        intervals: THREE_WEEKS_HOURS,
        workload: Fig6bWorkload::Wikipedia,
        scenario: None,
        policy: None,
        out: None,
        jobs: 1,
        hours: 24,
        fixtures: Vec::new(),
        init: false,
        note: None,
        check: false,
        base_manifest: None,
    };
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--seed" => {
                out.seed = args
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("bad seed: {e}"))?;
            }
            "--intervals" => out.intervals = count(args.next(), "--intervals")?,
            "--workload" => {
                out.workload = match args.next().as_deref() {
                    Some("wikipedia") => Fig6bWorkload::Wikipedia,
                    Some("vod") => Fig6bWorkload::Vod,
                    other => return Err(format!("bad workload {other:?}")),
                };
            }
            "--scenario" => {
                out.scenario = Some(args.next().ok_or("--scenario needs a value")?);
            }
            "--policy" => {
                out.policy = Some(args.next().ok_or("--policy needs a value")?);
            }
            "--init" => out.init = true,
            "--note" => {
                out.note = Some(args.next().ok_or("--note needs a value")?);
            }
            "--check" => out.check = true,
            "--base-manifest" => {
                out.base_manifest = Some(args.next().ok_or("--base-manifest needs a file")?);
            }
            "--hours" => out.hours = count(args.next(), "--hours")?,
            "--out" => {
                out.out = Some(args.next().ok_or("--out needs a directory")?);
            }
            "--jobs" => out.jobs = count(args.next(), "--jobs")?,
            other if other.starts_with('-') => return Err(format!("unknown flag {other}")),
            fixture => out.fixtures.push(fixture.to_string()),
        }
    }
    if out.command != "bless" {
        if !out.fixtures.is_empty() {
            return Err(format!(
                "positional fixture names are only valid with `bless` (got {:?})",
                out.fixtures
            ));
        }
        if out.init {
            return Err("--init is only valid with `bless`".to_string());
        }
        if out.note.is_some() {
            return Err("--note is only valid with `bless`".to_string());
        }
    }
    if out.check && (out.command != "bless" || out.init || out.note.is_some()) {
        return Err("--check is only valid with `bless`, without --init or --note".to_string());
    }
    if out.base_manifest.is_some() && !out.check {
        return Err("--base-manifest is only valid with `bless --check`".to_string());
    }
    Ok(out)
}

/// Write `contents` to `dir/file`, creating `dir`; returns the path.
pub fn write(dir: &Path, file: &str, contents: &str) -> Result<PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(file);
    std::fs::write(&path, contents).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}

fn pretty<T: serde::Serialize>(value: &T) -> Result<String, String> {
    serde_json::to_string_pretty(value)
        .map(|s| s + "\n")
        .map_err(|e| format!("serialize: {e}"))
}

/// The stdout of a figure command (pretty JSON), `scorecard` (markdown)
/// or `chaos` (JSON reports); `None` for the other commands.
pub fn figure_output(args: &Args) -> Option<Result<String, String>> {
    let (seed, intervals) = (args.seed, args.intervals);
    let week = intervals.min(ONE_WEEK_HOURS);
    Some(match args.command.as_str() {
        "fig3" => pretty(&fig3::run(intervals, seed)),
        "fig4a" => pretty(&fig4::run_fig4a(seed)),
        "fig4bcd" => pretty(&fig4::run_fig4bcd(seed)),
        "fig5" => pretty(&fig5::run(intervals.min(FIVE_DAYS_HOURS), seed)),
        "fig6a" => pretty(&fig6::run_fig6a(intervals, seed)),
        "fig6b" => pretty(&fig6::run_fig6b(
            args.workload,
            &fig6::FIG6B_MARKETS,
            &fig6::FIG6B_HORIZONS,
            intervals,
            seed,
        )),
        "fig7a" => pretty(&fig7::run_fig7a(
            &[0.0, 0.05, 0.1, 0.2, 0.3],
            intervals,
            seed,
        )),
        "fig7b" => pretty(&fig7::run_fig7b(
            &[9, 18, 36, 72, 144],
            &[2, 4, 6, 10],
            7,
            seed,
        )),
        "ablations" => pretty(&vec![
            ablations::churn(&[0.0, 0.05, 0.2, 0.5], week, seed),
            ablations::alpha(&[0.0, 1.0, 5.0, 25.0, 100.0], week, seed),
            ablations::padding(week, seed),
            ablations::horizon(&[1, 2, 4, 8, 16], week, seed),
        ]),
        "discussion" => pretty(&discussion::run(week, seed)),
        "scorecard" => scorecard::render(&scorecard::SCORECARD_SEEDS, intervals, args.jobs),
        // Byte-stable across runs: the determinism tests diff this output.
        "chaos" => cell::chaos_reports(args.scenario.as_deref(), seed),
        _ => return None,
    })
}
