//! SpotWeb benchmark harness.
//!
//! One module per figure/table of the paper's evaluation (§6). Each
//! module exposes a function that *runs the experiment* and returns a
//! serializable result struct; the `figures` binary prints them as
//! JSON. [`scorecard`] turns them into the paper-vs-measured table
//! EXPERIMENTS.md embeds.
//!
//! | module | regenerates |
//! |---|---|
//! | [`fig3`]  | Fig. 3(a)/(b) — workload traces & summary stats |
//! | [`fig4`]  | Fig. 4(a) — failover latency; Fig. 4(b–d) — predictor error histograms |
//! | [`fig5`]  | Fig. 5(a,c,d) — price dynamics & allocations over time |
//! | [`fig6`]  | Fig. 6(a) — vs constant portfolio; Fig. 6(b) — vs ExoSphere-in-a-loop |
//! | [`fig7`]  | Fig. 7(a) — savings vs prediction error; Fig. 7(b) — optimizer scalability |
//! | [`ablations`] | beyond-the-paper sweeps: churn γ, risk α, CI level, horizon |
//! | [`discussion`] | §7 provider portability: EC2 vs GCP vs Azure profiles |
//! | [`scorecard`] | `figures scorecard` — every paper claim over eight seeds: median, `[min, max]`, sign count |
//! | [`cli`] | the `figures` flags and their checks; the stdout of the figure commands, which their goldens' bless generators share |
//! | [`cell`] | the experiment cell: one (scenario, policy, seed) full-stack run — every command below that simulates requests goes through it |
//! | [`telem`] | `figures trace`/`report` — full-stack telemetry replay of the chaos scenarios |
//! | [`sweep`] | `figures sweep` — deterministic parallel policy × scenario × seed grid, jobs-1 ≡ jobs-J digest proof |
//! | [`tournament`] | `figures tournament` — policy-zoo leaderboard over the full grid |
//! | [`soak`] | `figures soak` — 20 krps long-horizon run: per-hour throughput series + peak-RSS gate |
//! | [`profile`] | `prof`-session wrappers behind `tests/profile.rs` and the `profile_spans.json` golden |
//! | [`bless`] | `figures bless` — audited golden regeneration against `tests/golden/MANIFEST.json`, and its `--check` gate |
//! | [`manifest`] | the golden manifest: parser, byte-stable writer, consistency and epoch-bump checks |
//!
//! How fast any of it runs is not recorded here: `benchmark/` (see
//! `BENCHMARK.json`) is the repo's one perf record.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used)]
#![warn(missing_docs)]

pub mod ablations;
pub mod bless;
pub mod cell;
pub mod cli;
pub mod discussion;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod manifest;
pub mod profile;
pub mod scorecard;
pub mod soak;
pub mod sweep;
pub mod telem;
pub mod tournament;

/// Default seed used across the harness so every figure is
/// reproducible end-to-end.
// One draw, not a verdict: how often each claim holds across seeds is
// the sign column of `figures scorecard` (EXPERIMENTS.md).
pub const DEFAULT_SEED: u64 = 1234;

/// Five days: the cap on `fig5`'s `--intervals` (its price window).
pub const FIVE_DAYS_HOURS: usize = 5 * 24;

/// One week: the cap on `ablations`' and `discussion`'s `--intervals`.
pub const ONE_WEEK_HOURS: usize = 7 * 24;

/// Three weeks of hourly samples — the paper's trace length.
pub const THREE_WEEKS_HOURS: usize = 21 * 24;
