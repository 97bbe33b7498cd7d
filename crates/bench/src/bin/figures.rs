//! Regenerate every table and figure of the SpotWeb paper (§6).
//!
//! ```text
//! figures <command> [--seed N] [--intervals N] [--workload wikipedia|vod]
//!         [--scenario NAME] [--policy NAME] [--summary] [--out DIR]
//!         [--jobs J] [--hours N] [--init] [--note TEXT] [--check]
//!         [--base-manifest FILE] [FIXTURE...]
//!
//! commands:
//!   fig3        workload traces (Fig. 3a/3b)
//!   fig4a       failover latency, SpotWeb vs vanilla LB (Fig. 4a)
//!   fig4bcd     predictor error histograms (Fig. 4b–d)
//!   fig5        price awareness: prices + allocations (Fig. 5a/5c/5d)
//!   fig6a       vs constant portfolio + autoscaler (Fig. 6a)
//!   fig6b       vs ExoSphere-in-a-loop, market sweep (Fig. 6b)
//!   fig7a       savings vs prediction error (Fig. 7a)
//!   fig7b       optimizer scalability (Fig. 7b)
//!   ablations   churn γ / risk α / CI padding / horizon sweeps
//!   discussion  §7 provider portability (EC2 / GCP / Azure profiles)
//!   chaos       replay named fault-injection scenarios
//!               (--scenario NAME for one; all of them by default)
//!   trace       full-stack telemetry replay of a chaos scenario;
//!               prints byte-stable trace JSONL, or with --out DIR
//!               writes trace.jsonl + metrics.prom
//!   report      human-readable decision/forecast/drain explanation
//!               of the same traced replay
//!   sweep       deterministic policy × scenario × seed grid across
//!               --jobs J workers; prints byte-stable per-run JSON
//!               summaries and exits non-zero unless they match a
//!               --jobs 1 pass (digest and warm-vs-cold solver
//!               iterations on stderr)
//!   tournament  policy-zoo leaderboard: every registered policy ×
//!               chaos scenario × tournament seed through the full
//!               stack; prints the ranked table (normalized cost, SLO
//!               violations, drops, revocation survival), verifies a
//!               --jobs J pass matches --jobs 1 byte-for-byte, and
//!               writes tournament_leaderboard.json (deterministic)
//!               to --out DIR; --policy/--scenario restrict the grid
//!   soak        long-horizon run: --hours N simulated hours (default
//!               24) of 20 krps through the full stack (--scenario,
//!               default revocation-storm); prints the byte-stable run
//!               summary, reports the per-hour requests-per-wall-second
//!               series and the process peak RSS on stderr, and exits
//!               non-zero if the peak exceeds the recorded bound
//!   bless       audited golden regeneration: `bless --init` imports
//!               every untracked tests/golden/ fixture into
//!               MANIFEST.json at epoch 1; `bless <fixture...>`
//!               regenerates the named fixtures in-process, bumps each
//!               epoch, and appends the old→new digest pair to the
//!               manifest history (--note records why). Refuses to run
//!               while any *other* fixture disagrees with the manifest.
//!               `bless --check` writes nothing: it exits non-zero if
//!               any fixture disagrees with the manifest, or — given
//!               --base-manifest FILE (the merge base's MANIFEST.json)
//!               and the golden paths the diff touched — if one
//!               changed without an epoch bump
//!   all         everything above from fig3 to chaos
//! ```
//!
//! `--jobs` is accepted by every subcommand so wrapper scripts can
//! pass it uniformly; `sweep` and `tournament` fan out.
//!
//! How long anything takes is `benchmark/run.sh`'s to say (see
//! `BENCHMARK.json`); nothing here writes a perf record.
//!
//! Default output is pretty-printed JSON (machine-readable series);
//! `--summary` prints the headline numbers as text — the rows quoted in
//! EXPERIMENTS.md.

use std::process::ExitCode;

use spotweb_bench::fig6::Fig6bWorkload;
use spotweb_bench::{
    ablations, discussion, fig3, fig4, fig5, fig6, fig7, DEFAULT_SEED, THREE_WEEKS_HOURS,
};

#[derive(Clone)]
struct Args {
    command: String,
    seed: u64,
    intervals: usize,
    workload: Fig6bWorkload,
    scenario: Option<String>,
    /// `tournament` only: restrict the grid to one registered policy
    /// (hyphens/underscores interchangeable).
    policy: Option<String>,
    summary: bool,
    out: Option<String>,
    /// Worker threads for `sweep`/`tournament`; accepted (and a no-op)
    /// on the serial subcommands so scripts can pass it uniformly.
    jobs: usize,
    /// `soak` only: simulated hours (24 = a day; 168 = a week; smaller
    /// values are scaled probes).
    hours: usize,
    /// `bless` only: fixture names to regenerate (positional).
    fixtures: Vec<String>,
    /// `bless` only: bootstrap/extend the manifest from on-disk bytes.
    init: bool,
    /// `bless` only: history note recorded with each epoch bump.
    note: Option<String>,
    /// `bless` only: verify instead of regenerating.
    check: bool,
    /// `bless --check` only: the merge base's manifest, for the
    /// epoch-bump check over the positional (changed) fixtures.
    base_manifest: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let command = args.next().ok_or("missing command")?;
    let mut out = Args {
        command,
        seed: DEFAULT_SEED,
        intervals: THREE_WEEKS_HOURS,
        workload: Fig6bWorkload::Wikipedia,
        scenario: None,
        policy: None,
        summary: false,
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
            "--intervals" => {
                out.intervals = args
                    .next()
                    .ok_or("--intervals needs a value")?
                    .parse()
                    .map_err(|e| format!("bad intervals: {e}"))?;
            }
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
            "--summary" => out.summary = true,
            "--init" => out.init = true,
            "--note" => {
                out.note = Some(args.next().ok_or("--note needs a value")?);
            }
            "--check" => out.check = true,
            "--base-manifest" => {
                out.base_manifest = Some(args.next().ok_or("--base-manifest needs a file")?);
            }
            "--hours" => {
                out.hours = args
                    .next()
                    .ok_or("--hours needs a value")?
                    .parse()
                    .map_err(|e| format!("bad hours: {e}"))?;
                if out.hours == 0 {
                    return Err("--hours must be at least 1".into());
                }
            }
            "--out" => {
                out.out = Some(args.next().ok_or("--out needs a directory")?);
            }
            "--jobs" => {
                out.jobs = args
                    .next()
                    .ok_or("--jobs needs a value")?
                    .parse()
                    .map_err(|e| format!("bad jobs: {e}"))?;
                if out.jobs == 0 {
                    return Err("--jobs must be at least 1".into());
                }
            }
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

/// Nearest directory at or above `start` whose `Cargo.toml` declares a
/// `[workspace]` — the root `bless` resolves the golden directory from.
fn find_workspace_root(start: &std::path::Path) -> Option<&std::path::Path> {
    start.ancestors().find(|d| {
        std::fs::read_to_string(d.join("Cargo.toml")).is_ok_and(|t| t.contains("[workspace]"))
    })
}

fn emit<T: serde::Serialize>(value: &T, summary: Option<String>, want_summary: bool) {
    if want_summary {
        if let Some(s) = summary {
            println!("{s}");
            return;
        }
    }
    println!(
        "{}",
        serde_json::to_string_pretty(value).expect("figure results serialize")
    );
}

fn run(args: &Args) -> Result<(), String> {
    let seed = args.seed;
    match args.command.as_str() {
        "fig3" => {
            let f = fig3::run(args.intervals, seed);
            let s = format!(
                "Fig3  wikipedia: mean {:.0} rps, peak/mean {:.2}, spikes {}, diurnal-ac {:.2}\n\
                 Fig3  vod:       mean {:.0} rps, peak/mean {:.2}, spikes {}, diurnal-ac {:.2}",
                f.wikipedia.mean,
                f.wikipedia.peak_to_mean,
                f.wikipedia.large_jumps,
                f.wikipedia.diurnal_autocorrelation,
                f.vod.mean,
                f.vod.peak_to_mean,
                f.vod.large_jumps,
                f.vod.diurnal_autocorrelation
            );
            emit(&f, Some(s), args.summary);
        }
        "fig4a" => {
            let f = fig4::run_fig4a(seed);
            let s = format!(
                "Fig4a spotweb: drop {:.2}%, p90 {:.0} ms, migrated {}, lost {}\n\
                 Fig4a vanilla: drop {:.2}%, p90 {:.0} ms, migrated {}, lost {}",
                100.0 * f.spotweb.drop_fraction,
                1000.0 * f.spotweb.p90,
                f.spotweb.migrated_sessions,
                f.spotweb.lost_sessions,
                100.0 * f.vanilla.drop_fraction,
                1000.0 * f.vanilla.p90,
                f.vanilla.migrated_sessions,
                f.vanilla.lost_sessions
            );
            emit(&f, Some(s), args.summary);
        }
        "fig4bcd" => {
            let f = fig4::run_fig4bcd(seed);
            let s = format!(
                "Fig4c baseline: mean-over {:.1}%, max-over {:.1}%, max-under {:.1}%, under-frac {:.1}%\n\
                 Fig4d spotweb:  mean-over {:.1}%, max-over {:.1}%, max-under {:.1}%, under-frac {:.1}%",
                100.0 * f.baseline.mean_over,
                100.0 * f.baseline.max_over,
                100.0 * f.baseline.max_under,
                100.0 * f.baseline.under_fraction,
                100.0 * f.spotweb.mean_over,
                100.0 * f.spotweb.max_over,
                100.0 * f.spotweb.max_under,
                100.0 * f.spotweb.under_fraction
            );
            emit(&f, Some(s), args.summary);
        }
        "fig5" => {
            let f = fig5::run(args.intervals.min(120), seed);
            let s = format!(
                "Fig5  constant-portfolio cost ${:.2}, MPO cost ${:.2}, savings {:.1}%",
                f.constant_cost,
                f.mpo_cost,
                100.0 * (1.0 - f.mpo_cost / f.constant_cost)
            );
            emit(&f, Some(s), args.summary);
        }
        "fig6a" => {
            let f = fig6::run_fig6a(args.intervals, seed);
            let s = f
                .rows
                .iter()
                .map(|r| {
                    format!(
                        "Fig6a H={}: spotweb ${:.2} vs constant ${:.2} → savings {:.1}%",
                        r.horizon,
                        r.spotweb_cost,
                        r.constant_cost,
                        100.0 * r.savings
                    )
                })
                .collect::<Vec<_>>()
                .join("\n");
            emit(&f, Some(s), args.summary);
        }
        "fig6b" => {
            let f = fig6::run_fig6b(
                args.workload,
                &fig6::FIG6B_MARKETS,
                &fig6::FIG6B_HORIZONS,
                args.intervals,
                seed,
            );
            let s = f
                .cells
                .iter()
                .map(|c| {
                    format!(
                        "Fig6b {} markets, H={}: spotweb ${:.2} vs exosphere ${:.2} → savings {:.1}%",
                        c.markets,
                        c.horizon,
                        c.spotweb_cost,
                        c.exosphere_cost,
                        100.0 * c.savings
                    )
                })
                .collect::<Vec<_>>()
                .join("\n");
            emit(&f, Some(s), args.summary);
        }
        "fig7a" => {
            let f = fig7::run_fig7a(&[0.0, 0.05, 0.1, 0.2, 0.3], args.intervals, seed);
            let s = f
                .rows
                .iter()
                .map(|r| {
                    format!(
                        "Fig7a error ±{:.0}%: cost ${:.2} → savings {:.1}%",
                        100.0 * r.error_level,
                        r.spotweb_cost,
                        100.0 * r.savings
                    )
                })
                .collect::<Vec<_>>()
                .join("\n");
            emit(&f, Some(s), args.summary);
        }
        "fig7b" => {
            let f = fig7::run_fig7b(&[9, 18, 36, 72, 144], &[2, 4, 6, 10], 7, seed);
            let s = f
                .cells
                .iter()
                .map(|c| {
                    format!(
                        "Fig7b {} markets × H={} ({} vars): median {:.1} ms (min {:.1}, max {:.1})",
                        c.markets,
                        c.horizon,
                        c.variables,
                        1000.0 * c.median_secs,
                        1000.0 * c.min_secs,
                        1000.0 * c.max_secs
                    )
                })
                .collect::<Vec<_>>()
                .join("\n");
            emit(&f, Some(s), args.summary);
        }
        "ablations" => {
            let intervals = args.intervals.min(168);
            let results = vec![
                ablations::churn(&[0.0, 0.05, 0.2, 0.5], intervals, seed),
                ablations::alpha(&[0.0, 1.0, 5.0, 25.0, 100.0], intervals, seed),
                ablations::padding(intervals, seed),
                ablations::horizon(&[1, 2, 4, 8, 16], intervals, seed),
            ];
            let s = results
                .iter()
                .flat_map(|a| {
                    a.rows.iter().map(move |r| {
                        format!(
                            "Ablation {} = {:>6.2}: cost ${:.2}, drops {:.3}%, churn {:.2}, HHI {:.2}",
                            a.parameter,
                            r.value,
                            r.total_cost,
                            100.0 * r.drop_fraction,
                            r.mean_churn,
                            r.mean_hhi
                        )
                    })
                })
                .collect::<Vec<_>>()
                .join("\n");
            emit(&results, Some(s), args.summary);
        }
        "discussion" => {
            let d = discussion::run(args.intervals.min(168), seed);
            let s = d
                .rows
                .iter()
                .map(|r| {
                    format!(
                        "Discussion {:<18} spotweb ${:.2} | exosphere ${:.2} ({:+.1}%) | on-demand ${:.2} ({:+.1}%) | drops {:.3}%",
                        r.provider,
                        r.spotweb_cost,
                        r.exosphere_cost,
                        100.0 * r.savings_vs_exosphere,
                        r.on_demand_cost,
                        100.0 * r.savings_vs_on_demand,
                        100.0 * r.spotweb_drop_fraction
                    )
                })
                .collect::<Vec<_>>()
                .join("\n");
            emit(&d, Some(s), args.summary);
        }
        "chaos" => {
            use spotweb_sim::ChaosScenario;
            let names = spotweb_bench::cell::scenario_axis(args.scenario.as_deref())?;
            for (i, name) in names.iter().enumerate() {
                let mut scenario = ChaosScenario::named(name);
                scenario.seed = seed;
                let report = scenario.run();
                if args.summary {
                    println!(
                        "Chaos {:<26} drop {:>6.2}%, p90 {:>5.0} ms, migrated {}, \
                         faults {}, invariants {}",
                        report.scenario,
                        100.0 * report.drop_fraction,
                        1000.0 * report.p90,
                        report.migrated_sessions,
                        report.faults_fired,
                        if report.invariants_ok() {
                            "ok"
                        } else {
                            "VIOLATED"
                        }
                    );
                } else {
                    if i > 0 {
                        println!();
                    }
                    // ChaosReport serializes itself (byte-stable across
                    // runs) — the determinism tests diff this output.
                    println!("{}", report.to_json_pretty());
                }
            }
        }
        "trace" => {
            use spotweb_bench::telem;
            let name = args.scenario.as_deref().unwrap_or("revocation-storm");
            let traced = telem::run_trace(name, seed)?;
            match &args.out {
                Some(dir) => {
                    let dir = std::path::Path::new(dir);
                    std::fs::create_dir_all(dir)
                        .map_err(|e| format!("create {}: {e}", dir.display()))?;
                    let write = |file: &str, contents: String| {
                        let path = dir.join(file);
                        std::fs::write(&path, contents)
                            .map_err(|e| format!("write {}: {e}", path.display()))
                    };
                    write("trace.jsonl", traced.sink.export_jsonl())?;
                    write("metrics.prom", traced.sink.render_prometheus())?;
                    eprintln!(
                        "wrote trace.jsonl ({} events), metrics.prom to {}",
                        traced.sink.events().len(),
                        dir.display()
                    );
                }
                None => print!("{}", traced.sink.export_jsonl()),
            }
        }
        "report" => {
            use spotweb_bench::telem;
            let name = args.scenario.as_deref().unwrap_or("revocation-storm");
            let traced = telem::run_trace(name, seed)?;
            print!("{}", telem::render_report(&traced));
        }
        "sweep" => {
            use spotweb_bench::sweep;
            let output = sweep::run_command(args.jobs, args.scenario.as_deref(), seed)?;
            print!("{}", output.summary_lines);
            // Iteration counts, not timings: deterministic, but not
            // part of the per-run corpus stdout carries.
            let warm = sweep::warm_start_probe();
            eprintln!(
                "sweep: digest {} at --jobs {} matches --jobs 1; warm start saves {:.0}% of \
                 ADMM iterations ({:.1} vs {:.1} per solve, {} markets, H={})",
                output.digest,
                args.jobs,
                100.0 * warm.saved_fraction(),
                warm.warm_mean_iterations,
                warm.cold_mean_iterations,
                warm.markets,
                warm.horizon
            );
        }
        "tournament" => {
            use spotweb_bench::tournament;
            let output = tournament::run_command(
                args.jobs,
                args.policy.as_deref(),
                args.scenario.as_deref(),
            )?;
            print!("{}", output.table);
            let dir = std::path::Path::new(args.out.as_deref().unwrap_or("."));
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
            let board_path = dir.join("tournament_leaderboard.json");
            std::fs::write(&board_path, &output.leaderboard_json)
                .map_err(|e| format!("write {}: {e}", board_path.display()))?;
            eprintln!(
                "tournament: digest {} at --jobs {} matches --jobs 1; wrote {}",
                output.digest,
                args.jobs,
                board_path.display()
            );
        }
        "soak" => {
            use spotweb_bench::soak;
            let scenario = args.scenario.as_deref().unwrap_or("revocation-storm");
            let run = soak::run_hourly(scenario, seed, soak::SOAK_RPS, args.hours)?;
            // Deterministic summary on stdout; everything the host's
            // clock or allocator had a say in on stderr.
            println!("{}", run.summary.to_json());
            for h in &run.per_hour {
                eprintln!(
                    "soak: hour {:>3}: {} arrivals in {:.2} s = {:.0} req/wall-s",
                    h.hour,
                    h.arrivals,
                    h.wall_secs,
                    h.requests_per_wall_second()
                );
            }
            let peak = soak::peak_rss_bytes();
            if let Some(rss) = peak {
                eprintln!(
                    "soak: peak RSS {:.1} MiB (gate {:.1} MiB)",
                    rss as f64 / (1024.0 * 1024.0),
                    soak::MEM_GATE_BYTES as f64 / (1024.0 * 1024.0),
                );
            }
            soak::mem_gate(peak)?;
        }
        "bless" => {
            use spotweb_bench::bless;
            let cwd = std::env::current_dir().map_err(|e| format!("current dir: {e}"))?;
            let root = find_workspace_root(&cwd)
                .ok_or("no workspace Cargo.toml above the current directory")?;
            let log = if args.check {
                let base = args.base_manifest.as_deref().map(std::path::Path::new);
                bless::run_check(root, base, &args.fixtures)?
            } else {
                bless::run_bless(
                    root,
                    &bless::default_specs(),
                    &args.fixtures,
                    args.init,
                    args.note.as_deref().unwrap_or("blessed regeneration"),
                )?
            };
            // Human audit log on stderr (stdout stays reserved for
            // byte-stable artifacts across the whole binary).
            eprint!("{log}");
        }
        "all" => {
            for cmd in [
                "fig3",
                "fig4a",
                "fig4bcd",
                "fig5",
                "fig6a",
                "fig6b",
                "fig7a",
                "fig7b",
                "ablations",
                "discussion",
                "chaos",
            ] {
                let sub = Args {
                    command: cmd.to_string(),
                    out: None,
                    ..args.clone()
                };
                eprintln!("=== {cmd} ===");
                run(&sub)?;
            }
        }
        other => return Err(format!("unknown command {other}")),
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\nusage: figures <fig3|fig4a|fig4bcd|fig5|fig6a|fig6b|fig7a|fig7b|ablations|discussion|chaos|trace|report|sweep|tournament|soak|bless|all> [--seed N] [--intervals N] [--workload wikipedia|vod] [--scenario NAME] [--policy NAME] [--summary] [--out DIR] [--jobs J] [--hours N] [--init] [--note TEXT] [--check] [--base-manifest FILE] [FIXTURE...]");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
