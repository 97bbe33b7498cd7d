//! Regenerate every table and figure of the SpotWeb paper (§6); the
//! flags are `spotweb_bench::cli`'s.
//!
//! ```text
//! fig3        workload traces (Fig. 3a/3b)
//! fig4a       failover latency, SpotWeb vs vanilla LB (Fig. 4a)
//! fig4bcd     predictor error histograms (Fig. 4b–d)
//! fig5        price awareness: prices + allocations (Fig. 5a/5c/5d)
//! fig6a       vs constant portfolio + autoscaler (Fig. 6a)
//! fig6b       vs ExoSphere-in-a-loop, market sweep (Fig. 6b)
//! fig7a       savings vs prediction error (Fig. 7a)
//! fig7b       optimizer scalability (Fig. 7b)
//! ablations   churn γ / risk α / CI padding / horizon sweeps
//! discussion  §7 provider portability (EC2 / GCP / Azure profiles)
//! scorecard   every paper-vs-measured claim over eight seeds, as the
//!             markdown table tests/golden/scorecard.md holds
//! chaos       named fault-injection scenarios (--scenario for one)
//! trace       full-stack telemetry replay of a chaos scenario: trace
//!             JSONL, or trace.jsonl + metrics.prom under --out DIR
//! report      human-readable explanation of the same replay
//! sweep       policy × scenario × seed grid on --jobs J workers,
//!             checked byte-equal to a --jobs 1 pass
//! tournament  policy-zoo leaderboard over the full grid, checked the
//!             same way; writes tournament_leaderboard.json to --out
//! soak        --hours N of 20 krps through the full stack; per-hour
//!             req/wall-s and peak RSS on stderr, non-zero over the gate
//! bless       audited golden regeneration against MANIFEST.json
//!             (--init, FIXTURE..., --note; --check [--base-manifest])
//! ```
//!
//! The figure commands print pretty-printed JSON. How long anything
//! takes is `benchmark/run.sh`'s to say; nothing here writes a perf
//! record.

use std::process::ExitCode;

use std::path::Path;

use spotweb_bench::cli::{figure_output, parse_args, usage, write, Args};
use spotweb_bench::{bless, soak, sweep, telem, tournament};

/// Nearest directory at or above `start` whose `Cargo.toml` declares a
/// `[workspace]` — the root `bless` resolves the golden directory from.
fn find_workspace_root(start: &Path) -> Option<&Path> {
    start.ancestors().find(|d| {
        std::fs::read_to_string(d.join("Cargo.toml")).is_ok_and(|t| t.contains("[workspace]"))
    })
}

fn run(args: &Args) -> Result<(), String> {
    if let Some(output) = figure_output(args) {
        print!("{}", output?);
        return Ok(());
    }
    let seed = args.seed;
    match args.command.as_str() {
        "trace" => {
            let name = args.scenario.as_deref().unwrap_or("revocation-storm");
            let traced = telem::run_trace(name, seed)?;
            match &args.out {
                Some(dir) => {
                    let dir = Path::new(dir);
                    write(dir, "trace.jsonl", &traced.sink.export_jsonl())?;
                    write(dir, "metrics.prom", &traced.sink.render_prometheus())?;
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
            let name = args.scenario.as_deref().unwrap_or("revocation-storm");
            let traced = telem::run_trace(name, seed)?;
            print!("{}", telem::render_report(&traced));
        }
        "sweep" => {
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
            let output = tournament::run_command(
                args.jobs,
                args.policy.as_deref(),
                args.scenario.as_deref(),
            )?;
            print!("{}", output.table);
            let dir = Path::new(args.out.as_deref().unwrap_or("."));
            let board_path = write(dir, "tournament_leaderboard.json", &output.leaderboard_json)?;
            eprintln!(
                "tournament: digest {} at --jobs {} matches --jobs 1; wrote {}",
                output.digest,
                args.jobs,
                board_path.display()
            );
        }
        "soak" => {
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
            let cwd = std::env::current_dir().map_err(|e| format!("current dir: {e}"))?;
            let root = find_workspace_root(&cwd)
                .ok_or("no workspace Cargo.toml above the current directory")?;
            let log = if args.check {
                let base = args.base_manifest.as_deref().map(Path::new);
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
        other => return Err(format!("unknown command {other}")),
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
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
