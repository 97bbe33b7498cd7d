//! `spotweb-benchmark`: one workload per process, measured from
//! outside the layer crates through their public functions only.
//!
//! Untraced runs give the end-to-end metrics; `--traced` runs open a
//! `telemetry::prof` session around the same calls (plus isolated
//! drivers of single layers) and give the per-layer metrics. See
//! `benchmark/README.md` for why each workload exists and which layer
//! metric should move which end-to-end metric.

mod control_plane;
mod event_loops;
mod isolated;
mod ledger;
mod measure;
mod request_path;
mod solver_scaling;
mod spans;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use spotweb_sim::nproc;
use spotweb_telemetry::prof::MergedNode;

use ledger::{Better, Bound, Ledger};
use measure::{peak_rss_mib, quantile, timed, Fastest};

/// Timed repetitions that follow each set-up of an untraced run.
const REPS_PER_SETUP: usize = 2;
/// Set-ups per untraced run, whatever `--seconds` says.
const MIN_SETUPS: usize = 3;

/// The paper's own outcomes of one repetition. `None` where the
/// workload has no such outcome (the fluid evaluator has no latency,
/// the cluster scenarios have no prices).
pub struct SimOutcome {
    pub cost_usd: Option<f64>,
    pub drop_frac: f64,
    pub p99_s: Option<f64>,
}

/// What one repetition of a workload produced.
pub struct Outcome {
    /// Digest over every simulated output; equal across repetitions.
    pub digest: u64,
    /// Operations attempted: runs, decisions and solves.
    pub ops: u64,
    /// Operations that broke an invariant, lost a request, returned an
    /// unsolved or empty decision. Simulated drops are model output.
    pub failed: u64,
    /// Simulated requests served or dropped (0 when none simulated).
    pub requests: u64,
    /// CPU seconds of each part of the repetition, in the same order
    /// every time; together they cover the whole repetition. A part
    /// is as short as the layer crates' public functions allow: one
    /// runner interval, one decision, one solve, one scenario.
    pub parts: Vec<f64>,
    /// How many of the leading `parts` are control decisions.
    pub decisions: usize,
    pub sim: Option<SimOutcome>,
}

impl Outcome {
    pub fn total_secs(&self) -> f64 {
        self.parts.iter().sum()
    }
}

#[derive(Default)]
pub struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Count a repetition's operations; a repetition whose outputs
    /// differ from the reference repetition's is itself a failure.
    pub fn check(&mut self, outcome: &Outcome, reference: &Outcome) {
        self.attempted += outcome.ops;
        self.failed += outcome.failed + u64::from(outcome.digest != reference.digest);
    }
}

pub trait Workload {
    /// Build every input from the seed.
    fn setup(seed: u64) -> Self;

    /// One repetition: the workload's whole batch, untraced.
    fn rep(&self) -> Outcome;

    /// The traced run: about `seconds` of repetitions and probes under
    /// a `prof` session, recording the per-layer metrics. Returns the
    /// merged span tree.
    fn traced(
        &self,
        seconds: f64,
        reference: &Outcome,
        ledger: &mut Ledger,
        tally: &mut Tally,
    ) -> MergedNode;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: PathBuf,
    manifest: PathBuf,
}

const USAGE: &str = "usage: spotweb-benchmark --workload <request_path|control_plane|\
solver_scaling|event_loops> --seed <u64> --seconds <secs> [--traced] \
--out <dir> --manifest <BENCHMARK.json>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = false;
    let mut out = None;
    let mut manifest = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        if flag == "--traced" {
            traced = true;
            continue;
        }
        let value = argv
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}\n{USAGE}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("a u64"))?),
            "--seconds" => {
                let secs: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(secs > 0.0 && secs.is_finite()) {
                    return Err(bad("a positive number"));
                }
                seconds = Some(secs);
            }
            "--out" => out = Some(PathBuf::from(value)),
            "--manifest" => manifest = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    let need = |name: &str| format!("{name} is required\n{USAGE}");
    Ok(Args {
        workload: workload.ok_or_else(|| need("--workload"))?,
        seed: seed.ok_or_else(|| need("--seed"))?,
        seconds: seconds.ok_or_else(|| need("--seconds"))?,
        traced,
        out: out.ok_or_else(|| need("--out"))?,
        manifest: manifest.ok_or_else(|| need("--manifest"))?,
    })
}

/// The `(name, unit)` pairs `BENCHMARK.json` lists for this kind of
/// run: its `end_to_end` section untraced, `per_layer` traced.
fn listed_metrics(args: &Args) -> Result<Vec<(String, String)>, String> {
    let at = |e: &dyn std::fmt::Display| format!("{}: {e}", args.manifest.display());
    let text = std::fs::read_to_string(&args.manifest).map_err(|e| at(&e))?;
    let manifest = serde_json::from_str(&text).map_err(|e| at(&e))?;
    let section = if args.traced {
        "per_layer"
    } else {
        "end_to_end"
    };
    let entries = manifest[section]
        .as_array()
        .ok_or_else(|| at(&format!("no {section} list")))?;
    entries
        .iter()
        .map(
            |entry| match (entry["name"].as_str(), entry["unit"].as_str()) {
                (Some(name), Some(unit)) => Ok((name.to_string(), unit.to_string())),
                _ => Err(at(&format!("{section} entry without name and unit"))),
            },
        )
        .collect()
}

/// The one-line object the driver reads. A listed per-layer metric
/// this workload never touches reads 0: the layer did no work here.
fn contract_line(
    args: &Args,
    listed: &[(String, String)],
    ledger: &Ledger,
    tally: &Tally,
) -> Result<String, String> {
    let mut entries = Vec::with_capacity(listed.len());
    for (name, unit) in listed {
        let value = match ledger.get(name) {
            Some(m) if m.unit == unit => m.value,
            Some(m) => return Err(format!("{name}: measured in {}, listed in {unit}", m.unit)),
            None if args.traced => 0.0,
            None => return Err(format!("{name} is not measured by {}", args.workload)),
        };
        entries.push(format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        entries.join(",")
    ))
}

/// The untraced run: set-ups, each followed by timed repetitions, for
/// `--seconds`, recorded as the end-to-end metrics.
///
/// A set-up is everything before the first timed repetition: build the
/// inputs, then one repetition that fills caches. The first one of the
/// run becomes the reference every other repetition must reproduce.
/// Set-ups are spread over the whole run, not done up front, so that a
/// slow phase of the host cannot catch all of them.
fn end_to_end<W: Workload>(args: &Args, ledger: &mut Ledger, tally: &mut Tally) {
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(args.seconds);
    let mut reference: Option<Outcome> = None;
    let (mut setup_parts, mut setup_walls) = (Fastest::default(), Vec::new());
    let (mut rep_parts, mut rep_walls) = (Fastest::default(), Vec::new());
    // Out of time, checked before every repetition: a run overshoots
    // `--seconds` by less than one.
    let spent = |setups: usize| setups >= MIN_SETUPS && Instant::now() >= deadline;
    while !spent(setup_walls.len()) {
        let (workload, build_secs) = timed(|| W::setup(args.seed));
        let first = workload.rep();
        setup_parts.fold(std::iter::once(build_secs).chain(first.parts.iter().copied()));
        setup_walls.push(build_secs + first.total_secs());
        tally.check(&first, reference.as_ref().unwrap_or(&first));
        let reference = reference.get_or_insert(first);
        for _ in 0..REPS_PER_SETUP {
            if spent(setup_walls.len()) {
                break;
            }
            let outcome = workload.rep();
            tally.check(&outcome, reference);
            rep_walls.push(outcome.total_secs());
            rep_parts.fold(outcome.parts);
        }
    }
    let reference = reference.expect("at least one set-up ran");
    // How much of the run the host kept this process off the CPU: not a
    // property of the program, recorded so that a disturbed run shows.
    let on_cpu: f64 = setup_walls.iter().chain(&rep_walls).sum();
    ledger.layer(
        "host.off_cpu_frac",
        "frac",
        1.0 - on_cpu / started.elapsed().as_secs_f64(),
    );

    // Both timings are sums of per-part minima on the CPU clock (see
    // `Fastest`); the median and quartiles of the whole repetitions'
    // CPU times are stored beside them.
    ledger.end_to_end_timing("setup_s", "s", 0.25, setup_parts.sum(), &setup_walls);
    let wall = rep_parts.sum();
    ledger.end_to_end_timing("wall_s", "s", 0.10, wall, &rep_walls);
    ledger.end_to_end(
        "peak_rss_mib",
        "MiB",
        Better::Lower,
        Bound::Rel(0.05),
        peak_rss_mib(),
    );
    if reference.requests > 0 {
        ledger.end_to_end(
            "sim_req_per_s",
            "1/s",
            Better::Higher,
            Bound::Rel(0.10),
            reference.requests as f64 / wall,
        );
    }
    if reference.decisions > 0 {
        // Each decision's fastest time: the same decision is the same
        // work in every repetition.
        let mut decide_ms: Vec<f64> = rep_parts.parts()[..reference.decisions]
            .iter()
            .map(|secs| secs * 1e3)
            .collect();
        decide_ms.sort_by(f64::total_cmp);
        for (name, q, bound) in [("decide_ms_p50", 0.5, 0.10), ("decide_ms_p99", 0.99, 0.15)] {
            let value = quantile(&decide_ms, q);
            ledger.end_to_end(name, "ms", Better::Lower, Bound::Rel(bound), value);
        }
    }
    if let Some(sim) = &reference.sim {
        if let Some(cost) = sim.cost_usd {
            ledger.end_to_end_sim("sim_cost_usd", "usd", Bound::Rel(0.005), cost);
        }
        ledger.end_to_end_sim("sim_drop_frac", "frac", Bound::Abs(0.0005), sim.drop_frac);
        if let Some(p99) = sim.p99_s {
            ledger.end_to_end_sim("sim_p99_s", "s", Bound::Rel(0.02), p99);
        }
    }
    ledger.end_to_end(
        "failed_frac",
        "frac",
        Better::Lower,
        Bound::Abs(0.0),
        tally.failed as f64 / tally.attempted as f64,
    );
}

fn run<W: Workload>(args: &Args) -> Result<(), String> {
    // Before measuring: a manifest that cannot be read wastes the run.
    let listed = listed_metrics(args)?;
    let mut ledger = Ledger::default();
    let mut tally = Tally::default();

    let spans = if args.traced {
        let workload = W::setup(args.seed);
        let reference = workload.rep();
        tally.check(&reference, &reference);
        Some(workload.traced(args.seconds, &reference, &mut ledger, &mut tally))
    } else {
        end_to_end::<W>(args, &mut ledger, &mut tally);
        None
    };

    print!("{}", ledger.lines());
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let kind = if args.traced { "traced" } else { "untraced" };
    let write = |suffix: &str, body: String| {
        let path = args.out.join(format!("{}.{kind}.{suffix}", args.workload));
        std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))
    };
    write(
        "json",
        format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"traced\":{},\"seconds\":{},\"nproc\":{},\
             \"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}\n",
            args.workload,
            args.seed,
            args.traced,
            args.seconds,
            nproc(),
            tally.failed == 0,
            tally.attempted,
            tally.failed,
            ledger.json()
        ),
    )?;
    if let Some(tree) = spans {
        write("spans.json", tree.timed_json() + "\n")?;
    }
    println!("{}", contract_line(args, &listed, &ledger, &tally)?);
    Ok(())
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| match args.workload.as_str() {
        "request_path" => run::<request_path::RequestPath>(&args),
        "control_plane" => run::<control_plane::ControlPlane>(&args),
        "solver_scaling" => run::<solver_scaling::SolverScaling>(&args),
        "event_loops" => run::<event_loops::EventLoops>(&args),
        other => Err(format!("unknown workload {other:?}\n{USAGE}")),
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("spotweb-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
