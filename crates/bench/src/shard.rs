//! `figures shard`: the sharded-runner invariance gate and the
//! `BENCH_shard.json` performance record.
//!
//! Each entry replays one chaos scenario (the same fault plans as
//! `figures trace`/`figures perf`, via [`crate::telem::scenario_setup`])
//! through the full stack at every shard count on a doubling ladder
//! from 1 up to `--shards N`, and proves that the resulting
//! [`spotweb_sim::RunnerReport`] renders to **byte-identical** JSON (and FNV digest)
//! at every count. That equality is the whole point of the
//! counter-based arrival RNG (`sim::rng`): one run, any core count,
//! one answer.
//!
//! Determinism contract (same split as `BENCH_runner.json`):
//! everything a run *simulates* — the report JSON and its digest — is
//! a pure function of (scenario, seed) and goes to stdout as
//! byte-stable lines; wall-clock numbers are machine-dependent and
//! exit only through `BENCH_shard.json` and stderr.
//!
//! `BENCH_shard.json` layout:
//!
//! * `seed` — seed every entry ran with.
//! * `nproc` — host parallelism ([`spotweb_sim::nproc`]). On a 1-core
//!   box the byte-equality gate still proves invariance, but the
//!   wall-clock columns cannot show a speedup — consumers must check
//!   this field before reading `speedup_at_max`.
//! * `shard_counts` — the ladder (1, 2, 4, …, N).
//! * `scenarios[]` — per scenario: the shards-1 `digest` and one
//!   `runs[]` row per shard count with `wall_secs` and
//!   `matches_serial`.
//! * `speedup_at_max` — total shards-1 wall time over total
//!   max-shards wall time (meaningless when `nproc == 1`).
//! * `all_match` — the invariance verdict; the CLI exits non-zero
//!   when false.

use spotweb_market::{Catalog, CloudSim};
use spotweb_sim::{
    nproc, report_json, run_full_stack, runner::ReactiveCheapestPolicy, RunnerConfig,
};
use spotweb_telemetry::json::{fnv1a64_hex, json_f64, json_string};
use spotweb_telemetry::TelemetrySink;
use spotweb_workload::Trace;

use crate::telem::{normalize_scenario, scenario_setup, TRACE_SCENARIOS};

/// Offered load for the shard entries (req/s). High enough that the
/// arrival path — the part the shards parallelize — dominates.
pub const SHARD_RPS: f64 = 2000.0;

/// One (scenario, shard count) measurement.
#[derive(Debug, Clone)]
pub struct ShardRun {
    /// Shard count this row ran with.
    pub shards: usize,
    /// Wall-clock seconds (machine-dependent; quarantined to
    /// `BENCH_shard.json`).
    pub wall_secs: f64,
    /// Whether this row's report JSON was byte-identical to the
    /// shards-1 baseline.
    pub matches_serial: bool,
}

/// All measurements for one scenario.
#[derive(Debug, Clone)]
pub struct ShardScenario {
    /// Normalized scenario name.
    pub scenario: String,
    /// FNV digest of the shards-1 report JSON.
    pub digest: String,
    /// One row per ladder entry, ladder order.
    pub runs: Vec<ShardRun>,
}

/// Result of [`run_command`]: deterministic stdout body plus the
/// rendered `BENCH_shard.json`.
pub struct ShardOutput {
    /// Per-scenario digest lines (byte-stable) for stdout.
    pub summary_lines: String,
    /// The rendered `BENCH_shard.json` contents.
    pub bench_json: String,
    /// Whether every shard count reproduced the shards-1 bytes.
    pub all_match: bool,
    /// Shards-1 total wall time over max-shards total wall time.
    pub speedup_at_max: f64,
    /// Host parallelism recorded in the bench file.
    pub nproc: usize,
}

/// The doubling ladder 1, 2, 4, … capped at (and always including)
/// `max_shards`.
pub fn shard_ladder(max_shards: usize) -> Vec<usize> {
    let max = max_shards.max(1);
    let mut ladder = vec![1];
    let mut next = 2;
    while next < max {
        ladder.push(next);
        next *= 2;
    }
    if max > 1 {
        ladder.push(max);
    }
    ladder
}

/// Replay `scenario` through the full stack with the reactive policy
/// at [`SHARD_RPS`] and `shards` arrival shards, returning the
/// byte-stable report JSON and the wall-clock seconds the run took.
pub fn run_one(scenario: &str, seed: u64, shards: usize) -> Result<(String, f64), String> {
    let name = normalize_scenario(scenario);
    let catalog = Catalog::fig4_testbed();
    let Some(setup) = scenario_setup(&name, catalog.len()) else {
        return Err(format!(
            "unknown shard scenario {name:?}; known: {TRACE_SCENARIOS:?}"
        ));
    };
    let interval_secs = 300.0;
    let intervals = 4;
    let sink = TelemetrySink::enabled();
    let config = RunnerConfig {
        interval_secs,
        intervals,
        seed,
        shards,
        faults: Some(setup.plan),
        telemetry: sink.clone(),
        lb: spotweb_lb::LoadBalancerConfig {
            transiency_aware: setup.transiency_aware,
            ..spotweb_lb::LoadBalancerConfig::default()
        },
        ..RunnerConfig::default()
    };
    let mut cloud = CloudSim::new(catalog.clone(), seed, 100);
    cloud.warm_up(8);
    let trace = Trace::new(interval_secs, vec![SHARD_RPS; intervals + 2]);
    let mut policy = ReactiveCheapestPolicy {
        headroom: 1.3,
        capacities: catalog.markets().iter().map(|m| m.capacity_rps()).collect(),
    };
    let started = std::time::Instant::now();
    let report = run_full_stack(&mut policy, &mut cloud, &trace, &config);
    let wall_secs = started.elapsed().as_secs_f64();
    Ok((report_json(&report), wall_secs))
}

/// Execute the shard command: run every trace scenario at every ladder
/// shard count, gate byte equality against the shards-1 baseline, and
/// render both the stdout body and `BENCH_shard.json`.
pub fn run_command(seed: u64, max_shards: usize) -> Result<ShardOutput, String> {
    let ladder = shard_ladder(max_shards);
    let host_nproc = nproc();
    let mut scenarios = Vec::with_capacity(TRACE_SCENARIOS.len());
    let mut summary_lines = String::new();
    let mut all_match = true;
    let (mut serial_total, mut max_total) = (0.0_f64, 0.0_f64);
    for scenario in TRACE_SCENARIOS {
        let (baseline_json, baseline_wall) = run_one(scenario, seed, 1)?;
        let digest = report_digest_of_json(&baseline_json);
        let mut runs = vec![ShardRun {
            shards: 1,
            wall_secs: baseline_wall,
            matches_serial: true,
        }];
        serial_total += baseline_wall;
        for &shards in ladder.iter().skip(1) {
            let (json, wall_secs) = run_one(scenario, seed, shards)?;
            let matches_serial = json == baseline_json;
            all_match &= matches_serial;
            if shards == *ladder.last().expect("ladder is non-empty") {
                max_total += wall_secs;
            }
            runs.push(ShardRun {
                shards,
                wall_secs,
                matches_serial,
            });
        }
        if ladder.len() == 1 {
            max_total += baseline_wall;
        }
        summary_lines.push_str(&format!(
            "{{\"scenario\":{},\"seed\":{seed},\"digest\":{}}}\n",
            json_string(scenario),
            json_string(&digest),
        ));
        scenarios.push(ShardScenario {
            scenario: scenario.to_string(),
            digest,
            runs,
        });
    }
    let speedup_at_max = if max_total > 0.0 {
        serial_total / max_total
    } else {
        0.0
    };

    let mut entries = String::new();
    for (i, s) in scenarios.iter().enumerate() {
        if i > 0 {
            entries.push(',');
        }
        let mut runs_json = String::new();
        for (j, r) in s.runs.iter().enumerate() {
            if j > 0 {
                runs_json.push(',');
            }
            runs_json.push_str(&format!(
                "{{\"shards\":{},\"wall_secs\":{},\"matches_serial\":{}}}",
                r.shards,
                json_f64(r.wall_secs),
                r.matches_serial,
            ));
        }
        entries.push_str(&format!(
            "\n    {{\"scenario\":{},\"digest\":{},\"runs\":[{runs_json}]}}",
            json_string(&s.scenario),
            json_string(&s.digest),
        ));
    }
    let ladder_json: Vec<String> = ladder.iter().map(|s| s.to_string()).collect();
    let bench_json = format!(
        "{{\n  \"seed\": {seed},\n  \"nproc\": {host_nproc},\n  \
         \"shard_counts\": [{}],\n  \"scenarios\": [{entries}\n  ],\n  \
         \"speedup_at_max\": {},\n  \"all_match\": {all_match}\n}}\n",
        ladder_json.join(", "),
        json_f64(speedup_at_max),
    );

    Ok(ShardOutput {
        summary_lines,
        bench_json,
        all_match,
        speedup_at_max,
        nproc: host_nproc,
    })
}

/// FNV digest of an already-rendered report JSON line (the same digest
/// [`spotweb_sim::report_digest`] computes from the report itself).
fn report_digest_of_json(json: &str) -> String {
    fnv1a64_hex(format!("{json}\n").as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_doubles_and_includes_max() {
        assert_eq!(shard_ladder(1), vec![1]);
        assert_eq!(shard_ladder(2), vec![1, 2]);
        assert_eq!(shard_ladder(4), vec![1, 2, 4]);
        assert_eq!(shard_ladder(6), vec![1, 2, 4, 6]);
        assert_eq!(shard_ladder(0), vec![1]);
    }

    #[test]
    fn digest_of_json_matches_sim_report_digest() {
        use spotweb_sim::runner::ReactiveCheapestPolicy;
        let catalog = Catalog::fig4_testbed();
        let config = RunnerConfig {
            interval_secs: 60.0,
            intervals: 2,
            seed: 7,
            ..RunnerConfig::default()
        };
        let mut cloud = CloudSim::new(catalog.clone(), 7, 100);
        cloud.warm_up(8);
        let trace = Trace::new(60.0, vec![50.0; 4]);
        let mut policy = ReactiveCheapestPolicy {
            headroom: 1.3,
            capacities: catalog.markets().iter().map(|m| m.capacity_rps()).collect(),
        };
        let report = run_full_stack(&mut policy, &mut cloud, &trace, &config);
        assert_eq!(
            report_digest_of_json(&report_json(&report)),
            spotweb_sim::report_digest(&report)
        );
    }

    #[test]
    fn unknown_scenario_is_a_helpful_error() {
        let err = run_one("kernel-panic", 7, 2).unwrap_err();
        assert!(err.contains("known:"), "{err}");
    }
}
