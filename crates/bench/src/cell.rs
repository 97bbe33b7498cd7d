//! The experiment cell: one (scenario, policy, seed) full-stack run.
//!
//! The paper's evaluation — and every full-stack command in this
//! crate (`trace`, `report`, `sweep`, `tournament`, `soak`, the
//! `profile_spans.json` generator) — is a grid of such cells. This
//! module is the only place that knows what a cell is made of: which
//! names exist and how they may be spelled, the Fig. 4 testbed catalog,
//! the seeded cloud and its warm-up, the flat offered-load trace, the
//! [`RunnerConfig`], the fault plan behind a scenario name, and which
//! policies are a [`spotweb_core::Policy`] behind a bridge and which
//! one is the runner's own baseline. Callers name a cell and get back
//! the runner's report plus the telemetry the whole stack wrote. A cell
//! runs serially on the calling thread; grids parallelize across
//! cells, through [`spotweb_sim::parallel_map`].

use spotweb_core::policy::{Policy, PolicyObservation};
use spotweb_core::{build_policy, normalize_policy_name, SpotWebConfig};
use spotweb_market::{Catalog, CloudSim, MarketHistory, DEFAULT_SHRINKAGE};
use spotweb_sim::runner::{FleetPolicy, ReactiveCheapestPolicy};
use spotweb_sim::sweep::RunSummary;
use spotweb_sim::{run_full_stack_observed, FaultKind, FaultPlan, RunnerConfig, RunnerReport};
use spotweb_telemetry::{names, TelemetrySink};
use spotweb_workload::Trace;

/// Scenario names a cell can replay: the `spotweb-sim` chaos names,
/// run here against the full stack instead of a fixed cluster.
pub const SCENARIOS: &[&str] = spotweb_sim::NAMED_SCENARIOS;

/// Policy names a cell can run: the factory-built zoo (SpotWeb
/// included) plus the runner's reactive baseline.
pub const POLICIES: &[&str] = &[
    "spotweb",
    "reactive",
    "exosphere",
    "index-tracking",
    "het-spot-groups",
    "randomized-market",
];

/// Resolve a name as typed on the command line against `known`. One
/// spelling rule for every name the CLI takes — core's policy-name
/// rule: trimmed, lowercased, underscores folded to hyphens — and one
/// error wording, which lists the registry.
fn resolve(kind: &str, raw: &str, known: &[&'static str]) -> Result<&'static str, String> {
    let canonical = normalize_policy_name(raw);
    known
        .iter()
        .copied()
        .find(|k| *k == canonical)
        .ok_or_else(|| format!("unknown {kind} '{raw}'; known: {}", known.join(", ")))
}

/// Resolve a (leniently spelled) scenario name against [`SCENARIOS`].
pub fn resolve_scenario(raw: &str) -> Result<&'static str, String> {
    resolve("scenario", raw, SCENARIOS)
}

/// Resolve a (leniently spelled) policy name against [`POLICIES`].
pub fn resolve_policy(raw: &str) -> Result<&'static str, String> {
    resolve("policy", raw, POLICIES)
}

/// The scenario axis of a grid: the one named, or all of [`SCENARIOS`].
pub fn scenario_axis(only: Option<&str>) -> Result<Vec<&'static str>, String> {
    match only {
        Some(raw) => Ok(vec![resolve_scenario(raw)?]),
        None => Ok(SCENARIOS.to_vec()),
    }
}

/// `figures chaos`: the [`spotweb_sim::ChaosScenario`] reports of the
/// scenario axis at `seed`, pretty JSON separated by blank lines.
pub fn chaos_reports(only: Option<&str>, seed: u64) -> Result<String, String> {
    let reports: Vec<String> = scenario_axis(only)?
        .iter()
        .map(|name| {
            let mut scenario = spotweb_sim::ChaosScenario::named(name);
            scenario.seed = seed;
            scenario.run().to_json_pretty()
        })
        .collect();
    Ok(reports.join("\n\n") + "\n")
}

/// One full-stack experiment. `scenario` and `policy` are canonical
/// names (from [`resolve_scenario`] / [`resolve_policy`], or literals
/// out of [`SCENARIOS`] / [`POLICIES`]); the rest is the run's shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    /// Canonical scenario name (one of [`SCENARIOS`]).
    pub scenario: &'static str,
    /// Canonical policy name (one of [`POLICIES`]).
    pub policy: &'static str,
    /// Seed of the cloud, the arrivals and the fault compilation.
    pub seed: u64,
    /// Offered Poisson rate (req/s), flat over the run.
    pub rps: f64,
    /// Length of one control interval (simulated seconds).
    pub interval_secs: f64,
    /// Control intervals simulated.
    pub intervals: usize,
}

/// What a cell produced: the runner's report and the telemetry store
/// the whole stack wrote into, next to the cell that was run.
pub struct CellRun {
    /// The cell that ran.
    pub cell: Cell,
    /// The runner's aggregate report.
    pub report: RunnerReport,
    /// Trace and metrics of the run.
    pub sink: TelemetrySink,
}

impl Cell {
    /// The shape `trace`, `sweep` and `tournament` share: 300 req/s
    /// over four 5-minute control intervals — long enough for the storm
    /// at t = 400 s to land mid-run with warmed replacements before the
    /// end, short enough that a double run stays cheap. Names are
    /// resolved leniently; unknown ones are the crate's one
    /// unknown-name error.
    pub fn trace_default(scenario: &str, policy: &str, seed: u64) -> Result<Cell, String> {
        Ok(Cell::shaped(
            resolve_scenario(scenario)?,
            resolve_policy(policy)?,
            seed,
        ))
    }

    /// The trace-default shape over canonical names.
    fn shaped(scenario: &'static str, policy: &'static str, seed: u64) -> Cell {
        Cell {
            scenario,
            policy,
            seed,
            rps: 300.0,
            interval_secs: 300.0,
            intervals: 4,
        }
    }

    /// Run the cell through the full stack — policy, market simulator,
    /// load balancer, request-level runner — with telemetry enabled.
    /// Everything the run touches is created here from the cell, so
    /// concurrent cells share nothing.
    pub fn run(&self) -> CellRun {
        self.run_observed(&mut |_, _| {})
    }

    /// [`run`](Self::run) with the runner's per-interval observation
    /// hook (`on_interval(interval, cumulative_arrivals)`); the hook is
    /// host-side only and cannot perturb the simulated run.
    pub fn run_observed(&self, on_interval: &mut dyn FnMut(usize, u64)) -> CellRun {
        let catalog = Catalog::fig4_testbed();
        let (plan, transiency_aware) =
            scenario_setup(self.scenario, catalog.len()).expect("cell names are canonical");
        let sink = TelemetrySink::enabled();
        let config = RunnerConfig {
            interval_secs: self.interval_secs,
            intervals: self.intervals,
            seed: self.seed,
            faults: Some(plan),
            telemetry: sink.clone(),
            lb: spotweb_lb::LoadBalancerConfig {
                transiency_aware,
                ..spotweb_lb::LoadBalancerConfig::default()
            },
            ..RunnerConfig::default()
        };
        let mut cloud = CloudSim::new(catalog.clone(), self.seed, 100);
        cloud.warm_up(8);
        let trace = Trace::new(self.interval_secs, vec![self.rps; self.intervals + 2]);
        let report = if self.policy == "reactive" {
            // The runner's built-in baseline is not a
            // `spotweb_core::Policy` — it stays outside the factory.
            let mut policy = ReactiveCheapestPolicy {
                headroom: 1.3,
                capacities: catalog.markets().iter().map(|m| m.capacity_rps()).collect(),
            };
            run_full_stack_observed(&mut policy, &mut cloud, &trace, &config, on_interval)
        } else {
            let policy = build_policy(
                self.policy,
                &SpotWebConfig {
                    interval_secs: self.interval_secs,
                    ..SpotWebConfig::default()
                },
                catalog.len(),
                self.seed,
                &sink,
            )
            .expect("cell names are canonical");
            let mut bridge = CorePolicyBridge { policy, catalog };
            run_full_stack_observed(&mut bridge, &mut cloud, &trace, &config, on_interval)
        };
        CellRun {
            cell: *self,
            report,
            sink,
        }
    }
}

impl CellRun {
    /// The deterministic per-run record: a pure function of the cell.
    pub fn summary(&self) -> RunSummary {
        let r = &self.report;
        RunSummary {
            policy: self.cell.policy.to_string(),
            scenario: self.cell.scenario.to_string(),
            seed: self.cell.seed,
            served: r.served as u64,
            dropped: r.dropped,
            drop_fraction: r.drop_fraction,
            p50: r.p50,
            p99: r.p99,
            cost: r.cost,
            revocations: u64::from(r.revocations),
            migrated_sessions: r.migrated_sessions,
            mpo_solves: self.sink.counter(names::MPO_SOLVES_TOTAL),
            admm_iterations: self.sink.counter(names::ADMM_ITERATIONS_TOTAL),
        }
    }
}

/// Every policy × scenario × seed, in that nesting order, each at the
/// [`Cell::trace_default`] shape. Names must be canonical.
pub fn grid(policies: &[&'static str], scenarios: &[&'static str], seeds: &[u64]) -> Vec<Cell> {
    let mut cells = Vec::with_capacity(policies.len() * scenarios.len() * seeds.len());
    for &policy in policies {
        for &scenario in scenarios {
            for &seed in seeds {
                cells.push(Cell::shaped(scenario, policy, seed));
            }
        }
    }
    cells
}

/// Adapter driving any [`spotweb_core::Policy`] from runner
/// observations — the same glue as the root crate's `PolicyBridge`,
/// duplicated here because `spotweb-bench` sits below the facade crate
/// in the dependency graph. Boxed so the factory-built zoo policies
/// and the MPO policy all ride the same bridge.
struct CorePolicyBridge {
    policy: Box<dyn Policy + Send>,
    catalog: Catalog,
}

impl FleetPolicy for CorePolicyBridge {
    fn decide_fleet(
        &mut self,
        interval: usize,
        observed_rps: f64,
        prices: &[f64],
        failure_probs: &[f64],
        history: &MarketHistory,
    ) -> Vec<u32> {
        let covariance = if history.len() >= 2 {
            history.correlation(DEFAULT_SHRINKAGE)
        } else {
            spotweb_linalg::Matrix::identity(self.catalog.len())
        };
        let obs = PolicyObservation {
            interval,
            current_workload: observed_rps,
            prices,
            failure_probs,
            covariance: &covariance,
            oracle: None,
        };
        self.policy.decide(&self.catalog, &obs)
    }
}

/// What a canonical scenario name compiles to on a `markets`-market
/// catalog: the fault timeline, and whether the balancer runs
/// transiency-aware. `None` for names outside [`SCENARIOS`].
fn scenario_setup(name: &str, markets: usize) -> Option<(FaultPlan, bool)> {
    // The MPO policy concentrates the fleet wherever it is cheapest,
    // so correlated storms hit every market to guarantee the serving
    // capacity is actually revoked.
    let storm = |warning_secs| FaultKind::CorrelatedRevocation {
        markets: (0..markets).collect(),
        warning_secs,
    };
    let plan = FaultPlan::new();
    Some(match name {
        "revocation-storm" => (plan.at(400.0, storm(None)), true),
        "revocation-storm-vanilla" => (plan.at(400.0, storm(None)), false),
        "zero-warning" => (plan.at(400.0, storm(Some(0.0))), true),
        "backend-flaps" => {
            let flap = |plan: FaultPlan, target| {
                plan.at(
                    400.0,
                    FaultKind::BackendFlap {
                        target,
                        down_secs: 60.0,
                    },
                )
            };
            ((0..markets).fold(plan, flap), true)
        }
        "slow-start-storm" => (
            plan.at(200.0, FaultKind::StartupDelay { extra_secs: 120.0 })
                .at(200.0, FaultKind::WarmupStall { extra_secs: 60.0 })
                .at(400.0, storm(None)),
            true,
        ),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{profile, soak, sweep, telem, tournament};

    /// A command's library entry point, reduced to "did the scenario
    /// name resolve".
    type EntryPoint = (&'static str, fn(&str) -> Result<(), String>);

    /// Every library entry point behind a command that takes
    /// `--scenario`.
    fn entry_points() -> Vec<EntryPoint> {
        vec![
            ("cell", |s| Cell::trace_default(s, "reactive", 7).map(drop)),
            ("sweep", |s| sweep::build_grid(Some(s), 7).map(drop)),
            ("tournament", |s| {
                tournament::build_tournament_grid(Some("reactive"), Some(s)).map(drop)
            }),
            // The entry points below run what they resolve: keep the
            // accepted spellings cheap (the soak at 1 req/s for an hour).
            ("soak", |s| soak::run_hourly(s, 7, 1.0, 1).map(drop)),
        ]
    }

    /// Entry points too heavy to run once per accepted spelling; they
    /// resolve through the same `Cell::trace_default`, so rejection
    /// (which happens before anything runs) is what is checked.
    fn heavy_entry_points() -> Vec<EntryPoint> {
        vec![
            ("trace/report", |s| telem::run_trace(s, 7).map(drop)),
            ("bless profile_spans", |s| {
                profile::runner_spans_golden_json(s, 7).map(drop)
            }),
            ("profile sweep phase", |s| {
                profile::sweep_phase("t", 1, Some(s), 7).map(drop)
            }),
        ]
    }

    #[test]
    fn one_name_rule_and_one_error_across_the_commands() {
        let accepted = [
            ("revocation-storm", "revocation-storm"),
            ("Revocation_Storm", "revocation-storm"),
            (" zero-warning", "zero-warning"),
            ("BACKEND_FLAPS ", "backend-flaps"),
            ("slow_start-storm", "slow-start-storm"),
            ("revocation_storm_vanilla", "revocation-storm-vanilla"),
        ];
        for (typed, canonical) in accepted {
            assert_eq!(resolve_scenario(typed), Ok(canonical));
            for (command, resolve) in entry_points() {
                assert_eq!(resolve(typed), Ok(()), "{command} rejects '{typed}'");
            }
        }
        for typed in ["kernel-panic", "", "revocation storm", "zero-warnings"] {
            let expected = format!(
                "unknown scenario '{typed}'; known: revocation-storm, \
                 revocation-storm-vanilla, zero-warning, backend-flaps, slow-start-storm"
            );
            for (command, resolve) in entry_points().into_iter().chain(heavy_entry_points()) {
                assert_eq!(resolve(typed), Err(expected.clone()), "{command}");
            }
        }
        // Policies go by the same rule and the same wording.
        assert_eq!(resolve_policy(" Index_Tracking"), Ok("index-tracking"));
        assert_eq!(
            Cell::trace_default("zero-warning", "alphago", 7),
            Err(format!(
                "unknown policy 'alphago'; known: {}",
                POLICIES.join(", ")
            ))
        );
    }
}
