//! `request_path`: the full stack at paper-scale traffic with a cheap
//! reactive policy, so the per-request path — `workload` draws,
//! `lb.route`, `sim` service queues and calendar, the `telemetry` fold
//! and `lb::MonitorWindow` — does nearly all the work and the solver
//! none.

use spotweb_market::{Catalog, CloudSim};
use spotweb_sim::runner::ReactiveCheapestPolicy;
use spotweb_sim::{
    nproc, report_digest, run_full_stack_observed, FaultKind, FaultPlan, RunnerConfig,
};
use spotweb_telemetry::prof::{self, MergedNode};
use spotweb_telemetry::{names, TelemetrySink};
use spotweb_workload::Trace;

use crate::isolated;
use crate::ledger::Ledger;
use crate::measure::{median, repeat_for, timed, timed_wall, Stopwatch};
use crate::spans::{find, lock_waits, total};
use crate::{Outcome, SimOutcome, Tally, Workload};

/// Offered Poisson rate (req/s): half the paper's 20 krps peak.
const RATE_RPS: f64 = 10_000.0;
/// Simulated time is compressed so that one interval is 160 000
/// arrivals and a tenth of a host second: the host disturbs this box
/// for minutes at a time, and only a part that short runs undisturbed
/// now and then (see `measure::Fastest`). Start-up, warm-up and the
/// revocation warning shrink with the interval, so the whole lifecycle
/// still happens inside a repetition.
const INTERVAL_SECS: f64 = 16.0;
const INTERVALS: usize = 2;
const STARTUP_SECS: f64 = 4.0;
const WARMUP_SECS: f64 = 5.0;
/// Every market is revoked at once; interval-scoped faults apply at the
/// head of their interval, so warnings go out at t = 0, the
/// replacements serve from t = 9 s and the old fleet dies at t = 12 s.
const REVOKE_AT_SECS: f64 = 8.0;
const WARNING_SECS: f64 = 12.0;
const HEADROOM: f64 = 1.3;
/// The market realization is part of the workload, not of the seed:
/// which market is cheapest sets the fleet size, and `lb.route` scans
/// the fleet, so a per-seed market would make each seed a different
/// amount of work. The seed drives arrivals and revocation sampling.
const MARKET_SEED: u64 = 1234;

pub struct RequestPath {
    seed: u64,
    catalog: Catalog,
    trace: Trace,
    plan: FaultPlan,
}

impl RequestPath {
    fn run(&self, telemetry: TelemetrySink, shards: usize) -> Outcome {
        let mut watch = Stopwatch::start();
        let config = RunnerConfig {
            interval_secs: INTERVAL_SECS,
            intervals: INTERVALS,
            startup_secs: STARTUP_SECS,
            warmup_secs: WARMUP_SECS,
            seed: self.seed,
            shards,
            faults: Some(self.plan.clone()),
            telemetry,
            ..RunnerConfig::default()
        };
        let mut cloud = CloudSim::new(self.catalog.clone(), MARKET_SEED, 100);
        cloud.warm_up(8);
        let mut policy = ReactiveCheapestPolicy {
            headroom: HEADROOM,
            capacities: self
                .catalog
                .markets()
                .iter()
                .map(|m| m.capacity_rps())
                .collect(),
        };
        // One part per interval, closed by the runner's interval hook,
        // and one for what the run does after the last interval.
        let mut arrivals = 0u64;
        let mut parts = Vec::with_capacity(INTERVALS + 1);
        let mut close_part = || parts.push(watch.lap());
        let report = run_full_stack_observed(
            &mut policy,
            &mut cloud,
            &self.trace,
            &config,
            &mut |_, n| {
                arrivals = n;
                close_part();
            },
        );
        close_part();
        let conserved = report.served as u64 + report.dropped == arrivals;
        let healthy = report.invariant_violations.is_empty()
            && conserved
            && report.fleet_sizes.iter().all(|&n| n > 0);
        let digest = u64::from_str_radix(&report_digest(&report), 16).expect("hex digest");
        Outcome {
            digest,
            ops: 1,
            failed: u64::from(!healthy),
            requests: arrivals,
            parts,
            decisions: 0,
            sim: Some(SimOutcome {
                cost_usd: Some(report.cost),
                drop_frac: report.drop_fraction,
                p99_s: Some(report.p99),
            }),
        }
    }
}

impl Workload for RequestPath {
    fn setup(seed: u64) -> Self {
        let catalog = Catalog::fig4_testbed();
        let plan = FaultPlan::new().at(
            REVOKE_AT_SECS,
            FaultKind::CorrelatedRevocation {
                markets: (0..catalog.len()).collect(),
                warning_secs: Some(WARNING_SECS),
            },
        );
        RequestPath {
            seed,
            catalog,
            trace: Trace::new(INTERVAL_SECS, vec![RATE_RPS; INTERVALS + 2]),
            plan,
        }
    }

    fn rep(&self) -> Outcome {
        self.run(TelemetrySink::enabled(), 1)
    }

    fn traced(
        &self,
        seconds: f64,
        reference: &Outcome,
        ledger: &mut Ledger,
        tally: &mut Tally,
    ) -> MergedNode {
        let mut check = |o: Outcome| tally.check(&o, reference);

        // Three untraced variants, interleaved so drift hits all alike.
        // Sharding spreads the run over threads: its gain is wall time.
        let (mut on, mut on_wall, mut off, mut sharded_wall) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        repeat_for(seconds * 0.5, 2, || {
            let ((outcome, cpu), wall) =
                timed_wall(|| timed(|| self.run(TelemetrySink::enabled(), 1)));
            on.push(cpu);
            on_wall.push(wall);
            check(outcome);
            let (outcome, cpu) = timed(|| self.run(TelemetrySink::disabled(), 1));
            off.push(cpu);
            check(outcome);
            let (outcome, wall) = timed_wall(|| self.run(TelemetrySink::enabled(), nproc()));
            sharded_wall.push(wall);
            check(outcome);
        });
        let untraced = median(&on);
        ledger.layer(
            "telemetry.on_overhead_frac",
            "frac",
            untraced / median(&off) - 1.0,
        );
        ledger.layer(
            "sim.shard.speedup_at_nproc",
            "x",
            median(&on_wall) / median(&sharded_wall),
        );

        let session = prof::begin();
        let traced = repeat_for(seconds * 0.3, 2, || {
            check(self.run(TelemetrySink::enabled(), 1))
        });
        isolated::run(self.seed, ledger);
        let tree = session.finish().merged();
        ledger.layer(
            "tracing.overhead_frac",
            "frac",
            median(&traced) / untraced - 1.0,
        );

        // The isolated drivers call `lb.route` too: read only the runs.
        let runs = find(&tree, names::SPAN_RUNNER_RUN);
        let reps = traced.len() as f64;
        let per_req_ns = |secs: f64| secs * 1e9 / (reference.requests as f64 * reps);
        ledger.layer(
            "sim.runner.arrival_loop_self_ns_per_req",
            "ns",
            per_req_ns(total(runs, names::SPAN_RUNNER_ARRIVAL_LOOP).self_secs),
        );
        ledger.layer(
            "lb.route_ns_per_req",
            "ns",
            per_req_ns(total(runs, names::SPAN_LB_ROUTE).total_secs),
        );
        for (metric, span) in [
            (
                "sim.runner.control_batch_ms_per_interval",
                names::SPAN_RUNNER_CONTROL_BATCH,
            ),
            (
                "sim.runner.billing_ms_per_interval",
                names::SPAN_RUNNER_BILLING,
            ),
            (
                "sim.runner.rollup_ms_per_interval",
                names::SPAN_RUNNER_ROLLUP,
            ),
            ("sim.runner.drain_ms_per_interval", names::SPAN_RUNNER_DRAIN),
        ] {
            let per_interval = total(runs, span).total_secs * 1e3 / (reps * INTERVALS as f64);
            ledger.layer(metric, "ms", per_interval);
        }
        let (waits, wait_secs) = lock_waits(runs);
        ledger.layer_exact(
            "telemetry.lock_waits_per_req",
            "count",
            waits as f64 / (reference.requests as f64 * reps),
        );
        ledger.layer(
            "telemetry.lock_wait_ns_per_req",
            "ns",
            per_req_ns(wait_secs),
        );
        tree
    }
}
