//! `control_plane`: three weeks of hourly SpotWeb decisions through
//! the interval-level evaluator. Predictor refits, warm-started MPO
//! with factor reuse, covariance estimation and billing do all the
//! work; no request is simulated, so everything `request_path`
//! stresses is bypassed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use spotweb_core::evaluate::EvalOptions;
use spotweb_core::policy::{Policy, PolicyObservation};
use spotweb_core::{simulate_costs, SpotWebConfig, SpotWebPolicy};
use spotweb_market::{estimate_correlation, Catalog, CloudSim};
use spotweb_predict::{SeriesPredictor, SpotWebPredictor};
use spotweb_telemetry::prof::{self, MergedNode};
use spotweb_telemetry::{names, TelemetrySink, TraceEvent};
use spotweb_workload::{wikipedia_like, Trace};

use crate::ledger::Ledger;
use crate::measure::{median, repeat_for, timed, Digest, Stopwatch};
use crate::spans::total;
use crate::{Outcome, SimOutcome, Tally, Workload};

const MARKETS: usize = 36;
/// The paper's three weeks of hourly intervals.
const INTERVALS: usize = 504;
const HORIZON: usize = 4;
const MEAN_RPS: f64 = 20_000.0;

pub struct ControlPlane {
    catalog: Catalog,
    trace: Trace,
    options: EvalOptions,
}

/// Times every `decide`, and the evaluator's work between two of
/// them, from the harness side of the `Policy` trait.
struct TimedPolicy {
    inner: SpotWebPolicy,
    /// Lapped as each `decide` is entered and left.
    watch: Stopwatch,
    decide_secs: Vec<f64>,
    between_secs: Vec<f64>,
}

impl Policy for TimedPolicy {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decide(&mut self, catalog: &Catalog, obs: &PolicyObservation<'_>) -> Vec<u32> {
        self.between_secs.push(self.watch.lap());
        let fleet = self.inner.decide(catalog, obs);
        self.decide_secs.push(self.watch.lap());
        fleet
    }
}

/// CPU nanoseconds spent inside the workload predictor.
#[derive(Default)]
struct PredictorClock {
    observe_ns: AtomicU64,
    predict_ns: AtomicU64,
}

/// The deployable predictor behind a timing `SeriesPredictor`.
struct TimedPredictor {
    inner: SpotWebPredictor,
    clock: Arc<PredictorClock>,
}

impl SeriesPredictor for TimedPredictor {
    fn observe(&mut self, value: f64) {
        let mut watch = Stopwatch::start();
        self.inner.observe(value);
        let ns = (watch.lap() * 1e9) as u64;
        self.clock.observe_ns.fetch_add(ns, Ordering::Relaxed);
    }

    fn set_telemetry(&mut self, sink: TelemetrySink) {
        self.inner.set_telemetry(sink);
    }

    fn predict(&self, horizon: usize) -> Vec<f64> {
        let mut watch = Stopwatch::start();
        let forecast = self.inner.predict(horizon);
        let ns = (watch.lap() * 1e9) as u64;
        self.clock.predict_ns.fetch_add(ns, Ordering::Relaxed);
        forecast
    }

    fn observations(&self) -> usize {
        self.inner.observations()
    }
}

impl ControlPlane {
    fn run(&self, sink: TelemetrySink, clock: Option<Arc<PredictorClock>>) -> Outcome {
        let watch = Stopwatch::start();
        let config = SpotWebConfig::default().with_horizon(HORIZON);
        let inner = match clock {
            Some(clock) => {
                let predictor = TimedPredictor {
                    inner: SpotWebPredictor::new(),
                    clock,
                };
                SpotWebPolicy::with_predictor(config, MARKETS, Box::new(predictor))
            }
            None => SpotWebPolicy::new(config, MARKETS),
        };
        let mut policy = TimedPolicy {
            inner: inner.with_telemetry(sink),
            watch,
            decide_secs: Vec::with_capacity(INTERVALS),
            between_secs: Vec::with_capacity(INTERVALS + 1),
        };
        let report = simulate_costs(&mut policy, &self.catalog, &self.trace, &self.options);
        policy.between_secs.push(policy.watch.lap());
        // The decisions first, then the evaluator's stretches around them.
        let decisions = policy.decide_secs.len();
        let mut parts = policy.decide_secs;
        parts.append(&mut policy.between_secs);

        let mut digest = Digest::new();
        let mut empty_fleets = 0;
        for record in &report.records {
            for &servers in &record.fleet {
                digest.u64(u64::from(servers));
            }
            digest.f64(record.provisioning_cost);
            digest.f64(record.penalty_cost);
            digest.f64(record.dropped_requests);
            empty_fleets += u64::from(record.fleet.iter().all(|&n| n == 0));
        }
        Outcome {
            digest: digest.finish(),
            ops: 1 + report.records.len() as u64,
            failed: empty_fleets + u64::from(report.records.len() != INTERVALS),
            requests: 0,
            parts,
            decisions,
            sim: Some(SimOutcome {
                cost_usd: Some(report.total_cost()),
                drop_frac: report.drop_fraction(),
                p99_s: None,
            }),
        }
    }
}

impl Workload for ControlPlane {
    fn setup(seed: u64) -> Self {
        ControlPlane {
            catalog: Catalog::ec2_subset(MARKETS),
            trace: wikipedia_like(INTERVALS + 16, seed).with_mean(MEAN_RPS),
            options: EvalOptions {
                intervals: INTERVALS,
                seed,
                revocations: true,
                ..EvalOptions::default()
            },
        }
    }

    fn rep(&self) -> Outcome {
        self.run(TelemetrySink::disabled(), None)
    }

    fn traced(
        &self,
        seconds: f64,
        reference: &Outcome,
        ledger: &mut Ledger,
        tally: &mut Tally,
    ) -> MergedNode {
        // Decision records on vs off, interleaved, tracing off.
        let (mut off, mut on) = (Vec::new(), Vec::new());
        repeat_for(seconds * 0.4, 2, || {
            for (walls, sink) in [
                (&mut off, TelemetrySink::disabled()),
                (&mut on, TelemetrySink::enabled()),
            ] {
                let (outcome, wall) = timed(|| self.run(sink, None));
                walls.push(wall);
                tally.check(&outcome, reference);
            }
        });
        ledger.layer(
            "telemetry.decision_record_overhead_frac",
            "frac",
            median(&on) / median(&off) - 1.0,
        );

        let session = prof::begin();
        let clock = Arc::new(PredictorClock::default());
        let mut decide_secs = 0.0;
        let mut last_sink = TelemetrySink::disabled();
        let walls = repeat_for(seconds * 0.4, 2, || {
            let _span = prof::ScopeGuard::enter("bench.control_plane.simulate_costs");
            last_sink = TelemetrySink::enabled();
            let outcome = self.run(last_sink.clone(), Some(clock.clone()));
            decide_secs += outcome.parts[..outcome.decisions].iter().sum::<f64>();
            tally.check(&outcome, reference);
        });
        let decisions = (walls.len() * INTERVALS) as f64;
        let per_decision_ms = |secs: f64| secs * 1e3 / decisions;

        let decide_ms = per_decision_ms(decide_secs);
        let observe_ms = per_decision_ms(clock.observe_ns.load(Ordering::Relaxed) as f64 / 1e9);
        let predict_ms = per_decision_ms(clock.predict_ns.load(Ordering::Relaxed) as f64 / 1e9);
        ledger.layer("core.policy.decide_ms_mean", "ms", decide_ms);
        ledger.layer("predict.workload.observe_ms", "ms", observe_ms);
        ledger.layer("predict.workload.predict_ms", "ms", predict_ms);
        ledger.layer(
            "core.evaluate.other_ms_per_interval",
            "ms",
            per_decision_ms(walls.iter().sum::<f64>() - decide_secs),
        );

        // Counters of the last repetition; every repetition's agree.
        let solves = last_sink.counter(names::MPO_SOLVES_TOTAL) as f64;
        let per_solve = |counter: &str| last_sink.counter(counter) as f64 / solves;
        ledger.layer_exact(
            "solver.admm.iters_per_solve",
            "count",
            per_solve(names::ADMM_ITERATIONS_TOTAL),
        );
        ledger.layer_exact(
            "core.mpo.warm_start_frac",
            "frac",
            per_solve(names::MPO_WARM_SOLVES_TOTAL),
        );
        ledger.layer_exact(
            "core.mpo.factor_reuse_frac",
            "frac",
            per_solve(names::MPO_FACTOR_REUSE_TOTAL),
        );
        let unsolved = last_sink
            .events()
            .iter()
            .filter(|e| matches!(&e.event, TraceEvent::Decision(d) if !d.solved))
            .count();
        tally.failed += unsolved as u64;
        ledger.layer_exact(
            "core.mpo.unsolved_frac",
            "frac",
            unsolved as f64 / INTERVALS as f64,
        );

        self.market_probes(seconds * 0.1, ledger);
        let tree = session.finish().merged();
        let solve_ms = total(&tree, names::SPAN_MPO_SOLVE).ms_per_call();
        ledger.layer("core.mpo.solve_ms", "ms", solve_ms);
        ledger.layer(
            "core.policy.decide_other_ms",
            "ms",
            decide_ms - observe_ms - predict_ms - solve_ms,
        );
        tree
    }
}

impl ControlPlane {
    /// The two market-side costs `simulate_costs` pays every interval,
    /// driven alone over the same 36-market history.
    fn market_probes(&self, seconds: f64, ledger: &mut Ledger) {
        let mut cloud: CloudSim =
            self.options
                .provider
                .cloud(self.catalog.clone(), self.options.seed, 24 * 60);
        cloud.warm_up(self.options.cloud_warmup);
        let steps = {
            let _span = prof::ScopeGuard::enter("bench.market.cloud.step");
            repeat_for(seconds * 0.5, 100, || {
                std::hint::black_box(cloud.step());
            })
        };
        ledger.layer("market.cloud.step_ms", "ms", median(&steps) * 1e3);
        let history = cloud.history().failure_matrix();
        let estimates = {
            let _span = prof::ScopeGuard::enter("bench.market.covariance.estimate");
            repeat_for(seconds * 0.5, 20, || {
                std::hint::black_box(estimate_correlation(std::hint::black_box(&history), 0.1));
            })
        };
        ledger.layer(
            "market.covariance.estimate_ms",
            "ms",
            median(&estimates) * 1e3,
        );
    }
}
