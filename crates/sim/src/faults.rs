//! Deterministic fault injection — the chaos harness.
//!
//! A [`FaultPlan`] scripts *what goes wrong and when*: correlated
//! multi-market revocations (with per-fault warning overrides, down to
//! zero warning), single-backend flaps, price-spike regimes, and
//! delayed startup / cache-warmup stalls for replacement servers.
//! Plans mix timed faults with probabilistic ones;
//! [`FaultPlan::compile`] expands both into one deterministic,
//! time-sorted timeline from a seed, so the same `(plan, seed)` always
//! replays the same failure history.
//!
//! [`ChaosScenario`] runs a compiled plan as the exact-time scheduler
//! over [`crate::cluster::Cluster`], while
//! [`crate::runner::run_full_stack`] accepts a plan through
//! [`crate::runner::RunnerConfig`] for interval-granular injections
//! (price shocks need a live market). Both paths drive the cluster's
//! [`InvariantChecker`] every tick: requests are conserved
//! (`arrived = served + dropped + in-flight`), no request is ever
//! routed to a `Down` backend, and drain deadlines are honored. The
//! chaos loop also reconciles the report it returns against that
//! ledger ([`InvariantChecker::check_reported`]).

use spotweb_lb::{BackendState, LoadBalancer, LoadBalancerConfig};
use spotweb_telemetry::json::{json_f64, json_string};
use spotweb_telemetry::TelemetrySink;
use spotweb_workload::rng::{stream_id, CounterStream, DOMAIN_FAULT_COIN, DOMAIN_SCENARIO_GAP};

use crate::cluster::{Cluster, SERVICE_SECS};
use crate::engine::{Event, EventQueue};
use crate::metrics::{BucketStats, LatencyRecorder};
use crate::scenario::{fig4a_cluster, ServerSpec};

// The Fig. 4(a) testbed's timings, shared by every scenario.
/// Revocation warning (s) unless a fault gives its own.
const WARNING_SECS: f64 = 120.0;
/// Replacement VM startup time (s).
const STARTUP_SECS: f64 = 55.0;
/// Cache warm-up window after startup (s).
const WARMUP_SECS: f64 = 60.0;
/// Metrics bucket width (s).
const BUCKET_SECS: f64 = 60.0;

/// One kind of injected failure.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// Revoke every serving (or booting) server in the listed markets
    /// at once — the paper's correlated capacity-loss event.
    /// `warning_secs` overrides the scenario's default warning window
    /// for this event only; `Some(0.0)` models a no-warning kill.
    CorrelatedRevocation {
        /// Markets whose servers are revoked.
        markets: Vec<usize>,
        /// Per-event warning override (`None` = scenario default).
        warning_secs: Option<f64>,
    },
    /// One backend falls out of the cluster for `down_secs` (crash,
    /// network partition, wedged health check), then returns cold.
    /// In [`ChaosScenario`] `target` is a backend id; in
    /// [`crate::runner::run_full_stack`] it is a market index (the
    /// first alive server of that market flaps).
    BackendFlap {
        /// Backend id (cluster scenarios) or market id (full stack).
        target: usize,
        /// Outage length in seconds.
        down_secs: f64,
    },
    /// Spot prices in `market` (all spot markets when `None`) jump by
    /// `multiplier` and the surge regime is pinned for
    /// `hold_intervals` market steps. Only meaningful in full-stack
    /// runs, where a live [`spotweb_market::CloudSim`] quotes prices;
    /// [`ChaosScenario`] ignores it (its cluster has no market).
    PriceShock {
        /// Shocked market (`None` = every spot market).
        market: Option<usize>,
        /// Price multiplier (> 1 spikes, < 1 crashes).
        multiplier: f64,
        /// Market steps the injected regime is pinned for.
        hold_intervals: u32,
    },
    /// From this point on, newly provisioned servers take `extra_secs`
    /// longer to boot (capacity crunch at the provider).
    StartupDelay {
        /// Additional boot time in seconds.
        extra_secs: f64,
    },
    /// From this point on, newly provisioned servers take `extra_secs`
    /// longer to warm their caches (cold upstream data tier).
    WarmupStall {
        /// Additional warm-up time in seconds.
        extra_secs: f64,
    },
}

/// A fault that fires at a known time.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// When the fault fires (seconds into the run).
    pub at_secs: f64,
    /// What goes wrong.
    pub kind: FaultKind,
}

/// A fault that *may* fire: a Bernoulli coin is tossed every
/// `every_secs` across the run; each success schedules one copy of
/// `kind` at that toss time. [`FaultPlan::compile`] resolves the coins
/// deterministically from the seed.
#[derive(Debug, Clone, PartialEq)]
pub struct RandomFault {
    /// Per-toss firing probability.
    pub probability: f64,
    /// Toss spacing in seconds.
    pub every_secs: f64,
    /// The fault template scheduled on success.
    pub kind: FaultKind,
}

/// A scriptable fault plan: timed plus probabilistic injections.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Faults with fixed firing times.
    pub timed: Vec<FaultSpec>,
    /// Faults fired by seeded Bernoulli coins.
    pub random: Vec<RandomFault>,
}

impl FaultPlan {
    /// An empty plan (nothing goes wrong).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Builder: add a fault firing at `at_secs`.
    pub fn at(mut self, at_secs: f64, kind: FaultKind) -> Self {
        assert!(at_secs.is_finite() && at_secs >= 0.0);
        self.timed.push(FaultSpec { at_secs, kind });
        self
    }

    /// Builder: add a probabilistic fault (see [`RandomFault`]).
    pub fn random(mut self, probability: f64, every_secs: f64, kind: FaultKind) -> Self {
        assert!((0.0..=1.0).contains(&probability), "probability in [0,1]");
        assert!(every_secs > 0.0 && every_secs.is_finite());
        self.random.push(RandomFault {
            probability,
            every_secs,
            kind,
        });
        self
    }

    /// `true` when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.timed.is_empty() && self.random.is_empty()
    }

    /// Expand the plan into a deterministic timeline over
    /// `[0, duration_secs)`: timed faults verbatim, plus one resolved
    /// coin toss per window for each probabilistic fault, all drawn
    /// from dedicated counter-RNG streams of `seed` (one stream per
    /// probabilistic fault, counter = firing-window ordinal — see
    /// `spotweb_workload::rng`). The result is sorted by firing time
    /// (stable — ties keep declaration order), so the same
    /// `(plan, seed, duration)` always yields the same failures.
    pub fn compile(&self, seed: u64, duration_secs: f64) -> Vec<FaultSpec> {
        let mut timeline: Vec<FaultSpec> = self
            .timed
            .iter()
            .filter(|f| f.at_secs < duration_secs)
            .cloned()
            .collect();
        // Dedicated sub-streams: the fault coins never perturb the
        // arrival process draws (same seed, disjoint stream domain).
        for (rf_index, rf) in self.random.iter().enumerate() {
            let coins = CounterStream::new(seed, stream_id(DOMAIN_FAULT_COIN, rf_index as u64));
            let mut t = rf.every_secs;
            let mut window: u64 = 0;
            while t < duration_secs {
                if coins.unit_f64_at(window) < rf.probability {
                    timeline.push(FaultSpec {
                        at_secs: t,
                        kind: rf.kind.clone(),
                    });
                }
                t += rf.every_secs;
                window += 1;
            }
        }
        timeline.sort_by(|a, b| {
            a.at_secs
                .partial_cmp(&b.at_secs)
                .expect("finite fault times")
        });
        timeline
    }
}

/// Cap on recorded violation messages (counts keep accumulating).
const MAX_RECORDED_VIOLATIONS: usize = 16;

/// Checks the simulator's conservation and routing-safety laws.
///
/// The harness reports every request event to the checker, which keeps
/// its own ledger independent of the balancer's counters:
///
/// * **conservation** — `arrived = served + dropped + in-flight` at
///   every tick, with `in-flight = 0` once the run drains;
/// * **ledger agreement** — the balancer's own `routed + dropped`
///   stats must match the arrivals the harness fed it;
/// * **routing safety** — no request is ever routed to a `Down`
///   backend, to a draining backend at/past its drain deadline, or to
///   a booting backend before it is ready;
/// * **report agreement** — the served / dropped totals a run reports
///   are the ledger's (checked once, at the end of the run).
#[derive(Debug, Clone, Default)]
pub struct InvariantChecker {
    /// Requests that entered the system.
    pub arrived: u64,
    /// Requests served to completion.
    pub served: u64,
    /// Requests dropped (at admission or killed in flight).
    pub dropped: u64,
    in_flight: i64,
    violation_count: u64,
    violations: Vec<String>,
}

impl InvariantChecker {
    /// A fresh checker.
    pub fn new() -> Self {
        InvariantChecker::default()
    }

    fn violate(&mut self, msg: String) {
        self.violation_count += 1;
        if self.violations.len() < MAX_RECORDED_VIOLATIONS {
            self.violations.push(msg);
        }
    }

    /// A request arrived at the balancer.
    pub fn on_arrival(&mut self) {
        self.arrived += 1;
    }

    /// A request was routed to `backend`; validates routing safety
    /// against the backend's current state.
    pub fn on_route(&mut self, lb: &LoadBalancer, backend: usize, now: f64) {
        self.in_flight += 1;
        let Some(b) = lb.backend(backend) else {
            // A retired backend is deader than Down: routing to it is
            // impossible by construction, so treat it as the same
            // violation if it ever happens.
            self.violate(format!("t={now:.3}: routed to retired backend {backend}"));
            return;
        };
        match b.state {
            BackendState::Down => {
                self.violate(format!("t={now:.3}: routed to down backend {backend}"));
            }
            BackendState::Draining { deadline } if now >= deadline => {
                self.violate(format!(
                    "t={now:.3}: routed to backend {backend} past drain deadline {deadline:.3}"
                ));
            }
            BackendState::Starting { ready_at } if now < ready_at => {
                self.violate(format!(
                    "t={now:.3}: routed to backend {backend} before ready_at {ready_at:.3}"
                ));
            }
            _ => {}
        }
    }

    /// A routed request completed successfully.
    pub fn on_served(&mut self) {
        self.served += 1;
        self.in_flight -= 1;
    }

    /// A request was rejected at admission (never routed).
    pub fn on_dropped_at_admission(&mut self) {
        self.dropped += 1;
    }

    /// A routed request died in flight (its server was killed).
    pub fn on_dropped_in_flight(&mut self) {
        self.dropped += 1;
        self.in_flight -= 1;
    }

    /// Run the per-tick checks: ledger conservation and agreement with
    /// the balancer's counters.
    pub fn check_tick(&mut self, lb: &LoadBalancer, now: f64) {
        if self.in_flight < 0 {
            self.violate(format!("t={now:.3}: negative in-flight {}", self.in_flight));
        }
        let accounted = self.served + self.dropped + self.in_flight.max(0) as u64;
        if self.arrived != accounted {
            self.violate(format!(
                "t={now:.3}: conservation broken: arrived {} != served {} + dropped {} + in-flight {}",
                self.arrived, self.served, self.dropped, self.in_flight
            ));
        }
        let stats = lb.stats();
        if stats.routed + stats.dropped != self.arrived {
            self.violate(format!(
                "t={now:.3}: balancer ledger disagrees: routed {} + dropped {} != arrived {}",
                stats.routed, stats.dropped, self.arrived
            ));
        }
    }

    /// Final check once the event queue drains: nothing may remain in
    /// flight.
    pub fn check_drained(&mut self) {
        if self.in_flight != 0 {
            self.violate(format!(
                "run drained with {} requests still in flight",
                self.in_flight
            ));
        }
    }

    /// Final check against what the run is about to report: the
    /// recorder's totals must be the ledger's. The recorder discards
    /// samples outside its `[0, horizon)` silently, so a request the
    /// checker saw served or dropped can still be missing from the
    /// report; `check_tick` cannot see that, this does.
    pub fn check_reported(&mut self, served: u64, dropped: u64) {
        if (served, dropped) != (self.served, self.dropped) {
            self.violate(format!(
                "report disagrees with the ledger: served {served} / dropped {dropped} reported, \
                 {} / {} accounted",
                self.served, self.dropped
            ));
        }
    }

    /// Recorded violation messages (capped; see
    /// [`InvariantChecker::violation_count`]).
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// Total violations observed, including ones past the message cap.
    pub fn violation_count(&self) -> u64 {
        self.violation_count
    }

    /// `true` when every invariant held.
    pub fn ok(&self) -> bool {
        self.violation_count == 0
    }
}

/// When replacements for lost servers are provisioned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Replacement {
    /// At the revocation warning (the transiency-aware reaction).
    OnWarning,
    /// Once the server actually dies (vanilla health-check reaction).
    OnDeath,
    /// Never — lost capacity stays lost.
    None,
}

/// A fault-scripted cluster scenario: the exact-time event loop over
/// [`Cluster`], driven by a [`FaultPlan`] and audited by an
/// [`InvariantChecker`]. The defaults are the Fig. 4(a) testbed.
#[derive(Debug, Clone)]
pub struct ChaosScenario {
    /// Scenario label (propagated into the report / JSON).
    pub name: String,
    /// Initial cluster.
    pub servers: Vec<ServerSpec>,
    /// Poisson arrival rate (req/s).
    pub arrival_rps: f64,
    /// Total simulated time (seconds).
    pub duration_secs: f64,
    /// Transiency-aware (SpotWeb) or vanilla balancer.
    pub transiency_aware: bool,
    /// Replacement provisioning policy.
    pub replacement: Replacement,
    /// Distinct concurrent user sessions.
    pub sessions: u64,
    /// RNG seed (arrival process and fault coins).
    pub seed: u64,
    /// What goes wrong.
    pub plan: FaultPlan,
    /// Telemetry sink threaded through the balancer and event queue
    /// (disabled by default). An enabled sink records fault
    /// injections, drains, deaths, restores, and replacement
    /// provisioning into one byte-stable trace.
    pub telemetry: TelemetrySink,
}

impl Default for ChaosScenario {
    fn default() -> Self {
        ChaosScenario {
            name: "custom".to_string(),
            servers: fig4a_cluster(),
            arrival_rps: 600.0,
            duration_secs: 660.0,
            transiency_aware: true,
            replacement: Replacement::OnWarning,
            sessions: 2000,
            seed: 42,
            plan: FaultPlan::new(),
            telemetry: TelemetrySink::disabled(),
        }
    }
}

/// Named scenarios replayed by `figures chaos` and the regression
/// tests. See [`ChaosScenario::named`].
pub const NAMED_SCENARIOS: &[&str] = &[
    "revocation-storm",
    "revocation-storm-vanilla",
    "zero-warning",
    "backend-flaps",
    "slow-start-storm",
];

impl ChaosScenario {
    /// One of the [`NAMED_SCENARIOS`] (panics on an unknown name):
    ///
    /// * `revocation-storm` — correlated revocation of markets 1 and 2
    ///   (86% of capacity) one minute in, default 120 s warning, aware
    ///   balancer reprovisioning on the warning.
    /// * `revocation-storm-vanilla` — the same storm against a
    ///   transiency-oblivious balancer that never reprovisions.
    /// * `zero-warning` — the same correlated loss with *no* warning:
    ///   admission control must shed load until replacements warm up.
    /// * `backend-flaps` — repeated single-backend flaps (timed plus
    ///   probabilistic) with no revocations.
    /// * `slow-start-storm` — a storm whose replacements boot 245 s
    ///   late and warm 60 s slow (provider capacity crunch).
    pub fn named(name: &str) -> ChaosScenario {
        // The correlated loss of markets 1 and 2: 86% of capacity.
        let storm = |warning_secs: Option<f64>| FaultKind::CorrelatedRevocation {
            markets: vec![1, 2],
            warning_secs,
        };
        let flap = |target: usize, down_secs: f64| FaultKind::BackendFlap { target, down_secs };
        let base = ChaosScenario {
            name: name.to_string(),
            ..ChaosScenario::default()
        };
        match name {
            "revocation-storm" => ChaosScenario {
                plan: FaultPlan::new().at(60.0, storm(None)),
                ..base
            },
            "revocation-storm-vanilla" => ChaosScenario {
                transiency_aware: false,
                replacement: Replacement::None,
                plan: FaultPlan::new().at(60.0, storm(None)),
                ..base
            },
            "zero-warning" => ChaosScenario {
                plan: FaultPlan::new().at(120.0, storm(Some(0.0))),
                ..base
            },
            "backend-flaps" => ChaosScenario {
                plan: FaultPlan::new()
                    .at(100.0, flap(4, 45.0))
                    .at(240.0, flap(5, 45.0))
                    .random(0.08, 30.0, flap(2, 20.0)),
                ..base
            },
            "slow-start-storm" => ChaosScenario {
                plan: FaultPlan::new()
                    .at(30.0, FaultKind::StartupDelay { extra_secs: 245.0 })
                    .at(30.0, FaultKind::WarmupStall { extra_secs: 60.0 })
                    .at(60.0, storm(None)),
                ..base
            },
            other => panic!("unknown chaos scenario {other:?}; known: {NAMED_SCENARIOS:?}"),
        }
    }

    /// Run the scenario to completion.
    pub fn run(&self) -> ChaosReport {
        assert!(!self.servers.is_empty(), "need at least one server");
        assert!(
            self.sessions > 0,
            "need at least one session (`sessions` is 0)"
        );
        // An infinite rate draws every gap as 0: the stream would never
        // reach `duration_secs`.
        assert!(
            self.arrival_rps.is_finite() && self.arrival_rps > 0.0,
            "`arrival_rps` must be finite and positive (got {})",
            self.arrival_rps
        );
        assert!(self.duration_secs > 0.0);

        let timeline = self.plan.compile(self.seed, self.duration_secs);
        // Counter-based gaps: gap `k` belongs to request `k`, so the
        // arrival process is draw-order-free (see `spotweb_workload::rng`).
        let gaps = CounterStream::new(self.seed, stream_id(DOMAIN_SCENARIO_GAP, 0));
        let sink = self.telemetry.clone();
        let mut cluster = Cluster::new(
            LoadBalancerConfig {
                transiency_aware: self.transiency_aware,
                admission_control: true,
                max_delay_secs: 2.0,
                service_secs: SERVICE_SECS,
            },
            SERVICE_SECS,
            STARTUP_SECS,
            WARMUP_SECS,
            sink.clone(),
        );
        for s in &self.servers {
            cluster.bootstrap(s.market, s.capacity_rps);
        }

        let mut queue = EventQueue::new();
        queue.set_telemetry(sink.clone());
        let mut recorder = LatencyRecorder::new(BUCKET_SECS, self.duration_secs);
        let mut migrated: u64 = 0;
        let mut warnings: u32 = 0;
        let mut deaths: u32 = 0;
        let mut flaps: u32 = 0;

        // The Poisson stream's one pending arrival, `(time, seq,
        // request)`, is held outside the heap and merged against its
        // head; `reserve` gives it the place in the `(time, seq)` order
        // a heap entry scheduled here would have had.
        let first = gaps.exp_at(0, self.arrival_rps);
        let mut next_arrival = Some((first, queue.reserve(first), 0u64));
        for (i, f) in timeline.iter().enumerate() {
            queue.schedule(f.at_secs, Event::FaultTrigger { fault: i });
        }
        let replace = |cluster: &mut Cluster, queue: &mut EventQueue, dying: usize, now: f64| {
            let (backend, booted_at) = cluster.replace(dying, now);
            queue.schedule(booted_at, Event::ServerReady { backend });
        };

        // The run drains stream and queue completely: arrivals stop at
        // `duration_secs`, after which the backlog finishes serving so
        // every request gets its latency (or drop) recorded.
        loop {
            let queued = match next_arrival {
                Some((at, seq, _)) => queue.pop_before(at, seq),
                None => queue.pop(),
            };
            let Some((now, event)) = queued else {
                let Some((now, _, request)) = next_arrival else {
                    break;
                };
                queue.advance(now);
                sink.set_clock(now);
                cluster.tick(now);
                match cluster.admit(request % self.sessions, now) {
                    Some((backend, done)) => queue.schedule(
                        done,
                        Event::Completion {
                            request,
                            backend,
                            arrived: now,
                        },
                    ),
                    None => recorder.record_drop(now),
                }
                cluster.audit(now);
                // The recorder covers `[0, duration_secs)`, so the
                // stream ends strictly before the horizon.
                let next = request + 1;
                let t_next = now + gaps.exp_at(next, self.arrival_rps);
                next_arrival =
                    (t_next < self.duration_secs).then(|| (t_next, queue.reserve(t_next), next));
                continue;
            };
            sink.set_clock(now);
            match event {
                Event::Completion {
                    request: _,
                    backend,
                    arrived,
                } => match cluster.complete(backend, arrived, now) {
                    Some(latency) => recorder.record(arrived, latency),
                    None => recorder.record_drop(arrived),
                },
                Event::RevocationWarning {
                    backend,
                    warning_secs,
                } => {
                    warnings += 1;
                    migrated += cluster.warn(backend, now, warning_secs) as u64;
                    queue.schedule(now + warning_secs, Event::ServerDeath { backend });
                    if self.replacement == Replacement::OnWarning {
                        replace(&mut cluster, &mut queue, backend, now);
                    }
                }
                Event::ServerDeath { backend } => {
                    deaths += 1;
                    cluster.kill(backend, now);
                    if self.replacement == Replacement::OnDeath {
                        replace(&mut cluster, &mut queue, backend, now);
                    }
                }
                Event::ServerReady { .. } => cluster.tick(now),
                Event::BackendRestore { backend } => cluster.restore(backend, now),
                Event::FaultTrigger { fault } => {
                    let kind = &timeline[fault].kind;
                    cluster.inject(now, kind, "backend");
                    match kind {
                        FaultKind::CorrelatedRevocation {
                            markets,
                            warning_secs,
                        } => {
                            let warning_secs = warning_secs.unwrap_or(WARNING_SECS);
                            for backend in cluster.serving_in(markets) {
                                queue.schedule(
                                    now,
                                    Event::RevocationWarning {
                                        backend,
                                        warning_secs,
                                    },
                                );
                            }
                        }
                        FaultKind::BackendFlap { target, down_secs } => {
                            let backend = *target;
                            if cluster.flap(backend, now) {
                                flaps += 1;
                                queue.schedule(now + down_secs, Event::BackendRestore { backend });
                            }
                        }
                        // Stalls are applied by `inject`; there is no
                        // market here for a price shock to move.
                        _ => {}
                    }
                }
            }
        }

        let (stats, mut checker) = cluster.finish();
        let (served, dropped) = recorder.totals();
        checker.check_reported(served as u64, dropped);
        ChaosReport {
            scenario: self.name.clone(),
            seed: self.seed,
            transiency_aware: self.transiency_aware,
            served,
            dropped,
            drop_fraction: recorder.drop_fraction(),
            p50: recorder.overall_percentile(50.0),
            p90: recorder.overall_percentile(90.0),
            p99: recorder.overall_percentile(99.0),
            migrated_sessions: migrated,
            lost_sessions: stats.sessions_lost,
            admission_rejections: stats.admission_rejections,
            revocation_warnings: warnings,
            server_deaths: deaths,
            backend_flaps: flaps,
            // Every compiled fault lies inside the horizon, and the
            // queue drained: they all fired.
            faults_fired: timeline.len(),
            invariant_violations: checker.violations().to_vec(),
            invariant_violation_count: checker.violation_count(),
            buckets: recorder.all_stats(),
        }
    }
}

/// Result of a chaos run, including the invariant audit.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Scenario label.
    pub scenario: String,
    /// Seed the run (arrivals + fault coins) was driven by.
    pub seed: u64,
    /// Balancer mode the scenario ran with.
    pub transiency_aware: bool,
    /// Requests served.
    pub served: usize,
    /// Requests dropped.
    pub dropped: u64,
    /// Overall drop fraction.
    pub drop_fraction: f64,
    /// Overall median latency (seconds).
    pub p50: f64,
    /// Overall p90 latency (seconds).
    pub p90: f64,
    /// Overall p99 latency (seconds).
    pub p99: f64,
    /// Sessions migrated by warnings.
    pub migrated_sessions: u64,
    /// Sessions lost to abrupt deaths.
    pub lost_sessions: u64,
    /// Requests rejected by overload admission control (a subset of
    /// `dropped`; distinguishes deliberate shedding from no-capacity
    /// drops).
    pub admission_rejections: u64,
    /// Revocation warnings delivered.
    pub revocation_warnings: u32,
    /// Servers that actually died.
    pub server_deaths: u32,
    /// Backend flaps injected.
    pub backend_flaps: u32,
    /// Compiled faults that fired.
    pub faults_fired: usize,
    /// Recorded invariant violations (capped at 16 messages).
    pub invariant_violations: Vec<String>,
    /// Total violations observed (including past the cap).
    pub invariant_violation_count: u64,
    /// Per-bucket latency stats.
    pub buckets: Vec<BucketStats>,
}

impl ChaosReport {
    /// `true` when every invariant held for the whole run.
    pub fn invariants_ok(&self) -> bool {
        self.invariant_violation_count == 0
    }

    /// Stable, hand-rendered pretty JSON: key order is fixed, floats
    /// use Rust's shortest round-trip formatting, and non-finite
    /// values render as `null` — so byte-identical output is exactly
    /// run determinism.
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n");
        let mut field = |key: &str, value: String| {
            out.push_str(&format!("  \"{key}\": {value},\n"));
        };
        field("scenario", json_string(&self.scenario));
        field("seed", self.seed.to_string());
        field("transiency_aware", self.transiency_aware.to_string());
        field("served", self.served.to_string());
        field("dropped", self.dropped.to_string());
        field("drop_fraction", json_f64(self.drop_fraction));
        field("p50", json_f64(self.p50));
        field("p90", json_f64(self.p90));
        field("p99", json_f64(self.p99));
        field("migrated_sessions", self.migrated_sessions.to_string());
        field("lost_sessions", self.lost_sessions.to_string());
        field(
            "admission_rejections",
            self.admission_rejections.to_string(),
        );
        field("revocation_warnings", self.revocation_warnings.to_string());
        field("server_deaths", self.server_deaths.to_string());
        field("backend_flaps", self.backend_flaps.to_string());
        field("faults_fired", self.faults_fired.to_string());
        field("invariants_ok", self.invariants_ok().to_string());
        let violations: Vec<String> = self
            .invariant_violations
            .iter()
            .map(|v| json_string(v))
            .collect();
        field(
            "invariant_violations",
            format!("[{}]", violations.join(", ")),
        );
        out.push_str("  \"buckets\": [\n");
        for (i, b) in self.buckets.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"start\": {}, \"count\": {}, \"mean\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \"dropped\": {}}}{}\n",
                json_f64(b.start),
                b.count,
                json_f64(b.mean),
                json_f64(b.p50),
                json_f64(b.p90),
                json_f64(b.p99),
                b.dropped,
                if i + 1 < self.buckets.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_is_deterministic_and_sorted() {
        let plan = FaultPlan::new()
            .at(200.0, FaultKind::StartupDelay { extra_secs: 10.0 })
            .at(50.0, FaultKind::WarmupStall { extra_secs: 5.0 })
            .random(
                0.5,
                25.0,
                FaultKind::BackendFlap {
                    target: 0,
                    down_secs: 10.0,
                },
            );
        let a = plan.compile(7, 300.0);
        let b = plan.compile(7, 300.0);
        assert_eq!(a, b, "same (plan, seed) must compile identically");
        assert!(a.windows(2).all(|w| w[0].at_secs <= w[1].at_secs));
        assert!(a.len() > 2, "coins at p=0.5 over 11 windows should fire");
        let c = plan.compile(8, 300.0);
        assert_ne!(a, c, "different seeds resolve different coins");
    }

    #[test]
    fn compile_drops_timed_faults_past_horizon() {
        let plan = FaultPlan::new().at(500.0, FaultKind::StartupDelay { extra_secs: 1.0 });
        assert!(plan.compile(1, 300.0).is_empty());
    }

    #[test]
    fn checker_flags_down_routing() {
        let mut lb = LoadBalancer::new(LoadBalancerConfig::default());
        let b = lb.add_backend_up(0, 100.0);
        lb.server_died(b, 1.0);
        let mut checker = InvariantChecker::new();
        checker.on_arrival();
        checker.on_route(&lb, b, 2.0);
        assert!(!checker.ok());
        assert!(checker.violations()[0].contains("down backend"));
    }

    #[test]
    fn checker_flags_conservation_breaks() {
        let lb = LoadBalancer::new(LoadBalancerConfig::default());
        let mut checker = InvariantChecker::new();
        checker.on_arrival();
        checker.on_served(); // served without ever being routed
        checker.check_tick(&lb, 1.0);
        assert!(!checker.ok());
    }

    #[test]
    fn checker_flags_a_report_that_lost_a_request() {
        let mut checker = InvariantChecker::new();
        for _ in 0..3 {
            checker.on_arrival();
            checker.in_flight += 1;
        }
        checker.on_served();
        checker.on_served();
        checker.on_dropped_in_flight();
        checker.check_drained();
        // A report that says what the ledger says passes.
        checker.check_reported(2, 1);
        assert!(checker.ok(), "{:?}", checker.violations());
        // A recorder that discarded one served sample (an arrival at
        // its horizon) reports one request fewer: one violation.
        checker.check_reported(1, 1);
        assert_eq!(checker.violation_count(), 1);
        assert!(checker.violations()[0].contains("report disagrees"));
    }

    fn small(plan: FaultPlan) -> ChaosScenario {
        ChaosScenario {
            servers: vec![
                ServerSpec {
                    market: 0,
                    capacity_rps: 100.0,
                },
                ServerSpec {
                    market: 1,
                    capacity_rps: 100.0,
                },
            ],
            arrival_rps: 120.0,
            duration_secs: 240.0,
            sessions: 200,
            seed: 9,
            plan,
            ..ChaosScenario::default()
        }
    }

    #[test]
    fn quiet_plan_serves_everything_cleanly() {
        let report = small(FaultPlan::new()).run();
        assert_eq!(report.dropped, 0, "no faults, no drops");
        assert_eq!(report.faults_fired, 0);
        assert!(report.invariants_ok(), "{:?}", report.invariant_violations);
        assert!(report.p99 < 1.0, "p99 {}", report.p99);
    }

    #[test]
    fn flap_drops_then_recovers() {
        let plan = FaultPlan::new().at(
            60.0,
            FaultKind::BackendFlap {
                target: 1,
                down_secs: 30.0,
            },
        );
        let report = small(plan).run();
        assert_eq!(report.backend_flaps, 1);
        assert!(report.dropped > 0, "in-flight work dies at the flap");
        assert!(report.invariants_ok(), "{:?}", report.invariant_violations);
        // The last minute is clean again: the backend came back.
        let last = report.buckets.last().unwrap();
        assert_eq!(last.dropped, 0, "flap must heal: {last:?}");
        assert!(last.count > 0);
    }

    #[test]
    fn zero_warning_is_harsher_than_warned() {
        let storm = |warning: Option<f64>| {
            let plan = FaultPlan::new().at(
                60.0,
                FaultKind::CorrelatedRevocation {
                    markets: vec![1],
                    warning_secs: warning,
                },
            );
            small(plan).run()
        };
        let warned = storm(None);
        let unwarned = storm(Some(0.0));
        assert!(warned.invariants_ok());
        assert!(unwarned.invariants_ok());
        assert!(
            unwarned.dropped > warned.dropped,
            "no warning must hurt more: {} vs {}",
            unwarned.dropped,
            warned.dropped
        );
    }

    #[test]
    fn chaos_run_traces_faults_drains_and_replacements() {
        let sink = TelemetrySink::enabled();
        let mut scenario = small(FaultPlan::new().at(
            60.0,
            FaultKind::CorrelatedRevocation {
                markets: vec![1],
                warning_secs: None,
            },
        ));
        scenario.telemetry = sink.clone();
        let report = scenario.run();
        assert!(report.invariants_ok());
        let kinds: Vec<&str> = sink.events().iter().map(|e| e.event.kind()).collect();
        for expected in [
            "fault_injected",
            "drain",
            "backend_death",
            "replacement_started",
        ] {
            assert!(kinds.contains(&expected), "missing {expected} in {kinds:?}");
        }
        // The arrival stream never enters the heap but counts like the
        // heap entries it replaced: every arrival, one completion per
        // routed arrival, and the control events (1 fault, 1 warning,
        // 1 death, 1 replacement ready).
        let arrivals = (report.served as u64) + report.dropped;
        let routed = sink.counter("spotweb_requests_served_total")
            + sink.counter("spotweb_requests_killed_in_flight_total");
        assert_eq!(
            sink.counter("spotweb_sim_events_scheduled_total"),
            arrivals + routed + 4
        );
        assert_eq!(
            sink.counter("spotweb_sim_events_processed_total"),
            arrivals + routed + 4
        );
        assert_eq!(
            report.admission_rejections,
            sink.counter("spotweb_lb_admission_rejections_total"),
            "report and metrics registry must agree"
        );
    }

    #[test]
    fn named_scenarios_all_construct() {
        for name in NAMED_SCENARIOS {
            let s = ChaosScenario::named(name);
            assert_eq!(&s.name, name);
            assert!(!s.plan.is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "unknown chaos scenario")]
    fn unknown_scenario_panics() {
        let _ = ChaosScenario::named("kernel-panic");
    }

    #[test]
    #[should_panic(expected = "need at least one session (`sessions` is 0)")]
    fn zero_sessions_are_rejected_up_front() {
        let _ = ChaosScenario {
            sessions: 0,
            ..small(FaultPlan::new())
        }
        .run();
    }

    #[test]
    #[should_panic(expected = "`arrival_rps` must be finite and positive (got inf)")]
    fn infinite_arrival_rate_is_rejected_by_name() {
        // Unchecked, every gap `-ln(u)/∞` is 0: the stream never
        // reaches `duration_secs` and the run never returns.
        let _ = ChaosScenario {
            arrival_rps: f64::INFINITY,
            ..small(FaultPlan::new())
        }
        .run();
    }

    #[test]
    fn report_json_is_byte_stable() {
        let a = small(FaultPlan::new().at(
            60.0,
            FaultKind::BackendFlap {
                target: 0,
                down_secs: 20.0,
            },
        ))
        .run();
        let b = small(FaultPlan::new().at(
            60.0,
            FaultKind::BackendFlap {
                target: 0,
                down_secs: 20.0,
            },
        ))
        .run();
        assert_eq!(a.to_json_pretty(), b.to_json_pretty());
        assert!(a.to_json_pretty().starts_with("{\n  \"scenario\""));
    }
}
