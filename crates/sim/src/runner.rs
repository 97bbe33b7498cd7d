//! Full-stack runner: provisioning policy + market dynamics + load
//! balancer + request-level simulation, wired together the way the
//! paper's Fig. 2 architecture runs in production.
//!
//! This is the *interval-batched* scheduler over the shared
//! [`Cluster`] mechanism (the exact-time one is
//! [`crate::faults::ChaosScenario`]). Per decision interval it:
//! 1. applies the interval's faults and advances the market (prices,
//!    failure probabilities),
//! 2. asks the policy for the next fleet and reconciles the cluster to
//!    it — boots new servers, gracefully decommissions surplus ones,
//!    programs the WRR weights, enforces the provider lifetime cap,
//! 3. samples revocations; victims get a warning and a replacement,
//!    then die,
//! 4. runs Poisson traffic at the trace's rate through the cluster;
//!    pending deaths, flaps and restores fire lazily, when an arrival
//!    crosses their time, so the loop computes the earliest pending
//!    control timepoint once and runs arrivals up to it touching only
//!    the cluster and the completion calendar (every balancer read in
//!    that tight loop is time-lazy, so deferring `tick` and the full
//!    invariant sweep to control timepoints is unobservable),
//! 5. settles: drains due completions, accounts cost (per-second
//!    billing at current prices), rolls up telemetry.
//!
//! Request-level simulation is O(requests); DESIGN.md's "Hot-path
//! architecture" covers what keeps the per-request constant small
//! enough for week-scale runs at paper rates (§5's 20 krps trace).
//!
//! The loop is serial: interval `i + 1`'s fleet decision reads the
//! monitor interval `i` filled. Arrivals are drawn from the
//! counter-based [`spotweb_workload::rng`] streams keyed per decision
//! interval (`WindowGen`), and [`report_json`] / [`report_digest`]
//! are the canonical renderings the golden and benchmark digests
//! compare.

use spotweb_lb::{LoadBalancerConfig, MonitorWindow};
use spotweb_market::billing::{BillingLedger, CostMeter};
use spotweb_market::{CloudSim, MarketHistory};
use spotweb_telemetry::json::{fnv1a64_hex, json_f64, json_string, json_u32_array};
use spotweb_telemetry::{names, prof, TelemetrySink, TraceEvent};
use spotweb_workload::rng::{stream_id, CounterStream, DOMAIN_ARRIVAL_GAP, DOMAIN_ARRIVAL_SESSION};
use spotweb_workload::Trace;

use crate::calendar::CalendarQueue;
use crate::cluster::Cluster;
use crate::faults::{FaultKind, FaultPlan, FaultSpec};
use crate::metrics::{BucketStats, LatencyRecorder};

/// Abstraction over `spotweb-core`'s policies so this crate does not
/// depend on the optimizer: given current observations, return the
/// desired number of servers per market.
pub trait FleetPolicy {
    /// Decide the fleet for the coming interval. `history` is the
    /// cloud's own record, whose running risk matrix
    /// ([`MarketHistory::correlation`]) is the one the fluid evaluator
    /// hands its policies.
    fn decide_fleet(
        &mut self,
        interval: usize,
        observed_rps: f64,
        prices: &[f64],
        failure_probs: &[f64],
        history: &MarketHistory,
    ) -> Vec<u32>;
}

/// Configuration for a full-stack run.
#[derive(Debug, Clone)]
pub struct RunnerConfig {
    /// Decision-interval length in seconds (default 600 s; the paper
    /// runs hourly, shortened here because the runner simulates every
    /// request).
    pub interval_secs: f64,
    /// Number of decision intervals to run.
    pub intervals: usize,
    /// Server startup time (s).
    pub startup_secs: f64,
    /// Cache warm-up window (s).
    pub warmup_secs: f64,
    /// Base request service time (s).
    pub service_secs: f64,
    /// Load-balancer configuration.
    pub lb: LoadBalancerConfig,
    /// Distinct user sessions.
    pub sessions: u64,
    /// Provider-imposed maximum instance lifetime (e.g. Google Cloud
    /// terminates preemptible VMs after 24 h). When set, the runner
    /// *proactively relinquishes* servers approaching the cap — a
    /// graceful drain plus replacement, instead of eating the
    /// provider's hard kill (§7 of the paper).
    pub max_lifetime_secs: Option<f64>,
    /// RNG seed (arrivals and revocation sampling share sub-streams).
    pub seed: u64,
    /// Has no effect: no library code reads it, and every run is serial
    /// on the calling thread. It remains only so that callers which
    /// still set it (the benchmark harness) keep compiling.
    pub shards: usize,
    /// Optional fault plan (chaos testing). Compiled deterministically
    /// from `seed` at run start. Interval-scoped faults — price
    /// shocks, correlated revocations, startup/warmup stalls — apply
    /// at the start of the interval containing their firing time (the
    /// market itself only evolves per interval); backend flaps fire at
    /// their exact times inside the request loop. `BackendFlap::target`
    /// is interpreted as a *market* index here: the first alive server
    /// of that market flaps.
    pub faults: Option<FaultPlan>,
    /// Telemetry sink. Disabled by default (every hook is a single
    /// branch); when enabled the runner threads the same sink through
    /// the balancer and the market so the whole stack writes one
    /// trace: per-interval spans and summaries, fault injections,
    /// replacement provisioning, drain/death/restore events, and
    /// request latency/drop metrics.
    pub telemetry: TelemetrySink,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        RunnerConfig {
            interval_secs: 600.0,
            intervals: 24,
            startup_secs: 55.0,
            warmup_secs: 60.0,
            service_secs: 0.12,
            lb: LoadBalancerConfig::default(),
            sessions: 2000,
            max_lifetime_secs: None,
            seed: 42,
            shards: 1,
            faults: None,
            telemetry: TelemetrySink::disabled(),
        }
    }
}

/// Result of a full-stack run.
#[derive(Debug, Clone)]
pub struct RunnerReport {
    /// Requests served.
    pub served: usize,
    /// Requests dropped.
    pub dropped: u64,
    /// Overall drop fraction.
    pub drop_fraction: f64,
    /// Overall p50 / p90 / p99 latency (s).
    pub p50: f64,
    /// 90th percentile latency (s).
    pub p90: f64,
    /// 99th percentile latency (s).
    pub p99: f64,
    /// Total provisioning spend ($, per-second billing).
    pub cost: f64,
    /// Revocation warnings delivered.
    pub revocations: u32,
    /// Sessions migrated by the balancer.
    pub migrated_sessions: u64,
    /// Servers proactively relinquished at the provider lifetime cap.
    pub lifetime_relinquishments: u32,
    /// Fleet size per interval (total servers).
    pub fleet_sizes: Vec<u32>,
    /// Per-interval latency/drop stats.
    pub buckets: Vec<crate::metrics::BucketStats>,
    /// Compiled faults that fired (0 without a plan).
    pub faults_fired: usize,
    /// Invariant violations the checker observed (empty on a healthy
    /// run; see [`crate::faults::InvariantChecker`]).
    pub invariant_violations: Vec<String>,
    /// Times the balancer re-scanned the fleet for `route`
    /// ([`spotweb_lb::LoadBalancer::epoch_rebuilds`]): work done, not a
    /// simulated outcome, so [`report_json`] leaves it out.
    pub route_epoch_rebuilds: u64,
}

/// Run `policy` against `cloud` dynamics and `trace` arrivals.
///
/// `trace.rate_at` is sampled at interval boundaries; the Poisson
/// arrival rate is held constant within an interval.
pub fn run_full_stack(
    policy: &mut dyn FleetPolicy,
    cloud: &mut CloudSim,
    trace: &Trace,
    config: &RunnerConfig,
) -> RunnerReport {
    run_full_stack_observed(policy, cloud, trace, config, &mut |_, _| {})
}

/// [`run_full_stack`] with a per-interval observation hook.
///
/// `on_interval(interval, cumulative_arrivals)` is called once at the
/// end of every decision interval with the total arrivals (routed +
/// dropped) seen so far. The hook exists for *host-side* observers —
/// e.g. the bench harness timing wall-clock per simulated hour — and
/// must not feed anything back into the run; the runner's behaviour is
/// identical for any hook.
pub fn run_full_stack_observed(
    policy: &mut dyn FleetPolicy,
    cloud: &mut CloudSim,
    trace: &Trace,
    config: &RunnerConfig,
    on_interval: &mut dyn FnMut(usize, u64),
) -> RunnerReport {
    // Wall-clock profiling span for the whole run (inert unless a
    // prof session is active; distinct from the sim-clock trace spans
    // emitted through `sink` below).
    prof::scope!(names::SPAN_RUNNER_RUN);
    // Rejected before anything is built: a zero session count would
    // panic inside the arrival generator (`range_at` divides by it),
    // and an infinite interval never ends its first window.
    assert!(
        config.sessions > 0,
        "need at least one session (`sessions` is 0)"
    );
    assert!(
        config.intervals > 0,
        "need at least one decision interval (`intervals` is 0)"
    );
    assert!(
        config.interval_secs.is_finite() && config.interval_secs > 0.0,
        "`interval_secs` must be finite and positive (got {})",
        config.interval_secs
    );
    let sink = config.telemetry.clone();
    cloud.set_telemetry(sink.clone());
    let mut run = Scheduler::new(config, cloud.catalog().len());

    // Each interval is six phases over the shared `Cluster`, named
    // after the profiler spans they run under: `runner.control_batch`
    // (apply faults, reconcile the fleet, deliver revocations), then
    // `runner.arrival_loop` alternating with `runner.control_batch`
    // (fire due controls), then `runner.drain` / `billing` / `rollup`
    // (settle).
    for interval in 0..config.intervals {
        let t0 = interval as f64 * config.interval_secs;
        let t_end = t0 + config.interval_secs;
        sink.set_clock(t0);
        let span = sink.span_start("interval");
        prof::scope!(names::SPAN_RUNNER_INTERVAL);
        // Interval-head control work — fault application, policy
        // decide (the mpo.solve span nests here), fleet reconcile,
        // revocation sampling — profiles as one control batch; the
        // guard is dropped just before the arrival loop starts.
        let prof_control = prof::ScopeGuard::enter(names::SPAN_RUNNER_CONTROL_BATCH);
        let forced_revocations = run.apply_interval_faults(cloud, t0, t_end);
        let tick = cloud.step();
        // Interval 0 has no measurements yet; afterwards the policy is
        // fed the balancer-monitored rate (§5.2) — O(1) rolling rates,
        // the same float as the full snapshot's `arrival_rate`.
        let observed_rps = if interval == 0 {
            trace.rate_at(t0)
        } else {
            run.monitor.rates(t0).arrival_rate
        };
        let desired = policy.decide_fleet(
            interval,
            observed_rps,
            &tick.prices,
            &tick.failure_probs,
            cloud.history(),
        );
        run.reconcile_fleet(cloud, &desired, interval == 0, t0);
        run.deliver_revocations(cloud, forced_revocations, t0);
        drop(prof_control);

        // Arrivals follow the *true* trace rate (the generator is the
        // outside world; only the policy sees measurements); the rate
        // is constant within the interval, so it is sampled once. The
        // window yields the interval's arrivals lazily, in time order:
        // no batch materializes, which keeps day-scale runs (tens of
        // millions of arrivals per window) in constant memory.
        let rate = trace.rate_at(t0).max(1e-6);
        let mut window = WindowGen::new(config.seed, interval, config.sessions, t0, t_end, rate);
        let mut pending = window.next();
        while let Some(arrival) = pending {
            pending = run.arrival_phase(&mut window, arrival, t_end);
            if let Some((now, _)) = pending {
                run.fire_due_controls(now);
            }
        }
        run.settle_interval(interval, &tick.prices, observed_rps);
        sink.set_clock(t_end);
        sink.span_end(span, "interval");
        let stats = run.cluster.stats();
        on_interval(interval, stats.routed + stats.dropped);
    }
    run.finish()
}

/// One decision interval's arrival generator: a lazy walk of the
/// counter-RNG streams keyed by the interval index, so a window's
/// arrivals are a pure function of `(seed, interval)` whatever ran
/// before it.
#[derive(Debug, Clone, Copy)]
struct WindowGen {
    gaps: CounterStream,
    sessions_stream: CounterStream,
    sessions: u64,
    t: f64,
    t_end: f64,
    rate: f64,
    k: u64,
}

impl WindowGen {
    fn new(seed: u64, interval: usize, sessions: u64, t0: f64, t_end: f64, rate: f64) -> Self {
        WindowGen {
            gaps: CounterStream::new(seed, stream_id(DOMAIN_ARRIVAL_GAP, interval as u64)),
            sessions_stream: CounterStream::new(
                seed,
                stream_id(DOMAIN_ARRIVAL_SESSION, interval as u64),
            ),
            sessions,
            t: t0,
            t_end,
            rate,
            k: 0,
        }
    }

    /// Next arrival `(time, session)` strictly before the window end,
    /// or `None` once the gap walk crosses it. Draw `k` of the gap
    /// stream and draw `k` of the session stream belong to arrival
    /// `k`; the counter advances only on yielded arrivals.
    fn next(&mut self) -> Option<(f64, u64)> {
        let t = self.t + self.gaps.exp_at(self.k, self.rate);
        if t >= self.t_end {
            return None;
        }
        let session = self.sessions_stream.range_at(self.k, self.sessions);
        self.t = t;
        self.k += 1;
        Some((t, session))
    }
}

/// The full-stack scheduler's state: the [`Cluster`] mechanism plus
/// what only this scheduler needs — the per-market fleet, billing, the
/// monitor the policy reads, the completion calendar, and the control
/// events waiting for an arrival to cross their time.
struct Scheduler<'a> {
    config: &'a RunnerConfig,
    cluster: Cluster,
    /// Per-interval latency and drop buckets behind the report.
    recorder: LatencyRecorder,
    /// Backends per market currently alive (neither warned,
    /// decommissioned nor down).
    alive: Vec<Vec<usize>>,
    /// Birth time per backend id, for the provider lifetime cap.
    born_at: Vec<f64>,
    meter: CostMeter,
    /// Event-driven cost accounting: a backend is billed from when it
    /// is bought until its death *fires* (see `BillingLedger`).
    billing: BillingLedger,
    /// Application-level monitoring (§5.2): the policy sees the arrival
    /// rate the balancer *measured*, not the generator's ground truth.
    monitor: MonitorWindow,
    /// `(completion_time, backend, arrival_time)` in the min-heap order
    /// the runner always used; persists across intervals so work
    /// spanning a boundary resolves.
    completions: CalendarQueue,
    /// The fault plan, compiled once from the run seed; `fault_cursor`
    /// is the first entry not yet applied.
    timeline: Vec<FaultSpec>,
    fault_cursor: usize,
    /// Deferred deaths `(deadline, backend)`, flaps `(fire_time,
    /// market, down_secs)` and recoveries `(restore_time, backend,
    /// market)`.
    pending_deaths: Vec<(f64, usize)>,
    pending_flaps: Vec<(f64, usize, f64)>,
    pending_restores: Vec<(f64, usize, usize)>,
    revocations: u32,
    relinquished: u32,
    fleet_sizes: Vec<u32>,
}

impl<'a> Scheduler<'a> {
    fn new(config: &'a RunnerConfig, n_markets: usize) -> Self {
        let horizon = config.interval_secs * config.intervals as f64;
        Scheduler {
            config,
            cluster: Cluster::new(
                config.lb.clone(),
                config.service_secs,
                config.startup_secs,
                config.warmup_secs,
                config.telemetry.clone(),
            ),
            recorder: LatencyRecorder::new(config.interval_secs, horizon),
            alive: vec![Vec::new(); n_markets],
            born_at: Vec::new(),
            meter: CostMeter::new(n_markets),
            billing: BillingLedger::new(),
            monitor: MonitorWindow::new(config.interval_secs),
            // Bucket width: half a base service time, comfortably under
            // the queue's no-late-insert bound (every completion is
            // scheduled at least one service time ahead of the clock).
            completions: CalendarQueue::new(config.service_secs * 0.5),
            timeline: config
                .faults
                .as_ref()
                .map(|p| p.compile(config.seed, horizon))
                .unwrap_or_default(),
            fault_cursor: 0,
            pending_deaths: Vec::new(),
            pending_flaps: Vec::new(),
            pending_restores: Vec::new(),
            revocations: 0,
            relinquished: 0,
            fleet_sizes: Vec::with_capacity(config.intervals),
        }
    }

    /// Apply the compiled faults firing before `t_end`. Price shocks
    /// land before the market steps so the tick already quotes them
    /// (and trace themselves inside the market façade); flaps queue up
    /// to fire at their exact times inside the request loop; forced
    /// revocations are returned for [`Self::deliver_revocations`] (they
    /// need the reconciled fleet).
    fn apply_interval_faults(
        &mut self,
        cloud: &mut CloudSim,
        t0: f64,
        t_end: f64,
    ) -> Vec<(Vec<usize>, Option<f64>)> {
        let mut forced_revocations = Vec::new();
        while let Some(fault) = self.timeline.get(self.fault_cursor) {
            if fault.at_secs >= t_end {
                break;
            }
            let at = fault.at_secs.max(t0);
            match &fault.kind {
                FaultKind::PriceShock {
                    market,
                    multiplier,
                    hold_intervals,
                } => cloud.inject_price_shock(*market, *multiplier, *hold_intervals),
                kind => self.cluster.inject(at, kind, "market"),
            }
            match &fault.kind {
                FaultKind::CorrelatedRevocation {
                    markets,
                    warning_secs,
                } => forced_revocations.push((markets.clone(), *warning_secs)),
                FaultKind::BackendFlap { target, down_secs } => {
                    self.pending_flaps.push((at, *target, *down_secs))
                }
                _ => {}
            }
            self.fault_cursor += 1;
        }
        forced_revocations
    }

    /// A freshly started backend joins its market's fleet and the bill.
    fn enlist(&mut self, id: usize, market: usize, t0: f64) {
        self.born_at.push(t0);
        self.billing.add(id, market);
        self.alive[market].push(id);
    }

    /// Start a reactive same-capacity replacement for `dying` (§4.4).
    fn replace(&mut self, dying: usize, market: usize, t0: f64) {
        let (id, _) = self.cluster.replace(dying, t0);
        self.enlist(id, market, t0);
    }

    /// Drain `id` gracefully. A decommissioned server keeps serving (as
    /// a drain-fallback) until any replacement capacity started this
    /// interval is warmed up — releasing it earlier would open a gap on
    /// market switches.
    fn decommission(&mut self, id: usize, t0: f64) {
        self.cluster.warn(id, t0, f64::INFINITY);
        let config = self.config;
        let linger = t0 + config.startup_secs + config.warmup_secs + 50.0 * config.service_secs;
        self.pending_deaths.push((linger, id));
    }

    /// Warn `id` (`warning_secs` of notice), schedule its death and
    /// request its replacement the moment the warning arrives, so the
    /// replacement is serving before (or shortly after) the victim dies.
    fn revoke(&mut self, id: usize, market: usize, t0: f64, warning_secs: f64) {
        self.revocations += 1;
        self.cluster.warn(id, t0, warning_secs);
        self.pending_deaths.push((t0 + warning_secs, id));
        self.replace(id, market, t0);
    }

    /// Bring the fleet to `desired` servers per market, re-program the
    /// WRR weights, and enforce the provider lifetime cap.
    fn reconcile_fleet(&mut self, cloud: &CloudSim, desired: &[u32], bootstrap: bool, t0: f64) {
        let n_markets = self.alive.len();
        assert_eq!(desired.len(), n_markets, "policy fleet length");
        let capacity = |m: usize| cloud.catalog().market(m).capacity_rps();
        for (m, &want) in desired.iter().enumerate() {
            let have = self.alive[m].len() as u32;
            for _ in want..have {
                let id = self.alive[m].pop().expect("have > want");
                self.decommission(id, t0);
            }
            for _ in have..want {
                let id = if bootstrap {
                    // Interval 0 starts serving instantly, warm.
                    self.cluster.bootstrap(m, capacity(m))
                } else {
                    self.cluster.provision(m, capacity(m), t0).0
                };
                self.enlist(id, m, t0);
            }
        }

        // Program WRR weights proportional to per-market capacity share.
        let caps: Vec<f64> = (0..n_markets)
            .map(|m| self.alive[m].len() as f64 * capacity(m))
            .collect();
        let total: f64 = caps.iter().sum();
        let cap_share: Vec<f64> = if total > 0.0 {
            caps.iter().map(|c| c / total).collect()
        } else {
            vec![0.0; n_markets]
        };
        self.cluster.update_portfolio_weights(&cap_share, t0);

        // Provider lifetime cap (§7): relinquish servers that would hit
        // the cap this interval, replacing them proactively so the
        // graceful drain overlaps the replacement's startup.
        if let Some(cap_secs) = self.config.max_lifetime_secs {
            for m in 0..n_markets {
                let mut idx = 0;
                while idx < self.alive[m].len() {
                    let id = self.alive[m][idx];
                    if t0 + self.config.interval_secs - self.born_at[id] >= cap_secs {
                        self.alive[m].remove(idx);
                        self.relinquished += 1;
                        self.decommission(id, t0);
                        self.replace(id, m, t0);
                    } else {
                        idx += 1;
                    }
                }
            }
        }
    }

    /// Sample this interval's revocations, then deliver the injected
    /// correlated ones: every victim drains, gets a replacement, and
    /// dies when its warning runs out.
    fn deliver_revocations(
        &mut self,
        cloud: &mut CloudSim,
        forced_revocations: Vec<(Vec<usize>, Option<f64>)>,
        t0: f64,
    ) {
        let fleet: Vec<u32> = self.alive.iter().map(|v| v.len() as u32).collect();
        self.fleet_sizes.push(fleet.iter().sum());
        let warning = cloud.warning_secs();
        for e in cloud.sample_revocations(&fleet) {
            if self.alive[e.market].is_empty() {
                continue;
            }
            let pos = e.server_index % self.alive[e.market].len();
            let id = self.alive[e.market].remove(pos);
            self.revoke(id, e.market, t0, warning);
        }
        // Chaos: every alive server in the targeted markets, with an
        // optionally shorter warning than the provider default.
        for (markets, warning_secs) in forced_revocations {
            for m in markets {
                for id in std::mem::take(&mut self.alive[m]) {
                    self.revoke(id, m, t0, warning_secs.unwrap_or(warning));
                }
            }
        }
    }

    /// Record the fate of the request that arrived at `arrived` — its
    /// latency, or `None` for a drop — in the metrics and the monitor.
    fn record(&mut self, arrived: f64, latency: Option<f64>) {
        match latency {
            Some(latency) => {
                self.recorder.record(arrived, latency);
                self.monitor.record_served(arrived, latency);
            }
            None => {
                self.recorder.record_drop(arrived);
                self.monitor.record_dropped(arrived);
            }
        }
    }

    /// Resolve every completion due by `upto`.
    fn drain_completions(&mut self, upto: f64) {
        while self.completions.peek_done().is_some_and(|t| t <= upto) {
            let (done, backend, arrived) = self.completions.pop().expect("peeked entry");
            let latency = self.cluster.complete(backend, arrived, done);
            self.record(arrived, latency);
        }
    }

    /// The tight arrival run: computes the earliest pending control
    /// timepoint once and runs arrivals (starting with `arrival`) up to
    /// it, touching only the cluster and the completion calendar.
    /// Returns the first arrival at or past the timepoint, unprocessed,
    /// or `None` when the window is exhausted.
    ///
    /// One profiling span per batch (not per arrival): in-loop
    /// completion drains are accounted to the batch, and the
    /// per-request `lb.route` span nests inside it.
    // Inlined into the control loop the window generator's state stays
    // in registers across arrivals (request_path: ~2 % of wall time).
    #[inline(always)]
    fn arrival_phase(
        &mut self,
        window: &mut WindowGen,
        arrival: (f64, u64),
        t_end: f64,
    ) -> Option<(f64, u64)> {
        let next_control = (self.pending_deaths.iter().map(|d| d.0))
            .chain(self.pending_flaps.iter().map(|f| f.0))
            .chain(self.pending_restores.iter().map(|r| r.0))
            .fold(t_end, f64::min);
        prof::scope!(names::SPAN_RUNNER_ARRIVAL_LOOP);
        let mut next_arrival = Some(arrival);
        while let Some((now, session)) = next_arrival {
            if now >= next_control {
                break;
            }
            self.drain_completions(now);
            match self.cluster.admit(session, now) {
                Some((backend, done)) => self.completions.push(done, backend, now),
                None => self.record(now, None),
            }
            next_arrival = window.next();
        }
        next_arrival
    }

    /// An arrival at `now` crossed a control timepoint: fire everything
    /// due, in the order the per-arrival scans always used (deaths,
    /// then flaps, then restores), then advance the balancer's lazy
    /// lifecycle states and audit.
    fn fire_due_controls(&mut self, now: f64) {
        prof::scope!(names::SPAN_RUNNER_CONTROL_BATCH);
        self.pending_deaths.retain(|&(deadline, id)| {
            if deadline > now {
                return true;
            }
            self.cluster.kill(id, deadline);
            self.billing.mark_died(id, deadline);
            // Permanent death: compact the corpse out of the balancer
            // and free its service queues. Every arrival routed to `id`
            // precedes the deadline (the arrival loop breaks at the
            // control timepoint), and completions still in the calendar
            // resolve against the recorded death time.
            prof::scope!(names::SPAN_RUNNER_COMPACT);
            self.cluster.retire(id);
            false
        });
        // Chaos flaps: the first alive server of the target market
        // crashes without warning, then restores after down_secs.
        self.pending_flaps
            .retain(|&(fire_time, market, down_secs)| {
                if fire_time > now {
                    return true;
                }
                if market < self.alive.len() && !self.alive[market].is_empty() {
                    let id = self.alive[market].remove(0);
                    self.cluster.kill(id, fire_time);
                    // A flap is a temporary death: the backend is NOT
                    // retired (its restore is already scheduled), but
                    // billing stops at fire time unless the restore lands
                    // in the same interval.
                    self.billing.mark_died(id, fire_time);
                    self.pending_restores
                        .push((fire_time + down_secs, id, market));
                }
                false
            });
        self.pending_restores.retain(|&(restore_time, id, market)| {
            if restore_time > now {
                return true;
            }
            self.cluster.restore(id, restore_time);
            self.billing.restore(id, market);
            self.alive[market].push(id);
            false
        });
        self.cluster.tick(now);
        self.cluster.audit(now);
    }

    /// Close the interval: final tick and audit, drain completions due
    /// by `t_end` (everything, on the last interval — whatever still
    /// runs past an earlier interval's end resolves in the next one),
    /// bill, and roll up telemetry.
    fn settle_interval(&mut self, interval: usize, prices: &[f64], observed_rps: f64) {
        let config = self.config;
        let t0 = interval as f64 * config.interval_secs;
        let t_end = t0 + config.interval_secs;
        self.cluster.tick(t_end);
        self.cluster.audit(t_end);
        {
            prof::scope!(names::SPAN_RUNNER_DRAIN);
            self.drain_completions(t_end);
            if interval + 1 == config.intervals {
                self.drain_completions(f64::INFINITY);
            }
        }

        // Bill every backend that existed during any part of the
        // interval — including draining/decommissioned servers still
        // finishing work — at this tick's price (per-second model).
        {
            prof::scope!(names::SPAN_RUNNER_BILLING);
            self.billing
                .settle(t0, config.interval_secs, prices, &mut self.meter);
        }

        // End-of-interval rollup: O(1) monitor rates, in place. The
        // eviction this performs at `t_end` is idempotent with the one
        // the next interval's policy read performs at the same
        // timepoint, so a telemetry-enabled run still replays the
        // exact same decisions as a disabled one.
        let sink = &config.telemetry;
        if sink.is_enabled() {
            prof::scope!(names::SPAN_RUNNER_ROLLUP);
            let rates = self.monitor.rates(t_end);
            let stats = self.recorder.bucket_stats(interval);
            sink.gauge(names::FLEET_SIZE, self.fleet_sizes[interval] as f64);
            sink.emit_at(
                t_end,
                TraceEvent::IntervalSummary {
                    interval: interval as u64,
                    observed_rps,
                    fleet_size: self.fleet_sizes[interval],
                    arrival_rate: rates.arrival_rate,
                    throughput: rates.throughput,
                    drop_rate: rates.drop_rate,
                    p50_latency: stats.p50,
                    p99_latency: stats.p99,
                },
            );
        }
    }

    fn finish(self) -> RunnerReport {
        let route_epoch_rebuilds = self.cluster.epoch_rebuilds();
        let (stats, checker) = self.cluster.finish();
        let recorder = self.recorder;
        let (served, dropped) = recorder.totals();
        RunnerReport {
            served,
            dropped,
            drop_fraction: recorder.drop_fraction(),
            p50: recorder.overall_percentile(50.0),
            p90: recorder.overall_percentile(90.0),
            p99: recorder.overall_percentile(99.0),
            cost: self.meter.total(),
            revocations: self.revocations,
            migrated_sessions: stats.migrations,
            lifetime_relinquishments: self.relinquished,
            fleet_sizes: self.fleet_sizes,
            buckets: recorder.all_stats(),
            faults_fired: self.fault_cursor,
            invariant_violations: checker.violations().to_vec(),
            route_epoch_rebuilds,
        }
    }
}

/// Simple reactive fleet policy for tests and as a reference: size the
/// cheapest-per-request market for the observed rate with headroom.
#[derive(Debug, Clone)]
pub struct ReactiveCheapestPolicy {
    /// Headroom multiplier on the observed rate.
    pub headroom: f64,
    /// Serving capacities per market (req/s).
    pub capacities: Vec<f64>,
}

impl FleetPolicy for ReactiveCheapestPolicy {
    fn decide_fleet(
        &mut self,
        _interval: usize,
        observed_rps: f64,
        prices: &[f64],
        _failure_probs: &[f64],
        _history: &MarketHistory,
    ) -> Vec<u32> {
        let per_req: Vec<f64> = prices
            .iter()
            .zip(&self.capacities)
            .map(|(p, c)| p / c)
            .collect();
        let best = per_req
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite prices"))
            .map(|(i, _)| i)
            .expect("non-empty catalog");
        let mut fleet = vec![0u32; prices.len()];
        fleet[best] = ((observed_rps * self.headroom) / self.capacities[best]).ceil() as u32;
        fleet
    }
}

fn bucket_json(b: &BucketStats) -> String {
    format!(
        concat!(
            "{{\"start\":{},\"count\":{},\"mean\":{},\"min\":{},",
            "\"p25\":{},\"p50\":{},\"p75\":{},\"p90\":{},\"p99\":{},",
            "\"max\":{},\"dropped\":{}}}"
        ),
        json_f64(b.start),
        b.count,
        json_f64(b.mean),
        json_f64(b.min),
        json_f64(b.p25),
        json_f64(b.p50),
        json_f64(b.p75),
        json_f64(b.p90),
        json_f64(b.p99),
        json_f64(b.max),
        b.dropped,
    )
}

/// Canonical single-line JSON rendering of a [`RunnerReport`] — every
/// simulated field, hand-rolled through the workspace's byte-stable
/// float helpers. String equality of two renderings is what the
/// golden and benchmark determinism checks compare, so this is the
/// only sanctioned serialization of a report.
pub fn report_json(r: &RunnerReport) -> String {
    let buckets: Vec<String> = r.buckets.iter().map(bucket_json).collect();
    let violations: Vec<String> = r
        .invariant_violations
        .iter()
        .map(|v| json_string(v))
        .collect();
    format!(
        concat!(
            "{{\"served\":{},\"dropped\":{},\"drop_fraction\":{},",
            "\"p50\":{},\"p90\":{},\"p99\":{},\"cost\":{},",
            "\"revocations\":{},\"migrated_sessions\":{},",
            "\"lifetime_relinquishments\":{},\"fleet_sizes\":{},",
            "\"buckets\":[{}],\"faults_fired\":{},",
            "\"invariant_violations\":[{}]}}"
        ),
        r.served,
        r.dropped,
        json_f64(r.drop_fraction),
        json_f64(r.p50),
        json_f64(r.p90),
        json_f64(r.p99),
        json_f64(r.cost),
        r.revocations,
        r.migrated_sessions,
        r.lifetime_relinquishments,
        json_u32_array(&r.fleet_sizes),
        buckets.join(","),
        r.faults_fired,
        violations.join(","),
    )
}

/// FNV-1a 64 digest of a report's canonical JSON (the same hash the
/// sweep digests use), newline-terminated so digests of concatenated
/// reports compose.
pub fn report_digest(r: &RunnerReport) -> String {
    fnv1a64_hex(format!("{}\n", report_json(r)).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotweb_market::Catalog;
    use spotweb_workload::Trace;

    fn flat_trace(rate: f64, config: &RunnerConfig) -> Trace {
        let samples = config.intervals + 2;
        Trace::new(config.interval_secs, vec![rate; samples])
    }

    fn policy(catalog: &Catalog) -> ReactiveCheapestPolicy {
        ReactiveCheapestPolicy {
            headroom: 1.3,
            capacities: catalog.markets().iter().map(|m| m.capacity_rps()).collect(),
        }
    }

    #[test]
    fn steady_run_serves_with_low_latency() {
        let catalog = Catalog::fig4_testbed();
        let config = RunnerConfig {
            intervals: 6,
            seed: 3,
            ..RunnerConfig::default()
        };
        let mut cloud = CloudSim::new(catalog.clone(), 5, 100);
        cloud.warm_up(8);
        let trace = flat_trace(300.0, &config);
        let mut p = policy(&catalog);
        let r = run_full_stack(&mut p, &mut cloud, &trace, &config);
        assert!(r.served > 1000, "served {}", r.served);
        assert!(r.drop_fraction < 0.05, "drops {}", r.drop_fraction);
        assert!(r.p90 < 1.0, "p90 {}", r.p90);
        assert!(r.cost > 0.0);
        assert_eq!(r.fleet_sizes.len(), 6);
    }

    #[test]
    fn deterministic() {
        let catalog = Catalog::fig4_testbed();
        let config = RunnerConfig {
            intervals: 4,
            seed: 9,
            ..RunnerConfig::default()
        };
        let run = || {
            let mut cloud = CloudSim::new(catalog.clone(), 7, 100);
            cloud.warm_up(8);
            let trace = flat_trace(250.0, &config);
            let mut p = policy(&catalog);
            let r = run_full_stack(&mut p, &mut cloud, &trace, &config);
            (r.served, r.dropped, r.cost.to_bits())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn lifetime_cap_relinquishes_gracefully() {
        // GCP-style 24 h cap compressed: servers older than 3 intervals
        // are proactively replaced, and the rotation costs no requests.
        let catalog = Catalog::fig4_testbed();
        let config = RunnerConfig {
            intervals: 8,
            seed: 6,
            max_lifetime_secs: Some(3.0 * 600.0),
            ..RunnerConfig::default()
        };
        let mut cloud = CloudSim::new(catalog.clone(), 11, 100);
        cloud.warm_up(8);
        let trace = flat_trace(250.0, &config);
        let mut p = policy(&catalog);
        let r = run_full_stack(&mut p, &mut cloud, &trace, &config);
        assert!(
            r.lifetime_relinquishments > 0,
            "cap must rotate servers out"
        );
        assert!(
            r.drop_fraction < 0.01,
            "graceful rotation must not drop requests: {}",
            r.drop_fraction
        );
    }

    #[test]
    fn faulted_run_is_deterministic_and_invariant_clean() {
        use crate::faults::{FaultKind, FaultPlan};
        let catalog = Catalog::fig4_testbed();
        let plan = FaultPlan::new()
            .at(
                700.0,
                FaultKind::PriceShock {
                    market: None,
                    multiplier: 3.0,
                    hold_intervals: 2,
                },
            )
            .at(
                1300.0,
                FaultKind::CorrelatedRevocation {
                    // All markets: the reactive policy may have parked
                    // the whole fleet in any one of them.
                    markets: (0..catalog.len()).collect(),
                    warning_secs: None,
                },
            );
        let config = RunnerConfig {
            intervals: 5,
            seed: 11,
            faults: Some(plan),
            ..RunnerConfig::default()
        };
        let run = || {
            let mut cloud = CloudSim::new(catalog.clone(), 5, 100);
            cloud.warm_up(8);
            let trace = flat_trace(250.0, &config);
            let mut p = policy(&catalog);
            run_full_stack(&mut p, &mut cloud, &trace, &config)
        };
        let a = run();
        let b = run();
        assert!(a.faults_fired >= 2, "faults fired {}", a.faults_fired);
        assert!(a.revocations > 0, "forced revocation must deliver warnings");
        assert!(
            a.invariant_violations.is_empty(),
            "violations: {:?}",
            a.invariant_violations
        );
        assert_eq!(
            (a.served, a.dropped, a.cost.to_bits()),
            (b.served, b.dropped, b.cost.to_bits())
        );
    }

    #[test]
    fn bad_run_shapes_are_rejected_by_field_name() {
        // Each shape is refused at run entry with a message naming the
        // field; unchecked, an infinite interval's single window never
        // ends and the run never returns.
        let positive = "`interval_secs` must be finite and positive";
        let no_intervals = "need at least one decision interval (`intervals` is 0)";
        let no_sessions = "need at least one session (`sessions` is 0)";
        let cases = [
            (f64::INFINITY, 1, 2000, format!("{positive} (got inf)")),
            (f64::NAN, 24, 2000, format!("{positive} (got NaN)")),
            (0.0, 24, 2000, format!("{positive} (got 0)")),
            (-5.0, 24, 2000, format!("{positive} (got -5)")),
            (600.0, 0, 2000, no_intervals.to_string()),
            (600.0, 24, 0, no_sessions.to_string()),
        ];
        let catalog = Catalog::fig4_testbed();
        for (interval_secs, intervals, sessions, want) in cases {
            let config = RunnerConfig {
                interval_secs,
                intervals,
                sessions,
                ..RunnerConfig::default()
            };
            let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut cloud = CloudSim::new(catalog.clone(), 7, 100);
                let trace = Trace::new(600.0, vec![250.0; 4]);
                run_full_stack(&mut policy(&catalog), &mut cloud, &trace, &config)
            }))
            .expect_err("a bad run shape must be rejected");
            let message = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or_default();
            assert_eq!(message, want);
        }
    }

    #[test]
    fn report_json_is_byte_stable() {
        let r = RunnerReport {
            served: 10,
            dropped: 2,
            drop_fraction: 1.0 / 6.0,
            p50: 0.125,
            p90: 0.25,
            p99: 0.5,
            cost: 3.0,
            revocations: 1,
            migrated_sessions: 4,
            lifetime_relinquishments: 0,
            fleet_sizes: vec![2, 3],
            buckets: Vec::new(),
            faults_fired: 1,
            invariant_violations: vec!["x".to_string()],
            route_epoch_rebuilds: 7,
        };
        let a = report_json(&r);
        assert_eq!(a, report_json(&r.clone()));
        assert!(a.starts_with("{\"served\":10,\"dropped\":2,"));
        assert!(a.contains("\"fleet_sizes\":[2,3]"));
        assert!(a.contains("\"invariant_violations\":[\"x\"]"));
        assert_eq!(report_digest(&r), report_digest(&r.clone()));
    }

    #[test]
    fn runner_flap_drops_then_recovers() {
        use crate::faults::{FaultKind, FaultPlan};
        let catalog = Catalog::fig4_testbed();
        // Flap one backend in every market mid-run (the policy
        // concentrates the fleet in whichever market is cheapest, so
        // hitting all of them guarantees a serving backend crashes);
        // the run must absorb the crash and the restored backend must
        // leave the conservation law intact.
        let mut plan = FaultPlan::new();
        for m in 0..catalog.len() {
            plan = plan.at(
                900.0,
                FaultKind::BackendFlap {
                    target: m,
                    down_secs: 60.0,
                },
            );
        }
        let config = RunnerConfig {
            intervals: 4,
            seed: 5,
            faults: Some(plan),
            ..RunnerConfig::default()
        };
        let mut cloud = CloudSim::new(catalog.clone(), 5, 100);
        cloud.warm_up(8);
        let trace = flat_trace(250.0, &config);
        let mut p = policy(&catalog);
        let r = run_full_stack(&mut p, &mut cloud, &trace, &config);
        assert_eq!(r.faults_fired, catalog.len());
        assert!(
            r.invariant_violations.is_empty(),
            "violations: {:?}",
            r.invariant_violations
        );
        assert!(r.served > 1000, "served {}", r.served);
        // The final interval is past the restore; it must be healthy.
        let last = r.buckets.last().expect("buckets");
        assert_eq!(last.dropped, 0, "post-restore interval still dropping");
    }

    #[test]
    fn telemetry_neither_perturbs_nor_misses_the_run() {
        // A telemetry-enabled run must replay the exact same requests
        // and dollars as a disabled one (the sink only observes), and
        // the trace must carry the per-interval story.
        let catalog = Catalog::fig4_testbed();
        let run = |sink: TelemetrySink| {
            let config = RunnerConfig {
                intervals: 4,
                seed: 9,
                telemetry: sink,
                ..RunnerConfig::default()
            };
            let mut cloud = CloudSim::new(catalog.clone(), 7, 100);
            cloud.warm_up(8);
            let trace = flat_trace(250.0, &config);
            let mut p = policy(&catalog);
            let r = run_full_stack(&mut p, &mut cloud, &trace, &config);
            (r.served, r.dropped, r.cost.to_bits())
        };
        let quiet = run(TelemetrySink::disabled());
        let sink = TelemetrySink::enabled();
        let traced = run(sink.clone());
        assert_eq!(quiet, traced, "telemetry must be a pure observer");
        let events = sink.events();
        let kinds: Vec<&str> = events.iter().map(|e| e.event.kind()).collect();
        assert_eq!(
            kinds.iter().filter(|k| **k == "interval_summary").count(),
            4
        );
        assert_eq!(kinds.iter().filter(|k| **k == "span_start").count(), 4);
        assert_eq!(kinds.iter().filter(|k| **k == "span_end").count(), 4);
        assert!(kinds.contains(&"market_tick"));
        assert!(sink.counter("spotweb_requests_served_total") > 0);
        // Same seed, same config: the export is byte-identical.
        let again = TelemetrySink::enabled();
        run(again.clone());
        assert_eq!(sink.export_jsonl(), again.export_jsonl());
    }

    #[test]
    fn fleet_tracks_load_changes() {
        let catalog = Catalog::fig4_testbed();
        let config = RunnerConfig {
            intervals: 6,
            seed: 2,
            ..RunnerConfig::default()
        };
        let mut cloud = CloudSim::new(catalog.clone(), 3, 100);
        cloud.warm_up(8);
        // Load doubles halfway.
        let mut values = vec![200.0; 3];
        values.extend(vec![500.0; 5]);
        let trace = Trace::new(config.interval_secs, values);
        let mut p = policy(&catalog);
        let r = run_full_stack(&mut p, &mut cloud, &trace, &config);
        assert!(
            r.fleet_sizes.last().unwrap() > r.fleet_sizes.first().unwrap(),
            "fleet {:?} should grow with load",
            r.fleet_sizes
        );
    }
}
