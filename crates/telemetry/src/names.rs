//! Canonical metric names shared across the workspace.
//!
//! Every producer and consumer of a metric references the same
//! constant, so a renamed counter is a compile error rather than a
//! silently forked time series. Names follow the Prometheus
//! convention: `snake_case`, `_total` suffix on monotonic counters.

/// Counter: successful MPO solves (one per [`decide`] call that
/// reached the solver).
///
/// [`decide`]: https://docs.rs/spotweb-core
pub const MPO_SOLVES_TOTAL: &str = "spotweb_mpo_solves_total";

/// Counter: MPO solves that returned an error (the policy fails
/// static, keeping the previous fleet).
pub const MPO_SOLVE_FAILURES_TOTAL: &str = "spotweb_mpo_solve_failures_total";

/// Counter: cumulative ADMM iterations across all MPO solves —
/// `iterations_total / solves_total` is the mean cost per solve, the
/// number the warm-start fast path is meant to shrink.
pub const ADMM_ITERATIONS_TOTAL: &str = "spotweb_admm_iterations_total";

/// Counter: solves that started from the previous interval's
/// primal/dual iterate (the receding-horizon warm-start path).
pub const MPO_WARM_SOLVES_TOTAL: &str = "spotweb_mpo_warm_solves_total";

/// Counter: solves that cold-started from the zero iterate (first
/// interval, a changed problem dimension, or warm starting disabled).
pub const MPO_COLD_SOLVES_TOTAL: &str = "spotweb_mpo_cold_solves_total";

/// Counter: solves that reused the cached KKT factorization because
/// the market covariance (and problem dimensions) were unchanged —
/// only the linear cost was rebuilt.
pub const MPO_FACTOR_REUSE_TOTAL: &str = "spotweb_mpo_factor_reuse_total";

/// Histogram: ADMM iterations-to-convergence per solve.
pub const ADMM_ITERATIONS_HIST: &str = "spotweb_admm_iterations";

/// Counter: decisions taken by a policy-zoo competitor (one per
/// `decide` call of the factory-built non-MPO policies; the MPO policy
/// reports [`MPO_SOLVES_TOTAL`] instead).
pub const POLICY_DECISIONS_TOTAL: &str = "spotweb_policy_decisions_total";

/// Counter: requests served to completion by the simulated service.
pub const REQUESTS_SERVED_TOTAL: &str = "spotweb_requests_served_total";

/// Counter: in-flight requests killed when their server was revoked
/// before completion (the failover cost Fig. 4a measures).
pub const REQUESTS_KILLED_IN_FLIGHT_TOTAL: &str = "spotweb_requests_killed_in_flight_total";

/// Histogram: end-to-end request latency in (simulated) seconds.
pub const REQUEST_LATENCY_SECONDS: &str = "spotweb_request_latency_seconds";

/// Gauge: servers currently allocated across every market.
pub const FLEET_SIZE: &str = "spotweb_fleet_size";

/// Counter: requests rejected by LB admission control while capacity
/// drained (surfaced per-scenario in ChaosReport).
pub const LB_ADMISSION_REJECTIONS_TOTAL: &str = "spotweb_lb_admission_rejections_total";

/// Counter: requests dropped because no backend was routable at all.
pub const LB_NO_BACKEND_DROPS_TOTAL: &str = "spotweb_lb_no_backend_drops_total";

/// Counter: market simulation steps executed.
pub const MARKET_STEPS_TOTAL: &str = "spotweb_market_steps_total";

/// Counter: server revocations issued by the simulated cloud.
pub const MARKET_REVOCATIONS_TOTAL: &str = "spotweb_market_revocations_total";

/// Counter: discrete events pushed onto the simulator's queue.
pub const SIM_EVENTS_SCHEDULED_TOTAL: &str = "spotweb_sim_events_scheduled_total";

/// Counter: discrete events popped and processed by the simulator.
pub const SIM_EVENTS_PROCESSED_TOTAL: &str = "spotweb_sim_events_processed_total";

/// Counters eligible for the interned fast path
/// ([`crate::sink::CounterHandle`]): the per-event counters the
/// request-level hot loops increment once (or more) per simulated
/// request. Each gets a dense slot indexed by its position here;
/// the slots are merged back into the ordinary registry on every
/// export, so interning never changes rendered output.
pub const INTERNED: &[&str] = &[
    REQUESTS_SERVED_TOTAL,
    REQUESTS_KILLED_IN_FLIGHT_TOTAL,
    LB_ADMISSION_REJECTIONS_TOTAL,
    LB_NO_BACKEND_DROPS_TOTAL,
    SIM_EVENTS_SCHEDULED_TOTAL,
    SIM_EVENTS_PROCESSED_TOTAL,
];

/// Stable dense id of an interned counter name, if it has one.
/// Resolved once at [`CounterHandle`] creation, never per increment.
///
/// [`CounterHandle`]: crate::sink::CounterHandle
pub fn interned_id(name: &str) -> Option<usize> {
    INTERNED.iter().position(|n| *n == name)
}

/// Histograms eligible for the interned fast path
/// ([`crate::sink::HistogramHandle`]): the per-request latency series
/// the simulator observes once per served request. Each name gets a
/// dedicated locked histogram that is the *authoritative* store for
/// that series — string-keyed [`observe`] calls for these names route
/// to the same slot, so the sample sequence is identical no matter
/// which path recorded it.
///
/// [`observe`]: crate::sink::TelemetrySink::observe
pub const HIST_INTERNED: &[&str] = &[REQUEST_LATENCY_SECONDS];

/// Stable dense id of an interned histogram name, if it has one.
pub fn interned_hist_id(name: &str) -> Option<usize> {
    HIST_INTERNED.iter().position(|n| *n == name)
}

// ---------------------------------------------------------------------------
// Profiler span names (crate::prof).
//
// Host-side wall-clock spans, not sim-clock trace spans: these name the
// phases of the *process* that a `prof` session attributes wall time
// and lock waits to. Every span a traced run records must be one of
// these constants (`tests/telemetry.rs` greps this file for the names
// it saw), so the golden-locked span structure cannot drift via an
// inline-literal typo.
// ---------------------------------------------------------------------------

/// Span: one full-stack scenario run (`sim::runner::run_full_stack`).
pub const SPAN_RUNNER_RUN: &str = "runner.run";

/// Span: one billing interval of a run (policy decide, reconcile,
/// arrivals, drain all nest under it).
pub const SPAN_RUNNER_INTERVAL: &str = "runner.interval";

/// Span: control-timepoint work inside an interval — fault firings,
/// revocation warnings, `lb.tick`, interval-head policy + reconcile.
pub const SPAN_RUNNER_CONTROL_BATCH: &str = "runner.control_batch";

/// Span: the tight arrival loop between two control timepoints (route,
/// service start, in-loop completion drain).
pub const SPAN_RUNNER_ARRIVAL_LOOP: &str = "runner.arrival_loop";

/// Span: the end-of-interval / end-of-run completion drains (the
/// in-loop drain is accounted under [`SPAN_RUNNER_ARRIVAL_LOOP`]).
pub const SPAN_RUNNER_DRAIN: &str = "runner.drain";

/// Span: settling the interval's bill through the event-driven
/// billing ledger (`spotweb-market`'s `BillingLedger`) — O(live +
/// died) per interval, replacing the old all-backends scan.
pub const SPAN_RUNNER_BILLING: &str = "runner.billing";

/// Span: the end-of-interval monitor/telemetry rollup — reading the
/// O(1) monitor rates and emitting the interval summary. Measures the
/// tick itself, not instrumentation overhead (no window clone).
pub const SPAN_RUNNER_ROLLUP: &str = "runner.rollup";

/// Span: compacting a permanently dead backend out of the balancer and
/// the service array (`LoadBalancer::retire` + slot release) at the
/// control timepoint where its death fires.
pub const SPAN_RUNNER_COMPACT: &str = "runner.compact";

/// Span: one sweep worker thread's lifetime in
/// `sim::sweep::parallel_map` (count per profile = workers spawned).
pub const SPAN_SWEEP_WORKER: &str = "sweep.worker";

/// Span: one claimed task inside a sweep worker (count per worker =
/// that worker's task share; merged count = total tasks).
pub const SPAN_SWEEP_TASK: &str = "sweep.task";

/// Span: one multi-period portfolio optimization solve
/// (`core::mpo::MpoOptimizer::optimize`).
pub const SPAN_MPO_SOLVE: &str = "mpo.solve";

/// Span: staging one decision's values under [`SPAN_MPO_SOLVE`] — the
/// input checks, `P`'s values and the linear cost, and the fresh QP
/// when they do not fit the held pattern.
pub const SPAN_MPO_SOLVE_BUILD: &str = "mpo.solve.build";

/// Span: the covariance check under [`SPAN_MPO_SOLVE`] (`M` positive
/// semidefinite).
pub const SPAN_MPO_SOLVE_CHECK: &str = "mpo.solve.check";

/// Span: handing the staged values to the solver under
/// [`SPAN_MPO_SOLVE`]: written in place, or a fresh QP re-bound or
/// built into a new solver.
pub const SPAN_MPO_SOLVE_REBIND: &str = "mpo.solve.rebind";

/// Span: the solve under [`SPAN_MPO_SOLVE`]: the polish of the warm
/// start, the ADMM iteration if it needs one, and the certificate.
pub const SPAN_MPO_SOLVE_ITERATE: &str = "mpo.solve.iterate";

/// Span: one load-balancer route decision (`lb::balancer::route`);
/// entered once per simulated request — the hottest span.
pub const SPAN_LB_ROUTE: &str = "lb.route";
