//! Discrete-event web-cluster simulator.
//!
//! The paper's testbed experiments (Fig. 4(a)) run MediaWiki on EC2
//! behind a modified HAProxy and measure request latencies around
//! induced revocations. This crate replaces that testbed with a
//! request-level discrete-event simulation:
//!
//! * [`engine`] — the event queue (time-ordered, deterministic
//!   tie-breaking).
//! * [`service`] — the backend service model: each server is an
//!   `M/D/c`-style multi-slot FIFO queue with concurrency
//!   `c = capacity × service_time`, a base service time calibrated to
//!   the paper's MediaWiki measurements (mean response well under
//!   200 ms at moderate load), doubled service times during the cache
//!   warm-up window, and hard kill on revocation deadline.
//! * [`metrics`] — per-time-bucket latency distributions (quartiles /
//!   p90 / p99), drop and migration counters — the data behind the
//!   Fig. 4(a) boxplot.
//! * [`cluster`] — the request-level mechanism, implemented once:
//!   [`cluster::Cluster`] owns the balancer, the per-backend service
//!   queues and the invariant checker, and is the only code that
//!   admits an arrival, resolves a completion (the kill rule), or
//!   kills, flaps, restores, retires and provisions a backend. Two
//!   *schedulers* drive it: [`faults::ChaosScenario`] (exact-time
//!   events on [`engine`]) and [`runner`] (interval-batched control,
//!   completions on [`calendar`]).
//! * [`faults`] — the deterministic fault-injection harness:
//!   seed-compiled [`faults::FaultPlan`]s (correlated revocations,
//!   zero-warning kills, backend flaps, price shocks, startup/warmup
//!   stalls), the invariant-audited [`faults::ChaosScenario`] loop,
//!   and the named chaos scenarios the regression suite replays.
//! * [`scenario`] — [`scenario::FailoverScenario`], the Fig. 4(a)
//!   experiment (6-server heterogeneous cluster, ~600 req/s, induced
//!   correlated revocation at t ≈ 3 min, reactive replacement within
//!   the warning window) for both the transiency-aware and vanilla
//!   balancers — a configuration of the chaos loop, not a loop.
//! * [`sweep`] — the deterministic parallel sweep engine: fan a grid
//!   of independent (policy, scenario, seed) runs across
//!   `std::thread::scope` workers with byte-identical output at any
//!   jobs count (seed-per-run, stable collection order, no shared
//!   state — see the module docs for the determinism contract).
//! * [`rng`] — the counter-based, draw-order-free generator
//!   (`sample(seed, stream, counter)`): the only sanctioned RNG in
//!   shard-parallel paths, because a stateful sequential stream would
//!   force the arrival loop to stay serial.
//! * [`shard`] — sharded execution of a single run
//!   ([`runner::RunnerConfig::shards`]): per-interval arrival
//!   generation fans out across cores and latency metrics fold in
//!   window order, with reports byte-identical at any shard count;
//!   also the canonical [`shard::report_json`] / [`shard::report_digest`]
//!   renderings that invariance proofs compare.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used)]
#![deny(missing_docs)]

pub mod calendar;
pub mod cluster;
pub mod engine;
pub mod faults;
pub mod metrics;
pub mod rng;
pub mod runner;
pub mod scenario;
pub mod service;
pub mod shard;
pub mod sweep;

pub use calendar::CalendarQueue;
pub use engine::{Event, EventQueue};
pub use faults::{
    ChaosReport, ChaosScenario, FaultKind, FaultPlan, FaultSpec, InvariantChecker, RandomFault,
    Replacement, NAMED_SCENARIOS,
};
pub use metrics::{BucketStats, LatencyRecorder};
pub use runner::{
    run_full_stack, run_full_stack_observed, FleetPolicy, RunnerConfig, RunnerReport,
};
pub use scenario::{FailoverReport, FailoverScenario};
pub use service::ServiceModel;
pub use shard::{nproc, report_digest, report_json};
pub use spotweb_telemetry::{TelemetrySink, TraceEvent};
pub use sweep::{parallel_map, RunSummary};
