//! # spotweb-telemetry
//!
//! Deterministic observability for the SpotWeb stack: structured
//! tracing, streaming metrics, and decision-explain records.
//!
//! Three layers, all dependency-free (std only) so the crate can be
//! threaded through every other crate in the workspace, including the
//! otherwise dependency-free load balancer:
//!
//! 1. **Tracing** ([`trace`]) — spans and typed events stamped with
//!    the *simulation* clock, kept in a bounded ring buffer and
//!    exported as byte-stable JSONL. Same seed + same fault plan ⇒
//!    byte-identical trace (the determinism contract; see DESIGN.md).
//! 2. **Metrics** ([`metrics`], [`hist`]) — counters, gauges, and a
//!    log-bucketed mergeable streaming histogram (HDR-style, ~0.5%
//!    relative error, `O(buckets)` memory) with Prometheus-style text
//!    exposition.
//! 3. **Decision-explain records** ([`records`]) — why the MPO chose
//!    the markets it chose ([`DecisionRecord`]), what the predictor
//!    forecast vs. what happened ([`ForecastRecord`]), and how a
//!    revocation drain migrated sessions ([`DrainRecord`]).
//!
//! The entry point is [`TelemetrySink`]: a cheap cloneable handle,
//! disabled by default (every call a no-op), that all subsystems
//! share when enabled.
//!
//! Nothing above reads the wall clock. The one host-side module is
//! [`prof`] — scoped wall-clock span trees for attributing where a run
//! spends its time — and only its span *structure* is deterministic.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used)]
#![deny(missing_docs)]

pub mod hist;
pub mod json;
pub mod metrics;
pub mod names;
pub mod prof;
pub mod records;
pub mod sink;
pub mod trace;

pub use hist::StreamingHistogram;
pub use metrics::MetricsRegistry;
pub use records::{DecisionRecord, DrainRecord, ForecastRecord, MarketEval};
pub use sink::{CounterHandle, HistogramHandle, Telemetry, TelemetrySink};
pub use trace::{StampedEvent, TraceEvent, Tracer};
