//! Deterministic tracing layer: spans and typed events stamped with
//! the *simulation* clock, recorded into a bounded ring buffer and
//! exportable as byte-stable JSONL.
//!
//! Wall-clock time never enters a trace — timestamps come from the
//! discrete-event simulator, so the same seed and fault plan replay
//! to a byte-identical trace (see DESIGN.md, determinism contract).

use std::collections::VecDeque;

use crate::json::{json_f64, json_f64_array, json_string};
use crate::records::{DecisionRecord, DrainRecord, ForecastRecord};

/// Default ring-buffer capacity (events). Large enough for every
/// event of a multi-hour scenario replay; older events are dropped
/// (and counted) beyond this.
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// A typed trace event. Every variant renders to a flat JSON object
/// with a `kind` discriminator.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A named span opened (e.g. one control interval).
    SpanStart {
        /// Span id, unique within a trace.
        span: u64,
        /// Span name.
        name: String,
    },
    /// A named span closed.
    SpanEnd {
        /// Span id matching the corresponding start.
        span: u64,
        /// Span name (repeated for grep-ability).
        name: String,
    },
    /// An MPO solve completed.
    Decision(DecisionRecord),
    /// A predictor step compared forecast vs. actual.
    Forecast(ForecastRecord),
    /// A backend began draining (warning or decommission).
    Drain(DrainRecord),
    /// A backend died; sessions pinned to it were lost.
    BackendDeath {
        /// Backend id.
        backend: usize,
        /// Market index.
        market: usize,
        /// Sticky sessions lost with it.
        sessions_lost: usize,
    },
    /// A downed backend came back and began warming up.
    BackendRestore {
        /// Backend id.
        backend: usize,
        /// Market index.
        market: usize,
        /// Warm-up period before it serves again.
        warmup_secs: f64,
    },
    /// A replacement server was started for a revoked/expired one.
    ReplacementStarted {
        /// The backend being replaced.
        replaces: usize,
        /// The new backend id.
        backend: usize,
        /// Market the replacement was bought in.
        market: usize,
        /// Sim time the replacement finishes warming up.
        ready_at: f64,
    },
    /// A fault-plan entry fired.
    FaultInjected {
        /// Fault kind (e.g. `correlated_revocation`).
        fault: String,
        /// Human-readable detail.
        detail: String,
    },
    /// One market simulator step: the prices and failure
    /// probabilities every downstream decision saw.
    MarketTick {
        /// Monotonic market step index.
        step: u64,
        /// Spot price per market, $/hour.
        prices: Vec<f64>,
        /// Revocation probability per market.
        failure_probs: Vec<f64>,
    },
    /// End-of-interval rollup from the load-balancer monitor.
    IntervalSummary {
        /// Control interval index.
        interval: u64,
        /// Workload the policy observed at the interval start.
        observed_rps: f64,
        /// Fleet size (servers up or warming) at the interval end.
        fleet_size: u32,
        /// Arrival rate over the monitor window, requests/second.
        arrival_rate: f64,
        /// Completion rate over the monitor window.
        throughput: f64,
        /// Fraction of arrivals dropped in the window.
        drop_rate: f64,
        /// Median request latency in the window.
        p50_latency: f64,
        /// 99th-percentile request latency in the window.
        p99_latency: f64,
    },
    /// Free-form annotation.
    Note {
        /// Short event name.
        name: String,
        /// Detail text.
        detail: String,
    },
}

impl TraceEvent {
    /// The `kind` discriminator string used in JSONL output.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::SpanStart { .. } => "span_start",
            TraceEvent::SpanEnd { .. } => "span_end",
            TraceEvent::Decision(_) => "decision",
            TraceEvent::Forecast(_) => "forecast",
            TraceEvent::Drain(_) => "drain",
            TraceEvent::BackendDeath { .. } => "backend_death",
            TraceEvent::BackendRestore { .. } => "backend_restore",
            TraceEvent::ReplacementStarted { .. } => "replacement_started",
            TraceEvent::FaultInjected { .. } => "fault_injected",
            TraceEvent::MarketTick { .. } => "market_tick",
            TraceEvent::IntervalSummary { .. } => "interval_summary",
            TraceEvent::Note { .. } => "note",
        }
    }

    fn fields_json(&self) -> String {
        match self {
            TraceEvent::SpanStart { span, name } | TraceEvent::SpanEnd { span, name } => {
                format!("\"span\":{span},\"name\":{}", json_string(name))
            }
            TraceEvent::Decision(r) => r.to_json_fields(),
            TraceEvent::Forecast(r) => r.to_json_fields(),
            TraceEvent::Drain(r) => r.to_json_fields(),
            TraceEvent::BackendDeath {
                backend,
                market,
                sessions_lost,
            } => {
                format!(
                    "\"backend\":{backend},\"market\":{market},\"sessions_lost\":{sessions_lost}"
                )
            }
            TraceEvent::BackendRestore {
                backend,
                market,
                warmup_secs,
            } => format!(
                "\"backend\":{backend},\"market\":{market},\"warmup_secs\":{}",
                json_f64(*warmup_secs)
            ),
            TraceEvent::ReplacementStarted {
                replaces,
                backend,
                market,
                ready_at,
            } => format!(
                "\"replaces\":{replaces},\"backend\":{backend},\"market\":{market},\"ready_at\":{}",
                json_f64(*ready_at)
            ),
            TraceEvent::FaultInjected { fault, detail } => format!(
                "\"fault\":{},\"detail\":{}",
                json_string(fault),
                json_string(detail)
            ),
            TraceEvent::MarketTick {
                step,
                prices,
                failure_probs,
            } => format!(
                "\"step\":{step},\"prices\":{},\"failure_probs\":{}",
                json_f64_array(prices),
                json_f64_array(failure_probs)
            ),
            TraceEvent::IntervalSummary {
                interval,
                observed_rps,
                fleet_size,
                arrival_rate,
                throughput,
                drop_rate,
                p50_latency,
                p99_latency,
            } => format!(
                "\"interval\":{interval},\"observed_rps\":{},\"fleet_size\":{fleet_size},\
                 \"arrival_rate\":{},\"throughput\":{},\"drop_rate\":{},\
                 \"p50_latency\":{},\"p99_latency\":{}",
                json_f64(*observed_rps),
                json_f64(*arrival_rate),
                json_f64(*throughput),
                json_f64(*drop_rate),
                json_f64(*p50_latency),
                json_f64(*p99_latency)
            ),
            TraceEvent::Note { name, detail } => format!(
                "\"name\":{},\"detail\":{}",
                json_string(name),
                json_string(detail)
            ),
        }
    }
}

/// A trace event stamped with the sim clock and a sequence number.
#[derive(Debug, Clone, PartialEq)]
pub struct StampedEvent {
    /// Simulation time the event was emitted at.
    pub t: f64,
    /// Monotonic sequence number (total order within a run).
    pub seq: u64,
    /// The event payload.
    pub event: TraceEvent,
}

impl StampedEvent {
    /// Render as one canonical JSONL line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        format!(
            "{{\"t\":{},\"seq\":{},\"kind\":{},{}}}",
            json_f64(self.t),
            self.seq,
            json_string(self.event.kind()),
            self.event.fields_json()
        )
    }
}

/// Bounded ring buffer of stamped trace events plus span bookkeeping.
#[derive(Debug, Clone)]
pub struct Tracer {
    capacity: usize,
    events: VecDeque<StampedEvent>,
    seq: u64,
    dropped: u64,
    next_span: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_TRACE_CAPACITY)
    }
}

impl Tracer {
    /// A tracer retaining at most `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            capacity: capacity.max(1),
            events: VecDeque::new(),
            seq: 0,
            dropped: 0,
            next_span: 0,
        }
    }

    /// Record an event at sim time `t`.
    pub fn record(&mut self, t: f64, event: TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(StampedEvent {
            t,
            seq: self.seq,
            event,
        });
        self.seq += 1;
    }

    /// Open a span; returns its id. The caller passes the id back to
    /// [`Tracer::span_end`].
    pub fn span_start(&mut self, t: f64, name: &str) -> u64 {
        let id = self.next_span;
        self.next_span += 1;
        self.record(
            t,
            TraceEvent::SpanStart {
                span: id,
                name: name.to_string(),
            },
        );
        id
    }

    /// Close a span opened with [`Tracer::span_start`].
    pub fn span_end(&mut self, t: f64, id: u64, name: &str) {
        self.record(
            t,
            TraceEvent::SpanEnd {
                span: id,
                name: name.to_string(),
            },
        );
    }

    /// Events currently retained, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &StampedEvent> {
        self.events.iter()
    }

    /// Number of events evicted by the ring-buffer bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Export the retained events as byte-stable JSONL (one event per
    /// line, trailing newline).
    pub fn export_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in &self.events {
            out.push_str(&ev.to_json_line());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_buffer_evicts_oldest_and_counts_drops() {
        let mut tr = Tracer::with_capacity(2);
        for i in 0..5 {
            tr.record(
                i as f64,
                TraceEvent::Note {
                    name: format!("n{i}"),
                    detail: String::new(),
                },
            );
        }
        assert_eq!(tr.dropped(), 3);
        assert_eq!(tr.seq, 5);
        let seqs: Vec<u64> = tr.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![3, 4]);
    }

    #[test]
    fn spans_nest_by_id() {
        let mut tr = Tracer::default();
        let a = tr.span_start(0.0, "interval_0");
        let b = tr.span_start(1.0, "solve");
        tr.span_end(2.0, b, "solve");
        tr.span_end(3.0, a, "interval_0");
        assert_ne!(a, b);
        let jsonl = tr.export_jsonl();
        assert_eq!(jsonl.lines().count(), 4);
        assert!(jsonl.contains("\"kind\":\"span_start\""));
        assert!(jsonl.contains("\"kind\":\"span_end\""));
    }

    #[test]
    fn jsonl_lines_are_self_contained_objects() {
        let mut tr = Tracer::default();
        tr.record(
            1.5,
            TraceEvent::BackendDeath {
                backend: 3,
                market: 1,
                sessions_lost: 7,
            },
        );
        let line = tr.export_jsonl();
        assert_eq!(
            line,
            "{\"t\":1.5,\"seq\":0,\"kind\":\"backend_death\",\"backend\":3,\
             \"market\":1,\"sessions_lost\":7}\n"
        );
    }
}
