//! The [`TelemetrySink`] façade: a cheap, cloneable handle threaded
//! through every crate in the workspace.
//!
//! A disabled sink (the default) is a `None` and every call on it is
//! a no-op — production code paths pay one branch when telemetry is
//! off. An enabled sink shares one [`Telemetry`] store across all its
//! clones, so the runner, balancer, market, predictor, and policy all
//! write into the same trace and metrics registry.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::hist::StreamingHistogram;
use crate::metrics::MetricsRegistry;
use crate::names;
use crate::trace::{StampedEvent, TraceEvent, Tracer, DEFAULT_TRACE_CAPACITY};

/// The shared telemetry store behind an enabled sink.
#[derive(Debug, Default)]
pub struct Telemetry {
    /// Trace ring buffer.
    pub tracer: Tracer,
    /// Metrics registry.
    pub metrics: MetricsRegistry,
    clock: f64,
}

/// The store behind an enabled sink: the locked [`Telemetry`] plus a
/// dense lock-free slot per interned counter ([`names::INTERNED`]) and
/// a dedicated locked histogram per interned histogram name
/// ([`names::HIST_INTERNED`]). Interned increments land in the slots
/// without taking the store lock or allocating; every read path merges
/// the slots back into the ordinary registry first, so rendered output
/// never depends on which path a counter took.
///
/// The histogram slots use replace-on-read rather than merge-on-read:
/// each slot is the *only* place samples for its name accumulate
/// (string-keyed [`TelemetrySink::observe`] calls route here too), so
/// a read clones the slot into the registry wholesale. That keeps the
/// exported `sum` bit-identical to sequential recording — a partial
/// merge would re-associate the floating-point additions.
#[derive(Debug)]
struct SinkShared {
    store: Mutex<Telemetry>,
    dense: Vec<AtomicU64>,
    hist_dense: Vec<PaddedHistSlot>,
}

/// One interned histogram slot, padded to a cache line.
///
/// Parallel sweep workers each own a sink, but within one run the
/// arrival loop and the drain both hammer the same latency slot; the
/// alignment guarantees two adjacent slots (or a slot and the `dense`
/// counter array) can never share a line, ruling false sharing in or
/// out of the jobs-N scaling picture by construction (ISSUE 7). The
/// wrapper changes memory layout only: flush output is byte-identical.
#[derive(Debug)]
#[repr(align(64))]
struct PaddedHistSlot(Mutex<StreamingHistogram>);

impl PaddedHistSlot {
    /// Lock the slot, timing the acquisition wait into the active
    /// profiling span (no-op wait timer when profiling is off).
    fn lock_timed(&self) -> std::sync::MutexGuard<'_, StreamingHistogram> {
        let wait = crate::prof::lock_timer();
        let guard = self.0.lock().expect("telemetry hist lock poisoned");
        wait.done();
        guard
    }
}

impl SinkShared {
    /// Merge the dense slots into the registry (caller holds the lock).
    fn flush_dense(&self, tel: &mut Telemetry) {
        for (id, slot) in self.dense.iter().enumerate() {
            let v = slot.swap(0, Ordering::Relaxed);
            if v > 0 {
                tel.metrics.counter_add(names::INTERNED[id], v);
            }
        }
        for (id, slot) in self.hist_dense.iter().enumerate() {
            let h = slot.lock_timed();
            if !h.is_empty() {
                tel.metrics
                    .histogram_set(names::HIST_INTERNED[id], h.clone());
            }
        }
    }
}

/// An O(1), allocation-free increment handle to one counter of one
/// sink, resolved once via [`TelemetrySink::counter_handle`].
///
/// The hot-loop replacement for [`TelemetrySink::count`], whose
/// per-call cost (mutex + `String` allocation + `BTreeMap` probe) is
/// measurable at millions of increments per second. An interned name
/// (see [`names::INTERNED`]) increments a dense atomic slot; a
/// non-interned name falls back to the ordinary slow path; a handle
/// from a disabled sink is a no-op. All three are observationally
/// identical — exports are byte-for-byte the same either way.
#[derive(Debug, Clone, Default)]
pub struct CounterHandle {
    fast: Option<(Arc<SinkShared>, usize)>,
    slow: Option<(Arc<SinkShared>, &'static str)>,
}

impl CounterHandle {
    /// Add `delta` to the counter (no-op when the sink is disabled).
    #[inline]
    pub fn add(&self, delta: u64) {
        if let Some((shared, id)) = &self.fast {
            shared.dense[*id].fetch_add(delta, Ordering::Relaxed);
        } else if let Some((shared, name)) = &self.slow {
            let mut tel = shared.store.lock().expect("telemetry lock poisoned");
            tel.metrics.counter_add(name, delta);
        }
    }

    /// Increment the counter by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }
}

/// An allocation-free sample handle to one streaming histogram of one
/// sink, resolved once via [`TelemetrySink::histogram_handle`].
///
/// The hot-loop replacement for [`TelemetrySink::observe`], whose
/// per-call cost (store mutex + `String` allocation + `BTreeMap`
/// probe) dominates the drain path at millions of served requests per
/// second. An interned name ([`names::HIST_INTERNED`]) records into
/// the name's dedicated slot — the authoritative store for that
/// series — under its own uncontended lock; a non-interned name falls
/// back to the ordinary slow path; a handle from a disabled sink is a
/// no-op. Exports are byte-for-byte identical on every path.
#[derive(Debug, Clone, Default)]
pub struct HistogramHandle {
    fast: Option<(Arc<SinkShared>, usize)>,
    slow: Option<(Arc<SinkShared>, &'static str)>,
}

impl HistogramHandle {
    /// Fold `v` into the histogram (no-op when the sink is disabled).
    #[inline]
    pub fn observe(&self, v: f64) {
        if let Some((shared, id)) = &self.fast {
            shared.hist_dense[*id].lock_timed().record(v);
        } else if let Some((shared, name)) = &self.slow {
            let mut tel = shared.store.lock().expect("telemetry lock poisoned");
            tel.metrics.observe(name, v);
        }
    }
}

/// Cheap cloneable handle to a shared [`Telemetry`] store; disabled
/// (all calls no-ops) by default.
#[derive(Clone, Default)]
pub struct TelemetrySink {
    inner: Option<Arc<SinkShared>>,
}

impl fmt::Debug for TelemetrySink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.inner.is_some() {
            f.write_str("TelemetrySink(enabled)")
        } else {
            f.write_str("TelemetrySink(disabled)")
        }
    }
}

impl TelemetrySink {
    /// A disabled sink: every call is a no-op.
    pub fn disabled() -> Self {
        TelemetrySink { inner: None }
    }

    /// An enabled sink with the default trace capacity.
    pub fn enabled() -> Self {
        Self::with_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// An enabled sink retaining at most `capacity` trace events.
    pub fn with_capacity(capacity: usize) -> Self {
        TelemetrySink {
            inner: Some(Arc::new(SinkShared {
                store: Mutex::new(Telemetry {
                    tracer: Tracer::with_capacity(capacity),
                    ..Telemetry::default()
                }),
                dense: names::INTERNED.iter().map(|_| AtomicU64::new(0)).collect(),
                hist_dense: names::HIST_INTERNED
                    .iter()
                    .map(|_| PaddedHistSlot(Mutex::new(StreamingHistogram::new())))
                    .collect(),
            })),
        }
    }

    /// Whether this sink records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Resolve an O(1) increment handle for `name` (see
    /// [`CounterHandle`]). The name lookup happens here, once; the
    /// returned handle never locks, allocates, or compares strings on
    /// the interned fast path.
    pub fn counter_handle(&self, name: &'static str) -> CounterHandle {
        match &self.inner {
            None => CounterHandle::default(),
            Some(shared) => match names::interned_id(name) {
                Some(id) => CounterHandle {
                    fast: Some((Arc::clone(shared), id)),
                    slow: None,
                },
                None => CounterHandle {
                    fast: None,
                    slow: Some((Arc::clone(shared), name)),
                },
            },
        }
    }

    /// Resolve an allocation-free sample handle for `name` (see
    /// [`HistogramHandle`]). The name lookup happens here, once.
    pub fn histogram_handle(&self, name: &'static str) -> HistogramHandle {
        match &self.inner {
            None => HistogramHandle::default(),
            Some(shared) => match names::interned_hist_id(name) {
                Some(id) => HistogramHandle {
                    fast: Some((Arc::clone(shared), id)),
                    slow: None,
                },
                None => HistogramHandle {
                    fast: None,
                    slow: Some((Arc::clone(shared), name)),
                },
            },
        }
    }

    fn with<R>(&self, f: impl FnOnce(&mut Telemetry) -> R) -> Option<R> {
        self.inner
            .as_ref()
            .map(|m| f(&mut m.store.lock().expect("telemetry lock poisoned")))
    }

    /// Like [`with`](Self::with), but merges the dense interned-counter
    /// slots into the registry first — every path that *reads* metrics
    /// goes through here so [`CounterHandle`] increments are always
    /// visible and exports stay byte-identical to the slow path.
    fn with_flushed<R>(&self, f: impl FnOnce(&mut Telemetry) -> R) -> Option<R> {
        self.inner.as_ref().map(|m| {
            let mut tel = m.store.lock().expect("telemetry lock poisoned");
            m.flush_dense(&mut tel);
            f(&mut tel)
        })
    }

    /// Set the ambient simulation clock; subsequent [`emit`](Self::emit)
    /// calls stamp events with this time.
    pub fn set_clock(&self, t: f64) {
        self.with(|tel| tel.clock = t);
    }

    /// Record an event at the ambient clock.
    pub fn emit(&self, event: TraceEvent) {
        self.with(|tel| {
            let t = tel.clock;
            tel.tracer.record(t, event);
        });
    }

    /// Record an event at an explicit sim time (for callers that are
    /// handed `now` directly, like the load balancer).
    pub fn emit_at(&self, t: f64, event: TraceEvent) {
        self.with(|tel| tel.tracer.record(t, event));
    }

    /// Open a span at the ambient clock; returns its id (0 when
    /// disabled — safe to pass back to [`span_end`](Self::span_end)).
    pub fn span_start(&self, name: &str) -> u64 {
        self.with(|tel| {
            let t = tel.clock;
            tel.tracer.span_start(t, name)
        })
        .unwrap_or(0)
    }

    /// Close a span opened with [`span_start`](Self::span_start).
    pub fn span_end(&self, id: u64, name: &str) {
        self.with(|tel| {
            let t = tel.clock;
            tel.tracer.span_end(t, id, name);
        });
    }

    /// Add `delta` to a named counter.
    pub fn count(&self, name: &str, delta: u64) {
        self.with(|tel| tel.metrics.counter_add(name, delta));
    }

    /// Read a named counter (0 when disabled or never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.with_flushed(|tel| tel.metrics.counter(name))
            .unwrap_or(0)
    }

    /// Set a named gauge.
    pub fn gauge(&self, name: &str, v: f64) {
        self.with(|tel| tel.metrics.gauge_set(name, v));
    }

    /// Fold a sample into a named streaming histogram. Interned names
    /// ([`names::HIST_INTERNED`]) record into the name's dedicated
    /// slot — the same one [`HistogramHandle`] uses — so the sample
    /// sequence stays in one place regardless of the call path.
    pub fn observe(&self, name: &str, v: f64) {
        let Some(shared) = &self.inner else { return };
        match names::interned_hist_id(name) {
            Some(id) => shared.hist_dense[id].lock_timed().record(v),
            None => shared
                .store
                .lock()
                .expect("telemetry lock poisoned")
                .metrics
                .observe(name, v),
        }
    }

    /// Snapshot of the retained trace events, oldest first.
    pub fn events(&self) -> Vec<StampedEvent> {
        self.with(|tel| tel.tracer.events().cloned().collect())
            .unwrap_or_default()
    }

    /// Number of trace events evicted by the ring-buffer bound.
    pub fn dropped_events(&self) -> u64 {
        self.with(|tel| tel.tracer.dropped()).unwrap_or(0)
    }

    /// Export the trace as byte-stable JSONL (empty when disabled).
    pub fn export_jsonl(&self) -> String {
        self.with(|tel| tel.tracer.export_jsonl())
            .unwrap_or_default()
    }

    /// Render the metrics registry in Prometheus text format (empty
    /// when disabled).
    pub fn render_prometheus(&self) -> String {
        self.with_flushed(|tel| tel.metrics.render_prometheus())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_is_a_no_op() {
        let sink = TelemetrySink::disabled();
        sink.set_clock(5.0);
        sink.count("x", 1);
        sink.emit(TraceEvent::Note {
            name: "n".to_string(),
            detail: String::new(),
        });
        assert!(!sink.is_enabled());
        assert_eq!(sink.counter("x"), 0);
        assert_eq!(sink.export_jsonl(), "");
        assert_eq!(sink.render_prometheus(), "");
    }

    #[test]
    fn clones_share_one_store() {
        let a = TelemetrySink::enabled();
        let b = a.clone();
        a.set_clock(10.0);
        b.count("shared_total", 2);
        b.emit(TraceEvent::Note {
            name: "from_b".to_string(),
            detail: String::new(),
        });
        assert_eq!(a.counter("shared_total"), 2);
        let events = a.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].t, 10.0);
    }

    #[test]
    fn counter_handle_is_indistinguishable_from_count() {
        // Two sinks, same increments: one through the interned handle,
        // one through the slow path. Every export must be identical.
        let fast = TelemetrySink::enabled();
        let slow = TelemetrySink::enabled();
        let h = fast.counter_handle(names::REQUESTS_SERVED_TOTAL);
        for _ in 0..3 {
            h.inc();
            slow.count(names::REQUESTS_SERVED_TOTAL, 1);
        }
        h.add(4);
        slow.count(names::REQUESTS_SERVED_TOTAL, 4);
        fast.count("spotweb_other_total", 2);
        slow.count("spotweb_other_total", 2);
        assert_eq!(fast.counter(names::REQUESTS_SERVED_TOTAL), 7);
        assert_eq!(fast.render_prometheus(), slow.render_prometheus());
        // Reads are repeatable (the flush is a merge, not a reset of
        // the visible value).
        assert_eq!(fast.counter(names::REQUESTS_SERVED_TOTAL), 7);
    }

    #[test]
    fn counter_handle_fallbacks() {
        // A non-interned name still counts, through the slow path.
        let sink = TelemetrySink::enabled();
        let h = sink.counter_handle("spotweb_custom_total");
        h.add(5);
        assert_eq!(sink.counter("spotweb_custom_total"), 5);
        // A disabled sink yields a no-op handle.
        let off = TelemetrySink::disabled().counter_handle(names::REQUESTS_SERVED_TOTAL);
        off.inc();
        assert_eq!(
            TelemetrySink::disabled().counter(names::REQUESTS_SERVED_TOTAL),
            0
        );
    }

    #[test]
    fn histogram_handle_is_indistinguishable_from_observe() {
        // Same samples through three paths: the interned handle, the
        // string-keyed sink call (which routes to the same slot), and
        // a slow-path-only sink using a non-interned name. Renders
        // must agree bit-for-bit, including the floating-point sum.
        let fast = TelemetrySink::enabled();
        let slow = TelemetrySink::enabled();
        let h = fast.histogram_handle(names::REQUEST_LATENCY_SECONDS);
        let samples = [0.125, 0.0625, 3.5, 0.125, 0.01171875];
        for (k, v) in samples.iter().enumerate() {
            if k % 2 == 0 {
                h.observe(*v);
            } else {
                fast.observe(names::REQUEST_LATENCY_SECONDS, *v);
            }
            slow.observe(names::REQUEST_LATENCY_SECONDS, *v);
        }
        assert_eq!(fast.render_prometheus(), slow.render_prometheus());
        // Reads are repeatable (replace-on-read, not merge-on-read).
        assert_eq!(fast.render_prometheus(), slow.render_prometheus());
        // The slow fallback and the disabled no-op still work.
        let custom = fast.histogram_handle("spotweb_custom_seconds");
        custom.observe(1.0);
        assert!(fast.render_prometheus().contains("spotweb_custom_seconds"));
        TelemetrySink::disabled()
            .histogram_handle(names::REQUEST_LATENCY_SECONDS)
            .observe(1.0);
    }

    #[test]
    fn handles_share_the_store_with_clones() {
        let a = TelemetrySink::enabled();
        let b = a.clone();
        let h = b.counter_handle(names::SIM_EVENTS_PROCESSED_TOTAL);
        h.add(2);
        assert_eq!(a.counter(names::SIM_EVENTS_PROCESSED_TOTAL), 2);
    }
}
