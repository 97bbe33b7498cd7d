//! Criterion bench for the request-level simulator's per-arrival hot
//! path (ISSUE 5): the four operations the batched runner loop touches
//! for every simulated request, plus the telemetry fast path the loop
//! counts through. Wall-clock numbers here are machine-dependent — the
//! committed record is `benchmark/baseline/` (the isolated drivers of
//! the traced `request_path` run time the same calls).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use spotweb_lb::{LoadBalancer, LoadBalancerConfig, RouteOutcome};
use spotweb_sim::engine::{Event, EventQueue};
use spotweb_sim::service::ServiceModel;
use spotweb_sim::CalendarQueue;
use spotweb_telemetry::{names, TelemetrySink};

/// `ServiceModel::admit` + completion retirement: the fixed-slot
/// busy-heap insert that replaced the per-backend `BinaryHeap`.
fn bench_service_admit(c: &mut Criterion) {
    c.bench_function("service_admit_steady_state", |b| {
        let mut svc = ServiceModel::new(500.0, 0.12, 0.0);
        let mut now = 0.0;
        b.iter(|| {
            now += 0.002;
            std::hint::black_box(svc.admit(now));
        });
    });
}

/// Sticky-session routing with admission control — the exact call the
/// runner makes per arrival (route-epoch reads; the fleet is not scanned).
fn bench_lb_route(c: &mut Criterion) {
    let mut group = c.benchmark_group("hot_route");
    for &n in &[8usize, 24] {
        group.bench_with_input(BenchmarkId::new("sessions", n), &n, |b, &n| {
            let mut lb = LoadBalancer::new(LoadBalancerConfig {
                admission_control: true,
                ..LoadBalancerConfig::default()
            });
            for i in 0..n {
                lb.add_backend_up(i % 4, 200.0 + (i % 3) as f64 * 100.0);
            }
            let mut s = 0u64;
            b.iter(|| {
                s = (s + 1) % 10_000;
                if let RouteOutcome::Routed(id) = lb.route(Some(s), 0.0) {
                    lb.complete(id, None);
                }
            });
        });
    }
    group.finish();
}

/// Discrete-event queue schedule + pop round trip (control-plane
/// events only, post-batching — but still on the chaos path).
fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_schedule_pop", |b| {
        let mut q = EventQueue::new();
        let mut t = 0.0;
        b.iter(|| {
            t += 0.001;
            q.schedule(
                t,
                Event::Arrival {
                    request: 1,
                    session: 1,
                },
            );
            std::hint::black_box(q.pop());
        });
    });
}

/// Calendar completion queue push + pop — the structure that replaced
/// the runner's global completion `BinaryHeap`.
fn bench_calendar_queue(c: &mut Criterion) {
    c.bench_function("calendar_push_pop", |b| {
        let mut q = CalendarQueue::new(0.05);
        let mut t = 0.0;
        b.iter(|| {
            t += 0.003;
            q.push(t + 0.12, 3, t);
            std::hint::black_box(q.pop());
        });
    });
}

/// String-keyed `TelemetrySink::count` vs the interned `CounterHandle`
/// and `HistogramHandle` fast paths — the satellite this PR moved the
/// runner, balancer and event queue onto.
fn bench_telemetry_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry_hot");
    group.bench_function("count_string_keyed", |b| {
        let sink = TelemetrySink::enabled();
        b.iter(|| sink.count(names::REQUESTS_SERVED_TOTAL, 1));
    });
    group.bench_function("counter_handle_inc", |b| {
        let sink = TelemetrySink::enabled();
        let handle = sink.counter_handle(names::REQUESTS_SERVED_TOTAL);
        b.iter(|| handle.inc());
    });
    group.bench_function("observe_string_keyed", |b| {
        let sink = TelemetrySink::enabled();
        b.iter(|| sink.observe(names::REQUEST_LATENCY_SECONDS, 0.123));
    });
    group.bench_function("histogram_handle_observe", |b| {
        let sink = TelemetrySink::enabled();
        let handle = sink.histogram_handle(names::REQUEST_LATENCY_SECONDS);
        b.iter(|| handle.observe(0.123));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_service_admit,
    bench_lb_route,
    bench_event_queue,
    bench_calendar_queue,
    bench_telemetry_paths
);
criterion_main!(benches);
