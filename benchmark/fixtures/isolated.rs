//! Isolated drivers: each per-request layer called alone, a few
//! million times, in the pattern the runner's arrival loop calls it —
//! arrivals at 10 000 req/s, 0.12 s service, so about 1 200 requests
//! in flight. One harness span wraps each driver; the metric is host
//! nanoseconds per call (or per call pair).

use std::hint::black_box;

use spotweb_lb::{LoadBalancer, LoadBalancerConfig, MonitorWindow, RouteOutcome};
use spotweb_sim::{CalendarQueue, Event, EventQueue, LatencyRecorder, ServiceModel};
use spotweb_telemetry::{names, prof, TelemetrySink};
use spotweb_workload::rng::{stream_id, CounterStream, DOMAIN_ARRIVAL_GAP, DOMAIN_ARRIVAL_SESSION};

use crate::ledger::Ledger;
use crate::measure::{rss_bytes, timed};

const CALLS: u64 = 4_000_000;
/// Records the monitor keeps for the memory probe.
const MONITOR_RECORDS: u64 = 6_000_000;
const RATE_RPS: f64 = 10_000.0;
const SERVICE_SECS: f64 = 0.12;
const SESSIONS: u64 = 2_000;
/// Requests in flight at the rate and service time above.
const IN_FLIGHT: u64 = (RATE_RPS * SERVICE_SECS) as u64;
const GAP_SECS: f64 = 1.0 / RATE_RPS;

/// Run `body` under a harness span; nanoseconds per one of `calls`.
fn ns_per_call(span: &'static str, calls: u64, body: impl FnOnce()) -> f64 {
    let _span = prof::ScopeGuard::enter(span);
    timed(body).1 * 1e9 / calls as f64
}

/// `backends` equal servers behind a transiency-aware balancer sized
/// for the offered rate at the runner's 1.3 headroom.
fn route_complete(backends: usize, sessions: &CounterStream) -> f64 {
    let mut lb = LoadBalancer::new(LoadBalancerConfig::default());
    let capacity = RATE_RPS * 1.3 / backends as f64;
    for b in 0..backends {
        lb.add_backend_up(b % 3, capacity);
    }
    let mut in_flight = std::collections::VecDeque::with_capacity(IN_FLIGHT as usize + 1);
    ns_per_call("bench.lb.route_complete", CALLS, || {
        for k in 0..CALLS {
            let now = k as f64 * GAP_SECS;
            let session = sessions.range_at(k, SESSIONS);
            if let RouteOutcome::Routed(backend) = lb.route(Some(session), now) {
                in_flight.push_back(backend);
            }
            if in_flight.len() as u64 > IN_FLIGHT {
                lb.complete(in_flight.pop_front().expect("non-empty"), None);
            }
        }
        black_box(lb.stats());
    })
}

pub fn run(seed: u64, ledger: &mut Ledger) {
    let gaps = CounterStream::new(seed, stream_id(DOMAIN_ARRIVAL_GAP, 0));
    let sessions = CounterStream::new(seed, stream_id(DOMAIN_ARRIVAL_SESSION, 0));
    ledger.layer(
        "workload.rng.arrival_ns",
        "ns",
        ns_per_call("bench.workload.rng.arrival", CALLS, || {
            let (mut t, mut picked) = (0.0, 0);
            for k in 0..CALLS {
                t += gaps.exp_at(k, RATE_RPS);
                picked ^= sessions.range_at(k, SESSIONS);
            }
            black_box((t, picked));
        }),
    );

    ledger.layer(
        "lb.route_complete_ns.b24",
        "ns",
        route_complete(24, &sessions),
    );
    ledger.layer(
        "lb.route_complete_ns.b96",
        "ns",
        route_complete(96, &sessions),
    );

    ledger.layer(
        "sim.service.admit_release_ns",
        "ns",
        ns_per_call("bench.sim.service.admit_release", CALLS, || {
            // The testbed's largest server type, enough of them for the
            // offered rate, taking arrivals in turn. Each admit also
            // releases the requests that finished before it.
            let mut servers = vec![ServiceModel::new(320.0, SERVICE_SECS, 0.0); 40];
            for k in 0..CALLS {
                let server = &mut servers[(k % 40) as usize];
                black_box(server.admit(k as f64 * GAP_SECS));
            }
        }),
    );

    ledger.layer(
        "sim.calendar.push_pop_ns",
        "ns",
        ns_per_call("bench.sim.calendar.push_pop", CALLS, || {
            let mut calendar = CalendarQueue::new(SERVICE_SECS * 0.5);
            for k in 0..CALLS {
                let now = k as f64 * GAP_SECS;
                calendar.push(now + SERVICE_SECS, (k % 24) as usize, now);
                while calendar.peek_done().is_some_and(|done| done <= now) {
                    black_box(calendar.pop());
                }
            }
        }),
    );

    ledger.layer(
        "sim.engine.schedule_pop_ns",
        "ns",
        ns_per_call("bench.sim.engine.schedule_pop", CALLS, || {
            let mut queue = EventQueue::new();
            for k in 0..CALLS {
                let now = k as f64 * GAP_SECS;
                queue.schedule(
                    now + SERVICE_SECS,
                    Event::Completion {
                        request: k,
                        backend: (k % 24) as usize,
                        arrived: now,
                    },
                );
                while queue.peek_time().is_some_and(|due| due <= now) {
                    black_box(queue.pop());
                }
            }
        }),
    );

    let horizon = CALLS as f64 * GAP_SECS;
    ledger.layer(
        "sim.metrics.record_ns",
        "ns",
        ns_per_call("bench.sim.metrics.record", CALLS, || {
            let mut recorder = LatencyRecorder::new(150.0, horizon);
            for k in 0..CALLS {
                recorder.record(k as f64 * GAP_SECS, SERVICE_SECS + (k % 97) as f64 * 1e-3);
            }
            black_box(recorder.totals());
        }),
    );

    let sink = TelemetrySink::enabled();
    let latency = sink.histogram_handle(names::REQUEST_LATENCY_SECONDS);
    ledger.layer(
        "telemetry.hist.observe_ns",
        "ns",
        ns_per_call("bench.telemetry.hist.observe", CALLS, || {
            for k in 0..CALLS {
                latency.observe(SERVICE_SECS + (k % 97) as f64 * 1e-3);
            }
        }),
    );
    let served = sink.counter_handle(names::REQUESTS_SERVED_TOTAL);
    ledger.layer(
        "telemetry.counter.inc_ns",
        "ns",
        ns_per_call("bench.telemetry.counter.inc", CALLS, || {
            for _ in 0..CALLS {
                served.inc();
            }
        }),
    );
    black_box(sink.counter(names::REQUESTS_SERVED_TOTAL));

    // The monitor keeps one record per request for a whole window; a
    // window longer than the driven span keeps all of them.
    let rss_before = rss_bytes();
    let mut monitor = MonitorWindow::new(MONITOR_RECORDS as f64 * GAP_SECS * 2.0);
    ledger.layer(
        "lb.monitor.record_ns",
        "ns",
        ns_per_call("bench.lb.monitor.record", MONITOR_RECORDS, || {
            for k in 0..MONITOR_RECORDS {
                monitor.record_served(k as f64 * GAP_SECS, SERVICE_SECS);
            }
        }),
    );
    ledger.layer(
        "lb.monitor.bytes_per_record",
        "B",
        (rss_bytes() - rss_before) / MONITOR_RECORDS as f64,
    );
    black_box(monitor.len());
}
