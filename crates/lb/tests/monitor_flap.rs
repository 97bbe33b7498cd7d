//! Monitor coverage under flap/restore cycles (ISSUE 2 satellite):
//! drive a [`MonitorWindow`] the way the simulator does — served
//! requests and drops fed from routing outcomes — through two
//! down/restore cycles of the only backend, and check the utilisation
//! and rate reporting at every phase.

use spotweb_lb::{
    LoadBalancer, LoadBalancerConfig, MonitorWindow, RouteOutcome, TelemetrySink, TraceEvent,
};

const SERVICE_SECS: f64 = 0.05;

/// Offer requests at 10 req/s for `[from, to)`, routing each and
/// feeding the monitor with the outcome, exactly like `sim::runner`.
fn offer(lb: &mut LoadBalancer, monitor: &mut MonitorWindow, from: f64, to: f64) {
    let mut t = from;
    while t < to {
        match lb.route(None, t) {
            RouteOutcome::Routed(b) => {
                monitor.record_served(t, SERVICE_SECS);
                lb.complete(b, None);
            }
            RouteOutcome::Dropped => monitor.record_dropped(t),
        }
        t += 0.1;
    }
}

#[test]
fn monitor_tracks_flap_and_restore_cycles() {
    let mut lb = LoadBalancer::new(LoadBalancerConfig {
        admission_control: false,
        service_secs: SERVICE_SECS,
        ..LoadBalancerConfig::default()
    });
    let sink = TelemetrySink::enabled();
    lb.set_telemetry(sink.clone());
    let backend = lb.add_backend_up(0, 100.0);
    let mut monitor = MonitorWindow::new(10.0);

    for cycle in 0..2 {
        let base = cycle as f64 * 30.0;

        // Healthy phase: everything served, no drops.
        offer(&mut lb, &mut monitor, base, base + 10.0);
        let healthy = monitor.snapshot(base + 10.0);
        assert_eq!(healthy.drop_rate, 0.0, "cycle {cycle}: healthy phase");
        assert!((healthy.arrival_rate - 10.0).abs() < 0.5);
        assert!((healthy.throughput - healthy.arrival_rate).abs() < 1e-9);
        assert!((healthy.mean_latency - SERVICE_SECS).abs() < 1e-12);

        // Flap: the only backend dies; every request in the window
        // after the death is a drop.
        lb.server_died(backend, base + 10.0);
        offer(&mut lb, &mut monitor, base + 10.0, base + 20.0);
        let down = monitor.snapshot(base + 20.0);
        assert!(
            down.drop_rate > 0.95,
            "cycle {cycle}: downtime drop rate {}",
            down.drop_rate
        );
        assert_eq!(down.throughput, 0.0, "cycle {cycle}: nothing served");
        assert!(down.arrival_rate > 9.0, "arrivals keep coming");

        // Restore with a warm-up: service resumes immediately (reduced
        // capacity while warming), the window flushes the drops out.
        lb.restore_backend(backend, base + 20.0, 5.0);
        assert!(lb.backends()[backend].accepts_new(base + 20.0));
        assert!(
            lb.backends()[backend].effective_capacity(base + 22.0) < 100.0,
            "warming backend reports reduced capacity"
        );
        offer(&mut lb, &mut monitor, base + 20.0, base + 30.0);
        let restored = monitor.snapshot(base + 30.0);
        assert_eq!(restored.drop_rate, 0.0, "cycle {cycle}: recovered");
        assert!((restored.throughput - 10.0).abs() < 0.5);
        assert_eq!(
            lb.backends()[backend].effective_capacity(base + 30.0),
            100.0,
            "fully warm after the warm-up window"
        );
    }

    // Both cycles were traced: two deaths, two restores, in order.
    let events = sink.events();
    let deaths = events
        .iter()
        .filter(|e| matches!(e.event, TraceEvent::BackendDeath { .. }))
        .count();
    let restores = events
        .iter()
        .filter(|e| matches!(e.event, TraceEvent::BackendRestore { .. }))
        .count();
    assert_eq!(deaths, 2);
    assert_eq!(restores, 2);
}

/// The monitor's utilisation inputs (throughput vs. capacity) reflect
/// the warm-up ramp after a restore: with the same offered load, a
/// warming backend runs at higher utilisation than a warm one.
#[test]
fn warming_backend_reports_higher_utilization() {
    let mut lb = LoadBalancer::new(LoadBalancerConfig {
        admission_control: false,
        service_secs: SERVICE_SECS,
        ..LoadBalancerConfig::default()
    });
    let backend = lb.add_backend_up(0, 100.0);
    lb.server_died(backend, 10.0);
    lb.restore_backend(backend, 20.0, 10.0);
    for _ in 0..3 {
        assert_eq!(lb.route(None, 20.0), RouteOutcome::Routed(backend));
    }
    let warming = lb.backends()[backend].utilization(21.0, SERVICE_SECS);
    let warm = lb.backends()[backend].utilization(31.0, SERVICE_SECS);
    assert!(
        warming > warm,
        "warming utilisation {warming} must exceed warm {warm}"
    );
    assert!(warm > 0.0);
}
