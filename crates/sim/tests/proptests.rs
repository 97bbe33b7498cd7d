//! Property tests on the discrete-event substrate: the service queue's
//! work-conservation laws, the event queue's ordering guarantees, and
//! the fault-injection harness's conservation invariants under
//! arbitrary fault plans.

use proptest::prelude::*;
use spotweb_sim::engine::{Event, EventQueue};
use spotweb_sim::scenario::ServerSpec;
use spotweb_sim::service::ServiceModel;
use spotweb_sim::{ChaosScenario, FaultKind, FaultPlan};

/// Decode a generated `(time, kind, knob)` triple into a fault. The
/// knob picks targets/durations so shrinking stays meaningful.
fn decode_fault(time: f64, kind: u8, knob: f64) -> (f64, FaultKind) {
    let fault = match kind % 5 {
        0 => FaultKind::CorrelatedRevocation {
            markets: vec![(knob as usize) % 2],
            warning_secs: None,
        },
        1 => FaultKind::CorrelatedRevocation {
            markets: vec![0, 1],
            warning_secs: Some(knob.clamp(0.0, 30.0)),
        },
        2 => FaultKind::BackendFlap {
            target: (knob as usize) % 2,
            down_secs: 5.0 + knob.clamp(0.0, 35.0),
        },
        3 => FaultKind::StartupDelay {
            extra_secs: knob.clamp(0.0, 30.0),
        },
        _ => FaultKind::WarmupStall {
            extra_secs: knob.clamp(0.0, 30.0),
        },
    };
    (time, fault)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Completions never precede their admissions plus the minimum
    /// service time, and admissions at the same server never finish
    /// out of order (FIFO).
    #[test]
    fn service_model_fifo_and_causal(
        arrivals in prop::collection::vec(0.0f64..100.0, 1..100),
        capacity in 5.0f64..200.0,
        service in 0.01f64..0.5,
    ) {
        let mut sorted = arrivals.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut s = ServiceModel::new(capacity, service, 0.0);
        let mut last_done = 0.0;
        for &t in &sorted {
            let done = s.admit(t);
            prop_assert!(done >= t + service - 1e-9, "done {done} before {t}+service");
            prop_assert!(done + 1e-9 >= last_done, "FIFO violated: {done} < {last_done}");
            last_done = done;
        }
    }

    /// Under sustained load below capacity, waiting time stays bounded
    /// by a few service times.
    #[test]
    fn underload_has_bounded_wait(
        capacity in 20.0f64..200.0,
        service in 0.05f64..0.2,
        load_factor in 0.1f64..0.7,
    ) {
        let mut s = ServiceModel::new(capacity, service, 0.0);
        let rate = capacity * load_factor;
        let n = 2000;
        let mut worst: f64 = 0.0;
        for k in 0..n {
            let t = k as f64 / rate;
            worst = worst.max(s.admit(t) - t);
        }
        prop_assert!(
            worst <= 3.0 * service + 1e-9,
            "worst wait {worst} vs service {service} at load {load_factor}"
        );
    }

    /// Conservation holds under *arbitrary* fault plans: however the
    /// cluster is revoked, flapped, or stalled, every request is
    /// accounted as served or dropped, nothing routes to a dead
    /// backend, and the run is reproducible from its seed.
    #[test]
    fn chaos_conserves_requests_under_arbitrary_plans(
        faults in prop::collection::vec(
            (20.0f64..200.0, 0u8..5, 0.0f64..40.0),
            0..6,
        ),
        seed in 0u64..1000,
    ) {
        let mut plan = FaultPlan::new();
        for &(time, kind, knob) in &faults {
            let (at, fault) = decode_fault(time, kind, knob);
            plan = plan.at(at, fault);
        }
        let scenario = ChaosScenario {
            servers: vec![
                ServerSpec { market: 0, capacity_rps: 100.0 },
                ServerSpec { market: 1, capacity_rps: 100.0 },
            ],
            arrival_rps: 110.0,
            duration_secs: 220.0,
            sessions: 100,
            seed,
            plan: plan.clone(),
            ..ChaosScenario::default()
        };
        let report = scenario.run();
        prop_assert!(
            report.invariants_ok(),
            "violations under plan {:?}: {:?}",
            plan,
            report.invariant_violations
        );
        prop_assert!(report.served > 0, "nothing served under {:?}", plan);
        // Reproducibility: the identical scenario replays byte-equal.
        let again = ChaosScenario {
            servers: vec![
                ServerSpec { market: 0, capacity_rps: 100.0 },
                ServerSpec { market: 1, capacity_rps: 100.0 },
            ],
            arrival_rps: 110.0,
            duration_secs: 220.0,
            sessions: 100,
            seed,
            plan,
            ..ChaosScenario::default()
        };
        prop_assert_eq!(report.to_json_pretty(), again.run().to_json_pretty());
    }

    /// The event queue is a total order: pops are non-decreasing in
    /// time and FIFO within a timestamp.
    #[test]
    fn event_queue_total_order(times in prop::collection::vec(0.0f64..1000.0, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(t, Event::ServerReady { backend: i });
        }
        let mut last_t = f64::NEG_INFINITY;
        let mut seen_at_t: Vec<usize> = Vec::new();
        while let Some((t, e)) = q.pop() {
            prop_assert!(t >= last_t);
            let Event::ServerReady { backend: id } = e else {
                unreachable!()
            };
            if t == last_t {
                if let Some(&prev) = seen_at_t.last() {
                    prop_assert!(id > prev, "FIFO within timestamp violated");
                }
                seen_at_t.push(id);
            } else {
                seen_at_t.clear();
                seen_at_t.push(id);
            }
            last_t = t;
        }
    }
}
