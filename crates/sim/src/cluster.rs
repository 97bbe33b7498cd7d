//! The request-level cluster mechanism — one implementation, two
//! schedulers.
//!
//! The paper's mechanism is one lifecycle (§4.4, Fig. 4(a)): a server
//! is warned, drains and migrates its sessions, a replacement is
//! provisioned reactively, and the server dies — with in-flight work
//! lost only when a server dies under it. [`Cluster`] is the only code
//! in this crate that admits an arrival, resolves a completion (the
//! kill rule), and kills, flaps, restores, retires or provisions a
//! backend. The two event loops only decide *when* each step happens:
//! [`crate::faults::ChaosScenario::run`] at exact event times,
//! [`crate::runner::run_full_stack`] batched per decision interval
//! (DESIGN.md tabulates which scheduler fires which event when).
//!
//! Backends are addressed by [`BackendId`] throughout — ids are dense
//! and never reused, so the per-id vectors here never shift — never by
//! the balancer's live slot, so every verb stays valid whether a
//! scheduler [`retire`](Cluster::retire)s corpses or keeps them.

use spotweb_lb::{
    BackendId, BackendState, LbStats, LoadBalancer, LoadBalancerConfig, RouteOutcome,
};
use spotweb_telemetry::{names, CounterHandle, HistogramHandle, TelemetrySink, TraceEvent};

use crate::faults::{FaultKind, InvariantChecker};
use crate::service::ServiceModel;

/// Base request service time (s) both schedulers' servers run at.
pub(crate) const SERVICE_SECS: f64 = 0.12;

/// Render a fault for its `FaultInjected` trace event as
/// `(fault, detail)`. `flap_target` names what a
/// [`FaultKind::BackendFlap`] target indexes under the calling
/// scheduler (`"backend"` in the chaos loop, `"market"` in the full
/// stack). The price-shock detail is the cluster-only one: a scheduler
/// with a live market lets the market trace its own shocks.
pub fn describe(kind: &FaultKind, flap_target: &str) -> (&'static str, String) {
    match kind {
        FaultKind::CorrelatedRevocation {
            markets,
            warning_secs,
        } => (
            "correlated_revocation",
            match warning_secs {
                Some(w) => format!("markets {markets:?} warning {w}s"),
                None => format!("markets {markets:?} default warning"),
            },
        ),
        FaultKind::BackendFlap { target, down_secs } => (
            "backend_flap",
            format!("{flap_target} {target} down {down_secs}s"),
        ),
        FaultKind::PriceShock { .. } => {
            ("price_shock", "ignored (no market in cluster)".to_string())
        }
        FaultKind::StartupDelay { extra_secs } => ("startup_delay", format!("+{extra_secs}s boot")),
        FaultKind::WarmupStall { extra_secs } => ("warmup_stall", format!("+{extra_secs}s warmup")),
    }
}

/// The balancer, the per-backend service queues and the audit that
/// watches them, behind the lifecycle verbs both schedulers use.
pub struct Cluster {
    lb: LoadBalancer,
    /// Service queue per backend, indexed by [`BackendId`].
    services: Vec<ServiceModel>,
    /// Latest death ever per backend, indexed by [`BackendId`]; never
    /// cleared, so in-flight work spanning a death is classified
    /// correctly even after a restore.
    last_death: Vec<Option<f64>>,
    checker: InvariantChecker,
    sink: TelemetrySink,
    served: CounterHandle,
    killed: CounterHandle,
    latency: HistogramHandle,
    service_secs: f64,
    startup_secs: f64,
    warmup_secs: f64,
    /// Accumulated [`FaultKind::StartupDelay`] / [`FaultKind::WarmupStall`].
    extra_startup: f64,
    extra_warmup: f64,
}

impl Cluster {
    /// An empty cluster whose servers take `service_secs` per request
    /// and, when provisioned later, `startup_secs` to boot and
    /// `warmup_secs` to warm up. `sink` receives the lifecycle trace and
    /// the per-request metrics (through handles interned here, once).
    pub fn new(
        lb: LoadBalancerConfig,
        service_secs: f64,
        startup_secs: f64,
        warmup_secs: f64,
        sink: TelemetrySink,
    ) -> Self {
        let mut lb = LoadBalancer::new(lb);
        lb.set_telemetry(sink.clone());
        Cluster {
            lb,
            services: Vec::new(),
            last_death: Vec::new(),
            checker: InvariantChecker::new(),
            served: sink.counter_handle(names::REQUESTS_SERVED_TOTAL),
            killed: sink.counter_handle(names::REQUESTS_KILLED_IN_FLIGHT_TOTAL),
            latency: sink.histogram_handle(names::REQUEST_LATENCY_SECONDS),
            sink,
            service_secs,
            startup_secs,
            warmup_secs,
            extra_startup: 0.0,
            extra_warmup: 0.0,
        }
    }

    fn install(&mut self, id: BackendId, capacity_rps: f64, warm_until: f64) -> BackendId {
        debug_assert_eq!(id, self.services.len(), "backend ids are dense");
        self.services.push(ServiceModel::new(
            capacity_rps,
            self.service_secs,
            warm_until,
        ));
        self.last_death.push(None);
        id
    }

    /// Add an already-serving, warm backend (cluster bootstrap).
    pub fn bootstrap(&mut self, market: usize, capacity_rps: f64) -> BackendId {
        let id = self.lb.add_backend_up(market, capacity_rps);
        self.install(id, capacity_rps, 0.0)
    }

    /// Start a new server at `now`: it boots for the (possibly stalled)
    /// startup time, then serves cold until its cache is warm. Returns
    /// its id and the time its boot completes.
    pub fn provision(&mut self, market: usize, capacity_rps: f64, now: f64) -> (BackendId, f64) {
        let startup = self.startup_secs + self.extra_startup;
        let warmup = self.warmup_secs + self.extra_warmup;
        let lb = &mut self.lb;
        let id = lb.add_backend(market, capacity_rps, now, startup, warmup);
        self.install(id, capacity_rps, now + startup + warmup);
        (id, now + startup)
    }

    /// Reactive reprovisioning (§4.4): start a same-market,
    /// same-capacity replacement for the live backend `dying` and trace
    /// it. Returns as [`provision`](Self::provision) does.
    pub fn replace(&mut self, dying: BackendId, now: f64) -> (BackendId, f64) {
        let b = self.lb.backend(dying).expect("replace a live backend");
        let (market, capacity_rps) = (b.market, b.capacity_rps);
        let (id, booted_at) = self.provision(market, capacity_rps, now);
        self.sink.emit_at(
            now,
            TraceEvent::ReplacementStarted {
                replaces: dying,
                backend: id,
                market,
                ready_at: booted_at + (self.warmup_secs + self.extra_warmup),
            },
        );
        (id, booted_at)
    }

    /// Route one arrival and queue it on its backend. Returns the
    /// backend and the completion time, or `None` when the balancer
    /// dropped the request (admission control, or nothing to route to).
    #[inline]
    pub fn admit(&mut self, session: u64, now: f64) -> Option<(BackendId, f64)> {
        self.checker.on_arrival();
        match self.lb.route(Some(session), now) {
            RouteOutcome::Routed(b) => {
                self.checker.on_route(&self.lb, b, now);
                Some((b, self.services[b].admit(now)))
            }
            RouteOutcome::Dropped => {
                self.checker.on_dropped_at_admission();
                None
            }
        }
    }

    /// Resolve the completion at `done` of a request admitted to
    /// `backend` at `arrived`. Returns its latency, or `None` when the
    /// server died while the request was in flight — admitted before
    /// the death, finishing after it; a restore in between does not
    /// save it.
    #[inline]
    pub fn complete(&mut self, backend: BackendId, arrived: f64, done: f64) -> Option<f64> {
        match self.last_death[backend] {
            Some(d) if d < done && d >= arrived => {
                self.checker.on_dropped_in_flight();
                self.killed.inc();
                None
            }
            _ => {
                let latency = done - arrived;
                self.lb.complete(backend, None);
                self.checker.on_served();
                self.served.inc();
                self.latency.observe(latency);
                Some(latency)
            }
        }
    }

    /// Deliver a revocation warning with `warning_secs` of notice —
    /// infinite for a graceful scale-down drain; the caller schedules
    /// the death either way. Returns the sessions migrated.
    pub fn warn(&mut self, id: BackendId, now: f64, warning_secs: f64) -> usize {
        self.lb
            .revocation_warning(id, now, warning_secs)
            .migrated_sessions
    }

    /// The server behind `id` is gone as of `at`: its sessions are lost
    /// and whatever it had in flight will resolve as killed. The
    /// backend keeps its row until [`retire`](Self::retire).
    pub fn kill(&mut self, id: BackendId, at: f64) {
        self.lb.server_died(id, at);
        self.services[id].kill();
        self.last_death[id] = Some(at);
    }

    /// Crash `id` without warning if it is serving or booting — the
    /// temporary death of a flap; pair with [`restore`](Self::restore).
    /// Returns whether there was anything to crash (not when `id` is
    /// unknown, retired, draining or already down).
    pub fn flap(&mut self, id: BackendId, at: f64) -> bool {
        let flappable = self
            .lb
            .backend(id)
            .is_some_and(|b| matches!(b.state, BackendState::Up | BackendState::Starting { .. }));
        if flappable {
            self.kill(id, at);
        }
        flappable
    }

    /// A flapped backend returns at `at`, empty and cold.
    pub fn restore(&mut self, id: BackendId, at: f64) {
        let warmup = self.warmup_secs + self.extra_warmup;
        self.lb.restore_backend(id, at, warmup);
        let capacity_rps = self.lb.backend(id).expect("restored").capacity_rps;
        self.services[id] = ServiceModel::new(capacity_rps, self.service_secs, at + warmup);
    }

    /// Compact a permanently dead backend out of the balancer and free
    /// its queues. Completions still pending for it resolve as before
    /// (the death time stays on record); its id is never reused.
    pub fn retire(&mut self, id: BackendId) {
        self.lb.retire(id);
        self.services[id].release();
    }

    /// Serving or booting backends in `markets`, ascending by id — the
    /// victims of a correlated revocation.
    pub fn serving_in(&self, markets: &[usize]) -> Vec<BackendId> {
        self.lb
            .backends()
            .iter()
            .filter(|b| {
                markets.contains(&b.market)
                    && matches!(b.state, BackendState::Up | BackendState::Starting { .. })
            })
            .map(|b| b.id)
            .collect()
    }

    /// Re-program WRR weights from per-market portfolio shares.
    pub fn update_portfolio_weights(&mut self, market_weights: &[f64], now: f64) {
        self.lb.update_portfolio_weights(market_weights, now);
    }

    /// Advance backend lifecycle states to `now`.
    pub fn tick(&mut self, now: f64) {
        self.lb.tick(now);
    }

    /// Run the per-tick invariant checks (see [`InvariantChecker`]).
    pub fn audit(&mut self, now: f64) {
        self.checker.check_tick(&self.lb, now);
    }

    /// A fault fires at `at`: trace it (see [`describe`]) and apply what
    /// needs no scheduling — from now on newly provisioned servers boot
    /// ([`FaultKind::StartupDelay`]) or warm up
    /// ([`FaultKind::WarmupStall`]) that much slower. Revocations, flaps
    /// and price shocks are the scheduler's to act on.
    pub fn inject(&mut self, at: f64, kind: &FaultKind, flap_target: &str) {
        if self.sink.is_enabled() {
            let (fault, detail) = describe(kind, flap_target);
            self.sink.emit_at(
                at,
                TraceEvent::FaultInjected {
                    fault: fault.to_string(),
                    detail,
                },
            );
        }
        match kind {
            FaultKind::StartupDelay { extra_secs } => self.extra_startup += extra_secs,
            FaultKind::WarmupStall { extra_secs } => self.extra_warmup += extra_secs,
            _ => {}
        }
    }

    /// The balancer's running counters.
    pub fn stats(&self) -> LbStats {
        self.lb.stats()
    }

    /// Times the balancer re-scanned the fleet for `route`.
    pub fn epoch_rebuilds(&self) -> u64 {
        self.lb.epoch_rebuilds()
    }

    /// End of run: check nothing is left in flight; yield the audit.
    pub fn finish(mut self) -> (LbStats, InvariantChecker) {
        self.checker.check_drained();
        (self.lb.stats(), self.checker)
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// Three warm 100 req/s backends, one per market; replacements boot
    /// in 10 s and warm up in 5 s; 0.1 s base service time.
    fn cluster() -> Cluster {
        let mut c = Cluster::new(
            LoadBalancerConfig::default(),
            0.1,
            10.0,
            5.0,
            TelemetrySink::enabled(),
        );
        for market in 0..3 {
            c.bootstrap(market, 100.0);
        }
        c
    }

    /// Admit arrivals at `now` (fresh sessions from `session` up, so
    /// stickiness cannot pin them elsewhere) until one lands on
    /// `backend`; returns its completion time.
    fn admit_on(c: &mut Cluster, backend: BackendId, session: u64, now: f64) -> f64 {
        (0..64)
            .find_map(|k| {
                c.admit(session + 100 * k, now)
                    .filter(|&(b, _)| b == backend)
            })
            .map(|(_, done)| done)
            .expect("an arrival lands on the backend")
    }

    /// The latent bug this module retired: `lb.backends()[id]` is only
    /// valid until the first retire. Kill — and, in the runner's mode,
    /// retire — a low id, then flap, restore and replace a higher one.
    fn low_id_death_leaves_higher_ids_addressable(retire_on_death: bool) {
        let mut c = cluster();
        c.kill(0, 1.0);
        if retire_on_death {
            c.retire(0);
        }
        assert!(!c.flap(0, 1.5), "a dead or retired backend cannot flap");
        assert!(!c.flap(17, 1.5), "an unknown backend cannot flap");

        // With backend 0 retired, backend 2 sits in slot 1: every verb
        // must still reach *it*, not its neighbour.
        let done = admit_on(&mut c, 2, 7, 2.0);
        assert!(c.flap(2, 2.01));
        assert_eq!(c.complete(2, 2.0, done), None, "killed in flight");
        assert_eq!(c.serving_in(&[0, 1, 2]), vec![1]);
        c.restore(2, 3.0);
        assert_eq!(c.serving_in(&[0, 1, 2]), vec![1, 2]);
        // A restored backend serves again, cold: twice the base time.
        let done = admit_on(&mut c, 2, 9, 3.5);
        assert!((done - 3.7).abs() < 1e-12, "cold service: {done}");
        assert_eq!(c.complete(2, 3.5, done), Some(done - 3.5));

        let (id, booted_at) = c.replace(2, 4.0);
        assert_eq!((id, booted_at), (3, 14.0));
        let replacement = c.lb.backend(3).expect("provisioned");
        assert_eq!((replacement.market, replacement.capacity_rps), (2, 100.0));
        assert_eq!(c.serving_in(&[2]), vec![2, 3]);
        let traced: Vec<&str> = c.sink.events().iter().map(|e| e.event.kind()).collect();
        for kind in ["backend_death", "backend_restore", "replacement_started"] {
            assert!(traced.contains(&kind), "missing {kind} in {traced:?}");
        }

        c.audit(5.0);
        assert!(c.checker.ok(), "{:?}", c.checker.violations());
    }

    #[test]
    fn ids_stay_valid_when_corpses_are_retired() {
        low_id_death_leaves_higher_ids_addressable(true);
    }

    #[test]
    fn ids_stay_valid_when_corpses_are_kept() {
        low_id_death_leaves_higher_ids_addressable(false);
    }

    #[test]
    fn kill_rule_only_takes_work_in_flight_at_the_death() {
        let mut c = cluster();
        let done = admit_on(&mut c, 1, 1, 0.0);
        // Finished before the server died: served.
        c.kill(1, done + 1.0);
        assert!(c.complete(1, 0.0, done).is_some());
        // Admitted after the restore: the old death precedes `arrived`.
        c.restore(1, done + 2.0);
        let at = done + 3.0;
        let done = admit_on(&mut c, 1, 1, at);
        assert!(c.complete(1, at, done).is_some());
        // Admitted before a second death, finishing after it: killed.
        let done = admit_on(&mut c, 1, 1, at + 1.0);
        c.kill(1, at + 1.01);
        assert_eq!(c.complete(1, at + 1.0, done), None);
        assert_eq!(c.sink.counter(names::REQUESTS_KILLED_IN_FLIGHT_TOTAL), 1);
        assert_eq!(c.sink.counter(names::REQUESTS_SERVED_TOTAL), 2);
    }

    proptest! {
        /// The kill rule does the accounting `ServiceModel::kill` used
        /// to return a count for: of everything admitted around one
        /// death, exactly the requests on the victim that were admitted
        /// by the death and due after it resolve as killed — queued
        /// ones included, finished ones spared — and the dead server's
        /// slots are all free.
        #[test]
        #[cfg_attr(miri, ignore = "a hundred routed admits a case; the unit tests above cover the verbs")]
        fn kill_takes_exactly_the_work_in_flight_at_the_death(
            arrivals in prop::collection::vec((0.0f64..2.0, 0u64..40), 1..120),
            death in 0.0f64..2.5,
            victim in 0usize..3,
        ) {
            let mut c = cluster();
            let mut arrivals = arrivals;
            arrivals.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
            let admit_all = |c: &mut Cluster, batch: &[(f64, u64)]| -> Vec<_> {
                batch
                    .iter()
                    .filter_map(|&(at, session)| {
                        c.admit(session, at).map(|(backend, done)| (backend, at, done))
                    })
                    .collect()
            };
            let (before, after) = arrivals.split_at(arrivals.partition_point(|a| a.0 <= death));
            let mut admitted = admit_all(&mut c, before);
            c.kill(victim, death);
            prop_assert!(c.services[victim].is_idle());
            let after = admit_all(&mut c, after);
            prop_assert!(after.iter().all(|a| a.0 != victim), "routed to the corpse");
            admitted.extend(after);
            let in_flight_at_death = admitted
                .iter()
                .filter(|&&(backend, at, done)| backend == victim && at <= death && death < done)
                .count();
            admitted.sort_by(|a, b| a.2.partial_cmp(&b.2).expect("finite"));
            let killed = admitted
                .iter()
                .filter(|&&(backend, at, done)| c.complete(backend, at, done).is_none())
                .count();
            prop_assert_eq!(killed, in_flight_at_death);
            let (_, checker) = c.finish();
            prop_assert!(checker.ok(), "{:?}", checker.violations());
        }
    }

    /// What the latency histogram would hide: every admit's backend and
    /// exact completion time, every completion's fate, and the migrated
    /// and lost session counts, through overloads that re-pin sessions,
    /// a warning with migration and a cold replacement, a death, and two
    /// flaps with cold restores. A one-ulp drift in a service queue or a
    /// reordered migration fails here even where p50 / p99 would not
    /// move.
    #[test]
    #[cfg_attr(miri, ignore = "twenty thousand routed admits")]
    fn every_admit_and_session_count_is_pinned() {
        use std::collections::BTreeMap;

        use spotweb_telemetry::json::fnv1a64_hex;

        use spotweb_workload::rng::{
            stream_id, CounterStream, DOMAIN_ARRIVAL_SESSION, DOMAIN_SCENARIO_GAP,
        };

        enum Step {
            /// Warn backend 0 (10 s notice) and start its replacement.
            Warn,
            Kill,
            Flap(BackendId),
            Restore(BackendId),
        }
        /// Completions due, in `(done, admission)` order: `(backend, arrived)`.
        type Pending = BTreeMap<(u64, u64), (BackendId, f64)>;
        fn complete_until(c: &mut Cluster, pending: &mut Pending, until: f64, out: &mut Vec<u8>) {
            while let Some(due) = pending.first_entry() {
                if f64::from_bits(due.key().0) > until {
                    break;
                }
                let ((done, _), (backend, arrived)) = due.remove_entry();
                let fate = c.complete(backend, arrived, f64::from_bits(done));
                out.extend(fate.map_or(u64::MAX, f64::to_bits).to_le_bytes());
            }
        }

        let mut c = cluster();
        let gaps = CounterStream::new(7, stream_id(DOMAIN_SCENARIO_GAP, 0));
        let sessions = CounterStream::new(7, stream_id(DOMAIN_ARRIVAL_SESSION, 0));
        let mut steps = [
            (15.0, Step::Warn),
            (25.0, Step::Kill),
            (40.0, Step::Flap(1)),
            (45.0, Step::Restore(1)),
            (60.0, Step::Flap(2)),
            (62.0, Step::Restore(2)),
        ]
        .into_iter()
        .peekable();
        let mut pending = Pending::new();
        let mut bytes = Vec::new();
        let (mut now, mut migrated) = (0.0, 0);
        // The latest completion each backend's queue holds since it
        // last started empty, and how many admits finished before it:
        // only service that got faster at a warm-up's end does that.
        let mut latest = [f64::NEG_INFINITY; 4];
        let mut overtakes = 0;
        for k in 0..20_000u64 {
            // Two 4 s overloads (300 req/s of capacity) re-pin sessions:
            // one before the warning, one before the death.
            let overload = (5.0..9.0).contains(&now) || (20.0..24.0).contains(&now);
            now += gaps.exp_at(k, if overload { 400.0 } else { 150.0 });
            while let Some((at, step)) = steps.next_if(|s| s.0 <= now) {
                complete_until(&mut c, &mut pending, at, &mut bytes);
                c.tick(at);
                match step {
                    Step::Warn => {
                        migrated = c.warn(0, at, 10.0);
                        c.replace(0, at);
                    }
                    Step::Kill => {
                        c.kill(0, at);
                        latest[0] = f64::NEG_INFINITY;
                    }
                    Step::Flap(b) => {
                        assert!(c.flap(b, at));
                        latest[b] = f64::NEG_INFINITY;
                    }
                    Step::Restore(b) => c.restore(b, at),
                }
            }
            complete_until(&mut c, &mut pending, now, &mut bytes);
            c.tick(now);
            match c.admit(sessions.range_at(k, 400), now) {
                Some((backend, done)) => {
                    overtakes += u32::from(done < latest[backend]);
                    latest[backend] = latest[backend].max(done);
                    bytes.extend((backend as u64).to_le_bytes());
                    bytes.extend(done.to_bits().to_le_bytes());
                    pending.insert((done.to_bits(), k), (backend, now));
                }
                None => bytes.push(b'd'),
            }
        }
        complete_until(&mut c, &mut pending, f64::INFINITY, &mut bytes);
        let lost = c.stats().sessions_lost;
        let (_, checker) = c.finish();
        assert!(checker.ok(), "{:?}", checker.violations());
        bytes.extend((migrated as u64).to_le_bytes());
        bytes.extend(lost.to_le_bytes());
        assert_eq!(
            (fnv1a64_hex(&bytes).as_str(), migrated, lost, overtakes),
            ("ee6cb54e7692bf07", 133, 372, 5)
        );
    }

    #[test]
    fn stalls_accumulate_into_later_provisioning() {
        let mut c = cluster();
        c.inject(0.0, &FaultKind::StartupDelay { extra_secs: 2.0 }, "backend");
        c.inject(0.0, &FaultKind::WarmupStall { extra_secs: 1.0 }, "backend");
        let (id, booted_at) = c.provision(1, 50.0, 100.0);
        assert_eq!(booted_at, 112.0);
        let b = c.lb.backend(id).expect("live");
        assert_eq!(b.state, BackendState::Starting { ready_at: 112.0 });
        assert_eq!(b.warm_until, 118.0);
    }

    #[test]
    fn fault_descriptions_are_stable() {
        let flap = FaultKind::BackendFlap {
            target: 2,
            down_secs: 20.0,
        };
        assert_eq!(
            describe(&flap, "market"),
            ("backend_flap", "market 2 down 20s".to_string())
        );
        let storm = FaultKind::CorrelatedRevocation {
            markets: vec![1, 2],
            warning_secs: Some(0.0),
        };
        assert_eq!(describe(&storm, "backend").1, "markets [1, 2] warning 0s");
    }
}
