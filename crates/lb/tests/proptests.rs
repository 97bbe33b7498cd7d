//! Property tests on the load balancer: routing proportionality,
//! in-flight accounting, and failover invariants across randomized
//! cluster shapes.

use proptest::prelude::*;
use spotweb_lb::admission::AdmissionDecision;
use spotweb_lb::{
    AdmissionController, Backend, BackendId, BackendState, LbStats, LoadBalancer,
    LoadBalancerConfig, RouteOutcome, SessionTable, SmoothWrr,
};

fn balancer(capacities: &[f64], aware: bool, admission: bool) -> LoadBalancer {
    let mut lb = LoadBalancer::new(LoadBalancerConfig {
        transiency_aware: aware,
        admission_control: admission,
        ..LoadBalancerConfig::default()
    });
    for (m, &c) in capacities.iter().enumerate() {
        lb.add_backend_up(m % 3, c);
    }
    lb
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Weighted routing distributes in proportion to capacity: over one
    /// full WRR cycle every backend's share is exact.
    #[test]
    fn wrr_share_proportional(
        caps in prop::collection::vec(50.0f64..500.0, 2..6),
    ) {
        // Integer-ish weights so a full cycle is well-defined: round
        // capacities to multiples of 50.
        let caps: Vec<f64> = caps.iter().map(|c| (c / 50.0).round() * 50.0).collect();
        let total: f64 = caps.iter().sum();
        let cycle = (total / 50.0) as usize;
        let mut lb = balancer(&caps, true, false);
        let mut counts = vec![0usize; caps.len()];
        for _ in 0..cycle {
            match lb.route(None, 0.0) {
                RouteOutcome::Routed(b) => {
                    counts[b] += 1;
                    lb.complete(b, None);
                }
                RouteOutcome::Dropped => prop_assert!(false, "must route"),
            }
        }
        for (b, &c) in counts.iter().enumerate() {
            let expected = (caps[b] / 50.0) as usize;
            prop_assert_eq!(c, expected, "backend {} got {} expected {}", b, c, expected);
        }
    }

    /// In-flight accounting: routes minus completes equals the sum of
    /// in-flight counters.
    #[test]
    fn in_flight_conserved(
        caps in prop::collection::vec(50.0f64..500.0, 1..5),
        ops in prop::collection::vec(prop::bool::ANY, 1..200),
    ) {
        let mut lb = balancer(&caps, true, false);
        let mut outstanding: Vec<usize> = Vec::new();
        for complete in ops {
            if complete {
                if let Some(b) = outstanding.pop() {
                    lb.complete(b, None);
                }
            } else if let RouteOutcome::Routed(b) = lb.route(None, 0.0) {
                outstanding.push(b);
            }
        }
        let total_in_flight: u64 = lb.backends().iter().map(|b| b.in_flight).sum();
        prop_assert_eq!(total_in_flight as usize, outstanding.len());
    }

    /// After a warning, a transiency-aware balancer never routes *new*
    /// requests to the draining backend while any healthy backend has
    /// headroom.
    #[test]
    fn draining_avoided_while_headroom(
        caps in prop::collection::vec(100.0f64..400.0, 2..5),
        victim_idx in 0usize..4,
    ) {
        let victim = victim_idx % caps.len();
        let mut lb = balancer(&caps, true, false);
        lb.revocation_warning(victim, 10.0, 120.0);
        for _ in 0..50 {
            if let RouteOutcome::Routed(b) = lb.route(None, 11.0) {
                prop_assert_ne!(b, victim, "routed to draining backend");
                lb.complete(b, None);
            }
        }
    }

    /// Sessions survive any single revocation in an aware cluster with
    /// at least one survivor.
    #[test]
    fn sessions_survive_single_revocation(
        caps in prop::collection::vec(100.0f64..400.0, 2..5),
        sessions in 1u64..50,
        victim_idx in 0usize..4,
    ) {
        let victim = victim_idx % caps.len();
        let mut lb = balancer(&caps, true, false);
        for s in 0..sessions {
            lb.route(Some(s), 0.0);
        }
        let before = lb.sessions().len();
        lb.revocation_warning(victim, 1.0, 120.0);
        lb.server_died(victim, 121.0);
        // All sessions either migrated at the warning or re-pinned
        // lazily; with idle survivors none should be lost.
        prop_assert_eq!(lb.sessions().len(), before);
        prop_assert_eq!(lb.stats().sessions_lost, 0);
    }

    /// Once a backend's revocation warning fires, no session — sticky
    /// or new — is ever routed to it again while the survivors have
    /// headroom: not during the drain, not at the deadline, not after
    /// the death.
    #[test]
    fn no_session_routes_to_revoked_backend(
        caps in prop::collection::vec(100.0f64..400.0, 2..5),
        sessions in 1u64..40,
        victim_idx in 0usize..4,
    ) {
        let victim = victim_idx % caps.len();
        let mut lb = balancer(&caps, true, false);
        // Pin every session somewhere (some land on the victim).
        for s in 0..sessions {
            if let RouteOutcome::Routed(b) = lb.route(Some(s), 0.0) {
                lb.complete(b, Some(s));
            }
        }
        let warning_at = 5.0;
        let warning_secs = 60.0;
        lb.revocation_warning(victim, warning_at, warning_secs);
        let deadline = warning_at + warning_secs;
        let mut died = false;
        for k in 0..240u64 {
            let now = warning_at + 0.5 * (k as f64 + 1.0);
            if !died && now >= deadline {
                lb.server_died(victim, deadline);
                died = true;
            }
            lb.tick(now);
            let s = k % sessions;
            if let RouteOutcome::Routed(b) = lb.route(Some(s), now) {
                prop_assert_ne!(
                    b, victim,
                    "session {} routed to revoked backend at t={}", s, now
                );
                lb.complete(b, Some(s));
            }
        }
    }

    /// The vanilla balancer loses exactly the sessions pinned to the
    /// dead backend.
    #[test]
    fn vanilla_loses_pinned_sessions(
        caps in prop::collection::vec(100.0f64..400.0, 2..4),
        sessions in 1u64..60,
    ) {
        let mut lb = balancer(&caps, false, false);
        for s in 0..sessions {
            lb.route(Some(s), 0.0);
        }
        let pinned = lb.sessions().count_on(0);
        let lost = lb.server_died(0, 10.0);
        prop_assert_eq!(lost, pinned);
    }
}

/// The balancer as it was before the route epoch: every `route`
/// re-derives admission and eligibility by scanning the fleet with the
/// float predicates at `now`. It is the oracle [`epoch_matches_scan`]
/// holds [`LoadBalancer`] to, so it deliberately shares none of the
/// epoch's code — only the session table, the WRR and the admission
/// formula, which the epoch did not touch. It never compacts: a retired
/// backend stays behind as a `Down` row, which also checks that
/// `retire` is invisible.
struct ScanBalancer {
    config: LoadBalancerConfig,
    /// Indexed by [`BackendId`].
    backends: Vec<Backend>,
    wrr: SmoothWrr,
    sessions: SessionTable,
    admission: AdmissionController,
    stats: LbStats,
}

const DRAIN_MARGIN_SERVICES: f64 = 20.0;
const OVERLOAD_FACTOR: f64 = 2.0;
const MAX_UTILIZATION: f64 = 0.98;

impl ScanBalancer {
    fn new(config: LoadBalancerConfig) -> Self {
        ScanBalancer {
            admission: AdmissionController::new(MAX_UTILIZATION, config.max_delay_secs),
            config,
            backends: Vec::new(),
            wrr: SmoothWrr::new(Vec::new()),
            sessions: SessionTable::new(),
            stats: LbStats::default(),
        }
    }

    fn add(&mut self, b: Backend) {
        self.wrr.push(b.weight);
        self.backends.push(b);
    }

    fn tick(&mut self, now: f64) {
        for b in &mut self.backends {
            b.tick(now);
        }
    }

    fn update_portfolio_weights(&mut self, market_weights: &[f64], now: f64) {
        let mut live = vec![0usize; market_weights.len()];
        for b in &self.backends {
            if b.accepts_new(now) {
                live[b.market] += 1;
            }
        }
        for (i, b) in self.backends.iter_mut().enumerate() {
            b.weight = if live[b.market] > 0 {
                market_weights[b.market] / live[b.market] as f64
            } else {
                0.0
            };
            self.wrr.set_weight(i, b.weight);
        }
    }

    fn drain_fallback_ok(&self, i: usize, now: f64) -> bool {
        match self.backends[i].state {
            BackendState::Draining { deadline } if self.config.transiency_aware => {
                deadline - now > DRAIN_MARGIN_SERVICES * self.config.service_secs
            }
            _ => false,
        }
    }

    fn is_saturated(&self, i: usize, now: f64) -> bool {
        self.backends[i].utilization(now, self.config.service_secs) > OVERLOAD_FACTOR
    }

    fn serves(&self, i: usize, now: f64) -> bool {
        match self.backends[i].state {
            BackendState::Up => true,
            BackendState::Starting { ready_at } => now >= ready_at,
            BackendState::Draining { deadline } => !self.config.transiency_aware && now < deadline,
            BackendState::Down => false,
        }
    }

    fn tier1(&self, i: usize, now: f64) -> bool {
        self.backends[i].accepts_new(now) && !self.is_saturated(i, now)
    }

    fn least_utilized(&self, now: f64, eligible: impl Fn(usize) -> bool) -> Option<usize> {
        let service = self.config.service_secs;
        (0..self.backends.len())
            .filter(|&i| eligible(i))
            .min_by(|&a, &b| {
                self.backends[a]
                    .utilization(now, service)
                    .partial_cmp(&self.backends[b].utilization(now, service))
                    .expect("finite utilizations")
            })
    }

    fn routed(&mut self, i: usize) -> RouteOutcome {
        self.backends[i].in_flight += 1;
        self.stats.routed += 1;
        RouteOutcome::Routed(i)
    }

    fn route(&mut self, session: Option<u64>, now: f64) -> RouteOutcome {
        let n = self.backends.len();
        if self.config.admission_control {
            let mut cap = 0.0;
            let mut in_flight = 0u64;
            for i in 0..n {
                let b = &self.backends[i];
                if b.accepts_new(now) || self.drain_fallback_ok(i, now) {
                    cap += b.effective_capacity(now);
                    in_flight += b.in_flight;
                }
            }
            let service = self.config.service_secs;
            if self.admission.decide(in_flight, cap, service) == AdmissionDecision::Drop {
                self.stats.dropped += 1;
                self.stats.admission_rejections += 1;
                return RouteOutcome::Dropped;
            }
        }
        let mask: Vec<bool> = (0..n).map(|i| self.tier1(i, now)).collect();
        if let Some(s) = session {
            if let Some(b) = self.sessions.lookup(s) {
                let serves = self.serves(b, now);
                let on_draining_fallback = !serves && self.drain_fallback_ok(b, now);
                let healthy = (serves || on_draining_fallback) && !self.is_saturated(b, now);
                if !healthy || on_draining_fallback {
                    let target = self
                        .wrr
                        .pick(|i| mask[i])
                        .or_else(|| self.least_utilized(now, |i| mask[i]))
                        .or_else(|| {
                            self.least_utilized(now, |i| {
                                i != b
                                    && self.drain_fallback_ok(i, now)
                                    && !self.is_saturated(i, now)
                            })
                        });
                    if let Some(nb) = target {
                        self.sessions.assign(s, nb);
                        if on_draining_fallback || !serves {
                            self.stats.migrations += 1;
                        }
                        return self.routed(nb);
                    }
                }
                if serves || on_draining_fallback {
                    return self.routed(b);
                }
            }
        }
        let pick = self
            .wrr
            .pick(|i| mask[i])
            .or_else(|| self.least_utilized(now, |i| mask[i]))
            .or_else(|| {
                self.least_utilized(now, |i| {
                    self.drain_fallback_ok(i, now) && !self.is_saturated(i, now)
                })
            })
            .or_else(|| {
                self.least_utilized(now, |i| {
                    self.backends[i].accepts_new(now) || self.drain_fallback_ok(i, now)
                })
            });
        match pick {
            Some(i) => {
                if let Some(s) = session {
                    self.sessions.assign(s, i);
                }
                self.routed(i)
            }
            None => {
                self.stats.dropped += 1;
                RouteOutcome::Dropped
            }
        }
    }

    fn complete(&mut self, backend: BackendId, session_done: Option<u64>) {
        let b = &mut self.backends[backend];
        b.in_flight = b.in_flight.saturating_sub(1);
        if let Some(s) = session_done {
            self.sessions.remove(s);
        }
    }

    /// Returns `(migrated, stayed)`.
    fn revocation_warning(&mut self, backend: BackendId, now: f64, secs: f64) -> (usize, usize) {
        if !self.config.transiency_aware {
            return (0, self.sessions.count_on(backend));
        }
        self.backends[backend].state = BackendState::Draining {
            deadline: now + secs,
        };
        let service = self.config.service_secs;
        let mut targets: Vec<usize> = (0..self.backends.len())
            .filter(|&i| i != backend && self.tier1(i, now))
            .collect();
        targets.sort_by(|&a, &b| {
            self.backends[a]
                .utilization(now, service)
                .partial_cmp(&self.backends[b].utilization(now, service))
                .expect("finite utilizations")
        });
        let spare_slots: f64 = targets
            .iter()
            .map(|&i| {
                let b = &self.backends[i];
                (b.effective_capacity(now) * service * OVERLOAD_FACTOR - b.in_flight as f64)
                    .max(0.0)
            })
            .sum();
        let budget = (spare_slots * 50.0) as usize;
        let mut cursor = 0;
        let (migrated, stayed) = self.sessions.migrate_all(backend, || {
            if targets.is_empty() || cursor >= budget {
                return None;
            }
            cursor += 1;
            Some(targets[(cursor - 1) % targets.len()])
        });
        self.stats.migrations += migrated as u64;
        (migrated, stayed)
    }

    fn server_died(&mut self, backend: BackendId) -> usize {
        self.backends[backend].state = BackendState::Down;
        self.backends[backend].in_flight = 0;
        self.wrr.set_weight(backend, 0.0);
        let lost = self.sessions.sessions_on(backend);
        for s in &lost {
            self.sessions.remove(*s);
        }
        self.stats.sessions_lost += lost.len() as u64;
        lost.len()
    }

    fn restore_backend(&mut self, backend: BackendId, now: f64, warmup_secs: f64) {
        let b = &mut self.backends[backend];
        b.state = BackendState::Up;
        b.in_flight = 0;
        b.warm_until = now + warmup_secs;
        self.wrr.set_weight(backend, b.weight);
    }
}

/// The float `steps` representable values above (below, if negative)
/// `x`.
fn ulps(x: f64, steps: i64) -> f64 {
    (0..steps.unsigned_abs()).fold(x, |x, _| {
        if steps > 0 {
            x.next_up()
        } else {
            x.next_down()
        }
    })
}

/// A time for the next operation: usually one of the fleet's lifecycle
/// edges — exact, up to eight floats either side, or a little before
/// it, so the next query near the edge meets an epoch built on the
/// other side — otherwise anywhere in the run, so `now` jumps backwards
/// as often as forwards. Half the free times are early, where a
/// deadline is small beside the drain margin and `deadline - now`
/// rounds away several floats of `now`.
fn pick_now(reference: &ScanBalancer, a: u64, b: u64) -> f64 {
    let margin = DRAIN_MARGIN_SERVICES * reference.config.service_secs;
    let mut edges = Vec::new();
    for backend in &reference.backends {
        edges.push(backend.warm_until);
        match backend.state {
            BackendState::Starting { ready_at } => edges.push(ready_at),
            BackendState::Draining { deadline } if deadline.is_finite() => {
                edges.extend([deadline, deadline - margin]);
            }
            _ => {}
        }
    }
    if edges.is_empty() || a.is_multiple_of(4) {
        let t = (b % 200_000) as f64 / 1_000.0;
        return if a.is_multiple_of(8) { t / 64.0 } else { t };
    }
    let edge = edges[(a / 4) as usize % edges.len()];
    match b % 20 {
        0 => edge - 0.25,
        1 => edge - 1e-9,
        2 => edge + 1e-9,
        k => ulps(edge, k as i64 - 11),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Differential test of the route epoch: a seeded sequence of every
    /// operation the balancer has, whole-fleet warnings included, at
    /// times that sit on, just beside and far from the lifecycle edges
    /// and move in both directions, gives the same routes, warning
    /// reports, deaths, counters and per-backend state as
    /// [`ScanBalancer`].
    #[test]
    fn epoch_matches_scan(
        transiency_aware in prop::bool::ANY,
        admission_control in prop::bool::ANY,
        ops in prop::collection::vec((0u8..20, any::<u64>(), any::<u64>(), any::<u64>()), 1..400),
    ) {
        let config = LoadBalancerConfig {
            transiency_aware,
            admission_control,
            // Tight enough that admission does drop under the bursts
            // below.
            max_delay_secs: 0.05,
            ..LoadBalancerConfig::default()
        };
        let mut lb = LoadBalancer::new(config.clone());
        let mut reference = ScanBalancer::new(config);
        let mut retired: Vec<bool> = Vec::new();
        let mut outstanding: Vec<(BackendId, u64)> = Vec::new();
        // Warning lengths: shorter than, equal to and longer than the
        // 5 s drain margin, and a graceful decommission.
        let warnings = [2.0, 5.0, 12.0, 60.0, f64::INFINITY];
        for (step, (op, a, b, c)) in ops.into_iter().enumerate() {
            let now = pick_now(&reference, a, b);
            let n = reference.backends.len();
            let target = (n > 0).then(|| (c % n.max(1) as u64) as usize);
            let state = target.map(|t| reference.backends[t].state);
            let live = matches!(state, Some(BackendState::Up | BackendState::Starting { .. }));
            match op {
                0 => {
                    let capacity = 20.0 + (c % 8) as f64 * 15.0;
                    let id = lb.add_backend_up((c % 3) as usize, capacity);
                    reference.add(Backend::up(id, (c % 3) as usize, capacity));
                    retired.push(false);
                }
                1 => {
                    let capacity = 20.0 + (c % 8) as f64 * 15.0;
                    let (startup, warmup) = ((c % 3) as f64 * 4.0, (c % 4) as f64 * 3.0);
                    let id = lb.add_backend((c % 3) as usize, capacity, now, startup, warmup);
                    reference.add(Backend::starting(
                        id, (c % 3) as usize, capacity, now, startup, warmup,
                    ));
                    retired.push(false);
                }
                2 if live => {
                    let t = target.expect("live");
                    let secs = warnings[(c >> 8) as usize % warnings.len()];
                    let report = lb.revocation_warning(t, now, secs);
                    let (migrated, stayed) = reference.revocation_warning(t, now, secs);
                    prop_assert_eq!(report.migrated_sessions, migrated, "step {}", step);
                    prop_assert_eq!(report.stayed_sessions, stayed, "step {}", step);
                }
                3 if state.is_some_and(|s| s != BackendState::Down) => {
                    let t = target.expect("some");
                    prop_assert_eq!(lb.server_died(t, now), reference.server_died(t));
                }
                4 if state == Some(BackendState::Down) && !retired[target.expect("down")] => {
                    let t = target.expect("down");
                    // `tick` can take a drained backend down with
                    // sessions still pinned; only `server_died` clears
                    // them, and `retire` insists on it.
                    if c >> 8 & 1 == 0 && reference.sessions.count_on(t) == 0 {
                        lb.retire(t);
                        retired[t] = true;
                    } else if c >> 8 & 1 == 1 {
                        let warmup = (c >> 9) as f64 % 4.0 * 3.0;
                        lb.restore_backend(t, now, warmup);
                        reference.restore_backend(t, now, warmup);
                    }
                }
                5 => {
                    lb.tick(now);
                    reference.tick(now);
                }
                6 => {
                    let weights = [(a % 5) as f64, (b % 5) as f64, (c % 5) as f64];
                    lb.update_portfolio_weights(&weights, now);
                    reference.update_portfolio_weights(&weights, now);
                }
                7..=9 => {
                    if let Some((backend, session)) = outstanding.pop() {
                        let done = (c & 1 == 0).then_some(session);
                        lb.complete(backend, done);
                        reference.complete(backend, done);
                    }
                }
                10 => {
                    // A correlated revocation: every live backend is
                    // warned at one instant, so the sessions pinned to
                    // them leave through tier 2 over a fallback set as
                    // large as the fleet.
                    let secs = warnings[(c >> 8) as usize % warnings.len()];
                    for t in 0..n {
                        let state = reference.backends[t].state;
                        if matches!(state, BackendState::Up | BackendState::Starting { .. }) {
                            let report = lb.revocation_warning(t, now, secs);
                            let (migrated, stayed) = reference.revocation_warning(t, now, secs);
                            prop_assert_eq!(report.migrated_sessions, migrated, "step {}", step);
                            prop_assert_eq!(report.stayed_sessions, stayed, "step {}", step);
                        }
                    }
                }
                _ => {
                    // A burst at one instant, so queues build up past
                    // the saturation limits and the admission budget.
                    for k in 0..1 + c % 12 {
                        let session = (c >> 8).wrapping_add(k) % 24;
                        let session = (session % 4 != 0).then_some(session);
                        let routed = lb.route(session, now);
                        prop_assert_eq!(
                            routed, reference.route(session, now),
                            "step {} burst {} at t={}", step, k, now
                        );
                        if let RouteOutcome::Routed(backend) = routed {
                            outstanding.push((backend, session.unwrap_or(0)));
                        }
                    }
                }
            }
            // Death zeroes a backend's in-flight count; forget what was
            // on it, as the simulator's kill rule does.
            outstanding.retain(|&(backend, _)| {
                reference.backends[backend].state != BackendState::Down
            });
            prop_assert_eq!(lb.stats(), reference.stats, "step {}", step);
            prop_assert_eq!(lb.sessions().len(), reference.sessions.len(), "step {}", step);
            for row in lb.backends() {
                let expected = &reference.backends[row.id];
                prop_assert_eq!(row.state, expected.state, "step {} backend {}", step, row.id);
                prop_assert_eq!(row.in_flight, expected.in_flight, "step {}", step);
                prop_assert_eq!(row.weight.to_bits(), expected.weight.to_bits());
                prop_assert_eq!(row.warm_until.to_bits(), expected.warm_until.to_bits());
            }
            prop_assert_eq!(
                lb.backends().len(),
                retired.iter().filter(|r| !**r).count(),
                "step {}", step
            );
        }
    }
}
