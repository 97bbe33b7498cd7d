//! The load-balancer façade.
//!
//! Combines [`SmoothWrr`] routing, [`SessionTable`] stickiness,
//! [`AdmissionController`] overload protection, and transiency
//! handling. Two personalities, selected by
//! [`LoadBalancerConfig::transiency_aware`]:
//!
//! * **SpotWeb** (`true`): a revocation warning immediately drains the
//!   backend — new requests avoid it, its sessions migrate to peers
//!   with spare capacity — and the caller learns the capacity gap so it
//!   can reprovision within the warning window.
//! * **Vanilla** (`false`): warnings are ignored (the Fig. 4(a)
//!   HAProxy baseline); the backend keeps receiving traffic until the
//!   cloud kills it, at which point every session and in-flight
//!   request on it is lost.

use crate::admission::{AdmissionController, AdmissionDecision};
use crate::backend::{Backend, BackendId, BackendState};
use crate::session::SessionTable;
use crate::wrr::SmoothWrr;
use spotweb_telemetry::{names, prof, CounterHandle, DrainRecord, TelemetrySink, TraceEvent};

/// Load-balancer configuration.
#[derive(Debug, Clone)]
pub struct LoadBalancerConfig {
    /// React to revocation warnings (SpotWeb) or ignore them (vanilla).
    pub transiency_aware: bool,
    /// Enable the overload admission controller.
    pub admission_control: bool,
    /// Admission: max fraction of effective capacity to admit.
    pub max_utilization: f64,
    /// Admission: max queueing delay before dropping (seconds).
    pub max_delay_secs: f64,
    /// Expected request service time (drives utilization estimates and
    /// migration targeting).
    pub service_secs: f64,
}

impl Default for LoadBalancerConfig {
    fn default() -> Self {
        LoadBalancerConfig {
            transiency_aware: true,
            admission_control: true,
            max_utilization: 0.98,
            max_delay_secs: 2.0,
            service_secs: 0.25,
        }
    }
}

/// Outcome of routing one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteOutcome {
    /// Sent to a backend.
    Routed(BackendId),
    /// Rejected (admission control or no live backend).
    Dropped,
}

/// Result of handling a revocation warning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WarningReport {
    /// Sessions re-pinned to surviving backends immediately.
    pub migrated_sessions: usize,
    /// Sessions left on the draining server for now (no survivor has
    /// headroom); they re-home lazily as replacement capacity appears
    /// and are forced off before the termination deadline.
    pub stayed_sessions: usize,
    /// Capacity (req/s) the cluster loses when the server dies —
    /// the controller's signal to reprovision.
    pub capacity_gap_rps: f64,
}

/// Running counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LbStats {
    /// Requests routed to a backend.
    pub routed: u64,
    /// Requests dropped (admission or no backend).
    pub dropped: u64,
    /// Sessions migrated by warnings.
    pub migrations: u64,
    /// Sessions lost to abrupt server death.
    pub sessions_lost: u64,
    /// Requests rejected by the admission controller specifically
    /// (a subset of `dropped`; the rest had no live backend).
    pub admission_rejections: u64,
}

/// Sentinel in `slot_of` marking an external id whose backend has been
/// compacted away.
const RETIRED: usize = usize::MAX;

/// The transiency-aware (or vanilla) weighted-round-robin balancer.
///
/// # Identity vs. storage
///
/// Externally, backends are named by stable monotone [`BackendId`]s
/// (the ids the session table, telemetry, and the simulator use).
/// Internally they live in a *dense* vector of only the non-retired
/// backends, ordered by ascending external id; `slot_of` maps id →
/// slot. Control-path loops (the route-epoch rebuild, the WRR walk,
/// portfolio reweighting) iterate the dense vector, so their cost is
/// O(live backends) — constant over a week-scale run — instead of
/// O(every backend ever provisioned).
///
/// # The route epoch
///
/// Everything [`route`](Self::route) needs to know about the fleet as
/// a whole — who accepts, who is a drain fallback, the admission
/// capacity sum, each backend's saturation point — changes only at a
/// backend's *lifecycle edges* (`ready_at`, `warm_until`, `deadline`,
/// the start of the drain margin) and when a mutator runs. A private
/// `RouteEpoch` holds those answers for the stretch of `now` between
/// two edges; `route` reads it, and only re-scans the fleet when `now`
/// leaves the stretch or a mutator invalidated it
/// ([`epoch_rebuilds`](Self::epoch_rebuilds) counts the scans).
pub struct LoadBalancer {
    config: LoadBalancerConfig,
    /// Dense vector of live (non-retired) backends, ascending by
    /// external id.
    backends: Vec<Backend>,
    /// External [`BackendId`] → slot in `backends`; [`RETIRED`] once
    /// compacted. Also the id allocator: ids are `0..slot_of.len()`.
    slot_of: Vec<usize>,
    wrr: SmoothWrr,
    sessions: SessionTable,
    admission: AdmissionController,
    stats: LbStats,
    telemetry: TelemetrySink,
    /// Per-request drop counters on the interned fast path (see
    /// [`CounterHandle`]); re-resolved whenever the sink changes.
    admission_rejections: CounterHandle,
    no_backend_drops: CounterHandle,
    /// What `route` knows about the fleet without scanning it.
    epoch: RouteEpoch,
    /// Times [`Self::scan_epoch`] rebuilt `epoch` (see
    /// [`Self::epoch_rebuilds`]).
    epoch_rebuilds: u64,
    /// No `Starting` or `Draining` backend changes state in a
    /// [`tick`](Self::tick) before this time (a lower bound: a backend
    /// that died first leaves its time behind until the next walk).
    next_flip: f64,
}

/// One slot's entry in the [`RouteEpoch`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct SlotEpoch {
    /// [`Backend::accepts_new`]: routing tiers 1 and 1b.
    accepting: bool,
    /// Accepting, or a drain fallback: a backend a request could use.
    /// Counts toward admission; tier 3 picks among these, tier 2 among
    /// the ones that are not `accepting`.
    usable: bool,
    /// The backend is saturated exactly when it has this many requests
    /// in flight or more (0: always, it has no capacity).
    saturated_from: u64,
}

/// The fleet-wide facts `route` reads, valid while `from <= now <
/// until` (see [`LoadBalancer`], "The route epoch"). An invalidated
/// epoch has an empty window and no slots.
#[derive(Debug, Clone, PartialEq)]
struct RouteEpoch {
    from: f64,
    until: f64,
    /// Parallel to `LoadBalancer::backends`.
    slots: Vec<SlotEpoch>,
    /// Admission: effective capacity of the usable backends, added in
    /// slot order.
    capacity_rps: f64,
    /// Admission: requests in flight on the usable backends; `route`
    /// and `complete` keep it current between rebuilds.
    in_flight: u64,
    /// Accepting slots below their saturation point: who tiers 1 and
    /// 1b pick among. `route` and `complete` keep it current.
    with_headroom: usize,
    /// Drain-fallback slots below theirs: who tier 2 picks among.
    fallbacks_with_headroom: usize,
}

impl RouteEpoch {
    /// The epoch no `now` falls into.
    fn invalid() -> Self {
        RouteEpoch {
            from: f64::INFINITY,
            until: f64::NEG_INFINITY,
            slots: Vec::new(),
            capacity_rps: 0.0,
            in_flight: 0,
            with_headroom: 0,
            fallbacks_with_headroom: 0,
        }
    }

    /// Empty the window (a mutator ran); the slot buffer is kept for
    /// the next scan.
    fn invalidate(&mut self) {
        self.from = f64::INFINITY;
        self.until = f64::NEG_INFINITY;
        self.slots.clear();
    }

    /// The headroom count a backend with `slot`'s flags belongs to
    /// while it is below its saturation point, if any.
    fn headroom_count(&mut self, slot: SlotEpoch) -> Option<&mut usize> {
        if slot.accepting {
            Some(&mut self.with_headroom)
        } else if slot.usable {
            Some(&mut self.fallbacks_with_headroom)
        } else {
            None
        }
    }
}

/// Smallest `k` in `lo..=hi` at which `holds(k)`, for a `holds` that
/// fails up to some point of the range and holds from there on; `hi`
/// when it holds nowhere below `hi`. Gallops outward from `guess`
/// before bisecting, so a guess within a few steps of the answer costs
/// a handful of evaluations and the worst one about 128.
fn first_true(mut lo: u64, mut hi: u64, guess: u64, mut holds: impl FnMut(u64) -> bool) -> u64 {
    // The answer stays within `lo..=hi` throughout.
    let mut probe = guess.clamp(lo, hi);
    let mut step = 1u64;
    if holds(probe) {
        loop {
            hi = probe;
            if probe == lo {
                return lo;
            }
            probe = probe.saturating_sub(step).max(lo);
            step = step.saturating_mul(2);
            if !holds(probe) {
                lo = probe + 1;
                break;
            }
        }
    } else {
        loop {
            if probe == hi {
                return hi;
            }
            lo = probe + 1;
            probe = probe.saturating_add(step).min(hi);
            step = step.saturating_mul(2);
            if holds(probe) {
                hi = probe;
                break;
            }
        }
    }
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if holds(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// Map `x` to an integer that orders like it (`a < b` ⇒ `time_key(a) <
/// time_key(b)`, −0.0 just below +0.0), so [`first_true`] can search
/// the floats; [`key_time`] is the inverse.
fn time_key(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

fn key_time(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 {
        key & !(1 << 63)
    } else {
        !key
    })
}

impl LoadBalancer {
    /// Empty balancer.
    pub fn new(config: LoadBalancerConfig) -> Self {
        let admission = AdmissionController::new(config.max_utilization, config.max_delay_secs);
        LoadBalancer {
            config,
            backends: Vec::new(),
            slot_of: Vec::new(),
            wrr: SmoothWrr::new(Vec::new()),
            sessions: SessionTable::new(),
            admission,
            stats: LbStats::default(),
            telemetry: TelemetrySink::disabled(),
            admission_rejections: CounterHandle::default(),
            no_backend_drops: CounterHandle::default(),
            epoch: RouteEpoch::invalid(),
            epoch_rebuilds: 0,
            next_flip: f64::INFINITY,
        }
    }

    /// Attach a telemetry sink; drains, deaths, restores, and
    /// admission rejections are recorded through it.
    pub fn set_telemetry(&mut self, sink: TelemetrySink) {
        self.admission_rejections = sink.counter_handle(names::LB_ADMISSION_REJECTIONS_TOTAL);
        self.no_backend_drops = sink.counter_handle(names::LB_NO_BACKEND_DROPS_TOTAL);
        self.telemetry = sink;
    }

    /// Register a backend that must boot first (startup + warm-up).
    pub fn add_backend(
        &mut self,
        market: usize,
        capacity_rps: f64,
        now: f64,
        startup_secs: f64,
        warmup_secs: f64,
    ) -> BackendId {
        let id = self.slot_of.len();
        self.install(Backend::starting(
            id,
            market,
            capacity_rps,
            now,
            startup_secs,
            warmup_secs,
        ))
    }

    /// Register an already-serving backend (cluster bootstrap).
    pub fn add_backend_up(&mut self, market: usize, capacity_rps: f64) -> BackendId {
        let id = self.slot_of.len();
        self.install(Backend::up(id, market, capacity_rps))
    }

    fn install(&mut self, b: Backend) -> BackendId {
        let id = b.id;
        if let BackendState::Starting { ready_at } = b.state {
            self.next_flip = self.next_flip.min(ready_at);
        }
        self.wrr.push(b.weight);
        self.slot_of.push(self.backends.len());
        self.backends.push(b);
        self.epoch.invalidate();
        id
    }

    /// Live (non-retired) backends, ascending by external id.
    ///
    /// Until the first [`retire`](Self::retire) this is every backend
    /// ever added and indexing by [`BackendId`] is valid; afterwards
    /// use [`backend`](Self::backend) for by-id access.
    pub fn backends(&self) -> &[Backend] {
        &self.backends
    }

    /// Backend by external id; `None` once retired.
    pub fn backend(&self, id: BackendId) -> Option<&Backend> {
        self.backends.get(*self.slot_of.get(id)?)
    }

    /// Counters so far.
    pub fn stats(&self) -> LbStats {
        self.stats
    }

    /// Session table (read-only).
    pub fn sessions(&self) -> &SessionTable {
        &self.sessions
    }

    /// Sum of effective capacities at `now` (req/s).
    pub fn effective_capacity(&self, now: f64) -> f64 {
        self.backends
            .iter()
            .map(|b| b.effective_capacity(now))
            .sum()
    }

    /// Times the route epoch was rebuilt by a scan of the fleet. A run
    /// rebuilds once per lifecycle edge crossed and once per batch of
    /// mutations, never once per request — the count is exact and
    /// deterministic, so tests gate on it.
    pub fn epoch_rebuilds(&self) -> u64 {
        self.epoch_rebuilds
    }

    /// Advance backend lifecycle states to `now`. O(1) until `now`
    /// reaches the earliest `ready_at` or `deadline` still pending.
    pub fn tick(&mut self, now: f64) {
        if now < self.next_flip {
            return;
        }
        let mut flipped = false;
        self.next_flip = f64::INFINITY;
        for b in &mut self.backends {
            let before = b.state;
            b.tick(now);
            flipped |= b.state != before;
            match b.state {
                BackendState::Starting { ready_at: at }
                | BackendState::Draining { deadline: at } => {
                    self.next_flip = self.next_flip.min(at)
                }
                BackendState::Up | BackendState::Down => {}
            }
        }
        // `Up` accepts at every `now`, `Starting` only from `ready_at`:
        // the same backend answers differently for an earlier `now`.
        if flipped {
            self.epoch.invalidate();
        }
    }

    /// Re-program WRR weights from a new portfolio: `market_weights[m]`
    /// is market `m`'s share; each backend gets its market's weight
    /// split evenly across that market's live backends (§5.2: "The
    /// weights are set to be equal to the relative weight of a market
    /// within the portfolio").
    pub fn update_portfolio_weights(&mut self, market_weights: &[f64], now: f64) {
        let mut live_per_market: Vec<usize> = vec![0; market_weights.len()];
        for b in &self.backends {
            if b.market < market_weights.len() && b.accepts_new(now) {
                live_per_market[b.market] += 1;
            }
        }
        for i in 0..self.backends.len() {
            let m = self.backends[i].market;
            let w = if m < market_weights.len() && live_per_market[m] > 0 {
                market_weights[m] / live_per_market[m] as f64
            } else {
                0.0
            };
            self.backends[i].weight = w;
            self.wrr.set_weight(i, w);
        }
    }

    /// A draining backend remains usable for new traffic while at
    /// least this many service times remain before its deadline.
    const DRAIN_MARGIN_SERVICES: f64 = 20.0;

    /// Per-backend overload threshold used by the routing tiers: a
    /// backend with more than this multiple of its nominal concurrency
    /// in flight is considered saturated.
    const OVERLOAD_FACTOR: f64 = 2.0;

    /// Is the backend in `slot` usable as a *fallback* target — a
    /// still-alive draining backend with comfortable margin before
    /// termination? (§4.4: until replacements are up, the revoked
    /// servers are still serving.)
    fn drain_fallback_ok(&self, slot: usize, now: f64) -> bool {
        if !self.config.transiency_aware {
            return false;
        }
        match self.backends[slot].state {
            BackendState::Draining { deadline } => {
                deadline - now > Self::DRAIN_MARGIN_SERVICES * self.config.service_secs
            }
            _ => false,
        }
    }

    fn is_saturated(&self, slot: usize, now: f64) -> bool {
        self.backends[slot].utilization(now, self.config.service_secs) > Self::OVERLOAD_FACTOR
    }

    /// Scan the fleet for the [`RouteEpoch`] that holds at `now`: every
    /// flag and sum is the routing predicate itself evaluated at `now`,
    /// and the window ends at the nearest lifecycle edge either side of
    /// it. This is the only loop over the fleet that `route` can reach,
    /// apart from the WRR walk and the fallback tiers' search. `slots`
    /// is the outgoing epoch's buffer, reused.
    fn scan_epoch(&self, now: f64, mut slots: Vec<SlotEpoch>) -> RouteEpoch {
        let service = self.config.service_secs;
        slots.clear();
        let mut epoch = RouteEpoch {
            from: f64::NEG_INFINITY,
            until: f64::INFINITY,
            slots,
            ..RouteEpoch::invalid()
        };
        for (slot, b) in self.backends.iter().enumerate() {
            let accepting = b.accepts_new(now);
            let usable = accepting || self.drain_fallback_ok(slot, now);
            let capacity_rps = b.effective_capacity(now);
            if usable {
                epoch.capacity_rps += capacity_rps;
                epoch.in_flight += b.in_flight;
            }
            // Utilization only grows with the in-flight count, so the
            // float predicate flips once; ask it where.
            let mut probe = b.clone();
            let guess = (Self::OVERLOAD_FACTOR * capacity_rps * service) as u64;
            let saturated_from = first_true(0, u64::MAX, guess, |in_flight| {
                probe.in_flight = in_flight;
                probe.utilization(now, service) > Self::OVERLOAD_FACTOR
            });
            let entry = SlotEpoch {
                accepting,
                usable,
                saturated_from,
            };
            if b.in_flight < saturated_from {
                if let Some(count) = epoch.headroom_count(entry) {
                    *count += 1;
                }
            }
            epoch.slots.push(entry);

            // (A NaN edge is on neither side.)
            let mut edge = |at: f64| {
                if at <= now {
                    epoch.from = epoch.from.max(at);
                } else if at > now {
                    epoch.until = epoch.until.min(at);
                }
            };
            match b.state {
                BackendState::Starting { ready_at } => {
                    edge(ready_at);
                    edge(b.warm_until);
                }
                BackendState::Up => edge(b.warm_until),
                BackendState::Draining { deadline } => {
                    edge(deadline);
                    edge(b.warm_until);
                    // `deadline - now` only shrinks as `now` grows, so
                    // the margin test fails from one float on; find it
                    // with the test itself rather than restate its
                    // rounding.
                    let margin = Self::DRAIN_MARGIN_SERVICES * service;
                    edge(key_time(first_true(
                        time_key(f64::NEG_INFINITY),
                        time_key(f64::INFINITY),
                        time_key(deadline - margin),
                        |key| !self.drain_fallback_ok(slot, key_time(key)),
                    )));
                }
                BackendState::Down => {}
            }
        }
        epoch
    }

    /// Make `self.epoch` the one that holds at `now`.
    fn enter_epoch(&mut self, now: f64) {
        if !(self.epoch.from <= now && now < self.epoch.until) {
            let slots = std::mem::take(&mut self.epoch.slots);
            self.epoch = self.scan_epoch(now, slots);
            self.epoch_rebuilds += 1;
        }
        #[cfg(debug_assertions)]
        self.assert_epoch_matches_scan(now);
    }

    /// Debug builds re-derive, with the predicates themselves, what
    /// `route` is about to read from the epoch — so every test that
    /// routes is a differential test of the epoch bookkeeping.
    #[cfg(debug_assertions)]
    fn assert_epoch_matches_scan(&self, now: f64) {
        assert_eq!(self.epoch.slots.len(), self.backends.len());
        let (mut capacity_rps, mut in_flight) = (0.0, 0);
        let (mut with_headroom, mut fallbacks_with_headroom) = (0, 0);
        for (slot, (b, kept)) in self.backends.iter().zip(&self.epoch.slots).enumerate() {
            let accepts = b.accepts_new(now);
            let usable = accepts || self.drain_fallback_ok(slot, now);
            if usable {
                capacity_rps += b.effective_capacity(now);
                in_flight += b.in_flight;
            }
            let saturated = self.is_saturated(slot, now);
            with_headroom += usize::from(accepts && !saturated);
            fallbacks_with_headroom += usize::from(usable && !accepts && !saturated);
            assert_eq!(
                (
                    kept.accepting,
                    kept.usable,
                    b.in_flight >= kept.saturated_from
                ),
                (accepts, usable, saturated),
                "slot {slot} of the route epoch is stale at t={now}"
            );
        }
        assert_eq!(
            (
                self.epoch.capacity_rps.to_bits(),
                self.epoch.in_flight,
                self.epoch.with_headroom,
                self.epoch.fallbacks_with_headroom
            ),
            (
                f64::to_bits(capacity_rps),
                in_flight,
                with_headroom,
                fallbacks_with_headroom
            ),
            "route epoch sums are stale at t={now}"
        );
    }

    /// Send one more request to the backend in `slot`.
    fn dispatch(&mut self, slot: usize) -> RouteOutcome {
        let entry = self.epoch.slots[slot];
        debug_assert!(entry.usable, "routed to an unusable slot");
        self.backends[slot].in_flight += 1;
        self.epoch.in_flight += 1;
        // This request used up the backend's headroom.
        if self.backends[slot].in_flight == entry.saturated_from {
            if let Some(count) = self.epoch.headroom_count(entry) {
                *count -= 1;
            }
        }
        self.stats.routed += 1;
        RouteOutcome::Routed(self.backends[slot].id)
    }

    /// Route one request. `session` pins/uses stickiness when given.
    ///
    /// Routing tiers: (1) non-draining backends with headroom, (2) —
    /// transiency-aware only — still-alive draining backends with
    /// headroom (the paper keeps serving from revoked servers until
    /// replacements arrive), (3) any accepting backend even if
    /// saturated. Admission control bounds the total queueing delay
    /// across the tiers considered.
    pub fn route(&mut self, session: Option<u64>, now: f64) -> RouteOutcome {
        // Hottest profiling span in the stack: one enter per simulated
        // request (a single relaxed atomic load when no session runs).
        prof::scope!(names::SPAN_LB_ROUTE);
        self.enter_epoch(now);
        // Capacity and load over every backend a request could use.
        if self.config.admission_control
            && self.admission.decide(
                self.epoch.in_flight,
                self.epoch.capacity_rps,
                self.config.service_secs,
            ) == AdmissionDecision::Drop
        {
            self.stats.dropped += 1;
            self.stats.admission_rejections += 1;
            self.admission_rejections.inc();
            return RouteOutcome::Dropped;
        }
        // Sticky sessions: return to the pinned backend while it is
        // healthy; re-pin (capacity-seeking) when it is saturated,
        // draining, or dead and a backend with headroom exists.
        if let Some(s) = session {
            if let Some(b) = self.sessions.lookup(s) {
                // Resolve the pinned external id to its slot; a retired
                // backend behaves exactly like a Down one here: serves
                // nothing, is no fallback, and (not being usable) is
                // never asked whether it is saturated.
                let bslot = self.slot_of[b];
                let pinned = if bslot == RETIRED {
                    SlotEpoch::default()
                } else {
                    self.epoch.slots[bslot]
                };
                // Sticky traffic continues to an accepting backend, or
                // (until it re-pins) to a drain fallback. `Draining`
                // exists only in transiency-aware mode: vanilla never
                // enters it.
                let serves = pinned.accepting;
                let on_draining_fallback = pinned.usable && !pinned.accepting;
                let healthy =
                    pinned.usable && self.backends[bslot].in_flight < pinned.saturated_from;
                if !healthy || on_draining_fallback {
                    // Seek capacity: healthy backends first, then
                    // still-alive draining ones (the paper's "load stays
                    // on the revoked servers until replacements start").
                    let target = self
                        .pick_with_headroom(now)
                        .or_else(|| self.pick_fallback_with_headroom(now, Some(b)));
                    if let Some(nb) = target {
                        self.sessions.assign(s, self.backends[nb].id);
                        if !serves {
                            self.stats.migrations += 1;
                        }
                        return self.dispatch(nb);
                    }
                }
                if pinned.usable {
                    return self.dispatch(bslot);
                }
                // Pinned backend is gone and nothing has headroom: fall
                // through to the tiered pick below.
            }
        }
        // Tier 3: anything serving, saturated or not (admission has
        // already bounded the queue we are about to join).
        let pick = self
            .pick_with_headroom(now)
            .or_else(|| self.pick_fallback_with_headroom(now, None))
            .or_else(|| self.pick_least_utilized(now, |i| self.epoch.slots[i].usable));
        match pick {
            Some(slot) => {
                if let Some(s) = session {
                    self.sessions.assign(s, self.backends[slot].id);
                }
                self.dispatch(slot)
            }
            None => {
                self.stats.dropped += 1;
                self.no_backend_drops.inc();
                RouteOutcome::Dropped
            }
        }
    }

    /// Tiers 1 and 1b, as a slot: among the accepting backends with
    /// headroom, the weighted round robin's pick, or the least utilized
    /// when they all carry zero weight (the portfolio just changed).
    fn pick_with_headroom(&mut self, now: f64) -> Option<usize> {
        // With no candidate both tiers come up empty, and a
        // `SmoothWrr::pick` without one leaves its counters alone —
        // skipping it changes no later pick.
        if self.epoch.with_headroom == 0 {
            return None;
        }
        let (slots, backends) = (&self.epoch.slots, &self.backends);
        let headroom =
            |i: usize| slots[i].accepting && backends[i].in_flight < slots[i].saturated_from;
        self.wrr
            .pick(headroom)
            .or_else(|| self.pick_least_utilized(now, headroom))
    }

    /// Tier 2, as a slot: the least utilized draining-but-alive backend
    /// with headroom, other than `except`.
    fn pick_fallback_with_headroom(&self, now: f64, except: Option<BackendId>) -> Option<usize> {
        if self.epoch.fallbacks_with_headroom == 0 {
            return None;
        }
        self.pick_least_utilized(now, |i| {
            let s = self.epoch.slots[i];
            let b = &self.backends[i];
            s.usable && !s.accepting && b.in_flight < s.saturated_from && Some(b.id) != except
        })
    }

    /// Slot of the least-utilized backend among those where
    /// `eligible(slot)` holds. Used by the fallback tiers, whose
    /// members often carry zero portfolio weight (e.g. draining servers
    /// the optimizer already dropped) and therefore cannot go through
    /// the WRR. Ties pick the lowest slot, i.e. the lowest external id.
    fn pick_least_utilized(&self, now: f64, eligible: impl Fn(usize) -> bool) -> Option<usize> {
        let service = self.config.service_secs;
        (0..self.backends.len())
            .filter(|&i| eligible(i))
            .map(|i| (i, self.backends[i].utilization(now, service)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite utilizations"))
            .map(|(i, _)| i)
    }

    /// A request on `backend` finished; `session_done` removes the
    /// session pin as well (end of user session).
    ///
    /// Safe to call for a retired `backend`: a request may complete
    /// after its server died and was compacted, in which case there is
    /// no in-flight counter left to decrement (death already zeroed
    /// it — the old saturating decrement on a Down backend was a no-op
    /// too), but the session pin is still cleared wherever the session
    /// lives now.
    pub fn complete(&mut self, backend: BackendId, session_done: Option<u64>) {
        let slot = self.slot_of[backend];
        if slot != RETIRED && self.backends[slot].in_flight > 0 {
            self.backends[slot].in_flight -= 1;
            if let Some(&entry) = self.epoch.slots.get(slot) {
                if entry.usable {
                    self.epoch.in_flight -= 1;
                }
                // This completion gave the backend headroom again.
                if self.backends[slot].in_flight + 1 == entry.saturated_from {
                    if let Some(count) = self.epoch.headroom_count(entry) {
                        *count += 1;
                    }
                }
            }
        }
        if let Some(s) = session_done {
            self.sessions.remove(s);
        }
    }

    /// Handle a revocation warning for `backend` arriving at `now` with
    /// `warning_secs` of notice.
    ///
    /// Transiency-aware: drain the backend and migrate its sessions to
    /// the least-utilized surviving backends. Vanilla: record the
    /// deadline but change nothing (the server dies abruptly later).
    pub fn revocation_warning(
        &mut self,
        backend: BackendId,
        now: f64,
        warning_secs: f64,
    ) -> WarningReport {
        let bslot = self.slot_of[backend];
        let deadline = now + warning_secs;
        let capacity_gap_rps = self.backends[bslot].capacity_rps;
        let drain_kind = if warning_secs.is_finite() {
            "revocation"
        } else {
            "decommission"
        };
        if !self.config.transiency_aware {
            // Vanilla keeps routing; the deadline is tracked by the
            // caller, which will invoke `server_died` at `deadline`.
            let stayed = self.sessions.count_on(backend);
            self.telemetry.emit_at(
                now,
                TraceEvent::Drain(DrainRecord {
                    backend,
                    market: self.backends[bslot].market,
                    kind: drain_kind.to_string(),
                    warning_secs,
                    deadline,
                    sessions_migrated: 0,
                    sessions_stayed: stayed,
                    capacity_gap_rps,
                }),
            );
            return WarningReport {
                migrated_sessions: 0,
                stayed_sessions: stayed,
                capacity_gap_rps,
            };
        }
        self.backends[bslot].state = BackendState::Draining { deadline };
        self.next_flip = self.next_flip.min(deadline);
        self.epoch.invalidate();
        // Weight stays: the draining backend may still serve as a tier-2
        // fallback until the cluster has replacement capacity.
        // Migrate sessions to the least-utilized *unsaturated* accepting
        // backends; sessions beyond their headroom stay pinned and
        // re-home lazily as replacements come up.
        let service = self.config.service_secs;
        let mut target_cache: Vec<usize> = (0..self.backends.len())
            .filter(|&i| {
                i != bslot && self.backends[i].accepts_new(now) && !self.is_saturated(i, now)
            })
            .collect();
        // Sort once by utilization; round-robin over the sorted list.
        target_cache.sort_by(|&a, &b| {
            self.backends[a]
                .utilization(now, service)
                .partial_cmp(&self.backends[b].utilization(now, service))
                .expect("finite utilizations")
        });
        // Spare request slots bound how many sessions move right away.
        let spare_slots: f64 = target_cache
            .iter()
            .map(|&i| {
                let b = &self.backends[i];
                (b.effective_capacity(now) * service * Self::OVERLOAD_FACTOR - b.in_flight as f64)
                    .max(0.0)
            })
            .sum();
        // The session table speaks external ids, not slots.
        let target_ids: Vec<BackendId> =
            target_cache.iter().map(|&i| self.backends[i].id).collect();
        // Sessions are mostly idle between requests; allow a generous
        // multiple of the instantaneous slot headroom.
        let budget = (spare_slots * 50.0) as usize;
        let mut cursor = 0;
        let (migrated, stayed) = self.sessions.migrate_all(backend, || {
            if target_ids.is_empty() || cursor >= budget {
                return None;
            }
            let t = target_ids[cursor % target_ids.len()];
            cursor += 1;
            Some(t)
        });
        self.stats.migrations += migrated as u64;
        self.telemetry.emit_at(
            now,
            TraceEvent::Drain(DrainRecord {
                backend,
                market: self.backends[bslot].market,
                kind: drain_kind.to_string(),
                warning_secs,
                deadline,
                sessions_migrated: migrated,
                sessions_stayed: stayed,
                capacity_gap_rps,
            }),
        );
        WarningReport {
            migrated_sessions: migrated,
            stayed_sessions: stayed,
            capacity_gap_rps,
        }
    }

    /// The cloud terminated `backend` (end of warning). Every session
    /// still pinned there is lost; returns how many. In-flight requests
    /// are the simulator's to fail.
    pub fn server_died(&mut self, backend: BackendId, now: f64) -> usize {
        let slot = self.slot_of[backend];
        self.backends[slot].state = BackendState::Down;
        self.wrr.set_weight(slot, 0.0);
        let lost = self.sessions.sessions_on(backend);
        for s in &lost {
            self.sessions.remove(*s);
        }
        self.stats.sessions_lost += lost.len() as u64;
        self.backends[slot].in_flight = 0;
        self.epoch.invalidate();
        self.telemetry.emit_at(
            now,
            TraceEvent::BackendDeath {
                backend,
                market: self.backends[slot].market,
                sessions_lost: lost.len(),
            },
        );
        lost.len()
    }

    /// Compact a permanently dead backend out of the dense vector. The
    /// external id stays allocated forever — [`backend`](Self::backend)
    /// returns `None`, [`restore_backend`](Self::restore_backend)
    /// panics — so a later backend bought in the same market can never
    /// be confused with the corpse.
    ///
    /// Behaviour-preserving by construction: a Down backend is
    /// invisible to every control-path loop (zero effective capacity,
    /// never accepting, zero in-flight, WRR weight pinned to 0), so
    /// dropping its row changes no route, no admission decision, and no
    /// portfolio reweighting — it only stops the loops from walking a
    /// corpse. Call it for *permanent* deaths only; a flapping backend
    /// that will be restored must keep its row.
    ///
    /// # Panics
    ///
    /// Panics if the backend is not [`BackendState::Down`] or was
    /// already retired.
    pub fn retire(&mut self, backend: BackendId) {
        let slot = self.slot_of[backend];
        assert!(slot != RETIRED, "backend {backend} retired twice");
        let b = &self.backends[slot];
        assert!(
            b.state == BackendState::Down,
            "only a dead backend can be retired"
        );
        self.backends.remove(slot);
        self.wrr.remove(slot);
        self.epoch.invalidate();
        self.slot_of[backend] = RETIRED;
        // Every backend after the vacated slot shifted down by one.
        for moved in &self.backends[slot..] {
            self.slot_of[moved.id] -= 1;
        }
    }

    /// A flapped backend came back (fault-injection recovery): resume
    /// serving with its configured WRR weight. The backend returns
    /// empty — its former sessions were already re-pinned or lost when
    /// it went down — and warms its cache again until
    /// `now + warmup_secs`.
    pub fn restore_backend(&mut self, backend: BackendId, now: f64, warmup_secs: f64) {
        let slot = self.slot_of[backend];
        assert!(
            slot != RETIRED,
            "backend {backend} was retired; ids are never reused"
        );
        let b = &mut self.backends[slot];
        assert!(
            b.state == BackendState::Down,
            "only a down backend can be restored"
        );
        b.state = BackendState::Up;
        b.in_flight = 0;
        b.warm_until = now + warmup_secs;
        let w = b.weight;
        self.wrr.set_weight(slot, w);
        self.epoch.invalidate();
        self.telemetry.emit_at(
            now,
            TraceEvent::BackendRestore {
                backend,
                market: self.backends[slot].market,
                warmup_secs,
            },
        );
    }

    /// Gracefully remove a backend on scale-down: drain with an
    /// effectively infinite deadline (it finishes its work, takes no
    /// new requests) and migrate its sessions.
    pub fn decommission(&mut self, backend: BackendId, now: f64) -> WarningReport {
        self.revocation_warning(backend, now, f64::INFINITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn aware() -> LoadBalancer {
        LoadBalancer::new(LoadBalancerConfig {
            admission_control: false,
            ..LoadBalancerConfig::default()
        })
    }

    fn vanilla() -> LoadBalancer {
        LoadBalancer::new(LoadBalancerConfig {
            transiency_aware: false,
            admission_control: false,
            ..LoadBalancerConfig::default()
        })
    }

    #[test]
    fn routes_proportionally_to_capacity() {
        let mut lb = aware();
        lb.add_backend_up(0, 300.0);
        lb.add_backend_up(0, 100.0);
        let mut counts = [0u32; 2];
        for _ in 0..400 {
            if let RouteOutcome::Routed(b) = lb.route(None, 0.0) {
                counts[b] += 1;
                lb.complete(b, None);
            }
        }
        assert_eq!(counts[0], 300);
        assert_eq!(counts[1], 100);
    }

    #[test]
    fn sticky_sessions_return_to_backend() {
        let mut lb = aware();
        lb.add_backend_up(0, 100.0);
        lb.add_backend_up(0, 100.0);
        let first = match lb.route(Some(42), 0.0) {
            RouteOutcome::Routed(b) => b,
            _ => panic!("must route"),
        };
        for _ in 0..10 {
            match lb.route(Some(42), 1.0) {
                RouteOutcome::Routed(b) => assert_eq!(b, first),
                _ => panic!("must route"),
            }
        }
    }

    #[test]
    fn warning_drains_and_migrates() {
        let mut lb = aware();
        let a = lb.add_backend_up(0, 100.0);
        let b = lb.add_backend_up(0, 100.0);
        for s in 0..6 {
            // Pin sessions explicitly across both backends.
            lb.route(Some(s), 0.0);
        }
        let on_a = lb.sessions().count_on(a);
        assert!(on_a > 0);
        let report = lb.revocation_warning(a, 10.0, 120.0);
        assert_eq!(report.migrated_sessions, on_a);
        assert_eq!(report.stayed_sessions, 0);
        assert_eq!(lb.sessions().count_on(a), 0);
        assert_eq!(lb.sessions().count_on(b), 6);
        // New traffic avoids the draining backend.
        for _ in 0..10 {
            match lb.route(None, 11.0) {
                RouteOutcome::Routed(x) => assert_eq!(x, b),
                _ => panic!("must route"),
            }
        }
    }

    #[test]
    fn vanilla_keeps_routing_to_doomed_server() {
        let mut lb = vanilla();
        let a = lb.add_backend_up(0, 100.0);
        lb.add_backend_up(0, 100.0);
        lb.revocation_warning(a, 0.0, 120.0);
        let mut hit_a = false;
        for _ in 0..10 {
            if lb.route(None, 10.0) == RouteOutcome::Routed(a) {
                hit_a = true;
            }
        }
        assert!(hit_a, "vanilla must ignore the warning");
        // At death, sessions on a are lost.
        lb.route(Some(1), 11.0);
        lb.route(Some(2), 11.0);
        let on_a = lb.sessions().count_on(a);
        let lost = lb.server_died(a, 120.0);
        assert_eq!(lost, on_a);
    }

    #[test]
    fn migration_prefers_idle_backends() {
        let mut lb = aware();
        let a = lb.add_backend_up(0, 100.0);
        let busy = lb.add_backend_up(0, 100.0);
        let idle = lb.add_backend_up(0, 100.0);
        // 40 requests in flight on `busy`: a sticky session stays put
        // while its backend has headroom.
        lb.sessions.assign(99, busy);
        for _ in 0..40 {
            assert_eq!(lb.route(Some(99), 0.0), RouteOutcome::Routed(busy));
        }
        lb.sessions.remove(99);
        for s in 0..4 {
            lb.sessions.assign(s, a);
        }
        lb.revocation_warning(a, 0.0, 120.0);
        assert!(
            lb.sessions().count_on(idle) >= lb.sessions().count_on(busy),
            "idle {} busy {}",
            lb.sessions().count_on(idle),
            lb.sessions().count_on(busy)
        );
    }

    #[test]
    fn no_backends_drops() {
        let mut lb = aware();
        assert_eq!(lb.route(None, 0.0), RouteOutcome::Dropped);
        assert_eq!(lb.stats().dropped, 1);
    }

    #[test]
    fn starting_backend_joins_when_ready() {
        let mut lb = aware();
        lb.add_backend(0, 100.0, 0.0, 60.0, 0.0);
        assert_eq!(lb.route(None, 30.0), RouteOutcome::Dropped);
        assert!(matches!(lb.route(None, 61.0), RouteOutcome::Routed(0)));
    }

    #[test]
    fn admission_drops_overload_with_zero_capacity() {
        let mut lb = LoadBalancer::new(LoadBalancerConfig {
            transiency_aware: true,
            admission_control: true,
            max_utilization: 0.9,
            max_delay_secs: 0.0,
            service_secs: 0.25,
        });
        // No backends → zero capacity → everything dropped by admission.
        for k in 0..5 {
            assert_eq!(lb.route(None, k as f64), RouteOutcome::Dropped);
        }
    }

    #[test]
    fn portfolio_weight_update_shifts_traffic() {
        let mut lb = aware();
        lb.add_backend_up(0, 100.0); // market 0
        lb.add_backend_up(1, 100.0); // market 1
        lb.update_portfolio_weights(&[0.8, 0.2], 0.0);
        let mut counts = [0u32; 2];
        for _ in 0..100 {
            if let RouteOutcome::Routed(b) = lb.route(None, 0.0) {
                counts[b] += 1;
                lb.complete(b, None);
            }
        }
        assert_eq!(counts[0], 80);
        assert_eq!(counts[1], 20);
    }

    #[test]
    fn decommission_is_graceful() {
        let mut lb = aware();
        let a = lb.add_backend_up(0, 100.0);
        let b = lb.add_backend_up(0, 100.0);
        lb.route(Some(7), 0.0);
        lb.route(Some(8), 0.0);
        let report = lb.decommission(a, 1.0);
        assert_eq!(report.stayed_sessions, 0);
        assert_eq!(lb.sessions().count_on(b), 2);
    }

    #[test]
    fn admission_rejections_counted_separately_from_no_backend_drops() {
        // No backends, admission off: drops are *not* admission
        // rejections.
        let mut lb = aware();
        assert_eq!(lb.route(None, 0.0), RouteOutcome::Dropped);
        assert_eq!(lb.stats().dropped, 1);
        assert_eq!(lb.stats().admission_rejections, 0);

        // Admission on with zero usable capacity: every drop is an
        // admission rejection, and the counter reaches telemetry.
        let mut lb = LoadBalancer::new(LoadBalancerConfig {
            admission_control: true,
            max_delay_secs: 0.0,
            ..LoadBalancerConfig::default()
        });
        let sink = TelemetrySink::enabled();
        lb.set_telemetry(sink.clone());
        for k in 0..5 {
            assert_eq!(lb.route(None, k as f64), RouteOutcome::Dropped);
        }
        assert_eq!(lb.stats().dropped, 5);
        assert_eq!(lb.stats().admission_rejections, 5);
        assert_eq!(sink.counter("spotweb_lb_admission_rejections_total"), 5);
    }

    #[test]
    fn warning_emits_drain_record() {
        let mut lb = aware();
        let sink = TelemetrySink::enabled();
        lb.set_telemetry(sink.clone());
        let a = lb.add_backend_up(1, 100.0);
        lb.add_backend_up(0, 100.0);
        lb.route(Some(5), 0.0);
        lb.route(Some(6), 0.0);
        let on_a = lb.sessions().count_on(a);
        lb.revocation_warning(a, 10.0, 120.0);
        let events = sink.events();
        let drain = events
            .iter()
            .find_map(|e| match &e.event {
                TraceEvent::Drain(d) => Some(d.clone()),
                _ => None,
            })
            .expect("warning must emit a drain record");
        assert_eq!(drain.backend, a);
        assert_eq!(drain.market, 1);
        assert_eq!(drain.kind, "revocation");
        assert_eq!(drain.deadline, 130.0);
        assert_eq!(drain.sessions_migrated + drain.sessions_stayed, on_a);
    }

    #[test]
    fn retire_compacts_but_preserves_ids_and_routing() {
        let mut lb = aware();
        let a = lb.add_backend_up(0, 100.0);
        let b = lb.add_backend_up(1, 100.0);
        let c = lb.add_backend_up(0, 100.0);
        lb.server_died(b, 1.0);
        lb.retire(b);
        // The corpse is gone from the dense vector...
        assert_eq!(lb.backends().len(), 2);
        assert!(lb.backend(b).is_none());
        // ...but external ids keep resolving and routing still works.
        assert_eq!(lb.backend(a).unwrap().id, a);
        assert_eq!(lb.backend(c).unwrap().id, c);
        let mut seen = [false; 3];
        for _ in 0..10 {
            match lb.route(None, 2.0) {
                RouteOutcome::Routed(x) => {
                    seen[x] = true;
                    lb.complete(x, None);
                }
                _ => panic!("must route"),
            }
        }
        assert!(seen[a] && seen[c] && !seen[b]);
        // A new backend gets a fresh id, never the retired one.
        let d = lb.add_backend_up(1, 100.0);
        assert_eq!(d, 3);
        assert_eq!(lb.backend(d).unwrap().id, d);
    }

    #[test]
    fn retire_then_complete_is_safe() {
        let mut lb = aware();
        let a = lb.add_backend_up(0, 100.0);
        lb.add_backend_up(0, 100.0);
        lb.route(Some(9), 0.0);
        lb.route(Some(10), 0.0);
        lb.server_died(a, 1.0);
        lb.retire(a);
        // A request that was in flight on `a` completes after the
        // compaction: no panic, and the session pin clears wherever the
        // session lives now.
        lb.complete(a, Some(9));
        assert_eq!(lb.sessions().lookup(9), None);
    }

    #[test]
    #[should_panic(expected = "never reused")]
    fn retired_backend_cannot_be_restored() {
        let mut lb = aware();
        let a = lb.add_backend_up(0, 100.0);
        lb.server_died(a, 1.0);
        lb.retire(a);
        lb.restore_backend(a, 2.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "only a dead backend")]
    fn live_backend_cannot_be_retired() {
        let mut lb = aware();
        let a = lb.add_backend_up(0, 100.0);
        lb.retire(a);
    }

    #[test]
    fn retire_is_invisible_to_route_sequence() {
        // Drive two balancers through the same request sequence; one
        // retires its corpse, one keeps it. Every route decision must
        // be identical — the "why the goldens don't change" argument in
        // miniature.
        let mk = || {
            let mut lb = aware();
            lb.add_backend_up(0, 100.0);
            lb.add_backend_up(1, 100.0);
            lb.add_backend_up(0, 100.0);
            lb
        };
        let mut keep = mk();
        let mut compact = mk();
        for s in 0..12u64 {
            keep.route(Some(s), 0.0);
            compact.route(Some(s), 0.0);
        }
        keep.revocation_warning(1, 1.0, 10.0);
        compact.revocation_warning(1, 1.0, 10.0);
        keep.server_died(1, 11.0);
        compact.server_died(1, 11.0);
        compact.retire(1);
        keep.update_portfolio_weights(&[0.6, 0.4], 12.0);
        compact.update_portfolio_weights(&[0.6, 0.4], 12.0);
        for s in 0..40u64 {
            let now = 12.0 + s as f64;
            let a = keep.route(Some(s % 14), now);
            let b = compact.route(Some(s % 14), now);
            assert_eq!(a, b, "diverged at request {s}");
        }
        assert_eq!(keep.stats(), compact.stats());
        assert_eq!(
            keep.effective_capacity(20.0),
            compact.effective_capacity(20.0)
        );
    }

    #[test]
    fn first_true_agrees_with_a_linear_search() {
        for lo in 0..4u64 {
            for hi in lo..lo + 12 {
                // `answer == hi + 1`: holds nowhere, reported as `hi`.
                for answer in lo..=hi + 1 {
                    for guess in 0..hi + 3 {
                        let found = first_true(lo, hi, guess, |k| k >= answer);
                        assert_eq!(found, answer.min(hi), "{lo}..={hi} from {guess}");
                    }
                }
            }
        }
        // Far guesses still bracket: the full range, both directions.
        assert_eq!(first_true(0, u64::MAX, u64::MAX, |k| k >= 7), 7);
        assert_eq!(
            first_true(0, u64::MAX, 0, |k| k >= u64::MAX - 7),
            u64::MAX - 7
        );
        assert_eq!(first_true(0, u64::MAX, 1 << 40, |_| false), u64::MAX);
    }

    #[test]
    fn time_keys_order_like_the_floats_and_round_trip() {
        let times = [
            f64::NEG_INFINITY,
            -1e300,
            -1.0,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            5e-324,
            0.25,
            1.0,
            1e300,
            f64::INFINITY,
        ];
        for pair in times.windows(2) {
            assert!(time_key(pair[0]) < time_key(pair[1]), "{pair:?}");
        }
        for t in times {
            assert_eq!(key_time(time_key(t)).to_bits(), t.to_bits());
        }
    }

    /// The epoch's window must end on the very float at which
    /// `deadline - now > margin` turns false. Where the deadline is
    /// small beside the margin that is several floats *before*
    /// `deadline - margin`, because the subtraction rounds them away.
    #[test]
    fn epoch_window_ends_where_the_drain_margin_test_flips() {
        // (warned at, warning): the margin is 20 × 0.25 s = 5 s.
        for (warned_at, warning) in [
            (0.0, 5.0),
            (0.5, 5.0),
            (0.1, 5.3),
            (100.3, 12.7),
            (3.0, 2.0),
        ] {
            let mut lb = aware();
            let victim = lb.add_backend_up(0, 100.0);
            lb.add_backend_up(0, 100.0);
            lb.revocation_warning(victim, warned_at, warning);
            let naive = warned_at + warning - 5.0;
            let edge = key_time(first_true(
                time_key(f64::NEG_INFINITY),
                time_key(f64::INFINITY),
                time_key(naive),
                |key| !lb.drain_fallback_ok(victim, key_time(key)),
            ));
            // Far side, near side, far side again: non-monotone, so
            // every query near the edge meets an epoch built elsewhere.
            for around in [naive, edge] {
                for step in -24i64..=24 {
                    let far = if step % 2 == 0 {
                        around - 1.0
                    } else {
                        around + 1.0
                    };
                    let near = key_time(time_key(around).wrapping_add_signed(step));
                    for now in [far, near] {
                        lb.enter_epoch(now);
                        assert_eq!(
                            lb.epoch.slots[victim].usable,
                            lb.drain_fallback_ok(victim, now),
                            "warned at {warned_at} for {warning}: t={now:e}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn epoch_is_rebuilt_per_edge_and_mutation_not_per_route() {
        let mut lb = aware();
        let a = lb.add_backend_up(0, 100.0);
        let b = lb.add_backend_up(0, 100.0);
        let c = lb.add_backend(0, 100.0, 0.0, 10.0, 5.0);
        let route_some = |lb: &mut LoadBalancer, now: f64| {
            (0..20)
                .map(|_| match lb.route(None, now) {
                    RouteOutcome::Routed(x) => {
                        lb.complete(x, None);
                        x
                    }
                    RouteOutcome::Dropped => panic!("must route"),
                })
                .collect::<Vec<_>>()
        };
        // One scan serves every route until an edge is crossed...
        route_some(&mut lb, 1.0);
        route_some(&mut lb, 9.0);
        route_some(&mut lb, 2.0);
        assert_eq!(lb.epoch_rebuilds(), 1);
        // ...`ready_at`, then `warm_until`, then back again.
        assert!(route_some(&mut lb, 10.0).contains(&c));
        assert_eq!(lb.epoch_rebuilds(), 2);
        route_some(&mut lb, 15.0);
        assert_eq!(lb.epoch_rebuilds(), 3);
        assert!(!route_some(&mut lb, 9.5).contains(&c));
        assert_eq!(lb.epoch_rebuilds(), 4);

        // A tick that flips nothing leaves the epoch alone; one that
        // promotes `c` to `Up` does not (it now accepts at every `now`).
        lb.tick(9.9);
        route_some(&mut lb, 9.5);
        assert_eq!(lb.epoch_rebuilds(), 4);
        lb.tick(20.0);
        assert!(route_some(&mut lb, 9.5).contains(&c));
        assert_eq!(lb.epoch_rebuilds(), 5);

        // `retire` shifts every later slot down by one.
        lb.server_died(a, 20.0);
        route_some(&mut lb, 20.0);
        assert_eq!(lb.epoch_rebuilds(), 6);
        lb.retire(a);
        let after = route_some(&mut lb, 20.0);
        assert_eq!(lb.epoch_rebuilds(), 7);
        assert_eq!(lb.epoch.slots.len(), 2);
        assert!(after.contains(&b) && after.contains(&c) && !after.contains(&a));

        // `restore_backend` brings a slot back into the flags.
        lb.server_died(b, 21.0);
        assert!(!route_some(&mut lb, 21.0).contains(&b));
        lb.restore_backend(b, 22.0, 0.0);
        let rebuilds = lb.epoch_rebuilds();
        assert!(route_some(&mut lb, 22.0).contains(&b));
        assert_eq!(lb.epoch_rebuilds(), rebuilds + 1);
    }

    #[test]
    fn restored_backend_serves_again() {
        let mut lb = aware();
        let a = lb.add_backend_up(0, 100.0);
        let b = lb.add_backend_up(0, 100.0);
        lb.server_died(a, 10.0);
        // While down, everything lands on the survivor.
        for _ in 0..10 {
            assert_eq!(lb.route(None, 11.0), RouteOutcome::Routed(b));
            lb.complete(b, None);
        }
        lb.restore_backend(a, 20.0, 30.0);
        assert!(lb.backends()[a].accepts_new(20.0));
        assert_eq!(lb.backends()[a].in_flight, 0);
        // Warm-up applies again after the flap.
        assert!(lb.backends()[a].effective_capacity(25.0) < 100.0);
        assert_eq!(lb.backends()[a].effective_capacity(51.0), 100.0);
        // WRR weight is live again: both backends get traffic.
        let mut counts = [0u32; 2];
        for _ in 0..40 {
            if let RouteOutcome::Routed(x) = lb.route(None, 60.0) {
                counts[x] += 1;
                lb.complete(x, None);
            }
        }
        assert!(counts[0] > 0 && counts[1] > 0, "counts {counts:?}");
    }
}
