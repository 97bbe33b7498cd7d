//! Backend (application server) state tracked by the load balancer.

/// Identifier of a backend within the balancer.
pub type BackendId = usize;

/// Lifecycle of a backend on a transient server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BackendState {
    /// VM requested; serving from `ready_at` (startup + app load).
    Starting {
        /// Simulation time at which the backend starts serving.
        ready_at: f64,
    },
    /// Serving traffic.
    Up,
    /// Revocation warning received; drains until `deadline`, then gone.
    Draining {
        /// Simulation time at which the cloud terminates the server.
        deadline: f64,
    },
    /// Terminated (revoked or decommissioned).
    Down,
}

/// A backend server as seen by the balancer.
#[derive(Debug, Clone)]
pub struct Backend {
    /// Balancer-local identifier.
    pub id: BackendId,
    /// Market the server was bought from (optimizer bookkeeping).
    pub market: usize,
    /// Nominal capacity in requests/second.
    pub capacity_rps: f64,
    /// WRR weight (usually proportional to capacity).
    pub weight: f64,
    /// Lifecycle state.
    pub state: BackendState,
    /// Requests currently in flight on this backend.
    pub in_flight: u64,
    /// End of the cache warm-up window: until then the backend serves
    /// at reduced capacity (§6.1 measures 30–90 s for Memcached).
    pub warm_until: f64,
    /// Capacity multiplier while warming up (cold caches slow requests).
    pub warm_factor: f64,
}

impl Backend {
    /// A backend that starts booting at `now` and is ready after
    /// `startup_secs`, then warms its cache for `warmup_secs`.
    pub fn starting(
        id: BackendId,
        market: usize,
        capacity_rps: f64,
        now: f64,
        startup_secs: f64,
        warmup_secs: f64,
    ) -> Self {
        check_capacity(capacity_rps);
        Backend {
            id,
            market,
            capacity_rps,
            weight: capacity_rps,
            state: BackendState::Starting {
                ready_at: now + startup_secs,
            },
            in_flight: 0,
            warm_until: now + startup_secs + warmup_secs,
            warm_factor: 0.5,
        }
    }

    /// A backend that is already serving (cluster bootstrap).
    pub fn up(id: BackendId, market: usize, capacity_rps: f64) -> Self {
        check_capacity(capacity_rps);
        Backend {
            id,
            market,
            capacity_rps,
            weight: capacity_rps,
            state: BackendState::Up,
            in_flight: 0,
            warm_until: 0.0,
            warm_factor: 0.5,
        }
    }

    /// Is the backend eligible for *new* requests at time `now`?
    /// Draining and down backends are not; starting backends only once
    /// ready.
    pub fn accepts_new(&self, now: f64) -> bool {
        match self.state {
            BackendState::Up => true,
            BackendState::Starting { ready_at } => now >= ready_at,
            BackendState::Draining { .. } | BackendState::Down => false,
        }
    }

    /// Effective serving capacity at `now` (zero unless serving;
    /// reduced during cache warm-up; a draining backend still serves
    /// its in-flight work until the deadline).
    pub fn effective_capacity(&self, now: f64) -> f64 {
        let serving = match self.state {
            BackendState::Up => true,
            BackendState::Starting { ready_at } => now >= ready_at,
            BackendState::Draining { deadline } => now < deadline,
            BackendState::Down => false,
        };
        if !serving {
            return 0.0;
        }
        if now < self.warm_until {
            self.capacity_rps * self.warm_factor
        } else {
            self.capacity_rps
        }
    }

    /// Current utilization estimate given an expected per-request
    /// service time (`in_flight / (capacity · service_time)` ≈ ρ).
    pub fn utilization(&self, now: f64, service_secs: f64) -> f64 {
        utilization_of(self.in_flight, self.effective_capacity(now), service_secs)
    }

    /// Promote `Starting` to `Up` once the clock passes `ready_at`.
    pub fn tick(&mut self, now: f64) {
        if let BackendState::Starting { ready_at } = self.state {
            if now >= ready_at {
                self.state = BackendState::Up;
            }
        }
        if let BackendState::Draining { deadline } = self.state {
            if now >= deadline {
                self.state = BackendState::Down;
            }
        }
    }
}

/// Both constructors refuse a capacity no utilization can be computed
/// from (NaN, infinite, zero or negative), naming the field.
fn check_capacity(capacity_rps: f64) {
    assert!(
        capacity_rps.is_finite() && capacity_rps > 0.0,
        "`capacity_rps` must be finite and positive (got {capacity_rps})"
    );
}

/// [`Backend::utilization`] of `in_flight` requests at an effective
/// capacity of `capacity_rps`: the one formula, so a caller that keeps
/// the capacity aside gets the same bits.
pub(crate) fn utilization_of(in_flight: u64, capacity_rps: f64, service_secs: f64) -> f64 {
    if capacity_rps <= 0.0 {
        return f64::INFINITY;
    }
    in_flight as f64 / (capacity_rps * service_secs).max(1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starting_backend_becomes_ready() {
        let mut b = Backend::starting(0, 1, 100.0, 0.0, 60.0, 30.0);
        assert!(!b.accepts_new(10.0));
        assert_eq!(b.effective_capacity(10.0), 0.0);
        assert!(b.accepts_new(61.0));
        // Warm-up: half capacity until t = 90.
        assert_eq!(b.effective_capacity(61.0), 50.0);
        assert_eq!(b.effective_capacity(95.0), 100.0);
        b.tick(61.0);
        assert_eq!(b.state, BackendState::Up);
    }

    #[test]
    fn draining_serves_but_rejects_new() {
        let mut b = Backend::up(0, 0, 100.0);
        b.state = BackendState::Draining { deadline: 120.0 };
        assert!(!b.accepts_new(50.0));
        assert_eq!(b.effective_capacity(50.0), 100.0);
        assert_eq!(b.effective_capacity(121.0), 0.0);
        b.tick(121.0);
        assert_eq!(b.state, BackendState::Down);
    }

    #[test]
    fn utilization_scales_with_in_flight() {
        let mut b = Backend::up(0, 0, 100.0);
        b.warm_until = 0.0;
        b.in_flight = 50;
        // 100 rps × 0.5 s service time → 50 slots → ρ = 1.
        assert!((b.utilization(10.0, 0.5) - 1.0).abs() < 1e-12);
        b.in_flight = 25;
        assert!((b.utilization(10.0, 0.5) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn down_backend_has_infinite_utilization() {
        let mut b = Backend::up(0, 0, 100.0);
        b.state = BackendState::Down;
        assert!(b.utilization(0.0, 0.5).is_infinite());
    }
}
