//! Backend service model.
//!
//! Each server is modeled as a multi-slot FIFO queue (`M/D/c`-like):
//! concurrency `c = capacity_rps × service_secs` worker slots, each
//! taking `service_secs` per request (doubled while the cache is cold,
//! matching the paper's 30–90 s Memcached warm-up). A request arriving
//! when all slots are busy waits for the earliest slot — latency =
//! wait + service. The model reproduces the paper's testbed behaviour:
//! mean latency well under 200 ms below saturation and sharply growing
//! queueing delay beyond it.
//!
//! Both internal queues are allocation-free after construction — this
//! model sits inside the request-level hot loop and is exercised once
//! per simulated request (see `benches/hot_path.rs`). The worker slots
//! are a fixed-size implicit min-heap (`admit` is a replace-root +
//! sift-down, never a push/pop pair on a growable heap), and the
//! outstanding-completions queue is a sorted `VecDeque` that exploits
//! the near-sorted order deterministic service times generate.

use std::collections::VecDeque;

/// The service queue of one backend server.
#[derive(Debug, Clone)]
pub struct ServiceModel {
    /// Earliest-free times of the worker slots: a fixed-length
    /// implicit min-heap (`slots[0]` is the earliest), one entry per
    /// slot for the life of the model. `NEG_INFINITY` marks a slot
    /// that has never served (free since forever), so stale past
    /// free-times need no draining — `max(earliest, now)` is the
    /// start time either way.
    slots: Vec<f64>,
    /// Completion times of every request not yet known to be finished
    /// (drained lazily against the query clock) — the source of truth
    /// for in-flight accounting and [`ServiceModel::kill`]. Kept
    /// ascending; inserts scan from the back, which is O(1) amortized
    /// because completions are generated near-sorted (out-of-order
    /// pairs only straddle the cold→warm service-time boundary).
    outstanding: VecDeque<f64>,
    /// Base per-request service time (seconds).
    pub service_secs: f64,
    /// Until this time the cache is cold and service takes
    /// `service_secs × cold_factor`.
    pub warm_until: f64,
    /// Cold-cache service-time multiplier.
    pub cold_factor: f64,
}

impl ServiceModel {
    /// Model a server of `capacity_rps` with base service time
    /// `service_secs`; it is cold (slower) until `warm_until`.
    pub fn new(capacity_rps: f64, service_secs: f64, warm_until: f64) -> Self {
        assert!(capacity_rps > 0.0 && service_secs > 0.0);
        let concurrency = (capacity_rps * service_secs).round().max(1.0) as usize;
        ServiceModel {
            slots: vec![f64::NEG_INFINITY; concurrency],
            outstanding: VecDeque::new(),
            service_secs,
            warm_until,
            cold_factor: 2.0,
        }
    }

    /// Forget outstanding requests that completed by `now`.
    fn drain_outstanding(&mut self, now: f64) {
        while let Some(t) = self.outstanding.front() {
            if *t <= now {
                self.outstanding.pop_front();
            } else {
                break;
            }
        }
    }

    /// Replace the earliest slot free-time with `done` and restore the
    /// min-heap property (one sift-down, no allocation).
    fn occupy_earliest(&mut self, done: f64) {
        let n = self.slots.len();
        self.slots[0] = done;
        let mut i = 0;
        loop {
            let l = 2 * i + 1;
            let r = l + 1;
            let mut m = i;
            if l < n && self.slots[l] < self.slots[m] {
                m = l;
            }
            if r < n && self.slots[r] < self.slots[m] {
                m = r;
            }
            if m == i {
                break;
            }
            self.slots.swap(i, m);
            i = m;
        }
    }

    /// Record `done` in the outstanding queue, keeping it sorted.
    fn push_outstanding(&mut self, done: f64) {
        let mut idx = self.outstanding.len();
        while idx > 0 && self.outstanding[idx - 1] > done {
            idx -= 1;
        }
        if idx == self.outstanding.len() {
            self.outstanding.push_back(done);
        } else {
            self.outstanding.insert(idx, done);
        }
    }

    /// Admit a request at `now`; returns its completion time.
    pub fn admit(&mut self, now: f64) -> f64 {
        // A free slot (free-time ≤ now, including the never-used
        // NEG_INFINITY sentinel) starts service immediately; otherwise
        // the request waits for the earliest slot.
        let earliest = self.slots[0];
        let start = if earliest > now { earliest } else { now };
        let service = if start < self.warm_until {
            self.service_secs * self.cold_factor
        } else {
            self.service_secs
        };
        let done = start + service;
        self.occupy_earliest(done);
        self.drain_outstanding(now);
        self.push_outstanding(done);
        done
    }

    /// Kill the server at `now`: all requests completing after `now`
    /// are lost. Returns how many were dropped (queued requests
    /// included).
    pub fn kill(&mut self, now: f64) -> usize {
        self.drain_outstanding(now);
        let dropped = self.outstanding.len();
        self.outstanding.clear();
        self.slots.fill(f64::NEG_INFINITY);
        dropped
    }

    /// Release the model's memory after its server was permanently
    /// retired (compacted out of the balancer). The model keeps its
    /// index in the per-backend array — external backend ids are never
    /// reused — but a retired server can never [`admit`](Self::admit)
    /// or [`kill`](Self::kill) again, so the slot heap and outstanding
    /// queue are freed rather than carried for the rest of a week-scale
    /// run.
    pub fn release(&mut self) {
        self.slots = Vec::new();
        self.outstanding = VecDeque::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unloaded_latency_is_service_time() {
        let mut s = ServiceModel::new(100.0, 0.2, 0.0);
        let done = s.admit(10.0);
        assert!((done - 10.2).abs() < 1e-12);
    }

    #[test]
    fn concurrency_derives_from_capacity() {
        let s = ServiceModel::new(100.0, 0.25, 0.0);
        assert_eq!(s.slots.len(), 25);
        // A tiny server still has one slot.
        assert_eq!(ServiceModel::new(1.0, 0.1, 0.0).slots.len(), 1);
    }

    #[test]
    fn queueing_delay_when_saturated() {
        let mut s = ServiceModel::new(10.0, 0.1, 0.0); // 1 slot
        let d1 = s.admit(0.0);
        let d2 = s.admit(0.0);
        assert!((d1 - 0.1).abs() < 1e-12);
        assert!((d2 - 0.2).abs() < 1e-12, "second waits for the first");
    }

    #[test]
    fn sustained_overload_grows_queue() {
        let mut s = ServiceModel::new(10.0, 0.1, 0.0);
        // Offered 20 rps against capacity 10 rps for 1 s.
        let mut worst: f64 = 0.0;
        for k in 0..20 {
            let t = k as f64 / 20.0;
            worst = worst.max(s.admit(t) - t);
        }
        assert!(worst > 0.5, "latency must blow up under overload: {worst}");
    }

    #[test]
    fn cold_cache_doubles_service() {
        let mut s = ServiceModel::new(100.0, 0.2, 100.0);
        let d_cold = s.admit(10.0);
        assert!((d_cold - 10.4).abs() < 1e-12);
        let d_warm = s.admit(200.0);
        assert!((d_warm - 200.2).abs() < 1e-12);
    }

    #[test]
    fn kill_drops_in_flight() {
        let mut s = ServiceModel::new(10.0, 1.0, 0.0); // 10 slots, 1 s each
        for _ in 0..5 {
            s.admit(0.0);
        }
        // At t = 0.5 all five are still in flight.
        assert_eq!(s.kill(0.5), 5);
        assert!(s.outstanding.is_empty());
    }

    #[test]
    fn kill_counts_queued_requests_too() {
        // 1 slot, 12 admissions: 11 still unfinished at t = 0.5.
        let mut s = ServiceModel::new(10.0, 0.1, 0.0);
        for _ in 0..12 {
            s.admit(0.0);
        }
        assert_eq!(s.outstanding.len(), 12);
        assert_eq!(s.kill(0.15), 11, "one completed at 0.1, rest dropped");
    }

    #[test]
    fn kill_spares_completed() {
        let mut s = ServiceModel::new(10.0, 1.0, 0.0);
        s.admit(0.0); // completes at 1.0
        assert_eq!(s.kill(2.0), 0);
    }
}
