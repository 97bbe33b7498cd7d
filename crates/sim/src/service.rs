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
//! The model sits inside the request-level hot loop, exercised once
//! per simulated request (`sim.service.admit_release_ns` in the
//! benchmark ledger), and is allocation-free after construction: the
//! worker slots are a fixed-size implicit min-heap, so `admit` is a
//! replace-root + sift-down, never a push/pop pair on a growable heap.
//! It keeps no record of the requests it admitted — the scheduler owns
//! each completion, and [`crate::cluster::Cluster::complete`]'s kill
//! rule decides from the death time alone which of them a
//! [`kill`](ServiceModel::kill) took.

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
            service_secs,
            warm_until,
            cold_factor: 2.0,
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
        done
    }

    /// Kill the server: every slot is free again, whatever it was
    /// serving or had queued is gone.
    pub fn kill(&mut self) {
        self.slots.fill(f64::NEG_INFINITY);
    }

    /// `true` when no slot holds work (never used, or killed since).
    #[cfg(test)]
    pub(crate) fn is_idle(&self) -> bool {
        self.slots.iter().all(|&free| free == f64::NEG_INFINITY)
    }

    /// Release the model's memory after its server was permanently
    /// retired (compacted out of the balancer). The model keeps its
    /// index in the per-backend array — external backend ids are never
    /// reused — but a retired server can never [`admit`](Self::admit)
    /// or [`kill`](Self::kill) again, so the slot heap is freed rather
    /// than carried for the rest of a week-scale run.
    pub fn release(&mut self) {
        self.slots = Vec::new();
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
    fn kill_frees_every_slot() {
        // 1 slot, 12 admissions: a queue 1.2 s deep.
        let mut s = ServiceModel::new(10.0, 0.1, 0.0);
        for _ in 0..12 {
            s.admit(0.0);
        }
        s.kill();
        assert!(s.is_idle());
        let done = s.admit(0.15);
        assert!((done - 0.25).abs() < 1e-12, "no wait behind the dead queue");
    }
}
