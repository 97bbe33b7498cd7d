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
//! worker slots are a fixed-length ring of free-times kept in
//! ascending order, so `admit` pops the front and inserts the new
//! free-time walking from the back. With a constant service time and a
//! non-decreasing clock the new free-time is the latest of all, so the
//! insert is an append; only the first admits after a cold-cache
//! warm-up ends (a shorter service behind longer cold ones) walk past
//! a few slots, at worst all `c`. It keeps no record of the requests it
//! admitted — the scheduler owns each completion, and
//! [`crate::cluster::Cluster::complete`]'s kill rule decides from the
//! death time alone which of them a [`kill`](ServiceModel::kill) took.

use std::collections::VecDeque;

/// The service queue of one backend server.
#[derive(Debug, Clone)]
pub struct ServiceModel {
    /// Earliest-free times of the worker slots, ascending (the front is
    /// the earliest), one entry per slot for the life of the model.
    /// `NEG_INFINITY` marks a slot that has never served (free since
    /// forever), so stale past free-times need no draining —
    /// `max(earliest, now)` is the start time either way.
    slots: VecDeque<f64>,
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
            slots: VecDeque::from(vec![f64::NEG_INFINITY; concurrency]),
            service_secs,
            warm_until,
            cold_factor: 2.0,
        }
    }

    /// Admit a request at `now`; returns its completion time.
    pub fn admit(&mut self, now: f64) -> f64 {
        // A free slot (free-time ≤ now, including the never-used
        // NEG_INFINITY sentinel) starts service immediately; otherwise
        // the request waits for the earliest slot.
        let earliest = self
            .slots
            .pop_front()
            .expect("a model has at least one slot until it is released");
        let start = if earliest > now { earliest } else { now };
        let service = if start < self.warm_until {
            self.service_secs * self.cold_factor
        } else {
            self.service_secs
        };
        let done = start + service;
        // The slot it took is free again at `done`: after every slot
        // free no later. That is the back, but for a warm-up's end,
        // when the walk passes the cold slots still due after `done`.
        if self.slots.back().is_some_and(|&last| last > done) {
            let mut at = self.slots.len() - 1;
            while at > 0 && self.slots[at - 1] > done {
                at -= 1;
            }
            self.slots.insert(at, done);
        } else {
            self.slots.push_back(done);
        }
        done
    }

    /// Kill the server: every slot is free again, whatever it was
    /// serving or had queued is gone.
    pub fn kill(&mut self) {
        for free in &mut self.slots {
            *free = f64::NEG_INFINITY;
        }
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
    /// or [`kill`](Self::kill) again, so the slot ring is freed rather
    /// than carried for the rest of a week-scale run.
    pub fn release(&mut self) {
        self.slots = VecDeque::new();
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

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

    #[test]
    fn warm_service_after_the_warm_up_lands_ahead_of_cold_slots() {
        // 2 slots, cold (0.2 s) until t = 1.
        let mut s = ServiceModel::new(20.0, 0.1, 1.0);
        assert_eq!(s.admit(0.95), 0.95 + 0.2);
        let warm = s.admit(1.0);
        assert_eq!(warm, 1.0 + 0.1);
        assert_eq!(Vec::from(s.slots.clone()), vec![warm, 0.95 + 0.2]);
        assert_eq!(s.admit(1.0), warm + 0.1, "waits for the earlier slot");
    }

    /// The slots as this module kept them before the ring: a
    /// fixed-length implicit min-heap, `admit` a replace-root and one
    /// sift-down.
    struct SiftDownSlots {
        slots: Vec<f64>,
        service_secs: f64,
        warm_until: f64,
        cold_factor: f64,
    }

    impl SiftDownSlots {
        fn like(model: &ServiceModel) -> Self {
            SiftDownSlots {
                slots: model.slots.iter().copied().collect(),
                service_secs: model.service_secs,
                warm_until: model.warm_until,
                cold_factor: model.cold_factor,
            }
        }

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

        fn admit(&mut self, now: f64) -> f64 {
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

        fn kill(&mut self) {
            self.slots.fill(f64::NEG_INFINITY);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 256 }))]

        /// The ring admits exactly as the heap did: the same completion
        /// bits at every step and the same slot multiset after it, over
        /// ties, a cold-to-warm crossing, kills mid-run, clock steps
        /// backwards, and 1 to 64 slots.
        #[test]
        fn ring_matches_the_sift_down_heap(
            width in 0usize..8,
            service in 0usize..3,
            warm in 0.0f64..1.0,
            steps in prop::collection::vec((0u8..12, 0u32..24), 1..300),
        ) {
            let slots = [1, 1, 2, 3, 7, 25, 40, 64][width];
            let service_secs = [0.125, 0.1, 0.12][service];
            // The mean gap is ≈ 1.4 service times over the slots: queues
            // build and drain, and the warm-up ends mid-run.
            let gap = service_secs / (8.0 * slots as f64);
            let warm_until = warm * steps.len() as f64 * 12.0 * gap;
            let mut ring = ServiceModel::new(slots as f64 / service_secs, service_secs, warm_until);
            prop_assert_eq!(ring.slots.len(), slots);
            let mut heap = SiftDownSlots::like(&ring);
            let mut now = 0.0;
            for (step, (kind, eighths)) in steps.into_iter().enumerate() {
                let dt = f64::from(eighths) * gap;
                match kind {
                    0 => {
                        ring.kill();
                        heap.kill();
                        continue;
                    }
                    1 => now -= dt,
                    // A tie: the same `now` again.
                    2 | 3 => {}
                    _ => now += dt,
                }
                let done = ring.admit(now);
                prop_assert_eq!(done.to_bits(), heap.admit(now).to_bits(), "step {}", step);
                let mut sorted = heap.slots.clone();
                sorted.sort_by(f64::total_cmp);
                let ring_bits: Vec<u64> = ring.slots.iter().map(|s| s.to_bits()).collect();
                let heap_bits: Vec<u64> = sorted.iter().map(|s| s.to_bits()).collect();
                prop_assert_eq!(ring_bits, heap_bits, "step {}", step);
            }
        }
    }
}
