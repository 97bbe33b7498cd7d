//! A calendar queue for request completions.
//!
//! The request-level runner used to keep every in-flight completion in
//! one global `BinaryHeap`, paying two `O(log n)` sift passes per
//! simulated request. This queue exploits what the heap cannot: the
//! service model only ever schedules completions at least one service
//! time *ahead* of the simulation clock, so time can be divided into
//! fixed-width buckets that are each fully populated **before** the
//! clock reaches them. Pushes append to a bucket in O(1); each bucket
//! is sorted exactly once, when the drain cursor enters it; pops are
//! O(1) from the sorted bucket tail.
//!
//! Ordering is the total order the old heap used — ascending
//! `(done.to_bits(), backend, arrived.to_bits())` — so replacing the
//! heap with this queue is byte-invisible to every consumer
//! (IEEE-754 bit order equals numeric order for the non-negative
//! times `push` admits), including the order ties are resolved in.
//!
//! The no-late-insert invariant: callers must pick `width` no larger
//! than the minimum completion delay (the base service time — every
//! push satisfies `done ≥ now + service_secs` while drains never pass
//! `now`), which guarantees a push never lands in the bucket the
//! cursor currently occupies. The queue stays *correct* even if that
//! is violated — a late insert binary-searches into the sorted current
//! bucket — it is just no longer O(1).
//!
//! Storage holds what is in flight, not what was ever scheduled. An
//! entry is its 24-byte sort key alone (`done` and `arrived` are read
//! back from their bits). The `RING_BUCKETS` ring slots recycle their
//! storage: when the cursor leaves a drained bucket its `Vec` goes to a
//! spare list, and the next slot that starts filling takes a spare. So
//! the queue retains at most peak live buckets × largest bucket
//! entries, independent of run length. Entries beyond the ring horizon
//! — possible only under extreme queueing backlog — overflow into a
//! `far` vector that is folded back in as the cursor advances.

/// Ring size: how many bucket-widths of future the queue covers
/// without touching the overflow path. At the default width (half a
/// service time) this is ~60 s of simulated future — queueing delays
/// past that exist only in pathological overload.
const RING_BUCKETS: usize = 1024;

/// One scheduled completion: `(done.to_bits(), backend,
/// arrived.to_bits())`, the old global heap's exact total order.
#[derive(Debug, Clone, Copy)]
struct Entry {
    key: (u64, u64, u64),
}

const _: () = assert!(std::mem::size_of::<Entry>() == 24);

impl Entry {
    fn done(self) -> f64 {
        f64::from_bits(self.key.0)
    }
}

/// Bucketed completion queue; see the module docs for the invariant
/// that makes it O(1) per operation.
#[derive(Debug)]
pub struct CalendarQueue {
    width: f64,
    /// `ring[b % RING_BUCKETS]` holds bucket `b`'s entries, unsorted
    /// until the cursor enters `b` (then sorted descending, popped
    /// from the back).
    ring: Vec<Vec<Entry>>,
    /// Storage of buckets the cursor has left, for slots that start
    /// filling with none.
    spare: Vec<Vec<Entry>>,
    /// Absolute index of the bucket the cursor occupies.
    cursor: u64,
    /// Whether the cursor bucket has been sorted yet.
    sorted: bool,
    /// Entries at least `RING_BUCKETS` buckets ahead of the cursor.
    far: Vec<Entry>,
    len: usize,
}

impl CalendarQueue {
    /// A queue with buckets `width` seconds wide. `width` must not
    /// exceed the minimum scheduling delay for O(1) operation (see
    /// module docs).
    pub fn new(width: f64) -> Self {
        assert!(width > 0.0 && width.is_finite(), "bucket width: {width}");
        CalendarQueue {
            width,
            ring: (0..RING_BUCKETS).map(|_| Vec::new()).collect(),
            spare: Vec::new(),
            cursor: 0,
            sorted: false,
            far: Vec::new(),
            len: 0,
        }
    }

    /// Scheduled completions not yet popped.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn bucket_of(&self, done: f64) -> u64 {
        (done / self.width) as u64
    }

    /// Bucket `b`'s ring slot, handed spare storage if it starts
    /// filling with none.
    fn slot_mut(&mut self, b: u64) -> &mut Vec<Entry> {
        let slot = &mut self.ring[(b % RING_BUCKETS as u64) as usize];
        if slot.capacity() == 0 {
            if let Some(storage) = self.spare.pop() {
                *slot = storage;
            }
        }
        slot
    }

    /// Schedule the completion of a request that arrived at `arrived`
    /// and finishes at `done` on `backend`.
    ///
    /// # Panics
    ///
    /// If `done` is NaN, infinite or negative: the bucket index and the
    /// bit order both assume a finite, non-negative time.
    pub fn push(&mut self, done: f64, backend: usize, arrived: f64) {
        assert!(
            done >= 0.0 && done.is_finite(),
            "completion time must be finite and non-negative (got {done})"
        );
        // `-0.0` passes the check, but its sign bit sorts it last.
        let done = done.abs();
        let entry = Entry {
            key: (done.to_bits(), backend as u64, arrived.to_bits()),
        };
        let b = self.bucket_of(done).max(self.cursor);
        self.len += 1;
        if b >= self.cursor + RING_BUCKETS as u64 {
            self.far.push(entry);
            return;
        }
        let late = b == self.cursor && self.sorted;
        let slot = self.slot_mut(b);
        if late {
            // Invariant violation path (still exact): place the late
            // entry where the descending sort order wants it.
            let pos = slot.partition_point(|e| e.key > entry.key);
            slot.insert(pos, entry);
        } else {
            slot.push(entry);
        }
    }

    /// Fold overflow entries that now fit in the ring back into it.
    fn refill_from_far(&mut self) {
        let horizon = self.cursor + RING_BUCKETS as u64;
        let mut i = 0;
        while i < self.far.len() {
            let b = self.bucket_of(self.far[i].done()).max(self.cursor);
            if b < horizon {
                let entry = self.far.swap_remove(i);
                self.slot_mut(b).push(entry);
            } else {
                i += 1;
            }
        }
    }

    /// Advance the cursor to the next non-empty bucket and sort it.
    /// Caller guarantees `len > 0`.
    fn settle(&mut self) {
        loop {
            let slot = (self.cursor % RING_BUCKETS as u64) as usize;
            if !self.ring[slot].is_empty() {
                if !self.sorted {
                    // Descending, so ascending pops come off the back.
                    self.ring[slot].sort_unstable_by_key(|e| std::cmp::Reverse(e.key));
                    self.sorted = true;
                }
                return;
            }
            // The cursor leaves a drained bucket; its storage goes spare.
            let drained = std::mem::take(&mut self.ring[slot]);
            if drained.capacity() > 0 {
                self.spare.push(drained);
            }
            self.cursor += 1;
            self.sorted = false;
            if self.cursor.is_multiple_of(RING_BUCKETS as u64) && !self.far.is_empty() {
                // Once per ring revolution: any overflow entry within
                // RING_BUCKETS of the cursor is folded in before its
                // ring slot could be reused for a later epoch.
                self.refill_from_far();
            }
        }
    }

    /// Earliest scheduled completion time, if any.
    pub fn peek_done(&mut self) -> Option<f64> {
        if self.len == 0 {
            return None;
        }
        self.settle();
        let slot = (self.cursor % RING_BUCKETS as u64) as usize;
        Some(
            self.ring[slot]
                .last()
                .expect("settled bucket nonempty")
                .done(),
        )
    }

    /// Pop the earliest completion as `(done, backend, arrived)`.
    pub fn pop(&mut self) -> Option<(f64, usize, f64)> {
        if self.len == 0 {
            return None;
        }
        self.settle();
        let slot = (self.cursor % RING_BUCKETS as u64) as usize;
        let (done, backend, arrived) = self.ring[slot].pop().expect("settled bucket nonempty").key;
        self.len -= 1;
        Some((
            f64::from_bits(done),
            backend as usize,
            f64::from_bits(arrived),
        ))
    }

    /// Entries the queue's storage can hold without allocating: the
    /// ring, the spare list and `far`.
    #[cfg(test)]
    fn retained_entries(&self) -> usize {
        let buckets: usize = self.ring.iter().chain(&self.spare).map(Vec::capacity).sum();
        buckets + self.far.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// Reference order: the old global heap's ascending tuple order.
    fn reference_sort(entries: &mut [(f64, usize, f64)]) {
        entries.sort_by_key(|&(d, b, a)| (d.to_bits(), b, a.to_bits()));
    }

    #[test]
    fn pops_in_heap_order_with_exact_tie_breaks() {
        let mut q = CalendarQueue::new(0.06);
        // Same done on different backends, same (done, backend) with
        // different arrivals, plus spread-out times.
        let mut items = vec![
            (0.5, 2, 0.38),
            (0.5, 1, 0.40),
            (0.5, 1, 0.39),
            (0.12, 0, 0.0),
            (7.3, 4, 7.18),
            (0.5000000001, 0, 0.38),
        ];
        for &(d, b, a) in &items {
            q.push(d, b, a);
        }
        reference_sort(&mut items);
        let popped: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(popped, items);
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_push_pop_matches_heap_semantics() {
        // Drive both structures with the runner's access pattern:
        // drain everything ≤ now, then push completions ≥ now + svc.
        let svc = 0.12;
        let mut q = CalendarQueue::new(svc * 0.5);
        let mut heap: BinaryHeap<Reverse<(u64, usize, u64)>> = BinaryHeap::new();
        let mut now = 0.0;
        let mut x: u64 = 42;
        for step in 0..5000 {
            // xorshift: cheap deterministic pseudo-times.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            now += (x % 97) as f64 * 0.001;
            while let Some(done) = q.peek_done() {
                if done > now {
                    break;
                }
                let mine = q.pop().unwrap();
                let Reverse((d, b, a)) = heap.pop().expect("heap has it too");
                assert_eq!(
                    (mine.0.to_bits(), mine.1, mine.2.to_bits()),
                    (d, b, a),
                    "divergence at step {step}"
                );
            }
            let backlog = (x % 5) as f64 * svc;
            let done = now + svc + backlog;
            let backend = (x % 7) as usize;
            q.push(done, backend, now);
            heap.push(Reverse((done.to_bits(), backend, now.to_bits())));
        }
        // Final drain (the runner's end-of-run INFINITY drain).
        while let Some(mine) = q.pop() {
            let Reverse((d, b, a)) = heap.pop().expect("heap has it too");
            assert_eq!((mine.0.to_bits(), mine.1, mine.2.to_bits()), (d, b, a));
        }
        assert!(heap.is_empty());
    }

    #[test]
    fn far_overflow_survives_ring_wraparound() {
        let mut q = CalendarQueue::new(0.01);
        // One entry far beyond the ring horizon (1024 × 0.01 s), then
        // a stream of near entries to walk the cursor past it.
        q.push(100.0, 9, 0.0);
        for k in 0..2000 {
            q.push(0.02 + k as f64 * 0.05, 1, 0.0);
        }
        let mut last = f64::NEG_INFINITY;
        let mut seen_far = false;
        while let Some((done, backend, _)) = q.pop() {
            assert!(done >= last, "order violated: {done} after {last}");
            last = done;
            if backend == 9 {
                seen_far = true;
                assert_eq!(done, 100.0);
            }
        }
        assert!(seen_far, "overflow entry must come back out");
    }

    #[test]
    fn overflow_entry_on_the_horizon_edge_pops_in_order() {
        let mut q = CalendarQueue::new(1.0);
        // Both overflow; the cursor's refill at bucket 1024 must fold
        // in bucket 2047, the last one its horizon covers.
        q.push(2047.25, 0, 0.0);
        q.push(1500.0, 0, 0.0);
        assert_eq!(q.pop(), Some((1500.0, 0, 0.0)));
        q.push(2047.75, 0, 0.0);
        let order: Vec<f64> = std::iter::from_fn(|| q.pop().map(|(d, _, _)| d)).collect();
        assert_eq!(order, vec![2047.25, 2047.75]);
    }

    #[test]
    fn late_insert_into_current_bucket_stays_exact() {
        let mut q = CalendarQueue::new(10.0); // deliberately too wide
        q.push(1.0, 0, 0.0);
        q.push(9.0, 0, 0.0);
        assert_eq!(q.pop(), Some((1.0, 0, 0.0)));
        // The cursor bucket [0, 10) is sorted now; these land in it.
        q.push(3.0, 0, 0.0);
        q.push(5.0, 1, 0.0);
        q.push(3.0, 0, 0.0);
        let order: Vec<f64> = std::iter::from_fn(|| q.pop().map(|(d, _, _)| d)).collect();
        assert_eq!(order, vec![3.0, 3.0, 5.0, 9.0]);
    }

    #[test]
    fn empty_queue_behaves() {
        let mut q = CalendarQueue::new(0.06);
        assert!(q.is_empty());
        assert_eq!(q.peek_done(), None);
        assert_eq!(q.pop(), None);
        q.push(0.2, 0, 0.1);
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_done(), Some(0.2));
        assert_eq!(q.pop(), Some((0.2, 0, 0.1)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    #[should_panic(expected = "completion time must be finite and non-negative (got NaN)")]
    fn nan_completion_is_rejected() {
        CalendarQueue::new(0.06).push(f64::NAN, 0, 0.0);
    }

    #[test]
    #[should_panic(expected = "completion time must be finite and non-negative (got inf)")]
    fn infinite_completion_is_rejected() {
        CalendarQueue::new(0.06).push(f64::INFINITY, 0, 0.0);
    }

    #[test]
    #[should_panic(expected = "completion time must be finite and non-negative (got -1)")]
    fn negative_completion_is_rejected() {
        CalendarQueue::new(0.06).push(-1.0, 0, 0.0);
    }

    #[test]
    fn negative_zero_pops_as_zero_first() {
        let mut q = CalendarQueue::new(0.06);
        q.push(0.01, 0, 0.0);
        q.push(-0.0, 0, 0.0);
        let (done, _, _) = q.pop().expect("two pushed");
        assert_eq!(done.to_bits(), 0.0f64.to_bits());
        assert_eq!(q.pop(), Some((0.01, 0, 0.0)));
    }

    #[test]
    #[cfg_attr(miri, ignore = "twenty ring revolutions of pushes and pops")]
    fn retained_storage_tracks_live_entries_not_run_length() {
        // The runner's shape at steady load: 60 arrivals per bucket,
        // each completing one to five service times later.
        let svc = 0.12;
        let width = svc * 0.5;
        let gap = width / 60.0;
        let per_revolution = RING_BUCKETS as u64 * 60;
        let mut q = CalendarQueue::new(width);
        let mut peak_live = 0;
        let mut after_two = 0;
        for k in 0..20 * per_revolution {
            let now = k as f64 * gap;
            while q.peek_done().is_some_and(|done| done <= now) {
                q.pop();
            }
            q.push(now + svc * (1 + k % 5) as f64, (k % 7) as usize, now);
            peak_live = peak_live.max(q.len());
            if k + 1 == 2 * per_revolution {
                after_two = q.retained_entries();
            }
        }
        let after_twenty = q.retained_entries();
        assert_eq!(after_two, after_twenty, "storage grew with run length");
        assert!(
            after_twenty <= 4 * peak_live,
            "retained {after_twenty} entries for a peak of {peak_live} live"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every pop and peek is bit-equal to the old global heap's
        /// over ring wrap-around (up to ~20 ring revolutions a case),
        /// `far` overflow (pushes one to three ring horizons ahead),
        /// late inserts into the sorted cursor bucket, and storage
        /// reused after the queue drains empty. Times sit on a
        /// quarter-width grid so exact ties across backends are common.
        #[test]
        #[cfg_attr(miri, ignore = "thousands of queue operations a case; the unit tests above run")]
        fn calendar_pops_what_the_heap_pops(
            ops in prop::collection::vec((0u8..32, 0u32..2048, 0usize..4), 1..500),
        ) {
            let width = 0.01;
            let grid = width / 4.0;
            let mut q = CalendarQueue::new(width);
            let mut heap: BinaryHeap<Reverse<(u64, u64, u64)>> = BinaryHeap::new();
            let mut now = 0.0;
            for (step, (kind, amount, backend)) in ops.into_iter().enumerate() {
                let amount = f64::from(amount);
                let push_at = match kind {
                    0..=12 => Some(now + width + (amount % 400.0) * grid),
                    13..=15 => Some(now + (RING_BUCKETS as f64 + amount) * width),
                    16 | 17 => Some(now + (amount % 4.0) * grid),
                    _ => None,
                };
                if let Some(done) = push_at {
                    q.push(done, backend, now);
                    heap.push(Reverse((done.to_bits(), backend as u64, now.to_bits())));
                    continue;
                }
                let upto = match kind {
                    18..=28 => {
                        now += (amount % 1024.0) * grid;
                        now
                    }
                    29 | 30 => f64::MAX,
                    // Rarely, so overflow entries live through revolutions.
                    _ if amount < 256.0 => f64::INFINITY,
                    _ => f64::MAX,
                };
                let mut budget = if upto == f64::MAX { amount as usize % 8 } else { usize::MAX };
                loop {
                    let peeked = q.peek_done().map(f64::to_bits);
                    prop_assert_eq!(peeked, heap.peek().map(|e| e.0 .0), "peek at step {}", step);
                    if budget == 0 || !peeked.is_some_and(|d| f64::from_bits(d) <= upto) {
                        break;
                    }
                    budget -= 1;
                    let (d, b, a) = q.pop().expect("peeked entry");
                    let Reverse(want) = heap.pop().expect("same length");
                    prop_assert_eq!((d.to_bits(), b as u64, a.to_bits()), want, "pop at step {}", step);
                }
                prop_assert_eq!(q.len(), heap.len());
                if upto == f64::INFINITY {
                    prop_assert!(q.is_empty());
                }
            }
        }
    }
}
