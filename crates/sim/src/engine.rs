//! The discrete-event queue.
//!
//! Events pop in `(time, seq)` order: earliest first, insertion order
//! within a timestamp. A scheduler whose events mostly come from one
//! ordered stream (the chaos loop's Poisson arrivals) keeps the
//! stream's head *outside* the heap — [`EventQueue::reserve`] gives it
//! its place in that order, [`EventQueue::pop_before`] yields whatever
//! the heap holds ahead of it, [`EventQueue::advance`] processes it —
//! so the stream costs no heap traffic and the pop sequence is the one
//! scheduling every element would give.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use spotweb_telemetry::{names, CounterHandle, TelemetrySink};

/// Events the cluster simulation processes.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A request finishes on a backend.
    Completion {
        /// Request id. No scheduler reads it back; the benchmark
        /// fixture constructs the variant by field name, so it stays.
        request: u64,
        /// Backend that served it.
        backend: usize,
        /// Arrival time (latency bookkeeping).
        arrived: f64,
    },
    /// The cloud issues a revocation warning for a backend.
    RevocationWarning {
        /// Backend losing its server.
        backend: usize,
        /// Advance notice in seconds.
        warning_secs: f64,
    },
    /// The cloud terminates a backend (end of warning period).
    ServerDeath {
        /// Backend being terminated.
        backend: usize,
    },
    /// A replacement server becomes ready to serve.
    ServerReady {
        /// Backend coming online.
        backend: usize,
    },
    /// A compiled fault fires (index into a chaos timeline; see
    /// [`crate::faults`]).
    FaultTrigger {
        /// Position of the injection in the compiled fault timeline.
        fault: usize,
    },
    /// A flapped backend comes back up (fault-injection recovery).
    BackendRestore {
        /// Backend returning to service.
        backend: usize,
    },
}

const SIGN: u64 = 1 << 63;

/// `(time, seq)` as one integer that orders like the pair: the IEEE 754
/// total-order image of `time` in the high half, `seq` in the low. On
/// the finite times the queue admits the image orders exactly as `<`
/// does; `-0.0` is folded onto `0.0` first, because `<` calls them
/// equal (the tie then falls to `seq`) and the raw image would not.
fn order_key(time: f64, seq: u64) -> u128 {
    let bits = (time + 0.0).to_bits();
    let image = if bits & SIGN == 0 { bits | SIGN } else { !bits };
    (u128::from(image) << 64) | u128::from(seq)
}

/// The time an [`order_key`] was built from (`0.0` for `-0.0`).
fn key_time(key: u128) -> f64 {
    let image = (key >> 64) as u64;
    f64::from_bits(if image & SIGN == 0 {
        !image
    } else {
        image ^ SIGN
    })
}

/// A scheduled event, ordered by its [`order_key`] so simultaneous
/// events process in insertion order (determinism).
#[derive(Debug, Clone)]
struct Scheduled {
    key: u128,
    event: Event,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for Scheduled {}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert for earliest-first.
        other.key.cmp(&self.key)
    }
}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Time-ordered event queue.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Scheduled>,
    seq: u64,
    now: f64,
    scheduled_counter: CounterHandle,
    processed_counter: CounterHandle,
}

impl EventQueue {
    /// Empty queue at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attach a telemetry sink; the queue counts scheduled and
    /// processed events (`spotweb_sim_events_*_total`). The counter
    /// names are resolved to interned [`CounterHandle`]s up front so
    /// the per-event increments skip the string lookup.
    pub fn set_telemetry(&mut self, sink: TelemetrySink) {
        self.scheduled_counter = sink.counter_handle(names::SIM_EVENTS_SCHEDULED_TOTAL);
        self.processed_counter = sink.counter_handle(names::SIM_EVENTS_PROCESSED_TOTAL);
    }

    /// Current simulation time (time of the last processed event).
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Number of events in the heap.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when the heap holds no events.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Take the next place in the `(time, seq)` order for an event at
    /// absolute time `time` that the caller keeps outside the heap, to
    /// be merged back with [`pop_before`](Self::pop_before) and
    /// [`advance`](Self::advance). Counts as scheduled.
    ///
    /// # Panics
    /// Panics on non-finite times or times before `now` (causality).
    pub fn reserve(&mut self, time: f64) -> u64 {
        assert!(time.is_finite(), "event time must be finite");
        assert!(
            time >= self.now - 1e-9,
            "cannot schedule into the past: {time} < {}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.scheduled_counter.inc();
        seq
    }

    /// Schedule `event` at absolute time `time`.
    ///
    /// # Panics
    /// As [`reserve`](Self::reserve).
    pub fn schedule(&mut self, time: f64, event: Event) {
        let key = order_key(time, self.reserve(time));
        self.heap.push(Scheduled { key, event });
    }

    /// Process an event held outside the heap (see
    /// [`reserve`](Self::reserve)): the clock moves to its `time`.
    /// Call it once [`pop_before`](Self::pop_before) has nothing left
    /// ahead of the event.
    pub fn advance(&mut self, time: f64) {
        self.now = time;
        self.processed_counter.inc();
    }

    /// Pop the next event, advancing the clock.
    pub fn pop(&mut self) -> Option<(f64, Event)> {
        self.heap.pop().map(|s| {
            let time = key_time(s.key);
            self.now = time;
            self.processed_counter.inc();
            (time, s.event)
        })
    }

    /// Pop the next event only if it precedes the reserved place
    /// `(time, seq)`.
    pub fn pop_before(&mut self, time: f64, seq: u64) -> Option<(f64, Event)> {
        if self.heap.peek()?.key < order_key(time, seq) {
            self.pop()
        } else {
            None
        }
    }

    /// Peek at the next event time without popping.
    pub fn peek_time(&self) -> Option<f64> {
        self.heap.peek().map(|s| key_time(s.key))
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    fn ready(backend: usize) -> Event {
        Event::ServerReady { backend }
    }

    fn drain(q: &mut EventQueue) -> Vec<(f64, Event)> {
        std::iter::from_fn(|| q.pop()).collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(3.0, ready(3));
        q.schedule(1.0, ready(1));
        q.schedule(2.0, ready(2));
        let order: Vec<f64> = drain(&mut q).into_iter().map(|(t, _)| t).collect();
        assert_eq!(order, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn simultaneous_events_fifo() {
        let mut q = EventQueue::new();
        q.schedule(1.0, ready(10));
        q.schedule(1.0, ready(20));
        q.schedule(1.0, ready(30));
        let events: Vec<Event> = drain(&mut q).into_iter().map(|(_, e)| e).collect();
        assert_eq!(events, vec![ready(10), ready(20), ready(30)]);
    }

    #[test]
    fn clock_advances() {
        let mut q = EventQueue::new();
        q.schedule(5.0, ready(1));
        assert_eq!(q.now(), 0.0);
        q.pop();
        assert_eq!(q.now(), 5.0);
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn rejects_past_events() {
        let mut q = EventQueue::new();
        q.schedule(5.0, ready(1));
        q.pop();
        q.schedule(1.0, ready(2));
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn rejects_past_reservations() {
        let mut q = EventQueue::new();
        q.advance(5.0);
        q.reserve(1.0);
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.schedule(2.0, ready(1));
        assert_eq!(q.peek_time(), Some(2.0));
        assert_eq!(q.now(), 0.0);
        assert_eq!(q.len(), 1);
    }

    /// The comparator `order_key` replaced.
    fn reference_order(a: (f64, u64), b: (f64, u64)) -> Ordering {
        a.0.partial_cmp(&b.0)
            .expect("event times are finite")
            .then(a.1.cmp(&b.1))
    }

    #[test]
    fn order_key_orders_like_partial_cmp_then_seq() {
        let times = [
            -1e300,
            -2.5,
            -1e-9,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            5e-324,
            f64::MIN_POSITIVE,
            0.12,
            0.12_f64.next_up(),
            660.0,
            1e300,
        ];
        let seqs = [0, 1, 7, u64::MAX];
        for &ta in &times {
            for &tb in &times {
                for &sa in &seqs {
                    for &sb in &seqs {
                        assert_eq!(
                            order_key(ta, sa).cmp(&order_key(tb, sb)),
                            reference_order((ta, sa), (tb, sb)),
                            "({ta:e}, {sa}) vs ({tb:e}, {sb})"
                        );
                    }
                }
            }
            let back = key_time(order_key(ta, 3));
            assert_eq!(back, ta, "{ta:e} must round-trip");
            assert!(ta != 0.0 || back.is_sign_positive(), "-0.0 pops as 0.0");
        }
    }

    /// Tags of a stream element and of the follow-up it schedules, in
    /// [`merged`] / [`all_scheduled`]; queued events carry their index.
    const STREAM: usize = usize::MAX;
    const FOLLOW_UP: usize = usize::MAX - 1;

    /// The chaos loop's shape. `stream` is `(time, delay)`: processing
    /// an element schedules a follow-up `delay` later (its completion)
    /// and *then* element `k + 1` takes its place in the order;
    /// `queued` is scheduled right after the first reservation (the
    /// fault timeline). Returns `(time, tag)` in processing order.
    fn merged(stream: &[(f64, f64)], queued: &[f64]) -> Vec<(f64, usize)> {
        let mut q = EventQueue::new();
        let mut rest = stream.iter().copied();
        let mut head = rest.next().map(|(t, delay)| (t, q.reserve(t), delay));
        for (i, &t) in queued.iter().enumerate() {
            q.schedule(t, ready(i));
        }
        let mut out = Vec::new();
        loop {
            let popped = match head {
                Some((t, seq, _)) => q.pop_before(t, seq),
                None => q.pop(),
            };
            match (popped, head) {
                (Some((t, Event::ServerReady { backend })), _) => out.push((t, backend)),
                (Some(_), _) => unreachable!(),
                (None, Some((t, _, delay))) => {
                    q.advance(t);
                    out.push((t, STREAM));
                    q.schedule(t + delay, ready(FOLLOW_UP));
                    head = rest.next().map(|(t, delay)| (t, q.reserve(t), delay));
                }
                (None, None) => break,
            }
            assert_eq!(q.now(), out.last().expect("just pushed").0);
        }
        out
    }

    /// The loop `merged` replaced: every stream element is a heap
    /// entry that schedules its follow-up and its successor when popped.
    fn all_scheduled(stream: &[(f64, f64)], queued: &[f64]) -> Vec<(f64, usize)> {
        let mut q = EventQueue::new();
        let mut rest = stream.iter().copied();
        let mut delay = 0.0;
        if let Some((t, d)) = rest.next() {
            q.schedule(t, ready(STREAM));
            delay = d;
        }
        for (i, &t) in queued.iter().enumerate() {
            q.schedule(t, ready(i));
        }
        let mut out = Vec::new();
        while let Some((t, Event::ServerReady { backend })) = q.pop() {
            out.push((t, backend));
            if backend == STREAM {
                q.schedule(t + delay, ready(FOLLOW_UP));
                if let Some((t, d)) = rest.next() {
                    q.schedule(t, ready(STREAM));
                    delay = d;
                }
            }
        }
        out
    }

    /// Exact ties on both sides of the seq order: the first stream
    /// element is reserved before anything is scheduled, a zero-delay
    /// follow-up before the next element, the queued events in between.
    #[test]
    fn reserved_stream_merges_in_seq_order_at_exact_ties() {
        let stream = [(1.0, 0.0), (1.0, 1.0), (2.0, 0.5)];
        let queued = [1.0, 0.5, 2.0, 3.0];
        assert_eq!(
            merged(&stream, &queued),
            [
                (0.5, 1),
                (1.0, STREAM),
                (1.0, 0),
                (1.0, FOLLOW_UP),
                (1.0, STREAM),
                (2.0, 2),
                (2.0, FOLLOW_UP),
                (2.0, STREAM),
                (2.5, FOLLOW_UP),
                (3.0, 3),
            ]
        );
        assert_eq!(merged(&stream, &queued), all_scheduled(&stream, &queued));
    }

    proptest! {
        /// Merging a stream against the queue pops what scheduling
        /// everything pops. Times sit on a coarse grid so exact ties
        /// between stream, follow-ups and queue are the common case.
        #[test]
        #[cfg_attr(miri, ignore = "hundreds of heap operations a case; the tie test above runs")]
        fn merging_a_stream_equals_scheduling_it(
            stream in prop::collection::vec((0u32..4, 0u32..6), 0..60),
            queued in prop::collection::vec(0u32..80, 0..60),
        ) {
            let mut t = 0.0;
            let stream: Vec<(f64, f64)> = stream
                .iter()
                .map(|&(gap, delay)| {
                    t += f64::from(gap) * 0.5;
                    (t, f64::from(delay) * 0.5)
                })
                .collect();
            let queued: Vec<f64> = queued.iter().map(|&q| f64::from(q) * 0.5).collect();
            prop_assert_eq!(merged(&stream, &queued), all_scheduled(&stream, &queued));
        }
    }
}
