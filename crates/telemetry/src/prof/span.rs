//! Scoped span profiler: RAII guards, per-thread span trees, lock-wait
//! timers, and global session control.
//!
//! A profiling *session* is started with [`begin`] and ended with
//! [`Session::finish`], which returns the collected
//! [`crate::prof::report::Profile`]. While a session is
//! active, every [`scope!`](crate::prof_scope) guard records into a
//! tree local to its thread; a thread's tree is flushed into the
//! session when the thread exits, when it calls [`flush_thread`]
//! explicitly, or, for the session-owning thread, when `finish` is
//! called. Pool/scoped workers must call [`flush_thread`] at the end
//! of their closure: `std::thread::scope` only waits for closures to
//! return, so the thread-exit flush (a TLS destructor) can still be
//! pending when `finish` drains the session. Threads un-flushed at
//! `finish` time are not included.
//!
//! Sessions are serialized process-wide by an internal mutex, so
//! concurrent tests cannot bleed spans into each other's profiles.
//!
//! ```
//! use spotweb_telemetry::prof;
//!
//! let session = prof::begin();
//! {
//!     prof::scope!("demo.outer");
//!     {
//!         prof::scope!("demo.inner");
//!     }
//! }
//! let profile = session.finish();
//! let merged = profile.merged();
//! assert_eq!(merged.children.len(), 1);
//! assert_eq!(merged.children[0].name, "demo.outer");
//! assert_eq!(merged.children[0].children[0].name, "demo.inner");
//! ```

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use super::report::{Profile, SpanNode, SpanTree};

/// Fast path: is a session active? One relaxed load per guard.
static ENABLED: AtomicBool = AtomicBool::new(false);
/// Session generation counter; thread-local trees left over from an
/// earlier session are discarded when the epoch has moved on.
static EPOCH: AtomicU64 = AtomicU64::new(0);
/// Trees flushed by exited threads, drained by [`Session::finish`].
static REGISTRY: Mutex<Vec<SpanTree>> = Mutex::new(Vec::new());
/// Serializes sessions process-wide (held for the session lifetime).
static SESSION: Mutex<()> = Mutex::new(());

/// Lock a static mutex, recovering from poisoning: the data these
/// mutexes guard (profile trees, the session token) stays structurally
/// valid even if a holder panicked.
fn lock_recover<T>(m: &'static Mutex<T>) -> MutexGuard<'static, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// One open scope on a thread's span stack.
struct Frame {
    /// Index of the node this frame accumulates into.
    node: usize,
    /// Wall-clock entry time.
    started: Instant,
}

/// Per-thread profiling state: a node arena (index 0 is the synthetic
/// root) plus the stack of open frames.
struct Local {
    epoch: u64,
    label: String,
    nodes: Vec<SpanNode>,
    stack: Vec<Frame>,
}

impl Local {
    fn new(epoch: u64) -> Local {
        Local {
            epoch,
            label: "main".to_string(),
            nodes: vec![SpanNode::new("")],
            stack: Vec::new(),
        }
    }

    /// Find or create the child of `parent` with the given name.
    /// Children are kept in first-entry order here; deterministic
    /// ordering is imposed at merge time (sorted by name).
    fn child(&mut self, parent: usize, name: &'static str) -> usize {
        let found = self.nodes[parent]
            .children
            .iter()
            .copied()
            .find(|&c| std::ptr::eq(self.nodes[c].name, name) || self.nodes[c].name == name);
        match found {
            Some(c) => c,
            None => {
                let c = self.nodes.len();
                self.nodes.push(SpanNode::new(name));
                self.nodes[parent].children.push(c);
                c
            }
        }
    }

    /// True if anything was recorded (spans entered or lock waits
    /// attributed to the root).
    fn has_data(&self) -> bool {
        self.nodes.len() > 1 || self.nodes[0].lock_waits > 0
    }

    fn into_tree(self) -> SpanTree {
        SpanTree {
            label: self.label,
            nodes: self.nodes,
        }
    }
}

/// Wrapper whose `Drop` flushes the thread's tree into the global
/// registry when the thread exits mid-session (the normal path for
/// `thread::scope` workers).
struct LocalSlot(Option<Local>);

impl Drop for LocalSlot {
    fn drop(&mut self) {
        flush_slot(&mut self.0);
    }
}

thread_local! {
    static LOCAL: RefCell<LocalSlot> = const { RefCell::new(LocalSlot(None)) };
}

/// Push a thread's tree into the registry if it belongs to the live
/// session and recorded anything. The epoch is compared under the
/// registry lock, which [`begin`] holds while it clears the registry
/// and bumps the epoch, so a tree of the previous session can never
/// land in the next one.
fn flush_slot(slot: &mut Option<Local>) {
    if let Some(local) = slot.take() {
        if local.has_data() {
            let mut registry = lock_recover(&REGISTRY);
            if local.epoch == EPOCH.load(Ordering::Acquire) {
                registry.push(local.into_tree());
            }
        }
    }
}

/// Run `f` against this thread's `Local` for the current epoch,
/// creating or resetting it as needed. No-op outside a session.
fn with_local<R>(f: impl FnOnce(&mut Local) -> R) -> Option<R> {
    let epoch = EPOCH.load(Ordering::Acquire);
    LOCAL
        .try_with(|slot| {
            let mut slot = slot.borrow_mut();
            let reset = match slot.0.as_ref() {
                Some(local) => local.epoch != epoch,
                None => true,
            };
            if reset {
                slot.0 = Some(Local::new(epoch));
            }
            f(slot.0.as_mut().expect("local installed above"))
        })
        .ok()
}

/// Label this thread's tree in the profile (e.g. `worker-0`). The
/// default label is `main`. No-op when no session is active.
pub fn set_thread_label(label: &str) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    with_local(|local| local.label = label.to_string());
}

/// Flush this thread's recorded tree into the active session now
/// rather than at thread exit. Pool and scoped workers must call this
/// as the last statement of their closure (after every guard has
/// dropped): the parent `std::thread::scope` only waits for closures
/// to return, so the TLS-destructor flush that normally runs at thread
/// exit can race [`Session::finish`] and silently drop the tree. Spans
/// still open on this thread keep their counts but lose the pending
/// elapsed time. No-op outside a session.
pub fn flush_thread() {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    let _ = LOCAL.try_with(|slot| flush_slot(&mut slot.borrow_mut().0));
}

/// RAII guard for one profiled scope; created by
/// [`scope!`](crate::prof_scope) (or [`ScopeGuard::enter`] directly).
/// Exit time is recorded when the guard drops. Guards are not `Send`:
/// they must drop on the thread that created them.
pub struct ScopeGuard {
    active: bool,
    _not_send: PhantomData<*const ()>,
}

impl ScopeGuard {
    /// Enter a span named `name`. When no session is active this is a
    /// single relaxed atomic load and the guard is inert.
    ///
    /// `name` must be a `'static` string — in workspace crates it must
    /// be one of the `SPAN_*` constants in [`crate::names`] (checked on
    /// the spans a traced run records, `tests/telemetry.rs`).
    pub fn enter(name: &'static str) -> ScopeGuard {
        if !ENABLED.load(Ordering::Relaxed) {
            return ScopeGuard {
                active: false,
                _not_send: PhantomData,
            };
        }
        let entered = with_local(|local| {
            let parent = local.stack.last().map(|f| f.node).unwrap_or(0);
            let node = local.child(parent, name);
            local.nodes[node].count += 1;
            local.stack.push(Frame {
                node,
                #[expect(
                    clippy::disallowed_methods,
                    reason = "self-profiler span time: seconds leave only through timed_json (benchmark/'s *.spans.json), never the structure golden"
                )]
                started: Instant::now(),
            });
        })
        .is_some();
        ScopeGuard {
            active: entered,
            _not_send: PhantomData,
        }
    }
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        with_local(|local| {
            // The stack can be empty if the session was finished (and
            // the tree flushed) while this guard was still open; the
            // partial span is simply not recorded.
            if let Some(frame) = local.stack.pop() {
                local.nodes[frame.node].total_secs += frame.started.elapsed().as_secs_f64();
            }
        });
    }
}

/// Measures one mutex acquisition wait; created by [`lock_timer`]
/// immediately before a `lock()` call, completed with
/// [`LockTimer::done`] immediately after the lock is held. The wait is
/// attributed to the innermost open span on this thread (or the tree
/// root when no span is open).
#[must_use = "call .done() right after the lock() call returns"]
pub struct LockTimer {
    started: Option<Instant>,
    _not_send: PhantomData<*const ()>,
}

/// Start a lock-wait timer. When no session is active this is a single
/// relaxed atomic load and [`LockTimer::done`] is a no-op.
pub fn lock_timer() -> LockTimer {
    #[expect(
        clippy::disallowed_methods,
        reason = "self-profiler lock-wait time: seconds leave only through timed_json, the structure golden carries the count"
    )]
    let started = if ENABLED.load(Ordering::Relaxed) {
        Some(Instant::now())
    } else {
        None
    };
    LockTimer {
        started,
        _not_send: PhantomData,
    }
}

impl LockTimer {
    /// Record the elapsed wait into the current span.
    pub fn done(self) {
        if let Some(started) = self.started {
            let secs = started.elapsed().as_secs_f64();
            with_local(|local| {
                let node = local.stack.last().map(|f| f.node).unwrap_or(0);
                local.nodes[node].lock_waits += 1;
                local.nodes[node].lock_wait_secs += secs;
            });
        }
    }
}

/// Disables profiling when the session object drops, even on an early
/// return or panic. Declared before the mutex guard in [`Session`] so
/// it runs while the session lock is still held.
struct Disarm;

impl Drop for Disarm {
    fn drop(&mut self) {
        ENABLED.store(false, Ordering::SeqCst);
    }
}

/// An active profiling session; returned by [`begin`], consumed by
/// [`Session::finish`]. Holds the process-wide session lock for its
/// lifetime. Dropping a session without calling `finish` disables
/// profiling and discards the collected trees.
pub struct Session {
    _disarm: Disarm,
    _lock: MutexGuard<'static, ()>,
}

/// Start a profiling session. Blocks until any other session (e.g. in
/// a concurrently running test) has finished. Clears previously
/// collected trees, bumps the epoch so stale thread-locals reset
/// themselves, and enables recording.
pub fn begin() -> Session {
    let lock = lock_recover(&SESSION);
    open_epoch(lock_recover(&REGISTRY));
    ENABLED.store(true, Ordering::SeqCst);
    Session {
        _disarm: Disarm,
        _lock: lock,
    }
}

/// Clear the registry and bump the epoch under one hold of the
/// registry lock (see [`flush_slot`]).
fn open_epoch(mut registry: MutexGuard<'static, Vec<SpanTree>>) {
    registry.clear();
    EPOCH.fetch_add(1, Ordering::AcqRel);
}

impl Session {
    /// Stop recording and return the collected profile: the flushed
    /// trees of every exited thread plus the calling thread's tree,
    /// sorted by thread label for stable ordering.
    pub fn finish(self) -> Profile {
        ENABLED.store(false, Ordering::SeqCst);
        LOCAL.with(|slot| flush_slot(&mut slot.borrow_mut().0));
        let mut threads: Vec<SpanTree> = std::mem::take(&mut *lock_recover(&REGISTRY));
        threads.sort_by(|a, b| a.label.cmp(&b.label));
        Profile { threads }
        // `self` drops here: Disarm re-disables (idempotent), then the
        // session lock is released.
    }
}

/// Enter a profiled scope for the rest of the enclosing block.
///
/// Expands to a `let` binding of a [`ScopeGuard`], so the span closes
/// when the block exits (RAII). When no session is active the cost is
/// one relaxed atomic load.
///
/// ```
/// use spotweb_telemetry::{names, prof};
/// fn route_once() {
///     prof::scope!(names::SPAN_LB_ROUTE);
///     // ... work measured under "lb.route" ...
/// }
/// route_once();
/// ```
#[macro_export]
macro_rules! prof_scope {
    ($name:expr) => {
        let _prof_span_guard = $crate::prof::span::ScopeGuard::enter($name);
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_guard_records_nothing() {
        // No session: guard must be inert and leave no thread state
        // that the next session could pick up.
        {
            crate::prof_scope!("t.disabled");
        }
        let session = begin();
        let profile = session.finish();
        assert!(profile.threads.is_empty(), "no spans were recorded");
    }

    #[test]
    fn nesting_and_counts() {
        let session = begin();
        for _ in 0..3 {
            crate::prof_scope!("t.outer");
            for _ in 0..2 {
                crate::prof_scope!("t.inner");
                // Sibling re-entry merges into one node per name.
            }
        }
        let profile = session.finish();
        let merged = profile.merged();
        assert_eq!(merged.children.len(), 1);
        let outer = &merged.children[0];
        assert_eq!((outer.name.as_str(), outer.count), ("t.outer", 3));
        // Note: `prof_scope!` guards within one block all live to the
        // block end, so the two inner iterations nest under outer.
        let inner = &outer.children[0];
        assert_eq!((inner.name.as_str(), inner.count), ("t.inner", 6));
    }

    #[test]
    fn lock_waits_attribute_to_innermost_span() {
        let m = Mutex::new(0u32);
        let session = begin();
        {
            crate::prof_scope!("t.locked");
            let timer = lock_timer();
            let _g = m.lock().expect("fresh mutex is not poisoned");
            timer.done();
        }
        // Outside any span: attributed to the root.
        let timer = lock_timer();
        let _g2 = m.lock().expect("fresh mutex is not poisoned");
        timer.done();
        drop(_g2);
        let profile = session.finish();
        let merged = profile.merged();
        let locked = merged
            .children
            .iter()
            .find(|c| c.name == "t.locked")
            .expect("span recorded");
        assert_eq!(locked.lock_waits, 1);
        assert_eq!(merged.lock_waits, 1, "root-attributed wait");
    }

    #[test]
    fn worker_threads_flush_on_exit_and_sort_by_label() {
        let session = begin();
        std::thread::scope(|s| {
            for w in (0..3).rev() {
                s.spawn(move || {
                    set_thread_label(&format!("worker-{w}"));
                    {
                        crate::prof_scope!("t.work");
                    }
                    flush_thread();
                });
            }
        });
        {
            crate::prof_scope!("t.main");
        }
        let profile = session.finish();
        let labels: Vec<&str> = profile.threads.iter().map(|t| t.label.as_str()).collect();
        assert_eq!(labels, ["main", "worker-0", "worker-1", "worker-2"]);
        let merged = profile.merged();
        let work = merged
            .children
            .iter()
            .find(|c| c.name == "t.work")
            .expect("worker spans merged");
        assert_eq!(work.count, 3);
    }

    /// A thread of the previous session that exits while `begin` holds
    /// the registry lock must not push its tree into the new session.
    /// The worker is released while the lock is held and given time to
    /// reach its exit flush before the epoch moves; the check passes
    /// whatever the schedule, and comparing the epoch before taking
    /// the lock fails it whenever the worker arrives within that time.
    #[test]
    fn a_stale_exit_flush_cannot_land_in_the_next_session() {
        use std::sync::mpsc;
        let (recorded_tx, recorded_rx) = mpsc::channel();
        let (exit_tx, exit_rx) = mpsc::channel::<()>();
        let first = begin();
        let worker = std::thread::spawn(move || {
            {
                crate::prof_scope!("t.stale");
            }
            recorded_tx.send(()).expect("test thread waits");
            // Exit without flushing: the TLS destructor flushes.
            let _ = exit_rx.recv();
        });
        recorded_rx.recv().expect("worker recorded");
        drop(first.finish());

        // `begin`, with the worker's exit flush parked on the registry lock.
        let lock = lock_recover(&SESSION);
        let registry = lock_recover(&REGISTRY);
        exit_tx.send(()).expect("worker waits");
        std::thread::sleep(std::time::Duration::from_millis(50));
        open_epoch(registry);
        ENABLED.store(true, Ordering::SeqCst);
        let second = Session {
            _disarm: Disarm,
            _lock: lock,
        };
        worker.join().expect("worker exits cleanly");
        let profile = second.finish();
        assert!(
            profile.threads.is_empty(),
            "the previous session's tree bled in: {:?}",
            profile.merged().children
        );
    }

    #[test]
    fn sessions_are_isolated() {
        let first = begin();
        {
            crate::prof_scope!("t.first");
        }
        let p1 = first.finish();
        let second = begin();
        {
            crate::prof_scope!("t.second");
        }
        let p2 = second.finish();
        assert!(p1.merged().children.iter().any(|c| c.name == "t.first"));
        let m2 = p2.merged();
        let names: Vec<&str> = m2.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["t.second"], "no bleed from the first session");
    }
}
