//! Self-profiling: scoped wall-clock span trees and lock-wait hooks.
//!
//! This module family is the *host-side* counterpart of the sim-clock
//! tracer in [`crate::trace`]: where trace spans are stamped with the
//! simulation clock and are part of the deterministic output contract,
//! `prof` spans measure **real wall time and mutex waits** of the
//! process itself, so the hot paths of the simulator can be attributed
//! with evidence instead of guesses (ROADMAP items 1 and 3).
//!
//! Determinism contract (the quarantine boundary):
//!
//! * Span **structure** — names, nesting, call counts, lock-wait
//!   counts — is a pure function of the simulated run and is therefore
//!   golden-lockable ([`report::MergedNode::structure_json`]).
//! * All **wall-clock seconds** are quarantined: they leave only
//!   through [`report::MergedNode::timed_json`] (the
//!   `*.traced.spans.json` files `benchmark/` writes), never through a
//!   byte-stable golden.
//!
//! Layout:
//!
//! * [`span`] — the RAII scope guards ([`scope!`](crate::prof_scope)),
//!   per-thread span trees, lock-wait timers, and the global
//!   [`span::begin`]/[`span::Session::finish`] session control.
//! * [`report`] — the [`report::Profile`] produced by a finished
//!   session: per-thread trees and the deterministic merged tree.
//!
//! Disabled-by-default cost: one relaxed atomic load per
//! [`scope!`](crate::prof_scope) entry and per [`span::lock_timer`]
//! call — nothing else runs until a [`span::Session`] is active.

pub mod report;
pub mod span;

pub use report::{MergedNode, Profile, SpanNode, SpanTree};
pub use span::{begin, flush_thread, lock_timer, set_thread_label, LockTimer, ScopeGuard, Session};

// Re-export the guard macro under its ergonomic path, so callers write
// `prof::scope!(names::SPAN_LB_ROUTE)`.
pub use crate::prof_scope as scope;
