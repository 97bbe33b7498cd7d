//! User-session tracking.
//!
//! The paper's load balancer migrates *user sessions* off a revoked
//! server within the warning period ("the load balancer migrates all
//! user sessions on the revoked server to the remaining servers").
//! Sessions are sticky: follow-up requests of a session go to its
//! assigned backend; migration re-pins them. This works because the
//! front-end tier is stateless — session state lives in the back-end
//! tier — so re-pinning is safe (§4.4).

#[expect(
    clippy::disallowed_types,
    reason = "the assignment map is probed by key only, never iterated; rendered output walks per_backend (BTreeMap + insertion-ordered Vecs)"
)]
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

use crate::backend::BackendId;

/// Deterministic, allocation-free hasher for u64 session ids: one
/// Fibonacci multiply plus an xor-shift to disperse sequential ids.
/// A fixed function (no per-process `RandomState` seed) so the table
/// behaves identically in every run — though nothing may iterate the
/// assignment map anyway (see [`SessionTable`]).
#[derive(Debug, Default)]
pub struct SessionIdHasher(u64);

impl Hasher for SessionIdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // FNV-1a fallback for non-u64 writes (unused by u64 keys).
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_u64(&mut self, n: u64) {
        let h = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }
}

/// Session-id → backend assignment table.
///
/// The assignment map sits on the per-arrival routing path (one
/// lookup per sticky request), so it is a hash map with a fixed
/// [`SessionIdHasher`] rather than a `BTreeMap` — O(1) probes, no
/// tree walk. Determinism holds structurally: the map is only ever
/// probed by key (lookup/insert/remove), never iterated, so its
/// internal order cannot reach any output. Order-sensitive walks
/// (migration, dumps) go through the `per_backend` reverse index,
/// whose `Vec`s preserve insertion order.
#[derive(Debug, Clone, Default)]
pub struct SessionTable {
    #[expect(
        clippy::disallowed_types,
        reason = "probed by key only, never iterated; the fixed SessionIdHasher keeps the table run-deterministic anyway"
    )]
    assignments: HashMap<u64, BackendId, BuildHasherDefault<SessionIdHasher>>,
    /// Reverse index: backend → session count (cheap migration scans).
    per_backend: BTreeMap<BackendId, Vec<u64>>,
}

impl SessionTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of tracked sessions.
    pub fn len(&self) -> usize {
        self.assignments.len()
    }

    /// `true` when no sessions are tracked.
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }

    /// Backend currently pinned for `session`, if any.
    pub fn lookup(&self, session: u64) -> Option<BackendId> {
        self.assignments.get(&session).copied()
    }

    /// Pin `session` to `backend` (re-pins if already assigned).
    pub fn assign(&mut self, session: u64, backend: BackendId) {
        if let Some(old) = self.assignments.insert(session, backend) {
            if old != backend {
                if let Some(v) = self.per_backend.get_mut(&old) {
                    v.retain(|s| *s != session);
                }
            } else {
                return;
            }
        }
        self.per_backend.entry(backend).or_default().push(session);
    }

    /// Remove a finished session.
    pub fn remove(&mut self, session: u64) {
        if let Some(b) = self.assignments.remove(&session) {
            if let Some(v) = self.per_backend.get_mut(&b) {
                v.retain(|s| *s != session);
            }
        }
    }

    /// Sessions currently pinned to `backend`.
    pub fn sessions_on(&self, backend: BackendId) -> Vec<u64> {
        self.per_backend.get(&backend).cloned().unwrap_or_default()
    }

    /// Number of sessions pinned to `backend`.
    pub fn count_on(&self, backend: BackendId) -> usize {
        self.per_backend.get(&backend).map_or(0, |v| v.len())
    }

    /// Drop the (empty) reverse-index entry for a backend that is being
    /// compacted out of the balancer, so the `per_backend` map stays
    /// O(live backends) over arbitrarily long runs. The backend must
    /// have no pinned sessions left — compaction only happens after
    /// [`server_died`](crate::LoadBalancer::server_died) removed them.
    pub fn forget_backend(&mut self, backend: BackendId) {
        if let Some(v) = self.per_backend.remove(&backend) {
            assert!(
                v.is_empty(),
                "cannot forget a backend with {} pinned sessions",
                v.len()
            );
        }
    }

    /// Migrate every session off `from`, assigning each via `pick`
    /// (called once per session; returning `None` — or `from` itself —
    /// leaves the session pinned where it is, to be re-homed lazily
    /// once capacity appears). Returns `(migrated, stayed)` counts.
    pub fn migrate_all(
        &mut self,
        from: BackendId,
        mut pick: impl FnMut() -> Option<BackendId>,
    ) -> (usize, usize) {
        let sessions = self.sessions_on(from);
        let mut migrated = 0;
        let mut stayed = 0;
        for s in sessions {
            match pick() {
                Some(to) if to != from => {
                    self.assign(s, to);
                    migrated += 1;
                }
                _ => stayed += 1,
            }
        }
        (migrated, stayed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assign_lookup_remove() {
        let mut t = SessionTable::new();
        t.assign(1, 10);
        t.assign(2, 10);
        t.assign(3, 11);
        assert_eq!(t.lookup(1), Some(10));
        assert_eq!(t.count_on(10), 2);
        t.remove(1);
        assert_eq!(t.lookup(1), None);
        assert_eq!(t.count_on(10), 1);
    }

    #[test]
    fn reassign_moves_reverse_index() {
        let mut t = SessionTable::new();
        t.assign(1, 10);
        t.assign(1, 11);
        assert_eq!(t.count_on(10), 0);
        assert_eq!(t.count_on(11), 1);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn reassign_same_backend_no_duplicates() {
        let mut t = SessionTable::new();
        t.assign(1, 10);
        t.assign(1, 10);
        assert_eq!(t.count_on(10), 1);
    }

    #[test]
    fn migrate_all_moves_everything() {
        let mut t = SessionTable::new();
        for s in 0..10 {
            t.assign(s, 5);
        }
        let mut rr = 0;
        let (migrated, dropped) = t.migrate_all(5, || {
            rr += 1;
            Some(6 + (rr % 2))
        });
        assert_eq!(migrated, 10);
        assert_eq!(dropped, 0);
        assert_eq!(t.count_on(5), 0);
        assert_eq!(t.count_on(6) + t.count_on(7), 10);
    }

    #[test]
    fn migrate_keeps_sessions_when_no_target() {
        let mut t = SessionTable::new();
        t.assign(1, 5);
        t.assign(2, 5);
        let (migrated, stayed) = t.migrate_all(5, || None);
        assert_eq!(migrated, 0);
        assert_eq!(stayed, 2);
        assert_eq!(t.count_on(5), 2, "sessions stay pinned");
    }
}
