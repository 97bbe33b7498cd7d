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
    reason = "the assignment map is probed by key, and iterated only to collect one backend's sessions, which are then sorted by their unique landing stamp"
)]
use std::collections::hash_map::{Entry, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

use crate::backend::BackendId;

/// Deterministic, allocation-free hasher for u64 session ids: one
/// Fibonacci multiply plus an xor-shift to disperse sequential ids.
/// A fixed function (no per-process `RandomState` seed) so the table
/// behaves identically in every run — though no output may depend on
/// the assignment map's iteration order anyway (see [`SessionTable`]).
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
/// lookup per sticky request, one [`assign`](Self::assign) per re-pin),
/// so it is a hash map with a fixed [`SessionIdHasher`] rather than a
/// `BTreeMap` — O(1) probes, no tree walk — and it is the only
/// structure: `assign` and [`remove`](Self::remove) are one probe each.
///
/// Each entry carries a *landing stamp*, taken from a counter whenever
/// a session lands on a backend it was not on (first pin, or a move;
/// never a same-backend re-assign). The walks that must be ordered —
/// [`sessions_on`](Self::sessions_on), hence migration on a warning
/// and the session loss on a death — iterate the map once and sort a
/// backend's sessions by stamp, which is the order they landed there.
/// Stamps are unique, so the map's internal order cannot reach any
/// output. That is O(sessions) per warning or death, in exchange for
/// O(1) instead of O(sessions on the backend) per re-pin.
#[derive(Debug, Clone, Default)]
pub struct SessionTable {
    /// Session → `(backend, landing stamp)`.
    #[expect(
        clippy::disallowed_types,
        reason = "probed by key, iterated only to be sorted by a unique stamp; the fixed SessionIdHasher keeps the table run-deterministic anyway"
    )]
    assignments: HashMap<u64, (BackendId, u64), BuildHasherDefault<SessionIdHasher>>,
    /// The stamp the next landing takes.
    next_stamp: u64,
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
        self.assignments.get(&session).map(|&(backend, _)| backend)
    }

    /// Pin `session` to `backend` (re-pins if already assigned).
    pub fn assign(&mut self, session: u64, backend: BackendId) {
        let landing = (backend, self.next_stamp);
        match self.assignments.entry(session) {
            Entry::Occupied(mut pinned) => {
                if pinned.get().0 == backend {
                    return;
                }
                pinned.insert(landing);
            }
            Entry::Vacant(free) => {
                free.insert(landing);
            }
        }
        self.next_stamp += 1;
    }

    /// Remove a finished session.
    pub fn remove(&mut self, session: u64) {
        self.assignments.remove(&session);
    }

    /// Sessions currently pinned to `backend`, in the order they landed
    /// there.
    pub fn sessions_on(&self, backend: BackendId) -> Vec<u64> {
        let mut landed: Vec<(u64, u64)> = self
            .assignments
            .iter()
            .filter(|&(_, &(b, _))| b == backend)
            .map(|(&session, &(_, stamp))| (stamp, session))
            .collect();
        landed.sort_unstable_by_key(|&(stamp, _)| stamp);
        landed.into_iter().map(|(_, session)| session).collect()
    }

    /// Number of sessions pinned to `backend`.
    pub fn count_on(&self, backend: BackendId) -> usize {
        self.assignments
            .values()
            .filter(|&&(b, _)| b == backend)
            .count()
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
    use std::collections::BTreeMap;

    use proptest::prelude::*;

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
    fn sessions_on_lists_landing_order() {
        let mut t = SessionTable::new();
        for s in [7, 3, 9, 5] {
            t.assign(s, 1);
        }
        // A same-backend re-assign keeps its place; a move away and
        // back, or a remove and re-add, lands last.
        t.assign(7, 1);
        t.assign(3, 2);
        t.assign(3, 1);
        t.remove(9);
        t.assign(9, 1);
        assert_eq!(t.sessions_on(1), vec![7, 5, 3, 9]);
        assert_eq!(t.sessions_on(2), Vec::<u64>::new());
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

    /// The table this module kept before landing stamps: the assignment
    /// map plus a per-backend reverse index of insertion-ordered `Vec`s,
    /// kept current by a `retain` scan on every move and removal.
    #[derive(Default)]
    struct ReverseIndexTable {
        assignments: BTreeMap<u64, BackendId>,
        per_backend: BTreeMap<BackendId, Vec<u64>>,
    }

    impl ReverseIndexTable {
        fn assign(&mut self, session: u64, backend: BackendId) {
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

        fn remove(&mut self, session: u64) {
            if let Some(b) = self.assignments.remove(&session) {
                if let Some(v) = self.per_backend.get_mut(&b) {
                    v.retain(|s| *s != session);
                }
            }
        }

        fn sessions_on(&self, backend: BackendId) -> Vec<u64> {
            self.per_backend.get(&backend).cloned().unwrap_or_default()
        }

        fn count_on(&self, backend: BackendId) -> usize {
            self.per_backend.get(&backend).map_or(0, |v| v.len())
        }

        fn migrate_all(
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

    const SESSIONS: u64 = 12;
    const BACKENDS: BackendId = 4;

    /// A migration target chooser cycling through `picks` for `budget`
    /// calls, then `None`. A pick of `BACKENDS` stands for `None` too;
    /// a pick may also be the backend being migrated from.
    fn picker(picks: &[BackendId], budget: usize) -> impl FnMut() -> Option<BackendId> + '_ {
        let mut calls = 0;
        move || {
            let pick = picks[calls % picks.len()];
            calls += 1;
            (calls <= budget && pick < BACKENDS).then_some(pick)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 256 }))]

        /// Stamps reproduce the reverse index exactly: after every step
        /// of a seeded sequence of assigns, same-backend re-assigns,
        /// removes, remove-then-re-adds and migrations (cut off by a
        /// budget, with `None` and `from` among the picks), both tables
        /// agree on every lookup, the size, and every backend's count
        /// and full session order.
        #[test]
        fn stamps_match_the_reverse_index(
            steps in prop::collection::vec(
                (0u8..5, 0..SESSIONS, 0..BACKENDS, 0usize..8, prop::collection::vec(0..BACKENDS + 1, 1..5)),
                1..80,
            ),
        ) {
            let mut table = SessionTable::new();
            let mut reference = ReverseIndexTable::default();
            for (step, (op, session, backend, budget, picks)) in steps.into_iter().enumerate() {
                match op {
                    0 => {
                        table.assign(session, backend);
                        reference.assign(session, backend);
                    }
                    1 => {
                        let same = table.lookup(session).unwrap_or(backend);
                        table.assign(session, same);
                        reference.assign(session, same);
                    }
                    2 => {
                        table.remove(session);
                        reference.remove(session);
                    }
                    3 => {
                        table.remove(session);
                        reference.remove(session);
                        table.assign(session, backend);
                        reference.assign(session, backend);
                    }
                    _ => {
                        let moved = table.migrate_all(backend, picker(&picks, budget));
                        let reference_moved = reference.migrate_all(backend, picker(&picks, budget));
                        prop_assert_eq!(moved, reference_moved, "step {}", step);
                    }
                }
                prop_assert_eq!(table.len(), reference.assignments.len(), "step {}", step);
                for s in 0..SESSIONS {
                    prop_assert_eq!(table.lookup(s), reference.assignments.get(&s).copied(), "step {}", step);
                }
                for b in 0..BACKENDS {
                    prop_assert_eq!(table.count_on(b), reference.count_on(b), "step {}", step);
                    prop_assert_eq!(table.sessions_on(b), reference.sessions_on(b), "step {}", step);
                }
            }
        }
    }
}
