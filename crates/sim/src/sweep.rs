//! Deterministic parallel sweep engine.
//!
//! The paper's evaluation (§6) is a grid of *policy × scenario × seed*
//! runs. Each run is independent: it owns its seeded RNG, its own
//! [`TelemetrySink`](crate::TelemetrySink), its own cloud simulator —
//! nothing is shared, so the grid parallelizes embarrassingly. What
//! must **not** change with parallelism is the output:
//!
//! # Determinism contract
//!
//! * **Seed per run** — every run derives all randomness from its own
//!   spec (scenario + seed). No run reads a shared RNG, the ambient
//!   clock, or another run's state.
//! * **Stable collection order** — results are written into a slot
//!   indexed by the run's position in the input grid, and returned in
//!   that order. Which *worker* executes a run is scheduling noise;
//!   where its result lands is not.
//! * **No shared mutable state** — workers communicate only through
//!   their dedicated result slot.
//!
//! Under this contract the rendered output of a sweep is byte-identical
//! at any `jobs` count — the property `figures sweep` checks on every
//! invocation and the golden test `tests/sweep.rs` locks in.
//!
//! Nothing here reads the wall clock: what a grid costs, and what
//! `jobs` buys, is measured from outside by `benchmark/`
//! (`sim.sweep.parallel_speedup_at_nproc`).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use spotweb_telemetry::json::{fnv1a64_hex, json_f64, json_string};
use spotweb_telemetry::{names, prof};

/// Number of logical cores the runtime reports: the clamp on
/// [`parallel_map`]'s worker count, and the figure the benchmark
/// records beside every parallel speed-up.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Map `f` over `tasks` on up to `jobs` worker threads, returning the
/// results **in input order** regardless of which worker ran what.
///
/// At most `min(jobs, tasks.len(), nproc)` workers are spawned — the
/// `nproc` clamp stops an oversubscribed `--jobs` from timesharing
/// against itself on small containers (the PR 7 phantom-regression
/// diagnosis: `--jobs 4` on a 1-core box measured 0.96x "speedup"
/// that was pure context-switch overhead). `jobs == 1` (or a single
/// task, or a 1-core box) runs inline with no threads at all — a
/// single-task sweep never pays `thread::scope` setup. Workers pull
/// tasks from a shared atomic cursor — run `i`'s result always lands
/// in slot `i`, so the output is independent of scheduling. If `f`
/// panics on any task the panic propagates out of the scope.
///
/// When a [`prof`] session is active, each worker records a
/// `sweep.worker` span (labelled `worker-0..`) containing one
/// `sweep.task` span per task it claimed, so per-worker task counts
/// and wall-time skew show in the profile's per-thread trees; the
/// inline path records the same structure on the calling thread. The merged span
/// *structure* (worker count = workers spawned, task count = tasks)
/// stays deterministic even though the task→worker split is not.
///
/// # Examples
///
/// ```
/// use spotweb_sim::sweep::parallel_map;
///
/// let squares = parallel_map(4, (0u64..32).collect(), |i, n| {
///     assert_eq!(i as u64, n); // index matches input order
///     n * n
/// });
/// // Results are in input order, whatever the worker interleaving.
/// assert_eq!(squares, parallel_map(1, (0u64..32).collect(), |_, n| n * n));
/// ```
pub fn parallel_map<T, R, F>(jobs: usize, tasks: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = tasks.len();
    let workers = jobs.max(1).min(n.max(1)).min(nproc());
    if workers <= 1 {
        prof::scope!(names::SPAN_SWEEP_WORKER);
        return tasks
            .into_iter()
            .enumerate()
            .map(|(i, t)| {
                prof::scope!(names::SPAN_SWEEP_TASK);
                f(i, t)
            })
            .collect();
    }

    // Task slots (taken once each) and result slots (written once
    // each), both indexed by input position.
    let task_slots: Vec<Mutex<Option<T>>> =
        tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let result_slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        let task_slots = &task_slots;
        let result_slots = &result_slots;
        let cursor = &cursor;
        let f = &f;
        for w in 0..workers {
            scope.spawn(move || {
                prof::set_thread_label(&format!("worker-{w}"));
                {
                    prof::scope!(names::SPAN_SWEEP_WORKER);
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        prof::scope!(names::SPAN_SWEEP_TASK);
                        let wait = prof::lock_timer();
                        let mut slot = task_slots[i].lock().expect("sweep task slot");
                        wait.done();
                        let task = slot.take().expect("each task is taken exactly once");
                        drop(slot);
                        let result = f(i, task);
                        let wait = prof::lock_timer();
                        let mut out = result_slots[i].lock().expect("sweep result slot");
                        wait.done();
                        *out = Some(result);
                    }
                }
                // `thread::scope` only waits for this closure, not for
                // TLS destructors — flush explicitly so the tree cannot
                // race the session's `finish`.
                prof::flush_thread();
            });
        }
    });

    result_slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("sweep result slot")
                .expect("every slot is filled before the scope ends")
        })
        .collect()
}

/// The deterministic per-run record of a sweep: what one
/// (policy, scenario, seed) simulation did. Contains **no wall-clock
/// data** — rendering a `RunSummary` is a pure function of the run's
/// spec, so sweeps at different `--jobs` counts (or on different
/// machines) produce byte-identical summaries.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Policy name (e.g. `spotweb` or `reactive`).
    pub policy: String,
    /// Chaos scenario the run replayed.
    pub scenario: String,
    /// Seed all of the run's randomness derived from.
    pub seed: u64,
    /// Requests served.
    pub served: u64,
    /// Requests dropped.
    pub dropped: u64,
    /// Dropped / offered.
    pub drop_fraction: f64,
    /// Median request latency (seconds).
    pub p50: f64,
    /// 99th-percentile request latency (seconds).
    pub p99: f64,
    /// Provisioning spend over the run ($).
    pub cost: f64,
    /// Revocation warnings delivered.
    pub revocations: u64,
    /// Sessions the balancer migrated off draining backends.
    pub migrated_sessions: u64,
    /// MPO solves performed (0 for non-optimizing policies).
    pub mpo_solves: u64,
    /// Cumulative ADMM iterations across those solves.
    pub admm_iterations: u64,
}

impl RunSummary {
    /// Grid label `policy/scenario/seed` used in logs and assertion messages.
    pub fn label(&self) -> String {
        format!("{}/{}/{}", self.policy, self.scenario, self.seed)
    }

    /// Render as one byte-stable JSON object (single line, fixed key
    /// order, canonical number formatting via
    /// [`spotweb_telemetry::json`]).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"policy\":{},\"scenario\":{},\"seed\":{},",
                "\"served\":{},\"dropped\":{},\"drop_fraction\":{},",
                "\"p50\":{},\"p99\":{},\"cost\":{},",
                "\"revocations\":{},\"migrated_sessions\":{},",
                "\"mpo_solves\":{},\"admm_iterations\":{}}}"
            ),
            json_string(&self.policy),
            json_string(&self.scenario),
            self.seed,
            self.served,
            self.dropped,
            json_f64(self.drop_fraction),
            json_f64(self.p50),
            json_f64(self.p99),
            json_f64(self.cost),
            self.revocations,
            self.migrated_sessions,
            self.mpo_solves,
            self.admm_iterations,
        )
    }
}

/// FNV-1a 64-bit digest (hex) over the rendered summaries — the cheap
/// fingerprint `figures sweep` compares across `--jobs` counts to
/// prove byte-identical output.
pub fn digest(summaries: &[RunSummary]) -> String {
    let lines: String = summaries.iter().map(|s| s.to_json() + "\n").collect();
    fnv1a64_hex(lines.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(seed: u64) -> RunSummary {
        RunSummary {
            policy: "p".into(),
            scenario: "s".into(),
            seed,
            served: 100 * seed,
            dropped: seed,
            drop_fraction: seed as f64 / 100.0,
            p50: 0.05,
            p99: 0.2,
            cost: 1.25,
            revocations: 2,
            migrated_sessions: 3,
            mpo_solves: 4,
            admm_iterations: 200,
        }
    }

    /// Run `f` inside a profiler session of its own and finish it.
    ///
    /// The profiler's registry is process-wide: a `parallel_map` run
    /// while another test's session is open flushes its workers' trees
    /// into that session, and a tree left on a test thread is flushed
    /// when the thread exits, perhaps into the next one. So every test
    /// here that calls `parallel_map` does it in here: `prof::begin`
    /// waits for any other session, and `finish` takes this thread's
    /// tree before the next can begin.
    fn profiled<R>(f: impl FnOnce() -> R) -> (R, prof::Profile) {
        let session = prof::begin();
        let out = f();
        (out, session.finish())
    }

    fn worker_labels(profile: &prof::Profile) -> Vec<&str> {
        profile
            .threads
            .iter()
            .map(|t| t.label.as_str())
            .filter(|l| l.starts_with("worker-"))
            .collect()
    }

    #[test]
    fn parallel_map_preserves_input_order() {
        let ((serial, parallel), _) = profiled(|| {
            (
                parallel_map(1, (0..100u64).collect(), |_, n| n * 3),
                parallel_map(7, (0..100u64).collect(), |_, n| n * 3),
            )
        });
        assert_eq!(serial, parallel);
        assert_eq!(parallel[41], 123);
    }

    #[test]
    fn parallel_map_handles_empty_and_single() {
        let ((empty, single), _) = profiled(|| {
            (
                parallel_map(4, Vec::<u64>::new(), |_, n| n),
                parallel_map(4, vec![9u64], |i, n| n + i as u64),
            )
        });
        assert!(empty.is_empty());
        assert_eq!(single, vec![9]);
    }

    #[test]
    fn parallel_map_clamps_workers_to_task_count() {
        // One task, eight requested jobs: the single-worker clamp
        // takes the inline path — no thread is spawned at all.
        let (out, profile) = profiled(|| parallel_map(8, vec![21u64], |_, n| n * 2));
        assert_eq!(out, vec![42]);
        assert!(
            worker_labels(&profile).is_empty(),
            "one task runs inline on the caller"
        );
        // Three tasks, eight requested jobs: exactly
        // min(jobs, tasks, nproc) workers — observed through the
        // profiler's per-thread trees. On a 1-core box the clamp
        // collapses to the inline path (no threads at all).
        let expected = 3.min(nproc());
        let (out, profile) = profiled(|| parallel_map(8, (0..3u64).collect(), |_, n| n));
        assert_eq!(out, vec![0, 1, 2]);
        if expected <= 1 {
            assert!(
                worker_labels(&profile).is_empty(),
                "nproc == 1 must run inline"
            );
        } else {
            let want: Vec<String> = (0..expected).map(|w| format!("worker-{w}")).collect();
            assert_eq!(
                worker_labels(&profile),
                want,
                "min(jobs, tasks, nproc) workers"
            );
        }
    }

    #[test]
    fn parallel_map_records_per_worker_task_counts() {
        let (out, profile) = profiled(|| parallel_map(2, (0..5u64).collect(), |_, n| n));
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
        // Every task shows up in exactly one sweep.task span — on
        // worker threads when min(jobs, nproc) > 1, on the calling
        // thread when the nproc clamp forces the inline path. The
        // split between workers is scheduling-dependent, the sum is
        // not.
        let expected_workers = 2.min(nproc());
        let worker_threads = worker_labels(&profile).len();
        if expected_workers <= 1 {
            assert_eq!(worker_threads, 0, "nproc == 1 must run inline");
        } else {
            assert_eq!(worker_threads, 2, "two workers for five tasks");
        }
        let total_tasks: u64 = profile
            .threads
            .iter()
            .flat_map(|t| &t.nodes)
            .filter(|n| n.name == names::SPAN_SWEEP_TASK)
            .map(|n| n.count)
            .sum();
        assert_eq!(total_tasks, 5);
    }

    #[test]
    fn json_is_single_line_and_stable() {
        let s = summary(7);
        let j = s.to_json();
        assert!(!j.contains('\n'));
        assert_eq!(j, s.clone().to_json());
        assert!(j.starts_with("{\"policy\":\"p\""));
        assert!(j.contains("\"drop_fraction\":0.07"));
    }

    #[test]
    fn digest_distinguishes_different_grids() {
        let a = [summary(1), summary(2)];
        let b = [summary(1), summary(3)];
        assert_ne!(digest(&a), digest(&b));
        // Order matters: the digest fingerprints the collection order.
        let swapped = [summary(2), summary(1)];
        assert_ne!(digest(&a), digest(&swapped));
    }
}
