//! Analyzer configuration: the quarantine and renderer registries.
//!
//! Both registries are lists of *module-path prefixes* (segment-aware,
//! see [`crate::files::module_matches`]). The checked-in defaults for
//! this workspace live in [`LintConfig::spotweb`]; fixture and unit
//! tests build their own configs.

/// Registries consulted by the path-scoped rules.
#[derive(Debug, Clone, Default)]
pub struct LintConfig {
    /// Modules allowed to read the wall clock (`Instant`/`SystemTime`).
    /// Their timings must only ever reach output that is declared
    /// machine-dependent (a timing figure, a profile's timed tree,
    /// stderr), never the byte-stable traces, reports, or goldens.
    pub wall_clock_quarantine: Vec<String>,
    /// Modules that render byte-stable output (JSON/JSONL/Prometheus
    /// text or inputs feeding it); hash-ordered collections and
    /// non-canonical float formatting are banned here.
    pub renderers: Vec<String>,
    /// Crate whose files define the telemetry API itself and are
    /// therefore exempt from `telemetry-name-constants`.
    pub telemetry_crate: String,
    /// Per-request hot-path modules: string-keyed `.count(…)` /
    /// `.observe(…)` sink calls are banned here even with `names::`
    /// constants — the name lookup costs a map probe per request, so
    /// these modules must resolve a `CounterHandle`/`HistogramHandle`
    /// once and increment through it (ISSUE 5).
    pub hot_paths: Vec<String>,
    /// Crates whose profiling spans (`prof::scope!`, `prof_scope!`,
    /// `ScopeGuard::enter`) must be named through `telemetry::names`
    /// `SPAN_*` constants rather than inline string literals — the
    /// span tree is golden-locked, so producers and the golden must
    /// not be able to fork a span name (ISSUE 7).
    pub span_crates: Vec<String>,
    /// Module-path prefixes whose non-test code may name a
    /// golden-directory path in a string literal
    /// (`golden-write-outside-bless`). Everything else regenerates
    /// fixtures through `figures bless`, which bumps epochs and records
    /// digests in the manifest.
    pub golden_writers: Vec<String>,
    /// Shard-parallel arrival-path modules: stateful sequential RNGs
    /// (`ChaCha8Rng`) are banned here even when seeded, because their
    /// draws depend on draw *order* and the sharded runner replays the
    /// same windows in any order across cores. The counter streams in
    /// `sim::rng` are the only sanctioned generator (ISSUE 10).
    pub shard_parallel: Vec<String>,
}

impl LintConfig {
    /// The registry for this workspace — the single source of truth
    /// that `spotweb-lint`, `figures lint`, and `tests/lint.rs` share.
    ///
    /// To quarantine a new timing module or register a new renderer,
    /// add its module path here (and say why in DESIGN.md's rule
    /// catalog).
    pub fn spotweb() -> LintConfig {
        LintConfig {
            wall_clock_quarantine: vec![
                // Fig. 7(b) optimizer scalability is a timing figure.
                "bench::fig7".to_string(),
                // Self-profiler: wall-clock spans and mutex waits. The
                // span *structure* golden never carries timings; the
                // timed tree leaves only through `benchmark/`.
                "telemetry::prof".to_string(),
                // Long-horizon soak: wall seconds per simulated hour,
                // printed to stderr only (stdout is the byte-stable
                // run summary).
                "bench::soak".to_string(),
            ],
            renderers: vec![
                // The telemetry crate renders traces, records, and
                // Prometheus text.
                "telemetry".to_string(),
                // RunSummary / ChaosReport / latency summaries.
                "sim::sweep".to_string(),
                "sim::faults".to_string(),
                "sim::metrics".to_string(),
                "bench::sweep".to_string(),
                // Leaderboard JSON + fixed-precision human table.
                "bench::tournament".to_string(),
                // Session-table iteration order feeds drain records in
                // the deterministic trace.
                "lb::session".to_string(),
                // Span-structure golden JSON.
                "bench::profile".to_string(),
                // RunnerReport JSON + FNV digest renderer — the bytes
                // the shard invariance gate compares.
                "sim::shard".to_string(),
            ],
            telemetry_crate: "telemetry".to_string(),
            hot_paths: vec![
                // The per-arrival loop of the full-stack scheduler.
                "sim::runner".to_string(),
                // The cluster mechanism both schedulers' per-request
                // path runs through: one served/killed counter tick
                // and one latency observation per simulated request.
                "sim::cluster".to_string(),
                // Event queue: one counter tick per schedule and pop.
                "sim::engine".to_string(),
                // Router: admission/no-backend drop counters per route.
                "lb::balancer".to_string(),
            ],
            span_crates: vec![
                // The instrumented crates: their spans appear in the
                // golden-locked span tree, so names must come from
                // telemetry::names SPAN_* constants.
                "sim".to_string(),
                "lb".to_string(),
                "core".to_string(),
            ],
            golden_writers: vec![
                // The bless flow is the only production path allowed
                // to rewrite golden fixtures (tests may write their
                // own scratch copies).
                "bench::bless".to_string(),
                // Owner of the `GOLDEN_DIR` constant the manifest
                // checks, the bless flow and this rule itself read.
                "lint::manifest".to_string(),
            ],
            shard_parallel: vec![
                // The sharded arrival path: per-interval windows are
                // generated concurrently, so every draw must be a pure
                // function of (seed, stream, counter).
                "sim::runner".to_string(),
                "sim::cluster".to_string(),
                "sim::shard".to_string(),
                "sim::rng".to_string(),
            ],
        }
    }
}
