//! The sanctioned generator for shard-parallel simulation paths.
//!
//! This module is a documented re-export of
//! [`spotweb_workload::rng`] — the counter-based, draw-order-free
//! generator (`sample(seed, stream, counter) -> u64`, a pure
//! function). The primitive lives in the workload crate because the
//! trace generators sit *below* the simulator in the dependency graph
//! and draw from the same keyspace; `sim::rng` is the import path the
//! simulator's own modules treat as canonical.
//!
//! # Why not `ChaCha8Rng` here?
//!
//! A stateful sequential generator makes draw `n` depend on draws
//! `0..n`, which forces the arrival loop to be serial: no time window
//! can be generated without generating every window before it. Inside
//! the sharded runner (`sim::runner` with `RunnerConfig::shards > 1`)
//! that is a correctness bug, not a style choice — per-window workers
//! would race for the shared stream and the run would stop being
//! deterministic. [`CounterStream`] and [`sample`] are the only
//! sanctioned draws there: this crate imports no stateful generator,
//! and `tests/shard.rs` holds every report byte-identical across
//! shard counts.
//!
//! Stream keys are built with [`stream_id`] from the `DOMAIN_*`
//! registry documented in [`spotweb_workload::rng`]; the per-domain
//! index (decision interval, fault ordinal, …) makes every use site's
//! draws independent of every other's, so shards never contend for a
//! sequence.

pub use spotweb_workload::rng::{
    sample, stream_id, CounterStream, DOMAIN_ARRIVAL_GAP, DOMAIN_ARRIVAL_SESSION, DOMAIN_BUMP,
    DOMAIN_FAULT_COIN, DOMAIN_NOISE, DOMAIN_SCENARIO_GAP, DOMAIN_SPIKE_HALF, DOMAIN_SPIKE_MAG,
    DOMAIN_SPIKE_OCCUR, DOMAIN_SPIKE_RAMP,
};
