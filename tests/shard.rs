//! Shard-count invariance suite (ISSUE 10).
//!
//! The sharded runner is only admissible because it is
//! *behaviour-invisible*: pre-generating arrival windows on worker
//! threads and folding observations on a collector thread must leave
//! every simulated byte exactly where the serial loop put it. These
//! tests pin that contract end-to-end — the full stack (MPO policy,
//! market simulator, load balancer, request-level runner, telemetry)
//! must render a byte-identical `RunnerReport` (JSON and FNV digest)
//! at `shards = 1` and `shards = 4`, for **all five** chaos scenarios
//! at all three golden seeds. How much wall time the shards buy is
//! `benchmark/`'s `sim.shard.speedup_at_nproc`.
//!
//! The invariance holds by construction, not by luck: every arrival
//! draw comes from the counter-based generator in `sim::rng`
//! (`sample(seed, stream, counter)` — a pure function with no draw
//! order), windows are keyed per (interval, stream), and the fold
//! worker applies observations in ascending window order, exactly the
//! serial call sequence. The property tests below pin the generator
//! itself: draw-order freedom and the documented reference values.

use proptest::prelude::*;

use spotweb::sim::rng::{sample, stream_id, CounterStream, DOMAIN_ARRIVAL_GAP};
use spotweb::sim::{report_digest, report_json};
use spotweb_bench::cell::{Cell, SCENARIOS};

/// Same seeds as `tests/golden/runner_equivalence.jsonl`: three seeds
/// so a divergence that cancels at one RNG stream still trips.
const GOLDEN_SEEDS: [u64; 3] = [1234, 7, 99];

/// Replay `scenario` through the full stack — the `figures trace`
/// cell (MPO policy, 4 × 5-minute intervals at 300 rps) — with
/// `shards` arrival shards.
fn full_stack_report(scenario: &str, seed: u64, shards: usize) -> spotweb::sim::RunnerReport {
    let cell = Cell::trace_default(scenario, "spotweb", seed).expect("known names");
    Cell { shards, ..cell }.run().report
}

/// The headline gate: shards 1 ≡ shards 4, byte for byte, for every
/// chaos scenario at every golden seed — JSON *and* digest, so a
/// mismatch names the exact (scenario, seed) that diverged.
#[test]
fn sharded_report_is_byte_identical_for_all_scenarios_and_seeds() {
    for seed in GOLDEN_SEEDS {
        for scenario in SCENARIOS {
            let serial = full_stack_report(scenario, seed, 1);
            let sharded = full_stack_report(scenario, seed, 4);
            assert_eq!(
                report_json(&serial),
                report_json(&sharded),
                "scenario {scenario} seed {seed}: shards 4 diverged from shards 1"
            );
            assert_eq!(
                report_digest(&serial),
                report_digest(&sharded),
                "scenario {scenario} seed {seed}: digest diverged"
            );
            assert!(serial.served > 0, "{scenario} seed {seed} served nothing");
        }
    }
}

/// Shard counts that do not divide the interval count evenly (3 shards
/// over 4 windows) exercise the pipeline's tail handling.
#[test]
fn uneven_shard_counts_also_match() {
    let serial = full_stack_report("revocation-storm", 1234, 1);
    for shards in [2, 3, 5, 8] {
        let sharded = full_stack_report("revocation-storm", 1234, shards);
        assert_eq!(
            report_json(&serial),
            report_json(&sharded),
            "shards {shards} diverged"
        );
    }
}

/// A small reactive-policy cell (the runner's own baseline instead of
/// the bridge, one-minute intervals, two of them) is shard-invariant
/// too: the summary a sweep would print and the report bytes.
#[test]
fn small_reactive_cell_is_shard_invariant() {
    let cell = Cell {
        rps: 200.0,
        interval_secs: 60.0,
        intervals: 2,
        ..Cell::trace_default("zero_warning", "reactive", 7).expect("known names")
    };
    let serial = cell.run();
    let sharded = Cell { shards: 4, ..cell }.run();
    assert!(serial.report.served > 0);
    assert_eq!(report_json(&serial.report), report_json(&sharded.report));
    assert_eq!(serial.summary().to_json(), sharded.summary().to_json());
}

/// The documented reference values of `sim::rng::sample` — pinned in
/// the module docs and in `workload::rng`'s own tests; repeating them
/// here means a cross-crate re-export or an accidental remix of the
/// finalizer cannot slip past the integration suite.
#[test]
fn counter_rng_reference_values_are_pinned() {
    assert_eq!(sample(0, 0, 0), 0xc742_1349_0448_6fe2);
    assert_eq!(sample(0, 0, 1), 0x668a_e934_cfa5_edc8);
    assert_eq!(sample(0, 1, 0), 0x3e21_3028_a1d0_978f);
    assert_eq!(sample(1, 0, 0), 0xcf52_bc59_cd06_25b4);
    assert_eq!(sample(1234, 42, 7), 0x609b_7908_07b8_f8cf);
}

proptest! {
    /// Draw-order freedom: evaluating the counters of a stream in any
    /// permuted order yields exactly the values the in-order pass
    /// produced. This is the property the sharded runner's correctness
    /// rests on — a stateful generator fails it by construction.
    #[test]
    fn counter_rng_is_draw_order_free(
        seed in any::<u64>(),
        stream_index in 0u64..1024,
        perm_seed in any::<u64>(),
    ) {
        let stream = CounterStream::new(seed, stream_id(DOMAIN_ARRIVAL_GAP, stream_index));
        let in_order: Vec<u64> = (0..64).map(|c| stream.u64_at(c)).collect();
        // Fisher–Yates permutation driven by an independent counter
        // stream keyed off `perm_seed` — deterministic per case.
        let shuffle = CounterStream::new(perm_seed, stream_id(DOMAIN_ARRIVAL_GAP, 0));
        let mut order: Vec<u64> = (0..64).collect();
        for i in (1..order.len()).rev() {
            let j = shuffle.range_at(i as u64, i as u64 + 1) as usize;
            order.swap(i, j);
        }
        // Consume in shuffled order, then check every counter landed
        // on the same value the sequential pass saw.
        for &c in &order {
            prop_assert_eq!(stream.u64_at(c), in_order[c as usize]);
        }
    }

    /// Distinct (seed, stream) pairs decorrelate: no counter value
    /// collides across neighbouring streams in a short window (a
    /// broken stream keying would alias them wholesale).
    #[test]
    fn counter_rng_streams_do_not_alias(seed in any::<u64>(), idx in 0u64..512) {
        let a = CounterStream::new(seed, stream_id(DOMAIN_ARRIVAL_GAP, idx));
        let b = CounterStream::new(seed, stream_id(DOMAIN_ARRIVAL_GAP, idx + 1));
        let hits = (0..32).filter(|&c| a.u64_at(c) == b.u64_at(c)).count();
        prop_assert_eq!(hits, 0, "adjacent streams alias");
    }
}
