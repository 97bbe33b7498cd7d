//! Property tests on the workload generators and trace utilities.

use proptest::prelude::*;
use spotweb_workload::spikes::{inject_spikes, random_spikes};
use spotweb_workload::{vod_like, wikipedia_like};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Generators produce finite, non-negative traces of the requested
    /// length, deterministically per seed.
    #[test]
    fn generators_are_sane(hours in 24usize..600, seed in 0u64..10_000) {
        for t in [wikipedia_like(hours, seed), vod_like(hours, seed)] {
            prop_assert_eq!(t.len(), hours);
            prop_assert!(t.values.iter().all(|v| v.is_finite() && *v >= 0.0));
        }
        prop_assert_eq!(wikipedia_like(hours, seed).values, wikipedia_like(hours, seed).values);
        prop_assert_eq!(vod_like(hours, seed).values, vod_like(hours, seed).values);
    }

    /// Rescaling hits the target mean exactly and preserves shape.
    #[test]
    fn with_mean_is_exact(hours in 24usize..300, seed in 0u64..10_000, target in 1.0f64..1e6) {
        let t = wikipedia_like(hours, seed);
        let scaled = t.with_mean(target);
        prop_assert!((scaled.mean() - target).abs() < 1e-6 * target);
        // Shape preserved: ratios between samples unchanged.
        let r_orig = t.values[1] / t.values[0].max(1e-12);
        let r_scaled = scaled.values[1] / scaled.values[0].max(1e-12);
        prop_assert!((r_orig - r_scaled).abs() < 1e-9 * (1.0 + r_orig.abs()));
    }

    /// Spike injection only ever raises the trace.
    #[test]
    fn spikes_only_add(len in 10usize..200, seed in 0u64..10_000) {
        let base = wikipedia_like(len, seed);
        let spikes = random_spikes(len, 0.05, 0.5, 3.0, seed);
        let spiked = inject_spikes(&base, &spikes);
        for (s, b) in spiked.values.iter().zip(&base.values) {
            prop_assert!(s + 1e-9 >= *b);
        }
    }

    /// rate_at interpolation is bounded by neighbouring samples.
    #[test]
    fn rate_at_within_neighbours(seed in 0u64..10_000, frac in 0.0f64..1.0) {
        let t = wikipedia_like(48, seed);
        let i = 10;
        let time = (i as f64 + frac) * t.interval_secs;
        let r = t.rate_at(time);
        let lo = t.values[i].min(t.values[i + 1]);
        let hi = t.values[i].max(t.values[i + 1]);
        prop_assert!(r >= lo - 1e-9 && r <= hi + 1e-9);
    }
}
