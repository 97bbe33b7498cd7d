//! Video-on-Demand (TV4-like) workload generator.
//!
//! The paper's second trace comes from TV4, a Swedish VoD provider:
//! strongly evening-skewed diurnal demand (prime time ~20:00–22:00
//! local), near-idle early mornings, and "multiple, hard to predict
//! spikes" — premieres and sports events that multiply load within an
//! hour. That spikiness is what limits SpotWeb's savings to ~25% on
//! this trace (vs ~50% on Wikipedia), so the generator names it
//! (`SPIKE_RATE`, `SPIKE_MAGNITUDE`).

use crate::rng::{stream_id, CounterStream, DOMAIN_NOISE};
use crate::spikes::{inject_spikes, random_spikes};
use crate::trace::Trace;

/// Mean request rate (req/s).
const MEAN_RATE: f64 = 1500.0;
/// Prime-time concentration: peak-hour demand as a multiple of the
/// daily mean (2.2 ≈ strongly evening-skewed).
const PRIME_TIME_BOOST: f64 = 2.2;
/// Night floor as a fraction of the mean.
const NIGHT_FLOOR: f64 = 0.15;
/// Weekend evenings are busier by this fraction.
const WEEKEND_BOOST: f64 = 0.2;
/// AR(1) noise standard deviation.
const NOISE_SD: f64 = 0.05;
/// AR(1) noise persistence.
const NOISE_PHI: f64 = 0.5;
/// Flash-spike arrival rate per hour (≈ 4 spikes per three-week trace).
const SPIKE_RATE: f64 = 0.008;
/// Flash-spike magnitude range (multiples of current level).
const SPIKE_MAGNITUDE: (f64, f64) = (0.8, 2.5);

/// Generate an hourly VoD-like trace of `hours` samples with mean
/// 1 500 req/s; re-base it with [`Trace::with_mean`].
pub fn vod_like(hours: usize, seed: u64) -> Trace {
    // Counter-based draws keyed by hour (see `crate::rng`).
    let noise_draws = CounterStream::new(seed, stream_id(DOMAIN_NOISE, 0));
    let mut noise = 0.0_f64;
    let mut values = Vec::with_capacity(hours);
    for h in 0..hours {
        let hod = (h % 24) as f64;
        let day = h / 24;
        // Evening-skewed shape: Gaussian bump centered at 21:00 with a
        // shoulder from ~18:00, floored at `night_floor`.
        let prime = (-((hod - 21.0) * (hod - 21.0)) / (2.0 * 3.0 * 3.0)).exp();
        let shoulder = (-((hod - 18.0) * (hod - 18.0)) / (2.0 * 4.0 * 4.0)).exp();
        let mut shape = NIGHT_FLOOR + (PRIME_TIME_BOOST - NIGHT_FLOOR) * prime.max(0.6 * shoulder);
        if day % 7 >= 5 && (18.0..=23.0).contains(&hod) {
            shape *= 1.0 + WEEKEND_BOOST;
        }
        let eps: f64 = noise_draws.unit_f64_at(h as u64) * 2.0 - 1.0;
        noise = NOISE_PHI * noise + NOISE_SD * eps;
        values.push((MEAN_RATE * shape * (1.0 + noise)).max(0.0));
    }
    let base = Trace::new(3600.0, values);
    // Inject hard-to-predict flash spikes with an independent stream.
    let spikes = random_spikes(
        hours,
        SPIKE_RATE,
        SPIKE_MAGNITUDE.0,
        SPIKE_MAGNITUDE.1,
        seed.wrapping_add(0x51CE5),
    );
    let spiked = inject_spikes(&base, &spikes);
    // Re-center on the requested mean (spikes raise it slightly).
    spiked.with_mean(MEAN_RATE)
}

#[cfg(test)]
mod tests {
    use super::*;

    const THREE_WEEKS: usize = 21 * 24;

    #[test]
    fn deterministic() {
        assert_eq!(
            vod_like(THREE_WEEKS, 1).values,
            vod_like(THREE_WEEKS, 1).values
        );
        assert_ne!(
            vod_like(THREE_WEEKS, 1).values,
            vod_like(THREE_WEEKS, 2).values
        );
    }

    #[test]
    fn prime_time_dominates() {
        let t = vod_like(THREE_WEEKS, 3);
        let avg_at = |hod: usize| {
            let vals: Vec<f64> = t
                .values
                .iter()
                .enumerate()
                .filter(|(i, _)| i % 24 == hod)
                .map(|(_, v)| *v)
                .collect();
            spotweb_linalg::vector::mean(&vals)
        };
        assert!(avg_at(21) > 3.0 * avg_at(4), "prime time must dwarf night");
    }

    #[test]
    fn has_multiple_hard_spikes() {
        // The defining property vs Wikipedia: several >50% hour-over-hour
        // jumps across three weeks. (Seed picked for a typical draw of
        // the counter-based generator; most seeds yield 2–7 jumps.)
        let t = vod_like(THREE_WEEKS, 3);
        let jumps = t
            .values
            .windows(2)
            .filter(|w| w[1] > 1.5 * w[0].max(1.0))
            .count();
        assert!(jumps >= 2, "expected multiple spikes, got {jumps}");
    }

    #[test]
    fn spikier_than_wikipedia() {
        let wiki = crate::wikipedia::wikipedia_like(THREE_WEEKS, 5);
        let vod = vod_like(THREE_WEEKS, 5);
        let spike_count = |t: &Trace| {
            t.values
                .windows(2)
                .filter(|w| (w[1] - w[0]).abs() > 0.4 * w[0].max(1.0))
                .count()
        };
        assert!(spike_count(&vod) > spike_count(&wiki));
    }

    #[test]
    fn mean_near_target() {
        let t = vod_like(THREE_WEEKS, 6);
        assert!(
            (t.mean() - 1500.0).abs() / 1500.0 < 0.05,
            "mean {}",
            t.mean()
        );
    }
}
