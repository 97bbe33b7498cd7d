//! Wikipedia-like workload generator.
//!
//! The English-Wikipedia trace of Fig. 3(a)/4(b) is hourly over three
//! weeks and is dominated by smooth diurnal and weekly seasonality with
//! very few spikes. The generator composes:
//!
//! * a diurnal sinusoid (trough at ~04:00 UTC, peak at ~15:00 UTC, the
//!   shape of global English readership),
//! * a weekly modulation (weekends ~10% quieter),
//! * a slow linear growth trend across the window,
//! * small multiplicative AR(1) noise,
//! * (rarely) a mild news-event bump.

use crate::rng::{stream_id, CounterStream, DOMAIN_BUMP, DOMAIN_NOISE};
use crate::trace::Trace;

/// Mean request rate (req/s) the trace is centered on.
const MEAN_RATE: f64 = 3000.0;
/// Diurnal swing as a fraction of the mean (peak-to-mean).
const DIURNAL_AMPLITUDE: f64 = 0.35;
/// Weekend damping (0.1 = weekends 10% quieter).
const WEEKEND_DIP: f64 = 0.10;
/// Total growth across the trace as a fraction (0.05 = +5%).
const GROWTH: f64 = 0.05;
/// AR(1) noise standard deviation (fraction of level).
const NOISE_SD: f64 = 0.02;
/// AR(1) noise persistence in [0, 1).
const NOISE_PHI: f64 = 0.6;
/// Probability per hour of a mild news bump.
const BUMP_PROB: f64 = 0.002;

/// Generate an hourly Wikipedia-like trace of `hours` samples, centered
/// on 3 000 req/s; re-base it with [`Trace::with_mean`].
pub fn wikipedia_like(hours: usize, seed: u64) -> Trace {
    // Counter-based draws keyed by hour: the AR(1) recursion is still
    // sequential, but the underlying draws are order-free (`crate::rng`).
    let noise_draws = CounterStream::new(seed, stream_id(DOMAIN_NOISE, 0));
    let bump_draws = CounterStream::new(seed, stream_id(DOMAIN_BUMP, 0));
    let mut noise = 0.0_f64;
    let mut bump = 0.0_f64; // decaying news-event bump
    let mut values = Vec::with_capacity(hours);
    for h in 0..hours {
        let hour_of_day = (h % 24) as f64;
        let day = h / 24;
        // Diurnal: trough 04:00, peak 15:00 → phase shift.
        let diurnal =
            1.0 + DIURNAL_AMPLITUDE * ((hour_of_day - 15.0) / 24.0 * std::f64::consts::TAU).cos();
        // Weekly: days 5, 6 of each week are weekend.
        let weekly = if day % 7 >= 5 { 1.0 - WEEKEND_DIP } else { 1.0 };
        // Growth across the window.
        let trend = if hours > 1 {
            1.0 + GROWTH * h as f64 / (hours - 1) as f64
        } else {
            1.0
        };
        // AR(1) multiplicative noise.
        let eps: f64 = noise_draws.unit_f64_at(h as u64) * 2.0 - 1.0;
        noise = NOISE_PHI * noise + NOISE_SD * eps;
        // Rare mild bump (news event), +20%, decaying over ~6 h.
        if bump_draws.unit_f64_at(h as u64) < BUMP_PROB {
            bump = 0.2;
        }
        bump *= 0.85;
        let rate = MEAN_RATE * diurnal * weekly * trend * (1.0 + noise + bump);
        values.push(rate.max(0.0));
    }
    Trace::new(3600.0, values)
}

#[cfg(test)]
mod tests {
    use super::*;

    const THREE_WEEKS: usize = 21 * 24;

    #[test]
    fn deterministic() {
        assert_eq!(
            wikipedia_like(THREE_WEEKS, 1).values,
            wikipedia_like(THREE_WEEKS, 1).values
        );
        assert_ne!(
            wikipedia_like(THREE_WEEKS, 1).values,
            wikipedia_like(THREE_WEEKS, 2).values
        );
    }

    #[test]
    fn mean_near_target() {
        let t = wikipedia_like(THREE_WEEKS, 3);
        let m = t.mean();
        assert!((m - 3000.0).abs() / 3000.0 < 0.1, "mean {m}");
    }

    #[test]
    fn diurnal_pattern_present() {
        // Average of 15:00 samples must exceed average of 04:00 samples
        // by roughly the diurnal amplitude.
        let t = wikipedia_like(THREE_WEEKS, 4);
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
        let peak = avg_at(15);
        let trough = avg_at(4);
        assert!(peak > 1.3 * trough, "peak {peak} trough {trough}");
    }

    #[test]
    fn weekends_quieter() {
        let t = wikipedia_like(THREE_WEEKS, 5);
        let (mut wk, mut we) = (Vec::new(), Vec::new());
        for (i, v) in t.values.iter().enumerate() {
            if (i / 24) % 7 >= 5 {
                we.push(*v);
            } else {
                wk.push(*v);
            }
        }
        assert!(
            spotweb_linalg::vector::mean(&we) < spotweb_linalg::vector::mean(&wk),
            "weekends should be quieter"
        );
    }

    #[test]
    fn smooth_few_spikes() {
        // "Very few spikes": hour-over-hour relative jumps above 25%
        // should be rare (< 1% of transitions).
        let t = wikipedia_like(THREE_WEEKS, 6);
        let jumps = t
            .values
            .windows(2)
            .filter(|w| (w[1] - w[0]).abs() / w[0].max(1.0) > 0.25)
            .count();
        assert!(
            (jumps as f64) < 0.01 * t.len() as f64,
            "{jumps} large jumps in {} transitions",
            t.len() - 1
        );
    }

    #[test]
    fn growth_trend_present() {
        let t = wikipedia_like(THREE_WEEKS, 7);
        let first_week = spotweb_linalg::vector::mean(&t.values[..7 * 24]);
        let last_week = spotweb_linalg::vector::mean(&t.values[14 * 24..]);
        assert!(last_week > first_week, "growth should raise later weeks");
    }
}
