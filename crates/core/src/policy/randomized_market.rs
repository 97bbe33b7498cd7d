//! Randomized market selection (arXiv:2601.14612): draw a small random
//! subset of markets each interval, biased toward cheap and reliable
//! ones.
//!
//! The strategy's argument is game-theoretic: any *deterministic*
//! cheapest-market rule herds every tenant into the same spot pool,
//! which is exactly what drives that pool's price up and triggers the
//! mass revocation everyone was trying to avoid. Randomizing the
//! selection breaks the herd while the cheapness bias keeps the
//! expected cost near the deterministic optimum.
//!
//! Our reproduction keeps the randomness *inside* the determinism
//! contract: the draw is a pure function of `(policy seed, decision
//! interval)` through a hand-rolled [splitmix64] stream — no global
//! RNG, no call-order dependence, byte-identical across job counts and
//! platforms. The cheapness bias `(min_cost / cost)^β` uses an integer
//! exponent via `powi` (exact IEEE multiplications) so no `exp`/`powf`
//! libm call can fork the bytes across platforms.
//!
//! [splitmix64]: https://prng.di.unimi.it/splitmix64.c

use spotweb_market::Catalog;
use spotweb_telemetry::{names, TelemetrySink};

use crate::allocation::{to_server_counts, MIN_ALLOCATION};
use crate::policy::{Policy, PolicyObservation};

/// One step of the splitmix64 generator: advances the state and
/// returns the mixed output word.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A uniform f64 in `[0, 1)` from the next stream word (53 mantissa
/// bits, the standard bit-shift construction).
fn unit_f64(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Number of distinct markets sampled each interval.
const SUBSET: usize = 2;
/// Cheapness exponent of the selection distribution: selection weight
/// ∝ (cheapest_cost / cost)^β · (1 − failure). Integer so the weight is
/// computed by exact multiplications (`powi`) — byte-stable on every
/// platform, no `exp`.
const BETA: i32 = 4;
/// Capacity headroom multiplier.
const HEADROOM: f64 = 1.15;

/// The randomized-selection competitor.
pub struct RandomizedMarketPolicy {
    seed: u64,
    weights: Vec<f64>,
    telemetry: TelemetrySink,
}

impl RandomizedMarketPolicy {
    /// Build for `markets` markets, drawing from the stream keyed by
    /// `seed`.
    pub fn new(markets: usize, seed: u64) -> Self {
        RandomizedMarketPolicy {
            seed,
            weights: vec![0.0; markets],
            telemetry: TelemetrySink::disabled(),
        }
    }

    /// Attach a telemetry sink (counts one decision per `decide`).
    pub fn with_telemetry(mut self, sink: TelemetrySink) -> Self {
        self.telemetry = sink;
        self
    }

    /// Selection weight of each market:
    /// `(min_cost / costᵢ)^β · (1 − failureᵢ)`, clamped non-negative.
    fn selection_weights(catalog: &Catalog, obs: &PolicyObservation<'_>) -> Vec<f64> {
        let n = catalog.len();
        let per_req: Vec<f64> = (0..n)
            .map(|i| obs.prices[i] / catalog.market(i).capacity_rps())
            .collect();
        let min_cost = per_req
            .iter()
            .cloned()
            .filter(|c| *c > 0.0)
            .fold(f64::INFINITY, f64::min);
        per_req
            .iter()
            .zip(obs.failure_probs)
            .map(|(&c, &f)| {
                if c <= 0.0 || !min_cost.is_finite() {
                    return 0.0;
                }
                (min_cost / c).powi(BETA) * (1.0 - f).max(0.0)
            })
            .collect()
    }
}

impl Policy for RandomizedMarketPolicy {
    fn name(&self) -> &str {
        "randomized-market"
    }

    fn decide(&mut self, catalog: &Catalog, obs: &PolicyObservation<'_>) -> Vec<u32> {
        self.telemetry.count(names::POLICY_DECISIONS_TOTAL, 1);
        let n = catalog.len();
        let mut p = Self::selection_weights(catalog, obs);

        // Dedicated stream for this (seed, interval) pair: interval is
        // folded in through one mix step so consecutive intervals land
        // far apart in the sequence.
        let mut key = self.seed ^ (obs.interval as u64).wrapping_mul(0xd6e8_feb8_6659_fd93);
        let mut state = splitmix64(&mut key);

        // Weighted sampling without replacement: k sequential roulette
        // draws, zeroing each winner. Falls back to "everything left
        // equally likely" if all remaining weight is zero.
        let k = SUBSET.min(n).max(1);
        let mut chosen: Vec<usize> = Vec::with_capacity(k);
        for _ in 0..k {
            let total: f64 = p.iter().sum();
            let pick = if total > 0.0 {
                let mut ticket = unit_f64(&mut state) * total;
                let mut winner = n - 1;
                for (i, &w) in p.iter().enumerate() {
                    if w <= 0.0 {
                        continue;
                    }
                    winner = i;
                    if ticket < w {
                        break;
                    }
                    ticket -= w;
                }
                winner
            } else {
                // Uniform over the not-yet-chosen markets.
                let open: Vec<usize> = (0..n).filter(|i| !chosen.contains(i)).collect();
                let idx = (unit_f64(&mut state) * open.len() as f64) as usize;
                open[idx.min(open.len() - 1)]
            };
            p[pick] = 0.0;
            chosen.push(pick);
        }
        chosen.sort_unstable();

        // Split the headroom-inflated load across the drawn markets in
        // proportion to their selection weight (recomputed; the roulette
        // zeroed the working copy).
        let q = Self::selection_weights(catalog, obs);
        let drawn_total: f64 = chosen.iter().map(|&i| q[i]).sum();
        self.weights = vec![0.0; n];
        for &i in &chosen {
            let share = if drawn_total > 0.0 {
                q[i] / drawn_total
            } else {
                1.0 / chosen.len() as f64
            };
            self.weights[i] = share * HEADROOM;
        }

        let lambda = obs
            .oracle
            .and_then(|v| v.workload.first().copied())
            .unwrap_or(obs.current_workload);
        to_server_counts(catalog, &self.weights, lambda, MIN_ALLOCATION)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotweb_linalg::Matrix;

    fn obs<'a>(
        interval: usize,
        prices: &'a [f64],
        failures: &'a [f64],
        cov: &'a Matrix,
    ) -> PolicyObservation<'a> {
        PolicyObservation {
            interval,
            current_workload: 1000.0,
            prices,
            failure_probs: failures,
            covariance: cov,
            oracle: None,
        }
    }

    #[test]
    fn allocates_exactly_the_configured_subset() {
        let catalog = Catalog::fig4_testbed();
        let prices = [0.06, 0.12, 0.24];
        let failures = [0.05; 3];
        let cov = Matrix::identity(3);
        let mut p = RandomizedMarketPolicy::new(3, 42);
        p.decide(&catalog, &obs(0, &prices, &failures, &cov));
        let held = p.weights.iter().filter(|&&w| w > 0.0).count();
        assert_eq!(held, SUBSET);
        let total: f64 = p.weights.iter().sum();
        assert!(
            (total - HEADROOM).abs() < 1e-12,
            "weights sum to the headroom: {total}"
        );
    }

    #[test]
    fn draw_is_a_pure_function_of_seed_and_interval() {
        let catalog = Catalog::fig4_testbed();
        let prices = [0.08, 0.10, 0.40];
        let failures = [0.04, 0.08, 0.02];
        let cov = Matrix::identity(3);
        let run = |seed: u64| {
            let mut p = RandomizedMarketPolicy::new(3, seed);
            (0..6)
                .map(|k| p.decide(&catalog, &obs(k, &prices, &failures, &cov)))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7), "same seed reproduces the draws");
        // Stateless in call order too: re-deciding interval 3 alone
        // matches its value inside the full sequence.
        let full = run(7);
        let mut p = RandomizedMarketPolicy::new(3, 7);
        let lone = p.decide(&catalog, &obs(3, &prices, &failures, &cov));
        assert_eq!(
            lone, full[3],
            "draw depends on the interval, not call order"
        );
    }

    #[test]
    fn different_intervals_rotate_the_selection() {
        let catalog = Catalog::fig4_testbed();
        // Near-equal per-request costs so the draw stays genuinely
        // random rather than pinned to one dominant market.
        let prices = [0.105, 0.2, 0.42];
        let failures = [0.05; 3];
        let cov = Matrix::identity(3);
        let mut p = RandomizedMarketPolicy::new(3, 1234);
        let mut selections = std::collections::BTreeSet::new();
        for k in 0..32 {
            p.decide(&catalog, &obs(k, &prices, &failures, &cov));
            let held: Vec<usize> = p
                .weights
                .iter()
                .enumerate()
                .filter(|(_, &w)| w > 0.0)
                .map(|(i, _)| i)
                .collect();
            selections.insert(held);
        }
        assert!(
            selections.len() > 1,
            "32 intervals draw more than one distinct subset"
        );
    }

    #[test]
    fn cheapness_bias_prefers_the_cheap_market() {
        let catalog = Catalog::fig4_testbed();
        // Market 0 is 4× cheaper per request than the rest: with β = 4
        // its selection weight dominates by 4⁴.
        let prices = [0.0263, 0.2, 0.42];
        let failures = [0.05; 3];
        let cov = Matrix::identity(3);
        let mut p = RandomizedMarketPolicy::new(3, 9);
        let mut market0_held = 0;
        for k in 0..64 {
            p.decide(&catalog, &obs(k, &prices, &failures, &cov));
            if p.weights[0] > 0.0 {
                market0_held += 1;
            }
        }
        assert!(
            market0_held > 56,
            "cheap market held in {market0_held}/64 draws"
        );
    }

    #[test]
    fn covers_the_workload_with_headroom() {
        let catalog = Catalog::fig4_testbed();
        let prices = [0.06, 0.12, 0.24];
        let failures = [0.05; 3];
        let cov = Matrix::identity(3);
        let mut p = RandomizedMarketPolicy::new(3, 5);
        for k in 0..8 {
            let counts = p.decide(&catalog, &obs(k, &prices, &failures, &cov));
            let cap: f64 = counts
                .iter()
                .enumerate()
                .map(|(i, &c)| c as f64 * catalog.market(i).capacity_rps())
                .sum();
            assert!(cap >= 1000.0, "interval {k}: capacity {cap} covers λ");
        }
    }
}
