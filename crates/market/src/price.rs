//! Spot price processes.
//!
//! EC2 spot prices are set by an internal supply/demand mechanism; from
//! the user's perspective they look like a mean-reverting process with
//! occasional sharp demand surges that can approach (or touch) the
//! on-demand ceiling. We model the *discount factor* `d(t) ∈ (0, 1]`
//! (spot price = `d(t) · on_demand_price`) as:
//!
//! * an Ornstein–Uhlenbeck core in log space, mean-reverting to the
//!   market's base discount (default 30% of on-demand, i.e. 70% off),
//! * a two-state surge regime (calm / surge) driven by a per-market
//!   Markov chain; in surge the mean shifts up to near on-demand,
//! * a floor/ceiling clamp: `d(t) ∈ [0.1 · base, 1.0]` — spot never
//!   exceeds on-demand.
//!
//! Different markets get independent noise streams plus a per-family
//! common component, so families co-move — the property that makes
//! diversification across families (not just sizes) worthwhile.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::catalog::{Catalog, MarketKind, SPOT_BASE_DISCOUNT};

/// Parameters for one market's price process.
#[derive(Debug, Clone)]
pub struct PriceParams {
    /// Long-run mean discount (fraction of on-demand).
    pub base_discount: f64,
    /// Mean-reversion speed per step (0..1, larger = snappier).
    pub reversion: f64,
    /// Per-step volatility of the log-discount.
    pub volatility: f64,
    /// Probability of entering a surge in a calm step.
    pub surge_enter: f64,
    /// Probability of leaving a surge in a surging step.
    pub surge_exit: f64,
    /// Mean discount while surging (close to 1.0 = on-demand parity).
    pub surge_discount: f64,
}

impl Default for PriceParams {
    fn default() -> Self {
        PriceParams {
            base_discount: SPOT_BASE_DISCOUNT,
            reversion: 0.15,
            volatility: 0.08,
            surge_enter: 0.01,
            surge_exit: 0.12,
            surge_discount: 0.85,
        }
    }
}

/// State of one market's price chain.
#[derive(Debug, Clone)]
struct MarketPriceState {
    /// Current log-discount.
    log_d: f64,
    surging: bool,
    params: PriceParams,
    on_demand_price: f64,
    is_spot: bool,
}

/// A stepped spot-price process over all markets of a catalog.
///
/// Call [`SpotPriceProcess::step`] once per decision interval; read
/// current prices with [`SpotPriceProcess::prices`] or
/// [`SpotPriceProcess::price`]. On-demand markets always return their
/// fixed price.
#[derive(Debug, Clone)]
pub struct SpotPriceProcess {
    states: Vec<MarketPriceState>,
    /// Per-family shared shock weight (family co-movement).
    family_of: Vec<usize>,
    family_count: usize,
    rng: ChaCha8Rng,
    /// Weight of the family-common shock vs idiosyncratic noise.
    family_weight: f64,
    /// Replay mode: recorded per-step prices override the stochastic
    /// model (clamped at the last row once the recording runs out).
    replay: Option<ReplayState>,
    /// Fault-injection: while `surge_hold[i] > 0`, market `i`'s surge
    /// regime is pinned (no stochastic transition) and the counter
    /// decays one per step. See [`SpotPriceProcess::inject_shock`].
    surge_hold: Vec<u32>,
}

/// Cursor over a recorded price matrix.
#[derive(Debug, Clone)]
struct ReplayState {
    /// `rows[t][i]` = $/hour of market `i` at step `t`.
    rows: Vec<Vec<f64>>,
    cursor: usize,
}

impl SpotPriceProcess {
    /// Build a process for `catalog` with default parameters and the
    /// given RNG seed.
    pub fn new(catalog: &Catalog, seed: u64) -> Self {
        Self::with_params(catalog, seed, |_| PriceParams::default())
    }

    /// Build with per-market parameters supplied by `params_for`
    /// (argument is the market id).
    pub fn with_params(
        catalog: &Catalog,
        seed: u64,
        params_for: impl Fn(usize) -> PriceParams,
    ) -> Self {
        // Map family names to dense indices.
        let mut fam_names: Vec<&str> = Vec::new();
        let mut family_of = Vec::with_capacity(catalog.len());
        for m in catalog.markets() {
            let fam = m.instance.family.as_str();
            let idx = match fam_names.iter().position(|f| *f == fam) {
                Some(i) => i,
                None => {
                    fam_names.push(fam);
                    fam_names.len() - 1
                }
            };
            family_of.push(idx);
        }
        let states = catalog
            .markets()
            .iter()
            .map(|m| {
                let params = params_for(m.id);
                MarketPriceState {
                    log_d: params.base_discount.ln(),
                    surging: false,
                    params,
                    on_demand_price: m.instance.on_demand_price,
                    is_spot: m.kind == MarketKind::Spot,
                }
            })
            .collect();
        let n = catalog.len();
        SpotPriceProcess {
            states,
            family_of,
            family_count: fam_names.len(),
            rng: ChaCha8Rng::seed_from_u64(seed),
            family_weight: 0.4,
            replay: None,
            surge_hold: vec![0; n],
        }
    }

    /// Build a *replay* process that walks recorded prices instead of
    /// simulating them — the hook for feeding real provider data (e.g.
    /// the paper's published EC2 November-2018 traces) into any
    /// experiment. `rows[t][i]` is market `i`'s $/hour at step `t`;
    /// every row must cover all markets, spot prices must be positive,
    /// and after the last row the final prices hold.
    pub fn replay(catalog: &Catalog, rows: Vec<Vec<f64>>) -> Self {
        assert!(!rows.is_empty(), "replay needs at least one price row");
        for (t, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), catalog.len(), "row {t}: one price per market");
            assert!(
                row.iter().all(|p| p.is_finite() && *p > 0.0),
                "row {t}: prices must be positive"
            );
        }
        let mut process = Self::new(catalog, 0);
        process.apply_row_zero_to_log(&rows[0]);
        process.replay = Some(ReplayState { rows, cursor: 0 });
        process
    }

    fn apply_row_zero_to_log(&mut self, row: &[f64]) {
        for (st, &p) in self.states.iter_mut().zip(row) {
            if st.is_spot {
                st.log_d = (p / st.on_demand_price).max(1e-9).ln();
            }
        }
    }

    /// Number of markets tracked.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// `true` when no markets are tracked.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Fault-injection hook: an exogenous demand spike (or crash) in
    /// `market` — all spot markets when `None`. The current discount is
    /// multiplied by `multiplier` (clamped to the usual
    /// `[0.1·base, 1.0]` band, so spot still never exceeds on-demand)
    /// and the regime set at injection time (surge when
    /// `multiplier > 1`) is *pinned* for the next `hold_steps` advances
    /// before the stochastic transitions resume. A pinned surge also
    /// feeds the revocation model's pressure term through the normal
    /// [`SpotPriceProcess::is_surging`] coupling. No-op on markets in
    /// replay mode (recorded rows are authoritative there).
    pub fn inject_shock(&mut self, market: Option<usize>, multiplier: f64, hold_steps: u32) {
        assert!(
            multiplier.is_finite() && multiplier > 0.0,
            "shock multiplier must be positive"
        );
        if self.replay.is_some() {
            return;
        }
        let ids: Vec<usize> = match market {
            Some(i) => vec![i],
            None => (0..self.len()).collect(),
        };
        for i in ids {
            let st = &mut self.states[i];
            if !st.is_spot {
                continue;
            }
            let lo = (0.1 * st.params.base_discount).ln();
            st.log_d = (st.log_d + multiplier.ln()).clamp(lo, 0.0);
            if multiplier > 1.0 {
                st.surging = true;
            }
            self.surge_hold[i] = hold_steps;
        }
    }

    /// Advance one decision interval.
    pub fn step(&mut self) {
        if let Some(replay) = &mut self.replay {
            if replay.cursor + 1 < replay.rows.len() {
                replay.cursor += 1;
            }
            let row = replay.rows[replay.cursor].clone();
            self.apply_row_zero_to_log(&row);
            return;
        }
        // One common shock per family this step.
        let fam_shock: Vec<f64> = (0..self.family_count)
            .map(|_| standard_normal(&mut self.rng))
            .collect();
        for (i, st) in self.states.iter_mut().enumerate() {
            if !st.is_spot {
                continue;
            }
            let p = &st.params;
            // Regime transition — pinned while a fault injection holds.
            if self.surge_hold[i] > 0 {
                self.surge_hold[i] -= 1;
            } else if st.surging {
                if self.rng.gen::<f64>() < p.surge_exit {
                    st.surging = false;
                }
            } else if self.rng.gen::<f64>() < p.surge_enter {
                st.surging = true;
            }
            let target = if st.surging {
                p.surge_discount.ln()
            } else {
                p.base_discount.ln()
            };
            let eps = self.family_weight * fam_shock[self.family_of[i]]
                + (1.0 - self.family_weight) * standard_normal(&mut self.rng);
            st.log_d += p.reversion * (target - st.log_d) + p.volatility * eps;
            // Clamp: never above on-demand, never below 10% of base.
            let lo = (0.1 * p.base_discount).ln();
            st.log_d = st.log_d.clamp(lo, 0.0);
        }
    }

    /// Current price of market `id` in $/hour.
    pub fn price(&self, id: usize) -> f64 {
        if let Some(replay) = &self.replay {
            return replay.rows[replay.cursor][id];
        }
        let st = &self.states[id];
        if st.is_spot {
            st.on_demand_price * st.log_d.exp()
        } else {
            st.on_demand_price
        }
    }

    /// Current prices of all markets in $/hour.
    pub fn prices(&self) -> Vec<f64> {
        (0..self.len()).map(|i| self.price(i)).collect()
    }

    /// `true` if market `id` is currently in a demand surge.
    pub fn is_surging(&self, id: usize) -> bool {
        self.states[id].surging
    }

    /// Generate a full price trace: `steps` rows, one column per market.
    pub fn generate(&mut self, steps: usize) -> Vec<Vec<f64>> {
        let mut out = Vec::with_capacity(steps);
        for _ in 0..steps {
            self.step();
            out.push(self.prices());
        }
        out
    }
}

/// Box–Muller standard normal (avoids pulling in `rand_distr`).
fn standard_normal<R: Rng>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        if u1 <= f64::MIN_POSITIVE {
            continue;
        }
        let u2: f64 = rng.gen::<f64>();
        return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;

    #[test]
    fn deterministic_for_same_seed() {
        let c = Catalog::fig5_three_markets();
        let mut a = SpotPriceProcess::new(&c, 7);
        let mut b = SpotPriceProcess::new(&c, 7);
        assert_eq!(a.generate(50), b.generate(50));
    }

    #[test]
    fn different_seeds_differ() {
        let c = Catalog::fig5_three_markets();
        let mut a = SpotPriceProcess::new(&c, 1);
        let mut b = SpotPriceProcess::new(&c, 2);
        assert_ne!(a.generate(50), b.generate(50));
    }

    #[test]
    fn spot_never_exceeds_on_demand() {
        let c = Catalog::ec2_us_east_36();
        let mut p = SpotPriceProcess::new(&c, 42);
        for _ in 0..500 {
            p.step();
            for m in c.markets() {
                assert!(p.price(m.id) <= m.instance.on_demand_price + 1e-12);
                assert!(p.price(m.id) > 0.0);
            }
        }
    }

    #[test]
    fn on_demand_price_constant() {
        let c = Catalog::fig5_three_markets().with_on_demand();
        let mut p = SpotPriceProcess::new(&c, 3);
        let od_id = 3; // first on-demand twin
        let before = p.price(od_id);
        p.generate(100);
        assert_eq!(p.price(od_id), before);
    }

    #[test]
    fn mean_discount_near_base() {
        // Over a long window the average discount should sit near the
        // base discount (surges pull it up slightly).
        let c = Catalog::fig5_three_markets();
        let mut p = SpotPriceProcess::new(&c, 11);
        let trace = p.generate(5000);
        let od = c.market(0).instance.on_demand_price;
        let mean: f64 = trace.iter().map(|row| row[0]).sum::<f64>() / trace.len() as f64;
        let mean_discount = mean / od;
        assert!(
            mean_discount > 0.2 && mean_discount < 0.55,
            "mean discount {mean_discount}"
        );
    }

    #[test]
    fn cheapest_market_changes_over_time() {
        // The Fig. 5(a) property: with per-market dynamics the argmin of
        // per-request price is not constant.
        let c = Catalog::fig5_three_markets();
        let mut p = SpotPriceProcess::new(&c, 5);
        let caps: Vec<f64> = c.markets().iter().map(|m| m.capacity_rps()).collect();
        let mut argmins = std::collections::BTreeSet::new();
        for _ in 0..2000 {
            p.step();
            let per_req: Vec<f64> = (0..c.len()).map(|i| p.price(i) / caps[i]).collect();
            let argmin = per_req
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap()
                .0;
            argmins.insert(argmin);
        }
        assert!(argmins.len() >= 2, "cheapest market never changed");
    }

    #[test]
    fn injected_shock_spikes_then_reverts() {
        let c = Catalog::fig5_three_markets();
        let mut p = SpotPriceProcess::new(&c, 21);
        let before = p.price(0);
        p.inject_shock(Some(0), 3.0, 4);
        let shocked = p.price(0);
        assert!(
            shocked > before * 1.5,
            "shock should spike the price: {before} -> {shocked}"
        );
        assert!(p.is_surging(0), "shock pins the surge regime");
        let od = c.market(0).instance.on_demand_price;
        assert!(shocked <= od + 1e-12, "shock still capped at on-demand");
        // Other markets untouched at injection time.
        let other_before = p.price(1);
        assert!((p.price(1) - other_before).abs() < 1e-12);
        // After the hold expires the regime unpins and mean reversion
        // pulls the discount back toward base.
        let mut post = Vec::new();
        for _ in 0..120 {
            p.step();
            post.push(p.price(0));
        }
        let tail_mean: f64 = post[60..].iter().sum::<f64>() / 60.0;
        assert!(
            tail_mean < shocked,
            "price must revert after the hold: tail {tail_mean} vs shocked {shocked}"
        );
    }

    #[test]
    fn shock_is_deterministic() {
        let c = Catalog::fig5_three_markets();
        let mut a = SpotPriceProcess::new(&c, 13);
        let mut b = SpotPriceProcess::new(&c, 13);
        a.inject_shock(None, 2.5, 6);
        b.inject_shock(None, 2.5, 6);
        assert_eq!(a.generate(50), b.generate(50));
    }

    #[test]
    fn shock_noop_in_replay_mode() {
        let c = Catalog::fig5_three_markets();
        let rows = vec![vec![0.1; c.len()]; 3];
        let mut p = SpotPriceProcess::replay(&c, rows);
        p.inject_shock(None, 5.0, 3);
        assert_eq!(p.price(0), 0.1, "replay rows stay authoritative");
    }

    #[test]
    fn surges_occur_and_end() {
        let c = Catalog::ec2_us_east_36();
        let mut p = SpotPriceProcess::new(&c, 9);
        let mut surge_steps = 0;
        let mut calm_steps = 0;
        for _ in 0..2000 {
            p.step();
            if p.is_surging(0) {
                surge_steps += 1;
            } else {
                calm_steps += 1;
            }
        }
        assert!(surge_steps > 0, "no surge in 2000 steps");
        assert!(calm_steps > surge_steps, "surge should be the rare regime");
    }
}
