//! Cost accounting.
//!
//! Most clouds bill per second today (§5.1 of the paper notes Azure is
//! the holdout with hourly billing), and per-second is what the meter
//! charges: exactly the seconds used.

/// Accumulates spend for a fleet over simulated time.
#[derive(Debug, Clone)]
pub struct CostMeter {
    total: f64,
    /// Per-market cumulative spend.
    per_market: Vec<f64>,
}

impl CostMeter {
    /// New meter for `markets` markets.
    pub fn new(markets: usize) -> Self {
        CostMeter {
            total: 0.0,
            per_market: vec![0.0; markets],
        }
    }

    /// Charge for running `count` servers of market `id` at `price`
    /// ($/hour) for `duration_secs` seconds.
    pub fn charge(&mut self, id: usize, count: u32, price_per_hour: f64, duration_secs: f64) {
        assert!(duration_secs >= 0.0 && price_per_hour >= 0.0);
        let cost = count as f64 * price_per_hour * (duration_secs / 3600.0);
        self.total += cost;
        self.per_market[id] += cost;
    }

    /// Total spend so far ($).
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Per-market spends ($), indexed by market id.
    pub fn per_market(&self) -> &[f64] {
        &self.per_market
    }
}

/// Event-driven per-interval billing over a fleet of transient servers.
///
/// The naive way to bill an interval is to scan every backend ever
/// provisioned and ask "were you alive during any part of it?" — O(ever)
/// per interval, which is exactly the kind of accumulated-state control
/// work that collapses week-scale runs. The ledger instead tracks state
/// *transitions*: a backend is [`add`](Self::add)ed once when bought,
/// moved to a died list by [`mark_died`](Self::mark_died) when its
/// death fires, optionally [`restore`](Self::restore)d after a flap,
/// and [`settle`](Self::settle) walks only the live entries plus this
/// interval's deaths.
///
/// # Invariants (the "same dollars" argument)
///
/// Both internal lists are kept ascending by backend id and disjoint
/// (an id is live, or died since the last settle, never both), and
/// settle merge-walks them, so the [`CostMeter::charge`] call sequence —
/// and therefore the order-sensitive floating-point accumulation — is
/// identical to the old ascending-id scan:
///
/// * a live entry charges the full interval;
/// * a death at `d` with `t0 < d` charges `(d − t0).min(interval)` in
///   the interval where it *fires* (deaths fire lazily at control
///   timepoints, so a deadline crossing an interval boundary bills the
///   full earlier interval and nothing later — the scan's exact
///   behaviour, quirk included);
/// * a death at `d ≤ t0` charges nothing, and the died list is cleared
///   at settle, so a corpse is never walked again.
///
/// ```
/// use spotweb_market::billing::{BillingLedger, CostMeter};
///
/// let prices = [1.2, 0.8];
/// let mut ledger = BillingLedger::new();
/// let mut meter = CostMeter::new(2);
/// ledger.add(0, 0); // backend 0 in market 0
/// ledger.add(1, 1); // backend 1 in market 1
/// ledger.mark_died(1, 300.0); // dies halfway through [0, 600)
/// ledger.settle(0.0, 600.0, &prices, &mut meter);
/// // Backend 0: full 600 s; backend 1: 300 s at $0.8/h.
/// assert!((meter.total() - (1.2 * 600.0 / 3600.0 + 0.8 * 300.0 / 3600.0)).abs() < 1e-12);
/// // The corpse is gone: the next interval bills only backend 0.
/// let before = meter.total();
/// ledger.settle(600.0, 600.0, &prices, &mut meter);
/// assert!((meter.total() - before - 1.2 * 600.0 / 3600.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BillingLedger {
    /// Live billable backends as `(backend id, market)`, ascending id.
    entries: Vec<(usize, usize)>,
    /// Deaths fired since the last settle as `(backend id, market,
    /// death time)`, ascending id.
    died: Vec<(usize, usize, f64)>,
}

impl BillingLedger {
    /// Empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Start billing `backend` (in `market`) from the next settle on.
    ///
    /// # Panics
    ///
    /// Panics if `backend` is already live, or died since the last
    /// settle (a flap comes back through [`restore`](Self::restore)).
    pub fn add(&mut self, backend: usize, market: usize) {
        assert!(
            self.died.binary_search_by_key(&backend, |d| d.0).is_err(),
            "backend {backend} has an unsettled death in the billing ledger"
        );
        match self.entries.binary_search_by_key(&backend, |e| e.0) {
            Ok(_) => panic!("backend {backend} already in the billing ledger"),
            Err(pos) => self.entries.insert(pos, (backend, market)),
        }
    }

    /// Record that `backend`'s death *fired* at `at` (sim seconds).
    /// The backend leaves the live list; the next settle charges its
    /// partial interval (or nothing, if `at` precedes the interval).
    ///
    /// # Panics
    ///
    /// Panics if `backend` is not live (never added, or already died).
    pub fn mark_died(&mut self, backend: usize, at: f64) {
        let pos = self
            .entries
            .binary_search_by_key(&backend, |e| e.0)
            .unwrap_or_else(|_| panic!("backend {backend} died without a live billing entry"));
        let (id, market) = self.entries.remove(pos);
        let at_pos = self
            .died
            .binary_search_by_key(&backend, |d| d.0)
            .expect_err("live and died lists are disjoint: `add` rejects an unsettled death");
        self.died.insert(at_pos, (id, market, at));
    }

    /// A flapped backend came back: resume full-interval billing. If
    /// the death fired earlier in the *same* interval the partial
    /// charge is cancelled (the old scan billed a restored backend for
    /// the whole interval); across intervals the death was already
    /// settled and only the live entry returns.
    ///
    /// # Panics
    ///
    /// Panics if `backend` is already live.
    pub fn restore(&mut self, backend: usize, market: usize) {
        if let Ok(pos) = self.died.binary_search_by_key(&backend, |d| d.0) {
            self.died.remove(pos);
        }
        self.add(backend, market);
    }

    /// Charge `meter` for the interval `[t0, t0 + interval_secs)` at
    /// `prices` ($/h per market): live entries bill the full interval,
    /// this interval's deaths bill up to their death time, and the died
    /// list is cleared. Charges run in ascending backend-id order
    /// across both lists (see the type-level invariants).
    pub fn settle(&mut self, t0: f64, interval_secs: f64, prices: &[f64], meter: &mut CostMeter) {
        let mut live = self.entries.iter().peekable();
        let mut dead = self.died.iter().peekable();
        loop {
            // Merge-walk: lowest backend id first, exactly like the
            // old scan over the combined vector.
            let take_live = match (live.peek(), dead.peek()) {
                (Some(&&(lid, _)), Some(&&(did, _, _))) => lid < did,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            if take_live {
                let &(_, market) = live.next().expect("peeked live entry");
                meter.charge(market, 1, prices[market], interval_secs);
            } else {
                let &(_, market, at) = dead.next().expect("peeked died entry");
                if at > t0 {
                    let billed_secs = (at - t0).min(interval_secs);
                    meter.charge(market, 1, prices[market], billed_secs);
                }
            }
        }
        self.died.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_second_is_proportional() {
        let mut m = CostMeter::new(1);
        m.charge(0, 2, 1.0, 1800.0); // 2 servers × $1/h × 0.5 h
        assert!((m.total() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn per_market_attribution() {
        let mut m = CostMeter::new(2);
        m.charge(0, 1, 2.0, 3600.0);
        m.charge(1, 1, 3.0, 3600.0);
        assert_eq!(m.per_market(), &[2.0, 3.0]);
        assert_eq!(m.total(), 5.0);
    }

    #[test]
    fn zero_duration_is_free() {
        let mut m = CostMeter::new(1);
        m.charge(0, 10, 5.0, 0.0);
        assert_eq!(m.total(), 0.0);
    }

    #[test]
    fn ledger_bills_partial_interval_at_death() {
        let mut ledger = BillingLedger::new();
        let mut meter = CostMeter::new(1);
        ledger.add(0, 0);
        ledger.mark_died(0, 450.0);
        ledger.settle(0.0, 600.0, &[3600.0], &mut meter);
        assert!((meter.total() - 450.0).abs() < 1e-9);
        // Nothing left to bill.
        ledger.settle(600.0, 600.0, &[3600.0], &mut meter);
        assert!((meter.total() - 450.0).abs() < 1e-9);
        assert!(ledger.entries.is_empty());
    }

    #[test]
    fn ledger_deferred_death_bills_full_then_zero() {
        // A death whose deadline lands after the last arrival of an
        // interval fires at the top of the next one: the old scan
        // billed the full earlier interval and nothing later. The
        // ledger replicates the quirk because `mark_died` happens at
        // fire time.
        let mut ledger = BillingLedger::new();
        let mut meter = CostMeter::new(1);
        ledger.add(0, 0);
        ledger.settle(0.0, 600.0, &[3600.0], &mut meter); // deadline 599.9 not fired yet
        assert!((meter.total() - 600.0).abs() < 1e-9);
        ledger.mark_died(0, 599.9); // fires during [600, 1200)
        ledger.settle(600.0, 600.0, &[3600.0], &mut meter);
        assert!(
            (meter.total() - 600.0).abs() < 1e-9,
            "death before t0 bills 0"
        );
    }

    #[test]
    fn ledger_same_interval_flap_restore_bills_full() {
        let mut ledger = BillingLedger::new();
        let mut meter = CostMeter::new(1);
        ledger.add(0, 0);
        ledger.mark_died(0, 100.0);
        ledger.restore(0, 0); // back before the settle
        ledger.settle(0.0, 600.0, &[3600.0], &mut meter);
        assert!(
            (meter.total() - 600.0).abs() < 1e-9,
            "restored backend bills whole interval"
        );
    }

    #[test]
    fn ledger_cross_interval_flap_bills_partial_then_full() {
        let mut ledger = BillingLedger::new();
        let mut meter = CostMeter::new(1);
        ledger.add(0, 0);
        ledger.mark_died(0, 500.0);
        ledger.settle(0.0, 600.0, &[3600.0], &mut meter);
        assert!((meter.total() - 500.0).abs() < 1e-9);
        ledger.restore(0, 0); // restores during the next interval
        ledger.settle(600.0, 600.0, &[3600.0], &mut meter);
        assert!((meter.total() - 1100.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "backend 0 has an unsettled death")]
    fn ledger_rejects_a_second_life_before_the_death_settles() {
        // Unchecked, the next `mark_died(0, _)` would find id 0 in the
        // died list already and settle would bill the one server twice.
        let mut ledger = BillingLedger::new();
        ledger.add(0, 0);
        ledger.mark_died(0, 100.0);
        ledger.add(0, 0);
    }

    /// Reference implementation: the old all-backends scan over
    /// parallel `(market, death_time)` vectors.
    fn scan_settle(
        markets: &[usize],
        death_time: &[Option<f64>],
        t0: f64,
        interval_secs: f64,
        prices: &[f64],
        meter: &mut CostMeter,
    ) {
        for (id, &m) in markets.iter().enumerate() {
            let billed_secs = match death_time[id] {
                Some(d) if d <= t0 => 0.0,
                Some(d) => (d - t0).min(interval_secs),
                None => interval_secs,
            };
            if billed_secs > 0.0 {
                meter.charge(m, 1, prices[m], billed_secs);
            }
        }
    }

    #[test]
    fn ledger_matches_scan_bit_for_bit_across_seeds() {
        // Random add/death/flap-restore schedules at the issue's three
        // seeds: the event-driven ledger and the O(ever) scan must
        // produce bit-identical totals (same charges, same order).
        for seed in [1234u64, 7, 99] {
            // Tiny deterministic LCG so this test needs no RNG dep.
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut next = || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                state >> 33
            };
            let n_markets = 3;
            let prices = [1.3, 0.7, 2.1];
            let interval = 600.0;
            let mut ledger = BillingLedger::new();
            let mut ledger_meter = CostMeter::new(n_markets);
            let mut scan_meter = CostMeter::new(n_markets);
            let mut markets: Vec<usize> = Vec::new();
            let mut death_time: Vec<Option<f64>> = Vec::new();
            for k in 0..40usize {
                let t0 = k as f64 * interval;
                // Buy 0-2 servers.
                for _ in 0..(next() % 3) {
                    let m = (next() % n_markets as u64) as usize;
                    ledger.add(markets.len(), m);
                    markets.push(m);
                    death_time.push(None);
                }
                // Kill one live server ~half the time, at a random
                // offset that can precede t0 (a deferred death firing
                // late) or land inside the interval.
                if next() % 2 == 0 {
                    let live: Vec<usize> = (0..markets.len())
                        .filter(|&i| death_time[i].is_none())
                        .collect();
                    if !live.is_empty() {
                        let id = live[(next() % live.len() as u64) as usize];
                        // In [t0 - 50, t0 + 599]: a fired death never
                        // postdates the interval it fires in.
                        let d = t0 - 50.0 + (next() % 650) as f64;
                        death_time[id] = Some(d);
                        ledger.mark_died(id, d);
                        // ~a third of deaths are flaps that restore
                        // within the same interval.
                        if next() % 3 == 0 {
                            death_time[id] = None;
                            ledger.restore(id, markets[id]);
                        }
                    }
                }
                ledger.settle(t0, interval, &prices, &mut ledger_meter);
                scan_settle(
                    &markets,
                    &death_time,
                    t0,
                    interval,
                    &prices,
                    &mut scan_meter,
                );
                // The scan keeps re-billing 0.0 for corpses; normalize
                // them out the way the runner's fired-death semantics
                // do (a fired death is in the past by the next scan).
                assert_eq!(
                    ledger_meter.total().to_bits(),
                    scan_meter.total().to_bits(),
                    "seed {seed} interval {k}"
                );
                for (m, (l, s)) in ledger_meter
                    .per_market()
                    .iter()
                    .zip(scan_meter.per_market())
                    .enumerate()
                {
                    assert_eq!(
                        l.to_bits(),
                        s.to_bits(),
                        "seed {seed} interval {k} market {m}"
                    );
                }
            }
        }
    }
}
