//! Smooth weighted round robin.
//!
//! The classic nginx algorithm: each pick adds every candidate's
//! effective weight to its current counter, selects the largest
//! counter, and subtracts the weight total from the winner. The
//! resulting sequence interleaves candidates proportionally to weight
//! without the bursts of naive WRR. Weights are re-programmable online
//! — the hook SpotWeb's optimizer uses after every portfolio change.

/// Smooth WRR state over candidates identified by index.
///
/// ```
/// use spotweb_lb::SmoothWrr;
///
/// let mut wrr = SmoothWrr::new(vec![3.0, 1.0]);
/// let picks: Vec<usize> = (0..4).map(|_| wrr.pick(|_| true).unwrap()).collect();
/// // Weight 3:1 → three picks of 0 and one of 1 per cycle,
/// // interleaved rather than bursty.
/// assert_eq!(picks.iter().filter(|&&p| p == 0).count(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct SmoothWrr {
    weights: Vec<f64>,
    current: Vec<f64>,
}

impl SmoothWrr {
    /// Create with initial weights (non-negative; all-zero is allowed
    /// and simply never picks).
    pub fn new(weights: Vec<f64>) -> Self {
        assert!(weights.iter().all(|w| *w >= 0.0), "weights must be >= 0");
        let n = weights.len();
        SmoothWrr {
            weights,
            current: vec![0.0; n],
        }
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// `true` when there are no candidates.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Update one candidate's weight (counters are kept, so traffic
    /// shifts smoothly rather than restarting the cycle).
    pub fn set_weight(&mut self, idx: usize, weight: f64) {
        assert!(weight >= 0.0);
        self.weights[idx] = weight;
    }

    /// Grow the candidate set (new backend).
    pub fn push(&mut self, weight: f64) {
        assert!(weight >= 0.0);
        self.weights.push(weight);
        self.current.push(0.0);
    }

    /// Remove candidate `idx`, shifting later candidates down by one.
    ///
    /// Used when a dead backend is compacted out of the balancer: a
    /// retired candidate can never become eligible again, so dropping
    /// its (weight, counter) pair is invisible to every future
    /// [`pick`](Self::pick) — `pick` only reads entries that are
    /// eligible with positive weight, and the surviving candidates keep
    /// their counters, preserving the smooth-WRR cycle phase exactly.
    pub fn remove(&mut self, idx: usize) {
        self.weights.remove(idx);
        self.current.remove(idx);
    }

    /// Pick the next candidate among those where `eligible(idx)` holds.
    /// Returns `None` when no eligible candidate has positive weight.
    pub fn pick(&mut self, eligible: impl Fn(usize) -> bool) -> Option<usize> {
        let mut total = 0.0;
        let mut best: Option<usize> = None;
        for i in 0..self.weights.len() {
            if !eligible(i) || self.weights[i] <= 0.0 {
                continue;
            }
            self.current[i] += self.weights[i];
            total += self.weights[i];
            match best {
                None => best = Some(i),
                Some(b) if self.current[i] > self.current[b] => best = Some(i),
                _ => {}
            }
        }
        if let Some(b) = best {
            self.current[b] -= total;
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count_picks(wrr: &mut SmoothWrr, picks: usize) -> Vec<usize> {
        let mut counts = vec![0usize; wrr.len()];
        for _ in 0..picks {
            let i = wrr.pick(|_| true).unwrap();
            counts[i] += 1;
        }
        counts
    }

    #[test]
    fn proportional_distribution() {
        let mut wrr = SmoothWrr::new(vec![3.0, 1.0]);
        let counts = count_picks(&mut wrr, 400);
        assert_eq!(counts[0], 300);
        assert_eq!(counts[1], 100);
    }

    #[test]
    fn smooth_interleaving() {
        // Weights 2:1:1 → smooth WRR spreads the heavy candidate out;
        // it may touch at cycle boundaries but never runs 3+ in a row
        // (naive WRR would emit 0,0,1,2 every cycle).
        let mut wrr = SmoothWrr::new(vec![2.0, 1.0, 1.0]);
        let mut run = 0;
        for _ in 0..100 {
            let i = wrr.pick(|_| true).unwrap();
            if i == 0 {
                run += 1;
                assert!(run <= 2, "heavy candidate ran {run} times in a row");
            } else {
                run = 0;
            }
        }
    }

    #[test]
    fn eligibility_filter_respected() {
        let mut wrr = SmoothWrr::new(vec![5.0, 1.0]);
        for _ in 0..10 {
            assert_eq!(wrr.pick(|i| i == 1), Some(1));
        }
    }

    #[test]
    fn no_eligible_returns_none() {
        let mut wrr = SmoothWrr::new(vec![1.0, 1.0]);
        assert_eq!(wrr.pick(|_| false), None);
        let mut zero = SmoothWrr::new(vec![0.0]);
        assert_eq!(zero.pick(|_| true), None);
    }

    #[test]
    fn online_weight_change_shifts_traffic() {
        let mut wrr = SmoothWrr::new(vec![1.0, 1.0]);
        let before = count_picks(&mut wrr, 100);
        assert_eq!(before, vec![50, 50]);
        wrr.set_weight(0, 4.0);
        let after = count_picks(&mut wrr, 100);
        assert_eq!(after, vec![80, 20]);
    }

    #[test]
    fn remove_is_invisible_to_survivors() {
        // Two live candidates with a zero-weight corpse between them:
        // compacting the corpse out must not disturb the survivors'
        // smooth-WRR cycle phase.
        let mut a = SmoothWrr::new(vec![3.0, 1.0, 2.0]);
        a.set_weight(1, 0.0);
        let _ = a.pick(|_| true);
        let mut b = a.clone();
        b.remove(1);
        for _ in 0..50 {
            let pa = a.pick(|_| true).unwrap();
            let pb = b.pick(|_| true).unwrap();
            let pa_compact = if pa > 1 { pa - 1 } else { pa };
            assert_eq!(pa_compact, pb);
        }
    }

    #[test]
    fn push_adds_candidate() {
        let mut wrr = SmoothWrr::new(vec![1.0]);
        wrr.push(1.0);
        let counts = count_picks(&mut wrr, 100);
        assert_eq!(counts, vec![50, 50]);
    }
}
