//! Log-bucketed streaming histogram (HDR-style, mergeable).
//!
//! Replaces store-every-sample latency recording: a sample is folded
//! into one of ~2.5k geometrically spaced buckets, so memory is
//! `O(buckets)` regardless of how many samples are recorded, and two
//! histograms over the same layout merge by adding bucket counts.
//!
//! Accuracy: with bucket growth factor `g`, the representative value
//! of a bucket is the geometric mean of its bounds, so any reported
//! percentile is within a factor `sqrt(g)` of the true sample value —
//! `g = 1.01` bounds the relative error at ~0.5%.
//!
//! Determinism: bucket boundaries are built by repeated
//! multiplication and representatives by `sqrt`, both of which IEEE
//! 754 requires to be correctly rounded. A sample's bucket is found
//! from its bits alone: its biased exponent and top seven mantissa
//! bits name a cell, a table gives the bucket holding the cell's low
//! edge, and one comparison against the exact boundary grid finishes
//! the search. No libm call is left, so histogram output is
//! byte-identical across machines — a requirement for the golden trace
//! fixtures.

use std::sync::{Arc, OnceLock};

/// Default lowest representable value (1 microsecond, in seconds).
pub const DEFAULT_FLOOR: f64 = 1e-6;
/// Default highest bucket boundary (~28 hours, in seconds).
pub const DEFAULT_CEILING: f64 = 1e5;
/// Default per-bucket growth factor (0.5% worst-case relative error).
pub const DEFAULT_GROWTH: f64 = 1.01;

/// Shared bucket layout: the geometric boundary grid and its cell
/// table. One `Layout` is built per configuration and shared (`Arc`)
/// across every histogram that uses it, so per-histogram memory is just
/// the counts vector.
#[derive(Debug, Clone)]
struct Layout {
    floor: f64,
    growth: f64,
    /// `bounds[i]..bounds[i+1]` is bucket `i`; `bounds.len() - 1` buckets.
    bounds: Arc<Vec<f64>>,
    /// Per cell — a positive `f64`'s bits `>> CELL_SHIFT`, less
    /// `first_cell` — the bucket holding the cell's low edge. A cell
    /// spans a ratio of at most `1 + 2⁻⁷`, under the default 1 %
    /// growth, so a sample is in that bucket or the next.
    cells: Arc<Vec<u16>>,
    /// The cell of the lowest power of two at or below `floor`.
    first_cell: u64,
}

/// The mantissa bits below a cell's seven: a cell is one biased
/// exponent and the top seven bits of the mantissa.
const CELL_SHIFT: u32 = 52 - 7;

impl Layout {
    fn new(floor: f64, ceiling: f64, growth: f64) -> Self {
        assert!(floor > 0.0 && ceiling > floor && growth > 1.0);
        let mut bounds = vec![floor];
        let mut b = floor;
        while b < ceiling {
            b *= growth;
            bounds.push(b);
        }
        let first_cell = floor.to_bits() >> 52 << 7;
        let last_cell = bounds[bounds.len() - 1].to_bits() >> CELL_SHIFT;
        let cells = (first_cell..=last_cell)
            .map(|cell| {
                let low_edge = f64::from_bits(cell << CELL_SHIFT);
                let bucket = bounds.partition_point(|&b| b <= low_edge).saturating_sub(1);
                u16::try_from(bucket).expect("a bucket index fits a u16")
            })
            .collect();
        Layout {
            floor,
            growth,
            bounds: Arc::new(bounds),
            cells: Arc::new(cells),
            first_cell,
        }
    }

    fn default_shared() -> Self {
        static DEFAULT: OnceLock<Layout> = OnceLock::new();
        DEFAULT
            .get_or_init(|| Layout::new(DEFAULT_FLOOR, DEFAULT_CEILING, DEFAULT_GROWTH))
            .clone()
    }

    fn n_buckets(&self) -> usize {
        self.bounds.len() - 1
    }

    /// The bucket holding `v`: `partition_point(|&b| b <= v) - 1`,
    /// clamped into the grid.
    fn index_of(&self, v: f64) -> usize {
        let bounds = &self.bounds[..];
        if v <= bounds[0] {
            return 0;
        }
        if v >= bounds[bounds.len() - 1] {
            return self.n_buckets() - 1;
        }
        // `floor < v < bounds[last]`, so `v`'s cell is in the table and
        // its bucket is the one the table names or the next.
        let cell = (v.to_bits() >> CELL_SHIFT) - self.first_cell;
        let mut i = usize::from(self.cells[cell as usize]);
        while bounds[i + 1] <= v {
            i += 1;
        }
        i
    }

    /// Geometric mean of the bucket bounds (correctly rounded sqrt).
    fn representative(&self, i: usize) -> f64 {
        (self.bounds[i] * self.bounds[i + 1]).sqrt()
    }

    fn same_as(&self, other: &Layout) -> bool {
        Arc::ptr_eq(&self.bounds, &other.bounds)
            || (self.floor == other.floor
                && self.growth == other.growth
                && self.bounds.len() == other.bounds.len())
    }
}

/// A mergeable, log-bucketed streaming histogram with exact
/// `count`/`sum`/`min`/`max` and ~0.5%-accurate percentiles.
#[derive(Debug, Clone)]
pub struct StreamingHistogram {
    layout: Layout,
    /// Lazily grown: only as long as the highest bucket touched.
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for StreamingHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamingHistogram {
    /// A histogram over the default latency layout
    /// (`[1e-6, 1e5]` seconds, 1% bucket growth).
    pub fn new() -> Self {
        StreamingHistogram {
            layout: Layout::default_shared(),
            counts: Vec::new(),
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Fold one sample in. NaN samples are ignored; out-of-range
    /// samples clamp into the first/last bucket (exact `min`/`max`
    /// still track the true values).
    pub fn record(&mut self, v: f64) {
        if v.is_nan() {
            return;
        }
        let idx = self.layout.index_of(v);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += v;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Exact mean (NaN when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.sum / self.count as f64
        }
    }

    /// Exact minimum sample (NaN when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Exact maximum sample (NaN when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.max
        }
    }

    /// Percentile `p` in `[0, 100]`. NaN when empty; exact for a
    /// single sample; otherwise the geometric-mean representative of
    /// the bucket holding the `ceil(p/100 · n)`-th sample, clamped to
    /// the exact observed `[min, max]`.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        let frac = (p / 100.0).clamp(0.0, 1.0);
        let k = ((frac * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= k {
                return self.layout.representative(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Merge another histogram into this one. Panics if the layouts
    /// differ (all SpotWeb latency histograms share the default).
    pub fn merge(&mut self, other: &StreamingHistogram) {
        assert!(
            self.layout.same_as(&other.layout),
            "cannot merge histograms with different bucket layouts"
        );
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (i, &c) in other.counts.iter().enumerate() {
            self.counts[i] += c;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            if other.min < self.min {
                self.min = other.min;
            }
            if other.max > self.max {
                self.max = other.max;
            }
        }
    }

    /// Bytes owned by this histogram instance (excluding the shared
    /// bucket-boundary grid). Constant in the number of samples.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.counts.capacity() * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift64* generator — the test must not depend
    /// on the vendored rand crates (this crate is dependency-free).
    struct XorShift(u64);
    impl XorShift {
        fn next_f64(&mut self) -> f64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    fn exact_percentile(sorted: &[f64], p: f64) -> f64 {
        let k = ((p / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[k - 1]
    }

    #[test]
    fn empty_is_nan_everywhere() {
        let h = StreamingHistogram::new();
        assert!(h.is_empty());
        assert!(h.percentile(50.0).is_nan());
        assert!(h.mean().is_nan());
        assert!(h.min().is_nan());
        assert!(h.max().is_nan());
    }

    #[test]
    fn single_sample_is_exact() {
        let mut h = StreamingHistogram::new();
        h.record(0.1234);
        for p in [0.0, 25.0, 50.0, 75.0, 99.0, 100.0] {
            assert_eq!(h.percentile(p), 0.1234);
        }
        assert_eq!(h.mean(), 0.1234);
        assert_eq!(h.min(), 0.1234);
        assert_eq!(h.max(), 0.1234);
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "a million samples; the bucket search has its own tests below"
    )]
    fn million_sample_percentiles_within_one_percent() {
        // Mixture: bulk of fast requests plus a heavy-ish tail,
        // shaped like the simulator's latency distribution.
        let mut rng = XorShift(0x5EED_1234_ABCD_0001);
        let mut h = StreamingHistogram::new();
        let mut exact = Vec::with_capacity(1_000_000);
        for _ in 0..1_000_000 {
            let u = rng.next_f64();
            let v = if u < 0.9 {
                0.05 + 0.3 * rng.next_f64()
            } else {
                0.5 + 4.0 * rng.next_f64() * rng.next_f64()
            };
            h.record(v);
            exact.push(v);
        }
        exact.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for p in [50.0, 90.0, 99.0] {
            let truth = exact_percentile(&exact, p);
            let est = h.percentile(p);
            let rel = (est - truth).abs() / truth;
            assert!(
                rel < 0.01,
                "p{p}: exact {truth} vs streaming {est} (rel err {rel:.4})"
            );
        }
        assert_eq!(h.count(), 1_000_000);
        assert_eq!(h.min(), exact[0]);
        assert_eq!(h.max(), *exact.last().unwrap());
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "a million samples; the bucket search has its own tests below"
    )]
    fn memory_is_constant_in_sample_count() {
        let mut rng = XorShift(42);
        let mut h = StreamingHistogram::new();
        for _ in 0..10_000 {
            h.record(0.01 + rng.next_f64());
        }
        let after_10k = h.memory_bytes();
        for _ in 0..990_000 {
            h.record(0.01 + rng.next_f64());
        }
        // Same value range ⇒ not a single extra byte for 99x the samples.
        assert_eq!(h.memory_bytes(), after_10k);
        assert!(
            h.memory_bytes() < 64 * 1024,
            "histogram must stay small: {} bytes",
            h.memory_bytes()
        );
        assert_eq!(h.count(), 1_000_000);
    }

    #[test]
    fn merge_equals_recording_everything_in_one() {
        let mut rng = XorShift(7);
        let mut whole = StreamingHistogram::new();
        let mut a = StreamingHistogram::new();
        let mut b = StreamingHistogram::new();
        for i in 0..10_000 {
            let v = 0.001 + 2.0 * rng.next_f64();
            whole.record(v);
            if i % 2 == 0 {
                a.record(v)
            } else {
                b.record(v)
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        // Sums differ only by float addition order.
        assert!((a.sum() - whole.sum()).abs() < 1e-6 * whole.sum());
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
        for p in [10.0, 50.0, 90.0, 99.0] {
            assert_eq!(a.percentile(p), whole.percentile(p));
        }
    }

    #[test]
    fn out_of_range_clamps_but_tracks_exact_extremes() {
        let mut h = StreamingHistogram::new();
        h.record(1e-9);
        h.record(1e7);
        assert_eq!(h.min(), 1e-9);
        assert_eq!(h.max(), 1e7);
        assert_eq!(h.count(), 2);
        // Percentiles clamp into the exact observed range.
        assert!(h.percentile(0.0) >= 1e-9);
        assert!(h.percentile(100.0) <= 1e7);
    }

    #[test]
    fn index_of_is_the_binary_search_bucket() {
        // Every sample must land in exactly the bucket a binary search
        // over the grid picks, including values on (or one ulp either
        // side of) a boundary, where a cell's table entry is one off.
        let layout = Layout::default_shared();
        let n = layout.n_buckets();
        let reference = |v: f64| -> usize {
            if v <= layout.bounds[0] {
                return 0;
            }
            layout.bounds.partition_point(|&b| b <= v).min(n) - 1
        };
        let check = |v: f64| {
            assert_eq!(layout.index_of(v), reference(v), "probe {v:e}");
        };
        for &b in layout.bounds.iter() {
            for v in [b, b.next_down(), b.next_up(), b * 1.004999] {
                check(v);
            }
        }
        for v in [DEFAULT_FLOOR, DEFAULT_CEILING] {
            for v in [v, v.next_down(), v.next_up()] {
                check(v);
            }
        }
        for v in [0.0, -0.0, -1.0, 1e-300, 1e9, f64::INFINITY] {
            check(v);
        }
        // Each cell's low edge and the last value below it.
        for cell in 0..layout.cells.len() as u64 {
            let low_edge = f64::from_bits((layout.first_cell + cell) << CELL_SHIFT);
            check(low_edge);
            check(low_edge.next_down());
        }
        let mut rng = XorShift(0xD1CE_0001);
        for _ in 0..if cfg!(miri) { 1_000 } else { 100_000 } {
            // Log-uniform across the full grid plus out-of-range tails.
            check(1e-7 * (1e13_f64).powf(rng.next_f64()));
        }
    }

    #[test]
    fn nan_samples_are_ignored() {
        let mut h = StreamingHistogram::new();
        h.record(f64::NAN);
        assert!(h.is_empty());
    }
}
