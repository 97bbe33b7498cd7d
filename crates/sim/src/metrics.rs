//! Latency and loss metrics.
//!
//! Fig. 4(a) is a per-minute boxplot of response latencies around a
//! revocation. [`LatencyRecorder`] folds samples into one streaming
//! histogram per fixed time bucket (see
//! [`spotweb_telemetry::StreamingHistogram`]) and reduces each to
//! quartiles/percentiles on demand. Unlike the original
//! store-every-sample design, memory is `O(buckets × hist_buckets)`
//! — constant in the number of requests — so million-request runs no
//! longer retain every latency. `count`, `mean`, `min`, and `max` are
//! exact; percentiles carry the histogram's ~0.5% relative error.
//!
//! Edge cases are well-defined: an empty bucket reports NaN
//! percentiles with zero count, and a single-sample bucket reports
//! that sample exactly at every percentile (the old sorted-vector
//! quartile interpolation was NaN-prone here).

use spotweb_telemetry::StreamingHistogram;

/// Summary of one time bucket.
#[derive(Debug, Clone, PartialEq)]
pub struct BucketStats {
    /// Bucket start time (seconds).
    pub start: f64,
    /// Sample count.
    pub count: usize,
    /// Mean latency (s).
    pub mean: f64,
    /// Minimum.
    pub min: f64,
    /// 25th percentile.
    pub p25: f64,
    /// Median.
    pub p50: f64,
    /// 75th percentile.
    pub p75: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
    /// Requests dropped in this bucket.
    pub dropped: u64,
}

/// Collects latency samples and drop events into time buckets, one
/// mergeable streaming histogram per bucket.
#[derive(Debug, Clone)]
pub struct LatencyRecorder {
    bucket_secs: f64,
    hists: Vec<StreamingHistogram>,
    dropped: Vec<u64>,
}

impl LatencyRecorder {
    /// Recorder with buckets of `bucket_secs` covering `[0, horizon)`.
    /// Both must be finite and positive.
    pub fn new(bucket_secs: f64, horizon_secs: f64) -> Self {
        assert!(
            bucket_secs.is_finite() && bucket_secs > 0.0,
            "bucket width must be finite and positive (got {bucket_secs})"
        );
        assert!(
            horizon_secs.is_finite() && horizon_secs > 0.0,
            "horizon must be finite and positive (got {horizon_secs})"
        );
        let n = (horizon_secs / bucket_secs).ceil() as usize;
        LatencyRecorder {
            bucket_secs,
            hists: vec![StreamingHistogram::new(); n],
            dropped: vec![0; n],
        }
    }

    fn bucket(&self, t: f64) -> Option<usize> {
        if t < 0.0 {
            return None;
        }
        let b = (t / self.bucket_secs) as usize;
        (b < self.hists.len()).then_some(b)
    }

    /// Record a served request: arrival time and latency.
    pub fn record(&mut self, arrival: f64, latency: f64) {
        if let Some(b) = self.bucket(arrival) {
            self.hists[b].record(latency);
        }
    }

    /// Record a dropped request at its arrival time.
    pub fn record_drop(&mut self, arrival: f64) {
        if let Some(b) = self.bucket(arrival) {
            self.dropped[b] += 1;
        }
    }

    /// Number of buckets.
    pub fn buckets(&self) -> usize {
        self.hists.len()
    }

    /// Total served / dropped counts.
    pub fn totals(&self) -> (usize, u64) {
        (
            self.hists.iter().map(|h| h.count() as usize).sum(),
            self.dropped.iter().sum(),
        )
    }

    /// Overall drop fraction.
    pub fn drop_fraction(&self) -> f64 {
        let (served, dropped) = self.totals();
        let total = served as f64 + dropped as f64;
        if total == 0.0 {
            0.0
        } else {
            dropped as f64 / total
        }
    }

    /// Merge every bucket's histogram into one (the whole run).
    pub fn overall_histogram(&self) -> StreamingHistogram {
        let mut all = StreamingHistogram::new();
        for h in &self.hists {
            all.merge(h);
        }
        all
    }

    /// Percentile over *all* samples.
    pub fn overall_percentile(&self, p: f64) -> f64 {
        self.overall_histogram().percentile(p)
    }

    /// Reduce bucket `b` to stats. Empty buckets give NaN percentiles
    /// and zero count; a single-sample bucket reports that sample
    /// exactly at every percentile.
    pub fn bucket_stats(&self, b: usize) -> BucketStats {
        let h = &self.hists[b];
        BucketStats {
            start: b as f64 * self.bucket_secs,
            count: h.count() as usize,
            mean: h.mean(),
            min: h.min(),
            p25: h.percentile(25.0),
            p50: h.percentile(50.0),
            p75: h.percentile(75.0),
            p90: h.percentile(90.0),
            p99: h.percentile(99.0),
            max: h.max(),
            dropped: self.dropped[b],
        }
    }

    /// Stats for every bucket.
    pub fn all_stats(&self) -> Vec<BucketStats> {
        (0..self.buckets()).map(|b| self.bucket_stats(b)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_by_arrival_time() {
        let mut r = LatencyRecorder::new(60.0, 180.0);
        r.record(10.0, 0.1);
        r.record(70.0, 0.2);
        r.record(70.5, 0.4);
        assert_eq!(r.buckets(), 3);
        assert_eq!(r.bucket_stats(0).count, 1);
        let b1 = r.bucket_stats(1);
        assert_eq!(b1.count, 2);
        assert!((b1.mean - 0.3).abs() < 1e-12);
        assert_eq!(r.bucket_stats(2).count, 0);
    }

    #[test]
    fn out_of_range_ignored() {
        let mut r = LatencyRecorder::new(60.0, 120.0);
        r.record(500.0, 0.1);
        r.record(-5.0, 0.1);
        // `[0, horizon)` is half-open: the horizon itself is outside,
        // the last representable instant before it inside.
        r.record(120.0, 0.1);
        r.record_drop(120.0);
        assert_eq!(r.totals(), (0, 0));
        r.record(120.0_f64.next_down(), 0.1);
        r.record_drop(120.0_f64.next_down());
        assert_eq!(r.totals(), (1, 1));
        assert_eq!(r.bucket_stats(1).count, 1);
    }

    #[test]
    fn drop_fraction() {
        let mut r = LatencyRecorder::new(60.0, 60.0);
        r.record(1.0, 0.1);
        r.record(2.0, 0.1);
        r.record_drop(3.0);
        r.record_drop(4.0);
        assert!((r.drop_fraction() - 0.5).abs() < 1e-12);
        assert_eq!(r.bucket_stats(0).dropped, 2);
    }

    #[test]
    fn percentiles_ordered() {
        let mut r = LatencyRecorder::new(60.0, 60.0);
        for k in 1..=100 {
            r.record(1.0, k as f64 / 100.0);
        }
        let s = r.bucket_stats(0);
        assert!(s.min <= s.p25 && s.p25 <= s.p50 && s.p50 <= s.p75);
        assert!(s.p75 <= s.p90 && s.p90 <= s.p99 && s.p99 <= s.max);
        assert!((r.overall_percentile(50.0) - s.p50).abs() < 1e-9);
        // Streaming percentiles stay within 1% of the exact values.
        assert!((s.p50 - 0.5).abs() / 0.5 < 0.01);
        assert!((s.p90 - 0.9).abs() / 0.9 < 0.01);
    }

    #[test]
    fn empty_recorder_is_sane() {
        let r = LatencyRecorder::new(10.0, 100.0);
        assert_eq!(r.drop_fraction(), 0.0);
        assert_eq!(r.totals(), (0, 0));
        assert!(r.bucket_stats(0).p50.is_nan());
    }

    /// The NaN-prone edge the old sorted-vector quartiles had: a
    /// single-sample bucket must report that sample exactly at every
    /// percentile, and an empty bucket must be all-NaN with count 0.
    #[test]
    fn single_sample_bucket_is_exact_everywhere() {
        let mut r = LatencyRecorder::new(60.0, 120.0);
        r.record(5.0, 0.37);
        let s = r.bucket_stats(0);
        assert_eq!(s.count, 1);
        for v in [s.mean, s.min, s.p25, s.p50, s.p75, s.p90, s.p99, s.max] {
            assert_eq!(v, 0.37, "single-sample bucket must be exact");
        }
        let empty = r.bucket_stats(1);
        assert_eq!(empty.count, 0);
        for v in [
            empty.mean, empty.min, empty.p25, empty.p50, empty.p75, empty.p90, empty.p99, empty.max,
        ] {
            assert!(v.is_nan(), "empty bucket stats must be NaN");
        }
    }

    /// Memory stays flat as samples pour in (the point of the
    /// streaming migration).
    #[test]
    fn recorder_memory_constant_in_samples() {
        let mut r = LatencyRecorder::new(60.0, 60.0);
        for i in 0..10_000 {
            r.record(1.0, 0.05 + (i % 100) as f64 * 0.01);
        }
        let baseline = r.overall_histogram().memory_bytes();
        for i in 0..100_000 {
            r.record(1.0, 0.05 + (i % 100) as f64 * 0.01);
        }
        assert_eq!(r.overall_histogram().memory_bytes(), baseline);
    }
}
