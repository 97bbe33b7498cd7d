//! Host-side measurement helpers: the CPU clock and the per-part
//! minima the timing metrics are made of, order statistics, `/proc`
//! readers, a time-boxed repetition loop, and the FNV digest the
//! repetition checks compare.

use std::time::{Duration, Instant};

#[repr(C)]
struct Timespec {
    secs: i64,
    nanos: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const PROCESS_CPU_CLOCK: i32 = 2;

/// Seconds this process has spent on a CPU, all threads together.
///
/// The harness times on this clock, not the wall clock. The box is a
/// VM on a shared host whose hypervisor takes the CPUs away for most of
/// every second, minutes at a time (`steal` in `/proc/stat`); the wall
/// clock then reads two to ten times a batch's own cost, this clock
/// 1.05 to 1.7 times (see [`Fastest`] for the rest). The workloads
/// neither sleep nor wait, so on an undisturbed host the two clocks
/// agree.
fn cpu_secs() -> f64 {
    let mut time = Timespec { secs: 0, nanos: 0 };
    // SAFETY: `clock_gettime` writes one `timespec` (two 64-bit fields
    // on every 64-bit Linux) through a valid pointer.
    let status = unsafe { clock_gettime(PROCESS_CPU_CLOCK, &mut time) };
    assert_eq!(status, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    time.secs as f64 + time.nanos as f64 * 1e-9
}

/// A stopwatch on the CPU clock.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(f64);

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch(cpu_secs())
    }

    /// CPU seconds since the start or the last lap.
    pub fn lap(&mut self) -> f64 {
        let now = cpu_secs();
        let lap = now - self.0;
        self.0 = now;
        lap
    }
}

/// Quantile `q` of an ascending slice, linear interpolation between
/// the two nearest order statistics.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median, quartiles and count of a timing sample.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub count: usize,
}

pub fn summarize(samples: &[f64]) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Summary {
        min: sorted[0],
        median: quantile(&sorted, 0.5),
        q1: quantile(&sorted, 0.25),
        q3: quantile(&sorted, 0.75),
        count: sorted.len(),
    }
}

pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).median
}

/// The fastest time seen of each part of a repeated batch.
///
/// Being taken off the CPU costs more than the time away: the caches
/// are cold on return, and the CPU clock counts that (5-35 % on
/// micro-kernels, up to 70 % on the workloads in the worst phase seen
/// here). Interference only ever adds time, so the minimum
/// is the steadiest estimate of a piece of work's own cost — but only
/// of a piece short enough to run undisturbed now and then. A batch is
/// therefore timed in parts, and its cost is the sum of each part's
/// minimum over the repetitions.
#[derive(Debug, Default)]
pub struct Fastest(Vec<f64>);

impl Fastest {
    /// Fold one repetition's part times in; every repetition has the
    /// same parts in the same order.
    pub fn fold(&mut self, parts: impl IntoIterator<Item = f64>) {
        if self.0.is_empty() {
            self.0.extend(parts);
            return;
        }
        let mut parts = parts.into_iter();
        for fastest in &mut self.0 {
            let part = parts.next().expect("a repetition lost a part");
            *fastest = fastest.min(part);
        }
        assert!(parts.next().is_none(), "a repetition grew a part");
    }

    pub fn parts(&self) -> &[f64] {
        &self.0
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }
}

fn proc_status_kib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with(field))
        .unwrap_or_else(|| panic!("{field} missing from /proc/self/status"));
    line.split_whitespace()
        .nth(1)
        .and_then(|kib| kib.parse().ok())
        .unwrap_or_else(|| panic!("unparsable {field} line: {line}"))
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    proc_status_kib("VmHWM:") / 1024.0
}

/// Current resident set size of this process (`VmRSS`), bytes.
pub fn rss_bytes() -> f64 {
    proc_status_kib("VmRSS:") * 1024.0
}

/// CPU seconds of one call.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let mut watch = Stopwatch::start();
    let out = f();
    (out, watch.lap())
}

/// Wall seconds of one call: for work spread over several threads,
/// whose point is the wall time saved.
pub fn timed_wall<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}

/// Call `f` until `budget_secs` of wall time have passed, at least
/// `min_reps` times; returns the CPU seconds of each call.
pub fn repeat_for(budget_secs: f64, min_reps: usize, mut f: impl FnMut()) -> Vec<f64> {
    let deadline = Instant::now() + Duration::from_secs_f64(budget_secs);
    let mut secs = Vec::new();
    while secs.len() < min_reps || Instant::now() < deadline {
        secs.push(timed(&mut f).1);
    }
    secs
}

/// FNV-1a 64 over the exact bits of a run's outputs. Two repetitions
/// agree on a digest only if every simulated number is bit-identical.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}
