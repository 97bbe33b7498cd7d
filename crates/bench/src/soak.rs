//! `figures soak`: the long-horizon run `benchmark/` cannot see.
//!
//! One [`Cell`] at the paper's peak Wikipedia rate ([`SOAK_RPS`]) and
//! one-hour control intervals for `--hours N` simulated hours (24 = a
//! day, ≈ 1.7 G requests; 168 = a week). It answers two questions a
//! 0.2 s benchmark repetition cannot: does the control path do constant
//! work per interval (a flat per-hour requests-per-wall-second series),
//! and is memory bounded by *active* state rather than by simulated
//! time (process peak RSS under [`MEM_GATE_BYTES`])?
//!
//! Everything the run *simulates* is a pure function of (scenario,
//! seed, hours) and goes to stdout as one byte-stable [`RunSummary`]
//! line; the per-hour wall clock and the peak RSS are
//! machine-dependent and go to stderr only. The runner generates each
//! interval's arrivals lazily, so no hour of 20 krps arrivals is ever
//! held in memory: the gate sees the monitor window and live state.

use std::time::Instant;

use spotweb_sim::sweep::RunSummary;

use crate::cell::Cell;

/// Offered load of the soak (req/s) — the paper's peak Wikipedia rate
/// (§5).
pub const SOAK_RPS: f64 = 20_000.0;

/// Peak-RSS bound of the soak (bytes).
///
/// The long-horizon run's steady-state footprint is set by *active*
/// state — the monitor window, in-flight requests, the live fleet —
/// not by how many hours it simulates (dead backends are compacted
/// away, the billing ledger only tracks live entries, and the monitor
/// ring holds one window of records). The dominant term at the
/// 20 krps stress point is the monitor ring itself: one interval
/// (3600 s) of per-request records is ~72 M × 16 B ≈ 1.1 GiB of data
/// in a deque whose power-of-two capacity growth reserves ~2 GiB.
/// Measured peaks plateau at ~2.15 GiB from the second simulated hour
/// on, identical at 4 and at 168 hours; this 3 GiB bound is the
/// "state stopped being constant" alarm, not a tight budget.
pub const MEM_GATE_BYTES: u64 = 3 * 1024 * 1024 * 1024;

/// Peak resident set size (`VmHWM`) of the current process, in bytes.
///
/// Linux-only (`/proc/self/status`); `None` elsewhere, in which case
/// the mem gate reports "unavailable" rather than passing.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Check a peak RSS reading against [`MEM_GATE_BYTES`].
pub fn mem_gate(peak_rss: Option<u64>) -> Result<(), String> {
    match peak_rss {
        Some(b) if b > MEM_GATE_BYTES => Err(format!(
            "mem gate: peak RSS {b} bytes exceeds the {MEM_GATE_BYTES}-byte bound \
             (state is accumulating with simulated hours)"
        )),
        Some(_) => Ok(()),
        None => Err(
            "mem gate: peak RSS unavailable (no /proc/self/status VmHWM on this platform)"
                .to_string(),
        ),
    }
}

/// One simulated hour of the soak as observed from the host: how many
/// requests that hour generated and how long it took on the wall
/// clock. A constant-work control path shows a flat
/// [`requests_per_wall_second`](Self::requests_per_wall_second)
/// column; per-hour degradation is the accumulated-state signature.
#[derive(Debug, Clone)]
pub struct HourlyThroughput {
    /// 1-based simulated hour.
    pub hour: usize,
    /// Arrivals (routed + dropped) within this hour.
    pub arrivals: u64,
    /// Wall-clock seconds this hour took to simulate.
    pub wall_secs: f64,
}

impl HourlyThroughput {
    /// `arrivals / wall_secs` (0 if the hour took no measurable time).
    pub fn requests_per_wall_second(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.arrivals as f64 / self.wall_secs
        } else {
            0.0
        }
    }
}

/// A finished soak: the deterministic summary plus the wall-clock
/// series (machine-dependent; stderr only).
#[derive(Debug, Clone)]
pub struct SoakRun {
    /// Deterministic run summary. The policy is `reactive`: the soak
    /// isolates the request path, the solver is `benchmark/`'s
    /// `control_plane` and `solver_scaling`.
    pub summary: RunSummary,
    /// One entry per simulated hour.
    pub per_hour: Vec<HourlyThroughput>,
}

/// Replay `scenario` with the reactive policy at `rps` for `hours`
/// one-hour intervals, recording the wall-clock cost of every
/// simulated hour through the runner's interval-observation hook.
pub fn run_hourly(scenario: &str, seed: u64, rps: f64, hours: usize) -> Result<SoakRun, String> {
    let cell = Cell {
        rps,
        interval_secs: 3600.0,
        intervals: hours,
        ..Cell::trace_default(scenario, "reactive", seed)?
    };
    #[expect(
        clippy::disallowed_methods,
        reason = "wall seconds per simulated hour go to stderr only; stdout is the byte-stable run summary"
    )]
    let started = Instant::now();
    let mut per_hour: Vec<HourlyThroughput> = Vec::with_capacity(hours);
    // Cumulative (arrivals, elapsed wall secs) at the previous hour's end.
    let mut prev = (0u64, 0.0f64);
    let run = cell.run_observed(&mut |_, cumulative| {
        let elapsed = started.elapsed().as_secs_f64();
        per_hour.push(HourlyThroughput {
            hour: per_hour.len() + 1,
            arrivals: cumulative - prev.0,
            wall_secs: elapsed - prev.1,
        });
        prev = (cumulative, elapsed);
    });
    Ok(SoakRun {
        summary: run.summary(),
        per_hour,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hourly_series_partitions_the_run() {
        let soak = run_hourly("zero-warning", 7, 5.0, 2).unwrap();
        assert_eq!(soak.per_hour.len(), 2);
        let hour_sum: u64 = soak.per_hour.iter().map(|h| h.arrivals).sum();
        assert_eq!(
            hour_sum,
            soak.summary.served + soak.summary.dropped,
            "hours must partition the arrivals"
        );
        // The observation hook must not perturb the simulated run.
        let unobserved = Cell {
            rps: 5.0,
            interval_secs: 3600.0,
            intervals: 2,
            ..Cell::trace_default("zero-warning", "reactive", 7).unwrap()
        }
        .run();
        assert_eq!(soak.summary.to_json(), unobserved.summary().to_json());
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn peak_rss_reads_vm_hwm() {
        let rss = peak_rss_bytes().expect("Linux exposes VmHWM");
        // A test process has at least a few pages resident and fits in
        // the long-horizon gate with room to spare.
        assert!(rss > 4096, "implausibly small peak RSS {rss}");
        assert_eq!(
            mem_gate(Some(rss)),
            Ok(()),
            "test binary alone breaches the gate"
        );
        assert!(mem_gate(Some(MEM_GATE_BYTES + 1)).is_err());
        assert!(mem_gate(None).is_err());
    }
}
