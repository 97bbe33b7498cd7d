//! Quarantined module: `telemetry::prof` is registered in the
//! wall-clock quarantine, so timing here is legal without a pragma.

use std::time::Instant;

pub fn timed_run() -> f64 {
    let started = Instant::now();
    started.elapsed().as_secs_f64()
}
