//! No wall-clock token appears in this file, so it is clean — even
//! though `decide_scale` reaches the wall clock through
//! `now_epoch_ms` (crates/lb/src/clock.rs). The analyzer has no call
//! graph and needs none: the callee's own file carries the findings
//! that fail the run, so a caller can never hide a dirty tree.

pub fn decide_scale(demand: f64) -> u64 {
    let stamp = now_epoch_ms();
    stamp.wrapping_add(demand as u64)
}
