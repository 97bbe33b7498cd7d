//! `lb::clock` touches the wall clock outside any quarantined module:
//! `wall-clock-quarantine` fires at every token, which is what keeps
//! the tree red on behalf of callers in other files
//! (crates/sim/src/decide.rs) that hold no offending token themselves.

use std::time::{SystemTime, UNIX_EPOCH};

pub fn now_epoch_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap_or_default()
        .as_millis() as u64
}
