//! Seeded violations outside the panic-policy crates: float equality,
//! undocumented env knob, off-taxonomy telemetry name.

use std::time::Duration;

pub fn timed_eq(x: f64) -> bool {
    let t = Duration::from_secs(1);
    pvtm_telemetry::gauge_set("wrong_root.reading", 1.0);
    std::env::var("NOT_A_KNOB").is_ok() && x == 0.0 && t.as_secs() == 0
}
