//! The workspace's only wall-clock access point.
//!
//! Every other crate is forbidden (by clippy's `disallowed_types`, see
//! `clippy.toml`) from touching `std::time::Instant`/`SystemTime`
//! directly: timing must flow through a [`Stopwatch`], which reads the
//! clock only while [`crate::clock_enabled`] is true. With
//! `PVTM_TELEMETRY_CLOCK=off` every stopwatch reports zero, which is what
//! keeps telemetry sidecars and bench reports byte-identical across runs.
#![expect(
    clippy::disallowed_types,
    reason = "the sanctioned clock: every read sits behind the clock gate"
)]

use std::time::Instant;

/// A start-time capture that respects the telemetry clock gate.
///
/// [`Stopwatch::started`] reads the wall clock only when the gate is open;
/// otherwise (and for [`Stopwatch::inert`]) every elapsed query returns
/// zero. The gate is sampled once at construction, so a toggle mid-flight
/// cannot produce a partial (and therefore nondeterministic) measurement.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Option<Instant>,
}

impl Stopwatch {
    /// Starts timing now — if the clock gate is open. Otherwise the
    /// stopwatch is inert and reports zero elapsed time.
    #[must_use]
    pub fn started() -> Stopwatch {
        Stopwatch {
            start: crate::clock_enabled().then(Instant::now),
        }
    }

    /// A stopwatch that never reads the clock and always reports zero.
    #[must_use]
    pub fn inert() -> Stopwatch {
        Stopwatch { start: None }
    }

    /// Whether this stopwatch captured a real start time.
    #[must_use]
    pub fn is_running(&self) -> bool {
        self.start.is_some()
    }

    /// Nanoseconds since construction; `0` if inert or gated off.
    #[must_use]
    pub fn elapsed_ns(&self) -> u64 {
        self.start
            .map(|t| t.elapsed().as_nanos().min(u64::MAX as u128) as u64)
            .unwrap_or(0)
    }

    /// Seconds since construction; `0.0` if inert or gated off.
    #[must_use]
    pub fn elapsed_secs(&self) -> f64 {
        self.start.map(|t| t.elapsed().as_secs_f64()).unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_stopwatch_reports_zero() {
        let w = Stopwatch::inert();
        assert!(!w.is_running());
        assert_eq!(w.elapsed_ns(), 0);
        assert_eq!(w.elapsed_secs(), 0.0);
    }

    #[test]
    fn gated_off_stopwatch_reports_zero() {
        let _g = crate::test_guard();
        let prev = crate::clock_enabled();
        crate::set_clock_enabled(false);
        let w = Stopwatch::started();
        assert!(!w.is_running());
        assert_eq!(w.elapsed_ns(), 0);
        crate::set_clock_enabled(prev);
    }

    #[test]
    fn running_stopwatch_moves_forward() {
        let _g = crate::test_guard();
        let prev = crate::clock_enabled();
        crate::set_clock_enabled(true);
        let w = Stopwatch::started();
        assert!(w.is_running());
        let a = w.elapsed_ns();
        let b = w.elapsed_ns();
        assert!(b >= a);
        crate::set_clock_enabled(prev);
    }
}
