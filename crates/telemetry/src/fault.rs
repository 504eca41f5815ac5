//! Deterministic fault injection for the DC solver.
//!
//! CI needs a way to exercise every solver degradation path — the rescue
//! ladder, sample quarantine, the bias-bound accounting — without waiting
//! for a genuinely pathological netlist. This module arms individual
//! solves to fail on demand:
//!
//! - `PVTM_FAULT_RATE` (default `0`, i.e. off) is the per-solve probability
//!   that a solve is injected; `PVTM_FAULT_SEED` (default `0`) decorrelates
//!   the injection pattern from the Monte-Carlo sample draws.
//! - Injection is **deterministic**: each logical solve inside an armed
//!   estimator stream hashes `(fault_seed, stream, solve_index)` through
//!   SplitMix64 — the same mixing the workspace's substream RNG uses — so
//!   the set of injected solves is a pure function of the seeds, identical
//!   across runs, thread counts and schedules.
//! - An injected solve fails at a chosen **ladder depth**: the hash also
//!   picks how many solver strategies (warm start, Gmin continuation,
//!   damped retry, source ramp, then the three rescue rungs) report
//!   `NoConvergence` before the solver is allowed to proceed. Depths past
//!   the last rung make the sample genuinely unsolvable, exercising
//!   quarantine end-to-end.
//! - Default-off cost is a single relaxed atomic load in [`trip`].
//!
//! Only solves inside a [`begin_stream`] scope are ever injected: the
//! estimator hot paths arm their per-sample substream index, so setup and
//! verification solves outside Monte-Carlo loops stay untouched.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

const STATE_UNSET: u8 = u8::MAX;
const STATE_OFF: u8 = 0;
const STATE_ON: u8 = 1;

static STATE: AtomicU8 = AtomicU8::new(STATE_UNSET);
static SEED: AtomicU64 = AtomicU64::new(0);
static RATE_BITS: AtomicU64 = AtomicU64::new(0);

static MAXQ_STATE: AtomicU8 = AtomicU8::new(STATE_UNSET);
static MAXQ_BITS: AtomicU64 = AtomicU64::new(0);

/// SplitMix64 (local copy — `pvtm-stats` depends on this crate, so the
/// shared constant lives in both; the streams must mix identically).
#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Reads `PVTM_FAULT_SEED` / `PVTM_FAULT_RATE` and arms (or disarms)
/// injection accordingly. The first armed solve does this lazily; entry
/// points may call it eagerly so the environment is read up front.
pub fn init_from_env() -> u8 {
    let seed = std::env::var("PVTM_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(0);
    let rate = std::env::var("PVTM_FAULT_RATE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|r| r.is_finite() && *r > 0.0)
        .unwrap_or(0.0);
    SEED.store(seed, Ordering::Relaxed);
    RATE_BITS.store(rate.to_bits(), Ordering::Relaxed);
    let state = if rate > 0.0 { STATE_ON } else { STATE_OFF };
    STATE.store(state, Ordering::Relaxed);
    state
}

#[inline]
fn state() -> u8 {
    match STATE.load(Ordering::Relaxed) {
        STATE_UNSET => init_from_env(),
        s => s,
    }
}

/// Arms fault injection programmatically (tests and harnesses; normally
/// `PVTM_FAULT_SEED` / `PVTM_FAULT_RATE` decide). A non-positive or
/// non-finite `rate` disables injection.
pub fn force(seed: u64, rate: f64) {
    let on = rate.is_finite() && rate > 0.0;
    SEED.store(seed, Ordering::Relaxed);
    RATE_BITS.store(if on { rate.to_bits() } else { 0 }, Ordering::Relaxed);
    STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
}

/// Disables fault injection (the env vars are not re-read).
pub fn disable() {
    force(0, 0.0);
}

/// Whether fault injection is armed.
pub fn is_enabled() -> bool {
    state() == STATE_ON
}

/// The documented quarantine-rate ceiling: estimators error out with
/// `QuarantineExceeded` when more than this fraction of their samples is
/// unresolved. Initialized from `PVTM_MAX_QUARANTINE` on first use;
/// defaults to **0.01** (1 %) — far above any organic solver-failure rate,
/// and low enough that a quarantine-dominated estimate can't silently
/// stand in for a converged one.
pub fn max_quarantine() -> f64 {
    if MAXQ_STATE.load(Ordering::Relaxed) == STATE_UNSET {
        let q = std::env::var("PVTM_MAX_QUARANTINE")
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .filter(|q| q.is_finite() && *q >= 0.0)
            .unwrap_or(0.01);
        MAXQ_BITS.store(q.to_bits(), Ordering::Relaxed);
        MAXQ_STATE.store(STATE_ON, Ordering::Relaxed);
    }
    f64::from_bits(MAXQ_BITS.load(Ordering::Relaxed))
}

/// Overrides the quarantine ceiling (tests and harnesses).
pub fn set_max_quarantine(q: f64) {
    MAXQ_BITS.store(q.to_bits(), Ordering::Relaxed);
    MAXQ_STATE.store(STATE_ON, Ordering::Relaxed);
}

#[derive(Debug, Clone, Copy, Default)]
struct StreamState {
    active: bool,
    stream: u64,
    /// Logical solves seen in this stream so far.
    counter: u64,
    /// Remaining strategy entries to fail for the current solve.
    kills: u32,
}

thread_local! {
    static STREAM: Cell<StreamState> = const { Cell::new(StreamState {
        active: false,
        stream: 0,
        counter: 0,
        kills: 0,
    }) };
    /// Test/harness override: every solve in the stream fails at exactly
    /// this depth, bypassing the rate draw.
    static FORCED: Cell<Option<u32>> = const { Cell::new(None) };
}

/// RAII guard restoring the previously armed stream on drop; created by
/// [`begin_stream`] and [`force_depth`].
#[derive(Debug)]
pub struct StreamGuard {
    prev: Option<StreamState>,
    forced: bool,
}

impl Drop for StreamGuard {
    fn drop(&mut self) {
        if let Some(prev) = self.prev {
            let _ = STREAM.try_with(|s| s.set(prev));
        }
        if self.forced {
            let _ = FORCED.try_with(|f| f.set(None));
            let rate = f64::from_bits(RATE_BITS.load(Ordering::Relaxed));
            let state = if rate > 0.0 { STATE_ON } else { STATE_OFF };
            STATE.store(state, Ordering::Relaxed);
        }
    }
}

impl StreamGuard {
    fn inert() -> Self {
        StreamGuard {
            prev: None,
            forced: false,
        }
    }
}

/// Arms every solve on this thread to be injected at exactly `depth`
/// strategy entries, bypassing the rate draw (tests and harnesses that
/// need one specific ladder depth). The returned guard restores the
/// previous arming on drop.
#[must_use = "injection is armed only while the guard lives"]
pub fn force_depth(depth: u32) -> StreamGuard {
    STATE.store(STATE_ON, Ordering::Relaxed);
    let _ = FORCED.try_with(|f| f.set(Some(depth)));
    let mut prev = None;
    let _ = STREAM.try_with(|s| {
        prev = Some(s.get());
        s.set(StreamState {
            active: true,
            stream: 0,
            counter: 0,
            kills: 0,
        });
    });
    StreamGuard { prev, forced: true }
}

/// The substream index currently armed on this thread, or `None` when no
/// stream is active (injection off, or outside a [`begin_stream`] scope).
/// Lets event producers — the rescue ladder journaling a `solver.rescue`
/// — attribute work to a replayable sample without new plumbing.
pub fn current_stream() -> Option<u64> {
    STREAM
        .try_with(|s| {
            let st = s.get();
            st.active.then_some(st.stream)
        })
        .ok()
        .flatten()
}

/// Arms fault injection for the solves of one estimator substream (the
/// same `stream` index the sample's RNG is derived from, so a quarantined
/// record pinpoints a replayable sample). Inert when injection is off.
#[must_use = "injection is armed only while the guard lives"]
pub fn begin_stream(stream: u64) -> StreamGuard {
    if state() != STATE_ON {
        return StreamGuard::inert();
    }
    let mut prev = None;
    let _ = STREAM.try_with(|s| {
        prev = Some(s.get());
        s.set(StreamState {
            active: true,
            stream,
            counter: 0,
            kills: 0,
        });
    });
    StreamGuard {
        prev,
        forced: false,
    }
}

/// Marks the entry of one logical solve. Decides deterministically — from
/// `(fault_seed, stream, solve_index)` alone — whether this solve is
/// injected, and at which ladder depth. No-op unless injection is armed
/// and a stream is active.
pub fn next_solve() {
    if state() != STATE_ON {
        return;
    }
    let _ = STREAM.try_with(|cell| {
        let mut s = cell.get();
        if !s.active {
            return;
        }
        s.counter += 1;
        if let Ok(Some(depth)) = FORCED.try_with(Cell::get) {
            s.kills = depth;
            cell.set(s);
            return;
        }
        let seed = SEED.load(Ordering::Relaxed);
        let h = splitmix64(splitmix64(seed ^ s.stream.rotate_left(17)) ^ s.counter);
        // 53 high bits → uniform in [0, 1).
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        let rate = f64::from_bits(RATE_BITS.load(Ordering::Relaxed));
        // Depth 4 fails warm + the three cold strategies (rescue rung 1
        // saves the solve); depth 7+ also exhausts the rescue ladder, so
        // the sample is quarantined (a solve without a warm attempt
        // exhausts it at depth 6). The spread exercises every rung.
        // The depth draw must be independent of the rate draw: `u < rate`
        // conditions the *high* bits of `h` toward zero, so the depth
        // comes from a fresh mix of `h` instead of its top bits (reusing
        // them would pin every small-rate injection to depth 4).
        s.kills = if u < rate {
            4 + (splitmix64(h) % 6) as u32
        } else {
            0
        };
        cell.set(s);
    });
}

/// Called at the entry of each solver strategy (warm start, Gmin
/// continuation, damped retry, source ramp, each rescue rung). Returns
/// `true` when the strategy must report `NoConvergence` instead of
/// running. The disabled path is one relaxed atomic load.
#[inline]
pub fn trip() -> bool {
    if STATE.load(Ordering::Relaxed) != STATE_ON {
        return false;
    }
    STREAM
        .try_with(|cell| {
            let mut s = cell.get();
            if !s.active || s.kills == 0 {
                return false;
            }
            s.kills -= 1;
            cell.set(s);
            true
        })
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Fault state is process-global; these tests serialize on the
    // telemetry test lock and always restore the disabled state.

    #[test]
    fn disabled_by_default_and_trip_is_false() {
        let _g = crate::test_guard();
        disable();
        let _s = begin_stream(7);
        next_solve();
        assert!(!trip());
    }

    #[test]
    fn injection_is_deterministic_per_stream_and_solve() {
        let _g = crate::test_guard();
        force(42, 0.5);
        let pattern = |stream: u64| -> Vec<u32> {
            let _s = begin_stream(stream);
            (0..32)
                .map(|_| {
                    next_solve();
                    let mut kills = 0;
                    while trip() {
                        kills += 1;
                    }
                    kills
                })
                .collect()
        };
        let a = pattern(3);
        let b = pattern(4);
        let a2 = pattern(3);
        assert_eq!(a, a2, "same stream must inject identically");
        assert_ne!(a, b, "different streams must decorrelate");
        assert!(a.iter().any(|&k| k > 0), "rate 0.5 must inject something");
        assert!(
            a.iter().all(|&k| k == 0 || (4..=9).contains(&k)),
            "injected depths stay on the ladder: {a:?}"
        );
        disable();
    }

    #[test]
    fn solves_outside_streams_are_never_injected() {
        let _g = crate::test_guard();
        force(42, 1.0);
        next_solve();
        assert!(!trip(), "no active stream, nothing armed");
        disable();
    }

    #[test]
    fn stream_guards_nest_and_restore() {
        let _g = crate::test_guard();
        force(42, 1.0);
        let outer = begin_stream(1);
        next_solve();
        {
            let _inner = begin_stream(2);
            // Inner stream starts with a fresh solve counter and no kills.
            assert!(!trip());
        }
        // The outer stream's armed kills survive the inner scope.
        assert!(trip());
        drop(outer);
        disable();
    }

    #[test]
    fn max_quarantine_override_round_trips() {
        let _g = crate::test_guard();
        set_max_quarantine(0.25);
        assert!((max_quarantine() - 0.25).abs() < 1e-15);
        set_max_quarantine(0.01);
    }
}
