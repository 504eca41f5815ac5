//! `pvtm-trace diff` — compare two sidecars of the same figure.
//!
//! Two very different kinds of signal come out of a sidecar, and the diff
//! treats them accordingly:
//!
//! - **Work counters** (solves, Newton iterations, LU factorizations,
//!   named event counters) are deterministic with a fixed seed, so any
//!   change is a real algorithmic change — reported exactly, and an
//!   *increase* fails the diff.
//! - **Wall-clock** is noisy on shared machines, so span-time changes are
//!   advisory: flagged only beyond a relative tolerance, never fatal.

use std::collections::BTreeSet;

use pvtm_telemetry::{Report, Sidecar, SpanRow};

/// Result of diffing two sidecars.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffOutcome {
    /// Human-readable diff, one finding per line.
    pub text: String,
    /// Work-counter deltas found (exact; any entry means the runs did
    /// different work).
    pub counter_changes: usize,
    /// Work-counter *increases* — the regressions that fail the diff.
    pub regressions: usize,
    /// Advisory wall-clock findings beyond the tolerance.
    pub time_flags: usize,
}

impl DiffOutcome {
    /// Whether the diff should fail a gate (some work counter increased).
    pub fn failed(&self) -> bool {
        self.regressions > 0
    }
}

fn fmt_delta(out: &mut DiffOutcome, name: &str, old: u64, new: u64) {
    if new == old {
        return;
    }
    out.counter_changes += 1;
    if new > old {
        out.regressions += 1;
        out.text.push_str(&format!(
            "  REGRESSION {name}: {old} -> {new} (+{})\n",
            new - old
        ));
    } else {
        out.text.push_str(&format!(
            "  improvement {name}: {old} -> {new} (-{})\n",
            old - new
        ));
    }
}

/// Diffs `old` against `new` with the given relative wall-clock
/// tolerance (e.g. `0.2` flags spans that got ≥20 % slower).
pub fn diff(old: &Sidecar, new: &Sidecar, time_tolerance: f64) -> DiffOutcome {
    let mut out = DiffOutcome {
        text: String::new(),
        counter_changes: 0,
        regressions: 0,
        time_flags: 0,
    };
    let (old_id, old) = (&old.id, &old.report);
    let (new_id, new) = (&new.id, &new.report);
    out.text
        .push_str(&format!("diff {old_id} (old) vs {new_id} (new)\n"));

    out.text.push_str("work counters (exact):\n");
    let mut counters: Vec<_> = old
        .solver
        .counters()
        .into_iter()
        .zip(new.solver.counters())
        .collect();
    counters.sort_unstable_by_key(|&((name, _), _)| name);
    for ((name, o), (_, n)) in counters {
        fmt_delta(&mut out, &format!("solver.{name}"), o, n);
    }
    let counter_keys: BTreeSet<&String> = old
        .counters
        .iter()
        .chain(&new.counters)
        .map(|(k, _)| k)
        .collect();
    for k in counter_keys {
        fmt_delta(
            &mut out,
            &format!("counter.{k}"),
            old.counter(k),
            new.counter(k),
        );
    }
    // Per-span solver attribution: where the extra work landed.
    let span_paths: BTreeSet<&String> = old
        .spans
        .iter()
        .chain(&new.spans)
        .map(|s| &s.path)
        .collect();
    for path in &span_paths {
        let get = |r: &Report, f: fn(&SpanRow) -> u64| r.span(path).map_or(0, f);
        fmt_delta(
            &mut out,
            &format!("span[{path}].newton_iterations"),
            get(old, |s| s.solver.newton_iterations),
            get(new, |s| s.solver.newton_iterations),
        );
        fmt_delta(
            &mut out,
            &format!("span[{path}].solves"),
            get(old, |s| s.solver.solves),
            get(new, |s| s.solver.solves),
        );
    }
    if out.counter_changes == 0 {
        out.text.push_str("  (identical)\n");
    }

    out.text.push_str(&format!(
        "wall-clock (advisory, ±{:.0}% tolerance):\n",
        100.0 * time_tolerance
    ));
    if !old.clock || !new.clock {
        out.text
            .push_str("  (skipped — at least one run had the clock gated off)\n");
        return out;
    }
    let mut flagged = false;
    for path in &span_paths {
        let o_ns = old.span(path).map_or(0, |s| s.total_ns);
        let n_ns = new.span(path).map_or(0, |s| s.total_ns);
        if o_ns == 0 {
            continue;
        }
        let ratio = n_ns as f64 / o_ns as f64;
        if ratio > 1.0 + time_tolerance || ratio < 1.0 - time_tolerance {
            flagged = true;
            out.time_flags += 1;
            let dir = if ratio > 1.0 { "slower" } else { "faster" };
            out.text.push_str(&format!(
                "  span[{path}]: {:.3} ms -> {:.3} ms ({:+.0}% {dir})\n",
                o_ns as f64 / 1e6,
                n_ns as f64 / 1e6,
                100.0 * (ratio - 1.0),
            ));
        }
    }
    if !flagged {
        out.text.push_str("  (within tolerance)\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvtm_telemetry::{SolverStats, SolverSummary};

    fn base() -> Sidecar {
        Sidecar {
            id: "fig".into(),
            report: Report {
                clock: true,
                solver: SolverSummary::from(SolverStats {
                    solves: 100,
                    cold_solves: 4,
                    ..SolverStats::default()
                }),
                counters: vec![("mc.samples".to_string(), 4096)],
                spans: vec![SpanRow {
                    path: "fig".into(),
                    count: 1,
                    total_ns: 1_000_000,
                    child_ns: 0,
                    self_ns: 1_000_000,
                    solver: SolverStats {
                        solves: 100,
                        newton_iterations: 300,
                        lu_factorizations: 300,
                        cold_solves: 4,
                        ..SolverStats::default()
                    },
                }],
                ..Report::default()
            },
        }
    }

    #[test]
    fn identical_runs_pass() {
        let a = base();
        let out = diff(&a, &a, 0.2);
        assert!(!out.failed());
        assert_eq!(out.counter_changes, 0);
        assert!(out.text.contains("(identical)"));
        assert!(out.text.contains("(within tolerance)"));
    }

    #[test]
    fn counter_increase_is_a_regression() {
        let a = base();
        let mut b = base();
        b.report.solver.stats.solves = 120;
        let out = diff(&a, &b, 0.2);
        assert!(out.failed());
        assert!(out.text.contains("REGRESSION solver.solves: 100 -> 120"));
    }

    #[test]
    fn counter_decrease_is_an_improvement_not_a_failure() {
        let a = base();
        let mut b = base();
        b.report.solver.stats.cold_solves = 1;
        let out = diff(&a, &b, 0.2);
        assert!(!out.failed());
        assert_eq!(out.counter_changes, 1);
        assert!(out.text.contains("improvement solver.cold_solves"));
    }

    #[test]
    fn warm_hit_rate_is_not_a_work_counter() {
        // A rate of exactly 1 prints as an integer; read back, it must
        // still be the derived rate, not a counter that can regress.
        let read = |warm_hits: u64| {
            let mut sc = base();
            sc.report.solver = SolverSummary::from(SolverStats {
                warm_attempts: 2,
                warm_hits,
                ..sc.report.solver.stats
            });
            Sidecar::parse(&sc.report.to_json_pretty(&sc.id)).unwrap()
        };
        let (all, half) = (read(2), read(1));
        assert_eq!(half.report.solver.warm_hit_rate, 0.5);
        let out = diff(&all, &half, 0.2);
        assert!(!out.text.contains("warm_hit_rate"), "{}", out.text);
        assert_eq!(out.counter_changes, 1, "{}", out.text);
    }

    #[test]
    fn slow_span_is_advisory_only() {
        let a = base();
        let mut b = base();
        b.report.spans[0].total_ns = 2_000_000;
        let out = diff(&a, &b, 0.2);
        assert!(!out.failed(), "wall-clock never fails the diff");
        assert_eq!(out.time_flags, 1);
        assert!(out.text.contains("slower"));
    }

    #[test]
    fn clock_off_skips_wall_clock_section() {
        let mut a = base();
        a.report.clock = false;
        let out = diff(&a, &a, 0.2);
        assert!(out.text.contains("clock gated off"));
        assert_eq!(out.time_flags, 0);
    }
}
