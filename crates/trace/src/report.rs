//! `pvtm-trace report` — hot-span table and folded flamegraph stacks.

use pvtm_telemetry::{Report, SpanRow};

/// Span weight used for ranking and folded stacks: self-time when the
/// producer's clock ran, Newton iterations otherwise (a clock-gated run
/// has every `*_ns` field at zero, so work counters are the only signal).
fn weight(s: &SpanRow, clock: bool) -> u64 {
    if clock {
        s.self_ns
    } else {
        s.solver.newton_iterations
    }
}

fn sorted_spans(r: &Report) -> Vec<&SpanRow> {
    let mut spans: Vec<&SpanRow> = r.spans.iter().collect();
    // Stable key: weight descending, then path, so clock-off output is
    // deterministic even among equal weights.
    spans.sort_by(|a, b| {
        weight(b, r.clock)
            .cmp(&weight(a, r.clock))
            .then_with(|| a.path.cmp(&b.path))
    });
    spans
}

/// Renders the hot-span table of run `id`: one row per span path,
/// hottest first.
///
/// Hottest means largest self-time — the time a span spent *not* inside
/// an instrumented child — falling back to attributed Newton iterations
/// when the run had the clock gated off.
pub fn hot_span_table(id: &str, r: &Report, top: usize) -> String {
    let mut out = String::new();
    let rank = if r.clock {
        "self-time"
    } else {
        "newton iterations (clock was gated off)"
    };
    out.push_str(&format!(
        "hot spans of {id} (mode {}) — ranked by {rank}\n",
        r.mode.as_str()
    ));
    out.push_str(&format!(
        "{:<40} {:>8} {:>12} {:>12} {:>9} {:>9} {:>7} {:>8}\n",
        "span", "count", "total ms", "self ms", "solves", "newton", "cold", "rescue"
    ));
    for s in sorted_spans(r).into_iter().take(top) {
        out.push_str(&format!(
            "{:<40} {:>8} {:>12.3} {:>12.3} {:>9} {:>9} {:>7} {:>8}\n",
            s.path,
            s.count,
            s.total_ns as f64 / 1e6,
            s.self_ns as f64 / 1e6,
            s.solver.solves,
            s.solver.newton_iterations,
            s.solver.cold_solves,
            // hits/attempts, like the producer's summary line — a span
            // with many attempts and few hits is quarantining samples.
            format!("{}/{}", s.solver.rescue_hits, s.solver.rescue_attempts),
        ));
    }
    if r.spans.is_empty() {
        out.push_str("(no spans — was the producer run with PVTM_TELEMETRY=full?)\n");
    }
    out
}

/// Renders folded stacks (`inferno` / `flamegraph.pl` input): one line
/// per span path, `/` separators rewritten to `;`, value = self-time in
/// nanoseconds (or Newton iterations on clock-gated sidecars). Zero-weight
/// spans are skipped — they would render as invisible frames anyway.
pub fn folded_stacks(r: &Report) -> String {
    let mut out = String::new();
    for s in &r.spans {
        let w = weight(s, r.clock);
        if w > 0 {
            out.push_str(&format!("{} {}\n", s.path.replace('/', ";"), w));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvtm_telemetry::SolverStats;

    fn span(path: &str, self_ns: u64, newton: u64) -> SpanRow {
        SpanRow {
            path: path.to_string(),
            count: 1,
            total_ns: self_ns,
            child_ns: 0,
            self_ns,
            solver: SolverStats {
                newton_iterations: newton,
                ..SolverStats::default()
            },
        }
    }

    fn report(clock: bool, spans: Vec<SpanRow>) -> Report {
        Report {
            clock,
            spans,
            ..Report::default()
        }
    }

    #[test]
    fn table_shows_rescue_hits_over_attempts() {
        let mut s = span("fig/mc.chunk", 10, 100);
        s.solver.rescue_attempts = 4;
        s.solver.rescue_hits = 3;
        let t = hot_span_table("t", &report(true, vec![s]), 10);
        assert!(t.contains("3/4"), "rescue column missing:\n{t}");
    }

    #[test]
    fn table_ranks_by_self_time_with_clock() {
        let r = report(
            true,
            vec![span("a", 10, 999), span("b", 30, 1), span("c", 20, 5)],
        );
        let t = hot_span_table("t", &r, 10);
        let b = t.find("\nb ").unwrap();
        let c = t.find("\nc ").unwrap();
        let a = t.find("\na ").unwrap();
        assert!(b < c && c < a, "expected b, c, a order:\n{t}");
    }

    #[test]
    fn table_falls_back_to_newton_without_clock() {
        let r = report(false, vec![span("a", 0, 999), span("b", 0, 1)]);
        let t = hot_span_table("t", &r, 10);
        assert!(t.contains("clock was gated off"));
        assert!(t.find("\na ").unwrap() < t.find("\nb ").unwrap());
    }

    #[test]
    fn folded_stacks_use_semicolons_and_skip_zero_weight() {
        let r = report(
            true,
            vec![span("fig/mc.chunk", 40, 0), span("fig/idle", 0, 0)],
        );
        assert_eq!(folded_stacks(&r), "fig;mc.chunk 40\n");
    }
}
