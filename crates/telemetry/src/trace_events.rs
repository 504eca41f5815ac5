//! Chrome trace-event (Perfetto / `about://tracing`) export of a
//! [`Report`]'s span tree.
//!
//! The report holds *aggregates* per span path, not individual span
//! instances, so the exporter synthesizes a flame-chart-shaped timeline:
//! one complete (`"ph": "X"`) event per span path, children laid out
//! sequentially inside their parent starting at the parent's start. When a
//! parallel region's children sum to more CPU time than the parent's
//! wall-clock, child durations are scaled down proportionally so the
//! nesting stays valid — the `args` of every event carry the true
//! unscaled totals (`total_ns`, `self_ns`, counts, attributed solver
//! work), which is what Perfetto's selection panel shows.
//!
//! Counters (named counters plus the merged solver counters) are emitted
//! as `"ph": "C"` counter events at `ts = 0`.

use crate::json::{obj, Value};
use crate::report::{Report, SpanRow};
use crate::SolverStats;

/// Microseconds (trace-event time unit) from nanoseconds.
fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// The solver counters a trace carries, per span and for the run.
fn traced(stats: &SolverStats) -> impl Iterator<Item = (&'static str, u64)> {
    stats.counters().into_iter().filter(|(name, _)| {
        matches!(
            *name,
            "solves" | "newton_iterations" | "lu_factorizations" | "cold_solves"
        )
    })
}

fn span_event(s: &SpanRow, ts_us: f64, dur_us: f64) -> Value {
    let name = s.path.rsplit('/').next().unwrap_or(&s.path);
    let mut args = vec![
        ("path", Value::Str(s.path.clone())),
        ("count", Value::Num(s.count as f64)),
        ("total_ns", Value::Num(s.total_ns as f64)),
        ("self_ns", Value::Num(s.self_ns as f64)),
    ];
    args.extend(traced(&s.solver).map(|(name, v)| (name, Value::Num(v as f64))));
    obj(vec![
        ("name", Value::Str(name.to_string())),
        ("cat", Value::Str("span".into())),
        ("ph", Value::Str("X".into())),
        ("ts", Value::Num(ts_us)),
        ("dur", Value::Num(dur_us)),
        ("pid", Value::Num(1.0)),
        ("tid", Value::Num(1.0)),
        ("args", obj(args)),
    ])
}

fn counter_event(name: &str, value: f64) -> Value {
    obj(vec![
        ("name", Value::Str(name.to_string())),
        ("cat", Value::Str("counter".into())),
        ("ph", Value::Str("C".into())),
        ("ts", Value::Num(0.0)),
        ("pid", Value::Num(1.0)),
        ("args", obj(vec![("value", Value::Num(value))])),
    ])
}

/// Direct children of `parent` (index into `spans`, or the roots for
/// `None`), relying on the rows being in path order.
fn children(spans: &[SpanRow], parent: Option<usize>) -> Vec<usize> {
    let prefix = parent.map(|p| format!("{}/", spans[p].path));
    spans
        .iter()
        .enumerate()
        .filter(|(_, s)| match &prefix {
            Some(pre) => s.path.starts_with(pre.as_str()) && !s.path[pre.len()..].contains('/'),
            None => !s.path.contains('/'),
        })
        .map(|(i, _)| i)
        .collect()
}

fn layout(
    spans: &[SpanRow],
    parent: Option<usize>,
    start_us: f64,
    avail_us: f64,
    out: &mut Vec<Value>,
) {
    let kids = children(spans, parent);
    let total: f64 = kids.iter().map(|&i| us(spans[i].total_ns)).sum();
    // pvtm-lint: allow(no-float-eq) exact zero means nothing to lay out
    let scale = if total > avail_us && total != 0.0 {
        avail_us / total
    } else {
        1.0
    };
    let mut cursor = start_us;
    for i in kids {
        let dur = us(spans[i].total_ns) * scale;
        out.push(span_event(&spans[i], cursor, dur));
        layout(spans, Some(i), cursor, dur, out);
        cursor += dur;
    }
}

impl Report {
    /// The span tree and counters as a Chrome trace-event document
    /// (loadable in Perfetto / `about://tracing`). `id` names the process.
    pub fn to_trace_events(&self, id: &str) -> Value {
        let mut events = vec![obj(vec![
            ("name", Value::Str("process_name".into())),
            ("ph", Value::Str("M".into())),
            ("ts", Value::Num(0.0)),
            ("pid", Value::Num(1.0)),
            ("tid", Value::Num(0.0)),
            (
                "args",
                obj(vec![("name", Value::Str(format!("pvtm {id}")))]),
            ),
        ])];
        layout(&self.spans, None, 0.0, f64::INFINITY, &mut events);
        for (name, v) in &self.counters {
            events.push(counter_event(name, *v as f64));
        }
        for (name, v) in traced(&self.solver) {
            events.push(counter_event(&format!("solver.{name}"), v as f64));
        }
        obj(vec![
            ("traceEvents", Value::Arr(events)),
            ("displayTimeUnit", Value::Str("ms".into())),
            (
                "otherData",
                obj(vec![
                    ("id", Value::Str(id.to_string())),
                    ("mode", Value::Str(self.mode.as_str().into())),
                    ("clock", Value::Bool(self.clock)),
                    ("synthetic_timeline", Value::Bool(true)),
                ]),
            ),
        ])
    }

    /// [`Report::to_trace_events`] as pretty-printed JSON text.
    pub fn to_trace_events_json(&self, id: &str) -> String {
        let mut s = self.to_trace_events(id).to_json_pretty();
        s.push('\n');
        s
    }
}

#[cfg(test)]
mod tests {
    use crate::json::Value;
    use crate::{test_guard, Mode};

    /// Every event must carry the structural fields the trace-event spec
    /// requires; X events additionally need a non-negative duration, and
    /// children must nest inside their parent's [ts, ts+dur] window.
    #[test]
    fn trace_events_are_structurally_valid() {
        let _g = test_guard();
        crate::set_mode(Mode::Full);
        crate::reset();
        {
            let _a = crate::span("fig");
            {
                let _b = crate::span("inner");
                crate::record_solver(&crate::SolverStats {
                    solves: 1,
                    newton_iterations: 4,
                    lu_factorizations: 4,
                    ..Default::default()
                });
            }
            crate::counter_add("eval.margins", 2);
        }
        let r = crate::snapshot();
        let doc = r.to_trace_events("fig");
        let events = doc
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("traceEvents array");
        assert!(!events.is_empty());
        let mut xs = Vec::new();
        for e in events {
            let ph = e.get("ph").and_then(Value::as_str).expect("ph");
            assert!(matches!(ph, "X" | "C" | "M"), "unexpected phase {ph}");
            assert!(e.get("name").and_then(Value::as_str).is_some());
            assert!(e.get("ts").and_then(Value::as_f64).is_some());
            assert!(e.get("pid").and_then(Value::as_f64).is_some());
            if ph == "X" {
                let ts = e.get("ts").and_then(Value::as_f64).unwrap();
                let dur = e.get("dur").and_then(Value::as_f64).expect("dur");
                assert!(dur >= 0.0 && ts >= 0.0);
                let path = e
                    .get("args")
                    .and_then(|a| a.get("path"))
                    .and_then(Value::as_str)
                    .expect("args.path")
                    .to_string();
                xs.push((path, ts, dur));
            }
        }
        // Both spans exported; the child nests within the parent window.
        let find = |p: &str| xs.iter().find(|(q, _, _)| q == p).cloned().unwrap();
        let (_, pts, pdur) = find("fig");
        let (_, cts, cdur) = find("fig/inner");
        assert!(cts >= pts && cts + cdur <= pts + pdur + 1e-9);
        // Round-trips through the writer+parser (valid JSON).
        let text = r.to_trace_events_json("fig");
        let reparsed = crate::json::parse(&text).expect("trace_events JSON parses");
        assert_eq!(
            reparsed.get("displayTimeUnit").and_then(Value::as_str),
            Some("ms")
        );
        // Counter events carry the attributed values.
        let has_counter = events.iter().any(|e| {
            e.get("ph").and_then(Value::as_str) == Some("C")
                && e.get("name").and_then(Value::as_str) == Some("solver.newton_iterations")
                && e.get("args")
                    .and_then(|a| a.get("value"))
                    .and_then(Value::as_u64)
                    == Some(4)
        });
        assert!(has_counter);
        crate::set_mode(Mode::Off);
    }

    /// Parallel children whose summed time exceeds the parent's wall-clock
    /// are compressed to fit, but keep true totals in args.
    #[test]
    fn overcommitted_children_scale_to_fit() {
        let _g = test_guard();
        crate::set_mode(Mode::Full);
        crate::reset();
        // Hand-build a report shape via the public API: parent measured 0ns
        // (clock off) while children carry synthetic totals is hard to do
        // without the clock, so assemble rows directly.
        let r = crate::Report {
            mode: Mode::Full,
            clock: true,
            spans: vec![
                crate::SpanRow {
                    path: "par".into(),
                    count: 1,
                    total_ns: 1_000,
                    child_ns: 4_000,
                    self_ns: 0,
                    solver: crate::SolverStats::default(),
                },
                crate::SpanRow {
                    path: "par/chunk".into(),
                    count: 4,
                    total_ns: 4_000,
                    child_ns: 0,
                    self_ns: 4_000,
                    solver: crate::SolverStats::default(),
                },
            ],
            counters: vec![],
            gauges: vec![],
            histograms: vec![],
            solver: crate::SolverStats::default().into(),
            traces: vec![],
            quarantine: vec![],
        };
        let doc = r.to_trace_events("par");
        let events = doc.get("traceEvents").and_then(Value::as_array).unwrap();
        let chunk = events
            .iter()
            .find(|e| {
                e.get("args")
                    .and_then(|a| a.get("path"))
                    .and_then(Value::as_str)
                    == Some("par/chunk")
            })
            .unwrap();
        // 4 µs of child time squeezed into the parent's 1 µs window…
        assert!((chunk.get("dur").and_then(Value::as_f64).unwrap() - 1.0).abs() < 1e-9);
        // …with the true total preserved in args.
        assert_eq!(
            chunk
                .get("args")
                .and_then(|a| a.get("total_ns"))
                .and_then(Value::as_u64),
            Some(4_000)
        );
        crate::set_mode(Mode::Off);
    }
}
