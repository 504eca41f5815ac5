//! Spans the benchmark records around its calls into the library.
//!
//! A [`Tracer`] always times the closures it runs; only an enabled tracer
//! (the `trace` run) keeps the spans, in memory, and writes them at exit.
//! Every span of a run is on the benchmark's one thread — the library's
//! workers stay inside the calls — so children never overlap and a span's
//! self time is its duration minus its children's.

use pvtm_telemetry::clock::Stopwatch;
use pvtm_telemetry::json::{obj, Value};

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `sram.margins`.
    pub name: String,
    /// Start \[ns\].
    pub start_ns: u64,
    /// End \[ns\].
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for the root.
    pub parent: Option<usize>,
}

/// Times closures and, when enabled, records them as nested spans.
pub struct Tracer {
    clock: Stopwatch,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose clock starts now; `enabled` keeps the spans.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            clock: Stopwatch::started(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` in a span called `name`; returns its result and its
    /// duration in seconds.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> (R, f64) {
        let start_ns = self.clock.elapsed_ns();
        let index = self.spans.len();
        if self.enabled {
            self.spans.push(Span {
                name: name.to_string(),
                start_ns,
                end_ns: start_ns,
                parent: self.open.last().copied(),
            });
            self.open.push(index);
        }
        let result = f(self);
        let end_ns = self.clock.elapsed_ns();
        if self.enabled {
            self.open.pop();
            self.spans[index].end_ns = end_ns;
        }
        (result, end_ns.saturating_sub(start_ns) as f64 * 1e-9)
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span \[ns\]: its duration minus its children's.
pub fn self_times(spans: &[Span]) -> Vec<i64> {
    let mut out: Vec<i64> = spans
        .iter()
        .map(|s| (s.end_ns - s.start_ns) as i64)
        .collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] -= (s.end_ns - s.start_ns) as i64;
        }
    }
    out
}

/// The span file: every span with its name, start, end, parent, self time
/// and workload.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> Value {
    let self_ns = self_times(spans);
    let rows = spans
        .iter()
        .zip(self_ns)
        .enumerate()
        .map(|(i, (s, self_ns))| {
            obj(vec![
                ("id", Value::Num(i as f64)),
                ("name", Value::Str(s.name.clone())),
                ("start_ns", Value::Num(s.start_ns as f64)),
                ("end_ns", Value::Num(s.end_ns as f64)),
                (
                    "parent",
                    s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                ),
                ("self_ns", Value::Num(self_ns as f64)),
                ("workload", Value::Str(workload.to_string())),
            ])
        })
        .collect();
    obj(vec![
        ("workload", Value::Str(workload.to_string())),
        ("seed", Value::Num(seed as f64)),
        ("spans", Value::Arr(rows)),
    ])
}
