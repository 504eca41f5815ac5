//! Point-in-time consistent live snapshots of the telemetry registry.
//!
//! A scrape taken mid-run must never observe a *torn* update — the
//! canonical hazard is an estimator chunk whose running moments have
//! landed while its weight moments have not: ESS computed from such a
//! snapshot would disagree with the chunk count. A chunk's moments and its
//! weight moments are one record ([`crate::record_chunk`]), every record
//! lands under one acquisition of the registry mutex, and [`live`]
//! captures under the same mutex, so a scrape sees each record whole or
//! not at all. The registry counts the records it has taken; that count is
//! a snapshot's `epoch`.
//!
//! Everything here is live-plane only: none of this state is rendered into
//! sidecars or journals, so runs without a metrics server are byte-identical
//! to runs that never loaded this module.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

use crate::json::{obj, Value};
use crate::report::{
    ess, fold_weights, int, items, num, parse_json, running_points, same, text, Report,
    SidecarError,
};
use crate::{clock, events, ChunkStat, HealthChunk};

/// Whether a metrics server is running (gates open-span tracking).
static LIVE: AtomicBool = AtomicBool::new(false);

/// Open-span registry: `/`-joined path → currently-open count. Maintained
/// only while a server is live; never rendered into deterministic outputs.
static OPEN_SPANS: Mutex<BTreeMap<String, u64>> = Mutex::new(BTreeMap::new());

/// Stopwatch started when a metrics server comes up; read by [`live`] so
/// scrape timestamps route through `clock` (zero when the clock is gated).
static WATCH: Mutex<Option<clock::Stopwatch>> = Mutex::new(None);

fn open_spans() -> MutexGuard<'static, BTreeMap<String, u64>> {
    OPEN_SPANS.lock().unwrap_or_else(|e| e.into_inner())
}

// -------------------------------------------------- live-plane bookkeeping

pub(crate) fn set_live(on: bool) {
    LIVE.store(on, Ordering::SeqCst);
    if !on {
        open_spans().clear();
        *WATCH.lock().unwrap_or_else(|e| e.into_inner()) = None;
    }
}

pub(crate) fn live_tracking() -> bool {
    LIVE.load(Ordering::SeqCst)
}

pub(crate) fn start_watch() {
    *WATCH.lock().unwrap_or_else(|e| e.into_inner()) = Some(clock::Stopwatch::started());
}

pub(crate) fn span_opened(path: &str) {
    *open_spans().entry(path.to_string()).or_insert(0) += 1;
}

pub(crate) fn span_closed(path: &str) {
    let mut open = open_spans();
    if let Some(n) = open.get_mut(path) {
        // Saturating: the span may have been opened before tracking began.
        *n = n.saturating_sub(1);
        if *n == 0 {
            open.remove(path);
        }
    }
}

pub(crate) fn clear() {
    open_spans().clear();
}

// ------------------------------------------------------------- snapshots

/// One estimator start's planned work, as [`crate::record_mc_start`]
/// records it and an `mc.start` event journals it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Plan {
    pub(crate) samples: u64,
    pub(crate) chunks: u64,
}

/// Per-trace progress, name-sorted, from what a run recorded per trace
/// name — the plans of its starts, its chunk moments and its chunk weight
/// moments, each in any order: the one fold behind live scrapes and
/// journal replays. A trace started more than once sums its plans, since
/// every chunk recorded under its name counts as done. The running
/// estimate is the sidecar's last trace point, and the weight moments are
/// folded as the sidecar's trace health folds them, so both agree with
/// the sidecar bit for bit.
pub(crate) fn progress(
    plans: &BTreeMap<String, Vec<Plan>>,
    chunks: &BTreeMap<String, Vec<ChunkStat>>,
    health: &BTreeMap<String, Vec<(u64, HealthChunk)>>,
) -> Vec<TraceProgress> {
    let names: BTreeSet<&String> = plans
        .keys()
        .chain(chunks.keys())
        .chain(health.keys())
        .collect();
    names
        .into_iter()
        .map(|name| {
            let plans = plans.get(name).map_or(&[][..], Vec::as_slice);
            let chunks = chunks.get(name).map_or(&[][..], Vec::as_slice);
            let health = health.get(name).map_or(&[][..], Vec::as_slice);
            let last = running_points(chunks).last().copied();
            let w = fold_weights(health);
            TraceProgress {
                name: name.clone(),
                chunks_done: chunks.len() as u64,
                chunks_total: plans.iter().map(|p| p.chunks).sum(),
                samples_done: last.map_or(0, |p| p.samples),
                samples_total: plans.iter().map(|p| p.samples).sum(),
                health_chunks: health.len() as u64,
                contributing: w.fails,
                weight_sum: w.weight_sum,
                weight_sq_sum: w.weight_sq_sum,
                weight_max: w.weight_max,
                ess: ess(&w),
                value: last.map_or(0.0, |p| p.value),
                std_err: last.map_or(0.0, |p| p.std_err),
            }
        })
        .collect()
}

/// Per-trace progress: done vs planned work, the Chan-merged running
/// estimate, and the raw weight moments the health diagnostics derive from
/// (exposed so ESS is recomputable from the progress row itself).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceProgress {
    /// Trace name (the `trace_scope` label).
    pub name: String,
    /// Chunks whose moments have been recorded so far.
    pub chunks_done: u64,
    /// Planned chunks, summed over the trace's starts (0 when none was
    /// recorded).
    pub chunks_total: u64,
    /// Samples folded into the running estimate so far.
    pub samples_done: u64,
    /// Planned samples, summed over the trace's starts (0 when none was
    /// recorded).
    pub samples_total: u64,
    /// Health chunks recorded so far — equals `chunks_done` at every
    /// consistent snapshot of a weight-tracking estimator.
    pub health_chunks: u64,
    /// Contributing (failing) samples across recorded health chunks.
    pub contributing: u64,
    /// Σw over contributing samples.
    pub weight_sum: f64,
    /// Σw² over contributing samples.
    pub weight_sq_sum: f64,
    /// max(w) over contributing samples.
    pub weight_max: f64,
    /// Effective sample size `(Σw)²/Σw²` (0 without weights).
    pub ess: f64,
    /// Running estimate after the last recorded chunk.
    pub value: f64,
    /// Standard error of the running estimate.
    pub std_err: f64,
}

impl TraceProgress {
    /// The progress row as written into `/snapshot.json`'s `progress` and
    /// `pvtm-trace tail --json`'s `traces`, keys sorted.
    pub fn to_value(&self) -> Value {
        obj(vec![
            ("chunks_done", Value::Num(self.chunks_done as f64)),
            ("chunks_total", Value::Num(self.chunks_total as f64)),
            ("contributing", Value::Num(self.contributing as f64)),
            ("ess", Value::Num(self.ess)),
            ("health_chunks", Value::Num(self.health_chunks as f64)),
            ("name", Value::Str(self.name.clone())),
            ("samples_done", Value::Num(self.samples_done as f64)),
            ("samples_total", Value::Num(self.samples_total as f64)),
            ("std_err", Value::Num(self.std_err)),
            ("value", Value::Num(self.value)),
            ("weight_max", Value::Num(self.weight_max)),
            ("weight_sq_sum", Value::Num(self.weight_sq_sum)),
            ("weight_sum", Value::Num(self.weight_sum)),
        ])
    }
}

/// One consistent scrape of the full registry, as served by
/// `/snapshot.json` and rendered to Prometheus text by `/metrics`.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveSnapshot {
    /// Records the registry had taken when the capture was made.
    pub epoch: u64,
    /// Journal id of the running figure (`live` when no journal is open).
    pub id: String,
    /// Seconds since the metrics server started (0 with the clock gated).
    pub elapsed_secs: f64,
    /// The merged registry, exactly as a sidecar would report it now.
    pub report: Report,
    /// Currently-open span paths with open counts.
    pub open_spans: Vec<(String, u64)>,
    /// Per-trace progress and raw health moments.
    pub progress: Vec<TraceProgress>,
}

/// Captures one consistent [`LiveSnapshot`] under the registry mutex,
/// which every record holds while it lands.
pub fn live() -> LiveSnapshot {
    let g = crate::global();
    let progress = progress(&g.plans, &g.traces, &g.health);
    let report = crate::report::build(&g, crate::mode(), crate::clock_enabled());
    let epoch = g.epoch;
    drop(g);
    let open = open_spans().iter().map(|(p, &n)| (p.clone(), n)).collect();
    let elapsed_secs = WATCH
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .as_ref()
        .map_or(0.0, clock::Stopwatch::elapsed_secs);
    LiveSnapshot {
        epoch,
        id: events::live_id().unwrap_or_else(|| "live".to_string()),
        elapsed_secs,
        report,
        open_spans: open,
        progress,
    }
}

// ------------------------------------------------------- prometheus names

/// Prometheus names of the curated run-level metrics (DESIGN.md §5b →
/// §5e): each entry maps a taxonomy name to its mechanical mangling
/// `pvtm_` + name with `.` replaced by `_`. pvtm-lint checks both the
/// taxonomy membership of the first element and the mangling of the
/// second, so the scrape plane cannot drift from the sidecar taxonomy.
pub const PROM_METRIC_MAP: &[(&str, &str)] = &[
    ("mc.ess", "pvtm_mc_ess"),
    ("mc.ess_fraction", "pvtm_mc_ess_fraction"),
    ("mc.max_weight_fraction", "pvtm_mc_max_weight_fraction"),
    ("mc.stall_ratio", "pvtm_mc_stall_ratio"),
    ("mc.quarantine_ci_share", "pvtm_mc_quarantine_ci_share"),
    ("mc.is_weight", "pvtm_mc_is_weight"),
    ("solver.newton_per_solve", "pvtm_solver_newton_per_solve"),
];

/// The mechanical §5b → Prometheus mangling: `pvtm_` prefix, every
/// character outside `[a-z0-9_]` becomes `_`.
pub fn prom_name(name: &str) -> String {
    let curated = PROM_METRIC_MAP
        .iter()
        .find(|(taxonomy, _)| *taxonomy == name)
        .map(|&(_, prom)| prom.to_string());
    curated.unwrap_or_else(|| {
        let mut out = String::with_capacity(name.len() + 5);
        out.push_str("pvtm_");
        for ch in name.chars() {
            out.push(match ch {
                'a'..='z' | '0'..='9' | '_' => ch,
                _ => '_',
            });
        }
        out
    })
}

fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Prometheus sample-value formatting: integers without a decimal point,
/// everything else via shortest round-trip, non-finite spelled out.
fn prom_num(v: f64) -> String {
    if !v.is_finite() {
        if v.is_nan() {
            "NaN".to_string()
        } else if v > 0.0 {
            "+Inf".to_string()
        } else {
            "-Inf".to_string()
        }
    } else if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:?}")
    }
}

impl LiveSnapshot {
    /// Parses a `/snapshot.json` body by the rule of
    /// [`crate::Sidecar::from_value`]: every member is read leniently, and the
    /// document must be what [`LiveSnapshot::to_value`] renders from what
    /// was read.
    ///
    /// # Errors
    ///
    /// Fails on malformed JSON and on any document the writer would not
    /// write; the message names the first offending member.
    pub fn parse(body: &str) -> Result<LiveSnapshot, SidecarError> {
        let doc = parse_json(body)?;
        let snap = LiveSnapshot {
            epoch: int(doc.get("epoch")),
            id: text(&doc, "id"),
            elapsed_secs: num(doc.get("elapsed_secs")),
            report: Report::read(&doc),
            open_spans: items(&doc, "open_spans")
                .iter()
                .map(|s| (text(s, "path"), int(s.get("open"))))
                .collect(),
            progress: items(&doc, "progress")
                .iter()
                .map(|p| TraceProgress {
                    name: text(p, "name"),
                    chunks_done: int(p.get("chunks_done")),
                    chunks_total: int(p.get("chunks_total")),
                    samples_done: int(p.get("samples_done")),
                    samples_total: int(p.get("samples_total")),
                    health_chunks: int(p.get("health_chunks")),
                    contributing: int(p.get("contributing")),
                    weight_sum: num(p.get("weight_sum")),
                    weight_sq_sum: num(p.get("weight_sq_sum")),
                    weight_max: num(p.get("weight_max")),
                    ess: num(p.get("ess")),
                    value: num(p.get("value")),
                    std_err: num(p.get("std_err")),
                })
                .collect(),
        };
        same("", &doc, &snap.to_value())?;
        Ok(snap)
    }

    /// The `/snapshot.json` document: the sidecar document
    /// (`pvtm-telemetry/3`) plus the live-plane members, with keys in
    /// sorted order.
    pub fn to_value(&self) -> Value {
        let mut members = match self.report.to_value(&self.id) {
            Value::Obj(members) => members,
            other => vec![("report".to_string(), other)],
        };
        members.push(("elapsed_secs".to_string(), Value::Num(self.elapsed_secs)));
        members.push(("epoch".to_string(), Value::Num(self.epoch as f64)));
        members.push(("live".to_string(), Value::Bool(true)));
        members.push((
            "open_spans".to_string(),
            Value::Arr(
                self.open_spans
                    .iter()
                    .map(|(path, n)| {
                        obj(vec![
                            ("open", Value::Num(*n as f64)),
                            ("path", Value::Str(path.clone())),
                        ])
                    })
                    .collect(),
            ),
        ));
        members.push((
            "progress".to_string(),
            Value::Arr(self.progress.iter().map(TraceProgress::to_value).collect()),
        ));
        members.push((
            "quarantine_count".to_string(),
            Value::Num(self.report.quarantine.len() as f64),
        ));
        members.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Obj(members)
    }

    /// The `/snapshot.json` body (compact, newline-terminated).
    pub fn to_json(&self) -> String {
        let mut s = self.to_value().to_json();
        s.push('\n');
        s
    }

    /// Prometheus text exposition (format 0.0.4) of the snapshot.
    ///
    /// Histograms are rendered with cumulative `le` buckets derived from
    /// the log2 bounds (`le = 2^(log2+1)`, underflow below the lowest
    /// bound); no `_sum` series is emitted because the producer keeps
    /// order-independent integer buckets only (DESIGN.md §5e).
    pub fn prometheus(&self) -> String {
        fn sample(out: &mut String, name: &str, kind: &str, lines: &[(String, f64)]) {
            if lines.is_empty() {
                return;
            }
            out.push_str(&format!("# TYPE {name} {kind}\n"));
            for (suffix, v) in lines {
                out.push_str(&format!("{name}{suffix} {}\n", prom_num(*v)));
            }
        }
        let mut out = String::new();
        for (name, v) in &self.report.counters {
            sample(
                &mut out,
                &prom_name(name),
                "counter",
                &[(String::new(), *v as f64)],
            );
        }
        let s = &self.report.solver;
        let mut counters = s.counters();
        counters.sort_unstable_by_key(|&(name, _)| name);
        for (field, v) in counters {
            sample(
                &mut out,
                &prom_name(&format!("solver.{field}")),
                "counter",
                &[(String::new(), v as f64)],
            );
        }
        sample(
            &mut out,
            &prom_name("solver.warm_hit_rate"),
            "gauge",
            &[(String::new(), s.warm_hit_rate)],
        );
        for (name, v) in &self.report.gauges {
            sample(&mut out, &prom_name(name), "gauge", &[(String::new(), *v)]);
        }
        for h in &self.report.histograms {
            let name = prom_name(&h.name);
            let mut lines = Vec::new();
            let mut cum = h.underflow;
            for b in &h.buckets {
                cum += b.count;
                let le = 2.0f64.powi(i32::from(b.log2) + 1);
                lines.push((format!("_bucket{{le=\"{}\"}}", prom_num(le)), cum as f64));
            }
            lines.push(("_bucket{le=\"+Inf\"}".to_string(), h.count as f64));
            out.push_str(&format!("# TYPE {name} histogram\n"));
            for (suffix, v) in &lines {
                out.push_str(&format!("{name}{suffix} {}\n", prom_num(*v)));
            }
            out.push_str(&format!("{name}_count {}\n", h.count));
        }
        let families: [(&str, Vec<f64>); 7] = [
            (
                "mc.trace_chunks_done",
                self.progress.iter().map(|p| p.chunks_done as f64).collect(),
            ),
            (
                "mc.trace_chunks_total",
                self.progress
                    .iter()
                    .map(|p| p.chunks_total as f64)
                    .collect(),
            ),
            (
                "mc.trace_samples_done",
                self.progress
                    .iter()
                    .map(|p| p.samples_done as f64)
                    .collect(),
            ),
            (
                "mc.trace_samples_total",
                self.progress
                    .iter()
                    .map(|p| p.samples_total as f64)
                    .collect(),
            ),
            (
                "mc.trace_estimate",
                self.progress.iter().map(|p| p.value).collect(),
            ),
            (
                "mc.trace_std_err",
                self.progress.iter().map(|p| p.std_err).collect(),
            ),
            (
                "mc.trace_ess",
                self.progress.iter().map(|p| p.ess).collect(),
            ),
        ];
        for (name, values) in families {
            let lines: Vec<(String, f64)> = self
                .progress
                .iter()
                .zip(values)
                .map(|(p, v)| (format!("{{trace=\"{}\"}}", escape_label(&p.name)), v))
                .collect();
            sample(&mut out, &prom_name(name), "gauge", &lines);
        }
        let open: Vec<(String, f64)> = self
            .open_spans
            .iter()
            .map(|(path, n)| (format!("{{path=\"{}\"}}", escape_label(path)), *n as f64))
            .collect();
        sample(&mut out, "pvtm_open_spans", "gauge", &open);
        sample(
            &mut out,
            "pvtm_elapsed_seconds",
            "gauge",
            &[(String::new(), self.elapsed_secs)],
        );
        sample(
            &mut out,
            "pvtm_snapshot_epoch",
            "gauge",
            &[(String::new(), self.epoch as f64)],
        );
        sample(
            &mut out,
            "pvtm_mc_quarantined_total",
            "counter",
            &[(String::new(), self.report.quarantine.len() as f64)],
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{
        HistBucket, HistRow, Sidecar, SolverSummary, TraceHealth, TracePoint, TraceRow,
    };
    use crate::{Mode, SolverStats};

    fn fixture() -> LiveSnapshot {
        LiveSnapshot {
            epoch: 7,
            id: "fig2a".to_string(),
            elapsed_secs: 0.0,
            report: Report {
                mode: Mode::Full,
                clock: false,
                spans: Vec::new(),
                counters: vec![("mc.samples".to_string(), 8192)],
                gauges: vec![
                    ("mc.ess_fraction".to_string(), 0.5),
                    ("mc.stall_ratio".to_string(), 0.0),
                ],
                histograms: vec![HistRow {
                    name: "mc.is_weight".to_string(),
                    count: 10,
                    underflow: 1,
                    buckets: vec![
                        HistBucket { log2: -1, count: 4 },
                        HistBucket { log2: 0, count: 5 },
                    ],
                }],
                solver: SolverSummary::from(SolverStats {
                    solves: 3,
                    newton_iterations: 12,
                    lu_factorizations: 12,
                    warm_attempts: 2,
                    warm_hits: 1,
                    cold_solves: 1,
                    ..SolverStats::default()
                }),
                traces: Vec::new(),
                quarantine: Vec::new(),
            },
            open_spans: vec![("fig2a/mc.chunk".to_string(), 2)],
            progress: vec![TraceProgress {
                name: "fig2a.mc".to_string(),
                chunks_done: 2,
                chunks_total: 4,
                samples_done: 8192,
                samples_total: 16384,
                health_chunks: 2,
                contributing: 64,
                weight_sum: 8.0,
                weight_sq_sum: 2.0,
                weight_max: 0.5,
                ess: 32.0,
                value: 1.5e-3,
                std_err: 2.5e-4,
            }],
        }
    }

    #[test]
    fn prometheus_text_is_byte_exact() {
        let expected = "\
# TYPE pvtm_mc_samples counter
pvtm_mc_samples 8192
# TYPE pvtm_solver_cold_solves counter
pvtm_solver_cold_solves 1
# TYPE pvtm_solver_damped_retries counter
pvtm_solver_damped_retries 0
# TYPE pvtm_solver_gmin_steps counter
pvtm_solver_gmin_steps 0
# TYPE pvtm_solver_lu_factorizations counter
pvtm_solver_lu_factorizations 12
# TYPE pvtm_solver_newton_iterations counter
pvtm_solver_newton_iterations 12
# TYPE pvtm_solver_ramp_steps counter
pvtm_solver_ramp_steps 0
# TYPE pvtm_solver_rescue_attempts counter
pvtm_solver_rescue_attempts 0
# TYPE pvtm_solver_rescue_hits counter
pvtm_solver_rescue_hits 0
# TYPE pvtm_solver_rescue_rungs counter
pvtm_solver_rescue_rungs 0
# TYPE pvtm_solver_solves counter
pvtm_solver_solves 3
# TYPE pvtm_solver_source_ramps counter
pvtm_solver_source_ramps 0
# TYPE pvtm_solver_warm_attempts counter
pvtm_solver_warm_attempts 2
# TYPE pvtm_solver_warm_hits counter
pvtm_solver_warm_hits 1
# TYPE pvtm_solver_warm_hit_rate gauge
pvtm_solver_warm_hit_rate 0.5
# TYPE pvtm_mc_ess_fraction gauge
pvtm_mc_ess_fraction 0.5
# TYPE pvtm_mc_stall_ratio gauge
pvtm_mc_stall_ratio 0
# TYPE pvtm_mc_is_weight histogram
pvtm_mc_is_weight_bucket{le=\"1\"} 5
pvtm_mc_is_weight_bucket{le=\"2\"} 10
pvtm_mc_is_weight_bucket{le=\"+Inf\"} 10
pvtm_mc_is_weight_count 10
# TYPE pvtm_mc_trace_chunks_done gauge
pvtm_mc_trace_chunks_done{trace=\"fig2a.mc\"} 2
# TYPE pvtm_mc_trace_chunks_total gauge
pvtm_mc_trace_chunks_total{trace=\"fig2a.mc\"} 4
# TYPE pvtm_mc_trace_samples_done gauge
pvtm_mc_trace_samples_done{trace=\"fig2a.mc\"} 8192
# TYPE pvtm_mc_trace_samples_total gauge
pvtm_mc_trace_samples_total{trace=\"fig2a.mc\"} 16384
# TYPE pvtm_mc_trace_estimate gauge
pvtm_mc_trace_estimate{trace=\"fig2a.mc\"} 0.0015
# TYPE pvtm_mc_trace_std_err gauge
pvtm_mc_trace_std_err{trace=\"fig2a.mc\"} 0.00025
# TYPE pvtm_mc_trace_ess gauge
pvtm_mc_trace_ess{trace=\"fig2a.mc\"} 32
# TYPE pvtm_open_spans gauge
pvtm_open_spans{path=\"fig2a/mc.chunk\"} 2
# TYPE pvtm_elapsed_seconds gauge
pvtm_elapsed_seconds 0
# TYPE pvtm_snapshot_epoch gauge
pvtm_snapshot_epoch 7
# TYPE pvtm_mc_quarantined_total counter
pvtm_mc_quarantined_total 0
";
        assert_eq!(fixture().prometheus(), expected);
    }

    #[test]
    fn snapshot_json_keys_are_sorted() {
        let v = fixture().to_value();
        let Value::Obj(members) = &v else {
            panic!("snapshot is not an object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
        assert_eq!(
            v.get("schema").and_then(Value::as_str),
            Some("pvtm-telemetry/3")
        );
        assert_eq!(v.get("live").and_then(Value::as_bool), Some(true));
    }

    #[test]
    fn snapshot_json_round_trips() {
        let mut snap = fixture();
        snap.elapsed_secs = 2.5;
        snap.report.traces.push(TraceRow {
            name: "fig2a.mc".to_string(),
            points: vec![TracePoint {
                chunk: 0,
                samples: 8192,
                value: 1.5e-3,
                std_err: 2.5e-4,
                rel_err: 2.5e-4 / 1.5e-3,
            }],
            health: Some(TraceHealth {
                has_weights: true,
                contributing: 64,
                ess: 32.0,
                ess_fraction: 0.5,
                max_weight_fraction: 0.0625,
                steps: 0,
                stalled_steps: 0,
                stall_ratio: 0.0,
            }),
        });
        let body = snap.to_json();
        assert_eq!(LiveSnapshot::parse(&body).unwrap(), snap);
        let err = |t: &str| LiveSnapshot::parse(t).unwrap_err().message;
        assert_eq!(
            err(&body.replace("\"quarantine_count\":0", "\"quarantine_count\":3")),
            "quarantine_count: found 3, expected 0"
        );
        assert_eq!(
            err(&body.replace("\"live\":true", "\"live\":false")),
            "live: found false, expected true"
        );
        // A snapshot is not a sidecar, and a sidecar is not a snapshot.
        assert!(Sidecar::parse(&body).is_err());
        assert_eq!(
            err(&snap.report.to_json_pretty(&snap.id)),
            "elapsed_secs: missing"
        );
    }

    #[test]
    fn prom_names_route_through_the_curated_map() {
        for (taxonomy, prom) in PROM_METRIC_MAP {
            assert_eq!(&prom_name(taxonomy), prom);
            let mangled = format!("pvtm_{}", taxonomy.replace('.', "_"));
            assert_eq!(*prom, mangled, "curated mapping must stay mechanical");
        }
        assert_eq!(prom_name("eval.cells"), "pvtm_eval_cells");
    }

    #[test]
    fn each_record_bumps_the_epoch_once() {
        let _g = crate::test_guard();
        crate::set_mode(Mode::Summary);
        crate::reset();
        let before = live().epoch;
        {
            let _t = crate::trace_scope("epoch");
            let h = crate::active_trace().unwrap();
            crate::record_mc_start(&h, 8, 2);
            crate::record_chunk(&h, 0, 4, 0.5, 1.0, Some(HealthChunk::default()));
        }
        let after = live();
        assert_eq!(after.epoch, before + 2);
        let p = &after.progress[0];
        assert_eq!((p.chunks_done, p.health_chunks, p.chunks_total), (1, 1, 2));
        crate::set_mode(Mode::Off);
    }
}
