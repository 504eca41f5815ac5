//! Structured, deterministic run journal (`results/<id>.events.jsonl`).
//!
//! Every figure run can emit an append-only stream of lifecycle events —
//! Monte-Carlo estimator starts, per-chunk convergence and weight-health
//! snapshots, rescue-ladder escalations, quarantined samples, experiment
//! milestones — one JSON object per line. The journal is the streaming
//! counterpart of the sidecar: [`Journal::parse`] reads it back, live or
//! finalized, and [`Journal::progress`] folds it into per-trace progress,
//! which `pvtm-trace tail` renders while a run is still going.
//!
//! # Two orders, one contract
//!
//! Events arrive from worker threads in schedule order, which is not
//! reproducible. The journal therefore exists in two forms:
//!
//! - **Live** (while the run is in flight): lines are appended in arrival
//!   order as they happen, so a tailing consumer sees progress with no
//!   buffering delay and a killed run keeps a valid partial record. Live
//!   sequence numbers reflect arrival.
//! - **Canonical** (after [`finalize_journal`]): the buffered events are
//!   sorted by their deterministic key — `(k1, k2, kind, payload)` — and
//!   renumbered densely, and the file is atomically rewritten. Because the
//!   *multiset* of events is a pure function of the seeds, two
//!   `PVTM_TELEMETRY_CLOCK=off` runs produce byte-identical canonical
//!   journals. Events with fully identical payloads sort as equals, which
//!   is harmless: identical lines are interchangeable bytes.
//!
//! # Schema
//!
//! Line 0 is always `{"seq":0,"kind":"run.start","schema":"pvtm-events/1",
//! "id":…,"mode":…,"clock":…}`; the last line of a finalized journal is a
//! `run.end` with the event count. Body kinds follow the DESIGN.md §5d
//! taxonomy (`mc.start`, `mc.chunk`, `mc.health`, `mc.quarantine`,
//! `mc.estimate`, `solver.rescue`, `figure.corner`). Consumers must ignore
//! unknown kinds and unknown fields. [`Journal::parse`] enforces the rest:
//! a `run.start` header carrying [`SCHEMA`], one JSON object per line, and
//! dense sequence numbers, tolerating only a torn final line.
//!
//! # Gating
//!
//! Recording follows the telemetry mode (`PVTM_TELEMETRY`): events are
//! dropped entirely in `off` mode. [`set_enabled`] additionally disables
//! the journal while leaving the rest of telemetry on (the benchmark
//! harness does); the disabled fast path is one atomic load.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs::File;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

use crate::json::{self, obj, Value};
use crate::report::{ess, fold_weights, running_points};
use crate::{ChunkStat, HealthChunk, Mode};

/// Journal schema marker written into every `run.start` line.
pub const SCHEMA: &str = "pvtm-events/1";

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Whether event recording is enabled: telemetry is on and
/// [`set_enabled`] has not switched the journal off.
pub fn enabled() -> bool {
    crate::mode() != Mode::Off && ENABLED.load(Ordering::Relaxed)
}

/// Switches the journal on or off (tests and harnesses). Telemetry mode
/// still applies: events are never recorded in `Mode::Off`.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// One buffered event. `k1`/`k2` are the deterministic sort keys supplied
/// by the producer (e.g. trace-name hash and chunk index); the rendered
/// line carries only `kind` and the payload fields.
#[derive(Debug, Clone, PartialEq)]
struct EventRec {
    kind: &'static str,
    k1: u64,
    k2: u64,
    fields: Vec<(&'static str, Value)>,
}

impl EventRec {
    fn line(&self, seq: usize) -> String {
        let mut members = vec![
            ("seq", Value::Num(seq as f64)),
            ("kind", Value::Str(self.kind.to_string())),
        ];
        members.extend(self.fields.iter().map(|(k, v)| (*k, v.clone())));
        obj(members).to_json()
    }
}

#[derive(Debug, Default)]
struct Buffer {
    /// All events of the current run, in arrival order.
    events: Vec<EventRec>,
    /// Live sink: open while a figure run is journaling to disk.
    live: Option<LiveSink>,
}

#[derive(Debug)]
struct LiveSink {
    file: File,
    path: PathBuf,
    id: String,
    /// Lines written so far (header included), i.e. the next live seq.
    written: usize,
}

static BUFFER: Mutex<Buffer> = Mutex::new(Buffer {
    events: Vec::new(),
    live: None,
});

fn buffer() -> MutexGuard<'static, Buffer> {
    BUFFER.lock().unwrap_or_else(|e| e.into_inner())
}

/// FNV-1a over a name — the stable `k1` grouping key for per-trace events.
/// Only used for ordering, never rendered.
pub(crate) fn name_key(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn header_line(id: &str) -> String {
    obj(vec![
        ("seq", Value::Num(0.0)),
        ("kind", Value::Str("run.start".into())),
        ("schema", Value::Str(SCHEMA.into())),
        ("id", Value::Str(id.into())),
        ("mode", Value::Str(crate::mode().as_str().into())),
        ("clock", Value::Bool(crate::clock_enabled())),
    ])
    .to_json()
}

/// Records one event under the deterministic sort key `(k1, k2)`. When a
/// live journal is open the line is also appended (single `write_all`, so
/// a kill can truncate at most the final line). No-op unless [`enabled`].
pub fn emit(kind: &'static str, k1: u64, k2: u64, fields: Vec<(&'static str, Value)>) {
    if !enabled() {
        return;
    }
    let rec = EventRec {
        kind,
        k1,
        k2,
        fields,
    };
    let mut j = buffer();
    if let Some(live) = j.live.as_mut() {
        let mut line = rec.line(live.written);
        line.push('\n');
        if live.file.write_all(line.as_bytes()).is_ok() {
            live.written += 1;
        }
    }
    j.events.push(rec);
}

/// Renders the canonical journal text: header, body events in
/// deterministic `(k1, k2, kind, payload)` order with dense sequence
/// numbers, and the `run.end` footer carrying `extra` fields.
pub fn render(id: &str, extra: &[(&'static str, Value)]) -> String {
    let mut out = header_line(id);
    out.push('\n');
    let j = buffer();
    // The rendered payload (with a placeholder seq) is the final
    // tie-breaker: events identical in key and payload are interchangeable.
    let mut indexed: Vec<&EventRec> = j.events.iter().collect();
    indexed.sort_by_key(|e| (e.k1, e.k2, e.kind, e.line(0)));
    let mut seq = 1usize;
    for e in indexed {
        out.push_str(&e.line(seq));
        out.push('\n');
        seq += 1;
    }
    drop(j);
    let mut footer = vec![
        ("seq", Value::Num(seq as f64)),
        ("kind", Value::Str("run.end".into())),
        ("id", Value::Str(id.into())),
        ("events", Value::Num((seq - 1) as f64)),
    ];
    footer.extend(extra.iter().map(|(k, v)| (*k, v.clone())));
    out.push_str(&obj(footer).to_json());
    out.push('\n');
    out
}

/// Opens a live journal at `path` for figure `id`: truncates the file and
/// writes the `run.start` header. Subsequent [`emit`] calls append live
/// lines in arrival order until [`finalize_journal`]. No-op (returning
/// `Ok(false)`) unless [`enabled`].
///
/// # Errors
///
/// Propagates filesystem errors from creating the file.
pub fn open_journal(path: &Path, id: &str) -> std::io::Result<bool> {
    if !enabled() {
        return Ok(false);
    }
    let mut file = File::create(path)?;
    let mut header = header_line(id);
    header.push('\n');
    file.write_all(header.as_bytes())?;
    file.flush()?;
    buffer().live = Some(LiveSink {
        file,
        path: path.to_path_buf(),
        id: id.to_string(),
        written: 1,
    });
    Ok(true)
}

/// Closes the live journal: renders the canonical (sorted, densely
/// renumbered) form and atomically replaces the live file with it, so the
/// on-disk artifact is byte-identical across clock-off runs. Returns the
/// journal path when one was open.
///
/// # Errors
///
/// Propagates filesystem errors; the live (arrival-order) file is left in
/// place when the canonical rewrite fails.
pub fn finalize_journal(extra: &[(&'static str, Value)]) -> std::io::Result<Option<PathBuf>> {
    let Some(live) = buffer().live.take() else {
        return Ok(None);
    };
    let text = render(&live.id, extra);
    let tmp = live.path.with_extension("jsonl.tmp");
    std::fs::write(&tmp, text)?;
    std::fs::rename(&tmp, &live.path)?;
    Ok(Some(live.path))
}

/// Drops all buffered events and closes any live journal without
/// finalizing it (the partial live file stays on disk). Called by
/// [`crate::reset`] at figure boundaries.
pub(crate) fn clear() {
    let mut j = buffer();
    j.events.clear();
    j.live = None;
}

// ------------------------------------------------------------------ reader

/// Journal rejection: a schema-contract violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalError {
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for JournalError {}

fn err(message: impl Into<String>) -> JournalError {
    JournalError {
        message: message.into(),
    }
}

/// A parsed event journal: the header identity plus the body events.
#[derive(Debug, Clone, PartialEq)]
pub struct Journal {
    /// Figure id from the `run.start` header.
    pub id: String,
    /// Producer mode string from the header.
    pub mode: String,
    /// Body events (everything between `run.start` and `run.end`).
    pub events: Vec<Value>,
    /// The `run.end` footer when the journal is finalized.
    pub end: Option<Value>,
    /// Whether a torn (unparsable, kill-truncated) final line was dropped.
    pub torn_tail: bool,
}

impl Journal {
    /// Parses journal text, live or finalized, validating the
    /// `pvtm-events/1` contract: line 0 is a `run.start` carrying the
    /// schema marker, every line is a JSON object with a `kind`, and
    /// sequence numbers are dense and ascending from zero. A torn final
    /// line (kill mid-append) is dropped, not fatal.
    ///
    /// # Errors
    ///
    /// Fails on an empty file, a bad header, an unparsable non-final
    /// line, or a sequence-number gap.
    pub fn parse(text: &str) -> Result<Journal, JournalError> {
        let lines: Vec<&str> = text.lines().collect();
        if lines.is_empty() {
            return Err(err("empty journal"));
        }
        let mut docs = Vec::with_capacity(lines.len());
        let mut torn_tail = false;
        for (i, l) in lines.iter().enumerate() {
            match json::parse(l) {
                Ok(doc) => docs.push(doc),
                Err(_) if i == lines.len() - 1 && i > 0 => torn_tail = true,
                Err(e) => return Err(err(format!("line {}: unparsable JSON: {e}", i + 1))),
            }
        }

        let header = &docs[0];
        if header.get("kind").and_then(Value::as_str) != Some("run.start") {
            return Err(err("line 1: journal must open with a run.start event"));
        }
        match header.get("schema").and_then(Value::as_str) {
            Some(SCHEMA) => {}
            other => {
                return Err(err(format!(
                    "line 1: schema {other:?}, expected {SCHEMA:?}"
                )))
            }
        }
        for (i, doc) in docs.iter().enumerate() {
            if doc.get("seq").and_then(Value::as_u64) != Some(i as u64) {
                return Err(err(format!(
                    "line {}: sequence numbers must be dense and ascending from 0",
                    i + 1
                )));
            }
            if doc.get("kind").and_then(Value::as_str).is_none() {
                return Err(err(format!("line {}: missing \"kind\"", i + 1)));
            }
        }

        let id = header
            .get("id")
            .and_then(Value::as_str)
            .unwrap_or("?")
            .to_string();
        let mode = header
            .get("mode")
            .and_then(Value::as_str)
            .unwrap_or("?")
            .to_string();
        let mut body = docs.split_off(1);
        let end = match body.last() {
            Some(doc) if doc.get("kind").and_then(Value::as_str) == Some("run.end") => body.pop(),
            _ => None,
        };
        Ok(Journal {
            id,
            mode,
            events: body,
            end,
            torn_tail,
        })
    }

    /// Whether the journal carries the `run.end` footer (canonical form).
    pub fn finalized(&self) -> bool {
        self.end.is_some()
    }

    /// Per-trace progress folded from the `mc.start`, `mc.chunk` and
    /// `mc.health` events, name-sorted — with the sidecar's own merges, so
    /// a finalized journal reads back the sidecar's last trace point and
    /// the producer's `mc.estimate` bit for bit.
    pub fn progress(&self) -> Vec<TraceProgress> {
        let mut plans: BTreeMap<String, Vec<Plan>> = BTreeMap::new();
        let mut chunks: BTreeMap<String, Vec<ChunkStat>> = BTreeMap::new();
        let mut health: BTreeMap<String, Vec<(u64, HealthChunk)>> = BTreeMap::new();
        for e in &self.events {
            let int = |key: &str| e.get(key).and_then(Value::as_u64).unwrap_or(0);
            let num = |key: &str| e.get(key).and_then(Value::as_f64).unwrap_or(0.0);
            let trace = e.get("trace").and_then(Value::as_str).unwrap_or("?");
            match e.get("kind").and_then(Value::as_str) {
                Some("mc.start") => plans.entry(trace.to_string()).or_default().push(Plan {
                    samples: int("samples"),
                    chunks: int("chunks"),
                }),
                Some("mc.chunk") => chunks
                    .entry(trace.to_string())
                    .or_default()
                    .push(ChunkStat {
                        chunk: int("chunk"),
                        n: int("n"),
                        mean: num("mean"),
                        m2: num("m2"),
                    }),
                Some("mc.health") => health.entry(trace.to_string()).or_default().push((
                    int("chunk"),
                    HealthChunk {
                        fails: int("fails"),
                        weight_sum: num("weight_sum"),
                        weight_sq_sum: num("weight_sq_sum"),
                        weight_max: num("weight_max"),
                    },
                )),
                _ => {}
            }
        }
        progress(&plans, &chunks, &health)
    }
}

// ---------------------------------------------------------------- progress

/// One estimator start's planned work, as an `mc.start` event journals it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Plan {
    samples: u64,
    chunks: u64,
}

/// Per-trace progress, name-sorted, from what a run recorded per trace
/// name — the plans of its starts, its chunk moments and its chunk weight
/// moments, each in any order. A trace started more than once sums its
/// plans, since every chunk recorded under its name counts as done. The
/// running estimate is the sidecar's last trace point, and the weight
/// moments are folded as the sidecar's trace health folds them, so both
/// agree with the sidecar bit for bit.
fn progress(
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
    /// Health chunks recorded so far — equals `chunks_done` in the
    /// finalized journal of a weight-tracking estimator.
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
    /// The progress row as `pvtm-trace tail --json` writes it in its
    /// `traces`, keys sorted.
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

#[cfg(test)]
mod tests {
    use super::*;

    /// A live (or, with `finalize`, finalized) journal of one two-chunk
    /// trace plus one event of each tallied kind.
    fn journal_text(finalize: bool) -> String {
        let mut t = String::from(concat!(
            r#"{"seq":0,"kind":"run.start","schema":"pvtm-events/1","id":"fig2a","mode":"full","clock":false}"#,
            "\n",
            r#"{"seq":1,"kind":"mc.start","trace":"fig2a.mc","samples":8192,"chunks":2}"#,
            "\n",
            r#"{"seq":2,"kind":"mc.chunk","trace":"fig2a.mc","chunk":0,"n":4096,"mean":0.25,"m2":768.0}"#,
            "\n",
            r#"{"seq":3,"kind":"mc.chunk","trace":"fig2a.mc","chunk":1,"n":4096,"mean":0.25,"m2":768.0}"#,
            "\n",
            r#"{"seq":4,"kind":"figure.corner","figure":"fig2a","corner":0,"quarantined":true}"#,
            "\n",
            r#"{"seq":5,"kind":"solver.rescue","stream":3,"rungs":1,"hit":true}"#,
            "\n",
            r#"{"seq":6,"kind":"mc.quarantine","stream":3,"corner":0.1,"reason":"clamp"}"#,
            "\n",
        ));
        if finalize {
            t.push_str(r#"{"seq":7,"kind":"run.end","id":"fig2a","events":6,"solves":10}"#);
            t.push('\n');
        }
        t
    }

    #[test]
    fn parses_live_and_finalized_journals() {
        let live = Journal::parse(&journal_text(false)).unwrap();
        assert_eq!(live.id, "fig2a");
        assert!(!live.finalized());
        assert_eq!(live.events.len(), 6);
        let done = Journal::parse(&journal_text(true)).unwrap();
        assert!(done.finalized());
        assert_eq!(done.events.len(), 6, "run.end is footer, not body");
    }

    #[test]
    fn tolerates_exactly_one_torn_final_line() {
        let mut t = journal_text(false);
        t.push_str(r#"{"seq":7,"kind":"mc.chu"#); // kill mid-append
        let j = Journal::parse(&t).unwrap();
        assert!(j.torn_tail);
        assert_eq!(j.events.len(), 6);
    }

    #[test]
    fn rejects_contract_violations() {
        assert!(Journal::parse("").is_err());
        assert!(Journal::parse("{\"seq\":0,\"kind\":\"other\"}\n").is_err());
        let wrong_schema =
            r#"{"seq":0,"kind":"run.start","schema":"pvtm-events/9","id":"x","mode":"full"}"#;
        assert!(Journal::parse(wrong_schema).is_err());
        let gap = format!(
            "{}\n{}\n",
            r#"{"seq":0,"kind":"run.start","schema":"pvtm-events/1","id":"x","mode":"full"}"#,
            r#"{"seq":5,"kind":"mc.start"}"#
        );
        let e = Journal::parse(&gap).unwrap_err();
        assert!(e.message.contains("dense"), "{e}");
        // A torn line anywhere but the tail is fatal.
        let mid = format!(
            "{}\n{}\n{}\n",
            r#"{"seq":0,"kind":"run.start","schema":"pvtm-events/1","id":"x","mode":"full"}"#,
            r#"{"seq":1,"kind":"mc.st"#,
            r#"{"seq":2,"kind":"mc.start"}"#
        );
        assert!(Journal::parse(&mid).is_err());
    }

    #[test]
    fn progress_folds_plans_and_merges_moments() {
        let p = Journal::parse(&journal_text(false)).unwrap().progress();
        assert_eq!(p.len(), 1);
        let t = &p[0];
        assert_eq!(t.name, "fig2a.mc");
        assert_eq!((t.chunks_done, t.chunks_total), (2, 2));
        assert_eq!((t.samples_done, t.samples_total), (8192, 8192));
        assert!((t.value - 0.25).abs() < 1e-12);
        // Two identical-mean chunks: merged m2 = 1536, var = m2/(n-1).
        let expect = (1536.0f64 / 8191.0 / 8192.0).sqrt();
        assert!((t.std_err - expect).abs() < 1e-15);
        assert_eq!((t.health_chunks, t.contributing), (0, 0));
    }

    /// The quick fig2a journal, finalized: its two chunks fold to the
    /// sidecar's last trace point and to the journal's own `mc.estimate`
    /// bit for bit, and its weight moments to the sidecar's trace health.
    #[test]
    fn finalized_fig2a_journal_reads_back_the_sidecar_bits() {
        let text = concat!(
            r#"{"seq":0,"kind":"run.start","schema":"pvtm-events/1","id":"fig2a","mode":"full","clock":false}"#,
            "\n",
            r#"{"seq":1,"kind":"figure.corner","figure":"fig2a","corner":0,"vt_inter":-0.15,"quarantined":false}"#,
            "\n",
            r#"{"seq":2,"kind":"figure.corner","figure":"fig2a","corner":1,"vt_inter":-0.075,"quarantined":false}"#,
            "\n",
            r#"{"seq":3,"kind":"figure.corner","figure":"fig2a","corner":2,"vt_inter":0,"quarantined":false}"#,
            "\n",
            r#"{"seq":4,"kind":"figure.corner","figure":"fig2a","corner":3,"vt_inter":0.07499999999999998,"quarantined":false}"#,
            "\n",
            r#"{"seq":5,"kind":"figure.corner","figure":"fig2a","corner":4,"vt_inter":0.15,"quarantined":false}"#,
            "\n",
            r#"{"seq":6,"kind":"mc.estimate","corner":0.15,"samples":8192,"value":0.20139554010996258,"std_err":0.003747935178448554,"pass_bound":0.20139554010996258,"quarantined":0}"#,
            "\n",
            r#"{"seq":7,"kind":"mc.chunk","trace":"fig2a.mc","chunk":0,"n":4096,"mean":0.20459777491674136,"m2":479.5678591758963}"#,
            "\n",
            r#"{"seq":8,"kind":"mc.health","trace":"fig2a.mc","chunk":0,"fails":2193,"weight_sum":838.0324860589739,"weight_sq_sum":651.0274411315065,"weight_max":8.092181760769314}"#,
            "\n",
            r#"{"seq":9,"kind":"mc.chunk","trace":"fig2a.mc","chunk":1,"n":4096,"mean":0.1981933053031838,"m2":462.91249176539907}"#,
            "\n",
            r#"{"seq":10,"kind":"mc.health","trace":"fig2a.mc","chunk":1,"fails":2262,"weight_sum":811.7997785218417,"weight_sq_sum":623.805773115034,"weight_max":12.390758710797876}"#,
            "\n",
            r#"{"seq":11,"kind":"mc.start","trace":"fig2a.mc","samples":8192,"chunks":2}"#,
            "\n",
            r#"{"seq":12,"kind":"run.end","id":"fig2a","events":11,"solves":47766,"quarantined":0}"#,
            "\n",
        );
        let j = Journal::parse(text).unwrap();
        let [t] = j.progress().try_into().unwrap();
        assert_eq!((t.chunks_done, t.chunks_total), (2, 2));
        assert_eq!((t.samples_done, t.samples_total), (8192, 8192));
        // The sidecar's last trace point: value 0.20139554010996258,
        // std_err 0.003747935178448554 (a merge adding m2₁ + m2₂ before the
        // cross term gives 0.0037479351784485545).
        assert_eq!(t.value.to_bits(), 0.201_395_540_109_962_58f64.to_bits());
        assert_eq!(t.std_err.to_bits(), 0.003_747_935_178_448_554f64.to_bits());
        let estimate = j
            .events
            .iter()
            .find(|e| e.get("kind").and_then(Value::as_str) == Some("mc.estimate"))
            .unwrap();
        let field = |key: &str| estimate.get(key).and_then(Value::as_f64).unwrap().to_bits();
        assert_eq!(t.value.to_bits(), field("value"));
        assert_eq!(t.std_err.to_bits(), field("std_err"));
        // The sidecar's trace health: contributing 4455, ess 2135.1393035838055.
        assert_eq!((t.health_chunks, t.contributing), (2, 4455));
        assert_eq!(t.ess.to_bits(), 2_135.139_303_583_805_5f64.to_bits());
    }

    #[test]
    fn disabled_mode_buffers_nothing() {
        let _g = crate::test_guard();
        crate::set_mode(Mode::Off);
        set_enabled(true);
        clear();
        emit("mc.start", 0, 0, vec![("samples", Value::Num(1.0))]);
        assert_eq!(buffer().events.len(), 0);
    }

    #[test]
    fn events_gate_disables_independently_of_mode() {
        let _g = crate::test_guard();
        crate::set_mode(Mode::Summary);
        set_enabled(false);
        clear();
        emit("mc.start", 0, 0, vec![]);
        assert_eq!(buffer().events.len(), 0);
        set_enabled(true);
        emit("mc.start", 0, 0, vec![]);
        assert_eq!(buffer().events.len(), 1);
        crate::set_mode(Mode::Off);
        clear();
    }

    #[test]
    fn canonical_render_sorts_and_renumbers_densely() {
        let _g = crate::test_guard();
        crate::set_mode(Mode::Summary);
        crate::set_clock_enabled(false);
        set_enabled(true);
        clear();
        let k = name_key("t.mc");
        // Arrival order deliberately scrambled.
        emit("mc.chunk", k, 2, vec![("chunk", Value::Num(2.0))]);
        emit("mc.chunk", k, 0, vec![("chunk", Value::Num(0.0))]);
        emit("mc.chunk", k, 1, vec![("chunk", Value::Num(1.0))]);
        let text = render("det", &[]);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5, "header + 3 events + footer:\n{text}");
        assert!(lines[0].contains("\"run.start\""));
        assert!(lines[0].contains("pvtm-events/1"));
        assert!(lines[1].contains("\"chunk\": 0") || lines[1].contains("\"chunk\":0"));
        assert!(lines[3].contains("\"chunk\":2") || lines[3].contains("\"chunk\": 2"));
        assert!(lines[4].contains("\"run.end\""));
        // Dense sequence numbers 0..=4.
        for (i, l) in lines.iter().enumerate() {
            let doc = crate::json::parse(l).expect("journal line parses");
            assert_eq!(doc.get("seq").and_then(Value::as_u64), Some(i as u64));
        }
        crate::set_mode(Mode::Off);
        crate::set_clock_enabled(true);
        clear();
    }

    #[test]
    fn render_is_identical_across_arrival_orders() {
        let _g = crate::test_guard();
        crate::set_mode(Mode::Summary);
        crate::set_clock_enabled(false);
        set_enabled(true);
        let k = name_key("t.mc");
        let run = |order: &[u64]| {
            clear();
            for &c in order {
                emit("mc.chunk", k, c, vec![("chunk", Value::Num(c as f64))]);
            }
            render("det", &[])
        };
        let a = run(&[0, 1, 2, 3]);
        let b = run(&[3, 1, 0, 2]);
        assert_eq!(a, b, "canonical journal must not depend on arrival order");
        crate::set_mode(Mode::Off);
        crate::set_clock_enabled(true);
        clear();
    }

    #[test]
    fn live_journal_finalizes_to_canonical_file() {
        let _g = crate::test_guard();
        crate::set_mode(Mode::Summary);
        crate::set_clock_enabled(false);
        set_enabled(true);
        clear();
        let dir = std::env::temp_dir().join("pvtm-events-test");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("unit.events.jsonl");
        assert!(open_journal(&path, "unit").unwrap());
        let k = name_key("t.mc");
        emit("mc.chunk", k, 1, vec![("chunk", Value::Num(1.0))]);
        emit("mc.chunk", k, 0, vec![("chunk", Value::Num(0.0))]);
        // The live file already holds header + 2 arrival-order lines.
        let live = std::fs::read_to_string(&path).unwrap();
        assert_eq!(live.lines().count(), 3);
        let out = finalize_journal(&[("solves", Value::Num(7.0))]).unwrap();
        assert_eq!(out.as_deref(), Some(path.as_path()));
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, render("unit", &[("solves", Value::Num(7.0))]));
        assert!(text.ends_with("\n"));
        assert!(text.contains("\"solves\": 7") || text.contains("\"solves\":7"));
        let _ = std::fs::remove_dir_all(&dir);
        crate::set_mode(Mode::Off);
        crate::set_clock_enabled(true);
        clear();
    }
}
