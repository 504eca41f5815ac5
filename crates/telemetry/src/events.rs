//! Structured, deterministic run journal (`results/<id>.events.jsonl`).
//!
//! Every figure run can emit an append-only stream of lifecycle events —
//! Monte-Carlo estimator starts, per-chunk convergence and weight-health
//! snapshots, rescue-ladder escalations, quarantined samples, experiment
//! milestones — one JSON object per line. The journal is the streaming
//! counterpart of the sidecar: `pvtm-trace tail` renders progress from it
//! while a run is still going, and `pvtm-trace health` cross-checks it
//! against the final sidecar afterwards.
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
//! unknown kinds and unknown fields.
//!
//! # Gating
//!
//! Recording follows the telemetry mode (`PVTM_TELEMETRY`): events are
//! dropped entirely in `off` mode. [`set_enabled`] additionally disables
//! the journal while leaving the rest of telemetry on (the benchmark
//! harness does); the disabled fast path is one atomic load.

use std::fs::File;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

use crate::json::{obj, Value};
use crate::Mode;

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
struct Journal {
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

static JOURNAL: Mutex<Journal> = Mutex::new(Journal {
    events: Vec::new(),
    live: None,
});

fn journal() -> MutexGuard<'static, Journal> {
    JOURNAL.lock().unwrap_or_else(|e| e.into_inner())
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
    let mut j = journal();
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
    let j = journal();
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
    // The run id changes what live scrapes report; bump the write epoch.
    let _scope = crate::snapshot::write_scope();
    let mut file = File::create(path)?;
    let mut header = header_line(id);
    header.push('\n');
    file.write_all(header.as_bytes())?;
    file.flush()?;
    journal().live = Some(LiveSink {
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
    let _scope = crate::snapshot::write_scope();
    let Some(live) = journal().live.take() else {
        return Ok(None);
    };
    let text = render(&live.id, extra);
    let tmp = live.path.with_extension("jsonl.tmp");
    std::fs::write(&tmp, text)?;
    std::fs::rename(&tmp, &live.path)?;
    Ok(Some(live.path))
}

/// The id of the currently open live journal, if any — what live scrapes
/// report as the run id.
pub(crate) fn live_id() -> Option<String> {
    journal().live.as_ref().map(|l| l.id.clone())
}

/// Drops all buffered events and closes any live journal without
/// finalizing it (the partial live file stays on disk). Called by
/// [`crate::reset`] at figure boundaries.
pub(crate) fn clear() {
    let mut j = journal();
    j.events.clear();
    j.live = None;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_mode_buffers_nothing() {
        let _g = crate::test_guard();
        crate::set_mode(Mode::Off);
        set_enabled(true);
        clear();
        emit("mc.start", 0, 0, vec![("samples", Value::Num(1.0))]);
        assert_eq!(journal().events.len(), 0);
    }

    #[test]
    fn events_gate_disables_independently_of_mode() {
        let _g = crate::test_guard();
        crate::set_mode(Mode::Summary);
        set_enabled(false);
        clear();
        emit("mc.start", 0, 0, vec![]);
        assert_eq!(journal().events.len(), 0);
        set_enabled(true);
        emit("mc.start", 0, 0, vec![]);
        assert_eq!(journal().events.len(), 1);
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
