//! `pvtm-trace tail` — render a run's event journal.
//!
//! The producer ([`pvtm_telemetry::events`]) appends one JSON object per
//! line to `results/<id>.events.jsonl` while a figure runs, then rewrites
//! the file in canonical order at the end. [`Journal::parse`] reads either
//! form and [`Journal::progress`] folds its per-trace progress with the
//! sidecar's own merges, so the running estimate of a finalized journal
//! is the sidecar's. This module adds the journal's corner, rescue and
//! quarantine tallies and renders the snapshot: the progress rows, the
//! ETA and the tallies.
//!
//! Run once without `--follow`, the strict parse doubles as the CI schema
//! validator: a journal that violates the `pvtm-events/1` contract
//! (wrong header, non-dense sequence numbers, unparsable body line) is
//! rejected with a diagnostic. The only tolerated defect is a torn final
//! line, which a kill mid-append legitimately produces.

use std::fmt::Write as _;

use pvtm_telemetry::events::{Journal, TraceProgress};
use pvtm_telemetry::json::{self, Value};

/// A progress snapshot of one journal.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Figure id.
    pub id: String,
    /// Whether the journal was finalized.
    pub finalized: bool,
    /// Whether a torn final line was dropped by the parser.
    pub torn_tail: bool,
    /// Body events seen.
    pub events: usize,
    /// Per-trace progress, name-sorted ([`Journal::progress`]).
    pub traces: Vec<TraceProgress>,
    /// `figure.corner` events seen.
    pub corners: u64,
    /// ... of which were quarantined corners.
    pub corners_quarantined: u64,
    /// `mc.estimate` events seen.
    pub estimates: u64,
    /// `solver.rescue` events seen.
    pub rescue_attempts: u64,
    /// ... of which converged.
    pub rescue_hits: u64,
    /// `mc.quarantine` events seen.
    pub quarantined: u64,
}

/// Reads a journal's progress and tallies its corner, estimate, rescue and
/// quarantine events. Unknown kinds are ignored (forward compatibility).
pub fn snapshot(j: &Journal) -> Snapshot {
    let mut s = Snapshot {
        id: j.id.clone(),
        finalized: j.finalized(),
        torn_tail: j.torn_tail,
        events: j.events.len(),
        traces: j.progress(),
        corners: 0,
        corners_quarantined: 0,
        estimates: 0,
        rescue_attempts: 0,
        rescue_hits: 0,
        quarantined: 0,
    };
    for e in &j.events {
        let flag = |key: &str| u64::from(e.get(key) == Some(&Value::Bool(true)));
        match e.get("kind").and_then(Value::as_str) {
            Some("figure.corner") => {
                s.corners += 1;
                s.corners_quarantined += flag("quarantined");
            }
            Some("mc.estimate") => s.estimates += 1,
            Some("solver.rescue") => {
                s.rescue_attempts += 1;
                s.rescue_hits += flag("hit");
            }
            Some("mc.quarantine") => s.quarantined += 1,
            _ => {}
        }
    }
    s
}

/// Chunks done and planned over `rows` — the ETA numerator and
/// denominator. The total reads 0 while no `mc.start` has landed.
fn work(rows: &[TraceProgress]) -> (u64, u64) {
    let done = rows.iter().map(|t| t.chunks_done).sum();
    let total = rows.iter().map(|t| t.chunks_total).sum();
    (done, total)
}

/// A fixed-width `#`/`.` progress bar; all-`.` when the total is unknown.
fn bar(done: u64, total: u64, width: usize) -> String {
    let filled = if total == 0 {
        0
    } else {
        (done.min(total) as usize * width) / total as usize
    };
    (0..width)
        .map(|i| if i < filled { '#' } else { '.' })
        .collect()
}

/// Renders one row per trace — a progress bar, chunk and sample counts,
/// the running estimate once samples landed, the ESS once weight moments
/// did — then the work-based ETA: chunks are equal-sized by construction,
/// so `elapsed / done` extrapolates. The ETA is left out when `elapsed` is
/// 0 (the clock is gated off, or the run is over), when nothing has
/// landed, or when no work is left.
fn render_progress(out: &mut String, rows: &[TraceProgress], elapsed: f64) {
    for r in rows {
        let pct = if r.chunks_total > 0 {
            format!(
                "{:3.0}%",
                100.0 * r.chunks_done as f64 / r.chunks_total as f64
            )
        } else {
            "  ?%".to_string()
        };
        let _ = write!(
            out,
            "  {:<28} [{}] {} {}/{} chunks, {}/{} samples",
            r.name,
            bar(r.chunks_done, r.chunks_total, 20),
            pct,
            r.chunks_done,
            r.chunks_total,
            r.samples_done,
            r.samples_total
        );
        if r.samples_done > 0 {
            let _ = write!(out, ", est {:.4e} ± {:.2e}", r.value, r.std_err);
        }
        if r.health_chunks > 0 {
            let _ = write!(out, ", ess {:.1}", r.ess);
        }
        out.push('\n');
    }
    let (done, total) = work(rows);
    if done > 0 && total > done && elapsed > 0.0 {
        let eta = elapsed * (total - done) as f64 / done as f64;
        let _ = writeln!(out, "  eta: ~{eta:.0} s ({done}/{total} chunks)");
    }
}

impl Snapshot {
    /// The snapshot as a JSON value with alphabetically sorted keys —
    /// the `tail --json` machine-readable contract. Each trace row is
    /// [`TraceProgress::to_value`]; `work_done` / `work_total` are
    /// denormalized in so scripted consumers do not have to re-sum the
    /// traces.
    pub fn to_value(&self) -> Value {
        let (work_done, work_total) = work(&self.traces);
        let count = |n: u64| Value::Num(n as f64);
        json::obj(vec![
            ("corners", count(self.corners)),
            ("corners_quarantined", count(self.corners_quarantined)),
            ("estimates", count(self.estimates)),
            ("events", count(self.events as u64)),
            ("finalized", Value::Bool(self.finalized)),
            ("id", Value::Str(self.id.clone())),
            ("quarantined", count(self.quarantined)),
            ("rescue_attempts", count(self.rescue_attempts)),
            ("rescue_hits", count(self.rescue_hits)),
            ("torn_tail", Value::Bool(self.torn_tail)),
            (
                "traces",
                Value::Arr(self.traces.iter().map(TraceProgress::to_value).collect()),
            ),
            ("work_done", count(work_done)),
            ("work_total", count(work_total)),
        ])
    }

    /// Compact one-line JSON rendering of [`Snapshot::to_value`], with a
    /// trailing newline.
    pub fn to_json(&self) -> String {
        let mut out = self.to_value().to_json();
        out.push('\n');
        out
    }

    /// Renders the human-readable snapshot, with an ETA from `elapsed`
    /// seconds of watching while the run is in flight.
    pub fn render(&self, elapsed: f64) -> String {
        let mut out = format!(
            "run {} — {} ({} events{})\n",
            self.id,
            if self.finalized {
                "finalized"
            } else {
                "in flight"
            },
            self.events,
            if self.torn_tail {
                ", torn tail dropped"
            } else {
                ""
            },
        );
        let elapsed = if self.finalized { 0.0 } else { elapsed };
        render_progress(&mut out, &self.traces, elapsed);
        if self.corners > 0 {
            let _ = writeln!(
                out,
                "  corners: {} done ({} quarantined), {} estimates",
                self.corners, self.corners_quarantined, self.estimates
            );
        }
        if self.rescue_attempts > 0 || self.quarantined > 0 {
            let _ = writeln!(
                out,
                "  rescue: {}/{} hits/attempts, quarantined samples: {}",
                self.rescue_hits, self.rescue_attempts, self.quarantined
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn journal_text(finalize: bool) -> String {
        let mut t = String::from(concat!(
            r#"{"seq":0,"kind":"run.start","schema":"pvtm-events/1","id":"fig2a","mode":"full","clock":false}"#,
            "\n",
            r#"{"seq":1,"kind":"mc.start","trace":"fig2a.mc","samples":16384,"chunks":4}"#,
            "\n",
            r#"{"seq":2,"kind":"mc.chunk","trace":"fig2a.mc","chunk":0,"n":4096,"mean":0.25,"m2":768.0}"#,
            "\n",
            r#"{"seq":3,"kind":"mc.health","trace":"fig2a.mc","chunk":0,"fails":10,"weight_sum":2.0,"weight_sq_sum":0.5,"weight_max":0.5}"#,
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

    fn snap(finalize: bool) -> Snapshot {
        snapshot(&Journal::parse(&journal_text(finalize)).unwrap())
    }

    #[test]
    fn bar_fills_proportionally_and_handles_unknown_totals() {
        assert_eq!(bar(0, 4, 8), "........");
        assert_eq!(bar(2, 4, 8), "####....");
        assert_eq!(bar(4, 4, 8), "########");
        assert_eq!(bar(9, 4, 8), "########", "overshoot clamps");
        assert_eq!(bar(3, 0, 8), "........", "unknown total stays empty");
    }

    #[test]
    fn snapshot_tallies_events_and_renders_progress() {
        let s = snap(false);
        assert_eq!(work(&s.traces), (1, 4));
        assert_eq!((s.corners, s.corners_quarantined), (1, 1));
        assert_eq!((s.rescue_attempts, s.rescue_hits), (1, 1));
        assert_eq!(s.quarantined, 1);
        let text = s.render(5.0);
        assert!(text.contains("run fig2a — in flight"), "{text}");
        assert!(
            text.contains("[#####...............]  25% 1/4 chunks"),
            "{text}"
        );
        assert!(text.contains("ess 8.0"), "{text}");
        assert!(text.contains("eta: ~15 s (1/4 chunks)"), "{text}");
        assert!(text.contains("1/1 hits/attempts"), "{text}");
        assert!(!s.render(0.0).contains("eta"), "no ETA with the clock off");
    }

    #[test]
    fn finalized_snapshot_reports_it_without_an_eta() {
        let s = snap(true);
        assert!(s.finalized);
        let text = s.render(5.0);
        assert!(text.contains("finalized"), "{text}");
        assert!(!text.contains("eta"), "{text}");
    }

    #[test]
    fn json_snapshot_is_sorted_and_writes_the_progress_rows() {
        let s = snap(false);
        let v = s.to_value();
        let Value::Obj(members) = &v else {
            panic!("snapshot JSON must be an object");
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "top-level keys must be alphabetical");
        assert_eq!(v.get("id").and_then(Value::as_str), Some("fig2a"));
        assert_eq!(v.get("finalized").and_then(Value::as_bool), Some(false));
        assert_eq!(v.get("work_done").and_then(Value::as_u64), Some(1));
        assert_eq!(v.get("work_total").and_then(Value::as_u64), Some(4));
        let text = s.to_json();
        assert!(text.ends_with('\n'));
        let reparsed = json::parse(text.trim_end()).expect("tail --json output reparses");
        let rows = reparsed.get("traces").and_then(Value::as_array).unwrap();
        assert_eq!(rows, [s.traces[0].to_value()]);
    }
}
