//! Experiment-harness support for the `pvtm` workspace benches.
//!
//! The real content lives in two targets:
//!
//! - `benches/figures.rs` (`cargo bench --bench figures`) regenerates every
//!   figure of the paper and writes `results/<id>.json`;
//! - the `benchmark` binary (`crates/bench/src/bin/benchmark/run.sh`)
//!   measures performance end to end and layer by layer.

use std::fmt::Display;
use std::io::Write as _;
use std::path::Path;

use pvtm_telemetry::clock::Stopwatch;
use pvtm_telemetry::json::{obj, Value};
use serde::Serialize;

/// Per-figure record kept for the end-of-run summary table.
#[derive(Debug, Clone)]
pub struct FigureRun {
    /// Figure id (`fig2a`, `scaling`, ...).
    pub id: String,
    /// Wall-clock seconds (0 when the telemetry clock is disabled, so
    /// machine-readable outputs stay byte-identical across runs).
    pub seconds: f64,
    /// DC solves spent, from the merged telemetry solver counters.
    pub solves: u64,
    /// Warm-start hit rate over those solves.
    pub warm_hit_rate: f64,
    /// Newton iterations spent.
    pub newton_iterations: u64,
}

/// Figure-run reporter: times each experiment, snapshots its telemetry,
/// writes `results/<id>.json`, a `results/<id>.telemetry.json` sidecar in
/// full mode, and one JSONL record per figure to `results/figures.jsonl`.
///
/// Human-readable tables go to stdout unless `PVTM_QUIET=1`, which keeps
/// only the per-figure telemetry summary lines and the final compact
/// table.
#[derive(Debug, Default)]
pub struct Reporter {
    quiet: bool,
    runs: Vec<FigureRun>,
}

impl Reporter {
    /// Creates a reporter, reading `PVTM_QUIET` from the environment.
    pub fn new() -> Self {
        Self {
            quiet: std::env::var("PVTM_QUIET").as_deref() == Ok("1"),
            runs: Vec::new(),
        }
    }

    /// Runs one figure: resets telemetry, executes `f`, snapshots the
    /// report, persists result JSON + sidecar + the finalized event
    /// journal, and returns the value.
    pub fn figure<T: Display + Serialize>(&mut self, id: &str, f: impl FnOnce() -> T) -> T {
        pvtm_telemetry::reset();
        // Open the live event journal before the figure runs: a killed run
        // keeps the arrival-order partial record; a completed figure gets
        // the canonical (sorted, densely renumbered) rewrite below.
        let journal_open = if pvtm_telemetry::is_enabled() {
            let dir = pvtm::experiments::results_dir();
            let _ = std::fs::create_dir_all(&dir);
            pvtm_telemetry::events::open_journal(&dir.join(format!("{id}.events.jsonl")), id)
                .unwrap_or(false)
        } else {
            false
        };
        // A gated-off stopwatch reports 0.0 s, keeping every
        // machine-readable output byte-identical across runs.
        let watch = Stopwatch::started();
        let value = f();
        let seconds = watch.elapsed_secs();
        let report = pvtm_telemetry::snapshot();
        let journal_path = if journal_open {
            pvtm_telemetry::events::finalize_journal(&[
                ("solves", Value::Num(report.solver.solves as f64)),
                ("quarantined", Value::Num(report.quarantine.len() as f64)),
            ])
            .expect("finalize event journal")
        } else {
            None
        };

        let result_path = pvtm::experiments::save_json(id, &value).expect("write result JSON");
        let telemetry_path = if report.mode == pvtm_telemetry::Mode::Full {
            let path = pvtm::experiments::results_dir().join(format!("{id}.telemetry.json"));
            std::fs::write(&path, report.to_json_pretty(id)).expect("write telemetry sidecar");
            Some(path)
        } else {
            None
        };
        self.append_jsonl(
            id,
            seconds,
            &report,
            &result_path,
            telemetry_path.as_deref(),
            journal_path.as_deref(),
        );

        if !self.quiet {
            println!("{value}");
        }
        if report.mode >= pvtm_telemetry::Mode::Summary {
            println!("{}", report.summary_line(id));
        }
        eprintln!("[{id}] completed in {seconds:.1} s");

        self.runs.push(FigureRun {
            id: id.to_string(),
            seconds,
            solves: report.solver.solves,
            warm_hit_rate: report.solver.warm_hit_rate,
            newton_iterations: report.solver.newton_iterations,
        });
        value
    }

    fn append_jsonl(
        &self,
        id: &str,
        seconds: f64,
        report: &pvtm_telemetry::Report,
        result_path: &Path,
        telemetry_path: Option<&Path>,
        journal_path: Option<&Path>,
    ) {
        let line = obj(vec![
            ("id", Value::Str(id.to_string())),
            ("seconds", Value::Num(seconds)),
            ("mode", Value::Str(report.mode.as_str().to_string())),
            ("solves", Value::Num(report.solver.solves as f64)),
            ("warm_hit_rate", Value::Num(report.solver.warm_hit_rate)),
            (
                "newton_iterations",
                Value::Num(report.solver.newton_iterations as f64),
            ),
            ("result", Value::Str(result_path.display().to_string())),
            (
                "telemetry",
                match telemetry_path {
                    Some(p) => Value::Str(p.display().to_string()),
                    None => Value::Null,
                },
            ),
            (
                "events",
                match journal_path {
                    Some(p) => Value::Str(p.display().to_string()),
                    None => Value::Null,
                },
            ),
        ]);
        let dir = pvtm::experiments::results_dir();
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("figures.jsonl");
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .expect("open figures.jsonl");
        // One write_all + flush per record: a `writeln!` can issue several
        // partial writes, so a figure killed mid-append could leave a torn
        // line; this way the record is durable the moment the figure ends.
        let mut rec = line.to_json();
        rec.push('\n');
        file.write_all(rec.as_bytes())
            .expect("append figures.jsonl");
        file.flush().expect("flush figures.jsonl");
    }

    /// Prints the compact end-of-run summary table.
    pub fn finish(&self) {
        if self.runs.is_empty() {
            return;
        }
        println!("\n== figure summary ==");
        println!(
            "{:<22} {:>9} {:>9} {:>7} {:>9}",
            "id", "seconds", "solves", "warm%", "newton"
        );
        for r in &self.runs {
            println!(
                "{:<22} {:>9.1} {:>9} {:>7.1} {:>9}",
                r.id,
                r.seconds,
                r.solves,
                100.0 * r.warm_hit_rate,
                r.newton_iterations
            );
        }
    }
}

/// Selects the experiment effort from the `PVTM_EFFORT` environment
/// variable (`quick` → quick; anything else → full).
pub fn effort_from_env() -> pvtm::experiments::Effort {
    match std::env::var("PVTM_EFFORT").as_deref() {
        Ok("quick") => pvtm::experiments::Effort::quick(),
        _ => pvtm::experiments::Effort::full(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reporter_writes_result_json_and_jsonl() {
        let dir = std::env::temp_dir().join("pvtm-bench-reporter-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::env::set_var("PVTM_RESULTS_DIR", &dir);
        let mut rep = Reporter::new();
        let v = rep.figure("unit-test-figure", || 3.5f64);
        std::env::remove_var("PVTM_RESULTS_DIR");
        assert_eq!(v, 3.5);
        assert!(dir.join("unit-test-figure.json").is_file());
        let jsonl = std::fs::read_to_string(dir.join("figures.jsonl")).unwrap();
        assert_eq!(jsonl.lines().count(), 1);
        let rec = pvtm_telemetry::json::parse(jsonl.lines().next().unwrap()).unwrap();
        assert_eq!(
            rec.get("id").and_then(Value::as_str),
            Some("unit-test-figure")
        );
        // Telemetry defaults to off here, so no sidecar or journal is
        // written.
        assert_eq!(rec.get("telemetry"), Some(&Value::Null));
        assert_eq!(rec.get("events"), Some(&Value::Null));
        assert!(!dir.join("unit-test-figure.telemetry.json").exists());
        assert!(!dir.join("unit-test-figure.events.jsonl").exists());

        // In full mode a figure writes its result, its sidecar and its
        // journal, and the record names exactly those. One test, because
        // the mode and `PVTM_RESULTS_DIR` are process-global.
        let _ = std::fs::remove_dir_all(&dir);
        pvtm_telemetry::set_mode(pvtm_telemetry::Mode::Full);
        std::env::set_var("PVTM_RESULTS_DIR", &dir);
        rep.figure("unit-test-figure", || 3.5f64);
        std::env::remove_var("PVTM_RESULTS_DIR");
        pvtm_telemetry::set_mode(pvtm_telemetry::Mode::Off);
        let mut files: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        files.sort();
        assert_eq!(
            files,
            [
                "figures.jsonl",
                "unit-test-figure.events.jsonl",
                "unit-test-figure.json",
                "unit-test-figure.telemetry.json",
            ]
        );
        let jsonl = std::fs::read_to_string(dir.join("figures.jsonl")).unwrap();
        let Value::Obj(members) = pvtm_telemetry::json::parse(jsonl.trim_end()).unwrap() else {
            panic!("figures.jsonl record is not an object");
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "id",
                "seconds",
                "mode",
                "solves",
                "warm_hit_rate",
                "newton_iterations",
                "result",
                "telemetry",
                "events",
            ]
        );
        let _ = std::fs::remove_dir_all(dir);
    }
}
