//! Event-journal determinism under the rayon shim: the canonical journal
//! must be a pure function of the recorded event multiset, independent of
//! worker scheduling, and two clock-off runs must produce byte-identical
//! files with dense sequence numbers.

use pvtm_telemetry as tm;
use pvtm_telemetry::json::Value;
use rayon::prelude::*;
use std::sync::{Mutex, MutexGuard};

fn lock() -> MutexGuard<'static, ()> {
    // Telemetry state is process-global; serialize the tests in this binary.
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

const CHUNKS: u64 = 24;

/// One simulated figure run: a chunked estimator recording start, chunks
/// and weight health from parallel workers, plus a quarantine event.
fn journaled_run() -> String {
    tm::reset();
    {
        let _t = tm::trace_scope("mc.journal_test");
        let h = tm::active_trace().unwrap();
        tm::record_mc_start(&h, 100 * CHUNKS, CHUNKS);
        (0..CHUNKS).into_par_iter().for_each(|c| {
            let health = tm::HealthChunk {
                fails: 3,
                weight_sum: 0.3,
                weight_sq_sum: 0.03,
                weight_max: 0.1,
            };
            tm::record_chunk(&h, c, 100, c as f64 * 1e-3, 1e-6, Some(health));
        });
    }
    tm::record_quarantine(tm::QuarantineRecord {
        stream: 7,
        seed: 0xDEAD_BEEF,
        corner: 0.12,
        kind: "no_convergence".to_string(),
    });
    tm::events::render("det-test", &[("solves", Value::Num(1.0))])
}

#[test]
fn canonical_journal_is_byte_identical_across_parallel_runs() {
    let _g = lock();
    tm::set_mode(tm::Mode::Summary);
    tm::set_clock_enabled(false);
    tm::events::set_enabled(true);

    let a = journaled_run();
    let b = journaled_run();
    assert_eq!(
        a, b,
        "worker scheduling must not show through the canonical journal"
    );

    // Contract checks on the rendered form: header, dense seqs, footer.
    let lines: Vec<&str> = a.lines().collect();
    // run.start + (mc.start + CHUNKS chunks + CHUNKS health + 1 quarantine) + run.end
    assert_eq!(lines.len() as u64, 2 * CHUNKS + 4);
    for (i, l) in lines.iter().enumerate() {
        let doc = tm::json::parse(l).expect("every journal line is a JSON object");
        assert_eq!(
            doc.get("seq").and_then(Value::as_u64),
            Some(i as u64),
            "sequence numbers must be dense and ascending: line {l}"
        );
    }
    let first = tm::json::parse(lines[0]).unwrap();
    assert_eq!(first.get("kind").and_then(Value::as_str), Some("run.start"));
    assert_eq!(
        first.get("schema").and_then(Value::as_str),
        Some(tm::events::SCHEMA)
    );
    let last = tm::json::parse(lines[lines.len() - 1]).unwrap();
    assert_eq!(last.get("kind").and_then(Value::as_str), Some("run.end"));
    assert_eq!(
        last.get("events").and_then(Value::as_u64),
        Some(lines.len() as u64 - 2)
    );
    assert_eq!(last.get("solves").and_then(Value::as_u64), Some(1));

    tm::set_mode(tm::Mode::Off);
    tm::set_clock_enabled(true);
    tm::reset();
}

#[test]
fn finalized_file_is_byte_identical_across_runs() {
    let _g = lock();
    tm::set_mode(tm::Mode::Summary);
    tm::set_clock_enabled(false);
    tm::events::set_enabled(true);

    let dir = std::env::temp_dir().join("pvtm-events-par-test");
    let _ = std::fs::create_dir_all(&dir);
    let run_to_file = |name: &str| {
        tm::reset();
        let path = dir.join(name);
        assert!(tm::events::open_journal(&path, "par").unwrap());
        // The trace is started twice under one name, as two estimators in
        // one trace scope would.
        for _ in 0..2 {
            let _t = tm::trace_scope("mc.journal_test");
            let h = tm::active_trace().unwrap();
            tm::record_mc_start(&h, 100 * CHUNKS, CHUNKS);
            (0..CHUNKS).into_par_iter().for_each(|c| {
                tm::record_chunk(&h, c, 100, c as f64, 0.5, None);
            });
        }
        tm::events::finalize_journal(&[]).unwrap().unwrap();
        std::fs::read(&path).unwrap()
    };
    let a = run_to_file("a.events.jsonl");
    let b = run_to_file("b.events.jsonl");
    assert_eq!(a, b, "finalized journal files must be byte-identical");

    // The journal's progress counts every chunk recorded under the name
    // against the sum of its plans.
    let text = String::from_utf8(a).unwrap();
    let journal = tm::events::Journal::parse(&text).expect("finalized journal parses");
    let progress = journal.progress();
    let [p] = progress.as_slice() else {
        panic!("one trace expected: {progress:?}");
    };
    assert_eq!((p.chunks_done, p.chunks_total), (2 * CHUNKS, 2 * CHUNKS));
    assert_eq!(
        (p.samples_done, p.samples_total),
        (200 * CHUNKS, 200 * CHUNKS)
    );
    let _ = std::fs::remove_dir_all(&dir);

    tm::set_mode(tm::Mode::Off);
    tm::set_clock_enabled(true);
    tm::reset();
}
