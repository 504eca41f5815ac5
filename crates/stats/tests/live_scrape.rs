//! Snapshot-consistency under fire: a scraper thread hammers
//! [`pvtm_telemetry::snapshot::live`] while an [`ImportanceSampler`] run
//! records chunks from rayon workers. Every captured snapshot must be
//! internally consistent:
//!
//! - `health_chunks == chunks_done` — the estimator records each chunk's
//!   moments and weight moments as one record, which lands under one
//!   acquisition of the registry mutex that a scrape captures under, so
//!   no scrape may ever observe one half of the pair (the torn state that
//!   lock prevents);
//! - `ess` equals `(Σw)²/Σw²` recomputed from the snapshot's own weight
//!   moments, bit-identical — the snapshot is self-describing;
//! - `chunks_done` is monotone non-decreasing across consecutive scrapes.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

use pvtm_stats::ImportanceSampler;
use pvtm_telemetry as tm;

fn lock() -> MutexGuard<'static, ()> {
    // Telemetry state is process-global; serialize the tests in this binary.
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn concurrent_scrapes_always_see_consistent_estimator_state() {
    let _g = lock();
    tm::set_mode(tm::Mode::Full);
    tm::set_clock_enabled(false);
    tm::reset();

    const TRACE: &str = "mc.live_scrape";
    let stop = AtomicBool::new(false);
    let snapshots = std::thread::scope(|scope| {
        let scraper = scope.spawn(|| {
            let mut taken = Vec::new();
            while !stop.load(Ordering::SeqCst) {
                taken.push(tm::snapshot::live());
                std::thread::yield_now();
            }
            // One final scrape after the run completed.
            taken.push(tm::snapshot::live());
            taken
        });

        {
            let _t = tm::trace_scope(TRACE);
            let sampler = ImportanceSampler::new(vec![3.0]);
            // 24 chunks of 4096: enough write traffic that scrapes land
            // between, before, and after chunk records.
            let est = sampler.probability(24 * 4096, 7, |z| z[0] > 3.0);
            assert!(est.value > 0.0, "the shifted event must be observed");
        }
        stop.store(true, Ordering::SeqCst);
        scraper.join().expect("scraper thread")
    });

    assert!(!snapshots.is_empty());
    let mut last_chunks = 0u64;
    let mut observed_rows = 0usize;
    for snap in &snapshots {
        // Every scrape is a document the strict reader takes back as is.
        let body = snap.to_json();
        let read = tm::snapshot::LiveSnapshot::parse(&body).expect("a live scrape parses");
        assert_eq!(read.to_json(), body);
        let Some(p) = snap.progress.iter().find(|p| p.name == TRACE) else {
            continue; // scraped before mc.start landed
        };
        observed_rows += 1;
        assert_eq!(
            p.health_chunks, p.chunks_done,
            "torn scrape: chunk moments and health must move together \
             (epoch {})",
            snap.epoch
        );
        #[allow(clippy::float_cmp)] // recomputing the exact same expression
        {
            let expect = if p.weight_sq_sum > 0.0 {
                p.weight_sum * p.weight_sum / p.weight_sq_sum
            } else {
                0.0
            };
            assert_eq!(
                p.ess, expect,
                "ess must be recomputable from the snapshot's own moments"
            );
        }
        assert!(
            p.chunks_done >= last_chunks,
            "chunks_done went backwards: {} -> {}",
            last_chunks,
            p.chunks_done
        );
        last_chunks = p.chunks_done;
        assert!(p.chunks_done <= p.chunks_total);
        assert_eq!(p.chunks_total, 24);
        assert_eq!(p.samples_total, 24 * 4096);
    }
    assert!(observed_rows > 0, "no scrape saw the running estimator");
    // The post-join scrape must see the completed run.
    let end = snapshots
        .last()
        .and_then(|s| s.progress.iter().find(|p| p.name == TRACE))
        .expect("final snapshot has the trace");
    assert_eq!(end.chunks_done, 24);
    assert_eq!(end.health_chunks, 24);

    tm::set_mode(tm::Mode::Off);
}
