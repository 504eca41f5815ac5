//! Convergence traces and estimator health recorded by the Monte-Carlo
//! estimators under `pvtm_telemetry`.
//!
//! Telemetry mode and the registry are process-global, so these tests run
//! in a binary of their own, serialized: an estimator in any test running
//! alongside would record into the same histograms and traces.

use std::sync::{Mutex, MutexGuard};

use pvtm_stats::ImportanceSampler;

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn trace_scope_records_convergence_without_changing_estimate() {
    let _g = lock();
    pvtm_telemetry::set_mode(pvtm_telemetry::Mode::Summary);
    pvtm_telemetry::reset();
    let is = ImportanceSampler::new(vec![3.0]);
    let plain = is.probability(20_000, 9, |z| z[0] > 3.0);
    pvtm_telemetry::reset();
    let traced = {
        let _t = pvtm_telemetry::trace_scope("test.mc");
        is.probability(20_000, 9, |z| z[0] > 3.0)
    };
    // Recording must not perturb the estimate.
    assert_eq!(plain.value, traced.value);
    assert_eq!(plain.std_err, traced.std_err);

    let r = pvtm_telemetry::snapshot();
    let t = r.trace("test.mc").expect("trace missing");
    assert_eq!(t.points.len(), 20_000usize.div_ceil(4096));
    for w in t.points.windows(2) {
        assert!(w[1].samples > w[0].samples, "samples must accumulate");
    }
    let last = t.points.last().unwrap();
    assert_eq!(last.samples, traced.samples);
    // The running merge replays the same Chan updates the estimator
    // itself performs, so the final trace point *is* the estimate.
    assert_eq!(last.value, traced.value);
    assert!((last.std_err - traced.std_err).abs() <= 1e-9 * traced.std_err);
    assert!((last.rel_err - traced.rel_err()).abs() <= 1e-9 * traced.rel_err());

    // Importance-sampling weights feed the health histogram.
    let h = r
        .histograms
        .iter()
        .find(|h| h.name == "mc.is_weight")
        .expect("weight histogram missing");
    assert!(h.count > 0);

    // And the per-chunk weight moments feed the estimator-health
    // diagnostics: ESS over contributing weights, bounded fractions.
    let health = t.health.expect("trace health missing");
    assert!(health.has_weights);
    assert_eq!(health.contributing, h.count);
    assert!(health.ess > 0.0 && health.ess <= health.contributing as f64);
    assert!(health.ess_fraction > 0.0 && health.ess_fraction <= 1.0);
    assert!(health.max_weight_fraction > 0.0 && health.max_weight_fraction <= 1.0);
    assert_eq!(health.steps, t.points.len() as u64 - 1);

    pvtm_telemetry::set_mode(pvtm_telemetry::Mode::Off);
    pvtm_telemetry::reset();
}

/// The journal of an importance-sampled run, read back, folds to the
/// sidecar's numbers: each trace's progress is the last trace point of
/// `snapshot()` and its weight health, bit for bit.
#[test]
fn journal_progress_reads_back_the_sidecar_bits() {
    let _g = lock();
    pvtm_telemetry::set_mode(pvtm_telemetry::Mode::Summary);
    pvtm_telemetry::events::set_enabled(true);
    pvtm_telemetry::reset();
    for (name, shift, seed) in [("test.mc_a", 3.0, 11), ("test.mc_b", 2.5, 12)] {
        let _t = pvtm_telemetry::trace_scope(name);
        let is = ImportanceSampler::new(vec![shift]);
        is.probability(6 * 4096 + 100, seed, |z| z[0] > 3.0);
    }
    let r = pvtm_telemetry::snapshot();
    let text = pvtm_telemetry::events::render("journal_fold", &[]);
    let journal = pvtm_telemetry::events::Journal::parse(&text).expect("journal parses");
    let progress = journal.progress();
    assert_eq!(progress.len(), r.traces.len());
    assert_eq!(progress.len(), 2);
    for (p, t) in progress.iter().zip(&r.traces) {
        assert_eq!(p.name, t.name);
        let last = t.points.last().expect("trace has points");
        assert_eq!(p.samples_done, last.samples);
        assert_eq!(p.samples_total, last.samples);
        assert_eq!(p.chunks_done, t.points.len() as u64);
        assert_eq!(p.chunks_total, t.points.len() as u64);
        assert_eq!(p.value.to_bits(), last.value.to_bits());
        assert_eq!(p.std_err.to_bits(), last.std_err.to_bits());
        let health = t.health.expect("trace health");
        assert_eq!(p.contributing, health.contributing);
        assert_eq!(p.ess.to_bits(), health.ess.to_bits());
    }

    pvtm_telemetry::set_mode(pvtm_telemetry::Mode::Off);
    pvtm_telemetry::reset();
}
