//! Per-layer metrics of a traced run.
//!
//! The traced pass reruns the workload's first operations with telemetry
//! in `Summary` mode and reads the solver counters per unit of work. The
//! leaf probes then time the public entry point of each layer, on inputs
//! drawn from the run seed: `Mosfet::ids` (device), `FailureAnalyzer` and
//! `CellEvaluator` (sram, circuit), `ImportanceSampler` (stats),
//! `BistController` (bist), `AsbEngine` (core) and the figure functions.
//! The probes run the same on every workload except for the corner, so
//! the layer metrics exist everywhere; the solver counters of the traced
//! pass are what differ (zero on `asb_population`, whose operations never
//! solve a circuit).

use std::collections::BTreeMap;

use pvtm::adaptive::AsbEngine;
use pvtm_bist::{BistController, MemoryModel};
use pvtm_device::Bias;
use pvtm_sram::{Conditions, FailureAnalyzer, SramCell, Xtor};
use pvtm_stats::montecarlo::{seeded_rng, standard_normal_vec};
use pvtm_stats::ImportanceSampler;
use pvtm_telemetry::Mode;

use crate::golden;
use crate::quantiles::{median, percentile};
use crate::spans::Tracer;
use crate::workloads::{
    baseline, build_engine, op_seed, FigureFn, Output, Prepared, Sizes, Workload, ASB_SIGMA_INTER,
    MC_VSB,
};

/// Op index whose seed drives the probes (no run reaches it).
const PROBE_OP: u64 = u64::MAX;
/// Bias points of the device sweep (a 100 × 100 grid of V_GS × V_DS).
const IDS_GRID: usize = 100;
/// Repetitions of the short probes; their median is reported.
const REPS: usize = 5;

/// Metric values by name.
pub type Metrics = BTreeMap<String, f64>;

/// Runs the traced pass and every probe, returning the per-layer metrics.
/// `untraced_s` holds the unscaled times of the run's timed operations;
/// the traced pass's outputs are checked into `verdict`.
///
/// # Errors
///
/// Returns a message when a probe cannot set up its inputs.
pub fn layer_metrics(
    w: Workload,
    seed: u64,
    sizes: &Sizes,
    prepared: &Prepared,
    untraced_s: &[f64],
    tracer: &mut Tracer,
    verdict: &mut golden::Verdict,
) -> Result<Metrics, String> {
    let mut m = Metrics::new();
    let k_max = w.traced_ops();
    pvtm_telemetry::set_mode(Mode::Summary);
    pvtm_telemetry::reset();
    let mut outputs = Vec::new();
    tracer.span("traced_pass", |t| {
        for k in 1..=k_max {
            outputs.push((k, t.span("op", |t| prepared.op(seed, k, t)).0));
        }
    });
    let solver = pvtm_telemetry::snapshot().solver;
    pvtm_telemetry::set_mode(Mode::Off);
    let checked = golden::check(w, sizes, &outputs);
    verdict.failed += checked.failed;
    verdict.misses.extend(checked.misses);
    let units = (k_max * sizes.units(w)) as f64;
    let per_unit = |n: u64| n as f64 / units;
    m.insert("circuit.solves_per_unit".into(), per_unit(solver.solves));
    m.insert(
        "circuit.newton_per_solve".into(),
        solver.newton_iterations as f64 / solver.solves.max(1) as f64,
    );
    m.insert("circuit.warm_hit_rate".into(), solver.warm_hit_rate);
    m.insert("circuit.cold_per_unit".into(), per_unit(solver.cold_solves));
    m.insert(
        "circuit.damped_per_unit".into(),
        per_unit(solver.damped_retries),
    );
    m.insert(
        "circuit.ramps_per_unit".into(),
        per_unit(solver.source_ramps),
    );
    m.insert("circuit.gmin_per_unit".into(), per_unit(solver.gmin_steps));
    m.insert(
        "circuit.rescues_per_unit".into(),
        per_unit(solver.rescue_attempts),
    );
    m.insert(
        "circuit.rescue_hits_per_unit".into(),
        per_unit(solver.rescue_hits),
    );

    let mut probe_rng = seeded_rng(op_seed(seed, PROBE_OP));
    tracer.span("device", |t| device_probe(t, &mut m));
    let sram = tracer
        .span("sram", |t| {
            sram_probe(t, w.corner(), sizes.probe_margins, &mut probe_rng, &mut m)
        })
        .0?;
    tracer.span("stats", |t| stats_probe(t, w, sizes, seed, &mut m));
    let mc_off_s = tracer
        .span("telemetry", |t| telemetry_probe(t, sizes, seed, &mut m))
        .0?;
    // Reconcile the Monte-Carlo operation with its leaf costs: samples ×
    // median margin cost + one linearization (ops fit in one estimator
    // chunk, so one thread does all of it). Other workloads reconcile the
    // telemetry probe's mc_nominal operation at the nominal corner.
    let (samples, wall) = match w {
        Workload::McNominal | Workload::McSkewed => (sizes.units(w), median(untraced_s)),
        _ => (sizes.mc_nominal_samples, mc_off_s),
    };
    let explained = samples as f64 * sram.margins_p50_s + sram.linearize_s;
    m.insert("stats.mc_explained_frac".into(), explained / wall);
    eprintln!(
        "{} stats.mc_explained_frac: {:.3} ms of {:.3} ms explained, residual {:.3} ms",
        w.name(),
        explained * 1e3,
        wall * 1e3,
        (wall - explained) * 1e3
    );
    tracer
        .span("core", |t| asb_probe(t, seed, sizes.probe_dies, &mut m))
        .0?;
    let figures = tracer
        .span("figures", |t| figures_probe(t, sizes.probe_figures, &mut m))
        .0;
    let checked = golden::check(Workload::FiguresQuick, sizes, &[(PROBE_OP, figures)]);
    verdict.failed += checked.failed;
    verdict.misses.extend(checked.misses);
    Ok(m)
}

fn device_probe(tracer: &mut Tracer, m: &mut Metrics) {
    let (tech, sizing, _) = baseline();
    let device = SramCell::with_sizing(&tech, sizing).device(Xtor::Nl);
    let step = tech.vdd() / (IDS_GRID - 1) as f64;
    let mut per_call = Vec::new();
    for _ in 0..REPS {
        let (sum, secs) = tracer.span("device.ids_sweep", |_| {
            let mut sum = 0.0;
            for i in 0..IDS_GRID {
                for j in 0..IDS_GRID {
                    let bias = Bias::new(i as f64 * step, j as f64 * step, 0.0, 0.0);
                    sum += device.ids(std::hint::black_box(bias), tech.temp_k());
                }
            }
            sum
        });
        std::hint::black_box(sum);
        per_call.push(secs / (IDS_GRID * IDS_GRID) as f64);
    }
    m.insert("device.ids_ns".into(), median(&per_call) * 1e9);
}

/// The sram-probe costs the Monte-Carlo reconciliation needs.
struct SramCosts {
    margins_p50_s: f64,
    linearize_s: f64,
}

fn sram_probe(
    tracer: &mut Tracer,
    corner: f64,
    samples: usize,
    rng: &mut rand::rngs::StdRng,
    m: &mut Metrics,
) -> Result<SramCosts, String> {
    let (tech, sizing, config) = baseline();
    let analyzer = FailureAnalyzer::new(&tech, sizing, config);
    let cond = Conditions::standby(&tech, MC_VSB);
    let zs: Vec<[f64; 6]> = (0..samples)
        .map(|_| {
            let z = standard_normal_vec(rng, 6);
            std::array::from_fn(|i| z[i])
        })
        .collect();
    let mut ev = analyzer.evaluator();
    let mut margins = Vec::with_capacity(zs.len());
    for z in &zs {
        let (_, secs) = tracer.span("sram.margins", |_| {
            analyzer.margins_at_with(&mut ev, z, corner, &cond)
        });
        margins.push(secs);
    }
    let newton = ev.stats().newton_iterations;
    m.insert(
        "circuit.us_per_newton".into(),
        margins.iter().sum::<f64>() / newton.max(1) as f64 * 1e6,
    );
    let margins_p50_s = median(&margins);
    m.insert("sram.margins_us_p50".into(), margins_p50_s * 1e6);
    m.insert(
        "sram.margins_us_p99".into(),
        percentile(&margins, 0.99) * 1e6,
    );

    let base = *analyzer.base().deviations();
    let mut hold = Vec::with_capacity(zs.len());
    for z in &zs {
        let dvt = std::array::from_fn(|i| {
            let inter = if Xtor::ALL[i].is_nmos() { corner } else { 0.0 };
            base[i] + inter + analyzer.sigmas()[i] * z[i]
        });
        ev.set_deviations(dvt);
        hold.push(
            tracer
                .span("sram.hold_metrics", |_| ev.hold_metrics(&cond))
                .1,
        );
    }
    m.insert("sram.hold_metrics_us_p50".into(), median(&hold) * 1e6);

    let mut lin = Vec::new();
    let mut lin_hold = Vec::new();
    for _ in 0..REPS {
        let (model, secs) = tracer.span("sram.linearize", |_| {
            analyzer.linearize_with(&mut ev, corner, &cond)
        });
        model.map_err(|e| format!("linearize: {e}"))?;
        lin.push(secs);
        let (model, secs) = tracer.span("sram.linearize_hold", |_| {
            analyzer.linearize_hold_with(&mut ev, corner, &cond)
        });
        model.map_err(|e| format!("linearize_hold: {e}"))?;
        lin_hold.push(secs);
    }
    let linearize_s = median(&lin);
    m.insert("sram.linearize_ms".into(), linearize_s * 1e3);
    m.insert("sram.linearize_hold_ms".into(), median(&lin_hold) * 1e3);
    Ok(SramCosts {
        margins_p50_s,
        linearize_s,
    })
}

fn stats_probe(tracer: &mut Tracer, w: Workload, sizes: &Sizes, seed: u64, m: &mut Metrics) {
    // A trivial event, so only the sampler's own cost is left.
    let sampler = ImportanceSampler::new(vec![0.5; 6]);
    let n = match w {
        Workload::McNominal | Workload::McSkewed => sizes.units(w),
        _ => sizes.mc_nominal_samples,
    };
    let mut per_sample = Vec::new();
    for r in 0..20 * REPS as u64 {
        let (est, secs) = tracer.span("stats.importance_sampler", |_| {
            sampler.probability(n, op_seed(seed, r), |z| z[0] > 3.0)
        });
        std::hint::black_box(est);
        per_sample.push(secs / n as f64);
    }
    m.insert(
        "stats.sampler_ns_per_sample".into(),
        median(&per_sample) * 1e9,
    );
}

/// Reruns one `mc_nominal` operation under each telemetry mode, in turn,
/// [`REPS`] times; returns the median time with telemetry off \[s\].
fn telemetry_probe(
    tracer: &mut Tracer,
    sizes: &Sizes,
    seed: u64,
    m: &mut Metrics,
) -> Result<f64, String> {
    let prepared = Prepared::new(Workload::McNominal, sizes, tracer)?;
    let modes = [Mode::Off, Mode::Summary, Mode::Full];
    let mut times = [Vec::new(), Vec::new(), Vec::new()];
    for _ in 0..REPS {
        for (mode, times) in modes.iter().zip(times.iter_mut()) {
            pvtm_telemetry::set_mode(*mode);
            pvtm_telemetry::reset();
            let name = format!("telemetry.mc_{}", mode.as_str());
            times.push(tracer.span(&name, |t| prepared.op(seed, 1, t)).1);
        }
    }
    pvtm_telemetry::set_mode(Mode::Off);
    pvtm_telemetry::reset();
    let off = median(&times[0]);
    m.insert(
        "telemetry.summary_overhead_frac".into(),
        median(&times[1]) / off - 1.0,
    );
    m.insert(
        "telemetry.full_overhead_frac".into(),
        median(&times[2]) / off - 1.0,
    );
    Ok(off)
}

fn asb_probe(tracer: &mut Tracer, seed: u64, dies: u64, m: &mut Metrics) -> Result<(), String> {
    let built = tracer
        .span("core.build_engine", build_engine)
        .0
        .map_err(|e| format!("ASB engine: {e}"))?;
    m.insert("core.hold_grid_s".into(), built.hold_grid_s);
    m.insert("core.leak_grid_s".into(), built.leak_grid_s);
    m.insert("core.vsb_opt_ms".into(), built.vsb_opt_s * 1e3);
    let (engine, vsb_opt) = (&built.engine, built.vsb_opt);

    let cfg = engine.config();
    let bist = BistController::new();
    let mut clean = MemoryModel::new(cfg.org.rows, cfg.org.cols);
    let mut clean_s = Vec::new();
    for _ in 0..REPS {
        let (report, secs) = tracer.span("bist.march_clean", |_| bist.run(&cfg.march, &mut clean));
        report.map_err(|e| format!("clean march: {e}"))?;
        clean_s.push(secs);
    }
    m.insert("bist.march_ms_clean".into(), median(&clean_s) * 1e3);

    let (mut build, mut calibrate, mut die, mut march) = (vec![], vec![], vec![], vec![]);
    let (mut faults, mut ops) = (0usize, 0u64);
    let probe_seed = op_seed(seed, PROBE_OP);
    for i in 0..dies {
        // As `AsbEngine::run_population` draws die `i`: its corner, then
        // its cells, from one substream.
        let draw = || {
            let mut rng = pvtm_stats::rng::substream(probe_seed, i);
            let corner = ASB_SIGMA_INTER * standard_normal_vec(&mut rng, 1)[0];
            (rng, corner)
        };
        let (mut rng, corner) = draw();
        let (mut mem, secs) = tracer.span("core.build_die", |_| engine.build_die(corner, &mut rng));
        build.push(secs);
        faults += mem.fault_count();
        for (secs, operations) in calibration_marches(engine, &mut mem, tracer)? {
            march.push(secs);
            ops += operations;
        }
        calibrate.push(
            tracer
                .span("core.calibrate", |_| engine.calibrate(&mut mem))
                .1,
        );
        let (mut rng, corner) = draw();
        die.push(
            tracer
                .span("core.evaluate_die", |_| {
                    engine.evaluate_die(corner, vsb_opt, &mut rng)
                })
                .1,
        );
    }
    let dies = dies as f64;
    m.insert("bist.march_ms_p50".into(), median(&march) * 1e3);
    m.insert("bist.march_ms_p90".into(), percentile(&march, 0.9) * 1e3);
    m.insert("bist.marches_per_die".into(), march.len() as f64 / dies);
    m.insert("bist.faults_per_die".into(), faults as f64 / dies);
    m.insert(
        "bist.mops_per_s".into(),
        ops as f64 / march.iter().sum::<f64>() / 1e6,
    );
    m.insert("core.build_die_ms_p50".into(), median(&build) * 1e3);
    m.insert("core.calibrate_ms_p50".into(), median(&calibrate) * 1e3);
    m.insert(
        "core.calibrate_ms_p75".into(),
        percentile(&calibrate, 0.75) * 1e3,
    );
    m.insert("core.die_ms_p50".into(), median(&die) * 1e3);
    m.insert("core.die_ms_p75".into(), percentile(&die, 0.75) * 1e3);
    Ok(())
}

/// The loop of `AsbEngine::calibrate`, one March test per DAC code until
/// the faulty columns exceed the spares, with each test timed: the time
/// and the memory operations of every March test.
fn calibration_marches(
    engine: &AsbEngine,
    mem: &mut MemoryModel,
    tracer: &mut Tracer,
) -> Result<Vec<(f64, u64)>, String> {
    let cfg = engine.config();
    let bist = BistController::new();
    let mut marches = Vec::new();
    for code in 0..cfg.dac.codes() {
        mem.set_vsb(cfg.dac.voltage(code));
        let (report, secs) = tracer.span("bist.march", |_| bist.run(&cfg.march, mem));
        let report = report.map_err(|e| format!("march: {e}"))?;
        marches.push((secs, report.march_result().operations));
        if report.faulty_columns() > cfg.org.redundant_cols {
            break;
        }
    }
    Ok(marches)
}

/// Times each of `figures` once in `Summary` and returns their results
/// for the output checks.
fn figures_probe(
    tracer: &mut Tracer,
    figures: &'static [(&'static str, FigureFn)],
    m: &mut Metrics,
) -> Output {
    pvtm_telemetry::set_mode(Mode::Summary);
    let mut results = Vec::new();
    for &(id, f) in figures {
        pvtm_telemetry::reset();
        let (result, secs) = tracer.span(&format!("fig.{id}"), |_| {
            f(pvtm::experiments::Effort::quick())
        });
        let solver = pvtm_telemetry::snapshot().solver;
        m.insert(format!("fig.{id}.s"), secs);
        m.insert(format!("fig.{id}.solves"), solver.solves as f64);
        m.insert(format!("fig.{id}.newton"), solver.newton_iterations as f64);
        results.push((id, result));
    }
    pvtm_telemetry::set_mode(Mode::Off);
    pvtm_telemetry::reset();
    Output::Figures(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvtm_telemetry::json::{self, Value};

    /// `build_engine` and `calibration_marches` copy library code that is
    /// not public; these checks fail when the library's versions move.
    #[test]
    fn the_asb_copies_match_the_library() {
        let mut t = Tracer::new(false);
        let built = build_engine(&mut t).unwrap();

        // fig8 reports the design-time VSB(opt) of the library's engine.
        let golden = json::parse(include_str!("golden/figures_quick.json")).unwrap();
        let fig8_vsb_opt = ["figures", "fig8", "vsb_opt"]
            .iter()
            .try_fold(&golden, |v, key| v.get(key))
            .and_then(Value::as_f64)
            .unwrap();
        assert!((built.vsb_opt - fig8_vsb_opt).abs() <= 1e-9 * fig8_vsb_opt);

        // On the same die the probe loop runs one March test per step of
        // `AsbEngine::calibrate`.
        for (i, corner) in [-0.06, 0.06].into_iter().enumerate() {
            let mut rng = pvtm_stats::rng::substream(7, i as u64);
            let mut mem = built.engine.build_die(corner, &mut rng);
            let steps = built.engine.calibrate(&mut mem.clone()).steps.len();
            let marches = calibration_marches(&built.engine, &mut mem, &mut t).unwrap();
            assert_eq!(marches.len(), steps, "corner {corner}");
        }
    }
}
