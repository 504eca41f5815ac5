//! Output checks: every operation's output against the goldens in
//! `golden/`, within the tolerances of [`TOL`].
//!
//! A golden holds the output of the set-up operation, whose input is the
//! same on every run, and — for the seeded workloads — a reference sample
//! of the population the timed operations draw from. The figures golden
//! holds every figure of [`FIGURES`], so it also checks the figure probe
//! of `trace`. `bless` rewrites the goldens from the current code at
//! [`Sizes::standard`]; a run at other sizes fails its checks.

use std::cmp::Ordering;

use pvtm_telemetry::json::{self, obj, Value};

use crate::spans::Tracer;
use crate::workloads::{Output, Prepared, Sizes, Workload, ASB_SIGMA_INTER, FIGURES, SETUP_SEED};

/// The output tolerances, one per field, each with its reason.
pub struct Tolerances {
    /// Figures, every numeric leaf: relative error. The figures are seeded,
    /// so a rerun is exact; 1e-4 admits a solver change that moves trip
    /// points by their bisection resolution (vdd/2²⁴).
    pub figure_rel: f64,
    /// Figures, every numeric leaf: absolute error, for probabilities that
    /// are ~0 and so have no meaningful relative error.
    pub figure_abs: f64,
    /// Monte Carlo, set-up estimate: relative error. The figures' rule,
    /// because fig2a reports this estimator.
    pub mc_setup_rel: f64,
    /// Monte Carlo, timed estimates: standard errors by which the run's
    /// pooled estimate may miss the reference. Single 128-sample estimates
    /// understate their error by up to 5σ (heavy importance weights); a
    /// run pools ~9k samples, which do not.
    pub mc_sigmas: f64,
    /// ASB, set-up dies: DAC codes by which their mean `VSB(adaptive)` may
    /// move — a solver change may shift a calibration by one code. Their
    /// hold-ok count must match.
    pub asb_setup_lsb: f64,
    /// ASB, timed dies: standard errors by which the run's mean
    /// `VSB(adaptive)` and hold-ok fraction may miss the reference
    /// population (dies are independent draws of one population); the
    /// DAC quantizes each die, so the mean also gets one LSB and the
    /// fraction one die of slack.
    pub asb_sigmas: f64,
}

/// The tolerances the checks apply.
pub const TOL: Tolerances = Tolerances {
    figure_rel: 1e-4,
    figure_abs: 1e-12,
    mc_setup_rel: 1e-4,
    mc_sigmas: 4.0,
    asb_setup_lsb: 1.0,
    asb_sigmas: 4.0,
};

/// Seed of the reference samples (distinct from any run's op seeds).
const REFERENCE_SEED: u64 = 0x0E1D_5EED;
/// Dies of the ASB reference population.
const ASB_REFERENCE_DIES: usize = 64;

fn golden_text(w: Workload) -> &'static str {
    match w {
        Workload::McNominal => include_str!("golden/mc_nominal.json"),
        Workload::McSkewed => include_str!("golden/mc_skewed.json"),
        Workload::AsbPopulation => include_str!("golden/asb_population.json"),
        Workload::FiguresQuick => include_str!("golden/figures_quick.json"),
    }
}

/// Result of checking a run's outputs.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Units of work that failed: whose output was wrong, or which the
    /// library could not resolve.
    pub failed: u64,
    /// What was wrong, one line each; a run is correct when this is empty.
    pub misses: Vec<String>,
}

impl Verdict {
    fn miss(&mut self, units: u64, message: String) {
        self.failed += units;
        self.misses.push(message);
    }
}

fn num(v: &Value, path: &[&str]) -> Option<f64> {
    path.iter()
        .try_fold(v, |v, key| v.get(key))
        .and_then(Value::as_f64)
}

/// Checks the outputs of one run: `outputs` holds `(k, output)` for every
/// distinct operation `k` the run made, 0 being the set-up operation.
pub fn check(w: Workload, sizes: &Sizes, outputs: &[(u64, Output)]) -> Verdict {
    let mut verdict = Verdict::default();
    let units = sizes.units(w);
    let golden = match json::parse(golden_text(w)) {
        Ok(g) => g,
        Err(e) => {
            let all = outputs.len() as u64 * units;
            verdict.miss(all, format!("golden/{}.json: {e}", w.name()));
            return verdict;
        }
    };
    if w != Workload::FiguresQuick && num(&golden, &["units"]) != Some(units as f64) {
        verdict.miss(
            units * outputs.len() as u64,
            format!("goldens were blessed at another size than {units} units"),
        );
        return verdict;
    }
    match w {
        Workload::McNominal | Workload::McSkewed => check_mc(&golden, units, outputs, &mut verdict),
        Workload::AsbPopulation => check_asb(&golden, units, outputs, &mut verdict),
        Workload::FiguresQuick => check_figures(&golden, outputs, &mut verdict),
    }
    verdict
}

fn check_mc(golden: &Value, samples: u64, outputs: &[(u64, Output)], verdict: &mut Verdict) {
    let (mut sum_p, mut sum_var, mut n) = (0.0, 0.0, 0u64);
    for (k, out) in outputs {
        let Output::Mc { p, se, quarantined } = out else {
            verdict.miss(samples, format!("op {k}: {out:?}"));
            continue;
        };
        // A quarantined sample is one the solver could not resolve. The
        // estimator counts it as a failure by design, so it is a failed
        // unit but not a wrong output.
        verdict.failed += quarantined;
        // An importance-sampled estimate is unbiased, not bounded by 1: one
        // heavy-weight sample carried a 128-sample `mc_skewed` estimate to
        // 1.27 ± 1.27. Its standard error grows with it, so the pooled
        // check below still holds such a run to the reference.
        if !(p.is_finite() && se.is_finite() && *p >= 0.0 && *se >= 0.0) {
            verdict.miss(samples, format!("op {k}: estimate {p} ± {se}"));
        } else if *k == 0 {
            let g = num(golden, &["setup", "p"]).unwrap_or(f64::NAN);
            if !close(*p, g, TOL.mc_setup_rel, TOL.figure_abs) {
                verdict.miss(samples, format!("set-up op: p {p:e}, golden {g:e}"));
            }
        } else {
            sum_p += p;
            sum_var += se * se;
            n += 1;
        }
    }
    let (p_ref, se_ref) = (
        num(golden, &["reference", "p"]).unwrap_or(f64::NAN),
        num(golden, &["reference", "se"]).unwrap_or(f64::NAN),
    );
    if n > 0 {
        let p = sum_p / n as f64;
        let se = sum_var.sqrt() / n as f64;
        if exceeds(
            p - p_ref,
            TOL.mc_sigmas * (se * se + se_ref * se_ref).sqrt(),
        ) {
            verdict.miss(
                samples * n,
                format!("pooled p {p:e} ± {se:e} misses reference {p_ref:e} ± {se_ref:e}"),
            );
        }
    }
}

fn check_asb(golden: &Value, dies: u64, outputs: &[(u64, Output)], verdict: &mut Verdict) {
    let lsb = num(golden, &["dac_lsb"]).unwrap_or(f64::NAN);
    let vref = num(golden, &["dac_vref"]).unwrap_or(f64::NAN);
    let (mut vsbs_all, mut hold_ok_all) = (Vec::new(), 0u64);
    for (k, out) in outputs {
        let Output::Asb { vsbs, hold_ok } = out else {
            verdict.miss(dies, format!("op {k}: {out:?}"));
            continue;
        };
        for v in vsbs {
            if !(v.is_finite() && (0.0..=vref).contains(v)) {
                verdict.miss(1, format!("op {k}: VSB(adaptive) {v} outside [0, {vref}]"));
            }
        }
        let mean = vsbs.iter().sum::<f64>() / vsbs.len().max(1) as f64;
        if *k == 0 {
            let g_mean = num(golden, &["setup", "mean_vsb"]).unwrap_or(f64::NAN);
            let g_ok = golden
                .get("setup")
                .and_then(|s| s.get("hold_ok"))
                .and_then(Value::as_u64);
            if exceeds(mean - g_mean, TOL.asb_setup_lsb * lsb) || g_ok != Some(*hold_ok) {
                verdict.miss(
                    dies,
                    format!(
                        "set-up op: mean VSB {mean}, {hold_ok} hold-ok; golden {g_mean}, {g_ok:?}"
                    ),
                );
            }
        } else {
            vsbs_all.extend_from_slice(vsbs);
            hold_ok_all += hold_ok;
        }
    }
    if vsbs_all.is_empty() {
        return;
    }
    let ref_mean = num(golden, &["reference", "mean_vsb"]).unwrap_or(f64::NAN);
    let ref_sd = num(golden, &["reference", "sd_vsb"]).unwrap_or(f64::NAN);
    let ref_ok = num(golden, &["reference", "hold_ok_frac"]).unwrap_or(f64::NAN);
    let ref_n = num(golden, &["reference", "dies"]).unwrap_or(f64::NAN);
    let n = vsbs_all.len() as f64;
    let mean = vsbs_all.iter().sum::<f64>() / n;
    let spread = (1.0 / n + 1.0 / ref_n).sqrt();
    if exceeds(
        mean - ref_mean,
        TOL.asb_sigmas * ref_sd * spread + TOL.asb_setup_lsb * lsb,
    ) {
        verdict.miss(
            vsbs_all.len() as u64,
            format!("mean VSB(adaptive) {mean} misses reference {ref_mean} (sd {ref_sd})"),
        );
    }
    // A reference with no failing die still admits the rate of one.
    let q = ref_ok.clamp(1.0 / ref_n, 1.0 - 1.0 / ref_n);
    let frac = hold_ok_all as f64 / n;
    if exceeds(
        frac - ref_ok,
        TOL.asb_sigmas * (q * (1.0 - q)).sqrt() * spread + 1.0 / n,
    ) {
        verdict.miss(
            vsbs_all.len() as u64,
            format!("hold-ok fraction {frac} misses reference {ref_ok}"),
        );
    }
}

fn check_figures(golden: &Value, outputs: &[(u64, Output)], verdict: &mut Verdict) {
    for (k, out) in outputs {
        let Output::Figures(figures) = out else {
            verdict.miss(1, format!("op {k}: {out:?}"));
            continue;
        };
        for (id, result) in figures {
            let expected = golden.get("figures").and_then(|f| f.get(id));
            let problem = match (result, expected) {
                (Err(e), _) => Some(format!("errored: {e}")),
                (Ok(_), None) => Some("has no golden".to_string()),
                (Ok(text), Some(expected)) => match json::parse(text) {
                    Err(e) => Some(format!("unparsable result: {e}")),
                    Ok(actual) => {
                        let mut diffs = Vec::new();
                        compare_json(id, &actual, expected, &mut diffs);
                        diffs
                            .first()
                            .map(|d| format!("{d} ({} leaves differ)", diffs.len()))
                    }
                },
            };
            if let Some(problem) = problem {
                verdict.miss(1, format!("op {k}: {id} {problem}"));
            }
        }
    }
}

fn close(actual: f64, expected: f64, rel: f64, abs: f64) -> bool {
    !exceeds(actual - expected, (rel * expected.abs()).max(abs))
}

/// Whether `|diff|` exceeds `limit`; a NaN (from a missing golden field)
/// counts as exceeding.
fn exceeds(diff: f64, limit: f64) -> bool {
    !matches!(
        diff.abs().partial_cmp(&limit),
        Some(Ordering::Less | Ordering::Equal)
    )
}

/// Compares two JSON trees leaf by leaf under the figure tolerances,
/// appending one line per differing leaf.
pub fn compare_json(path: &str, actual: &Value, expected: &Value, diffs: &mut Vec<String>) {
    match (actual, expected) {
        (Value::Num(a), Value::Num(e)) => {
            if !close(*a, *e, TOL.figure_rel, TOL.figure_abs) {
                diffs.push(format!("{path}: {a:e} vs golden {e:e}"));
            }
        }
        (Value::Arr(a), Value::Arr(e)) if a.len() == e.len() => {
            for (i, (a, e)) in a.iter().zip(e).enumerate() {
                compare_json(&format!("{path}[{i}]"), a, e, diffs);
            }
        }
        (Value::Obj(a), Value::Obj(e))
            if a.len() == e.len() && a.iter().zip(e).all(|((ka, _), (ke, _))| ka == ke) =>
        {
            for ((key, a), (_, e)) in a.iter().zip(e) {
                compare_json(&format!("{path}.{key}"), a, e, diffs);
            }
        }
        (a, e) if a == e => {}
        _ => diffs.push(format!("{path}: structure differs from the golden")),
    }
}

/// Rewrites `<workload>.json` under `dir` from the current code.
///
/// # Errors
///
/// Returns a message when a workload cannot be set up or a file cannot be
/// written.
pub fn bless(dir: &std::path::Path) -> Result<(), String> {
    // The figures golden covers every figure, the round's and the probe's.
    let sizes = Sizes {
        figures: FIGURES,
        ..Sizes::standard()
    };
    let mut tracer = Tracer::new(false);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for w in Workload::ALL {
        eprintln!("blessing {} ...", w.name());
        let prepared = Prepared::new(w, &sizes, &mut tracer)?;
        let setup = prepared.op(SETUP_SEED, 0, &mut tracer);
        let mut members = vec![("workload", Value::Str(w.name().into()))];
        match (&prepared, setup) {
            (
                Prepared::Mc {
                    analyzer,
                    cond,
                    corner,
                    ..
                },
                Output::Mc { p, se, .. },
            ) => {
                // 128 operations' worth of samples.
                let n = sizes.units(w) * 128;
                let est = analyzer
                    .failure_prob_mc_quarantined(*corner, cond, n, REFERENCE_SEED)
                    .map_err(|e| e.to_string())?;
                members.push(("units", Value::Num(sizes.units(w) as f64)));
                members.push((
                    "setup",
                    obj(vec![("p", Value::Num(p)), ("se", Value::Num(se))]),
                ));
                members.push((
                    "reference",
                    obj(vec![
                        ("samples", Value::Num(n as f64)),
                        ("p", Value::Num(est.fail_bound.value)),
                        ("se", Value::Num(est.fail_bound.std_err)),
                    ]),
                ));
            }
            (
                Prepared::Asb {
                    engine, vsb_opt, ..
                },
                Output::Asb { vsbs, hold_ok },
            ) => {
                let pop = engine.run_population(
                    ASB_REFERENCE_DIES,
                    ASB_SIGMA_INTER,
                    *vsb_opt,
                    REFERENCE_SEED,
                );
                let ref_vsbs: Vec<f64> = pop.iter().map(|d| d.vsb_adaptive).collect();
                let spares = engine.config().org.redundant_cols;
                let ok = pop.iter().filter(|d| d.hold_ok(spares).2).count();
                let summary = pvtm_stats::Summary::from_slice(&ref_vsbs);
                let mean = vsbs.iter().sum::<f64>() / vsbs.len().max(1) as f64;
                members.push(("units", Value::Num(sizes.units(w) as f64)));
                members.push(("dac_lsb", Value::Num(engine.config().dac.lsb())));
                members.push(("dac_vref", Value::Num(engine.config().dac.vref())));
                members.push((
                    "setup",
                    obj(vec![
                        ("mean_vsb", Value::Num(mean)),
                        ("hold_ok", Value::Num(hold_ok as f64)),
                    ]),
                ));
                members.push((
                    "reference",
                    obj(vec![
                        ("dies", Value::Num(ASB_REFERENCE_DIES as f64)),
                        ("mean_vsb", Value::Num(summary.mean())),
                        ("sd_vsb", Value::Num(summary.std_dev())),
                        ("hold_ok_frac", Value::Num(ok as f64 / pop.len() as f64)),
                    ]),
                ));
            }
            (Prepared::Figures(_), Output::Figures(figures)) => {
                let mut parsed = Vec::new();
                for (id, result) in figures {
                    let text = result.map_err(|e| format!("{id}: {e}"))?;
                    let value = json::parse(&text).map_err(|e| format!("{id}: {e}"))?;
                    parsed.push((id.to_string(), value));
                }
                members.push(("figures", Value::Obj(parsed)));
            }
            (_, out) => return Err(format!("{}: set-up operation gave {out:?}", w.name())),
        }
        let path = dir.join(format!("{}.json", w.name()));
        std::fs::write(&path, obj(members).to_json_pretty() + "\n")
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}
