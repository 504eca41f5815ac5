//! Cross-validation between independent estimation paths: the fast
//! analytic/linearized models against brute-force simulation of the same
//! quantities.

use pvtm_device::Technology;
use pvtm_sram::{
    AnalysisConfig, ArrayOrganization, CellEvaluator, CellLeakageModel, CellSizing, Conditions,
    FailureAnalyzer, SramCell,
};
use pvtm_stats::special::norm_cdf;
use pvtm_stats::Summary;
use rand::Rng;

fn tech() -> Technology {
    Technology::predictive_70nm()
}

#[test]
fn linearized_failure_probability_matches_importance_sampled_mc() {
    // A corner with a failure probability large enough to resolve.
    let t = tech();
    let fa = FailureAnalyzer::new(&t, CellSizing::default_for(&t), AnalysisConfig::default());
    let cond = Conditions::standby(&t, 0.5);
    let corner = -0.12;
    let lin = fa.failure_probs(corner, &cond).unwrap().overall();
    let mc = fa.failure_prob_mc(corner, &cond, 1500, 11).unwrap();
    // Within a factor of three (linearization + union-bound error), with
    // MC statistical slack.
    let lo = lin / 3.0 - 3.0 * mc.std_err;
    let hi = lin * 3.0 + 3.0 * mc.std_err;
    assert!(
        mc.value >= lo && mc.value <= hi,
        "MC {:.3e} ± {:.1e} vs linearized {lin:.3e}",
        mc.value,
        mc.std_err
    );
}

#[test]
fn access_time_estimate_matches_transient_simulation() {
    let t = tech();
    let cond = Conditions::active(&t);
    for shift in [-0.05, 0.0, 0.05] {
        let cell = SramCell::nominal(&t).with_inter_die_shift(shift);
        let mut ev = CellEvaluator::new(AnalysisConfig::default(), &cell);
        let est = ev.access_time(&cond).unwrap();
        let tran = ev.access_time_transient(&cond).unwrap();
        let ratio = tran / est;
        assert!(
            (0.4..2.5).contains(&ratio),
            "shift {shift}: estimate {est:.3e} vs transient {tran:.3e}"
        );
    }
}

#[test]
fn array_leakage_follows_the_clt_prediction() {
    // Paper Eq. (2): mean scales with N, sigma with sqrt(N); and the sum
    // is Gaussian by the KS test.
    let t = tech();
    let model = CellLeakageModel::new(&t, CellSizing::default_for(&t));
    let cond = Conditions::active(&t);
    let mut rng = pvtm_stats::rng::substream(55, 0);
    let corner = model.at_corner(0.0, &cond);
    let cell_stats = corner.population_stats(6000, &mut rng);

    let n = 1024usize;
    let mut cells = vec![0.0; n];
    let arrays: Vec<f64> = (0..250)
        .map(|_| {
            corner.fill(&mut cells, &mut rng);
            cells.iter().sum::<f64>()
        })
        .collect();
    let s = Summary::from_slice(&arrays);
    let mean_pred = n as f64 * cell_stats.mean;
    let sd_pred = (n as f64).sqrt() * cell_stats.std_dev;
    assert!(
        (s.mean() / mean_pred - 1.0).abs() < 0.15,
        "mean {:.3e} vs predicted {mean_pred:.3e}",
        s.mean()
    );
    assert!(
        (s.std_dev() / sd_pred - 1.0).abs() < 0.35,
        "sd {:.3e} vs predicted {sd_pred:.3e}",
        s.std_dev()
    );
    let ks = pvtm_stats::ks::ks_test(&arrays, |x| norm_cdf((x - s.mean()) / s.std_dev()));
    assert!(
        ks.accepts(0.001),
        "array sums not Gaussian: p = {}",
        ks.p_value
    );
}

#[test]
fn binomial_redundancy_model_matches_direct_simulation() {
    // The analytic memory-failure probability against brute-force
    // sampling of faulty columns.
    let org = ArrayOrganization::new(64, 128, 4);
    let p_cell = 4e-4;
    let analytic = org.memory_failure_prob(p_cell);

    let mut rng = pvtm_stats::rng::substream(66, 0);
    let trials = 4000;
    let mut memory_failures = 0u32;
    for _ in 0..trials {
        let mut faulty_cols = 0;
        for _ in 0..org.cols {
            let mut col_faulty = false;
            for _ in 0..org.rows {
                if rng.gen::<f64>() < p_cell {
                    col_faulty = true;
                    break;
                }
            }
            if col_faulty {
                faulty_cols += 1;
            }
        }
        if faulty_cols > org.redundant_cols {
            memory_failures += 1;
        }
    }
    let empirical = memory_failures as f64 / trials as f64;
    let se = (analytic * (1.0 - analytic) / trials as f64).sqrt();
    assert!(
        (empirical - analytic).abs() < 4.0 * se + 0.01,
        "empirical {empirical:.4} vs analytic {analytic:.4}"
    );
}

#[test]
fn hold_model_probability_matches_direct_cell_sampling() {
    // The mixed exponential-linear hold estimator against Monte Carlo on
    // the same linear models (consistency of the quadrature).
    let t = tech();
    let fa = FailureAnalyzer::new(&t, CellSizing::default_for(&t), AnalysisConfig::default());
    let cond = Conditions::standby(&t, 0.70);
    let model = fa.linearize_hold(0.0, &cond).unwrap();
    let analytic = model.failure_prob();
    assert!(analytic > 1e-7, "pick a corner with observable failures");

    let mut rng = pvtm_stats::rng::substream(77, 0);
    let samples = 300_000;
    let mut fails = 0u64;
    for _ in 0..samples {
        let z: [f64; 6] = std::array::from_fn(|_| {
            use rand_distr::Distribution;
            rand_distr::StandardNormal.sample(&mut rng)
        });
        if model.fails_at(&z) {
            fails += 1;
        }
    }
    let empirical = fails as f64 / samples as f64;
    let se = (analytic * (1.0 - analytic) / samples as f64)
        .sqrt()
        .max(1e-9);
    assert!(
        (empirical - analytic).abs() < 5.0 * se + 0.1 * analytic,
        "empirical {empirical:.3e} vs analytic {analytic:.3e}"
    );
}
