//! End-to-end integration of the self-adaptive source-bias scheme:
//! hold models → retention-fault injection → BIST March calibration →
//! standby power, asserting the paper's §IV claims across the stack.

use pvtm::adaptive::{AsbConfig, AsbEngine, StandbyLeakageGrid};
use pvtm::interp::linspace;
use pvtm::source_bias::{HoldModelGrid, SourceBiasAnalyzer};
use pvtm_bist::{Dac, MarchTest};
use pvtm_device::Technology;
use pvtm_sram::{AnalysisConfig, ArrayOrganization, CellSizing};

fn engine() -> (AsbEngine, SourceBiasAnalyzer) {
    let tech = Technology::predictive_70nm();
    let sizing = CellSizing::default_for(&tech);
    let analyzer = SourceBiasAnalyzer::new(&tech, sizing, AnalysisConfig::default());
    let corners = linspace(-0.12, 0.12, 4);
    let vsbs = linspace(0.30, 0.74, 8);
    let hold = HoldModelGrid::build(&analyzer, corners.clone(), vsbs.clone()).expect("grid");
    let leak = StandbyLeakageGrid::build(&tech, sizing, corners, vsbs, 120);
    let cfg = AsbConfig {
        org: ArrayOrganization::new(64, 64, 3),
        dac: Dac::new(5, 0.74),
        march: MarchTest::march_c_minus(),
        use_guard: 0.01,
        backoff_codes: 1,
    };
    (AsbEngine::new(hold, leak, cfg), analyzer)
}

#[test]
fn calibration_never_exceeds_the_redundancy_budget() {
    let (engine, _) = engine();
    let spares = engine.config().org.redundant_cols;
    for (i, corner) in [-0.10, -0.05, 0.0, 0.05, 0.10].iter().enumerate() {
        let mut rng = pvtm_stats::rng::substream(100, i as u64);
        let mut die = engine.build_die(*corner, &mut rng);
        let outcome = engine.calibrate(&mut die);
        assert!(
            engine.faulty_columns_at(&mut die, outcome.vsb) <= spares,
            "corner {corner}: budget violated at VSB(adaptive) = {}",
            outcome.vsb
        );
    }
}

#[test]
fn adaptive_bias_tracks_the_analytic_ceiling_shape() {
    // The BIST-chosen VSB across corners must reproduce the fig-6 shape:
    // highest near nominal, lower at both tails.
    let (engine, _) = engine();
    let median_vsb = |corner: f64| -> f64 {
        let mut v: Vec<f64> = (0..5)
            .map(|k| {
                let mut rng = pvtm_stats::rng::substream(200, (corner * 1e3) as i64 as u64 ^ k);
                let mut die = engine.build_die(corner, &mut rng);
                engine.calibrate(&mut die).vsb
            })
            .collect();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v[2]
    };
    let low = median_vsb(-0.12);
    let nom = median_vsb(0.0);
    let high = median_vsb(0.12);
    assert!(
        nom >= low && nom >= high,
        "adaptive ceiling shape violated: {low:.3} / {nom:.3} / {high:.3}"
    );
    assert!(high < nom, "high-Vt corner must force a lower bias");
}

#[test]
fn standby_power_ordering_zero_vs_adaptive() {
    let (engine, analyzer) = engine();
    let p_target = pvtm::experiments::cell_target_for_memory(&engine.config().org, 1e-3);
    let vsb_opt = analyzer.max_vsb(0.0, p_target).expect("vsb_opt");
    let pop = engine.run_population(12, 0.06, vsb_opt, 77);
    for die in &pop {
        assert!(die.power_adaptive <= die.power_zero * 1.0001);
        assert!(die.power_opt <= die.power_zero * 1.0001);
        assert!(die.power_zero > 0.0);
    }
    // Aggregate saving must be substantial (the point of the scheme).
    let total_zero: f64 = pop.iter().map(|d| d.power_zero).sum();
    let total_adp: f64 = pop.iter().map(|d| d.power_adaptive).sum();
    assert!(
        total_adp < 0.7 * total_zero,
        "adaptive bias must cut standby power: {total_adp:.3e} vs {total_zero:.3e}"
    );
}

#[test]
fn adaptive_hold_survival_beats_fixed_opt() {
    let (engine, analyzer) = engine();
    let p_target = pvtm::experiments::cell_target_for_memory(&engine.config().org, 1e-3);
    let vsb_opt = analyzer.max_vsb(0.0, p_target).expect("vsb_opt");
    let spares = engine.config().org.redundant_cols;
    let pop = engine.run_population(16, 0.08, vsb_opt, 99);
    let fail = |f: &dyn Fn(&pvtm::adaptive::DieEvaluation) -> usize| -> usize {
        pop.iter().filter(|d| f(d) > spares).count()
    };
    let fail_opt = fail(&|d| d.faulty_cols_opt);
    let fail_adp = fail(&|d| d.faulty_cols_adaptive);
    assert!(
        fail_adp <= fail_opt,
        "adaptive {fail_adp} hold-failing dies vs opt {fail_opt}"
    );
}

#[test]
fn retention_faults_only_fire_above_their_threshold() {
    // Cross-crate consistency: the fault thresholds injected from the hold
    // models must behave monotonically inside the BIST memory.
    let (engine, _) = engine();
    let mut rng = pvtm_stats::rng::substream(300, 0);
    let mut die = engine.build_die(-0.08, &mut rng);
    let f_low = engine.faulty_columns_at(&mut die, 0.30);
    let f_mid = engine.faulty_columns_at(&mut die, 0.55);
    let f_high = engine.faulty_columns_at(&mut die, 0.74);
    assert!(
        f_low <= f_mid && f_mid <= f_high,
        "{f_low} / {f_mid} / {f_high}"
    );
    assert!(
        f_high > 0,
        "a low-Vt die must have retention faults at deep bias"
    );
}

/// `VSB(adaptive)` and the faulty columns at zero / `VSB(opt)` /
/// `VSB(adaptive)` of each die of `run_population(12, 0.06, VSB(opt), 77)`
/// on this file's engine, recorded before the die build drew its normals
/// in blocks and screened out cells that hold at every grid VSB.
const RECORDED_BIAS_AND_COLUMNS: [(f64, [usize; 3]); 12] = [
    (0.5729032258064516, [0, 60, 0]),
    (0.5729032258064516, [0, 32, 0]),
    (0.6445161290322581, [0, 20, 2]),
    (0.596774193548387, [0, 15, 0]),
    (0.5729032258064516, [0, 64, 0]),
    (0.6445161290322581, [0, 1, 0]),
    (0.5729032258064516, [0, 64, 0]),
    (0.6445161290322581, [0, 3, 0]),
    (0.5729032258064516, [0, 64, 0]),
    (0.5729032258064516, [0, 34, 2]),
    (0.5729032258064516, [0, 56, 0]),
    (0.6445161290322581, [0, 2, 0]),
];

/// Standby power \[W\] of the same dies at zero / `VSB(opt)` /
/// `VSB(adaptive)`, recorded with them.
const RECORDED_POWERS: [[f64; 3]; 12] = [
    [
        0.00043901884948102806,
        0.0001288586431335026,
        0.00018524782558583668,
    ],
    [
        0.00013431981028895785,
        5.189390360844196e-5,
        7.307456694990191e-5,
    ],
    [
        7.530374058727943e-5,
        3.658507278467161e-5,
        3.430526481995545e-5,
    ],
    [
        0.0001237762360245177,
        4.905544192780392e-5,
        6.008040544362107e-5,
    ],
    [
        0.00034088645380681004,
        0.0001056999086959056,
        0.0001526016335381698,
    ],
    [
        9.363065223210683e-5,
        4.048343557884349e-5,
        3.8754136332830166e-5,
    ],
    [
        0.00043180443211561113,
        0.00012719747863495514,
        0.00018291061281845543,
    ],
    [
        0.00010997799832795296,
        4.522374118012557e-5,
        4.576796593302836e-5,
    ],
    [
        0.0007519993318205905,
        0.00019640142203077122,
        0.00027980746939039274,
    ],
    [
        5.0871784742381904e-5,
        3.2993637863146594e-5,
        3.905908357875667e-5,
    ],
    [
        0.00026351752319122874,
        8.640260356027441e-5,
        0.00012528202381668462,
    ],
    [
        0.00010162796993550539,
        4.2832171407749694e-5,
        4.2180634909616045e-5,
    ],
];

#[test]
fn population_matches_the_recorded_outputs() {
    // Bias choices and fault counts must not move at all; the powers come
    // from log-interpolated leakage and may differ in the last bits
    // between libm implementations.
    let (engine, analyzer) = engine();
    let p_target = pvtm::experiments::cell_target_for_memory(&engine.config().org, 1e-3);
    let vsb_opt = analyzer.max_vsb(0.0, p_target).expect("vsb_opt");
    let pop = engine.run_population(12, 0.06, vsb_opt, 77);
    assert_eq!(pop.len(), RECORDED_BIAS_AND_COLUMNS.len());
    for (i, die) in pop.iter().enumerate() {
        let (vsb, columns) = RECORDED_BIAS_AND_COLUMNS[i];
        assert_eq!(die.vsb_adaptive, vsb, "die {i}: VSB(adaptive)");
        assert_eq!(
            [
                die.faulty_cols_zero,
                die.faulty_cols_opt,
                die.faulty_cols_adaptive
            ],
            columns,
            "die {i}: faulty columns at zero / opt / adaptive"
        );
        let powers = [die.power_zero, die.power_opt, die.power_adaptive];
        for (got, want) in powers.into_iter().zip(RECORDED_POWERS[i]) {
            assert!(
                (got - want).abs() <= 1e-12 * want,
                "die {i}: standby powers {powers:?} vs {:?}",
                RECORDED_POWERS[i]
            );
        }
    }
}
