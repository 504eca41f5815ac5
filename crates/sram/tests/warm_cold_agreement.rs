//! Warm-started vs cold DC solves on randomized 6T cells, plus a bit-exact
//! oracle for the cold numbers.
//!
//! Contract under test (see `pvtm_sram::evaluator`):
//!
//! - with warm starts **disabled**, every metric at a fixed set of cells
//!   reproduces recorded `f64` bit patterns;
//! - with warm starts **enabled**, every voltage-domain margin agrees with
//!   the cold one to solver tolerance, and the log-domain hold margin to a
//!   few percent (the droop is exponentially small, so the same voltage
//!   tolerance is amplified in log units);
//! - warm starting actually hits: adjacent Monte-Carlo-style samples reuse
//!   the previous solution far more often than not.

use proptest::prelude::*;

use pvtm_device::Technology;
use pvtm_sram::analysis::AnalysisConfig;
use pvtm_sram::evaluator::CellEvaluator;
use pvtm_sram::{CellSizing, Conditions, FailureAnalyzer, SramCell};

fn setup() -> (Technology, CellEvaluator) {
    let tech = Technology::predictive_70nm();
    let ev = CellEvaluator::new(AnalysisConfig::default(), &SramCell::nominal(&tech));
    (tech, ev)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Warm and cold solves agree on randomized cells within tolerance.
    #[test]
    fn warm_and_cold_margins_agree(
        d0 in -0.05f64..0.05,
        d1 in -0.05f64..0.05,
        d2 in -0.05f64..0.05,
        d3 in -0.05f64..0.05,
        d4 in -0.05f64..0.05,
        d5 in -0.05f64..0.05,
        vsb in 0.0f64..0.45,
    ) {
        let (tech, mut cold) = setup();
        let cond = Conditions::standby(&tech, vsb);
        let dvt = [d0, d1, d2, d3, d4, d5];

        cold.set_warm_start(false);
        cold.set_deviations(dvt);
        let reference = cold.margins(&cond).unwrap();

        let (_, mut warm) = setup();
        warm.set_deviations(dvt);
        // Solve twice so the second pass runs fully warm.
        warm.margins(&cond).unwrap();
        let warm_m = warm.margins(&cond).unwrap();
        let tol = [1e-5, 1e-5, 1e-5, 0.05];
        for ((w, r), t) in warm_m
            .as_array()
            .iter()
            .zip(reference.as_array())
            .zip(tol)
        {
            prop_assert!(
                (w - r).abs() < t,
                "warm {} vs cold {} (tol {}, dvt {:?}, vsb {})",
                w, r, t, dvt, vsb
            );
        }
    }
}

/// One fixed cell of the oracle: deviations (canonical `Xtor` order),
/// standby source bias, NMOS body bias, and the bits of
/// `[read, write, access, hold, droop, allowed]` under
/// `standby(vsb).with_body_bias(bb)` followed by
/// `[static write margin, access time, write time]` under
/// `active().with_body_bias(bb)`.
type OracleCell = ([f64; 6], f64, f64, [u64; 9]);

/// Recorded from the netlist path (`CellAnalysis`, one fresh netlist per
/// DC solve) before it was deleted; the cold evaluator has matched it bit
/// for bit since templates were introduced.
const ORACLE: [OracleCell; 9] = [
    // Nominal, in active mode.
    (
        [0.0; 6],
        0.0,
        0.0,
        [
            0x3fd207df1e086db4,
            0x3ff080ec4ca4ece0,
            0x3fe1130306f3a21d,
            0x4020a5ac3ea49b10,
            0x3f24038fb3c33000,
            0x3fe4216f30000000,
            0x3fd58b093c6c5b48,
            0x3dcccb22c1095689,
            0x3d93c127b56da5de,
        ],
    ),
    // Nominal at VSB 0.3.
    (
        [0.0; 6],
        0.3,
        0.0,
        [
            0x3fd207df1e086db4,
            0x3ff080ec4ca4ece0,
            0x3fe1130306f3a21d,
            0x4021ec9efe03819e,
            0x3f0b05c530c64000,
            0x3fd9bc8860000000,
            0x3fd58b093c6c5b48,
            0x3dcccb22c1095689,
            0x3d93c127b56da5de,
        ],
    ),
    // The three fig2a corners (NMOS shift −0.08, 0, +0.08 V) at VSB 0.3.
    (
        [-0.08, -0.08, 0.0, 0.0, -0.08, -0.08],
        0.3,
        0.0,
        [
            0x3fcfaeac12c24bc3,
            0x3ff331e4023c32ea,
            0x3fe6efca62054d12,
            0x401bdff787ed81b7,
            0x3f3bec0c6ec1e000,
            0x3fdcfb4de0000000,
            0x3fd4ff28db980582,
            0x3dc7f937609a3db1,
            0x3d90b235903d5911,
        ],
    ),
    (
        [0.0; 6],
        0.3,
        0.0,
        [
            0x3fd207df1e086db4,
            0x3ff080ec4ca4ece0,
            0x3fe1130306f3a21d,
            0x4021ec9efe03819e,
            0x3f0b05c530c64000,
            0x3fd9bc8860000000,
            0x3fd58b093c6c5b48,
            0x3dcccb22c1095689,
            0x3d93c127b56da5de,
        ],
    ),
    (
        [0.08, 0.08, 0.0, 0.0, 0.08, 0.08],
        0.3,
        0.0,
        [
            0x3fd47446edf1c886,
            0x3feaa6c4a560da9e,
            0x3fd53c7817ca19a2,
            0x402602ec878017cf,
            0x3ed891ebff8c0000,
            0x3fd6936d60000000,
            0x3fd61cbe12435a02,
            0x3dd19d7859e5793f,
            0x3d98184accf551f4,
        ],
    ),
    // Retention trip clamped to vdd: allowed droop floors at 1 nV and the
    // hold margin is −20.03.
    (
        [0.0, 0.45, 0.0, -0.35, 0.0, 0.0],
        0.5,
        0.0,
        [
            0x3fb8c2706158bbcc,
            0x4005c88730c50747,
            0xbfd3966fbb916230,
            0xc03407b4dc15863d,
            0x3fdfffe01c3aee5e,
            0x3e112e0be826d695,
            0x3fe87fe2be362da4,
            0x3de0aaf9958a6bbc,
            0x3d6d1e6b053de650,
        ],
    ),
    // Static write failure: infinite write time, write margin −10.
    (
        [0.0, -0.4, 0.0, 0.4, 0.0, 0.0],
        0.5,
        0.0,
        [
            0x3fd4dbcdcb7ae09d,
            0xc024000000000000,
            0x3fe631d6cf9003df,
            0x4023c928c8ee29d0,
            0x3f01a22d5d9dc000,
            0x3fe54c6090000000,
            0xbfb03a420e4e92e0,
            0x3dc8892f6f9d8111,
            0x7ff0000000000000,
        ],
    ),
    // A mixed cell at deep source bias.
    (
        [0.03, -0.05, 0.06, -0.02, 0.04, -0.03],
        0.6,
        0.0,
        [
            0x3fd1355b22a77f86,
            0x3feccebdd73e4be0,
            0x3fe3b1ff4aaa6f2e,
            0x40225b25b06c306f,
            0x3ef7f69d36d08000,
            0x3fcc5264c0000000,
            0x3fd4ff856f08625e,
            0x3dca87731585209b,
            0x3d96865e3cc84ac2,
        ],
    ),
    // A mixed cell under reverse body bias.
    (
        [-0.04, 0.02, 0.05, -0.03, 0.03, 0.01],
        0.4,
        -0.4,
        [
            0x3fd06a02697eca06,
            0x3febf3b8b0c63473,
            0x3fd74d171748ce92,
            0x4021edc9f91c19c2,
            0x3f02ad4c20860000,
            0x3fd1d423e0000000,
            0x3fd8069b40237f0e,
            0x3dd10e4becfc060a,
            0x3d97229dc5d2da27,
        ],
    ),
];

/// One cold evaluator walks every oracle cell in order and reproduces
/// every recorded bit.
#[test]
fn cold_evaluator_reproduces_the_oracle_bit_for_bit() {
    let (tech, mut ev) = setup();
    ev.set_warm_start(false);
    for (dvt, vsb, bb, bits) in ORACLE {
        ev.set_deviations(dvt);
        let cond = Conditions::standby(&tech, vsb).with_body_bias(bb);
        let active = Conditions::active(&tech).with_body_bias(bb);
        let m = ev.margins(&cond).unwrap();
        let h = ev.hold_metrics(&cond).unwrap();
        let got = [
            m.read,
            m.write,
            m.access,
            m.hold,
            h.droop,
            h.allowed,
            ev.static_write_margin(&active).unwrap(),
            ev.access_time(&active).unwrap(),
            ev.write_time(&active).unwrap(),
        ];
        for (k, (g, b)) in got.iter().zip(bits).enumerate() {
            assert_eq!(
                g.to_bits(),
                b,
                "cell {dvt:?} at VSB {vsb}, body bias {bb}: value {k} is {g:e}, recorded {:e}",
                f64::from_bits(b)
            );
        }
    }
    assert_eq!(ev.stats().warm_attempts, 0);
}

/// The nominal cell's butterfly SNM in hold and read mode and its
/// transient access time, recorded with the oracle.
#[test]
fn snm_and_transient_reproduce_the_oracle_bit_for_bit() {
    let (tech, mut ev) = setup();
    ev.set_warm_start(false);
    let active = Conditions::active(&tech);
    for (what, got, bits) in [
        (
            "hold SNM",
            ev.butterfly_snm(&active, false),
            0x3fd3c07a879582a2,
        ),
        (
            "read SNM",
            ev.butterfly_snm(&active, true),
            0x3fba7a37d8374ccc,
        ),
        (
            "transient access time",
            ev.access_time_transient(&active),
            0x3dcd2605cbe25be4,
        ),
    ] {
        let got = got.unwrap();
        assert_eq!(got.to_bits(), bits, "{what} {got:e}");
    }
}

/// The timing thresholds `calibrate_timing` derives at the default 70 nm
/// sizing with a 4.7σ guard band, recorded with the oracle.
#[test]
fn calibrated_timing_reproduces_the_oracle_bit_for_bit() {
    let tech = Technology::predictive_70nm();
    let fa = FailureAnalyzer::calibrate_timing(
        &tech,
        CellSizing::default_for(&tech),
        AnalysisConfig::default(),
        4.7,
    )
    .unwrap();
    assert_eq!(fa.config().t_max.to_bits(), 0x3dd88b458f1eea00);
    assert_eq!(fa.config().t_wl_max.to_bits(), 0x3dabb0641bb06733);
}

/// The warm-start hit rate over a Monte-Carlo-style loop of adjacent
/// samples must clear 90 % — the premise of the whole optimization.
#[test]
fn warm_hit_rate_over_mc_loop() {
    let (tech, mut ev) = setup();
    let cond = Conditions::standby(&tech, 0.3);
    // Deterministic cheap LCG for sample-to-sample jitter.
    let mut state = 0x2545f4914f6cdd1du64;
    let mut unit = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    for _ in 0..20 {
        let dvt = std::array::from_fn(|_| (unit() - 0.5) * 0.06);
        ev.set_deviations(dvt);
        ev.margins(&cond).unwrap();
    }
    let stats = ev.stats();
    eprintln!(
        "warm-start stats over MC loop: {stats:?} (hit rate {:.3})",
        stats.warm_hit_rate()
    );
    assert!(stats.warm_attempts > 100, "warm path unused: {stats:?}");
    assert!(
        stats.warm_hit_rate() >= 0.9,
        "hit rate {:.3} below target ({} hits / {} attempts)",
        stats.warm_hit_rate(),
        stats.warm_hits,
        stats.warm_attempts
    );
}

/// The importance-sampled MC estimator (now running on per-chunk warm
/// evaluators) still agrees with the linearized estimate at a stressed
/// corner — the cross-check that guards the whole refactor end to end.
#[test]
fn failure_prob_mc_cross_checks_linearized() {
    let tech = Technology::predictive_70nm();
    let fa = FailureAnalyzer::new(
        &tech,
        CellSizing::default_for(&tech),
        AnalysisConfig::default(),
    );
    let cond = Conditions::active(&tech);
    let lin = fa.failure_probs(-0.12, &cond).unwrap().overall();
    let mc = fa.failure_prob_mc(-0.12, &cond, 2000, 7).unwrap();
    assert!(
        mc.value < lin * 4.0 + 4.0 * mc.std_err && lin < mc.value * 4.0 + 4.0 * mc.std_err,
        "linearized {lin:.3e} vs MC {:.3e} ± {:.1e}",
        mc.value,
        mc.std_err
    );
}
