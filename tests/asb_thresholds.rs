//! Oracle for the threshold path of the ASB engine: on a die with
//! retention faults only, counting the column thresholds at or below a
//! bias (`ColumnThresholds`) must give the faulty-column count of a BIST
//! run of the same die, and `evaluate_die` must return, bit for bit, what
//! it returned while it ran the BIST on every die. The BIST calibration
//! and die evaluation of that time are kept here verbatim as the oracle.

use std::sync::OnceLock;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::RngCore;

use pvtm::adaptive::{
    AsbConfig, AsbEngine, AsbOutcome, AsbStep, ColumnThresholds, DieEvaluation, StandbyLeakageGrid,
};
use pvtm::interp::linspace;
use pvtm::source_bias::{HoldModelGrid, SourceBiasAnalyzer};
use pvtm_bist::{BistController, Dac, Fault, FaultKind, MarchTest, MemoryModel};
use pvtm_device::Technology;
use pvtm_sram::{AnalysisConfig, ArrayOrganization, CellSizing};

/// fig8–fig10's hold grid (corners ±0.15 V, VSB 0.30–0.74 V in 10
/// points) and a small leakage grid on the same axes.
fn grids() -> &'static (HoldModelGrid, StandbyLeakageGrid) {
    static GRIDS: OnceLock<(HoldModelGrid, StandbyLeakageGrid)> = OnceLock::new();
    GRIDS.get_or_init(|| {
        let tech = Technology::predictive_70nm();
        let sizing = CellSizing::default_for(&tech);
        let analyzer = SourceBiasAnalyzer::new(&tech, sizing, AnalysisConfig::default());
        let (corners, vsbs) = (linspace(-0.15, 0.15, 4), linspace(0.30, 0.74, 10));
        let hold =
            HoldModelGrid::build(&analyzer, corners.clone(), vsbs.clone()).expect("hold grid");
        let leak = StandbyLeakageGrid::build(&tech, sizing, corners, vsbs, 4);
        (hold, leak)
    })
}

/// `AsbEngine::calibrate` as it was while it was the only calibration:
/// one March run per DAC code, and `mem` left at the chosen bias.
fn bist_calibrate(engine: &AsbEngine, mem: &mut MemoryModel) -> AsbOutcome {
    let cfg = engine.config();
    let bist = BistController::new();
    let spares = cfg.org.redundant_cols;
    let mut steps = Vec::new();
    let mut last_good: Option<(u32, f64)> = None;
    for code in 0..cfg.dac.codes() {
        let vsb = cfg.dac.voltage(code);
        mem.set_vsb(vsb);
        let report = bist
            .run(&cfg.march, mem)
            .expect("the march ran on this memory, so failure columns are in range");
        let faulty = report.faulty_columns();
        steps.push(AsbStep {
            code,
            vsb,
            faulty_columns: faulty,
        });
        if faulty <= spares {
            last_good = Some((code, vsb));
        } else {
            break;
        }
    }
    let (limit_code, _) = last_good.unwrap_or((0, 0.0));
    let code = limit_code.saturating_sub(cfg.backoff_codes);
    let vsb = if last_good.is_some() {
        cfg.dac.voltage(code)
    } else {
        0.0
    };
    mem.set_vsb(vsb);
    AsbOutcome {
        code,
        limit_code,
        vsb,
        steps,
    }
}

/// `AsbEngine::evaluate_die` as it was while it ran the BIST on every die.
fn bist_evaluate_die(
    engine: &AsbEngine,
    corner: f64,
    vsb_opt: f64,
    rng: &mut StdRng,
) -> DieEvaluation {
    let mut mem = engine.build_die(corner, rng);
    let outcome = bist_calibrate(engine, &mut mem);
    let drift = engine.sample_drift(rng);
    let faulty_cols_zero = engine.faulty_columns_at(&mut mem, drift);
    let faulty_cols_opt = engine.faulty_columns_at(&mut mem, vsb_opt + drift);
    let faulty_cols_adaptive = engine.faulty_columns_at(&mut mem, outcome.vsb + drift);
    let cells = engine.config().org.cells();
    DieEvaluation {
        corner,
        vsb_adaptive: outcome.vsb,
        faulty_cols_zero,
        faulty_cols_opt,
        faulty_cols_adaptive,
        power_zero: engine.leakage_grid().standby_power(corner, 0.0, cells),
        power_opt: engine.leakage_grid().standby_power(corner, vsb_opt, cells),
        power_adaptive: engine
            .leakage_grid()
            .standby_power(corner, outcome.vsb, cells),
    }
}

/// Every field of a die evaluation, the floats as bit patterns.
fn evaluation_bits(d: &DieEvaluation) -> [u64; 8] {
    [
        d.corner.to_bits(),
        d.vsb_adaptive.to_bits(),
        d.faulty_cols_zero as u64,
        d.faulty_cols_opt as u64,
        d.faulty_cols_adaptive as u64,
        d.power_zero.to_bits(),
        d.power_opt.to_bits(),
        d.power_adaptive.to_bits(),
    ]
}

/// Every field of a calibration outcome and of each of its steps, the
/// floats as bit patterns.
fn outcome_bits(o: &AsbOutcome) -> (u32, u32, u64, Vec<(u32, u64, usize)>) {
    let steps = o
        .steps
        .iter()
        .map(|s| (s.code, s.vsb.to_bits(), s.faulty_columns))
        .collect();
    (o.code, o.limit_code, o.vsb.to_bits(), steps)
}

/// The next four outputs of a generator: equal for equal states.
fn next_outputs(rng: &mut StdRng) -> [u64; 4] {
    std::array::from_fn(|_| rng.next_u64())
}

/// The March tests a configuration may name; each writes a 1 and reads it
/// back, so each catches every exposed retention fault.
fn march(pick: usize) -> MarchTest {
    match pick {
        0 => MarchTest::mats_plus(),
        1 => MarchTest::march_a(),
        2 => MarchTest::march_ss(),
        _ => MarchTest::march_c_minus(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On random dies, shapes and configurations: the BIST's count equals
    /// the thresholds' at every DAC code, at the three use-time biases and
    /// at every column threshold, the BIST calibration, its old loop and
    /// the thresholds' calibration agree step for step, and `evaluate_die`
    /// equals the BIST-run evaluation and leaves the generator in its
    /// state.
    #[test]
    fn thresholds_count_what_the_bist_counts(
        shape in (0usize..6, 1usize..40, 1usize..72),
        die in (-0.25f64..0.25, any::<u64>(), 0.0f64..0.8),
        cfg in (0usize..6, 1u8..7, 0u32..3, (0usize..3, 0.0f64..0.04)),
        dac_and_march in (0usize..3, 0.2f64..0.9, 0usize..4),
    ) {
        let (hold, leak) = grids();
        let (rows, cols) = match shape.0 {
            0 => (1, 1),
            1 => (7, 13),
            2 => (256, 64),
            _ => (shape.1, shape.2),
        };
        let (corner, seed, vsb_opt) = die;
        let (spares, bits, backoff_codes, guard) = cfg;
        // A DAC whose top code is the grid's first or last VSB, where
        // thresholds sit exactly on a DAC voltage, or a free one.
        let vref = match dac_and_march.0 {
            0 => hold.vsbs()[0],
            1 => hold.vsbs()[hold.vsbs().len() - 1],
            _ => dac_and_march.1,
        };
        let engine = AsbEngine::new(
            hold.clone(),
            leak.clone(),
            AsbConfig {
                org: ArrayOrganization::new(rows, cols, spares),
                dac: Dac::new(bits, vref),
                march: march(dac_and_march.2),
                use_guard: if guard.0 == 0 { 0.0 } else { guard.1 },
                backoff_codes,
            },
        );
        let dac = engine.config().dac;
        let start = pvtm_stats::rng::substream(seed, 0);

        let mut rng = start.clone();
        let mut mem = engine.build_die(corner, &mut rng);
        let mut thresholds_rng = start.clone();
        let thresholds = engine.column_thresholds(corner, &mut thresholds_rng);
        let drift = engine.sample_drift(&mut rng);
        prop_assert_eq!(drift.to_bits(), engine.sample_drift(&mut thresholds_rng).to_bits());
        prop_assert_eq!(next_outputs(&mut rng), next_outputs(&mut thresholds_rng));

        // `calibrate` agrees step for step with the loop it ran before the
        // threshold path shared it, and with the thresholds' calibration;
        // both BIST runs leave the die at the bias they chose.
        let mut calibrated = mem.clone();
        let outcome = engine.calibrate(&mut calibrated);
        let mut oracle_calibrated = mem.clone();
        let oracle_outcome = bist_calibrate(&engine, &mut oracle_calibrated);
        prop_assert_eq!(outcome_bits(&outcome), outcome_bits(&oracle_outcome));
        prop_assert_eq!(calibrated.vsb().to_bits(), oracle_calibrated.vsb().to_bits());
        prop_assert_eq!(outcome_bits(&outcome), outcome_bits(&engine.calibrate_thresholds(&thresholds)));
        // Every DAC code, the three use-time biases, and each column's
        // threshold itself, where `≤` and `<` part.
        let codes = (0..dac.codes()).map(|code| dac.voltage(code));
        let use_time = [drift, vsb_opt + drift, outcome.vsb + drift];
        let columns = thresholds.as_slice().iter().copied().filter(|t| t.is_finite());
        for vsb in codes.chain(use_time).chain(columns) {
            let counted = engine.faulty_columns_at(&mut mem, vsb);
            prop_assert!(
                thresholds.faulty_columns_at(vsb) == counted,
                "at {vsb} V: {} thresholds, {counted} BIST columns",
                thresholds.faulty_columns_at(vsb)
            );
        }

        let mut oracle_rng = start.clone();
        let expected = bist_evaluate_die(&engine, corner, vsb_opt, &mut oracle_rng);
        let mut rng = start;
        let evaluated = engine.evaluate_die(corner, vsb_opt, &mut rng);
        prop_assert_eq!(evaluation_bits(&evaluated), evaluation_bits(&expected));
        prop_assert_eq!(next_outputs(&mut rng), next_outputs(&mut oracle_rng));
    }
}

#[test]
fn hand_built_faults_count_as_the_bist_counts_them() {
    let dac = Dac::new(3, 0.7);
    let v = |code| dac.voltage(code);
    // `(row, col, min_vsb)` on a 4 × 5 array.
    let faults = [
        // Column 0: a threshold exactly at the voltage of code 3, exposed
        // from code 3 on.
        (0, 0, v(3)),
        // Column 1: several faults; only the lowest, at code 2, counts.
        (1, 1, v(5) + 0.01),
        (2, 1, v(2)),
        (3, 1, f64::NAN),
        (2, 1, v(6)),
        // Column 2 has no fault. Column 3's only threshold is NaN, which
        // `vsb >= min_vsb` never exposes.
        (0, 3, f64::NAN),
        // Column 4: exposed from zero bias on, beside a NaN.
        (3, 4, f64::NAN),
        (2, 4, 0.0),
        (1, 4, v(7)),
    ];
    let mut mem = MemoryModel::new(4, 5);
    for (row, col, min_vsb) in faults {
        mem.inject(Fault {
            row,
            col,
            kind: FaultKind::Retention { min_vsb },
        });
    }
    let thresholds = ColumnThresholds::new(5, faults.map(|(_, col, min_vsb)| (col, min_vsb)));

    let bist = BistController::new();
    let march = MarchTest::march_c_minus();
    let mut counted = Vec::new();
    let mut from_thresholds = Vec::new();
    for code in 0..dac.codes() {
        mem.set_vsb(v(code));
        let report = bist.run(&march, &mut mem).expect("in-range columns");
        counted.push(report.faulty_columns());
        from_thresholds.push(thresholds.faulty_columns_at(v(code)));
    }
    assert_eq!(counted, [1, 1, 2, 3, 3, 3, 3, 3]);
    assert_eq!(from_thresholds, counted);
}
