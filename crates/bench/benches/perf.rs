//! Criterion performance benchmarks of the workspace substrates.
//!
//! These characterize the building blocks whose speed determines how long
//! the figure reproduction takes: the DC solver, the cell metric
//! evaluations, the linearized failure analysis, the March-test engine and
//! the statistical kernels.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use pvtm::adaptive::{AsbConfig, AsbEngine, StandbyLeakageGrid};
use pvtm::experiments::Effort;
use pvtm::interp::linspace;
use pvtm::source_bias::{HoldModelGrid, SourceBiasAnalyzer};
use pvtm_bist::{BistController, Dac, MarchTest, MemoryModel};
use pvtm_device::{Bias, Mosfet, Technology};
use pvtm_sram::{
    AnalysisConfig, ArrayOrganization, CellSizing, Conditions, FailureAnalyzer, SramCell,
};
use pvtm_stats::{GaussHermite, ImportanceSampler};

fn bench_device(c: &mut Criterion) {
    let tech = Technology::predictive_70nm();
    let n = Mosfet::nmos(&tech, 200e-9, tech.lmin());
    c.bench_function("device/ids_eval", |b| {
        b.iter(|| {
            let bias = Bias::new(
                black_box(0.7),
                black_box(0.9),
                black_box(0.0),
                black_box(-0.2),
            );
            black_box(n.ids(bias, 300.0))
        })
    });
    c.bench_function("device/off_leakage_decomposition", |b| {
        b.iter(|| black_box(n.off_leakage(black_box(1.0), black_box(-0.3), 300.0)))
    });
}

fn bench_circuit(c: &mut Criterion) {
    let tech = Technology::predictive_70nm();
    let analysis = pvtm_sram::CellAnalysis::new(&tech, AnalysisConfig::default());
    let cell = SramCell::nominal(&tech);
    let cond = Conditions::active(&tech);
    c.bench_function("circuit/read_divider_dc_solve", |b| {
        b.iter(|| black_box(analysis.v_read(&cell, &cond).expect("solve")))
    });
    c.bench_function("circuit/full_cell_hold_state", |b| {
        b.iter(|| black_box(analysis.hold_state(&cell, &cond).expect("solve")))
    });
    c.bench_function("circuit/trip_point_bisection", |b| {
        b.iter(|| black_box(analysis.v_trip_rd(&cell, &cond).expect("solve")))
    });
}

fn bench_failure_analysis(c: &mut Criterion) {
    let tech = Technology::predictive_70nm();
    let fa = FailureAnalyzer::new(
        &tech,
        CellSizing::default_for(&tech),
        AnalysisConfig::default(),
    );
    let cond = Conditions::standby(&tech, 0.5);
    c.bench_function("failure/margins_single_cell", |b| {
        b.iter(|| {
            black_box(
                fa.margins_at(&[0.1, -0.1, 0.2, -0.2, 0.1, -0.1], 0.0, &cond)
                    .expect("margins"),
            )
        })
    });
    let mut group = c.benchmark_group("failure");
    group.sample_size(10);
    group.bench_function("linearize_full_corner", |b| {
        b.iter(|| black_box(fa.linearize(black_box(0.0), &cond).expect("linearize")))
    });
    group.bench_function("linearize_hold_only", |b| {
        b.iter(|| black_box(fa.linearize_hold(black_box(0.0), &cond).expect("hold")))
    });
    group.finish();
}

/// The Monte-Carlo per-sample hot path, before and after the compiled
/// templates: per-sample netlist construction vs patched warm-started
/// templates on a persistent evaluator.
fn bench_mc_hot_path(c: &mut Criterion) {
    let tech = Technology::predictive_70nm();
    let analysis = pvtm_sram::CellAnalysis::new(&tech, AnalysisConfig::default());
    let base = SramCell::nominal(&tech);
    let fa = FailureAnalyzer::new(
        &tech,
        CellSizing::default_for(&tech),
        AnalysisConfig::default(),
    );
    let cond = Conditions::standby(&tech, 0.3);
    // Distinct samples rotated per iteration, so the warm path has to track
    // a moving solution like a real Monte-Carlo stream.
    let samples: [[f64; 6]; 4] = [
        [0.1, -0.1, 0.2, -0.2, 0.1, -0.1],
        [-0.3, 0.2, -0.1, 0.4, -0.2, 0.3],
        [0.5, 0.1, -0.4, 0.0, 0.3, -0.2],
        [-0.1, -0.3, 0.1, 0.2, -0.4, 0.0],
    ];

    let sigmas: [f64; 6] = std::array::from_fn(|k| base.sigma_vt(pvtm_sram::Xtor::ALL[k]));
    let mut group = c.benchmark_group("mc_hot_path");
    let mut i = 0usize;
    group.bench_function("margins_reference_netlists", |b| {
        b.iter(|| {
            i = (i + 1) % samples.len();
            let dvt: [f64; 6] = std::array::from_fn(|k| sigmas[k] * samples[i][k]);
            let mut cell = base.clone();
            cell.set_deviations(black_box(dvt));
            black_box(analysis.margins(&cell, &cond).expect("margins"))
        })
    });
    let mut cold = fa.evaluator();
    cold.set_warm_start(false);
    let mut i = 0usize;
    group.bench_function("margins_compiled_cold", |b| {
        b.iter(|| {
            i = (i + 1) % samples.len();
            black_box(
                fa.margins_at_with(&mut cold, black_box(&samples[i]), 0.0, &cond)
                    .expect("margins"),
            )
        })
    });
    let mut warm = fa.evaluator();
    let mut i = 0usize;
    group.bench_function("margins_compiled_warm", |b| {
        b.iter(|| {
            i = (i + 1) % samples.len();
            black_box(
                fa.margins_at_with(&mut warm, black_box(&samples[i]), 0.0, &cond)
                    .expect("margins"),
            )
        })
    });
    group.finish();
}

fn bench_bist(c: &mut Criterion) {
    c.bench_function("bist/march_c_minus_16kcells", |b| {
        b.iter_batched(
            || MemoryModel::new(256, 64),
            |mut mem| {
                let report = BistController::new()
                    .run(&MarchTest::march_c_minus(), &mut mem)
                    .expect("march columns in range");
                black_box(report.faulty_columns())
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_asb(c: &mut Criterion) {
    // The engine fig8 builds at quick effort: hold models over 5 corners ×
    // 10 source biases, a 2 KB array with 5 % spare columns. A die build
    // uses only the hold grid and the array shape.
    let tech = Technology::predictive_70nm();
    let sizing = CellSizing::default_for(&tech);
    let analyzer = SourceBiasAnalyzer::new(&tech, sizing, AnalysisConfig::default());
    let corners = linspace(-0.15, 0.15, Effort::quick().corners.clamp(4, 9));
    let vsbs = linspace(0.30, 0.74, 10);
    let hold = HoldModelGrid::build(&analyzer, corners.clone(), vsbs.clone()).expect("hold grid");
    let leak = StandbyLeakageGrid::build(&tech, sizing, corners, vsbs, 200);
    let cfg = AsbConfig {
        org: ArrayOrganization::with_capacity_kib(2, 0.05),
        dac: Dac::new(5, 0.74),
        march: MarchTest::march_c_minus(),
        use_guard: 0.012,
        backoff_codes: 1,
    };
    let engine = AsbEngine::new(hold, leak, cfg);
    let mut die = 0;
    c.bench_function("asb/build_die_2kb", |b| {
        b.iter(|| {
            die += 1;
            let mut rng = pvtm_stats::rng::substream(1, die);
            black_box(engine.build_die(0.0, &mut rng).fault_count())
        })
    });
}

fn bench_stats(c: &mut Criterion) {
    c.bench_function("stats/norm_ppf", |b| {
        b.iter(|| black_box(pvtm_stats::special::norm_ppf(black_box(1e-6))))
    });
    c.bench_function("stats/gauss_hermite_48pt_expectation", |b| {
        let gh = GaussHermite::new(48);
        b.iter(|| black_box(gh.expect_gaussian(0.0, 1.0, |x| (x * 0.3).tanh())))
    });
    c.bench_function("stats/importance_sampling_10k", |b| {
        let is = ImportanceSampler::new(vec![3.0, 1.0, 0.5]);
        b.iter(|| black_box(is.probability(10_000, 7, |z| z[0] + 0.3 * z[1] > 3.0)))
    });
}

criterion_group!(
    benches,
    bench_device,
    bench_circuit,
    bench_failure_analysis,
    bench_mc_hot_path,
    bench_bist,
    bench_asb,
    bench_stats
);
criterion_main!(benches);
