//! Oracle for the ASB die build: `AsbEngine::build_die` and
//! `CornerHoldProfile::min_vsb` must reproduce, bit for bit, the plain
//! per-cell loop they replace — six `StandardNormal::sample` draws per
//! cell in row-major order, then a scan of the cell's hold slack along
//! the VSB grid — and leave the generator in the same state.

use std::sync::OnceLock;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::RngCore;
use rand_distr::{Distribution, StandardNormal};

use pvtm::adaptive::{AsbConfig, AsbEngine, StandbyLeakageGrid};
use pvtm::interp::linspace;
use pvtm::source_bias::{HoldModelGrid, SourceBiasAnalyzer};
use pvtm_bist::{Dac, MarchTest, MemoryModel};
use pvtm_device::Technology;
use pvtm_sram::failure::HoldFailureModel;
use pvtm_sram::{AnalysisConfig, ArrayOrganization, CellSizing};

/// VSB-grid lengths: the shortest grid, the end-to-end test's 8,
/// fig8–fig10's 10 and a longer one.
const VSB_POINTS: [usize; 4] = [2, 8, 10, 13];

/// Die corners \[V\], two of them outside the grid's corner axis.
const CORNERS: [f64; 5] = [-0.2, -0.12, 0.0, 0.07, 0.2];

/// Array shapes (rows × columns); 7 × 13 = 91 cells is not a multiple of
/// any block size a die build might use.
const SHAPES: [(usize, usize); 4] = [(1, 1), (7, 13), (64, 64), (256, 64)];

/// One hold grid per length of [`VSB_POINTS`], over corners ±0.15 V.
fn grids() -> &'static [HoldModelGrid] {
    static GRIDS: OnceLock<Vec<HoldModelGrid>> = OnceLock::new();
    GRIDS.get_or_init(|| {
        let tech = Technology::predictive_70nm();
        let sizing = CellSizing::default_for(&tech);
        let analyzer = SourceBiasAnalyzer::new(&tech, sizing, AnalysisConfig::default());
        VSB_POINTS
            .iter()
            .map(|&n| {
                HoldModelGrid::build(&analyzer, linspace(-0.15, 0.15, 4), linspace(0.30, 0.74, n))
                    .expect("hold grid")
            })
            .collect()
    })
}

/// An engine around `hold` for a `rows × cols` array. Only the hold grid
/// and the array shape matter to `build_die`.
fn engine(hold: &HoldModelGrid, rows: usize, cols: usize) -> AsbEngine {
    let tech = Technology::predictive_70nm();
    let sizing = CellSizing::default_for(&tech);
    let leak = StandbyLeakageGrid::build(
        &tech,
        sizing,
        hold.corners().to_vec(),
        hold.vsbs().to_vec(),
        4,
    );
    let cfg = AsbConfig {
        org: ArrayOrganization::new(rows, cols, 0),
        dac: Dac::new(5, 0.74),
        march: MarchTest::march_c_minus(),
        use_guard: 0.01,
        backoff_codes: 1,
    };
    AsbEngine::new(hold.clone(), leak, cfg)
}

/// The lowest grid VSB at which the cell `z` loses retention: the first
/// sign change of its hold slack along the grid, linearly interpolated.
fn reference_min_vsb(models: &[HoldFailureModel], vsbs: &[f64], z: &[f64; 6]) -> Option<f64> {
    let mut prev_slack = models[0].slack_at(z);
    if prev_slack <= 0.0 {
        return Some(vsbs[0]);
    }
    for vi in 1..vsbs.len() {
        let slack = models[vi].slack_at(z);
        if slack <= 0.0 {
            let frac = prev_slack / (prev_slack - slack);
            return Some(vsbs[vi - 1] + frac * (vsbs[vi] - vsbs[vi - 1]));
        }
        prev_slack = slack;
    }
    None
}

/// The die build as one loop over cells: the retention faults as
/// `(row, col, min_vsb bits)`, in row-major order.
fn reference_faults(
    grid: &HoldModelGrid,
    rows: usize,
    cols: usize,
    corner: f64,
    rng: &mut StdRng,
) -> Vec<(usize, usize, u64)> {
    let models = grid.models_at_corner(corner);
    let mut faults = Vec::new();
    for row in 0..rows {
        for col in 0..cols {
            let z: [f64; 6] = std::array::from_fn(|_| StandardNormal.sample(rng));
            if let Some(min_vsb) = reference_min_vsb(&models, grid.vsbs(), &z) {
                faults.push((row, col, min_vsb.to_bits()));
            }
        }
    }
    faults
}

/// The retention faults of a die as `(row, col, min_vsb bits)`, read from
/// its `Debug` form (the crate exposes no fault iterator). `f64`'s `Debug`
/// prints the shortest string that parses back to the same bits.
fn die_faults(mem: &MemoryModel) -> Vec<(usize, usize, u64)> {
    let text = format!("{mem:?}");
    let faults = text
        .split_once("faults: {")
        .and_then(|(_, rest)| rest.split_once("}, coupling"))
        .expect("MemoryModel's Debug form lists its faults")
        .0;
    let parsed: Vec<(usize, usize, u64)> = faults
        .split("}]")
        .filter(|entry| !entry.trim().is_empty())
        .map(|entry| {
            let entry = entry.trim_start_matches([',', ' ', '(']);
            let (cell, kind) = entry.split_once("): [").expect("a fault entry");
            let (row, col) = cell.split_once(", ").expect("a cell");
            let min_vsb = kind
                .strip_prefix("Retention { min_vsb: ")
                .expect("only retention faults")
                .trim_end();
            (
                row.parse().expect("a row"),
                col.parse().expect("a column"),
                min_vsb.parse::<f64>().expect("a threshold").to_bits(),
            )
        })
        .collect();
    assert_eq!(parsed.len(), mem.fault_count(), "every fault was parsed");
    parsed
}

#[test]
fn build_die_matches_the_per_cell_loop() {
    let mut dies = 0;
    let mut faults = 0;
    for grid in grids() {
        for &(rows, cols) in &SHAPES {
            let engine = engine(grid, rows, cols);
            for (ci, &corner) in CORNERS.iter().enumerate() {
                for seed in [3, 17, 2024] {
                    let ctx = format!(
                        "{} VSB points, {rows}×{cols}, corner {corner}, seed {seed}",
                        grid.vsbs().len()
                    );
                    let mut rng = pvtm_stats::rng::substream(seed, ci as u64);
                    let mut reference_rng = rng.clone();
                    let die = engine.build_die(corner, &mut rng);
                    let expected = reference_faults(grid, rows, cols, corner, &mut reference_rng);
                    assert_eq!(die_faults(&die), expected, "{ctx}");
                    let after: [u64; 4] = std::array::from_fn(|_| rng.next_u64());
                    let reference_after: [u64; 4] =
                        std::array::from_fn(|_| reference_rng.next_u64());
                    assert_eq!(after, reference_after, "generator state, {ctx}");
                    dies += 1;
                    faults += expected.len();
                }
            }
        }
    }
    assert_eq!(dies, 4 * 4 * 5 * 3);
    assert!(
        faults > 10_000,
        "the dies must exercise the scan: {faults} faults"
    );
}

/// The point at `t` along the unit ray `dir`.
fn on_ray(dir: &[f64; 6], t: f64) -> [f64; 6] {
    std::array::from_fn(|i| t * dir[i])
}

/// A root in `[0, 8]` of the slack of `model` along the unit ray `dir`,
/// by a scan for a sign change and bisection to adjacent floats.
fn slack_root(model: &HoldFailureModel, dir: &[f64; 6]) -> Option<f64> {
    let slack = |t: f64| model.slack_at(&on_ray(dir, t));
    let steps = 64;
    let mut lo = 0.0;
    let mut positive = slack(lo) > 0.0;
    for k in 1..=steps {
        let hi = 8.0 * f64::from(k) / f64::from(steps);
        if (slack(hi) > 0.0) != positive {
            let mut hi = hi;
            for _ in 0..200 {
                let mid = 0.5 * (lo + hi);
                if mid <= lo || mid >= hi {
                    break;
                }
                if (slack(mid) > 0.0) == positive {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            return Some(lo);
        }
        lo = hi;
        positive = slack(lo) > 0.0;
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Cells at and around every grid point's `slack = 0` surface, where
    /// the screen has the least room: the screened `min_vsb` equals the
    /// plain scan bit for bit.
    #[test]
    fn screened_min_vsb_matches_the_scan_near_the_slack_surface(
        grid_and_corner in (0usize..4, -0.2f64..0.2),
        ray in prop::collection::vec(-1.0f64..1.0, 6),
        log10_offset in -12.0f64..-3.0,
        reach in 0.0f64..8.0,
    ) {
        let (gi, corner) = grid_and_corner;
        let grid = &grids()[gi];
        let profile = grid.profile_at(corner);
        let models = grid.models_at_corner(corner);
        let norm = ray.iter().map(|x| x * x).sum::<f64>().sqrt();
        prop_assert!(norm > 0.0, "a zero ray");
        let dir: [f64; 6] = std::array::from_fn(|i| ray[i] / norm);
        let delta = 10f64.powf(log10_offset);
        let mut probes = vec![on_ray(&dir, reach)];
        for model in &models {
            if let Some(t) = slack_root(model, &dir) {
                probes.push(on_ray(&dir, t));
                probes.push(on_ray(&dir, t + delta));
                probes.push(on_ray(&dir, t - delta));
            }
        }
        for z in &probes {
            let screened = profile.min_vsb(z).map(f64::to_bits);
            let scanned = reference_min_vsb(&models, grid.vsbs(), z).map(f64::to_bits);
            prop_assert_eq!(screened, scanned);
        }
    }
}
