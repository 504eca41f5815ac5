//! Source-bias analysis: how much standby source bias a die can take
//! before hold failures exceed the target (paper §IV, Fig. 6).

use rayon::prelude::*;

use pvtm_circuit::CircuitError;
use pvtm_device::Technology;
use pvtm_sram::failure::HoldFailureModel;
use pvtm_sram::{AnalysisConfig, CellSizing, Conditions, FailureAnalyzer};

use crate::interp::lin_interp;

/// Analyzer for the hold-failure-vs-source-bias tradeoff.
#[derive(Debug, Clone)]
pub struct SourceBiasAnalyzer {
    tech: Technology,
    fa: FailureAnalyzer,
    vsb_cap: f64,
}

/// Result of a quarantine-aware [`SourceBiasAnalyzer::max_vsb_quarantined`]
/// search: the bias ceiling plus the evaluation/quarantine accounting the
/// caller folds into its experiment-level `PVTM_MAX_QUARANTINE` check.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaxVsbOutcome {
    /// The largest admissible source bias \[V\]. Pessimistic where
    /// evaluations were quarantined: an unresolved point is treated as
    /// violating the target, so the ceiling can only shrink.
    pub vsb: f64,
    /// Hold-failure evaluations attempted during the search.
    pub evals: u64,
    /// Evaluations whose solve failed even after the rescue ladder.
    pub quarantined: u64,
}

impl SourceBiasAnalyzer {
    /// Creates an analyzer. The search cap defaults to 0.75·VDD (beyond
    /// that the cell's retention circuit leaves the solver's comfortable
    /// regime — and no sane design goes there).
    pub fn new(tech: &Technology, sizing: CellSizing, analysis: AnalysisConfig) -> Self {
        Self {
            tech: tech.clone(),
            fa: FailureAnalyzer::new(tech, sizing, analysis),
            vsb_cap: 0.75 * tech.vdd(),
        }
    }

    /// Overrides the search cap \[V\].
    pub fn with_vsb_cap(mut self, cap: f64) -> Self {
        assert!(
            cap > 0.0 && cap < self.tech.vdd(),
            "cap must lie in (0, vdd)"
        );
        self.vsb_cap = cap;
        self
    }

    /// The underlying failure analyzer.
    pub fn failure_analyzer(&self) -> &FailureAnalyzer {
        &self.fa
    }

    /// Hold-failure probability of a cell at a corner and source bias.
    ///
    /// # Errors
    ///
    /// Propagates DC-solver failures.
    pub fn hold_failure_prob(&self, corner: f64, vsb: f64) -> Result<f64, CircuitError> {
        let mut ev = self.fa.evaluator();
        self.hold_failure_prob_with(&mut ev, corner, vsb)
    }

    /// [`Self::hold_failure_prob`] against a caller-held evaluator — the
    /// hot path for the `max_vsb` bracketing/bisection loops and the grid
    /// build, where adjacent evaluations are millivolts apart and warm
    /// starts almost always hit.
    fn hold_failure_prob_with(
        &self,
        ev: &mut pvtm_sram::CellEvaluator,
        corner: f64,
        vsb: f64,
    ) -> Result<f64, CircuitError> {
        let cond = Conditions::standby(&self.tech, vsb);
        Ok(self
            .fa
            .linearize_hold_with(ev, corner, &cond)?
            .failure_prob())
    }

    /// The largest source bias at this corner whose hold-failure
    /// probability stays at or below `p_target` — the per-corner ceiling of
    /// the paper's Fig. 6 (maximum at the nominal corner, falling toward
    /// both tails).
    ///
    /// Returns 0 when even zero bias violates the target, and the search
    /// cap when the target is never violated.
    ///
    /// # Errors
    ///
    /// Propagates DC-solver failures.
    pub fn max_vsb(&self, corner: f64, p_target: f64) -> Result<f64, CircuitError> {
        let out = self.max_vsb_quarantined(corner, p_target);
        if out.quarantined as f64 / out.evals.max(1) as f64
            > pvtm_telemetry::fault::max_quarantine()
        {
            return Err(CircuitError::QuarantineExceeded {
                quarantined: out.quarantined,
                total: out.evals,
            });
        }
        Ok(out.vsb)
    }

    /// Quarantine-aware variant of [`Self::max_vsb`]: never fails.
    /// Each hold-failure evaluation runs under a deterministic fault
    /// substream keyed off `(corner, eval index)`; an evaluation whose
    /// solve is unresolved even after the rescue ladder is recorded in the
    /// telemetry quarantine sidecar and treated pessimistically — as if it
    /// violated the target — so the reported ceiling can only shrink, never
    /// grow, under quarantine.
    pub fn max_vsb_quarantined(&self, corner: f64, p_target: f64) -> MaxVsbOutcome {
        assert!(
            p_target > 0.0 && p_target < 1.0,
            "invalid target probability {p_target}"
        );
        // Coarse upward scan to bracket the crossing (the probability is
        // not monotone at small vsb, so a plain bisection from 0 could
        // latch onto the wrong side).
        const STEPS: usize = 15;
        // One evaluator for the whole scan + bisection: adjacent vsb points
        // differ by millivolts, so nearly every solve warm-starts.
        let mut ev = self.fa.evaluator();
        let mut eval_idx: u64 = 0;
        let mut quarantined: u64 = 0;
        let mut probe = |vsb: f64| -> Option<f64> {
            let idx = eval_idx;
            eval_idx += 1;
            self.hold_failure_prob_quarantined(&mut ev, corner, vsb, idx, &mut quarantined)
        };
        let mut lo = 0.0f64;
        let mut hi = None;
        match probe(0.0) {
            // An unresolved zero-bias anchor means nothing can be proven:
            // the only safe ceiling is no bias at all. Same for an anchor
            // already violating the target.
            Some(p0) if p0 <= p_target => {}
            _ => {
                return MaxVsbOutcome {
                    vsb: 0.0,
                    evals: eval_idx,
                    quarantined,
                }
            }
        }
        for k in 1..=STEPS {
            let v = self.vsb_cap * k as f64 / STEPS as f64;
            // An unresolved scan point is treated as above target: the
            // ceiling cannot be proven past it.
            match probe(v) {
                Some(p) if p <= p_target => lo = v,
                _ => {
                    hi = Some(v);
                    break;
                }
            }
        }
        let Some(mut hi) = hi else {
            return MaxVsbOutcome {
                vsb: self.vsb_cap,
                evals: eval_idx,
                quarantined,
            };
        };
        // Refine by bisection; unresolved midpoints shrink from above.
        for _ in 0..18 {
            let mid = 0.5 * (lo + hi);
            match probe(mid) {
                Some(p) if p <= p_target => lo = mid,
                _ => hi = mid,
            }
        }
        MaxVsbOutcome {
            vsb: 0.5 * (lo + hi),
            evals: eval_idx,
            quarantined,
        }
    }

    /// One quarantine-aware hold-failure evaluation: arms a deterministic
    /// fault substream keyed off `(corner, eval index)` and, when the solve
    /// stays unresolved after the rescue ladder, records the quarantine and
    /// returns `None` so the caller takes the pessimistic branch.
    fn hold_failure_prob_quarantined(
        &self,
        ev: &mut pvtm_sram::CellEvaluator,
        corner: f64,
        vsb: f64,
        eval_idx: u64,
        quarantined: &mut u64,
    ) -> Option<f64> {
        let stream = corner.to_bits().rotate_left(17) ^ eval_idx;
        let _s = pvtm_telemetry::fault::begin_stream(stream);
        match self.hold_failure_prob_with(ev, corner, vsb) {
            Ok(p) => Some(p),
            Err(e) => {
                *quarantined += 1;
                pvtm_telemetry::counter_add("eval.quarantined", 1);
                pvtm_telemetry::record_quarantine(pvtm_telemetry::QuarantineRecord {
                    seed: 0,
                    stream,
                    corner,
                    kind: e.kind(),
                });
                None
            }
        }
    }

    /// The design-time `VSB(opt)`: the maximum bias at the *nominal*
    /// corner, which a non-adaptive design would apply to every die.
    ///
    /// # Errors
    ///
    /// Propagates DC-solver failures.
    pub fn vsb_opt(&self, p_target: f64) -> Result<f64, CircuitError> {
        self.max_vsb(0.0, p_target)
    }
}

/// Precomputed hold models over a (corner × vsb) grid with bilinear
/// interpolation — the fast path for per-cell retention thresholds in the
/// BIST calibration and for population studies.
#[derive(Debug, Clone)]
pub struct HoldModelGrid {
    corners: Vec<f64>,
    vsbs: Vec<f64>,
    /// Row-major `[corner][vsb]`.
    models: Vec<HoldFailureModel>,
}

impl HoldModelGrid {
    /// Builds the grid (parallel over all grid points).
    ///
    /// # Errors
    ///
    /// Propagates the first DC-solver failure.
    ///
    /// # Panics
    ///
    /// Panics unless both axes have at least two strictly increasing
    /// entries.
    pub fn build(
        analyzer: &SourceBiasAnalyzer,
        corners: Vec<f64>,
        vsbs: Vec<f64>,
    ) -> Result<Self, CircuitError> {
        assert!(corners.len() >= 2 && vsbs.len() >= 2, "grid too small");
        assert!(corners.windows(2).all(|w| w[1] > w[0]), "corners unsorted");
        assert!(vsbs.windows(2).all(|w| w[1] > w[0]), "vsbs unsorted");
        let cells: Vec<(usize, usize)> = (0..corners.len())
            .flat_map(|ci| (0..vsbs.len()).map(move |vi| (ci, vi)))
            .collect();
        let ctx = pvtm_telemetry::parallel_context();
        let models: Result<Vec<(usize, usize, HoldFailureModel)>, CircuitError> = cells
            .par_iter()
            .map_init(
                // One compiled evaluator per worker thread for allocation
                // reuse; warm seeds are dropped at every grid point so the
                // solver work per point is schedule-independent (warm
                // starts still cover the multi-solve linearization within
                // a point).
                || (pvtm_telemetry::adopt(&ctx), analyzer.fa.evaluator()),
                |(_ctx, ev), &(ci, vi)| {
                    ev.invalidate_warm();
                    let cond = Conditions::standby(&analyzer.tech, vsbs[vi]);
                    let m = analyzer.fa.linearize_hold_with(ev, corners[ci], &cond)?;
                    Ok((ci, vi, m))
                },
            )
            .collect();
        let mut sorted = models?;
        sorted.sort_by_key(|&(ci, vi, _)| (ci, vi));
        Ok(Self {
            models: sorted.into_iter().map(|(_, _, m)| m).collect(),
            corners,
            vsbs,
        })
    }

    /// Corner axis.
    pub fn corners(&self) -> &[f64] {
        &self.corners
    }

    /// Source-bias axis.
    pub fn vsbs(&self) -> &[f64] {
        &self.vsbs
    }

    fn model(&self, ci: usize, vi: usize) -> &HoldFailureModel {
        &self.models[ci * self.vsbs.len() + vi]
    }

    /// Hold models along the vsb axis at an arbitrary corner
    /// (linear interpolation of the model parameters between grid rows).
    pub fn models_at_corner(&self, corner: f64) -> Vec<HoldFailureModel> {
        let c = corner.clamp(
            self.corners[0],
            *self
                .corners
                .last()
                .expect("corner table is non-empty by construction"),
        );
        let i = self
            .corners
            .partition_point(|&v| v < c)
            .clamp(1, self.corners.len() - 1);
        let (c0, c1) = (self.corners[i - 1], self.corners[i]);
        let t = if c1 > c0 { (c - c0) / (c1 - c0) } else { 0.0 };
        (0..self.vsbs.len())
            .map(|vi| blend(self.model(i - 1, vi), self.model(i, vi), t))
            .collect()
    }

    /// Hold-failure probability at an arbitrary (corner, vsb).
    pub fn failure_prob(&self, corner: f64, vsb: f64) -> f64 {
        let models = self.models_at_corner(corner);
        let probs: Vec<f64> = models
            .iter()
            .map(|m| m.failure_prob().max(1e-300).ln())
            .collect();
        lin_interp(&self.vsbs, &probs, vsb).exp().min(1.0)
    }

    /// The lowest source bias at which a specific cell (standardized
    /// deviation vector `z`) loses retention. `None` when the cell holds
    /// over the whole grid. Convenience wrapper over
    /// [`Self::profile_at`] — when sweeping many cells of one die, build
    /// the profile once instead.
    pub fn min_vsb_for_cell(&self, corner: f64, z: &[f64; 6]) -> Option<f64> {
        self.profile_at(corner).min_vsb(z)
    }

    /// The per-corner hold profile: the interpolated model at every vsb
    /// grid point, reusable across all cells of one die.
    pub fn profile_at(&self, corner: f64) -> CornerHoldProfile {
        let models = self.models_at_corner(corner);
        CornerHoldProfile {
            vsbs: self.vsbs.clone(),
            lanes: models.chunks(LANES).map(LaneBlock::new).collect(),
            models,
        }
    }
}

/// Grid points per [`LaneBlock`]: two `f64` fill one SSE2 register, the
/// vector width every x86-64 build has (blocks of four and eight measured
/// slower there).
const LANES: usize = 2;

/// How far below the lower bound of `ln(allowed)` the screen requires
/// `ln(droop)` to lie. It covers the rounding of the bound (< 1e-12) and
/// of `exp` (< 1e-15 relative) many times over.
const SCREEN_MARGIN: f64 = 1e-3;

/// A lower bound of `ln x` for a positive normal `x`, less
/// [`SCREEN_MARGIN`]. The bound is the chord of `ln` over the binade
/// `[2^e, 2^(e+1))` that holds `x`.
///
/// For `x = 2^e·m` with `m ∈ [1, 2)`, the top 32 bits of `x` read as an
/// integer are at most `(e + 1023 + (m − 1))·2^20`, and `log2 m ≥ m − 1`
/// on `[1, 2]` because `log2` is concave and agrees with the chord at both
/// ends. The bound is at most ≈ 0.06 below `ln x`. A negative `x` gives a
/// meaningless value, which the caller rejects.
#[inline]
fn ln_chord_below(x: f64) -> f64 {
    const LN2_PER_STEP: f64 = std::f64::consts::LN_2 / (1u64 << 20) as f64;
    const OFFSET: f64 = 1023.0 * std::f64::consts::LN_2 + SCREEN_MARGIN;
    ((x.to_bits() >> 32) as i32) as f64 * LN2_PER_STEP - OFFSET
}

/// The hold models of up to [`LANES`] grid points, coefficient by
/// coefficient, so the screen evaluates them side by side. Row 0 of each
/// model holds the nominals, row `1 + i` the sensitivities to `z[i]`.
#[derive(Debug, Clone)]
struct LaneBlock {
    allowed: [[f64; LANES]; 7],
    ln_droop: [[f64; LANES]; 7],
}

impl LaneBlock {
    /// The block of `models` (at most [`LANES`]). Unused lanes get a model
    /// that holds for every `z`: `allowed = 1`, `ln_droop = −1`.
    fn new(models: &[HoldFailureModel]) -> Self {
        let mut block = Self {
            allowed: [[0.0; LANES]; 7],
            ln_droop: [[0.0; LANES]; 7],
        };
        block.allowed[0] = [1.0; LANES];
        block.ln_droop[0] = [-1.0; LANES];
        for (lane, m) in models.iter().enumerate() {
            for (rows, margin) in [
                (&mut block.allowed, &m.allowed),
                (&mut block.ln_droop, &m.ln_droop),
            ] {
                rows[0][lane] = margin.nominal;
                for (row, s) in rows[1..].iter_mut().zip(margin.sensitivity) {
                    row[lane] = s;
                }
            }
        }
        block
    }

    /// Each lane's margin at `z`, with the operations of
    /// [`MarginModel::margin_at`] in the same order.
    ///
    /// [`MarginModel::margin_at`]: pvtm_sram::failure::MarginModel::margin_at
    #[inline]
    fn margins(rows: &[[f64; LANES]; 7], z: &[f64; 6]) -> [f64; LANES] {
        std::array::from_fn(|l| {
            rows[0][l]
                + (rows[1][l] * z[0]
                    + rows[2][l] * z[1]
                    + rows[3][l] * z[2]
                    + rows[4][l] * z[3]
                    + rows[5][l] * z[4]
                    + rows[6][l] * z[5])
        })
    }

    /// Whether every lane provably has a positive hold slack at `z`,
    /// decided without an `exp`.
    ///
    /// The lanes compute `allowed` and `ln_droop` with the scan's own
    /// operations, so they are the very numbers the scan would compute. A
    /// lane passes when `allowed` is a positive normal number and
    /// `ln_droop` lies [`SCREEN_MARGIN`] below a lower bound of
    /// `ln(allowed)` ([`ln_chord_below`]): then `exp(ln_droop)` rounds
    /// below `allowed`, and the scan's slack `allowed − exp(ln_droop)` is
    /// positive.
    #[inline]
    fn holds(&self, z: &[f64; 6]) -> bool {
        let allowed = Self::margins(&self.allowed, z);
        let ln_droop = Self::margins(&self.ln_droop, z);
        (0..LANES).fold(true, |holds, l| {
            holds & (allowed[l] >= f64::MIN_POSITIVE) & (ln_droop[l] < ln_chord_below(allowed[l]))
        })
    }
}

/// Hold models of one die corner along the source-bias axis.
#[derive(Debug, Clone)]
pub struct CornerHoldProfile {
    vsbs: Vec<f64>,
    models: Vec<HoldFailureModel>,
    /// The same models in blocks of [`LANES`] grid points, for the screen.
    lanes: Vec<LaneBlock>,
}

impl CornerHoldProfile {
    /// The lowest source bias at which the cell `z` loses retention, found
    /// from the sign change of its hold slack along the vsb axis; `None`
    /// when it holds over the whole grid.
    ///
    /// A cell the lane blocks prove to hold at every grid point returns
    /// `None` without the scan; the scan decides every other cell.
    pub fn min_vsb(&self, z: &[f64; 6]) -> Option<f64> {
        if self.lanes.iter().all(|block| block.holds(z)) {
            return None;
        }
        let mut prev_slack = self.models[0].slack_at(z);
        if prev_slack <= 0.0 {
            return Some(self.vsbs[0]);
        }
        for vi in 1..self.vsbs.len() {
            let slack = self.models[vi].slack_at(z);
            if slack <= 0.0 {
                let frac = prev_slack / (prev_slack - slack);
                return Some(self.vsbs[vi - 1] + frac * (self.vsbs[vi] - self.vsbs[vi - 1]));
            }
            prev_slack = slack;
        }
        None
    }

    /// The source-bias axis.
    pub fn vsbs(&self) -> &[f64] {
        &self.vsbs
    }
}

/// Linear blend of two hold models.
fn blend(a: &HoldFailureModel, b: &HoldFailureModel, t: f64) -> HoldFailureModel {
    let mix = |x: f64, y: f64| x + (y - x) * t;
    let mix_model = |x: &pvtm_sram::failure::MarginModel, y: &pvtm_sram::failure::MarginModel| {
        pvtm_sram::failure::MarginModel {
            nominal: mix(x.nominal, y.nominal),
            sensitivity: std::array::from_fn(|i| mix(x.sensitivity[i], y.sensitivity[i])),
        }
    };
    HoldFailureModel {
        ln_droop: mix_model(&a.ln_droop, &b.ln_droop),
        allowed: mix_model(&a.allowed, &b.allowed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::linspace;

    fn analyzer() -> SourceBiasAnalyzer {
        let tech = Technology::predictive_70nm();
        SourceBiasAnalyzer::new(
            &tech,
            CellSizing::default_for(&tech),
            AnalysisConfig::default(),
        )
    }

    #[test]
    fn hold_prob_grows_past_the_knee() {
        let a = analyzer();
        let p_mid = a.hold_failure_prob(0.0, 0.45).unwrap();
        let p_deep = a.hold_failure_prob(0.0, 0.72).unwrap();
        assert!(
            p_deep > p_mid * 10.0,
            "deep bias must be much riskier: {p_mid:.2e} -> {p_deep:.2e}"
        );
    }

    #[test]
    fn max_vsb_peaks_at_the_nominal_corner() {
        let a = analyzer();
        let target = 1e-3;
        let v_low = a.max_vsb(-0.10, target).unwrap();
        let v_nom = a.max_vsb(0.0, target).unwrap();
        let v_high = a.max_vsb(0.10, target).unwrap();
        assert!(
            v_nom >= v_low && v_nom >= v_high,
            "fig-6 shape violated: {v_low:.3} / {v_nom:.3} / {v_high:.3}"
        );
        assert!(v_nom > 0.3, "nominal ceiling suspiciously low: {v_nom:.3}");
    }

    #[test]
    fn vsb_opt_equals_nominal_ceiling() {
        let a = analyzer();
        let target = 1e-3;
        assert_eq!(a.vsb_opt(target).unwrap(), a.max_vsb(0.0, target).unwrap());
    }

    #[test]
    fn grid_probability_matches_direct_evaluation() {
        let a = analyzer();
        let grid =
            HoldModelGrid::build(&a, linspace(-0.12, 0.12, 5), linspace(0.3, 0.72, 8)).unwrap();
        // On-grid point: interpolation must agree with the direct model.
        let direct = a.hold_failure_prob(0.0, 0.72).unwrap();
        let gridded = grid.failure_prob(0.0, 0.72);
        assert!(
            (gridded.max(1e-300).ln() - direct.max(1e-300).ln()).abs() < 0.2,
            "grid {gridded:.3e} vs direct {direct:.3e}"
        );
    }

    #[test]
    fn min_vsb_reflects_cell_weakness() {
        let a = analyzer();
        let grid =
            HoldModelGrid::build(&a, linspace(-0.12, 0.12, 3), linspace(0.3, 0.72, 8)).unwrap();
        // A leaky NL combined with a weak PL (the dominant failure
        // direction) fails earlier than a typical cell.
        let weak = grid.min_vsb_for_cell(0.0, &[-3.0, 0.0, 2.5, 0.0, 0.0, 0.0]);
        let typical = grid.min_vsb_for_cell(0.0, &[0.0; 6]);
        match (weak, typical) {
            (Some(w), Some(t)) => assert!(w < t),
            (Some(_), None) => {} // typical never fails: fine
            other => panic!("weak cell must fail within the grid: {other:?}"),
        }
    }

    #[test]
    fn chord_bound_lies_the_margin_below_ln() {
        // Exact at powers of two, never above ln(x) − SCREEN_MARGIN, and
        // at most ≈ 0.06 further below in between (1e-11 covers the
        // rounding of both sides at |ln x| ≤ 709).
        use rand::Rng;
        let mut rng = pvtm_stats::rng::substream(7, 0);
        let powers = (-1022..=1023).map(|k| 2f64.powi(k));
        let spread = (0..20_000).map(|_| rng.gen_range(-708.0..709.0f64).exp());
        for x in powers.clone().chain(spread) {
            let gap = x.ln() - ln_chord_below(x) - SCREEN_MARGIN;
            assert!((-1e-11..0.0598).contains(&gap), "x = {x:e}: gap {gap:e}");
        }
        for x in powers {
            let gap = x.ln() - ln_chord_below(x) - SCREEN_MARGIN;
            assert!(gap.abs() < 1e-11, "x = {x:e}: gap {gap:e}");
        }
    }

    #[test]
    fn screen_never_clears_a_lane_without_a_positive_normal_allowed() {
        use pvtm_sram::failure::MarginModel;
        let lane = |allowed: f64, ln_droop: f64| HoldFailureModel {
            allowed: MarginModel {
                nominal: allowed,
                sensitivity: [0.0; 6],
            },
            ln_droop: MarginModel {
                nominal: ln_droop,
                sensitivity: [0.0; 6],
            },
        };
        let z = [0.0; 6];
        // A subnormal or non-positive allowed droop goes to the scan even
        // when exp(ln_droop) underflows to zero.
        for allowed in [1e-310, 0.0, -0.0, -1.0, f64::NAN] {
            assert!(
                !LaneBlock::new(&[lane(allowed, -800.0)]).holds(&z),
                "{allowed}"
            );
        }
        assert!(LaneBlock::new(&[lane(0.3, -10.0), lane(1e-300, -800.0)]).holds(&z));
        assert!(!LaneBlock::new(&[lane(0.3, -10.0), lane(0.3, 0.3f64.ln())]).holds(&z));
    }
}
