//! Reproduction of every figure in the paper's evaluation.
//!
//! Each `figXX` function regenerates the data behind the corresponding
//! figure of the paper and returns a serializable result that also prints
//! as the table/series the paper plots. The `figures` bench target in
//! `pvtm-bench` drives them all and writes `results/<id>.json`.
//!
//! | id | paper result |
//! |----|--------------|
//! | fig2a | cell failure probabilities vs inter-die Vt shift |
//! | fig2b | effect of body bias on each failure mechanism |
//! | fig2c | parametric yield vs σ(Vt_inter): self-repair vs ZBB |
//! | fig3  | cell vs 1 KB-array leakage distributions per corner |
//! | fig4b | failing columns in a 256 KB array: repaired vs not |
//! | fig5a | leakage components vs body bias |
//! | fig5b | memory-leakage spread with/without self-repair |
//! | fig5c | leakage yield vs σ(Vt_inter) |
//! | fig6  | max source bias for a target hold failure vs corner |
//! | fig8  | VSB(adaptive) vs corner; hold failure opt vs adaptive |
//! | fig9  | VSB(adaptive) and standby-power distributions |
//! | fig10 | leakage / hold yield vs σ for zero / opt / adaptive |

mod ablation;
mod asb;
mod repair;
mod scaling;

pub use ablation::{
    ablation_bias_levels, ablation_dac, ablation_march, ablation_monitor, ablation_temperature,
    BiasLevelAblation, DacAblation, MarchAblation, MonitorAblation, TemperatureAblation,
};
pub use asb::{
    cell_target_for_memory, fig10, fig6, fig8, fig9, headline, Fig10, Fig6, Fig8, Fig9, Headline,
};
pub use repair::{
    fig2a, fig2b, fig2c, fig3, fig4b, fig5a, fig5b, fig5c, Fig2a, Fig2b, Fig2c, Fig3, Fig4b, Fig5a,
    Fig5b, Fig5c, McCrossCheck,
};
pub use scaling::{scaling, Scaling};

use pvtm_device::Technology;
use pvtm_sram::{AnalysisConfig, CellSizing};
use serde::Serialize;
use std::path::PathBuf;

/// Sampling effort of an experiment run.
///
/// `quick()` keeps everything small enough for CI-style smoke tests;
/// `full()` is what the bench harness uses for the recorded results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Effort {
    /// Points on inter-die corner grids.
    pub corners: usize,
    /// Dies per population study.
    pub dies: usize,
    /// Cells per leakage-distribution sample.
    pub cells: usize,
    /// Arrays per array-leakage-distribution sample.
    pub arrays: usize,
    /// Points on σ(Vt_inter) sweeps.
    pub sigmas: usize,
    /// Samples for the importance-sampled Monte-Carlo cross-check
    /// (Fig. 2a). Kept ≥ two Monte-Carlo chunks so the recorded
    /// convergence trace has more than one point.
    pub mc_samples: usize,
}

impl Effort {
    /// Small run for tests.
    pub fn quick() -> Self {
        Self {
            corners: 5,
            dies: 24,
            cells: 2_000,
            arrays: 60,
            sigmas: 3,
            mc_samples: 8_192,
        }
    }

    /// Full run for the recorded figures.
    pub fn full() -> Self {
        Self {
            corners: 13,
            dies: 250,
            cells: 20_000,
            arrays: 400,
            sigmas: 6,
            mc_samples: 20_000,
        }
    }
}

/// Directory experiment results are written to (`PVTM_RESULTS_DIR`,
/// defaulting to `results/`).
pub fn results_dir() -> PathBuf {
    std::env::var_os("PVTM_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// Serializes an experiment result to `results/<id>.json`.
///
/// # Errors
///
/// Propagates filesystem and serialization errors.
pub fn save_json<T: Serialize>(id: &str, value: &T) -> std::io::Result<PathBuf> {
    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{id}.json"));
    let file = std::fs::File::create(&path)?;
    serde_json::to_writer_pretty(file, value).map_err(std::io::Error::other)?;
    Ok(path)
}

/// The paper's design point: the 70 nm predictive technology, its default
/// cell sizing and the default analysis configuration.
pub(crate) fn baseline() -> (Technology, CellSizing, AnalysisConfig) {
    let tech = Technology::predictive_70nm();
    let sizing = CellSizing::default_for(&tech);
    (tech, sizing, AnalysisConfig::default())
}

/// Records one quarantined corner/eval failure in the telemetry sidecar
/// and bumps the shared `eval.quarantined` counter. Corner-level streams
/// carry no Monte-Carlo seed, so `seed` is fixed at zero and `stream`
/// identifies the failing evaluation deterministically.
pub(crate) fn quarantine_corner(stream: u64, corner: f64, e: &pvtm_circuit::CircuitError) {
    pvtm_telemetry::record_quarantine(pvtm_telemetry::QuarantineRecord {
        seed: 0,
        stream,
        corner,
        kind: e.kind().to_string(),
    });
    pvtm_telemetry::counter_add("eval.quarantined", 1);
}

/// Formats a probability for the tables (engineering style).
pub(crate) fn fmt_p(p: f64) -> String {
    // pvtm-lint: allow(no-float-eq) formatting fast path for an exactly zero probability
    if p == 0.0 {
        "0".to_string()
    } else if p < 1e-12 {
        "<1e-12".to_string()
    } else {
        format!("{p:.2e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effort_presets_are_ordered() {
        let q = Effort::quick();
        let f = Effort::full();
        assert!(q.corners < f.corners);
        assert!(q.dies < f.dies);
        assert!(q.cells < f.cells);
    }

    #[test]
    fn save_json_round_trips() {
        let dir = std::env::temp_dir().join("pvtm-test-results");
        std::env::set_var("PVTM_RESULTS_DIR", &dir);
        let path = save_json("unit-test", &vec![1.0, 2.0]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("2.0"));
        std::env::remove_var("PVTM_RESULTS_DIR");
        let _ = std::fs::remove_dir_all(dir);
    }

    /// The exact text a figure file holds for each shape the figure results
    /// use: named-field structs (nested, and in a `Vec`), a tuple, `None`,
    /// a `Histogram` and a unit-variant enum.
    #[test]
    fn derived_json_text_is_pinned() {
        #[derive(Serialize)]
        struct Row {
            vsb: f64,
            dies: u64,
        }
        #[derive(Serialize)]
        struct Figure {
            rows: Vec<Row>,
            range: (f64, f64),
            missing: Option<f64>,
            histogram: pvtm_stats::Histogram,
            region: crate::monitor::VtRegion,
        }
        let mut histogram = pvtm_stats::Histogram::new(0.0, 1.0, 2);
        for x in [0.25, 0.75, 0.8, 1.5, -0.5] {
            histogram.add(x);
        }
        let figure = Figure {
            rows: vec![
                Row { vsb: 0.5, dies: 3 },
                Row {
                    vsb: 1.4e-5,
                    dies: 0,
                },
            ],
            range: (-0.1, 2.0),
            missing: None,
            histogram,
            region: crate::monitor::VtRegion::LowVt,
        };
        let expected = r#"{
  "rows": [
    {
      "vsb": 0.5,
      "dies": 3
    },
    {
      "vsb": 1.4e-5,
      "dies": 0
    }
  ],
  "range": [
    -0.1,
    2.0
  ],
  "missing": null,
  "histogram": {
    "lo": 0.0,
    "hi": 1.0,
    "bins": [
      1,
      2
    ],
    "underflow": 1,
    "overflow": 1
  },
  "region": "LowVt"
}"#;
        assert_eq!(serde_json::to_string_pretty(&figure).unwrap(), expected);
    }

    #[test]
    fn probability_formatting() {
        assert_eq!(fmt_p(0.0), "0");
        assert_eq!(fmt_p(1e-30), "<1e-12");
        assert!(fmt_p(3.2e-4).contains("3.20e-4"));
    }
}
