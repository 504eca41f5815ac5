//! The four workloads: how each is set up, what one operation is, and
//! what an operation returns for the output checks.
//!
//! Each workload runs closed loop: one operation starts when the previous
//! one has returned. The set-up pass is operation 0 of the fixed seed
//! [`SETUP_SEED`]; the timed operations are operations 1.. of the run seed,
//! whose inputs are drawn through [`op_seed`].

use pvtm::adaptive::{AsbConfig, AsbEngine, StandbyLeakageGrid};
use pvtm::experiments::{self as exp, Effort};
use pvtm::interp::linspace;
use pvtm::source_bias::{HoldModelGrid, SourceBiasAnalyzer};
use pvtm_bist::{Dac, MarchTest};
use pvtm_circuit::CircuitError;
use pvtm_device::Technology;
use pvtm_sram::{AnalysisConfig, ArrayOrganization, CellSizing, Conditions, FailureAnalyzer};

use crate::spans::Tracer;

/// Source bias of the standby conditions the Monte-Carlo workloads sample
/// (the bias fig2a evaluates hold failure at).
pub const MC_VSB: f64 = 0.5;
/// σ of the inter-die corner distribution of the ASB population (fig9's).
pub const ASB_SIGMA_INTER: f64 = 0.06;
/// Memory-level hold-failure target the ASB design point is set for (the
/// paper's `P_HF = 1e-3`, Fig. 6).
const P_HF_TARGET: f64 = 1e-3;
/// Source-bias window of the ASB hold grid and DAC \[V\] (fig8–fig10's).
const VSB_LO: f64 = 0.30;
const VSB_HI: f64 = 0.74;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Margin sampling at the nominal corner: the warm-start hot path.
    McNominal,
    /// Margin sampling at a −150 mV corner: cold hold solves and fallbacks.
    McSkewed,
    /// BIST calibration of ASB dies: March tests, no DC solves.
    AsbPopulation,
    /// The cheap figures of the suite at quick effort.
    FiguresQuick,
}

impl Workload {
    /// Every workload, in the order `run --all` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::McNominal,
        Workload::McSkewed,
        Workload::AsbPopulation,
        Workload::FiguresQuick,
    ];

    /// The workload's name on the command line and in BENCHMARK.json.
    pub fn name(self) -> &'static str {
        match self {
            Workload::McNominal => "mc_nominal",
            Workload::McSkewed => "mc_skewed",
            Workload::AsbPopulation => "asb_population",
            Workload::FiguresQuick => "figures_quick",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Inter-die corner the workload runs at \[V\]; the layer probes of a
    /// traced run use the same corner.
    pub fn corner(self) -> f64 {
        match self {
            Workload::McSkewed => -0.15,
            _ => 0.0,
        }
    }

    /// How many times a run sets the workload up; `setup_s` is the median.
    /// A figures round builds all of its own state, so its one set-up pass
    /// is already a full round.
    pub fn setup_reps(self) -> usize {
        match self {
            Workload::FiguresQuick => 1,
            _ => 3,
        }
    }

    /// Operations of the traced pass of `trace` (fixed, so its counters
    /// repeat exactly for a seed).
    pub fn traced_ops(self) -> u64 {
        match self {
            Workload::McNominal | Workload::McSkewed => 16,
            Workload::AsbPopulation => 6,
            Workload::FiguresQuick => 1,
        }
    }
}

/// Signature of one figure: the figure's result as JSON text.
pub type FigureFn = fn(Effort) -> Result<String, String>;

fn to_json<T: serde::Serialize>(result: Result<T, CircuitError>) -> Result<String, String> {
    let value = result.map_err(|e| e.to_string())?;
    serde_json::to_string(&value).map_err(|e| e.to_string())
}

/// The figures the benchmark runs; `trace` times each of them and `bless`
/// records the output of each. The first two are too long and noisy for
/// the `figures_quick` round (see [`ROUND`]): fig2a is one 8192-sample
/// call of the `mc_*` estimator and varied by ±25 % between runs, and
/// fig8, the cheapest of the four ASB figures (fig8, fig9, fig10,
/// ablation-dac), is one ~10 s call that builds the ASB engine and
/// calibrates 30 dies. The rest, in `benches/figures.rs` order, are the
/// round. fig9, fig10, ablation-dac and headline are left out: with fig8
/// they take ~56 s at quick effort on two threads.
pub const FIGURES: &[(&str, FigureFn)] = &[
    ("fig2a", |e| to_json(exp::fig2a(e))),
    ("fig8", |e| to_json(exp::fig8(e))),
    ("fig2b", |e| to_json(exp::fig2b(e))),
    ("fig2c", |e| to_json(exp::fig2c(e))),
    ("fig3", |e| to_json(Ok::<_, CircuitError>(exp::fig3(e)))),
    ("fig4b", |e| to_json(exp::fig4b(e))),
    ("fig5a", |e| to_json(Ok::<_, CircuitError>(exp::fig5a(e)))),
    ("fig5b", |e| to_json(exp::fig5b(e))),
    ("fig5c", |e| to_json(exp::fig5c(e))),
    ("fig6", |e| to_json(exp::fig6(e))),
    ("ablation-monitor", |e| to_json(exp::ablation_monitor(e))),
    ("ablation-bias", |e| to_json(exp::ablation_bias_levels(e))),
    ("ablation-march", |e| {
        to_json(Ok::<_, CircuitError>(exp::ablation_march(e)))
    }),
    ("scaling", |e| to_json(exp::scaling(e))),
    ("ablation-temperature", |e| {
        to_json(Ok::<_, CircuitError>(exp::ablation_temperature(e)))
    }),
];

/// The figures of one `figures_quick` round: 13 figures of up to ~0.7 s,
/// ~1.8 s together on one CPU, which varied by ±5 % between runs.
pub const ROUND: &[(&str, FigureFn)] = FIGURES.split_at(2).1;

/// Work per operation. [`Sizes::standard`] is the benchmark; tests run
/// smaller ones.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Samples per `mc_nominal` estimate.
    pub mc_nominal_samples: u64,
    /// Samples per `mc_skewed` estimate (a skewed sample costs ~4× a
    /// nominal one).
    pub mc_skewed_samples: u64,
    /// Dies per `asb_population` operation.
    pub asb_dies: usize,
    /// The figures of one `figures_quick` round.
    pub figures: &'static [(&'static str, FigureFn)],
    /// Deviation vectors of the margin and hold probes of `trace`.
    pub probe_margins: usize,
    /// Dies of the BIST and die probes of `trace`.
    pub probe_dies: u64,
    /// The figures the figure probe of `trace` times.
    pub probe_figures: &'static [(&'static str, FigureFn)],
}

impl Sizes {
    /// The benchmark's sizes. A Monte-Carlo or ASB operation takes ~0.3 s
    /// and a figures round ~1.8 s, so a run times a dozen or more of them.
    pub fn standard() -> Sizes {
        Sizes {
            mc_nominal_samples: 512,
            mc_skewed_samples: 128,
            asb_dies: 1,
            figures: ROUND,
            probe_margins: 2048,
            probe_dies: 4,
            probe_figures: FIGURES,
        }
    }

    /// Units of work one operation of `w` does.
    pub fn units(&self, w: Workload) -> u64 {
        match w {
            Workload::McNominal => self.mc_nominal_samples,
            Workload::McSkewed => self.mc_skewed_samples,
            Workload::AsbPopulation => self.asb_dies as u64,
            Workload::FiguresQuick => self.figures.len() as u64,
        }
    }
}

/// Run seed of the set-up operation (operation 0). It is the same for
/// every run, so set-up time does not vary with the run seed and its output
/// is checked exactly against the golden on every run.
pub const SETUP_SEED: u64 = 0x5E70_5EED;

/// Seed of operation `k` of a run seeded with `seed`.
pub fn op_seed(seed: u64, k: u64) -> u64 {
    pvtm_stats::rng::splitmix64(pvtm_stats::rng::splitmix64(seed) ^ k)
}

/// Inter-die corner of the `n`-th die of a run seeded with `seed` \[V\]:
/// the `N(0, σ²)` draw `AsbEngine::run_population` makes, but stratified —
/// a Weyl sequence with a seed-drawn start, pushed through the normal
/// quantile — so that every run covers the distribution evenly. A die's
/// cost depends strongly on its corner; independent draws left the median
/// die cost of a run varying by ±7 % between seeds.
fn die_corner(seed: u64, n: u64) -> f64 {
    let start = (pvtm_stats::rng::splitmix64(seed) >> 11) as f64 / (1u64 << 53) as f64;
    let u = (start + n as f64 * 0.618_033_988_749_894_9).fract();
    ASB_SIGMA_INTER * pvtm_stats::special::norm_ppf(u.clamp(1e-12, 1.0 - 1e-12))
}

/// The 70 nm design every workload evaluates.
pub fn baseline() -> (Technology, CellSizing, AnalysisConfig) {
    let tech = Technology::predictive_70nm();
    let sizing = CellSizing::default_for(&tech);
    (tech, sizing, AnalysisConfig::default())
}

/// A built ASB engine and what each build step took.
pub struct EngineBuild {
    /// The engine.
    pub engine: AsbEngine,
    /// Design-time `VSB(opt)` \[V\].
    pub vsb_opt: f64,
    /// Hold-model grid build \[s\].
    pub hold_grid_s: f64,
    /// Standby-leakage grid build \[s\].
    pub leak_grid_s: f64,
    /// `VSB(opt)` search \[s\].
    pub vsb_opt_s: f64,
}

/// The ASB engine as fig8–fig10 build it at quick effort, with the
/// design-time `VSB(opt)`. The three build steps are spans of `tracer`.
///
/// # Errors
///
/// Propagates DC-solver failures of the hold grid and the `VSB(opt)`
/// search.
pub fn build_engine(tracer: &mut Tracer) -> Result<EngineBuild, CircuitError> {
    let (tech, sizing, config) = baseline();
    let corners = linspace(-0.15, 0.15, Effort::quick().corners.clamp(4, 9));
    let vsbs = linspace(VSB_LO, VSB_HI, 10);
    let analyzer = SourceBiasAnalyzer::new(&tech, sizing, config);
    let (hold, hold_grid_s) = tracer.span("core.hold_grid", |_| {
        HoldModelGrid::build(&analyzer, corners.clone(), vsbs.clone())
    });
    let (leak, leak_grid_s) = tracer.span("core.leak_grid", |_| {
        StandbyLeakageGrid::build(&tech, sizing, corners, vsbs, 200)
    });
    let cfg = AsbConfig {
        org: ArrayOrganization::with_capacity_kib(2, 0.05),
        dac: Dac::new(5, VSB_HI),
        march: MarchTest::march_c_minus(),
        use_guard: 0.012,
        backoff_codes: 1,
    };
    let p_cell_target = exp::cell_target_for_memory(&cfg.org, P_HF_TARGET);
    let (vsb_opt, vsb_opt_s) =
        tracer.span("core.vsb_opt", |_| analyzer.max_vsb(0.0, p_cell_target));
    Ok(EngineBuild {
        engine: AsbEngine::new(hold?, leak, cfg),
        vsb_opt: vsb_opt?,
        hold_grid_s,
        leak_grid_s,
        vsb_opt_s,
    })
}

/// A workload's state after set-up.
#[allow(clippy::large_enum_variant)] // one value per run, never moved in a loop
pub enum Prepared {
    /// A failure analyzer sampling at one corner.
    Mc {
        /// The analyzer of the baseline design.
        analyzer: FailureAnalyzer,
        /// Standby conditions at [`MC_VSB`].
        cond: Conditions,
        /// Inter-die corner \[V\].
        corner: f64,
        /// Samples per estimate.
        samples: u64,
    },
    /// An ASB engine and its design-time source bias.
    Asb {
        /// The engine.
        engine: AsbEngine,
        /// `VSB(opt)` \[V\].
        vsb_opt: f64,
        /// Dies per operation.
        dies: usize,
    },
    /// The figures round (each figure builds its own state).
    Figures(&'static [(&'static str, FigureFn)]),
}

/// What one operation produced.
#[derive(Debug, Clone, PartialEq)]
pub enum Output {
    /// A Monte-Carlo estimate (quarantined samples counted as failures).
    Mc {
        /// Estimated failure probability.
        p: f64,
        /// Its standard error.
        se: f64,
        /// Samples the estimator could not resolve.
        quarantined: u64,
    },
    /// `VSB(adaptive)` of each die \[V\] and whether each holds its data.
    Asb {
        /// `VSB(adaptive)` per die.
        vsbs: Vec<f64>,
        /// Dies whose faulty columns at the adaptive bias fit the spares.
        hold_ok: u64,
    },
    /// Each figure's JSON result, or its error.
    Figures(Vec<(&'static str, Result<String, String>)>),
    /// The operation failed before producing anything.
    Error(String),
}

impl Prepared {
    /// Sets workload `w` up at `sizes`.
    ///
    /// # Errors
    ///
    /// Propagates DC-solver failures of the ASB engine build.
    pub fn new(w: Workload, sizes: &Sizes, tracer: &mut Tracer) -> Result<Prepared, String> {
        Ok(match w {
            Workload::McNominal | Workload::McSkewed => {
                let (tech, sizing, config) = baseline();
                Prepared::Mc {
                    analyzer: FailureAnalyzer::new(&tech, sizing, config),
                    cond: Conditions::standby(&tech, MC_VSB),
                    corner: w.corner(),
                    samples: sizes.units(w),
                }
            }
            Workload::AsbPopulation => {
                let built = build_engine(tracer).map_err(|e| e.to_string())?;
                Prepared::Asb {
                    engine: built.engine,
                    vsb_opt: built.vsb_opt,
                    dies: sizes.asb_dies,
                }
            }
            Workload::FiguresQuick => Prepared::Figures(sizes.figures),
        })
    }

    /// Parts of one operation, which a timed run times one by one: one per
    /// figure of a figures round, the whole operation otherwise.
    pub fn parts(&self) -> usize {
        match self {
            Prepared::Figures(figures) => figures.len(),
            _ => 1,
        }
    }

    /// Runs operation `k` of a run seeded with `seed`, all its parts.
    pub fn op(&self, seed: u64, k: u64, tracer: &mut Tracer) -> Output {
        Output::join(
            (0..self.parts())
                .map(|part| self.op_part(seed, k, part, tracer))
                .collect(),
        )
    }

    /// Runs part `part` of operation `k` of a run seeded with `seed`,
    /// recording a span per figure (figures take no input).
    pub fn op_part(&self, seed: u64, k: u64, part: usize, tracer: &mut Tracer) -> Output {
        match self {
            Prepared::Mc {
                analyzer,
                cond,
                corner,
                samples,
            } => match analyzer.failure_prob_mc_quarantined(
                *corner,
                cond,
                *samples,
                op_seed(seed, k),
            ) {
                Ok(est) => Output::Mc {
                    p: est.fail_bound.value,
                    se: est.fail_bound.std_err,
                    quarantined: est.quarantined,
                },
                Err(e) => Output::Error(e.to_string()),
            },
            Prepared::Asb {
                engine,
                vsb_opt,
                dies,
            } => {
                let spares = engine.config().org.redundant_cols;
                let pop: Vec<_> = (0..*dies as u64)
                    .map(|j| {
                        let n = k * *dies as u64 + j;
                        let mut rng = pvtm_stats::rng::substream(op_seed(seed, k), j);
                        engine.evaluate_die(die_corner(seed, n), *vsb_opt, &mut rng)
                    })
                    .collect();
                Output::Asb {
                    vsbs: pop.iter().map(|d| d.vsb_adaptive).collect(),
                    hold_ok: pop.iter().filter(|d| d.hold_ok(spares).2).count() as u64,
                }
            }
            Prepared::Figures(figures) => {
                let (id, f) = figures[part];
                Output::Figures(vec![(id, tracer.span(id, |_| f(Effort::quick())).0)])
            }
        }
    }
}

impl Output {
    /// The output of an operation from those of its parts, in order: the
    /// figures of a round together, the one part of any other operation.
    pub fn join(parts: Vec<Output>) -> Output {
        let mut parts = parts.into_iter();
        let first = parts
            .next()
            .unwrap_or_else(|| Output::Error("an operation without parts".into()));
        parts.fold(first, |joined, part| match (joined, part) {
            (Output::Figures(mut all), Output::Figures(more)) => {
                all.extend(more);
                Output::Figures(all)
            }
            (joined, part) => Output::Error(format!("cannot join {part:?} to {joined:?}")),
        })
    }
}
