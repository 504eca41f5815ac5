//! Regenerates every figure of the paper's evaluation.
//!
//! Run all: `cargo bench --bench figures`
//! Run one: `cargo bench --bench figures -- fig2a`
//! Quick pass: `PVTM_EFFORT=quick cargo bench --bench figures`
//!
//! Results are printed as tables and written to `results/<id>.json` at the
//! repository root, plus one JSONL record per figure in
//! `results/figures.jsonl`; a relative `PVTM_RESULTS_DIR` is also taken
//! from the repository root. With `PVTM_TELEMETRY=full` each figure also
//! writes a `results/<id>.telemetry.json` sidecar (spans, solver counters,
//! Monte-Carlo convergence traces); `PVTM_QUIET=1` suppresses the
//! human-readable tables.

use pvtm::experiments as exp;
use pvtm_bench::{effort_from_env, Reporter};

fn wants(filter: &Option<String>, id: &str) -> bool {
    filter.as_deref().is_none_or(|f| id.contains(f))
}

fn main() {
    // Cargo runs benches in the package directory; resolve `results/`
    // against the repository root instead.
    std::env::set_current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
        .expect("the repository root is readable");
    // Criterion-style CLI compatibility: ignore --bench and take the first
    // free argument as a substring filter.
    let filter: Option<String> = std::env::args().skip(1).find(|a| !a.starts_with("--"));
    let effort = effort_from_env();
    // Deterministic fault injection (PVTM_FAULT_SEED / PVTM_FAULT_RATE);
    // off unless both are set.
    pvtm_telemetry::fault::init_from_env();
    let mut rep = Reporter::new();
    println!(
        "== pvtm figure reproduction (effort: {effort:?}, telemetry: {}) ==\n",
        pvtm_telemetry::mode().as_str()
    );

    let mut fig2c_result = None;
    let mut fig10_result = None;

    if wants(&filter, "fig2a") {
        rep.figure("fig2a", || exp::fig2a(effort).expect("fig2a failed"));
    }
    if wants(&filter, "fig2b") {
        rep.figure("fig2b", || exp::fig2b(effort).expect("fig2b failed"));
    }
    if wants(&filter, "fig2c") || wants(&filter, "headline") {
        fig2c_result = Some(rep.figure("fig2c", || exp::fig2c(effort).expect("fig2c failed")));
    }
    if wants(&filter, "fig3") {
        rep.figure("fig3", || exp::fig3(effort));
    }
    if wants(&filter, "fig4b") {
        rep.figure("fig4b", || exp::fig4b(effort).expect("fig4b failed"));
    }
    if wants(&filter, "fig5a") {
        rep.figure("fig5a", || exp::fig5a(effort));
    }
    if wants(&filter, "fig5b") {
        rep.figure("fig5b", || exp::fig5b(effort).expect("fig5b failed"));
    }
    if wants(&filter, "fig5c") {
        rep.figure("fig5c", || exp::fig5c(effort).expect("fig5c failed"));
    }
    if wants(&filter, "fig6") {
        rep.figure("fig6", || exp::fig6(effort).expect("fig6 failed"));
    }
    if wants(&filter, "fig8") {
        rep.figure("fig8", || exp::fig8(effort).expect("fig8 failed"));
    }
    if wants(&filter, "fig9") {
        rep.figure("fig9", || exp::fig9(effort).expect("fig9 failed"));
    }
    if wants(&filter, "fig10") || wants(&filter, "headline") {
        fig10_result = Some(rep.figure("fig10", || exp::fig10(effort).expect("fig10 failed")));
    }
    if let (Some(f2c), Some(f10)) = (&fig2c_result, &fig10_result) {
        rep.figure("headline", || exp::headline(f2c, f10));
    }

    // Ablations of the design choices (DESIGN.md §6).
    if wants(&filter, "ablation-monitor") {
        rep.figure("ablation-monitor", || {
            exp::ablation_monitor(effort).expect("ablation-monitor failed")
        });
    }
    if wants(&filter, "ablation-dac") {
        rep.figure("ablation-dac", || {
            exp::ablation_dac(effort).expect("ablation-dac failed")
        });
    }
    if wants(&filter, "ablation-bias") {
        rep.figure("ablation-bias", || {
            exp::ablation_bias_levels(effort).expect("ablation-bias failed")
        });
    }
    if wants(&filter, "ablation-march") {
        rep.figure("ablation-march", || exp::ablation_march(effort));
    }
    if wants(&filter, "scaling") {
        rep.figure("scaling", || exp::scaling(effort).expect("scaling failed"));
    }
    if wants(&filter, "ablation-temperature") {
        rep.figure("ablation-temperature", || exp::ablation_temperature(effort));
    }
    rep.finish();
    println!("done; JSON written to {}", exp::results_dir().display());
}
