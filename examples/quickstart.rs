//! Quickstart: a tour of the stack in under a minute.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use pvtm_device::{Bias, Mosfet, Technology};
use pvtm_sram::{AnalysisConfig, CellEvaluator, CellSizing, Conditions, FailureAnalyzer, SramCell};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A predictive 70 nm technology card and a device.
    let tech = Technology::predictive_70nm();
    let nmos = Mosfet::nmos(&tech, 200e-9, tech.lmin());
    let on = nmos.ids(Bias::new(tech.vdd(), tech.vdd(), 0.0, 0.0), tech.temp_k());
    let off = nmos.ids(Bias::new(0.0, tech.vdd(), 0.0, 0.0), tech.temp_k());
    println!(
        "NMOS 200n/70n: Ion = {:.1} uA, Ioff = {:.2} nA, Ion/Ioff = {:.0}",
        on * 1e6,
        off * 1e9,
        on / off
    );

    // 2. A 6T cell and its four failure-metric margins.
    let cell = SramCell::nominal(&tech);
    let mut ev = CellEvaluator::new(AnalysisConfig::default(), &cell);
    let margins = ev.margins(&Conditions::standby(&tech, 0.5))?;
    println!("\nnominal cell margins (hold at VSB = 0.5 V):");
    println!("  read   {:+.3} V", margins.read);
    println!("  write  {:+.3} (ln T_WL/t_wr)", margins.write);
    println!("  access {:+.3} (ln T_MAX/t_acc)", margins.access);
    println!("  hold   {:+.3} (ln allowed/actual droop)", margins.hold);

    // 3. Failure probabilities at three inter-die corners.
    let fa = FailureAnalyzer::new(
        &tech,
        CellSizing::default_for(&tech),
        AnalysisConfig::default(),
    );
    println!("\ncell failure probabilities across corners:");
    for corner in [-0.1, 0.0, 0.1] {
        let p = fa.failure_probs(corner, &Conditions::standby(&tech, 0.5))?;
        println!(
            "  Vt_inter {corner:+.2} V: overall {:.2e} (dominant: {})",
            p.overall(),
            p.dominant()
        );
    }

    // 4. Body bias moves the balance — the knob the self-repairing
    //    memory turns.
    let rbb = fa.failure_probs(-0.1, &Conditions::standby(&tech, 0.5).with_body_bias(-0.45))?;
    let fbb = fa.failure_probs(0.1, &Conditions::standby(&tech, 0.5).with_body_bias(0.45))?;
    println!("\nafter adaptive body bias:");
    println!("  low-Vt die + RBB:  overall {:.2e}", rbb.overall());
    println!("  high-Vt die + FBB: overall {:.2e}", fbb.overall());
    Ok(())
}
