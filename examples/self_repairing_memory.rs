//! The self-repairing SRAM end to end: monitor a die population, bin by
//! leakage, apply body bias, and compare yields (paper §III).
//!
//! ```sh
//! cargo run --release --example self_repairing_memory
//! ```

use pvtm::interp::linspace;
use pvtm::self_repair::{Policy, SelfRepairConfig, SelfRepairingMemory};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let memory = SelfRepairingMemory::new(SelfRepairConfig::default_70nm(64, 102));

    println!("== leakage-monitor binning ==");
    for corner in [-0.15, -0.08, 0.0, 0.08, 0.15] {
        let leak = memory.die_leakage(corner, 0.0);
        let region = memory.classify(corner);
        let bias = memory.applied_bias(corner);
        println!(
            "die at Vt_inter {corner:+.2} V: array leakage {:>8.2} uA -> {region} -> Vbb {bias:+.2} V",
            leak * 1e6
        );
    }

    println!("\ncomputing the corner response (a few seconds)...");
    let grid = memory.grid(&linspace(-0.30, 0.30, 13));
    let failure = memory.failure_response(&grid)?;
    let leakage = memory.leakage_response(&grid);

    println!("\n== cell failure probability across corners ==");
    for &corner in &[-0.2, -0.1, 0.0, 0.1, 0.2] {
        println!(
            "  {corner:+.2} V: ZBB {:.2e}   self-repaired {:.2e}",
            failure.p_cell(corner, Policy::Zbb),
            failure.p_cell(corner, Policy::SelfRepair)
        );
    }

    println!("\n== parametric yield (Eq. 1) ==");
    for &sigma in &[0.05, 0.10, 0.15] {
        let zbb = failure.parametric_yield(sigma, Policy::Zbb);
        let rep = failure.parametric_yield(sigma, Policy::SelfRepair);
        println!(
            "  sigma {:.0} mV: ZBB {:.1}%  self-repairing {:.1}%  ({:+.1} pp)",
            sigma * 1e3,
            100.0 * zbb,
            100.0 * rep,
            100.0 * (rep - zbb)
        );
    }

    println!("\n== leakage yield (Eqs. 3-4) ==");
    let l_max = 2.5 * leakage.array_leak_mean(0.0, Policy::Zbb);
    for &sigma in &[0.05, 0.10, 0.15] {
        println!(
            "  sigma {:.0} mV: ZBB {:.1}%  self-repairing {:.1}%",
            sigma * 1e3,
            100.0 * leakage.leakage_yield(sigma, l_max, Policy::Zbb),
            100.0 * leakage.leakage_yield(sigma, l_max, Policy::SelfRepair)
        );
    }
    Ok(())
}
