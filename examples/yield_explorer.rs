//! Yield explorer: sweep capacity, redundancy and variation, and print the
//! yield surface for both body-bias policies.
//!
//! ```sh
//! cargo run --release --example yield_explorer [kib] [spares] [sigma_mv]
//! cargo run --release --example yield_explorer 128 16 120
//! ```

use pvtm::interp::linspace;
use pvtm::self_repair::{Policy, SelfRepairConfig, SelfRepairingMemory};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let kib: usize = args.next().map(|a| a.parse()).transpose()?.unwrap_or(64);
    let spares: usize = args.next().map(|a| a.parse()).transpose()?.unwrap_or(32);
    let sigma_mv: f64 = args.next().map(|a| a.parse()).transpose()?.unwrap_or(100.0);

    println!("memory: {kib} KiB, {spares} spare columns, sigma(Vt_inter) = {sigma_mv} mV");
    let memory = SelfRepairingMemory::new(SelfRepairConfig::default_70nm(kib, spares));
    let grid = memory.grid(&linspace(-0.30, 0.30, 13));
    let failure = memory.failure_response(&grid)?;
    let leakage = memory.leakage_response(&grid);
    let sigma = sigma_mv * 1e-3;

    println!("\ncorner response:");
    println!(
        "{:>9} {:>10} {:>8} {:>12} {:>12}",
        "corner", "region", "bias", "p_cell ZBB", "p_cell ABB"
    );
    for p in failure.points() {
        println!(
            "{:>8.0}m {:>10} {:>7.2}V {:>12.2e} {:>12.2e}",
            p.corner * 1e3,
            p.region.to_string(),
            p.bias,
            p.zbb.overall(),
            p.abb.overall()
        );
    }

    let zbb = failure.parametric_yield(sigma, Policy::Zbb);
    let rep = failure.parametric_yield(sigma, Policy::SelfRepair);
    println!(
        "\nparametric yield: ZBB {:.2}%  self-repairing {:.2}%",
        100.0 * zbb,
        100.0 * rep
    );

    let l_max = 2.5 * leakage.array_leak_mean(0.0, Policy::Zbb);
    println!(
        "leakage yield (L_MAX = {:.1} mA): ZBB {:.2}%  self-repairing {:.2}%",
        l_max * 1e3,
        100.0 * leakage.leakage_yield(sigma, l_max, Policy::Zbb),
        100.0 * leakage.leakage_yield(sigma, l_max, Policy::SelfRepair)
    );
    Ok(())
}
