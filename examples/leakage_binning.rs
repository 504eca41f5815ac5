//! Why the monitor senses the whole array: per-cell leakage distributions
//! overlap across inter-die corners, array-level distributions separate
//! (paper Fig. 3), and comparator offset causes mis-binning only near the
//! region boundaries.
//!
//! ```sh
//! cargo run --release --example leakage_binning
//! ```

use pvtm::monitor::VtRegion;
use pvtm::self_repair::{SelfRepairConfig, SelfRepairingMemory};
use pvtm_device::Technology;
use pvtm_sram::{CellLeakageModel, CellSizing, Conditions};
use pvtm_stats::Summary;

fn main() {
    let tech = Technology::predictive_70nm();
    let model = CellLeakageModel::new(&tech, CellSizing::default_for(&tech));
    let cond = Conditions::active(&tech);

    println!("== per-cell vs per-array leakage separation ==");
    println!(
        "{:>10} {:>22} {:>26}",
        "corner", "cell mean±sd [nA]", "1KB-array mean±sd [uA]"
    );
    for corner in [-0.10, 0.0, 0.10] {
        let mut rng = pvtm_stats::rng::substream(11, (corner * 1e3) as i64 as u64);
        let stats = model.population_stats(corner, &cond, 4000, &mut rng);
        let cells = 8192.0;
        // Eq. (2): mean scales with N, sigma with sqrt(N).
        println!(
            "{:>9.0}m {:>12.1} ± {:>6.1} {:>16.1} ± {:>6.2}",
            corner * 1e3,
            stats.mean * 1e9,
            stats.std_dev * 1e9,
            stats.mean * cells * 1e6,
            stats.std_dev * cells.sqrt() * 1e6
        );
    }
    println!("(cell sigma ~ mean: corners are indistinguishable per cell;");
    println!(" array sigma is ~100x smaller than the corner-to-corner spacing)");

    println!("\n== binning with an ideal and a noisy monitor ==");
    let mut cfg = SelfRepairConfig::default_70nm(64, 102);
    cfg.monitor_offset_sigma = 0.03;
    let memory = SelfRepairingMemory::new(cfg);
    let mut rng = pvtm_stats::rng::substream(13, 0);
    for corner in [-0.10, -0.055, -0.05, 0.0, 0.05, 0.055, 0.10] {
        let leak = memory.die_leakage(corner, 0.0);
        let ideal = memory.binner().classify_ideal(leak);
        // Repeat the noisy decision to expose boundary ambiguity.
        let mut counts = [0usize; 3];
        for _ in 0..200 {
            match memory.binner().classify(leak, &mut rng) {
                VtRegion::LowVt => counts[0] += 1,
                VtRegion::Nominal => counts[1] += 1,
                VtRegion::HighVt => counts[2] += 1,
            }
        }
        println!(
            "corner {corner:+.3} V: ideal {ideal:<12} noisy A/B/C = {:>3}/{:>3}/{:>3}",
            counts[0], counts[1], counts[2]
        );
    }

    println!("\n== the CLT at work: array leakage is Gaussian ==");
    let mut rng = pvtm_stats::rng::substream(17, 0);
    let corner = model.at_corner(0.0, &cond);
    let mut cells = vec![0.0; 2048];
    let arrays: Vec<f64> = (0..300)
        .map(|_| {
            corner.fill(&mut cells, &mut rng);
            cells.iter().sum::<f64>()
        })
        .collect();
    let s = Summary::from_slice(&arrays);
    let ks = pvtm_stats::ks::ks_test(&arrays, |x| {
        pvtm_stats::special::norm_cdf((x - s.mean()) / s.std_dev())
    });
    println!(
        "2048-cell array sums: KS statistic {:.3}, p = {:.3} (Gaussian {})",
        ks.statistic,
        ks.p_value,
        if ks.accepts(0.01) {
            "accepted"
        } else {
            "rejected"
        }
    );
}
