//! Array organization, redundancy yield model, and array-leakage
//! statistics.
//!
//! Implements the memory-level math of the paper:
//!
//! - a cell failure makes its column faulty; a chip fails when the number
//!   of faulty columns exceeds the redundant columns (§II),
//! - array leakage is Gaussian by the CLT with `µ_MEM = N·µ_cell` and
//!   `σ_MEM = √N·σ_cell` (Eq. (2)), and the probability of meeting a
//!   leakage bound is `Φ((L_MAX − µ)/σ)` (Eq. (3)).

use crate::leakage::LeakageStats;
use pvtm_stats::special::{norm_cdf, BinomialTail};

/// Physical organization of a memory array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArrayOrganization {
    /// Rows (cells per column).
    pub rows: usize,
    /// Data columns.
    pub cols: usize,
    /// Redundant (spare) columns available for repair.
    pub redundant_cols: usize,
}

impl ArrayOrganization {
    /// Creates an organization.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `cols` is zero.
    pub fn new(rows: usize, cols: usize, redundant_cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "array must have rows and columns");
        Self {
            rows,
            cols,
            redundant_cols,
        }
    }

    /// Conventional organization for a capacity in KiB: 256 rows, the
    /// column count set by the capacity, and a redundancy *fraction* of
    /// the columns (the paper's §IV assumes 5 %).
    ///
    /// # Panics
    ///
    /// Panics if the capacity is zero or the fraction is not in `[0, 1)`.
    ///
    /// # Example
    ///
    /// ```
    /// use pvtm_sram::ArrayOrganization;
    /// let org = ArrayOrganization::with_capacity_kib(64, 0.05);
    /// assert_eq!(org.cells(), 64 * 1024 * 8);
    /// assert_eq!(org.rows, 256);
    /// ```
    pub fn with_capacity_kib(kib: usize, redundancy_frac: f64) -> Self {
        assert!(kib > 0, "capacity must be positive");
        assert!(
            (0.0..1.0).contains(&redundancy_frac),
            "redundancy fraction out of range"
        );
        let cells = kib * 1024 * 8;
        let rows = 256;
        let cols = cells / rows;
        let redundant = (cols as f64 * redundancy_frac).round() as usize;
        Self::new(rows, cols, redundant)
    }

    /// Like [`Self::with_capacity_kib`] but with a fixed number of spare
    /// columns instead of a fraction — the configuration used when
    /// comparing memory sizes at equal repair budget (paper Fig. 2c, where
    /// the larger memory yields worse).
    ///
    /// # Panics
    ///
    /// Panics if the capacity is zero.
    pub fn with_capacity_kib_spares(kib: usize, spares: usize) -> Self {
        assert!(kib > 0, "capacity must be positive");
        let cells = kib * 1024 * 8;
        let rows = 256;
        Self::new(rows, cells / rows, spares)
    }

    /// Total number of data cells.
    pub fn cells(&self) -> usize {
        self.rows * self.cols
    }

    /// Capacity in KiB (8 cells per byte).
    pub fn capacity_kib(&self) -> f64 {
        self.cells() as f64 / 8192.0
    }

    /// Probability that one column is faulty given a per-cell failure
    /// probability: `1 − (1 − p)^rows`, evaluated stably for tiny `p`.
    pub fn column_failure_prob(&self, p_cell: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&p_cell),
            "invalid probability {p_cell}"
        );
        // pvtm-lint: allow(no-float-eq) degenerate probability endpoint has an exact closed form
        if p_cell == 0.0 {
            return 0.0;
        }
        // pvtm-lint: allow(no-float-eq) degenerate probability endpoint has an exact closed form
        if p_cell == 1.0 {
            return 1.0;
        }
        -(self.rows as f64 * (-p_cell).ln_1p()).exp_m1()
    }

    /// Memory failure probability: more faulty columns than spares
    /// (paper's yield model; the complement feeds Eq. (1)).
    pub fn memory_failure_prob(&self, p_cell: f64) -> f64 {
        self.redundancy_model().memory_failure_prob(p_cell)
    }

    /// The redundancy model of this organization, for evaluating
    /// [`Self::memory_failure_prob`] at many cell failure probabilities.
    pub fn redundancy_model(&self) -> RedundancyModel {
        RedundancyModel {
            org: *self,
            tail: BinomialTail::new(self.cols as u64, self.redundant_cols as u64),
        }
    }

    /// Expected number of faulty columns.
    pub fn expected_faulty_columns(&self, p_cell: f64) -> f64 {
        self.cols as f64 * self.column_failure_prob(p_cell)
    }

    /// Expected number of faulty cells in the array.
    pub fn expected_faulty_cells(&self, p_cell: f64) -> f64 {
        self.cells() as f64 * p_cell
    }

    /// Array leakage statistics from per-cell statistics via the CLT
    /// (paper Eq. (2)): mean scales with `N`, sigma with `√N`.
    pub fn leakage_stats(&self, cell: LeakageStats) -> LeakageStats {
        let n = self.cells() as f64;
        LeakageStats {
            mean: n * cell.mean,
            std_dev: n.sqrt() * cell.std_dev,
        }
    }

    /// Probability that the array leakage meets the bound `l_max`
    /// (paper Eq. (3)): `Φ((L_MAX − µ_MEM)/σ_MEM)`.
    pub fn leakage_bound_prob(&self, cell: LeakageStats, l_max: f64) -> f64 {
        let stats = self.leakage_stats(cell);
        // pvtm-lint: allow(no-float-eq) zero spread collapses the bound to a step function
        if stats.std_dev == 0.0 {
            return if stats.mean <= l_max { 1.0 } else { 0.0 };
        }
        norm_cdf((l_max - stats.mean) / stats.std_dev)
    }
}

/// Yield summary of an array evaluated across inter-die corners.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrayYield {
    /// Fraction of dies whose memory is functional (parametric yield).
    pub parametric: f64,
    /// Fraction of dies meeting the leakage bound (`L_Yield`, Eq. (4)).
    pub leakage: f64,
}

/// [`ArrayOrganization::memory_failure_prob`] for one organization at many
/// cell failure probabilities: one [`BinomialTail`] of its `(columns,
/// spares)` pair keeps the binomial coefficients across calls.
#[derive(Debug, Clone)]
pub struct RedundancyModel {
    org: ArrayOrganization,
    tail: BinomialTail,
}

impl RedundancyModel {
    /// [`ArrayOrganization::memory_failure_prob`] at cell failure
    /// probability `p_cell`.
    pub fn memory_failure_prob(&mut self, p_cell: f64) -> f64 {
        let p_col = self.org.column_failure_prob(p_cell);
        self.tail.sf(p_col)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_math() {
        let org = ArrayOrganization::with_capacity_kib(256, 0.05);
        assert_eq!(org.cells(), 256 * 1024 * 8);
        assert!((org.capacity_kib() - 256.0).abs() < 1e-12);
        assert_eq!(
            org.redundant_cols,
            (org.cols as f64 * 0.05).round() as usize
        );
    }

    #[test]
    fn column_failure_prob_limits() {
        let org = ArrayOrganization::new(256, 100, 5);
        assert_eq!(org.column_failure_prob(0.0), 0.0);
        assert_eq!(org.column_failure_prob(1.0), 1.0);
        // Tiny p: p_col ≈ rows·p.
        let p = 1e-9;
        let pc = org.column_failure_prob(p);
        assert!((pc / (256.0 * p) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn memory_failure_monotone_in_cell_prob() {
        let org = ArrayOrganization::with_capacity_kib(64, 0.05);
        let mut model = org.redundancy_model();
        let mut prev = -1.0;
        for &p in &[0.0, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3] {
            let pm = org.memory_failure_prob(p);
            assert!(pm >= prev, "non-monotone at p={p}");
            assert!((0.0..=1.0).contains(&pm));
            assert_eq!(model.memory_failure_prob(p).to_bits(), pm.to_bits());
            prev = pm;
        }
    }

    #[test]
    fn redundancy_improves_survival() {
        let p_cell = 2e-5;
        let none = ArrayOrganization::new(256, 2048, 0).memory_failure_prob(p_cell);
        let some = ArrayOrganization::new(256, 2048, 16).memory_failure_prob(p_cell);
        let more = ArrayOrganization::new(256, 2048, 64).memory_failure_prob(p_cell);
        assert!(some < none);
        assert!(more < some);
    }

    #[test]
    fn bigger_memories_fail_more_at_equal_spares() {
        // Fig. 2c shows 256 KB below 64 KB in yield at equal sigma: at a
        // fixed spare-column budget, the larger array accumulates more
        // faulty columns.
        let p_cell = 1e-6;
        let small = ArrayOrganization::with_capacity_kib_spares(64, 8).memory_failure_prob(p_cell);
        let big = ArrayOrganization::with_capacity_kib_spares(256, 8).memory_failure_prob(p_cell);
        assert!(big > small, "256KB {big:.3e} vs 64KB {small:.3e}");
    }

    #[test]
    fn leakage_stats_scale_by_clt() {
        let org = ArrayOrganization::new(256, 4, 0); // 1024 cells
        let cell = LeakageStats {
            mean: 1e-9,
            std_dev: 5e-10,
        };
        let arr = org.leakage_stats(cell);
        assert!((arr.mean - 1024e-9).abs() < 1e-15);
        assert!((arr.std_dev - 32.0 * 5e-10).abs() < 1e-15);
    }

    #[test]
    fn leakage_bound_prob_behaviour() {
        let org = ArrayOrganization::new(256, 4, 0);
        let cell = LeakageStats {
            mean: 1e-9,
            std_dev: 5e-10,
        };
        let stats = org.leakage_stats(cell);
        // Bound at the mean: 50 %.
        assert!((org.leakage_bound_prob(cell, stats.mean) - 0.5).abs() < 1e-12);
        // Generous bound: ~1; stingy bound: ~0.
        assert!(org.leakage_bound_prob(cell, stats.mean * 2.0) > 0.999);
        assert!(org.leakage_bound_prob(cell, stats.mean * 0.5) < 1e-3);
    }

    #[test]
    fn expected_counts() {
        let org = ArrayOrganization::new(256, 1000, 10);
        let p = 1e-6;
        assert!((org.expected_faulty_cells(p) - 0.256).abs() < 1e-9);
        let efc = org.expected_faulty_columns(p);
        assert!(efc > 0.25 && efc < 0.26);
    }

    #[test]
    #[should_panic(expected = "rows and columns")]
    fn rejects_empty_array() {
        let _ = ArrayOrganization::new(0, 10, 1);
    }
}
