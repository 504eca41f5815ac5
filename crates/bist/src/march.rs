//! March test algorithms.
//!
//! A March test is a sequence of *elements*; each element walks every
//! address in a prescribed order applying a fixed sequence of read/write
//! operations. The classics provided here cover the fault classes of the
//! behavioural memory model: MATS+ (stuck-at), March C− (stuck-at,
//! transition, coupling), March A (linked coupling faults) and March SS
//! (simple static faults).

use crate::memory::{CleanMove, MemoryModel};

/// Address traversal order of a March element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Order {
    /// Ascending addresses.
    Up,
    /// Descending addresses.
    Down,
    /// Any order (implemented as ascending).
    Either,
}

/// A single read/write operation within a March element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Read, expecting 0.
    R0,
    /// Read, expecting 1.
    R1,
    /// Write 0.
    W0,
    /// Write 1.
    W1,
}

/// One March element: an address order plus an operation sequence applied
/// at every address.
#[derive(Debug, Clone, PartialEq)]
pub struct MarchElement {
    /// Traversal order.
    pub order: Order,
    /// Operations applied per address.
    pub ops: Vec<Op>,
}

impl MarchElement {
    /// Creates an element.
    ///
    /// # Panics
    ///
    /// Panics if `ops` is empty.
    pub fn new(order: Order, ops: Vec<Op>) -> Self {
        assert!(!ops.is_empty(), "march element needs operations");
        Self { order, ops }
    }

    /// The element on a clean cell, a plain bit holding `bit`: whether
    /// every read passes, and the bit the cell ends with.
    fn on_plain_bit(&self, mut bit: bool) -> (bool, bool) {
        let mut passes = true;
        for op in &self.ops {
            match op {
                Op::W0 => bit = false,
                Op::W1 => bit = true,
                Op::R0 | Op::R1 => passes &= bit == (*op == Op::R1),
            }
        }
        (passes, bit)
    }

    /// The bulk move of the clean cells that pass this element, or `None`
    /// when a read fails whichever bit a clean cell holds.
    fn clean_move(&self) -> Option<CleanMove> {
        let reads = self
            .ops
            .iter()
            .filter(|op| matches!(op, Op::R0 | Op::R1))
            .count();
        let writes = self.ops.len() - reads;
        let (passes, end) = match (self.on_plain_bit(false), self.on_plain_bit(true)) {
            // Both pass only when the element writes before it reads, so
            // both end with the same bit.
            ((true, end), (true, _)) => (None, end),
            ((true, end), (false, _)) => (Some(false), end),
            ((false, _), (true, end)) => (Some(true), end),
            ((false, _), (false, _)) => return None,
        };
        Some(CleanMove::new(passes, end, reads as u64, writes as u64))
    }

    /// Applies the operations at one address, recording each read
    /// mismatch as a failure of element `ei`.
    fn apply(
        &self,
        ei: usize,
        row: usize,
        col: usize,
        memory: &mut MemoryModel,
        failures: &mut Vec<MarchFailure>,
    ) {
        for (oi, op) in self.ops.iter().enumerate() {
            match op {
                Op::W0 => memory.write(row, col, false),
                Op::W1 => memory.write(row, col, true),
                Op::R0 | Op::R1 => {
                    if memory.read(row, col) != (*op == Op::R1) {
                        failures.push(MarchFailure {
                            row,
                            col,
                            element: ei,
                            op: oi,
                        });
                    }
                }
            }
        }
    }
}

/// A complete March test.
#[derive(Debug, Clone, PartialEq)]
pub struct MarchTest {
    name: String,
    elements: Vec<MarchElement>,
}

/// One detected mismatch: address, element and operation indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MarchFailure {
    /// Failing row.
    pub row: usize,
    /// Failing column.
    pub col: usize,
    /// Index of the March element that caught it.
    pub element: usize,
    /// Index of the operation within the element.
    pub op: usize,
}

/// Result of running a March test.
#[derive(Debug, Clone, PartialEq)]
pub struct MarchResult {
    /// All read mismatches, in detection order.
    pub failures: Vec<MarchFailure>,
    /// Total operations applied.
    pub operations: u64,
}

impl MarchResult {
    /// True when no mismatch was detected.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

impl MarchTest {
    /// Creates a test from elements.
    ///
    /// # Panics
    ///
    /// Panics if `elements` is empty.
    pub fn new(name: &str, elements: Vec<MarchElement>) -> Self {
        assert!(!elements.is_empty(), "march test needs elements");
        Self {
            name: name.to_string(),
            elements,
        }
    }

    /// Test name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The elements.
    pub fn elements(&self) -> &[MarchElement] {
        &self.elements
    }

    /// Operations per cell (the test's complexity, e.g. 10 for March C−).
    pub fn ops_per_cell(&self) -> usize {
        self.elements.iter().map(|e| e.ops.len()).sum()
    }

    /// MATS+: `⇕(w0); ⇑(r0,w1); ⇓(r1,w0)` — 5N, detects stuck-at and
    /// address-decoder faults.
    pub fn mats_plus() -> Self {
        Self::new(
            "MATS+",
            vec![
                MarchElement::new(Order::Either, vec![Op::W0]),
                MarchElement::new(Order::Up, vec![Op::R0, Op::W1]),
                MarchElement::new(Order::Down, vec![Op::R1, Op::W0]),
            ],
        )
    }

    /// March C−: `⇕(w0); ⇑(r0,w1); ⇑(r1,w0); ⇓(r0,w1); ⇓(r1,w0); ⇕(r0)` —
    /// 10N, detects stuck-at, transition and unlinked coupling faults. The
    /// workhorse of the paper's Fig. 7 BIST box.
    pub fn march_c_minus() -> Self {
        Self::new(
            "March C-",
            vec![
                MarchElement::new(Order::Either, vec![Op::W0]),
                MarchElement::new(Order::Up, vec![Op::R0, Op::W1]),
                MarchElement::new(Order::Up, vec![Op::R1, Op::W0]),
                MarchElement::new(Order::Down, vec![Op::R0, Op::W1]),
                MarchElement::new(Order::Down, vec![Op::R1, Op::W0]),
                MarchElement::new(Order::Either, vec![Op::R0]),
            ],
        )
    }

    /// March A: `⇕(w0); ⇑(r0,w1,w0,w1); ⇑(r1,w0,w1); ⇓(r1,w0,w1,w0);
    /// ⇓(r0,w1,w0)` — 15N, detects linked coupling faults.
    pub fn march_a() -> Self {
        Self::new(
            "March A",
            vec![
                MarchElement::new(Order::Either, vec![Op::W0]),
                MarchElement::new(Order::Up, vec![Op::R0, Op::W1, Op::W0, Op::W1]),
                MarchElement::new(Order::Up, vec![Op::R1, Op::W0, Op::W1]),
                MarchElement::new(Order::Down, vec![Op::R1, Op::W0, Op::W1, Op::W0]),
                MarchElement::new(Order::Down, vec![Op::R0, Op::W1, Op::W0]),
            ],
        )
    }

    /// March SS: the 22N simple-static-fault test of Hamdioui et al. —
    /// `⇕(w0); ⇑(r0,r0,w0,r0,w1); ⇑(r1,r1,w1,r1,w0); ⇓(r0,r0,w0,r0,w1);
    /// ⇓(r1,r1,w1,r1,w0); ⇕(r0)`. Detects all simple static faults
    /// including write-disturb and deceptive read-destructive faults.
    pub fn march_ss() -> Self {
        Self::new(
            "March SS",
            vec![
                MarchElement::new(Order::Either, vec![Op::W0]),
                MarchElement::new(Order::Up, vec![Op::R0, Op::R0, Op::W0, Op::R0, Op::W1]),
                MarchElement::new(Order::Up, vec![Op::R1, Op::R1, Op::W1, Op::R1, Op::W0]),
                MarchElement::new(Order::Down, vec![Op::R0, Op::R0, Op::W0, Op::R0, Op::W1]),
                MarchElement::new(Order::Down, vec![Op::R1, Op::R1, Op::W1, Op::R1, Op::W0]),
                MarchElement::new(Order::Either, vec![Op::R0]),
            ],
        )
    }

    /// Runs the test on a memory, returning every read mismatch. Addresses
    /// are row-major: ascending walks rows and columns up, descending walks
    /// both down.
    ///
    /// The walk costs the faulty cells, not the array. A clean cell (see
    /// [`crate::memory`]) is a plain bit that changes no other cell, so
    /// for each element the bits a clean cell may hold without failing a
    /// read are worked out once, and each run of clean cells holding such
    /// a bit, between two cells that need the full model, takes its final
    /// bit in one step, eight cells at a time where a whole word passes.
    /// Every other cell goes through the full access path at its turn in
    /// address order, so failures, counters and stored bits are exactly
    /// those of applying every operation to every cell.
    pub fn run(&self, memory: &mut MemoryModel) -> MarchResult {
        let (cols, n) = (memory.cols(), memory.cells());
        let mut failures = Vec::new();
        for (ei, element) in self.elements.iter().enumerate() {
            let clean = element.clean_move();
            match element.order {
                Order::Up | Order::Either => {
                    let mut next = 0;
                    while next < n {
                        if let Some(clean) = &clean {
                            next = memory.move_clean_up(next, clean);
                        }
                        if next < n {
                            element.apply(ei, next / cols, next % cols, memory, &mut failures);
                            next += 1;
                        }
                    }
                }
                Order::Down => {
                    let mut end = n;
                    while end > 0 {
                        if let Some(clean) = &clean {
                            end = memory.move_clean_down(end, clean);
                        }
                        if end > 0 {
                            end -= 1;
                            element.apply(ei, end / cols, end % cols, memory, &mut failures);
                        }
                    }
                }
            }
        }
        MarchResult {
            failures,
            operations: (self.ops_per_cell() * n) as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::{Fault, FaultKind};

    #[test]
    fn clean_memory_passes_every_test() {
        for test in [
            MarchTest::mats_plus(),
            MarchTest::march_c_minus(),
            MarchTest::march_a(),
        ] {
            let mut m = MemoryModel::new(8, 8);
            let r = test.run(&mut m);
            assert!(r.passed(), "{} reported phantom failures", test.name());
            assert_eq!(
                r.operations,
                (test.ops_per_cell() * 64) as u64,
                "{} operation count",
                test.name()
            );
        }
    }

    #[test]
    fn ops_per_cell_match_literature() {
        assert_eq!(MarchTest::mats_plus().ops_per_cell(), 5);
        assert_eq!(MarchTest::march_c_minus().ops_per_cell(), 10);
        assert_eq!(MarchTest::march_a().ops_per_cell(), 15);
        assert_eq!(MarchTest::march_ss().ops_per_cell(), 22);
    }

    #[test]
    fn march_ss_passes_clean_and_catches_stuck_at() {
        let mut clean = MemoryModel::new(6, 6);
        assert!(MarchTest::march_ss().run(&mut clean).passed());
        let mut m = MemoryModel::new(6, 6);
        m.inject(Fault {
            row: 5,
            col: 0,
            kind: FaultKind::StuckAt(true),
        });
        assert!(!MarchTest::march_ss().run(&mut m).passed());
    }

    #[test]
    fn march_c_detects_every_stuck_at() {
        for value in [false, true] {
            let mut m = MemoryModel::new(4, 4);
            m.inject(Fault {
                row: 2,
                col: 1,
                kind: FaultKind::StuckAt(value),
            });
            let r = MarchTest::march_c_minus().run(&mut m);
            assert!(!r.passed(), "stuck-at-{value} must be caught");
            assert!(r.failures.iter().all(|f| (f.row, f.col) == (2, 1)));
        }
    }

    #[test]
    fn march_c_detects_transition_faults() {
        for kind in [FaultKind::TransitionUp, FaultKind::TransitionDown] {
            let mut m = MemoryModel::new(4, 4);
            m.inject(Fault {
                row: 0,
                col: 3,
                kind,
            });
            let r = MarchTest::march_c_minus().run(&mut m);
            assert!(!r.passed(), "{kind:?} must be caught");
        }
    }

    #[test]
    fn march_c_detects_coupling() {
        let mut m = MemoryModel::new(4, 4);
        // Victim at a lower address than the aggressor.
        m.inject(Fault {
            row: 0,
            col: 1,
            kind: FaultKind::CouplingInv {
                agg_row: 2,
                agg_col: 2,
            },
        });
        let r = MarchTest::march_c_minus().run(&mut m);
        assert!(!r.passed(), "inversion coupling must be caught");
    }

    #[test]
    fn mats_plus_misses_some_coupling_that_march_c_catches() {
        // Not a universal truth for all fault sites, but for this victim /
        // aggressor pair MATS+ (5N) is blind while March C- (10N) is not —
        // the reason the paper's BIST box carries the stronger algorithm.
        let build = || {
            let mut m = MemoryModel::new(4, 4);
            m.inject(Fault {
                row: 3,
                col: 3,
                kind: FaultKind::CouplingInv {
                    agg_row: 0,
                    agg_col: 0,
                },
            });
            m
        };
        let mats = MarchTest::mats_plus().run(&mut build());
        let mc = MarchTest::march_c_minus().run(&mut build());
        assert!(!mc.passed());
        // MATS+ may or may not catch it; assert only the relative strength.
        assert!(mc.failures.len() >= mats.failures.len());
    }

    #[test]
    fn retention_faults_surface_only_at_high_vsb() {
        let mut m = MemoryModel::new(4, 4);
        m.inject(Fault {
            row: 1,
            col: 2,
            kind: FaultKind::Retention { min_vsb: 0.25 },
        });
        let r_low = MarchTest::march_c_minus().run(&mut m);
        assert!(r_low.passed(), "latent retention fault must pass at vsb=0");
        m.set_vsb(0.3);
        let r_high = MarchTest::march_c_minus().run(&mut m);
        assert!(!r_high.passed(), "exposed retention fault must fail");
        assert!(r_high.failures.iter().all(|f| (f.row, f.col) == (1, 2)));
    }

    #[test]
    fn failures_are_attributed_to_elements() {
        let mut m = MemoryModel::new(2, 2);
        m.inject(Fault {
            row: 0,
            col: 0,
            kind: FaultKind::StuckAt(true),
        });
        let r = MarchTest::march_c_minus().run(&mut m);
        // First catch: element 1 (⇑ r0,w1) reads 1 where 0 expected...
        // element 0 is the w0 sweep which cannot detect anything.
        assert!(r.failures.iter().all(|f| f.element > 0));
    }
}
