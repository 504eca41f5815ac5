//! Oracle test for the byte-per-cell `MemoryModel`.
//!
//! `ReferenceMemory` below is the memory model as it was before cells
//! carried flags: a `Vec<bool>` of data and every access resolved through
//! the fault maps. `reference_march` is the March runner of that time,
//! addressing through `addr / cols, addr % cols`, one access at a time.
//! Both are kept unchanged as the specification; the property test
//! requires the library model and `MarchTest::run`, which moves runs of
//! clean cells in bulk, to agree with them exactly, on the library's
//! marches and on random ones, and so does a full-size calibration sweep
//! of an ASB die.

use std::collections::BTreeMap;

use proptest::prelude::*;
use pvtm_bist::march::{MarchElement, MarchFailure, MarchResult, MarchTest, Op, Order};
use pvtm_bist::memory::{Fault, FaultKind, MemoryModel};
use pvtm_bist::Dac;

/// The map-only memory model.
#[derive(Debug, Clone)]
struct ReferenceMemory {
    rows: usize,
    cols: usize,
    data: Vec<bool>,
    faults: BTreeMap<(usize, usize), Vec<FaultKind>>,
    /// victim lists per aggressor cell.
    coupling: BTreeMap<(usize, usize), Vec<(usize, usize)>>,
    vsb: f64,
    reads: u64,
    writes: u64,
}

impl ReferenceMemory {
    fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "memory must have rows and columns");
        Self {
            rows,
            cols,
            data: vec![false; rows * cols],
            faults: BTreeMap::new(),
            coupling: BTreeMap::new(),
            vsb: 0.0,
            reads: 0,
            writes: 0,
        }
    }

    fn inject(&mut self, fault: Fault) {
        assert!(
            fault.row < self.rows && fault.col < self.cols,
            "fault location ({}, {}) out of bounds",
            fault.row,
            fault.col
        );
        if let FaultKind::CouplingInv { agg_row, agg_col } = fault.kind {
            assert!(
                agg_row < self.rows && agg_col < self.cols,
                "aggressor ({agg_row}, {agg_col}) out of bounds"
            );
            self.coupling
                .entry((agg_row, agg_col))
                .or_default()
                .push((fault.row, fault.col));
        }
        if let FaultKind::AddressAlias { to_row, to_col } = fault.kind {
            assert!(
                to_row < self.rows && to_col < self.cols,
                "alias target ({to_row}, {to_col}) out of bounds"
            );
            assert!(
                (to_row, to_col) != (fault.row, fault.col),
                "alias must point elsewhere"
            );
        }
        self.faults
            .entry((fault.row, fault.col))
            .or_default()
            .push(fault.kind);
    }

    fn fault_count(&self) -> usize {
        self.faults.values().map(Vec::len).sum()
    }

    fn set_vsb(&mut self, vsb: f64) {
        assert!(vsb.is_finite() && vsb >= 0.0, "invalid vsb {vsb}");
        self.vsb = vsb;
        // Standby decay of exposed cells.
        let decayed: Vec<(usize, usize)> = self
            .faults
            .iter()
            .filter(|((_, _), kinds)| {
                kinds
                    .iter()
                    .any(|k| matches!(k, FaultKind::Retention { min_vsb } if vsb >= *min_vsb))
            })
            .map(|(&loc, _)| loc)
            .collect();
        for (r, c) in decayed {
            self.data[r * self.cols + c] = false;
        }
    }

    fn idx(&self, row: usize, col: usize) -> usize {
        debug_assert!(row < self.rows && col < self.cols);
        row * self.cols + col
    }

    fn resolve(&self, row: usize, col: usize) -> (usize, usize) {
        if let Some(kinds) = self.faults.get(&(row, col)) {
            for k in kinds {
                if let FaultKind::AddressAlias { to_row, to_col } = k {
                    return (*to_row, *to_col);
                }
            }
        }
        (row, col)
    }

    fn write(&mut self, row: usize, col: usize, value: bool) {
        assert!(row < self.rows && col < self.cols, "address out of bounds");
        self.writes += 1;
        let (row, col) = self.resolve(row, col);
        let old = self.data[self.idx(row, col)];
        let mut new = value;
        if let Some(kinds) = self.faults.get(&(row, col)) {
            for k in kinds {
                match k {
                    FaultKind::StuckAt(v) => new = *v,
                    FaultKind::TransitionUp if !old && value => new = old,
                    FaultKind::TransitionDown if old && !value => new = old,
                    _ => {}
                }
            }
        }
        let i = self.idx(row, col);
        let transitioned = self.data[i] != new;
        self.data[i] = new;
        // Retention faults swallow a freshly written 1 at high bias.
        if new && self.retention_exposed(row, col) {
            self.data[i] = false;
        }
        if transitioned {
            self.fire_coupling(row, col);
        }
    }

    fn read(&mut self, row: usize, col: usize) -> bool {
        assert!(row < self.rows && col < self.cols, "address out of bounds");
        self.reads += 1;
        let (row, col) = self.resolve(row, col);
        let i = self.idx(row, col);
        if self.data[i] && self.retention_exposed(row, col) {
            self.data[i] = false;
        }
        let mut v = self.data[i];
        if let Some(kinds) = self.faults.get(&(row, col)) {
            for k in kinds {
                if let FaultKind::StuckAt(s) = k {
                    v = *s;
                }
            }
        }
        v
    }

    fn retention_exposed(&self, row: usize, col: usize) -> bool {
        self.faults
            .get(&(row, col))
            .map(|kinds| {
                kinds
                    .iter()
                    .any(|k| matches!(k, FaultKind::Retention { min_vsb } if self.vsb >= *min_vsb))
            })
            .unwrap_or(false)
    }

    fn fire_coupling(&mut self, row: usize, col: usize) {
        if let Some(victims) = self.coupling.get(&(row, col)).cloned() {
            for (vr, vc) in victims {
                let i = self.idx(vr, vc);
                self.data[i] = !self.data[i];
            }
        }
    }
}

/// The March runner over flat addresses.
fn reference_march(test: &MarchTest, memory: &mut ReferenceMemory) -> MarchResult {
    let rows = memory.rows;
    let cols = memory.cols;
    let n = rows * cols;
    let mut failures = Vec::new();
    let mut operations = 0u64;
    for (ei, element) in test.elements().iter().enumerate() {
        let addresses: Box<dyn Iterator<Item = usize>> = match element.order {
            Order::Up | Order::Either => Box::new(0..n),
            Order::Down => Box::new((0..n).rev()),
        };
        for addr in addresses {
            let (row, col) = (addr / cols, addr % cols);
            for (oi, op) in element.ops.iter().enumerate() {
                operations += 1;
                match op {
                    Op::W0 => memory.write(row, col, false),
                    Op::W1 => memory.write(row, col, true),
                    Op::R0 | Op::R1 => {
                        let expected = matches!(op, Op::R1);
                        if memory.read(row, col) != expected {
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
    MarchResult {
        failures,
        operations,
    }
}

/// The library model and the reference, driven in lockstep.
struct Pair {
    fast: MemoryModel,
    slow: ReferenceMemory,
}

impl Pair {
    fn new(rows: usize, cols: usize) -> Self {
        Self {
            fast: MemoryModel::new(rows, cols),
            slow: ReferenceMemory::new(rows, cols),
        }
    }

    fn inject(&mut self, fault: Fault) {
        self.fast.inject(fault);
        self.slow.inject(fault);
    }

    fn set_vsb(&mut self, vsb: f64) {
        self.fast.set_vsb(vsb);
        self.slow.set_vsb(vsb);
    }

    fn write(&mut self, row: usize, col: usize, value: bool) {
        self.fast.write(row, col, value);
        self.slow.write(row, col, value);
    }

    fn read(&mut self, row: usize, col: usize) -> Result<bool, TestCaseError> {
        agree(
            &format!("read ({row}, {col})"),
            self.fast.read(row, col),
            self.slow.read(row, col),
        )
    }

    fn march(&mut self, test: &MarchTest) -> Result<MarchResult, TestCaseError> {
        agree(
            test.name(),
            test.run(&mut self.fast),
            reference_march(test, &mut self.slow),
        )
    }

    fn counters(&self) -> Result<(), TestCaseError> {
        agree(
            "reads, writes, faults",
            (
                self.fast.read_count(),
                self.fast.write_count(),
                self.fast.fault_count(),
            ),
            (self.slow.reads, self.slow.writes, self.slow.fault_count()),
        )
        .map(drop)
    }
}

fn agree<T: PartialEq + std::fmt::Debug>(what: &str, fast: T, slow: T) -> Result<T, TestCaseError> {
    if fast == slow {
        Ok(fast)
    } else {
        Err(TestCaseError(format!(
            "{what}: model {fast:?}, reference {slow:?}"
        )))
    }
}

/// All four March tests of the library.
fn marches() -> [MarchTest; 4] {
    [
        MarchTest::mats_plus(),
        MarchTest::march_c_minus(),
        MarchTest::march_a(),
        MarchTest::march_ss(),
    ]
}

#[derive(Debug, Clone, Copy)]
enum Step {
    Inject(Fault),
    SetVsb(f64),
    Read(usize, usize),
    Write(usize, usize, bool),
    /// Index into [`Case::tests`].
    March(usize),
}

#[derive(Debug, Clone)]
struct Case {
    rows: usize,
    cols: usize,
    /// The four of [`marches`], then one to three random ones.
    tests: Vec<MarchTest>,
    steps: Vec<Step>,
}

/// Random shapes up to 40 × 40, so flat lengths span many 8-cell words
/// and end in ragged tails, with a soup of every fault kind, mixed with
/// bias moves, raw accesses and March tests.
struct Cases;

/// Draws for one case. Three quarters of all fault sites, aggressors,
/// alias targets and accesses land on a few hot cells, so cells with
/// several faults, victims that are also aggressors and aliases onto
/// faulty cells are common.
struct Draw<'a> {
    rng: &'a mut TestRng,
    rows: usize,
    cols: usize,
    hot: Vec<(usize, usize)>,
}

impl Draw<'_> {
    fn below(&mut self, n: usize) -> usize {
        (self.rng.next_u64() % n as u64) as usize
    }

    fn any_cell(&mut self) -> (usize, usize) {
        (self.below(self.rows), self.below(self.cols))
    }

    fn site(&mut self) -> (usize, usize) {
        if self.below(4) < 3 {
            let i = self.below(self.hot.len());
            self.hot[i]
        } else {
            self.any_cell()
        }
    }

    /// A bias on a 0.1 V grid, so retention thresholds are hit exactly.
    fn vsb(&mut self) -> f64 {
        self.below(6) as f64 * 0.1
    }

    /// A random fault; `None` when an alias drew its own cell.
    fn fault(&mut self) -> Option<Fault> {
        let (row, col) = self.site();
        let kind = match self.below(6) {
            0 => FaultKind::StuckAt(self.below(2) == 1),
            1 => FaultKind::TransitionUp,
            2 => FaultKind::TransitionDown,
            3 => {
                let (agg_row, agg_col) = self.site();
                FaultKind::CouplingInv { agg_row, agg_col }
            }
            4 => FaultKind::Retention {
                min_vsb: self.vsb(),
            },
            _ => {
                let (to_row, to_col) = self.site();
                if (to_row, to_col) == (row, col) {
                    return None;
                }
                FaultKind::AddressAlias { to_row, to_col }
            }
        };
        Some(Fault { row, col, kind })
    }

    /// A random March test: 1–6 elements in any order, each of 1–5
    /// operations, so read-first, read-only and self-contradicting
    /// elements all occur.
    fn march(&mut self) -> MarchTest {
        let mut elements = Vec::new();
        for _ in 0..1 + self.below(6) {
            let order = [Order::Up, Order::Down, Order::Either][self.below(3)];
            let ops = (0..1 + self.below(5))
                .map(|_| [Op::R0, Op::R1, Op::W0, Op::W1][self.below(4)])
                .collect();
            elements.push(MarchElement::new(order, ops));
        }
        MarchTest::new("random", elements)
    }

    fn step(&mut self, tests: usize) -> Option<Step> {
        Some(match self.below(16) {
            0..=1 => Step::Inject(self.fault()?),
            2..=4 => Step::SetVsb(self.vsb()),
            5..=9 => {
                let (row, col) = self.site();
                Step::Read(row, col)
            }
            10..=14 => {
                let (row, col) = self.site();
                Step::Write(row, col, self.below(2) == 1)
            }
            _ => Step::March(self.below(tests)),
        })
    }
}

impl Strategy for Cases {
    type Value = Case;

    fn generate(&self, rng: &mut TestRng) -> Case {
        let rows = 1 + (rng.next_u64() % 40) as usize;
        let cols = 1 + (rng.next_u64() % 40) as usize;
        let mut draw = Draw {
            rng,
            rows,
            cols,
            hot: Vec::new(),
        };
        draw.hot = (0..1 + draw.below(4)).map(|_| draw.any_cell()).collect();
        let mut tests = marches().to_vec();
        for _ in 0..1 + draw.below(3) {
            tests.push(draw.march());
        }
        let faults = draw.below(13);
        let mut steps: Vec<Step> = (0..faults)
            .filter_map(|_| draw.fault().map(Step::Inject))
            .collect();
        let script = draw.below(48);
        steps.extend((0..script).filter_map(|_| draw.step(tests.len())));
        Case {
            rows,
            cols,
            tests,
            steps,
        }
    }
}

const CASES: u32 = 256;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn byte_state_model_matches_the_reference(case in Cases) {
        let tests = &case.tests;
        let mut pair = Pair::new(case.rows, case.cols);
        for step in &case.steps {
            match *step {
                Step::Inject(fault) => pair.inject(fault),
                Step::SetVsb(vsb) => pair.set_vsb(vsb),
                Step::Read(row, col) => {
                    pair.read(row, col)?;
                }
                Step::Write(row, col, value) => pair.write(row, col, value),
                Step::March(t) => {
                    pair.march(&tests[t])?;
                }
            }
            pair.counters()?;
        }
        for test in tests {
            pair.march(test)?;
        }
        for row in 0..case.rows {
            for col in 0..case.cols {
                pair.read(row, col)?;
            }
        }
        pair.counters()?;
    }
}

#[test]
fn swallowed_write_to_an_exposed_aggressor_still_flips_its_victims() {
    let mut pair = Pair::new(2, 2);
    pair.inject(Fault {
        row: 0,
        col: 0,
        kind: FaultKind::Retention { min_vsb: 0.2 },
    });
    pair.inject(Fault {
        row: 1,
        col: 1,
        kind: FaultKind::CouplingInv {
            agg_row: 0,
            agg_col: 0,
        },
    });
    pair.set_vsb(0.3);
    pair.write(0, 0, true);
    // The 1 is swallowed ...
    assert!(!pair.read(0, 0).unwrap());
    // ... but the write was a 0 -> 1 transition, so the victim inverted.
    assert!(pair.read(1, 1).unwrap());
    // The aggressor still holds 0, so the next write of 1 inverts it again.
    pair.write(0, 0, true);
    assert!(!pair.read(1, 1).unwrap());
    pair.counters().unwrap();
}

/// Whether a plain bit holding `bit` fails a read of `element`, asked of
/// a one-cell reference memory.
fn plain_bit_fails(element: &MarchElement, bit: bool) -> bool {
    let mut cell = ReferenceMemory::new(1, 1);
    cell.write(0, 0, bit);
    !reference_march(
        &MarchTest::new("one element", vec![element.clone()]),
        &mut cell,
    )
    .passed()
}

/// Whether the byte model leaves a cell of `memory` clean: no stuck-at,
/// transition or alias fault, no aggressor, and no retention fault
/// exposed at the current bias. A coupling victim stays clean.
fn is_clean(memory: &ReferenceMemory, row: usize, col: usize) -> bool {
    let exposed_or_faulty = memory.faults.get(&(row, col)).is_some_and(|kinds| {
        kinds.iter().any(|k| match *k {
            FaultKind::Retention { min_vsb } => memory.vsb >= min_vsb,
            FaultKind::CouplingInv { .. } => false,
            _ => true,
        })
    });
    !exposed_or_faulty && !memory.coupling.contains_key(&(row, col))
}

/// Whether some March run of the case reaches a clean cell that holds the
/// bit a read flags, in an element that the other bit passes: a cell the
/// bulk walk must hand to the full access path.
fn a_clean_cell_is_flagged(case: &Case) -> bool {
    let mut memory = ReferenceMemory::new(case.rows, case.cols);
    let mut flagged = false;
    let mut march = |memory: &mut ReferenceMemory, test: &MarchTest| {
        let failures = reference_march(test, memory).failures;
        flagged |= failures.iter().any(|f| {
            let element = &test.elements()[f.element];
            is_clean(memory, f.row, f.col)
                && !(plain_bit_fails(element, false) && plain_bit_fails(element, true))
        });
    };
    for step in &case.steps {
        match *step {
            Step::Inject(fault) => memory.inject(fault),
            Step::SetVsb(vsb) => memory.set_vsb(vsb),
            Step::Read(row, col) => {
                memory.read(row, col);
            }
            Step::Write(row, col, value) => memory.write(row, col, value),
            Step::March(t) => march(&mut memory, &case.tests[t]),
        }
    }
    for test in &case.tests {
        march(&mut memory, test);
    }
    flagged
}

/// The proptest's own cases (same name-derived seed) contain every soup
/// the oracle is meant to cover, not just by luck of one draw.
#[test]
fn the_proptest_cases_cover_the_named_fault_soups() {
    let mut rng = TestRng::deterministic("byte_state_model_matches_the_reference");
    let mut seen = BTreeMap::<&str, u32>::new();
    for _ in 0..CASES {
        let case = Cases.generate(&mut rng);
        let mut faults: Vec<Fault> = Vec::new();
        let mut last_vsb: Option<f64> = None;
        let mut flags = Vec::new();
        for step in &case.steps {
            match *step {
                Step::Inject(f) => {
                    if last_vsb.is_some() {
                        flags.push("fault injected after set_vsb");
                    }
                    faults.push(f);
                }
                Step::SetVsb(v) => {
                    if last_vsb.is_some_and(|old| v < old) {
                        flags.push("vsb moved down");
                    }
                    last_vsb = Some(v);
                }
                _ => {}
            }
        }
        let at = |cell: (usize, usize)| faults.iter().filter(|f| (f.row, f.col) == cell).count();
        for f in &faults {
            if at((f.row, f.col)) >= 2 {
                flags.push("several faults on one cell");
            }
            match f.kind {
                FaultKind::CouplingInv { .. } => {
                    let victim_aggresses = faults.iter().any(|g| {
                        matches!(g.kind, FaultKind::CouplingInv { agg_row, agg_col }
                            if (agg_row, agg_col) == (f.row, f.col))
                    });
                    if victim_aggresses {
                        flags.push("a victim that is also an aggressor");
                    }
                }
                FaultKind::AddressAlias { to_row, to_col } if at((to_row, to_col)) > 0 => {
                    flags.push("an alias whose target is faulty");
                }
                _ => {}
            }
        }
        let elements = || case.tests.iter().flat_map(MarchTest::elements);
        if elements().any(|e| plain_bit_fails(e, false) && plain_bit_fails(e, true)) {
            flags.push("an element that no clean value passes");
        }
        if case.rows * case.cols >= 64 {
            flags.push("an array of at least 64 cells");
        }
        if a_clean_cell_is_flagged(&case) {
            flags.push("a March run reaching a clean cell that holds a flagged bit");
        }
        flags.sort_unstable();
        flags.dedup();
        for flag in flags {
            *seen.entry(flag).or_default() += 1;
        }
    }
    for flag in [
        "fault injected after set_vsb",
        "vsb moved down",
        "several faults on one cell",
        "a victim that is also an aggressor",
        "an alias whose target is faulty",
        "an element that no clean value passes",
        "an array of at least 64 cells",
        "a March run reaching a clean cell that holds a flagged bit",
    ] {
        let n = seen.get(flag).copied().unwrap_or(0);
        assert!(
            n >= CASES / 4,
            "only {n} of {CASES} cases have {flag}: {seen:?}"
        );
    }
}

/// The calibration loop of an ASB die at full size: the 256 × 64 cells of
/// the 2 KB array with ~850 retention faults spread over the DAC's upper
/// range and a few stuck-at, coupling and alias faults, March C− at each
/// of the 32 codes of a 5-bit DAC to 0.74 V, then each library march once.
#[test]
fn a_full_size_calibration_sweep_matches_the_reference() {
    let (rows, cols) = (256, 64);
    let mut rng = TestRng::deterministic("a_full_size_calibration_sweep_matches_the_reference");
    let mut cell = || {
        let i = (rng.next_u64() % (rows * cols) as u64) as usize;
        (i / cols, i % cols)
    };
    let mut faults = Vec::new();
    for i in 0..850 {
        let (row, col) = cell();
        let min_vsb = 0.30 + 0.44 * (i as f64 + 0.5) / 850.0;
        faults.push(Fault {
            row,
            col,
            kind: FaultKind::Retention { min_vsb },
        });
    }
    for bit in [false, true] {
        let (row, col) = cell();
        faults.push(Fault {
            row,
            col,
            kind: FaultKind::StuckAt(bit),
        });
    }
    for _ in 0..3 {
        let ((row, col), (agg_row, agg_col)) = (cell(), cell());
        faults.push(Fault {
            row,
            col,
            kind: FaultKind::CouplingInv { agg_row, agg_col },
        });
    }
    for _ in 0..2 {
        let ((row, col), (to_row, to_col)) = (cell(), cell());
        if (row, col) != (to_row, to_col) {
            faults.push(Fault {
                row,
                col,
                kind: FaultKind::AddressAlias { to_row, to_col },
            });
        }
    }
    let mut pair = Pair::new(rows, cols);
    for fault in faults {
        pair.inject(fault);
    }
    let dac = Dac::new(5, 0.74);
    let march = MarchTest::march_c_minus();
    let mut failures = Vec::new();
    for code in 0..dac.codes() {
        pair.set_vsb(dac.voltage(code));
        failures.push(pair.march(&march).unwrap().failures.len());
        pair.counters().unwrap();
    }
    for test in marches() {
        pair.march(&test).unwrap();
        pair.counters().unwrap();
    }
    // The retention faults surface as the bias rises.
    assert!(failures[0] < failures[failures.len() - 1], "{failures:?}");
}
