//! Behavioural memory array with fault injection.
//!
//! Every cell is one byte of state: the stored bit plus three flags that
//! say which fault maps an access to the cell must consult.
//!
//! - `FAULTY`: the cell has a stuck-at, transition or address-alias
//!   fault, so its reads and writes look it up in `faults`.
//! - `AGGRESSOR`: the cell is the aggressor of an inversion coupling, so
//!   a transition of it looks up its victims in `coupling`.
//! - `EXPOSED`: a retention fault of the cell is active at the current
//!   source bias, so a stored 1 decays.
//!
//! The maps stay the source of truth; the flags are derived from them and
//! from `vsb`. [`MemoryModel::inject`] sets the flags of the cells a new
//! fault touches and [`MemoryModel::set_vsb`] recomputes `EXPOSED` for
//! every faulty cell. Those are the only two places where the flags'
//! inputs change. Reads and writes of clean and retention-only cells (every
//! cell of an ASB die) therefore never touch a map.
//!
//! A *clean* byte, one with no flag set, is a plain bit: its reads return
//! the stored bit, its writes store the written bit, and neither changes
//! any other cell. [`MarchTest::run`](crate::march::MarchTest::run) relies
//! on this to move runs of clean cells in bulk instead of one access at a
//! time. A new fault kind must therefore set a flag on every cell whose
//! accesses it changes, whether that cell reads, writes or decays
//! differently or changes another cell when accessed.

use std::collections::BTreeMap;

/// Stored bit of a cell's state byte.
const VALUE: u8 = 1;
/// The cell has a stuck-at, transition or alias fault.
const FAULTY: u8 = 1 << 1;
/// The cell is a coupling aggressor.
const AGGRESSOR: u8 = 1 << 2;
/// A retention fault of the cell is active at the current source bias.
const EXPOSED: u8 = 1 << 3;
/// Every flag: a byte with none of them set is a clean cell.
const FLAGS: u8 = FAULTY | AGGRESSOR | EXPOSED;
/// One in every byte of a word: spreads a byte pattern over eight cells.
const BYTES: u64 = u64::from_ne_bytes([1; 8]);

/// What one March element does to the clean cells that pass it: the
/// cells [`MemoryModel::move_clean_up`] and
/// [`MemoryModel::move_clean_down`] move without a fault lookup.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CleanMove {
    /// A cell moves when `state & mask == want`: it is clean and holds a
    /// bit that passes every read of the element.
    mask: u8,
    want: u8,
    /// State byte of a moved cell afterwards: clean, holding the bit the
    /// element leaves.
    end: u8,
    /// Reads and writes the element applies to each cell.
    reads: u64,
    writes: u64,
}

impl CleanMove {
    /// The move of a clean cell that holds `passes` (either bit when
    /// `None`) and ends holding `end` after `reads` reads and `writes`
    /// writes, none of which fails for such a cell.
    pub(crate) fn new(passes: Option<bool>, end: bool, reads: u64, writes: u64) -> Self {
        let (mask, want) = match passes {
            None => (FLAGS, 0),
            Some(bit) => (FLAGS | VALUE, u8::from(bit)),
        };
        Self {
            mask,
            want,
            end: u8::from(end),
            reads,
            writes,
        }
    }

    fn moves(&self, state: u8) -> bool {
        state & self.mask == self.want
    }

    fn moves_word(&self, word: &[u8; 8]) -> bool {
        u64::from_ne_bytes(*word) & (u64::from(self.mask) * BYTES) == u64::from(self.want) * BYTES
    }

    /// Length of the run of moving cells at the front of `cells`.
    fn run_up(&self, cells: &[u8]) -> usize {
        let (words, tail) = cells.as_chunks::<8>();
        let whole = words.iter().take_while(|w| self.moves_word(w)).count();
        let rest = words.get(whole).map_or(tail, <[u8; 8]>::as_slice);
        8 * whole + rest.iter().take_while(|&&s| self.moves(s)).count()
    }

    /// Length of the run of moving cells at the back of `cells`.
    fn run_down(&self, cells: &[u8]) -> usize {
        let (head, words) = cells.as_rchunks::<8>();
        let whole = words
            .iter()
            .rev()
            .take_while(|w| self.moves_word(w))
            .count();
        let rest = words
            .iter()
            .rev()
            .nth(whole)
            .map_or(head, <[u8; 8]>::as_slice);
        8 * whole + rest.iter().rev().take_while(|&&s| self.moves(s)).count()
    }
}

/// A functional fault attached to one cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The cell always reads the given value; writes are ignored.
    StuckAt(bool),
    /// The cell cannot make a 0 → 1 transition (writes of 1 over a stored 0
    /// are lost); 1 → 0 still works.
    TransitionUp,
    /// The cell cannot make a 1 → 0 transition.
    TransitionDown,
    /// Inversion coupling: whenever the aggressor cell *transitions*, this
    /// victim cell inverts.
    CouplingInv {
        /// Row of the aggressor cell.
        agg_row: usize,
        /// Column of the aggressor cell.
        agg_col: usize,
    },
    /// Retention (hold) fault: a stored 1 decays to 0 whenever the array's
    /// source-bias voltage is at or above `min_vsb`. This is the paper's
    /// hold-failure fault class — latent at low source bias, exposed as the
    /// calibration loop raises it.
    Retention {
        /// Lowest source bias \[V\] at which the cell loses its data.
        min_vsb: f64,
    },
    /// Address-decoder fault: accesses to this cell are redirected to
    /// another cell (the addressed cell is never actually reached).
    AddressAlias {
        /// Row actually accessed.
        to_row: usize,
        /// Column actually accessed.
        to_col: usize,
    },
}

/// A fault instance: location plus kind.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fault {
    /// Cell row.
    pub row: usize,
    /// Cell column.
    pub col: usize,
    /// Fault behaviour.
    pub kind: FaultKind,
}

/// A behavioural memory array (one bit of data per cell) with injected
/// faults and a source-bias state that gates retention faults.
#[derive(Debug, Clone)]
pub struct MemoryModel {
    rows: usize,
    cols: usize,
    /// One state byte per cell, row-major: the stored bit plus the flags.
    cells: Vec<u8>,
    faults: BTreeMap<(usize, usize), Vec<FaultKind>>,
    /// victim lists per aggressor cell.
    coupling: BTreeMap<(usize, usize), Vec<(usize, usize)>>,
    vsb: f64,
    reads: u64,
    writes: u64,
}

impl MemoryModel {
    /// Creates a fault-free array initialized to all zeros.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "memory must have rows and columns");
        Self {
            rows,
            cols,
            cells: vec![0; rows * cols],
            faults: BTreeMap::new(),
            coupling: BTreeMap::new(),
            vsb: 0.0,
            reads: 0,
            writes: 0,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total cells.
    pub fn cells(&self) -> usize {
        self.rows * self.cols
    }

    /// Reads performed so far.
    pub fn read_count(&self) -> u64 {
        self.reads
    }

    /// Writes performed so far.
    pub fn write_count(&self) -> u64 {
        self.writes
    }

    /// Injects a fault.
    ///
    /// # Panics
    ///
    /// Panics if the fault (or its aggressor) is out of bounds.
    pub fn inject(&mut self, fault: Fault) {
        assert!(
            fault.row < self.rows && fault.col < self.cols,
            "fault location ({}, {}) out of bounds",
            fault.row,
            fault.col
        );
        let cell = self.idx(fault.row, fault.col);
        match fault.kind {
            FaultKind::CouplingInv { agg_row, agg_col } => {
                assert!(
                    agg_row < self.rows && agg_col < self.cols,
                    "aggressor ({agg_row}, {agg_col}) out of bounds"
                );
                self.coupling
                    .entry((agg_row, agg_col))
                    .or_default()
                    .push((fault.row, fault.col));
                let aggressor = self.idx(agg_row, agg_col);
                self.cells[aggressor] |= AGGRESSOR;
            }
            FaultKind::AddressAlias { to_row, to_col } => {
                assert!(
                    to_row < self.rows && to_col < self.cols,
                    "alias target ({to_row}, {to_col}) out of bounds"
                );
                assert!(
                    (to_row, to_col) != (fault.row, fault.col),
                    "alias must point elsewhere"
                );
                self.cells[cell] |= FAULTY;
            }
            FaultKind::StuckAt(_) | FaultKind::TransitionUp | FaultKind::TransitionDown => {
                self.cells[cell] |= FAULTY;
            }
            // Exposed now, but a stored 1 decays only at its next access or
            // the next `set_vsb`.
            FaultKind::Retention { min_vsb } => {
                if self.vsb >= min_vsb {
                    self.cells[cell] |= EXPOSED;
                }
            }
        }
        self.faults
            .entry((fault.row, fault.col))
            .or_default()
            .push(fault.kind);
    }

    /// Number of injected faults.
    pub fn fault_count(&self) -> usize {
        self.faults.values().map(Vec::len).sum()
    }

    /// Sets the source-bias voltage (activates retention faults whose
    /// threshold is at or below it). Raising the bias immediately decays
    /// the stored 1 of every exposed retention-faulty cell.
    pub fn set_vsb(&mut self, vsb: f64) {
        assert!(vsb.is_finite() && vsb >= 0.0, "invalid vsb {vsb}");
        self.vsb = vsb;
        for (&(row, col), kinds) in &self.faults {
            let exposed = kinds
                .iter()
                .any(|k| matches!(k, FaultKind::Retention { min_vsb } if vsb >= *min_vsb));
            let state = &mut self.cells[row * self.cols + col];
            // Standby decay of exposed cells.
            *state = if exposed {
                (*state | EXPOSED) & !VALUE
            } else {
                *state & !EXPOSED
            };
        }
    }

    /// Current source-bias voltage.
    pub fn vsb(&self) -> f64 {
        self.vsb
    }

    /// Raw index of a cell.
    #[inline]
    fn idx(&self, row: usize, col: usize) -> usize {
        debug_assert!(row < self.rows && col < self.cols);
        row * self.cols + col
    }

    /// The faults of a `FAULTY` cell (empty for any other cell).
    fn faults_of(&self, row: usize, col: usize) -> &[FaultKind] {
        if self.cells[self.idx(row, col)] & FAULTY == 0 {
            return &[];
        }
        self.faults.get(&(row, col)).map_or(&[], Vec::as_slice)
    }

    /// Resolves address-decoder aliasing: the cell actually accessed.
    fn resolve(&self, row: usize, col: usize) -> (usize, usize) {
        self.faults_of(row, col)
            .iter()
            .find_map(|k| match *k {
                FaultKind::AddressAlias { to_row, to_col } => Some((to_row, to_col)),
                _ => None,
            })
            .unwrap_or((row, col))
    }

    /// Writes one bit.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-bounds address.
    pub fn write(&mut self, row: usize, col: usize, value: bool) {
        assert!(row < self.rows && col < self.cols, "address out of bounds");
        self.writes += 1;
        let (row, col) = self.resolve(row, col);
        let i = self.idx(row, col);
        let state = self.cells[i];
        let old = state & VALUE != 0;
        let mut new = value;
        for k in self.faults_of(row, col) {
            match k {
                FaultKind::StuckAt(v) => new = *v,
                FaultKind::TransitionUp if !old && value => new = old,
                FaultKind::TransitionDown if old && !value => new = old,
                _ => {}
            }
        }
        // Retention faults swallow a freshly written 1 at high bias; the
        // write still counts as a transition for coupling.
        let kept = new && state & EXPOSED == 0;
        self.cells[i] = (state & !VALUE) | u8::from(kept);
        if old != new && state & AGGRESSOR != 0 {
            self.fire_coupling(row, col);
        }
    }

    /// Reads one bit (fault behaviour applied).
    ///
    /// # Panics
    ///
    /// Panics on an out-of-bounds address.
    pub fn read(&mut self, row: usize, col: usize) -> bool {
        assert!(row < self.rows && col < self.cols, "address out of bounds");
        self.reads += 1;
        let (row, col) = self.resolve(row, col);
        let i = self.idx(row, col);
        if self.cells[i] & EXPOSED != 0 {
            self.cells[i] &= !VALUE;
        }
        let stored = self.cells[i] & VALUE != 0;
        self.faults_of(row, col)
            .iter()
            .fold(stored, |v, k| match *k {
                FaultKind::StuckAt(s) => s,
                _ => v,
            })
    }

    /// Moves the cells of an ascending March element from flat index
    /// `from` up to the first cell that `clean` does not move, and returns
    /// that cell's index (`cells()` when every cell moved). Each moved cell
    /// is clean and holds a bit that passes the element, so it takes its
    /// final bit at once; no other cell depends on it.
    pub(crate) fn move_clean_up(&mut self, from: usize, clean: &CleanMove) -> usize {
        let n = clean.run_up(&self.cells[from..]);
        self.move_clean(from..from + n, clean);
        from + n
    }

    /// Moves the cells of a descending March element from flat index
    /// `to - 1` down to the first cell that `clean` does not move, and
    /// returns one past that cell's index (0 when every cell moved).
    pub(crate) fn move_clean_down(&mut self, to: usize, clean: &CleanMove) -> usize {
        let n = clean.run_down(&self.cells[..to]);
        self.move_clean(to - n..to, clean);
        to - n
    }

    fn move_clean(&mut self, cells: std::ops::Range<usize>, clean: &CleanMove) {
        let n = cells.len() as u64;
        self.cells[cells].fill(clean.end);
        self.reads += n * clean.reads;
        self.writes += n * clean.writes;
    }

    fn fire_coupling(&mut self, row: usize, col: usize) {
        if let Some(victims) = self.coupling.get(&(row, col)) {
            for &(vr, vc) in victims {
                self.cells[vr * self.cols + vc] ^= VALUE;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_memory_round_trips() {
        let mut m = MemoryModel::new(4, 4);
        m.write(2, 3, true);
        assert!(m.read(2, 3));
        m.write(2, 3, false);
        assert!(!m.read(2, 3));
        assert_eq!(m.write_count(), 2);
        assert_eq!(m.read_count(), 2);
    }

    #[test]
    fn stuck_at_ignores_writes() {
        let mut m = MemoryModel::new(2, 2);
        m.inject(Fault {
            row: 0,
            col: 0,
            kind: FaultKind::StuckAt(true),
        });
        m.write(0, 0, false);
        assert!(m.read(0, 0));
    }

    #[test]
    fn transition_up_blocks_only_rising_writes() {
        let mut m = MemoryModel::new(2, 2);
        m.inject(Fault {
            row: 1,
            col: 1,
            kind: FaultKind::TransitionUp,
        });
        m.write(1, 1, true); // 0 -> 1 blocked
        assert!(!m.read(1, 1));
        // A cell that is already 1 can still be written to 0 ... first
        // force it to 1 through the data path? Not possible for this fault;
        // verify 1 -> 0 path with TransitionDown on another cell instead.
        m.inject(Fault {
            row: 0,
            col: 0,
            kind: FaultKind::TransitionDown,
        });
        m.write(0, 0, true);
        assert!(m.read(0, 0));
        m.write(0, 0, false); // 1 -> 0 blocked
        assert!(m.read(0, 0));
    }

    #[test]
    fn coupling_inverts_victim_on_aggressor_transition() {
        let mut m = MemoryModel::new(2, 2);
        m.inject(Fault {
            row: 0,
            col: 1,
            kind: FaultKind::CouplingInv {
                agg_row: 0,
                agg_col: 0,
            },
        });
        m.write(0, 1, false);
        m.write(0, 0, true); // aggressor transitions: victim inverts
        assert!(m.read(0, 1));
        m.write(0, 0, true); // no transition: victim unchanged
        assert!(m.read(0, 1));
    }

    #[test]
    fn retention_fault_gated_by_vsb() {
        let mut m = MemoryModel::new(2, 2);
        m.inject(Fault {
            row: 1,
            col: 0,
            kind: FaultKind::Retention { min_vsb: 0.3 },
        });
        m.write(1, 0, true);
        assert!(m.read(1, 0), "below threshold the cell holds");
        m.set_vsb(0.2);
        assert!(m.read(1, 0), "still below threshold");
        m.set_vsb(0.3);
        assert!(!m.read(1, 0), "at threshold the 1 decays");
        // Writing a 1 at high bias is immediately lost.
        m.write(1, 0, true);
        assert!(!m.read(1, 0));
        // Back at low bias the cell works again.
        m.set_vsb(0.0);
        m.write(1, 0, true);
        assert!(m.read(1, 0));
    }

    #[test]
    fn address_alias_redirects_accesses() {
        let mut m = MemoryModel::new(4, 4);
        m.inject(Fault {
            row: 0,
            col: 0,
            kind: FaultKind::AddressAlias {
                to_row: 2,
                to_col: 2,
            },
        });
        m.write(0, 0, true);
        // The addressed cell was never written; the alias target was.
        assert!(m.read(2, 2));
        assert!(m.read(0, 0), "reads of (0,0) see the alias target");
        m.write(2, 2, false);
        assert!(!m.read(0, 0));
    }

    #[test]
    fn mats_plus_detects_address_faults() {
        use crate::march::MarchTest;
        let mut m = MemoryModel::new(4, 4);
        m.inject(Fault {
            row: 1,
            col: 1,
            kind: FaultKind::AddressAlias {
                to_row: 3,
                to_col: 3,
            },
        });
        let r = MarchTest::mats_plus().run(&mut m);
        assert!(!r.passed(), "MATS+ must catch decoder aliasing");
    }

    #[test]
    #[should_panic(expected = "alias must point elsewhere")]
    fn alias_to_self_rejected() {
        let mut m = MemoryModel::new(2, 2);
        m.inject(Fault {
            row: 0,
            col: 0,
            kind: FaultKind::AddressAlias {
                to_row: 0,
                to_col: 0,
            },
        });
    }

    #[test]
    fn fault_count_accumulates() {
        let mut m = MemoryModel::new(4, 4);
        assert_eq!(m.fault_count(), 0);
        m.inject(Fault {
            row: 0,
            col: 0,
            kind: FaultKind::StuckAt(false),
        });
        m.inject(Fault {
            row: 0,
            col: 0,
            kind: FaultKind::TransitionUp,
        });
        assert_eq!(m.fault_count(), 2);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn rejects_out_of_bounds_fault() {
        let mut m = MemoryModel::new(2, 2);
        m.inject(Fault {
            row: 5,
            col: 0,
            kind: FaultKind::StuckAt(false),
        });
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn rejects_out_of_bounds_read() {
        let mut m = MemoryModel::new(2, 2);
        let _ = m.read(2, 0);
    }
}
