//! Netlist representation: named nodes and circuit elements.

use crate::dc::{DcOptions, DcSolution};
use crate::template::CircuitTemplate;
use pvtm_device::Mosfet;

/// Identifier of a circuit node. Node 0 is always ground.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// Index of this node in the netlist's node table.
    pub fn index(self) -> usize {
        self.0
    }

    /// True for the ground node.
    pub fn is_ground(self) -> bool {
        self.0 == 0
    }
}

/// A circuit element. Constructed through the [`Netlist`] builder methods.
#[derive(Debug, Clone)]
pub enum Element {
    /// Linear resistor between `a` and `b`.
    Resistor {
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Resistance \[Ω\].
        ohms: f64,
    },
    /// Linear capacitor between `a` and `b` (open-circuit in DC).
    Capacitor {
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Capacitance \[F\].
        farads: f64,
    },
    /// Ideal DC voltage source forcing `v(pos) - v(neg) = volts`.
    Vsource {
        /// Positive terminal.
        pos: NodeId,
        /// Negative terminal.
        neg: NodeId,
        /// Source voltage \[V\].
        volts: f64,
    },
    /// Ideal DC current source pushing `amps` out of `from` into `to`.
    Isource {
        /// Terminal the current leaves.
        from: NodeId,
        /// Terminal the current enters.
        to: NodeId,
        /// Source current \[A\].
        amps: f64,
    },
    /// Four-terminal MOSFET using the compact model from `pvtm-device`.
    Mosfet {
        /// Drain terminal.
        d: NodeId,
        /// Gate terminal.
        g: NodeId,
        /// Source terminal.
        s: NodeId,
        /// Body terminal.
        b: NodeId,
        /// Device instance (geometry, card, ΔVt).
        device: Mosfet,
    },
}

/// Errors produced by the solvers.
#[derive(Debug, Clone, PartialEq)]
pub enum CircuitError {
    /// The system matrix became singular (floating subcircuit, or a loop of
    /// ideal voltage sources).
    SingularMatrix {
        /// Elimination column at which the pivot vanished.
        column: usize,
    },
    /// Newton iteration failed to reach the residual tolerance.
    NoConvergence {
        /// Best KCL residual achieved \[A\].
        residual: f64,
        /// Iterations spent.
        iterations: usize,
    },
    /// The netlist has no unknowns to solve for.
    EmptyCircuit,
    /// A Monte-Carlo estimator quarantined more samples than the
    /// documented `PVTM_MAX_QUARANTINE` threshold allows — the estimate's
    /// bias bounds are too wide to stand in for a converged result.
    QuarantineExceeded {
        /// Unresolved (quarantined) samples.
        quarantined: u64,
        /// Total samples drawn.
        total: u64,
    },
    /// A typed template slot was applied to a template of a different
    /// shape: the element it indexes is not of the expected kind. Slots
    /// are minted by `CircuitTemplate` accessors, so this means a slot
    /// from one compiled topology was used against another.
    SlotMismatch {
        /// Element kind the slot promises (`"vsource"`, `"mosfet"`).
        expected: &'static str,
        /// Element index the slot points at.
        elem: usize,
    },
}

impl CircuitError {
    /// Stable machine-readable tag for this error, used to label
    /// quarantined Monte-Carlo samples in the telemetry sidecar.
    pub fn kind(&self) -> &'static str {
        match self {
            CircuitError::SingularMatrix { .. } => "singular_matrix",
            CircuitError::NoConvergence { .. } => "no_convergence",
            CircuitError::EmptyCircuit => "empty_circuit",
            CircuitError::QuarantineExceeded { .. } => "quarantine_exceeded",
            CircuitError::SlotMismatch { .. } => "slot_mismatch",
        }
    }
}

impl std::fmt::Display for CircuitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CircuitError::SingularMatrix { column } => {
                write!(f, "singular system matrix at column {column}")
            }
            CircuitError::NoConvergence {
                residual,
                iterations,
            } => write!(
                f,
                "newton iteration did not converge after {iterations} iterations (residual {residual:.3e} A)"
            ),
            CircuitError::EmptyCircuit => write!(f, "circuit has no unknowns"),
            CircuitError::QuarantineExceeded { quarantined, total } => write!(
                f,
                "{quarantined} of {total} Monte-Carlo samples quarantined, above the \
                 PVTM_MAX_QUARANTINE threshold"
            ),
            CircuitError::SlotMismatch { expected, elem } => write!(
                f,
                "{expected} slot points at element {elem} of a different kind; the slot \
                 was minted by another template shape"
            ),
        }
    }
}

impl std::error::Error for CircuitError {}

/// The quarantine gate of every estimator: fails when more than the
/// documented `PVTM_MAX_QUARANTINE` fraction
/// ([`pvtm_telemetry::fault::max_quarantine`]) of `total` items is
/// quarantined, since bias bounds that wide cannot stand in for a
/// converged result. Below it the quarantined items' pessimistic
/// substitutions stand.
///
/// # Errors
///
/// [`CircuitError::QuarantineExceeded`] above the ceiling.
pub fn check_quarantine(quarantined: u64, total: u64) -> Result<(), CircuitError> {
    if quarantined as f64 / total.max(1) as f64 > pvtm_telemetry::fault::max_quarantine() {
        return Err(CircuitError::QuarantineExceeded { quarantined, total });
    }
    Ok(())
}

/// A circuit under construction: interned nodes plus a list of elements.
///
/// See the [crate-level documentation](crate) for a complete example.
#[derive(Debug, Clone, Default)]
pub struct Netlist {
    node_names: Vec<String>,
    elements: Vec<(String, Element)>,
    temp_k: f64,
}

impl Netlist {
    /// The ground node, always present.
    pub const GROUND: NodeId = NodeId(0);

    /// Creates an empty netlist at the default temperature of 300 K.
    pub fn new() -> Self {
        Self {
            node_names: vec!["0".to_string()],
            elements: Vec::new(),
            temp_k: 300.0,
        }
    }

    /// Sets the simulation temperature \[K\].
    ///
    /// # Panics
    ///
    /// Panics if the temperature is non-positive or non-finite.
    pub fn set_temperature(&mut self, temp_k: f64) {
        assert!(
            temp_k > 0.0 && temp_k.is_finite(),
            "invalid temperature {temp_k} K"
        );
        self.temp_k = temp_k;
    }

    /// Simulation temperature \[K\].
    pub fn temperature(&self) -> f64 {
        self.temp_k
    }

    /// Interns a node by name, creating it on first use. The name `"0"`
    /// (or `"gnd"`) maps to ground.
    pub fn node(&mut self, name: &str) -> NodeId {
        if name == "0" || name.eq_ignore_ascii_case("gnd") {
            return Self::GROUND;
        }
        if let Some(idx) = self.node_names.iter().position(|n| n == name) {
            NodeId(idx)
        } else {
            self.node_names.push(name.to_string());
            NodeId(self.node_names.len() - 1)
        }
    }

    /// Looks up an existing node without creating it.
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        if name == "0" || name.eq_ignore_ascii_case("gnd") {
            return Some(Self::GROUND);
        }
        self.node_names.iter().position(|n| n == name).map(NodeId)
    }

    /// Name of a node.
    pub fn node_name(&self, id: NodeId) -> &str {
        &self.node_names[id.0]
    }

    /// Total number of nodes including ground.
    pub fn num_nodes(&self) -> usize {
        self.node_names.len()
    }

    /// All elements with their instance names.
    pub fn elements(&self) -> &[(String, Element)] {
        &self.elements
    }

    /// Mutable access to one element by its index in [`Self::elements`] —
    /// the string-free patch path used by compiled circuit templates.
    pub(crate) fn element_mut(&mut self, idx: usize) -> &mut Element {
        &mut self.elements[idx].1
    }

    /// Adds a resistor.
    ///
    /// # Panics
    ///
    /// Panics if `ohms` is not positive and finite.
    pub fn resistor(&mut self, name: &str, a: NodeId, b: NodeId, ohms: f64) -> &mut Self {
        assert!(ohms > 0.0 && ohms.is_finite(), "invalid resistance {ohms}");
        self.elements
            .push((name.to_string(), Element::Resistor { a, b, ohms }));
        self
    }

    /// Adds a capacitor.
    ///
    /// # Panics
    ///
    /// Panics if `farads` is not positive and finite.
    pub fn capacitor(&mut self, name: &str, a: NodeId, b: NodeId, farads: f64) -> &mut Self {
        assert!(
            farads > 0.0 && farads.is_finite(),
            "invalid capacitance {farads}"
        );
        self.elements
            .push((name.to_string(), Element::Capacitor { a, b, farads }));
        self
    }

    /// Adds an ideal voltage source `v(pos) - v(neg) = volts`.
    pub fn vsource(&mut self, name: &str, pos: NodeId, neg: NodeId, volts: f64) -> &mut Self {
        assert!(volts.is_finite(), "invalid source voltage {volts}");
        self.elements
            .push((name.to_string(), Element::Vsource { pos, neg, volts }));
        self
    }

    /// Adds an ideal current source pushing `amps` from `from` into `to`.
    pub fn isource(&mut self, name: &str, from: NodeId, to: NodeId, amps: f64) -> &mut Self {
        assert!(amps.is_finite(), "invalid source current {amps}");
        self.elements
            .push((name.to_string(), Element::Isource { from, to, amps }));
        self
    }

    /// Adds a MOSFET.
    pub fn mosfet(
        &mut self,
        name: &str,
        d: NodeId,
        g: NodeId,
        s: NodeId,
        b: NodeId,
        device: Mosfet,
    ) -> &mut Self {
        self.elements
            .push((name.to_string(), Element::Mosfet { d, g, s, b, device }));
        self
    }

    /// Solves the DC operating point with default options: one cold
    /// solve of this netlist compiled into a [`CircuitTemplate`], through
    /// which every DC solve of the crate runs.
    ///
    /// # Errors
    ///
    /// Propagates solver failures; see [`CircuitError`].
    pub fn solve_dc(&self) -> Result<DcSolution, CircuitError> {
        let mut tpl = CircuitTemplate::compile(self.clone(), DcOptions::default())?;
        tpl.solve()?;
        Ok(tpl.solution())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ground_aliases() {
        let mut n = Netlist::new();
        assert_eq!(n.node("0"), Netlist::GROUND);
        assert_eq!(n.node("gnd"), Netlist::GROUND);
        assert_eq!(n.node("GND"), Netlist::GROUND);
    }

    #[test]
    fn node_interning_is_stable() {
        let mut n = Netlist::new();
        let a = n.node("a");
        let b = n.node("b");
        assert_ne!(a, b);
        assert_eq!(n.node("a"), a);
        assert_eq!(n.find_node("b"), Some(b));
        assert_eq!(n.find_node("zzz"), None);
        assert_eq!(n.node_name(a), "a");
        assert_eq!(n.num_nodes(), 3);
    }

    #[test]
    #[should_panic(expected = "invalid resistance")]
    fn rejects_zero_resistance() {
        let mut n = Netlist::new();
        let a = n.node("a");
        n.resistor("R", a, Netlist::GROUND, 0.0);
    }

    #[test]
    fn error_display_messages() {
        let e = CircuitError::NoConvergence {
            residual: 1e-3,
            iterations: 50,
        };
        assert!(e.to_string().contains("did not converge"));
        assert!(CircuitError::EmptyCircuit
            .to_string()
            .contains("no unknowns"));
    }
}
