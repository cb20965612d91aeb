//! Circuit construction: nodes and element stamps.

use crate::element::{
    Capacitor, Element, ISource, Inductor, Line, ReducedOrder, Resistor, Switch, VSource,
};
use crate::tline_elem::CoupledLineModel;
use crate::waveform::Waveform;
use pdn_num::{PoleResidueModel, SolveMatrixError};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// A circuit node handle. `Circuit::GND` is the reference node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// Returns `true` for the ground/reference node.
    pub fn is_ground(self) -> bool {
        self.0 == 0
    }

    /// The raw node index (0 = ground), usable to index DC operating-point
    /// vectors.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Errors from building or simulating a circuit.
#[derive(Debug, Clone, PartialEq)]
pub enum SimulateCircuitError {
    /// The system matrix is singular (floating node, inconsistent sources).
    Singular(String),
    /// An invalid analysis specification (non-positive step, empty sweep…).
    InvalidSpec(String),
}

impl fmt::Display for SimulateCircuitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimulateCircuitError::Singular(s) => write!(f, "singular circuit matrix: {s}"),
            SimulateCircuitError::InvalidSpec(s) => write!(f, "invalid analysis spec: {s}"),
        }
    }
}

impl Error for SimulateCircuitError {}

/// A failed factorization or solve, as a circuit error.
pub(crate) fn singular(e: SolveMatrixError) -> SimulateCircuitError {
    SimulateCircuitError::Singular(e.to_string())
}

/// Identifies a voltage source (for current probing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SourceId(pub(crate) usize);

/// A circuit under construction.
///
/// Nodes are created with [`node`](Circuit::node) (by name) or
/// [`new_node`](Circuit::new_node) (anonymous); elements are added with the
/// builder methods and analyses run with
/// [`transient`](Circuit::transient) / [`ac`](Circuit::ac).
///
/// # Examples
///
/// ```
/// use pdn_circuit::{Circuit, Waveform};
///
/// let mut ckt = Circuit::new();
/// let a = ckt.node("a");
/// ckt.voltage_source(a, Circuit::GND, Waveform::dc(1.0));
/// ckt.resistor(a, Circuit::GND, 50.0);
/// assert_eq!(ckt.node_count(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Circuit {
    pub(crate) elements: Vec<Element>,
    pub(crate) n_nodes: usize,
    pub(crate) n_vsources: usize,
    names: HashMap<String, NodeId>,
}

impl Circuit {
    /// The ground / reference node.
    pub const GND: NodeId = NodeId(0);

    /// Creates an empty circuit.
    pub fn new() -> Self {
        Circuit::default()
    }

    /// Returns the node with the given name, creating it on first use.
    pub fn node(&mut self, name: impl Into<String>) -> NodeId {
        let name = name.into();
        if let Some(id) = self.find_node(&name) {
            return id;
        }
        let id = self.new_node();
        self.names.insert(name, id);
        id
    }

    /// Creates an anonymous node.
    pub fn new_node(&mut self) -> NodeId {
        self.n_nodes += 1;
        NodeId(self.n_nodes)
    }

    /// Looks up a previously created named node.
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        if name == "0" || name.eq_ignore_ascii_case("gnd") {
            return Some(Circuit::GND);
        }
        self.names.get(name).copied()
    }

    /// Number of non-ground nodes.
    pub fn node_count(&self) -> usize {
        self.n_nodes
    }

    /// Number of elements.
    pub fn element_count(&self) -> usize {
        self.elements.len()
    }

    /// Number of independent voltage sources.
    pub fn vsource_count(&self) -> usize {
        self.n_vsources
    }

    /// Adds a resistor.
    ///
    /// # Panics
    ///
    /// Panics unless `ohms` is positive and finite.
    pub fn resistor(&mut self, a: NodeId, b: NodeId, ohms: f64) {
        assert!(
            ohms > 0.0 && ohms.is_finite(),
            "resistance must be positive"
        );
        self.elements
            .push(Element::Resistor(Resistor { a, b, ohms }));
    }

    /// Adds a capacitor.
    ///
    /// # Panics
    ///
    /// Panics unless `farads` is positive and finite.
    pub fn capacitor(&mut self, a: NodeId, b: NodeId, farads: f64) {
        assert!(
            farads > 0.0 && farads.is_finite(),
            "capacitance must be positive"
        );
        self.elements
            .push(Element::Capacitor(Capacitor { a, b, farads }));
    }

    /// Adds an inductor. Negative values are accepted (extracted macromodel
    /// branches can carry negative partial inductance), zero is not.
    ///
    /// # Panics
    ///
    /// Panics if `henries` is zero or not finite.
    pub fn inductor(&mut self, a: NodeId, b: NodeId, henries: f64) {
        assert!(
            henries != 0.0 && henries.is_finite(),
            "inductance must be non-zero"
        );
        self.elements
            .push(Element::Inductor(Inductor { a, b, henries }));
    }

    /// Adds an independent voltage source (`plus` − `minus` = waveform) and
    /// returns its id for current probing.
    pub fn voltage_source(
        &mut self,
        plus: NodeId,
        minus: NodeId,
        wave: impl Into<Waveform>,
    ) -> SourceId {
        let index = self.n_vsources;
        self.n_vsources += 1;
        self.elements.push(Element::VSource(VSource {
            plus,
            minus,
            wave: wave.into(),
            index,
        }));
        SourceId(index)
    }

    /// Adds an independent current source pushing current from `from` to
    /// `to` (through the source).
    pub fn current_source(&mut self, from: NodeId, to: NodeId, wave: impl Into<Waveform>) {
        self.elements.push(Element::ISource(ISource {
            from,
            to,
            wave: wave.into(),
        }));
    }

    /// Adds a time-varying switch conductance `g(t) = s(t)/r_on`
    /// (`(1−s(t))/r_on` when `invert`), with `s` expected in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics unless `r_on` is positive.
    pub fn switch_resistor(&mut self, a: NodeId, b: NodeId, r_on: f64, s: Waveform, invert: bool) {
        assert!(r_on > 0.0, "on-resistance must be positive");
        self.elements.push(Element::Switch(Switch {
            a,
            b,
            g_on: 1.0 / r_on,
            s,
            invert,
        }));
    }

    /// Adds a behavioral CMOS totem-pole driver: a pull-up switch from
    /// `out` to `vcc` driven by `data` and a complementary pull-down switch
    /// from `out` to `gnd`, both with on-resistance `r_on`.
    ///
    /// `data` should swing between 0 (output low) and 1 (output high); use
    /// a [`Waveform::pulse`] with realistic rise/fall times to model the
    /// switching transient that draws the SSN current spike through the
    /// supply pins.
    pub fn cmos_driver(
        &mut self,
        out: NodeId,
        vcc: NodeId,
        gnd: NodeId,
        r_on: f64,
        data: Waveform,
    ) {
        self.switch_resistor(out, vcc, r_on, data.clone(), false);
        self.switch_resistor(out, gnd, r_on, data, true);
    }

    /// Adds a lossless multiconductor transmission line. `near[i]` and
    /// `far[i]` are the terminals of conductor `i`; the reference conductor
    /// is ground.
    ///
    /// # Panics
    ///
    /// Panics if the node lists don't match the model's conductor count.
    pub fn coupled_line(&mut self, model: CoupledLineModel, near: Vec<NodeId>, far: Vec<NodeId>) {
        assert_eq!(near.len(), model.conductor_count(), "near terminal count");
        assert_eq!(far.len(), model.conductor_count(), "far terminal count");
        let model = Box::new(model);
        self.elements.push(Element::Line(Line { model, near, far }));
    }

    /// Stamps a passive pole–residue macromodel ([`PoleResidueModel`],
    /// built by `pdn_num::prom` from a certified rational fit) as a
    /// multiport admittance block. Port `k` of the model is connected
    /// between `nodes[k]` and ground; in a transient analysis the block
    /// is simulated by recursive convolution, costing
    /// `O(poles × ports²)` per step instead of the full network stamp.
    pub fn reduced_order_block(
        &mut self,
        nodes: &[NodeId],
        model: std::sync::Arc<PoleResidueModel>,
    ) {
        assert_eq!(
            nodes.len(),
            model.ports(),
            "one terminal node per macromodel port"
        );
        self.elements.push(Element::ReducedOrder(ReducedOrder {
            nodes: nodes.to_vec(),
            model,
        }));
    }

    /// Adds a package pin parasitic π-model between `outer` and `inner`:
    /// series `r` + `l`, with `c/2` shunt capacitance at each end.
    ///
    /// Returns the internal node between R and L.
    pub fn package_pin(&mut self, outer: NodeId, inner: NodeId, r: f64, l: f64, c: f64) -> NodeId {
        let mid = self.new_node();
        if c > 0.0 {
            self.capacitor(outer, Circuit::GND, 0.5 * c);
            self.capacitor(inner, Circuit::GND, 0.5 * c);
        }
        self.resistor(outer, mid, r.max(1e-6));
        self.inductor(mid, inner, l);
        mid
    }

    /// Adds a decoupling capacitor with ESR and ESL between `a` and `b`.
    pub fn decoupling_cap(&mut self, a: NodeId, b: NodeId, c: f64, esr: f64, esl: f64) {
        let m1 = self.new_node();
        let m2 = self.new_node();
        self.resistor(a, m1, esr.max(1e-6));
        self.inductor(m1, m2, esl.max(1e-15));
        self.capacitor(m2, b, c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_nodes_are_deduplicated() {
        let mut c = Circuit::new();
        let a1 = c.node("vdd");
        let a2 = c.node("vdd");
        assert_eq!(a1, a2);
        assert_eq!(c.node_count(), 1);
        assert_eq!(c.find_node("vdd"), Some(a1));
        assert_eq!(c.find_node("missing"), None);
    }

    #[test]
    fn ground_aliases() {
        let mut c = Circuit::new();
        assert_eq!(c.node("0"), Circuit::GND);
        assert_eq!(c.node("gnd"), Circuit::GND);
        assert_eq!(c.node("GND"), Circuit::GND);
        assert!(Circuit::GND.is_ground());
        assert_eq!(c.node_count(), 0);
    }

    #[test]
    fn element_and_source_counting() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.resistor(a, b, 10.0);
        c.capacitor(b, Circuit::GND, 1e-12);
        c.inductor(a, Circuit::GND, 1e-9);
        let s = c.voltage_source(a, Circuit::GND, 1.0);
        assert_eq!(c.element_count(), 4);
        assert_eq!(c.vsource_count(), 1);
        assert_eq!(s, SourceId(0));
    }

    #[test]
    fn package_pin_builds_rlc_ladder() {
        let mut c = Circuit::new();
        let a = c.node("pad");
        let b = c.node("die");
        c.package_pin(a, b, 0.01, 2e-9, 1e-12);
        assert_eq!(c.element_count(), 4); // 2×C/2, R, L
    }

    #[test]
    fn decap_builds_three_elements() {
        let mut c = Circuit::new();
        let a = c.node("vdd");
        c.decoupling_cap(a, Circuit::GND, 100e-9, 0.01, 1e-9);
        assert_eq!(c.element_count(), 3);
    }

    #[test]
    #[should_panic(expected = "resistance must be positive")]
    fn zero_resistor_panics() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.resistor(a, Circuit::GND, 0.0);
    }

    #[test]
    #[should_panic(expected = "inductance must be non-zero")]
    fn zero_inductor_panics() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.inductor(a, Circuit::GND, 0.0);
    }
}
