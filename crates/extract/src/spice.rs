//! SPICE subcircuit export of extracted macromodels.
//!
//! The paper notes that "general purpose circuit simulators such as SPICE
//! can also be used for the simulation". This module writes the
//! equivalent circuit as a `.SUBCKT` card deck so any SPICE-class
//! simulator can consume it: one external terminal per port (plus the
//! global ground `0`), R–L series branches, coupling capacitors, and
//! shunt capacitances.

use crate::circuit::{EquivalentCircuit, Realization, RealizedElement};
use std::fmt::Write as _;

/// Formats a value in SPICE engineering notation with enough digits for
/// round-tripping.
fn spice_num(v: f64) -> String {
    format!("{v:.6e}")
}

impl EquivalentCircuit {
    /// Renders the macromodel as a SPICE `.SUBCKT`.
    ///
    /// External nodes are the ports, in binding order, named after the
    /// ports; interior retained nodes become local nodes. The reference
    /// (ground plane) is the global SPICE node `0`.
    ///
    /// The `realization` policy matches
    /// [`to_circuit_with`](EquivalentCircuit::to_circuit_with): use the
    /// default [`Realization::Passive`] for time-domain decks.
    ///
    /// # Examples
    ///
    /// ```
    /// # use pdn_bem::{BemOptions, BemSystem};
    /// # use pdn_extract::{EquivalentCircuit, NodeSelection, Realization};
    /// # use pdn_geom::{mesh::PlaneMesh, polygon::Polygon, units::mm, PlanePair, Point};
    /// # use pdn_greens::SurfaceImpedance;
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// # let mut mesh = PlaneMesh::build(&Polygon::rectangle(mm(10.0), mm(10.0)), mm(2.0))?;
    /// # mesh.bind_port("VDD1", Point::new(mm(1.0), mm(1.0)))?;
    /// # let pair = PlanePair::new(0.5e-3, 4.5)?;
    /// # let sys = BemSystem::assemble(mesh, &pair,
    /// #     &SurfaceImpedance::from_sheet_resistance(1e-3), &BemOptions::default())?;
    /// let eq = EquivalentCircuit::from_bem(&sys, &NodeSelection::PortsOnly)?;
    /// let deck = eq.to_spice_subckt("PDN_PLANE", Realization::Passive);
    /// assert!(deck.contains(".SUBCKT PDN_PLANE VDD1"));
    /// assert!(deck.trim_end().ends_with(".ENDS PDN_PLANE"));
    /// # Ok(())
    /// # }
    /// ```
    pub fn to_spice_subckt(&self, name: &str, realization: Realization) -> String {
        let mut out = String::new();
        let ports: Vec<String> = (0..self.port_count())
            .map(|p| self.node_names()[self.port_node(p)].clone())
            .collect();
        let _ = writeln!(
            out,
            "* Power/ground plane macromodel extracted by pdn ({} nodes, {} ports)",
            self.node_count(),
            self.port_count()
        );
        let _ = writeln!(out, "* reference node: SPICE ground (0) = the ground plane");
        let _ = writeln!(out, ".SUBCKT {name} {}", ports.join(" "));

        // Node label: port names stay; interior nodes get a local prefix.
        let is_port: Vec<bool> = {
            let mut v = vec![false; self.node_count()];
            for p in 0..self.port_count() {
                v[self.port_node(p)] = true;
            }
            v
        };
        let label = |m: usize| -> String {
            if is_port[m] {
                self.node_names()[m].clone()
            } else {
                format!("int_{}", self.node_names()[m])
            }
        };

        let (mut r_idx, mut l_idx, mut c_idx) = (0usize, 0usize, 0usize);
        for element in self.realize(realization) {
            match element {
                RealizedElement::SeriesRl { a, b, r, l } => {
                    let mid = format!("mid_{r_idx}");
                    let _ = writeln!(out, "R{r_idx} {} {mid} {}", label(a), spice_num(r));
                    let _ = writeln!(out, "L{l_idx} {mid} {} {}", label(b), spice_num(l));
                    r_idx += 1;
                    l_idx += 1;
                }
                RealizedElement::Inductor { a, b, l } => {
                    let _ = writeln!(out, "L{l_idx} {} {} {}", label(a), label(b), spice_num(l));
                    l_idx += 1;
                }
                RealizedElement::Resistor { a, b, r } => {
                    let _ = writeln!(out, "R{r_idx} {} {} {}", label(a), label(b), spice_num(r));
                    r_idx += 1;
                }
                RealizedElement::Capacitor { a, b, c } => {
                    let b = b.map_or_else(|| "0".to_string(), label);
                    let _ = writeln!(out, "C{c_idx} {} {b} {}", label(a), spice_num(c));
                    c_idx += 1;
                }
            }
        }
        let _ = writeln!(out, ".ENDS {name}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::NodeSelection;
    use pdn_bem::{BemOptions, BemSystem};
    use pdn_geom::units::mm;
    use pdn_geom::{PlaneMesh, PlanePair, Point, Polygon};
    use pdn_greens::SurfaceImpedance;

    fn eq(lossy: bool) -> EquivalentCircuit {
        let mut mesh = PlaneMesh::build(&Polygon::rectangle(mm(16.0), mm(16.0)), mm(4.0)).unwrap();
        mesh.bind_port("VDD1", Point::new(mm(2.0), mm(2.0)))
            .unwrap();
        mesh.bind_port("VDD2", Point::new(mm(14.0), mm(14.0)))
            .unwrap();
        let pair = PlanePair::new(0.5e-3, 4.5).unwrap();
        let zs = if lossy {
            SurfaceImpedance::from_sheet_resistance(2e-3)
        } else {
            SurfaceImpedance::lossless()
        };
        let sys = BemSystem::assemble(mesh, &pair, &zs, &BemOptions::default()).unwrap();
        EquivalentCircuit::from_bem(&sys, &NodeSelection::PortsAndGrid { stride: 2 }).unwrap()
    }

    #[test]
    fn deck_structure() {
        let deck = eq(true).to_spice_subckt("PG", Realization::Passive);
        assert!(deck.starts_with("* Power/ground plane macromodel"));
        assert!(deck.contains(".SUBCKT PG VDD1 VDD2"));
        assert!(deck.trim_end().ends_with(".ENDS PG"));
    }

    #[test]
    fn lossy_deck_has_rlc_cards() {
        let deck = eq(true).to_spice_subckt("PG", Realization::Passive);
        let r_cards = deck.lines().filter(|l| l.starts_with('R')).count();
        let l_cards = deck.lines().filter(|l| l.starts_with('L')).count();
        let c_cards = deck.lines().filter(|l| l.starts_with('C')).count();
        assert!(r_cards > 0 && l_cards > 0 && c_cards > 0);
        // Every series pair shares a mid node.
        assert!(deck.contains("mid_0"));
    }

    #[test]
    fn lossless_deck_has_no_resistors() {
        let deck = eq(false).to_spice_subckt("PG", Realization::Passive);
        assert_eq!(deck.lines().filter(|l| l.starts_with('R')).count(), 0);
        assert!(deck.lines().filter(|l| l.starts_with('L')).count() > 0);
    }

    #[test]
    fn passive_deck_has_no_negative_inductors() {
        let deck = eq(true).to_spice_subckt("PG", Realization::Passive);
        for line in deck.lines().filter(|l| l.starts_with('L')) {
            let value: f64 = line
                .split_whitespace()
                .last()
                .expect("value field")
                .parse()
                .expect("numeric value");
            assert!(value > 0.0, "negative inductor in passive deck: {line}");
        }
    }

    #[test]
    fn exact_deck_may_keep_negative_inductors() {
        let e = eq(true);
        let has_neg = e.branches().iter().any(|b| b.inverse_inductance < 0.0);
        let deck = e.to_spice_subckt("PG", Realization::Exact);
        let any_neg = deck
            .lines()
            .filter(|l| l.starts_with('L'))
            .any(|l| l.split_whitespace().last().expect("value").starts_with('-'));
        assert_eq!(has_neg, any_neg);
    }

    #[test]
    fn element_names_unique() {
        let deck = eq(true).to_spice_subckt("PG", Realization::Passive);
        let mut names: Vec<&str> = deck
            .lines()
            .filter(|l| l.starts_with('R') || l.starts_with('L') || l.starts_with('C'))
            .map(|l| l.split_whitespace().next().expect("name"))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate element names");
    }

    #[test]
    fn values_roundtrip_parseable() {
        let deck = eq(true).to_spice_subckt("PG", Realization::Passive);
        for line in deck
            .lines()
            .filter(|l| l.starts_with('R') || l.starts_with('L') || l.starts_with('C'))
        {
            let v: f64 = line
                .split_whitespace()
                .last()
                .expect("value")
                .parse()
                .expect("parseable float");
            assert!(v.is_finite());
        }
    }
}
