//! Interchange-format integration: the SPICE and Touchstone exports of
//! an extracted plane must be structurally valid and numerically
//! faithful to the macromodel they serialize.

use pdn::prelude::*;
use pdn_extract::Realization;

fn extracted() -> (PlaneSpec, ExtractedPlane) {
    let spec = PlaneSpec::rectangle(mm(24.0), mm(18.0), 0.4e-3, 4.4)
        .expect("valid pair")
        .with_sheet_resistance(1e-3)
        .with_cell_size(mm(3.0))
        .with_port("VDD_A", mm(3.0), mm(3.0))
        .with_port("VDD_B", mm(21.0), mm(15.0));
    let ex = spec
        .extract(&NodeSelection::PortsAndGrid { stride: 2 })
        .expect("extractable");
    (spec, ex)
}

#[test]
fn spice_deck_matches_port_interface_and_counts() {
    let (_, ex) = extracted();
    let eq = ex.equivalent();
    let deck = eq.to_spice_subckt("PG", Realization::Passive);
    assert!(deck.contains(".SUBCKT PG VDD_A VDD_B"));
    // Element counts match the realization: every positive-L branch one
    // inductor (plus a resistor when lossy), every positive branch C one
    // capacitor, one shunt C per node.
    let l_cards = deck.lines().filter(|l| l.starts_with('L')).count();
    let pos_l = eq
        .branches()
        .iter()
        .filter(|b| b.inverse_inductance > 0.0)
        .count();
    assert_eq!(l_cards, pos_l);
    let c_cards = deck.lines().filter(|l| l.starts_with('C')).count();
    let branch_c = eq.branches().iter().filter(|b| b.capacitance > 0.0).count();
    let shunt_c = (0..eq.node_count())
        .filter(|&m| eq.shunt_capacitance(m) > 0.0)
        .count();
    assert_eq!(c_cards, branch_c + shunt_c);
}

#[test]
fn touchstone_sweep_is_self_consistent() {
    let (_, ex) = extracted();
    let eq = ex.equivalent();
    let freqs: Vec<f64> = (1..=10).map(|k| k as f64 * 1e8).collect();
    let mats: Vec<Matrix<c64>> = freqs
        .iter()
        .map(|&f| eq.s_parameters(f, 50.0).expect("solvable"))
        .collect();
    let doc = pdn_circuit::touchstone(&freqs, &mats, 50.0).expect("valid sweep");
    // Header + one data row per frequency.
    assert!(doc.contains("# HZ S RI R 50"));
    let data: Vec<&str> = doc.lines().filter(|l| !l.starts_with(['!', '#'])).collect();
    assert_eq!(data.len(), freqs.len());
    // Parse one row back and compare against the matrix it came from.
    let fields: Vec<f64> = data[4]
        .split_whitespace()
        .map(|v| v.parse().expect("numeric"))
        .collect();
    assert!((fields[0] - freqs[4]).abs() < 1.0);
    // The writer keeps 9 significant decimals; round-tripping is good to
    // ~1e-9 absolute on |S| ≤ 1 entries.
    let s = &mats[4];
    assert!((fields[1] - s[(0, 0)].re).abs() < 1e-8);
    assert!((fields[3] - s[(1, 0)].re).abs() < 1e-8);
    assert!((fields[8] - s[(1, 1)].im).abs() < 1e-8);
    // Passivity survives the sweep.
    for m in &mats {
        for i in 0..2 {
            for j in 0..2 {
                assert!(m[(i, j)].norm() <= 1.0 + 1e-6);
            }
        }
    }
}

#[test]
fn exported_deck_values_rebuild_the_same_network() {
    // Parse the SPICE deck back into a pdn circuit and compare its
    // impedance against the native netlist export — a true round trip
    // through the serialized text.
    let (_, ex) = extracted();
    let eq = ex.equivalent();
    let deck = eq.to_spice_subckt("PG", Realization::Passive);
    let mut ckt = Circuit::new();
    for line in deck.lines() {
        let mut parts = line.split_whitespace();
        let Some(name) = parts.next() else { continue };
        let kind = name.chars().next().expect("non-empty");
        if !matches!(kind, 'R' | 'L' | 'C') {
            continue;
        }
        let a = ckt.node(parts.next().expect("node a"));
        let b = ckt.node(parts.next().expect("node b"));
        let value: f64 = parts.next().expect("value").parse().expect("numeric");
        match kind {
            'R' => ckt.resistor(a, b, value),
            'L' => ckt.inductor(a, b, value),
            _ => ckt.capacitor(a, b, value),
        }
    }
    let pa = ckt.find_node("VDD_A").expect("port A node");
    let pb = ckt.find_node("VDD_B").expect("port B node");
    // Reference: native export.
    let mut native = Circuit::new();
    let nodes = eq.to_circuit(&mut native, "pg_");
    let na = nodes[eq.port_node(0)];
    let nb = nodes[eq.port_node(1)];
    for &f in &[50e6, 500e6] {
        let z_deck = ckt.impedance_matrix(f, &[pa, pb]).expect("solvable");
        let z_native = native.impedance_matrix(f, &[na, nb]).expect("solvable");
        for i in 0..2 {
            for j in 0..2 {
                let d = (z_deck[(i, j)] - z_native[(i, j)]).norm();
                assert!(
                    d < 1e-5 * z_native.max_abs(),
                    "deck round trip at {f}: diff {d:.3e}"
                );
            }
        }
    }
}
