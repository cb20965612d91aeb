//! Cross-crate integration: the full extraction flow against every
//! independent engine in the workspace.
//!
//! One plane structure is pushed through mesh → BEM → macromodel →
//! netlist, and its behaviour is cross-checked between four independent
//! paths: the direct BEM frequency solve, the macromodel's analytic
//! admittance, the exported MNA netlist, and the 2-D FDTD solver.

use pdn::prelude::*;
use pdn_extract::Realization;

fn plane() -> PlaneSpec {
    PlaneSpec::rectangle(mm(24.0), mm(18.0), 0.4e-3, 4.2)
        .expect("valid pair")
        .with_sheet_resistance(2e-3)
        .with_cell_size(mm(2.0))
        .with_port("IN", mm(3.0), mm(3.0))
        .with_port("OUT", mm(21.0), mm(15.0))
}

#[test]
fn bem_macromodel_netlist_agree_in_frequency_domain() {
    let spec = plane();
    let extracted = spec
        .extract(&NodeSelection::PortsAndGrid { stride: 2 })
        .expect("extractable");
    let eq = extracted.equivalent();

    let mut ckt = Circuit::new();
    let nodes = eq.to_circuit_with(&mut ckt, "pg_", Realization::Exact);
    let ports: Vec<_> = (0..2).map(|p| nodes[eq.port_node(p)]).collect();

    for &f in &[30e6, 150e6, 700e6] {
        let z_bem = extracted.bem().port_impedance(f).expect("solvable");
        let z_eq = eq.impedance(f).expect("solvable");
        let z_ckt = ckt.impedance_matrix(f, &ports).expect("solvable");
        let scale = z_bem.max_abs();
        for i in 0..2 {
            for j in 0..2 {
                // Macromodel vs netlist: identical by construction.
                assert!(
                    (z_eq[(i, j)] - z_ckt[(i, j)]).norm() < 1e-6 * scale,
                    "netlist consistency at f={f}"
                );
                // Macromodel vs full BEM: reduction error small well below
                // resonance.
                assert!(
                    (z_eq[(i, j)] - z_bem[(i, j)]).norm() < 0.05 * scale,
                    "macromodel accuracy at f={f}"
                );
            }
        }
    }
}

#[test]
fn circuit_and_fdtd_transients_overlay() {
    let spec = plane();
    let extracted = spec
        .extract(&NodeSelection::PortsAndGrid { stride: 2 })
        .expect("extractable");
    let stim = Waveform::pulse(0.0, 3.0, 0.1e-9, 0.2e-9, 0.2e-9, 0.8e-9);
    let cmp = verify::transient_comparison(&spec, &extracted, 0, 1, stim, 50.0, 4e-9, 2e-12)
        .expect("comparable");
    assert!(cmp.fdtd_peak() > 0.03, "signal crosses the plane");
    let rel = cmp.rms_difference() / cmp.fdtd_peak();
    assert!(rel < 0.35, "engines overlay: rms/peak = {rel:.3}");
}

#[test]
fn resonances_match_across_three_references() {
    // Equivalent circuit vs FDTD vs the analytic cavity model.
    let spec = PlaneSpec::rectangle(mm(20.0), mm(20.0), 0.5e-3, 4.5)
        .expect("valid pair")
        .with_sheet_resistance(2e-3)
        .with_cell_size(mm(2.0))
        .with_port("P", mm(1.5), mm(1.5));
    let f10 = spec.pair().cavity_resonance(mm(20.0), mm(20.0), 1, 0);
    let extracted = spec
        .extract(&NodeSelection::PortsAndGrid { stride: 2 })
        .expect("extractable");
    let eq_peaks = extracted
        .equivalent()
        .find_resonances(0, 0.5 * f10, 1.4 * f10, 61)
        .expect("scannable");
    let fd_peaks = verify::fdtd_resonances(&spec, 0, 0.5 * f10, 1.4 * f10).expect("scannable");
    let f_eq = eq_peaks[0];
    let f_fd = fd_peaks[0];
    assert!((f_eq - f10).abs() / f10 < 0.12, "circuit vs cavity");
    assert!((f_fd - f10).abs() / f10 < 0.08, "FDTD vs cavity");
    assert!((f_eq - f_fd).abs() / f_fd < 0.12, "circuit vs FDTD");
}

#[test]
fn s_parameters_passive_and_reciprocal_everywhere() {
    let spec = plane();
    let extracted = spec
        .extract(&NodeSelection::PortsAndGrid { stride: 2 })
        .expect("extractable");
    let eq = extracted.equivalent();
    for k in 1..=15 {
        let f = k as f64 * 0.4e9;
        let s = eq.s_parameters(f, 50.0).expect("solvable");
        for i in 0..2 {
            for j in 0..2 {
                assert!(
                    s[(i, j)].norm() <= 1.0 + 1e-6,
                    "passivity at f={f}: |S({i},{j})| = {}",
                    s[(i, j)].norm()
                );
            }
        }
        assert!(
            (s[(0, 1)] - s[(1, 0)]).norm() < 1e-8,
            "reciprocity at f={f}"
        );
    }
}

#[test]
fn galerkin_and_point_matching_give_consistent_models() {
    let base = plane();
    let pm = base
        .extract(&NodeSelection::PortsOnly)
        .expect("extractable");
    let gal = plane()
        .with_galerkin(4)
        .extract(&NodeSelection::PortsOnly)
        .expect("extractable");
    let f = 100e6;
    let z_pm = pm.equivalent().impedance(f).expect("solvable");
    let z_gal = gal.equivalent().impedance(f).expect("solvable");
    let rel = (z_pm[(0, 0)] - z_gal[(0, 0)]).norm() / z_pm[(0, 0)].norm();
    assert!(rel < 0.05, "testing schemes agree: rel = {rel:.3}");
}
