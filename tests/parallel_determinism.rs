//! Parallel sweeps must be *bit-identical* to the serial path for every
//! worker count: each sweep point is computed exactly once by exactly one
//! thread and merged back in index order, so there is no summation-order
//! ambiguity to hide behind a tolerance. These tests pin `PDN_THREADS` to
//! 1, 2, and the machine's available parallelism and `assert_eq!` the
//! results.
//!
//! `PDN_THREADS` is process-global state, so every test that touches it
//! funnels through [`with_thread_counts`], serialized by a mutex — the
//! default test harness runs `#[test]`s concurrently in one process.

use pdn::prelude::*;
use pdn_circuit::{AcSweep, Waveform};
use pdn_num::c64;

mod common;
use common::{hp_plane_coarse, with_thread_counts, ENV_LOCK};

fn small_bem() -> pdn_bem::BemSystem {
    let mut mesh =
        PlaneMesh::build(&Polygon::rectangle(mm(20.0), mm(16.0)), mm(4.0)).expect("meshable");
    mesh.bind_port("P1", Point::new(mm(2.0), mm(2.0))).unwrap();
    mesh.bind_port("P2", Point::new(mm(18.0), mm(14.0)))
        .unwrap();
    let pair = PlanePair::new(0.5e-3, 4.5).unwrap();
    pdn_bem::BemSystem::assemble(
        mesh,
        &pair,
        &pdn_greens::SurfaceImpedance::lossless(),
        &pdn_bem::BemOptions::default(),
    )
    .unwrap()
}

#[test]
fn bem_assembly_and_sweeps_are_thread_count_invariant() {
    // Reference: everything computed with one worker (the serial path).
    let (z_ref, y_ref, res_ref) = {
        let _guard = ENV_LOCK.lock().unwrap();
        std::env::set_var("PDN_THREADS", "1");
        let sys = small_bem();
        let freqs = [0.5e9, 1.0e9, 1.5e9, 2.0e9];
        let z = sys.impedance_sweep(&freqs).unwrap();
        let y = sys.admittance_sweep(&freqs).unwrap();
        let r = sys.find_resonances(0, 0.5e9, 8e9, 64).unwrap();
        std::env::remove_var("PDN_THREADS");
        (z, y, r)
    };
    with_thread_counts(|n| {
        // Re-assemble under this worker count: the parallel assembly rows
        // must reproduce the serial matrices, hence identical solutions.
        let sys = small_bem();
        let freqs = [0.5e9, 1.0e9, 1.5e9, 2.0e9];
        assert_eq!(sys.impedance_sweep(&freqs).unwrap(), z_ref, "{n} workers");
        assert_eq!(sys.admittance_sweep(&freqs).unwrap(), y_ref, "{n} workers");
        assert_eq!(
            sys.find_resonances(0, 0.5e9, 8e9, 64).unwrap(),
            res_ref,
            "{n} workers"
        );
    });
}

#[test]
fn circuit_ac_and_sweeps_are_thread_count_invariant() {
    // A two-section RLC ladder with a source to exercise `ac`.
    let build = || {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let mid = ckt.node("mid");
        let out = ckt.node("out");
        let src = ckt.voltage_source(vin, Circuit::GND, Waveform::dc(0.0));
        ckt.resistor(vin, mid, 10.0);
        ckt.inductor(mid, out, 5e-9);
        ckt.capacitor(out, Circuit::GND, 2e-12);
        ckt.resistor(out, Circuit::GND, 1e3);
        (ckt, src, mid, out)
    };
    let sweep = AcSweep::log(1e6, 5e9, 64);
    let (ckt, src, mid, out) = build();
    let ports = [mid, out];

    let mut ac_ref: Option<Vec<c64>> = None;
    let mut z_ref: Option<Vec<pdn_num::Matrix<c64>>> = None;
    let mut s_ref: Option<Vec<pdn_num::Matrix<c64>>> = None;
    with_thread_counts(|n| {
        let res = ckt.ac(&sweep, src).unwrap();
        let trace: Vec<c64> = (0..sweep.freqs().len())
            .map(|k| res.voltage(k, out))
            .collect();
        let z = ckt.impedance_sweep(sweep.freqs(), &ports).unwrap();
        let s = ckt.s_parameter_sweep(sweep.freqs(), &ports, 50.0).unwrap();
        match (&ac_ref, &z_ref, &s_ref) {
            (None, _, _) => {
                ac_ref = Some(trace);
                z_ref = Some(z);
                s_ref = Some(s);
            }
            (Some(a), Some(zr), Some(sr)) => {
                assert_eq!(&trace, a, "ac with {n} workers");
                assert_eq!(&z, zr, "impedance_sweep with {n} workers");
                assert_eq!(&s, sr, "s_parameter_sweep with {n} workers");
            }
            _ => unreachable!(),
        }
    });
}

#[test]
fn extracted_macromodel_sweeps_are_thread_count_invariant() {
    let spec = PlaneSpec::rectangle(mm(20.0), mm(20.0), 0.5e-3, 4.5)
        .unwrap()
        .with_cell_size(mm(4.0))
        .with_port("P1", mm(2.0), mm(2.0))
        .with_port("P2", mm(18.0), mm(18.0));
    let extracted = spec
        .extract(&NodeSelection::PortsAndGrid { stride: 2 })
        .unwrap();
    let eq = extracted.equivalent();
    let freqs: Vec<f64> = (1..=32).map(|k| k as f64 * 0.25e9).collect();

    let mut z_ref: Option<Vec<pdn_num::Matrix<c64>>> = None;
    let mut s_ref: Option<Vec<pdn_num::Matrix<c64>>> = None;
    let mut r_ref: Option<Vec<f64>> = None;
    with_thread_counts(|n| {
        let z = eq.impedance_sweep(&freqs).unwrap();
        let s = eq.s_parameter_sweep(&freqs, 50.0).unwrap();
        let r = eq.find_resonances(0, 0.5e9, 8e9, 96).unwrap();
        match &z_ref {
            None => {
                z_ref = Some(z);
                s_ref = Some(s);
                r_ref = Some(r);
            }
            Some(zr) => {
                assert_eq!(&z, zr, "impedance_sweep with {n} workers");
                assert_eq!(Some(s), s_ref.clone(), "s_parameter_sweep with {n} workers");
                assert_eq!(Some(r), r_ref.clone(), "find_resonances with {n} workers");
            }
        }
    });
}

#[test]
fn dense_extraction_is_thread_count_invariant() {
    // The assembly rows, the kept-node solves behind B and the banded
    // solves behind G fan out and land by index: the reduced matrices
    // must not depend on the worker count.
    let bits = |m: &pdn_num::Matrix<f64>| -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    };
    let mut reference: Option<[Vec<u64>; 3]> = None;
    with_thread_counts(|n| {
        let extracted = hp_plane_coarse()
            .extract(&NodeSelection::PortsAndGrid { stride: 2 })
            .unwrap();
        let eq = extracted.equivalent();
        let got = [
            bits(eq.reluctance()),
            bits(eq.conductance()),
            bits(eq.capacitance()),
        ];
        match &reference {
            None => reference = Some(got),
            Some(r) => {
                for (what, (a, b)) in ["B", "G", "C"].iter().zip(r.iter().zip(&got)) {
                    assert_eq!(a, b, "{what} with {n} workers");
                }
            }
        }
    });
}
