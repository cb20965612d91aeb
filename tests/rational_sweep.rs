//! Accuracy, determinism, and input-validation contract of the adaptive
//! rational sweep engine (`pdn_num::rational`) as exposed through the
//! public sweep APIs.
//!
//! `SweepAccuracy::Rational { rel_tol }` must (a) match the `Exact` path
//! within tolerance on arbitrary RLC networks and grids, (b) stay
//! bit-identical across `PDN_THREADS` settings (all adaptive decisions
//! depend only on solved values, never on completion order), (c) place
//! anchors where the response actually varies (a high-Q resonance), and
//! (d) reject malformed frequency grids with a descriptive error.
//!
//! `PDN_THREADS` is process-global, so thread-twiddling tests funnel
//! through [`with_thread_counts`], serialized by a mutex.

use pdn::prelude::*;
use pdn_circuit::NodeId;
use pdn_num::{c64, Matrix};
use proptest::prelude::*;

mod common;
use common::with_thread_counts;

const RATIONAL: SweepAccuracy = SweepAccuracy::Rational { rel_tol: 1e-8 };

/// An RLC ladder driven from a port node: `sections` series R–L stages,
/// each loaded by a shunt C, terminated resistively so every impedance is
/// finite on the positive frequency axis.
fn rlc_ladder(sections: usize, r: f64, l: f64, c: f64) -> (Circuit, NodeId) {
    let mut ckt = Circuit::new();
    let port = ckt.node("port");
    let mut prev = port;
    for k in 0..sections {
        let mid = ckt.node(format!("m{k}"));
        let next = ckt.node(format!("n{k}"));
        // Geometrically staggered element values spread the pole
        // locations so multi-resonance responses get exercised.
        let scale = 1.5f64.powi(k as i32);
        ckt.resistor(prev, mid, r * scale);
        ckt.inductor(mid, next, l / scale);
        ckt.capacitor(next, Circuit::GND, c * scale);
        prev = next;
    }
    ckt.resistor(prev, Circuit::GND, 25.0);
    ckt.capacitor(port, Circuit::GND, 0.2 * c);
    (ckt, port)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `Rational { rel_tol: 1e-8 }` reproduces the `Exact` sweep within a
    /// small multiple of the tolerance on randomized RLC networks and
    /// randomized linear grids, bit-identically across `PDN_THREADS`.
    #[test]
    fn rational_matches_exact_on_random_rlc_ladders(
        sections in 1usize..4,
        r in 0.05f64..5.0,
        l_nh in 0.5f64..20.0,
        c_nf in 0.1f64..50.0,
        log_f0 in 6.5f64..8.5,
        decades in 0.4f64..1.6,
        points in 16usize..160,
    ) {
        let (ckt, port) = rlc_ladder(sections, r, l_nh * 1e-9, c_nf * 1e-9);
        let f_start = 10f64.powf(log_f0);
        let f_stop = 10f64.powf(log_f0 + decades);
        let freqs: Vec<f64> = (0..points)
            .map(|k| f_start + (f_stop - f_start) * k as f64 / (points - 1) as f64)
            .collect();
        let exact = ckt.impedance_sweep(&freqs, &[port]).unwrap();
        let mut rational_ref: Option<Vec<Matrix<c64>>> = None;
        with_thread_counts(|n| {
            let rational = ckt
                .impedance_sweep_with(&freqs, &[port], RATIONAL)
                .unwrap()
                .values;
            for (k, (zr, ze)) in rational.iter().zip(&exact).enumerate() {
                let rel = (zr[(0, 0)] - ze[(0, 0)]).norm() / ze[(0, 0)].norm();
                prop_assert!(
                    rel <= 1e-6,
                    "point {k} (f = {:.4e}): rel error {rel:.3e}",
                    freqs[k]
                );
            }
            match &rational_ref {
                None => rational_ref = Some(rational),
                Some(prev) => prop_assert_eq!(
                    &rational,
                    prev,
                    "rational sweep must be bit-identical with {} workers",
                    n
                ),
            }
        });
    }
}

#[test]
fn adaptive_refinement_places_anchors_at_a_high_q_resonance() {
    // A smooth multi-section ladder background behind one high-Q parallel
    // LC tank in series with the port: |Z| spikes at
    // f0 = 1/(2π√(LC)) ≈ 503 MHz, a couple of grid steps wide. The
    // network order far exceeds the seed anchor budget and the spike is
    // the hardest feature, so certification can only succeed by refining
    // anchors into the resonant region.
    let mut ckt = Circuit::new();
    let a = ckt.node("port");
    let x = ckt.node("x");
    ckt.inductor(a, x, 1e-9);
    ckt.capacitor(a, x, 100e-12);
    ckt.resistor(a, x, 50e3);
    let mut prev = x;
    for k in 0..12 {
        let mid = ckt.node(format!("m{k}"));
        let next = ckt.node(format!("n{k}"));
        let scale = 1.4f64.powi(k);
        ckt.resistor(prev, mid, 1.5 * scale);
        ckt.inductor(mid, next, 8e-9 / scale);
        ckt.capacitor(next, Circuit::GND, 2e-9 * scale);
        prev = next;
    }
    ckt.resistor(prev, Circuit::GND, 25.0);
    let f0 = 1.0 / (2.0 * std::f64::consts::PI * (1e-9f64 * 100e-12).sqrt());
    let (f_start, f_stop, points) = (100e6, 1e9, 201);
    let freqs: Vec<f64> = (0..points)
        .map(|k| f_start + (f_stop - f_start) * k as f64 / (points - 1) as f64)
        .collect();
    let df = freqs[1] - freqs[0];

    let outcome = ckt.impedance_sweep_with(&freqs, &[a], RATIONAL).unwrap();
    let stats = &outcome.stats;
    assert!(
        stats.anchors < points / 4,
        "engine degenerated to exact solves: {} anchors",
        stats.anchors
    );
    // The seed anchors sit 50 grid steps apart; certification can only
    // pass by bisecting exact solves into the resonant region until the
    // spike is bracketed within a few steps.
    let nearest = stats
        .anchor_freqs
        .iter()
        .map(|&fa| (fa - f0).abs())
        .fold(f64::INFINITY, f64::min);
    assert!(
        nearest <= 3.0 * df,
        "no anchor near the {f0:.4e} Hz resonance; nearest at {nearest:.3e} Hz"
    );
    let near_f0 = stats
        .anchor_freqs
        .iter()
        .filter(|&&fa| (fa - f0).abs() <= 10.0 * df)
        .count();
    assert!(
        near_f0 >= 3,
        "refinement did not cluster at the resonance: {near_f0} anchors within 10 steps"
    );
    // The certified model pins the resonant pole pair itself: real part
    // on f0 to sub-grid accuracy, imaginary part the f0/2Q damping.
    let model = outcome.model.as_ref().expect("sweep certified a model");
    let pole = model
        .poles()
        .into_iter()
        .filter(|p| (p.re - f0).abs() <= df)
        .min_by(|p, q| p.im.abs().total_cmp(&q.im.abs()))
        .expect("a model pole at the resonance");
    assert!(
        pole.im.abs() < 1e6,
        "resonant pole should be lightly damped, got {pole:?}"
    );
    // And the refined model is actually accurate through the peak.
    let exact = ckt.impedance_sweep(&freqs, &[a]).unwrap();
    for (k, (zr, ze)) in outcome.values.iter().zip(&exact).enumerate() {
        let rel = (zr[(0, 0)] - ze[(0, 0)]).norm() / ze[(0, 0)].norm();
        assert!(rel <= 1e-6, "point {k}: rel error {rel:.3e}");
    }
}

#[test]
fn bem_rational_sweep_matches_exact_and_is_thread_count_invariant() {
    let mut mesh =
        PlaneMesh::build(&Polygon::rectangle(mm(20.0), mm(16.0)), mm(4.0)).expect("meshable");
    mesh.bind_port("P1", Point::new(mm(2.0), mm(2.0))).unwrap();
    mesh.bind_port("P2", Point::new(mm(18.0), mm(14.0)))
        .unwrap();
    let pair = PlanePair::new(0.5e-3, 4.5).unwrap();
    let sys = BemSystem::assemble(
        mesh,
        &pair,
        &pdn_greens::SurfaceImpedance::from_sheet_resistance(2e-3),
        &BemOptions::default(),
    )
    .unwrap();
    let freqs: Vec<f64> = (0..64).map(|k| 0.1e9 + k as f64 * 0.06e9).collect();
    let exact = sys.impedance_sweep(&freqs).unwrap();
    let scale = exact
        .iter()
        .map(pdn_num::Matrix::max_abs)
        .fold(0.0, f64::max);
    let mut rational_ref: Option<Vec<Matrix<c64>>> = None;
    let mut resonances_ref: Option<Vec<f64>> = None;
    with_thread_counts(|n| {
        let rational = sys.impedance_sweep_with(&freqs, RATIONAL).unwrap().values;
        for (k, (zr, ze)) in rational.iter().zip(&exact).enumerate() {
            let mut err: f64 = 0.0;
            for i in 0..zr.nrows() {
                for j in 0..zr.ncols() {
                    err = err.max((zr[(i, j)] - ze[(i, j)]).norm());
                }
            }
            assert!(
                err <= 1e-6 * scale,
                "point {k}: abs error {err:.3e} vs scale {scale:.3e}"
            );
        }
        let resonances = sys
            .find_resonances_with(0, 0.5e9, 8e9, 96, RATIONAL)
            .unwrap();
        assert!(resonances.windows(2).all(|w| w[0] < w[1]), "ascending");
        match &rational_ref {
            None => {
                rational_ref = Some(rational);
                resonances_ref = Some(resonances);
            }
            Some(prev) => {
                assert_eq!(&rational, prev, "bit-identical with {n} workers");
                assert_eq!(
                    Some(resonances),
                    resonances_ref.clone(),
                    "resonances with {n} workers"
                );
            }
        }
    });
}

#[test]
fn rational_resonance_scan_agrees_with_exact_scan() {
    let spec = PlaneSpec::rectangle(mm(20.0), mm(20.0), 0.5e-3, 4.5)
        .unwrap()
        .with_cell_size(mm(4.0))
        .with_port("P1", mm(2.0), mm(2.0))
        .with_port("P2", mm(18.0), mm(18.0));
    let extracted = spec
        .extract(&NodeSelection::PortsAndGrid { stride: 2 })
        .unwrap();
    let eq = extracted.equivalent();
    let (f_start, f_stop, points) = (0.5e9, 8e9, 161);
    let df = (f_stop - f_start) / (points - 1) as f64;
    let exact = eq.find_resonances(0, f_start, f_stop, points).unwrap();
    let rational = eq
        .find_resonances_with(0, f_start, f_stop, points, RATIONAL)
        .unwrap();
    assert!(!exact.is_empty(), "test premise: plane resonates in band");
    assert_eq!(exact.len(), rational.len(), "same peak count");
    for (e, r) in exact.iter().zip(&rational) {
        assert!(
            (e - r).abs() <= df,
            "peak {e:.4e} vs {r:.4e} drifted more than one grid step"
        );
    }
}

#[test]
fn malformed_grids_are_rejected_with_descriptive_errors() {
    // One representative API per crate; all route through the shared
    // engine-side validation.
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    ckt.resistor(a, Circuit::GND, 1.0);

    // Duplicate point.
    let err = ckt
        .impedance_sweep(&[1e6, 1e6, 2e6], &[a])
        .unwrap_err()
        .to_string();
    assert!(err.contains("increasing"), "duplicate grid: {err}");
    // Non-monotonic.
    let err = ckt
        .impedance_sweep(&[2e6, 1e6], &[a])
        .unwrap_err()
        .to_string();
    assert!(err.contains("increasing"), "descending grid: {err}");
    // Non-finite.
    let err = ckt
        .impedance_sweep(&[1e6, f64::NAN], &[a])
        .unwrap_err()
        .to_string();
    assert!(err.contains("finite"), "NaN grid: {err}");
    // Empty.
    assert!(ckt.impedance_sweep(&[], &[a]).is_err());
    // Non-positive (the pre-existing `f <= 0` special case).
    let err = ckt
        .impedance_sweep(&[-1.0, 1e6], &[a])
        .unwrap_err()
        .to_string();
    assert!(err.contains("-1"), "negative grid names the value: {err}");
    // Invalid tolerance.
    assert!(ckt
        .impedance_sweep_with(&[1e6, 2e6], &[a], SweepAccuracy::Rational { rel_tol: 0.0 })
        .is_err());

    // The same contract holds for the extracted-macromodel sweeps.
    let spec = PlaneSpec::rectangle(mm(20.0), mm(20.0), 0.5e-3, 4.5)
        .unwrap()
        .with_cell_size(mm(5.0))
        .with_port("P1", mm(2.0), mm(2.0));
    let extracted = spec.extract(&NodeSelection::PortsOnly).unwrap();
    let eq = extracted.equivalent();
    let err = eq.impedance_sweep(&[1e9, 1e8]).unwrap_err().to_string();
    assert!(err.contains("increasing"), "extract sweep: {err}");
    let err = eq
        .s_parameter_sweep(&[1e8, 1e8], 50.0)
        .unwrap_err()
        .to_string();
    assert!(err.contains("increasing"), "extract s-params: {err}");
}
