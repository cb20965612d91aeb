//! Mesh-refinement convergence studies: each solver must approach its
//! analytic limit monotonically as the discretization refines — the
//! numerical-soundness evidence behind every reproduction number.

use pdn::prelude::*;
use pdn_num::phys::EPS0;
use pdn_tline::{analytic, MicrostripArray};

/// BEM total capacitance converges toward (and stays above) the
/// parallel-plate value as cells shrink; the fringing excess shrinks.
#[test]
fn bem_capacitance_refinement() {
    let (w, h, d, er) = (mm(20.0), mm(20.0), 0.5e-3, 4.5);
    let c_pp = EPS0 * er * w * h / d;
    let c_total = |cells: usize| -> f64 {
        let spec = PlaneSpec::rectangle(w, h, d, er)
            .expect("valid pair")
            .with_cell_size(w / cells as f64)
            .with_port("P", mm(10.0), mm(10.0));
        let c = spec
            .extract(&NodeSelection::PortsOnly)
            .expect("extractable")
            .bem()
            .capacitance()
            .expect("dense system")
            .clone();
        (0..c.nrows())
            .flat_map(|i| (0..c.ncols()).map(move |j| (i, j)))
            .map(|(i, j)| c[(i, j)])
            .sum()
    };
    let coarse = c_total(5);
    let medium = c_total(8);
    let fine = c_total(12);
    for (label, c) in [("coarse", coarse), ("medium", medium), ("fine", fine)] {
        assert!(c > c_pp, "{label}: fringing keeps C above parallel-plate");
        assert!(c < 1.5 * c_pp, "{label}: but within 50%");
    }
    // The three estimates agree with each other to a few percent — the
    // collocation capacitance is nearly mesh-converged at these sizes.
    assert!(
        (coarse - fine).abs() / fine < 0.05,
        "{coarse:.3e} vs {fine:.3e}"
    );
    assert!((medium - fine).abs() / fine < 0.03);
}

/// The BEM resonance estimate approaches the cavity value from one side
/// as the mesh refines.
#[test]
fn bem_resonance_refinement() {
    let (a, d, er) = (mm(20.0), 0.5e-3, 4.5);
    let resonance = |cells: usize| -> f64 {
        let spec = PlaneSpec::rectangle(a, a, d, er)
            .expect("valid pair")
            .with_sheet_resistance(2e-3)
            .with_cell_size(a / cells as f64)
            .with_port("P", 0.07 * a, 0.07 * a);
        let ex = spec.extract(&NodeSelection::All).expect("extractable");
        let f10 = ex.bem().pair().cavity_resonance(a, a, 1, 0);
        ex.bem()
            .find_resonances(0, 0.6 * f10, 1.4 * f10, 41)
            .expect("scannable")[0]
    };
    let pair = PlanePair::new(d, er).expect("valid");
    let f10 = pair.cavity_resonance(a, a, 1, 0);
    let coarse = resonance(6);
    let fine = resonance(10);
    let err_coarse = (coarse - f10).abs() / f10;
    let err_fine = (fine - f10).abs() / f10;
    assert!(err_fine < 0.08, "fine mesh within 8%: {err_fine:.3}");
    assert!(
        err_fine <= err_coarse + 0.01,
        "refinement does not hurt: {err_coarse:.3} -> {err_fine:.3}"
    );
}

/// The 2-D MoM characteristic impedance converges toward the
/// Hammerstad–Jensen closed form with segment refinement.
#[test]
fn mom_z0_segment_refinement() {
    let (w, h, er) = (2e-3, 1e-3, 4.5);
    let z_ref = analytic::microstrip_z0(w, h, er);
    let z_at = |segs: usize| {
        MicrostripArray::uniform(1, w, 0.0, h, er)
            .with_segments(segs)
            .characteristic_impedance()
            .expect("solvable")
    };
    let errs: Vec<f64> = [8usize, 16, 48]
        .iter()
        .map(|&s| (z_at(s) - z_ref).abs() / z_ref)
        .collect();
    assert!(errs[2] < 0.05, "fine MoM within 5% of Hammerstad: {errs:?}");
    assert!(
        errs[2] <= errs[0] + 0.005,
        "error shrinks with refinement: {errs:?}"
    );
}

/// FDTD propagation velocity converges to the analytic plane velocity
/// with grid refinement (numerical dispersion shrinks as O(h²)).
#[test]
fn fdtd_velocity_refinement() {
    let pair = PlanePair::new(0.5e-3, 4.0).expect("valid");
    let v_exact = pair.phase_velocity();
    let measure = |cell: f64| -> f64 {
        let shape = Polygon::rectangle(mm(100.0), mm(4.0));
        let mut sim = PlaneFdtd::new(&shape, &pair, cell).expect("grid");
        let p = sim
            .add_port("in", Point::new(mm(2.0), mm(2.0)), 1.0)
            .expect("port");
        sim.drive_port(p, Waveform::pulse(0.0, 1.0, 0.0, 50e-12, 50e-12, 50e-12));
        let (pa, pb) = (Point::new(mm(30.0), mm(2.0)), Point::new(mm(70.0), mm(2.0)));
        let dt = sim.dt();
        let steps = (1.0e-9 / dt).round() as usize;
        let (mut t_a, mut t_b) = (f64::NAN, f64::NAN);
        for k in 0..steps {
            sim.run(dt);
            let t = (k + 1) as f64 * dt;
            if t_a.is_nan() && sim.probe(pa).abs() > 0.02 {
                t_a = t;
            }
            if t_b.is_nan() && sim.probe(pb).abs() > 0.02 {
                t_b = t;
            }
        }
        mm(40.0) / (t_b - t_a)
    };
    let err = |cell: f64| (measure(cell) - v_exact).abs() / v_exact;
    let e_coarse = err(mm(2.0));
    let e_fine = err(mm(0.5));
    assert!(e_fine < 0.03, "fine grid within 3%: {e_fine:.4}");
    assert!(
        e_fine <= e_coarse + 0.005,
        "dispersion shrinks with the grid: {e_coarse:.4} -> {e_fine:.4}"
    );
}

/// Transient integration order: trapezoidal error falls faster than
/// backward Euler as dt shrinks (2nd vs 1st order). A smooth sine drive
/// is used — a step input's discontinuity caps every method at first
/// order through its startup error.
#[test]
fn integration_order_on_rc() {
    let tau = 1e-9;
    let omega = 2.0 * std::f64::consts::PI * 300e6;
    // v' = (sin(ωt) − v)/τ from rest:
    let wt = omega * tau;
    let denom = 1.0 + wt * wt;
    let analytic = |t: f64| {
        ((omega * t).sin() - wt * (omega * t).cos()) / denom + wt / denom * (-t / tau).exp()
    };
    let run = |dt: f64, integ: Integration| -> f64 {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.voltage_source(
            a,
            Circuit::GND,
            Waveform::Sine {
                offset: 0.0,
                amplitude: 1.0,
                frequency: omega / (2.0 * std::f64::consts::PI),
                delay: 0.0,
            },
        );
        ckt.resistor(a, b, 1e3);
        ckt.capacitor(b, Circuit::GND, 1e-12);
        let res = ckt
            .transient(&TransientSpec::new(3e-9, dt).with_integration(integ))
            .expect("runnable");
        res.time()
            .iter()
            .zip(res.voltage(b))
            .map(|(&t, &v)| (v - analytic(t)).abs())
            .fold(0.0, f64::max)
    };
    let trap_c = run(50e-12, Integration::Trapezoidal);
    let trap_f = run(12.5e-12, Integration::Trapezoidal);
    let be_c = run(50e-12, Integration::BackwardEuler);
    let be_f = run(12.5e-12, Integration::BackwardEuler);
    // 4× smaller step: trapezoidal error ÷ ~16, BE ÷ ~4.
    let trap_order = (trap_c / trap_f).log2() / 2.0;
    let be_order = (be_c / be_f).log2() / 2.0;
    assert!(trap_order > 1.6, "trapezoidal ≈ 2nd order: {trap_order:.2}");
    assert!(
        be_order > 0.7 && be_order < 1.5,
        "backward Euler ≈ 1st order: {be_order:.2}"
    );
}
