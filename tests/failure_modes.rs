//! Failure-injection tests: every layer must turn bad input into a typed
//! error (never a panic, hang, or silent garbage).

use pdn::prelude::*;
use pdn_circuit::tline_elem::BuildLineError;
use pdn_core::flow::ExtractPlaneError;
use pdn_geom::mesh::MeshPlaneError;

#[test]
fn port_off_the_conductor_is_a_mesh_error() {
    let spec = PlaneSpec::rectangle(mm(10.0), mm(10.0), 0.5e-3, 4.5)
        .expect("valid pair")
        .with_port("X", mm(99.0), mm(99.0));
    match spec.extract(&NodeSelection::PortsOnly) {
        Err(ExtractPlaneError::Mesh(MeshPlaneError::PortOutsideShape { name, .. })) => {
            assert_eq!(name, "X");
        }
        other => panic!("expected PortOutsideShape, got {other:?}"),
    }
}

#[test]
fn split_net_without_a_port_fails_with_guidance() {
    // Two islands, ports only on the first: the reduction of the second
    // (floating) net must fail with a message pointing at the cause.
    let a = Polygon::rectangle(mm(8.0), mm(8.0));
    let b = Polygon::rectangle_at(mm(10.0), 0.0, mm(8.0), mm(8.0));
    let spec = PlaneSpec::from_shapes(vec![a, b], 0.5e-3, 4.5)
        .expect("valid pair")
        .with_cell_size(mm(2.0))
        .with_port("P", mm(2.0), mm(2.0));
    let err = spec.extract(&NodeSelection::PortsOnly).unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("net"),
        "error should mention the floating net: {msg}"
    );
}

#[test]
fn invalid_stackup_rejected_at_construction() {
    assert!(PlaneSpec::rectangle(mm(10.0), mm(10.0), 0.0, 4.5).is_err());
    assert!(PlaneSpec::rectangle(mm(10.0), mm(10.0), 0.5e-3, -1.0).is_err());
}

#[test]
fn voltage_source_loop_is_singular_not_a_hang() {
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    ckt.voltage_source(a, Circuit::GND, Waveform::dc(1.0));
    ckt.voltage_source(a, Circuit::GND, Waveform::dc(2.0));
    ckt.resistor(a, Circuit::GND, 1.0);
    let err = ckt.transient(&TransientSpec::new(1e-9, 1e-10)).unwrap_err();
    assert!(err.to_string().contains("singular"));
}

#[test]
fn impedance_at_non_positive_frequency_is_typed_error() {
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    ckt.resistor(a, Circuit::GND, 1.0);
    assert!(ckt.impedance_matrix(0.0, &[a]).is_err());
    assert!(ckt.impedance_matrix(-1e9, &[a]).is_err());
}

#[test]
fn non_passive_line_matrices_rejected() {
    // |M| ≥ √(L1·L2): indefinite inductance matrix.
    let l = Matrix::from_rows(&[&[1e-7, 2e-7], &[2e-7, 1e-7]]);
    let c = Matrix::identity(2).scale(1e-10);
    match CoupledLineModel::new(l, c, 0.1) {
        Err(BuildLineError::NotPassive(_)) => {}
        other => panic!("expected NotPassive, got {other:?}"),
    }
}

#[test]
fn fdtd_rejects_degenerate_grids_and_stray_ports() {
    let pair = PlanePair::new(0.5e-3, 4.5).expect("valid");
    assert!(PlaneFdtd::new(&Polygon::rectangle(1.0, 1.0), &pair, f64::NAN).is_err());
    let mut sim =
        PlaneFdtd::new(&Polygon::rectangle(mm(10.0), mm(10.0)), &pair, mm(1.0)).expect("grid");
    assert!(sim
        .add_port("far", Point::new(mm(500.0), mm(500.0)), 50.0)
        .is_err());
}

#[test]
fn transient_time_step_validation() {
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    ckt.resistor(a, Circuit::GND, 1.0);
    for (t_stop, dt) in [(0.0, 1e-9), (1e-9, 0.0), (-1e-9, 1e-9), (1e-9, f64::NAN)] {
        assert!(
            ckt.transient(&TransientSpec::new(t_stop, dt)).is_err(),
            "t_stop={t_stop}, dt={dt} must be rejected"
        );
    }
}

#[test]
fn lu_singular_error_is_informative() {
    let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
    let err = pdn_num::lu::solve(a, &[1.0, 1.0]).unwrap_err();
    assert!(err.to_string().contains("singular"));
}

#[test]
fn taylor_reference_bounds_checked() {
    let spec = PlaneSpec::rectangle(mm(10.0), mm(10.0), 0.5e-3, 4.5)
        .expect("valid pair")
        .with_port("P", mm(2.0), mm(2.0));
    let eq = spec
        .extract(&NodeSelection::PortsOnly)
        .expect("extractable")
        .equivalent()
        .clone();
    assert!(eq.taylor_impedance(1e9, usize::MAX).is_err());
}

#[test]
fn multi_net_spec_refuses_single_net_flows() {
    let a = Polygon::rectangle(mm(8.0), mm(8.0));
    let b = Polygon::rectangle_at(mm(10.0), 0.0, mm(8.0), mm(8.0));
    let spec = PlaneSpec::from_shapes(vec![a, b], 0.5e-3, 4.5)
        .expect("valid pair")
        .with_port("P1", mm(2.0), mm(2.0))
        .with_port("P2", mm(14.0), mm(2.0));
    match spec.single_shape() {
        Err(ExtractPlaneError::MultiNet) => {}
        other => panic!("expected MultiNet, got {other:?}"),
    }
}

/// A two-port plane small enough to extract in milliseconds, for the
/// resonance-scan validation tests.
fn small_extracted_plane() -> pdn_core::ExtractedPlane {
    PlaneSpec::rectangle(mm(20.0), mm(20.0), 0.5e-3, 4.5)
        .expect("valid pair")
        .with_cell_size(mm(4.0))
        .with_port("P1", mm(2.0), mm(2.0))
        .with_port("P2", mm(18.0), mm(18.0))
        .extract(&NodeSelection::PortsOnly)
        .expect("extractable")
}

/// The bad resonance-scan requests both model types must reject:
/// `(port, f_start, f_stop, points)` with a description.
const BAD_SCANS: [(usize, f64, f64, usize, &str); 6] = [
    (0, 1e8, 1e9, 0, "no points"),
    (0, 1e8, 1e9, 1, "one point"),
    (0, 1e9, 1e8, 11, "f_stop below f_start"),
    (0, 1e9, 1e9, 11, "empty range"),
    (2, 1e8, 1e9, 11, "port == port count"),
    (7, 1e8, 1e9, 11, "port past the port count"),
];

#[test]
fn bem_resonance_scan_rejects_bad_requests() {
    use pdn_bem::AssembleBemError;
    use pdn_num::SweepAccuracy;
    let plane = small_extracted_plane();
    let bem = plane.bem();
    for (port, f0, f1, points, what) in BAD_SCANS {
        for accuracy in [
            SweepAccuracy::Exact,
            SweepAccuracy::Rational { rel_tol: 1e-6 },
        ] {
            match bem.find_resonances_with(port, f0, f1, points, accuracy) {
                Err(AssembleBemError::InvalidInput(_)) => {}
                other => panic!("{what} ({accuracy:?}): expected InvalidInput, got {other:?}"),
            }
        }
        assert!(
            matches!(
                bem.find_resonances(port, f0, f1, points),
                Err(AssembleBemError::InvalidInput(_))
            ),
            "{what}: find_resonances must reject"
        );
    }
    assert!(bem.find_resonances(1, 1e8, 1e9, 11).is_ok());
}

#[test]
fn equivalent_circuit_resonance_scan_rejects_bad_requests() {
    use pdn_extract::ExtractCircuitError;
    use pdn_num::SweepAccuracy;
    let plane = small_extracted_plane();
    let eq = plane.equivalent();
    for (port, f0, f1, points, what) in BAD_SCANS {
        for accuracy in [
            SweepAccuracy::Exact,
            SweepAccuracy::Rational { rel_tol: 1e-6 },
        ] {
            match eq.find_resonances_with(port, f0, f1, points, accuracy) {
                Err(ExtractCircuitError::InvalidInput(_)) => {}
                other => panic!("{what} ({accuracy:?}): expected InvalidInput, got {other:?}"),
            }
        }
        assert!(
            matches!(
                eq.find_resonances(port, f0, f1, points),
                Err(ExtractCircuitError::InvalidInput(_))
            ),
            "{what}: find_resonances must reject"
        );
    }
    // Two points are a valid grid with no interior maximum.
    assert_eq!(
        eq.find_resonances(1, 1e8, 1e9, 2).unwrap(),
        Vec::<f64>::new()
    );
}
