//! Failure-injection tests: every layer must turn bad input into a typed
//! error (never a panic, hang, or silent garbage).

use pdn::prelude::*;
use pdn_circuit::tline_elem::BuildLineError;
use pdn_core::flow::ExtractPlaneError;
use pdn_geom::mesh::MeshPlaneError;
use pdn_shard::ShardExtractError;

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
fn mesh_raster_beyond_memory_is_a_mesh_error() {
    // The 10 x 7 in study-A board: at 1e-9 in the raster's slot count
    // overflows `usize`; at 1e-6 in it would need about 1.1 PB.
    for (pitch, nx, ny) in [
        (1e-9, 10_000_000_000, 7_000_000_000),
        (1e-6, 10_000_000, 7_000_000),
    ] {
        let board = boards::ssn_study_a_board(pitch).expect("valid board");
        match board.extract_model(&NodeSelection::PortsOnly) {
            Err(BuildBoardError::Extraction(ExtractPlaneError::Mesh(
                MeshPlaneError::GridTooLarge { nx: gx, ny: gy, .. },
            ))) => assert_eq!((gx, gy), (nx, ny), "pitch {pitch} in"),
            other => panic!("expected GridTooLarge at {pitch} in, got {:?}", other.err()),
        }
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
    // Both kernel stores ground one kept cell per net before any
    // factorization, and find none on the second.
    let compressed = spec.clone().with_compression(CompressionSpec::default());
    for spec in [spec, compressed] {
        let err = spec.extract(&NodeSelection::PortsOnly).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("has no kept node"),
            "error should name the floating net: {msg}"
        );
    }
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
    use pdn_bem::AssembleBemError;
    use pdn_circuit::SimulateCircuitError;
    use pdn_extract::ExtractCircuitError;
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    ckt.resistor(a, Circuit::GND, 1.0);
    assert!(ckt.impedance_matrix(0.0, &[a]).is_err());
    assert!(ckt.impedance_matrix(-1e9, &[a]).is_err());
    // Every per-point evaluator accepts only a finite f > 0.
    let plane = small_extracted_plane();
    for f in [f64::NAN, f64::INFINITY] {
        assert!(
            matches!(
                ckt.impedance_matrix(f, &[a]),
                Err(SimulateCircuitError::InvalidSpec(_))
            ),
            "circuit at f = {f}"
        );
        assert!(
            matches!(
                plane.bem().nodal_admittance(f),
                Err(AssembleBemError::InvalidInput(_))
            ),
            "BEM admittance at f = {f}"
        );
        assert!(
            matches!(
                plane.bem().port_impedance(f),
                Err(AssembleBemError::InvalidInput(_))
            ),
            "BEM port impedance at f = {f}"
        );
    }
    for f in [0.0, -1e9, f64::NAN, f64::INFINITY] {
        assert!(
            matches!(
                plane.equivalent().impedance(f),
                Err(ExtractCircuitError::InvalidInput(_))
            ),
            "macromodel at f = {f}"
        );
    }
}

#[test]
fn bem_port_solves_need_a_bound_port() {
    use pdn_bem::AssembleBemError;
    let mesh = PlaneMesh::build(&Polygon::rectangle(mm(20.0), mm(20.0)), mm(5.0)).expect("mesh");
    let pair = PlanePair::new(0.5e-3, 4.5).expect("valid pair");
    let bem = BemSystem::assemble(
        mesh,
        &pair,
        &SurfaceImpedance::lossless(),
        &BemOptions::default(),
    )
    .expect("assembled");
    let freqs = [1e8, 1e9];
    let results = [
        bem.port_impedance(1e9).map(|_| ()),
        bem.impedance_sweep(&freqs).map(|_| ()),
        bem.impedance_sweep_with(&freqs, SweepAccuracy::Exact)
            .map(|_| ()),
    ];
    for (k, r) in results.into_iter().enumerate() {
        match r {
            Err(AssembleBemError::InvalidInput(msg)) => assert!(msg.contains("port"), "{msg}"),
            other => panic!("call {k}: expected InvalidInput, got {other:?}"),
        }
    }
}

#[test]
fn circuit_port_solves_reject_ground_and_foreign_nodes() {
    use pdn_circuit::SimulateCircuitError;
    let mut other = Circuit::new();
    other.node("o1");
    other.node("o2");
    let foreign = other.node("o3");
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    ckt.resistor(a, Circuit::GND, 50.0);
    let freqs = [1e8, 1e9];
    for bad in [Circuit::GND, foreign] {
        let ports = [a, bad];
        let results = [
            ckt.impedance_matrix(1e9, &ports).map(|_| ()),
            ckt.impedance_sweep(&freqs, &ports).map(|_| ()),
            ckt.impedance_sweep_with(&freqs, &ports, SweepAccuracy::Exact)
                .map(|_| ()),
            ckt.s_parameter_sweep(&freqs, &ports, 50.0).map(|_| ()),
            ckt.s_parameter_sweep_with(&freqs, &ports, 50.0, SweepAccuracy::Exact)
                .map(|_| ()),
        ];
        for (k, r) in results.into_iter().enumerate() {
            match r {
                Err(SimulateCircuitError::InvalidSpec(msg)) => {
                    assert!(msg.contains("port 1"), "{msg}")
                }
                other => panic!("call {k} with {bad:?}: expected InvalidSpec, got {other:?}"),
            }
        }
    }
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
fn line_length_that_is_not_positive_and_finite_rejected() {
    // An infinite or NaN length used to give a line whose DC settle never
    // returned, and a negative one a misleading time-step error.
    for len in [0.0, -0.1, f64::INFINITY, f64::NAN] {
        let l = Matrix::from_rows(&[&[2.5e-7]]);
        let c = Matrix::from_rows(&[&[1e-10]]);
        match CoupledLineModel::new(l, c, len) {
            Err(BuildLineError::InvalidLength(got)) => {
                assert_eq!(got.to_bits(), len.to_bits())
            }
            other => panic!("length {len}: expected InvalidLength, got {other:?}"),
        }
    }
    // Through a board, the line is a wiring error that names the value.
    // The board is only wired: a transient with such a line used to run
    // forever.
    let mut board = boards::ssn_study_a_board(0.5).expect("valid board");
    board.chips[0].line = Some(pdn_core::cosim::SignalLineSpec::z50(f64::INFINITY));
    let model = board
        .extract_model(&NodeSelection::PortsOnly)
        .expect("extractable");
    match board.wire(&model, 1) {
        Err(BuildBoardError::Wiring(msg)) => assert!(msg.contains("inf"), "{msg}"),
        other => panic!("expected a wiring error, got {:?}", other.err()),
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
    // The last two ask for 1e15 steps (more samples than memory holds)
    // and 1e310 steps (more than `usize` counts).
    for (t_stop, dt) in [
        (0.0, 1e-9),
        (1e-9, 0.0),
        (-1e-9, 1e-9),
        (1e-9, f64::NAN),
        (1.0, 1e-15),
        (1e300, 1e-10),
    ] {
        assert!(
            ckt.transient(&TransientSpec::new(t_stop, dt)).is_err(),
            "t_stop={t_stop}, dt={dt} must be rejected"
        );
    }

    // With a transmission line the settle step is pinned to `dt`, so a
    // huge settle duration is a huge settle step count.
    let model = CoupledLineModel::new(
        Matrix::from_rows(&[&[2.5e-7]]),
        Matrix::from_rows(&[&[1e-10]]),
        0.1,
    )
    .expect("passive line");
    let mut line = Circuit::new();
    let near = line.node("near");
    let far = line.node("far");
    line.resistor(near, Circuit::GND, 50.0);
    line.resistor(far, Circuit::GND, 50.0);
    line.coupled_line(model, vec![near], vec![far]);
    let spec = TransientSpec::new(1e-9, 1e-10).with_settle(1e300);
    match line.transient(&spec) {
        Err(pdn_circuit::SimulateCircuitError::InvalidSpec(msg)) => {
            assert!(msg.contains("settle"), "message: {msg}");
        }
        other => panic!("expected InvalidSpec, got {other:?}"),
    }
}

#[test]
fn ac_sweep_rejects_bad_grids_and_foreign_sources() {
    use pdn_circuit::SimulateCircuitError;
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    let src = ckt.voltage_source(a, Circuit::GND, Waveform::dc(0.0));
    ckt.resistor(a, Circuit::GND, 50.0);
    for (what, sweep) in [
        ("one point", AcSweep::linear(1e6, 1e9, 1)),
        ("decreasing", AcSweep::linear(1e9, 1e6, 10)),
        ("zero start", AcSweep::linear(0.0, 1e9, 10)),
        ("no points", AcSweep::log(1e6, 1e9, 0)),
        ("negative start", AcSweep::log(-1e6, 1e9, 10)),
        ("empty range", AcSweep::log(1e6, 1e6, 10)),
    ] {
        match ckt.ac(&sweep, src) {
            Err(SimulateCircuitError::InvalidSpec(_)) => {}
            other => panic!("{what}: expected InvalidSpec, got {other:?}"),
        }
    }

    // A source id minted by a circuit with more sources.
    let mut other = Circuit::new();
    let b = other.node("b");
    let c = other.node("c");
    other.voltage_source(b, Circuit::GND, Waveform::dc(0.0));
    let foreign = other.voltage_source(c, Circuit::GND, Waveform::dc(0.0));
    let sweep = AcSweep::log(1e6, 1e9, 10);
    for accuracy in [
        SweepAccuracy::Exact,
        SweepAccuracy::Rational { rel_tol: 1e-6 },
    ] {
        match ckt.ac_with(&sweep, foreign, accuracy) {
            Err(SimulateCircuitError::InvalidSpec(msg)) => {
                assert!(msg.contains("source 1"), "message: {msg}");
            }
            other => panic!("expected InvalidSpec, got {other:?}"),
        }
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
/// validation tests.
fn small_plane_spec() -> PlaneSpec {
    PlaneSpec::rectangle(mm(20.0), mm(20.0), 0.5e-3, 4.5)
        .expect("valid pair")
        .with_cell_size(mm(4.0))
        .with_port("P1", mm(2.0), mm(2.0))
        .with_port("P2", mm(18.0), mm(18.0))
}

fn small_extracted_plane() -> pdn_core::ExtractedPlane {
    small_plane_spec()
        .extract(&NodeSelection::PortsOnly)
        .expect("extractable")
}

#[test]
fn sharded_extraction_with_compression_is_an_invalid_plan() {
    // Sharded regions assemble densely, so a compressed plane under a
    // shard plan is refused before meshing, both directly and through a
    // board.
    let plan = ShardPlan::grid(2, 1).expect("valid plan");
    let compression = pdn_bem::CompressionSpec::with_tol(1e-6);
    let refused = |e: &ShardExtractError| match e {
        ShardExtractError::InvalidPlan(msg) => msg.contains("densely"),
        _ => false,
    };
    match small_plane_spec()
        .with_compression(compression)
        .extract_sharded(&plan, &NodeSelection::PortsOnly)
    {
        Err(ExtractPlaneError::Sharding(e)) if refused(&e) => {}
        other => panic!("expected InvalidPlan, got {:?}", other.err()),
    }
    let mut board = boards::ssn_study_a_board(0.5)
        .expect("valid board")
        .with_extraction_strategy(ExtractionStrategy::Sharded { plan });
    board.plane = board.plane.with_compression(compression);
    match board.extract_model(&NodeSelection::PortsOnly) {
        Err(BuildBoardError::Extraction(ExtractPlaneError::Sharding(e))) if refused(&e) => {}
        other => panic!("expected InvalidPlan, got {:?}", other.err()),
    }
}

#[test]
fn compressed_system_dense_accessors_return_none() {
    // A compressed system never forms `C` or `L`: its dense accessors
    // answer `None` (as `compressed()` does on a dense system) instead of
    // panicking.
    let compressed = small_plane_spec()
        .with_compression(pdn_bem::CompressionSpec::with_tol(1e-6))
        .extract(&NodeSelection::PortsOnly)
        .expect("extractable");
    let bem = compressed.bem();
    assert!(bem.compressed().is_some());
    assert!(bem.capacitance().is_none());
    assert!(bem.inductance().is_none());
    let dense = small_extracted_plane();
    assert!(dense.bem().compressed().is_none());
    assert!(dense.bem().capacitance().is_some());
    assert!(dense.bem().inductance().is_some());
}

#[test]
fn verify_helpers_reject_out_of_range_ports() {
    let spec = small_plane_spec();
    let plane = small_extracted_plane();
    let eq = plane.equivalent();
    let freqs = [1e8, 1e9];
    let stim = Waveform::step(1.0, 0.1e-9);
    let results = [
        verify::circuit_s21_db(eq, 9, 0, &freqs, 50.0).map(|_| ()),
        verify::circuit_s21_db(eq, 0, 9, &freqs, 50.0).map(|_| ()),
        verify::circuit_strongest_peak(eq, 9, 1e8, 1e9, 11).map(|_| ()),
        verify::fdtd_s21_db(&spec, 9, 0, &freqs, 50.0, 2e9).map(|_| ()),
        verify::fdtd_s21_db(&spec, 0, 9, &freqs, 50.0, 2e9).map(|_| ()),
        verify::fdtd_resonances(&spec, 9, 1e8, 1e9).map(|_| ()),
        verify::fdtd_strongest_peak(&spec, 9, 1e8, 1e9).map(|_| ()),
        verify::transient_comparison(&spec, &plane, 9, 0, stim.clone(), 50.0, 1e-9, 1e-11)
            .map(|_| ()),
        verify::transient_comparison(&spec, &plane, 0, 9, stim, 50.0, 1e-9, 1e-11).map(|_| ()),
    ];
    for (k, r) in results.into_iter().enumerate() {
        let msg = r.expect_err("out-of-range port").to_string();
        assert!(
            msg.contains("port 9") && msg.contains("2 ports"),
            "call {k}: {msg}"
        );
    }
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

#[test]
fn touchstone_rejects_mismatched_sweeps_and_bad_references() {
    use pdn_circuit::SimulateCircuitError;
    use pdn_num::c64;
    let s1 = || Matrix::from_rows(&[&[c64::new(0.1, -0.2)]]);
    let s2 = || Matrix::from_fn(2, 2, |i, j| c64::new(0.1 * (i + j) as f64, 0.0));
    let wide = Matrix::from_fn(2, 3, |_, _| c64::new(0.1, 0.0));
    for (what, freqs, mats, z0, expect) in [
        (
            "lengths",
            vec![1e9, 2e9],
            vec![s1()],
            50.0,
            "2 frequencies, 1 matrices",
        ),
        ("non-square", vec![1e9], vec![wide], 50.0, "matrix 0 is 2×3"),
        (
            "unequal sizes",
            vec![1e9, 2e9],
            vec![s2(), s1()],
            50.0,
            "2×2, the size of the first; matrix 1 is 1×1",
        ),
        ("NaN z0", vec![1e9], vec![s1()], f64::NAN, "got NaN"),
        (
            "infinite z0",
            vec![1e9],
            vec![s1()],
            f64::INFINITY,
            "got inf",
        ),
        ("zero z0", vec![1e9], vec![s1()], 0.0, "got 0"),
        ("negative z0", vec![1e9], vec![s1()], -50.0, "got -50"),
    ] {
        match pdn_circuit::touchstone(&freqs, &mats, z0) {
            Err(SimulateCircuitError::InvalidSpec(msg)) => {
                assert!(msg.contains(expect), "{what}: {msg}");
            }
            other => panic!("{what}: expected InvalidSpec, got {other:?}"),
        }
    }
    // An empty sweep is a valid (header-only) document.
    let doc = pdn_circuit::touchstone(&[], &[], 50.0).expect("empty sweep");
    assert!(doc.contains("# HZ S RI R 50"));
}

#[test]
fn model_port_table_that_disagrees_with_its_layout_is_a_wiring_error() {
    // The bare study-A board has two ports (supply, chip); the sited one
    // adds two decap sites. A batch must refuse a port table or reduced
    // model of the wrong size up front, naming both counts, and wiring
    // must refuse it instead of indexing past it, with or without a
    // populated site.
    let bare = boards::ssn_study_a_board(0.5).expect("valid board");
    let sites = vec![
        Point::new(inch(4.0), inch(3.5)),
        Point::new(inch(6.0), inch(3.5)),
    ];
    let sited = bare
        .clone()
        .with_decap_site(sites[0])
        .with_decap_site(sites[1]);
    let sel = NodeSelection::PortsOnly;
    let rom = RomSpec {
        f_min: 1e6,
        f_max: 3e8,
        points: 16,
        ..RomSpec::default()
    };
    let bare_model = bare
        .clone()
        .with_reduced_order(rom)
        .extract_model(&sel)
        .expect("extractable");
    let sited_parts = sited.extract_model(&sel).expect("extractable").to_parts();
    let mismatched = [
        // The bare board's two-port equivalent under the four-port layout.
        (
            pdn_core::ModelParts {
                sites,
                reduced: None,
                ..bare_model.to_parts()
            },
            "extracted model has 2 ports but its layout names 4",
        ),
        // The sited board's equivalent with the bare board's two-port
        // reduced model.
        (
            pdn_core::ModelParts {
                reduced: bare_model.reduced_model().cloned(),
                ..sited_parts
            },
            "reduced model has 2 ports but its layout names 4",
        ),
    ];
    for (parts, expected) in mismatched {
        let model = ExtractedModel::from_parts(parts);
        match ScenarioBatch::with_model(&sited, model.clone()) {
            Err(ScenarioBatchError::InvalidInput(msg)) => assert!(msg.contains(expected), "{msg}"),
            other => panic!("expected InvalidInput, got {:?}", other.err()),
        }
        for scenario in [
            Scenario::switching(4),
            Scenario::switching(4).with_decaps(vec![(1, DecapValue::ceramic_100nf())]),
        ] {
            let board = scenario.apply_to(&sited).expect("site 1 is declared");
            match board.wire(&model, scenario.switching) {
                Err(BuildBoardError::Wiring(msg)) => assert!(msg.contains(expected), "{msg}"),
                other => panic!("expected a wiring error, got {:?}", other.err()),
            }
        }
    }
}

#[test]
fn board_values_no_builder_accepts_are_wiring_errors() {
    // A zero on-resistance (through a scenario), a zero decap capacitance
    // and a zero package-pin inductance used to reach the netlist
    // builders' asserts and panic a batch worker. Each is now a wiring
    // error that names the field, reported through the batch as
    // `Build { index }`.
    let board = boards::ssn_study_a_board(0.5)
        .expect("valid board")
        .with_decap_site(Point::new(inch(4.0), inch(3.5)));
    let batch = ScenarioBatch::new(&board, &NodeSelection::PortsOnly).expect("extractable");
    let scenarios = [
        (Scenario::switching(1).with_r_on_scale(0.0), "r_on"),
        (
            Scenario::switching(1).with_decaps(vec![(0, DecapValue::new(0.0, 0.03, 1.2e-9))]),
            "decap 0: c = ",
        ),
    ];
    for (scenario, field) in scenarios {
        match batch.run(&[Scenario::switching(1), scenario], 1e-9, 0.1e-9) {
            Err(ScenarioBatchError::Build {
                index: 1,
                source: BuildBoardError::Wiring(msg),
            }) => assert!(msg.contains(field), "{field}: {msg}"),
            other => panic!("{field}: expected a wiring error, got {other:?}"),
        }
    }
    let mut bad = board.clone();
    bad.chips[0].pin_l = 0.0;
    match bad.wire(batch.model(), 1) {
        Err(BuildBoardError::Wiring(msg)) => {
            assert!(
                msg.contains("pin_l") && msg.contains(&board.chips[0].name),
                "{msg}"
            );
        }
        other => panic!("expected a wiring error, got {other:?}"),
    }
}
