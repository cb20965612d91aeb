//! Property-based tests (proptest) over the core numerical invariants.

use pdn::prelude::*;
use pdn_num::cholesky::is_positive_definite;
use pdn_num::{lu, matrix::norm2, LuDecomposition};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// LU solve always returns a small residual for diagonally dominant
    /// systems of any size and fill.
    #[test]
    fn lu_residual_small(
        n in 2usize..25,
        seed in any::<u64>(),
    ) {
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        };
        let a = Matrix::from_fn(n, n, |i, j| next() + if i == j { n as f64 } else { 0.0 });
        let b: Vec<f64> = (0..n).map(|_| next()).collect();
        let x = lu::solve(a.clone(), &b).expect("diagonally dominant");
        let r: Vec<f64> = a.matvec(&x).iter().zip(&b).map(|(p, q)| p - q).collect();
        prop_assert!(norm2(&r) < 1e-9 * (1.0 + norm2(&b)));
    }

    /// Every meshed rectangle conserves area: cells × cell-area equals the
    /// polygon area.
    #[test]
    fn mesh_conserves_rectangle_area(
        w_mm in 4.0f64..60.0,
        h_mm in 4.0f64..60.0,
        cells in 4usize..24,
    ) {
        let w = mm(w_mm);
        let h = mm(h_mm);
        let cell = w.max(h) / cells as f64;
        let mesh = PlaneMesh::build(&Polygon::rectangle(w, h), cell).expect("meshable");
        let covered = mesh.cell_area() * mesh.cell_count() as f64;
        prop_assert!((covered - w * h).abs() < 1e-9);
        // Incidence rows always sum to zero.
        let mut sums = vec![0.0f64; mesh.link_count()];
        for (l, _, s) in mesh.incidence() {
            sums[l] += s;
        }
        prop_assert!(sums.iter().all(|&s| s.abs() < 1e-12));
    }

    /// Extracted capacitance matrices are symmetric positive definite and
    /// exceed the parallel-plate value in total (fringing), for any plane
    /// geometry/stackup in the practical range.
    #[test]
    fn bem_capacitance_is_spd_with_fringing(
        w_mm in 8.0f64..30.0,
        h_mm in 8.0f64..30.0,
        d_um in 100.0f64..1000.0,
        eps_r in 2.0f64..10.0,
    ) {
        let spec = PlaneSpec::rectangle(mm(w_mm), mm(h_mm), d_um * 1e-6, eps_r)
            .expect("valid pair")
            .with_cell_size(mm(w_mm.max(h_mm)) / 6.0)
            .with_port("P", mm(w_mm / 2.0), mm(h_mm / 2.0));
        let ex = spec.extract(&NodeSelection::PortsOnly).expect("extractable");
        let c = ex.bem().capacitance().expect("dense system");
        prop_assert!(is_positive_definite(c));
        let c_total: f64 = (0..c.nrows())
            .flat_map(|i| (0..c.ncols()).map(move |j| (i, j)))
            .map(|(i, j)| c[(i, j)])
            .sum();
        let area = mm(w_mm) * mm(h_mm);
        let c_pp = pdn_num::phys::EPS0 * eps_r * area / (d_um * 1e-6);
        prop_assert!(c_total > 0.98 * c_pp, "C_total {c_total} vs C_pp {c_pp}");
        prop_assert!(c_total < 2.0 * c_pp, "C_total {c_total} vs C_pp {c_pp}");
    }

    /// RC ladders driven by any pulse stay bounded by the source range.
    #[test]
    fn rc_ladder_transient_bounded(
        sections in 1usize..8,
        r in 1.0f64..100.0,
        c_pf in 1.0f64..100.0,
        v1 in 0.5f64..10.0,
    ) {
        let mut ckt = Circuit::new();
        let mut prev = ckt.node("in");
        ckt.voltage_source(prev, Circuit::GND, Waveform::pulse(0.0, v1, 0.0, 1e-9, 1e-9, 5e-9));
        let mut last = prev;
        for k in 0..sections {
            let nn = ckt.node(format!("n{k}"));
            ckt.resistor(prev, nn, r);
            ckt.capacitor(nn, Circuit::GND, c_pf * 1e-12);
            prev = nn;
            last = nn;
        }
        let res = ckt.transient(&TransientSpec::new(20e-9, 0.05e-9)).expect("runnable");
        for &v in res.voltage(last) {
            prop_assert!(v >= -1e-6 && v <= v1 * (1.0 + 1e-6), "RC network cannot overshoot: {v}");
        }
    }

    /// Waveforms never produce NaN and respect their initial value.
    #[test]
    fn waveforms_finite(
        v0 in -10.0f64..10.0,
        v1 in -10.0f64..10.0,
        delay in 0.0f64..1e-9,
        rise in 1e-12f64..1e-9,
        width in 0.0f64..2e-9,
        t in -1e-9f64..10e-9,
    ) {
        let w = Waveform::pulse(v0, v1, delay, rise, rise, width);
        let v = w.eval(t);
        prop_assert!(v.is_finite());
        let lo = v0.min(v1) - 1e-12;
        let hi = v0.max(v1) + 1e-12;
        prop_assert!(v >= lo && v <= hi);
        prop_assert_eq!(w.initial_value(), v0);
    }

    /// S-matrix round trip: z → s → z is the identity for well-posed
    /// complex port impedances.
    #[test]
    fn s_z_roundtrip(
        re in 1.0f64..200.0,
        im in -100.0f64..100.0,
        mutual in -20.0f64..20.0,
    ) {
        let z = Matrix::from_rows(&[
            &[c64::new(re, im), c64::new(mutual, 0.5 * mutual)],
            &[c64::new(mutual, 0.5 * mutual), c64::new(1.5 * re, -im)],
        ]);
        let s = s_from_z(&z, 50.0).expect("convertible");
        let back = pdn_circuit::z_from_s(&s, 50.0).expect("convertible");
        for i in 0..2 {
            for j in 0..2 {
                prop_assert!((back[(i, j)] - z[(i, j)]).norm() < 1e-8 * (1.0 + z.max_abs()));
            }
        }
    }

    /// The FFT round trip is the identity for any power-of-two signal.
    #[test]
    fn fft_roundtrip(len_pow in 1u32..10, seed in any::<u64>()) {
        let n = 1usize << len_pow;
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        };
        let orig: Vec<c64> = (0..n).map(|_| c64::new(next(), next())).collect();
        let mut buf = orig.clone();
        pdn_num::fft(&mut buf);
        pdn_num::ifft(&mut buf);
        for (a, b) in buf.iter().zip(&orig) {
            prop_assert!((*a - *b).norm() < 1e-10);
        }
    }

    /// LU determinant of a permuted identity matrix is ±1.
    #[test]
    fn permutation_determinant(n in 2usize..10, shift in 1usize..9) {
        let shift = shift % n;
        let p = Matrix::from_fn(n, n, |i, j| if (i + shift) % n == j { 1.0 } else { 0.0 });
        let lu = LuDecomposition::new(p).expect("permutation is nonsingular");
        prop_assert!((lu.det().abs() - 1.0).abs() < 1e-12);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any extracted macromodel is reciprocal (symmetric Y) and passive
    /// (|S| ≤ 1) at any frequency below 5 GHz.
    #[test]
    fn extraction_reciprocal_and_passive(
        w_mm in 10.0f64..30.0,
        d_um in 200.0f64..800.0,
        f_ghz in 0.05f64..5.0,
    ) {
        let spec = PlaneSpec::rectangle(mm(w_mm), mm(0.8 * w_mm), d_um * 1e-6, 4.5)
            .expect("valid pair")
            .with_sheet_resistance(2e-3)
            .with_cell_size(mm(w_mm) / 7.0)
            .with_port("A", mm(0.15 * w_mm), mm(0.15 * w_mm))
            .with_port("B", mm(0.8 * w_mm), mm(0.6 * w_mm));
        let eq = spec
            .extract(&NodeSelection::PortsAndGrid { stride: 2 })
            .expect("extractable")
            .equivalent()
            .clone();
        let y = eq.admittance(f_ghz * 1e9);
        let defect = (0..y.nrows())
            .flat_map(|i| (0..y.ncols()).map(move |j| (i, j)))
            .map(|(i, j)| (y[(i, j)] - y[(j, i)]).norm())
            .fold(0.0f64, f64::max);
        prop_assert!(defect < 1e-9 * y.max_abs(), "reciprocity defect {defect:.2e}");
        let s = eq.s_parameters(f_ghz * 1e9, 50.0).expect("solvable");
        for i in 0..2 {
            for j in 0..2 {
                prop_assert!(s[(i, j)].norm() <= 1.0 + 1e-6);
            }
        }
    }

    /// A matched lossless line conserves pulse energy: the energy absorbed
    /// by the far-end load equals the energy the source delivered into the
    /// line, for any line impedance and length.
    #[test]
    fn matched_line_energy_balance(
        z0 in 20.0f64..150.0,
        len_cm in 2.0f64..30.0,
    ) {
        let v = 1.8e8;
        let model = CoupledLineModel::new(
            Matrix::from_rows(&[&[z0 / v]]),
            Matrix::from_rows(&[&[1.0 / (z0 * v)]]),
            len_cm * 1e-2,
        )
        .expect("passive");
        let tau = model.delays()[0];
        let mut ckt = Circuit::new();
        let src = ckt.node("src");
        let near = ckt.node("near");
        let far = ckt.node("far");
        ckt.voltage_source(src, Circuit::GND, Waveform::pulse(0.0, 1.0, 0.0, 0.1e-9, 0.1e-9, 0.5e-9));
        ckt.resistor(src, near, z0);
        ckt.coupled_line(model, vec![near], vec![far]);
        ckt.resistor(far, Circuit::GND, z0);
        let dt = (tau / 40.0).min(5e-12);
        let t_stop = 4.0 * tau + 2e-9;
        let res = ckt.transient(&TransientSpec::new(t_stop, dt)).expect("runnable");
        // Energy into the near end = ∫ v_near·i dt with i = (v_src_node −
        // v_near)/z0; energy out = ∫ v_far²/z0 dt.
        let (mut e_in, mut e_out) = (0.0, 0.0);
        for k in 0..res.len() {
            let vs = res.voltage(src)[k];
            let vn = res.voltage(near)[k];
            let vf = res.voltage(far)[k];
            e_in += vn * (vs - vn) / z0 * dt;
            e_out += vf * vf / z0 * dt;
        }
        prop_assert!(e_in > 0.0);
        prop_assert!(
            (e_in - e_out).abs() < 0.02 * e_in,
            "energy balance: in {e_in:.3e} out {e_out:.3e}"
        );
    }

    /// FDTD runs stay bounded for any plane geometry and port placement in
    /// the CFL-stable regime.
    #[test]
    fn fdtd_always_bounded(
        w_mm in 10.0f64..40.0,
        h_mm in 10.0f64..40.0,
        px in 0.1f64..0.9,
        py in 0.1f64..0.9,
    ) {
        let pair = PlanePair::new(0.5e-3, 4.5).expect("valid");
        let shape = Polygon::rectangle(mm(w_mm), mm(h_mm));
        let mut sim = PlaneFdtd::new(&shape, &pair, mm(2.0)).expect("grid");
        let p = sim
            .add_port("p", Point::new(mm(px * w_mm), mm(py * h_mm)), 50.0)
            .expect("port on plane");
        sim.drive_port(p, Waveform::pulse(0.0, 5.0, 0.0, 0.1e-9, 0.1e-9, 0.5e-9));
        sim.run(5e-9);
        prop_assert!(sim.peak_voltage() < 20.0, "bounded: {}", sim.peak_voltage());
        prop_assert!(sim.field_energy().is_finite());
    }

    /// The parallel sweep engine returns exactly the per-point serial
    /// answers — bit-identical, in grid order — for any random sweep grid
    /// (span, density, and point count) over a random RLC network.
    #[test]
    fn parallel_sweep_matches_serial_on_random_grids(
        f_start_mhz in 0.1f64..500.0,
        span_decades in 0.1f64..4.0,
        points in 1usize..96,
        r in 1.0f64..1e3,
        l_nh in 0.1f64..100.0,
        c_pf in 0.1f64..100.0,
    ) {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.resistor(a, b, r);
        ckt.inductor(b, Circuit::GND, l_nh * 1e-9);
        ckt.capacitor(a, Circuit::GND, c_pf * 1e-12);
        let f_start = f_start_mhz * 1e6;
        let f_stop = f_start * 10f64.powf(span_decades);
        let freqs: Vec<f64> = (0..points)
            .map(|k| {
                if points == 1 {
                    f_start
                } else {
                    f_start
                        + (f_stop - f_start) * k as f64 / (points - 1) as f64
                }
            })
            .collect();
        let ports = [a];
        let sweep = ckt.impedance_sweep(&freqs, &ports).expect("solvable");
        prop_assert_eq!(sweep.len(), freqs.len());
        for (k, &f) in freqs.iter().enumerate() {
            let point = ckt.impedance_matrix(f, &ports).expect("solvable");
            prop_assert_eq!(&sweep[k], &point, "grid point {} (f = {})", k, f);
        }
        let s_sweep = ckt.s_parameter_sweep(&freqs, &ports, 50.0).expect("solvable");
        for (k, &f) in freqs.iter().enumerate() {
            let point = s_from_z(&ckt.impedance_matrix(f, &ports).unwrap(), 50.0)
                .expect("convertible");
            prop_assert_eq!(&s_sweep[k], &point, "s grid point {} (f = {})", k, f);
        }
    }
}
