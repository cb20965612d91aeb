//! Reduced-order (pole–residue) plane macromodels in the transient flow.
//!
//! Three angles:
//!
//! * a golden check on a board with the paper's Figure 6 HP test-plane
//!   geometry — the recursive-convolution ROM transient must track the
//!   full R–L‖C macromodel stamp within the certified fit tolerance,
//!   for both the monolithic and the sharded extraction strategy;
//! * bit-identity across `PDN_THREADS` — the per-step pole fan-out must
//!   not leak scheduling order into the waveforms;
//! * a passivity property — every certified fit, over randomized passive
//!   networks, must have a positive-semidefinite Hermitian part at
//!   random off-grid frequencies after enforcement.

use pdn::prelude::*;
use pdn_num::{symmetric_eigen, PromOptions};
use proptest::prelude::*;

mod common;
use common::{hp_board, with_thread_counts};

fn rom_spec() -> RomSpec {
    RomSpec {
        f_min: 1e6,
        f_max: 4e9,
        points: 48,
        rel_tol: 1e-5,
        cert_tol: 0.02,
    }
}

/// ROM-vs-full-stamp transient equivalence on the HP plane, for both
/// extraction strategies. Both the companion stamp of the R–L‖C network
/// and the recursive convolution are exact trapezoidal discretizations
/// of their frequency-domain models, so the waveforms may differ only
/// by the certified fit tolerance of the reduction itself.
fn assert_rom_tracks_full(board: &BoardSpec) {
    let sel = NodeSelection::PortsAndGrid { stride: 3 };
    let (t_stop, dt) = (12e-9, 0.05e-9);

    let full_model = board.extract_model(&sel).unwrap();
    let full = board.wire(&full_model, 2).unwrap().run(t_stop, dt).unwrap();

    let rom_board = board.clone().with_reduced_order(rom_spec());
    let rom_model = rom_board.extract_model(&sel).unwrap();
    let rom = rom_model.reduced_model().expect("reduction requested");
    assert_eq!(rom.ports(), full_model.equivalent().port_count());
    assert!(rom.holdout_residual() < rom_spec().cert_tol);
    let reduced = rom_board
        .wire(&rom_model, 2)
        .unwrap()
        .run(t_stop, dt)
        .unwrap();

    assert_eq!(reduced.time, full.time);
    let peak = full
        .rail_noise
        .iter()
        .fold(0.0f64, |m, &v| m.max(v.abs()))
        .max(f64::MIN_POSITIVE);
    let worst = reduced
        .rail_noise
        .iter()
        .zip(&full.rail_noise)
        .fold(0.0f64, |m, (&a, &b)| m.max((a - b).abs()));
    assert!(
        worst < 0.05 * peak,
        "ROM rail-noise deviation {worst:.3e} vs peak {peak:.3e}"
    );
    assert!(
        (reduced.peak_noise - full.peak_noise).abs() < 0.05 * full.peak_noise,
        "peak noise: reduced {} vs full {}",
        reduced.peak_noise,
        full.peak_noise
    );
}

#[test]
fn hp_plane_rom_transient_tracks_full_stamp_monolithic() {
    assert_rom_tracks_full(&hp_board(mm(2.0)));
}

#[test]
fn hp_plane_rom_transient_tracks_full_stamp_sharded() {
    let board = hp_board(mm(1.6)).with_extraction_strategy(ExtractionStrategy::Sharded {
        plan: ShardPlan::grid(2, 1).unwrap(),
    });
    assert_rom_tracks_full(&board);
}

#[test]
fn rom_transient_is_thread_count_invariant() {
    // Extract once; only the transient (the recursive-convolution
    // fan-out under test) runs per thread count.
    let board = hp_board(mm(2.0)).with_reduced_order(rom_spec());
    let model = board
        .extract_model(&NodeSelection::PortsAndGrid { stride: 3 })
        .unwrap();
    assert!(model.reduced_model().is_some());
    let sys = board.wire(&model, 2).unwrap();

    let mut reference: Option<SsnOutcome> = None;
    with_thread_counts(|n| {
        let out = sys.run(10e-9, 0.05e-9).unwrap();
        match &reference {
            None => reference = Some(out),
            // Bit-identical: the per-step pole fan-out reduces in pole
            // index order, never in completion order.
            Some(r) => assert_eq!(&out, r, "waveforms with {n} workers"),
        }
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Certified fits of randomized passive two-ports stay passive after
    /// enforcement: the Hermitian part of `Y(jω)` is PSD (to round-off)
    /// at random frequencies that never entered the fit or the scan.
    #[test]
    fn certified_fits_have_psd_hermitian_part(
        g in 1e-3f64..5e-2,
        couple in -0.45f64..0.45,
        cap in 5e-13f64..5e-12,
        f_pole in 2e8f64..2e9,
        q_factor in 2.0f64..40.0,
        r_mag in 1e5f64..5e6,
        p1 in 0.0f64..1.0,
        p2 in 0.0f64..1.0,
        p3 in 0.0f64..1.0,
        p4 in 0.0f64..1.0,
    ) {
        // Y(s) = D + sE + C/(s−q) + C̄/(s−q̄): D diagonally dominant
        // (hence PSD), E PSD, one resonant pair with a bounded residue.
        let omega = 2.0 * std::f64::consts::PI * f_pole;
        let q = c64::new(-omega / (2.0 * q_factor), omega);
        let cres = [
            [c64::new(r_mag, -0.3 * r_mag), c64::new(couple * r_mag, 0.1 * r_mag)],
            [c64::new(couple * r_mag, 0.1 * r_mag), c64::new(r_mag, -0.3 * r_mag)],
        ];
        let d = [[g, couple * g], [couple * g, g]];
        let e = [[cap, 0.2 * couple * cap], [0.2 * couple * cap, cap]];
        let eval = |f: f64| {
            let s = c64::from_im(2.0 * std::f64::consts::PI * f);
            Ok::<_, std::convert::Infallible>(Matrix::from_fn(2, 2, |i, j| {
                c64::from_re(d[i][j])
                    + s * e[i][j]
                    + cres[i][j] / (s - q)
                    + cres[i][j].conj() / (s - q.conj())
            }))
        };
        let (f_min, f_max, points) = (1e6f64, 5e9f64, 48usize);
        let grid: Vec<f64> = (0..points)
            .map(|k| f_min * (f_max / f_min).powf(k as f64 / (points - 1) as f64))
            .collect();
        let outcome = pdn_num::rational::sweep(&grid,
            SweepAccuracy::Rational { rel_tol: 1e-8 },
            eval,
        )
        .unwrap();
        let model = PoleResidueModel::from_rational(&outcome.model.expect("sweep certifies an interpolant"),
            &grid,
            &outcome.values,
            &[],
            &[],
            &PromOptions::default(),
        )
        .unwrap();
        for p in [p1, p2, p3, p4] {
            let f = f_min * (f_max / f_min).powf(p);
            let y = model.evaluate(f);
            let re_y = y.map(|z| z.re);
            let lambda = symmetric_eigen(&re_y).unwrap().values[0];
            let scale = y.frobenius_norm().max(f64::MIN_POSITIVE);
            prop_assert!(
                lambda >= -1e-8 * scale,
                "Re Y eigenvalue {lambda:.3e} at f {f:.3e} (scale {scale:.3e})"
            );
        }
    }
}
