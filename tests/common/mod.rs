//! Helpers shared across the integration-test binaries: the serialized
//! `PDN_THREADS` harness, the HP test-plane (paper Figure 6/7) builders
//! that several suites previously each carried a copy of, and the
//! `ssn_cold` study-A plane.
//!
//! Each test binary compiles its own copy via `mod common;`, so the
//! mutex still serializes within one binary — exactly the scope that
//! matters, since the default harness runs `#[test]`s concurrently in
//! one process while cargo runs test binaries one at a time.
#![allow(dead_code)]

use pdn::prelude::*;
use std::sync::Mutex;

/// Serializes every test that touches the process-global `PDN_THREADS`.
pub static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Runs `body` once per thread count in {1, 2, available_parallelism},
/// restoring the prior `PDN_THREADS` afterwards (the harness runs tests
/// concurrently in one process, so the env var is serialized).
pub fn with_thread_counts(mut body: impl FnMut(usize)) {
    let _guard = ENV_LOCK.lock().unwrap();
    let prior = std::env::var("PDN_THREADS").ok();
    let avail = std::thread::available_parallelism().map_or(1, usize::from);
    let mut counts = vec![1usize, 2, avail];
    counts.dedup();
    for n in counts {
        std::env::set_var("PDN_THREADS", n.to_string());
        assert_eq!(pdn_num::parallel::worker_count(), n);
        body(n);
    }
    match prior {
        Some(v) => std::env::set_var("PDN_THREADS", v),
        None => std::env::remove_var("PDN_THREADS"),
    }
}

/// The Figure 7/8 structure: the HP test plane at test-runtime mesh
/// density (2 mm cells; `pdn_core::boards::hp_test_plane` is the same
/// plane at its published 1 mm density).
pub fn hp_plane_coarse() -> PlaneSpec {
    let mut spec = PlaneSpec::rectangle(mm(40.0), mm(16.0), 280e-6, 9.6)
        .expect("valid pair")
        .with_sheet_resistance(6e-3)
        .with_cell_size(mm(2.0));
    for k in 0..5 {
        spec = spec.with_port(format!("P{}", k + 1), mm(4.0 + 8.0 * k as f64), mm(8.0));
    }
    spec
}

/// A board on the HP test-plane outline (Figure 6 geometry: 40 × 16 mm
/// ceramic plane pair, 280 µm apart, εr 9.6) with the supply and two
/// chips sitting on the figure's P1/P3/P5 pad positions. First plane
/// resonance ≈ 1.2 GHz. The cell size is a parameter: coarse meshes
/// suit monolithic equivalence checks, while sharded strategies need
/// the seam strip to be a small fraction of the plane.
pub fn hp_board(cell: f64) -> BoardSpec {
    let plane = PlaneSpec::rectangle(mm(40.0), mm(16.0), um(280.0), 9.6)
        .unwrap()
        .with_sheet_resistance(6e-3)
        .with_cell_size(cell);
    BoardSpec::new(plane, 3.3, Point::new(mm(4.0), mm(8.0)))
        .with_chip(ChipSpec::cmos("U1", Point::new(mm(20.0), mm(8.0)), 2))
        .with_chip(ChipSpec::cmos("U2", Point::new(mm(36.0), mm(8.0)), 2))
}

/// Study A (`pdn_core::boards::ssn_study_a_board`) at `cell_inch` with
/// the `ssn_cold` port set bound in `BoardSpec::extract_model` order:
/// VRM, the chip's supply pin and four decap sites on the ring around
/// the chip.
pub fn study_a_ssn_plane(cell_inch: f64) -> PlaneSpec {
    let board = boards::ssn_study_a_board(cell_inch).expect("valid board");
    let mut plane =
        board
            .plane
            .clone()
            .with_port("VRM", board.supply_location.x, board.supply_location.y);
    for chip in &board.chips {
        plane = plane.with_port(
            format!("{}_vcc", chip.name),
            chip.location.x,
            chip.location.y,
        );
    }
    for (k, d) in boards::ssn_study_a_decaps(4).iter().enumerate() {
        plane = plane.with_port(format!("decap{k}"), d.location.x, d.location.y);
    }
    plane
}

/// The full-grid DC conductance `G = AᵀZs⁻¹A` of a system, stamped link
/// by link: `+1/r` on the diagonals of a link's two cells, `−1/r` between
/// them.
pub fn stamped_conductance(sys: &pdn_bem::BemSystem) -> pdn_num::Matrix<f64> {
    let n = sys.mesh().cell_count();
    let mut g_full = pdn_num::Matrix::zeros(n, n);
    for (link, &r) in sys.mesh().links().iter().zip(sys.link_resistances()) {
        let g = 1.0 / r;
        g_full[(link.a, link.a)] += g;
        g_full[(link.b, link.b)] += g;
        g_full[(link.a, link.b)] -= g;
        g_full[(link.b, link.a)] -= g;
    }
    g_full
}

/// `G` Kron-reduced onto `keep` by the formula: [`stamped_conductance`]
/// through `pdn_extract::kron_reduce` (a dense LU of the eliminated
/// block).
pub fn kron_formula_conductance(sys: &pdn_bem::BemSystem, keep: &[usize]) -> pdn_num::Matrix<f64> {
    pdn_extract::kron_reduce(&stamped_conductance(sys), keep).expect("grounded eliminated block")
}

/// `B` Kron-reduced onto `keep` by the formula, on a dense system: the
/// full-grid reluctance `AᵀL⁻¹A` from one Cholesky solve with `L` per
/// cell, through `pdn_extract::kron_reduce`. The reference for the
/// kept-node reduction, which reaches the same matrix without forming an
/// eliminated block.
pub fn kron_formula_reluctance(sys: &pdn_bem::BemSystem, keep: &[usize]) -> pdn_num::Matrix<f64> {
    let mesh = sys.mesh();
    let (n, m) = (mesh.cell_count(), mesh.link_count());
    let l = sys.inductance().expect("a dense system");
    let ch = pdn_num::CholeskyDecomposition::new(l).expect("L is positive definite");
    let mut by_cell = vec![Vec::new(); n];
    for (link, cell, sign) in mesh.incidence() {
        by_cell[cell].push((link, sign));
    }
    let mut b_full = pdn_num::Matrix::zeros(n, n);
    for (j, entries) in by_cell.iter().enumerate() {
        // Column j: x = L⁻¹·A·e_j, then Aᵀ·x.
        let mut a = vec![0.0; m];
        for &(link, sign) in entries {
            a[link] += sign;
        }
        let x = ch.solve(&a).expect("matching dimension");
        for (link, &v) in mesh.links().iter().zip(&x) {
            b_full[(link.a, j)] += v;
            b_full[(link.b, j)] -= v;
        }
    }
    pdn_extract::kron_reduce(&b_full, keep).expect("grounded eliminated block")
}

/// The largest entry deviation of `got` from `want`, relative to
/// max|want|.
pub fn relative_deviation(got: &pdn_num::Matrix<f64>, want: &pdn_num::Matrix<f64>) -> f64 {
    assert_eq!(got.shape(), want.shape());
    let worst = got
        .as_slice()
        .iter()
        .zip(want.as_slice())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    worst / want.max_abs()
}
