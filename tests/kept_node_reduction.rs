//! The compressed route's kept-node reduction of `B` against the dense
//! route's Kron reduction.
//!
//! A single-leaf compression plan at tolerance 1e-8 has no admissible
//! block, so its compressed `L` is the dense `L` bit for bit and any
//! difference between the two routes' `B` comes from the reductions
//! alone: one projected CG per kept node on one side, dense Cholesky
//! solves and an LU Schur complement on the other. They must agree within
//! `1e-10` of max|B| on study A, on the HP test plane and on a two-net
//! split board; the 1120-cell and 864-cell grid cases run in the nightly
//! suite.

use pdn::prelude::*;

mod common;
use common::{hp_plane_coarse, study_a_ssn_plane};

/// No admissible block: the compressed kernels equal the dense ones.
const SINGLE_LEAF: CompressionSpec = CompressionSpec {
    tol: 1e-8,
    leaf_size: 1 << 20,
    eta: 2.0,
};

/// Bound on the compressed-vs-dense `B` deviation, relative to max|B|.
const B_TOL: f64 = 1e-10;

/// Two islands, 20 × 24 mm and 16 × 24 mm at 1 mm (864 cells), with two
/// ports on each.
fn split_board() -> PlaneSpec {
    let a = Polygon::rectangle(mm(20.0), mm(24.0));
    let b = Polygon::rectangle_at(mm(21.0), 0.0, mm(16.0), mm(24.0));
    PlaneSpec::from_shapes(vec![a, b], 0.5e-3, 4.5)
        .expect("valid pair")
        .with_sheet_resistance(4e-3)
        .with_cell_size(mm(1.0))
        .with_port("A", mm(3.0), mm(4.0))
        .with_port("A2", mm(15.0), mm(20.0))
        .with_port("B", mm(25.0), mm(12.0))
        .with_port("B2", mm(34.0), mm(3.0))
}

/// The largest entry deviation of the single-leaf compressed `B` from
/// the dense route's, relative to max|B|.
fn b_deviation(plane: &PlaneSpec, sel: &NodeSelection) -> f64 {
    let dense = plane.extract(sel).expect("dense extraction");
    let compressed = plane
        .clone()
        .with_compression(SINGLE_LEAF)
        .extract(sel)
        .expect("compressed extraction");

    assert!(compressed.bem().is_compressed());
    let (bd, bc) = (
        dense.equivalent().reluctance(),
        compressed.equivalent().reluctance(),
    );
    assert_eq!((bd.nrows(), bd.ncols()), (bc.nrows(), bc.ncols()));
    let worst = bd
        .as_slice()
        .iter()
        .zip(bc.as_slice())
        .map(|(d, c)| (d - c).abs())
        .fold(0.0f64, f64::max);
    worst / bd.max_abs()
}

fn assert_b_matches_dense(name: &str, plane: &PlaneSpec, sel: NodeSelection) {
    let dev = b_deviation(plane, &sel);
    assert!(
        dev <= B_TOL,
        "{name} {sel:?}: B deviates from dense Kron by {dev:.3e} of max|B|"
    );
}

#[test]
fn study_a_half_inch_b_matches_dense_kron() {
    let plane = study_a_ssn_plane(0.5);
    assert_b_matches_dense("study A 0.5 in", &plane, NodeSelection::PortsOnly);
    assert_b_matches_dense(
        "study A 0.5 in",
        &plane,
        NodeSelection::PortsAndGrid { stride: 2 },
    );
}

#[test]
fn hp_plane_b_matches_dense_kron() {
    let plane = hp_plane_coarse();
    assert_b_matches_dense("HP 2 mm", &plane, NodeSelection::PortsAndGrid { stride: 2 });
    // Every cell kept: one solve per cell but the grounds, nothing
    // eliminated.
    assert_b_matches_dense("HP 2 mm", &plane, NodeSelection::All);
}

#[test]
fn split_board_b_matches_dense_kron_on_both_nets() {
    assert_b_matches_dense("split board", &split_board(), NodeSelection::PortsOnly);
}

#[test]
fn slotted_plane_grounds_each_connected_piece() {
    // A slot across the whole plane leaves two pieces of one net: each
    // needs its own ground, or the grounded Laplacian is singular.
    let slotted = Polygon::rectangle(mm(20.0), mm(12.0)).with_hole(vec![
        Point::new(mm(8.0), mm(-1.0)),
        Point::new(mm(12.0), mm(-1.0)),
        Point::new(mm(12.0), mm(13.0)),
        Point::new(mm(8.0), mm(13.0)),
    ]);
    let plane = PlaneSpec::from_shapes(vec![slotted], 0.5e-3, 4.5)
        .expect("valid pair")
        .with_sheet_resistance(4e-3)
        .with_cell_size(mm(2.0))
        .with_port("L", mm(3.0), mm(5.0))
        .with_port("L2", mm(5.0), mm(11.0))
        .with_port("R", mm(15.0), mm(7.0))
        .with_port("R2", mm(19.0), mm(1.0));
    assert_b_matches_dense("slotted plane", &plane, NodeSelection::PortsOnly);
}

#[test]
#[ignore = "nightly slow suite: dense extractions of 864 and 1120 cells"]
fn larger_boards_b_match_dense_kron() {
    assert_b_matches_dense(
        "split board",
        &split_board(),
        NodeSelection::PortsAndGrid { stride: 3 },
    );
    let plane = study_a_ssn_plane(0.25);
    assert_b_matches_dense("study A 0.25 in", &plane, NodeSelection::PortsOnly);
    assert_b_matches_dense(
        "study A 0.25 in",
        &plane,
        NodeSelection::PortsAndGrid { stride: 2 },
    );
}
