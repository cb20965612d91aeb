//! The kept-node reduction of `B` and the banded Schur complement of `G`
//! against the Kron formulas, recomputed on the dense system.
//!
//! Both kernel stores reduce `B` the same way: one projected CG per kept
//! node on their `L` operator. The reference is the formula: one
//! Cholesky solve with the dense `L` per cell, then a dense LU Schur
//! complement (`tests/common`). A single-leaf compression plan at
//! tolerance 1e-8 has no admissible block, so its compressed `L` is the
//! dense `L` bit for bit, and both stores must match the formula within
//! `1e-10` of max|B| on study A, on the HP test plane and on a two-net
//! split board; the 1120-cell and 864-cell grid cases run in the nightly
//! suite.
//!
//! `G` is an M-matrix: every off-diagonal of the reduced `G` must be
//! ≤ 0, with the formula's zero pattern, on every tested board and
//! store.

use pdn::prelude::*;
use pdn_extract::EquivalentCircuit;

mod common;
use common::{
    hp_plane_coarse, kron_formula_conductance, kron_formula_reluctance, relative_deviation,
    stamped_conductance, study_a_ssn_plane,
};

/// No admissible block: the compressed kernels equal the dense ones.
const SINGLE_LEAF: CompressionSpec = CompressionSpec {
    tol: 1e-8,
    leaf_size: 1 << 20,
    eta: 2.0,
};

/// Bound on either store's `B` deviation from the formula, relative to
/// max|B|.
const B_TOL: f64 = 1e-10;

/// Bound on `G`'s deviation from the formula, relative to max|G|.
const G_TOL: f64 = 1e-12;

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

/// `plane` extracted under `sel` on the given store, with the cells it
/// kept.
fn extract(
    plane: &PlaneSpec,
    compression: Option<CompressionSpec>,
    sel: &NodeSelection,
) -> (BemSystem, EquivalentCircuit, Vec<usize>) {
    let plane = match compression {
        Some(spec) => plane.clone().with_compression(spec),
        None => plane.clone(),
    };
    let sys = plane.extract(sel).expect("extraction").bem().clone();
    assert_eq!(sys.is_compressed(), compression.is_some());
    let (eq, keep) = EquivalentCircuit::from_bem_detailed(&sys, sel).expect("extraction");
    (sys, eq, keep)
}

fn assert_b_matches_formula(name: &str, plane: &PlaneSpec, sel: NodeSelection) {
    let (dense, eq_d, keep) = extract(plane, None, &sel);
    let formula = kron_formula_reluctance(&dense, &keep);
    let (_, eq_c, keep_c) = extract(plane, Some(SINGLE_LEAF), &sel);
    assert_eq!(keep, keep_c);
    for (store, eq) in [("dense", &eq_d), ("compressed", &eq_c)] {
        let dev = relative_deviation(eq.reluctance(), &formula);
        assert!(
            dev <= B_TOL,
            "{name} {sel:?} {store}: B deviates from the Kron formula by {dev:.3e} of max|B|"
        );
    }
}

/// Every off-diagonal of each store's `G` is ≤ 0, its zero pattern is
/// the formula's, and it is within [`G_TOL`] of the formula. `G` depends
/// only on the link resistances and the kept cells, so both stores give
/// the same bits.
fn assert_g_is_an_m_matrix(name: &str, plane: &PlaneSpec, sel: NodeSelection) {
    let (dense, eq_d, keep) = extract(plane, None, &sel);
    let formula = kron_formula_conductance(&dense, &keep);
    let (_, eq_c, _) = extract(plane, Some(CompressionSpec::default()), &sel);
    assert_eq!(eq_d.conductance(), eq_c.conductance(), "{name} {sel:?}");
    let g = eq_d.conductance();
    for i in 0..g.nrows() {
        for j in (0..g.ncols()).filter(|&j| j != i) {
            assert!(
                g[(i, j)] <= 0.0,
                "{name} {sel:?}: G({i},{j}) = {:e}",
                g[(i, j)]
            );
            assert_eq!(
                g[(i, j)] == 0.0,
                formula[(i, j)] == 0.0,
                "{name} {sel:?}: zero pattern differs at ({i},{j})"
            );
        }
    }
    let dev = relative_deviation(g, &formula);
    assert!(dev <= G_TOL, "{name} {sel:?}: G deviates by {dev:.3e}");
}

#[test]
fn study_a_half_inch_b_matches_dense_kron() {
    let plane = study_a_ssn_plane(0.5);
    assert_b_matches_formula("study A 0.5 in", &plane, NodeSelection::PortsOnly);
    assert_b_matches_formula(
        "study A 0.5 in",
        &plane,
        NodeSelection::PortsAndGrid { stride: 2 },
    );
}

#[test]
fn hp_plane_b_matches_dense_kron() {
    let plane = hp_plane_coarse();
    assert_b_matches_formula("HP 2 mm", &plane, NodeSelection::PortsAndGrid { stride: 2 });
    // Every cell kept: one solve per cell but the grounds, nothing
    // eliminated.
    assert_b_matches_formula("HP 2 mm", &plane, NodeSelection::All);
}

#[test]
fn split_board_b_matches_dense_kron_on_both_nets() {
    assert_b_matches_formula("split board", &split_board(), NodeSelection::PortsOnly);
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
    assert_b_matches_formula("slotted plane", &plane, NodeSelection::PortsOnly);
}

#[test]
fn reduced_conductance_keeps_the_m_matrix_signs() {
    let grid = NodeSelection::PortsAndGrid { stride: 2 };
    assert_g_is_an_m_matrix("HP 2 mm", &hp_plane_coarse(), grid);
    assert_g_is_an_m_matrix("study A 0.5 in", &study_a_ssn_plane(0.5), grid);
    let mcm = boards::split_mcm_plane_spec().expect("valid board");
    assert_g_is_an_m_matrix("split MCM", &mcm, grid);
}

#[test]
fn all_nodes_conductance_is_the_stamped_laplacian() {
    let (sys, eq, keep) = extract(&hp_plane_coarse(), None, &NodeSelection::All);
    assert_eq!(keep.len(), sys.mesh().cell_count());
    let bits = |m: &pdn_num::Matrix<f64>| -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    };
    assert_eq!(bits(eq.conductance()), bits(&stamped_conductance(&sys)));
}

#[test]
#[ignore = "nightly slow suite: dense extractions of 864 and 1120 cells"]
fn larger_boards_b_match_dense_kron() {
    assert_b_matches_formula(
        "split board",
        &split_board(),
        NodeSelection::PortsAndGrid { stride: 3 },
    );
    let plane = study_a_ssn_plane(0.25);
    assert_b_matches_formula("study A 0.25 in", &plane, NodeSelection::PortsOnly);
    assert_b_matches_formula(
        "study A 0.25 in",
        &plane,
        NodeSelection::PortsAndGrid { stride: 2 },
    );
}
