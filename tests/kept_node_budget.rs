//! Kernel-matvec budget of a cold compressed extraction of the `ssn_cold`
//! board. The matvec counter is process-global, so this file holds one
//! test and runs in its own process.

use pdn::prelude::*;

mod common;
use common::study_a_ssn_plane;

/// Ten times below the 3,396 kernel matvecs that one `L` solve per cell
/// took on this board.
const MATVEC_BUDGET: usize = 339;

#[test]
fn ssn_cold_extraction_stays_within_its_matvec_budget() {
    // Study A at 0.5 in with ACA at 1e-6 and the `ssn_cold` ports.
    let plane = study_a_ssn_plane(0.5).with_compression(CompressionSpec::with_tol(1e-6));
    pdn_bem::reset_kernel_matvec_count();
    let extracted = plane
        .extract(&NodeSelection::PortsOnly)
        .expect("compressed extraction");
    let matvecs = pdn_bem::kernel_matvec_count();
    assert!(extracted.bem().is_compressed());
    assert_eq!(extracted.equivalent().node_count(), 6);
    assert!(
        matvecs <= MATVEC_BUDGET,
        "{matvecs} kernel matvecs for one extraction, budget {MATVEC_BUDGET}"
    );
}
