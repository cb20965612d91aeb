//! Assembly of the MPIE system matrices.
//!
//! * `P` (potential coefficients, N×N): `V = P·Q` with `Q` the total cell
//!   charges. Entry `(i, j)` is the scalar-potential kernel integrated over
//!   source cell `j`, observed at cell `i` (point matching) or averaged
//!   over cell `i` (Galerkin), divided by the cell area to convert density
//!   to total charge.
//! * `L` (partial inductances, M×M): each link current is modeled as a
//!   uniform current patch one cell in size centered on the link. For
//!   parallel patches `L = (1/(wᵢwⱼ))∬ᵢ∬ⱼ G_A`, with the inner integral
//!   closed form; orthogonal patches have zero mutual (the kernel is
//!   diagonal dyadic in the quasi-static limit).
//! * `R` (link loop resistances, M): `R = Zs·(length/width)` squares of
//!   **loop** sheet resistance — for a plane pair both conductors carry the
//!   loop current, so pass the series sheet resistance of the pair (e.g.
//!   `2 × 6 mΩ/sq` for two identical tungsten planes).

use crate::offsets::{LinkOffsets, OffsetTable};
use pdn_geom::mesh::{Link, LinkDirection};
use pdn_geom::{PlaneMesh, PlanePair};
use pdn_greens::{LayeredKernel, SurfaceImpedance};
use pdn_num::{parallel, Matrix};
use std::error::Error;
use std::fmt;

/// Testing scheme for the boundary-element discretization (paper §3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Testing {
    /// Delta testing at panel centers: fast, adequate for smooth meshes.
    PointMatching,
    /// Galerkin testing with an `order × order` Gauss rule over the
    /// observation panel: better accuracy and stability at extra cost.
    Galerkin {
        /// Gauss–Legendre order per dimension on the observation panel.
        order: usize,
    },
}

/// Options controlling assembly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BemOptions {
    /// Testing scheme (default: point matching, the paper's fast path).
    pub testing: Testing,
    /// Number of image terms when a microstrip (air-above) substrate kernel
    /// is selected.
    pub image_terms: usize,
    /// Treat the substrate as a microstrip (grounded slab with air above)
    /// instead of a confined plane pair. Used for patch structures.
    pub microstrip: bool,
    /// Low-rank (ACA) kernel compression. `None` (the default) assembles
    /// the dense `P`/`L` matrices; `Some(spec)` stores both kernels in
    /// certified hierarchically compressed form (see
    /// [`crate::compress`]).
    pub compression: Option<crate::compress::CompressionSpec>,
}

impl Default for BemOptions {
    fn default() -> Self {
        BemOptions {
            testing: Testing::PointMatching,
            image_terms: 40,
            microstrip: false,
            compression: None,
        }
    }
}

impl Testing {
    /// Appends a canonical byte encoding of the testing scheme to `w`
    /// (part of the `pdn-service` content hash).
    pub fn write_canonical(&self, w: &mut pdn_num::ByteWriter) {
        match self {
            Testing::PointMatching => w.put_u8(0),
            Testing::Galerkin { order } => {
                w.put_u8(1);
                w.put_usize(*order);
            }
        }
    }
}

impl BemOptions {
    /// Appends a canonical byte encoding of every assembly option to `w`.
    /// Two option sets encode identically exactly when they assemble
    /// bit-identical kernels, so the `pdn-service` content hash includes
    /// this — changing the testing scheme, image-term count, substrate
    /// model, or compression spec changes the hash.
    pub fn write_canonical(&self, w: &mut pdn_num::ByteWriter) {
        self.testing.write_canonical(w);
        w.put_usize(self.image_terms);
        w.put_u8(self.microstrip as u8);
        match &self.compression {
            None => w.put_u8(0),
            Some(spec) => {
                w.put_u8(1);
                spec.write_canonical(w);
            }
        }
    }

    /// Galerkin testing of the given order (builder style).
    pub fn with_galerkin(mut self, order: usize) -> Self {
        self.testing = Testing::Galerkin { order };
        self
    }

    /// Selects the microstrip (air-above) substrate kernel (builder style).
    pub fn with_microstrip(mut self) -> Self {
        self.microstrip = true;
        self
    }

    /// Enables certified low-rank kernel compression (builder style).
    pub fn with_compression(mut self, spec: crate::compress::CompressionSpec) -> Self {
        self.compression = Some(spec);
        self
    }

    /// Checks every option field up front, returning a descriptive
    /// [`AssembleBemError::InvalidInput`] instead of failing deep inside
    /// assembly. Called by [`assemble_matrices`] and the compressed
    /// assembly path.
    ///
    /// # Errors
    ///
    /// Rejects `image_terms == 0` when the microstrip kernel is
    /// selected, a Galerkin order of 0, and any invalid
    /// [`CompressionSpec`](crate::compress::CompressionSpec).
    pub fn validate(&self) -> Result<(), AssembleBemError> {
        if self.microstrip && self.image_terms == 0 {
            return Err(AssembleBemError::InvalidInput(
                "microstrip kernel needs at least one image term".into(),
            ));
        }
        if let Testing::Galerkin { order } = self.testing {
            if order == 0 {
                return Err(AssembleBemError::InvalidInput(
                    "Galerkin testing order must be at least 1".into(),
                ));
            }
        }
        if let Some(spec) = &self.compression {
            spec.validate()?;
        }
        Ok(())
    }
}

/// Error from BEM assembly.
#[derive(Debug, Clone, PartialEq)]
pub enum AssembleBemError {
    /// The mesh has no cells.
    EmptyMesh,
    /// The capacitance inversion or a solve failed (non-physical mesh).
    NumericalBreakdown(String),
    /// A frequency or sweep argument outside the valid domain (`f <= 0`,
    /// fewer than two sweep points, a non-increasing frequency range…).
    InvalidInput(String),
}

impl fmt::Display for AssembleBemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AssembleBemError::EmptyMesh => write!(f, "mesh has no cells"),
            AssembleBemError::NumericalBreakdown(what) => {
                write!(f, "numerical breakdown during BEM assembly: {what}")
            }
            AssembleBemError::InvalidInput(what) => {
                write!(f, "invalid BEM analysis input: {what}")
            }
        }
    }
}

impl Error for AssembleBemError {}

/// Assembled raw matrices (consumed by [`crate::BemSystem`]).
#[derive(Debug, Clone)]
pub struct RawMatrices {
    /// Potential-coefficient matrix, N×N (1/F).
    pub p_coef: Matrix<f64>,
    /// Partial-inductance matrix over links, M×M (H).
    pub l: Matrix<f64>,
    /// Link loop resistances, M (Ω).
    pub r_link: Vec<f64>,
}

/// Scalar-potential kernel for the configured substrate.
pub(crate) fn scalar_kernel(pair: &PlanePair, opts: &BemOptions) -> LayeredKernel {
    if opts.microstrip {
        LayeredKernel::scalar_microstrip(pair.eps_r, pair.separation, opts.image_terms)
    } else {
        LayeredKernel::scalar_confined(pair.eps_r, pair.separation)
    }
}

/// Assembles `P`, `L`, and `R` for a meshed plane over the given pair.
///
/// # Errors
///
/// Returns [`AssembleBemError::EmptyMesh`] for an empty mesh.
pub fn assemble_matrices(
    mesh: &PlaneMesh,
    pair: &PlanePair,
    zs: &SurfaceImpedance,
    opts: &BemOptions,
) -> Result<RawMatrices, AssembleBemError> {
    opts.validate()?;
    let n = mesh.cell_count();
    if n == 0 {
        return Err(AssembleBemError::EmptyMesh);
    }
    let area = mesh.cell_area();

    // --- Potential coefficients -----------------------------------------
    // Rows are independent, so fan them out. Only the upper triangle
    // (j ≥ i) is read — row cost shrinks with i, which the dynamic
    // scheduler in `par_map_indexed` balances across workers. Each
    // distinct centre offset is integrated once, by the row that first
    // needs it; per entry the value is bit-identical to a direct call.
    let table = OffsetTable::cells(mesh, pair, opts);
    let p_rows: Vec<Vec<f64>> = parallel::par_map_indexed(n, |i| {
        let mut row = vec![0.0; n - i];
        table.fill((i..n).map(|j| (i, j)), &mut row);
        for v in &mut row {
            *v /= area;
        }
        row
    });
    let mut p_coef = Matrix::zeros(n, n);
    for (i, row) in p_rows.iter().enumerate() {
        for (k, &v) in row.iter().enumerate() {
            let j = i + k;
            p_coef[(i, j)] = v;
            p_coef[(j, i)] = v;
        }
    }

    // --- Partial inductances and link resistances -------------------------
    let (l, r_link) = assemble_link_matrices(mesh.links(), mesh.dx(), mesh.dy(), pair, zs, opts);

    Ok(RawMatrices { p_coef, l, r_link })
}

/// Assembles `L` and `R` for a set of links on the given cell raster:
/// every link of a mesh (the inductance half of [`assemble_matrices`]),
/// or the stitch branches of sharded extraction.
///
/// A link evaluated here carries the self term it gets inside a full-mesh
/// assembly, bit for bit; the mutuals among the given links (zero between
/// orthogonal links) are kept. `dx`/`dy` must be the cell pitch of the
/// mesh the links came from.
pub fn assemble_link_matrices(
    links: &[Link],
    dx: f64,
    dy: f64,
    pair: &PlanePair,
    zs: &SurfaceImpedance,
    opts: &BemOptions,
) -> (Matrix<f64>, Vec<f64>) {
    let m = links.len();
    let area = dx * dy;
    let table = LinkOffsets::new(links, dx, dy, pair, opts.testing);
    // Orthogonal links have zero quasi-static mutual, so each row reads
    // only its same-direction partners and scatters the results back.
    let l_rows: Vec<Vec<f64>> = parallel::par_map_indexed(m, |i| {
        // L = (1/(wᵢwⱼ))·∬∬ G_A; the patch width is the dimension
        // transverse to current flow.
        let dir = links[i].direction;
        let w = match dir {
            LinkDirection::X => dy,
            LinkDirection::Y => dx,
        };
        let idx: Vec<usize> = (i..m).filter(|&j| links[j].direction == dir).collect();
        let mut vals = vec![0.0; idx.len()];
        table.fill(dir, idx.iter().map(|&j| (i, j)), &mut vals);
        let mut row = vec![0.0; m - i];
        for (t, &j) in idx.iter().enumerate() {
            let integral = vals[t] * area;
            row[j - i] = integral / (w * w);
        }
        row
    });
    let mut l = Matrix::zeros(m, m);
    for (i, row) in l_rows.iter().enumerate() {
        for (k, &v) in row.iter().enumerate() {
            let j = i + k;
            l[(i, j)] = v;
            l[(j, i)] = v;
        }
    }
    (l, link_resistances(links, dx, dy, zs))
}

/// The DC loop resistance of each link on a `dx × dy` raster.
pub(crate) fn link_resistances(
    links: &[Link],
    dx: f64,
    dy: f64,
    zs: &SurfaceImpedance,
) -> Vec<f64> {
    let r_dc = zs.dc_resistance();
    links
        .iter()
        .map(|lk| match lk.direction {
            LinkDirection::X => r_dc * dx / dy,
            LinkDirection::Y => r_dc * dy / dx,
        })
        .collect()
}

/// Cross-block diagonal lumping sums for a partitioned mesh — the seam
/// compensation behind sharded extraction.
///
/// A domain-decomposed extraction keeps only the diagonal blocks of `P`
/// and `L` (plus the cut-link stitch block): every kernel entry between
/// cells or links in *different* blocks is dropped. Both kernels are
/// strictly positive, so the dropped couplings bias the blocked model
/// stiff — smaller effective inductance and larger capacitance, shifting
/// plane resonances upward. This helper returns, for every cell and every
/// link, the **row sum of its dropped entries**:
///
/// * `p_lump[i] = Σⱼ P(i, j)` over cells `j` with `cell_block[j] ≠
///   cell_block[i]`,
/// * `l_lump[i] = Σⱼ L(i, j)` over same-direction links `j` with
///   `link_block[j] ≠ link_block[i]`.
///
/// Adding each sum to the corresponding diagonal entry of the block
/// matrices ("mass lumping") preserves the row sums of the full `P` and
/// `L` exactly, which makes the blocked model exact for the uniform
/// modes: the total plate capacitance `1ᵀP⁻¹1` and the reluctance seen by
/// a current crossing the seams uniformly. Since the additions are
/// positive, symmetry and positive definiteness of the blocks are
/// preserved.
///
/// `cell_block` / `link_block` assign a block id to every mesh cell /
/// link (cut links get their own shared block, since the stitch keeps
/// their mutuals). The kernels and quadrature match [`assemble_matrices`]
/// entry by entry, and the result is bit-identical for any worker count.
///
/// # Errors
///
/// [`AssembleBemError::InvalidInput`] naming both lengths when a block
/// slice does not match the mesh's cell or link count.
pub fn cross_block_lumping(
    mesh: &PlaneMesh,
    cell_block: &[usize],
    link_block: &[usize],
    pair: &PlanePair,
    opts: &BemOptions,
) -> Result<(Vec<f64>, Vec<f64>), AssembleBemError> {
    let n = mesh.cell_count();
    let m = mesh.link_count();
    for (what, len, want) in [
        ("cell_block", cell_block.len(), n),
        ("link_block", link_block.len(), m),
    ] {
        if len != want {
            return Err(AssembleBemError::InvalidInput(format!(
                "{what} has {len} entries but the mesh has {want}"
            )));
        }
    }
    let area = mesh.cell_area();
    let cells = OffsetTable::cells(mesh, pair, opts);
    let p_lump = parallel::par_map_indexed(n, |i| {
        let idx: Vec<usize> = (0..n).filter(|&j| cell_block[j] != cell_block[i]).collect();
        let mut vals = vec![0.0; idx.len()];
        cells.fill(idx.iter().map(|&j| (i, j)), &mut vals);
        // Same ascending-j accumulation as the dropped-row-sum contract.
        let mut s = 0.0;
        for &p in &vals {
            s += p / area;
        }
        s
    });
    let links = mesh.links();
    let link_table = LinkOffsets::new(links, mesh.dx(), mesh.dy(), pair, opts.testing);
    let l_lump = parallel::par_map_indexed(m, |i| {
        let dir = links[i].direction;
        let w = match dir {
            LinkDirection::X => mesh.dy(),
            LinkDirection::Y => mesh.dx(),
        };
        let idx: Vec<usize> = (0..m)
            .filter(|&j| link_block[j] != link_block[i] && links[j].direction == dir)
            .collect();
        let mut vals = vec![0.0; idx.len()];
        link_table.fill(dir, idx.iter().map(|&j| (i, j)), &mut vals);
        let mut s = 0.0;
        for &v in &vals {
            let integral = v * area;
            s += integral / (w * w);
        }
        s
    });
    Ok((p_lump, l_lump))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdn_geom::units::mm;
    use pdn_geom::Polygon;
    use pdn_num::cholesky::is_positive_definite;
    use pdn_num::phys::{EPS0, MU0};

    fn small_system() -> (PlaneMesh, PlanePair, RawMatrices) {
        let mesh = PlaneMesh::build(&Polygon::rectangle(mm(10.0), mm(10.0)), mm(2.0)).unwrap();
        let pair = PlanePair::new(0.5e-3, 4.5).unwrap();
        let raw = assemble_matrices(
            &mesh,
            &pair,
            &SurfaceImpedance::from_sheet_resistance(1e-3),
            &BemOptions::default(),
        )
        .unwrap();
        (mesh, pair, raw)
    }

    #[test]
    fn p_matrix_symmetric_positive_definite() {
        let (_, _, raw) = small_system();
        assert_eq!(raw.p_coef.symmetry_defect(), 0.0);
        assert!(is_positive_definite(&raw.p_coef));
    }

    #[test]
    fn l_matrix_symmetric_positive_definite() {
        let (_, _, raw) = small_system();
        assert_eq!(raw.l.symmetry_defect(), 0.0);
        assert!(is_positive_definite(&raw.l));
    }

    #[test]
    fn p_diagonal_dominates() {
        let (_, _, raw) = small_system();
        for i in 0..raw.p_coef.nrows() {
            for j in 0..raw.p_coef.ncols() {
                if i != j {
                    assert!(raw.p_coef[(i, i)] > raw.p_coef[(i, j)]);
                    assert!(raw.p_coef[(i, j)] > 0.0);
                }
            }
        }
    }

    #[test]
    fn total_capacitance_close_to_parallel_plate() {
        let (mesh, pair, raw) = small_system();
        // Sum over all entries of C = P⁻¹ is the capacitance of the plate
        // held at uniform potential: ≈ ε₀εr·A/d (slightly above, fringing).
        let c = pdn_num::lu::invert(raw.p_coef).unwrap();
        let c_total: f64 = (0..c.nrows())
            .flat_map(|i| (0..c.ncols()).map(move |j| (i, j)))
            .map(|(i, j)| c[(i, j)])
            .sum();
        let area = mesh.cell_area() * mesh.cell_count() as f64;
        let c_pp = EPS0 * pair.eps_r * area / pair.separation;
        let ratio = c_total / c_pp;
        assert!(ratio > 1.0 && ratio < 1.35, "C_total/C_pp = {ratio}");
    }

    #[test]
    fn inductance_self_larger_than_mutual() {
        let (_, _, raw) = small_system();
        for i in 0..raw.l.nrows() {
            for j in 0..raw.l.ncols() {
                if i != j {
                    assert!(raw.l[(i, i)] > raw.l[(i, j)].abs());
                }
            }
        }
    }

    #[test]
    fn self_inductance_scale_is_plane_pair_like() {
        // For a plane pair the per-square loop inductance is μ₀·d; the
        // link self-inductance of a square patch over its image should be
        // the same order of magnitude (larger, since one patch is narrower
        // than an infinite front).
        let (mesh, pair, raw) = small_system();
        let l_sq = MU0 * pair.separation;
        let _ = mesh;
        for i in 0..raw.l.nrows() {
            let r = raw.l[(i, i)] / l_sq;
            assert!(r > 0.5 && r < 20.0, "L_self/μ₀d = {r}");
        }
    }

    #[test]
    fn link_resistance_matches_squares() {
        let (mesh, _, raw) = small_system();
        // Square cells: every link is exactly one square of loop sheet R.
        for (r, _) in raw.r_link.iter().zip(mesh.links()) {
            assert!((r - 1e-3).abs() < 1e-12);
        }
    }

    #[test]
    fn galerkin_close_to_point_matching() {
        let mesh = PlaneMesh::build(&Polygon::rectangle(mm(8.0), mm(8.0)), mm(2.0)).unwrap();
        let pair = PlanePair::new(0.5e-3, 4.5).unwrap();
        let zs = SurfaceImpedance::lossless();
        let pm = assemble_matrices(&mesh, &pair, &zs, &BemOptions::default()).unwrap();
        let gal =
            assemble_matrices(&mesh, &pair, &zs, &BemOptions::default().with_galerkin(4)).unwrap();
        // Same structure: off-diagonal terms nearly identical, diagonal a
        // few percent apart (averaging vs center evaluation).
        let rel = (pm.p_coef[(0, 0)] - gal.p_coef[(0, 0)]).abs() / pm.p_coef[(0, 0)];
        assert!(rel < 0.25, "diagonal relative difference {rel}");
        let rel_off = (pm.p_coef[(0, 3)] - gal.p_coef[(0, 3)]).abs() / pm.p_coef[(0, 3)];
        assert!(rel_off < 0.05);
        assert!(is_positive_definite(&gal.p_coef));
        assert!(is_positive_definite(&gal.l));
    }

    #[test]
    fn microstrip_kernel_reduces_capacitance_coupling() {
        // Air above pulls some field out of the substrate, so the
        // microstrip P diagonal (1/C-like) is larger than the confined one
        // for the same geometry.
        let mesh = PlaneMesh::build(&Polygon::rectangle(mm(8.0), mm(8.0)), mm(2.0)).unwrap();
        let pair = PlanePair::new(1e-3, 4.5).unwrap();
        let zs = SurfaceImpedance::lossless();
        let confined = assemble_matrices(&mesh, &pair, &zs, &BemOptions::default()).unwrap();
        let micro =
            assemble_matrices(&mesh, &pair, &zs, &BemOptions::default().with_microstrip()).unwrap();
        assert!(micro.p_coef[(0, 0)] > confined.p_coef[(0, 0)]);
    }

    #[test]
    fn link_matrices_bit_identical_to_full_assembly() {
        let (mesh, pair, raw) = small_system();
        let zs = SurfaceImpedance::from_sheet_resistance(1e-3);
        // Any link subset evaluated standalone must reproduce the
        // corresponding block of the full L exactly — that is the
        // bit-consistency contract the shard stitch relies on.
        let subset = [0usize, 3, 7, mesh.link_count() - 1];
        let links: Vec<_> = subset.iter().map(|&i| mesh.links()[i]).collect();
        let (l_sub, r_sub) = assemble_link_matrices(
            &links,
            mesh.dx(),
            mesh.dy(),
            &pair,
            &zs,
            &BemOptions::default(),
        );
        for (a, &ga) in subset.iter().enumerate() {
            assert_eq!(r_sub[a], raw.r_link[ga]);
            for (b, &gb) in subset.iter().enumerate() {
                assert_eq!(l_sub[(a, b)], raw.l[(ga, gb)], "entry ({ga},{gb})");
            }
        }
        let (l_empty, r_empty) = assemble_link_matrices(
            &[],
            mesh.dx(),
            mesh.dy(),
            &pair,
            &zs,
            &BemOptions::default(),
        );
        assert_eq!(l_empty.nrows(), 0);
        assert!(r_empty.is_empty());
    }

    #[test]
    fn lumping_sums_match_dropped_row_sums_exactly() {
        let (mesh, pair, raw) = small_system();
        // Split cells/links down the middle by x and compare against the
        // off-block row sums of the full matrices: every term is evaluated
        // with the same kernel call, so the sums must agree bit-for-bit
        // when accumulated in the same (ascending-j) order.
        let mid = mm(5.0);
        let cell_block: Vec<usize> = (0..mesh.cell_count())
            .map(|i| usize::from(mesh.cell_center(i).x > mid))
            .collect();
        let link_block: Vec<usize> = mesh
            .links()
            .iter()
            .map(|l| usize::from(l.center.x > mid))
            .collect();
        let (p_lump, l_lump) = cross_block_lumping(
            &mesh,
            &cell_block,
            &link_block,
            &pair,
            &BemOptions::default(),
        )
        .unwrap();
        for i in 0..mesh.cell_count() {
            let want: f64 = (0..mesh.cell_count())
                .filter(|&j| cell_block[j] != cell_block[i])
                .map(|j| raw.p_coef[(i, j)])
                .sum();
            let rel = (p_lump[i] - want).abs() / want;
            assert!(rel < 1e-12, "cell {i}: {} vs {want}", p_lump[i]);
            assert!(p_lump[i] > 0.0);
        }
        for i in 0..mesh.link_count() {
            let want: f64 = (0..mesh.link_count())
                .filter(|&j| link_block[j] != link_block[i])
                .map(|j| raw.l[(i, j)])
                .sum();
            assert!(
                (l_lump[i] - want).abs() <= 1e-12 * want.abs().max(1e-300),
                "link {i}: {} vs {want}",
                l_lump[i]
            );
            assert!(l_lump[i] >= 0.0);
        }
    }

    #[test]
    fn lumping_rejects_mismatched_block_slices() {
        let (mesh, pair, _) = small_system();
        let (n, m) = (mesh.cell_count(), mesh.link_count());
        let opts = BemOptions::default();
        for (cells, links, named) in [(n - 1, m, [n - 1, n]), (n, m + 2, [m + 2, m])] {
            let err = cross_block_lumping(&mesh, &vec![0; cells], &vec![0; links], &pair, &opts)
                .unwrap_err();
            match err {
                AssembleBemError::InvalidInput(msg) => {
                    for len in named {
                        assert!(msg.contains(&len.to_string()), "names {len}: {msg}");
                    }
                }
                other => panic!("expected InvalidInput, got {other:?}"),
            }
        }
    }

    #[test]
    fn mutual_inductance_decays_with_distance() {
        let (mesh, _, raw) = small_system();
        // Pick an x-link and compare mutuals with nearer/farther x-links.
        let links = mesh.links();
        let x0 = (0..links.len())
            .find(|&i| links[i].direction == LinkDirection::X)
            .unwrap();
        let mut pairs: Vec<(f64, f64)> = (0..links.len())
            .filter(|&j| j != x0 && links[j].direction == LinkDirection::X)
            .map(|j| {
                (
                    links[x0].center.distance(links[j].center),
                    raw.l[(x0, j)].abs(),
                )
            })
            .collect();
        pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        assert!(pairs.first().unwrap().1 > pairs.last().unwrap().1);
    }
}
