//! Boundary-element discretization of plane shapes.
//!
//! Following the paper's Section 3.2, the conductor surface is divided into
//! quadrilateral sub-domains. On a uniform grid this yields:
//!
//! * **cells** — one per quadrilateral, carrying the pulse-basis charge and
//!   potential unknowns `Qᵢ`, `Vᵢ` at the cell center;
//! * **links** — one per pair of adjacent cells, carrying the
//!   bilinear/rooftop surface-current unknowns `Iₗ` flowing between the two
//!   cell centers (x- or y-directed).
//!
//! The signed link↔cell incidence is the discrete gradient operator `P` in
//! the paper's matrix equations (10)–(11); its transpose is the discrete
//! divergence in the continuity equation.
//!
//! Split planes (the paper's Figure 1) are meshed by passing several
//! polygons: cells are tagged with a net index and links never cross nets.

use crate::point::Point;
use crate::polygon::Polygon;
use std::error::Error;
use std::fmt;

/// Identifies a bound port within a [`PlaneMesh`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PortId(pub usize);

/// Direction of a current link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkDirection {
    /// Current flows in +x between horizontally adjacent cells.
    X,
    /// Current flows in +y between vertically adjacent cells.
    Y,
}

/// A current element between two adjacent cells.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// Tail cell (current flows from `a` to `b` when positive).
    pub a: usize,
    /// Head cell.
    pub b: usize,
    /// Orientation.
    pub direction: LinkDirection,
    /// Geometric center of the link (midpoint of the two cell centers).
    pub center: Point,
}

/// A port bound to a mesh cell (a power/ground pin, via, or probe pad).
#[derive(Debug, Clone, PartialEq)]
pub struct PortBinding {
    /// User-facing name.
    pub name: String,
    /// Requested location.
    pub location: Point,
    /// Cell index the port snapped to.
    pub cell: usize,
}

/// Errors from mesh construction and port binding.
#[derive(Debug, Clone, PartialEq)]
pub enum MeshPlaneError {
    /// The cell size was not positive and finite.
    BadCellSize {
        /// Offending value.
        cell_size: f64,
    },
    /// No cell centers fell inside any shape.
    EmptyMesh,
    /// The `nx × ny` cell raster over the shapes' bounding box cannot be
    /// allocated at this cell size (its slot count overflows, or the
    /// allocator refuses it).
    GridTooLarge {
        /// Requested cell size.
        cell_size: f64,
        /// Raster columns.
        nx: usize,
        /// Raster rows.
        ny: usize,
    },
    /// A port location was farther than one cell from any conductor.
    PortOutsideShape {
        /// Port name.
        name: String,
        /// Requested location.
        location: Point,
    },
}

impl fmt::Display for MeshPlaneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MeshPlaneError::BadCellSize { cell_size } => {
                write!(f, "cell size must be positive and finite, got {cell_size}")
            }
            MeshPlaneError::EmptyMesh => {
                write!(
                    f,
                    "no mesh cells fall inside the shape; cell size too large?"
                )
            }
            MeshPlaneError::GridTooLarge { cell_size, nx, ny } => write!(
                f,
                "a {nx} x {ny} cell raster at cell size {cell_size} cannot be allocated"
            ),
            MeshPlaneError::PortOutsideShape { name, location } => {
                write!(f, "port {name} at {location} is not on any conductor")
            }
        }
    }
}

impl Error for MeshPlaneError {}

/// A meshed plane (or set of split planes): cells, links, incidence, ports.
///
/// # Examples
///
/// ```
/// use pdn_geom::{mesh::PlaneMesh, polygon::Polygon, units::mm};
///
/// # fn main() -> Result<(), pdn_geom::mesh::MeshPlaneError> {
/// let mesh = PlaneMesh::build(&Polygon::rectangle(mm(10.0), mm(10.0)), mm(2.0))?;
/// assert_eq!(mesh.cell_count(), 25);
/// // A 5×5 grid has 2·(4·5) = 40 internal links.
/// assert_eq!(mesh.link_count(), 40);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PlaneMesh {
    dx: f64,
    dy: f64,
    nx: usize,
    ny: usize,
    origin: Point,
    /// Grid slot → cell index (dense raster over the bounding box).
    grid: Vec<Option<usize>>,
    centers: Vec<Point>,
    coords: Vec<(usize, usize)>,
    nets: Vec<usize>,
    links: Vec<Link>,
    ports: Vec<PortBinding>,
}

impl PlaneMesh {
    /// Meshes a single shape with square cells of side `cell_size`.
    ///
    /// # Errors
    ///
    /// See [`MeshPlaneError`].
    pub fn build(shape: &Polygon, cell_size: f64) -> Result<Self, MeshPlaneError> {
        Self::build_multi(std::slice::from_ref(shape), cell_size)
    }

    /// Meshes several shapes (split planes) on a common grid.
    ///
    /// Each shape becomes a separate net; links are only created between
    /// cells of the same net, so complementary 3.3 V / 5 V islands stay
    /// galvanically separate exactly as in the paper's Figure 1.
    ///
    /// # Errors
    ///
    /// See [`MeshPlaneError`].
    pub fn build_multi(shapes: &[Polygon], cell_size: f64) -> Result<Self, MeshPlaneError> {
        if !cell_size.is_finite() || cell_size <= 0.0 {
            return Err(MeshPlaneError::BadCellSize { cell_size });
        }
        // Common bounding box.
        let mut min = Point::new(f64::INFINITY, f64::INFINITY);
        let mut max = Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY);
        for s in shapes {
            let (lo, hi) = s.bounding_box();
            min.x = min.x.min(lo.x);
            min.y = min.y.min(lo.y);
            max.x = max.x.max(hi.x);
            max.y = max.y.max(hi.y);
        }
        if !min.x.is_finite() {
            return Err(MeshPlaneError::EmptyMesh);
        }
        let nx = (((max.x - min.x) / cell_size).round() as usize).max(1);
        let ny = (((max.y - min.y) / cell_size).round() as usize).max(1);
        let dx = (max.x - min.x) / nx as f64;
        let dy = (max.y - min.y) / ny as f64;
        let too_large = || MeshPlaneError::GridTooLarge { cell_size, nx, ny };
        let slots = nx.checked_mul(ny).ok_or_else(too_large)?;
        let mut grid = Vec::new();
        grid.try_reserve_exact(slots).map_err(|_| too_large())?;
        grid.resize(slots, None);
        let mut centers = Vec::new();
        let mut coords = Vec::new();
        let mut nets = Vec::new();
        for iy in 0..ny {
            for ix in 0..nx {
                let c = Point::new(
                    min.x + (ix as f64 + 0.5) * dx,
                    min.y + (iy as f64 + 0.5) * dy,
                );
                for (net, s) in shapes.iter().enumerate() {
                    if s.contains(c) {
                        grid[iy * nx + ix] = Some(centers.len());
                        centers.push(c);
                        coords.push((ix, iy));
                        nets.push(net);
                        break;
                    }
                }
            }
        }
        if centers.is_empty() {
            return Err(MeshPlaneError::EmptyMesh);
        }
        // Links between same-net neighbors.
        let mut links = Vec::new();
        for iy in 0..ny {
            for ix in 0..nx {
                let here = match grid[iy * nx + ix] {
                    Some(c) => c,
                    None => continue,
                };
                if ix + 1 < nx {
                    if let Some(right) = grid[iy * nx + ix + 1] {
                        if nets[here] == nets[right] {
                            links.push(Link {
                                a: here,
                                b: right,
                                direction: LinkDirection::X,
                                center: centers[here].midpoint(centers[right]),
                            });
                        }
                    }
                }
                if iy + 1 < ny {
                    if let Some(up) = grid[(iy + 1) * nx + ix] {
                        if nets[here] == nets[up] {
                            links.push(Link {
                                a: here,
                                b: up,
                                direction: LinkDirection::Y,
                                center: centers[here].midpoint(centers[up]),
                            });
                        }
                    }
                }
            }
        }
        Ok(PlaneMesh {
            dx,
            dy,
            nx,
            ny,
            origin: min,
            grid,
            centers,
            coords,
            nets,
            links,
            ports: Vec::new(),
        })
    }

    /// Number of cells (charge/potential unknowns).
    pub fn cell_count(&self) -> usize {
        self.centers.len()
    }

    /// Number of links (current unknowns).
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Cell size in x, meters.
    pub fn dx(&self) -> f64 {
        self.dx
    }

    /// Cell size in y, meters.
    pub fn dy(&self) -> f64 {
        self.dy
    }

    /// Grid extent `(nx, ny)` over the bounding box.
    pub fn grid_shape(&self) -> (usize, usize) {
        (self.nx, self.ny)
    }

    /// Area of one cell, m².
    pub fn cell_area(&self) -> f64 {
        self.dx * self.dy
    }

    /// Center of cell `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn cell_center(&self, i: usize) -> Point {
        self.centers[i]
    }

    /// Net index of cell `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn cell_net(&self, i: usize) -> usize {
        self.nets[i]
    }

    /// Grid coordinates `(ix, iy)` of cell `i` within the bounding-box
    /// raster.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn cell_grid_coords(&self, i: usize) -> (usize, usize) {
        self.coords[i]
    }

    /// All cell centers.
    pub fn cell_centers(&self) -> &[Point] {
        &self.centers
    }

    /// All links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Bound ports, in binding order.
    pub fn ports(&self) -> &[PortBinding] {
        &self.ports
    }

    /// Returns the binding for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not returned by this mesh's
    /// [`bind_port`](Self::bind_port).
    pub fn port(&self, id: PortId) -> &PortBinding {
        &self.ports[id.0]
    }

    /// Cell index nearest to `p`, if `p` is within one cell diagonal of a
    /// conductor cell.
    pub fn cell_at(&self, p: Point) -> Option<usize> {
        let fx = (p.x - self.origin.x) / self.dx - 0.5;
        let fy = (p.y - self.origin.y) / self.dy - 0.5;
        let ix0 = fx.round() as isize;
        let iy0 = fy.round() as isize;
        let mut best: Option<(usize, f64)> = None;
        for oy in -1..=1isize {
            for ox in -1..=1isize {
                let (ix, iy) = (ix0 + ox, iy0 + oy);
                if ix < 0 || iy < 0 || ix as usize >= self.nx || iy as usize >= self.ny {
                    continue;
                }
                if let Some(c) = self.grid[iy as usize * self.nx + ix as usize] {
                    let d = self.centers[c].distance_sq(p);
                    if best.is_none_or(|(_, bd)| d < bd) {
                        best = Some((c, d));
                    }
                }
            }
        }
        let diag = self.dx.hypot(self.dy);
        best.filter(|&(_, d)| d.sqrt() <= diag).map(|(c, _)| c)
    }

    /// Binds a named port to the cell nearest `location`.
    ///
    /// # Errors
    ///
    /// Returns [`MeshPlaneError::PortOutsideShape`] when `location` is not
    /// within one cell diagonal of the conductor.
    pub fn bind_port(
        &mut self,
        name: impl Into<String>,
        location: Point,
    ) -> Result<PortId, MeshPlaneError> {
        let name = name.into();
        let cell = self
            .cell_at(location)
            .ok_or_else(|| MeshPlaneError::PortOutsideShape {
                name: name.clone(),
                location,
            })?;
        let id = PortId(self.ports.len());
        self.ports.push(PortBinding {
            name,
            location,
            cell,
        });
        Ok(id)
    }

    /// Cell indices of all bound ports, in binding order.
    pub fn port_cells(&self) -> Vec<usize> {
        self.ports.iter().map(|p| p.cell).collect()
    }

    /// Signed incidence entries of the discrete gradient: for link `l`
    /// between cells `a → b`, the branch drop is `V[a] − V[b]`.
    ///
    /// Returns `(link, (cell_a, +1.0), (cell_b, -1.0))` triplets flattened
    /// as an iterator of `(link_index, cell_index, sign)`.
    pub fn incidence(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.links
            .iter()
            .enumerate()
            .flat_map(|(l, link)| [(l, link.a, 1.0), (l, link.b, -1.0)].into_iter())
    }

    /// Number of distinct nets in the mesh.
    pub fn net_count(&self) -> usize {
        self.nets.iter().copied().max().map_or(0, |m| m + 1)
    }

    /// Restricts the mesh to a subset of its cells — the geometry hook
    /// behind domain-decomposed (sharded) extraction.
    ///
    /// The sub-mesh keeps this mesh's grid raster (origin, `dx`, `dy`,
    /// bounding-box extent), cell centers, and net tags, so panel
    /// integrals over sub-mesh cells are bit-identical to the same
    /// integrals on the parent mesh. Only links with **both** endpoints in
    /// `cells` survive; links cut by the restriction must be re-stitched
    /// by the caller (that is the sharding interface). No ports are
    /// carried over — the caller re-binds the ports that fall inside the
    /// region plus the synthesized interface ports.
    ///
    /// `cells` must be strictly increasing and in range; sub-mesh cell `k`
    /// is parent cell `cells[k]` (renumbering preserves raster order).
    ///
    /// # Errors
    ///
    /// Returns [`MeshPlaneError::EmptyMesh`] when `cells` is empty.
    ///
    /// # Panics
    ///
    /// Panics if `cells` is not strictly increasing or contains an
    /// out-of-range index.
    pub fn submesh(&self, cells: &[usize]) -> Result<PlaneMesh, MeshPlaneError> {
        if cells.is_empty() {
            return Err(MeshPlaneError::EmptyMesh);
        }
        for w in cells.windows(2) {
            assert!(w[0] < w[1], "submesh cells must be strictly increasing");
        }
        assert!(
            *cells.last().expect("non-empty") < self.cell_count(),
            "submesh cell index out of range"
        );
        let mut new_of_old = vec![usize::MAX; self.cell_count()];
        for (new, &old) in cells.iter().enumerate() {
            new_of_old[old] = new;
        }
        let mut grid = vec![None; self.nx * self.ny];
        for &old in cells {
            let (ix, iy) = self.coords[old];
            grid[iy * self.nx + ix] = Some(new_of_old[old]);
        }
        let links = self
            .links
            .iter()
            .filter(|l| new_of_old[l.a] != usize::MAX && new_of_old[l.b] != usize::MAX)
            .map(|l| Link {
                a: new_of_old[l.a],
                b: new_of_old[l.b],
                direction: l.direction,
                center: l.center,
            })
            .collect();
        Ok(PlaneMesh {
            dx: self.dx,
            dy: self.dy,
            nx: self.nx,
            ny: self.ny,
            origin: self.origin,
            grid,
            centers: cells.iter().map(|&c| self.centers[c]).collect(),
            coords: cells.iter().map(|&c| self.coords[c]).collect(),
            nets: cells.iter().map(|&c| self.nets[c]).collect(),
            links,
            ports: Vec::new(),
        })
    }
}

impl fmt::Display for PlaneMesh {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PlaneMesh({} cells, {} links, {} nets, {} ports, cell {:.3}x{:.3} mm)",
            self.cell_count(),
            self.link_count(),
            self.net_count(),
            self.ports.len(),
            self.dx * 1e3,
            self.dy * 1e3
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::mm;

    #[test]
    fn rectangle_mesh_counts() {
        let m = PlaneMesh::build(&Polygon::rectangle(mm(10.0), mm(6.0)), mm(2.0)).unwrap();
        assert_eq!(m.grid_shape(), (5, 3));
        assert_eq!(m.cell_count(), 15);
        // Links: x: 4·3 = 12, y: 5·2 = 10.
        assert_eq!(m.link_count(), 22);
        assert_eq!(m.net_count(), 1);
    }

    #[test]
    fn submesh_keeps_raster_and_internal_links() {
        let m = PlaneMesh::build(&Polygon::rectangle(mm(10.0), mm(6.0)), mm(2.0)).unwrap();
        // Keep the left 3×3 block of the 5×3 grid.
        let cells: Vec<usize> = (0..m.cell_count())
            .filter(|&c| m.cell_grid_coords(c).0 < 3)
            .collect();
        let s = m.submesh(&cells).unwrap();
        assert_eq!(s.cell_count(), 9);
        assert_eq!(s.grid_shape(), m.grid_shape());
        assert!((s.dx() - m.dx()).abs() < 1e-15 && (s.dy() - m.dy()).abs() < 1e-15);
        // x-links: 2·3, y-links: 3·2 within the kept block.
        assert_eq!(s.link_count(), 12);
        for (k, &c) in cells.iter().enumerate() {
            assert_eq!(s.cell_center(k), m.cell_center(c));
            assert_eq!(s.cell_net(k), m.cell_net(c));
            assert_eq!(s.cell_grid_coords(k), m.cell_grid_coords(c));
        }
        // Kept links carry the parent geometry, renumbered endpoints.
        for l in s.links() {
            let (pa, pb) = (cells[l.a], cells[l.b]);
            assert!(m
                .links()
                .iter()
                .any(|pl| pl.a == pa && pl.b == pb && pl.center == l.center));
        }
        // Cells snap back to the same raster positions.
        assert_eq!(s.cell_at(m.cell_center(cells[4])), Some(4));
        assert_eq!(s.cell_at(m.cell_center(m.cell_count() - 1)), None);
    }

    #[test]
    fn submesh_empty_selection_fails() {
        let m = PlaneMesh::build(&Polygon::rectangle(mm(10.0), mm(6.0)), mm(2.0)).unwrap();
        assert_eq!(m.submesh(&[]).unwrap_err(), MeshPlaneError::EmptyMesh);
    }

    #[test]
    fn cell_area_matches_shape_area() {
        let m = PlaneMesh::build(&Polygon::rectangle(mm(8.0), mm(8.0)), mm(1.0)).unwrap();
        let total = m.cell_area() * m.cell_count() as f64;
        assert!((total - mm(8.0) * mm(8.0)).abs() < 1e-12);
    }

    #[test]
    fn l_shape_mesh_excludes_notch() {
        let l = Polygon::l_shape(mm(4.0), mm(4.0), mm(2.0), mm(2.0));
        let m = PlaneMesh::build(&l, mm(1.0)).unwrap();
        // 16 grid cells minus the 4 notch cells.
        assert_eq!(m.cell_count(), 12);
        // No cell center in the notch quadrant.
        for c in m.cell_centers() {
            assert!(!(c.x > mm(2.0) && c.y > mm(2.0)), "cell at {c} in notch");
        }
    }

    #[test]
    fn split_planes_have_no_cross_links() {
        // Two islands side by side with a gap.
        let left = Polygon::rectangle(mm(4.0), mm(4.0));
        let right = Polygon::rectangle_at(mm(5.0), 0.0, mm(4.0), mm(4.0));
        let m = PlaneMesh::build_multi(&[left, right], mm(1.0)).unwrap();
        assert_eq!(m.net_count(), 2);
        for link in m.links() {
            assert_eq!(m.cell_net(link.a), m.cell_net(link.b));
        }
    }

    #[test]
    fn abutting_nets_stay_separate() {
        // Complementary split planes that share an edge (paper Fig. 1).
        let a = Polygon::rectangle(mm(4.0), mm(4.0));
        let b = Polygon::rectangle_at(mm(4.0), 0.0, mm(4.0), mm(4.0));
        let m = PlaneMesh::build_multi(&[a, b], mm(1.0)).unwrap();
        assert_eq!(m.cell_count(), 32);
        for link in m.links() {
            assert_eq!(m.cell_net(link.a), m.cell_net(link.b));
        }
        // Every x row loses exactly one link at the split.
        let x_links = m
            .links()
            .iter()
            .filter(|l| l.direction == LinkDirection::X)
            .count();
        assert_eq!(x_links, 2 * 3 * 4); // two nets × 3 internal x-links × 4 rows
    }

    #[test]
    fn port_binding_snaps_to_cell() {
        let mut m = PlaneMesh::build(&Polygon::rectangle(mm(10.0), mm(10.0)), mm(2.0)).unwrap();
        let id = m.bind_port("VCC1", Point::new(mm(1.2), mm(0.8))).unwrap();
        let b = m.port(id);
        assert_eq!(b.name, "VCC1");
        // Nearest cell center is (1, 1) mm.
        let c = m.cell_center(b.cell);
        assert!((c.x - mm(1.0)).abs() < 1e-12);
        assert!((c.y - mm(1.0)).abs() < 1e-12);
    }

    #[test]
    fn port_off_conductor_rejected() {
        let mut m = PlaneMesh::build(&Polygon::rectangle(mm(10.0), mm(10.0)), mm(2.0)).unwrap();
        let err = m
            .bind_port("far", Point::new(mm(50.0), mm(50.0)))
            .unwrap_err();
        assert!(matches!(err, MeshPlaneError::PortOutsideShape { .. }));
    }

    #[test]
    fn incidence_has_two_entries_per_link() {
        let m = PlaneMesh::build(&Polygon::rectangle(mm(4.0), mm(4.0)), mm(2.0)).unwrap();
        let entries: Vec<_> = m.incidence().collect();
        assert_eq!(entries.len(), 2 * m.link_count());
        // Each link contributes +1 and -1.
        for l in 0..m.link_count() {
            let signs: Vec<f64> = entries
                .iter()
                .filter(|&&(li, _, _)| li == l)
                .map(|&(_, _, s)| s)
                .collect();
            assert_eq!(signs, vec![1.0, -1.0]);
        }
    }

    #[test]
    fn bad_cell_size_rejected() {
        let r = Polygon::rectangle(1.0, 1.0);
        assert!(matches!(
            PlaneMesh::build(&r, 0.0),
            Err(MeshPlaneError::BadCellSize { .. })
        ));
        assert!(matches!(
            PlaneMesh::build(&r, f64::NAN),
            Err(MeshPlaneError::BadCellSize { .. })
        ));
    }

    #[test]
    fn mesh_with_hole_skips_hole_cells() {
        let p = Polygon::rectangle(mm(6.0), mm(6.0))
            .with_hole(Polygon::rectangle_at(mm(2.0), mm(2.0), mm(2.0), mm(2.0)).into_outer());
        let m = PlaneMesh::build(&p, mm(1.0)).unwrap();
        assert_eq!(m.cell_count(), 36 - 4);
    }

    #[test]
    fn display_summarizes() {
        let m = PlaneMesh::build(&Polygon::rectangle(mm(4.0), mm(2.0)), mm(2.0)).unwrap();
        let s = m.to_string();
        assert!(s.contains("2 cells"));
        assert!(s.contains("1 links"));
    }
}
