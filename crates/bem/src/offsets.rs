//! Kernel values by centre offset, each distinct offset evaluated once.
//!
//! Every `P` and `L` entry is the panel integral of one kernel at the
//! offset between two centres, `(x_a − x_b, y_a − y_b)`, and per element
//! that integral is a pure function of the offset's bits. On a raster
//! mesh the offsets repeat: the 280 cells of the study-A board at 0.5 in
//! give 39,340 `P` entries in the upper triangle but 3,218 distinct
//! offsets. An [`OffsetTable`] holds, for one kernel and one point set:
//!
//! * the distinct x and y coordinates, deduplicated by bit pattern;
//! * for every ordered pair of coordinates, the id of their difference,
//!   again deduplicated by bit pattern;
//! * one value slot per (x-difference, y-difference) pair, filled on
//!   first use.
//!
//! An entry reads the slot of its offset, whose value was computed from
//! the same subtraction on the same bits, so every entry equals a direct
//! evaluation bit for bit, for any point set and any fill order. A miss
//! is integrated on the spot by the scalar
//! [`panel_integral`](LayeredKernel::panel_integral) or
//! [`panel_galerkin`](LayeredKernel::panel_galerkin) call and stored;
//! workers that miss the same slot at once compute the same bits, so the
//! race is benign and the result is identical for any `PDN_THREADS`.
//!
//! The pair tables have `nx² + ny²` entries and the slots `ndx · ndy`,
//! a few dozen per point on a raster. A point set whose tables would
//! exceed [`SLOT_BUDGET_PER_POINT`] entries per point is evaluated entry
//! by entry instead, at the cost of a direct fill; building a table
//! never costs O(n²).

use crate::assembly::{scalar_kernel, BemOptions, Testing};
use pdn_geom::mesh::{Link, LinkDirection};
use pdn_geom::{PlaneMesh, PlanePair, Point};
use pdn_greens::{LayeredKernel, Rectangle};
use pdn_num::GaussLegendre;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Table entries (pair-table ids plus value slots) allowed per point,
/// beyond [`SLOT_BUDGET_BASE`]. The cell rasters of the HP plane at 2
/// and 1 mm and of study A at 0.5 to 0.0625 in need 21 to 52 value
/// slots per cell (rounding makes equal index steps differ in their
/// last bits); a scattered point set would need O(n).
const SLOT_BUDGET_PER_POINT: usize = 128;
/// Table entries allowed whatever the point count.
const SLOT_BUDGET_BASE: usize = 1 << 16;
/// Bits of a slot not yet filled. A kernel value with these bits (a NaN
/// no arithmetic produces) would only be recomputed at every read.
const UNSET: u64 = u64::MAX;

/// The distinct values among `vals` (by bit pattern, sorted by bits) and
/// the id of each input value in that list.
fn dedup_bits(vals: impl Iterator<Item = f64>) -> (Vec<f64>, Vec<usize>) {
    let bits: Vec<u64> = vals.map(f64::to_bits).collect();
    let mut order: Vec<usize> = (0..bits.len()).collect();
    order.sort_unstable_by_key(|&i| bits[i]);
    let mut uniq: Vec<u64> = Vec::new();
    let mut ids = vec![0; bits.len()];
    for i in order {
        if uniq.last() != Some(&bits[i]) {
            uniq.push(bits[i]);
        }
        ids[i] = uniq.len() - 1;
    }
    (uniq.into_iter().map(f64::from_bits).collect(), ids)
}

/// The distinct differences `c[a] − c[b]` over every ordered coordinate
/// pair, and the id of each pair's difference at `a·len + b`.
fn differences(c: &[f64]) -> (Vec<f64>, Vec<usize>) {
    let mut id_of: HashMap<u64, usize> = HashMap::new();
    let mut diffs = Vec::new();
    let mut pair = Vec::with_capacity(c.len() * c.len());
    for &ca in c {
        for &cb in c {
            let d = ca - cb;
            let id = *id_of.entry(d.to_bits()).or_insert_with(|| {
                diffs.push(d);
                diffs.len() - 1
            });
            pair.push(id);
        }
    }
    (diffs, pair)
}

/// The value slots of a table within budget.
struct Slots {
    /// Difference id of every ordered x (y) coordinate pair.
    dx_of: Vec<usize>,
    dy_of: Vec<usize>,
    /// The distinct x (y) differences.
    dxs: Vec<f64>,
    dys: Vec<f64>,
    /// Kernel value bits per `(x difference, y difference)`, row-major
    /// over `dys`; [`UNSET`] until first use. Each slot is one
    /// self-contained value that publishes no other data, so `Relaxed`
    /// loads and stores suffice.
    values: Vec<AtomicU64>,
}

impl Slots {
    /// Empty slots for the coordinates `xs` × `ys`, or `None` when the
    /// pair tables and slots would hold more than `budget` entries.
    fn within(xs: &[f64], ys: &[f64], budget: usize) -> Option<Slots> {
        let pairs = xs.len().saturating_mul(xs.len()) + ys.len().saturating_mul(ys.len());
        if pairs > budget {
            return None;
        }
        let (dxs, dx_of) = differences(xs);
        let (dys, dy_of) = differences(ys);
        if pairs.saturating_add(dxs.len().saturating_mul(dys.len())) > budget {
            return None;
        }
        Some(Slots {
            values: (0..dxs.len() * dys.len())
                .map(|_| AtomicU64::new(UNSET))
                .collect(),
            dx_of,
            dy_of,
            dxs,
            dys,
        })
    }
}

/// One kernel's panel integrals over the offsets of one point set.
pub(crate) struct OffsetTable {
    kernel: LayeredKernel,
    cell: Rectangle,
    quad: Option<GaussLegendre>,
    xs: Vec<f64>,
    ys: Vec<f64>,
    /// Per point: the ids of its x and y coordinates.
    ids: Vec<(usize, usize)>,
    slots: Option<Slots>,
}

impl OffsetTable {
    /// The table of `kernel` integrated over `cell` under `testing`, for
    /// offsets between `points`.
    pub(crate) fn new(
        kernel: LayeredKernel,
        cell: Rectangle,
        testing: Testing,
        points: &[Point],
    ) -> OffsetTable {
        let quad = match testing {
            Testing::PointMatching => None,
            Testing::Galerkin { order } => Some(GaussLegendre::new(order.max(2))),
        };
        let (xs, xid) = dedup_bits(points.iter().map(|p| p.x));
        let (ys, yid) = dedup_bits(points.iter().map(|p| p.y));
        let budget =
            SLOT_BUDGET_BASE.saturating_add(SLOT_BUDGET_PER_POINT.saturating_mul(points.len()));
        let slots = Slots::within(&xs, &ys, budget);
        OffsetTable {
            kernel,
            cell,
            quad,
            xs,
            ys,
            ids: xid.into_iter().zip(yid).collect(),
            slots,
        }
    }

    /// The table of the substrate's scalar-potential kernel over the
    /// cell centres of `mesh` (the `P` kernel).
    pub(crate) fn cells(mesh: &PlaneMesh, pair: &PlanePair, opts: &BemOptions) -> OffsetTable {
        OffsetTable::new(
            scalar_kernel(pair, opts),
            Rectangle::new(mesh.dx(), mesh.dy()),
            opts.testing,
            mesh.cell_centers(),
        )
    }

    /// Number of value slots (0 when the point set is evaluated entry by
    /// entry).
    #[cfg(test)]
    pub(crate) fn slot_count(&self) -> usize {
        self.slots.as_ref().map_or(0, |s| s.values.len())
    }

    /// Fills `out[t]` with the panel integral at offset
    /// `points[a] − points[b]` of the `t`-th pair `(a, b)`.
    pub(crate) fn fill(&self, pairs: impl IntoIterator<Item = (usize, usize)>, out: &mut [f64]) {
        let Some(s) = &self.slots else {
            for (t, (a, b)) in pairs.into_iter().enumerate() {
                let ((xa, ya), (xb, yb)) = (self.ids[a], self.ids[b]);
                out[t] = self.eval(self.xs[xa] - self.xs[xb], self.ys[ya] - self.ys[yb]);
            }
            return;
        };
        let (nx, ny, ndy) = (self.xs.len(), self.ys.len(), s.dys.len());
        for (t, (a, b)) in pairs.into_iter().enumerate() {
            let ((xa, ya), (xb, yb)) = (self.ids[a], self.ids[b]);
            let k = s.dx_of[xa * nx + xb] * ndy + s.dy_of[ya * ny + yb];
            out[t] = match s.values[k].load(Ordering::Relaxed) {
                UNSET => {
                    let v = self.eval(s.dxs[k / ndy], s.dys[k % ndy]);
                    s.values[k].store(v.to_bits(), Ordering::Relaxed);
                    v
                }
                bits => f64::from_bits(bits),
            };
        }
    }

    /// The panel integral at offset `(ox, oy)`, point matching or
    /// Galerkin.
    fn eval(&self, ox: f64, oy: f64) -> f64 {
        match &self.quad {
            None => self.kernel.panel_integral((ox, oy), self.cell),
            Some(q) => self
                .kernel
                .panel_galerkin((ox, oy), self.cell, self.cell, q),
        }
    }
}

/// The vector-potential kernel over a link set: one [`OffsetTable`] per
/// current direction (orthogonal links have no mutual, so only
/// same-direction offsets are ever needed).
pub(crate) struct LinkOffsets {
    /// The X- and Y-direction tables, over each direction's links in
    /// link order.
    by_dir: [OffsetTable; 2],
    /// Per link: its position in its direction's table.
    local: Vec<usize>,
}

/// Index of a direction's table in [`LinkOffsets::by_dir`].
fn dir_index(d: LinkDirection) -> usize {
    match d {
        LinkDirection::X => 0,
        LinkDirection::Y => 1,
    }
}

impl LinkOffsets {
    /// The tables for `links` on a raster of pitch `dx × dy`.
    pub(crate) fn new(
        links: &[Link],
        dx: f64,
        dy: f64,
        pair: &PlanePair,
        testing: Testing,
    ) -> LinkOffsets {
        let mut centers: [Vec<Point>; 2] = [Vec::new(), Vec::new()];
        let local = links
            .iter()
            .map(|l| {
                let d = &mut centers[dir_index(l.direction)];
                d.push(l.center);
                d.len() - 1
            })
            .collect();
        let table = |pts: &[Point]| {
            OffsetTable::new(
                LayeredKernel::vector_potential(pair.separation),
                Rectangle::new(dx, dy),
                testing,
                pts,
            )
        };
        LinkOffsets {
            by_dir: [table(&centers[0]), table(&centers[1])],
            local,
        }
    }

    /// Fills `out[t]` with the panel integral at offset
    /// `center(a) − center(b)` of the `t`-th pair of links `(a, b)`, all
    /// of direction `dir`.
    pub(crate) fn fill(
        &self,
        dir: LinkDirection,
        pairs: impl IntoIterator<Item = (usize, usize)>,
        out: &mut [f64],
    ) {
        let local = &self.local;
        self.by_dir[dir_index(dir)].fill(pairs.into_iter().map(|(a, b)| (local[a], local[b])), out);
    }

    /// Value slots of the X and Y tables.
    #[cfg(test)]
    pub(crate) fn slot_count(&self) -> usize {
        self.by_dir.iter().map(OffsetTable::slot_count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assembly::{assemble_link_matrices, assemble_matrices, cross_block_lumping};
    use crate::compress::{assemble_compressed, CompressionSpec};
    use pdn_geom::units::{mm, um};
    use pdn_geom::Polygon;
    use pdn_greens::SurfaceImpedance;
    use pdn_num::Matrix;

    /// The direct (untabled) kernel call for one offset.
    fn direct(g: &LayeredKernel, off: (f64, f64), cell: Rectangle, testing: Testing) -> f64 {
        match testing {
            Testing::PointMatching => g.panel_integral(off, cell),
            Testing::Galerkin { order } => {
                g.panel_galerkin(off, cell, cell, &GaussLegendre::new(order.max(2)))
            }
        }
    }

    /// The L-shaped microstrip patch of `boards::lshape_patch`, the split
    /// MCM planes of `boards::split_mcm_plane_spec`, and a plate under
    /// Galerkin testing of order 3.
    fn cases() -> Vec<(&'static str, PlaneMesh, PlanePair, BemOptions)> {
        let side = mm(50.0);
        let split = [
            Polygon::l_shape(side, side, mm(30.0), mm(30.0)),
            Polygon::rectangle_at(mm(21.0), mm(21.0), mm(29.0), mm(29.0)),
        ];
        vec![
            (
                "lshape",
                PlaneMesh::build(
                    &Polygon::l_shape(mm(90.0), mm(90.0), mm(45.0), mm(45.0)),
                    mm(5.0),
                )
                .unwrap(),
                PlanePair::new(um(787.0), 2.33).unwrap(),
                BemOptions::default().with_microstrip(),
            ),
            (
                "split",
                PlaneMesh::build_multi(&split, mm(2.5)).unwrap(),
                PlanePair::new(0.5e-3, 4.5).unwrap(),
                BemOptions::default(),
            ),
            (
                "galerkin3",
                PlaneMesh::build(&Polygon::rectangle(mm(12.0), mm(7.0)), mm(1.0)).unwrap(),
                PlanePair::new(0.5e-3, 4.5).unwrap(),
                BemOptions::default().with_galerkin(3),
            ),
        ]
    }

    fn assert_bits(got: f64, want: f64, what: &str) {
        assert_eq!(got.to_bits(), want.to_bits(), "{what}: {got:e} vs {want:e}");
    }

    #[test]
    fn table_entries_match_direct_kernel_calls_bit_for_bit() {
        let zs = SurfaceImpedance::from_sheet_resistance(1e-3);
        for (name, mesh, pair, opts) in cases() {
            let (n, m) = (mesh.cell_count(), mesh.link_count());
            let cell = Rectangle::new(mesh.dx(), mesh.dy());
            let area = mesh.cell_area();
            let (c, links) = (mesh.cell_centers(), mesh.links());
            // Direct kernel values at every ordered offset `a − b`.
            let g_phi = scalar_kernel(&pair, &opts);
            let p_at = Matrix::from_fn(n, n, |a, b| {
                let off = (c[a].x - c[b].x, c[a].y - c[b].y);
                direct(&g_phi, off, cell, opts.testing)
            });
            let g_a = LayeredKernel::vector_potential(pair.separation);
            let same = |a: usize, b: usize| links[a].direction == links[b].direction;
            let l_at = Matrix::from_fn(m, m, |a, b| {
                if !same(a, b) {
                    return 0.0;
                }
                let off = (
                    links[a].center.x - links[b].center.x,
                    links[a].center.y - links[b].center.y,
                );
                direct(&g_a, off, cell, opts.testing)
            });
            let l_entry = |a: usize, b: usize| {
                let w = match links[a].direction {
                    LinkDirection::X => mesh.dy(),
                    LinkDirection::Y => mesh.dx(),
                };
                (l_at[(a, b)] * area) / (w * w)
            };

            let raw = assemble_matrices(&mesh, &pair, &zs, &opts).unwrap();
            for i in 0..n {
                for j in i..n {
                    let want = p_at[(i, j)] / area;
                    assert_bits(raw.p_coef[(i, j)], want, &format!("{name} P({i},{j})"));
                    assert_bits(raw.p_coef[(j, i)], want, &format!("{name} P({j},{i})"));
                }
            }
            for i in 0..m {
                for j in i..m {
                    let want = if same(i, j) { l_entry(i, j) } else { 0.0 };
                    assert_bits(raw.l[(i, j)], want, &format!("{name} L({i},{j})"));
                    assert_bits(raw.l[(j, i)], want, &format!("{name} L({j},{i})"));
                }
            }

            // Seam lumping across a vertical cut, ascending-j sums of
            // the raw-orientation entries.
            let mid = 0.5 * (c[0].x + c[n - 1].x);
            let cell_block: Vec<usize> = c.iter().map(|p| usize::from(p.x > mid)).collect();
            let link_block: Vec<usize> = links
                .iter()
                .map(|l| usize::from(l.center.x > mid))
                .collect();
            let (p_lump, l_lump) =
                cross_block_lumping(&mesh, &cell_block, &link_block, &pair, &opts).unwrap();
            for i in 0..n {
                let mut want = 0.0;
                for j in (0..n).filter(|&j| cell_block[j] != cell_block[i]) {
                    want += p_at[(i, j)] / area;
                }
                assert_bits(p_lump[i], want, &format!("{name} p_lump[{i}]"));
            }
            for i in 0..m {
                let mut want = 0.0;
                for j in (0..m).filter(|&j| link_block[j] != link_block[i] && same(i, j)) {
                    want += l_entry(i, j);
                }
                assert_bits(l_lump[i], want, &format!("{name} l_lump[{i}]"));
            }

            // A stitch-style subset: the links that cross the cut.
            let cut: Vec<usize> = (0..m)
                .filter(|&k| cell_block[links[k].a] != cell_block[links[k].b])
                .collect();
            let cut_links: Vec<Link> = cut.iter().map(|&k| links[k]).collect();
            let (l_cut, _) =
                assemble_link_matrices(&cut_links, mesh.dx(), mesh.dy(), &pair, &zs, &opts);
            for (a, &ga) in cut.iter().enumerate() {
                for (b, &gb) in cut.iter().enumerate() {
                    let (lo, hi) = (ga.min(gb), ga.max(gb));
                    let want = if same(lo, hi) { l_entry(lo, hi) } else { 0.0 };
                    assert_bits(l_cut[(a, b)], want, &format!("{name} L_cut({a},{b})"));
                }
            }

            // A plan with no admissible pair stores every entry exactly.
            let spec = CompressionSpec {
                eta: 1e-12,
                ..CompressionSpec::default()
            };
            let (ck, _) = assemble_compressed(&mesh, &pair, &zs, &opts, &spec).unwrap();
            assert_eq!(ck.p.stats().low_rank_blocks, 0, "{name}: inadmissible plan");
            let (p, l) = (ck.p.to_dense(), ck.l.to_dense());
            for i in 0..n {
                for j in i..n {
                    let want = p_at[(i, j)] / area;
                    assert_bits(p[(i, j)], want, &format!("{name} compressed P({i},{j})"));
                    assert_bits(p[(j, i)], want, &format!("{name} compressed P({j},{i})"));
                }
            }
            for i in 0..m {
                for j in (i..m).filter(|&j| same(i, j)) {
                    let want = l_entry(i, j);
                    assert_bits(l[(i, j)], want, &format!("{name} compressed L({i},{j})"));
                    assert_bits(l[(j, i)], want, &format!("{name} compressed L({j},{i})"));
                }
            }
        }
    }

    #[test]
    fn raster_tables_hold_far_fewer_slots_than_entries() {
        let mesh = PlaneMesh::build(&Polygon::rectangle(mm(40.0), mm(16.0)), mm(2.0)).unwrap();
        let pair = PlanePair::new(280e-6, 9.6).unwrap();
        let opts = BemOptions::default();
        let n = mesh.cell_count();
        assert_eq!(n, 160);
        // 3,333 slots against 12,880 upper-triangle P entries, and
        // 4,712 against the links' 21,498 same-direction entries.
        assert_eq!(OffsetTable::cells(&mesh, &pair, &opts).slot_count(), 3333);
        let links = LinkOffsets::new(mesh.links(), mesh.dx(), mesh.dy(), &pair, opts.testing);
        assert_eq!(links.slot_count(), 4712);
    }

    #[test]
    fn scattered_points_are_evaluated_entry_by_entry() {
        // 400 points with distinct coordinates: the pair tables alone
        // would exceed the budget, so the table evaluates directly.
        let mut s = 0x2545_f491_4f6c_dd1du64;
        let mut next = || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        let pts: Vec<Point> = (0..400)
            .map(|_| Point::new(0.05 * next(), 0.03 * next()))
            .collect();
        let g = LayeredKernel::scalar_confined(4.5, 0.5e-3);
        let cell = Rectangle::new(1e-3, 1e-3);
        let table = OffsetTable::new(g.clone(), cell, Testing::PointMatching, &pts);
        assert_eq!(table.slot_count(), 0);
        let pairs: Vec<(usize, usize)> = (0..400).map(|t| (t, (t * 7 + 3) % 400)).collect();
        let mut out = vec![0.0; pairs.len()];
        table.fill(pairs.iter().copied(), &mut out);
        for (&(a, b), &v) in pairs.iter().zip(&out) {
            let off = (pts[a].x - pts[b].x, pts[a].y - pts[b].y);
            assert_bits(v, g.panel_integral(off, cell), &format!("({a},{b})"));
        }
    }
}
