//! Region splitting, interface-port synthesis, stitching, and Schur
//! composition.

use crate::error::ShardExtractError;
use crate::plan::ShardPlan;
use pdn_bem::{
    assemble_link_matrices, assemble_matrices, cross_block_lumping, BemOptions, BemSystem,
};
use pdn_extract::{capacitance_clusters, kron_reduce, EquivalentCircuit, NodeSelection};
use pdn_geom::mesh::{Link, PlaneMesh};
use pdn_geom::{PlanePair, Point, Polygon};
use pdn_greens::SurfaceImpedance;
use pdn_num::{parallel, CholeskyDecomposition, Matrix};
use std::time::Instant;

/// Everything a sharded extraction needs to know about the board — the
/// same low-level inputs the monolithic flow feeds into
/// [`PlaneMesh::build_multi`] and [`BemSystem::assemble`].
#[derive(Debug, Clone, Copy)]
pub struct ShardRequest<'a> {
    /// Conductor outlines (one net per shape, as in
    /// [`PlaneMesh::build_multi`]).
    pub shapes: &'a [Polygon],
    /// Plane-pair stackup.
    pub pair: &'a PlanePair,
    /// Surface (loop) impedance of the pair.
    pub zs: &'a SurfaceImpedance,
    /// Mesh cell size, meters.
    pub cell_size: f64,
    /// External ports: `(name, location)` in binding order.
    pub ports: &'a [(String, Point)],
    /// BEM assembly options. Regions assemble densely, so options that
    /// set compression are an invalid plan.
    pub options: &'a BemOptions,
    /// Node retention policy for each regional reduction.
    pub selection: &'a NodeSelection,
}

/// Per-region extraction statistics.
#[derive(Debug, Clone)]
pub struct RegionStats {
    /// Row-major tile index in the cut grid (empty tiles are skipped, so
    /// indices need not be contiguous).
    pub index: usize,
    /// Mesh cells in the region.
    pub cells: usize,
    /// Mesh links in the region (cut links excluded).
    pub links: usize,
    /// External ports bound inside the region.
    pub external_ports: usize,
    /// Interface ports synthesized along the region's cuts.
    pub interface_ports: usize,
    /// Retained nodes of the regional macromodel.
    pub retained_nodes: usize,
    /// Estimated peak dense-matrix storage of the regional solve
    /// (`P`, `C`, `B`, `L`, and the incidence solve), bytes.
    pub dense_bytes: usize,
    /// Wall time of the regional assembly + reduction, milliseconds.
    pub millis: f64,
}

/// Summary of a sharded extraction.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// One entry per non-empty region, in composition order.
    pub regions: Vec<RegionStats>,
    /// Links cut by the partition and restored as stitch branches.
    pub cut_links: usize,
    /// Interface nodes eliminated by the Schur composition.
    pub eliminated_nodes: usize,
    /// Nodes of the composed board-level model.
    pub node_count: usize,
    /// Total wall time, milliseconds.
    pub millis: f64,
}

/// A composed board-level macromodel plus its extraction report.
#[derive(Debug, Clone)]
pub struct ShardedExtraction {
    equivalent: EquivalentCircuit,
    report: ShardReport,
}

impl ShardedExtraction {
    /// The composed board-level equivalent circuit. Ports appear in the
    /// request's binding order, exactly as in a monolithic extraction.
    pub fn equivalent(&self) -> &EquivalentCircuit {
        &self.equivalent
    }

    /// Per-region and composition statistics.
    pub fn report(&self) -> &ShardReport {
        &self.report
    }

    /// Reassembles a sharded extraction from a composed equivalent
    /// circuit and its report — the restore hook the `pdn-service`
    /// extraction cache uses after deserializing both halves.
    pub fn from_parts(equivalent: EquivalentCircuit, report: ShardReport) -> Self {
        ShardedExtraction { equivalent, report }
    }
}

impl RegionStats {
    /// Serializes the statistics into `w`.
    pub fn write_to(&self, w: &mut pdn_num::ByteWriter) {
        w.put_usize(self.index);
        w.put_usize(self.cells);
        w.put_usize(self.links);
        w.put_usize(self.external_ports);
        w.put_usize(self.interface_ports);
        w.put_usize(self.retained_nodes);
        w.put_usize(self.dense_bytes);
        w.put_f64(self.millis);
    }

    /// Deserializes statistics written by [`write_to`](Self::write_to).
    ///
    /// # Errors
    ///
    /// [`pdn_num::CodecError`] on truncation.
    pub fn read_from(r: &mut pdn_num::ByteReader<'_>) -> Result<Self, pdn_num::CodecError> {
        Ok(RegionStats {
            index: r.get_usize()?,
            cells: r.get_usize()?,
            links: r.get_usize()?,
            external_ports: r.get_usize()?,
            interface_ports: r.get_usize()?,
            retained_nodes: r.get_usize()?,
            dense_bytes: r.get_usize()?,
            millis: r.get_f64()?,
        })
    }
}

impl ShardReport {
    /// Serializes the report into `w`.
    pub fn write_to(&self, w: &mut pdn_num::ByteWriter) {
        w.put_usize(self.regions.len());
        for region in &self.regions {
            region.write_to(w);
        }
        w.put_usize(self.cut_links);
        w.put_usize(self.eliminated_nodes);
        w.put_usize(self.node_count);
        w.put_f64(self.millis);
    }

    /// Deserializes a report written by [`write_to`](Self::write_to).
    ///
    /// # Errors
    ///
    /// [`pdn_num::CodecError`] on truncation or an impossible region
    /// count.
    pub fn read_from(r: &mut pdn_num::ByteReader<'_>) -> Result<Self, pdn_num::CodecError> {
        let n = r.get_usize()?;
        let regions: Vec<RegionStats> = (0..n)
            .map(|_| RegionStats::read_from(r))
            .collect::<Result<_, _>>()?;
        Ok(ShardReport {
            regions,
            cut_links: r.get_usize()?,
            eliminated_nodes: r.get_usize()?,
            node_count: r.get_usize()?,
            millis: r.get_f64()?,
        })
    }
}

fn region_err(index: usize, e: &dyn std::fmt::Display) -> ShardExtractError {
    ShardExtractError::Region {
        index,
        detail: e.to_string(),
    }
}

/// Merged bounding box of the conductor outlines.
fn bounding_box(shapes: &[Polygon]) -> (Point, Point) {
    let mut lo = Point::new(f64::INFINITY, f64::INFINITY);
    let mut hi = Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY);
    for s in shapes {
        let (a, b) = s.bounding_box();
        lo = Point::new(lo.x.min(a.x), lo.y.min(a.y));
        hi = Point::new(hi.x.max(b.x), hi.y.max(b.y));
    }
    (lo, hi)
}

/// One region's macromodel plus the global mesh cell behind each node and
/// the region's cell-level capacitance (needed because C composes at cell
/// granularity, not at reduced-node granularity — see the composition
/// step).
struct RegionModel {
    eq: EquivalentCircuit,
    keep_global: Vec<usize>,
    c_full: Matrix<f64>,
    stats: RegionStats,
}

/// Extracts the board region by region and composes the result — see the
/// crate docs for the algorithm and accuracy contract.
///
/// The returned model is **bit-identical for every `PDN_THREADS`
/// setting**: regions are solved on [`pdn_num::parallel`] workers but
/// every ordering (cells, cut links, interface ports, composed nodes) is
/// derived from global mesh indices, never from scheduling.
///
/// # Errors
///
/// [`ShardExtractError::InvalidPlan`] for an unusable plan or for
/// options that set compression (regions assemble densely),
/// [`ShardExtractError::Mesh`] when meshing or external-port binding
/// fails, [`ShardExtractError::Region`] when a regional solve fails
/// (lowest region index wins, matching the workspace's parallel error
/// convention), and [`ShardExtractError::Composition`] when stitching or
/// the Schur elimination breaks down.
pub fn extract_sharded(
    req: &ShardRequest<'_>,
    plan: &ShardPlan,
) -> Result<ShardedExtraction, ShardExtractError> {
    let t0 = Instant::now();
    if req.options.compression.is_some() {
        return Err(ShardExtractError::InvalidPlan(
            "sharded extraction does not take kernel compression: regions assemble densely"
                .to_string(),
        ));
    }

    // Mesh the full board once and bind the external ports in request
    // order, so regional cell geometry and port snapping are bit-identical
    // to the monolithic flow.
    let mut mesh = PlaneMesh::build_multi(req.shapes, req.cell_size)?;
    for (name, loc) in req.ports {
        mesh.bind_port(name.clone(), *loc)?;
    }

    let (lo, hi) = bounding_box(req.shapes);
    let (x_cuts, y_cuts) = plan.resolve(lo, hi)?;
    let nrx = x_cuts.len() + 1;
    let nry = y_cuts.len() + 1;

    // Classify cells into row-major tiles by cell-center position; a cell
    // centered exactly on a cut goes to the lower tile.
    let mut tiles: Vec<Vec<usize>> = vec![Vec::new(); nrx * nry];
    let mut tile_of_cell = vec![0usize; mesh.cell_count()];
    for (i, tile) in tile_of_cell.iter_mut().enumerate() {
        let p = mesh.cell_center(i);
        let tx = x_cuts.iter().filter(|&&c| p.x > c).count();
        let ty = y_cuts.iter().filter(|&&c| p.y > c).count();
        let t = ty * nrx + tx;
        *tile = t;
        tiles[t].push(i);
    }
    // Compact away cell-less tiles (non-rectangular outlines).
    let occupied: Vec<usize> = (0..tiles.len()).filter(|&t| !tiles[t].is_empty()).collect();
    let mut region_of_tile = vec![usize::MAX; tiles.len()];
    for (r, &t) in occupied.iter().enumerate() {
        region_of_tile[t] = r;
    }
    let regions: Vec<Vec<usize>> = occupied
        .iter()
        .map(|&t| std::mem::take(&mut tiles[t]))
        .collect();
    let region_of_cell: Vec<usize> = tile_of_cell.iter().map(|&t| region_of_tile[t]).collect();

    // Classify links: region-internal (both ends in one region — exactly
    // the links each region submesh keeps, in the same global order) or
    // cut. Cut links share one block: the stitch keeps their mutuals.
    let mut region_links: Vec<Vec<usize>> = vec![Vec::new(); regions.len()];
    let mut cut_links: Vec<Link> = Vec::new();
    let mut cut_index: Vec<usize> = Vec::new();
    let mut link_block = vec![0usize; mesh.link_count()];
    for (k, l) in mesh.links().iter().enumerate() {
        let (ra, rb) = (region_of_cell[l.a], region_of_cell[l.b]);
        if ra == rb {
            link_block[k] = ra;
            region_links[ra].push(k);
        } else {
            link_block[k] = regions.len();
            cut_index.push(k);
            cut_links.push(*l);
        }
    }

    // Seam compensation: the block structure drops every P/L entry between
    // different blocks. Lump the dropped row sums onto the regional
    // diagonals so the composed model keeps the full row sums — exact
    // total capacitance and exact uniform-crossing reluctance (see
    // `pdn_bem::cross_block_lumping`).
    let (p_lump, l_lump) =
        cross_block_lumping(&mesh, &region_of_cell, &link_block, req.pair, req.options)
            .map_err(|e| ShardExtractError::Composition(format!("seam lumping failed: {e}")))?;
    let mut boundary: Vec<Vec<usize>> = vec![Vec::new(); regions.len()];
    for l in &cut_links {
        boundary[region_of_cell[l.a]].push(l.a);
        boundary[region_of_cell[l.b]].push(l.b);
    }
    for b in &mut boundary {
        b.sort_unstable();
        b.dedup();
    }
    let mut ext_ports: Vec<Vec<usize>> = vec![Vec::new(); regions.len()];
    for (p, pb) in mesh.ports().iter().enumerate() {
        ext_ports[region_of_cell[pb.cell]].push(p);
    }

    // Solve every region independently; orderings are global-index-derived
    // so the fan-out is deterministic for any worker count.
    let models: Vec<RegionModel> = parallel::try_par_map_indexed(
        regions.len(),
        |r| -> Result<RegionModel, ShardExtractError> {
            let tile = occupied[r];
            let rt = Instant::now();
            let cells = &regions[r];
            let mut sub = mesh.submesh(cells).map_err(|e| region_err(tile, &e))?;
            let ext_cells: Vec<usize> =
                ext_ports[r].iter().map(|&p| mesh.ports()[p].cell).collect();
            for &p in &ext_ports[r] {
                let pb = &mesh.ports()[p];
                sub.bind_port(pb.name.clone(), mesh.cell_center(pb.cell))
                    .map_err(|e| region_err(tile, &e))?;
            }
            let mut interface_ports = 0;
            for &cell in &boundary[r] {
                if ext_cells.contains(&cell) {
                    continue; // already retained (and named) by an external port
                }
                sub.bind_port(format!("__iface{cell}"), mesh.cell_center(cell))
                    .map_err(|e| region_err(tile, &e))?;
                interface_ports += 1;
            }
            let (n, m) = (sub.cell_count(), sub.link_count());
            let mut raw = assemble_matrices(&sub, req.pair, req.zs, req.options)
                .map_err(|e| region_err(tile, &e))?;
            for (k, &cell) in cells.iter().enumerate() {
                raw.p_coef[(k, k)] += p_lump[cell];
            }
            debug_assert_eq!(m, region_links[r].len());
            for (k, &gl) in region_links[r].iter().enumerate() {
                raw.l[(k, k)] += l_lump[gl];
            }
            let sys = BemSystem::from_raw(sub, req.pair, req.zs, raw)
                .map_err(|e| region_err(tile, &e))?;
            let (eq, keep_local) = EquivalentCircuit::from_bem_detailed(&sys, req.selection)
                .map_err(|e| region_err(tile, &e))?;
            let c_full = sys
                .capacitance()
                .expect("a system built from raw matrices is dense")
                .clone();
            let keep_global = keep_local.iter().map(|&k| cells[k]).collect();
            let stats = RegionStats {
                index: tile,
                cells: n,
                links: m,
                external_ports: ext_ports[r].len(),
                interface_ports,
                retained_nodes: eq.node_count(),
                dense_bytes: 8 * (3 * n * n + m * m + m * n),
                millis: rt.elapsed().as_secs_f64() * 1e3,
            };
            Ok(RegionModel {
                eq,
                keep_global,
                c_full,
                stats,
            })
        },
    )?;

    // ---- Composition ----------------------------------------------------
    // Composed node space: region blocks in region order.
    let mut offsets = Vec::with_capacity(models.len());
    let mut total = 0usize;
    for m in &models {
        offsets.push(total);
        total += m.eq.node_count();
    }
    let mut cell_of_node = vec![0usize; total];
    let mut node_of_cell = vec![usize::MAX; mesh.cell_count()];
    for (r, mdl) in models.iter().enumerate() {
        for (k, &cell) in mdl.keep_global.iter().enumerate() {
            cell_of_node[offsets[r] + k] = cell;
            node_of_cell[cell] = offsets[r] + k;
        }
    }

    // Block-diagonal sum of the regional B/G. (C is composed separately,
    // at cell granularity, after the keep set is known.)
    let mut b = Matrix::zeros(total, total);
    let mut g = Matrix::zeros(total, total);
    for (r, mdl) in models.iter().enumerate() {
        let o = offsets[r];
        let n = mdl.eq.node_count();
        for i in 0..n {
            for j in 0..n {
                b[(o + i, o + j)] = mdl.eq.reluctance()[(i, j)];
                g[(o + i, o + j)] = mdl.eq.conductance()[(i, j)];
            }
        }
    }

    // Stitch the cut links back in: B_stitch = Aᵀ·L_cut⁻¹·A over the
    // interface nodes (mutuals among cut links included), plus the exact
    // resistive Laplacian. This is the only place cross-region inductive
    // coupling enters the composed model.
    if !cut_links.is_empty() {
        let node_at = |cell: usize| -> Result<usize, ShardExtractError> {
            match node_of_cell[cell] {
                usize::MAX => Err(ShardExtractError::Composition(format!(
                    "interface cell {cell} was not retained by its region"
                ))),
                node => Ok(node),
            }
        };
        let na: Vec<usize> = cut_links
            .iter()
            .map(|l| node_at(l.a))
            .collect::<Result<_, _>>()?;
        let nb: Vec<usize> = cut_links
            .iter()
            .map(|l| node_at(l.b))
            .collect::<Result<_, _>>()?;
        let mc = cut_links.len();
        let (mut l_cut, r_cut) = assemble_link_matrices(
            &cut_links,
            mesh.dx(),
            mesh.dy(),
            req.pair,
            req.zs,
            req.options,
        );
        for (k, &gl) in cut_index.iter().enumerate() {
            l_cut[(k, k)] += l_lump[gl];
        }
        let ch = CholeskyDecomposition::new(&l_cut).map_err(|e| {
            ShardExtractError::Composition(format!("cut-link inductance not SPD: {e}"))
        })?;
        let mut l_inv = Matrix::zeros(mc, mc);
        for j in 0..mc {
            let mut ej = vec![0.0; mc];
            ej[j] = 1.0;
            let col = ch
                .solve(&ej)
                .map_err(|e| ShardExtractError::Composition(e.to_string()))?;
            for i in 0..mc {
                l_inv[(i, j)] = col[i];
            }
        }
        for i in 0..mc {
            for j in 0..mc {
                let v = l_inv[(i, j)];
                b[(na[i], na[j])] += v;
                b[(na[i], nb[j])] -= v;
                b[(nb[i], na[j])] -= v;
                b[(nb[i], nb[j])] += v;
            }
        }
        for (k, r) in r_cut.iter().enumerate() {
            if *r > 0.0 {
                let gg = 1.0 / r;
                g[(na[k], na[k])] += gg;
                g[(nb[k], nb[k])] += gg;
                g[(na[k], nb[k])] -= gg;
                g[(nb[k], na[k])] -= gg;
            }
        }
    }

    // Interface nodes that do not carry an external port are internal to
    // the composed board: Schur-eliminate them from B and G.
    let mut eliminate = vec![false; total];
    for (r, mdl) in models.iter().enumerate() {
        for p in ext_ports[r].len()..mdl.eq.port_count() {
            eliminate[offsets[r] + mdl.eq.port_node(p)] = true;
        }
    }
    let keep: Vec<usize> = (0..total).filter(|&i| !eliminate[i]).collect();
    let eliminated_nodes = total - keep.len();
    let schur = |mat: &Matrix<f64>, what: &str| {
        kron_reduce(mat, &keep).map_err(|e| {
            ShardExtractError::Composition(format!(
                "Schur elimination of {what} failed: {e} \
                 (does every net keep at least one node?)"
            ))
        })
    };
    let b_red = if eliminated_nodes == 0 {
        b
    } else {
        schur(&b, "B")?
    };
    let g_red = if g.max_abs() == 0.0 {
        Matrix::zeros(keep.len(), keep.len())
    } else if eliminated_nodes == 0 {
        g
    } else {
        schur(&g, "G")?
    };

    // Capacitance composes at cell granularity: every mesh cell's charge
    // aggregates onto the nearest *surviving* node of the same net,
    // measured with global distances — exactly the monolithic cluster
    // rule. The regional cell-level C feeds this directly; re-clustering
    // the regionally aggregated C through the interface nodes would dump
    // each seam strip's charge onto a single port and badly skew the
    // port-to-port capacitance split (measured O(1) transfer-impedance
    // error under `PortsOnly` on fine meshes).
    let pos_in_keep = |node: usize| keep.binary_search(&node).expect("kept node");
    // The monolithic cluster rule on the global mesh, with the kept cells
    // in ascending cell order so its tie-break matches too.
    let mut kept_cells: Vec<(usize, usize)> = keep
        .iter()
        .enumerate()
        .map(|(pos, &node)| (cell_of_node[node], pos))
        .collect();
    kept_cells.sort_unstable();
    let ascending: Vec<usize> = kept_cells.iter().map(|&(cell, _)| cell).collect();
    let cluster_of_cell: Vec<usize> = capacitance_clusters(&mesh, &ascending)
        .map_err(|e| ShardExtractError::Composition(e.to_string()))?
        .into_iter()
        .map(|q| kept_cells[q].1)
        .collect();
    let mut c_red = Matrix::zeros(keep.len(), keep.len());
    for (r, mdl) in models.iter().enumerate() {
        let cells = &regions[r];
        let cluster: Vec<usize> = cells.iter().map(|&cell| cluster_of_cell[cell]).collect();
        for i in 0..cells.len() {
            for j in 0..cells.len() {
                c_red[(cluster[i], cluster[j])] += mdl.c_full[(i, j)];
            }
        }
    }

    // Node names follow the monolithic convention: the (first) bound port
    // name where a port sits, `n{cell}` elsewhere.
    let names: Vec<String> = keep
        .iter()
        .map(|&i| {
            let cell = cell_of_node[i];
            match mesh.ports().iter().find(|p| p.cell == cell) {
                Some(pb) => pb.name.clone(),
                None => format!("n{cell}"),
            }
        })
        .collect();
    let ports: Vec<usize> = mesh
        .ports()
        .iter()
        .map(|pb| pos_in_keep(node_of_cell[pb.cell]))
        .collect();
    let equivalent =
        EquivalentCircuit::from_parts(names, ports, b_red, g_red, c_red, req.pair.loss_tangent)
            .map_err(|e| ShardExtractError::Composition(format!("composed model rejected: {e}")))?;

    let report = ShardReport {
        regions: models.into_iter().map(|m| m.stats).collect(),
        cut_links: cut_links.len(),
        eliminated_nodes,
        node_count: equivalent.node_count(),
        millis: t0.elapsed().as_secs_f64() * 1e3,
    };
    Ok(ShardedExtraction { equivalent, report })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::max_port_impedance_deviation;
    use pdn_geom::units::mm;

    fn request<'a>(
        shapes: &'a [Polygon],
        ports: &'a [(String, Point)],
        pair: &'a PlanePair,
        zs: &'a SurfaceImpedance,
        options: &'a BemOptions,
        selection: &'a NodeSelection,
        cell_size: f64,
    ) -> ShardRequest<'a> {
        ShardRequest {
            shapes,
            pair,
            zs,
            cell_size,
            ports,
            options,
            selection,
        }
    }

    fn monolithic(
        shapes: &[Polygon],
        ports: &[(String, Point)],
        pair: &PlanePair,
        zs: &SurfaceImpedance,
        options: &BemOptions,
        selection: &NodeSelection,
        cell_size: f64,
    ) -> EquivalentCircuit {
        let mut mesh = PlaneMesh::build_multi(shapes, cell_size).unwrap();
        for (name, loc) in ports {
            mesh.bind_port(name.clone(), *loc).unwrap();
        }
        let sys = BemSystem::assemble(mesh, pair, zs, options).unwrap();
        EquivalentCircuit::from_bem(&sys, selection).unwrap()
    }

    #[test]
    fn single_region_plan_is_bit_identical_to_monolithic() {
        let shapes = [Polygon::rectangle(mm(16.0), mm(8.0))];
        let ports = [
            ("P1".to_string(), Point::new(mm(2.0), mm(4.0))),
            ("P2".to_string(), Point::new(mm(14.0), mm(4.0))),
        ];
        let pair = PlanePair::new(0.3e-3, 4.5).unwrap();
        let zs = SurfaceImpedance::from_sheet_resistance(2e-3);
        let opts = BemOptions::default();
        let sel = NodeSelection::PortsAndGrid { stride: 2 };
        let req = request(&shapes, &ports, &pair, &zs, &opts, &sel, mm(1.0));
        let sharded = extract_sharded(&req, &ShardPlan::grid(1, 1).unwrap()).unwrap();
        let mono = monolithic(&shapes, &ports, &pair, &zs, &opts, &sel, mm(1.0));
        assert_eq!(sharded.report().cut_links, 0);
        assert_eq!(sharded.report().eliminated_nodes, 0);
        assert_eq!(sharded.equivalent().node_count(), mono.node_count());
        assert_eq!(sharded.equivalent().node_names(), mono.node_names());
        for f in [1e8, 1e9] {
            let za = sharded.equivalent().impedance(f).unwrap();
            let zb = mono.impedance(f).unwrap();
            for i in 0..2 {
                for j in 0..2 {
                    assert_eq!(za[(i, j)], zb[(i, j)], "f={f} ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn two_region_split_tracks_monolithic() {
        let shapes = [Polygon::rectangle(mm(20.0), mm(10.0))];
        let ports = [
            ("P1".to_string(), Point::new(mm(2.0), mm(5.0))),
            ("P2".to_string(), Point::new(mm(18.0), mm(5.0))),
        ];
        let pair = PlanePair::new(0.3e-3, 4.8).unwrap();
        let zs = SurfaceImpedance::from_sheet_resistance(2e-3);
        let opts = BemOptions::default();
        let sel = NodeSelection::PortsOnly;
        let req = request(&shapes, &ports, &pair, &zs, &opts, &sel, mm(1.0));
        let sharded = extract_sharded(&req, &ShardPlan::grid(2, 1).unwrap()).unwrap();
        let mono = monolithic(&shapes, &ports, &pair, &zs, &opts, &sel, mm(1.0));
        assert_eq!(sharded.report().regions.len(), 2);
        // One vertical cut through a 10-row board severs 10 x-links.
        assert_eq!(sharded.report().cut_links, 10);
        assert_eq!(sharded.report().eliminated_nodes, 20);
        assert_eq!(sharded.equivalent().port_count(), 2);
        // Below the first plane resonance (~2 GHz here) the documented
        // contract is a few percent; measured 3.6e-2 on this split.
        let freqs: Vec<f64> = (1..=8).map(|k| k as f64 * 187.5e6).collect();
        let dev = max_port_impedance_deviation(sharded.equivalent(), &mono, &freqs).unwrap();
        assert!(dev < 0.05, "deviation {dev:.3e}");
    }

    #[test]
    fn l_shape_four_regions_with_empty_tile() {
        // The notch quadrant of the L leaves one tile cell-less; the plan
        // must skip it and still compose the remaining three regions.
        let shapes = [Polygon::l_shape(mm(12.0), mm(12.0), mm(6.0), mm(6.0))];
        let ports = [
            ("P1".to_string(), Point::new(mm(1.5), mm(1.5))),
            ("P2".to_string(), Point::new(mm(1.5), mm(10.5))),
        ];
        let pair = PlanePair::new(0.3e-3, 4.5).unwrap();
        let zs = SurfaceImpedance::from_sheet_resistance(2e-3);
        let opts = BemOptions::default();
        let sel = NodeSelection::PortsOnly;
        let req = request(&shapes, &ports, &pair, &zs, &opts, &sel, mm(1.0));
        let sharded = extract_sharded(&req, &ShardPlan::grid(2, 2).unwrap()).unwrap();
        assert_eq!(sharded.report().regions.len(), 3);
        let mono = monolithic(&shapes, &ports, &pair, &zs, &opts, &sel, mm(1.0));
        let freqs = [1e8, 5e8, 1e9];
        let dev = max_port_impedance_deviation(sharded.equivalent(), &mono, &freqs).unwrap();
        // Measured 9.8e-4: the ports sit away from the cuts, so the
        // lumped seam correction leaves well under 1% here.
        assert!(dev < 0.01, "deviation {dev:.3e}");
    }

    #[test]
    fn portless_island_region_fails_with_region_error() {
        // Two disjoint nets, port only on the first: the second net's
        // region has neither external nor interface ports.
        let shapes = [
            Polygon::rectangle_at(0.0, 0.0, mm(8.0), mm(8.0)),
            Polygon::rectangle_at(mm(12.0), 0.0, mm(8.0), mm(8.0)),
        ];
        let ports = [("P1".to_string(), Point::new(mm(2.0), mm(2.0)))];
        let pair = PlanePair::new(0.3e-3, 4.5).unwrap();
        let zs = SurfaceImpedance::from_sheet_resistance(2e-3);
        let opts = BemOptions::default();
        let sel = NodeSelection::PortsOnly;
        let req = request(&shapes, &ports, &pair, &zs, &opts, &sel, mm(1.0));
        let err = extract_sharded(&req, &ShardPlan::with_cuts(vec![mm(10.0)], vec![]).unwrap())
            .unwrap_err();
        assert!(
            matches!(err, ShardExtractError::Region { index: 1, .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn port_outside_outline_fails_at_meshing() {
        let shapes = [Polygon::rectangle(mm(10.0), mm(10.0))];
        let ports = [("P1".to_string(), Point::new(mm(50.0), mm(50.0)))];
        let pair = PlanePair::new(0.3e-3, 4.5).unwrap();
        let zs = SurfaceImpedance::from_sheet_resistance(2e-3);
        let opts = BemOptions::default();
        let sel = NodeSelection::PortsOnly;
        let req = request(&shapes, &ports, &pair, &zs, &opts, &sel, mm(1.0));
        assert!(matches!(
            extract_sharded(&req, &ShardPlan::grid(2, 1).unwrap()).unwrap_err(),
            ShardExtractError::Mesh(pdn_geom::mesh::MeshPlaneError::PortOutsideShape { .. })
        ));
    }
}
