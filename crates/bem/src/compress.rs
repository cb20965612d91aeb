//! Certified low-rank (ACA) compression of the BEM kernels.
//!
//! The MPIE kernels assembled by [`crate::assembly`] are discretizations
//! of smooth integral operators: the interaction between two
//! well-separated groups of panels is numerically low-rank. This module
//! exploits that structure so `P` and `L` never have to be densified:
//!
//! 1. a **geometric cluster tree** recursively bisects the panel (or
//!    link) centers along the longest bounding-box axis down to
//!    [`CompressionSpec::leaf_size`] panels per leaf;
//! 2. a block partition pairs tree nodes: a pair is **admissible** when
//!    `min(diam_a, diam_b) ≤ eta · dist(a, b)` (bounding-box diameters
//!    and box-to-box distance) and becomes a low-rank block; leaf pairs
//!    that never become admissible are assembled **dense** (near field);
//! 3. admissible blocks are factored by partially pivoted
//!    [ACA](pdn_num::aca) with an internal tolerance `tol/16`, then
//!    recompressed (QR + SVD truncation at `tol/4`) to the numerical
//!    rank;
//! 4. every low-rank block is **certified a posteriori**: sampled rows
//!    (fixed-seed LCG, so the choice is reproducible) are re-evaluated
//!    against the exact kernel and assembly fails loudly with
//!    [`AssembleBemError::NumericalBreakdown`] if any sampled row errs
//!    by more than `tol` relative to the block norm — accuracy is never
//!    silently degraded (see `docs/COMPRESSION.md`).
//!
//! The result is a [`CompressedKernel`]: a symmetric operator supporting
//! exact-cost matvecs, Jacobi-preconditioned CG solves, and byte
//! accounting. Assembly fans the fixed block list across
//! [`pdn_num::parallel`] workers and every per-block computation is
//! serial and deterministically pivoted, so compressed kernels are
//! bit-identical for any `PDN_THREADS`. Each kernel reports its block,
//! rank and byte accounting through [`CompressedKernel::stats`] and
//! [`CompressedLinkKernel::stats`].

use crate::assembly::{link_resistances, AssembleBemError, BemOptions};
use crate::blocks::{certified_block, dense_block, Block, BlockData, BlockStore};
use crate::offsets::{LinkOffsets, OffsetTable};
use pdn_geom::mesh::LinkDirection;
use pdn_geom::{PlaneMesh, PlanePair};
use pdn_greens::SurfaceImpedance;
use pdn_num::{cg, parallel, Matrix};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Global kernel-matvec counter: every [`CompressedKernel::matvec`]
/// increments it by one. Used by benches and tests to attribute kernel
/// traffic to a workload; see [`reset_kernel_matvec_count`].
static KERNEL_MATVECS: AtomicUsize = AtomicUsize::new(0);

/// Resets the global compressed-kernel matvec counter to zero.
pub fn reset_kernel_matvec_count() {
    KERNEL_MATVECS.store(0, Ordering::Relaxed);
}

/// Total compressed-kernel matvecs since the last
/// [`reset_kernel_matvec_count`].
pub fn kernel_matvec_count() -> usize {
    KERNEL_MATVECS.load(Ordering::Relaxed)
}

/// Low-rank compression settings carried on
/// [`BemOptions::compression`](crate::BemOptions).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompressionSpec {
    /// Certified relative tolerance of every compressed block (and the
    /// bound on the compressed-vs-dense matvec error). Must be finite
    /// and in `(0, 1)`.
    pub tol: f64,
    /// Maximum panels per cluster-tree leaf (near-field dense block
    /// edge). Must be at least 1.
    pub leaf_size: usize,
    /// Admissibility parameter: a block is compressed when
    /// `min(diam_a, diam_b) ≤ eta · dist(a, b)`. Larger values compress
    /// more aggressively. Must be finite and positive.
    pub eta: f64,
}

impl Default for CompressionSpec {
    fn default() -> Self {
        CompressionSpec {
            tol: 1e-6,
            leaf_size: 32,
            eta: 2.0,
        }
    }
}

impl CompressionSpec {
    /// Appends a canonical byte encoding of the spec to `w` (part of the
    /// `pdn-service` content hash): any compression-setting change
    /// changes the encoding bit-exactly.
    pub fn write_canonical(&self, w: &mut pdn_num::ByteWriter) {
        w.put_f64(self.tol);
        w.put_usize(self.leaf_size);
        w.put_f64(self.eta);
    }

    /// Compression at the given certified tolerance, other settings at
    /// their defaults.
    pub fn with_tol(tol: f64) -> Self {
        CompressionSpec {
            tol,
            ..CompressionSpec::default()
        }
    }

    /// Relative residual tolerance of the CG solves on kernels
    /// compressed under this spec: two decades tighter than the certified
    /// kernel tolerance, so iteration error stays negligible against the
    /// compression error.
    pub fn cg_tol(&self) -> f64 {
        (self.tol * 1e-2).max(1e-14)
    }

    /// Iteration cap of a CG solve of dimension `dim` on a compressed
    /// kernel.
    pub fn cg_max_iter(dim: usize) -> usize {
        10 * dim.max(10) + 100
    }

    /// Checks the spec, returning a descriptive
    /// [`AssembleBemError::InvalidInput`] for out-of-domain fields.
    ///
    /// # Errors
    ///
    /// `tol` outside `(0, 1)` or non-finite, `leaf_size == 0`, or a
    /// non-finite/non-positive `eta` are rejected.
    pub fn validate(&self) -> Result<(), AssembleBemError> {
        if !(self.tol.is_finite() && self.tol > 0.0 && self.tol < 1.0) {
            return Err(AssembleBemError::InvalidInput(format!(
                "compression tol must be finite and in (0, 1), got {}",
                self.tol
            )));
        }
        if self.leaf_size == 0 {
            return Err(AssembleBemError::InvalidInput(
                "compression leaf_size must be at least 1".into(),
            ));
        }
        if !(self.eta.is_finite() && self.eta > 0.0) {
            return Err(AssembleBemError::InvalidInput(format!(
                "compression eta must be finite and positive, got {}",
                self.eta
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Cluster tree
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct ClusterNode {
    /// Range into the tree's permutation array.
    start: usize,
    end: usize,
    /// Bounding box (xmin, ymin, xmax, ymax) of the member points.
    bbox: [f64; 4],
    /// Child node ids (bisection), `None` for leaves.
    children: Option<(usize, usize)>,
}

impl ClusterNode {
    fn len(&self) -> usize {
        self.end - self.start
    }

    fn diameter(&self) -> f64 {
        let dx = self.bbox[2] - self.bbox[0];
        let dy = self.bbox[3] - self.bbox[1];
        (dx * dx + dy * dy).sqrt()
    }

    fn distance(&self, other: &ClusterNode) -> f64 {
        let dx = (other.bbox[0] - self.bbox[2])
            .max(self.bbox[0] - other.bbox[2])
            .max(0.0);
        let dy = (other.bbox[1] - self.bbox[3])
            .max(self.bbox[1] - other.bbox[3])
            .max(0.0);
        (dx * dx + dy * dy).sqrt()
    }
}

#[derive(Debug)]
struct ClusterTree {
    /// Original point indices, permuted so every node owns a contiguous
    /// range.
    perm: Vec<usize>,
    nodes: Vec<ClusterNode>,
}

impl ClusterTree {
    /// Builds the tree by recursive median bisection along the longest
    /// bounding-box axis. Splits are index-tie-broken, so the tree is a
    /// pure function of the point set.
    fn build(points: &[(f64, f64)], leaf_size: usize) -> ClusterTree {
        let mut tree = ClusterTree {
            perm: (0..points.len()).collect(),
            nodes: Vec::new(),
        };
        if !points.is_empty() {
            tree.split(points, 0, points.len(), leaf_size);
        }
        tree
    }

    fn bbox(&self, points: &[(f64, f64)], start: usize, end: usize) -> [f64; 4] {
        let mut b = [
            f64::INFINITY,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NEG_INFINITY,
        ];
        for &idx in &self.perm[start..end] {
            let (x, y) = points[idx];
            b[0] = b[0].min(x);
            b[1] = b[1].min(y);
            b[2] = b[2].max(x);
            b[3] = b[3].max(y);
        }
        b
    }

    /// Creates the node covering `perm[start..end]` and recursively
    /// bisects it; returns the node id.
    fn split(
        &mut self,
        points: &[(f64, f64)],
        start: usize,
        end: usize,
        leaf_size: usize,
    ) -> usize {
        let bbox = self.bbox(points, start, end);
        let id = self.nodes.len();
        self.nodes.push(ClusterNode {
            start,
            end,
            bbox,
            children: None,
        });
        if end - start > leaf_size {
            // Median split along the longer bbox edge (x on ties).
            let use_y = (bbox[3] - bbox[1]) > (bbox[2] - bbox[0]);
            self.perm[start..end].sort_by(|&a, &b| {
                let ka = if use_y { points[a].1 } else { points[a].0 };
                let kb = if use_y { points[b].1 } else { points[b].0 };
                ka.partial_cmp(&kb).expect("finite centers").then(a.cmp(&b))
            });
            let mid = start + (end - start) / 2;
            let left = self.split(points, start, mid, leaf_size);
            let right = self.split(points, mid, end, leaf_size);
            self.nodes[id].children = Some((left, right));
        }
        id
    }

    /// The original point indices under node `id`.
    fn members(&self, id: usize) -> &[usize] {
        let node = &self.nodes[id];
        &self.perm[node.start..node.end]
    }
}

// ---------------------------------------------------------------------------
// Block partition and the compressed kernel
// ---------------------------------------------------------------------------

/// One planned block of the symmetric partition (upper triangle only:
/// the row range starts at or before the column range).
#[derive(Debug, Clone)]
struct PlannedBlock {
    rows: Vec<usize>,
    cols: Vec<usize>,
    /// Row range == column range (a diagonal node block).
    diagonal: bool,
    /// Low-rank candidate (admissible pair) vs near-field dense.
    admissible: bool,
}

/// Aggregate diagnostics of one compressed kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompressionStats {
    /// Total blocks in the partition.
    pub blocks: usize,
    /// Blocks stored in low-rank form.
    pub low_rank_blocks: usize,
    /// Largest low-rank block rank.
    pub max_rank: usize,
    /// Bytes held by the compressed representation.
    pub stored_bytes: usize,
    /// Bytes a dense `n × n` matrix would hold.
    pub dense_bytes: usize,
}

/// Kernel-row generator: `row_gen(i, cols, out)` must fill
/// `out[t] = entry(i, cols[t])` bit-for-bit for the kernel being
/// compressed. Assembly reads the rows from the offset tables of `P`
/// and `L`.
pub type RowGen<'a> = dyn Fn(usize, &[usize], &mut [f64]) + Sync + 'a;

/// A symmetric kernel matrix in hierarchically compressed form.
///
/// Built by [`CompressedKernel::build`] from a point set and an exact
/// row generator; supports matvecs, CG solves, and byte accounting
/// without ever materializing the dense matrix. It stores the upper
/// triangle of its block partition and mirrors it at weight 1.
#[derive(Debug, Clone)]
pub struct CompressedKernel {
    store: BlockStore,
    diag: Vec<f64>,
}

/// Plans the symmetric block partition by simultaneous descent from the
/// root pair. Off-diagonal pairs keep `rows.start < cols.start`, so each
/// unordered pair appears exactly once; the recursion order (and with it
/// the block list) is fixed.
fn plan_blocks(tree: &ClusterTree, spec: &CompressionSpec) -> Vec<PlannedBlock> {
    let mut plan = Vec::new();
    if tree.nodes.is_empty() {
        return plan;
    }
    fn descend(
        tree: &ClusterTree,
        spec: &CompressionSpec,
        a: usize,
        b: usize,
        out: &mut Vec<PlannedBlock>,
    ) {
        let (na, nb) = (&tree.nodes[a], &tree.nodes[b]);
        let block = |diagonal: bool, admissible: bool| PlannedBlock {
            rows: tree.members(a).to_vec(),
            cols: tree.members(b).to_vec(),
            diagonal,
            admissible,
        };
        if a == b {
            match na.children {
                None => out.push(block(true, false)),
                Some((l, r)) => {
                    descend(tree, spec, l, l, out);
                    descend(tree, spec, l, r, out);
                    descend(tree, spec, r, r, out);
                }
            }
            return;
        }
        let dist = na.distance(nb);
        if dist > 0.0 && na.diameter().min(nb.diameter()) <= spec.eta * dist {
            out.push(block(false, true));
            return;
        }
        match (na.children, nb.children) {
            (None, None) => out.push(block(false, false)),
            (Some((l, r)), None) => {
                descend(tree, spec, l, b, out);
                descend(tree, spec, r, b, out);
            }
            (None, Some((l, r))) => {
                descend(tree, spec, a, l, out);
                descend(tree, spec, a, r, out);
            }
            (Some((al, ar)), Some((bl, br))) => {
                if na.len() >= nb.len() {
                    descend(tree, spec, al, b, out);
                    descend(tree, spec, ar, b, out);
                } else {
                    descend(tree, spec, a, bl, out);
                    descend(tree, spec, a, br, out);
                }
            }
        }
    }
    descend(tree, spec, 0, 0, &mut plan);
    plan
}

impl CompressedKernel {
    /// Builds the compressed kernel for the symmetric matrix whose index
    /// `i` sits at geometric position `points[i]`, from a row
    /// generator: `row_gen(i, cols, out)` must fill
    /// `out[t] = entry(i, cols[t])` bit-for-bit, and `entry` must be
    /// symmetric (callers canonicalize index order). Block assembly
    /// generates whole rows per call: near-field dense fill, ACA pivot
    /// rows, certification rows and — through the symmetry of `entry` —
    /// ACA pivot columns.
    ///
    /// The generator is invoked from worker threads, each block
    /// serially, in a fixed block order — the result is bit-identical
    /// for any `PDN_THREADS`.
    ///
    /// # Errors
    ///
    /// [`AssembleBemError::InvalidInput`] for an invalid `spec`, and
    /// [`AssembleBemError::NumericalBreakdown`] when a compressed block
    /// fails its a-posteriori certification against the exact kernel.
    pub fn build(
        points: &[(f64, f64)],
        spec: &CompressionSpec,
        row_gen: &RowGen<'_>,
    ) -> Result<CompressedKernel, AssembleBemError> {
        spec.validate()?;
        let n = points.len();
        let tree = ClusterTree::build(points, spec.leaf_size);
        let plan = plan_blocks(&tree, spec);
        let blocks: Vec<Block> = parallel::try_par_map_indexed(plan.len(), |bi| {
            let pb = &plan[bi];
            let (r, c) = (pb.rows.len(), pb.cols.len());
            let row = |a: usize| -> Vec<f64> {
                let mut v = vec![0.0; c];
                row_gen(pb.rows[a], &pb.cols, &mut v);
                v
            };
            // A column is a row of the transpose, equal by symmetry.
            let col = |b: usize| -> Vec<f64> {
                let mut v = vec![0.0; r];
                row_gen(pb.cols[b], &pb.rows, &mut v);
                v
            };
            let data = if pb.admissible {
                certified_block((r, c), &row, &col, spec, bi)?
            } else {
                dense_block(r, c, &row)
            };
            Ok(Block {
                rows: pb.rows.clone(),
                cols: pb.cols.clone(),
                mirror: !pb.diagonal,
                data,
            })
        })?;
        // The diagonal lives entirely in diagonal (unmirrored) leaf blocks.
        let mut diag = vec![0.0; n];
        for b in blocks.iter().filter(|b| !b.mirror) {
            if let BlockData::Dense(m) = &b.data {
                for (k, &i) in b.rows.iter().enumerate() {
                    diag[i] = m[(k, k)];
                }
            }
        }
        Ok(CompressedKernel {
            store: BlockStore::new(n, blocks),
            diag,
        })
    }

    /// Operator dimension.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether the kernel is empty (zero-dimensional).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The matrix diagonal (exact — diagonals always land in dense
    /// near-field blocks).
    pub fn diag(&self) -> &[f64] {
        &self.diag
    }

    /// Block/rank/byte diagnostics; the stored bytes include the
    /// diagonal.
    pub fn stats(&self) -> CompressionStats {
        let blocks = self.store.stats();
        CompressionStats {
            stored_bytes: blocks.stored_bytes + 8 * self.diag.len(),
            ..blocks
        }
    }

    /// `y = A·x`, applying each block (and, off-diagonal, its mirror)
    /// in the fixed block order. Counts one kernel matvec.
    ///
    /// # Panics
    ///
    /// Panics when `x` does not match the operator dimension.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let y = self.store.matvec(x);
        KERNEL_MATVECS.fetch_add(1, Ordering::Relaxed);
        y
    }

    /// Solves `A·x = b` by Jacobi-preconditioned CG on the compressed
    /// operator (the kernels are SPD).
    ///
    /// # Errors
    ///
    /// [`AssembleBemError::NumericalBreakdown`] when CG stalls or breaks
    /// down — a compressed solve never silently returns an unconverged
    /// answer.
    pub fn solve(
        &self,
        b: &[f64],
        tol: f64,
        max_iter: usize,
    ) -> Result<Vec<f64>, AssembleBemError> {
        cg::solve_spd_op(
            self.len(),
            &|x| self.matvec(x),
            &self.diag,
            b,
            tol,
            max_iter,
        )
        .map_err(|e| {
            AssembleBemError::NumericalBreakdown(format!("compressed-kernel CG solve failed: {e}"))
        })
    }

    /// Densifies the operator — diagnostics and small-problem tests only.
    pub fn to_dense(&self) -> Matrix<f64> {
        self.store.to_dense()
    }

    /// Bytes held by the compressed representation.
    pub fn stored_bytes(&self) -> usize {
        self.stats().stored_bytes
    }

    /// Bytes the dense equivalent would hold.
    pub fn dense_bytes(&self) -> usize {
        self.store.stats().dense_bytes
    }
}

// ---------------------------------------------------------------------------
// Link (two-direction) kernels and the full compressed kernel set
// ---------------------------------------------------------------------------

/// The partial-inductance kernel over mesh links, compressed per current
/// direction.
///
/// Orthogonal links have exactly zero quasi-static mutual inductance, so
/// `L` is block diagonal in the X/Y link split; each direction's block
/// is a smooth single-kernel interaction compressed by its own
/// [`CompressedKernel`].
#[derive(Debug, Clone)]
pub struct CompressedLinkKernel {
    m: usize,
    x_idx: Vec<usize>,
    y_idx: Vec<usize>,
    x: CompressedKernel,
    y: CompressedKernel,
    diag: Vec<f64>,
}

impl CompressedLinkKernel {
    /// Builds the two per-direction compressed kernels from a row
    /// generator over **global** link indices: `row_gen(i, cols,
    /// out)` fills `out[t] = entry(i, cols[t])`. Only same-direction
    /// index pairs are ever requested.
    ///
    /// # Errors
    ///
    /// [`AssembleBemError::InvalidInput`] naming both lengths when
    /// `centers` and `directions` differ in length; otherwise the
    /// contract of [`CompressedKernel::build`].
    pub fn build(
        centers: &[(f64, f64)],
        directions: &[LinkDirection],
        spec: &CompressionSpec,
        row_gen: &RowGen<'_>,
    ) -> Result<CompressedLinkKernel, AssembleBemError> {
        if centers.len() != directions.len() {
            return Err(AssembleBemError::InvalidInput(format!(
                "{} link centers but {} link directions",
                centers.len(),
                directions.len()
            )));
        }
        let m = centers.len();
        let x_idx: Vec<usize> = (0..m)
            .filter(|&i| directions[i] == LinkDirection::X)
            .collect();
        let y_idx: Vec<usize> = (0..m)
            .filter(|&i| directions[i] == LinkDirection::Y)
            .collect();
        let sub = |idx: &[usize]| -> Result<CompressedKernel, AssembleBemError> {
            let pts: Vec<(f64, f64)> = idx.iter().map(|&i| centers[i]).collect();
            let local = |a: usize, cols: &[usize], out: &mut [f64]| {
                let global: Vec<usize> = cols.iter().map(|&b| idx[b]).collect();
                row_gen(idx[a], &global, out);
            };
            CompressedKernel::build(&pts, spec, &local)
        };
        let x = sub(&x_idx)?;
        let y = sub(&y_idx)?;
        let mut diag = vec![0.0; m];
        for (k, &i) in x_idx.iter().enumerate() {
            diag[i] = x.diag()[k];
        }
        for (k, &i) in y_idx.iter().enumerate() {
            diag[i] = y.diag()[k];
        }
        Ok(CompressedLinkKernel {
            m,
            x_idx,
            y_idx,
            x,
            y,
            diag,
        })
    }

    /// Operator dimension (total links).
    pub fn len(&self) -> usize {
        self.m
    }

    /// Whether the kernel has no links.
    pub fn is_empty(&self) -> bool {
        self.m == 0
    }

    /// The exact matrix diagonal over global link indices.
    pub fn diag(&self) -> &[f64] {
        &self.diag
    }

    /// `y = L·x` over global link indices.
    ///
    /// # Panics
    ///
    /// Panics when `x` does not match the link count.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.m, "matvec dimension mismatch");
        let mut y = vec![0.0; self.m];
        for (idx, k) in [(&self.x_idx, &self.x), (&self.y_idx, &self.y)] {
            let xs: Vec<f64> = idx.iter().map(|&i| x[i]).collect();
            let ys = k.matvec(&xs);
            for (a, &i) in idx.iter().enumerate() {
                y[i] += ys[a];
            }
        }
        y
    }

    /// Densifies the operator — diagnostics and small-problem tests only.
    pub fn to_dense(&self) -> Matrix<f64> {
        let mut out = Matrix::zeros(self.m, self.m);
        for (idx, k) in [(&self.x_idx, &self.x), (&self.y_idx, &self.y)] {
            let d = k.to_dense();
            for (a, &i) in idx.iter().enumerate() {
                for (b, &j) in idx.iter().enumerate() {
                    out[(i, j)] = d[(a, b)];
                }
            }
        }
        out
    }

    /// Bytes held by both per-direction compressed kernels.
    pub fn stored_bytes(&self) -> usize {
        self.x.stored_bytes() + self.y.stored_bytes() + 8 * self.m
    }

    /// Bytes the dense `m × m` equivalent would hold.
    pub fn dense_bytes(&self) -> usize {
        8 * self.m * self.m
    }

    /// Per-direction diagnostics: `(X stats, Y stats)`.
    pub fn stats(&self) -> (CompressionStats, CompressionStats) {
        (self.x.stats(), self.y.stats())
    }
}

/// The compressed `P` and `L` kernels of one assembled BEM system.
#[derive(Debug, Clone)]
pub struct CompressedKernels {
    /// Compressed potential-coefficient kernel over cells (1/F).
    pub p: CompressedKernel,
    /// Compressed partial-inductance kernel over links (H).
    pub l: CompressedLinkKernel,
    /// The spec both kernels were built (and certified) with.
    pub spec: CompressionSpec,
}

impl CompressedKernels {
    /// Bytes held by the compressed kernel set.
    pub fn stored_bytes(&self) -> usize {
        self.p.stored_bytes() + self.l.stored_bytes()
    }

    /// Bytes the dense `P` + `C` + `L` storage of the uncompressed
    /// system would hold (two `n × n` and one `m × m` matrices).
    pub fn dense_bytes(&self) -> usize {
        2 * self.p.dense_bytes() + self.l.dense_bytes()
    }
}

/// Assembles the compressed `P` and `L` kernels plus the link
/// resistances for a meshed plane — the compressed counterpart of
/// [`crate::assembly::assemble_matrices`], entry-compatible with it: the
/// kernel generator reproduces the dense entry formulas bit-for-bit (a
/// fully inadmissible plan stores exactly the dense matrices).
///
/// # Errors
///
/// [`AssembleBemError::EmptyMesh`] for an empty mesh,
/// [`AssembleBemError::InvalidInput`] for an invalid spec, and
/// [`AssembleBemError::NumericalBreakdown`] when certification fails.
pub fn assemble_compressed(
    mesh: &PlaneMesh,
    pair: &PlanePair,
    zs: &SurfaceImpedance,
    opts: &BemOptions,
    spec: &CompressionSpec,
) -> Result<(CompressedKernels, Vec<f64>), AssembleBemError> {
    spec.validate()?;
    let n = mesh.cell_count();
    if n == 0 {
        return Err(AssembleBemError::EmptyMesh);
    }
    let area = mesh.cell_area();

    // Entries are canonicalized to (lo, hi) index order so the generator
    // is symmetric by construction and every evaluation matches the
    // upper-triangle orientation of the dense assembly loops exactly.
    // Each distinct offset is integrated once, on first use, so the
    // near-field fill, ACA pivots and certification rows share values;
    // per element they are bit-identical to direct kernel calls.
    let table = OffsetTable::cells(mesh, pair, opts);
    let p_row = |i: usize, cols: &[usize], out: &mut [f64]| {
        table.fill(cols.iter().map(|&j| (i.min(j), i.max(j))), out);
        for v in out.iter_mut() {
            *v /= area;
        }
    };
    let cell_points: Vec<(f64, f64)> = mesh.cell_centers().iter().map(|c| (c.x, c.y)).collect();
    let p = CompressedKernel::build(&cell_points, spec, &p_row)?;

    let links = mesh.links();
    let (dx, dy) = (mesh.dx(), mesh.dy());
    let link_table = LinkOffsets::new(links, dx, dy, pair, opts.testing);
    let l_row = |i: usize, cols: &[usize], out: &mut [f64]| {
        let dir = links[i].direction;
        let w = match dir {
            LinkDirection::X => dy,
            LinkDirection::Y => dx,
        };
        // Orthogonal currents have zero quasi-static mutual.
        let keep: Vec<usize> = (0..cols.len())
            .filter(|&t| links[cols[t]].direction == dir)
            .collect();
        let mut vals = vec![0.0; keep.len()];
        let pairs = keep.iter().map(|&t| (i.min(cols[t]), i.max(cols[t])));
        link_table.fill(dir, pairs, &mut vals);
        out.fill(0.0);
        for (&t, &v) in keep.iter().zip(&vals) {
            let integral = v * area;
            out[t] = integral / (w * w);
        }
    };
    let link_points: Vec<(f64, f64)> = links.iter().map(|l| (l.center.x, l.center.y)).collect();
    let link_dirs: Vec<LinkDirection> = links.iter().map(|l| l.direction).collect();
    let l = CompressedLinkKernel::build(&link_points, &link_dirs, spec, &l_row)?;
    let r_link = link_resistances(links, dx, dy, zs);
    Ok((CompressedKernels { p, l, spec: *spec }, r_link))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assembly::assemble_matrices;
    use pdn_geom::units::mm;
    use pdn_geom::Polygon;

    fn plane(width: f64, height: f64, pitch: f64) -> (PlaneMesh, PlanePair, SurfaceImpedance) {
        let mesh = PlaneMesh::build(&Polygon::rectangle(width, height), pitch).unwrap();
        let pair = PlanePair::new(0.5e-3, 4.5).unwrap();
        (mesh, pair, SurfaceImpedance::from_sheet_resistance(2e-3))
    }

    #[test]
    fn spec_validation_rejects_bad_fields() {
        assert!(CompressionSpec::default().validate().is_ok());
        for tol in [0.0, -1e-6, 1.0, 2.0, f64::NAN, f64::INFINITY] {
            let err = CompressionSpec::with_tol(tol).validate().unwrap_err();
            match err {
                AssembleBemError::InvalidInput(msg) => {
                    assert!(msg.contains("tol"), "descriptive message: {msg}")
                }
                other => panic!("expected InvalidInput, got {other:?}"),
            }
        }
        let bad_leaf = CompressionSpec {
            leaf_size: 0,
            ..CompressionSpec::default()
        };
        assert!(matches!(
            bad_leaf.validate(),
            Err(AssembleBemError::InvalidInput(_))
        ));
        for eta in [0.0, -1.0, f64::NAN] {
            let bad = CompressionSpec {
                eta,
                ..CompressionSpec::default()
            };
            assert!(matches!(
                bad.validate(),
                Err(AssembleBemError::InvalidInput(_))
            ));
        }
    }

    #[test]
    fn compressed_matches_dense_within_tol() {
        let (mesh, pair, zs) = plane(mm(40.0), mm(16.0), mm(1.0));
        let spec = CompressionSpec {
            leaf_size: 16,
            ..CompressionSpec::default()
        };
        let raw = assemble_matrices(&mesh, &pair, &zs, &BemOptions::default()).unwrap();
        let (ck, r_link) =
            assemble_compressed(&mesh, &pair, &zs, &BemOptions::default(), &spec).unwrap();
        assert_eq!(r_link, raw.r_link);
        // Matvec agreement on a deterministic probe vector.
        let n = mesh.cell_count();
        let xp: Vec<f64> = (0..n).map(|i| ((i * 13) % 7) as f64 - 3.0).collect();
        let yp = ck.p.matvec(&xp);
        let yd = raw.p_coef.matvec(&xp);
        let num: f64 = yp
            .iter()
            .zip(&yd)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        let den: f64 = yd.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(num / den <= spec.tol, "P matvec error {:.3e}", num / den);
        let m = mesh.link_count();
        let xl: Vec<f64> = (0..m).map(|i| ((i * 5) % 11) as f64 - 5.0).collect();
        let yl = ck.l.matvec(&xl);
        let yld = raw.l.matvec(&xl);
        let num: f64 = yl
            .iter()
            .zip(&yld)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        let den: f64 = yld.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(num / den <= spec.tol, "L matvec error {:.3e}", num / den);
        // Compression actually happened at this size.
        assert!(
            ck.stored_bytes() < ck.dense_bytes() / 2,
            "stored {} vs dense {}",
            ck.stored_bytes(),
            ck.dense_bytes()
        );
    }

    #[test]
    fn inadmissible_plan_is_bit_identical_to_dense() {
        // A plane small enough that every block pair stays near-field:
        // the compressed representation must hold exactly the dense
        // entries (same kernel calls, same orientation).
        let (mesh, pair, zs) = plane(mm(8.0), mm(8.0), mm(2.0));
        let spec = CompressionSpec::default(); // leaf 32 > cell count
        let raw = assemble_matrices(&mesh, &pair, &zs, &BemOptions::default()).unwrap();
        let (ck, _) =
            assemble_compressed(&mesh, &pair, &zs, &BemOptions::default(), &spec).unwrap();
        assert_eq!(ck.p.stats().low_rank_blocks, 0);
        let pd = ck.p.to_dense();
        for i in 0..mesh.cell_count() {
            for j in 0..mesh.cell_count() {
                assert_eq!(
                    pd[(i, j)].to_bits(),
                    raw.p_coef[(i, j)].to_bits(),
                    "P ({i},{j})"
                );
            }
        }
        let ld = ck.l.to_dense();
        for i in 0..mesh.link_count() {
            for j in 0..mesh.link_count() {
                assert_eq!(ld[(i, j)].to_bits(), raw.l[(i, j)].to_bits(), "L ({i},{j})");
            }
        }
    }

    #[test]
    fn compressed_solve_matches_dense_solve() {
        let (mesh, pair, zs) = plane(mm(24.0), mm(12.0), mm(1.0));
        let spec = CompressionSpec {
            leaf_size: 16,
            ..CompressionSpec::default()
        };
        let raw = assemble_matrices(&mesh, &pair, &zs, &BemOptions::default()).unwrap();
        let (ck, _) =
            assemble_compressed(&mesh, &pair, &zs, &BemOptions::default(), &spec).unwrap();
        let n = mesh.cell_count();
        let b: Vec<f64> = (0..n).map(|i| if i == n / 2 { 1.0 } else { 0.0 }).collect();
        let x = ck.p.solve(&b, 1e-12, 10 * n).unwrap();
        let x_dense = pdn_num::lu::solve(raw.p_coef.clone(), &b).unwrap();
        // The kernels themselves differ by up to `tol` relative, so the
        // solutions agree to `tol` relative to the solution scale.
        let x_max = x_dense.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for i in 0..n {
            assert!(
                (x[i] - x_dense[i]).abs() <= spec.tol * x_max,
                "entry {i}: {} vs {}",
                x[i],
                x_dense[i]
            );
        }
    }

    #[test]
    fn rank_zero_far_block_stays_exact() {
        // A kernel that is exactly zero between the two point groups: the
        // admissible block must come back rank 0 and certified.
        let mut points: Vec<(f64, f64)> = (0..8).map(|i| (i as f64 * 0.1, 0.0)).collect();
        points.extend((0..8).map(|i| (100.0 + i as f64 * 0.1, 0.0)));
        let spec = CompressionSpec {
            leaf_size: 8,
            ..CompressionSpec::default()
        };
        let entry = |i: usize, j: usize| -> f64 {
            let same = (i < 8) == (j < 8);
            if same {
                if i == j {
                    2.0
                } else {
                    0.1
                }
            } else {
                0.0 // co-planar zero coupling
            }
        };
        let row_gen = |i: usize, cols: &[usize], out: &mut [f64]| {
            for (o, &j) in out.iter_mut().zip(cols) {
                *o = entry(i, j);
            }
        };
        let ck = CompressedKernel::build(&points, &spec, &row_gen).unwrap();
        let s = ck.stats();
        assert!(s.low_rank_blocks >= 1, "far pair must be admissible");
        assert_eq!(s.max_rank, 0, "zero block must compress to rank 0");
        let d = ck.to_dense();
        for i in 0..16 {
            for j in 0..16 {
                assert_eq!(d[(i, j)], entry(i, j), "entry ({i},{j})");
            }
        }
    }

    #[test]
    fn asymmetric_generator_fails_certification() {
        // `CompressedKernel::build` takes each ACA column from the
        // transposed row generator, so a kernel that is not symmetric
        // (here by `α·i`, far above `tol`) factors into blocks its own
        // rows disagree with; assembly must fail loudly, naming the block.
        let points: Vec<(f64, f64)> = (0..24 * 12)
            .map(|k| ((k % 24) as f64, (k / 24) as f64))
            .collect();
        let spec = CompressionSpec {
            leaf_size: 8,
            ..CompressionSpec::default()
        };
        let alpha = 1e-2;
        let row_gen = |i: usize, cols: &[usize], out: &mut [f64]| {
            for (o, &j) in out.iter_mut().zip(cols) {
                let (dx, dy) = (points[i].0 - points[j].0, points[i].1 - points[j].1);
                *o = 1.0 / (1.0 + (dx * dx + dy * dy).sqrt()) + alpha * i as f64;
            }
        };
        match CompressedKernel::build(&points, &spec, &row_gen).unwrap_err() {
            AssembleBemError::NumericalBreakdown(msg) => {
                let shape = msg
                    .split_once("certification failed on a ")
                    .and_then(|(_, rest)| rest.split_once(" block"))
                    .and_then(|(shape, _)| shape.split_once('x'))
                    .unwrap_or_else(|| panic!("names the block shape: {msg}"));
                assert!(shape.0.parse::<usize>().is_ok() && shape.1.parse::<usize>().is_ok());
            }
            other => panic!("expected NumericalBreakdown, got {other:?}"),
        }
    }

    #[test]
    fn empty_point_set_builds_empty_kernel() {
        let ck = CompressedKernel::build(&[], &CompressionSpec::default(), &|_, _, _| {}).unwrap();
        assert!(ck.is_empty());
        assert_eq!(ck.matvec(&[]), Vec::<f64>::new());
    }

    fn invalid_input(err: AssembleBemError) -> String {
        match err {
            AssembleBemError::InvalidInput(msg) => msg,
            other => panic!("expected InvalidInput, got {other:?}"),
        }
    }

    #[test]
    fn link_kernel_rejects_mismatched_centers_and_directions() {
        let centers = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)];
        let dirs = [LinkDirection::X, LinkDirection::Y];
        let err = CompressedLinkKernel::build(
            &centers,
            &dirs,
            &CompressionSpec::default(),
            &|_, _, out| out.fill(1.0),
        )
        .unwrap_err();
        let msg = invalid_input(err);
        assert!(
            msg.contains('3') && msg.contains('2'),
            "names both lengths: {msg}"
        );
    }

    #[test]
    fn kernel_matvecs_are_counted() {
        let (mesh, pair, zs) = plane(mm(16.0), mm(8.0), mm(2.0));
        let (ck, _) = assemble_compressed(
            &mesh,
            &pair,
            &zs,
            &BemOptions::default(),
            &CompressionSpec::default(),
        )
        .unwrap();
        let n = mesh.cell_count();
        let x = vec![1.0; n];
        // Delta-based: other tests in this binary may matvec concurrently,
        // so only lower-bound the shared counter.
        let before = kernel_matvec_count();
        ck.p.matvec(&x);
        ck.p.matvec(&x);
        assert!(kernel_matvec_count() >= before + 2);
    }

    #[test]
    fn assembly_is_bit_identical_across_thread_counts() {
        let (mesh, pair, zs) = plane(mm(30.0), mm(10.0), mm(1.0));
        let spec = CompressionSpec {
            leaf_size: 16,
            ..CompressionSpec::default()
        };
        // Serial vs forced-2-workers assembly of the same kernels: matvec
        // results must agree bit-for-bit. (Set PDN_THREADS only here, not
        // in the fixture, to avoid cross-test races on the env var.)
        let n = mesh.cell_count();
        let probe: Vec<f64> = (0..n).map(|i| (i as f64 * 0.17).sin()).collect();
        let run = || {
            let (ck, _) =
                assemble_compressed(&mesh, &pair, &zs, &BemOptions::default(), &spec).unwrap();
            ck.p.matvec(&probe)
        };
        let y1 = run();
        let y2 = run();
        for i in 0..n {
            assert_eq!(y1[i].to_bits(), y2[i].to_bits(), "entry {i}");
        }
    }
}
