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

use crate::assembly::{kernel_row, scalar_kernel, AssembleBemError, BemOptions, Testing};
use pdn_geom::mesh::LinkDirection;
use pdn_geom::{PlaneMesh, PlanePair};
use pdn_greens::{LayeredKernel, Rectangle, SurfaceImpedance};
use pdn_num::aca::{aca, LowRank};
use pdn_num::precond::{BlockJacobiPreconditioner, Preconditioner};
use pdn_num::{cg, parallel, GaussLegendre, Matrix};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Global kernel-matvec counter: every [`CompressedKernel::matvec`] (and
/// hence every column of a block matvec) increments it by one. Used by
/// benches and tests to compare the kernel traffic of solver strategies;
/// see [`reset_kernel_matvec_count`].
static KERNEL_MATVECS: AtomicUsize = AtomicUsize::new(0);

/// Resets the global compressed-kernel matvec counter to zero.
pub fn reset_kernel_matvec_count() {
    KERNEL_MATVECS.store(0, Ordering::Relaxed);
}

/// Total compressed-kernel matvecs since the last
/// [`reset_kernel_matvec_count`] (one per column; a block matvec over a
/// panel of `k` columns counts `k`).
pub fn kernel_matvec_count() -> usize {
    KERNEL_MATVECS.load(Ordering::Relaxed)
}

/// Column-chunk width of the blocked matvecs. Fixed (never derived from
/// the worker count) so the chunk boundaries — and therefore every
/// floating-point result — are identical for any `PDN_THREADS`. Wide
/// enough to amortize streaming a kernel block over many columns, small
/// enough that a typical 48-column panel still fans across workers.
pub(crate) const MATVEC_CHUNK: usize = pdn_num::aca::PANEL_LANES;

/// Coarsened block-Jacobi clusters cap at this multiple of `leaf_size`
/// (256 points at the default leaf size): measured on the benchmark
/// boards, larger exact blocks keep cutting CG iterations up to about
/// this size, after which the `O(n·cap)` triangular-solve cost per
/// preconditioner application overtakes the saved matvecs.
pub(crate) const COARSEN_FACTOR: usize = 8;

/// Margin between the internal ACA stopping tolerance and the
/// user-facing certified tolerance: ACA stops at `tol / ACA_MARGIN`, so
/// the certification check at `tol` has headroom over the incremental
/// Frobenius estimate the stopping criterion relies on.
pub(crate) const ACA_MARGIN: f64 = 16.0;
/// Recompression truncates at `tol / RECOMPRESS_MARGIN`.
pub(crate) const RECOMPRESS_MARGIN: f64 = 4.0;
/// Certified rows sampled per low-rank block.
pub(crate) const CERT_ROWS: usize = 2;

/// Columns solved together per block-CG panel on the
/// [`SolverSpec::BlockCg`] route: wide enough to amortize one
/// compressed-operator sweep over many right-hand sides, narrow enough
/// that the panel Gram matrix stays cheap (the fastest width measured on
/// the benchmark boards).
pub const BLOCK_CG_PANEL: usize = 48;

/// Iterative-solver strategy for the compressed extraction path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverSpec {
    /// Per-column scalar CG with the plain Jacobi (diagonal)
    /// preconditioner — the original compressed path, kept as the
    /// default so existing results stay byte-stable.
    ScalarJacobi,
    /// Multi-RHS block CG ([`pdn_num::cg::solve_spd_block`]) over panels
    /// of [`BLOCK_CG_PANEL`] columns with a hierarchical block-Jacobi
    /// preconditioner built from the kernel's own cluster tree (exact
    /// Cholesky factors over leaf clusters coarsened one tree level).
    /// One compressed-operator sweep per iteration serves the whole
    /// column panel, so total kernel matvecs drop sharply — see
    /// `docs/COMPRESSION.md` for the measured contract.
    BlockCg,
}

impl SolverSpec {
    /// Whether this strategy uses the block solver.
    pub fn is_block(&self) -> bool {
        *self == SolverSpec::BlockCg
    }

    /// Appends a canonical byte encoding of the solver strategy to `w`
    /// (part of the `pdn-service` content hash).
    pub fn write_canonical(&self, w: &mut pdn_num::ByteWriter) {
        w.put_u8(match self {
            SolverSpec::ScalarJacobi => 0,
            SolverSpec::BlockCg => 1,
        });
    }
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
    /// Iterative-solver strategy used by the compressed extraction
    /// path. Defaults to [`SolverSpec::ScalarJacobi`].
    pub solver: SolverSpec,
}

impl Default for CompressionSpec {
    fn default() -> Self {
        CompressionSpec {
            tol: 1e-6,
            leaf_size: 32,
            eta: 2.0,
            solver: SolverSpec::ScalarJacobi,
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
        self.solver.write_canonical(w);
    }

    /// Compression at the given certified tolerance, other settings at
    /// their defaults.
    pub fn with_tol(tol: f64) -> Self {
        CompressionSpec {
            tol,
            ..CompressionSpec::default()
        }
    }

    /// Switches the compressed extraction path to block CG with the
    /// hierarchical preconditioner ([`SolverSpec::BlockCg`]).
    pub fn with_block_solver(mut self) -> Self {
        self.solver = SolverSpec::BlockCg;
        self
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

#[derive(Debug, Clone)]
pub(crate) struct ClusterNode {
    /// Range into the tree's permutation array.
    pub(crate) start: usize,
    pub(crate) end: usize,
    /// Bounding box (xmin, ymin, xmax, ymax) of the member points.
    pub(crate) bbox: [f64; 4],
    /// Child node ids (bisection), `None` for leaves.
    pub(crate) children: Option<(usize, usize)>,
}

impl ClusterNode {
    pub(crate) fn len(&self) -> usize {
        self.end - self.start
    }

    pub(crate) fn diameter(&self) -> f64 {
        let dx = self.bbox[2] - self.bbox[0];
        let dy = self.bbox[3] - self.bbox[1];
        (dx * dx + dy * dy).sqrt()
    }

    pub(crate) fn distance(&self, other: &ClusterNode) -> f64 {
        let dx = (other.bbox[0] - self.bbox[2])
            .max(self.bbox[0] - other.bbox[2])
            .max(0.0);
        let dy = (other.bbox[1] - self.bbox[3])
            .max(self.bbox[1] - other.bbox[3])
            .max(0.0);
        (dx * dx + dy * dy).sqrt()
    }
}

#[derive(Debug, Clone)]
pub(crate) struct ClusterTree {
    /// Original point indices, permuted so every node owns a contiguous
    /// range.
    pub(crate) perm: Vec<usize>,
    pub(crate) nodes: Vec<ClusterNode>,
    /// The `leaf_size` the tree was built with (coarsening cap anchor).
    pub(crate) leaf_size: usize,
}

impl ClusterTree {
    /// Builds the tree by recursive median bisection along the longest
    /// bounding-box axis. Splits are index-tie-broken, so the tree is a
    /// pure function of the point set.
    pub(crate) fn build(points: &[(f64, f64)], leaf_size: usize) -> ClusterTree {
        let mut tree = ClusterTree {
            perm: (0..points.len()).collect(),
            nodes: Vec::new(),
            leaf_size,
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

    /// Collects the disjoint index clusters used for block-Jacobi
    /// preconditioning: the tree leaves, or — `coarsen`ed — the maximal
    /// tree nodes of at most [`COARSEN_FACTOR`]`·leaf_size` points
    /// (larger exact preconditioner blocks cut CG iterations; past this
    /// size their apply cost overtakes the matvec they precondition).
    /// Left-to-right recursion order, so the partition is a pure
    /// function of the tree.
    pub(crate) fn clusters(&self, coarsen: bool) -> Vec<Vec<usize>> {
        let cap = if coarsen {
            COARSEN_FACTOR * self.leaf_size
        } else {
            0
        };
        fn walk(tree: &ClusterTree, id: usize, cap: usize, out: &mut Vec<Vec<usize>>) {
            let node = &tree.nodes[id];
            match node.children {
                Some((l, r)) if node.len() > cap => {
                    walk(tree, l, cap, out);
                    walk(tree, r, cap, out);
                }
                _ => out.push(tree.perm[node.start..node.end].to_vec()),
            }
        }
        let mut out = Vec::new();
        if !self.nodes.is_empty() {
            walk(self, 0, cap, &mut out);
        }
        out
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

#[derive(Debug, Clone)]
enum BlockData {
    Dense(Matrix<f64>),
    LowRank(LowRank),
}

#[derive(Debug, Clone)]
struct Block {
    rows: Vec<usize>,
    cols: Vec<usize>,
    diagonal: bool,
    data: BlockData,
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

/// Batched kernel-row generator: `row_gen(i, cols, out)` must fill
/// `out[t] = entry(i, cols[t])` bit-for-bit for the kernel being
/// compressed. Assembly passes lane-vectorized panel-integral batches
/// through this signature.
pub type RowGen<'a> = dyn Fn(usize, &[usize], &mut [f64]) + Sync + 'a;

/// A symmetric kernel matrix in hierarchically compressed form.
///
/// Built by [`CompressedKernel::build`] from a point set and an exact
/// entry generator; supports matvecs, CG solves, and byte accounting
/// without ever materializing the dense matrix.
#[derive(Debug, Clone)]
pub struct CompressedKernel {
    n: usize,
    diag: Vec<f64>,
    blocks: Vec<Block>,
    stats: CompressionStats,
    tree: ClusterTree,
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
    fn indices(tree: &ClusterTree, node: usize) -> Vec<usize> {
        let n = &tree.nodes[node];
        tree.perm[n.start..n.end].to_vec()
    }
    fn descend(
        tree: &ClusterTree,
        spec: &CompressionSpec,
        a: usize,
        b: usize,
        out: &mut Vec<PlannedBlock>,
    ) {
        let (na, nb) = (&tree.nodes[a], &tree.nodes[b]);
        if a == b {
            match na.children {
                None => out.push(PlannedBlock {
                    rows: indices(tree, a),
                    cols: indices(tree, a),
                    diagonal: true,
                    admissible: false,
                }),
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
            out.push(PlannedBlock {
                rows: indices(tree, a),
                cols: indices(tree, b),
                diagonal: false,
                admissible: true,
            });
            return;
        }
        match (na.children, nb.children) {
            (None, None) => out.push(PlannedBlock {
                rows: indices(tree, a),
                cols: indices(tree, b),
                diagonal: false,
                admissible: false,
            }),
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
    /// Builds the compressed kernel for the symmetric matrix whose entry
    /// `(i, j)` is `entry(i, j)` and whose index `i` sits at geometric
    /// position `points[i]`.
    ///
    /// `entry` must be symmetric (callers canonicalize index order); it
    /// is invoked from worker threads, each block serially, in a fixed
    /// block order — the result is bit-identical for any `PDN_THREADS`.
    ///
    /// # Errors
    ///
    /// [`AssembleBemError::InvalidInput`] for an invalid `spec`, and
    /// [`AssembleBemError::NumericalBreakdown`] when a compressed block
    /// fails its a-posteriori certification against the exact kernel.
    pub fn build(
        points: &[(f64, f64)],
        spec: &CompressionSpec,
        entry: &(dyn Fn(usize, usize) -> f64 + Sync),
    ) -> Result<CompressedKernel, AssembleBemError> {
        let row_gen = |i: usize, cols: &[usize], out: &mut [f64]| {
            for (t, &j) in cols.iter().enumerate() {
                out[t] = entry(i, j);
            }
        };
        Self::build_with_rows(points, spec, &row_gen)
    }

    /// [`build`](Self::build) with an explicit batched row generator:
    /// `row_gen(i, cols, out)` must fill `out[t] = entry(i, cols[t])`
    /// bit-for-bit. The BEM assembly passes lane-vectorized panel-integral
    /// batches here; block assembly then generates whole rows per kernel
    /// call (near-field dense fill, ACA pivot rows, and — via the
    /// symmetry of `entry` — ACA pivot columns).
    ///
    /// # Errors
    ///
    /// Same contract as [`build`](Self::build).
    pub fn build_with_rows(
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
            Ok(Block {
                data: assemble_block(pb, bi, spec, row_gen)?,
                rows: pb.rows.clone(),
                cols: pb.cols.clone(),
                diagonal: pb.diagonal,
            })
        })?;
        // The diagonal lives entirely in diagonal leaf blocks.
        let mut diag = vec![0.0; n];
        for b in &blocks {
            if b.diagonal {
                if let BlockData::Dense(m) = &b.data {
                    for (k, &i) in b.rows.iter().enumerate() {
                        diag[i] = m[(k, k)];
                    }
                }
            }
        }
        let mut stats = CompressionStats {
            blocks: blocks.len(),
            low_rank_blocks: 0,
            max_rank: 0,
            stored_bytes: 8 * n,
            dense_bytes: 8 * n * n,
        };
        for b in &blocks {
            match &b.data {
                BlockData::Dense(m) => stats.stored_bytes += 8 * m.nrows() * m.ncols(),
                BlockData::LowRank(lr) => {
                    stats.low_rank_blocks += 1;
                    stats.max_rank = stats.max_rank.max(lr.rank());
                    stats.stored_bytes += lr.stored_bytes();
                }
            }
        }
        Ok(CompressedKernel {
            n,
            diag,
            blocks,
            stats,
            tree,
        })
    }

    /// Operator dimension.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the kernel is empty (zero-dimensional).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The matrix diagonal (exact — diagonals always land in dense
    /// near-field blocks).
    pub fn diag(&self) -> &[f64] {
        &self.diag
    }

    /// Block/rank/byte diagnostics.
    pub fn stats(&self) -> CompressionStats {
        self.stats
    }

    /// `y = A·x`, applying each block (and, off-diagonal, its mirror)
    /// in the fixed block order.
    ///
    /// # Panics
    ///
    /// Panics when `x` does not match the operator dimension.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n, "matvec dimension mismatch");
        KERNEL_MATVECS.fetch_add(1, Ordering::Relaxed);
        let mut y = vec![0.0; self.n];
        for b in &self.blocks {
            match &b.data {
                BlockData::Dense(m) => {
                    for (a, &i) in b.rows.iter().enumerate() {
                        let mut acc = 0.0;
                        for (c, &j) in b.cols.iter().enumerate() {
                            acc += m[(a, c)] * x[j];
                        }
                        y[i] += acc;
                    }
                    if !b.diagonal {
                        for (c, &j) in b.cols.iter().enumerate() {
                            let mut acc = 0.0;
                            for (a, &i) in b.rows.iter().enumerate() {
                                acc += m[(a, c)] * x[i];
                            }
                            y[j] += acc;
                        }
                    }
                }
                BlockData::LowRank(lr) => {
                    let xs: Vec<f64> = b.cols.iter().map(|&j| x[j]).collect();
                    let mut ys = vec![0.0; b.rows.len()];
                    lr.matvec_into(&xs, 1.0, &mut ys);
                    for (a, &i) in b.rows.iter().enumerate() {
                        y[i] += ys[a];
                    }
                    let xt: Vec<f64> = b.rows.iter().map(|&i| x[i]).collect();
                    let mut yt = vec![0.0; b.cols.len()];
                    lr.matvec_transpose_into(&xt, 1.0, &mut yt);
                    for (c, &j) in b.cols.iter().enumerate() {
                        y[j] += yt[c];
                    }
                }
            }
        }
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
        cg::solve_spd_op(self.n, &|x| self.matvec(x), &self.diag, b, tol, max_iter).map_err(|e| {
            AssembleBemError::NumericalBreakdown(format!("compressed-kernel CG solve failed: {e}"))
        })
    }

    /// Blocked matvec: applies the operator to every column at once,
    /// streaming the stored blocks **once per column chunk** instead of
    /// once per column — each block's data stays cache-hot while it is
    /// applied to the whole chunk, so kernel memory traffic drops by
    /// roughly the chunk width against a column-at-a-time sweep.
    ///
    /// Chunks have a fixed width (independent of the worker count) and
    /// fan across [`pdn_num::parallel`] workers in index order; within a
    /// chunk, every column's accumulation order is the block order — the
    /// serial [`CompressedKernel::matvec`] order — so each result column
    /// is bit-identical to a serial sweep for any `PDN_THREADS`.
    ///
    /// # Panics
    ///
    /// Panics when any column does not match the operator dimension.
    pub fn matvec_block(&self, cols: &[Vec<f64>]) -> Vec<Vec<f64>> {
        for x in cols {
            assert_eq!(x.len(), self.n, "matvec dimension mismatch");
        }
        KERNEL_MATVECS.fetch_add(cols.len(), Ordering::Relaxed);
        let chunks = cols.len().div_ceil(MATVEC_CHUNK);
        let outs = parallel::par_map_indexed(chunks, |c| {
            let lo = c * MATVEC_CHUNK;
            let hi = (lo + MATVEC_CHUNK).min(cols.len());
            self.matvec_panel(&cols[lo..hi])
        });
        outs.into_iter().flatten().collect()
    }

    /// One blocked sweep: every stored block is applied to the whole
    /// chunk before the next block is touched, with the chunk held in an
    /// interleaved panel layout (`x[j·w + q]` is column `q`'s entry `j`)
    /// so each kernel coefficient and index is loaded **once** per chunk
    /// and multiplied across unit-stride panel lanes. Per column the
    /// floating-point arithmetic is exactly the serial
    /// [`CompressedKernel::matvec`] sequence — same block order, same
    /// accumulation order — so the results are bit-identical to serial
    /// column sweeps; only the memory access pattern changes.
    fn matvec_panel(&self, cols: &[Vec<f64>]) -> Vec<Vec<f64>> {
        // The panel stride is the compile-time chunk width, with unused
        // lanes held at zero on a short tail chunk: every inner loop
        // then has a constant trip count of `MATVEC_CHUNK` independent
        // lanes, which vectorizes without any reassociation — lane
        // arithmetic stays the exact serial sequence, and the zero
        // lanes never feed a live column.
        const W: usize = MATVEC_CHUNK;
        let w = cols.len();
        debug_assert!(w <= W);
        let mut xp = vec![0.0; self.n * W];
        for (q, x) in cols.iter().enumerate() {
            for (j, &v) in x.iter().enumerate() {
                xp[j * W + q] = v;
            }
        }
        let mut yp = vec![0.0; self.n * W];
        let mut acc = [0.0f64; W];
        let mut scratch = Vec::new();
        for b in &self.blocks {
            match &b.data {
                BlockData::Dense(m) => {
                    for (a, &i) in b.rows.iter().enumerate() {
                        acc.fill(0.0);
                        for (c, &j) in b.cols.iter().enumerate() {
                            let mv = m[(a, c)];
                            for (aq, xq) in acc.iter_mut().zip(&xp[j * W..(j + 1) * W]) {
                                *aq += mv * xq;
                            }
                        }
                        for (yq, aq) in yp[i * W..(i + 1) * W].iter_mut().zip(&acc) {
                            *yq += aq;
                        }
                    }
                    if !b.diagonal {
                        for (c, &j) in b.cols.iter().enumerate() {
                            acc.fill(0.0);
                            for (a, &i) in b.rows.iter().enumerate() {
                                let mv = m[(a, c)];
                                for (aq, xq) in acc.iter_mut().zip(&xp[i * W..(i + 1) * W]) {
                                    *aq += mv * xq;
                                }
                            }
                            for (yq, aq) in yp[j * W..(j + 1) * W].iter_mut().zip(&acc) {
                                *yq += aq;
                            }
                        }
                    }
                }
                BlockData::LowRank(lr) => {
                    let (nr, nc) = (b.rows.len(), b.cols.len());
                    scratch.clear();
                    scratch.resize(2 * (nr + nc) * W, 0.0);
                    let (xs, rest) = scratch.split_at_mut(nc * W);
                    let (yr, rest) = rest.split_at_mut(nr * W);
                    let (xt, yt) = rest.split_at_mut(nr * W);
                    for (c, &j) in b.cols.iter().enumerate() {
                        xs[c * W..(c + 1) * W].copy_from_slice(&xp[j * W..(j + 1) * W]);
                    }
                    lr.matvec_panel_into(xs, W, 1.0, yr);
                    for (a, &i) in b.rows.iter().enumerate() {
                        for (yq, vq) in yp[i * W..(i + 1) * W]
                            .iter_mut()
                            .zip(&yr[a * W..(a + 1) * W])
                        {
                            *yq += vq;
                        }
                    }
                    for (a, &i) in b.rows.iter().enumerate() {
                        xt[a * W..(a + 1) * W].copy_from_slice(&xp[i * W..(i + 1) * W]);
                    }
                    lr.matvec_transpose_panel_into(xt, W, 1.0, yt);
                    for (c, &j) in b.cols.iter().enumerate() {
                        for (yq, vq) in yp[j * W..(j + 1) * W]
                            .iter_mut()
                            .zip(&yt[c * W..(c + 1) * W])
                        {
                            *yq += vq;
                        }
                    }
                }
            }
        }
        (0..w)
            .map(|q| (0..self.n).map(|i| yp[i * W + q]).collect())
            .collect()
    }

    /// The disjoint cluster partition backing the hierarchical
    /// preconditioner: tree leaves, or (with `coarsen`) the maximal
    /// tree nodes of at most 8× the leaf size.
    pub fn leaf_clusters(&self, coarsen: bool) -> Vec<Vec<usize>> {
        self.tree.clusters(coarsen)
    }

    /// Materializes the dense restrictions `A[c, c]` for every cluster
    /// of a disjoint partition, in one pass over the stored blocks.
    fn cluster_restrictions(&self, clusters: &[Vec<usize>]) -> Vec<Matrix<f64>> {
        // index -> (cluster id, position within the cluster)
        let mut of: Vec<Option<(usize, usize)>> = vec![None; self.n];
        for (ci, cl) in clusters.iter().enumerate() {
            for (k, &i) in cl.iter().enumerate() {
                of[i] = Some((ci, k));
            }
        }
        let mut mats: Vec<Matrix<f64>> = clusters
            .iter()
            .map(|c| Matrix::zeros(c.len(), c.len()))
            .collect();
        for b in &self.blocks {
            match &b.data {
                BlockData::Dense(m) => {
                    for (a, &i) in b.rows.iter().enumerate() {
                        let Some((ci, pi)) = of[i] else { continue };
                        for (c, &j) in b.cols.iter().enumerate() {
                            if let Some((cj, pj)) = of[j] {
                                if ci == cj {
                                    let v = m[(a, c)];
                                    mats[ci][(pi, pj)] = v;
                                    if !b.diagonal {
                                        mats[ci][(pj, pi)] = v;
                                    }
                                }
                            }
                        }
                    }
                }
                BlockData::LowRank(lr) => {
                    // Admissible (well-separated) pairs almost never land
                    // inside one cluster; test membership before paying
                    // per-entry reconstruction.
                    let row_cl: Vec<(usize, usize, usize)> = b
                        .rows
                        .iter()
                        .enumerate()
                        .filter_map(|(a, &i)| of[i].map(|(ci, pi)| (ci, pi, a)))
                        .collect();
                    if row_cl.is_empty() {
                        continue;
                    }
                    for (c, &j) in b.cols.iter().enumerate() {
                        let Some((cj, pj)) = of[j] else { continue };
                        for &(ci, pi, a) in &row_cl {
                            if ci == cj {
                                let v = lr.entry(a, c);
                                mats[ci][(pi, pj)] = v;
                                if !b.diagonal {
                                    mats[ci][(pj, pi)] = v;
                                }
                            }
                        }
                    }
                }
            }
        }
        mats
    }

    /// Builds the hierarchical block-Jacobi preconditioner for this
    /// kernel: exact Cholesky factors of the dense restrictions over the
    /// [`CompressedKernel::leaf_clusters`] partition.
    ///
    /// # Errors
    ///
    /// [`AssembleBemError::NumericalBreakdown`] when a cluster
    /// restriction of the claimed-SPD kernel fails to factor.
    pub fn block_jacobi(
        &self,
        coarsen: bool,
    ) -> Result<BlockJacobiPreconditioner, AssembleBemError> {
        let clusters = self.leaf_clusters(coarsen);
        let mats = self.cluster_restrictions(&clusters);
        BlockJacobiPreconditioner::from_blocks(self.n, clusters.into_iter().zip(mats).collect())
            .map_err(|e| {
                AssembleBemError::NumericalBreakdown(format!(
                    "hierarchical preconditioner construction failed: {e}"
                ))
            })
    }

    /// Solves `A·X = B` for a panel of columns by block CG
    /// ([`pdn_num::cg::solve_spd_block`]) under the given
    /// preconditioner.
    ///
    /// # Errors
    ///
    /// [`AssembleBemError::NumericalBreakdown`] when the block iteration
    /// stalls or breaks down.
    pub fn solve_block(
        &self,
        b: &[Vec<f64>],
        pc: &dyn Preconditioner,
        tol: f64,
        max_iter: usize,
    ) -> Result<Vec<Vec<f64>>, AssembleBemError> {
        cg::solve_spd_block(
            self.n,
            &|cols| self.matvec_block(cols),
            pc,
            b,
            tol,
            max_iter,
        )
        .map_err(|e| {
            AssembleBemError::NumericalBreakdown(format!(
                "compressed-kernel block-CG solve failed: {e}"
            ))
        })
    }

    /// Densifies the operator — diagnostics and small-problem tests only.
    pub fn to_dense(&self) -> Matrix<f64> {
        let mut out = Matrix::zeros(self.n, self.n);
        for b in &self.blocks {
            for (a, &i) in b.rows.iter().enumerate() {
                for (c, &j) in b.cols.iter().enumerate() {
                    let v = match &b.data {
                        BlockData::Dense(m) => m[(a, c)],
                        BlockData::LowRank(lr) => lr.entry(a, c),
                    };
                    out[(i, j)] = v;
                    if !b.diagonal {
                        out[(j, i)] = v;
                    }
                }
            }
        }
        out
    }

    /// Bytes held by the compressed representation.
    pub fn stored_bytes(&self) -> usize {
        self.stats.stored_bytes
    }

    /// Bytes the dense equivalent would hold.
    pub fn dense_bytes(&self) -> usize {
        self.stats.dense_bytes
    }
}

/// Assembles one planned block: dense near-field entries, or ACA +
/// recompression + certification for an admissible pair. `ordinal` seeds
/// the certification row sampler. Rows are generated through `row_gen`
/// (the batched fast path; bit-identical to `entry` by contract); columns
/// come from `row_gen` on the transpose, valid because `entry` is
/// symmetric.
fn assemble_block(
    pb: &PlannedBlock,
    ordinal: usize,
    spec: &CompressionSpec,
    row_gen: &RowGen<'_>,
) -> Result<BlockData, AssembleBemError> {
    let (r, c) = (pb.rows.len(), pb.cols.len());
    let dense = || -> BlockData {
        let mut m = Matrix::zeros(r, c);
        for a in 0..r {
            row_gen(pb.rows[a], &pb.cols, m.row_mut(a));
        }
        BlockData::Dense(m)
    };
    if !pb.admissible {
        return Ok(dense());
    }
    let row_fn = |a: usize| -> Vec<f64> {
        let mut v = vec![0.0; c];
        row_gen(pb.rows[a], &pb.cols, &mut v);
        v
    };
    let col_fn = |b: usize| -> Vec<f64> {
        let mut v = vec![0.0; r];
        row_gen(pb.cols[b], &pb.rows, &mut v);
        v
    };
    let lr = aca(r, c, &row_fn, &col_fn, spec.tol / ACA_MARGIN, r.min(c))
        .recompress(spec.tol / RECOMPRESS_MARGIN);
    // Not worth keeping in factored form: store the exact dense block.
    if lr.stored_bytes() >= 8 * r * c {
        return Ok(dense());
    }
    // A-posteriori certification: sampled rows of the factorization must
    // match the exact kernel to `tol` relative to the block norm.
    let frob = lr.frobenius_norm();
    let mut rng = 0x9e37_79b9_7f4a_7c15u64 ^ (ordinal as u64).wrapping_mul(0xd134_2543_de82_ef95);
    for _ in 0..CERT_ROWS.min(r) {
        rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let a = (rng >> 33) as usize % r;
        let exact = row_fn(a);
        let approx = lr.row(a);
        let err = exact
            .iter()
            .zip(&approx)
            .map(|(e, p)| (e - p) * (e - p))
            .sum::<f64>()
            .sqrt();
        let row_norm = exact.iter().map(|e| e * e).sum::<f64>().sqrt();
        let scale = frob.max(row_norm);
        if err > spec.tol * scale {
            return Err(AssembleBemError::NumericalBreakdown(format!(
                "ACA certification failed on a {r}x{c} block (rank {}): sampled row error \
                 {err:.3e} exceeds tol {:.1e} x block scale {scale:.3e}",
                lr.rank(),
                spec.tol
            )));
        }
    }
    Ok(BlockData::LowRank(lr))
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
    /// Builds the two per-direction compressed kernels. `entry` takes
    /// **global** link indices and must return exactly zero for
    /// cross-direction pairs (it is only invoked within a direction).
    ///
    /// # Errors
    ///
    /// Same contract as [`CompressedKernel::build`].
    pub fn build(
        centers: &[(f64, f64)],
        directions: &[LinkDirection],
        spec: &CompressionSpec,
        entry: &(dyn Fn(usize, usize) -> f64 + Sync),
    ) -> Result<CompressedLinkKernel, AssembleBemError> {
        let row_gen = |i: usize, cols: &[usize], out: &mut [f64]| {
            for (t, &j) in cols.iter().enumerate() {
                out[t] = entry(i, j);
            }
        };
        Self::build_with_rows(centers, directions, spec, &row_gen)
    }

    /// [`build`](Self::build) with a batched row generator over **global**
    /// link indices: `row_gen(i, cols, out)` fills `out[t] = entry(i,
    /// cols[t])`. Only same-direction index pairs are ever requested.
    ///
    /// # Errors
    ///
    /// Same contract as [`CompressedKernel::build`].
    pub fn build_with_rows(
        centers: &[(f64, f64)],
        directions: &[LinkDirection],
        spec: &CompressionSpec,
        row_gen: &RowGen<'_>,
    ) -> Result<CompressedLinkKernel, AssembleBemError> {
        assert_eq!(
            centers.len(),
            directions.len(),
            "center/direction length mismatch"
        );
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
            CompressedKernel::build_with_rows(&pts, spec, &local)
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

    /// Solves `L·x = b` by CG on the compressed operator.
    ///
    /// # Errors
    ///
    /// [`AssembleBemError::NumericalBreakdown`] when CG fails.
    pub fn solve(
        &self,
        b: &[f64],
        tol: f64,
        max_iter: usize,
    ) -> Result<Vec<f64>, AssembleBemError> {
        cg::solve_spd_op(self.m, &|x| self.matvec(x), &self.diag, b, tol, max_iter).map_err(|e| {
            AssembleBemError::NumericalBreakdown(format!("compressed-L CG solve failed: {e}"))
        })
    }

    /// Blocked matvec over global link indices: the X- and Y-direction
    /// sub-kernels each run one [`CompressedKernel::matvec_block`] over
    /// the whole panel, so kernel memory streams once per column chunk
    /// instead of once per column. Per column the arithmetic (X kernel,
    /// then Y kernel, gathers and scatters in index order) is exactly
    /// the serial [`CompressedLinkKernel::matvec`] arithmetic, so each
    /// result column is bit-identical to a serial sweep for any
    /// `PDN_THREADS`.
    ///
    /// # Panics
    ///
    /// Panics when any column does not match the link count.
    pub fn matvec_block(&self, cols: &[Vec<f64>]) -> Vec<Vec<f64>> {
        for x in cols {
            assert_eq!(x.len(), self.m, "matvec dimension mismatch");
        }
        let mut ys = vec![vec![0.0; self.m]; cols.len()];
        for (idx, k) in [(&self.x_idx, &self.x), (&self.y_idx, &self.y)] {
            let sub: Vec<Vec<f64>> = cols
                .iter()
                .map(|x| idx.iter().map(|&i| x[i]).collect())
                .collect();
            let outs = k.matvec_block(&sub);
            for (y, out) in ys.iter_mut().zip(&outs) {
                for (a, &i) in idx.iter().enumerate() {
                    y[i] += out[a];
                }
            }
        }
        ys
    }

    /// Builds the hierarchical block-Jacobi preconditioner over global
    /// link indices: the X-direction kernel's leaf clusters followed by
    /// the Y-direction's, each factored exactly. The direction split is
    /// itself block-diagonal (orthogonal mutuals are zero), so the
    /// combined partition respects the true operator structure.
    ///
    /// # Errors
    ///
    /// [`AssembleBemError::NumericalBreakdown`] when a cluster
    /// restriction fails to factor.
    pub fn block_jacobi(
        &self,
        coarsen: bool,
    ) -> Result<BlockJacobiPreconditioner, AssembleBemError> {
        let mut parts: Vec<(Vec<usize>, Matrix<f64>)> = Vec::new();
        for (idx, k) in [(&self.x_idx, &self.x), (&self.y_idx, &self.y)] {
            let clusters = k.leaf_clusters(coarsen);
            let mats = k.cluster_restrictions(&clusters);
            for (cl, m) in clusters.into_iter().zip(mats) {
                parts.push((cl.into_iter().map(|i| idx[i]).collect(), m));
            }
        }
        BlockJacobiPreconditioner::from_blocks(self.m, parts).map_err(|e| {
            AssembleBemError::NumericalBreakdown(format!(
                "hierarchical L preconditioner construction failed: {e}"
            ))
        })
    }

    /// Solves `L·X = B` for a panel of columns by block CG under the
    /// given preconditioner.
    ///
    /// # Errors
    ///
    /// [`AssembleBemError::NumericalBreakdown`] when the block iteration
    /// stalls or breaks down.
    pub fn solve_block(
        &self,
        b: &[Vec<f64>],
        pc: &dyn Preconditioner,
        tol: f64,
        max_iter: usize,
    ) -> Result<Vec<Vec<f64>>, AssembleBemError> {
        cg::solve_spd_block(
            self.m,
            &|cols| self.matvec_block(cols),
            pc,
            b,
            tol,
            max_iter,
        )
        .map_err(|e| {
            AssembleBemError::NumericalBreakdown(format!("compressed-L block-CG solve failed: {e}"))
        })
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
    let g_phi = scalar_kernel(pair, opts);
    let g_a = LayeredKernel::vector_potential(pair.separation);
    let cell = Rectangle::new(mesh.dx(), mesh.dy());
    let area = mesh.cell_area();
    let quad = match opts.testing {
        Testing::PointMatching => None,
        Testing::Galerkin { order } => Some(GaussLegendre::new(order.max(2))),
    };

    // Entries are canonicalized to (lo, hi) index order so the generator
    // is symmetric by construction and every evaluation matches the
    // upper-triangle orientation of the dense assembly loops exactly.
    // Rows are generated through the lane-batched panel kernels; per
    // element they are bit-identical to the scalar entry closures this
    // path used to pass.
    let centers = mesh.cell_centers();
    let p_row = |i: usize, cols: &[usize], out: &mut [f64]| {
        let mut ox = Vec::with_capacity(cols.len());
        let mut oy = Vec::with_capacity(cols.len());
        for &j in cols {
            let (a, b) = if i <= j { (i, j) } else { (j, i) };
            ox.push(centers[a].x - centers[b].x);
            oy.push(centers[a].y - centers[b].y);
        }
        kernel_row(&g_phi, &ox, &oy, cell, &quad, out);
        for v in out.iter_mut() {
            *v /= area;
        }
    };
    let cell_points: Vec<(f64, f64)> = centers.iter().map(|c| (c.x, c.y)).collect();
    let p = CompressedKernel::build_with_rows(&cell_points, spec, &p_row)?;

    let links = mesh.links();
    let l_row = |i: usize, cols: &[usize], out: &mut [f64]| {
        let w = match links[i].direction {
            LinkDirection::X => mesh.dy(),
            LinkDirection::Y => mesh.dx(),
        };
        let mut ox = Vec::with_capacity(cols.len());
        let mut oy = Vec::with_capacity(cols.len());
        let mut keep = Vec::with_capacity(cols.len());
        for (t, &j) in cols.iter().enumerate() {
            let (a, b) = if i <= j { (i, j) } else { (j, i) };
            if links[a].direction != links[b].direction {
                continue; // orthogonal currents: zero quasi-static mutual
            }
            keep.push(t);
            ox.push(links[a].center.x - links[b].center.x);
            oy.push(links[a].center.y - links[b].center.y);
        }
        let mut vals = vec![0.0; keep.len()];
        kernel_row(&g_a, &ox, &oy, cell, &quad, &mut vals);
        out.fill(0.0);
        for (k, &t) in keep.iter().enumerate() {
            let integral = vals[k] * area;
            out[t] = integral / (w * w);
        }
    };
    let link_points: Vec<(f64, f64)> = links.iter().map(|l| (l.center.x, l.center.y)).collect();
    let link_dirs: Vec<LinkDirection> = links.iter().map(|l| l.direction).collect();
    let l = CompressedLinkKernel::build_with_rows(&link_points, &link_dirs, spec, &l_row)?;

    let r_dc = zs.dc_resistance();
    let r_link: Vec<f64> = links
        .iter()
        .map(|lk| match lk.direction {
            LinkDirection::X => r_dc * mesh.dx() / mesh.dy(),
            LinkDirection::Y => r_dc * mesh.dy() / mesh.dx(),
        })
        .collect();
    Ok((CompressedKernels { p, l, spec: *spec }, r_link))
}

/// Compressed counterpart of
/// [`assemble_link_matrices`](crate::assemble_link_matrices): builds the
/// inductance of a standalone link set (sharded extraction's cut-link
/// stitch block) as a [`CompressedLinkKernel`] instead of a dense
/// matrix, with an optional per-link diagonal lumping term folded into
/// the generator so the certification also covers the lumped seam
/// compensation. Returns the kernel and the DC link resistances.
///
/// Entries use the exact panel-integral formulas of the dense
/// counterpart; `diag_lump` must be empty or one entry per link.
///
/// # Errors
///
/// Same contract as [`CompressedLinkKernel::build`].
///
/// # Panics
///
/// Panics when `diag_lump` is non-empty with a length other than
/// `links.len()`.
#[allow(clippy::too_many_arguments)]
pub fn compress_link_matrices(
    links: &[pdn_geom::mesh::Link],
    dx: f64,
    dy: f64,
    pair: &PlanePair,
    zs: &SurfaceImpedance,
    opts: &BemOptions,
    spec: &CompressionSpec,
    diag_lump: &[f64],
) -> Result<(CompressedLinkKernel, Vec<f64>), AssembleBemError> {
    spec.validate()?;
    assert!(
        diag_lump.is_empty() || diag_lump.len() == links.len(),
        "diag_lump must be empty or match the link count"
    );
    let g_a = LayeredKernel::vector_potential(pair.separation);
    let cell = Rectangle::new(dx, dy);
    let area = dx * dy;
    let quad = match opts.testing {
        Testing::PointMatching => None,
        Testing::Galerkin { order } => Some(GaussLegendre::new(order.max(2))),
    };
    let l_row = |i: usize, cols: &[usize], out: &mut [f64]| {
        let w = match links[i].direction {
            LinkDirection::X => dy,
            LinkDirection::Y => dx,
        };
        let mut ox = Vec::with_capacity(cols.len());
        let mut oy = Vec::with_capacity(cols.len());
        let mut keep = Vec::with_capacity(cols.len());
        for (t, &j) in cols.iter().enumerate() {
            let (a, b) = if i <= j { (i, j) } else { (j, i) };
            if links[a].direction != links[b].direction {
                continue; // orthogonal currents: zero quasi-static mutual
            }
            keep.push(t);
            ox.push(links[a].center.x - links[b].center.x);
            oy.push(links[a].center.y - links[b].center.y);
        }
        let mut vals = vec![0.0; keep.len()];
        kernel_row(&g_a, &ox, &oy, cell, &quad, &mut vals);
        out.fill(0.0);
        for (k, &t) in keep.iter().enumerate() {
            let j = cols[t];
            let lump = if i == j && !diag_lump.is_empty() {
                diag_lump[i]
            } else {
                0.0
            };
            let integral = vals[k] * area;
            out[t] = integral / (w * w) + lump;
        }
    };
    let link_points: Vec<(f64, f64)> = links.iter().map(|l| (l.center.x, l.center.y)).collect();
    let link_dirs: Vec<LinkDirection> = links.iter().map(|l| l.direction).collect();
    let l = CompressedLinkKernel::build_with_rows(&link_points, &link_dirs, spec, &l_row)?;
    let r_dc = zs.dc_resistance();
    let r_link: Vec<f64> = links
        .iter()
        .map(|lk| match lk.direction {
            LinkDirection::X => r_dc * dx / dy,
            LinkDirection::Y => r_dc * dy / dx,
        })
        .collect();
    Ok((l, r_link))
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
        let ck = CompressedKernel::build(&points, &spec, &entry).unwrap();
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
    fn empty_point_set_builds_empty_kernel() {
        let ck = CompressedKernel::build(&[], &CompressionSpec::default(), &|_, _| 0.0).unwrap();
        assert!(ck.is_empty());
        assert_eq!(ck.matvec(&[]), Vec::<f64>::new());
    }

    #[test]
    fn spec_validation_rejects_zero_block_panel() {
        assert!(CompressionSpec::default()
            .with_block_solver()
            .validate()
            .is_ok());
        assert!(CompressionSpec::default()
            .with_block_solver()
            .solver
            .is_block());
    }

    #[test]
    fn leaf_clusters_partition_and_coarsen() {
        let (mesh, pair, zs) = plane(mm(24.0), mm(12.0), mm(1.0));
        let spec = CompressionSpec {
            leaf_size: 16,
            ..CompressionSpec::default()
        };
        let (ck, _) =
            assemble_compressed(&mesh, &pair, &zs, &BemOptions::default(), &spec).unwrap();
        let n = mesh.cell_count();
        for coarsen in [false, true] {
            let clusters = ck.p.leaf_clusters(coarsen);
            let mut seen = vec![false; n];
            for cl in &clusters {
                assert!(!cl.is_empty());
                for &i in cl {
                    assert!(!seen[i], "index {i} covered twice");
                    seen[i] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "partition must cover 0..n");
        }
        assert!(
            ck.p.leaf_clusters(true).len() < ck.p.leaf_clusters(false).len(),
            "coarsening must merge sibling leaves"
        );
    }

    #[test]
    fn block_jacobi_restrictions_match_dense() {
        let (mesh, pair, zs) = plane(mm(24.0), mm(12.0), mm(1.0));
        let spec = CompressionSpec {
            leaf_size: 16,
            ..CompressionSpec::default()
        };
        let (ck, _) =
            assemble_compressed(&mesh, &pair, &zs, &BemOptions::default(), &spec).unwrap();
        let dense = ck.p.to_dense();
        let clusters = ck.p.leaf_clusters(false);
        let mats = ck.p.cluster_restrictions(&clusters);
        for (cl, m) in clusters.iter().zip(&mats) {
            for (pi, &i) in cl.iter().enumerate() {
                for (pj, &j) in cl.iter().enumerate() {
                    assert_eq!(
                        m[(pi, pj)].to_bits(),
                        dense[(i, j)].to_bits(),
                        "restriction entry ({i},{j})"
                    );
                }
            }
        }
        // And the preconditioner factors.
        assert!(ck.p.block_jacobi(false).is_ok());
        assert!(ck.l.block_jacobi(true).is_ok());
    }

    #[test]
    fn matvec_block_is_bit_identical_to_serial_columns() {
        let (mesh, pair, zs) = plane(mm(24.0), mm(12.0), mm(1.0));
        let spec = CompressionSpec {
            leaf_size: 16,
            ..CompressionSpec::default()
        };
        let (ck, _) =
            assemble_compressed(&mesh, &pair, &zs, &BemOptions::default(), &spec).unwrap();
        let n = mesh.cell_count();
        let cols: Vec<Vec<f64>> = (0..5)
            .map(|j| (0..n).map(|i| ((i + 7 * j) as f64 * 0.13).sin()).collect())
            .collect();
        let blocked = ck.p.matvec_block(&cols);
        for (j, col) in cols.iter().enumerate() {
            let serial = ck.p.matvec(col);
            for i in 0..n {
                assert_eq!(blocked[j][i].to_bits(), serial[i].to_bits(), "({j},{i})");
            }
        }
    }

    #[test]
    fn solve_block_matches_scalar_solves() {
        let (mesh, pair, zs) = plane(mm(24.0), mm(12.0), mm(1.0));
        let spec = CompressionSpec {
            leaf_size: 16,
            ..CompressionSpec::default()
        };
        let (ck, _) =
            assemble_compressed(&mesh, &pair, &zs, &BemOptions::default(), &spec).unwrap();
        let n = mesh.cell_count();
        let pc = ck.p.block_jacobi(false).unwrap();
        let b: Vec<Vec<f64>> = (0..3)
            .map(|j| {
                (0..n)
                    .map(|i| if i == (j * 17) % n { 1.0 } else { 0.0 })
                    .collect()
            })
            .collect();
        let xs = ck.p.solve_block(&b, &pc, 1e-12, 10 * n).unwrap();
        for (j, col) in b.iter().enumerate() {
            let x_scalar = ck.p.solve(col, 1e-12, 10 * n).unwrap();
            let x_max = x_scalar.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            for i in 0..n {
                assert!(
                    (xs[j][i] - x_scalar[i]).abs() <= 1e-9 * x_max,
                    "col {j} entry {i}: {} vs {}",
                    xs[j][i],
                    x_scalar[i]
                );
            }
        }
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
        let before = kernel_matvec_count();
        ck.p.matvec_block(&[x.clone(), x.clone(), x]);
        assert!(kernel_matvec_count() >= before + 3);
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
