//! Streamed column-panel compression of implicitly defined symmetric
//! matrices — the extraction B-blocks.
//!
//! The compressed extraction path forms `B = Aᵀ·L⁻¹·A` whose entries
//! have no cheap generator: one entry costs a full iterative solve on
//! the compressed `L`. ACA-by-entries is therefore infeasible, but the
//! matrix is still the discretization of a smooth (Laplacian-like)
//! operator over node positions, so its well-separated blocks are
//! numerically low-rank. [`CompressedColumns`] exploits that without a
//! per-entry generator:
//!
//! 1. a geometric cluster tree over the node positions fixes both the
//!    column panels (the tree cut at `panel` points) and the row
//!    partition;
//! 2. each column panel is **materialized once** by the caller's
//!    generator (one block-CG solve on `L` per panel) and immediately
//!    compressed: the row tree descends against the panel's column
//!    node — admissible row blocks go through the same certified ACA
//!    step as the kernel blocks, **on the materialized data**, and
//!    near-field leaves stay dense;
//! 3. the certification samples rows of the materialized panel and
//!    fails loudly above `tol`.
//!
//! The working set is one `n × panel` slab at a time instead of the
//! dense `8N²` matrix. The blocks live in the same block store as the
//! kernels', which holds every entry once, un-mirrored, and applies
//! `½(M + Mᵀ)` for the Schur-complement block-CG solves. Panels are
//! processed serially in tree order and every factorization is
//! deterministically pivoted, so the result is bit-identical for any
//! `PDN_THREADS` (the parallelism lives inside the caller's generator,
//! which must itself be deterministic — the block kernel solves are).

use crate::assembly::AssembleBemError;
use crate::blocks::{certified_block, dense_block, Block, BlockStore, Symmetry};
use crate::compress::{ClusterTree, CompressionSpec, CompressionStats};
use pdn_num::Matrix;

/// Streaming column-panel generator: returns the dense columns for the
/// requested indices, or the assembly error to propagate verbatim.
pub type ColumnGen<'a> = dyn FnMut(&[usize]) -> Result<Vec<Vec<f64>>, AssembleBemError> + 'a;

/// A symmetric matrix compressed from streamed column panels; see the
/// module docs for the construction.
#[derive(Debug, Clone)]
pub struct CompressedColumns {
    store: BlockStore,
}

impl CompressedColumns {
    /// Builds the compressed matrix for the symmetric operator whose
    /// index `i` sits at `points[i]`, materializing it one column panel
    /// at a time through `gen`.
    ///
    /// `gen(cols)` must return one vector of length `points.len()` per
    /// requested column index (the exact matrix columns, e.g. computed
    /// by block-CG solves); panels are requested serially in a fixed
    /// tree order.
    ///
    /// # Errors
    ///
    /// [`AssembleBemError::InvalidInput`] for an invalid `spec`,
    /// generator errors verbatim, and
    /// [`AssembleBemError::NumericalBreakdown`] for a mis-shaped panel
    /// or a low-rank block that fails certification against the
    /// materialized data.
    pub fn build(
        points: &[(f64, f64)],
        spec: &CompressionSpec,
        panel: usize,
        gen: &mut ColumnGen<'_>,
    ) -> Result<CompressedColumns, AssembleBemError> {
        spec.validate()?;
        let n = points.len();
        let tree = ClusterTree::build(points, spec.leaf_size);
        let mut blocks: Vec<Block> = Vec::new();
        for cn in tree.cut(panel.max(1)) {
            let cols = tree.members(cn);
            let panel_cols = gen(cols)?;
            if panel_cols.len() != cols.len() || panel_cols.iter().any(|c| c.len() != n) {
                return Err(AssembleBemError::NumericalBreakdown(
                    "column generator returned a mis-shaped panel".into(),
                ));
            }
            descend_rows(&tree, spec, 0, cn, &panel_cols, &mut blocks)?;
        }
        Ok(CompressedColumns {
            store: BlockStore::new(n, Symmetry::Halved, tree, blocks),
        })
    }

    /// Operator dimension.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether the operator is zero-dimensional.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Block/rank/byte diagnostics.
    pub fn stats(&self) -> CompressionStats {
        self.store.stats()
    }

    /// Bytes held by the compressed representation.
    pub fn stored_bytes(&self) -> usize {
        self.stats().stored_bytes
    }

    /// The symmetric matvec `y = 0.5·(M + Mᵀ)·x` over the stored blocks
    /// in fixed order — the deterministic symmetrization of the
    /// materialized columns.
    ///
    /// # Panics
    ///
    /// Panics when `x` does not match the operator dimension.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        self.store.matvec(x)
    }

    /// Blocked symmetric matvec over fixed-width column chunks fanned
    /// across [`pdn_num::parallel`] workers in index order; every result
    /// column is bit-identical to a serial [`CompressedColumns::matvec`]
    /// for any `PDN_THREADS`.
    ///
    /// # Panics
    ///
    /// Panics when any column does not match the operator dimension.
    pub fn matvec_block(&self, cols: &[Vec<f64>]) -> Vec<Vec<f64>> {
        self.store.matvec_block(cols)
    }

    /// The disjoint cluster partition for block-Jacobi preconditioning
    /// (tree leaves, or — `coarsen`ed — the maximal tree nodes of at
    /// most 8× the leaf size).
    pub fn leaf_clusters(&self, coarsen: bool) -> Vec<Vec<usize>> {
        self.store.leaf_clusters(coarsen)
    }

    /// Materializes the symmetrized dense restrictions
    /// `0.5·(M + Mᵀ)[c, c]` for every cluster of a disjoint partition in
    /// one pass over the stored blocks — the preconditioner sub-blocks
    /// for Schur-complement solves (callers stamp any sparse additions,
    /// e.g. conductance, before factoring).
    pub fn cluster_restrictions(&self, clusters: &[Vec<usize>]) -> Vec<Matrix<f64>> {
        self.store.cluster_restrictions(clusters)
    }

    /// Densifies the symmetrized operator — diagnostics and
    /// small-problem tests only.
    pub fn to_dense(&self) -> Matrix<f64> {
        self.store.to_dense()
    }
}

/// Recursive row-side descent against a fixed column node: admissible
/// row blocks go through the certified ACA step on the materialized
/// sub-panel (the block's index in `out` seeds its certification rows),
/// inadmissible leaves stay dense slices of the panel.
fn descend_rows(
    tree: &ClusterTree,
    spec: &CompressionSpec,
    row_node: usize,
    col_node: usize,
    panel: &[Vec<f64>],
    out: &mut Vec<Block>,
) -> Result<(), AssembleBemError> {
    let (rn, cn) = (&tree.nodes[row_node], &tree.nodes[col_node]);
    let dist = rn.distance(cn);
    let admissible =
        row_node != col_node && dist > 0.0 && rn.diameter().min(cn.diameter()) <= spec.eta * dist;
    if !admissible {
        if let Some((l, r)) = rn.children {
            descend_rows(tree, spec, l, col_node, panel, out)?;
            descend_rows(tree, spec, r, col_node, panel, out)?;
            return Ok(());
        }
    }
    let rows = tree.members(row_node);
    let (r, c) = (rows.len(), panel.len());
    let row = |a: usize| -> Vec<f64> { panel.iter().map(|col| col[rows[a]]).collect() };
    let col = |b: usize| -> Vec<f64> { rows.iter().map(|&i| panel[b][i]).collect() };
    let data = if admissible {
        certified_block((r, c), &row, &col, spec, out.len())?
    } else {
        dense_block(r, c, &row)
    };
    out.push(Block {
        rows: rows.to_vec(),
        cols: tree.members(col_node).to_vec(),
        mirror: true,
        data,
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A smooth symmetric "Laplacian-like" test matrix over a line of
    /// points: strong diagonal, 1/(1+d²) off-diagonal decay.
    fn smooth_matrix(points: &[(f64, f64)]) -> Matrix<f64> {
        let n = points.len();
        Matrix::from_fn(n, n, |i, j| {
            if i == j {
                50.0
            } else {
                let dx = points[i].0 - points[j].0;
                let dy = points[i].1 - points[j].1;
                1.0 / (1.0 + dx * dx + dy * dy)
            }
        })
    }

    fn grid(nx: usize, ny: usize) -> Vec<(f64, f64)> {
        (0..nx * ny)
            .map(|k| ((k % nx) as f64, (k / nx) as f64))
            .collect()
    }

    #[test]
    fn compressed_columns_match_dense_within_tol() {
        let points = grid(24, 12);
        let a = smooth_matrix(&points);
        let spec = CompressionSpec {
            leaf_size: 8,
            ..CompressionSpec::with_tol(1e-4)
        };
        let mut calls = 0usize;
        let cc = CompressedColumns::build(&points, &spec, 24, &mut |cols| {
            calls += 1;
            Ok(cols.iter().map(|&j| a.col(j)).collect())
        })
        .unwrap();
        assert!(calls > 1, "panels must stream");
        let d = cc.to_dense();
        let n = points.len();
        let frob: f64 = (0..n)
            .map(|i| (0..n).map(|j| a[(i, j)] * a[(i, j)]).sum::<f64>())
            .sum::<f64>()
            .sqrt();
        let err: f64 = (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| (d[(i, j)] - a[(i, j)]) * (d[(i, j)] - a[(i, j)]))
                    .sum::<f64>()
            })
            .sum::<f64>()
            .sqrt();
        assert!(err <= spec.tol * frob, "error {err:.3e} vs frob {frob:.3e}");
        assert!(
            cc.stats().low_rank_blocks > 0,
            "far blocks must compress: {:?}",
            cc.stats()
        );
        assert!(cc.stored_bytes() < 8 * n * n, "{:?}", cc.stats());
    }

    #[test]
    fn matvec_is_exactly_symmetric() {
        let points = grid(12, 6);
        let a = smooth_matrix(&points);
        let spec = CompressionSpec {
            leaf_size: 8,
            ..CompressionSpec::default()
        };
        let cc = CompressedColumns::build(&points, &spec, 12, &mut |cols| {
            Ok(cols.iter().map(|&j| a.col(j)).collect())
        })
        .unwrap();
        let n = points.len();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.29).sin()).collect();
        let y: Vec<f64> = (0..n).map(|i| (i as f64 * 0.53).cos()).collect();
        let ax = cc.matvec(&x);
        let ay = cc.matvec(&y);
        let yax: f64 = y.iter().zip(&ax).map(|(p, q)| p * q).sum();
        let xay: f64 = x.iter().zip(&ay).map(|(p, q)| p * q).sum();
        assert!(
            (yax - xay).abs() <= 1e-12 * yax.abs().max(xay.abs()),
            "{yax} vs {xay}"
        );
    }

    #[test]
    fn cluster_restrictions_match_dense_diagonal_blocks() {
        let points = grid(10, 5);
        let a = smooth_matrix(&points);
        let spec = CompressionSpec {
            leaf_size: 8,
            ..CompressionSpec::default()
        };
        let cc = CompressedColumns::build(&points, &spec, 16, &mut |cols| {
            Ok(cols.iter().map(|&j| a.col(j)).collect())
        })
        .unwrap();
        let clusters = cc.leaf_clusters(false);
        let total: usize = clusters.iter().map(Vec::len).sum();
        assert_eq!(total, points.len(), "clusters must partition");
        let mats = cc.cluster_restrictions(&clusters);
        let d = cc.to_dense();
        for (cl, m) in clusters.iter().zip(&mats) {
            for (pi, &i) in cl.iter().enumerate() {
                for (pj, &j) in cl.iter().enumerate() {
                    assert!(
                        (m[(pi, pj)] - d[(i, j)]).abs() <= 1e-12 * d[(i, j)].abs().max(1.0),
                        "cluster entry ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn generator_errors_surface() {
        let points = grid(8, 4);
        let spec = CompressionSpec {
            leaf_size: 4,
            ..CompressionSpec::default()
        };
        let err = CompressedColumns::build(&points, &spec, 8, &mut |_| {
            Err(AssembleBemError::NumericalBreakdown("boom".into()))
        })
        .unwrap_err();
        assert!(matches!(err, AssembleBemError::NumericalBreakdown(m) if m == "boom"));
        // Mis-shaped panels are rejected loudly.
        let err = CompressedColumns::build(&points, &spec, 8, &mut |cols| {
            Ok(vec![vec![0.0; 3]; cols.len()])
        })
        .unwrap_err();
        assert!(matches!(err, AssembleBemError::NumericalBreakdown(_)));
    }

    #[test]
    fn empty_operator_builds() {
        let cc =
            CompressedColumns::build(&[], &CompressionSpec::default(), 8, &mut |_| Ok(Vec::new()))
                .unwrap();
        assert!(cc.is_empty());
        assert_eq!(cc.matvec(&[]), Vec::<f64>::new());
    }
}
