//! Kron (Schur-complement) reduction of nodal matrices.
//!
//! Eliminating internal nodes with no external injection from a nodal
//! system `M·V = J` leaves the Schur complement
//!
//! ```text
//! M_red = M_kk − M_ke · M_ee⁻¹ · M_ek
//! ```
//!
//! on the kept nodes. Applied separately to the reluctance `B`, the DC
//! conductance `G`, and the capacitance `C`, this is how the paper's
//! N-node macromodels are produced from the full BEM cell grid. (For `C`
//! the Schur complement corresponds exactly to leaving the eliminated
//! cells floating: it equals the inverse of the kept-block of the
//! potential-coefficient matrix.)

use pdn_num::cg::{solve_spd_block, IterativeSolveError};
use pdn_num::{LuDecomposition, Matrix, Preconditioner, SolveMatrixError};

/// Where a node lands in a kept/eliminated split.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Slot {
    /// Position among the kept nodes.
    Kept(usize),
    /// Position among the eliminated nodes.
    Elim(usize),
}

/// The kept/eliminated split of `0..n` that a Kron reduction works over.
pub(crate) struct Partition {
    /// Kept nodes, ascending.
    pub(crate) keep: Vec<usize>,
    /// Eliminated nodes, ascending.
    pub(crate) elim: Vec<usize>,
    /// Each node's block and position in it.
    pub(crate) slot: Vec<Slot>,
}

impl Partition {
    /// Splits `0..n` into the strictly increasing, in-range `keep` and
    /// the rest.
    pub(crate) fn new(n: usize, keep: Vec<usize>) -> Self {
        let mut slot = vec![Slot::Elim(0); n];
        for (p, &node) in keep.iter().enumerate() {
            slot[node] = Slot::Kept(p);
        }
        let mut elim = Vec::with_capacity(n - keep.len());
        for (node, s) in slot.iter_mut().enumerate() {
            if let Slot::Elim(p) = s {
                *p = elim.len();
                elim.push(node);
            }
        }
        Partition { keep, elim, slot }
    }

    /// The kept position of `node`, if it is kept.
    pub(crate) fn kept(&self, node: usize) -> Option<usize> {
        match self.slot[node] {
            Slot::Kept(p) => Some(p),
            Slot::Elim(_) => None,
        }
    }
}

/// Reduces a symmetric nodal matrix onto the `keep` node set.
///
/// `keep` must be strictly increasing and in range; eliminated nodes are
/// everything else.
///
/// # Errors
///
/// Returns an error when the eliminated block is singular — typically a
/// floating island with no retained node.
///
/// # Panics
///
/// Panics if `m` is not square or `keep` is not strictly increasing and in
/// range.
///
/// # Examples
///
/// Eliminating the middle node of two series conductances `g1`, `g2`
/// leaves their series combination:
///
/// ```
/// use pdn_num::Matrix;
///
/// # fn main() -> Result<(), pdn_num::SolveMatrixError> {
/// let (g1, g2) = (2.0, 3.0);
/// // Nodes: 0 — g1 — 1 — g2 — 2 (Laplacian form).
/// let m = Matrix::from_rows(&[
///     &[g1, -g1, 0.0],
///     &[-g1, g1 + g2, -g2],
///     &[0.0, -g2, g2],
/// ]);
/// let r = pdn_extract::kron_reduce(&m, &[0, 2])?;
/// let series = g1 * g2 / (g1 + g2);
/// assert!((r[(0, 1)] + series).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn kron_reduce(m: &Matrix<f64>, keep: &[usize]) -> Result<Matrix<f64>, SolveMatrixError> {
    assert!(m.is_square(), "kron_reduce requires a square matrix");
    let n = m.nrows();
    for w in keep.windows(2) {
        assert!(w[0] < w[1], "keep indices must be strictly increasing");
    }
    if let Some(&last) = keep.last() {
        assert!(last < n, "keep index out of range");
    }
    let elim = Partition::new(n, keep.to_vec()).elim;
    schur(
        &m.submatrix(keep, keep),
        &m.submatrix(keep, &elim),
        &m.submatrix(&elim, keep),
        m.submatrix(&elim, &elim),
    )
}

/// [`kron_reduce`] from pre-extracted blocks of a symmetric matrix:
/// returns `M_kk − M_ke · M_ee⁻¹ · M_keᵀ`.
///
/// This is the reduction path for compressed extraction, where the full
/// matrix is never materialized — its kept/eliminated blocks are
/// assembled directly (iteratively) and handed here. `m_ee` is consumed
/// by the factorization, so the eliminated block (the largest of the
/// three) is not duplicated. Symmetry of the underlying matrix is
/// assumed: the `(elim, keep)` block is taken as `M_keᵀ`.
///
/// # Errors
///
/// Returns an error when the eliminated block is singular.
///
/// # Panics
///
/// Panics on inconsistent block dimensions.
pub fn kron_reduce_blocks(
    m_kk: &Matrix<f64>,
    m_ke: &Matrix<f64>,
    m_ee: Matrix<f64>,
) -> Result<Matrix<f64>, SolveMatrixError> {
    assert!(m_kk.is_square(), "kept block must be square");
    assert!(m_ee.is_square(), "eliminated block must be square");
    assert_eq!(m_ke.nrows(), m_kk.nrows(), "coupling block row count");
    assert_eq!(m_ke.ncols(), m_ee.nrows(), "coupling block column count");
    schur(m_kk, m_ke, &m_ke.transpose(), m_ee)
}

/// The dense Schur complement `M_kk − M_ke · M_ee⁻¹ · M_ek` from all four
/// blocks, by an LU factorization of `M_ee` (consumed). With no
/// eliminated rows it is `M_kk`.
pub(crate) fn schur(
    m_kk: &Matrix<f64>,
    m_ke: &Matrix<f64>,
    m_ek: &Matrix<f64>,
    m_ee: Matrix<f64>,
) -> Result<Matrix<f64>, SolveMatrixError> {
    if m_ee.nrows() == 0 {
        return Ok(m_kk.clone());
    }
    let lu = LuDecomposition::new(m_ee)?;
    let x = lu.solve_matrix(m_ek)?; // M_ee⁻¹ M_ek
    Ok(m_kk - &m_ke.matmul(&x))
}

/// Restores exact symmetry deterministically: each off-diagonal pair of
/// the square matrix `m` becomes its mean. Iterative solves leave an
/// asymmetry at their tolerance, and the Schur steps assume symmetry.
pub(crate) fn symmetrize(m: &mut Matrix<f64>) {
    let n = m.nrows();
    for i in 0..n {
        for j in (i + 1)..n {
            let v = 0.5 * (m[(i, j)] + m[(j, i)]);
            m[(i, j)] = v;
            m[(j, i)] = v;
        }
    }
}

/// [`kron_reduce_blocks`] with the eliminated block in operator form:
/// returns `M_kk − M_ke · M_ee⁻¹ · M_keᵀ` without ever factoring (or even
/// materializing) `M_ee`.
///
/// `apply_ee` applies the SPD eliminated block to a panel of columns and
/// `pc` preconditions the inner block-CG solve (see
/// [`pdn_num::cg::solve_spd_block`]). The `k` right-hand sides `M_keᵀ`
/// are solved in panels of `panel` columns, serially in ascending column
/// order, so the result is bit-identical for any thread count as long as
/// `apply_ee` and `pc` are.
///
/// This is the reduction path for block-iterative compressed extraction,
/// where `M_ee` is held as a certified low-rank column compression and a
/// dense `e²` factorization would dominate the working set.
///
/// # Errors
///
/// Returns the inner solver's error when block CG fails to converge or
/// breaks down — typically a floating island with no retained node.
///
/// # Panics
///
/// Panics on inconsistent block dimensions or `panel == 0`.
#[allow(clippy::type_complexity)]
pub fn kron_reduce_operator(
    m_kk: &Matrix<f64>,
    m_ke: &Matrix<f64>,
    apply_ee: &(dyn Fn(&[Vec<f64>]) -> Vec<Vec<f64>> + Sync),
    pc: &dyn Preconditioner,
    panel: usize,
    tol: f64,
    max_iter: usize,
) -> Result<Matrix<f64>, IterativeSolveError> {
    assert!(m_kk.is_square(), "kept block must be square");
    assert!(panel > 0, "panel width must be positive");
    let k = m_kk.nrows();
    let e = m_ke.ncols();
    assert_eq!(m_ke.nrows(), k, "coupling block row count");
    assert_eq!(pc.len(), e, "preconditioner dimension");
    if e == 0 {
        return Ok(m_kk.clone());
    }
    let mut reduced = m_kk.clone();
    let cols: Vec<usize> = (0..k).collect();
    for chunk in cols.chunks(panel) {
        // Panel of right-hand sides: columns of M_keᵀ (rows of M_ke).
        let rhs: Vec<Vec<f64>> = chunk.iter().map(|&j| m_ke.row(j).to_vec()).collect();
        let ys = solve_spd_block(e, apply_ee, pc, &rhs, tol, max_iter)?;
        for (t, y) in ys.iter().enumerate() {
            let j = chunk[t];
            for i in 0..k {
                let mut acc = 0.0;
                for (q, &yq) in y.iter().enumerate() {
                    acc += m_ke[(i, q)] * yq;
                }
                reduced[(i, j)] -= acc;
            }
        }
    }
    // The inner solves are only accurate to `tol`.
    symmetrize(&mut reduced);
    Ok(reduced)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdn_num::approx_eq;

    /// Laplacian of a chain of unit conductances with `n` nodes.
    fn chain_laplacian(n: usize, g: f64) -> Matrix<f64> {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n - 1 {
            m[(i, i)] += g;
            m[(i + 1, i + 1)] += g;
            m[(i, i + 1)] -= g;
            m[(i + 1, i)] -= g;
        }
        m
    }

    #[test]
    fn chain_reduces_to_single_branch() {
        // 5 nodes, unit conductances: end-to-end = 1/4.
        let m = chain_laplacian(5, 1.0);
        let r = kron_reduce(&m, &[0, 4]).unwrap();
        assert!(approx_eq(r[(0, 1)], -0.25, 1e-12));
        assert!(approx_eq(r[(0, 0)], 0.25, 1e-12));
        // Row sums still vanish (no connection to ground).
        assert!((r[(0, 0)] + r[(0, 1)]).abs() < 1e-12);
    }

    #[test]
    fn keep_all_is_identity_operation() {
        let m = chain_laplacian(4, 2.0);
        let r = kron_reduce(&m, &[0, 1, 2, 3]).unwrap();
        assert_eq!(r, m);
    }

    #[test]
    fn reduction_preserves_symmetry() {
        let mut m = chain_laplacian(6, 1.0);
        // Add some cross branches and grounding.
        m[(0, 3)] -= 0.5;
        m[(3, 0)] -= 0.5;
        m[(0, 0)] += 0.5;
        m[(3, 3)] += 0.5;
        m[(2, 2)] += 0.1; // shunt to ground at node 2
        let r = kron_reduce(&m, &[0, 5]).unwrap();
        assert!(r.symmetry_defect() < 1e-12);
    }

    #[test]
    fn grounded_network_keeps_ground_coupling() {
        // Node 1 has a shunt to ground; reducing it onto node 0 must leave
        // a positive diagonal (path to ground survives).
        let mut m = chain_laplacian(2, 1.0);
        m[(1, 1)] += 3.0;
        let r = kron_reduce(&m, &[0]).unwrap();
        // Series 1 Ω and 1/3 Ω to ground: g = 1·3/(1+3) = 0.75.
        assert!(approx_eq(r[(0, 0)], 0.75, 1e-12));
    }

    #[test]
    fn floating_island_is_singular() {
        // Two disconnected chains; keep only nodes of the first: the
        // second chain's block is a floating Laplacian — singular.
        let mut m = Matrix::zeros(4, 4);
        for (a, b) in [(0usize, 1usize), (2, 3)] {
            m[(a, a)] += 1.0;
            m[(b, b)] += 1.0;
            m[(a, b)] -= 1.0;
            m[(b, a)] -= 1.0;
        }
        assert!(kron_reduce(&m, &[0, 1]).is_err());
    }

    #[test]
    fn schur_equals_inverse_of_kept_block_inverse() {
        // For SPD M: Schur(M, keep) = (M⁻¹[keep,keep])⁻¹.
        let m = {
            let base = Matrix::from_fn(5, 5, |i, j| 1.0 / (1.0 + (i as f64 - j as f64).abs()));
            let mut s = base.transpose().matmul(&base);
            for i in 0..5 {
                s[(i, i)] += 1.0;
            }
            s
        };
        let keep = [1usize, 3];
        let red = kron_reduce(&m, &keep).unwrap();
        let m_inv = pdn_num::lu::invert(m).unwrap();
        let block = m_inv.submatrix(&keep, &keep);
        let back = pdn_num::lu::invert(block).unwrap();
        for i in 0..2 {
            for j in 0..2 {
                assert!(approx_eq(red[(i, j)], back[(i, j)], 1e-9));
            }
        }
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_keep_panics() {
        let m = chain_laplacian(3, 1.0);
        let _ = kron_reduce(&m, &[2, 0]);
    }

    #[test]
    fn blocks_form_matches_full_reduction() {
        let mut m = chain_laplacian(6, 1.0);
        m[(0, 4)] -= 0.5;
        m[(4, 0)] -= 0.5;
        m[(0, 0)] += 0.5;
        m[(4, 4)] += 0.5;
        m[(3, 3)] += 0.2;
        let keep = [0usize, 2, 5];
        let elim = [1usize, 3, 4];
        let full = kron_reduce(&m, &keep).unwrap();
        let blocks = kron_reduce_blocks(
            &m.submatrix(&keep, &keep),
            &m.submatrix(&keep, &elim),
            m.submatrix(&elim, &elim),
        )
        .unwrap();
        // Same block extraction, same factorization: bit-identical.
        assert_eq!(full, blocks);
    }

    #[test]
    fn blocks_form_with_empty_elimination_is_kept_block() {
        let m = chain_laplacian(3, 1.0);
        let r = kron_reduce_blocks(&m, &Matrix::zeros(3, 0), Matrix::zeros(0, 0)).unwrap();
        assert_eq!(r, m);
    }

    #[test]
    fn operator_form_matches_direct_reduction() {
        use pdn_num::JacobiPreconditioner;
        // Grounded mesh so the eliminated block is SPD.
        let mut m = chain_laplacian(8, 1.0);
        for i in 0..8 {
            m[(i, i)] += 0.3;
        }
        m[(1, 6)] -= 0.4;
        m[(6, 1)] -= 0.4;
        m[(1, 1)] += 0.4;
        m[(6, 6)] += 0.4;
        let keep = [0usize, 3, 7];
        let elim = [1usize, 2, 4, 5, 6];
        let direct = kron_reduce(&m, &keep).unwrap();
        let m_ee = m.submatrix(&elim, &elim);
        let diag: Vec<f64> = (0..elim.len()).map(|i| m_ee[(i, i)]).collect();
        let pc = JacobiPreconditioner::new(&diag).unwrap();
        let apply = |cols: &[Vec<f64>]| -> Vec<Vec<f64>> {
            cols.iter()
                .map(|c| m_ee.matvec(c).as_slice().to_vec())
                .collect()
        };
        // Panel narrower than the kept count exercises the chunking.
        let it = kron_reduce_operator(
            &m.submatrix(&keep, &keep),
            &m.submatrix(&keep, &elim),
            &apply,
            &pc,
            2,
            1e-13,
            500,
        )
        .unwrap();
        for i in 0..keep.len() {
            for j in 0..keep.len() {
                assert!(approx_eq(it[(i, j)], direct[(i, j)], 1e-9));
            }
        }
        assert!(it.symmetry_defect() == 0.0);
    }

    #[test]
    fn operator_form_with_empty_elimination_is_kept_block() {
        use pdn_num::JacobiPreconditioner;
        let m = chain_laplacian(3, 1.0);
        let pc = JacobiPreconditioner::new(&[]).unwrap();
        let apply = |_: &[Vec<f64>]| -> Vec<Vec<f64>> { Vec::new() };
        let r = kron_reduce_operator(&m, &Matrix::zeros(3, 0), &apply, &pc, 4, 1e-12, 10).unwrap();
        assert_eq!(r, m);
    }

    #[test]
    fn operator_form_surfaces_nonconvergence() {
        use pdn_num::JacobiPreconditioner;
        // Floating eliminated Laplacian block is singular: CG cannot
        // converge and the error must say so rather than return garbage.
        let m_ee = chain_laplacian(4, 1.0);
        let diag: Vec<f64> = (0..4).map(|i| m_ee[(i, i)]).collect();
        let pc = JacobiPreconditioner::new(&diag).unwrap();
        let apply = |cols: &[Vec<f64>]| -> Vec<Vec<f64>> {
            cols.iter()
                .map(|c| m_ee.matvec(c).as_slice().to_vec())
                .collect()
        };
        let m_kk = Matrix::from_rows(&[&[1.0]]);
        let mut m_ke = Matrix::zeros(1, 4);
        m_ke[(0, 0)] = 1.0;
        let err = kron_reduce_operator(&m_kk, &m_ke, &apply, &pc, 4, 1e-12, 200).unwrap_err();
        match err {
            IterativeSolveError::NotConverged { .. } | IterativeSolveError::Breakdown { .. } => {}
            other => panic!("unexpected error: {other:?}"),
        }
    }
}
