//! Kron (Schur-complement) reduction of nodal matrices.
//!
//! Eliminating internal nodes with no external injection from a nodal
//! system `M·V = J` leaves the Schur complement
//!
//! ```text
//! M_red = M_kk − M_ke · M_ee⁻¹ · M_ek
//! ```
//!
//! on the kept nodes. Applied to the reluctance `B` and the DC
//! conductance `G`, this is how the paper's N-node macromodels are
//! produced from the full BEM cell grid. Extraction reduces both without
//! forming a dense eliminated block (`B` through the kept nodes, `G`
//! through a banded factor, in [`crate::circuit`]); [`kron_reduce`] is the
//! dense form, which the sharded composition applies to its interface
//! nodes.

use pdn_num::{LuDecomposition, Matrix, SolveMatrixError};

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
}

/// Smallest pivot magnitude of the eliminated block's LU factor,
/// relative to the block's largest entry, that [`kron_reduce`] accepts.
/// A numerically singular block (a floating island) leaves its last
/// pivot at round-off, `1.4e-16` of that entry for the island of
/// `floating_island_is_singular`; the sharded composition's interface
/// blocks keep every pivot above `0.15` of it in `tests/shard_equivalence.rs`.
const MIN_RELATIVE_PIVOT: f64 = 1e-10;

/// Reduces a symmetric nodal matrix onto the `keep` node set.
///
/// `keep` must be strictly increasing and in range; eliminated nodes are
/// everything else. The eliminated block is factored by a dense LU.
///
/// # Errors
///
/// Returns [`SolveMatrixError::Singular`] when the eliminated block is
/// numerically singular — a pivot at or below `1e-10` of its largest
/// entry, typically a floating island with no retained node.
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
    let m_kk = m.submatrix(keep, keep);
    let elim = Partition::new(n, keep.to_vec()).elim;
    if elim.is_empty() {
        return Ok(m_kk);
    }
    let m_ee = m.submatrix(&elim, &elim);
    let floor = MIN_RELATIVE_PIVOT * m_ee.max_abs();
    let lu = LuDecomposition::new(m_ee)?;
    if let Some(column) = lu.pivots().iter().position(|p| p.abs() <= floor) {
        return Err(SolveMatrixError::Singular { column });
    }
    let x = lu.solve_matrix(&m.submatrix(&elim, keep))?; // M_ee⁻¹ M_ek
    Ok(&m_kk - &m.submatrix(keep, &elim).matmul(&x))
}

/// Restores exact symmetry deterministically: each off-diagonal pair of
/// the square matrix `m` becomes its mean. Column-by-column solves leave
/// an asymmetry in the reduced `B`, `G` and `C` — at the CG tolerance
/// for iterative ones, at round-off for banded ones — although each is
/// symmetric by construction.
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
        // A kept chain 0–1 and a floating island 2–3–4. With conductances
        // 0.1 and 0.3 the island's last pivot is round-off, not zero; an
        // absolute pivot floor accepts it and returns noise.
        for (g1, g2) in [(1.0, 1.0), (0.1, 0.7), (0.3, 0.7), (0.1, 0.3)] {
            let mut m = Matrix::zeros(5, 5);
            for (a, b, g) in [(0usize, 1usize, 1.0), (2, 3, g1), (3, 4, g2)] {
                m[(a, a)] += g;
                m[(b, b)] += g;
                m[(a, b)] -= g;
                m[(b, a)] -= g;
            }
            assert!(
                matches!(
                    kron_reduce(&m, &[0, 1]),
                    Err(SolveMatrixError::Singular { .. })
                ),
                "island ({g1}, {g2})"
            );
        }
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
}
