//! Blocked LU factorization with partial pivoting.
//!
//! This is the single direct solver behind the whole toolkit: the BEM port
//! solve, the capacitance inversion `C = P⁻¹`, the reluctance computation
//! `B = AᵀL⁻¹A`, the MNA transient step (factor once, back-substitute every
//! step — the paper's "efficient circuit solver"), and the AC sweep.
//!
//! The factorization is right-looking and blocked: each [`gemm::BLOCK`]-wide
//! panel is factored with partial pivoting by the classical scalar
//! recurrence, the matching `U` row block is obtained by a lane-group
//! triangular solve, and the trailing matrix is updated through the
//! cache-tiled [`gemm`] microkernel — fanned out over
//! [`parallel`] row tiles when the update is large enough
//! to pay for the threads. Tile and block sizes are fixed constants, never
//! derived from the worker count, so factors and solves are **bit-identical
//! for any `PDN_THREADS`**. For matrices up to one block (`n ≤ 64`) the
//! blocked loop degenerates to exactly the scalar elimination, so small
//! systems (ports, MNA stamps, transmission lines) keep their historical
//! bit patterns.

use crate::gemm::{self, GemmScalar, BLOCK, ROW_TILE};
use crate::{parallel, Matrix, Vector};
use std::error::Error;
use std::fmt;

/// Minimum multiply-accumulate count before a trailing update is fanned
/// out over worker threads; below this the spawn cost dominates. The
/// serial and parallel paths compute identical tiles in either case.
const PAR_MIN_MACS: usize = 1 << 18;

/// Error returned when a matrix cannot be factored or a solve is malformed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveMatrixError {
    /// The matrix is not square.
    NotSquare {
        /// Row count of the offending matrix.
        rows: usize,
        /// Column count of the offending matrix.
        cols: usize,
    },
    /// A zero (or numerically negligible) pivot was encountered.
    Singular {
        /// Elimination column at which factorization broke down.
        column: usize,
    },
    /// The right-hand side length does not match the system dimension.
    DimensionMismatch {
        /// System dimension.
        expected: usize,
        /// Provided right-hand-side length.
        got: usize,
    },
    /// The input matrix contains a NaN or infinite entry. Rejected up
    /// front: a NaN entry would otherwise poison the elimination and
    /// surface as a misleading [`Singular`](Self::Singular) error.
    NonFinite {
        /// Row of the first non-finite entry (row-major scan order).
        row: usize,
        /// Column of the first non-finite entry.
        col: usize,
    },
}

impl fmt::Display for SolveMatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveMatrixError::NotSquare { rows, cols } => {
                write!(f, "matrix is not square ({rows}x{cols})")
            }
            SolveMatrixError::Singular { column } => {
                write!(f, "matrix is singular at elimination column {column}")
            }
            SolveMatrixError::DimensionMismatch { expected, got } => {
                write!(f, "right-hand side has length {got}, expected {expected}")
            }
            SolveMatrixError::NonFinite { row, col } => {
                write!(
                    f,
                    "matrix entry ({row},{col}) is NaN or infinite; cannot factor"
                )
            }
        }
    }
}

impl Error for SolveMatrixError {}

/// An LU factorization `P·A = L·U` with partial (row) pivoting.
///
/// The factorization is performed once; [`solve`](Self::solve) then costs
/// only a pair of triangular substitutions. This is exactly the structure the
/// paper exploits for uniform-time-step transient simulation.
///
/// # Examples
///
/// ```
/// use pdn_num::{LuDecomposition, Matrix};
///
/// # fn main() -> Result<(), pdn_num::SolveMatrixError> {
/// let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
/// let lu = LuDecomposition::new(a)?;
/// let x = lu.solve(&[3.0, 5.0])?;
/// assert!((x[0] - 0.8).abs() < 1e-12);
/// assert!((x[1] - 1.4).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct LuDecomposition<T> {
    lu: Matrix<T>,
    perm: Vec<usize>,
    sign: f64,
}

impl<T: GemmScalar> fmt::Debug for LuDecomposition<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LuDecomposition")
            .field("dim", &self.lu.nrows())
            .field("sign", &self.sign)
            .finish()
    }
}

impl<T: GemmScalar> LuDecomposition<T> {
    /// Factors the matrix, consuming it.
    ///
    /// # Errors
    ///
    /// Returns [`SolveMatrixError::NotSquare`] for non-square input,
    /// [`SolveMatrixError::NonFinite`] when any entry is NaN or infinite,
    /// and [`SolveMatrixError::Singular`] when a pivot underflows the
    /// numerical threshold.
    pub fn new(a: Matrix<T>) -> Result<Self, SolveMatrixError> {
        if !a.is_square() {
            return Err(SolveMatrixError::NotSquare {
                rows: a.nrows(),
                cols: a.ncols(),
            });
        }
        let n = a.nrows();
        if let Some(idx) = a.as_slice().iter().position(|v| !v.is_finite()) {
            return Err(SolveMatrixError::NonFinite {
                row: idx / n,
                col: idx % n,
            });
        }
        let mut lu = a;
        let mut perm: Vec<usize> = (0..n).collect();
        let mut sign = 1.0;
        let scale = lu.max_abs().max(1.0);
        let tiny = scale * 1e-300;

        let mut k0 = 0;
        while k0 < n {
            let k1 = (k0 + BLOCK).min(n);
            let kb = k1 - k0;

            // --- Panel factorization: columns k0..k1, rows k0..n ---------
            // Classical partial-pivot elimination restricted to the panel
            // columns; pivot columns are fully updated because every
            // previous panel already applied its trailing update here.
            {
                let data = lu.as_mut_slice();
                for j in k0..k1 {
                    let mut p = j;
                    let mut pmax = data[j * n + j].abs();
                    for i in (j + 1)..n {
                        let v = data[i * n + j].abs();
                        if v > pmax {
                            pmax = v;
                            p = i;
                        }
                    }
                    if pmax <= tiny {
                        return Err(SolveMatrixError::Singular { column: j });
                    }
                    if p != j {
                        perm.swap(p, j);
                        sign = -sign;
                        let (lo, hi) = data.split_at_mut(p * n);
                        lo[j * n..j * n + n].swap_with_slice(&mut hi[..n]);
                    }
                    let pivot = data[j * n + j];
                    // Rank-1 update of the panel columns: split the pivot
                    // row off so the `U` row and the target rows can be
                    // borrowed together, then hand the whole sweep to the
                    // lane-group panel kernel. Same arithmetic, same order
                    // as the classical loop.
                    let (top, rest) = data.split_at_mut((j + 1) * n);
                    let urow = &top[j * n + j + 1..j * n + k1];
                    T::panel_rank1(rest, n, j, k1, pivot, urow);
                }
            }

            if k1 < n {
                let nc = n - k1;
                let nr = n - k1;
                let data = lu.as_mut_slice();
                let (top, bottom) = data.split_at_mut(k1 * n);

                // --- U12 := L11⁻¹ · A12 -----------------------------------
                let mut l11 = vec![T::zero(); kb * kb];
                for r in 0..kb {
                    l11[r * kb..(r + 1) * kb]
                        .copy_from_slice(&top[(k0 + r) * n + k0..(k0 + r) * n + k1]);
                }
                gemm::trsm_lower_unit(&l11, kb, &mut top[k0 * n + k1..], n, nc);

                // --- Trailing update A22 -= L21 · U12 ---------------------
                // Pack L21 contiguously before C is mutated (the multiplier
                // columns live in the same rows as the update target).
                let mut l21 = Vec::with_capacity(nr * kb);
                for r in 0..nr {
                    l21.extend_from_slice(&bottom[r * n + k0..r * n + k0 + kb]);
                }
                let u12 = &top[k0 * n + k1..];
                let tile = |ci: usize, chunk: &mut [T]| {
                    let rows = chunk.len() / n;
                    T::gemm_sub(
                        &mut chunk[k1..],
                        n,
                        rows,
                        nc,
                        &l21[ci * ROW_TILE * kb..],
                        kb,
                        u12,
                        n,
                        kb,
                    );
                };
                if nr * nc * kb >= PAR_MIN_MACS {
                    parallel::par_for_each_chunk_mut(bottom, ROW_TILE * n, tile);
                } else {
                    for (ci, chunk) in bottom.chunks_mut(ROW_TILE * n).enumerate() {
                        tile(ci, chunk);
                    }
                }
            }
            k0 = k1;
        }
        Ok(LuDecomposition { lu, perm, sign })
    }

    /// System dimension.
    pub fn dim(&self) -> usize {
        self.lu.nrows()
    }

    /// Solves `A·x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`SolveMatrixError::DimensionMismatch`] when `b` has the wrong
    /// length.
    pub fn solve(&self, b: &[T]) -> Result<Vector<T>, SolveMatrixError> {
        let n = self.dim();
        if b.len() != n {
            return Err(SolveMatrixError::DimensionMismatch {
                expected: n,
                got: b.len(),
            });
        }
        // Apply permutation, then forward and backward substitution.
        let mut x: Vector<T> = self.perm.iter().map(|&p| b[p]).collect();
        for i in 1..n {
            let mut s = x[i];
            for (j, &xj) in x.iter().enumerate().take(i) {
                s -= self.lu[(i, j)] * xj;
            }
            x[i] = s;
        }
        for i in (0..n).rev() {
            let mut s = x[i];
            for (j, &xj) in x.iter().enumerate().skip(i + 1) {
                s -= self.lu[(i, j)] * xj;
            }
            x[i] = s / self.lu[(i, i)];
        }
        Ok(x)
    }

    /// Solves `A·X = B` for a matrix right-hand side with blocked
    /// multi-column forward/backward substitution: the permuted right-hand
    /// sides are solved in place through lane-group triangular kernels and
    /// [`gemm`] off-diagonal updates — no per-column allocation or
    /// per-column passes over `L`/`U`.
    ///
    /// # Errors
    ///
    /// Returns [`SolveMatrixError::DimensionMismatch`] when `b.nrows()` does
    /// not equal the system dimension.
    pub fn solve_matrix(&self, b: &Matrix<T>) -> Result<Matrix<T>, SolveMatrixError> {
        let n = self.dim();
        if b.nrows() != n {
            return Err(SolveMatrixError::DimensionMismatch {
                expected: n,
                got: b.nrows(),
            });
        }
        let nrhs = b.ncols();
        if n == 0 || nrhs == 0 {
            return Ok(Matrix::zeros(n, nrhs));
        }
        let mut x = Matrix::zeros(n, nrhs);
        for i in 0..n {
            x.row_mut(i).copy_from_slice(b.row(self.perm[i]));
        }
        let lu = self.lu.as_slice();
        let xd = x.as_mut_slice();
        let n_blocks = n.div_ceil(BLOCK);

        // --- Forward: L (unit lower) ------------------------------------
        for bi in 0..n_blocks {
            let k0 = bi * BLOCK;
            let k1 = (k0 + BLOCK).min(n);
            let kb = k1 - k0;
            let mut l11 = vec![T::zero(); kb * kb];
            for r in 0..kb {
                l11[r * kb..(r + 1) * kb]
                    .copy_from_slice(&lu[(k0 + r) * n + k0..(k0 + r) * n + k1]);
            }
            gemm::trsm_lower_unit(&l11, kb, &mut xd[k0 * nrhs..k1 * nrhs], nrhs, nrhs);
            if k1 < n {
                let (head, tail) = xd.split_at_mut(k1 * nrhs);
                let bmat = &head[k0 * nrhs..];
                let tile = |ci: usize, chunk: &mut [T]| {
                    let rows = chunk.len() / nrhs;
                    let a = &lu[(k1 + ci * ROW_TILE) * n + k0..];
                    T::gemm_sub(chunk, nrhs, rows, nrhs, a, n, bmat, nrhs, kb);
                };
                if (n - k1) * nrhs * kb >= PAR_MIN_MACS {
                    parallel::par_for_each_chunk_mut(tail, ROW_TILE * nrhs, tile);
                } else {
                    for (ci, chunk) in tail.chunks_mut(ROW_TILE * nrhs).enumerate() {
                        tile(ci, chunk);
                    }
                }
            }
        }

        // --- Backward: U (non-unit upper) -------------------------------
        for bi in (0..n_blocks).rev() {
            let k0 = bi * BLOCK;
            let k1 = (k0 + BLOCK).min(n);
            let kb = k1 - k0;
            let mut u11 = vec![T::zero(); kb * kb];
            for r in 0..kb {
                u11[r * kb + r..(r + 1) * kb]
                    .copy_from_slice(&lu[(k0 + r) * n + k0 + r..(k0 + r) * n + k1]);
            }
            gemm::trsm_upper(&u11, kb, &mut xd[k0 * nrhs..k1 * nrhs], nrhs, nrhs);
            if k0 > 0 {
                let (head, tail) = xd.split_at_mut(k0 * nrhs);
                let bmat = &tail[..kb * nrhs];
                let tile = |ci: usize, chunk: &mut [T]| {
                    let rows = chunk.len() / nrhs;
                    let a = &lu[ci * ROW_TILE * n + k0..];
                    T::gemm_sub(chunk, nrhs, rows, nrhs, a, n, bmat, nrhs, kb);
                };
                if k0 * nrhs * kb >= PAR_MIN_MACS {
                    parallel::par_for_each_chunk_mut(head, ROW_TILE * nrhs, tile);
                } else {
                    for (ci, chunk) in head.chunks_mut(ROW_TILE * nrhs).enumerate() {
                        tile(ci, chunk);
                    }
                }
            }
        }
        Ok(x)
    }

    /// Computes the matrix inverse.
    ///
    /// # Errors
    ///
    /// Propagates solve errors (cannot occur for a successfully factored
    /// system of matching dimension).
    pub fn inverse(&self) -> Result<Matrix<T>, SolveMatrixError> {
        self.solve_matrix(&Matrix::identity(self.dim()))
    }

    /// Determinant, as the product of pivots times the permutation sign.
    pub fn det(&self) -> T {
        let mut d = T::from_f64(self.sign);
        for i in 0..self.dim() {
            d *= self.lu[(i, i)];
        }
        d
    }
}

/// Convenience one-shot solve of `A·x = b`.
///
/// # Errors
///
/// See [`LuDecomposition::new`] and [`LuDecomposition::solve`].
///
/// # Examples
///
/// ```
/// use pdn_num::Matrix;
/// # fn main() -> Result<(), pdn_num::SolveMatrixError> {
/// let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, -1.0]]);
/// let x = pdn_num::lu::solve(a, &[3.0, 1.0])?;
/// assert!((x[0] - 2.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn solve<T: GemmScalar>(a: Matrix<T>, b: &[T]) -> Result<Vector<T>, SolveMatrixError> {
    LuDecomposition::new(a)?.solve(b)
}

/// Convenience inverse of a square matrix.
///
/// # Errors
///
/// See [`LuDecomposition::new`].
pub fn invert<T: GemmScalar>(a: Matrix<T>) -> Result<Matrix<T>, SolveMatrixError> {
    LuDecomposition::new(a)?.inverse()
}

/// Reference scalar LU kernel: the pre-blocking elimination, kept in-tree
/// for equivalence testing of the blocked factorization. Returns the
/// combined `L\U` matrix, the permutation, and the pivot sign.
#[cfg(test)]
pub(crate) fn factor_scalar_reference<T: crate::Scalar>(
    a: Matrix<T>,
) -> Result<(Matrix<T>, Vec<usize>, f64), SolveMatrixError> {
    if !a.is_square() {
        return Err(SolveMatrixError::NotSquare {
            rows: a.nrows(),
            cols: a.ncols(),
        });
    }
    let n = a.nrows();
    let mut lu = a;
    let mut perm: Vec<usize> = (0..n).collect();
    let mut sign = 1.0;
    let scale = lu.max_abs().max(1.0);
    let tiny = scale * 1e-300;
    for k in 0..n {
        let mut p = k;
        let mut pmax = lu[(k, k)].abs();
        for i in (k + 1)..n {
            let v = lu[(i, k)].abs();
            if v > pmax {
                pmax = v;
                p = i;
            }
        }
        if pmax <= tiny {
            return Err(SolveMatrixError::Singular { column: k });
        }
        if p != k {
            perm.swap(p, k);
            sign = -sign;
            for j in 0..n {
                let tmp = lu[(k, j)];
                lu[(k, j)] = lu[(p, j)];
                lu[(p, j)] = tmp;
            }
        }
        let pivot = lu[(k, k)];
        for i in (k + 1)..n {
            let m = lu[(i, k)] / pivot;
            lu[(i, k)] = m;
            if m == T::zero() {
                continue;
            }
            for j in (k + 1)..n {
                let u = lu[(k, j)];
                lu[(i, j)] -= m * u;
            }
        }
    }
    Ok((lu, perm, sign))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{approx_eq, c64, Scalar};
    use proptest::prelude::*;

    /// Solve with the reference scalar factors (perm + scalar forward/back
    /// substitution, exactly the pre-blocking algorithm).
    fn solve_scalar_reference<T: Scalar>(lu: &Matrix<T>, perm: &[usize], b: &[T]) -> Vec<T> {
        let n = perm.len();
        let mut x: Vec<T> = perm.iter().map(|&p| b[p]).collect();
        for i in 1..n {
            let mut s = x[i];
            for (j, &xj) in x.iter().enumerate().take(i) {
                s -= lu[(i, j)] * xj;
            }
            x[i] = s;
        }
        for i in (0..n).rev() {
            let mut s = x[i];
            for (j, &xj) in x.iter().enumerate().skip(i + 1) {
                s -= lu[(i, j)] * xj;
            }
            x[i] = s / lu[(i, i)];
        }
        x
    }

    fn rng_f64(state: &mut u64) -> f64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
    }

    #[test]
    fn solve_small_real_system() {
        let a = Matrix::from_rows(&[&[3.0, 2.0, -1.0], &[2.0, -2.0, 4.0], &[-1.0, 0.5, -1.0]]);
        let x = solve(a, &[1.0, -2.0, 0.0]).unwrap();
        assert!(approx_eq(x[0], 1.0, 1e-12));
        assert!(approx_eq(x[1], -2.0, 1e-12));
        assert!(approx_eq(x[2], -2.0, 1e-12));
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = solve(a, &[2.0, 3.0]).unwrap();
        assert_eq!(x, vec![3.0, 2.0]);
    }

    #[test]
    fn singular_matrix_reports_error() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        match LuDecomposition::new(a) {
            Err(SolveMatrixError::Singular { .. }) => {}
            other => panic!("expected Singular, got {other:?}"),
        }
    }

    #[test]
    fn not_square_reports_error() {
        let a = Matrix::<f64>::zeros(2, 3);
        assert_eq!(
            LuDecomposition::new(a).unwrap_err(),
            SolveMatrixError::NotSquare { rows: 2, cols: 3 }
        );
    }

    #[test]
    fn non_finite_entries_rejected_up_front() {
        let mut a = Matrix::<f64>::identity(5);
        a[(2, 3)] = f64::NAN;
        assert_eq!(
            LuDecomposition::new(a).unwrap_err(),
            SolveMatrixError::NonFinite { row: 2, col: 3 }
        );
        let mut b = Matrix::<f64>::identity(4);
        b[(0, 1)] = f64::INFINITY;
        assert_eq!(
            LuDecomposition::new(b).unwrap_err(),
            SolveMatrixError::NonFinite { row: 0, col: 1 }
        );
        let mut c = Matrix::<c64>::identity(3);
        c[(1, 0)] = c64::new(0.0, f64::NEG_INFINITY);
        assert_eq!(
            LuDecomposition::new(c).unwrap_err(),
            SolveMatrixError::NonFinite { row: 1, col: 0 }
        );
    }

    #[test]
    fn inverse_roundtrip() {
        let a = Matrix::from_fn(5, 5, |i, j| {
            if i == j {
                4.0
            } else {
                1.0 / (1.0 + (i as f64 - j as f64).abs())
            }
        });
        let inv = invert(a.clone()).unwrap();
        let id = a.matmul(&inv);
        for i in 0..5 {
            for j in 0..5 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!(approx_eq(id[(i, j)], expect, 1e-11), "({i},{j})");
            }
        }
    }

    #[test]
    fn determinant_of_triangular_and_permuted() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[0.0, 3.0]]);
        let lu = LuDecomposition::new(a).unwrap();
        assert!(approx_eq(lu.det(), 6.0, 1e-12));
        // Swapping rows flips the sign.
        let b = Matrix::from_rows(&[&[0.0, 3.0], &[2.0, 1.0]]);
        let lub = LuDecomposition::new(b).unwrap();
        assert!(approx_eq(lub.det(), -6.0, 1e-12));
    }

    #[test]
    fn complex_system() {
        // (1+i) x + y = 2 ; x - i y = 0  =>  x = i y.
        let a = Matrix::from_rows(&[
            &[c64::new(1.0, 1.0), c64::ONE],
            &[c64::ONE, c64::new(0.0, -1.0)],
        ]);
        let x = solve(a.clone(), &[c64::new(2.0, 0.0), c64::ZERO]).unwrap();
        let r0 = a[(0, 0)] * x[0] + a[(0, 1)] * x[1];
        assert!((r0 - c64::new(2.0, 0.0)).norm() < 1e-12);
        let r1 = a[(1, 0)] * x[0] + a[(1, 1)] * x[1];
        assert!(r1.norm() < 1e-12);
    }

    #[test]
    fn solve_matrix_right_hand_sides() {
        let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
        let lu = LuDecomposition::new(a.clone()).unwrap();
        let b = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let x = lu.solve_matrix(&b).unwrap();
        let back = a.matmul(&x);
        assert!(approx_eq(back[(0, 0)], 1.0, 1e-12));
        assert!(approx_eq(back[(0, 1)], 0.0, 1e-12));
    }

    #[test]
    fn dimension_mismatch_on_solve() {
        let lu = LuDecomposition::new(Matrix::<f64>::identity(3)).unwrap();
        assert_eq!(
            lu.solve(&[1.0, 2.0]).unwrap_err(),
            SolveMatrixError::DimensionMismatch {
                expected: 3,
                got: 2
            }
        );
    }

    #[test]
    fn random_system_residual_small() {
        // Deterministic pseudo-random fill (LCG) keeps the test hermetic.
        let mut state: u64 = 0x243F_6A88_85A3_08D3;
        let mut next = move || rng_f64(&mut state);
        let n = 30;
        let a = Matrix::from_fn(n, n, |i, j| next() + if i == j { 4.0 } else { 0.0 });
        let b: Vec<f64> = (0..n).map(|_| next()).collect();
        let x = solve(a.clone(), &b).unwrap();
        let r = a.matvec(&x);
        for i in 0..n {
            assert!(approx_eq(r[i], b[i], 1e-10));
        }
    }

    #[test]
    fn small_matrices_bit_identical_to_scalar_reference() {
        // Up to one block the panel loop degenerates to exactly the scalar
        // elimination — the factors must match bit for bit. This pins the
        // historical results of every small system in the toolkit.
        let mut state = 0xD1CEu64;
        for n in [1usize, 2, 7, 33, BLOCK] {
            let a = Matrix::from_fn(n, n, |i, j| {
                rng_f64(&mut state) + if i == j { 3.0 } else { 0.0 }
            });
            let blocked = LuDecomposition::new(a.clone()).unwrap();
            let (lu_ref, perm_ref, sign_ref) = factor_scalar_reference(a).unwrap();
            assert_eq!(blocked.perm, perm_ref, "n={n}");
            assert_eq!(blocked.sign, sign_ref, "n={n}");
            for i in 0..n {
                for j in 0..n {
                    assert_eq!(
                        blocked.lu[(i, j)].to_bits(),
                        lu_ref[(i, j)].to_bits(),
                        "n={n} ({i},{j})"
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Blocked factor + solve + inverse + det agree with the reference
        /// scalar kernel on random diagonally dominant real systems that
        /// span several panel widths.
        #[test]
        fn blocked_matches_scalar_reference_real(n in 65usize..180, seed in any::<u64>()) {
            let mut state = seed | 1;
            let a = Matrix::from_fn(n, n, |i, j| {
                rng_f64(&mut state) + if i == j { 6.0 } else { 0.0 }
            });
            let b: Vec<f64> = (0..n).map(|_| rng_f64(&mut state)).collect();
            let blocked = LuDecomposition::new(a.clone()).unwrap();
            let (lu_ref, perm_ref, sign_ref) = factor_scalar_reference(a.clone()).unwrap();
            // Same pivot sequence on well-separated pivots.
            prop_assert_eq!(&blocked.perm, &perm_ref);
            prop_assert_eq!(blocked.sign, sign_ref);
            // Solutions agree to a tight relative tolerance.
            let x_blk = blocked.solve(&b).unwrap();
            let x_ref = solve_scalar_reference(&lu_ref, &perm_ref, &b);
            for i in 0..n {
                prop_assert!(approx_eq(x_blk[i], x_ref[i], 1e-9), "x[{}]", i);
            }
            // Determinants agree (product of near-identical pivots).
            let mut det_ref = sign_ref;
            for i in 0..n {
                det_ref *= lu_ref[(i, i)];
            }
            prop_assert!(approx_eq(blocked.det(), det_ref, 1e-8));
            // The blocked multi-RHS inverse actually inverts.
            let inv = blocked.inverse().unwrap();
            let id = a.matmul(&inv);
            for i in 0..n {
                for j in 0..n {
                    let expect = if i == j { 1.0 } else { 0.0 };
                    prop_assert!((id[(i, j)] - expect).abs() < 1e-8, "({},{})", i, j);
                }
            }
        }

        /// Same equivalence for complex systems through the split re/im
        /// microkernel.
        #[test]
        fn blocked_matches_scalar_reference_complex(n in 65usize..150, seed in any::<u64>()) {
            let mut state = seed | 1;
            let a = Matrix::from_fn(n, n, |i, j| {
                let d = if i == j { 6.0 } else { 0.0 };
                c64::new(rng_f64(&mut state) + d, rng_f64(&mut state))
            });
            let b: Vec<c64> = (0..n)
                .map(|_| c64::new(rng_f64(&mut state), rng_f64(&mut state)))
                .collect();
            let blocked = LuDecomposition::new(a.clone()).unwrap();
            let (lu_ref, perm_ref, _) = factor_scalar_reference(a.clone()).unwrap();
            prop_assert_eq!(&blocked.perm, &perm_ref);
            let x_blk = blocked.solve(&b).unwrap();
            let x_ref = solve_scalar_reference(&lu_ref, &perm_ref, &b);
            for i in 0..n {
                let scale = x_ref[i].norm().max(1.0);
                prop_assert!((x_blk[i] - x_ref[i]).norm() < 1e-9 * scale, "x[{}]", i);
            }
            // Multi-RHS path: A · (A⁻¹ B) == B.
            let nrhs = 9;
            let bm = Matrix::from_fn(n, nrhs, |_, _| {
                c64::new(rng_f64(&mut state), rng_f64(&mut state))
            });
            let xm = blocked.solve_matrix(&bm).unwrap();
            let back = a.matmul(&xm);
            for i in 0..n {
                for j in 0..nrhs {
                    prop_assert!((back[(i, j)] - bm[(i, j)]).norm() < 1e-8, "({},{})", i, j);
                }
            }
        }

        /// Pivoting adversaries: exact-zero and tiny diagonals force row
        /// swaps inside and across panels; the blocked elimination must
        /// still agree with the reference.
        #[test]
        fn blocked_pivoting_matches_reference(n in 66usize..130, seed in any::<u64>()) {
            let mut state = seed | 1;
            let a = Matrix::from_fn(n, n, |i, j| {
                if i == j {
                    // Zero, tiny, or normal diagonal by position.
                    match i % 3 {
                        0 => 0.0,
                        1 => 1e-13 * rng_f64(&mut state),
                        _ => rng_f64(&mut state),
                    }
                } else if (i + n - j) % n == 1 {
                    // Strong subdiagonal keeps the matrix nonsingular and
                    // guarantees swaps.
                    5.0 + rng_f64(&mut state)
                } else {
                    0.25 * rng_f64(&mut state)
                }
            });
            let b: Vec<f64> = (0..n).map(|_| rng_f64(&mut state)).collect();
            let blocked = LuDecomposition::new(a.clone()).unwrap();
            let (lu_ref, perm_ref, _) = factor_scalar_reference(a.clone()).unwrap();
            prop_assert_eq!(&blocked.perm, &perm_ref);
            let x_blk = blocked.solve(&b).unwrap();
            let x_ref = solve_scalar_reference(&lu_ref, &perm_ref, &b);
            for i in 0..n {
                let scale = x_ref[i].abs().max(1.0);
                prop_assert!((x_blk[i] - x_ref[i]).abs() < 1e-7 * scale, "x[{}]", i);
            }
            // Residual check closes the loop on the blocked path alone.
            let r = a.matvec(&x_blk);
            for i in 0..n {
                prop_assert!((r[i] - b[i]).abs() < 1e-7, "r[{}]", i);
            }
        }
    }
}
