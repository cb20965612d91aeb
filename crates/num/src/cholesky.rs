//! Cholesky factorization of symmetric positive-definite real matrices.
//!
//! Capacitance and inductance matrices produced by the quasi-static BEM are
//! symmetric positive definite; Cholesky is both the cheapest solver for them
//! and a *validity check* — a failed factorization flags a non-physical
//! extraction. It also underpins the generalized symmetric-definite
//! eigensolver used for transmission-line modal analysis.

use crate::gemm::{GemmScalar, BLOCK, ROW_TILE};
use crate::{parallel, Matrix, SolveMatrixError, Vector};

/// Minimum multiply-accumulate count before a trailing update is fanned
/// out over worker threads (same rationale and value as the LU module).
const PAR_MIN_MACS: usize = 1 << 18;

/// A Cholesky factorization `A = L·Lᵀ` of a symmetric positive-definite
/// matrix.
///
/// # Examples
///
/// ```
/// use pdn_num::{CholeskyDecomposition, Matrix};
///
/// # fn main() -> Result<(), pdn_num::SolveMatrixError> {
/// let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
/// let ch = CholeskyDecomposition::new(&a)?;
/// let x = ch.solve(&[1.0, 1.0])?;
/// assert!((4.0 * x[0] + 2.0 * x[1] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CholeskyDecomposition {
    l: Matrix<f64>,
}

impl CholeskyDecomposition {
    /// Factors a symmetric positive-definite matrix.
    ///
    /// Only the lower triangle of `a` is read, so slight asymmetry from
    /// floating-point assembly noise is tolerated.
    ///
    /// The factorization is blocked like the LU: each [`BLOCK`]-wide panel
    /// is factored by the classical scalar recurrence (restricted to
    /// within-panel columns), and the trailing symmetric update
    /// `A₂₂ -= L₂₁·L₂₁ᵀ` goes through the cache-tiled [`crate::gemm`]
    /// microkernel, fanned over [`parallel`] row tiles when large enough
    /// to pay for the threads. Tile sizes are
    /// fixed constants, so the factor is bit-identical for any
    /// `PDN_THREADS`; matrices up to one block (`n ≤ 64`) reproduce the
    /// historical scalar arithmetic exactly.
    ///
    /// # Errors
    ///
    /// Returns [`SolveMatrixError::NotSquare`] for non-square input and
    /// [`SolveMatrixError::Singular`] when the matrix is not positive
    /// definite.
    pub fn new(a: &Matrix<f64>) -> Result<Self, SolveMatrixError> {
        if !a.is_square() {
            return Err(SolveMatrixError::NotSquare {
                rows: a.nrows(),
                cols: a.ncols(),
            });
        }
        let n = a.nrows();
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                l[(i, j)] = a[(i, j)];
            }
        }
        let data = l.as_mut_slice();
        let mut k0 = 0;
        while k0 < n {
            let k1 = (k0 + BLOCK).min(n);
            let kb = k1 - k0;
            // Panel: columns k0..k1, rows k0..n. Contributions from columns
            // before k0 were already applied by earlier trailing updates.
            for j in k0..k1 {
                let mut d = data[j * n + j];
                for k in k0..j {
                    d -= data[j * n + k] * data[j * n + k];
                }
                if d <= 0.0 || !d.is_finite() {
                    return Err(SolveMatrixError::Singular { column: j });
                }
                let djj = d.sqrt();
                data[j * n + j] = djj;
                for i in (j + 1)..n {
                    let mut s = data[i * n + j];
                    for k in k0..j {
                        s -= data[i * n + k] * data[j * n + k];
                    }
                    data[i * n + j] = s / djj;
                }
            }
            // Trailing symmetric update A22 -= L21·L21ᵀ through the GEMM
            // microkernel. The rectangular tiles also write the strictly
            // upper part of the trailing block; those entries are never
            // read by later panels and are zeroed below.
            if k1 < n {
                let nr = n - k1;
                let nc = n - k1;
                let mut l21 = Vec::with_capacity(nr * kb);
                for r in 0..nr {
                    l21.extend_from_slice(&data[(k1 + r) * n + k0..(k1 + r) * n + k0 + kb]);
                }
                let mut l21t = vec![0.0f64; kb * nc];
                for k in 0..kb {
                    for j in 0..nc {
                        l21t[k * nc + j] = l21[j * kb + k];
                    }
                }
                let (_, bottom) = data.split_at_mut(k1 * n);
                let tile = |ci: usize, chunk: &mut [f64]| {
                    let rows = chunk.len() / n;
                    f64::gemm_sub(
                        &mut chunk[k1..],
                        n,
                        rows,
                        nc,
                        &l21[ci * ROW_TILE * kb..],
                        kb,
                        &l21t,
                        nc,
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
        // Scrub the scratch the rectangular trailing tiles left above the
        // diagonal so `l()` is a clean lower-triangular factor.
        for i in 0..n {
            for j in (i + 1)..n {
                data[i * n + j] = 0.0;
            }
        }
        Ok(CholeskyDecomposition { l })
    }

    /// System dimension.
    pub fn dim(&self) -> usize {
        self.l.nrows()
    }

    /// The lower-triangular factor `L`.
    pub fn l(&self) -> &Matrix<f64> {
        &self.l
    }

    /// Solves `A·x = b` via two triangular solves.
    ///
    /// # Errors
    ///
    /// Returns [`SolveMatrixError::DimensionMismatch`] for a wrong-length
    /// right-hand side.
    pub fn solve(&self, b: &[f64]) -> Result<Vector<f64>, SolveMatrixError> {
        let n = self.dim();
        if b.len() != n {
            return Err(SolveMatrixError::DimensionMismatch {
                expected: n,
                got: b.len(),
            });
        }
        let mut y = b.to_vec();
        for i in 0..n {
            let mut s = y[i];
            for (k, &yk) in y.iter().enumerate().take(i) {
                s -= self.l[(i, k)] * yk;
            }
            y[i] = s / self.l[(i, i)];
        }
        for i in (0..n).rev() {
            let mut s = y[i];
            for (k, &yk) in y.iter().enumerate().skip(i + 1) {
                s -= self.l[(k, i)] * yk;
            }
            y[i] = s / self.l[(i, i)];
        }
        Ok(y)
    }

    /// Solves `L·y = b` (forward substitution only).
    ///
    /// Needed by the generalized eigensolver to form `L⁻¹ A L⁻ᵀ`.
    ///
    /// # Errors
    ///
    /// Returns [`SolveMatrixError::DimensionMismatch`] for a wrong-length
    /// right-hand side.
    pub fn solve_lower(&self, b: &[f64]) -> Result<Vector<f64>, SolveMatrixError> {
        let n = self.dim();
        if b.len() != n {
            return Err(SolveMatrixError::DimensionMismatch {
                expected: n,
                got: b.len(),
            });
        }
        let mut y = b.to_vec();
        for i in 0..n {
            let mut s = y[i];
            for (k, &yk) in y.iter().enumerate().take(i) {
                s -= self.l[(i, k)] * yk;
            }
            y[i] = s / self.l[(i, i)];
        }
        Ok(y)
    }

    /// Solves `Lᵀ·x = b` (backward substitution only).
    ///
    /// # Errors
    ///
    /// Returns [`SolveMatrixError::DimensionMismatch`] for a wrong-length
    /// right-hand side.
    pub fn solve_upper(&self, b: &[f64]) -> Result<Vector<f64>, SolveMatrixError> {
        let n = self.dim();
        if b.len() != n {
            return Err(SolveMatrixError::DimensionMismatch {
                expected: n,
                got: b.len(),
            });
        }
        let mut x = b.to_vec();
        for i in (0..n).rev() {
            let mut s = x[i];
            for (k, &xk) in x.iter().enumerate().skip(i + 1) {
                s -= self.l[(k, i)] * xk;
            }
            x[i] = s / self.l[(i, i)];
        }
        Ok(x)
    }

    /// Log-determinant of `A` (twice the log-sum of the diagonal of `L`).
    pub fn log_det(&self) -> f64 {
        2.0 * (0..self.dim()).map(|i| self.l[(i, i)].ln()).sum::<f64>()
    }
}

/// A Cholesky factorization `A = L·Lᵀ` of a sparse symmetric
/// positive-definite band matrix, stored by its lower band.
///
/// The half-bandwidth `w` is read from the entries (the largest
/// `|i − j|` among them), so a grid Laplacian numbered row by row gets
/// its raster width. Factoring costs `O(n·w²)` and a solve `O(n·w)`,
/// against `O(n³)` and `O(n²)` for [`CholeskyDecomposition`]. The
/// arithmetic is serial, so the factor is bit-identical for any
/// `PDN_THREADS`.
///
/// # Examples
///
/// ```
/// use pdn_num::cholesky::BandedCholesky;
///
/// # fn main() -> Result<(), pdn_num::SolveMatrixError> {
/// // The tridiagonal [2 −1 0; −1 2 −1; 0 −1 2].
/// let entries = [(0, 0, 2.0), (1, 1, 2.0), (2, 2, 2.0), (1, 0, -1.0), (2, 1, -1.0)];
/// let ch = BandedCholesky::new(3, &entries)?;
/// assert_eq!(ch.bandwidth(), 1);
/// let x = ch.solve(&[1.0, 0.0, 1.0])?;
/// assert!(x.iter().all(|&v| (v - 1.0).abs() < 1e-12));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BandedCholesky {
    n: usize,
    w: usize,
    /// Row `i` holds columns `i − w ..= i` at offsets `0 ..= w`; offsets
    /// before column 0 stay zero.
    band: Vec<f64>,
}

impl BandedCholesky {
    /// Factors the symmetric `n × n` matrix with the given entries.
    ///
    /// Each `(i, j, v)` adds `v` at `(i, j)` and, when `i ≠ j`, at
    /// `(j, i)` too, so each off-diagonal pair is listed once; repeated
    /// positions are summed in list order.
    ///
    /// # Errors
    ///
    /// Returns [`SolveMatrixError::DimensionMismatch`] for an entry
    /// outside `n × n` (`got` is one past its larger index),
    /// [`SolveMatrixError::NonFinite`] for a non-finite value, and
    /// [`SolveMatrixError::Singular`] with the pivot's column when the
    /// matrix is not positive definite.
    pub fn new(n: usize, entries: &[(usize, usize, f64)]) -> Result<Self, SolveMatrixError> {
        let mut w = 0;
        for &(i, j, v) in entries {
            if i.max(j) >= n {
                return Err(SolveMatrixError::DimensionMismatch {
                    expected: n,
                    got: i.max(j) + 1,
                });
            }
            if !v.is_finite() {
                return Err(SolveMatrixError::NonFinite { row: i, col: j });
            }
            w = w.max(i.abs_diff(j));
        }
        let stride = w + 1;
        let mut band = vec![0.0; n * stride];
        for &(i, j, v) in entries {
            let (r, c) = (i.max(j), i.min(j));
            band[r * stride + c + w - r] += v;
        }
        for i in 0..n {
            let lo = i.saturating_sub(w);
            for j in lo..=i {
                // L[i][j] = (A[i][j] − Σₖ L[i][k]·L[j][k]) / L[j][j] over
                // the columns k both rows hold, which start at `lo`.
                let mut s = band[i * stride + j + w - i];
                for k in lo..j {
                    s -= band[i * stride + k + w - i] * band[j * stride + k + w - j];
                }
                if j < i {
                    band[i * stride + j + w - i] = s / band[j * stride + w];
                } else if s > 0.0 && s.is_finite() {
                    band[i * stride + w] = s.sqrt();
                } else {
                    return Err(SolveMatrixError::Singular { column: i });
                }
            }
        }
        Ok(BandedCholesky { n, w, band })
    }

    /// Half-bandwidth `w`: entry `(i, j)` is zero whenever `|i − j| > w`.
    pub fn bandwidth(&self) -> usize {
        self.w
    }

    /// Solves `A·x = b` by forward and backward substitution in the band.
    ///
    /// # Errors
    ///
    /// Returns [`SolveMatrixError::DimensionMismatch`] for a wrong-length
    /// right-hand side.
    pub fn solve(&self, b: &[f64]) -> Result<Vector<f64>, SolveMatrixError> {
        let (n, w, stride) = (self.n, self.w, self.w + 1);
        if b.len() != n {
            return Err(SolveMatrixError::DimensionMismatch {
                expected: n,
                got: b.len(),
            });
        }
        let mut x = b.to_vec();
        for i in 0..n {
            let row = &self.band[i * stride..(i + 1) * stride];
            let lo = i.saturating_sub(w);
            let mut s = x[i];
            for k in lo..i {
                s -= row[k + w - i] * x[k];
            }
            x[i] = s / row[w];
        }
        // Lᵀ·x = y, column by column: once x[i] is final, remove it from
        // the rows above that row i of L reaches.
        for i in (0..n).rev() {
            let row = &self.band[i * stride..(i + 1) * stride];
            x[i] /= row[w];
            let xi = x[i];
            for k in i.saturating_sub(w)..i {
                x[k] -= row[k + w - i] * xi;
            }
        }
        Ok(x)
    }
}

/// Returns `true` when the symmetric matrix is positive definite.
///
/// # Examples
///
/// ```
/// use pdn_num::Matrix;
/// let spd = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
/// assert!(pdn_num::cholesky::is_positive_definite(&spd));
/// let indef = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]);
/// assert!(!pdn_num::cholesky::is_positive_definite(&indef));
/// ```
pub fn is_positive_definite(a: &Matrix<f64>) -> bool {
    CholeskyDecomposition::new(a).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    fn spd(n: usize) -> Matrix<f64> {
        // A = Mᵀ M + n·I is SPD for any M.
        let m = Matrix::from_fn(n, n, |i, j| ((i * 7 + j * 3) % 11) as f64 / 11.0);
        let mut a = m.transpose().matmul(&m);
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        a
    }

    #[test]
    fn factor_reconstructs_matrix() {
        let a = spd(6);
        let ch = CholeskyDecomposition::new(&a).unwrap();
        let back = ch.l().matmul(&ch.l().transpose());
        for i in 0..6 {
            for j in 0..6 {
                assert!(approx_eq(back[(i, j)], a[(i, j)], 1e-11));
            }
        }
    }

    #[test]
    fn solve_matches_lu() {
        let a = spd(8);
        let b: Vec<f64> = (0..8).map(|i| (i as f64).sin()).collect();
        let x_ch = CholeskyDecomposition::new(&a).unwrap().solve(&b).unwrap();
        let x_lu = crate::lu::solve(a, &b).unwrap();
        for i in 0..8 {
            assert!(approx_eq(x_ch[i], x_lu[i], 1e-10));
        }
    }

    #[test]
    fn indefinite_rejected() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        assert!(matches!(
            CholeskyDecomposition::new(&a),
            Err(SolveMatrixError::Singular { .. })
        ));
    }

    #[test]
    fn triangular_solves_compose() {
        let a = spd(5);
        let ch = CholeskyDecomposition::new(&a).unwrap();
        let b: Vec<f64> = (0..5).map(|i| i as f64 + 1.0).collect();
        let y = ch.solve_lower(&b).unwrap();
        let x = ch.solve_upper(&y).unwrap();
        let direct = ch.solve(&b).unwrap();
        for i in 0..5 {
            assert!(approx_eq(x[i], direct[i], 1e-12));
        }
    }

    /// The pre-blocking scalar kernel, kept for equivalence testing.
    fn factor_scalar_reference(a: &Matrix<f64>) -> Matrix<f64> {
        let n = a.nrows();
        let mut l = Matrix::zeros(n, n);
        for j in 0..n {
            let mut d = a[(j, j)];
            for k in 0..j {
                d -= l[(j, k)] * l[(j, k)];
            }
            let djj = d.sqrt();
            l[(j, j)] = djj;
            for i in (j + 1)..n {
                let mut s = a[(i, j)];
                for k in 0..j {
                    s -= l[(i, k)] * l[(j, k)];
                }
                l[(i, j)] = s / djj;
            }
        }
        l
    }

    #[test]
    fn small_factor_bit_identical_to_scalar_reference() {
        for n in [1usize, 5, 33, 64] {
            let a = spd(n);
            let blocked = CholeskyDecomposition::new(&a).unwrap();
            let reference = factor_scalar_reference(&a);
            for i in 0..n {
                for j in 0..=i {
                    assert_eq!(
                        blocked.l()[(i, j)].to_bits(),
                        reference[(i, j)].to_bits(),
                        "n={n} ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn blocked_factor_matches_scalar_reference_large() {
        let n = 150;
        let a = spd(n);
        let blocked = CholeskyDecomposition::new(&a).unwrap();
        let reference = factor_scalar_reference(&a);
        for i in 0..n {
            for j in 0..n {
                assert!(
                    approx_eq(blocked.l()[(i, j)], reference[(i, j)], 1e-10),
                    "({i},{j}): {} vs {}",
                    blocked.l()[(i, j)],
                    reference[(i, j)]
                );
            }
            // The strict upper triangle must be scrubbed clean.
            for j in (i + 1)..n {
                assert_eq!(blocked.l()[(i, j)], 0.0);
            }
        }
        let back = blocked.l().matmul(&blocked.l().transpose());
        for i in 0..n {
            for j in 0..n {
                assert!(approx_eq(back[(i, j)], a[(i, j)], 1e-9), "({i},{j})");
            }
        }
    }

    /// A banded SPD matrix of half-bandwidth `w` as dense and as an
    /// entry list: each diagonal entry in two parts, each off-diagonal
    /// pair once, at its upper or its lower position.
    fn banded_spd(n: usize, w: usize) -> (Matrix<f64>, Vec<(usize, usize, f64)>) {
        let mut a = Matrix::zeros(n, n);
        let mut entries = Vec::new();
        for i in 0..n {
            for j in i.saturating_sub(w)..=i {
                let v = if i == j {
                    2.0 * w as f64 + 1.0 + (i % 3) as f64
                } else {
                    -1.0 + 0.1 * ((i * 7 + j) % 5) as f64
                };
                a[(i, j)] = v;
                a[(j, i)] = v;
                if i == j {
                    entries.push((i, i, 0.25 * v));
                    entries.push((i, i, 0.75 * v));
                } else {
                    // Upper or lower position: both stand for the pair.
                    entries.push(if (i + j) % 2 == 0 {
                        (i, j, v)
                    } else {
                        (j, i, v)
                    });
                }
            }
        }
        (a, entries)
    }

    #[test]
    fn banded_factor_matches_dense_cholesky() {
        let (n, w) = (40, 6);
        let (a, entries) = banded_spd(n, w);
        let banded = BandedCholesky::new(n, &entries).unwrap();
        assert_eq!(banded.bandwidth(), w);
        let dense = CholeskyDecomposition::new(&a).unwrap();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.43).sin()).collect();
        let (xb, xd) = (banded.solve(&b).unwrap(), dense.solve(&b).unwrap());
        for i in 0..n {
            assert!(
                approx_eq(xb[i], xd[i], 1e-12),
                "x[{i}]: {} vs {}",
                xb[i],
                xd[i]
            );
            for j in i.saturating_sub(w)..=i {
                let lb = banded.band[i * (w + 1) + j + w - i];
                assert!(approx_eq(lb, dense.l()[(i, j)], 1e-12), "L({i},{j})");
            }
        }
        assert!(matches!(
            banded.solve(&b[1..]),
            Err(SolveMatrixError::DimensionMismatch {
                expected: 40,
                got: 39
            })
        ));
    }

    #[test]
    fn banded_factor_rejects_indefinite_and_bad_entries() {
        // [2 3; 3 2] is indefinite: the second pivot is 2 − 4.5 < 0.
        let indefinite = [(0, 0, 2.0), (1, 1, 2.0), (1, 0, 3.0)];
        assert_eq!(
            BandedCholesky::new(2, &indefinite).unwrap_err(),
            SolveMatrixError::Singular { column: 1 }
        );
        // A grounded-nowhere Laplacian is singular at its last pivot.
        let floating = [(0, 0, 1.0), (1, 1, 1.0), (1, 0, -1.0)];
        assert!(matches!(
            BandedCholesky::new(2, &floating),
            Err(SolveMatrixError::Singular { column: 1 })
        ));
        assert_eq!(
            BandedCholesky::new(2, &[(2, 0, 1.0)]).unwrap_err(),
            SolveMatrixError::DimensionMismatch {
                expected: 2,
                got: 3
            }
        );
        assert_eq!(
            BandedCholesky::new(2, &[(0, 0, f64::NAN)]).unwrap_err(),
            SolveMatrixError::NonFinite { row: 0, col: 0 }
        );
    }

    #[test]
    fn log_det_matches_lu_det() {
        let a = spd(4);
        let ch = CholeskyDecomposition::new(&a).unwrap();
        let det = crate::LuDecomposition::new(a).unwrap().det();
        assert!(approx_eq(ch.log_det(), det.ln(), 1e-10));
    }
}
