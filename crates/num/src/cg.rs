//! Jacobi-preconditioned conjugate gradients for symmetric
//! positive-definite systems.
//!
//! The direct LU/Cholesky factorizations serve every extraction in this
//! toolkit comfortably; CG exists for the scaling path — meshes with many
//! thousands of cells where `O(n³)` factorization becomes the bottleneck
//! but the SPD operators (potential coefficients, inductance) remain well
//! conditioned after diagonal preconditioning. [`solve_spd`] takes a
//! matrix and [`solve_spd_op`] an operator (the compressed BEM kernels);
//! the two are bit-identical on the same operator. [`solve_projected_op`]
//! minimizes `½·yᵀ·H·y` under linear equality constraints, with the same
//! diagonal preconditioner — the kept-node reduction of compressed
//! extraction runs one per kept node.
//!
//! The recurrences are serial (the only parallelism is whatever the
//! caller's `apply` closure does internally), so solutions are
//! bit-identical for any `PDN_THREADS`. [`cg_iteration_count`]
//! attributes iteration cost to a workload.

use crate::{Matrix, Vector};
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Error from an iterative solve.
#[derive(Debug, Clone, PartialEq)]
pub enum IterativeSolveError {
    /// The matrix is not square or sizes mismatch.
    BadShape,
    /// The iteration hit its limit before reaching the tolerance.
    NotConverged {
        /// Iterations performed.
        iterations: usize,
        /// Final relative residual.
        residual: f64,
        /// The relative tolerance that was requested.
        tol: f64,
    },
    /// A breakdown occurred — the operator is not SPD. Carries the
    /// offending index when a specific diagonal entry is to blame.
    Breakdown {
        /// Index of the non-positive diagonal entry, when known.
        index: Option<usize>,
    },
}

impl fmt::Display for IterativeSolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IterativeSolveError::BadShape => write!(f, "matrix/vector shape mismatch"),
            IterativeSolveError::NotConverged {
                iterations,
                residual,
                tol,
            } => write!(
                f,
                "CG did not converge in {iterations} iterations \
                 (residual {residual:.3e} vs requested rel tol {tol:.1e})"
            ),
            IterativeSolveError::Breakdown { index: Some(i) } => write!(
                f,
                "CG breakdown: non-positive diagonal at index {i} — operator is not \
                 positive definite"
            ),
            IterativeSolveError::Breakdown { index: None } => {
                write!(f, "CG breakdown: operator is not positive definite")
            }
        }
    }
}

impl Error for IterativeSolveError {}

/// Global CG iteration counter — every completed solver iteration adds
/// one.
static CG_ITERATIONS: AtomicUsize = AtomicUsize::new(0);

/// Monotone process-wide count of CG iterations across every solve in
/// this crate. Snapshot it before and after a workload to attribute
/// iteration cost — the companion of `pdn-bem`'s kernel-matvec counter
/// in the extraction benchmarks.
pub fn cg_iteration_count() -> usize {
    CG_ITERATIONS.load(Ordering::Relaxed)
}

/// Solves `A·x = b` for symmetric positive-definite `A` with
/// Jacobi-preconditioned conjugate gradients.
///
/// Stops when the residual 2-norm falls below `tol · ‖b‖` or after
/// `max_iter` iterations.
///
/// # Errors
///
/// Returns [`IterativeSolveError`] on shape mismatch, non-convergence, or
/// an indefinite matrix (including a zero or negative diagonal entry,
/// reported with its index).
///
/// # Examples
///
/// ```
/// use pdn_num::{cg::solve_spd, Matrix};
///
/// # fn main() -> Result<(), pdn_num::cg::IterativeSolveError> {
/// let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
/// let x = solve_spd(&a, &[1.0, 2.0], 1e-12, 100)?;
/// assert!((4.0 * x[0] + x[1] - 1.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
pub fn solve_spd(
    a: &Matrix<f64>,
    b: &[f64],
    tol: f64,
    max_iter: usize,
) -> Result<Vector<f64>, IterativeSolveError> {
    if !a.is_square() || a.nrows() != b.len() {
        return Err(IterativeSolveError::BadShape);
    }
    let diag: Vec<f64> = (0..b.len()).map(|i| a[(i, i)]).collect();
    solve_spd_op(b.len(), &|x| a.matvec(x), &diag, b, tol, max_iter)
}

/// Operator form of [`solve_spd`]: solves `A·x = b` given only the
/// matrix-vector product `apply` and the diagonal of `A` (for the Jacobi
/// preconditioner). This is the entry point for compressed or otherwise
/// implicitly represented SPD operators where `A` is never densified.
///
/// Stops when the residual 2-norm falls below `tol · ‖b‖` or after
/// `max_iter` iterations. Identical arithmetic to [`solve_spd`], so the
/// two agree bit-for-bit on the same operator.
///
/// # Errors
///
/// Returns [`IterativeSolveError`] on shape mismatch, non-convergence,
/// or an indefinite operator. A zero or negative diagonal entry on a
/// claimed-SPD operator is a [`IterativeSolveError::Breakdown`] carrying
/// the offending index — never a silent substitution.
pub fn solve_spd_op(
    n: usize,
    apply: &dyn Fn(&[f64]) -> Vector<f64>,
    diag: &[f64],
    b: &[f64],
    tol: f64,
    max_iter: usize,
) -> Result<Vector<f64>, IterativeSolveError> {
    if diag.len() != n {
        return Err(IterativeSolveError::BadShape);
    }
    if let Some(index) = diag.iter().position(|&d| d.is_nan() || d <= 0.0) {
        return Err(IterativeSolveError::Breakdown { index: Some(index) });
    }
    if b.len() != n {
        return Err(IterativeSolveError::BadShape);
    }
    let inv: Vec<f64> = diag.iter().map(|d| 1.0 / d).collect();
    let precondition = |r: &[f64], z: &mut [f64]| {
        for i in 0..n {
            z[i] = r[i] * inv[i];
        }
    };
    let b_norm = b.iter().map(|x| x * x).sum::<f64>().sqrt();
    if b_norm == 0.0 {
        return Ok(vec![0.0; n]);
    }
    let mut x = vec![0.0; n];
    let mut r = b.to_vec();
    let mut z = vec![0.0; n];
    precondition(&r, &mut z);
    let mut p = z.clone();
    let mut rz: f64 = r.iter().zip(&z).map(|(a, b)| a * b).sum();
    for it in 0..max_iter {
        CG_ITERATIONS.fetch_add(1, Ordering::Relaxed);
        let ap = apply(&p);
        if ap.len() != n {
            return Err(IterativeSolveError::BadShape);
        }
        let p_ap: f64 = p.iter().zip(&ap).map(|(a, b)| a * b).sum();
        if p_ap <= 0.0 {
            return Err(IterativeSolveError::Breakdown { index: None });
        }
        let alpha = rz / p_ap;
        for i in 0..n {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
        }
        let r_norm = r.iter().map(|v| v * v).sum::<f64>().sqrt();
        if r_norm <= tol * b_norm {
            return Ok(x);
        }
        if it + 1 == max_iter {
            return Err(IterativeSolveError::NotConverged {
                iterations: max_iter,
                residual: r_norm / b_norm,
                tol,
            });
        }
        precondition(&r, &mut z);
        let rz_new: f64 = r.iter().zip(&z).map(|(a, b)| a * b).sum();
        let beta = rz_new / rz;
        rz = rz_new;
        for i in 0..n {
            p[i] = z[i] + beta * p[i];
        }
    }
    Err(IterativeSolveError::NotConverged {
        iterations: max_iter,
        residual: 1.0,
        tol,
    })
}

/// Linear equality constraints `C·y = b` on the unknowns of a
/// [`solve_projected_op`] solve, as operators: `C` is `k × n` of full row
/// rank, and the solve never forms it.
pub trait Constraints {
    /// `C·y` (length `k`) for `y` of length `n`.
    fn apply(&self, y: &[f64]) -> Vector<f64>;

    /// `Cᵀ·λ` (length `n`) for `λ` of length `k`.
    fn apply_transpose(&self, lambda: &[f64]) -> Vector<f64>;

    /// `(C·D⁻¹·Cᵀ)⁻¹·v` for the preconditioner diagonal `D` handed to
    /// [`solve_projected_op`] — typically one solve with a factor built
    /// once, e.g. [`BandedCholesky`](crate::cholesky::BandedCholesky).
    ///
    /// # Errors
    ///
    /// [`IterativeSolveError::BadShape`] for a wrong-length `v`.
    fn solve_normal(&self, v: &[f64]) -> Result<Vector<f64>, IterativeSolveError>;
}

/// The minimizer of a [`solve_projected_op`] problem and its Lagrange
/// multiplier.
#[derive(Debug, Clone, PartialEq)]
pub struct ProjectedSolution {
    /// The minimizer `y`, which satisfies `C·y = b` to rounding.
    pub y: Vector<f64>,
    /// The multiplier `λ` with `H·y = Cᵀ·λ` at the tolerance.
    pub multiplier: Vector<f64>,
}

/// Solves the equality-constrained quadratic program
/// `min ½·yᵀ·H·y  subject to  C·y = b` for symmetric `H` positive
/// definite on the null space of `C`, by projected conjugate gradients
/// with the diagonal preconditioner `D = diag` and the residual update
/// of Gould, Hribar and Nocedal (SIAM J. Sci. Comput. 23, 2001).
///
/// The start is the `D`-weighted least-norm feasible point
/// `y₀ = D⁻¹·Cᵀ·(C·D⁻¹·Cᵀ)⁻¹·b`. Each step projects the residual
/// `r = H·y − Cᵀ·λ` by `v = (C·D⁻¹·Cᵀ)⁻¹·C·D⁻¹·r`, then *updates* it,
/// `r ← r − Cᵀ·v`, and accumulates `λ ← λ + v`. The update keeps the
/// search directions in the null space of `C` to rounding, so the
/// iteration does not stall on the round-off a plain projection leaves
/// behind, and `λ` converges with `r`. One step costs one `apply`, one
/// [`Constraints::apply`], one [`Constraints::apply_transpose`] and one
/// [`Constraints::solve_normal`].
///
/// Stops when `√(rᵀ·D⁻¹·r) ≤ tol · √(r₀ᵀ·D⁻¹·r₀)`, with `r₀` the
/// projected starting residual, or fails after `max_iter` iterations.
/// The recurrences are serial and each iteration adds one to
/// [`cg_iteration_count`], as in [`solve_spd_op`].
///
/// # Errors
///
/// [`IterativeSolveError::BadShape`] when an operator returns the wrong
/// length; [`IterativeSolveError::Breakdown`] for a non-positive or NaN
/// `diag` entry (with its index) or negative curvature of `H` on the
/// null space (without one); [`IterativeSolveError::NotConverged`] with
/// the iteration count and the final relative residual when `max_iter`
/// iterations do not reach `tol`.
pub fn solve_projected_op(
    apply: &dyn Fn(&[f64]) -> Vector<f64>,
    diag: &[f64],
    constraints: &dyn Constraints,
    b: &[f64],
    tol: f64,
    max_iter: usize,
) -> Result<ProjectedSolution, IterativeSolveError> {
    let n = diag.len();
    if let Some(index) = diag.iter().position(|&d| d.is_nan() || d <= 0.0) {
        return Err(IterativeSolveError::Breakdown { index: Some(index) });
    }
    let inv: Vec<f64> = diag.iter().map(|d| 1.0 / d).collect();
    let checked = |v: Vector<f64>, len: usize| {
        if v.len() == len {
            Ok(v)
        } else {
            Err(IterativeSolveError::BadShape)
        }
    };
    // r ← r − Cᵀ·v and λ ← λ + v, with v = (C·D⁻¹·Cᵀ)⁻¹·C·D⁻¹·r; returns
    // the preconditioned residual g = D⁻¹·r of the updated r.
    let project = |r: &mut [f64], lambda: &mut [f64]| -> Result<Vec<f64>, IterativeSolveError> {
        let scaled: Vec<f64> = r.iter().zip(&inv).map(|(r, d)| r * d).collect();
        let v = checked(
            constraints.solve_normal(&checked(constraints.apply(&scaled), b.len())?)?,
            b.len(),
        )?;
        let cv = checked(constraints.apply_transpose(&v), n)?;
        for i in 0..n {
            r[i] -= cv[i];
        }
        for (l, v) in lambda.iter_mut().zip(&v) {
            *l += v;
        }
        Ok(r.iter().zip(&inv).map(|(r, d)| r * d).collect())
    };
    let w = checked(constraints.solve_normal(b)?, b.len())?;
    let mut y = checked(constraints.apply_transpose(&w), n)?;
    for (y, d) in y.iter_mut().zip(&inv) {
        *y *= d;
    }
    let mut lambda = vec![0.0; b.len()];
    let mut r = checked(apply(&y), n)?;
    let mut g = project(&mut r, &mut lambda)?;
    let mut rg: f64 = r.iter().zip(&g).map(|(a, b)| a * b).sum();
    let rg0 = rg;
    if rg0 == 0.0 {
        return Ok(ProjectedSolution {
            y,
            multiplier: lambda,
        });
    }
    let mut d: Vec<f64> = g.iter().map(|g| -g).collect();
    for it in 0..max_iter {
        CG_ITERATIONS.fetch_add(1, Ordering::Relaxed);
        let hd = checked(apply(&d), n)?;
        let d_hd: f64 = d.iter().zip(&hd).map(|(a, b)| a * b).sum();
        if d_hd <= 0.0 {
            return Err(IterativeSolveError::Breakdown { index: None });
        }
        let alpha = rg / d_hd;
        for i in 0..n {
            y[i] += alpha * d[i];
            r[i] += alpha * hd[i];
        }
        g = project(&mut r, &mut lambda)?;
        let rg_new: f64 = r.iter().zip(&g).map(|(a, b)| a * b).sum();
        let residual = (rg_new / rg0).sqrt();
        if residual <= tol {
            return Ok(ProjectedSolution {
                y,
                multiplier: lambda,
            });
        }
        if it + 1 == max_iter {
            return Err(IterativeSolveError::NotConverged {
                iterations: max_iter,
                residual,
                tol,
            });
        }
        let beta = rg_new / rg;
        rg = rg_new;
        for i in 0..n {
            d[i] = beta * d[i] - g[i];
        }
    }
    Err(IterativeSolveError::NotConverged {
        iterations: max_iter,
        residual: 1.0,
        tol,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    fn spd(n: usize) -> Matrix<f64> {
        let m = Matrix::from_fn(n, n, |i, j| ((i * 5 + j * 3) % 13) as f64 / 13.0);
        let mut a = m.transpose().matmul(&m);
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        a
    }

    #[test]
    fn matches_direct_solve() {
        let a = spd(30);
        let b: Vec<f64> = (0..30).map(|i| (i as f64 * 0.37).sin()).collect();
        let x_cg = solve_spd(&a, &b, 1e-12, 500).unwrap();
        let x_lu = crate::lu::solve(a.clone(), &b).unwrap();
        for i in 0..30 {
            assert!(approx_eq(x_cg[i], x_lu[i], 1e-8), "entry {i}");
        }
    }

    #[test]
    fn exact_in_n_iterations_for_small_systems() {
        // CG converges in at most n iterations in exact arithmetic.
        let a = spd(5);
        let b = vec![1.0; 5];
        let x = solve_spd(&a, &b, 1e-12, 10).unwrap();
        let r: f64 = a
            .matvec(&x)
            .iter()
            .zip(&b)
            .map(|(p, q)| (p - q) * (p - q))
            .sum::<f64>()
            .sqrt();
        assert!(r < 1e-9);
    }

    #[test]
    fn zero_rhs_gives_zero() {
        let a = spd(4);
        let x = solve_spd(&a, &[0.0; 4], 1e-12, 10).unwrap();
        assert!(x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn indefinite_matrix_breaks_down() {
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, -1.0]]);
        // The negative diagonal trips the Jacobi construction, with the
        // offending index reported.
        assert_eq!(
            solve_spd(&a, &[1.0, 1.0], 1e-12, 10).unwrap_err(),
            IterativeSolveError::Breakdown { index: Some(1) }
        );
    }

    #[test]
    fn indefinite_with_positive_diagonal_breaks_down_in_iteration() {
        // Positive diagonal but indefinite: breakdown has no single
        // diagonal culprit.
        let a = Matrix::from_rows(&[&[1.0, 4.0], &[4.0, 1.0]]);
        // [1, -1] is the negative-eigenvalue direction.
        assert_eq!(
            solve_spd(&a, &[1.0, -1.0], 1e-12, 10).unwrap_err(),
            IterativeSolveError::Breakdown { index: None }
        );
    }

    #[test]
    fn zero_diagonal_is_breakdown_with_index_not_silent_substitution() {
        // A zero diagonal entry on a claimed-SPD operator used to be
        // silently replaced by 1.0 in the Jacobi preconditioner.
        let diag = [2.0, 0.0, 3.0];
        let err = solve_spd_op(3, &|v| v.to_vec(), &diag, &[1.0; 3], 1e-9, 10).unwrap_err();
        assert_eq!(err, IterativeSolveError::Breakdown { index: Some(1) });
        assert!(err.to_string().contains("index 1"), "{err}");
    }

    #[test]
    fn iteration_cap_reported() {
        // An ill-conditioned SPD system with a tiny iteration budget.
        let mut a = spd(20);
        a[(0, 0)] += 1e9;
        match solve_spd(&a, &[1.0; 20], 1e-14, 2) {
            Err(IterativeSolveError::NotConverged {
                iterations, tol, ..
            }) => {
                assert_eq!(iterations, 2);
                assert_eq!(tol, 1e-14);
            }
            other => panic!("expected NotConverged, got {other:?}"),
        }
    }

    #[test]
    fn not_converged_display_names_iterations_and_tolerance() {
        let err = IterativeSolveError::NotConverged {
            iterations: 7,
            residual: 3.2e-3,
            tol: 1e-10,
        };
        let msg = err.to_string();
        assert!(msg.contains("7 iterations"), "{msg}");
        assert!(msg.contains("1.0e-10"), "{msg}");
    }

    #[test]
    fn shape_mismatch_rejected() {
        let a = spd(3);
        assert_eq!(
            solve_spd(&a, &[1.0, 2.0], 1e-9, 10).unwrap_err(),
            IterativeSolveError::BadShape
        );
    }

    #[test]
    fn operator_form_is_bit_identical_to_matrix_form() {
        let a = spd(24);
        let b: Vec<f64> = (0..24).map(|i| (i as f64 * 0.61).cos()).collect();
        let x_mat = solve_spd(&a, &b, 1e-12, 500).unwrap();
        let diag: Vec<f64> = (0..24).map(|i| a[(i, i)]).collect();
        let x_op = solve_spd_op(24, &|v| a.matvec(v), &diag, &b, 1e-12, 500).unwrap();
        for i in 0..24 {
            assert_eq!(x_mat[i].to_bits(), x_op[i].to_bits(), "entry {i}");
        }
    }

    #[test]
    fn operator_form_rejects_shape_mismatch() {
        assert_eq!(
            solve_spd_op(3, &|v| v.to_vec(), &[1.0, 1.0], &[1.0; 3], 1e-9, 10).unwrap_err(),
            IterativeSolveError::BadShape
        );
        assert_eq!(
            solve_spd_op(3, &|_| vec![0.0; 2], &[1.0; 3], &[1.0; 3], 1e-9, 10).unwrap_err(),
            IterativeSolveError::BadShape
        );
    }

    /// Dense constraints `C·y = b` with the normal matrix `C·D⁻¹·Cᵀ`
    /// factored by the banded Cholesky (full bandwidth).
    struct DenseConstraints {
        c: Matrix<f64>,
        normal: crate::cholesky::BandedCholesky,
    }

    impl DenseConstraints {
        fn new(c: Matrix<f64>, diag: &[f64]) -> Self {
            let mut entries = Vec::new();
            for i in 0..c.nrows() {
                for j in 0..=i {
                    let v = (0..c.ncols())
                        .map(|l| c[(i, l)] * c[(j, l)] / diag[l])
                        .sum();
                    entries.push((i, j, v));
                }
            }
            let normal = crate::cholesky::BandedCholesky::new(c.nrows(), &entries).unwrap();
            DenseConstraints { c, normal }
        }
    }

    impl Constraints for DenseConstraints {
        fn apply(&self, y: &[f64]) -> Vector<f64> {
            self.c.matvec(y)
        }
        fn apply_transpose(&self, lambda: &[f64]) -> Vector<f64> {
            self.c.transpose().matvec(lambda)
        }
        fn solve_normal(&self, v: &[f64]) -> Result<Vector<f64>, IterativeSolveError> {
            self.normal
                .solve(v)
                .map_err(|_| IterativeSolveError::BadShape)
        }
    }

    /// An 8-unknown SPD `H`, three constraints of full row rank and
    /// their right-hand side.
    fn constrained_problem() -> (Matrix<f64>, Matrix<f64>, Vec<f64>) {
        let h = spd(8);
        let c = Matrix::from_fn(3, 8, |i, j| {
            if j == i || j == i + 4 {
                1.0
            } else if j == 7 - i {
                -1.0
            } else {
                0.0
            }
        });
        (h, c, vec![1.0, -2.0, 0.5])
    }

    #[test]
    fn projected_cg_matches_direct_kkt_solve() {
        let (h, c, b) = constrained_problem();
        let (n, k) = (h.nrows(), c.nrows());
        let diag: Vec<f64> = (0..n).map(|i| h[(i, i)]).collect();
        let cons = DenseConstraints::new(c.clone(), &diag);
        let sol = solve_projected_op(&|v| h.matvec(v), &diag, &cons, &b, 1e-12, 100).unwrap();
        // [H −Cᵀ; C 0]·[y; λ] = [0; b], by LU.
        let kkt = Matrix::from_fn(n + k, n + k, |i, j| match (i < n, j < n) {
            (true, true) => h[(i, j)],
            (true, false) => -c[(j - n, i)],
            (false, true) => c[(i - n, j)],
            (false, false) => 0.0,
        });
        let mut rhs = vec![0.0; n];
        rhs.extend_from_slice(&b);
        let x = crate::lu::solve(kkt, &rhs).unwrap();
        let got = sol.y.iter().chain(&sol.multiplier);
        for (i, (&got, &want)) in got.zip(&x).enumerate() {
            assert!(approx_eq(got, want, 1e-10), "[y; λ][{i}]: {got} vs {want}");
        }
        let cy = c.matvec(&sol.y);
        for i in 0..k {
            assert!((cy[i] - b[i]).abs() < 1e-12, "constraint {i}: {}", cy[i]);
        }
    }

    #[test]
    fn projected_cg_reports_its_iteration_cap_and_bad_diagonals() {
        let (h, c, b) = constrained_problem();
        let diag: Vec<f64> = (0..8).map(|i| h[(i, i)]).collect();
        let cons = DenseConstraints::new(c, &diag);
        match solve_projected_op(&|v| h.matvec(v), &diag, &cons, &b, 1e-14, 1) {
            Err(IterativeSolveError::NotConverged {
                iterations,
                residual,
                tol,
            }) => {
                assert_eq!(iterations, 1);
                assert!(residual > 1e-14 && residual.is_finite(), "{residual}");
                assert_eq!(tol, 1e-14);
            }
            other => panic!("expected NotConverged, got {other:?}"),
        }
        let mut bad = diag.clone();
        bad[5] = 0.0;
        assert_eq!(
            solve_projected_op(&|v| h.matvec(v), &bad, &cons, &b, 1e-12, 100).unwrap_err(),
            IterativeSolveError::Breakdown { index: Some(5) }
        );
        assert_eq!(
            solve_projected_op(&|v| h.matvec(v), &diag, &cons, &b[..2], 1e-12, 100).unwrap_err(),
            IterativeSolveError::BadShape
        );
    }

    #[test]
    fn solves_bem_style_potential_matrix() {
        // A potential-coefficient-like matrix: diagonally dominant with
        // 1/distance off-diagonal decay.
        let n = 64;
        let a = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                10.0
            } else {
                1.0 / (i as f64 - j as f64).abs()
            }
        });
        let b: Vec<f64> = (0..n).map(|i| if i == 7 { 1.0 } else { 0.0 }).collect();
        let x = solve_spd(&a, &b, 1e-10, 300).unwrap();
        let r: f64 = a
            .matvec(&x)
            .iter()
            .zip(&b)
            .map(|(p, q)| (p - q) * (p - q))
            .sum::<f64>()
            .sqrt();
        assert!(r < 1e-8);
    }
}
