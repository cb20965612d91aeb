//! Preconditioned conjugate-gradient solvers for symmetric
//! positive-definite systems.
//!
//! The direct LU/Cholesky factorizations serve every extraction in this
//! toolkit comfortably; CG exists for the scaling path — meshes with many
//! thousands of cells where `O(n³)` factorization becomes the bottleneck
//! but the SPD operators (potential coefficients, inductance) remain well
//! conditioned after preconditioning. Three drivers share one contract:
//!
//! * [`solve_spd`] / [`solve_spd_op`] — scalar Jacobi-preconditioned CG
//!   (matrix and operator forms, bit-identical to each other);
//! * [`solve_spd_pc`] — scalar CG with a caller-supplied
//!   [`Preconditioner`] (hierarchical block-Jacobi for the compressed
//!   BEM kernels);
//! * [`solve_spd_block`] — multi-RHS block CG: one operator application
//!   per iteration covers the whole column panel, the direction Gram
//!   matrix is rank-revealed by pivoted Cholesky (dependent directions
//!   deflate instead of breaking down), and converged columns retire
//!   from the panel so kernel traffic is never spent on them again.
//!
//! All drivers are serial in their recurrences (the only parallelism is
//! whatever the caller's `apply` closure does internally), so solutions
//! are bit-identical for any `PDN_THREADS`. [`cg_iteration_count`]
//! attributes iteration cost to a workload.

use crate::precond::{JacobiPreconditioner, Preconditioner};
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
        /// Final relative residual (the worst column for block solves).
        residual: f64,
        /// The relative tolerance that was requested.
        tol: f64,
        /// Whether the solve ran under a plain Jacobi (diagonal)
        /// preconditioner — a hierarchical preconditioner is the usual
        /// fix on fine meshes.
        jacobi: bool,
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
                jacobi,
            } => {
                write!(
                    f,
                    "CG did not converge in {iterations} iterations \
                     (residual {residual:.3e} vs requested rel tol {tol:.1e})"
                )?;
                if *jacobi {
                    write!(
                        f,
                        "; preconditioner is plain Jacobi — a hierarchical \
                         block-Cholesky preconditioner usually fixes this on fine meshes"
                    )?;
                }
                Ok(())
            }
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

/// Global CG iteration counter — every completed solver iteration
/// (scalar, or one panel iteration of the block driver) adds one.
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
    let pc = JacobiPreconditioner::new(diag)?;
    solve_spd_pc(n, apply, &pc, b, tol, max_iter)
}

/// Scalar preconditioned CG with a caller-supplied [`Preconditioner`].
///
/// With a [`JacobiPreconditioner`] this is arithmetically identical to
/// [`solve_spd_op`]; a [`BlockJacobiPreconditioner`] built from the
/// compressed-kernel cluster tree converges in strictly fewer iterations
/// on ill-conditioned fine meshes (see `docs/COMPRESSION.md`).
///
/// [`BlockJacobiPreconditioner`]: crate::precond::BlockJacobiPreconditioner
///
/// # Errors
///
/// Returns [`IterativeSolveError`] on shape mismatch, non-convergence,
/// or an indefinite operator.
pub fn solve_spd_pc(
    n: usize,
    apply: &dyn Fn(&[f64]) -> Vector<f64>,
    pc: &dyn Preconditioner,
    b: &[f64],
    tol: f64,
    max_iter: usize,
) -> Result<Vector<f64>, IterativeSolveError> {
    if pc.len() != n || b.len() != n {
        return Err(IterativeSolveError::BadShape);
    }
    let b_norm = b.iter().map(|x| x * x).sum::<f64>().sqrt();
    if b_norm == 0.0 {
        return Ok(vec![0.0; n]);
    }
    let mut x = vec![0.0; n];
    let mut r = b.to_vec();
    let mut z = vec![0.0; n];
    pc.apply_into(&r, &mut z);
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
                jacobi: pc.is_jacobi(),
            });
        }
        pc.apply_into(&r, &mut z);
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
        jacobi: pc.is_jacobi(),
    })
}

/// Lane width of the grouped panel reductions and updates below — a
/// fixed constant, so the pass structure never depends on the worker
/// count (the same determinism contract as the solvers themselves).
const DIR_LANES: usize = 8;

/// `out[k] = Σ_t a[t]·vs[k][t]` for every vector in `vs`, streaming `a`
/// once per [`DIR_LANES`]-sized group and running the group's
/// accumulator chains interleaved. Each individual sum still
/// accumulates in ascending `t`, so every entry is bit-identical to a
/// serial `dot(a, vs[k])` — the grouping only breaks the dependent-add
/// latency chain that makes one-at-a-time dots reduction-bound.
fn dots_grouped(a: &[f64], vs: &[&Vec<f64>]) -> Vec<f64> {
    let mut out = Vec::with_capacity(vs.len());
    for group in vs.chunks(DIR_LANES) {
        let g = group.len();
        let mut acc = [0.0f64; DIR_LANES];
        for (t, &at) in a.iter().enumerate() {
            for (ak, v) in acc[..g].iter_mut().zip(group) {
                *ak += at * v[t];
            }
        }
        out.extend_from_slice(&acc[..g]);
    }
    out
}

/// `out[t] += Σ_k c_k·vs[k][t]`, applied in ascending `k` for every
/// element — the exact per-element add sequence of one axpy pass per
/// `(c_k, vs[k])` term, fused into one streaming pass over `out` per
/// [`DIR_LANES`]-sized group.
fn axpys_grouped(out: &mut [f64], terms: &[(f64, &Vec<f64>)]) {
    for group in terms.chunks(DIR_LANES) {
        for (t, o) in out.iter_mut().enumerate() {
            for &(c, v) in group {
                *o += c * v[t];
            }
        }
    }
}

/// Pivoted Cholesky rank reveal of a small symmetric Gram matrix.
///
/// Pivots on the largest remaining diagonal (lowest index on ties) and
/// stops when it drops below `thresh` — the retained pivots index the
/// numerically independent directions. Returns `(pivots, l)` where `l`
/// is the lower-triangular factor over pivot positions:
/// `S[piv[i], piv[j]] = Σ_t l[i][t]·l[j][t]`.
#[allow(clippy::needless_range_loop)]
fn pivoted_cholesky(s: &[Vec<f64>], thresh: f64) -> (Vec<usize>, Vec<Vec<f64>>) {
    let m = s.len();
    let mut order: Vec<usize> = (0..m).collect();
    let mut d: Vec<f64> = (0..m).map(|i| s[i][i]).collect();
    let mut l = vec![vec![0.0; m]; m];
    let mut rank = 0;
    for k in 0..m {
        // Deterministic pivot: max remaining updated diagonal, lowest
        // original index on ties.
        let mut best = k;
        for t in (k + 1)..m {
            let (dt, db) = (d[order[t]], d[order[best]]);
            if dt > db || (dt == db && order[t] < order[best]) {
                best = t;
            }
        }
        if d[order[best]] <= thresh {
            break;
        }
        order.swap(k, best);
        l.swap(k, best);
        let pk = order[k];
        let lkk = d[pk].sqrt();
        l[k][k] = lkk;
        for t in (k + 1)..m {
            let pt = order[t];
            let mut acc = s[pt][pk];
            for u in 0..k {
                acc -= l[t][u] * l[k][u];
            }
            let ltk = acc / lkk;
            l[t][k] = ltk;
            d[pt] -= ltk * ltk;
        }
        rank = k + 1;
    }
    order.truncate(rank);
    l.truncate(rank);
    for (i, row) in l.iter_mut().enumerate() {
        row.truncate(i + 1);
    }
    (order, l)
}

/// Solves `L·Lᵀ·x = rhs` for the rank-revealed factor of
/// [`pivoted_cholesky`], one column at a time.
fn chol_solve_cols(l: &[Vec<f64>], rhs: &mut [Vec<f64>]) {
    let r = l.len();
    for col in rhs.iter_mut() {
        for i in 0..r {
            let mut v = col[i];
            for t in 0..i {
                v -= l[i][t] * col[t];
            }
            col[i] = v / l[i][i];
        }
        for i in (0..r).rev() {
            let mut v = col[i];
            for t in (i + 1)..r {
                v -= l[t][i] * col[t];
            }
            col[i] = v / l[i][i];
        }
    }
}

/// Multi-RHS block conjugate gradients for a symmetric positive-definite
/// operator: solves `A·X = B` for all columns of `B` in one Krylov
/// iteration, so every operator application (`apply_block` over the
/// whole direction panel) amortizes kernel traffic across the columns.
///
/// Mechanics per iteration:
///
/// 1. `Q = A·P` over the active direction panel (one blocked operator
///    sweep);
/// 2. the direction Gram matrix `PᵀQ` is **rank-revealed** by pivoted
///    Cholesky — numerically dependent directions are deflated out of
///    the panel instead of breaking the iteration;
/// 3. the panel step `α` solves the Galerkin system on the retained
///    directions, updating every active column;
/// 4. columns whose residual reaches `tol · ‖b_j‖` **retire** from the
///    panel — later iterations never spend matvecs on them;
/// 5. the next panel A-orthogonalizes the preconditioned residuals
///    against the retained directions.
///
/// All recurrences are serial and the panel order is fixed (ascending
/// column index), so the result is bit-identical for any `PDN_THREADS`
/// — the caller's `apply_block` must be deterministic too (the
/// compressed-kernel block matvecs are).
///
/// Agrees with per-column [`solve_spd_pc`] to the solver tolerance
/// (property-tested in `tests/block_solver.rs`), not bit-for-bit: the
/// shared Krylov panel takes a different (shorter) path to the same
/// tolerance.
///
/// # Errors
///
/// [`IterativeSolveError::BadShape`] on dimension mismatches,
/// [`IterativeSolveError::NotConverged`] (worst remaining column
/// residual, requested tolerance, and a Jacobi hint) when `max_iter` is
/// exhausted, and [`IterativeSolveError::Breakdown`] when the operator
/// shows non-positive curvature.
#[allow(clippy::type_complexity, clippy::needless_range_loop)]
pub fn solve_spd_block(
    n: usize,
    apply_block: &dyn Fn(&[Vec<f64>]) -> Vec<Vec<f64>>,
    pc: &dyn Preconditioner,
    b: &[Vec<f64>],
    tol: f64,
    max_iter: usize,
) -> Result<Vec<Vec<f64>>, IterativeSolveError> {
    let s = b.len();
    if pc.len() != n || b.iter().any(|col| col.len() != n) {
        return Err(IterativeSolveError::BadShape);
    }
    let b_norm: Vec<f64> = b
        .iter()
        .map(|col| col.iter().map(|v| v * v).sum::<f64>().sqrt())
        .collect();
    let mut x = vec![vec![0.0; n]; s];
    // Zero columns are already solved; everything else starts active, in
    // ascending column order — the panel order is part of the
    // determinism contract.
    let mut active: Vec<usize> = (0..s).filter(|&j| b_norm[j] > 0.0).collect();
    let mut r: Vec<Vec<f64>> = active.iter().map(|&j| b[j].clone()).collect();
    let mut p: Vec<Vec<f64>> = vec![vec![0.0; n]; r.len()];
    pc.apply_panel_into(&r, &mut p);
    let mut iters = 0usize;
    while !active.is_empty() {
        if iters == max_iter {
            let worst = active
                .iter()
                .zip(&r)
                .map(|(&j, rc)| rc.iter().map(|v| v * v).sum::<f64>().sqrt() / b_norm[j])
                .fold(0.0f64, f64::max);
            return Err(IterativeSolveError::NotConverged {
                iterations: max_iter,
                residual: worst,
                tol,
                jacobi: pc.is_jacobi(),
            });
        }
        iters += 1;
        CG_ITERATIONS.fetch_add(1, Ordering::Relaxed);
        let q = apply_block(&p);
        if q.len() != p.len() || q.iter().any(|col| col.len() != n) {
            return Err(IterativeSolveError::BadShape);
        }
        // Direction Gram matrix S = PᵀQ (= PᵀAP), symmetrized.
        let sa = p.len();
        let q_all: Vec<&Vec<f64>> = q.iter().collect();
        let mut gram: Vec<Vec<f64>> = p.iter().map(|pi| dots_grouped(pi, &q_all)).collect();
        for i in 0..sa {
            for j in (i + 1)..sa {
                let v = 0.5 * (gram[i][j] + gram[j][i]);
                gram[i][j] = v;
                gram[j][i] = v;
            }
        }
        let d0 = (0..sa)
            .map(|i| gram[i][i])
            .fold(f64::NEG_INFINITY, f64::max);
        if d0 <= 0.0 {
            // No direction has positive curvature: the operator is not
            // SPD (the scalar driver's `pᵀAp ≤ 0` check, panel-wide).
            return Err(IterativeSolveError::Breakdown { index: None });
        }
        let thresh = d0 * (sa as f64) * f64::EPSILON * 64.0;
        if (0..sa).any(|i| gram[i][i] < -thresh) {
            return Err(IterativeSolveError::Breakdown { index: None });
        }
        let (piv, l) = pivoted_cholesky(&gram, thresh);
        let rank = piv.len();
        if rank == 0 {
            return Err(IterativeSolveError::Breakdown { index: None });
        }
        // Galerkin step on the retained directions: α = S_r⁻¹ · P_rᵀR.
        let p_piv: Vec<&Vec<f64>> = piv.iter().map(|&d| &p[d]).collect();
        let q_piv: Vec<&Vec<f64>> = piv.iter().map(|&d| &q[d]).collect();
        let mut alpha: Vec<Vec<f64>> = r.iter().map(|rc| dots_grouped(rc, &p_piv)).collect();
        chol_solve_cols(&l, &mut alpha);
        for (c, &j) in active.iter().enumerate() {
            // Zero coefficients are skipped outright (never added as
            // `+ 0.0`, which could flip a `-0.0`), exactly like the
            // per-direction passes this fuses.
            let x_terms: Vec<(f64, &Vec<f64>)> = alpha[c]
                .iter()
                .zip(&p_piv)
                .filter(|(&a, _)| a != 0.0)
                .map(|(&a, &pd)| (a, pd))
                .collect();
            axpys_grouped(&mut x[j], &x_terms);
            let r_terms: Vec<(f64, &Vec<f64>)> = alpha[c]
                .iter()
                .zip(&q_piv)
                .filter(|(&a, _)| a != 0.0)
                .map(|(&a, &qd)| (-a, qd))
                .collect();
            axpys_grouped(&mut r[c], &r_terms);
        }
        // Retire converged columns (checked in panel order).
        let mut keep_r: Vec<Vec<f64>> = Vec::with_capacity(r.len());
        let mut keep_active: Vec<usize> = Vec::with_capacity(active.len());
        for (c, &j) in active.iter().enumerate() {
            let res = r[c].iter().map(|v| v * v).sum::<f64>().sqrt() / b_norm[j];
            if res <= tol {
                continue;
            }
            keep_active.push(j);
            keep_r.push(std::mem::take(&mut r[c]));
        }
        active = keep_active;
        r = keep_r;
        if active.is_empty() {
            break;
        }
        // Next panel: preconditioned residuals, A-orthogonalized against
        // the retained directions (β = S_r⁻¹ · Q_rᵀZ).
        let mut z: Vec<Vec<f64>> = vec![vec![0.0; n]; r.len()];
        pc.apply_panel_into(&r, &mut z);
        let mut beta: Vec<Vec<f64>> = z.iter().map(|zc| dots_grouped(zc, &q_piv)).collect();
        chol_solve_cols(&l, &mut beta);
        let mut p_next: Vec<Vec<f64>> = Vec::with_capacity(z.len());
        for (c, mut zc) in z.into_iter().enumerate() {
            let terms: Vec<(f64, &Vec<f64>)> = beta[c]
                .iter()
                .zip(&p_piv)
                .filter(|(&bc, _)| bc != 0.0)
                .map(|(&bc, &pd)| (-bc, pd))
                .collect();
            axpys_grouped(&mut zc, &terms);
            p_next.push(zc);
        }
        p = p_next;
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;
    use crate::precond::BlockJacobiPreconditioner;

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
                iterations,
                tol,
                jacobi,
                ..
            }) => {
                assert_eq!(iterations, 2);
                assert_eq!(tol, 1e-14);
                assert!(jacobi);
            }
            other => panic!("expected NotConverged, got {other:?}"),
        }
    }

    #[test]
    fn not_converged_display_names_tolerance_and_jacobi_hint() {
        let err = IterativeSolveError::NotConverged {
            iterations: 7,
            residual: 3.2e-3,
            tol: 1e-10,
            jacobi: true,
        };
        let msg = err.to_string();
        assert!(msg.contains("7 iterations"), "{msg}");
        assert!(msg.contains("1.0e-10"), "{msg}");
        assert!(msg.contains("Jacobi"), "{msg}");
        let quiet = IterativeSolveError::NotConverged {
            iterations: 7,
            residual: 3.2e-3,
            tol: 1e-10,
            jacobi: false,
        };
        assert!(!quiet.to_string().contains("Jacobi"));
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

    // --- block CG ---------------------------------------------------------

    fn block_apply(a: &Matrix<f64>) -> impl Fn(&[Vec<f64>]) -> Vec<Vec<f64>> + '_ {
        |cols: &[Vec<f64>]| cols.iter().map(|c| a.matvec(c)).collect()
    }

    #[test]
    fn block_agrees_with_scalar_per_column() {
        let a = spd(40);
        let diag: Vec<f64> = (0..40).map(|i| a[(i, i)]).collect();
        let pc = JacobiPreconditioner::new(&diag).unwrap();
        let b: Vec<Vec<f64>> = (0..6)
            .map(|j| {
                (0..40)
                    .map(|i| ((i * (j + 2)) as f64 * 0.23).sin())
                    .collect()
            })
            .collect();
        let xs = solve_spd_block(40, &block_apply(&a), &pc, &b, 1e-11, 500).unwrap();
        for (j, col) in b.iter().enumerate() {
            let x_scalar = solve_spd_pc(40, &|v| a.matvec(v), &pc, col, 1e-11, 500).unwrap();
            for i in 0..40 {
                assert!(
                    (xs[j][i] - x_scalar[i]).abs() <= 1e-8 * x_scalar[i].abs().max(1.0),
                    "col {j} entry {i}: {} vs {}",
                    xs[j][i],
                    x_scalar[i]
                );
            }
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn block_deflates_duplicate_columns() {
        // Two identical RHS columns make the direction panel rank
        // deficient from iteration one; the solver must deflate, not
        // break down, and both columns must solve.
        let a = spd(24);
        let diag: Vec<f64> = (0..24).map(|i| a[(i, i)]).collect();
        let pc = JacobiPreconditioner::new(&diag).unwrap();
        let col: Vec<f64> = (0..24).map(|i| (i as f64 * 0.4).cos()).collect();
        let b = vec![col.clone(), col.clone(), col];
        let xs = solve_spd_block(24, &block_apply(&a), &pc, &b, 1e-11, 200).unwrap();
        for j in 0..3 {
            let back = a.matvec(&xs[j]);
            for i in 0..24 {
                assert!(approx_eq(back[i], b[j][i], 1e-8), "col {j} entry {i}");
            }
        }
        // Duplicates converge to the bit-identical solution: same panel,
        // same deterministic arithmetic.
        for i in 0..24 {
            assert_eq!(xs[0][i].to_bits(), xs[1][i].to_bits(), "entry {i}");
        }
    }

    #[test]
    fn block_handles_zero_and_empty_columns() {
        let a = spd(8);
        let diag: Vec<f64> = (0..8).map(|i| a[(i, i)]).collect();
        let pc = JacobiPreconditioner::new(&diag).unwrap();
        let b = vec![vec![0.0; 8], (0..8).map(|i| i as f64).collect()];
        let xs = solve_spd_block(8, &block_apply(&a), &pc, &b, 1e-11, 100).unwrap();
        assert!(xs[0].iter().all(|&v| v == 0.0));
        let back = a.matvec(&xs[1]);
        for i in 0..8 {
            assert!(approx_eq(back[i], b[1][i], 1e-8), "entry {i}");
        }
        assert!(solve_spd_block(8, &block_apply(&a), &pc, &[], 1e-11, 100)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn block_reports_worst_residual_on_iteration_cap() {
        let mut a = spd(20);
        a[(0, 0)] += 1e9;
        let diag: Vec<f64> = (0..20).map(|i| a[(i, i)]).collect();
        let pc = JacobiPreconditioner::new(&diag).unwrap();
        let b = vec![vec![1.0; 20], (0..20).map(|i| i as f64 - 10.0).collect()];
        let apply = block_apply(&a);
        match solve_spd_block(20, &apply, &pc, &b, 1e-14, 2) {
            Err(IterativeSolveError::NotConverged {
                iterations,
                residual,
                tol,
                jacobi,
            }) => {
                assert_eq!(iterations, 2);
                assert!(residual > 0.0);
                assert_eq!(tol, 1e-14);
                assert!(jacobi);
            }
            other => panic!("expected NotConverged, got {other:?}"),
        }
    }

    #[test]
    fn block_breaks_down_on_indefinite_operator() {
        let a = Matrix::from_rows(&[&[1.0, 4.0], &[4.0, 1.0]]);
        let pc = JacobiPreconditioner::new(&[1.0, 1.0]).unwrap();
        let b = vec![vec![1.0, -1.0]];
        assert!(matches!(
            solve_spd_block(2, &block_apply(&a), &pc, &b, 1e-12, 10),
            Err(IterativeSolveError::Breakdown { .. })
        ));
    }

    #[test]
    fn block_with_hierarchical_preconditioner_converges() {
        // Block-Jacobi over two clusters on a moderately conditioned
        // matrix: same answers as the direct solve.
        let a = spd(16);
        let c0: Vec<usize> = (0..8).collect();
        let c1: Vec<usize> = (8..16).collect();
        let pc = BlockJacobiPreconditioner::from_blocks(
            16,
            vec![
                (c0.clone(), a.submatrix(&c0, &c0)),
                (c1.clone(), a.submatrix(&c1, &c1)),
            ],
        )
        .unwrap();
        let b: Vec<Vec<f64>> = (0..4)
            .map(|j| (0..16).map(|i| ((i + j * 3) as f64 * 0.7).sin()).collect())
            .collect();
        let xs = solve_spd_block(16, &block_apply(&a), &pc, &b, 1e-12, 200).unwrap();
        for (j, col) in b.iter().enumerate() {
            let x_lu = crate::lu::solve(a.clone(), col).unwrap();
            for i in 0..16 {
                assert!(approx_eq(xs[j][i], x_lu[i], 1e-8), "col {j} entry {i}");
            }
        }
    }
}
