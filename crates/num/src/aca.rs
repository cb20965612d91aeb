//! Adaptive cross approximation (ACA) of numerically low-rank matrices.
//!
//! Far-field blocks of smooth integral-operator kernels (the BEM `P` and
//! `L` matrices of `pdn-greens`/`pdn-bem`) have rapidly decaying singular
//! values, so a rank-`k` factorization `A ≈ U·Vᵀ` with `k ≪ min(m, n)`
//! captures them to any prescribed tolerance. [`aca`] builds that
//! factorization from `O(k)` sampled rows and columns with **partial
//! pivoting** — no dense assembly of the block ever happens — and
//! [`LowRank::recompress`] trims the slightly overshooting ACA rank down
//! to the numerical rank via a QR + Jacobi-SVD pass.
//!
//! Every pivot decision uses a fixed deterministic rule (largest residual
//! magnitude, lowest index on ties, rows scanned in ascending order), so
//! the factorization is bit-identical for any thread count — the same
//! contract every assembly path in this workspace keeps.

use crate::matrix::Matrix;

/// `y[i] += Σ_l t_l·scatter[i, l]` in ascending `l`, where
/// `t_l = Σ_j gather[j, l]·x[j]` is summed from `−0.0` (as
/// `Iterator::sum` does) in ascending `j` — the serial low-rank matvec,
/// with all `k` sums formed in one pass over the rows of `gather`.
fn apply(gather: &Matrix<f64>, scatter: &Matrix<f64>, x: &[f64], y: &mut [f64]) {
    let k = gather.ncols();
    if k == 0 {
        return;
    }
    let mut t = vec![-0.0f64; k];
    for (j, &xj) in x[..gather.nrows()].iter().enumerate() {
        for (tl, &g) in t.iter_mut().zip(gather.row(j)) {
            *tl += g * xj;
        }
    }
    for (i, yi) in y.iter_mut().enumerate() {
        for (&tl, &sc) in t.iter().zip(scatter.row(i)) {
            *yi += tl * sc;
        }
    }
}

/// A rank-`k` factorization `A ≈ U·Vᵀ` (`U` is `m×k`, `V` is `n×k`).
#[derive(Debug, Clone, PartialEq)]
pub struct LowRank {
    u: Matrix<f64>,
    v: Matrix<f64>,
}

impl LowRank {
    /// Builds the factorization from its factors.
    ///
    /// # Panics
    ///
    /// Panics when the factor column counts differ.
    pub fn new(u: Matrix<f64>, v: Matrix<f64>) -> Self {
        assert_eq!(u.ncols(), v.ncols(), "factor ranks must match");
        LowRank { u, v }
    }

    /// The exact rank-0 approximation of an `m×n` block.
    pub fn zero(m: usize, n: usize) -> Self {
        LowRank {
            u: Matrix::zeros(m, 0),
            v: Matrix::zeros(n, 0),
        }
    }

    /// Number of rows of the approximated block.
    pub fn nrows(&self) -> usize {
        self.u.nrows()
    }

    /// Number of columns of the approximated block.
    pub fn ncols(&self) -> usize {
        self.v.nrows()
    }

    /// The factorization rank `k`.
    pub fn rank(&self) -> usize {
        self.u.ncols()
    }

    /// The left factor `U` (`m×k`).
    pub fn u(&self) -> &Matrix<f64> {
        &self.u
    }

    /// The right factor `V` (`n×k`; the block is `U·Vᵀ`).
    pub fn v(&self) -> &Matrix<f64> {
        &self.v
    }

    /// Stored bytes of both factors.
    pub fn stored_bytes(&self) -> usize {
        8 * self.rank() * (self.nrows() + self.ncols())
    }

    /// Entry `(i, j)` of the approximation.
    pub fn entry(&self, i: usize, j: usize) -> f64 {
        (0..self.rank())
            .map(|k| self.u[(i, k)] * self.v[(j, k)])
            .sum()
    }

    /// Row `i` of the approximation.
    pub fn row(&self, i: usize) -> Vec<f64> {
        let (n, k) = (self.ncols(), self.rank());
        let mut out = vec![0.0; n];
        for l in 0..k {
            let ui = self.u[(i, l)];
            if ui != 0.0 {
                for (j, o) in out.iter_mut().enumerate() {
                    *o += ui * self.v[(j, l)];
                }
            }
        }
        out
    }

    /// `y += (U·Vᵀ)·x`.
    ///
    /// Each inner product `t_l = Σ_j V[j, l]·x[j]` is summed from `−0.0`
    /// in ascending `j`, and each `y_i` then receives `t_l·U[i, l]` in
    /// ascending `l`. All `k` inner products are formed in one pass over
    /// the contiguous rows of `V`, so they run as independent sums.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        apply(&self.v, &self.u, x, y);
    }

    /// `y += (U·Vᵀ)ᵀ·x = V·Uᵀ·x`, with the summation order of
    /// [`LowRank::matvec_into`] and the factor roles swapped.
    pub fn matvec_transpose_into(&self, x: &[f64], y: &mut [f64]) {
        apply(&self.u, &self.v, x, y);
    }

    /// Densifies the approximation (diagnostics and small-block tests).
    pub fn to_dense(&self) -> Matrix<f64> {
        Matrix::from_fn(self.nrows(), self.ncols(), |i, j| self.entry(i, j))
    }

    /// Frobenius norm of the approximation, computed from the factors in
    /// `O(k²(m + n))` without densifying.
    pub fn frobenius_norm(&self) -> f64 {
        let k = self.rank();
        let mut total = 0.0;
        for a in 0..k {
            for b in 0..k {
                let uu: f64 = (0..self.nrows())
                    .map(|i| self.u[(i, a)] * self.u[(i, b)])
                    .sum();
                let vv: f64 = (0..self.ncols())
                    .map(|j| self.v[(j, a)] * self.v[(j, b)])
                    .sum();
                total += uu * vv;
            }
        }
        total.max(0.0).sqrt()
    }

    /// Re-orthogonalizes and truncates the factorization so that the
    /// dropped part has Frobenius norm at most `tol` relative to the
    /// block: QR both factors, SVD the small core, and keep the leading
    /// singular triplets. ACA typically overshoots the numerical rank by
    /// a few; this trims the overshoot before the factors are stored.
    pub fn recompress(&self, tol: f64) -> LowRank {
        let k = self.rank();
        if k == 0 {
            return self.clone();
        }
        let (qu, ru) = qr_mgs(&self.u);
        let (qv, rv) = qr_mgs(&self.v);
        // core = Ru·Rvᵀ is k×k; its SVD is the SVD of the block up to the
        // orthogonal factors Qu, Qv.
        let core = ru.matmul(&rv.transpose());
        let (w, s, z) = jacobi_svd(&core);
        // Keep the shortest prefix whose dropped tail is below tolerance.
        let total2: f64 = s.iter().map(|x| x * x).sum();
        if total2 == 0.0 {
            return LowRank::zero(self.nrows(), self.ncols());
        }
        let budget2 = (tol * tol) * total2;
        let mut tail2 = 0.0;
        let mut keep = k;
        while keep > 0 {
            let next = tail2 + s[keep - 1] * s[keep - 1];
            if next > budget2 {
                break;
            }
            tail2 = next;
            keep -= 1;
        }
        if keep == 0 {
            return LowRank::zero(self.nrows(), self.ncols());
        }
        // U' = Qu·W·diag(s) (m×keep), V' = Qv·Z (n×keep).
        let mut u = Matrix::zeros(self.nrows(), keep);
        for i in 0..self.nrows() {
            for c in 0..keep {
                let mut acc = 0.0;
                for l in 0..k {
                    acc += qu[(i, l)] * w[(l, c)];
                }
                u[(i, c)] = acc * s[c];
            }
        }
        let mut v = Matrix::zeros(self.ncols(), keep);
        for j in 0..self.ncols() {
            for c in 0..keep {
                let mut acc = 0.0;
                for l in 0..k {
                    acc += qv[(j, l)] * z[(l, c)];
                }
                v[(j, c)] = acc;
            }
        }
        LowRank { u, v }
    }
}

/// Partially pivoted ACA of an `nrows×ncols` block given row/column
/// generators (each returns one full row/column of the exact block).
///
/// Stops when the rank-1 update `u_k·v_kᵀ` falls below `tol` relative to
/// the running Frobenius estimate of the approximation, or at `max_rank`.
/// A block whose sampled rows are all exactly zero comes back as the
/// exact [`LowRank::zero`] factorization (rank 0).
///
/// Pivoting is fully deterministic: the first pivot row is row 0, column
/// pivots maximize the residual magnitude with lowest-index tie-breaks,
/// and the next pivot row maximizes `|u_k|` over unused rows (again
/// lowest index on ties). No scheduling decision enters the result.
pub fn aca(
    nrows: usize,
    ncols: usize,
    row: &dyn Fn(usize) -> Vec<f64>,
    col: &dyn Fn(usize) -> Vec<f64>,
    tol: f64,
    max_rank: usize,
) -> LowRank {
    assert!(
        tol > 0.0 && tol.is_finite(),
        "ACA tolerance must be positive"
    );
    if nrows == 0 || ncols == 0 || max_rank == 0 {
        return LowRank::zero(nrows, ncols);
    }
    let mut us: Vec<Vec<f64>> = Vec::new();
    let mut vs: Vec<Vec<f64>> = Vec::new();
    let mut row_used = vec![false; nrows];
    let mut frob2 = 0.0f64;
    let mut pivot_row = 0usize;
    loop {
        // Residual row at the pivot: a(i,·) − Σ_k u_k[i]·v_k.
        let mut r = row(pivot_row);
        debug_assert_eq!(r.len(), ncols);
        for (uk, vk) in us.iter().zip(&vs) {
            let ui = uk[pivot_row];
            if ui != 0.0 {
                for (rj, vj) in r.iter_mut().zip(vk) {
                    *rj -= ui * vj;
                }
            }
        }
        row_used[pivot_row] = true;
        // Column pivot: largest |residual|, lowest index on ties.
        let (mut pj, mut pmax) = (0usize, 0.0f64);
        for (j, &rj) in r.iter().enumerate() {
            if rj.abs() > pmax {
                pmax = rj.abs();
                pj = j;
            }
        }
        if pmax == 0.0 {
            // Row already exactly represented (or identically zero): move
            // to the lowest unused row, or stop when none remain.
            match row_used.iter().position(|&used| !used) {
                Some(next) => {
                    pivot_row = next;
                    continue;
                }
                None => break,
            }
        }
        let pivot = r[pj];
        let v_new: Vec<f64> = r.iter().map(|&x| x / pivot).collect();
        let mut u_new = col(pj);
        debug_assert_eq!(u_new.len(), nrows);
        for (uk, vk) in us.iter().zip(&vs) {
            let vj = vk[pj];
            if vj != 0.0 {
                for (ui, uki) in u_new.iter_mut().zip(uk) {
                    *ui -= vj * uki;
                }
            }
        }
        // Frobenius estimate of the running approximation:
        // ‖Ã_k‖² = ‖Ã_{k−1}‖² + 2·Σ_l (u_kᵀu_l)(v_lᵀv_k) + ‖u_k‖²‖v_k‖².
        let u2: f64 = u_new.iter().map(|x| x * x).sum();
        let v2: f64 = v_new.iter().map(|x| x * x).sum();
        let mut cross = 0.0;
        for (uk, vk) in us.iter().zip(&vs) {
            let uu: f64 = u_new.iter().zip(uk).map(|(a, b)| a * b).sum();
            let vv: f64 = v_new.iter().zip(vk).map(|(a, b)| a * b).sum();
            cross += uu * vv;
        }
        frob2 = (frob2 + 2.0 * cross + u2 * v2).max(0.0);
        us.push(u_new);
        vs.push(v_new);
        let update = (u2 * v2).sqrt();
        if update <= tol * frob2.sqrt() || us.len() >= max_rank {
            break;
        }
        // Next pivot row: largest |u_k| over unused rows, lowest index on
        // ties; fall back to the lowest unused row when u_k vanishes there.
        let last_u = us.last().expect("just pushed");
        let (mut best, mut best_mag) = (usize::MAX, 0.0f64);
        for (i, &ui) in last_u.iter().enumerate() {
            if !row_used[i] && ui.abs() > best_mag {
                best_mag = ui.abs();
                best = i;
            }
        }
        if best == usize::MAX {
            match row_used.iter().position(|&used| !used) {
                Some(next) => best = next,
                None => break,
            }
        }
        pivot_row = best;
    }
    let k = us.len();
    let mut u = Matrix::zeros(nrows, k);
    let mut v = Matrix::zeros(ncols, k);
    for (l, (uk, vk)) in us.iter().zip(&vs).enumerate() {
        for (i, &x) in uk.iter().enumerate() {
            u[(i, l)] = x;
        }
        for (j, &x) in vk.iter().enumerate() {
            v[(j, l)] = x;
        }
    }
    LowRank { u, v }
}

/// Thin QR by modified Gram–Schmidt: `a = Q·R` with `Q` having
/// orthonormal (or zero, for dependent input) columns. Adequate for the
/// small `k` of recompression cores; no pivoting so the output is a pure
/// function of the input.
fn qr_mgs(a: &Matrix<f64>) -> (Matrix<f64>, Matrix<f64>) {
    let (m, k) = a.shape();
    let mut q = a.clone();
    let mut r = Matrix::zeros(k, k);
    for j in 0..k {
        for i in 0..j {
            let dot: f64 = (0..m).map(|t| q[(t, i)] * q[(t, j)]).sum();
            r[(i, j)] = dot;
            for t in 0..m {
                q[(t, j)] -= dot * q[(t, i)];
            }
        }
        let norm: f64 = (0..m).map(|t| q[(t, j)] * q[(t, j)]).sum::<f64>().sqrt();
        r[(j, j)] = norm;
        if norm > 0.0 {
            for t in 0..m {
                q[(t, j)] /= norm;
            }
        }
    }
    (q, r)
}

/// One-sided Jacobi SVD of a small square matrix: `a = U·diag(s)·Vᵀ`
/// with `s` descending. Deterministic sweep order (ascending column
/// pairs), so the result is a pure function of the input.
fn jacobi_svd(a: &Matrix<f64>) -> (Matrix<f64>, Vec<f64>, Matrix<f64>) {
    let k = a.nrows();
    assert_eq!(a.ncols(), k, "jacobi_svd expects a square core");
    let mut w = a.clone();
    let mut v = Matrix::identity(k);
    let eps = 1e-15;
    for _sweep in 0..60 {
        let mut off = 0.0f64;
        for p in 0..k {
            for q in (p + 1)..k {
                let alpha: f64 = (0..k).map(|t| w[(t, p)] * w[(t, p)]).sum();
                let beta: f64 = (0..k).map(|t| w[(t, q)] * w[(t, q)]).sum();
                let gamma: f64 = (0..k).map(|t| w[(t, p)] * w[(t, q)]).sum();
                if gamma.abs() <= eps * (alpha * beta).sqrt() || gamma == 0.0 {
                    continue;
                }
                off = off.max(gamma.abs() / (alpha * beta).sqrt().max(f64::MIN_POSITIVE));
                let zeta = (beta - alpha) / (2.0 * gamma);
                let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                for m in [&mut w, &mut v] {
                    for t_row in 0..k {
                        let (mp, mq) = (m[(t_row, p)], m[(t_row, q)]);
                        m[(t_row, p)] = c * mp - s * mq;
                        m[(t_row, q)] = s * mp + c * mq;
                    }
                }
            }
        }
        if off < 1e-14 {
            break;
        }
    }
    // Column norms are the singular values; normalize U columns.
    let mut order: Vec<usize> = (0..k).collect();
    let norms: Vec<f64> = (0..k)
        .map(|j| (0..k).map(|t| w[(t, j)] * w[(t, j)]).sum::<f64>().sqrt())
        .collect();
    // Descending by magnitude; ascending index on ties (deterministic).
    order.sort_by(|&a_j, &b_j| {
        norms[b_j]
            .partial_cmp(&norms[a_j])
            .expect("finite singular values")
            .then(a_j.cmp(&b_j))
    });
    let mut u = Matrix::zeros(k, k);
    let mut vt = Matrix::zeros(k, k);
    let mut s = vec![0.0; k];
    for (c, &j) in order.iter().enumerate() {
        s[c] = norms[j];
        for t in 0..k {
            u[(t, c)] = if norms[j] > 0.0 {
                w[(t, j)] / norms[j]
            } else {
                0.0
            };
            vt[(t, c)] = v[(t, j)];
        }
    }
    (u, s, vt)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A smooth 1/(1+|x−y|) kernel block: numerically low rank.
    fn smooth_block(m: usize, n: usize, gap: f64) -> Matrix<f64> {
        Matrix::from_fn(m, n, |i, j| {
            1.0 / (gap + (i as f64 - (j as f64 + gap)).abs())
        })
    }

    fn rel_err(a: &Matrix<f64>, lr: &LowRank) -> f64 {
        let d = lr.to_dense();
        let mut num = 0.0;
        let mut den = 0.0;
        for i in 0..a.nrows() {
            for j in 0..a.ncols() {
                num += (a[(i, j)] - d[(i, j)]).powi(2);
                den += a[(i, j)].powi(2);
            }
        }
        (num / den.max(f64::MIN_POSITIVE)).sqrt()
    }

    fn aca_of(a: &Matrix<f64>, tol: f64) -> LowRank {
        aca(
            a.nrows(),
            a.ncols(),
            &|i| a.row(i).to_vec(),
            &|j| a.col(j),
            tol,
            a.nrows().min(a.ncols()),
        )
    }

    #[test]
    fn smooth_kernel_compresses_below_tolerance() {
        let a = smooth_block(40, 60, 30.0);
        let lr = aca_of(&a, 1e-8);
        assert!(lr.rank() < 20, "rank {} for a smooth block", lr.rank());
        assert!(rel_err(&a, &lr) < 1e-7, "err {:.3e}", rel_err(&a, &lr));
    }

    #[test]
    fn zero_block_has_rank_zero() {
        let a = Matrix::zeros(8, 5);
        let lr = aca_of(&a, 1e-6);
        assert_eq!(lr.rank(), 0);
        assert_eq!(lr.to_dense(), a);
        assert_eq!(lr.stored_bytes(), 0);
    }

    #[test]
    fn exact_low_rank_block_recovered_exactly() {
        // Rank-2 block: ACA terminates at rank 2 with zero residual.
        let u = Matrix::from_fn(10, 2, |i, k| (i + k + 1) as f64);
        let v = Matrix::from_fn(7, 2, |j, k| 1.0 / (j + k + 1) as f64);
        let a = u.matmul(&v.transpose());
        let lr = aca_of(&a, 1e-12);
        assert!(lr.rank() <= 3);
        assert!(rel_err(&a, &lr) < 1e-12);
    }

    #[test]
    fn recompression_trims_rank_and_keeps_accuracy() {
        let a = smooth_block(50, 50, 25.0);
        let lr = aca_of(&a, 1e-10);
        let rc = lr.recompress(1e-8);
        assert!(rc.rank() <= lr.rank());
        assert!(rel_err(&a, &rc) < 1e-7, "err {:.3e}", rel_err(&a, &rc));
    }

    #[test]
    fn recompression_of_redundant_factors_collapses_rank() {
        // Same rank-1 outer product stacked three times: numerical rank 1.
        let u = Matrix::from_fn(12, 3, |i, _| (1.0 + i as f64).recip());
        let v = Matrix::from_fn(9, 3, |j, _| (2.0 + j as f64).sqrt());
        let rc = LowRank::new(u, v).recompress(1e-12);
        assert_eq!(rc.rank(), 1);
    }

    #[test]
    fn matvec_matches_dense() {
        let a = smooth_block(30, 20, 12.0);
        let lr = aca_of(&a, 1e-10);
        let x: Vec<f64> = (0..20).map(|j| ((j * 7) % 5) as f64 - 2.0).collect();
        let mut y = vec![0.0; 30];
        lr.matvec_into(&x, &mut y);
        let y_dense = a.matvec(&x);
        for i in 0..30 {
            assert!((y[i] - y_dense[i]).abs() < 1e-8 * y_dense[i].abs().max(1.0));
        }
        let xt: Vec<f64> = (0..30).map(|i| (i as f64 * 0.3).cos()).collect();
        let mut yt = vec![0.0; 20];
        lr.matvec_transpose_into(&xt, &mut yt);
        let yt_dense = a.transpose().matvec(&xt);
        for j in 0..20 {
            assert!((yt[j] - yt_dense[j]).abs() < 1e-8 * yt_dense[j].abs().max(1.0));
        }
    }

    #[test]
    fn deterministic_for_identical_inputs() {
        let a = smooth_block(25, 25, 10.0);
        let l1 = aca_of(&a, 1e-7).recompress(1e-7);
        let l2 = aca_of(&a, 1e-7).recompress(1e-7);
        assert_eq!(l1, l2, "ACA must be a pure function of its inputs");
    }

    #[test]
    fn jacobi_svd_reproduces_singular_values() {
        let a = Matrix::from_rows(&[&[3.0, 1.0, 0.0], &[1.0, 3.0, 1.0], &[0.0, 1.0, 3.0]]);
        let (u, s, v) = jacobi_svd(&a);
        assert!(s[0] >= s[1] && s[1] >= s[2]);
        // Reconstruct.
        let recon = Matrix::from_fn(3, 3, |i, j| {
            (0..3).map(|k| u[(i, k)] * s[k] * v[(j, k)]).sum::<f64>()
        });
        for i in 0..3 {
            for j in 0..3 {
                assert!((recon[(i, j)] - a[(i, j)]).abs() < 1e-12);
            }
        }
        // Orthonormal factors.
        for a_col in 0..3 {
            for b_col in 0..3 {
                let dot: f64 = (0..3).map(|t| u[(t, a_col)] * u[(t, b_col)]).sum();
                let want = if a_col == b_col { 1.0 } else { 0.0 };
                assert!((dot - want).abs() < 1e-10);
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn invalid_tolerance_panics() {
        let _ = aca(2, 2, &|_| vec![0.0; 2], &|_| vec![0.0; 2], 0.0, 2);
    }
}
