//! Cache-tiled GEMM-style microkernels behind the blocked factorizations.
//!
//! The blocked LU ([`crate::LuDecomposition`]) and Cholesky
//! ([`crate::CholeskyDecomposition`]) spend almost all of their time in one
//! operation: the trailing-matrix update `C -= A·B`. This module is that
//! operation, written the same way the ACA panel kernels of
//! [`crate::aca`] are: explicit fixed-width f64 lane groups ([`LANES`] = 8)
//! with zero-held tails and a fixed reduction order, so the result is
//! **bit-identical for any worker count** — the lane loops carry no
//! cross-lane reductions and every accumulator sums its `k` products in
//! ascending order.
//!
//! Complex matrices are processed in split re/im form: each `B` column
//! group is unpacked once into separate real and imaginary f64 planes, and
//! the inner loop runs the four-real-multiply complex MAC on plain f64
//! lanes. Both element types implement [`GemmScalar`], the trait bound the
//! blocked factorizations use.
//!
//! # Instruction-set dispatch
//!
//! On `x86_64` the kernel bodies are additionally compiled under
//! `#[target_feature(enable = "avx2")]` and selected at runtime with
//! [`std::arch::is_x86_feature_detected!`]. The wide path runs the *same*
//! element-wise IEEE multiplies, adds, and subtracts in the same reduction
//! order — `fma` is deliberately **not** enabled, so no contraction can
//! change rounding — which makes its results bit-identical to the portable
//! path; only the register width differs. Other architectures always take
//! the portable path.

use crate::{c64, Scalar};

/// Fixed f64 lane-group width of every microkernel in this module,
/// chosen so a lane group is one cache line of f64.
pub const LANES: usize = 8;

/// Panel (block) width used by the blocked LU and Cholesky factorizations.
///
/// Fixed — never derived from the worker count — so factorizations are
/// reproducible bit-for-bit under any `PDN_THREADS`.
pub const BLOCK: usize = 64;

/// Row-tile height used when a trailing update is fanned out over
/// [`crate::parallel`] workers. Tile boundaries depend only on this
/// constant, so the work decomposition (and therefore every accumulator's
/// contents) is identical for any worker count.
pub const ROW_TILE: usize = 32;

/// Element types with a lane-group `C -= A·B` microkernel.
///
/// Implemented for `f64` (direct lanes) and [`c64`] (split re/im planes).
/// The contract shared by both: for every output element `c[i][j]`, the
/// products `a[i][k]·b[k][j]` are accumulated into a fresh lane accumulator
/// in ascending `k` order and subtracted from `c[i][j]` once — the same
/// arithmetic for the full-width and zero-held tail paths, and independent
/// of how callers tile the row range.
pub trait GemmScalar: Scalar {
    /// The rank-1 pivot-row update of the panel factorization, applied to
    /// every row strictly below the pivot.
    ///
    /// `rows` holds whole matrix rows of stride `ld`. For each row, the
    /// multiplier `m = row[col] / pivot` is stored back into `row[col]`
    /// and, when nonzero, `row[col + 1..end] -= m·u` is applied
    /// element-wise, where `u` is the pivot row's `col + 1..end` segment
    /// (so `u.len() == end - col - 1`, at most [`BLOCK`] − 1).
    ///
    /// Bit-identical to the classical scalar elimination statement for
    /// statement: every element sees the same divide, the same
    /// fully-formed product, and the same single subtract — there is no
    /// cross-element reduction, and the split re/im staging of the
    /// complex path copies values without refactoring any expression.
    fn panel_rank1(rows: &mut [Self], ld: usize, col: usize, end: usize, pivot: Self, u: &[Self]);

    /// Rank-`kb` update `C -= A·B` on strided row-major operands.
    ///
    /// `c` is `m×n` with row stride `ldc`, `a` is `m×kb` with row stride
    /// `lda`, and `b` is `kb×n` with row stride `ldb`. Only the first `n`
    /// (resp. `kb`) elements of each row are touched; the strides let the
    /// operands live inside larger matrices.
    #[allow(clippy::too_many_arguments)]
    fn gemm_sub(
        c: &mut [Self],
        ldc: usize,
        m: usize,
        n: usize,
        a: &[Self],
        lda: usize,
        b: &[Self],
        ldb: usize,
        kb: usize,
    );
}

#[inline]
#[allow(clippy::too_many_arguments)]
fn check_operands<T>(
    c: &[T],
    ldc: usize,
    m: usize,
    n: usize,
    a: &[T],
    lda: usize,
    b: &[T],
    ldb: usize,
    kb: usize,
) {
    if m == 0 || n == 0 || kb == 0 {
        return;
    }
    debug_assert!(c.len() >= (m - 1) * ldc + n, "C operand too short");
    debug_assert!(a.len() >= (m - 1) * lda + kb, "A operand too short");
    debug_assert!(b.len() >= (kb - 1) * ldb + n, "B operand too short");
    debug_assert!(ldc >= n && ldb >= n && lda >= kb, "stride below row width");
}

impl GemmScalar for f64 {
    #[inline]
    fn panel_rank1(rows: &mut [Self], ld: usize, col: usize, end: usize, pivot: Self, u: &[Self]) {
        debug_assert_eq!(u.len(), end - col - 1, "pivot-row segment mismatch");
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the feature was just detected at runtime.
            unsafe { panel_rank1_f64_avx2(rows, ld, col, end, pivot, u) };
            return;
        }
        panel_rank1_f64_body(rows, ld, col, end, pivot, u);
    }

    #[inline]
    fn gemm_sub(
        c: &mut [Self],
        ldc: usize,
        m: usize,
        n: usize,
        a: &[Self],
        lda: usize,
        b: &[Self],
        ldb: usize,
        kb: usize,
    ) {
        check_operands(c, ldc, m, n, a, lda, b, ldb, kb);
        if m == 0 || n == 0 || kb == 0 {
            return;
        }
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the feature was just detected at runtime.
            unsafe { gemm_sub_f64_avx2(c, ldc, m, n, a, lda, b, ldb, kb) };
            return;
        }
        gemm_sub_f64_body(c, ldc, m, n, a, lda, b, ldb, kb);
    }
}

#[inline(always)]
fn panel_rank1_f64_body(
    rows: &mut [f64],
    ld: usize,
    col: usize,
    end: usize,
    pivot: f64,
    u: &[f64],
) {
    for row in rows.chunks_exact_mut(ld) {
        let m = row[col] / pivot;
        row[col] = m;
        if m == 0.0 {
            continue;
        }
        for (yq, &xq) in row[col + 1..end].iter_mut().zip(u) {
            *yq -= m * xq;
        }
    }
}

/// The same body, compiled for 256-bit registers — bit-identical output.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn panel_rank1_f64_avx2(
    rows: &mut [f64],
    ld: usize,
    col: usize,
    end: usize,
    pivot: f64,
    u: &[f64],
) {
    panel_rank1_f64_body(rows, ld, col, end, pivot, u);
}

#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn gemm_sub_f64_body(
    c: &mut [f64],
    ldc: usize,
    m: usize,
    n: usize,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    kb: usize,
) {
    {
        let mut jb = 0;
        while jb < n {
            let w = (n - jb).min(LANES);
            if w == LANES {
                // Full-width column group: fixed-trip-count lane loops the
                // compiler turns into packed f64 arithmetic.
                for i in 0..m {
                    let arow = &a[i * lda..i * lda + kb];
                    let mut acc = [0.0f64; LANES];
                    for (k, &aik) in arow.iter().enumerate() {
                        let brow = &b[k * ldb + jb..k * ldb + jb + LANES];
                        for q in 0..LANES {
                            acc[q] += aik * brow[q];
                        }
                    }
                    let crow = &mut c[i * ldc + jb..i * ldc + jb + LANES];
                    for q in 0..LANES {
                        crow[q] -= acc[q];
                    }
                }
            } else {
                // Tail group: zero-held lanes — the same fixed-width
                // arithmetic on a zero-padded load, only `w` lanes stored.
                for i in 0..m {
                    let arow = &a[i * lda..i * lda + kb];
                    let mut acc = [0.0f64; LANES];
                    for (k, &aik) in arow.iter().enumerate() {
                        let mut bl = [0.0f64; LANES];
                        bl[..w].copy_from_slice(&b[k * ldb + jb..k * ldb + jb + w]);
                        for q in 0..LANES {
                            acc[q] += aik * bl[q];
                        }
                    }
                    let crow = &mut c[i * ldc + jb..i * ldc + jb + w];
                    for (q, cq) in crow.iter_mut().enumerate() {
                        *cq -= acc[q];
                    }
                }
            }
            jb += w;
        }
    }
}

/// The same body, compiled for 256-bit registers — bit-identical output.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2")]
unsafe fn gemm_sub_f64_avx2(
    c: &mut [f64],
    ldc: usize,
    m: usize,
    n: usize,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    kb: usize,
) {
    gemm_sub_f64_body(c, ldc, m, n, a, lda, b, ldb, kb);
}

impl GemmScalar for c64 {
    #[inline]
    fn panel_rank1(rows: &mut [Self], ld: usize, col: usize, end: usize, pivot: Self, u: &[Self]) {
        debug_assert_eq!(u.len(), end - col - 1, "pivot-row segment mismatch");
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the feature was just detected at runtime.
            unsafe { panel_rank1_c64_avx2(rows, ld, col, end, pivot, u) };
            return;
        }
        panel_rank1_c64_body(rows, ld, col, end, pivot, u);
    }

    #[inline]
    fn gemm_sub(
        c: &mut [Self],
        ldc: usize,
        m: usize,
        n: usize,
        a: &[Self],
        lda: usize,
        b: &[Self],
        ldb: usize,
        kb: usize,
    ) {
        check_operands(c, ldc, m, n, a, lda, b, ldb, kb);
        if m == 0 || n == 0 || kb == 0 {
            return;
        }
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the feature was just detected at runtime.
            unsafe { gemm_sub_c64_avx2(c, ldc, m, n, a, lda, b, ldb, kb) };
            return;
        }
        gemm_sub_c64_body(c, ldc, m, n, a, lda, b, ldb, kb);
    }
}

#[inline(always)]
fn panel_rank1_c64_body(
    rows: &mut [c64],
    ld: usize,
    col: usize,
    end: usize,
    pivot: c64,
    u: &[c64],
) {
    // Stage the pivot-row segment into split re/im planes once — the
    // same trick as the gemm kernel: the inner loop then reads
    // contiguous f64 lanes instead of interleaved pairs. Copying values
    // does not change them; each update is still the spelled-out form of
    // `y[q] -= m * u[q]`: the product is the exact four-multiply
    // expression of `c64::mul`, fully formed before the subtraction —
    // identical rounding to the scalar path.
    let w = end - col - 1;
    debug_assert!(w < BLOCK, "panel wider than BLOCK");
    let mut ur = [0.0f64; BLOCK];
    let mut ui = [0.0f64; BLOCK];
    for (q, uq) in u.iter().enumerate() {
        ur[q] = uq.re;
        ui[q] = uq.im;
    }
    for row in rows.chunks_exact_mut(ld) {
        let m = row[col] / pivot;
        row[col] = m;
        if m == c64::new(0.0, 0.0) {
            continue;
        }
        let (mr, mi) = (m.re, m.im);
        let yrow = &mut row[col + 1..end];
        for (q, yq) in yrow.iter_mut().enumerate() {
            let pr = mr * ur[q] - mi * ui[q];
            let pi = mr * ui[q] + mi * ur[q];
            yq.re -= pr;
            yq.im -= pi;
        }
    }
}

/// The same body, compiled for 256-bit registers — bit-identical output.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn panel_rank1_c64_avx2(
    rows: &mut [c64],
    ld: usize,
    col: usize,
    end: usize,
    pivot: c64,
    u: &[c64],
) {
    panel_rank1_c64_body(rows, ld, col, end, pivot, u);
}

#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn gemm_sub_c64_body(
    c: &mut [c64],
    ldc: usize,
    m: usize,
    n: usize,
    a: &[c64],
    lda: usize,
    b: &[c64],
    ldb: usize,
    kb: usize,
) {
    {
        // Split re/im planes for one B column group, one k-chunk at a time.
        // All scratch lives on the stack: the B planes are BLOCK×LANES f64
        // (4 KiB each) and the accumulators ROW_TILE×LANES f64 (2 KiB
        // each), so a whole working set fits in L1.
        let mut bre = [0.0f64; BLOCK * LANES];
        let mut bim = [0.0f64; BLOCK * LANES];
        for i0 in (0..m).step_by(ROW_TILE) {
            let mt = (m - i0).min(ROW_TILE);
            let mut jb = 0;
            while jb < n {
                let w = (n - jb).min(LANES);
                // Accumulators persist across k-chunks so the per-element
                // reduction order is plain ascending k however the chunk
                // and tile loops slice the operands.
                let mut acc_re = [[0.0f64; LANES]; ROW_TILE];
                let mut acc_im = [[0.0f64; LANES]; ROW_TILE];
                let mut k0 = 0;
                while k0 < kb {
                    let kc = (kb - k0).min(BLOCK);
                    // Unpack the B group chunk once; tail lanes held at zero.
                    for k in 0..kc {
                        let brow = &b[(k0 + k) * ldb + jb..(k0 + k) * ldb + jb + w];
                        let re = &mut bre[k * LANES..(k + 1) * LANES];
                        let im = &mut bim[k * LANES..(k + 1) * LANES];
                        for q in 0..LANES {
                            if q < w {
                                re[q] = brow[q].re;
                                im[q] = brow[q].im;
                            } else {
                                re[q] = 0.0;
                                im[q] = 0.0;
                            }
                        }
                    }
                    for ii in 0..mt {
                        let arow = &a[(i0 + ii) * lda + k0..(i0 + ii) * lda + k0 + kc];
                        let (are, aim) = (&mut acc_re[ii], &mut acc_im[ii]);
                        for (k, aik) in arow.iter().enumerate() {
                            let (ar, ai) = (aik.re, aik.im);
                            let br = &bre[k * LANES..(k + 1) * LANES];
                            let bi = &bim[k * LANES..(k + 1) * LANES];
                            for q in 0..LANES {
                                are[q] += ar * br[q] - ai * bi[q];
                                aim[q] += ar * bi[q] + ai * br[q];
                            }
                        }
                    }
                    k0 += kc;
                }
                for ii in 0..mt {
                    let crow = &mut c[(i0 + ii) * ldc + jb..(i0 + ii) * ldc + jb + w];
                    for (q, cq) in crow.iter_mut().enumerate() {
                        cq.re -= acc_re[ii][q];
                        cq.im -= acc_im[ii][q];
                    }
                }
                jb += w;
            }
        }
    }
}

/// The same body, compiled for 256-bit registers — bit-identical output.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2")]
unsafe fn gemm_sub_c64_avx2(
    c: &mut [c64],
    ldc: usize,
    m: usize,
    n: usize,
    a: &[c64],
    lda: usize,
    b: &[c64],
    ldb: usize,
    kb: usize,
) {
    gemm_sub_c64_body(c, ldc, m, n, a, lda, b, ldb, kb);
}

/// In-place unit-lower triangular solve `X := L⁻¹·X` over lane groups of
/// the columns of `X`.
///
/// `l` is a packed `k×k` row-major block whose strict lower triangle holds
/// the multipliers (the diagonal is implicitly 1); `x` is `k×n` with row
/// stride `ldx`. Each column is solved independently with the forward
/// recurrence accumulated in ascending row order, so the result does not
/// depend on how columns are grouped.
pub fn trsm_lower_unit<T: Scalar>(l: &[T], k: usize, x: &mut [T], ldx: usize, n: usize) {
    if k == 0 || n == 0 {
        return;
    }
    debug_assert!(l.len() >= k * k, "L block too short");
    debug_assert!(x.len() >= (k - 1) * ldx + n, "X operand too short");
    let mut jb = 0;
    while jb < n {
        let w = (n - jb).min(LANES);
        // Load the column group into a contiguous tile (zero-held tails),
        // run the whole forward solve on lanes, store back.
        let mut tile = vec![[T::zero(); LANES]; k];
        for (i, row) in tile.iter_mut().enumerate() {
            let src = &x[i * ldx + jb..i * ldx + jb + w];
            row[..w].copy_from_slice(src);
        }
        for i in 1..k {
            let mut acc = [T::zero(); LANES];
            for t in 0..i {
                let lit = l[i * k + t];
                let xr = &tile[t];
                for q in 0..LANES {
                    acc[q] += lit * xr[q];
                }
            }
            for q in 0..LANES {
                tile[i][q] -= acc[q];
            }
        }
        for (i, row) in tile.iter().enumerate() {
            x[i * ldx + jb..i * ldx + jb + w].copy_from_slice(&row[..w]);
        }
        jb += w;
    }
}

/// In-place non-unit upper triangular solve `X := U⁻¹·X` over lane groups
/// of the columns of `X`.
///
/// `u` is a packed `k×k` row-major block whose upper triangle (including
/// the diagonal) holds the factor; `x` is `k×n` with row stride `ldx`.
/// Backward recurrence, ascending-`t` accumulation per row — fixed order,
/// independent of column grouping.
pub fn trsm_upper<T: Scalar>(u: &[T], k: usize, x: &mut [T], ldx: usize, n: usize) {
    if k == 0 || n == 0 {
        return;
    }
    debug_assert!(u.len() >= k * k, "U block too short");
    debug_assert!(x.len() >= (k - 1) * ldx + n, "X operand too short");
    let mut jb = 0;
    while jb < n {
        let w = (n - jb).min(LANES);
        let mut tile = vec![[T::zero(); LANES]; k];
        for (i, row) in tile.iter_mut().enumerate() {
            let src = &x[i * ldx + jb..i * ldx + jb + w];
            row[..w].copy_from_slice(src);
        }
        for i in (0..k).rev() {
            let mut acc = [T::zero(); LANES];
            for t in (i + 1)..k {
                let uit = u[i * k + t];
                let xr = &tile[t];
                for q in 0..LANES {
                    acc[q] += uit * xr[q];
                }
            }
            let uii = u[i * k + i];
            for q in 0..LANES {
                let v = tile[i][q] - acc[q];
                tile[i][q] = v / uii;
            }
        }
        for (i, row) in tile.iter().enumerate() {
            x[i * ldx + jb..i * ldx + jb + w].copy_from_slice(&row[..w]);
        }
        jb += w;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg(state: &mut u64) -> f64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
    }

    #[allow(clippy::too_many_arguments)]
    fn naive_gemm_sub<T: Scalar>(
        c: &mut [T],
        ldc: usize,
        m: usize,
        n: usize,
        a: &[T],
        lda: usize,
        b: &[T],
        ldb: usize,
        kb: usize,
    ) {
        for i in 0..m {
            for j in 0..n {
                let mut acc = T::zero();
                for k in 0..kb {
                    acc += a[i * lda + k] * b[k * ldb + j];
                }
                c[i * ldc + j] -= acc;
            }
        }
    }

    #[test]
    fn f64_matches_naive_including_tails() {
        let mut state = 7u64;
        for &(m, n, kb) in &[(1, 1, 1), (3, 5, 2), (8, 8, 8), (13, 29, 17), (32, 65, 64)] {
            let a: Vec<f64> = (0..m * kb).map(|_| lcg(&mut state)).collect();
            let b: Vec<f64> = (0..kb * n).map(|_| lcg(&mut state)).collect();
            let mut c: Vec<f64> = (0..m * n).map(|_| lcg(&mut state)).collect();
            let mut c_ref = c.clone();
            f64::gemm_sub(&mut c, n, m, n, &a, kb, &b, n, kb);
            naive_gemm_sub(&mut c_ref, n, m, n, &a, kb, &b, n, kb);
            for (x, y) in c.iter().zip(&c_ref) {
                assert!((x - y).abs() <= 1e-12 * y.abs().max(1.0), "{m}x{n}x{kb}");
            }
        }
    }

    #[test]
    fn c64_matches_naive_including_tails() {
        let mut state = 11u64;
        for &(m, n, kb) in &[(1, 1, 1), (2, 9, 3), (8, 16, 8), (7, 27, 70), (16, 33, 129)] {
            let cx = |s: &mut u64| c64::new(lcg(s), lcg(s));
            let a: Vec<c64> = (0..m * kb).map(|_| cx(&mut state)).collect();
            let b: Vec<c64> = (0..kb * n).map(|_| cx(&mut state)).collect();
            let mut c: Vec<c64> = (0..m * n).map(|_| cx(&mut state)).collect();
            let mut c_ref = c.clone();
            c64::gemm_sub(&mut c, n, m, n, &a, kb, &b, n, kb);
            naive_gemm_sub(&mut c_ref, n, m, n, &a, kb, &b, n, kb);
            for (x, y) in c.iter().zip(&c_ref) {
                assert!(
                    (*x - *y).norm() <= 1e-12 * y.norm().max(1.0),
                    "{m}x{n}x{kb}"
                );
            }
        }
    }

    #[test]
    fn strided_operands_leave_padding_untouched() {
        // Strides larger than the row width: the pad columns must survive.
        let (m, n, kb, ld) = (4, 5, 3, 9);
        let mut state = 3u64;
        let a: Vec<f64> = (0..m * ld).map(|_| lcg(&mut state)).collect();
        let b: Vec<f64> = (0..kb * ld).map(|_| lcg(&mut state)).collect();
        let mut c: Vec<f64> = (0..m * ld).map(|_| lcg(&mut state)).collect();
        let pad: Vec<f64> = c
            .iter()
            .enumerate()
            .filter(|(idx, _)| idx % ld >= n)
            .map(|(_, &v)| v)
            .collect();
        f64::gemm_sub(&mut c, ld, m, n, &a, ld, &b, ld, kb);
        let pad_after: Vec<f64> = c
            .iter()
            .enumerate()
            .filter(|(idx, _)| idx % ld >= n)
            .map(|(_, &v)| v)
            .collect();
        assert_eq!(pad, pad_after);
    }

    #[test]
    fn tail_grouping_is_bitwise_stable() {
        // The same (i, j) element must come out bit-identical whether it
        // sits in a full lane group or a tail: compute an n=24 product and
        // an n=21 product over the same data and compare the overlap.
        let (m, kb) = (6, 10);
        let mut state = 19u64;
        let a: Vec<f64> = (0..m * kb).map(|_| lcg(&mut state)).collect();
        let b: Vec<f64> = (0..kb * 24).map(|_| lcg(&mut state)).collect();
        let base: Vec<f64> = (0..m * 24).map(|_| lcg(&mut state)).collect();
        let mut full = base.clone();
        f64::gemm_sub(&mut full, 24, m, 24, &a, kb, &b, 24, kb);
        let mut narrow = base.clone();
        f64::gemm_sub(&mut narrow, 24, m, 21, &a, kb, &b, 24, kb);
        for i in 0..m {
            for j in 0..21 {
                assert_eq!(full[i * 24 + j].to_bits(), narrow[i * 24 + j].to_bits());
            }
        }
    }

    #[test]
    fn trsm_round_trips_against_matmul() {
        let k = 13;
        let n = 21;
        let mut state = 23u64;
        // Unit lower L and non-unit upper U packed into k×k blocks.
        let mut l = vec![0.0f64; k * k];
        let mut u = vec![0.0f64; k * k];
        for i in 0..k {
            l[i * k + i] = 1.0;
            u[i * k + i] = 2.0 + lcg(&mut state).abs();
            for j in 0..i {
                l[i * k + j] = lcg(&mut state);
                u[j * k + i] = lcg(&mut state);
            }
        }
        let x0: Vec<f64> = (0..k * n).map(|_| lcg(&mut state)).collect();
        // Forward: solve L y = x0, then check L·y == x0.
        let mut y = x0.clone();
        trsm_lower_unit(&l, k, &mut y, n, n);
        for i in 0..k {
            for j in 0..n {
                let mut s = 0.0;
                for t in 0..k {
                    s += l[i * k + t] * y[t * n + j];
                }
                assert!((s - x0[i * n + j]).abs() < 1e-10);
            }
        }
        // Backward: solve U z = x0, then check U·z == x0.
        let mut z = x0.clone();
        trsm_upper(&u, k, &mut z, n, n);
        for i in 0..k {
            for j in 0..n {
                let mut s = 0.0;
                for t in i..k {
                    s += u[i * k + t] * z[t * n + j];
                }
                assert!((s - x0[i * n + j]).abs() < 1e-10);
            }
        }
    }
}
