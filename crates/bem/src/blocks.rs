//! The block store behind the compressed kernels.
//!
//! [`CompressedKernel`](crate::CompressedKernel) plans a symmetric
//! partition and evaluates exact kernel rows into a list of dense or
//! low-rank blocks; everything downstream of that list lives here once:
//!
//! * the serial matvec;
//! * the densifier;
//! * the `CompressionStats` tally;
//! * the certified compression of one admissible block: ACA at
//!   `tol / 16`, recompression at `tol / 4`, the exact dense block when
//!   the factors do not pay, and `CERT_ROWS` seeded sampled rows checked
//!   against the exact data, failing with
//!   [`AssembleBemError::NumericalBreakdown`].
//!
//! A store holds the upper triangle of its symmetric operator: an
//! off-diagonal block is mirrored, applying as itself and as its
//! transpose, and a diagonal block applies once, so every entry of the
//! operator is covered exactly once. Blocks apply in list order, so every
//! result is a pure function of the block list and bit-identical for any
//! `PDN_THREADS`.

use crate::assembly::AssembleBemError;
use crate::compress::{CompressionSpec, CompressionStats};
use pdn_num::aca::{aca, LowRank};
use pdn_num::Matrix;

/// Margin between the internal ACA stopping tolerance and the
/// user-facing certified tolerance: ACA stops at `tol / ACA_MARGIN`, so
/// the certification check at `tol` has headroom over the incremental
/// Frobenius estimate the stopping criterion relies on.
const ACA_MARGIN: f64 = 16.0;
/// Recompression truncates at `tol / RECOMPRESS_MARGIN`.
const RECOMPRESS_MARGIN: f64 = 4.0;
/// Certified rows sampled per low-rank block.
const CERT_ROWS: usize = 2;

/// The stored form of one block.
#[derive(Debug, Clone)]
pub(crate) enum BlockData {
    Dense(Matrix<f64>),
    LowRank(LowRank),
}

impl BlockData {
    /// Entry `(a, c)` of the block.
    fn entry(&self, a: usize, c: usize) -> f64 {
        match self {
            BlockData::Dense(m) => m[(a, c)],
            BlockData::LowRank(lr) => lr.entry(a, c),
        }
    }
}

/// One stored block: entry `(a, c)` of `data` sits at operator position
/// `(rows[a], cols[c])`, and also at `(cols[c], rows[a])` when `mirror`.
#[derive(Debug, Clone)]
pub(crate) struct Block {
    pub(crate) rows: Vec<usize>,
    pub(crate) cols: Vec<usize>,
    pub(crate) mirror: bool,
    pub(crate) data: BlockData,
}

/// A symmetric operator held as a fixed list of dense and low-rank
/// blocks over its upper triangle.
#[derive(Debug, Clone)]
pub(crate) struct BlockStore {
    n: usize,
    blocks: Vec<Block>,
    stats: CompressionStats,
}

impl BlockStore {
    /// Adopts the block list of an `n`-dimensional operator and tallies
    /// its block, rank and byte accounting.
    pub(crate) fn new(n: usize, blocks: Vec<Block>) -> BlockStore {
        let mut stats = CompressionStats {
            blocks: blocks.len(),
            low_rank_blocks: 0,
            max_rank: 0,
            stored_bytes: 0,
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
        BlockStore { n, blocks, stats }
    }

    /// Operator dimension.
    pub(crate) fn len(&self) -> usize {
        self.n
    }

    /// Block, rank and byte accounting of the stored blocks.
    pub(crate) fn stats(&self) -> CompressionStats {
        self.stats
    }

    /// `y = A·x`, applying each block (and its mirror) in list order.
    ///
    /// Every output is summed in a fixed sequence: a dense block's
    /// primary pass sums each row over its columns in ascending order
    /// from `0.0` and adds the sum; its mirror pass sums each column over
    /// the rows in ascending order; a low-rank block goes through
    /// [`LowRank::matvec_into`] into a zeroed buffer. Independent sums
    /// run interleaved ([`ROWS`] rows, [`COLS`] columns at once), so the
    /// pass is bound by multiply-add throughput rather than latency
    /// without reordering any addition.
    ///
    /// # Panics
    ///
    /// Panics when `x` does not match the operator dimension.
    pub(crate) fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n, "matvec dimension mismatch");
        let mut y = vec![0.0; self.n];
        let (mut xs, mut ys) = (Vec::new(), Vec::new());
        for b in &self.blocks {
            gather(&mut xs, x, &b.cols);
            match &b.data {
                BlockData::Dense(m) => {
                    dense_rows(m, &xs, &b.rows, &mut y);
                    if b.mirror {
                        gather(&mut xs, x, &b.rows);
                        dense_cols(m, &xs, &b.cols, &mut y);
                    }
                }
                BlockData::LowRank(lr) => {
                    ys.clear();
                    ys.resize(b.rows.len(), 0.0);
                    lr.matvec_into(&xs, &mut ys);
                    scatter_add(&mut y, &b.rows, &ys);
                    if b.mirror {
                        gather(&mut xs, x, &b.rows);
                        ys.clear();
                        ys.resize(b.cols.len(), 0.0);
                        lr.matvec_transpose_into(&xs, &mut ys);
                        scatter_add(&mut y, &b.cols, &ys);
                    }
                }
            }
        }
        y
    }

    /// Densifies the operator — diagnostics and small-problem tests only.
    pub(crate) fn to_dense(&self) -> Matrix<f64> {
        let mut out = Matrix::zeros(self.n, self.n);
        for b in &self.blocks {
            for (a, &i) in b.rows.iter().enumerate() {
                for (c, &j) in b.cols.iter().enumerate() {
                    // Assigned, not accumulated: every entry is covered
                    // once, and a stored `−0.0` keeps its sign.
                    let v = b.data.entry(a, c);
                    out[(i, j)] = v;
                    if b.mirror {
                        out[(j, i)] = v;
                    }
                }
            }
        }
        out
    }
}

/// Rows a dense block's primary pass sums at once.
const ROWS: usize = 8;
/// Columns a dense block's mirror pass sums at once.
const COLS: usize = 16;

/// `xs = x[idx]`, reusing the buffer.
fn gather(xs: &mut Vec<f64>, x: &[f64], idx: &[usize]) {
    xs.clear();
    xs.extend(idx.iter().map(|&j| x[j]));
}

/// `y[idx[a]] += v[a]` for every `a`.
fn scatter_add(y: &mut [f64], idx: &[usize], v: &[f64]) {
    for (&i, &va) in idx.iter().zip(v) {
        y[i] += va;
    }
}

/// Primary pass of a dense block: `y[rows[a]] += Σ_c m[a, c]·xs[c]`,
/// each sum from `0.0` in ascending `c`, [`ROWS`] rows at a time.
fn dense_rows(m: &Matrix<f64>, xs: &[f64], rows: &[usize], y: &mut [f64]) {
    let c = xs.len();
    let full = rows.len() / ROWS * ROWS;
    for a0 in (0..full).step_by(ROWS) {
        let r: [&[f64]; ROWS] = std::array::from_fn(|k| &m.row(a0 + k)[..c]);
        let mut acc = [0.0f64; ROWS];
        for (j, &xj) in xs.iter().enumerate() {
            for (ak, rk) in acc.iter_mut().zip(&r) {
                *ak += rk[j] * xj;
            }
        }
        for (&i, &ak) in rows[a0..a0 + ROWS].iter().zip(&acc) {
            y[i] += ak;
        }
    }
    for (a, &i) in rows.iter().enumerate().skip(full) {
        let mut acc = 0.0;
        for (&mv, &xj) in m.row(a).iter().zip(xs) {
            acc += mv * xj;
        }
        y[i] += acc;
    }
}

/// Mirror pass of a dense block: `y[cols[c]] += Σ_a m[a, c]·xs[a]`,
/// each sum from `0.0` in ascending `a`, over contiguous row segments
/// of [`COLS`] columns.
fn dense_cols(m: &Matrix<f64>, xs: &[f64], cols: &[usize], y: &mut [f64]) {
    let full = cols.len() / COLS * COLS;
    for c0 in (0..full).step_by(COLS) {
        column_sums(m, xs, c0, &cols[c0..c0 + COLS], y);
    }
    if full < cols.len() {
        column_sums(m, xs, full, &cols[full..], y);
    }
}

/// The mirror-pass sums of the at most [`COLS`] block columns from `c0`,
/// scattered to `idx`. Inlined so a full segment's width is a constant.
#[inline(always)]
fn column_sums(m: &Matrix<f64>, xs: &[f64], c0: usize, idx: &[usize], y: &mut [f64]) {
    let mut acc = [0.0f64; COLS];
    for (a, &xa) in xs.iter().enumerate() {
        for (ak, &mv) in acc.iter_mut().zip(&m.row(a)[c0..c0 + idx.len()]) {
            *ak += mv * xa;
        }
    }
    for (&j, &ak) in idx.iter().zip(&acc) {
        y[j] += ak;
    }
}

/// The exact dense `r × c` block whose row `a` is `row(a)`.
pub(crate) fn dense_block(r: usize, c: usize, row: &dyn Fn(usize) -> Vec<f64>) -> BlockData {
    let mut m = Matrix::zeros(r, c);
    for a in 0..r {
        m.row_mut(a).copy_from_slice(&row(a));
    }
    BlockData::Dense(m)
}

/// Compresses one admissible `r × c` block and certifies it: ACA at
/// `tol / 16` over the exact rows and columns, recompression at
/// `tol / 4`, and the exact dense block instead when the factors would
/// not be smaller. A low-rank result must then match `CERT_ROWS` rows,
/// picked by a fixed-seed LCG keyed on the block's `ordinal` in its
/// store, to `tol` relative to the larger of the block's and the row's
/// norm.
///
/// # Errors
///
/// [`AssembleBemError::NumericalBreakdown`] naming the block shape when
/// a sampled row fails the check — accuracy is never silently degraded.
pub(crate) fn certified_block(
    (r, c): (usize, usize),
    row: &dyn Fn(usize) -> Vec<f64>,
    col: &dyn Fn(usize) -> Vec<f64>,
    spec: &CompressionSpec,
    ordinal: usize,
) -> Result<BlockData, AssembleBemError> {
    let lr = aca(r, c, row, col, spec.tol / ACA_MARGIN, r.min(c))
        .recompress(spec.tol / RECOMPRESS_MARGIN);
    if lr.stored_bytes() >= 8 * r * c {
        return Ok(dense_block(r, c, row));
    }
    let frob = lr.frobenius_norm();
    let mut rng = 0x9e37_79b9_7f4a_7c15u64 ^ (ordinal as u64).wrapping_mul(0xd134_2543_de82_ef95);
    for _ in 0..CERT_ROWS.min(r) {
        rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let a = (rng >> 33) as usize % r;
        let exact = row(a);
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

#[cfg(test)]
mod tests {
    use super::*;

    /// The plain serial matvec: one dependent sum per output, low-rank
    /// inner products through `Iterator::sum`. The reference the
    /// interleaved matvec must match bit for bit.
    fn reference_matvec(store: &BlockStore, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; store.n];
        for b in &store.blocks {
            match &b.data {
                BlockData::Dense(m) => {
                    for (a, &i) in b.rows.iter().enumerate() {
                        let mut acc = 0.0;
                        for (c, &j) in b.cols.iter().enumerate() {
                            acc += m[(a, c)] * x[j];
                        }
                        y[i] += acc;
                    }
                    if b.mirror {
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
                    reference_low_rank(lr.v(), lr.u(), &xs, &mut ys);
                    for (a, &i) in b.rows.iter().enumerate() {
                        y[i] += ys[a];
                    }
                    if b.mirror {
                        let xt: Vec<f64> = b.rows.iter().map(|&i| x[i]).collect();
                        let mut yt = vec![0.0; b.cols.len()];
                        reference_low_rank(lr.u(), lr.v(), &xt, &mut yt);
                        for (c, &j) in b.cols.iter().enumerate() {
                            y[j] += yt[c];
                        }
                    }
                }
            }
        }
        y
    }

    /// `y += scatter·gatherᵀ·x`, one rank at a time.
    fn reference_low_rank(gather: &Matrix<f64>, scatter: &Matrix<f64>, x: &[f64], y: &mut [f64]) {
        for l in 0..gather.ncols() {
            let t: f64 = (0..gather.nrows()).map(|j| gather[(j, l)] * x[j]).sum();
            for (i, yi) in y.iter_mut().enumerate() {
                *yi += t * scatter[(i, l)];
            }
        }
    }

    /// Entries spread over many magnitudes and both signs, so any
    /// reordered sum rounds differently.
    fn wild(seed: &mut u64) -> f64 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let u = (*seed >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
        u * 10f64.powi((*seed % 9) as i32 - 4)
    }

    fn dense(r: usize, c: usize, seed: &mut u64) -> BlockData {
        BlockData::Dense(Matrix::from_fn(r, c, |_, _| wild(seed)))
    }

    fn low_rank(r: usize, c: usize, k: usize, seed: &mut u64) -> BlockData {
        let u = Matrix::from_fn(r, k, |_, _| wild(seed));
        let v = Matrix::from_fn(c, k, |_, _| wild(seed));
        BlockData::LowRank(LowRank::new(u, v))
    }

    /// A 61-point store: a diagonal block, off-diagonal dense blocks
    /// whose sides are not multiples of `ROWS` or `COLS`, a wide one,
    /// low-rank blocks and a rank-0 block.
    fn store() -> BlockStore {
        let n = 61;
        let mut seed = 0x5eed_u64;
        let span = |lo: usize, hi: usize| (lo..hi).collect::<Vec<usize>>();
        let shapes: Vec<(Vec<usize>, Vec<usize>, bool, BlockData)> = vec![
            (span(0, 13), span(0, 13), false, dense(13, 13, &mut seed)),
            (span(0, 13), span(13, 30), true, dense(13, 17, &mut seed)),
            (span(13, 30), span(13, 30), false, dense(17, 17, &mut seed)),
            (span(30, 33), span(33, 61), true, dense(3, 28, &mut seed)),
            (
                span(0, 30),
                span(30, 33),
                true,
                low_rank(30, 3, 2, &mut seed),
            ),
            (span(30, 61), span(30, 61), false, dense(31, 31, &mut seed)),
            (
                span(0, 13),
                span(33, 61),
                true,
                low_rank(13, 28, 5, &mut seed),
            ),
            (
                span(13, 30),
                span(33, 61),
                true,
                BlockData::LowRank(LowRank::zero(17, 28)),
            ),
        ];
        let blocks = shapes
            .into_iter()
            .map(|(rows, cols, mirror, data)| Block {
                rows,
                cols,
                mirror,
                data,
            })
            .collect();
        BlockStore::new(n, blocks)
    }

    #[test]
    fn interleaved_matvec_matches_plain_sums_bit_for_bit() {
        let mut seed = 0xface_u64;
        let mut xs: Vec<Vec<f64>> = (0..4)
            .map(|k| {
                (0..61)
                    .map(|i| {
                        if (i + k) % 5 == 0 {
                            -0.0
                        } else {
                            wild(&mut seed)
                        }
                    })
                    .collect()
            })
            .collect();
        xs.push(vec![-0.0; 61]);
        let st = store();
        for x in &xs {
            let (got, want) = (st.matvec(x), reference_matvec(&st, x));
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(g.to_bits(), w.to_bits(), "y[{i}]: {g:e} vs {w:e}");
            }
        }
        // Both serial low-rank products, accumulating into a non-zero y.
        let mut seed = 0xbeef_u64;
        for (r, c, k) in [(7, 23, 6), (19, 5, 1), (9, 11, 0)] {
            let BlockData::LowRank(lr) = low_rank(r, c, k, &mut seed) else {
                unreachable!()
            };
            for (x_len, y_len, transpose) in [(c, r, false), (r, c, true)] {
                let x: Vec<f64> = (0..x_len)
                    .map(|j| if j % 3 == 0 { -0.0 } else { wild(&mut seed) })
                    .collect();
                let y0: Vec<f64> = (0..y_len).map(|_| wild(&mut seed)).collect();
                let (mut got, mut want) = (y0.clone(), y0);
                if transpose {
                    lr.matvec_transpose_into(&x, &mut got);
                    reference_low_rank(lr.u(), lr.v(), &x, &mut want);
                } else {
                    lr.matvec_into(&x, &mut got);
                    reference_low_rank(lr.v(), lr.u(), &x, &mut want);
                }
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(g.to_bits(), w.to_bits(), "rank {k}, transpose {transpose}");
                }
            }
        }
        // Positive factors against `−0.0` inputs: every inner product is a
        // sum of `−0.0` terms, whose sign survives into a `−0.0` output
        // only when the sum starts at `−0.0`.
        let pos = |r: usize, c: usize| Matrix::from_fn(r, c, |i, j| 1.0 + (i + 2 * j) as f64);
        let lr = LowRank::new(pos(6, 3), pos(4, 3));
        let (mut got, mut want) = (vec![-0.0; 6], vec![-0.0; 6]);
        lr.matvec_into(&[-0.0; 4], &mut got);
        reference_low_rank(lr.v(), lr.u(), &[-0.0; 4], &mut want);
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.to_bits(), w.to_bits(), "signed zero");
            assert!(g.is_sign_negative());
        }
    }

    /// Rows of the rank-1 block `a·bᵀ` against columns of a different
    /// rank-1 block `c·bᵀ`: ACA builds factors the exact rows disagree
    /// with, so certification must fail loudly.
    #[test]
    fn inconsistent_rows_and_columns_fail_certification() {
        let (r, c) = (6, 9);
        let a = |i: usize| 1.0 + i as f64;
        let b = |j: usize| 1.0 / (1.0 + j as f64);
        let cc = |i: usize| (1.0 + i as f64).powi(2);
        let row = |i: usize| -> Vec<f64> { (0..c).map(|j| a(i) * b(j)).collect() };
        let col = |j: usize| -> Vec<f64> { (0..r).map(|i| cc(i) * b(j)).collect() };
        let err = certified_block((r, c), &row, &col, &CompressionSpec::default(), 0).unwrap_err();
        match err {
            AssembleBemError::NumericalBreakdown(msg) => {
                assert!(msg.contains("6x9 block"), "names the block shape: {msg}")
            }
            other => panic!("expected NumericalBreakdown, got {other:?}"),
        }
        // The consistent pair certifies at rank 1.
        let col = |j: usize| -> Vec<f64> { (0..r).map(|i| a(i) * b(j)).collect() };
        match certified_block((r, c), &row, &col, &CompressionSpec::default(), 0).unwrap() {
            BlockData::LowRank(lr) => assert_eq!(lr.rank(), 1),
            BlockData::Dense(_) => panic!("a rank-1 block must stay low-rank"),
        }
    }
}
