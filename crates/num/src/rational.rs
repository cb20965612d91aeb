//! Adaptive rational-macromodel frequency sweeps.
//!
//! Every frequency-domain response in this toolkit — the BEM nodal
//! admittance `Y(ω) = jωC + Aᵀ(Zs + jωL)⁻¹A` (paper eq. 15), port
//! impedances, MNA transfer functions, S-parameters — is a smooth,
//! near-rational function of frequency: a finite set of plane/circuit
//! modes in band plus slowly varying tails. A dense sweep that pays one
//! full complex LU factorization *per grid point* therefore recomputes
//! information a handful of exact solves already determine.
//!
//! This module is the shared sweep driver exploiting that structure:
//!
//! 1. **Anchor selection.** A small set of grid points (endpoints plus
//!    quartiles) is solved exactly, fanned out over
//!    [`crate::parallel`] workers with the usual lowest-index error
//!    semantics.
//! 2. **Barycentric rational fit (greedy AAA).** Supports are promoted
//!    one at a time from the solved fit data — always the point the
//!    current model misses worst — and after each promotion the
//!    barycentric weights are recomputed as the least-squares null
//!    vector of the Loewner matrix over *every* remaining data point —
//!    the smallest right singular vector, computed by Householder QR
//!    plus inverse iteration ([`smallest_singular_vector`]) so the
//!    attainable residual is not floored by Gram-matrix squaring. Every
//!    exact solve already paid for therefore constrains the fit.
//! 3. **Held-out certification with bisection refinement.** The midpoint
//!    of every interval between adjacent fit points is solved exactly
//!    and compared against the interpolant — but *held out* of the fit,
//!    so certification is honest. Intervals within `rel_tol` are
//!    certified (their midpoints are re-checked against each later model
//!    for free, no re-solve); failing midpoints join the fit data and
//!    the model is rebuilt, so exact solves accumulate exactly where the
//!    response is hard (e.g. a high-Q resonance).
//! 4. **Fill or fall back.** Certified intervals are filled from the
//!    interpolant; any grid point that was solved exactly is returned
//!    bit-identically; intervals that never certify (refinement stalled)
//!    fall back to exact per-point solves — accuracy is never silently
//!    degraded.
//!
//! Every decision depends only on solved values, never on timing or
//! scheduling, so results are **bit-identical for every `PDN_THREADS`
//! setting**. Each sweep returns its own accounting in
//! [`SweepOutcome::stats`].
//!
//! # Examples
//!
//! ```
//! use pdn_num::rational::{sweep, SweepAccuracy};
//! use pdn_num::{c64, Matrix};
//!
//! // A one-pole scalar response sampled on a 64-point grid.
//! let freqs: Vec<f64> = (0..64).map(|k| 1.0 + k as f64 * 0.1).collect();
//! let eval = |f: f64| -> Result<Matrix<c64>, std::convert::Infallible> {
//!     let y = (c64::from_re(f) - c64::new(4.0, 0.3)).recip();
//!     Ok(Matrix::from_rows(&[&[y]]))
//! };
//! let out = sweep(&freqs, SweepAccuracy::Rational { rel_tol: 1e-10 }, eval).unwrap();
//! assert_eq!(out.values.len(), 64);
//! assert!(out.stats.anchors < 32, "few exact solves: {}", out.stats.anchors);
//! ```

use crate::eigen::smallest_singular_vector;
use crate::{c64, parallel, Matrix};
use std::collections::BTreeMap;
use std::fmt;
use std::time::{Duration, Instant};

/// Below this grid size a rational fit cannot amortize its anchor solves;
/// the engine silently uses the exact path.
const MIN_RATIONAL_POINTS: usize = 16;
/// Bisection-refinement rounds before an interval is declared stalled.
const MAX_REFINE_ROUNDS: usize = 16;
/// Cap on Loewner-matrix columns sampled per matrix entry set.
const MAX_SAMPLED_ENTRIES: usize = 96;
/// Hard cap on barycentric supports per model: past this order a fit no
/// longer amortizes its own construction cost against exact solves.
const MAX_SUPPORTS: usize = 40;

/// Accuracy policy for a frequency sweep.
///
/// The default is [`SweepAccuracy::Exact`], which factors every grid
/// point — the historical behavior, and what all golden/determinism
/// tests pin. [`SweepAccuracy::Rational`] solves only adaptively chosen
/// anchors exactly and fills the rest from a certified barycentric
/// rational interpolant (see the module docs for the certification
/// contract).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum SweepAccuracy {
    /// One exact factorization per grid point.
    #[default]
    Exact,
    /// Adaptive rational interpolation between exact anchor solves.
    Rational {
        /// Relative (Frobenius-norm) tolerance certified at held-out
        /// grid points. Must be positive and finite.
        rel_tol: f64,
    },
}

/// Error from the shared sweep engine.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepError<E> {
    /// The frequency grid (or the accuracy spec) is invalid: grids must
    /// be finite, strictly positive, and strictly increasing.
    InvalidInput(String),
    /// A per-point evaluation failed (lowest failing index reported).
    Eval(E),
}

impl<E: fmt::Display> fmt::Display for SweepError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::InvalidInput(msg) => write!(f, "invalid sweep input: {msg}"),
            SweepError::Eval(e) => write!(f, "sweep evaluation failed: {e}"),
        }
    }
}

impl<E: fmt::Debug + fmt::Display> std::error::Error for SweepError<E> {}

/// Per-sweep engine statistics.
#[derive(Debug, Clone, Default)]
pub struct SweepStats {
    /// Grid points in the sweep.
    pub points: usize,
    /// Exact factorizations spent on anchors and held-out checks.
    pub anchors: usize,
    /// Frequencies of those anchor/held-out solves, ascending.
    pub anchor_freqs: Vec<f64>,
    /// Grid points returned from an exact solve (anchors, held-out
    /// points, and fallback points that happen to lie on the grid).
    pub exact_points: usize,
    /// Grid points filled from the rational interpolant.
    pub interpolated_points: usize,
    /// Grid points exact-solved because their interval never certified.
    pub fallback_points: usize,
    /// Largest certified held-out relative residual (0 when nothing was
    /// interpolated).
    pub max_residual: f64,
    /// Wall-clock time of the whole sweep.
    pub wall: Duration,
}

/// A sweep's values plus the engine's accounting.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// One response matrix per grid point, in grid order.
    pub values: Vec<Matrix<c64>>,
    /// Engine statistics for this sweep.
    pub stats: SweepStats,
    /// The rational interpolant, when one was built and certified for at
    /// least part of the grid (always `None` on the exact path). Its
    /// poles seed resonance searches.
    pub model: Option<RationalModel>,
}

/// Matrix-valued barycentric rational interpolant
/// `R(f) = Σⱼ wⱼ·Yⱼ/(f−zⱼ) / Σⱼ wⱼ/(f−zⱼ)` over support frequencies
/// `zⱼ` with exact samples `Yⱼ`.
#[derive(Debug, Clone)]
pub struct RationalModel {
    supports: Vec<f64>,
    values: Vec<Matrix<c64>>,
    weights: Vec<c64>,
}

impl RationalModel {
    /// Number of support points (the rational order is one less).
    pub fn order(&self) -> usize {
        self.supports.len()
    }

    /// Support frequencies (ascending).
    pub fn supports(&self) -> &[f64] {
        &self.supports
    }

    /// Evaluates the interpolant at frequency `f`. At a support
    /// frequency the stored exact sample is returned bit-identically.
    pub fn evaluate(&self, f: f64) -> Matrix<c64> {
        if let Some(j) = self.supports.iter().position(|&z| z == f) {
            return self.values[j].clone();
        }
        let (rows, cols) = self.values[0].shape();
        let mut num = Matrix::<c64>::zeros(rows, cols);
        let mut den = c64::ZERO;
        for ((&z, &w), y) in self.supports.iter().zip(&self.weights).zip(&self.values) {
            let coef = w / c64::from_re(f - z);
            den += coef;
            for (o, s) in num.as_mut_slice().iter_mut().zip(y.as_slice()) {
                *o += coef * *s;
            }
        }
        let inv = den.recip();
        for o in num.as_mut_slice() {
            *o *= inv;
        }
        num
    }

    /// Relative residual against an exact sample at a non-support
    /// frequency, measured over the sampled entry set only — the cheap
    /// metric driving greedy support selection (full-matrix residuals
    /// are reserved for certification).
    fn entry_residual(&self, f: f64, exact: &Matrix<c64>, entries: &[(usize, usize)]) -> f64 {
        let coefs: Vec<c64> = self
            .supports
            .iter()
            .zip(&self.weights)
            .map(|(&z, &w)| w / c64::from_re(f - z))
            .collect();
        let den: c64 = coefs.iter().fold(c64::ZERO, |a, &cc| a + cc);
        let inv = den.recip();
        let mut num2 = 0.0;
        let mut den2 = 0.0;
        for &(i, j) in entries {
            let mut acc = c64::ZERO;
            for (cc, y) in coefs.iter().zip(&self.values) {
                acc += *cc * y[(i, j)];
            }
            num2 += (acc * inv - exact[(i, j)]).norm_sqr();
            den2 += exact[(i, j)].norm_sqr();
        }
        (num2 / den2.max(f64::MIN_POSITIVE)).sqrt()
    }

    /// Poles of the interpolant (complex frequencies in Hz): the roots of
    /// the barycentric denominator, found with a deterministic
    /// Durand–Kerner iteration in a normalized variable. Physical
    /// resonances show up as poles near the real axis; their real parts
    /// seed peak searches in `find_resonances`.
    pub fn poles(&self) -> Vec<c64> {
        let m = self.supports.len();
        if m < 2 {
            return Vec::new();
        }
        // Normalize to x ∈ [−1, 1] so monomial coefficients stay tame.
        let mid = 0.5 * (self.supports[0] + self.supports[m - 1]);
        let half = (0.5 * (self.supports[m - 1] - self.supports[0])).max(f64::MIN_POSITIVE);
        let zn: Vec<f64> = self.supports.iter().map(|&z| (z - mid) / half).collect();
        // Denominator N(x) = Σⱼ wⱼ·Πₗ≠ⱼ(x − zₗ), degree ≤ m−1.
        let mut coeffs = vec![c64::ZERO; m];
        for j in 0..m {
            let mut p = vec![c64::ZERO; m];
            p[0] = c64::ONE;
            let mut deg = 0usize;
            for (l, &z) in zn.iter().enumerate() {
                if l == j {
                    continue;
                }
                // p ← p·(x − z), in place, highest degree first.
                for d in (0..=deg).rev() {
                    let pd = p[d];
                    p[d + 1] += pd;
                    p[d] = pd * (-z);
                }
                deg += 1;
            }
            for (cd, &pd) in coeffs.iter_mut().zip(&p) {
                *cd += self.weights[j] * pd;
            }
        }
        polynomial_roots(&coeffs)
            .into_iter()
            .map(|x| c64::from_re(mid) + x * half)
            .collect()
    }
}

/// All roots of `Σ_d coeffs[d]·x^d` by the Durand–Kerner (Weierstrass)
/// iteration with deterministic initial guesses.
pub(crate) fn polynomial_roots(coeffs: &[c64]) -> Vec<c64> {
    let max_c = coeffs.iter().map(|cc| cc.norm()).fold(0.0, f64::max);
    if max_c == 0.0 {
        return Vec::new();
    }
    let mut deg = coeffs.len() - 1;
    while deg > 0 && coeffs[deg].norm() <= 1e-14 * max_c {
        deg -= 1;
    }
    if deg == 0 {
        return Vec::new();
    }
    let lead = coeffs[deg].recip();
    let monic: Vec<c64> = coeffs[..=deg].iter().map(|&cc| cc * lead).collect();
    let base = c64::new(0.4, 0.9);
    let mut seed = c64::ONE;
    let mut roots = Vec::with_capacity(deg);
    for _ in 0..deg {
        seed *= base;
        roots.push(seed);
    }
    for _ in 0..200 {
        let mut max_step = 0.0f64;
        for k in 0..deg {
            let rk = roots[k];
            let mut val = monic[deg];
            for d in (0..deg).rev() {
                val = val * rk + monic[d];
            }
            let mut den = c64::ONE;
            for (l, &rl) in roots.iter().enumerate() {
                if l != k {
                    den *= rk - rl;
                }
            }
            if den.norm() == 0.0 {
                continue;
            }
            let delta = val / den;
            roots[k] = rk - delta;
            max_step = max_step.max(delta.norm());
        }
        if max_step < 1e-13 {
            break;
        }
    }
    roots
}

/// Validates a sweep frequency grid: non-empty, every point finite and
/// strictly positive, and the grid strictly increasing (no duplicates).
///
/// The message names the first offending point, so callers can surface
/// it verbatim in their `InvalidInput`-style errors.
///
/// # Errors
///
/// Returns a descriptive message for the lowest-index violation.
///
/// # Examples
///
/// ```
/// assert!(pdn_num::rational::validate_grid(&[1.0, 2.0, 3.0]).is_ok());
/// assert!(pdn_num::rational::validate_grid(&[1.0, -1.0]).unwrap_err().contains("-1"));
/// assert!(pdn_num::rational::validate_grid(&[2.0, 2.0]).is_err());
/// assert!(pdn_num::rational::validate_grid(&[]).is_err());
/// ```
pub fn validate_grid(freqs: &[f64]) -> Result<(), String> {
    if freqs.is_empty() {
        return Err("sweep grid is empty (need at least one frequency)".into());
    }
    for (k, &f) in freqs.iter().enumerate() {
        if !(f.is_finite() && f > 0.0) {
            return Err(format!(
                "sweep grid point {k} must be a finite frequency > 0, got f = {f}"
            ));
        }
    }
    for (k, w) in freqs.windows(2).enumerate() {
        if w[1] <= w[0] {
            return Err(format!(
                "sweep grid must be strictly increasing: point {} ({}) does not exceed \
                 point {k} ({})",
                k + 1,
                w[1],
                w[0]
            ));
        }
    }
    Ok(())
}

/// Runs a frequency sweep of `eval` over `freqs` under the given
/// accuracy policy. This is the shared engine behind every public sweep
/// API (`BemSystem`, `Circuit`, `EquivalentCircuit`, the core verify
/// helpers).
///
/// `eval` must be a pure function of `f` (it is called from
/// [`crate::parallel`] workers and may be called at any subset of the
/// grid).
///
/// # Errors
///
/// [`SweepError::InvalidInput`] for an invalid grid or `rel_tol`;
/// [`SweepError::Eval`] with the lowest-index failing point's error when
/// `eval` fails.
pub fn sweep<E, F>(
    freqs: &[f64],
    accuracy: SweepAccuracy,
    eval: F,
) -> Result<SweepOutcome, SweepError<E>>
where
    E: Send,
    F: Fn(f64) -> Result<Matrix<c64>, E> + Sync,
{
    let t0 = Instant::now();
    validate_grid(freqs).map_err(SweepError::InvalidInput)?;
    let mut outcome = match accuracy {
        SweepAccuracy::Exact => exact_sweep(freqs, &eval)?,
        SweepAccuracy::Rational { rel_tol } => {
            if !(rel_tol.is_finite() && rel_tol > 0.0) {
                return Err(SweepError::InvalidInput(format!(
                    "Rational rel_tol must be finite and > 0, got {rel_tol}"
                )));
            }
            if freqs.len() < MIN_RATIONAL_POINTS {
                exact_sweep(freqs, &eval)?
            } else {
                rational_sweep(freqs, rel_tol, &eval)?
            }
        }
    };
    outcome.stats.wall = t0.elapsed();
    Ok(outcome)
}

/// The historical path: one exact evaluation per grid point, in
/// parallel, bit-identical for every worker count.
fn exact_sweep<E, F>(freqs: &[f64], eval: &F) -> Result<SweepOutcome, SweepError<E>>
where
    E: Send,
    F: Fn(f64) -> Result<Matrix<c64>, E> + Sync,
{
    let values =
        parallel::try_par_map_indexed(freqs.len(), |k| eval(freqs[k])).map_err(SweepError::Eval)?;
    Ok(SweepOutcome {
        values,
        stats: SweepStats {
            points: freqs.len(),
            exact_points: freqs.len(),
            ..SweepStats::default()
        },
        model: None,
    })
}

/// Solves every listed grid index not already cached, in one parallel
/// batch (ascending index order, so the lowest failing frequency's error
/// is reported).
fn solve_into_cache<E, F>(
    freqs: &[f64],
    idxs: &[usize],
    cache: &mut BTreeMap<usize, Matrix<c64>>,
    eval: &F,
) -> Result<(), SweepError<E>>
where
    E: Send,
    F: Fn(f64) -> Result<Matrix<c64>, E> + Sync,
{
    let need: Vec<usize> = idxs
        .iter()
        .copied()
        .filter(|k| !cache.contains_key(k))
        .collect();
    let solved = parallel::try_par_map_indexed(need.len(), |j| eval(freqs[need[j]]))
        .map_err(SweepError::Eval)?;
    for (k, v) in need.into_iter().zip(solved) {
        cache.insert(k, v);
    }
    Ok(())
}

/// Frobenius-relative mismatch `‖A − B‖_F / ‖B‖_F` (B exact).
fn relative_residual(approx: &Matrix<c64>, exact: &Matrix<c64>) -> f64 {
    let mut num = 0.0;
    let mut den = 0.0;
    for (a, b) in approx.as_slice().iter().zip(exact.as_slice()) {
        num += (*a - *b).norm_sqr();
        den += b.norm_sqr();
    }
    (num / den.max(f64::MIN_POSITIVE)).sqrt()
}

/// Deterministic subset of matrix entries used to build the Loewner
/// matrix: the full entry set when small, otherwise the diagonal plus a
/// strided sample (large port-count or full nodal-admittance sweeps).
fn sampled_entries(rows: usize, cols: usize) -> Vec<(usize, usize)> {
    let total = rows * cols;
    if total <= MAX_SAMPLED_ENTRIES {
        return (0..total).map(|e| (e / cols, e % cols)).collect();
    }
    let mut flat: Vec<usize> = (0..rows.min(cols)).map(|d| d * cols + d).collect();
    let stride = total.div_ceil(MAX_SAMPLED_ENTRIES);
    flat.extend((0..total).step_by(stride));
    flat.sort_unstable();
    flat.dedup();
    flat.into_iter().map(|e| (e / cols, e % cols)).collect()
}

/// Builds a barycentric interpolant from the solved fit data by greedy
/// AAA support selection: the seed support is the point a flat (mean)
/// fit misses worst, and each step promotes the data point with the
/// largest sampled-entry relative residual under the current model
/// (lowest grid index on ties — deterministic). After every promotion
/// the weights are refit against *all* remaining data points, so each
/// exact solve already in the cache constrains the model. Stops once
/// the fit meets `rel_tol` on every non-support point or the support
/// budget is spent (certification then decides what that model is good
/// for).
fn build_model(
    freqs: &[f64],
    data: &[usize],
    cache: &BTreeMap<usize, Matrix<c64>>,
    rel_tol: f64,
) -> RationalModel {
    let vals: Vec<&Matrix<c64>> = data.iter().map(|k| &cache[k]).collect();
    let (rows, cols) = vals[0].shape();
    let entries = sampled_entries(rows, cols);

    let mut mean = Matrix::<c64>::zeros(rows, cols);
    for v in &vals {
        for (o, s) in mean.as_mut_slice().iter_mut().zip(v.as_slice()) {
            *o += *s;
        }
    }
    let inv_n = 1.0 / data.len() as f64;
    for o in mean.as_mut_slice() {
        *o = *o * inv_n;
    }
    let mut is_support = vec![false; data.len()];
    let mut seed = (0usize, f64::NEG_INFINITY);
    for (t, v) in vals.iter().enumerate() {
        let r = relative_residual(&mean, v);
        if r > seed.1 {
            seed = (t, r);
        }
    }
    is_support[seed.0] = true;

    // The support cap keeps the Loewner least-squares problem
    // over-determined: every non-support data point contributes one row
    // *per sampled matrix entry*, so matrix-valued sweeps afford far
    // more supports per data point than scalar ones (solve for m in
    // (data − m)·entries ≥ m + entries). Fitting the data a decade
    // tighter than the certification target leaves margin for the
    // (always larger) error at held-out midpoints.
    let cap = MAX_SUPPORTS
        .min(entries.len() * (data.len() - 1) / (entries.len() + 1))
        .max(1);
    let fit_tol = 0.1 * rel_tol;
    loop {
        let model = fit_weights(freqs, data, &vals, &is_support, &entries);
        let mut worst = (usize::MAX, 0.0f64);
        for (t, v) in vals.iter().enumerate() {
            if is_support[t] {
                continue;
            }
            let r = model.entry_residual(freqs[data[t]], v, &entries);
            if r > worst.1 {
                worst = (t, r);
            }
        }
        let supports = is_support.iter().filter(|s| **s).count();
        if worst.0 == usize::MAX || worst.1 <= fit_tol || supports >= cap {
            return model;
        }
        is_support[worst.0] = true;
    }
}

/// Barycentric weights for a fixed support set: the least-squares null
/// vector of the Loewner matrix whose rows are the relative-residual
/// equations at every non-support data point.
fn fit_weights(
    freqs: &[f64],
    data: &[usize],
    vals: &[&Matrix<c64>],
    is_support: &[bool],
    entries: &[(usize, usize)],
) -> RationalModel {
    let sup: Vec<usize> = (0..data.len()).filter(|&t| is_support[t]).collect();
    let tests: Vec<usize> = (0..data.len()).filter(|&t| !is_support[t]).collect();
    let supports: Vec<f64> = sup.iter().map(|&t| freqs[data[t]]).collect();
    let values: Vec<Matrix<c64>> = sup.iter().map(|&t| vals[t].clone()).collect();
    let m = supports.len();
    let weights = if tests.is_empty() {
        vec![c64::ONE; m]
    } else {
        let mut l = Matrix::<c64>::zeros(tests.len() * entries.len(), m);
        let mut r = 0;
        for &t in &tests {
            let ft = freqs[data[t]];
            let yt = vals[t];
            // Row scaling makes each test equation a *relative* residual.
            let norm: f64 = entries
                .iter()
                .map(|&(i, j)| yt[(i, j)].norm_sqr())
                .sum::<f64>()
                .sqrt();
            let scale = 1.0 / norm.max(f64::MIN_POSITIVE);
            for &(i, j) in entries {
                for (jj, (&z, yz)) in supports.iter().zip(&values).enumerate() {
                    l[(r, jj)] = (yt[(i, j)] - yz[(i, j)]) * (scale / (ft - z));
                }
                r += 1;
            }
        }
        // The weight vector minimizing ‖L·w‖ over ‖w‖ = 1, computed on
        // L directly (QR + inverse iteration) — forming LᴴL would floor
        // the attainable residual near √ε and block tight tolerances.
        smallest_singular_vector(&l).unwrap_or_else(|_| vec![c64::ONE; m])
    };
    RationalModel {
        supports,
        values,
        weights,
    }
}

/// The adaptive anchor/certify/fill loop described in the module docs.
fn rational_sweep<E, F>(
    freqs: &[f64],
    rel_tol: f64,
    eval: &F,
) -> Result<SweepOutcome, SweepError<E>>
where
    E: Send,
    F: Fn(f64) -> Result<Matrix<c64>, E> + Sync,
{
    let n = freqs.len();
    let mut cache: BTreeMap<usize, Matrix<c64>> = BTreeMap::new();
    // Fit data: sorted grid indices whose exact solves constrain the
    // model. Certification midpoints stay *out* of this list (held out)
    // until they fail, at which point they join it.
    let mut data: Vec<usize> = (0..=4).map(|q| q * (n - 1) / 4).collect();
    data.dedup();
    // Past this many exact solves a rational fit cannot beat exact
    // solving; stop refining and let uncertified intervals fall back.
    let solve_budget = n / 2;

    let mut model: Option<RationalModel> = None;
    let mut certified: Vec<(usize, usize)> = Vec::new();
    let mut max_residual = 0.0f64;

    for round in 0..MAX_REFINE_ROUNDS {
        solve_into_cache(freqs, &data, &mut cache, eval)?;
        let m = build_model(freqs, &data, &cache, rel_tol);
        // Certify the midpoint of every interval between adjacent fit
        // points with interior grid points. Midpoints solved in an
        // earlier round are still cached, so re-checking them against
        // the current model costs no new factorization.
        let tests: Vec<(usize, usize, usize)> = data
            .windows(2)
            .filter(|w| w[1] > w[0] + 1)
            .map(|w| (w[0], w[1], (w[0] + w[1]) / 2))
            .collect();
        let mids: Vec<usize> = tests.iter().map(|t| t.2).collect();
        solve_into_cache(freqs, &mids, &mut cache, eval)?;
        let mut failing: Vec<usize> = Vec::new();
        let mut round_certified: Vec<(usize, usize)> = Vec::new();
        let mut round_max = 0.0f64;
        for &(lo, hi, mid) in &tests {
            let resid = relative_residual(&m.evaluate(freqs[mid]), &cache[&mid]);
            if resid <= rel_tol {
                round_certified.push((lo, hi));
                round_max = round_max.max(resid);
            } else {
                failing.push(mid);
            }
        }
        let stalled = cache.len() > solve_budget || round + 1 == MAX_REFINE_ROUNDS;
        if failing.is_empty() || stalled {
            // Keep only the intervals *this* model certifies; anything
            // else is exact-solved below.
            model = Some(m);
            certified = round_certified;
            max_residual = round_max;
            break;
        }
        data.extend(failing);
        data.sort_unstable();
    }

    let anchor_freqs: Vec<f64> = cache.keys().map(|&k| freqs[k]).collect();
    let anchors_factored = cache.len();

    let mut interp_ok = vec![false; n];
    for &(lo, hi) in &certified {
        for slot in interp_ok.iter_mut().take(hi).skip(lo + 1) {
            *slot = true;
        }
    }
    let fallback: Vec<usize> = (0..n)
        .filter(|k| !cache.contains_key(k) && !interp_ok[*k])
        .collect();
    solve_into_cache(freqs, &fallback, &mut cache, eval)?;

    let model_ref = model.as_ref();
    let values: Vec<Matrix<c64>> = parallel::par_map_indexed(n, |k| match cache.get(&k) {
        Some(v) => v.clone(),
        None => model_ref
            .expect("uncached points lie inside certified intervals")
            .evaluate(freqs[k]),
    });

    let exact_points = (0..n).filter(|k| cache.contains_key(k)).count();
    let stats = SweepStats {
        points: n,
        anchors: anchors_factored,
        anchor_freqs,
        exact_points,
        interpolated_points: n - exact_points,
        fallback_points: fallback.len(),
        max_residual,
        wall: Duration::default(),
    };
    Ok(SweepOutcome {
        values,
        stats,
        model,
    })
}

/// Grid-scan peak candidates with parabolic refinement: `(freq, mag)`
/// for every interior local maximum.
fn grid_peak_candidates(freqs: &[f64], mags: &[f64]) -> Vec<(f64, f64)> {
    assert_eq!(freqs.len(), mags.len(), "one magnitude per grid point");
    if freqs.len() < 3 {
        return Vec::new();
    }
    let df = freqs[1] - freqs[0];
    let mut peaks = Vec::new();
    for k in 1..freqs.len() - 1 {
        if mags[k] > mags[k - 1] && mags[k] > mags[k + 1] {
            let (y0, y1, y2) = (mags[k - 1], mags[k], mags[k + 1]);
            let denom = y0 - 2.0 * y1 + y2;
            let shift = if denom.abs() > 0.0 {
                (0.5 * (y0 - y2) / denom).clamp(-1.0, 1.0)
            } else {
                0.0
            };
            peaks.push((freqs[k] + shift * df, mags[k]));
        }
    }
    peaks
}

/// Sorts peak candidates ascending and merges any pair closer than
/// `min_sep` (one grid step), keeping the stronger peak.
fn finish_peaks(mut peaks: Vec<(f64, f64)>, min_sep: f64) -> Vec<f64> {
    peaks.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut out: Vec<(f64, f64)> = Vec::new();
    for (f, m) in peaks {
        match out.last_mut() {
            Some(last) if f - last.0 < min_sep => {
                if m > last.1 {
                    *last = (f, m);
                }
            }
            _ => out.push((f, m)),
        }
    }
    out.into_iter().map(|(f, _)| f).collect()
}

/// Local maxima of `|z|` samples on a uniform grid with parabolic
/// refinement, returned **ascending** with peaks closer than one grid
/// step deduplicated (the stronger one wins). Shared by the `pdn_bem`
/// and `pdn_extract` resonance scans.
///
/// Grids shorter than three samples have no interior point and return
/// an empty list.
///
/// # Panics
///
/// Panics if `freqs` and `mags` differ in length.
///
/// # Examples
///
/// ```
/// let freqs: Vec<f64> = (0..101).map(|k| 1.0 + 0.09 * k as f64).collect();
/// let mags: Vec<f64> = freqs.iter().map(|&f| 1.0 / ((f - 5.3f64).powi(2) + 0.01)).collect();
/// let peaks = pdn_num::rational::peaks_on_grid(&freqs, &mags);
/// assert_eq!(peaks.len(), 1);
/// assert!((peaks[0] - 5.3).abs() < 0.05);
/// ```
pub fn peaks_on_grid(freqs: &[f64], mags: &[f64]) -> Vec<f64> {
    if freqs.len() < 3 {
        return Vec::new();
    }
    let peaks = grid_peak_candidates(freqs, mags);
    finish_peaks(peaks, freqs[1] - freqs[0])
}

/// Deterministic golden-section search for the maximum of `g` on
/// `[a, b]`.
fn golden_max(a: f64, b: f64, g: &dyn Fn(f64) -> f64) -> (f64, f64) {
    const INV_PHI: f64 = 0.618_033_988_749_894_8;
    let (mut lo, mut hi) = (a, b);
    let mut x1 = hi - INV_PHI * (hi - lo);
    let mut x2 = lo + INV_PHI * (hi - lo);
    let (mut g1, mut g2) = (g(x1), g(x2));
    for _ in 0..48 {
        if g1 < g2 {
            lo = x1;
            x1 = x2;
            g1 = g2;
            x2 = lo + INV_PHI * (hi - lo);
            g2 = g(x2);
        } else {
            hi = x2;
            x2 = x1;
            g2 = g1;
            x1 = hi - INV_PHI * (hi - lo);
            g1 = g(x1);
        }
    }
    let xm = 0.5 * (lo + hi);
    (xm, g(xm))
}

/// Resonance peaks seeded by the rational model's poles instead of a
/// grid rescan: each in-band, lightly damped pole is refined to the
/// local maximum of `mag_of(R(f))` within one grid step of its real
/// part. Grid-scan peaks with no pole candidate nearby are kept too, so
/// the result never misses what the plain scan would find. Ascending,
/// deduplicated within one grid step.
///
/// # Panics
///
/// Panics if `freqs` and `mags` differ in length (fewer than three
/// samples returns no peaks).
pub fn pole_seeded_peaks(
    freqs: &[f64],
    mags: &[f64],
    model: &RationalModel,
    mag_of: &dyn Fn(&Matrix<c64>) -> f64,
) -> Vec<f64> {
    assert_eq!(freqs.len(), mags.len(), "one magnitude per grid point");
    let n = freqs.len();
    if n < 3 {
        return Vec::new();
    }
    let df = freqs[1] - freqs[0];
    let (f_lo, f_hi) = (freqs[0], freqs[n - 1]);
    let band = f_hi - f_lo;
    let g = |f: f64| mag_of(&model.evaluate(f));
    let mut cands: Vec<(f64, f64)> = Vec::new();
    for p in model.poles() {
        let fr = p.re;
        // Interior, lightly damped poles only — mirrors the exact scan's
        // interior-maxima semantics and drops spurious far-field roots.
        if !(p.is_finite() && fr > f_lo && fr < f_hi) || p.im.abs() > band {
            continue;
        }
        let (fpk, mpk) = golden_max((fr - df).max(f_lo), (fr + df).min(f_hi), &g);
        let left = g((fpk - df).max(f_lo));
        let right = g((fpk + df).min(f_hi));
        if mpk > left && mpk > right && fpk > f_lo && fpk < f_hi {
            cands.push((fpk, mpk));
        }
    }
    // Safety net: any grid-scale peak the poles did not account for is
    // kept, so pole seeding can only sharpen the scan, never lose peaks.
    for (f, m) in grid_peak_candidates(freqs, mags) {
        if cands.iter().all(|&(fc, _)| (fc - f).abs() >= df) {
            cands.push((f, m));
        }
    }
    finish_peaks(cands, df)
}

/// The resonance scan shared by `pdn_bem` and `pdn_extract`: checks the
/// request, sweeps `|Z(port, port)|` over `points` linearly spaced
/// frequencies in `[f_start, f_stop]` through `sweep`, and returns the
/// peaks ascending — seeded by the sweep's rational model when it built
/// one ([`pole_seeded_peaks`]), else the grid maxima ([`peaks_on_grid`]).
///
/// # Errors
///
/// `invalid` wraps a descriptive message unless `port < ports`,
/// `points >= 2` and `0 < f_start < f_stop` with `f_stop` finite; errors
/// from `sweep` pass through.
pub fn scan_resonances<E>(
    port: usize,
    ports: usize,
    f_start: f64,
    f_stop: f64,
    points: usize,
    invalid: impl FnOnce(String) -> E,
    sweep: impl FnOnce(&[f64]) -> Result<SweepOutcome, E>,
) -> Result<Vec<f64>, E> {
    if port >= ports {
        return Err(invalid(format!(
            "resonance scan port {port} out of range: {ports} ports bound"
        )));
    }
    if points < 2 {
        return Err(invalid(format!(
            "resonance scan needs at least two sweep points, got {points}"
        )));
    }
    if !(f_start > 0.0 && f_stop > f_start && f_stop.is_finite()) {
        return Err(invalid(format!(
            "invalid resonance scan range [{f_start}, {f_stop}]: need 0 < f_start < f_stop"
        )));
    }
    let freqs: Vec<f64> = (0..points)
        .map(|k| f_start + (f_stop - f_start) * k as f64 / (points - 1) as f64)
        .collect();
    let outcome = sweep(&freqs)?;
    let mag = |z: &Matrix<c64>| z[(port, port)].norm();
    let mags: Vec<f64> = outcome.values.iter().map(mag).collect();
    Ok(match &outcome.model {
        Some(model) => pole_seeded_peaks(&freqs, &mags, model, &mag),
        None => peaks_on_grid(&freqs, &mags),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::convert::Infallible;

    fn scalar(v: c64) -> Matrix<c64> {
        Matrix::from_rows(&[&[v]])
    }

    /// A two-pole scalar "impedance" with a narrow and a broad peak.
    fn two_pole(f: f64) -> c64 {
        let p1 = c64::new(3.0, 0.02);
        let p2 = c64::new(7.0, 0.5);
        (c64::from_re(f) - p1).recip() + (c64::from_re(f) - p2).recip() * 2.0 + c64::new(0.1, 0.05)
    }

    fn grid(n: usize) -> Vec<f64> {
        (0..n)
            .map(|k| 1.0 + 9.0 * k as f64 / (n - 1) as f64)
            .collect()
    }

    #[test]
    fn grid_validation_reports_lowest_offender() {
        assert!(validate_grid(&[]).unwrap_err().contains("empty"));
        assert!(validate_grid(&[5.0]).is_ok());
        let err = validate_grid(&[1e8, -1.0, 0.0]).unwrap_err();
        assert!(err.contains("-1"), "{err}");
        let err = validate_grid(&[1.0, f64::NAN]).unwrap_err();
        assert!(err.contains("NaN"), "{err}");
        let err = validate_grid(&[1.0, f64::INFINITY]).unwrap_err();
        assert!(err.contains("inf"), "{err}");
        let err = validate_grid(&[1.0, 2.0, 2.0]).unwrap_err();
        assert!(err.contains("strictly increasing"), "{err}");
        let err = validate_grid(&[2.0, 1.0]).unwrap_err();
        assert!(err.contains("strictly increasing"), "{err}");
    }

    #[test]
    fn exact_path_matches_direct_evaluation() {
        let freqs = grid(10);
        let out = sweep(&freqs, SweepAccuracy::Exact, |f| {
            Ok::<_, Infallible>(scalar(two_pole(f)))
        })
        .unwrap();
        for (k, &f) in freqs.iter().enumerate() {
            assert_eq!(out.values[k], scalar(two_pole(f)));
        }
        assert_eq!(out.stats.exact_points, 10);
        assert_eq!(out.stats.interpolated_points, 0);
        assert!(out.model.is_none());
    }

    #[test]
    fn rational_path_matches_exact_within_tolerance() {
        let freqs = grid(200);
        let rel_tol = 1e-9;
        let out = sweep(&freqs, SweepAccuracy::Rational { rel_tol }, |f| {
            Ok::<_, Infallible>(scalar(two_pole(f)))
        })
        .unwrap();
        assert!(
            out.stats.anchors < 60,
            "expected few anchors, got {}",
            out.stats.anchors
        );
        assert_eq!(out.stats.exact_points + out.stats.interpolated_points, 200);
        for (k, &f) in freqs.iter().enumerate() {
            let exact = two_pole(f);
            let got = out.values[k][(0, 0)];
            let rel = (got - exact).norm() / exact.norm();
            assert!(rel < 1e-6, "f = {f}: rel = {rel:.3e}");
        }
    }

    #[test]
    fn anchors_are_bit_exact_grid_values() {
        let freqs = grid(64);
        let out = sweep(&freqs, SweepAccuracy::Rational { rel_tol: 1e-8 }, |f| {
            Ok::<_, Infallible>(scalar(two_pole(f)))
        })
        .unwrap();
        for &fa in &out.stats.anchor_freqs {
            let k = freqs.iter().position(|&f| f == fa).expect("anchor on grid");
            assert_eq!(out.values[k], scalar(two_pole(fa)), "anchor at {fa}");
        }
    }

    #[test]
    fn small_grids_use_the_exact_path() {
        let freqs = grid(MIN_RATIONAL_POINTS - 1);
        let out = sweep(&freqs, SweepAccuracy::Rational { rel_tol: 1e-8 }, |f| {
            Ok::<_, Infallible>(scalar(two_pole(f)))
        })
        .unwrap();
        assert_eq!(out.stats.exact_points, freqs.len());
        assert!(out.model.is_none());
    }

    #[test]
    fn invalid_rel_tol_is_rejected() {
        for bad in [0.0, -1e-8, f64::NAN, f64::INFINITY] {
            let r = sweep(&grid(32), SweepAccuracy::Rational { rel_tol: bad }, |f| {
                Ok::<_, Infallible>(scalar(two_pole(f)))
            });
            assert!(
                matches!(r, Err(SweepError::InvalidInput(_))),
                "rel_tol = {bad}"
            );
        }
    }

    #[test]
    fn eval_errors_surface_lowest_index() {
        let freqs = grid(32);
        let bad = freqs[3];
        let r = sweep(&freqs, SweepAccuracy::Exact, |f| {
            if f >= bad {
                Err(format!("boom at {f}"))
            } else {
                Ok(scalar(two_pole(f)))
            }
        });
        match r {
            Err(SweepError::Eval(msg)) => assert!(msg.contains(&format!("{bad}")), "{msg}"),
            other => panic!("expected Eval error, got {other:?}"),
        }
    }

    #[test]
    fn model_recovers_pole_locations() {
        let freqs = grid(200);
        let out = sweep(&freqs, SweepAccuracy::Rational { rel_tol: 1e-9 }, |f| {
            Ok::<_, Infallible>(scalar(two_pole(f)))
        })
        .unwrap();
        let model = out.model.expect("smooth rational input certifies");
        let poles = model.poles();
        for expect in [c64::new(3.0, 0.02), c64::new(7.0, 0.5)] {
            let hit = poles
                .iter()
                .any(|p| (*p - expect).norm() < 1e-3 || (p.conj() - expect).norm() < 1e-3);
            assert!(hit, "pole near {expect} not found in {poles:?}");
        }
    }

    #[test]
    fn non_rational_input_falls_back_without_accuracy_loss() {
        // |sin| kinks are not rational; refinement must stall and the
        // engine must fall back to exact solves rather than return a bad
        // fit.
        let freqs = grid(48);
        let f_of = |f: f64| scalar(c64::from_re((40.0 * f).sin().abs() + 1.0));
        let out = sweep(&freqs, SweepAccuracy::Rational { rel_tol: 1e-10 }, |f| {
            Ok::<_, Infallible>(f_of(f))
        })
        .unwrap();
        for (k, &f) in freqs.iter().enumerate() {
            let rel = relative_residual(&out.values[k], &f_of(f));
            assert!(rel <= 1e-10, "f = {f}: rel = {rel:.3e}");
        }
        assert!(out.stats.fallback_points > 0, "expected a stalled fallback");
    }

    #[test]
    fn peaks_are_ascending_and_deduped() {
        let freqs: Vec<f64> = (0..101).map(|k| 1.0 + 0.1 * k as f64).collect();
        let mags: Vec<f64> = freqs
            .iter()
            .map(|&f| 5.0 / ((f - 4.0f64).powi(2) + 0.01) + 1.0 / ((f - 9.0f64).powi(2) + 0.01))
            .collect();
        let peaks = peaks_on_grid(&freqs, &mags);
        assert_eq!(peaks.len(), 2);
        assert!(peaks[0] < peaks[1]);
        assert!((peaks[0] - 4.0).abs() < 0.05);
        assert!((peaks[1] - 9.0).abs() < 0.05);
        // Two refined candidates within one grid step merge into one.
        let merged = finish_peaks(vec![(5.00, 1.0), (5.05, 2.0), (7.0, 1.5)], 0.1);
        assert_eq!(merged, vec![5.05, 7.0]);
    }

    #[test]
    fn pole_seeding_finds_the_same_peaks_as_the_scan() {
        let freqs = grid(200);
        let out = sweep(&freqs, SweepAccuracy::Rational { rel_tol: 1e-9 }, |f| {
            Ok::<_, Infallible>(scalar(two_pole(f)))
        })
        .unwrap();
        let mags: Vec<f64> = out.values.iter().map(|m| m[(0, 0)].norm()).collect();
        let scan = peaks_on_grid(&freqs, &mags);
        let model = out.model.expect("certified");
        let mag_of = |m: &Matrix<c64>| m[(0, 0)].norm();
        let seeded = pole_seeded_peaks(&freqs, &mags, &model, &mag_of);
        assert_eq!(seeded.len(), scan.len(), "{seeded:?} vs {scan:?}");
        for (s, p) in seeded.iter().zip(&scan) {
            assert!((s - p).abs() < 2.0 * (freqs[1] - freqs[0]), "{s} vs {p}");
        }
    }

    #[test]
    fn entry_sampling_is_bounded_and_covers_the_diagonal() {
        let small = sampled_entries(3, 3);
        assert_eq!(small.len(), 9);
        let big = sampled_entries(40, 40);
        assert!(big.len() <= MAX_SAMPLED_ENTRIES + 40);
        for d in 0..40 {
            assert!(big.contains(&(d, d)), "diagonal entry {d} sampled");
        }
    }

    #[test]
    fn polynomial_roots_of_a_quadratic() {
        // (x − 1)(x + 2) = x² + x − 2.
        let roots = polynomial_roots(&[c64::from_re(-2.0), c64::ONE, c64::ONE]);
        assert_eq!(roots.len(), 2);
        let mut re: Vec<f64> = roots.iter().map(|r| r.re).collect();
        re.sort_by(f64::total_cmp);
        assert!((re[0] + 2.0).abs() < 1e-10 && (re[1] - 1.0).abs() < 1e-10);
        for r in roots {
            assert!(r.im.abs() < 1e-10);
        }
    }
}
