//! Passive pole–residue reduced-order macromodels (PROM) for port
//! admittance matrices, built from certified barycentric rational fits.
//!
//! The adaptive sweep engine ([`crate::rational`]) already certifies a
//! rational interpolant of `Y(f)` against exact solves. This module
//! converts that interpolant into a *state-space* partial-fraction form
//!
//! ```text
//! Y(s) = D + s·E + Σₖ Rₖ/(s − pₖ) + Σₘ [Cₘ/(s − qₘ) + C̄ₘ/(s − q̄ₘ)]
//! ```
//!
//! with real poles `pₖ < 0`, conjugate pairs `qₘ` (Re qₘ < 0), and
//! symmetric residue matrices, then
//!
//! 1. **stabilizes** the pole set (unstable poles are flipped into the
//!    left half plane, out-of-band and duplicate poles are dropped),
//! 2. **refits** all residues by a weighted linear least-squares solve
//!    against the certified sweep samples (one shared normal-equation
//!    factorization for every symmetric matrix entry),
//! 3. **enforces passivity**: the Hermitian part of `Y(jω)` — for the
//!    symmetric fit this is the entrywise real part — is made positive
//!    semidefinite on the certification grid (and in the `ω → ∞` limit
//!    `D`) by a minimal uniform conductance shift of the diagonal,
//! 4. **re-certifies** the perturbed model against held-out exact
//!    solves that never entered the fit.
//!
//! The payoff is the time-domain cost model: simulated by *recursive
//! convolution* (one scalar state per pole and port), a transient step
//! costs `O(poles × ports²)` instead of the `O(mesh²)` back-substitution
//! of the full R–L‖C macromodel stamp. The per-step recursions are
//! exposed here ([`PoleResidueModel::history_current`] /
//! [`PoleResidueModel::advance_state`]) so the MNA transient engine can
//! stamp the model as a single multiport companion element.
//!
//! All per-step pole fan-out goes through [`crate::parallel`] with
//! results reduced in pole-index order, so transient waveforms are
//! **bit-identical for every `PDN_THREADS` setting**. A built model
//! reports its own size and fit quality through its accessors
//! ([`PoleResidueModel::state_count`], [`PoleResidueModel::fit_residual`],
//! [`PoleResidueModel::passivity_shift`], …).

use crate::complex::c64;
use crate::eigen::symmetric_eigen;
use crate::lu::LuDecomposition;
use crate::matrix::Matrix;
use crate::parallel::par_map_indexed;
use crate::rational::RationalModel;
use std::f64::consts::PI;
use std::fmt;

/// Options for [`PoleResidueModel::from_rational`].
#[derive(Debug, Clone, Copy)]
pub struct PromOptions {
    /// Relative (Frobenius) tolerance the passivity-enforced model must
    /// meet at every held-out exact solve. Must be positive and finite.
    pub cert_tol: f64,
}

impl Default for PromOptions {
    fn default() -> Self {
        PromOptions { cert_tol: 0.02 }
    }
}

/// Errors from pole–residue model construction.
#[derive(Debug, Clone, PartialEq)]
pub enum PromError {
    /// Inconsistent grids/samples or invalid options.
    InvalidInput(String),
    /// A linear-algebra step failed (singular normal equations, eigen
    /// solve breakdown).
    NumericalBreakdown(String),
    /// The passivity-enforced model misses `cert_tol` at a held-out
    /// exact solve.
    CertificationFailed {
        /// Worst relative deviation measured at the held-out points.
        residual: f64,
        /// The requested tolerance.
        tol: f64,
    },
}

impl fmt::Display for PromError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PromError::InvalidInput(m) => write!(f, "invalid PROM input: {m}"),
            PromError::NumericalBreakdown(m) => write!(f, "PROM numerical breakdown: {m}"),
            PromError::CertificationFailed { residual, tol } => write!(
                f,
                "PROM certification failed: held-out residual {residual:.3e} exceeds tol {tol:.3e}"
            ),
        }
    }
}

impl std::error::Error for PromError {}

/// Transient state of one stamped pole–residue element: the scalar
/// convolution states (one per pole and port), plus the previous port
/// voltages and linear-term currents the companion recursions need.
#[derive(Debug, Clone)]
pub struct RomTransientState {
    /// One state vector (length `ports`) per real pole.
    x_real: Vec<Vec<f64>>,
    /// One complex state vector (length `ports`) per conjugate pair.
    x_pair: Vec<Vec<c64>>,
    /// Port voltages at the previous accepted step.
    v: Vec<f64>,
    /// `E`-branch (linear-term) currents at the previous step.
    i_e: Vec<f64>,
}

/// A passive pole–residue macromodel of a symmetric port admittance.
///
/// Poles are complex frequencies `s = σ + jω` in rad/s with `σ < 0`;
/// residues are symmetric `ports × ports` matrices. See the module docs
/// for the construction pipeline and the time-domain recursions.
#[derive(Debug, Clone, PartialEq)]
pub struct PoleResidueModel {
    ports: usize,
    d: Matrix<f64>,
    e: Matrix<f64>,
    real_poles: Vec<f64>,
    real_residues: Vec<Matrix<f64>>,
    pair_poles: Vec<c64>,
    pair_residues: Vec<Matrix<c64>>,
    passivity_shift: f64,
    fit_residual: f64,
    holdout_residual: f64,
}

/// Work (pole count × ports²) below which the per-step pole fan-out
/// stays on the calling thread: scoped-thread spawn costs dwarf the
/// arithmetic for small models, and both branches reduce in pole-index
/// order so the choice never changes a bit of the result.
const PAR_STEP_THRESHOLD: usize = 16384;

impl PoleResidueModel {
    /// Builds a passive pole–residue model from a certified rational
    /// interpolant and its sweep samples.
    ///
    /// * `model` — the certified barycentric interpolant (pole source).
    /// * `grid` / `grid_values` — the certification grid (Hz, ascending)
    ///   and one symmetric admittance sample per point; these drive the
    ///   residue refit and the passivity scan.
    /// * `holdout` / `holdout_values` — exact solves at frequencies that
    ///   never entered the fit; the enforced model must match them
    ///   within `options.cert_tol`.
    ///
    /// # Errors
    ///
    /// [`PromError::InvalidInput`] for inconsistent shapes/grids,
    /// [`PromError::NumericalBreakdown`] when the refit or eigen solves
    /// fail, and [`PromError::CertificationFailed`] when the enforced
    /// model misses `cert_tol` on the held-out solves.
    pub fn from_rational(
        model: &RationalModel,
        grid: &[f64],
        grid_values: &[Matrix<c64>],
        holdout: &[f64],
        holdout_values: &[Matrix<c64>],
        options: &PromOptions,
    ) -> Result<Self, PromError> {
        if !(options.cert_tol.is_finite() && options.cert_tol > 0.0) {
            return Err(PromError::InvalidInput(format!(
                "cert_tol must be positive and finite, got {}",
                options.cert_tol
            )));
        }
        if grid.len() < 4 {
            return Err(PromError::InvalidInput(format!(
                "need at least 4 certification grid points, got {}",
                grid.len()
            )));
        }
        if grid.len() != grid_values.len() || holdout.len() != holdout_values.len() {
            return Err(PromError::InvalidInput(
                "one sample matrix per grid/holdout frequency required".into(),
            ));
        }
        crate::rational::validate_grid(grid).map_err(PromError::InvalidInput)?;
        let ports = grid_values[0].nrows();
        for y in grid_values.iter().chain(holdout_values) {
            if y.shape() != (ports, ports) {
                return Err(PromError::InvalidInput(format!(
                    "sample shape {:?} differs from first sample ({ports} × {ports})",
                    y.shape()
                )));
            }
        }
        let omega_max = 2.0 * PI * grid[grid.len() - 1];

        let (mut real_poles, mut pair_poles) = select_poles(model, omega_max, 2 * grid.len() - 2);
        // ω_max doubles as the normalization scale so the stabilized
        // band in the relocation's normalized variable is [1e-9, 3].
        relocate_poles(
            grid,
            grid_values,
            &mut real_poles,
            &mut pair_poles,
            omega_max,
        );
        let (mut d, mut e, mut real_residues, mut pair_residues) =
            refit_residues(grid, grid_values, &real_poles, &pair_poles, ports, None)?;

        // Poles near or below the band edge have almost-constant in-band
        // basis columns, so the free fit can park a large negative offset
        // in D that the residues cancel everywhere on the grid. Lifting
        // that offset with the uniform diagonal shift below would wreck
        // the fit wherever |Y| is small, so instead project D onto the
        // PSD cone and re-solve everything else with D pinned — the pole
        // terms reabsorb the (in-band constant) difference and the grid
        // scan is left patching genuine ripple only.
        let d_eig = symmetric_eigen(&d)
            .map_err(|e| PromError::NumericalBreakdown(format!("D projection eigen solve: {e}")))?;
        if d_eig.values[0] < 0.0 {
            let mut d_psd = Matrix::<f64>::zeros(ports, ports);
            for (k, &lam) in d_eig.values.iter().enumerate() {
                if lam <= 0.0 {
                    continue;
                }
                for i in 0..ports {
                    for j in 0..ports {
                        d_psd[(i, j)] += lam * d_eig.vectors[(i, k)] * d_eig.vectors[(j, k)];
                    }
                }
            }
            (d, e, real_residues, pair_residues) = refit_residues(
                grid,
                grid_values,
                &real_poles,
                &pair_poles,
                ports,
                Some(&d_psd),
            )?;
        }

        let mut out = PoleResidueModel {
            ports,
            d,
            e,
            real_poles,
            real_residues,
            pair_poles,
            pair_residues,
            passivity_shift: 0.0,
            fit_residual: 0.0,
            holdout_residual: 0.0,
        };

        // Passivity: the fit is symmetric, so the Hermitian part of
        // Y(jω) is the entrywise real part — a real symmetric matrix.
        // Scan the certification grid plus the ω → ∞ limit (D) for the
        // most negative eigenvalue and lift D by a uniform conductance
        // shift just past it.
        let eig_min = |m: &Matrix<f64>| -> Result<f64, PromError> {
            symmetric_eigen(m)
                .map(|e| e.values[0])
                .map_err(|e| PromError::NumericalBreakdown(format!("passivity eigen solve: {e}")))
        };
        let mut lambda_min = eig_min(&out.d)?;
        for &f in grid {
            let re_y = out.evaluate(f).map(|z| z.re);
            lambda_min = lambda_min.min(eig_min(&re_y)?);
        }
        if lambda_min < 0.0 {
            let shift = -lambda_min * (1.0 + 1e-6);
            for i in 0..ports {
                out.d[(i, i)] += shift;
            }
            out.passivity_shift = shift;
        }

        out.fit_residual = worst_residual(&out, grid, grid_values);
        out.holdout_residual = worst_residual(&out, holdout, holdout_values);

        // NaN-safe: a NaN residual must fail certification.
        let certified = out.holdout_residual <= options.cert_tol;
        if !holdout.is_empty() && !certified {
            return Err(PromError::CertificationFailed {
                residual: out.holdout_residual,
                tol: options.cert_tol,
            });
        }
        Ok(out)
    }

    /// Number of ports.
    pub fn ports(&self) -> usize {
        self.ports
    }

    /// Number of poles (each conjugate pair counts once).
    pub fn pole_count(&self) -> usize {
        self.real_poles.len() + self.pair_poles.len()
    }

    /// Number of scalar convolution states carried through a transient
    /// (complex pair states count two scalars per port).
    pub fn state_count(&self) -> usize {
        (self.real_poles.len() + 2 * self.pair_poles.len()) * self.ports
    }

    /// Real poles (rad/s, all negative), ascending.
    pub fn real_poles(&self) -> &[f64] {
        &self.real_poles
    }

    /// Conjugate-pair poles (rad/s, `Re < 0 < Im` representative).
    pub fn pair_poles(&self) -> &[c64] {
        &self.pair_poles
    }

    /// The uniform conductance added to the diagonal of `D` to make the
    /// Hermitian part PSD on the certification grid (0 when the raw fit
    /// was already passive there).
    pub fn passivity_shift(&self) -> f64 {
        self.passivity_shift
    }

    /// Worst relative Frobenius deviation against the certification
    /// samples, measured *after* passivity enforcement.
    pub fn fit_residual(&self) -> f64 {
        self.fit_residual
    }

    /// Worst relative Frobenius deviation against the held-out exact
    /// solves, measured after passivity enforcement.
    pub fn holdout_residual(&self) -> f64 {
        self.holdout_residual
    }

    /// Approximate per-transient-step mul-add count:
    /// `(real + 2·pair + 2) × ports²` (history currents plus the
    /// `E`-branch and state recursions).
    pub fn per_step_cost(&self) -> usize {
        (self.real_poles.len() + 2 * self.pair_poles.len() + 2) * self.ports * self.ports
    }

    /// Serializes the model into `w`, bit-exactly: a decoded model is
    /// `==` (and its transient recursions bit-identical) to this one.
    /// Consumed by the `pdn-service` extraction cache.
    pub fn write_to(&self, w: &mut crate::codec::ByteWriter) {
        w.put_usize(self.ports);
        w.put_matrix_f64(&self.d);
        w.put_matrix_f64(&self.e);
        w.put_f64_slice(&self.real_poles);
        w.put_usize(self.real_residues.len());
        for m in &self.real_residues {
            w.put_matrix_f64(m);
        }
        w.put_usize(self.pair_poles.len());
        for &p in &self.pair_poles {
            w.put_c64(p);
        }
        w.put_usize(self.pair_residues.len());
        for m in &self.pair_residues {
            w.put_matrix_c64(m);
        }
        w.put_f64(self.passivity_shift);
        w.put_f64(self.fit_residual);
        w.put_f64(self.holdout_residual);
    }

    /// Deserializes a model written by [`write_to`](Self::write_to).
    ///
    /// # Errors
    ///
    /// [`crate::codec::CodecError`] on truncation, or when the decoded
    /// dimensions are inconsistent (every matrix must be
    /// `ports × ports`, residue counts must match their pole lists).
    pub fn read_from(
        r: &mut crate::codec::ByteReader<'_>,
    ) -> Result<Self, crate::codec::CodecError> {
        use crate::codec::CodecError;
        let ports = r.get_usize()?;
        let d = r.get_matrix_f64()?;
        let e = r.get_matrix_f64()?;
        let real_poles = r.get_f64_vec()?;
        let n_real = r.get_usize()?;
        let real_residues: Vec<Matrix<f64>> = (0..n_real)
            .map(|_| r.get_matrix_f64())
            .collect::<Result<_, _>>()?;
        let n_pair_poles = r.get_usize()?;
        let pair_poles: Vec<c64> = (0..n_pair_poles)
            .map(|_| r.get_c64())
            .collect::<Result<_, _>>()?;
        let n_pair = r.get_usize()?;
        let pair_residues: Vec<Matrix<c64>> = (0..n_pair)
            .map(|_| r.get_matrix_c64())
            .collect::<Result<_, _>>()?;
        let passivity_shift = r.get_f64()?;
        let fit_residual = r.get_f64()?;
        let holdout_residual = r.get_f64()?;
        let square = |name: &str, rows: usize, cols: usize| {
            if (rows, cols) == (ports, ports) {
                Ok(())
            } else {
                Err(CodecError::Invalid(format!(
                    "PROM {name} is {rows}x{cols}, expected {ports}x{ports}"
                )))
            }
        };
        square("D", d.nrows(), d.ncols())?;
        square("E", e.nrows(), e.ncols())?;
        for m in &real_residues {
            square("real residue", m.nrows(), m.ncols())?;
        }
        for m in &pair_residues {
            square("pair residue", m.nrows(), m.ncols())?;
        }
        if real_residues.len() != real_poles.len() || pair_residues.len() != pair_poles.len() {
            return Err(CodecError::Invalid(format!(
                "PROM residue counts ({}, {}) do not match pole counts ({}, {})",
                real_residues.len(),
                pair_residues.len(),
                real_poles.len(),
                pair_poles.len()
            )));
        }
        Ok(PoleResidueModel {
            ports,
            d,
            e,
            real_poles,
            real_residues,
            pair_poles,
            pair_residues,
            passivity_shift,
            fit_residual,
            holdout_residual,
        })
    }

    /// Evaluates the model admittance at a real frequency `f` (Hz).
    pub fn evaluate(&self, f: f64) -> Matrix<c64> {
        let s = c64::from_im(2.0 * PI * f);
        let mut y = Matrix::<c64>::zeros(self.ports, self.ports);
        for i in 0..self.ports {
            for j in 0..self.ports {
                y[(i, j)] = c64::from_re(self.d[(i, j)]) + s * self.e[(i, j)];
            }
        }
        for (&p, r) in self.real_poles.iter().zip(&self.real_residues) {
            let t = (s - c64::from_re(p)).recip();
            for i in 0..self.ports {
                for j in 0..self.ports {
                    y[(i, j)] += t * r[(i, j)];
                }
            }
        }
        for (&q, cm) in self.pair_poles.iter().zip(&self.pair_residues) {
            let t1 = (s - q).recip();
            let t2 = (s - q.conj()).recip();
            for i in 0..self.ports {
                for j in 0..self.ports {
                    let c = cm[(i, j)];
                    y[(i, j)] += c * t1 + c.conj() * t2;
                }
            }
        }
        y
    }

    /// Recursive-convolution coefficients for pole `p` under the
    /// companion discretization with factor `kk` (2 = trapezoidal,
    /// 1 = backward Euler) and step `dt`:
    /// `x⁺ = α·x + β·(v⁺ + (kk−1)·v)` with `h = dt/kk`,
    /// `α = (1 + (kk−1)·p·h)/(1 − p·h)`, `β = h/(1 − p·h)`.
    fn alpha_beta(p: c64, kk: f64, dt: f64) -> (c64, c64) {
        let h = dt / kk;
        let den = (c64::ONE - p * h).recip();
        let alpha = (c64::ONE + p * (h * (kk - 1.0))) * den;
        let beta = den * h;
        (alpha, beta)
    }

    /// The real companion admittance block stamped into the MNA matrix
    /// for integration factor `kk` (2 = trapezoidal, 1 = backward
    /// Euler) and step `dt`:
    /// `G = D + kk·E/dt + Σₖ βₖ·Rₖ + Σₘ 2·Re{βₘ·Cₘ}`.
    pub fn companion_admittance(&self, kk: f64, dt: f64) -> Matrix<f64> {
        let mut g = self.d.clone();
        let ge = kk / dt;
        for i in 0..self.ports {
            for j in 0..self.ports {
                g[(i, j)] += ge * self.e[(i, j)];
            }
        }
        for (&p, r) in self.real_poles.iter().zip(&self.real_residues) {
            let (_, beta) = Self::alpha_beta(c64::from_re(p), kk, dt);
            for i in 0..self.ports {
                for j in 0..self.ports {
                    g[(i, j)] += beta.re * r[(i, j)];
                }
            }
        }
        for (&q, cm) in self.pair_poles.iter().zip(&self.pair_residues) {
            let (_, beta) = Self::alpha_beta(q, kk, dt);
            for i in 0..self.ports {
                for j in 0..self.ports {
                    g[(i, j)] += 2.0 * (beta * cm[(i, j)]).re;
                }
            }
        }
        g
    }

    /// A fresh all-zero transient state for this model.
    pub fn new_state(&self) -> RomTransientState {
        RomTransientState {
            x_real: vec![vec![0.0; self.ports]; self.real_poles.len()],
            x_pair: vec![vec![c64::ZERO; self.ports]; self.pair_poles.len()],
            v: vec![0.0; self.ports],
            i_e: vec![0.0; self.ports],
        }
    }

    /// History current `h` of the companion element at the *upcoming*
    /// step: the port currents satisfy `i⁺ = G·v⁺ + h` with `G` from
    /// [`companion_admittance`](Self::companion_admittance), so the MNA
    /// right-hand side receives `−h` at each port node.
    ///
    /// The per-pole terms fan out over [`crate::parallel`] when the
    /// work is large enough to amortize thread spawns, and are always
    /// summed in pole-index order — bit-identical for every
    /// `PDN_THREADS` setting.
    pub fn history_current(&self, kk: f64, dt: f64, st: &RomTransientState) -> Vec<f64> {
        let p = self.ports;
        let kr = self.real_poles.len();
        let n_poles = kr + self.pair_poles.len();
        let km1 = kk - 1.0;
        let contrib = |k: usize| -> Vec<f64> {
            if k < kr {
                let (alpha, beta) = Self::alpha_beta(c64::from_re(self.real_poles[k]), kk, dt);
                let (a, b) = (alpha.re, beta.re);
                let u: Vec<f64> = (0..p)
                    .map(|i| a * st.x_real[k][i] + km1 * b * st.v[i])
                    .collect();
                self.real_residues[k].matvec(&u)
            } else {
                let m = k - kr;
                let (alpha, beta) = Self::alpha_beta(self.pair_poles[m], kk, dt);
                let u: Vec<c64> = (0..p)
                    .map(|i| alpha * st.x_pair[m][i] + beta * (km1 * st.v[i]))
                    .collect();
                let cu = self.pair_residues[m].matvec(&u);
                cu.iter().map(|z| 2.0 * z.re).collect()
            }
        };
        let parts: Vec<Vec<f64>> = if n_poles * p * p >= PAR_STEP_THRESHOLD {
            par_map_indexed(n_poles, contrib)
        } else {
            (0..n_poles).map(contrib).collect()
        };
        // hist_E = g_E·v + (kk−1)·i_e (the matrix-capacitor history).
        let ge = kk / dt;
        let mut h = vec![0.0; p];
        for part in &parts {
            for (hi, &pi) in h.iter_mut().zip(part) {
                *hi += pi;
            }
        }
        for (i, hi) in h.iter_mut().enumerate() {
            let mut he = km1 * st.i_e[i];
            for j in 0..p {
                he += ge * self.e[(i, j)] * st.v[j];
            }
            *hi -= he;
        }
        h
    }

    /// Advances the convolution states past a solved step with port
    /// voltages `v_new`, using the same `(kk, dt)` the step was stamped
    /// with.
    pub fn advance_state(&self, kk: f64, dt: f64, v_new: &[f64], st: &mut RomTransientState) {
        assert_eq!(v_new.len(), self.ports, "one voltage per port");
        let km1 = kk - 1.0;
        for (k, &pole) in self.real_poles.iter().enumerate() {
            let (alpha, beta) = Self::alpha_beta(c64::from_re(pole), kk, dt);
            let (a, b) = (alpha.re, beta.re);
            for (x, (&vn, &vo)) in st.x_real[k].iter_mut().zip(v_new.iter().zip(&st.v)) {
                *x = a * *x + b * (vn + km1 * vo);
            }
        }
        for (m, &q) in self.pair_poles.iter().enumerate() {
            let (alpha, beta) = Self::alpha_beta(q, kk, dt);
            for (x, (&vn, &vo)) in st.x_pair[m].iter_mut().zip(v_new.iter().zip(&st.v)) {
                *x = alpha * *x + beta * (vn + km1 * vo);
            }
        }
        let ge = kk / dt;
        for (i, ie) in st.i_e.iter_mut().enumerate() {
            let mut die = -km1 * *ie;
            for (j, &vn) in v_new.iter().enumerate() {
                die += ge * self.e[(i, j)] * (vn - st.v[j]);
            }
            *ie = die;
        }
        st.v.copy_from_slice(v_new);
    }
}

/// Converts the interpolant's frequency-domain poles (complex Hz) into a
/// stable, deduplicated s-domain pole set, split into real poles and
/// upper-half-plane conjugate-pair representatives. `max_poles` caps the
/// total unknown count so the residue refit stays overdetermined.
fn select_poles(
    model: &RationalModel,
    omega_max: f64,
    max_unknowns: usize,
) -> (Vec<f64>, Vec<c64>) {
    let f_poles = model.poles();
    let s_poles = f_poles
        .iter()
        // f-domain pole a + jb (Hz) sits at s = j·2π·(a + jb).
        .map(|fp| c64::new(-2.0 * PI * fp.im, 2.0 * PI * fp.re));
    let (mut real, mut pairs) = stabilize_split(s_poles, omega_max);
    cap_pole_budget(&mut real, &mut pairs, max_unknowns.saturating_sub(2));
    (real, pairs)
}

/// Flips, filters, folds, and deduplicates a raw s-domain pole set into
/// stable real poles and upper-half-plane conjugate-pair representatives.
fn stabilize_split(s_poles: impl Iterator<Item = c64>, omega_max: f64) -> (Vec<f64>, Vec<c64>) {
    let mut real: Vec<f64> = Vec::new();
    let mut pairs: Vec<c64> = Vec::new();
    for mut sp in s_poles {
        // Flip unstable poles into the left half plane; nudge marginal
        // ones off the axis so the convolution state decays.
        if sp.re >= 0.0 {
            sp.re = -sp.re.abs().max(1e-6 * sp.im.abs().max(1e-9 * omega_max));
        }
        // Near-zero poles are numerical artifacts of the root finder.
        // Far out-of-band poles are dropped outright: beyond a few ω_max
        // the column 1/(s−p) is nearly constant over the band, collinear
        // with the D column, and the least-squares split between the two
        // becomes a large cancelling pair that leaves D wildly
        // indefinite. D and E absorb their in-band effect instead.
        let m = sp.norm();
        if !(sp.is_finite() && m >= 1e-9 * omega_max && m <= 3.0 * omega_max) {
            continue;
        }
        if sp.im.abs() <= 1e-6 * m {
            real.push(sp.re);
        } else {
            // The one-sided (ω > 0) rational fit does not produce a
            // conjugate-symmetric pole set, so every complex pole is
            // folded onto its upper-half-plane representative; the
            // real-coefficient refit supplies the conjugate partner.
            pairs.push(c64::new(sp.re, sp.im.abs()));
        }
    }
    real.sort_by(f64::total_cmp);
    real.dedup_by(|a, b| (*a - *b).abs() <= 1e-6 * a.abs().max(b.abs()));
    pairs.sort_by(|a, b| a.im.total_cmp(&b.im).then(a.re.total_cmp(&b.re)));
    pairs.dedup_by(|a, b| (*a - *b).norm() <= 1e-6 * a.norm().max(b.norm()));
    (real, pairs)
}

/// Caps the unknown count (1 per real pole, 2 per pair), dropping the
/// farthest-out poles first — their in-band effect is closest to the
/// constant/linear terms already present.
fn cap_pole_budget(real: &mut Vec<f64>, pairs: &mut Vec<c64>, budget: usize) {
    while real.len() + 2 * pairs.len() > budget {
        let worst_real = real.iter().map(|p| p.abs()).fold(0.0, f64::max);
        let worst_pair = pairs.iter().map(|q| q.norm()).fold(0.0, f64::max);
        if worst_pair >= worst_real && !pairs.is_empty() {
            let idx = pairs
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.norm().total_cmp(&b.1.norm()))
                .map(|(i, _)| i)
                .unwrap();
            pairs.remove(idx);
        } else if !real.is_empty() {
            let idx = real
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.abs().total_cmp(&b.1.abs()))
                .map(|(i, _)| i)
                .unwrap();
            real.remove(idx);
        } else {
            break;
        }
    }
}

/// Shared pole basis row at complex frequency `x`: one column per real
/// pole, two real-coefficient columns per conjugate pair.
fn pole_basis(x: c64, real_poles: &[f64], pair_poles: &[c64]) -> Vec<c64> {
    let mut row = Vec::with_capacity(real_poles.len() + 2 * pair_poles.len());
    for &p in real_poles {
        row.push((x - c64::from_re(p)).recip());
    }
    for &q in pair_poles {
        let t1 = (x - q).recip();
        let t2 = (x - q.conj()).recip();
        row.push(t1 + t2);
        row.push(c64::I * (t1 - t2));
    }
    row
}

/// Multiplies an ascending-coefficient real polynomial by `(x − a)`.
fn poly_mul_linear(poly: &[f64], a: f64) -> Vec<f64> {
    let mut out = vec![0.0; poly.len() + 1];
    for (d, &c) in poly.iter().enumerate() {
        out[d + 1] += c;
        out[d] -= a * c;
    }
    out
}

/// Multiplies an ascending-coefficient real polynomial by
/// `x² + b·x + c`.
fn poly_mul_quad(poly: &[f64], b: f64, c: f64) -> Vec<f64> {
    let mut out = vec![0.0; poly.len() + 2];
    for (d, &p) in poly.iter().enumerate() {
        out[d + 2] += p;
        out[d + 1] += b * p;
        out[d] += c * p;
    }
    out
}

/// Zeros of the vector-fitting weight function
/// `σ(x) = 1 + Σᵣ c̃ᵣ/(x−pᵣ) + Σₘ [c̃ₘ¹(t₁+t₂) + c̃ₘ²·j(t₁−t₂)]`,
/// computed as the roots of its real numerator polynomial over the
/// common pole denominator. These are the relocated poles of the next
/// vector-fitting iteration.
fn sigma_zeros(ctil: &[f64], real_poles: &[f64], pair_poles: &[c64]) -> Vec<c64> {
    let kr = real_poles.len();
    let quad = |q: c64| (-2.0 * q.re, q.norm_sqr());
    let mut num = vec![1.0];
    for &p in real_poles {
        num = poly_mul_linear(&num, p);
    }
    for &q in pair_poles {
        let (b, c) = quad(q);
        num = poly_mul_quad(&num, b, c);
    }
    for (r, _) in real_poles.iter().enumerate() {
        let mut cof = vec![ctil[r]];
        for (r2, &p2) in real_poles.iter().enumerate() {
            if r2 != r {
                cof = poly_mul_linear(&cof, p2);
            }
        }
        for &q in pair_poles {
            let (b, c) = quad(q);
            cof = poly_mul_quad(&cof, b, c);
        }
        for (d, &c) in cof.iter().enumerate() {
            num[d] += c;
        }
    }
    for (mp, &q) in pair_poles.iter().enumerate() {
        let mut cof = vec![1.0];
        for &p in real_poles {
            cof = poly_mul_linear(&cof, p);
        }
        for (m2, &q2) in pair_poles.iter().enumerate() {
            if m2 != mp {
                let (b, c) = quad(q2);
                cof = poly_mul_quad(&cof, b, c);
            }
        }
        // c̃¹(t₁+t₂) + c̃²·j(t₁−t₂) over the pair's quadratic is the
        // linear numerator 2c̃¹·x − 2(c̃¹·Re q + c̃²·Im q).
        let c1 = ctil[kr + 2 * mp];
        let c2 = ctil[kr + 2 * mp + 1];
        let alpha = 2.0 * c1;
        let beta = -2.0 * (c1 * q.re + c2 * q.im);
        for (d, &c) in cof.iter().enumerate() {
            num[d + 1] += alpha * c;
            num[d] += beta * c;
        }
    }
    let coeffs: Vec<c64> = num.iter().map(|&c| c64::from_re(c)).collect();
    crate::rational::polynomial_roots(&coeffs)
}

/// Sanathanan–Koerner (vector-fitting) pole relocation.
///
/// The one-sided rational interpolant matches `Y(jω)` with complex
/// coefficients, so its poles can sit deep in the right half plane;
/// after the stability flip the basis keeps each pole's on-axis
/// magnitude but conjugates its phase, and no residue refit can recover
/// the lost accuracy. The classical fix iterates: fit
/// `σ(s)·Y(s) ≈ P(s)` with a shared scalar weight `σ` over all port
/// entries, take the zeros of `σ` as the new pole set, flip them
/// stable, and repeat until `σ ≈ 1` — at the fixed point the stable
/// poles themselves explain the response. All arithmetic runs in the
/// normalized variable `x = s/ω_scale` so the polynomial root solve
/// stays conditioned. Best-effort: any numerical failure keeps the most
/// recent pole set.
fn relocate_poles(
    grid: &[f64],
    grid_values: &[Matrix<c64>],
    real_poles: &mut Vec<f64>,
    pair_poles: &mut Vec<c64>,
    omega_scale: f64,
) {
    const VF_ITERS: usize = 10;
    let ports = grid_values[0].nrows();
    let entries: Vec<(usize, usize)> = (0..ports)
        .flat_map(|i| (i..ports).map(move |j| (i, j)))
        .collect();
    let gpts = grid.len();
    let xs: Vec<c64> = grid
        .iter()
        .map(|&f| c64::from_im(2.0 * PI * f / omega_scale))
        .collect();
    let w: Vec<f64> = grid_values
        .iter()
        .map(|y| 1.0 / y.frobenius_norm().max(f64::MIN_POSITIVE))
        .collect();
    let ys: Vec<Vec<c64>> = grid_values
        .iter()
        .map(|y| {
            entries
                .iter()
                .map(|&(i, j)| (y[(i, j)] + y[(j, i)]) * 0.5)
                .collect()
        })
        .collect();

    let mut real_n: Vec<f64> = real_poles.iter().map(|&p| p / omega_scale).collect();
    let mut pairs_n: Vec<c64> = pair_poles.iter().map(|&q| q / omega_scale).collect();
    let budget = real_n.len() + 2 * pairs_n.len();

    for _ in 0..VF_ITERS {
        let n = real_n.len() + 2 * pairs_n.len();
        if n == 0 || n + 2 > 2 * gpts {
            break;
        }
        let m = n + 2;
        let mut theta: Vec<Vec<c64>> = Vec::with_capacity(gpts);
        let mut psi: Vec<Vec<c64>> = Vec::with_capacity(gpts);
        for &x in &xs {
            let pb = pole_basis(x, &real_n, &pairs_n);
            let mut th = Vec::with_capacity(m);
            th.push(c64::ONE);
            th.push(x);
            th.extend_from_slice(&pb);
            theta.push(th);
            psi.push(pb);
        }
        // Column equilibration for both the numerator (θ) and σ (ψ)
        // blocks; the σ columns see the samples as multipliers, so
        // their scale folds in the sample magnitudes too.
        let mut s_th = vec![0.0f64; m];
        let mut s_ps = vec![0.0f64; n];
        for g in 0..gpts {
            let w2 = w[g] * w[g];
            let ysum: f64 = ys[g].iter().map(|y| y.norm_sqr()).sum();
            for k in 0..m {
                s_th[k] += w2 * theta[g][k].norm_sqr();
            }
            for k in 0..n {
                s_ps[k] += w2 * ysum * psi[g][k].norm_sqr();
            }
        }
        for v in s_th.iter_mut().chain(&mut s_ps) {
            *v = v.sqrt().max(f64::MIN_POSITIVE);
        }
        for g in 0..gpts {
            for k in 0..m {
                theta[g][k] = theta[g][k] / s_th[k];
            }
            for k in 0..n {
                psi[g][k] = psi[g][k] / s_ps[k];
            }
        }
        // Block normal equations. Every entry t carries its own
        // numerator coefficients c_t but shares σ's c̃, so the c_t are
        // eliminated per entry through a Schur complement against the
        // common θᵀθ block and only the n×n σ system is solved.
        let mut bmat = Matrix::<f64>::zeros(m, m);
        for g in 0..gpts {
            let w2 = w[g] * w[g];
            for i in 0..m {
                for j in i..m {
                    let v =
                        w2 * (theta[g][i].re * theta[g][j].re + theta[g][i].im * theta[g][j].im);
                    bmat[(i, j)] += v;
                    if i != j {
                        bmat[(j, i)] += v;
                    }
                }
            }
        }
        let max_diag = (0..m).map(|i| bmat[(i, i)]).fold(0.0, f64::max);
        for i in 0..m {
            bmat[(i, i)] += 1e-12 * max_diag.max(f64::MIN_POSITIVE);
        }
        let Ok(lu_b) = LuDecomposition::new(bmat) else {
            break;
        };

        let mut smat = Matrix::<f64>::zeros(n, n);
        let mut rhs = vec![0.0f64; n];
        let mut feasible = true;
        'entries: for (t, _entry) in entries.iter().enumerate() {
            let mut cmat = Matrix::<f64>::zeros(m, n);
            let mut rt = vec![0.0f64; m];
            for g in 0..gpts {
                let w2 = w[g] * w[g];
                let y = ys[g][t];
                let bvec: Vec<c64> = psi[g].iter().map(|&ps| -(y * ps)).collect();
                for i in 0..m {
                    let th = theta[g][i];
                    rt[i] += w2 * (th.re * y.re + th.im * y.im);
                    for k in 0..n {
                        cmat[(i, k)] += w2 * (th.re * bvec[k].re + th.im * bvec[k].im);
                    }
                }
                for k in 0..n {
                    rhs[k] += w2 * (bvec[k].re * y.re + bvec[k].im * y.im);
                    for k2 in k..n {
                        let v = w2 * (bvec[k].re * bvec[k2].re + bvec[k].im * bvec[k2].im);
                        smat[(k, k2)] += v;
                        if k != k2 {
                            smat[(k2, k)] += v;
                        }
                    }
                }
            }
            let Ok(binv_rt) = lu_b.solve(&rt) else {
                feasible = false;
                break 'entries;
            };
            let mut binv_c: Vec<Vec<f64>> = Vec::with_capacity(n);
            for k in 0..n {
                let col: Vec<f64> = (0..m).map(|i| cmat[(i, k)]).collect();
                let Ok(x) = lu_b.solve(&col) else {
                    feasible = false;
                    break 'entries;
                };
                binv_c.push(x);
            }
            for k in 0..n {
                rhs[k] -= (0..m).map(|i| cmat[(i, k)] * binv_rt[i]).sum::<f64>();
                for k2 in 0..n {
                    smat[(k, k2)] -= (0..m).map(|i| cmat[(i, k)] * binv_c[k2][i]).sum::<f64>();
                }
            }
        }
        if !feasible {
            break;
        }
        let max_sdiag = (0..n).map(|i| smat[(i, i)]).fold(0.0, f64::max);
        for i in 0..n {
            smat[(i, i)] += 1e-12 * max_sdiag.max(f64::MIN_POSITIVE);
        }
        let Ok(ctil_scaled) = LuDecomposition::new(smat).and_then(|lu| lu.solve(&rhs)) else {
            break;
        };

        // σ ≈ 1 everywhere means the current stable poles already
        // explain the response — the fixed point.
        let mut sdev = 0.0f64;
        for pg in psi.iter().take(gpts) {
            let mut acc = c64::ZERO;
            for k in 0..n {
                acc += pg[k] * ctil_scaled[k];
            }
            sdev = sdev.max(acc.norm());
        }
        if sdev < 1e-8 {
            break;
        }

        let ctil: Vec<f64> = ctil_scaled.iter().zip(&s_ps).map(|(c, s)| c / s).collect();
        let roots = sigma_zeros(&ctil, &real_n, &pairs_n);
        if roots.is_empty() {
            break;
        }
        let (mut new_real, mut new_pairs) = stabilize_split(roots.into_iter(), 1.0);
        cap_pole_budget(&mut new_real, &mut new_pairs, budget);
        if new_real.is_empty() && new_pairs.is_empty() {
            break;
        }
        real_n = new_real;
        pairs_n = new_pairs;
    }

    *real_poles = real_n.iter().map(|&p| p * omega_scale).collect();
    *pair_poles = pairs_n.iter().map(|&q| q * omega_scale).collect();
}

/// Weighted least-squares refit of `D`, `E`, and every residue matrix
/// against the certified sweep samples. One real normal-equation
/// factorization is shared by all `ports·(ports+1)/2` symmetric entries.
///
/// With `fixed_d = Some(D)` the constant column leaves the basis, the
/// fixed term is subtracted from every sample, and only `E` and the
/// residues are re-solved — used to re-fit around a PSD-projected `D`.
#[allow(clippy::type_complexity)]
fn refit_residues(
    grid: &[f64],
    grid_values: &[Matrix<c64>],
    real_poles: &[f64],
    pair_poles: &[c64],
    ports: usize,
    fixed_d: Option<&Matrix<f64>>,
) -> Result<(Matrix<f64>, Matrix<f64>, Vec<Matrix<f64>>, Vec<Matrix<c64>>), PromError> {
    let kr = real_poles.len();
    let kp = pair_poles.len();
    let has_d = fixed_d.is_none();
    let base = 1 + has_d as usize;
    let m = base + kr + 2 * kp;
    let rows = 2 * grid.len();
    if m > rows {
        return Err(PromError::InvalidInput(format!(
            "{m} unknowns exceed {rows} fit equations — refine the sweep grid"
        )));
    }

    // Complex basis per grid point: [1, s, 1/(s−pₖ)…, (t₁+t₂)ₘ…,
    // j(t₁−t₂)ₘ…]. The Im-part equation rows are weighted by 1/‖Y‖_F so
    // the fit minimizes the same relative-Frobenius metric the sweep
    // certifies; the Re-part rows are weighted by the (much smaller)
    // Hermitian-part norm instead, because any *absolute* error in
    // Re{Y} at a strongly inductive point (‖Y‖ huge, ‖Re Y‖ tiny) turns
    // into a passivity violation that a later uniform shift would smear
    // over the whole band. The 1e-3·‖Y‖ floor keeps near-lossless
    // points from dominating the normal equations.
    let mut basis: Vec<Vec<c64>> = Vec::with_capacity(grid.len());
    let mut w_re: Vec<f64> = Vec::with_capacity(grid.len());
    let mut w_im: Vec<f64> = Vec::with_capacity(grid.len());
    for (gi, &f) in grid.iter().enumerate() {
        let s = c64::from_im(2.0 * PI * f);
        let mut row = Vec::with_capacity(m);
        if has_d {
            row.push(c64::ONE);
        }
        row.push(s);
        row.extend(pole_basis(s, real_poles, pair_poles));
        basis.push(row);
        let y = &grid_values[gi];
        let ynorm = y.frobenius_norm().max(f64::MIN_POSITIVE);
        let renorm = {
            let mut acc = 0.0;
            for i in 0..ports {
                for j in 0..ports {
                    acc += y[(i, j)].re * y[(i, j)].re;
                }
            }
            acc.sqrt()
        };
        w_im.push(1.0 / ynorm);
        w_re.push(1.0 / renorm.max(1e-3 * ynorm));
    }

    // Column equilibration: the raw columns span ~20 orders of
    // magnitude (1 vs. jω vs. 1/(s−p)), which would make the shared
    // normal equations numerically meaningless. Scale each column to
    // unit weighted norm and unscale the coefficients after the solve.
    let mut col_norm = vec![0.0f64; m];
    for (gi, row) in basis.iter().enumerate() {
        let (wr2, wi2) = (w_re[gi] * w_re[gi], w_im[gi] * w_im[gi]);
        for (k, b) in row.iter().enumerate() {
            col_norm[k] += wr2 * b.re * b.re + wi2 * b.im * b.im;
        }
    }
    for cn in &mut col_norm {
        *cn = cn.sqrt().max(f64::MIN_POSITIVE);
    }
    for row in &mut basis {
        for (b, &cn) in row.iter_mut().zip(&col_norm) {
            *b = *b / cn;
        }
    }

    // Normal equations over the Re/Im-stacked real system.
    let mut ata = Matrix::<f64>::zeros(m, m);
    for (gi, row) in basis.iter().enumerate() {
        let (wr2, wi2) = (w_re[gi] * w_re[gi], w_im[gi] * w_im[gi]);
        for i in 0..m {
            for j in i..m {
                let v = wr2 * row[i].re * row[j].re + wi2 * row[i].im * row[j].im;
                ata[(i, j)] += v;
                if i != j {
                    ata[(j, i)] += v;
                }
            }
        }
    }
    // A whisper of Tikhonov keeps near-duplicate basis columns solvable
    // without visibly biasing the fit.
    let max_diag = (0..m).map(|i| ata[(i, i)]).fold(0.0, f64::max);
    for i in 0..m {
        ata[(i, i)] += 1e-12 * max_diag.max(f64::MIN_POSITIVE);
    }
    let lu = LuDecomposition::new(ata)
        .map_err(|e| PromError::NumericalBreakdown(format!("residue normal equations: {e}")))?;

    let mut d = Matrix::<f64>::zeros(ports, ports);
    let mut e = Matrix::<f64>::zeros(ports, ports);
    let mut real_res = vec![Matrix::<f64>::zeros(ports, ports); kr];
    let mut pair_res = vec![Matrix::<c64>::zeros(ports, ports); kp];
    for pi in 0..ports {
        for pj in pi..ports {
            let mut atb = vec![0.0; m];
            for ((gi, row), y) in basis.iter().enumerate().zip(grid_values) {
                // Symmetrize the sample so the model is symmetric by
                // construction even under round-off asymmetry.
                let mut yij = (y[(pi, pj)] + y[(pj, pi)]) * 0.5;
                if let Some(dm) = fixed_d {
                    yij -= c64::from_re(dm[(pi, pj)]);
                }
                let (wr2, wi2) = (w_re[gi] * w_re[gi], w_im[gi] * w_im[gi]);
                for (k, b) in row.iter().enumerate() {
                    atb[k] += wr2 * b.re * yij.re + wi2 * b.im * yij.im;
                }
            }
            let mut coef = lu
                .solve(&atb)
                .map_err(|e| PromError::NumericalBreakdown(format!("residue solve: {e}")))?;
            for (c, &cn) in coef.iter_mut().zip(&col_norm) {
                *c /= cn;
            }
            let dval = match fixed_d {
                Some(dm) => dm[(pi, pj)],
                None => coef[0],
            };
            d[(pi, pj)] = dval;
            d[(pj, pi)] = dval;
            // The linear term's coefficient multiplies s = jω, so the
            // fitted real coefficient is E itself.
            e[(pi, pj)] = coef[base - 1];
            e[(pj, pi)] = coef[base - 1];
            for k in 0..kr {
                real_res[k][(pi, pj)] = coef[base + k];
                real_res[k][(pj, pi)] = coef[base + k];
            }
            for mp in 0..kp {
                let c = c64::new(coef[base + kr + 2 * mp], coef[base + kr + 2 * mp + 1]);
                pair_res[mp][(pi, pj)] = c;
                pair_res[mp][(pj, pi)] = c;
            }
        }
    }
    Ok((d, e, real_res, pair_res))
}

/// Worst relative Frobenius deviation of the model against samples.
fn worst_residual(model: &PoleResidueModel, freqs: &[f64], values: &[Matrix<c64>]) -> f64 {
    let mut worst = 0.0f64;
    for (&f, y) in freqs.iter().zip(values) {
        let diff = &model.evaluate(f) - y;
        worst = worst.max(diff.frobenius_norm() / y.frobenius_norm().max(f64::MIN_POSITIVE));
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rational::{sweep, SweepAccuracy};

    /// A known passive 2-port: Y(s) = D + sE + R/(s−p) + C/(s−q) + c.c.
    fn analytic_y(f: f64) -> Matrix<c64> {
        let s = c64::from_im(2.0 * PI * f);
        let d = [[2e-3, -1e-3], [-1e-3, 2e-3]];
        let e = [[1e-12, 2e-13], [2e-13, 1e-12]];
        let p = -2.0 * PI * 3e8;
        let r = [[5e6, 2e6], [2e6, 5e6]];
        let q = c64::new(-2.0 * PI * 5e7, 2.0 * PI * 8e8);
        let c = [
            [c64::new(3e6, -1e6), c64::new(1e6, -4e5)],
            [c64::new(1e6, -4e5), c64::new(3e6, -1e6)],
        ];
        Matrix::from_fn(2, 2, |i, j| {
            c64::from_re(d[i][j])
                + s * e[i][j]
                + c64::from_re(r[i][j]) / (s - c64::from_re(p))
                + c[i][j] / (s - q)
                + c[i][j].conj() / (s - q.conj())
        })
    }

    fn build_test_model(cert_tol: f64) -> Result<PoleResidueModel, PromError> {
        let grid: Vec<f64> = (0..60)
            .map(|k| 1e6 * (3e9f64 / 1e6).powf(k as f64 / 59.0))
            .collect();
        let outcome = sweep(&grid, SweepAccuracy::Rational { rel_tol: 1e-6 }, |f| {
            Ok::<_, std::convert::Infallible>(analytic_y(f))
        })
        .unwrap();
        let model = outcome.model.expect("rational fit certified");
        let holdout: Vec<f64> = (0..8)
            .map(|k| (grid[4 * k] * grid[4 * k + 1]).sqrt())
            .collect();
        let holdout_values: Vec<Matrix<c64>> = holdout.iter().map(|&f| analytic_y(f)).collect();
        PoleResidueModel::from_rational(
            &model,
            &grid,
            &outcome.values,
            &holdout,
            &holdout_values,
            &PromOptions { cert_tol },
        )
    }

    #[test]
    fn codec_round_trip_is_bit_exact() {
        let rom = build_test_model(1e-3).unwrap();
        let mut w = crate::codec::ByteWriter::new();
        rom.write_to(&mut w);
        let bytes = w.into_bytes();
        let mut r = crate::codec::ByteReader::new(&bytes);
        let back = PoleResidueModel::read_from(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, rom, "decoded model bit-identical");
        // Re-encoding reproduces the exact byte stream.
        let mut w2 = crate::codec::ByteWriter::new();
        back.write_to(&mut w2);
        assert_eq!(w2.into_bytes(), bytes);
        // Truncation fails loudly instead of yielding a partial model.
        let mut r = crate::codec::ByteReader::new(&bytes[..bytes.len() - 3]);
        assert!(PoleResidueModel::read_from(&mut r).is_err());
    }

    #[test]
    fn recovers_analytic_admittance() {
        let rom = build_test_model(1e-3).unwrap();
        assert_eq!(rom.ports(), 2);
        assert!(rom.pole_count() >= 2, "poles: {}", rom.pole_count());
        assert!(rom.fit_residual() < 1e-3, "fit {:.3e}", rom.fit_residual());
        assert!(
            rom.holdout_residual() < 1e-3,
            "holdout {:.3e}",
            rom.holdout_residual()
        );
        // Off-grid spot check.
        let f = 137e6;
        let y = rom.evaluate(f);
        let exact = analytic_y(f);
        let rel = (&y - &exact).frobenius_norm() / exact.frobenius_norm();
        assert!(rel < 1e-3, "off-grid deviation {rel:.3e}");
    }

    #[test]
    fn poles_are_stable_and_model_passive() {
        let rom = build_test_model(1e-3).unwrap();
        for &p in rom.real_poles() {
            assert!(p < 0.0, "real pole {p:e}");
        }
        for &q in rom.pair_poles() {
            assert!(q.re < 0.0 && q.im > 0.0, "pair pole {q:?}");
        }
        // Passivity on a grid the builder never saw.
        for k in 0..40 {
            let f = 1.3e6 * (2.7e9f64 / 1.3e6).powf(k as f64 / 39.0);
            let re_y = rom.evaluate(f).map(|z| z.re);
            let lam = symmetric_eigen(&re_y).unwrap().values[0];
            assert!(lam >= -1e-12, "λ_min = {lam:e} at f = {f:e}");
        }
    }

    #[test]
    fn recursion_matches_analytic_convolution() {
        // Single real pole, unit step drive: x(t) = (e^{pt} − 1)/p.
        let p = -2.0 * PI * 1e8;
        let dt = 1e-11;
        for kk in [1.0, 2.0] {
            let (alpha, beta) = PoleResidueModel::alpha_beta(c64::from_re(p), kk, dt);
            let mut x = 0.0;
            let mut v_prev = 0.0;
            for n in 0..2000 {
                // v jumps to 1 at the first step and stays.
                let v_new = 1.0;
                x = alpha.re * x + beta.re * (v_new + (kk - 1.0) * v_prev);
                v_prev = v_new;
                let t = (n + 1) as f64 * dt;
                let exact = ((p * t).exp() - 1.0) / p;
                // Skip the onset: trapezoidal sees the discontinuous
                // step as a half-sample ramp, an O(dt) discrepancy that
                // decays like e^{p·t}.
                if n >= 50 {
                    assert!(
                        (x - exact).abs() <= 2e-2 * exact.abs() + 1e-12,
                        "kk={kk} n={n}: {x:e} vs {exact:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn companion_stamp_consistent_with_history() {
        // Driving the companion recursions with a sinusoidal port
        // voltage must reproduce the frequency-domain admittance.
        let rom = build_test_model(1e-3).unwrap();
        let f = 200e6;
        let dt = 1.0 / (400.0 * f); // 400 steps per period
        let kk = 2.0;
        let g = rom.companion_admittance(kk, dt);
        let mut st = rom.new_state();
        let omega = 2.0 * PI * f;
        // Drive port 0, leave port 1 at 0: i₀(t) settles to
        // |Y₀₀|·sin(ωt + arg Y₀₀). The abrupt sinusoid onset excites the
        // trapezoidal Nyquist mode of the E branch (an undamped (−1)ⁿ
        // homogeneous solution, the classic trapezoidal ringing);
        // averaging adjacent samples cancels it exactly while scaling
        // the sinusoid by only cos(ω·dt/2) ≈ 1 − 3·10⁻⁵.
        let n_steps = 4000;
        let mut last_peak = 0.0f64;
        let mut i0_prev = 0.0f64;
        for n in 0..n_steps {
            let t = (n + 1) as f64 * dt;
            let v = [(omega * t).sin(), 0.0];
            let h = rom.history_current(kk, dt, &st);
            let i0 = g[(0, 0)] * v[0] + g[(0, 1)] * v[1] + h[0];
            rom.advance_state(kk, dt, &v, &mut st);
            if n > n_steps / 2 {
                last_peak = last_peak.max(0.5 * (i0 + i0_prev).abs());
            }
            i0_prev = i0;
        }
        let y00 = rom.evaluate(f)[(0, 0)].norm();
        assert!(
            (last_peak - y00).abs() < 0.02 * y00,
            "peak {last_peak:e} vs |Y00| {y00:e}"
        );
    }

    #[test]
    fn rejects_bad_inputs() {
        let grid = [1e6, 2e6, 3e6, 4e6];
        let vals: Vec<Matrix<c64>> = grid.iter().map(|&f| analytic_y(f)).collect();
        let outcome = sweep(&grid, SweepAccuracy::Exact, |f| {
            Ok::<_, std::convert::Infallible>(analytic_y(f))
        })
        .unwrap();
        // No rational model on the exact path — build one from a tiny
        // rational sweep instead, then feed inconsistent samples.
        assert!(outcome.model.is_none());
        let rom = build_test_model(1e-3).unwrap();
        let _ = rom;
        let grid2: Vec<f64> = (0..60)
            .map(|k| 1e6 * (3e9f64 / 1e6).powf(k as f64 / 59.0))
            .collect();
        let outcome2 = sweep(&grid2, SweepAccuracy::Rational { rel_tol: 1e-6 }, |f| {
            Ok::<_, std::convert::Infallible>(analytic_y(f))
        })
        .unwrap();
        let model = outcome2.model.unwrap();
        // Mismatched sample count.
        let err = PoleResidueModel::from_rational(
            &model,
            &grid2,
            &vals,
            &[],
            &[],
            &PromOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, PromError::InvalidInput(_)));
        // Bad tolerance.
        let err = PoleResidueModel::from_rational(
            &model,
            &grid2,
            &outcome2.values,
            &[],
            &[],
            &PromOptions { cert_tol: -1.0 },
        )
        .unwrap_err();
        assert!(matches!(err, PromError::InvalidInput(_)));
    }

    #[test]
    fn certification_failure_is_reported() {
        // An absurdly tight holdout tolerance must trip the gate.
        let err = build_test_model(1e-16).unwrap_err();
        match err {
            PromError::CertificationFailed { residual, tol } => {
                assert!(residual > tol);
            }
            other => panic!("expected CertificationFailed, got {other:?}"),
        }
    }
}
