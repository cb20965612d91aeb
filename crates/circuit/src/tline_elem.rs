//! Lossless multiconductor transmission-line element.
//!
//! The model is built from per-unit-length `L` and `C` matrices (produced
//! by the 2-D field solver in `pdn-tline`) and a length. At construction it
//! performs the **modal analysis** the paper applies to signal nets:
//! the voltage eigenvectors `T` of the `L·C` product decouple the line into
//! scalar modes with individual velocities. In modal coordinates each mode
//! is a unit-impedance scalar line, so:
//!
//! * time domain — exact method-of-characteristics (Branin) update per
//!   mode, presented to MNA as a constant Norton admittance `Yc` plus
//!   history current sources (the matrix stays constant: the paper's fast
//!   solver path is preserved);
//! * frequency domain — exact hyperbolic two-port stamps per mode.

use pdn_num::{c64, generalized_symmetric_eigen, LuDecomposition, Matrix, SolveMatrixError};
use std::fmt;

/// Error from building a coupled-line model.
#[derive(Debug, Clone, PartialEq)]
pub enum BuildLineError {
    /// Shapes of `L`/`C` are inconsistent or not square.
    BadShape,
    /// `L` or `C` is not symmetric positive definite.
    NotPassive(String),
    /// The line length (m) is not positive and finite.
    InvalidLength(f64),
}

impl fmt::Display for BuildLineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildLineError::BadShape => write!(f, "L and C must be square and equally sized"),
            BuildLineError::NotPassive(s) => {
                write!(f, "L/C matrices not symmetric positive definite: {s}")
            }
            BuildLineError::InvalidLength(len) => {
                write!(f, "line length must be positive and finite, got {len} m")
            }
        }
    }
}

impl std::error::Error for BuildLineError {}

/// A lossless multiconductor line model (modal decomposition of `L`, `C`).
///
/// # Examples
///
/// ```
/// use pdn_circuit::CoupledLineModel;
/// use pdn_num::Matrix;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // A single 50 Ω line in vacuum-like medium.
/// let z0: f64 = 50.0;
/// let v = 2e8;
/// let l = Matrix::from_rows(&[&[z0 / v]]);
/// let c = Matrix::from_rows(&[&[1.0 / (z0 * v)]]);
/// let line = CoupledLineModel::new(l, c, 0.1)?;
/// assert!((line.delays()[0] - 0.1 / v).abs() < 1e-15);
/// assert!((line.characteristic_admittance()[(0, 0)] - 1.0 / z0).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CoupledLineModel {
    n: usize,
    length: f64,
    /// Voltage modal transform: `V = Tv · v_m`.
    tv: Matrix<f64>,
    /// Inverse of `Tv`.
    tv_inv: Matrix<f64>,
    /// Current transform: `I = W · i_m`, `W = C·Tv·diag(v_k)`.
    w: Matrix<f64>,
    /// LU factor of `W`, for the inverse transform.
    w_lu: LuDecomposition<f64>,
    /// Characteristic admittance `Yc = W · Tv⁻¹`.
    yc: Matrix<f64>,
    /// Modal phase velocities (m/s), one per mode.
    velocities: Vec<f64>,
    /// Modal one-way delays (s).
    delays: Vec<f64>,
}

impl CoupledLineModel {
    /// Builds the model from per-unit-length matrices (H/m, F/m) and a
    /// physical length (m).
    ///
    /// # Errors
    ///
    /// Returns [`BuildLineError`] for shape mismatches, non-SPD inputs or
    /// a length that is not positive and finite.
    pub fn new(l: Matrix<f64>, c: Matrix<f64>, length: f64) -> Result<Self, BuildLineError> {
        if !l.is_square() || l.shape() != c.shape() {
            return Err(BuildLineError::BadShape);
        }
        if !(length > 0.0 && length.is_finite()) {
            return Err(BuildLineError::InvalidLength(length));
        }
        let n = l.nrows();
        let not_passive = |e: SolveMatrixError| BuildLineError::NotPassive(e.to_string());
        // Generalized symmetric-definite problem: C·v = λ·L⁻¹·v ⇔ LC·v = λ·v.
        let l_inv = pdn_num::lu::invert(l.clone()).map_err(not_passive)?;
        // Symmetrize L⁻¹ against round-off (L is symmetric).
        let l_inv = Matrix::from_fn(n, n, |i, j| 0.5 * (l_inv[(i, j)] + l_inv[(j, i)]));
        let eig = generalized_symmetric_eigen(&c, &l_inv).map_err(not_passive)?;
        // λ_k = 1/v_k²; eigen-values ascending, all must be positive.
        if eig.values.iter().any(|&v| v <= 0.0) {
            return Err(BuildLineError::NotPassive(
                "non-positive LC eigenvalue".into(),
            ));
        }
        let velocities: Vec<f64> = eig.values.iter().map(|&lam| 1.0 / lam.sqrt()).collect();
        let delays: Vec<f64> = velocities.iter().map(|&v| length / v).collect();
        let tv = eig.vectors;
        let tv_inv = LuDecomposition::new(tv.clone())
            .and_then(|lu| lu.inverse())
            .map_err(not_passive)?;
        // W = C · Tv · diag(v_k)
        let mut w = c.matmul(&tv);
        for i in 0..n {
            for k in 0..n {
                w[(i, k)] *= velocities[k];
            }
        }
        // A singular W has no inverse current transform.
        let w_lu = LuDecomposition::new(w.clone()).map_err(not_passive)?;
        let yc = w.matmul(&tv_inv);
        Ok(CoupledLineModel {
            n,
            length,
            tv,
            tv_inv,
            w,
            w_lu,
            yc,
            velocities,
            delays,
        })
    }

    /// Number of signal conductors.
    pub fn conductor_count(&self) -> usize {
        self.n
    }

    /// Physical length in meters.
    pub fn length(&self) -> f64 {
        self.length
    }

    /// Modal phase velocities, ascending with mode index.
    pub fn velocities(&self) -> &[f64] {
        &self.velocities
    }

    /// Modal one-way delays.
    pub fn delays(&self) -> &[f64] {
        &self.delays
    }

    /// The node-space characteristic admittance matrix `Yc` (S).
    pub fn characteristic_admittance(&self) -> &Matrix<f64> {
        &self.yc
    }

    /// Voltage modal transform `Tv` (`V = Tv·v_m`).
    pub fn voltage_transform(&self) -> &Matrix<f64> {
        &self.tv
    }

    /// Converts terminal voltages to modal voltages `v_m = Tv⁻¹·V`.
    pub fn to_modal_voltage(&self, v: &[f64]) -> Vec<f64> {
        self.tv_inv.matvec(v)
    }

    /// Converts modal currents to terminal currents `I = W·i_m`.
    pub fn from_modal_current(&self, im: &[f64]) -> Vec<f64> {
        self.w.matvec(im)
    }

    /// Converts terminal currents to modal currents `i_m = W⁻¹·I`, by a
    /// solve with the LU factor of `W` kept since construction.
    ///
    /// # Panics
    ///
    /// Panics unless `i` holds one current per conductor.
    pub fn to_modal_current(&self, i: &[f64]) -> Vec<f64> {
        self.w_lu.solve(i).expect("one current per conductor")
    }

    /// Exact frequency-domain admittance blocks at angular frequency
    /// `omega`: returns `(Y_self, Y_mutual)` such that
    ///
    /// ```text
    /// [I_near]   [Y_self   Y_mutual] [V_near]
    /// [I_far ] = [Y_mutual Y_self  ] [V_far ]
    /// ```
    ///
    /// with currents flowing *into* the line. Per mode (unit impedance):
    /// `y_self = −j·cot(θ)`, `y_mut = j/sin(θ)`, `θ = ω·τ`.
    ///
    /// Near modal half-wave resonance (`sin θ → 0`) entries grow without
    /// bound; callers should avoid landing exactly on those frequencies.
    pub fn ac_blocks(&self, omega: f64) -> (Matrix<c64>, Matrix<c64>) {
        let n = self.n;
        let mut y_self_m = vec![c64::ZERO; n];
        let mut y_mut_m = vec![c64::ZERO; n];
        for k in 0..n {
            let theta = omega * self.delays[k];
            let s = theta.sin();
            let c = theta.cos();
            // Guard the resonance singularity with a tiny loss.
            let s_safe = if s.abs() < 1e-9 {
                1e-9_f64.copysign(if s == 0.0 { 1.0 } else { s })
            } else {
                s
            };
            y_self_m[k] = c64::new(0.0, -c / s_safe);
            y_mut_m[k] = c64::new(0.0, 1.0 / s_safe);
        }
        // Node space: Y = W · diag(y_m) · Tv⁻¹.
        let build = |diag: &[c64]| -> Matrix<c64> {
            let mut m = Matrix::<c64>::zeros(n, n);
            for i in 0..n {
                for j in 0..n {
                    let mut acc = c64::ZERO;
                    for (k, &d) in diag.iter().enumerate() {
                        acc += c64::from_re(self.w[(i, k)]) * d * c64::from_re(self.tv_inv[(k, j)]);
                    }
                    m[(i, j)] = acc;
                }
            }
            m
        };
        (build(&y_self_m), build(&y_mut_m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdn_num::approx_eq;

    fn single_line(z0: f64, v: f64, len: f64) -> CoupledLineModel {
        let l = Matrix::from_rows(&[&[z0 / v]]);
        let c = Matrix::from_rows(&[&[1.0 / (z0 * v)]]);
        CoupledLineModel::new(l, c, len).unwrap()
    }

    #[test]
    fn single_line_characteristics() {
        let m = single_line(50.0, 2e8, 0.3);
        assert!(approx_eq(m.velocities()[0], 2e8, 1e-9));
        assert!(approx_eq(m.delays()[0], 1.5e-9, 1e-9));
        assert!(approx_eq(m.characteristic_admittance()[(0, 0)], 0.02, 1e-9));
    }

    #[test]
    fn symmetric_coupled_pair_even_odd_modes() {
        // Symmetric pair: modes are even/odd with velocities
        // v = 1/√((L±Lm)(C±Cm)).
        let (l0, lm) = (400e-9, 80e-9);
        let (c0, cm) = (100e-12, -15e-12);
        let l = Matrix::from_rows(&[&[l0, lm], &[lm, l0]]);
        let c = Matrix::from_rows(&[&[c0, cm], &[cm, c0]]);
        let m = CoupledLineModel::new(l, c, 0.1).unwrap();
        let v_even = 1.0 / ((l0 + lm) * (c0 + cm)).sqrt();
        let v_odd = 1.0 / ((l0 - lm) * (c0 - cm)).sqrt();
        let mut got = m.velocities().to_vec();
        got.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut expect = [v_even, v_odd];
        expect.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(approx_eq(got[0], expect[0], 1e-9));
        assert!(approx_eq(got[1], expect[1], 1e-9));
    }

    #[test]
    fn characteristic_admittance_symmetric_and_positive_definite() {
        let l = Matrix::from_rows(&[&[350e-9, 60e-9], &[60e-9, 350e-9]]);
        let c = Matrix::from_rows(&[&[120e-12, -18e-12], &[-18e-12, 120e-12]]);
        let m = CoupledLineModel::new(l, c, 0.2).unwrap();
        let yc = m.characteristic_admittance();
        assert!(yc.symmetry_defect() < 1e-9 * yc.max_abs());
        assert!(pdn_num::cholesky::is_positive_definite(&Matrix::from_fn(
            2,
            2,
            |i, j| 0.5 * (yc[(i, j)] + yc[(j, i)])
        )));
    }

    #[test]
    fn modal_roundtrip() {
        let l = Matrix::from_rows(&[&[350e-9, 60e-9], &[60e-9, 350e-9]]);
        let c = Matrix::from_rows(&[&[120e-12, -18e-12], &[-18e-12, 120e-12]]);
        let m = CoupledLineModel::new(l, c, 0.2).unwrap();
        let v = [1.0, -0.5];
        let vm = m.to_modal_voltage(&v);
        let back = m.voltage_transform().matvec(&vm);
        assert!(approx_eq(back[0], 1.0, 1e-10));
        assert!(approx_eq(back[1], -0.5, 1e-10));
        let i = [0.01, 0.02];
        let im = m.to_modal_current(&i);
        let iback = m.from_modal_current(&im);
        assert!(approx_eq(iback[0], 0.01, 1e-10));
        assert!(approx_eq(iback[1], 0.02, 1e-10));
    }

    #[test]
    fn ac_blocks_match_known_single_line_forms() {
        let z0 = 50.0;
        let m = single_line(z0, 2e8, 0.1);
        let tau = m.delays()[0];
        // Pick θ = π/4.
        let omega = std::f64::consts::FRAC_PI_4 / tau;
        let (ys, ym) = m.ac_blocks(omega);
        let expect_self = -1.0 / z0 / std::f64::consts::FRAC_PI_4.tan();
        let expect_mut = 1.0 / z0 / std::f64::consts::FRAC_PI_4.sin();
        assert!(ys[(0, 0)].re.abs() < 1e-12);
        assert!(approx_eq(ys[(0, 0)].im, expect_self, 1e-9));
        assert!(approx_eq(ym[(0, 0)].im, expect_mut, 1e-9));
    }

    #[test]
    fn quarter_wave_self_admittance_vanishes() {
        let m = single_line(50.0, 2e8, 0.1);
        let tau = m.delays()[0];
        let omega = std::f64::consts::FRAC_PI_2 / tau; // θ = π/2
        let (ys, ym) = m.ac_blocks(omega);
        assert!(ys[(0, 0)].norm() < 1e-9);
        assert!(approx_eq(ym[(0, 0)].im, 1.0 / 50.0, 1e-9));
    }

    #[test]
    fn bad_shapes_rejected() {
        let l = Matrix::from_rows(&[&[1e-9, 0.0]]);
        let c = Matrix::identity(2);
        assert_eq!(
            CoupledLineModel::new(l, c, 0.1).unwrap_err(),
            BuildLineError::BadShape
        );
    }

    #[test]
    fn non_spd_rejected() {
        let l = Matrix::from_rows(&[&[1e-9, 2e-9], &[2e-9, 1e-9]]); // indefinite
        let c = Matrix::identity(2).scale(1e-12);
        assert!(matches!(
            CoupledLineModel::new(l, c, 0.1),
            Err(BuildLineError::NotPassive(_))
        ));
    }
}
