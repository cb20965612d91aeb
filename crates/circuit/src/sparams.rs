//! Scattering-parameter conversions.
//!
//! The paper verifies its extracted models against measured S-parameters
//! (Fig. 7). These helpers convert between impedance and scattering
//! matrices for a uniform real reference impedance:
//!
//! ```text
//! S = (Z − Z₀I)(Z + Z₀I)⁻¹          Z = Z₀(I + S)(I − S)⁻¹
//! ```

use crate::netlist::{Circuit, NodeId, SimulateCircuitError};
use pdn_num::rational::{self, SweepAccuracy};
use pdn_num::{c64, parallel, LuDecomposition, Matrix, SolveMatrixError};

/// Converts an impedance matrix to a scattering matrix with reference
/// impedance `z0` (Ω) at every port.
///
/// # Errors
///
/// Returns an error when `Z + Z₀I` is singular (never for passive `Z` and
/// positive `z0`).
///
/// # Examples
///
/// ```
/// use pdn_num::{c64, Matrix};
///
/// # fn main() -> Result<(), pdn_num::SolveMatrixError> {
/// // A 1-port of exactly 50 Ω has S11 = 0.
/// let z = Matrix::from_rows(&[&[c64::from_re(50.0)]]);
/// let s = pdn_circuit::s_from_z(&z, 50.0)?;
/// assert!(s[(0, 0)].norm() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn s_from_z(z: &Matrix<c64>, z0: f64) -> Result<Matrix<c64>, SolveMatrixError> {
    let n = z.nrows();
    let z0c = c64::from_re(z0);
    let mut num = z.clone();
    let mut den = z.clone();
    for i in 0..n {
        num[(i, i)] -= z0c;
        den[(i, i)] += z0c;
    }
    // S = num · den⁻¹  ⇔  Sᵀ = (denᵀ)⁻¹ · numᵀ; Z symmetric for reciprocal
    // networks but do not rely on it:
    let den_lu = LuDecomposition::new(den.transpose())?;
    let st = den_lu.solve_matrix(&num.transpose())?;
    Ok(st.transpose())
}

/// Converts a scattering matrix back to an impedance matrix.
///
/// # Errors
///
/// Returns an error when `I − S` is singular (an ideal open at every
/// port).
pub fn z_from_s(s: &Matrix<c64>, z0: f64) -> Result<Matrix<c64>, SolveMatrixError> {
    let n = s.nrows();
    let mut i_plus = s.clone();
    let mut i_minus = -s;
    for i in 0..n {
        i_plus[(i, i)] += c64::ONE;
        i_minus[(i, i)] += c64::ONE;
    }
    // Z = z0 · (I+S)(I−S)⁻¹; compute via transposed solves as above.
    let lu = LuDecomposition::new(i_minus.transpose())?;
    let zt = lu.solve_matrix(&i_plus.transpose())?;
    Ok(zt.transpose().scale(c64::from_re(z0)))
}

/// Converts a frequency sweep of impedance matrices to scattering
/// matrices, one [`s_from_z`] conversion per point on
/// [`pdn_num::parallel`] workers. Output order matches the input and is
/// identical for any worker count.
///
/// # Errors
///
/// Returns the error of the lowest-index failing conversion.
pub fn s_sweep_from_z(
    z_mats: &[Matrix<c64>],
    z0: f64,
) -> Result<Vec<Matrix<c64>>, SolveMatrixError> {
    parallel::try_par_map_indexed(z_mats.len(), |k| s_from_z(&z_mats[k], z0))
}

impl Circuit {
    /// S-parameter sweep over the given port nodes with reference
    /// impedance `z0`: each frequency point solves the complex MNA system
    /// once (factorization cached across port excitations) and converts
    /// the resulting impedance matrix to S, with points fanned out over
    /// [`pdn_num::parallel`] workers.
    ///
    /// # Errors
    ///
    /// Returns the error of the lowest-index failing frequency (`f <= 0`,
    /// singular MNA matrix, or a failed S conversion).
    ///
    /// # Panics
    ///
    /// Panics if a port is the ground node.
    pub fn s_parameter_sweep(
        &self,
        freqs: &[f64],
        ports: &[NodeId],
        z0: f64,
    ) -> Result<Vec<Matrix<c64>>, SimulateCircuitError> {
        self.s_parameter_sweep_with(freqs, ports, z0, SweepAccuracy::Exact)
    }

    /// [`s_parameter_sweep`](Self::s_parameter_sweep) with an explicit
    /// [`SweepAccuracy`] policy — under `Rational`, the scattering matrix
    /// itself is interpolated (S inherits the rational structure of Z), so
    /// only the adaptively chosen anchor frequencies pay an exact solve.
    ///
    /// # Errors
    ///
    /// [`SimulateCircuitError::InvalidSpec`] for an invalid grid or
    /// tolerance; otherwise the lowest-index failing frequency's error.
    ///
    /// # Panics
    ///
    /// Panics if a port is the ground node.
    pub fn s_parameter_sweep_with(
        &self,
        freqs: &[f64],
        ports: &[NodeId],
        z0: f64,
        accuracy: SweepAccuracy,
    ) -> Result<Vec<Matrix<c64>>, SimulateCircuitError> {
        rational::sweep(freqs, accuracy, |f| {
            let z = self.impedance_matrix(f, ports)?;
            s_from_z(&z, z0).map_err(|e| SimulateCircuitError::Singular(format!("f = {f}: {e}")))
        })
        .map_err(crate::ac::from_sweep_err)
        .map(|outcome| outcome.values)
    }
}

/// Insertion loss `|S21|` in dB for a two-port impedance matrix.
///
/// # Errors
///
/// Propagates conversion failures.
///
/// # Panics
///
/// Panics unless `z` is at least 2×2.
pub fn insertion_loss_db(z: &Matrix<c64>, z0: f64) -> Result<f64, SolveMatrixError> {
    assert!(z.nrows() >= 2 && z.ncols() >= 2, "need a two-port");
    let s = s_from_z(z, z0)?;
    Ok(s[(1, 0)].db())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdn_num::approx_eq;

    fn c(re: f64, im: f64) -> c64 {
        c64::new(re, im)
    }

    #[test]
    fn matched_load_has_zero_reflection() {
        let z = Matrix::from_rows(&[&[c(50.0, 0.0)]]);
        let s = s_from_z(&z, 50.0).unwrap();
        assert!(s[(0, 0)].norm() < 1e-14);
    }

    #[test]
    fn short_and_open_reflections() {
        let z_short = Matrix::from_rows(&[&[c(1e-9, 0.0)]]);
        let s = s_from_z(&z_short, 50.0).unwrap();
        assert!(approx_eq(s[(0, 0)].re, -1.0, 1e-9));
        let z_open = Matrix::from_rows(&[&[c(1e12, 0.0)]]);
        let s = s_from_z(&z_open, 50.0).unwrap();
        assert!(approx_eq(s[(0, 0)].re, 1.0, 1e-9));
    }

    #[test]
    fn roundtrip_z_s_z() {
        let z = Matrix::from_rows(&[
            &[c(30.0, 12.0), c(5.0, -2.0)],
            &[c(5.0, -2.0), c(80.0, -40.0)],
        ]);
        let s = s_from_z(&z, 50.0).unwrap();
        let back = z_from_s(&s, 50.0).unwrap();
        for i in 0..2 {
            for j in 0..2 {
                assert!((back[(i, j)] - z[(i, j)]).norm() < 1e-9);
            }
        }
    }

    #[test]
    fn reciprocal_z_gives_reciprocal_s() {
        let z = Matrix::from_rows(&[&[c(20.0, 5.0), c(8.0, 1.0)], &[c(8.0, 1.0), c(35.0, -3.0)]]);
        let s = s_from_z(&z, 50.0).unwrap();
        assert!((s[(0, 1)] - s[(1, 0)]).norm() < 1e-12);
    }

    #[test]
    fn series_z0_attenuator_s21() {
        // A series resistor R between two Z0 ports: Z = [[R, R],[R, R]] +
        // ... actually for a single series R: Z11 = Z12 = Z21 = Z22 = ∞ is
        // wrong; use the known result S21 = 2Z0/(2Z0 + R) via the
        // impedance matrix of a series element: Z = [[R+..]]. Represent
        // the series R as a 2-port with a shunt-free T: Z = [[R, 0],[0, 0]]
        // is not it either — instead test a shunt R to ground at the
        // junction of both ports: Z = [[R, R],[R, R]], S21 = 2R/(2R+Z0).
        let r = 25.0;
        let z = Matrix::from_rows(&[&[c(r, 0.0), c(r, 0.0)], &[c(r, 0.0), c(r, 0.0)]]);
        let s = s_from_z(&z, 50.0).unwrap();
        let expect = 2.0 * r / (2.0 * r + 50.0);
        assert!(approx_eq(s[(1, 0)].re, expect, 1e-9), "{}", s[(1, 0)]);
        assert!(s[(1, 0)].im.abs() < 1e-12);
    }

    #[test]
    fn passivity_of_lossless_reactance() {
        // A pure reactance reflects all power: |S11| = 1.
        let z = Matrix::from_rows(&[&[c(0.0, 37.0)]]);
        let s = s_from_z(&z, 50.0).unwrap();
        assert!(approx_eq(s[(0, 0)].norm(), 1.0, 1e-12));
    }

    #[test]
    fn s_sweep_matches_per_point_conversion() {
        let z_mats: Vec<Matrix<c64>> = (0..40)
            .map(|k| {
                let w = 1.0 + k as f64;
                Matrix::from_rows(&[
                    &[c(30.0, 0.5 * w), c(5.0, -0.1 * w)],
                    &[c(5.0, -0.1 * w), c(80.0, -0.3 * w)],
                ])
            })
            .collect();
        let batch = s_sweep_from_z(&z_mats, 50.0).unwrap();
        for (k, z) in z_mats.iter().enumerate() {
            assert_eq!(batch[k], s_from_z(z, 50.0).unwrap(), "point {k}");
        }
    }

    #[test]
    fn circuit_s_parameter_sweep_matches_manual_conversion() {
        use crate::netlist::Circuit;
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.resistor(a, b, 25.0);
        ckt.capacitor(b, Circuit::GND, 10e-12);
        ckt.resistor(b, Circuit::GND, 75.0);
        let freqs: Vec<f64> = (1..=32).map(|k| k as f64 * 1e8).collect();
        let s_batch = ckt.s_parameter_sweep(&freqs, &[a, b], 50.0).unwrap();
        for (k, &f) in freqs.iter().enumerate() {
            let z = ckt.impedance_matrix(f, &[a, b]).unwrap();
            assert_eq!(s_batch[k], s_from_z(&z, 50.0).unwrap(), "f = {f}");
        }
    }
}

/// Renders a frequency sweep of S-parameter matrices as a Touchstone
/// (version 1) document in real/imaginary format with the given reference
/// impedance — the interchange format of network analyzers and SI tools.
///
/// For 2-ports the canonical Touchstone column order
/// `S11 S21 S12 S22` is used; for other port counts, row-major order with
/// one line per matrix row.
///
/// # Panics
///
/// Panics if `freqs` and `matrices` have different lengths or the
/// matrices are not square and equally sized.
///
/// # Examples
///
/// ```
/// use pdn_num::{c64, Matrix};
///
/// let s = Matrix::from_rows(&[&[c64::new(0.1, -0.2)]]);
/// let doc = pdn_circuit::touchstone(&[1e9], &[s], 50.0);
/// assert!(doc.contains("# HZ S RI R 50"));
/// ```
pub fn touchstone(freqs: &[f64], matrices: &[Matrix<c64>], z0: f64) -> String {
    assert_eq!(freqs.len(), matrices.len(), "one matrix per frequency");
    let n = matrices.first().map_or(0, Matrix::nrows);
    for m in matrices {
        assert!(
            m.is_square() && m.nrows() == n,
            "matrices must be square and equally sized"
        );
    }
    let mut out = String::new();
    out.push_str("! S-parameters exported by pdn\n");
    out.push_str(&format!(
        "! {n}-port network, {} frequency points\n",
        freqs.len()
    ));
    out.push_str(&format!("# HZ S RI R {z0}\n"));
    for (f, s) in freqs.iter().zip(matrices) {
        if n == 2 {
            // Touchstone's historical 2-port order: S11 S21 S12 S22.
            out.push_str(&format!(
                "{f:.6e} {:.9e} {:.9e} {:.9e} {:.9e} {:.9e} {:.9e} {:.9e} {:.9e}\n",
                s[(0, 0)].re,
                s[(0, 0)].im,
                s[(1, 0)].re,
                s[(1, 0)].im,
                s[(0, 1)].re,
                s[(0, 1)].im,
                s[(1, 1)].re,
                s[(1, 1)].im,
            ));
        } else {
            out.push_str(&format!("{f:.6e}"));
            for i in 0..n {
                for j in 0..n {
                    out.push_str(&format!(" {:.9e} {:.9e}", s[(i, j)].re, s[(i, j)].im));
                }
                if i + 1 < n && n > 2 {
                    out.push('\n');
                }
            }
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod touchstone_tests {
    use super::*;

    fn s2(f_scale: f64) -> Matrix<c64> {
        Matrix::from_rows(&[
            &[c64::new(0.1 * f_scale, -0.2), c64::new(0.5, 0.1)],
            &[c64::new(0.5, 0.1), c64::new(-0.05, 0.3)],
        ])
    }

    #[test]
    fn two_port_column_order() {
        let doc = touchstone(&[1e9], &[s2(1.0)], 50.0);
        let data_line = doc.lines().last().expect("data line");
        let fields: Vec<f64> = data_line
            .split_whitespace()
            .map(|v| v.parse().expect("numeric"))
            .collect();
        assert_eq!(fields.len(), 9);
        assert!((fields[0] - 1e9).abs() < 1.0);
        assert!((fields[1] - 0.1).abs() < 1e-12); // S11 re
        assert!((fields[3] - 0.5).abs() < 1e-12); // S21 re
        assert!((fields[7] + 0.05).abs() < 1e-12); // S22 re
    }

    #[test]
    fn header_and_counts() {
        let doc = touchstone(&[1e9, 2e9, 3e9], &[s2(1.0), s2(2.0), s2(3.0)], 75.0);
        assert!(doc.contains("# HZ S RI R 75"));
        let data_lines = doc.lines().filter(|l| !l.starts_with(['!', '#'])).count();
        assert_eq!(data_lines, 3);
    }

    #[test]
    fn one_port_format() {
        let s = Matrix::from_rows(&[&[c64::new(0.9, -0.1)]]);
        let doc = touchstone(&[5e8], &[s], 50.0);
        let data_line = doc.lines().last().expect("data");
        assert_eq!(data_line.split_whitespace().count(), 3);
    }

    #[test]
    #[should_panic(expected = "one matrix per frequency")]
    fn mismatched_lengths_panic() {
        let _ = touchstone(&[1e9, 2e9], &[s2(1.0)], 50.0);
    }
}
