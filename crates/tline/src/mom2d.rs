//! 2-D method-of-moments extraction of per-unit-length line parameters.
//!
//! Each trace cross-section is a zero-thickness strip on the substrate
//! surface, discretized into segments carrying pulse-basis line-charge
//! densities. Point matching at segment centers against the image-series
//! Green's function gives the potential-coefficient system; solving it
//! with each conductor at 1 V in turn yields the Maxwell capacitance
//! matrix. Repeating with the dielectric removed (`εr = 1`) gives `C₀`,
//! and the lossless inductance follows from `L = μ₀ε₀·C₀⁻¹`.

use pdn_circuit::tline_elem::BuildLineError;
use pdn_circuit::CoupledLineModel;
use pdn_greens::Microstrip2d;
use pdn_num::phys::{EPS0, MU0};
use pdn_num::{LuDecomposition, Matrix};
use std::error::Error;
use std::fmt;

/// Error from line-parameter extraction.
#[derive(Debug, Clone, PartialEq)]
pub enum ExtractLineError {
    /// The MoM system could not be solved.
    Singular(String),
    /// Derived matrices were not physical (e.g. non-SPD `L`).
    NotPassive(String),
}

impl fmt::Display for ExtractLineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExtractLineError::Singular(s) => write!(f, "MoM solve failed: {s}"),
            ExtractLineError::NotPassive(s) => write!(f, "non-physical extraction: {s}"),
        }
    }
}

impl Error for ExtractLineError {}

impl From<BuildLineError> for ExtractLineError {
    fn from(e: BuildLineError) -> Self {
        ExtractLineError::NotPassive(e.to_string())
    }
}

/// An array of parallel strips on a grounded dielectric slab.
///
/// # Examples
///
/// ```
/// use pdn_tline::MicrostripArray;
///
/// // The paper's Fig. 4 cross-section: two 6 mm strips, 6 mm apart,
/// // on a 5 mm εr = 4.5 substrate.
/// let pair = MicrostripArray::uniform(2, 6e-3, 6e-3, 5e-3, 4.5);
/// assert_eq!(pair.conductor_count(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MicrostripArray {
    /// `(center_x, width)` of each strip, meters.
    strips: Vec<(f64, f64)>,
    h: f64,
    eps_r: f64,
    segments_per_strip: usize,
}

impl MicrostripArray {
    /// `n` identical strips of the given `width` separated by `gap`
    /// (edge-to-edge), centered on `x = 0`, on a slab of height `h` and
    /// permittivity `eps_r`.
    ///
    /// # Panics
    ///
    /// Panics for non-positive `n`, `width`, or `h`, negative `gap`, or
    /// `eps_r < 1`.
    pub fn uniform(n: usize, width: f64, gap: f64, h: f64, eps_r: f64) -> Self {
        assert!(n > 0, "need at least one strip");
        assert!(width > 0.0 && h > 0.0, "width and height must be positive");
        assert!(gap >= 0.0, "gap cannot be negative");
        assert!(eps_r >= 1.0, "relative permittivity must be >= 1");
        let pitch = width + gap;
        let x0 = -0.5 * (n as f64 - 1.0) * pitch;
        let strips = (0..n).map(|i| (x0 + i as f64 * pitch, width)).collect();
        MicrostripArray {
            strips,
            h,
            eps_r,
            segments_per_strip: 24,
        }
    }

    /// Builds from explicit `(center, width)` strips.
    ///
    /// # Panics
    ///
    /// Panics for empty strips, non-positive widths/height, or `eps_r < 1`.
    pub fn from_strips(strips: Vec<(f64, f64)>, h: f64, eps_r: f64) -> Self {
        assert!(!strips.is_empty(), "need at least one strip");
        assert!(
            strips.iter().all(|&(_, w)| w > 0.0),
            "widths must be positive"
        );
        assert!(h > 0.0 && eps_r >= 1.0, "invalid substrate");
        MicrostripArray {
            strips,
            h,
            eps_r,
            segments_per_strip: 24,
        }
    }

    /// Sets the MoM discretization density (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `segments == 0`.
    pub fn with_segments(mut self, segments: usize) -> Self {
        assert!(segments > 0, "need at least one segment per strip");
        self.segments_per_strip = segments;
        self
    }

    /// Number of signal conductors.
    pub fn conductor_count(&self) -> usize {
        self.strips.len()
    }

    /// Substrate height, meters.
    pub fn substrate_height(&self) -> f64 {
        self.h
    }

    /// Substrate relative permittivity.
    pub fn eps_r(&self) -> f64 {
        self.eps_r
    }

    /// Maxwell capacitance matrix (F/m) with the given permittivity.
    fn capacitance_with_eps(&self, eps_r: f64) -> Result<Matrix<f64>, ExtractLineError> {
        let kernel = Microstrip2d::new(eps_r, self.h);
        let n_str = self.strips.len();
        let nseg = self.segments_per_strip;
        let total = n_str * nseg;
        // Segment centers and widths.
        let mut centers = Vec::with_capacity(total);
        let mut widths = Vec::with_capacity(total);
        let mut owner = Vec::with_capacity(total);
        for (s, &(cx, w)) in self.strips.iter().enumerate() {
            let dw = w / nseg as f64;
            for k in 0..nseg {
                centers.push(cx - 0.5 * w + (k as f64 + 0.5) * dw);
                widths.push(dw);
                owner.push(s);
            }
        }
        // Potential coefficients: V_i = Σ_j P_ij q_j, with q_j the charge
        // per unit length on segment j.
        let p = Matrix::from_fn(total, total, |i, j| {
            kernel.segment_integral(centers[i], centers[j], widths[j]) / widths[j]
        });
        let lu = LuDecomposition::new(p).map_err(|e| ExtractLineError::Singular(e.to_string()))?;
        let mut c = Matrix::<f64>::zeros(n_str, n_str);
        for exc in 0..n_str {
            let v: Vec<f64> = (0..total)
                .map(|i| if owner[i] == exc { 1.0 } else { 0.0 })
                .collect();
            let q = lu
                .solve(&v)
                .map_err(|e| ExtractLineError::Singular(e.to_string()))?;
            for i in 0..total {
                c[(owner[i], exc)] += q[i];
            }
        }
        // Symmetrize assembly round-off.
        Ok(Matrix::from_fn(n_str, n_str, |i, j| {
            0.5 * (c[(i, j)] + c[(j, i)])
        }))
    }

    /// Maxwell capacitance matrix with the dielectric present (F/m).
    ///
    /// # Errors
    ///
    /// Returns [`ExtractLineError`] when the MoM system is singular.
    pub fn capacitance_matrix(&self) -> Result<Matrix<f64>, ExtractLineError> {
        self.capacitance_with_eps(self.eps_r)
    }

    /// Maxwell capacitance matrix with the dielectric replaced by air.
    ///
    /// # Errors
    ///
    /// Returns [`ExtractLineError`] when the MoM system is singular.
    pub fn air_capacitance_matrix(&self) -> Result<Matrix<f64>, ExtractLineError> {
        self.capacitance_with_eps(1.0)
    }

    /// Per-unit-length inductance matrix `L = μ₀ε₀·C₀⁻¹` (H/m).
    ///
    /// # Errors
    ///
    /// Returns [`ExtractLineError`] when `C₀` cannot be inverted.
    pub fn inductance_matrix(&self) -> Result<Matrix<f64>, ExtractLineError> {
        let c0 = self.air_capacitance_matrix()?;
        let inv = pdn_num::lu::invert(c0).map_err(|e| ExtractLineError::Singular(e.to_string()))?;
        let n = inv.nrows();
        Ok(Matrix::from_fn(n, n, |i, j| {
            MU0 * EPS0 * 0.5 * (inv[(i, j)] + inv[(j, i)])
        }))
    }

    /// Characteristic impedance of a single line (first conductor),
    /// `Z₀ = √(L₁₁/C₁₁)` — exact for one conductor.
    ///
    /// # Errors
    ///
    /// Propagates extraction failures.
    pub fn characteristic_impedance(&self) -> Result<f64, ExtractLineError> {
        let c = self.capacitance_matrix()?;
        let l = self.inductance_matrix()?;
        Ok((l[(0, 0)] / c[(0, 0)]).sqrt())
    }

    /// Effective relative permittivity of a single line,
    /// `ε_eff = C/C₀`.
    ///
    /// # Errors
    ///
    /// Propagates extraction failures.
    pub fn effective_permittivity(&self) -> Result<f64, ExtractLineError> {
        let c = self.capacitance_matrix()?;
        let c0 = self.air_capacitance_matrix()?;
        Ok(c[(0, 0)] / c0[(0, 0)])
    }

    /// Builds the circuit-level coupled-line model for a line of the given
    /// physical `length` (m).
    ///
    /// # Errors
    ///
    /// Propagates extraction and modal-decomposition failures.
    pub fn line_model(&self, length: f64) -> Result<CoupledLineModel, ExtractLineError> {
        let l = self.inductance_matrix()?;
        let c = self.capacitance_matrix()?;
        Ok(CoupledLineModel::new(l, c, length)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic;
    use pdn_num::approx_eq;
    use pdn_num::phys::C0;

    #[test]
    fn air_single_strip_travels_at_light_speed() {
        // In air L·C = μ₀ε₀ exactly: v = c₀ regardless of geometry.
        let line = MicrostripArray::uniform(1, 2e-3, 0.0, 1e-3, 1.0);
        let model = line.line_model(0.1).unwrap();
        assert!(approx_eq(model.velocities()[0], C0, 1e-9));
    }

    #[test]
    fn z0_matches_hammerstad_wide_strip() {
        for &(w_over_h, eps_r) in &[(2.0, 4.5), (1.0, 4.5), (3.0, 9.6), (0.8, 2.2)] {
            let h = 1e-3;
            let line = MicrostripArray::uniform(1, w_over_h * h, 0.0, h, eps_r).with_segments(40);
            let z_mom = line.characteristic_impedance().unwrap();
            let z_ham = analytic::microstrip_z0(w_over_h * h, h, eps_r);
            let rel = (z_mom - z_ham).abs() / z_ham;
            assert!(
                rel < 0.06,
                "w/h={w_over_h} εr={eps_r}: MoM {z_mom:.2} vs Hammerstad {z_ham:.2}"
            );
        }
    }

    #[test]
    fn eps_eff_between_one_and_eps_r() {
        let line = MicrostripArray::uniform(1, 2e-3, 0.0, 1e-3, 4.5);
        let ee = line.effective_permittivity().unwrap();
        assert!(ee > 1.0 && ee < 4.5, "eps_eff = {ee}");
        let ee_ham = analytic::microstrip_eps_eff(2e-3, 1e-3, 4.5);
        assert!(
            approx_eq(ee, ee_ham, 0.05),
            "MoM {ee} vs Hammerstad {ee_ham}"
        );
    }

    #[test]
    fn capacitance_matrix_structure() {
        let pair = MicrostripArray::uniform(2, 2e-3, 1e-3, 1e-3, 4.5);
        let c = pair.capacitance_matrix().unwrap();
        assert!(c[(0, 0)] > 0.0 && c[(1, 1)] > 0.0);
        assert!(c[(0, 1)] < 0.0, "mutual Maxwell capacitance is negative");
        assert!(c.symmetry_defect() < 1e-9 * c.max_abs());
        // Symmetric pair: equal diagonals.
        assert!(approx_eq(c[(0, 0)], c[(1, 1)], 1e-9));
    }

    #[test]
    fn coupling_decreases_with_gap() {
        let k = |gap: f64| {
            let pair = MicrostripArray::uniform(2, 2e-3, gap, 1e-3, 4.5);
            let l = pair.inductance_matrix().unwrap();
            l[(0, 1)] / l[(0, 0)]
        };
        let k_close = k(0.5e-3);
        let k_far = k(4e-3);
        assert!(
            k_close > k_far,
            "inductive coupling decays: {k_close} vs {k_far}"
        );
        assert!(k_close > 0.0 && k_close < 1.0);
    }

    #[test]
    fn inductance_independent_of_dielectric() {
        let a = MicrostripArray::uniform(2, 2e-3, 1e-3, 1e-3, 4.5);
        let b = MicrostripArray::uniform(2, 2e-3, 1e-3, 1e-3, 9.6);
        let la = a.inductance_matrix().unwrap();
        let lb = b.inductance_matrix().unwrap();
        assert!((la[(0, 0)] - lb[(0, 0)]).abs() < 1e-12 * la[(0, 0)]);
    }

    #[test]
    fn segment_refinement_converges() {
        let coarse = MicrostripArray::uniform(1, 2e-3, 0.0, 1e-3, 4.5)
            .with_segments(12)
            .characteristic_impedance()
            .unwrap();
        let fine = MicrostripArray::uniform(1, 2e-3, 0.0, 1e-3, 4.5)
            .with_segments(60)
            .characteristic_impedance()
            .unwrap();
        assert!((coarse - fine).abs() / fine < 0.02, "{coarse} vs {fine}");
    }

    #[test]
    fn paper_fig4_cross_section_modes() {
        // 6 mm strips, 6 mm gap, 5 mm substrate, εr = 4.5 (paper Fig. 4).
        let pair = MicrostripArray::uniform(2, 6e-3, 6e-3, 5e-3, 4.5);
        let model = pair.line_model(0.2).unwrap();
        // Two distinct modes, both slower than light, faster than the
        // fully-immersed limit.
        let v_full = C0 / 4.5f64.sqrt();
        for &v in model.velocities() {
            assert!(v < C0 && v > v_full, "mode velocity {v}");
        }
        assert!(model.velocities()[0] != model.velocities()[1]);
    }

    #[test]
    #[should_panic(expected = "at least one strip")]
    fn empty_array_panics() {
        let _ = MicrostripArray::uniform(0, 1e-3, 0.0, 1e-3, 4.5);
    }
}
