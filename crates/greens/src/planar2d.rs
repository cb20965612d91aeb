//! Two-dimensional (per-unit-length) Green's function for traces on a
//! grounded dielectric slab.
//!
//! This is the kernel behind the paper's "fast 2-D field solver" used to
//! extract multiconductor transmission-line parameters. For a line charge
//! on the surface of a slab of thickness `h` and permittivity `εr` over a
//! ground plane, the successive-image expansion gives the surface potential
//!
//! ```text
//! G(x) = 1/(2πε₀(1+εr)) Σₙ (−K)ⁿ ln[ (x² + ((2n+2)h)²) / (x² + (2nh)²) ]
//! ```
//!
//! with `K = (εr−1)/(εr+1)`. For `εr = 1` this collapses to the classic
//! ground-plane image `(1/2πε₀)·ln(r'/r)`, and integrated over a wide strip
//! it reproduces the parallel-plate capacitance `ε₀εr·w/h` — both verified
//! in the tests. Evaluating the same geometry with `εr = 1` gives the
//! air-line capacitance used to obtain the inductance matrix
//! `L = μ₀ε₀·C₀⁻¹`.

use pdn_num::phys::EPS0;
use std::f64::consts::PI;

/// Per-unit-length scalar-potential kernel for conductors on a grounded
/// dielectric slab.
///
/// # Examples
///
/// ```
/// use pdn_greens::Microstrip2d;
///
/// let g = Microstrip2d::new(4.5, 1.5e-3);
/// // The potential decays with distance from the line charge.
/// assert!(g.eval(1e-3) > g.eval(5e-3));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Microstrip2d {
    eps_r: f64,
    h: f64,
    n_terms: usize,
}

impl Microstrip2d {
    /// Creates the kernel with a default 40-term image series (amply
    /// converged for any physical `εr`).
    ///
    /// # Panics
    ///
    /// Panics unless `eps_r >= 1` and `h > 0`.
    pub fn new(eps_r: f64, h: f64) -> Self {
        Self::with_terms(eps_r, h, 40)
    }

    /// Creates the kernel with an explicit image-series truncation.
    ///
    /// # Panics
    ///
    /// Panics unless `eps_r >= 1`, `h > 0` and `n_terms > 0`.
    pub fn with_terms(eps_r: f64, h: f64, n_terms: usize) -> Self {
        assert!(eps_r >= 1.0, "relative permittivity must be >= 1");
        assert!(h > 0.0, "substrate height must be positive");
        assert!(n_terms > 0, "need at least one image term");
        Microstrip2d { eps_r, h, n_terms }
    }

    /// Substrate relative permittivity.
    pub fn eps_r(&self) -> f64 {
        self.eps_r
    }

    /// Substrate height in meters.
    pub fn height(&self) -> f64 {
        self.h
    }

    /// Potential at horizontal distance `x` from a unit line charge (C/m),
    /// both on the substrate surface.
    ///
    /// Diverges logarithmically as `x → 0`; use
    /// [`segment_integral`](Self::segment_integral) for self terms.
    pub fn eval(&self, x: f64) -> f64 {
        let k = (self.eps_r - 1.0) / (self.eps_r + 1.0);
        let front = 1.0 / (2.0 * PI * EPS0 * (1.0 + self.eps_r));
        let x2 = x * x;
        let mut w = 1.0;
        let mut sum = 0.0;
        for n in 0..self.n_terms {
            let a = 2.0 * n as f64 * self.h;
            let b = 2.0 * (n as f64 + 1.0) * self.h;
            sum += w * ((x2 + b * b) / (x2 + a * a)).ln();
            w *= -k;
        }
        front * sum
    }

    /// Exact integral of the kernel over a source segment of width `width`
    /// centered at `seg_center`, observed at `obs_x` (both on the surface):
    /// `∫ G(obs_x − x') dx'`.
    ///
    /// Handles the logarithmic self term in closed form.
    pub fn segment_integral(&self, obs_x: f64, seg_center: f64, width: f64) -> f64 {
        let k = (self.eps_r - 1.0) / (self.eps_r + 1.0);
        let front = 1.0 / (2.0 * PI * EPS0 * (1.0 + self.eps_r));
        // Integration variable u = obs_x − x', limits:
        let u1 = obs_x - (seg_center + 0.5 * width);
        let u2 = obs_x - (seg_center - 0.5 * width);
        let mut w = 1.0;
        let mut sum = 0.0;
        for n in 0..self.n_terms {
            let a = 2.0 * n as f64 * self.h;
            let b = 2.0 * (n as f64 + 1.0) * self.h;
            let ib = log_kernel_antiderivative(u2, b) - log_kernel_antiderivative(u1, b);
            let ia = log_kernel_antiderivative(u2, a) - log_kernel_antiderivative(u1, a);
            sum += w * (ib - ia);
            w *= -k;
        }
        front * sum
    }
}

/// Antiderivative of `ln(u² + a²)`:
/// `u·ln(u²+a²) − 2u + 2a·atan(u/a)` (limit form for `a = 0`).
fn log_kernel_antiderivative(u: f64, a: f64) -> f64 {
    if a == 0.0 {
        if u == 0.0 {
            0.0
        } else {
            u * (u * u).ln() - 2.0 * u
        }
    } else {
        u * (u * u + a * a).ln() - 2.0 * u + 2.0 * a * (u / a).atan()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdn_num::approx_eq;

    #[test]
    fn air_case_is_ground_image() {
        let h = 1e-3;
        let g = Microstrip2d::new(1.0, h);
        for &x in &[0.5e-3, 1e-3, 3e-3] {
            let expect = (1.0 / (2.0 * PI * EPS0)) * ((x * x + 4.0 * h * h).sqrt() / x).ln();
            assert!(approx_eq(g.eval(x), expect, 1e-10), "x={x}");
        }
    }

    #[test]
    fn wide_strip_parallel_plate_capacitance() {
        // A strip w >> h over ground: C ≈ ε0·εr·w/h. Solve the 1-unknown
        // MoM problem: q = V / P_self, C = q/V = 1/P_self per unit length
        // where P_self is the average self potential coefficient. Use the
        // segment integral averaged at the center as a good estimate.
        let eps_r = 4.5;
        let h = 0.1e-3;
        let w = 20e-3; // w/h = 200: fringing negligible
        let g = Microstrip2d::new(eps_r, h);
        let p_self = g.segment_integral(0.0, 0.0, w) / 1.0;
        // crude single-cell MoM: C = 1/(P_self/w·w)??  Work with charge
        // density: V(center) = σ · ∫G = σ · p_self. Parallel-plate:
        // σ = ε V / h → p_self ≈ h/(ε0 εr).
        assert!(
            approx_eq(p_self, h / (EPS0 * eps_r), 0.03),
            "p_self = {p_self}, expect ≈ {}",
            h / (EPS0 * eps_r)
        );
    }

    #[test]
    fn segment_integral_matches_quadrature_off_segment() {
        let g = Microstrip2d::new(4.5, 1e-3);
        let quad = pdn_num::GaussLegendre::new(32);
        let (c, w, obs) = (0.0, 2e-3, 5e-3);
        let exact = g.segment_integral(obs, c, w);
        let numeric = quad.integrate(c - 0.5 * w, c + 0.5 * w, |x| g.eval(obs - x));
        assert!(approx_eq(exact, numeric, 1e-8));
    }

    #[test]
    fn self_term_finite_and_dominant() {
        let g = Microstrip2d::new(4.5, 1e-3);
        let self_t = g.segment_integral(0.0, 0.0, 1e-3);
        let near_t = g.segment_integral(2e-3, 0.0, 1e-3);
        assert!(self_t.is_finite());
        assert!(self_t > near_t && near_t > 0.0);
    }

    #[test]
    fn symmetry_in_observation() {
        let g = Microstrip2d::new(3.0, 0.5e-3);
        let a = g.segment_integral(4e-3, 1e-3, 2e-3);
        let b = g.segment_integral(-2e-3, 1e-3, 2e-3);
        assert!(approx_eq(a, b, 1e-12)); // both 3 mm from center
    }

    #[test]
    fn higher_eps_means_lower_potential() {
        // More dielectric pulls field into the substrate, reducing the
        // surface potential for the same charge.
        let lo = Microstrip2d::new(2.0, 1e-3);
        let hi = Microstrip2d::new(10.0, 1e-3);
        assert!(hi.eval(1e-3) < lo.eval(1e-3));
    }

    #[test]
    fn series_truncation_converges() {
        // εr = 9.6 gives K = 0.811; 40 terms leave a ~2e-4 weight tail.
        let g40 = Microstrip2d::with_terms(9.6, 1e-3, 40);
        let g160 = Microstrip2d::with_terms(9.6, 1e-3, 160);
        assert!(approx_eq(g40.eval(0.5e-3), g160.eval(0.5e-3), 1e-4));
    }

    #[test]
    #[should_panic(expected = "must be >= 1")]
    fn sub_unity_eps_rejected() {
        let _ = Microstrip2d::new(0.5, 1e-3);
    }
}
