//! Image-series representations of the layered-substrate Green's functions.
//!
//! Every quasi-static kernel used by the BEM is a finite sum of
//! inverse-distance terms
//!
//! ```text
//! G(ρ) = Σₙ cₙ / √(ρ² + aₙ²)
//! ```
//!
//! where `aₙ` is the out-of-plane depth of image `n` and `cₙ` its weight.
//! Three constructions cover the paper's structures:
//!
//! * [`LayeredKernel::free_space`] — homogeneous dielectric, no ground.
//! * [`LayeredKernel::scalar_confined`] — conductor over a ground plane with
//!   the dielectric treated as filling all space (exact image theory). This
//!   is the plane-pair workhorse: the field of a power/ground pair is
//!   confined between the plates, so a single negative image at depth `2d`
//!   captures the return path.
//! * [`LayeredKernel::scalar_microstrip`] — conductor on top of a grounded
//!   dielectric slab with air above (the patch/trace case). The classical
//!   successive-image expansion in the reflection coefficient
//!   `K = (εr−1)/(εr+1)`:
//!
//!   ```text
//!   G(ρ) = 1/(2πε₀(1+εr)) Σₙ (−K)ⁿ [ (ρ²+(2nh)²)^{-1/2} − (ρ²+((2n+2)h)²)^{-1/2} ]
//!   ```
//!
//!   which reduces to the perfect-ground image pair for `εr = 1` and
//!   reproduces the parallel-plate capacitance `ε/h` in the wide-plate
//!   limit (both verified in the tests).
//!
//! The magnetostatic vector-potential kernel sees no dielectric at all, so
//! [`LayeredKernel::vector_potential`] is always the perfect-ground pair
//! weighted by `μ₀/4π`.

use crate::panel::{rect_potential, Rectangle};
use pdn_num::phys::{EPS0, MU0};
use std::f64::consts::PI;

/// One image source: an inverse-distance term at out-of-plane depth
/// `depth` with weight `coeff`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImageTerm {
    /// Multiplicative weight of the term.
    pub coeff: f64,
    /// Out-of-plane offset of the image, meters (0 = in-plane source).
    pub depth: f64,
}

/// A quasi-static layered-substrate Green's function as a finite image
/// series.
///
/// # Examples
///
/// ```
/// use pdn_greens::LayeredKernel;
///
/// let g = LayeredKernel::free_space(1.0);
/// // Free space: G(1 m) = 1/(4πε₀) ≈ 8.99e9.
/// assert!((g.eval(1.0) - 8.99e9).abs() / 8.99e9 < 1e-3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LayeredKernel {
    terms: Vec<ImageTerm>,
}

impl LayeredKernel {
    /// Builds a kernel from raw image terms.
    pub fn from_terms(terms: Vec<ImageTerm>) -> Self {
        LayeredKernel { terms }
    }

    /// Scalar-potential kernel in a homogeneous dielectric, no ground plane:
    /// `G(ρ) = 1/(4πε₀εr·ρ)`.
    pub fn free_space(eps_r: f64) -> Self {
        LayeredKernel {
            terms: vec![ImageTerm {
                coeff: 1.0 / (4.0 * PI * EPS0 * eps_r),
                depth: 0.0,
            }],
        }
    }

    /// Scalar-potential kernel for a conductor at height `d` over a ground
    /// plane, dielectric `eps_r` treated as homogeneous (field confined
    /// between the plates — the power/ground plane-pair model).
    ///
    /// `G(ρ) = 1/(4πε₀εr) · [ 1/ρ − 1/√(ρ²+(2d)²) ]`
    pub fn scalar_confined(eps_r: f64, d: f64) -> Self {
        let c = 1.0 / (4.0 * PI * EPS0 * eps_r);
        LayeredKernel {
            terms: vec![
                ImageTerm {
                    coeff: c,
                    depth: 0.0,
                },
                ImageTerm {
                    coeff: -c,
                    depth: 2.0 * d,
                },
            ],
        }
    }

    /// Scalar-potential kernel for a conductor **on** a grounded dielectric
    /// slab of thickness `h` and permittivity `eps_r`, air above — the
    /// microstrip patch/trace substrate. Truncated after `n_terms` image
    /// pairs (the series converges geometrically in `K`).
    ///
    /// # Panics
    ///
    /// Panics if `n_terms == 0`.
    pub fn scalar_microstrip(eps_r: f64, h: f64, n_terms: usize) -> Self {
        assert!(n_terms > 0, "need at least one image term");
        let k = (eps_r - 1.0) / (eps_r + 1.0);
        let front = 1.0 / (2.0 * PI * EPS0 * (1.0 + eps_r));
        let mut terms = Vec::with_capacity(2 * n_terms);
        let mut w = front;
        for n in 0..n_terms {
            terms.push(ImageTerm {
                coeff: w,
                depth: 2.0 * n as f64 * h,
            });
            terms.push(ImageTerm {
                coeff: -w,
                depth: 2.0 * (n as f64 + 1.0) * h,
            });
            w *= -k;
        }
        LayeredKernel { terms }
    }

    /// Vector-potential kernel for currents at height `d` over a ground
    /// plane: `G_A(ρ) = μ₀/4π · [ 1/ρ − 1/√(ρ²+(2d)²) ]`.
    ///
    /// The negative image encodes the return current induced in the ground
    /// plane; dielectrics are magnetically transparent.
    pub fn vector_potential(d: f64) -> Self {
        let c = MU0 / (4.0 * PI);
        LayeredKernel {
            terms: vec![
                ImageTerm {
                    coeff: c,
                    depth: 0.0,
                },
                ImageTerm {
                    coeff: -c,
                    depth: 2.0 * d,
                },
            ],
        }
    }

    /// Vector-potential kernel with no ground plane (isolated conductor):
    /// `G_A(ρ) = μ₀/(4πρ)`.
    pub fn vector_potential_free() -> Self {
        LayeredKernel {
            terms: vec![ImageTerm {
                coeff: MU0 / (4.0 * PI),
                depth: 0.0,
            }],
        }
    }

    /// The image terms.
    pub fn terms(&self) -> &[ImageTerm] {
        &self.terms
    }

    /// Evaluates the kernel at in-plane distance `rho`.
    ///
    /// Diverges as `c₀/ρ` for `ρ → 0` (the `depth = 0` source term); use
    /// [`panel_integral`](Self::panel_integral) for self and near terms.
    pub fn eval(&self, rho: f64) -> f64 {
        self.terms
            .iter()
            .map(|t| t.coeff / (rho * rho + t.depth * t.depth).sqrt())
            .sum()
    }

    /// Exact integral of the kernel over a rectangular source panel, as
    /// seen from an in-plane observation point:
    /// `∫_panel G(|r_obs − r'|) dA'`.
    ///
    /// Each image term is integrated with the closed-form potential of a
    /// uniformly charged rectangle, so the result is accurate even for the
    /// singular self term (`obs` inside the panel).
    ///
    /// `obs` is the observation point *relative to the panel center*.
    ///
    /// # Examples
    ///
    /// ```
    /// use pdn_greens::{LayeredKernel, Rectangle};
    ///
    /// let g = LayeredKernel::free_space(1.0);
    /// let panel = Rectangle::new(1e-3, 1e-3);
    /// let self_term = g.panel_integral((0.0, 0.0), panel);
    /// assert!(self_term > 0.0);
    /// ```
    pub fn panel_integral(&self, obs: (f64, f64), panel: Rectangle) -> f64 {
        self.terms
            .iter()
            .map(|t| t.coeff * rect_potential(obs.0, obs.1, t.depth, panel))
            .sum()
    }

    /// Galerkin double integral
    /// `(1/A_obs) ∫_obs ∫_src G dA' dA`,
    /// i.e. the source-panel integral averaged over the observation panel
    /// with an `n × n` Gauss–Legendre rule.
    ///
    /// The inner (singular) integral is closed form; the outer integrand is
    /// continuous, so modest quadrature orders converge fast.
    ///
    /// `offset` is the vector from the source-panel center to the
    /// observation-panel center.
    pub fn panel_galerkin(
        &self,
        offset: (f64, f64),
        obs_panel: Rectangle,
        src_panel: Rectangle,
        quad: &pdn_num::GaussLegendre,
    ) -> f64 {
        let mut sum = 0.0;
        let mut wsum = 0.0;
        for (&xi, &wi) in quad.nodes().iter().zip(quad.weights()) {
            let ox = offset.0 + 0.5 * obs_panel.width * xi;
            for (&yj, &wj) in quad.nodes().iter().zip(quad.weights()) {
                let oy = offset.1 + 0.5 * obs_panel.height * yj;
                sum += wi * wj * self.panel_integral((ox, oy), src_panel);
                wsum += wi * wj;
            }
        }
        sum / wsum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdn_num::approx_eq;

    #[test]
    fn free_space_is_coulomb() {
        let g = LayeredKernel::free_space(1.0);
        let expect = 1.0 / (4.0 * PI * EPS0);
        assert!(approx_eq(g.eval(1.0), expect, 1e-12));
        assert!(approx_eq(g.eval(2.0), expect / 2.0, 1e-12));
    }

    #[test]
    fn confined_matches_microstrip_for_eps_one() {
        // With εr = 1 the slab disappears: both kernels must be the simple
        // perfect-ground image pair.
        let d = 1e-3;
        let a = LayeredKernel::scalar_confined(1.0, d);
        let b = LayeredKernel::scalar_microstrip(1.0, d, 8);
        for &rho in &[1e-4, 1e-3, 5e-3, 2e-2] {
            assert!(approx_eq(a.eval(rho), b.eval(rho), 1e-10), "rho={rho}");
        }
    }

    #[test]
    fn ground_image_creates_dipole_decay() {
        let d = 0.5e-3;
        let g = LayeredKernel::scalar_confined(4.0, d);
        // Far away, a source + opposite image decays like 1/ρ³ (dipole),
        // so doubling ρ should reduce the kernel by ~8×.
        let g1 = g.eval(50e-3);
        let g2 = g.eval(100e-3);
        let ratio = g1 / g2;
        assert!(ratio > 7.0 && ratio < 9.0, "ratio={ratio}");
    }

    #[test]
    fn microstrip_parallel_plate_limit() {
        // Integrating the microstrip kernel over a huge sheet of unit
        // charge density must give V = h/(ε₀·εr): the parallel-plate
        // capacitor result. Integrate term by term analytically:
        // ∫ dA/√(ρ²+a²) over all plane from a disc of radius R →
        // 2π(√(R²+a²) − a) → contributes −2πa relative differences.
        let eps_r = 9.6;
        let h = 280e-6;
        let g = LayeredKernel::scalar_microstrip(eps_r, h, 40);
        let mut v = 0.0;
        let r_big = 1.0; // 1 m disc ≈ infinite for µm-scale h
        for t in g.terms() {
            let integral = 2.0 * PI * ((r_big * r_big + t.depth * t.depth).sqrt() - t.depth);
            v += t.coeff * integral;
        }
        // Subtract the common 2πR part? No: the pairs (+,−) cancel the R
        // dependence exactly; what is left is Σ c·2π(a_minus − a_plus).
        let expect = h / (EPS0 * eps_r);
        assert!(approx_eq(v, expect, 1e-3), "v={v}, parallel-plate={expect}");
    }

    #[test]
    fn confined_parallel_plate_limit() {
        let eps_r = 4.5;
        let d = 0.762e-3;
        let g = LayeredKernel::scalar_confined(eps_r, d);
        let mut v = 0.0;
        for t in g.terms() {
            let r_big = 10.0;
            v += t.coeff * 2.0 * PI * ((r_big * r_big + t.depth * t.depth).sqrt() - t.depth);
        }
        assert!(approx_eq(v, d / (EPS0 * eps_r), 1e-4));
    }

    #[test]
    fn microstrip_series_converges_geometrically() {
        // K = 0.636 for εr = 4.5. Far from the source the residual field is
        // a small difference of large images, so the tail is felt more
        // strongly; 40 terms are converged at every distance.
        let g40 = LayeredKernel::scalar_microstrip(4.5, 1e-3, 40);
        let g160 = LayeredKernel::scalar_microstrip(4.5, 1e-3, 160);
        for &rho in &[1e-4, 1e-3, 1e-2] {
            assert!(approx_eq(g40.eval(rho), g160.eval(rho), 1e-5), "rho={rho}");
        }
    }

    #[test]
    fn vector_kernel_magnetostatic() {
        let g = LayeredKernel::vector_potential(1e-3);
        // Near field dominated by the μ0/4π source term.
        let near = g.eval(1e-5);
        assert!(approx_eq(near, MU0 / (4.0 * PI) / 1e-5, 1e-2));
        // Free variant has no image.
        let gf = LayeredKernel::vector_potential_free();
        assert!(gf.eval(1.0) > 0.0);
        assert_eq!(gf.terms().len(), 1);
    }

    #[test]
    fn panel_integral_far_field_matches_point_kernel() {
        let g = LayeredKernel::scalar_confined(4.0, 0.5e-3);
        let panel = Rectangle::new(1e-3, 1e-3);
        // 50 panel-widths away the patch looks like a point charge of the
        // same total strength.
        let rho = 50e-3;
        let approx = g.eval(rho) * panel.area();
        let exact = g.panel_integral((rho, 0.0), panel);
        assert!(approx_eq(approx, exact, 1e-3));
    }

    #[test]
    fn galerkin_close_to_collocation_for_far_panels() {
        let g = LayeredKernel::free_space(1.0);
        let p = Rectangle::new(1e-3, 1e-3);
        let quad = pdn_num::GaussLegendre::new(4);
        let coll = g.panel_integral((10e-3, 2e-3), p);
        let gal = g.panel_galerkin((10e-3, 2e-3), p, p, &quad);
        assert!(approx_eq(coll, gal, 1e-3));
    }

    #[test]
    fn galerkin_self_term_exceeds_center_value_decay() {
        // For the self panel, averaging moves the observation away from the
        // center so the Galerkin value is below the collocation value, but
        // both are positive and within a factor ~1.5.
        let g = LayeredKernel::free_space(1.0);
        let p = Rectangle::new(2e-3, 2e-3);
        let quad = pdn_num::GaussLegendre::new(6);
        let coll = g.panel_integral((0.0, 0.0), p);
        let gal = g.panel_galerkin((0.0, 0.0), p, p, &quad);
        assert!(gal > 0.0 && gal < coll && gal > 0.5 * coll);
    }
}
