//! Closed-form potential of a uniformly charged rectangle.
//!
//! The paper notes that "special techniques such as closed form formulas
//! have been applied in the evaluation of those integrals" — this module is
//! that technique. For an observation point at `(px, py, z)` relative to
//! the center of a `w × h` rectangle carrying unit surface density, the
//! integral
//!
//! ```text
//! I = ∬ dx' dy' / √((px−x')² + (py−y')² + z²)
//! ```
//!
//! has the exact antiderivative
//!
//! ```text
//! F(x, y) = x·asinh(y/√(x²+z²)) + y·asinh(x/√(y²+z²)) − z·atan2(x·y, z·r)
//! ```
//!
//! evaluated at the four corners. The `asinh` form is numerically stable
//! for all corner signs, including the singular in-plane self term.

/// A rectangle given by its full width and height (centered at the origin
/// of its own local frame).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rectangle {
    /// Full extent in x, meters.
    pub width: f64,
    /// Full extent in y, meters.
    pub height: f64,
}

impl Rectangle {
    /// Creates a rectangle.
    ///
    /// # Panics
    ///
    /// Panics unless both dimensions are positive.
    pub fn new(width: f64, height: f64) -> Self {
        assert!(
            width > 0.0 && height > 0.0,
            "rectangle dimensions must be positive"
        );
        Rectangle { width, height }
    }

    /// Area in m².
    pub fn area(&self) -> f64 {
        self.width * self.height
    }
}

/// Corner antiderivative of the inverse-distance integral.
///
/// The potential depends only on `z²`, so the sign of `z` is dropped up
/// front to keep the `atan2` branch consistent.
fn corner_term(x: f64, y: f64, z: f64) -> f64 {
    let z = z.abs();
    let r = (x * x + y * y + z * z).sqrt();
    let mut f = 0.0;
    if x != 0.0 {
        let rho_x = (x * x + z * z).sqrt();
        f += x * (y / rho_x).asinh();
    }
    if y != 0.0 {
        let rho_y = (y * y + z * z).sqrt();
        f += y * (x / rho_y).asinh();
    }
    if z != 0.0 {
        f -= z * (x * y).atan2(z * r);
    }
    f
}

/// Exact `∬ 1/r dA'` over a rectangle, observation at `(px, py, z)`
/// relative to the rectangle center.
///
/// # Examples
///
/// ```
/// use pdn_greens::{rect_potential, Rectangle};
///
/// // Self term of a unit square: 4·ln(1+√2) ≈ 3.5255.
/// let v = rect_potential(0.0, 0.0, 0.0, Rectangle::new(1.0, 1.0));
/// assert!((v - 4.0 * (1.0 + 2.0f64.sqrt()).ln()).abs() < 1e-12);
/// ```
pub fn rect_potential(px: f64, py: f64, z: f64, rect: Rectangle) -> f64 {
    let x1 = -0.5 * rect.width - px;
    let x2 = 0.5 * rect.width - px;
    let y1 = -0.5 * rect.height - py;
    let y2 = 0.5 * rect.height - py;
    corner_term(x2, y2, z) - corner_term(x1, y2, z) - corner_term(x2, y1, z)
        + corner_term(x1, y1, z)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdn_num::{approx_eq, GaussLegendre};

    #[test]
    fn unit_square_self_term() {
        let v = rect_potential(0.0, 0.0, 0.0, Rectangle::new(1.0, 1.0));
        let expect = 4.0 * (1.0 + 2.0f64.sqrt()).ln(); // 4·asinh(1)
        assert!(approx_eq(v, expect, 1e-13));
    }

    #[test]
    fn scales_linearly_with_size() {
        // 1/r kernel integrated over a 2D area has dimension length.
        let v1 = rect_potential(0.0, 0.0, 0.0, Rectangle::new(1.0, 1.0));
        let v2 = rect_potential(0.0, 0.0, 0.0, Rectangle::new(3.0, 3.0));
        assert!(approx_eq(v2, 3.0 * v1, 1e-12));
    }

    #[test]
    fn matches_quadrature_off_plane() {
        let rect = Rectangle::new(2.0, 1.0);
        let quad = GaussLegendre::new(24);
        for &(px, py, z) in &[(0.0, 0.0, 0.5), (1.5, 0.7, 0.3), (3.0, -2.0, 1.0)] {
            let exact = rect_potential(px, py, z, rect);
            let numeric = quad.integrate_2d(-1.0, 1.0, -0.5, 0.5, |x, y| {
                1.0 / ((px - x).powi(2) + (py - y).powi(2) + z * z).sqrt()
            });
            assert!(approx_eq(exact, numeric, 1e-6), "({px},{py},{z})");
        }
    }

    #[test]
    fn matches_quadrature_in_plane_outside() {
        let rect = Rectangle::new(1.0, 1.0);
        let quad = GaussLegendre::new(32);
        // Observation safely outside the rectangle, z = 0.
        for &(px, py) in &[(2.0, 0.0), (1.0, 1.5), (-3.0, 2.0)] {
            let exact = rect_potential(px, py, 0.0, rect);
            let numeric = quad.integrate_2d(-0.5, 0.5, -0.5, 0.5, |x, y| {
                1.0 / ((px - x).powi(2) + (py - y).powi(2)).sqrt()
            });
            assert!(approx_eq(exact, numeric, 1e-6), "({px},{py})");
        }
    }

    #[test]
    fn self_term_matches_polar_integration() {
        // Integrate 1/r over the unit square in polar coordinates:
        // ∫ dθ R(θ), with R(θ) the boundary distance — no singularity.
        let n = 200_000;
        let mut polar = 0.0;
        for i in 0..n {
            let th = (i as f64 + 0.5) / n as f64 * std::f64::consts::FRAC_PI_4;
            polar += 0.5 / th.cos() * (std::f64::consts::FRAC_PI_4 / n as f64);
        }
        polar *= 8.0; // eight symmetric octants
        let exact = rect_potential(0.0, 0.0, 0.0, Rectangle::new(1.0, 1.0));
        assert!(approx_eq(exact, polar, 1e-6));
    }

    #[test]
    fn far_field_reduces_to_point_charge() {
        let rect = Rectangle::new(1e-3, 2e-3);
        let d = 1.0;
        let v = rect_potential(d, 0.0, 0.0, rect);
        assert!(approx_eq(v, rect.area() / d, 1e-5));
    }

    #[test]
    fn observation_on_corner_is_finite() {
        let rect = Rectangle::new(1.0, 1.0);
        let v = rect_potential(0.5, 0.5, 0.0, rect);
        assert!(v.is_finite() && v > 0.0);
        // Corner value is exactly half the edge-midpoint value by symmetry
        // arguments? Not exactly — just check ordering: center > edge > corner.
        let center = rect_potential(0.0, 0.0, 0.0, rect);
        let edge = rect_potential(0.5, 0.0, 0.0, rect);
        assert!(center > edge && edge > v);
    }

    #[test]
    fn symmetry_under_reflection() {
        let rect = Rectangle::new(2.0, 1.0);
        let a = rect_potential(0.7, 0.3, 0.2, rect);
        assert!(approx_eq(a, rect_potential(-0.7, 0.3, 0.2, rect), 1e-13));
        assert!(approx_eq(a, rect_potential(0.7, -0.3, 0.2, rect), 1e-13));
        assert!(approx_eq(a, rect_potential(0.7, 0.3, -0.2, rect), 1e-13));
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn zero_rectangle_panics() {
        let _ = Rectangle::new(0.0, 1.0);
    }
}
