#![warn(missing_docs)]
//! Static Green's functions for layered substrates, closed-form panel
//! integrals, and conductor surface-impedance models.
//!
//! The paper's mixed-potential integral equation needs two kernels over the
//! conductor surfaces:
//!
//! * the **scalar-potential** Green's function `Gφ`, relating surface charge
//!   to potential, and
//! * the **vector-potential** Green's function `G_A`, relating surface
//!   current to magnetic vector potential.
//!
//! Under the paper's quasi-static approximation (Section 4.1) the
//! retardation factor `e^{-jkr}` is dropped, and both kernels become *real*
//! superpositions of inverse-distance terms — the layered structure enters
//! through an **image series**: each image is an inverse-distance source at
//! an effective out-of-plane depth with a reflection-coefficient weight.
//! [`LayeredKernel`] represents exactly that, which lets every panel
//! integral be evaluated with the closed-form potential of a uniformly
//! charged rectangle ([`panel::rect_potential`]) — no singular numerical
//! quadrature anywhere.
//!
//! # Examples
//!
//! ```
//! use pdn_greens::LayeredKernel;
//!
//! // Scalar kernel for a plane pair: dielectric εr = 4.5, 0.5 mm apart.
//! let g = LayeredKernel::scalar_confined(4.5, 0.5e-3);
//! // The kernel decays much faster than free space because of the ground
//! // image: at 10 mm it is essentially a dipole field.
//! assert!(g.eval(10e-3) < 0.01 * LayeredKernel::free_space(4.5).eval(10e-3));
//! ```

pub mod kernel;
pub mod panel;
pub mod planar2d;
pub mod surface;

pub use kernel::{ImageTerm, LayeredKernel};
pub use panel::{rect_potential, Rectangle};
pub use planar2d::Microstrip2d;
pub use surface::SurfaceImpedance;
