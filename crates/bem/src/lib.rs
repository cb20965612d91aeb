#![warn(missing_docs)]
//! Mixed-potential integral-equation (MPIE) boundary-element engine.
//!
//! This crate implements Section 3 of the paper: the conductor surface is
//! discretized into quadrilateral cells (by [`pdn_geom::PlaneMesh`]); pulse
//! basis functions carry charge and potential on the cells and
//! rooftop-style basis functions carry surface current on the links between
//! adjacent cells. Testing the integral equations produces the matrix
//! system of eqs. (10)–(11):
//!
//! ```text
//! (Zs + jωL)·I − A·V = 0        (impedance boundary condition)
//!  Aᵀ·I + jω·C·V     = J        (charge continuity)
//! ```
//!
//! where `A` is the signed link↔cell incidence (the discrete gradient),
//! `L` the partial-inductance matrix over links, `C = P⁻¹` the capacitance
//! matrix from the potential-coefficient matrix `P`, and `Zs` the surface
//! (loop) resistance of each link.
//!
//! Both **point-matching** (collocation) and **Galerkin** testing are
//! implemented, mirroring the paper's Section 3.2; all panel integrals use
//! the closed-form rectangle potentials from [`pdn_greens`].
//!
//! # Examples
//!
//! ```
//! use pdn_bem::{BemOptions, BemSystem};
//! use pdn_geom::{mesh::PlaneMesh, polygon::Polygon, units::mm, PlanePair, Point};
//! use pdn_greens::SurfaceImpedance;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut mesh = PlaneMesh::build(&Polygon::rectangle(mm(20.0), mm(20.0)), mm(4.0))?;
//! mesh.bind_port("P1", Point::new(mm(2.0), mm(2.0)))?;
//! let pair = PlanePair::new(0.5e-3, 4.5)?;
//! let sys = BemSystem::assemble(
//!     mesh,
//!     &pair,
//!     &SurfaceImpedance::from_sheet_resistance(1e-3),
//!     &BemOptions::default(),
//! )?;
//! // The low-frequency input impedance is capacitive: |Z| ∝ 1/f.
//! let z1 = sys.port_impedance(1e6)?[(0, 0)].norm();
//! let z10 = sys.port_impedance(10e6)?[(0, 0)].norm();
//! assert!((z1 / z10 - 10.0).abs() < 0.5);
//! # Ok(())
//! # }
//! ```

pub mod assembly;
mod blocks;
pub mod compress;
mod offsets;
pub mod system;

pub use assembly::{
    assemble_link_matrices, assemble_matrices, cross_block_lumping, AssembleBemError, BemOptions,
    RawMatrices, Testing,
};
pub use compress::{
    assemble_compressed, kernel_matvec_count, reset_kernel_matvec_count, CompressedKernel,
    CompressedKernels, CompressedLinkKernel, CompressionSpec, CompressionStats,
};
pub use system::{BemSystem, InductanceOperator};
