#![warn(missing_docs)]
//! Quasi-static equivalent-circuit extraction from the BEM solution.
//!
//! Implements Section 4 of the paper. Starting from the assembled MPIE
//! matrices, the quasi-static approximation makes `L`, `C`, and the DC
//! resistance frequency independent, and the nodal admittance
//!
//! ```text
//! Y(ω) = jω·C + Aᵀ(Zs + jωL)⁻¹·A
//! ```
//!
//! is mapped onto a frequency-independent R–L‖C branch network between
//! every retained node pair (paper eqs. 20–27):
//!
//! * reluctance matrix `B = AᵀL⁻¹A` → branch inductances `L_mn = −1/B_mn`;
//! * DC conductance `G = AᵀZs⁻¹A` → branch resistances `R_mn = −1/G_mn`
//!   in series with the inductances;
//! * capacitance `C` → branch capacitances `C_mn = −C_mn` and node shunt
//!   capacitances `Σₙ C_nm` (eq. 27).
//!
//! **Kron (Schur-complement) node reduction** compresses the full cell
//! grid onto the ports plus an optional coarse interior grid — exactly how
//! the paper obtains its 4-node, 16-node, and 42-node macromodels.
//!
//! # Examples
//!
//! ```
//! use pdn_bem::{BemOptions, BemSystem};
//! use pdn_extract::{EquivalentCircuit, NodeSelection};
//! use pdn_geom::{mesh::PlaneMesh, polygon::Polygon, units::mm, PlanePair, Point};
//! use pdn_greens::SurfaceImpedance;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut mesh = PlaneMesh::build(&Polygon::rectangle(mm(20.0), mm(20.0)), mm(4.0))?;
//! mesh.bind_port("P1", Point::new(mm(2.0), mm(2.0)))?;
//! let pair = PlanePair::new(0.5e-3, 4.5)?;
//! let sys = BemSystem::assemble(mesh, &pair, &SurfaceImpedance::lossless(),
//!     &BemOptions::default())?;
//! let eq = EquivalentCircuit::from_bem(&sys, &NodeSelection::PortsAndGrid { stride: 2 })?;
//! assert!(eq.node_count() < sys.mesh().cell_count());
//! # Ok(())
//! # }
//! ```

pub mod circuit;
pub mod reduce;
pub mod spice;
pub mod taylor;

pub use circuit::{
    capacitance_clusters, Branch, EquivalentCircuit, ExtractCircuitError, NodeSelection,
    Realization, RomSpec,
};
pub use reduce::{kron_reduce, kron_reduce_blocks, kron_reduce_operator};
