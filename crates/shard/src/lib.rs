#![warn(missing_docs)]
//! Sharded (domain-decomposed) plane extraction.
//!
//! The monolithic flow assembles one dense BEM system for the whole plane
//! pair, so extraction memory and factorization time grow superlinearly
//! with board area (`O(N²)` storage, `O(N³)` factorization). This crate
//! splits a plane structure into rectangular **regions** along cut lines
//! ([`ShardPlan`]), extracts each region's port-level macromodel
//! independently — fanned out over [`pdn_num::parallel`] with the
//! workspace's bit-identical deterministic ordering — and composes the
//! regional blocks into one board-level
//! [`EquivalentCircuit`](pdn_extract::EquivalentCircuit):
//!
//! 1. **Mesh once, split by cell.** The full board is meshed on one grid;
//!    cells are classified into regions by cell-center position against
//!    the cut lines, so every region inherits bit-identical cell geometry.
//! 2. **Interface ports.** Any link whose two end cells land in different
//!    regions is a *cut link*. Each cell touching a cut link becomes an
//!    interface port of its region (pitch = one mesh cell along the cut),
//!    guaranteeing the regional reduction retains those nodes.
//! 3. **Stitch.** The cut links removed by the split are restored as
//!    explicit branches between the composed interface nodes, with `L`
//!    and `R` evaluated by the exact panel-integral formulas of the full
//!    assembly ([`pdn_bem::assemble_link_matrices`]) — including mutuals
//!    among the cut links themselves.
//! 4. **Schur composition.** The regional `B`/`G`/`C` blocks are summed
//!    block-diagonally, the stitch branches stamped on top, and the
//!    interface nodes eliminated by Schur complement
//!    ([`pdn_extract::kron_reduce`]); interface capacitance aggregates
//!    onto the nearest retained same-net node, mirroring the monolithic
//!    cluster rule.
//!
//! The only approximation is dropping the *cross-region* blocks of the
//! partial-inductance and potential-coefficient matrices; resistance
//! composition is exact. Two properties keep the error small. First,
//! between closely spaced planes both kernels decay at least dipole-fast
//! with lateral distance over separation, so the dropped couplings
//! concentrate near the cuts. Second, the dropped row sums are **lumped
//! back onto the regional diagonals** ([`pdn_bem::cross_block_lumping`]),
//! which restores the full matrices' row sums — the total plate
//! capacitance and the uniform seam-crossing reluctance are exact, and
//! plane-resonance frequencies land within a fraction of a percent for a
//! two-way split. See `docs/SHARDING.md` for the quantified tolerance
//! contract and [`validate::max_port_impedance_deviation`] for the
//! checker. Per-region cells, links, ports and wall time come back in
//! [`ShardedExtraction::report`].
//!
//! # Examples
//!
//! ```
//! use pdn_bem::BemOptions;
//! use pdn_extract::NodeSelection;
//! use pdn_geom::{units::mm, PlanePair, Point, Polygon};
//! use pdn_greens::SurfaceImpedance;
//! use pdn_shard::{extract_sharded, ShardPlan, ShardRequest};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let shapes = [Polygon::rectangle(mm(20.0), mm(10.0))];
//! let ports = [("P1".to_string(), Point::new(mm(2.0), mm(5.0)))];
//! let req = ShardRequest {
//!     shapes: &shapes,
//!     pair: &PlanePair::new(0.5e-3, 4.5)?,
//!     zs: &SurfaceImpedance::from_sheet_resistance(2e-3),
//!     cell_size: mm(2.0),
//!     ports: &ports,
//!     options: &BemOptions::default(),
//!     selection: &NodeSelection::PortsOnly,
//! };
//! let sharded = extract_sharded(&req, &ShardPlan::grid(2, 1)?)?;
//! assert_eq!(sharded.equivalent().port_count(), 1);
//! assert_eq!(sharded.report().regions.len(), 2);
//! # Ok(())
//! # }
//! ```

pub mod error;
pub mod extract;
pub mod plan;
pub mod validate;

pub use error::ShardExtractError;
pub use extract::{extract_sharded, RegionStats, ShardReport, ShardRequest, ShardedExtraction};
pub use plan::ShardPlan;
pub use validate::max_port_impedance_deviation;
