#![warn(missing_docs)]
//! Modified-nodal-analysis circuit simulation for the `pdn` toolkit.
//!
//! Implements the paper's Section 5.1: an efficient solver for the large
//! linear equivalent circuits extracted from the EM solution, plus the
//! general machinery needed for system-level co-simulation —
//!
//! * elements: R, L, C, independent V/I sources with waveforms,
//!   time-varying switch resistors (the behavioral CMOS driver stage),
//!   lossless **coupled transmission lines** (modal method of
//!   characteristics in the time domain, exact hyperbolic stamps in the
//!   frequency domain);
//! * **transient analysis** with first-order (backward Euler) and
//!   second-order (trapezoidal) integration; inductors use companion models
//!   so no internal inductance nodes are created, and with a uniform time
//!   step and a linear network the system matrix is factored exactly once —
//!   the paper's fast path;
//! * **AC analysis**, port impedance matrices, and S-parameters.
//!
//! # Examples
//!
//! A series RC step response:
//!
//! ```
//! use pdn_circuit::{Circuit, TransientSpec, Waveform};
//!
//! # fn main() -> Result<(), pdn_circuit::SimulateCircuitError> {
//! let mut ckt = Circuit::new();
//! let vin = ckt.node("in");
//! let out = ckt.node("out");
//! ckt.voltage_source(vin, Circuit::GND, Waveform::step(1.0, 0.0));
//! ckt.resistor(vin, out, 1e3);
//! ckt.capacitor(out, Circuit::GND, 1e-9);
//! let result = ckt.transient(&TransientSpec::new(10e-6, 10e-9))?;
//! let v_end = *result.voltage(out).last().expect("samples exist");
//! assert!((v_end - 1.0).abs() < 1e-3); // fully charged after 10 τ
//! # Ok(())
//! # }
//! ```

pub mod ac;
mod element;
pub mod netlist;
pub mod sparams;
pub mod tline_elem;
pub mod transient;
pub mod waveform;

pub use ac::{AcResult, AcSweep};
pub use netlist::{Circuit, NodeId, SimulateCircuitError, SourceId};
pub use sparams::{s_from_z, touchstone, z_from_s};
pub use tline_elem::CoupledLineModel;
pub use transient::{Integration, TransientResult, TransientSpec};
pub use waveform::Waveform;
