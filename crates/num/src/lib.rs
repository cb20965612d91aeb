#![warn(missing_docs)]
//! Dense numerical kernels for the `pdn` toolkit.
//!
//! This crate is the self-contained linear-algebra substrate used by every
//! other `pdn` crate: a complex scalar type [`c64`], dense [`Matrix`] and
//! [`Vector`] containers generic over a [`Scalar`] trait, LU and Cholesky
//! factorizations, a Jacobi symmetric eigensolver (plus the generalized
//! symmetric-definite form used for transmission-line modal analysis), a
//! radix-2 FFT, and Gauss–Legendre quadrature rules.
//!
//! Nothing here depends on external linear-algebra libraries; the boundary
//! element method, circuit solver, and FDTD engine are all built on these
//! kernels.
//!
//! # Examples
//!
//! ```
//! use pdn_num::{Matrix, LuDecomposition};
//!
//! # fn main() -> Result<(), pdn_num::SolveMatrixError> {
//! let a = Matrix::from_rows(&[&[4.0, 1.0], &[2.0, 3.0]]);
//! let lu = LuDecomposition::new(a)?;
//! let x = lu.solve(&[1.0, 2.0])?;
//! assert!((4.0 * x[0] + x[1] - 1.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

pub mod aca;
pub mod cg;
pub mod cholesky;
pub mod codec;
pub mod complex;
pub mod eigen;
pub mod fft;
pub mod gemm;
pub mod lu;
pub mod matrix;
pub mod parallel;
pub mod phys;
pub mod prom;
pub mod quadrature;
pub mod rational;
pub mod scalar;

pub use aca::LowRank;
pub use cholesky::{BandedCholesky, CholeskyDecomposition};
pub use codec::{ByteReader, ByteWriter, CodecError};
pub use complex::c64;
pub use eigen::{
    generalized_symmetric_eigen, hermitian_smallest_eigenvector, smallest_singular_vector,
    symmetric_eigen, SymmetricEigen,
};
pub use fft::{fft, ifft, next_pow2, real_fft_magnitude};
pub use gemm::GemmScalar;
pub use lu::{LuDecomposition, SolveMatrixError};
pub use matrix::{Matrix, Vector};
pub use prom::{PoleResidueModel, PromError, PromOptions, RomTransientState};
pub use quadrature::GaussLegendre;
pub use rational::{RationalModel, SweepAccuracy, SweepError, SweepOutcome, SweepStats};
pub use scalar::Scalar;

/// Relative/absolute mixed tolerance comparison used throughout the tests.
///
/// Returns `true` when `a` and `b` agree within `tol` absolutely or
/// relatively (scaled by the larger magnitude).
///
/// # Examples
///
/// ```
/// assert!(pdn_num::approx_eq(1.0, 1.0 + 1e-13, 1e-9));
/// assert!(!pdn_num::approx_eq(1.0, 1.1, 1e-9));
/// ```
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    let diff = (a - b).abs();
    diff <= tol || diff <= tol * a.abs().max(b.abs())
}
