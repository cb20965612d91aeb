//! Errors from sharded extraction.

use pdn_geom::mesh::MeshPlaneError;
use std::error::Error;
use std::fmt;

/// Error from sharded extraction or its validation helpers.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardExtractError {
    /// The [`crate::ShardPlan`] is unusable: non-finite or non-increasing
    /// cut positions, a cut outside the board outline, a zero region
    /// count, or BEM options that set compression (regions assemble
    /// densely).
    InvalidPlan(String),
    /// Meshing or port binding on the full board failed.
    Mesh(MeshPlaneError),
    /// Assembling or reducing one region failed; `detail` carries the
    /// underlying assembly/extraction error.
    Region {
        /// Row-major region index in the cut grid.
        index: usize,
        /// Underlying error, rendered.
        detail: String,
    },
    /// Stitching or Schur-eliminating the composed system failed (e.g. a
    /// floating island with no retained node).
    Composition(String),
    /// A validation comparison could not be evaluated.
    Validation(String),
}

impl fmt::Display for ShardExtractError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardExtractError::InvalidPlan(s) => write!(f, "invalid shard plan: {s}"),
            ShardExtractError::Mesh(e) => write!(f, "board meshing failed: {e}"),
            ShardExtractError::Region { index, detail } => {
                write!(f, "extraction of shard region {index} failed: {detail}")
            }
            ShardExtractError::Composition(s) => {
                write!(f, "composing shard regions failed: {s}")
            }
            ShardExtractError::Validation(s) => {
                write!(f, "shard validation failed: {s}")
            }
        }
    }
}

impl Error for ShardExtractError {}

impl From<MeshPlaneError> for ShardExtractError {
    fn from(e: MeshPlaneError) -> Self {
        ShardExtractError::Mesh(e)
    }
}
