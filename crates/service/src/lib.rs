#![warn(missing_docs)]
//! PDN analysis as a service: a content-addressable extraction cache and
//! an asynchronous job server over `pdn-core`.
//!
//! The expensive half of every analysis — mesh → BEM → reduction — is
//! determined entirely by the board's scenario-invariant inputs. This
//! crate exploits that end to end:
//!
//! * [`hash`]: [`BoardKey`] — an order-normalized SHA-256 content hash
//!   of [`pdn_core::BoardSpec::canonical_bytes`] plus a declaration-order
//!   layout signature.
//! * [`store`]: [`ExtractionCache`] — versioned, checksummed model files
//!   on disk under a caller-chosen root, an in-memory LRU, and single-flight
//!   deduplication so concurrent requests for one board cost one
//!   extraction. Cached models wire systems *bit-identical* to a fresh
//!   extraction.
//! * [`queue`]: [`JobQueue`] — worker threads draining per-client
//!   deficit-round-robin queues of [`AnalysisRequest`]s, streaming
//!   [`JobEvent`]s.
//! * [`server`]: [`PdnServer`] — a line-delimited TCP frontend over the
//!   named seed boards.
//!
//! See `docs/SERVICE.md` for the protocol and the canonical-hash rule.
//! The service reads no environment variable: the cache root and the
//! worker count are arguments ([`ExtractionCache::at`] and
//! [`JobQueue::with_workers`]), and every cache write is verified.
//!
//! # Example
//!
//! ```
//! use pdn_service::{AnalysisRequest, ExtractionCache, JobEvent, JobQueue};
//! use pdn_core::prelude::*;
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let dir = std::env::temp_dir().join("pdn-cache-doc-example");
//! let queue = JobQueue::with_workers(Arc::new(ExtractionCache::at(&dir, 4)), 1);
//! let plane = PlaneSpec::rectangle(mm(40.0), mm(30.0), 0.5e-3, 4.5)?
//!     .with_sheet_resistance(1e-3)
//!     .with_cell_size(mm(5.0));
//! let board = BoardSpec::new(plane, 3.3, Point::new(mm(2.0), mm(2.0)))
//!     .with_chip(ChipSpec::cmos("U1", Point::new(mm(30.0), mm(20.0)), 4));
//! let (_id, events) = queue.submit(
//!     "doc",
//!     AnalysisRequest::SwitchingSweep {
//!         board,
//!         selection: NodeSelection::PortsOnly,
//!         counts: vec![2, 4],
//!         t_stop: 5e-9,
//!         dt: 0.1e-9,
//!     },
//! )?;
//! let done = events.iter().find_map(|e| match e {
//!     JobEvent::Done { result, .. } => Some(result),
//!     _ => None,
//! });
//! assert!(done.is_some());
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok(())
//! # }
//! ```

pub mod hash;
pub mod queue;
pub mod server;
pub mod sha256;
pub mod store;

pub use hash::BoardKey;
pub use queue::{AnalysisRequest, AnalysisResult, JobEvent, JobId, JobQueue, SubmitError};
pub use server::PdnServer;
pub use store::{
    deserialize_model, serialize_model, CacheOutcome, CacheStats, ExtractionCache, ModelFileError,
};
