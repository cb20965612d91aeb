//! The extraction cache: versioned model files on disk, an in-memory LRU
//! tier, and single-flight deduplication of concurrent extractions.
//!
//! # Model file format
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"PDNMODL\0"
//! 8       4     format version (little-endian u32, currently 1)
//! 12      n     payload: ModelParts via the pdn_num codec
//! 12+n    32    SHA-256 of bytes [0, 12+n)
//! ```
//!
//! The trailing digest makes truncation and bit-rot loud: a file that
//! does not verify is reported on stderr, counted in
//! [`CacheStats::load_failures`], and treated as a miss (the model is
//! re-extracted and the entry rewritten). A version bump invalidates old
//! files the same way — there is no migration, extraction being the
//! source of truth.
//!
//! # Tiers and keys
//!
//! Models are addressed by [`BoardKey`] — `<root>/<content>/<layout>.model`
//! on disk, under the root given to [`ExtractionCache::at`]. A small LRU of
//! deserialized models sits in front of the disk tier. Concurrent
//! [`get_or_extract`](ExtractionCache::get_or_extract) calls for one key
//! are single-flighted: the first becomes the leader and extracts, the
//! rest block and adopt its result ([`CacheOutcome::Coalesced`]), so K
//! simultaneous jobs on an uncached board cost exactly one extraction.
//!
//! Every write is verified: the file is read back and re-encoded just
//! after it is written, and one whose round trip is not bit-exact is
//! removed with a warning on stderr, leaving the model off the disk
//! tier.

use crate::hash::BoardKey;
use crate::sha256::sha256;
use pdn_core::{BoardSpec, BuildBoardError, ExtractedModel, ModelParts};
use pdn_extract::NodeSelection;
use pdn_num::{ByteReader, ByteWriter, CodecError, PoleResidueModel};
use pdn_shard::ShardReport;
use std::collections::HashSet;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Magic prefix of every model file.
pub const MODEL_MAGIC: [u8; 8] = *b"PDNMODL\0";
/// Current model file format version.
pub const MODEL_VERSION: u32 = 1;

/// Why a model file failed to load.
#[derive(Debug)]
pub enum ModelFileError {
    /// The file does not start with [`MODEL_MAGIC`].
    BadMagic,
    /// The file's format version is not [`MODEL_VERSION`].
    UnsupportedVersion(u32),
    /// Too short to even hold the header and digest.
    Truncated,
    /// The trailing SHA-256 does not match the content.
    ChecksumMismatch,
    /// The checksummed payload failed to decode, or decodes to a model
    /// whose port table disagrees with its layout (should not happen for
    /// a file we wrote; indicates a version-skew bug rather than bit-rot).
    Codec(CodecError),
}

impl fmt::Display for ModelFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelFileError::BadMagic => write!(f, "not a PDN model file (bad magic)"),
            ModelFileError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "model file version {v} (this build reads {MODEL_VERSION})"
                )
            }
            ModelFileError::Truncated => write!(f, "model file truncated"),
            ModelFileError::ChecksumMismatch => {
                write!(f, "model file checksum mismatch (corrupt or truncated)")
            }
            ModelFileError::Codec(e) => write!(f, "model payload decode failed: {e}"),
        }
    }
}

impl std::error::Error for ModelFileError {}

/// Serializes a model's [`ModelParts`] into the full file byte image
/// (header + payload + trailing digest).
pub fn serialize_model(parts: &ModelParts) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_raw(&MODEL_MAGIC);
    w.put_u32(MODEL_VERSION);
    parts.equivalent.write_to(&mut w);
    match &parts.shard_report {
        None => w.put_u8(0),
        Some(report) => {
            w.put_u8(1);
            report.write_to(&mut w);
        }
    }
    match &parts.reduced {
        None => w.put_u8(0),
        Some(rom) => {
            w.put_u8(1);
            rom.write_to(&mut w);
        }
    }
    w.put_f64(parts.supply_location.x);
    w.put_f64(parts.supply_location.y);
    for points in [&parts.chip_locations, &parts.sites] {
        w.put_usize(points.len());
        for p in points {
            w.put_f64(p.x);
            w.put_f64(p.y);
        }
    }
    let digest = sha256(w.as_bytes());
    w.put_raw(&digest);
    w.into_bytes()
}

/// Parses a full model file image back into [`ModelParts`].
///
/// # Errors
///
/// Any deviation from the documented format fails loudly — see
/// [`ModelFileError`].
pub fn deserialize_model(bytes: &[u8]) -> Result<ModelParts, ModelFileError> {
    if bytes.len() < MODEL_MAGIC.len() + 4 + 32 {
        return Err(ModelFileError::Truncated);
    }
    if bytes[..MODEL_MAGIC.len()] != MODEL_MAGIC {
        return Err(ModelFileError::BadMagic);
    }
    let (content, digest) = bytes.split_at(bytes.len() - 32);
    if sha256(content) != *digest {
        return Err(ModelFileError::ChecksumMismatch);
    }
    let mut r = ByteReader::new(&content[MODEL_MAGIC.len()..]);
    let version = r.get_u32().map_err(ModelFileError::Codec)?;
    if version != MODEL_VERSION {
        return Err(ModelFileError::UnsupportedVersion(version));
    }
    let parse = |r: &mut ByteReader| -> Result<ModelParts, CodecError> {
        let equivalent = pdn_extract::EquivalentCircuit::read_from(r)?;
        let shard_report = match r.get_u8()? {
            0 => None,
            1 => Some(ShardReport::read_from(r)?),
            other => {
                return Err(CodecError::Invalid(format!(
                    "shard-report flag must be 0 or 1, got {other}"
                )))
            }
        };
        let reduced = match r.get_u8()? {
            0 => None,
            1 => Some(Arc::new(PoleResidueModel::read_from(r)?)),
            other => {
                return Err(CodecError::Invalid(format!(
                    "reduction flag must be 0 or 1, got {other}"
                )))
            }
        };
        let point = |r: &mut ByteReader| -> Result<pdn_geom::Point, CodecError> {
            Ok(pdn_geom::Point::new(r.get_f64()?, r.get_f64()?))
        };
        let supply_location = point(r)?;
        let point_list = |r: &mut ByteReader| -> Result<Vec<pdn_geom::Point>, CodecError> {
            let n = r.get_usize()?;
            (0..n).map(|_| point(r)).collect()
        };
        let chip_locations = point_list(r)?;
        let sites = point_list(r)?;
        r.finish()?;
        // `BoardSpec::wire` reads the last 1 + chips + sites ports as the
        // supply, chips and sites; any plane-spec ports come before them.
        let board_ports = 1 + chip_locations.len() + sites.len();
        let ports = equivalent.port_count();
        if ports < board_ports {
            return Err(CodecError::Invalid(format!(
                "model has {ports} ports but its layout names {board_ports}"
            )));
        }
        if let Some(rom) = reduced.as_ref().filter(|rom| rom.ports() != ports) {
            return Err(CodecError::Invalid(format!(
                "reduced model has {} ports, the equivalent circuit {ports}",
                rom.ports()
            )));
        }
        Ok(ModelParts {
            equivalent,
            shard_report,
            reduced,
            supply_location,
            chip_locations,
            sites,
        })
    };
    parse(&mut r).map_err(ModelFileError::Codec)
}

/// Where a served model came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Found in the in-memory LRU tier.
    MemoryHit,
    /// Loaded and verified from the disk tier.
    DiskHit,
    /// Extracted fresh (and written back to both tiers).
    Extracted,
    /// Adopted from a concurrent extraction of the same key.
    Coalesced,
}

/// Monotone counters over a cache's lifetime (a snapshot; see
/// [`ExtractionCache::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Requests served from the LRU tier.
    pub memory_hits: usize,
    /// Requests served from disk.
    pub disk_hits: usize,
    /// Actual extractions performed.
    pub extractions: usize,
    /// Requests that adopted a concurrent extraction.
    pub coalesced: usize,
    /// Disk entries that failed to load (corrupt, truncated, version
    /// skew) and were re-extracted.
    pub load_failures: usize,
}

#[derive(Default)]
struct AtomicStats {
    memory_hits: AtomicUsize,
    disk_hits: AtomicUsize,
    extractions: AtomicUsize,
    coalesced: AtomicUsize,
    load_failures: AtomicUsize,
}

struct CacheState {
    /// LRU list, most recently used last.
    lru: Vec<(BoardKey, Arc<ExtractedModel>)>,
    /// Keys with an extraction (or disk load) in progress.
    in_flight: HashSet<BoardKey>,
}

/// The content-addressable extraction cache.
///
/// Cheap to share: wrap it in an [`Arc`] and call
/// [`get_or_extract`](ExtractionCache::get_or_extract) from any number of
/// threads.
pub struct ExtractionCache {
    root: PathBuf,
    capacity: usize,
    state: Mutex<CacheState>,
    flight_done: Condvar,
    stats: AtomicStats,
}

impl ExtractionCache {
    /// A cache rooted at `root` holding up to `capacity` models in
    /// memory.
    pub fn at(root: impl Into<PathBuf>, capacity: usize) -> Self {
        ExtractionCache {
            root: root.into(),
            capacity: capacity.max(1),
            state: Mutex::new(CacheState {
                lru: Vec::new(),
                in_flight: HashSet::new(),
            }),
            flight_done: Condvar::new(),
            stats: AtomicStats::default(),
        }
    }

    /// The on-disk location of `key`'s model file.
    pub fn model_path(&self, key: &BoardKey) -> PathBuf {
        self.root
            .join(key.content_hex())
            .join(format!("{}.model", key.layout_hex()))
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            memory_hits: self.stats.memory_hits.load(Ordering::Relaxed),
            disk_hits: self.stats.disk_hits.load(Ordering::Relaxed),
            extractions: self.stats.extractions.load(Ordering::Relaxed),
            coalesced: self.stats.coalesced.load(Ordering::Relaxed),
            load_failures: self.stats.load_failures.load(Ordering::Relaxed),
        }
    }

    /// Returns `board`'s extraction for `selection`, from the cheapest
    /// tier that has it: memory, then disk, then a fresh extraction
    /// (memoized to both tiers). Concurrent calls for one key coalesce
    /// onto a single extraction.
    ///
    /// Cached models restore only the wiring closure
    /// ([`ModelParts`]); they wire systems bit-identical to the freshly
    /// extracted model but return `None` from [`ExtractedModel::plane`].
    ///
    /// # Errors
    ///
    /// Propagates the extraction's [`BuildBoardError`]. Disk *write*
    /// failures only warn on stderr — a read-only cache directory
    /// degrades to extract-always, it does not fail analyses.
    pub fn get_or_extract(
        &self,
        board: &BoardSpec,
        selection: &NodeSelection,
    ) -> Result<(Arc<ExtractedModel>, CacheOutcome), BuildBoardError> {
        // Pin the site plan exactly as ScenarioBatch::new does, so the
        // extraction (and its port layout) matches what any batch built
        // around this board expects. The canonical hash is already
        // site-plan based, so the key is unaffected.
        let board = {
            let mut b = board.clone();
            b.decap_sites = b.site_plan();
            b
        };
        let board = &board;
        let key = BoardKey::of(board, selection);
        let mut waited = false;
        // Tier 1 + single-flight admission.
        {
            let mut st = self.state.lock().unwrap();
            loop {
                if let Some(model) = Self::lru_get(&mut st, &key) {
                    let counter = if waited {
                        &self.stats.coalesced
                    } else {
                        &self.stats.memory_hits
                    };
                    counter.fetch_add(1, Ordering::Relaxed);
                    let outcome = if waited {
                        CacheOutcome::Coalesced
                    } else {
                        CacheOutcome::MemoryHit
                    };
                    return Ok((model, outcome));
                }
                if !st.in_flight.contains(&key) {
                    st.in_flight.insert(key.clone());
                    break; // we are the leader
                }
                waited = true;
                st = self.flight_done.wait(st).unwrap();
            }
        }
        let result = self.lead(board, selection, &key);
        {
            let mut st = self.state.lock().unwrap();
            if let Ok((model, _)) = &result {
                Self::lru_put(&mut st, self.capacity, &key, Arc::clone(model));
            }
            st.in_flight.remove(&key);
        }
        self.flight_done.notify_all();
        result
    }

    /// The leader's path: disk, then extraction with write-back.
    fn lead(
        &self,
        board: &BoardSpec,
        selection: &NodeSelection,
        key: &BoardKey,
    ) -> Result<(Arc<ExtractedModel>, CacheOutcome), BuildBoardError> {
        let path = self.model_path(key);
        if let Some(model) = self.load_disk(&path) {
            self.stats.disk_hits.fetch_add(1, Ordering::Relaxed);
            return Ok((Arc::new(model), CacheOutcome::DiskHit));
        }
        let model = Arc::new(board.extract_model(selection)?);
        self.stats.extractions.fetch_add(1, Ordering::Relaxed);
        self.store_disk(&path, &model.to_parts());
        Ok((model, CacheOutcome::Extracted))
    }

    fn lru_get(st: &mut CacheState, key: &BoardKey) -> Option<Arc<ExtractedModel>> {
        let pos = st.lru.iter().position(|(k, _)| k == key)?;
        let entry = st.lru.remove(pos);
        let model = Arc::clone(&entry.1);
        st.lru.push(entry);
        Some(model)
    }

    fn lru_put(st: &mut CacheState, capacity: usize, key: &BoardKey, model: Arc<ExtractedModel>) {
        st.lru.retain(|(k, _)| k != key);
        st.lru.push((key.clone(), model));
        while st.lru.len() > capacity {
            st.lru.remove(0);
        }
    }

    /// Loads and verifies a model file; any failure (other than the file
    /// simply not existing) warns on stderr, bumps `load_failures`, and
    /// reads as a miss.
    fn load_disk(&self, path: &Path) -> Option<ExtractedModel> {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return None,
            Err(e) => {
                self.warn_load(path, &e.to_string());
                return None;
            }
        };
        match deserialize_model(&bytes) {
            Ok(parts) => Some(ExtractedModel::from_parts(parts)),
            Err(e) => {
                self.warn_load(path, &e.to_string());
                None
            }
        }
    }

    fn warn_load(&self, path: &Path, why: &str) {
        self.stats.load_failures.fetch_add(1, Ordering::Relaxed);
        eprintln!(
            "pdn-service: discarding cache entry {} ({why}); re-extracting",
            path.display()
        );
    }

    /// Writes a model file atomically (temp file + rename), then reads it
    /// back: the stored bytes and a re-encode of the re-decoded parts
    /// must both be bit-identical to what was written. A failed write or
    /// check warns on stderr and removes the file, leaving the model off
    /// the disk tier.
    fn store_disk(&self, path: &Path, parts: &ModelParts) {
        let bytes = serialize_model(parts);
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        let write = || -> std::io::Result<()> {
            let dir = path.parent().expect("model path has a parent");
            std::fs::create_dir_all(dir)?;
            std::fs::write(&tmp, &bytes)?;
            std::fs::rename(&tmp, path)?;
            let readback = std::fs::read(path)?;
            if readback != bytes {
                return Err(std::io::Error::other("read back different bytes"));
            }
            let decoded = deserialize_model(&readback).map_err(std::io::Error::other)?;
            if serialize_model(&decoded) != bytes {
                return Err(std::io::Error::other("does not round-trip bit-exactly"));
            }
            Ok(())
        };
        if let Err(e) = write() {
            for file in [&tmp, path] {
                std::fs::remove_file(file).ok();
            }
            eprintln!(
                "pdn-service: failed to write cache entry {} ({e}); continuing uncached",
                path.display()
            );
        }
    }
}

impl fmt::Debug for ExtractionCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExtractionCache")
            .field("root", &self.root)
            .field("capacity", &self.capacity)
            .field("stats", &self.stats())
            .finish()
    }
}
