//! `pdn-service` end-to-end guarantees: bit-exact model round trips,
//! warm-cache hits identical to cold extractions for every thread count,
//! loud corruption handling, single-flighted concurrent extractions, and
//! fair scheduling.

mod common;

use common::{hp_board, with_thread_counts};
use pdn::prelude::*;
use pdn_service::{
    deserialize_model, serialize_model, AnalysisRequest, CacheOutcome, ExtractionCache, JobEvent,
    JobQueue, ModelFileError,
};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// A unique, self-cleaning cache root per test.
struct CacheRoot(PathBuf);

impl CacheRoot {
    fn new(tag: &str) -> Self {
        let root =
            std::env::temp_dir().join(format!("pdn-service-test-{}-{tag}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        CacheRoot(root)
    }
}

impl Drop for CacheRoot {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn sel() -> NodeSelection {
    NodeSelection::PortsAndGrid { stride: 2 }
}

/// One board per `PlaneModel` flavor: dense monolithic, compressed
/// monolithic, sharded, and reduced-order.
fn model_variants() -> Vec<(&'static str, BoardSpec)> {
    let base = || hp_board(mm(2.0)).with_decap_site(Point::new(mm(28.0), mm(8.0)));
    let compressed = {
        let mut b = base();
        b.plane = b.plane.with_compression(CompressionSpec::default());
        b
    };
    let sharded = base().with_extraction_strategy(pdn::core::ExtractionStrategy::Sharded {
        plan: ShardPlan::grid(2, 1).unwrap(),
    });
    let reduced = base().with_reduced_order(RomSpec {
        f_min: 1e7,
        f_max: 2e9,
        points: 24,
        rel_tol: 1e-8,
        cert_tol: 1e-3,
    });
    vec![
        ("dense", base()),
        ("compressed", compressed),
        ("sharded", sharded),
        ("reduced", reduced),
    ]
}

/// Every model variant round-trips through the file format bit-exactly,
/// and the restored model wires systems whose outcomes are bit-identical
/// to the original's.
#[test]
fn model_files_round_trip_every_variant() {
    for (name, board) in model_variants() {
        let batch = ScenarioBatch::new(&board, &sel()).unwrap();
        let parts = batch.model().to_parts();
        let bytes = serialize_model(&parts);
        let restored = deserialize_model(&bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            serialize_model(&restored),
            bytes,
            "{name}: decode → re-encode is bit-exact"
        );
        let adopted = ScenarioBatch::with_model(
            batch.board(),
            pdn::core::ExtractedModel::from_parts(restored),
        )
        .unwrap();
        let scenarios = [
            Scenario::switching(2),
            Scenario::switching(2).with_decaps(vec![(0, DecapValue::ceramic_100nf())]),
        ];
        assert_eq!(
            batch.run(&scenarios, 4e-9, 0.1e-9).unwrap(),
            adopted.run(&scenarios, 4e-9, 0.1e-9).unwrap(),
            "{name}: restored model is outcome-bit-identical"
        );
    }
}

/// A warm cache serves models that produce bit-identical outcomes to the
/// cold extraction, for every `PDN_THREADS` setting — and the warm path
/// never extracts.
#[test]
fn warm_hits_match_cold_extraction_across_thread_counts() {
    let root = CacheRoot::new("warm");
    let board = hp_board(mm(2.0)).with_decap_site(Point::new(mm(28.0), mm(8.0)));
    let scenarios = [Scenario::switching(2)];
    let mut reference: Option<Vec<SsnOutcome>> = None;
    let mut first = true;
    with_thread_counts(|_n| {
        // A fresh cache instance per iteration forces the disk tier.
        let cache = ExtractionCache::at(&root.0, 4);
        let (model, outcome) = cache.get_or_extract(&board, &sel()).unwrap();
        if first {
            assert_eq!(outcome, CacheOutcome::Extracted, "first request is cold");
            first = false;
        } else {
            assert_eq!(
                outcome,
                CacheOutcome::DiskHit,
                "later requests never extract"
            );
            assert!(
                model.plane().is_none(),
                "restored models carry no BEM system"
            );
        }
        let batch = ScenarioBatch::with_model(&board, model).unwrap();
        let outs = batch.run(&scenarios, 4e-9, 0.1e-9).unwrap();
        match &reference {
            None => reference = Some(outs),
            Some(r) => assert_eq!(*r, outs, "bit-identical across tiers and thread counts"),
        }
    });
}

/// Truncated, bit-flipped, and version-bumped model files all fail
/// loudly (counted, warned) and fall back to re-extraction — never to a
/// silently wrong model.
#[test]
fn damaged_model_files_fail_loudly_and_reextract() {
    let root = CacheRoot::new("damage");
    let board = hp_board(mm(2.0));
    let key = pdn_service::BoardKey::of(&board, &sel());
    let seed = ExtractionCache::at(&root.0, 4);
    assert_eq!(
        seed.get_or_extract(&board, &sel()).unwrap().1,
        CacheOutcome::Extracted
    );
    let path = seed.model_path(&key);
    let good = std::fs::read(&path).unwrap();

    let version_bumped = {
        let mut content = good[..good.len() - 32].to_vec();
        content[8..12].copy_from_slice(&2u32.to_le_bytes());
        let digest = pdn_service::sha256::sha256(&content);
        content.extend_from_slice(&digest);
        content
    };
    let cases: Vec<(&str, Vec<u8>)> = vec![
        ("truncated", good[..good.len() / 2].to_vec()),
        ("bit-flipped", {
            let mut b = good.clone();
            let mid = b.len() / 2;
            b[mid] ^= 0x40;
            b
        }),
        ("version-bumped", version_bumped),
    ];
    for (name, bytes) in cases {
        std::fs::write(&path, &bytes).unwrap();
        let cache = ExtractionCache::at(&root.0, 4);
        let (model, outcome) = cache.get_or_extract(&board, &sel()).unwrap();
        assert_eq!(
            outcome,
            CacheOutcome::Extracted,
            "{name}: falls back to extraction"
        );
        let stats = cache.stats();
        assert_eq!(stats.load_failures, 1, "{name}: failure counted");
        assert_eq!(stats.extractions, 1, "{name}: re-extracted once");
        // The rewritten entry is valid again and equivalent to the seed.
        let rewritten = std::fs::read(&path).unwrap();
        assert_eq!(
            serialize_model(&deserialize_model(&rewritten).unwrap()),
            serialize_model(&model.to_parts()),
            "{name}: cache healed with an equivalent entry"
        );
    }
}

/// A model file with a valid checksum whose port table disagrees with
/// its layout (the equivalent of a board without sites, filed under a
/// board with two) is rejected as invalid, counted and re-extracted; it
/// never reaches the wiring.
#[test]
fn inconsistent_model_file_is_discarded_and_reextracted() {
    let root = CacheRoot::new("inconsistent");
    let bare = hp_board(mm(2.0));
    let board = hp_board(mm(2.0))
        .with_decap_site(Point::new(mm(28.0), mm(8.0)))
        .with_decap_site(Point::new(mm(12.0), mm(8.0)));
    let parts = pdn::core::ModelParts {
        sites: board.decap_sites.clone(),
        ..bare.extract_model(&sel()).unwrap().to_parts()
    };
    // `serialize_model` computes a fresh, valid checksum.
    let bytes = serialize_model(&parts);
    assert!(matches!(
        deserialize_model(&bytes),
        Err(ModelFileError::Codec(pdn_num::CodecError::Invalid(_)))
    ));
    let cache = ExtractionCache::at(&root.0, 4);
    let path = cache.model_path(&pdn_service::BoardKey::of(&board, &sel()));
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(&path, &bytes).unwrap();
    let (model, outcome) = cache.get_or_extract(&board, &sel()).unwrap();
    assert_eq!(outcome, CacheOutcome::Extracted, "falls back to extraction");
    let stats = cache.stats();
    assert_eq!(stats.load_failures, 1, "failure counted");
    assert_eq!(stats.extractions, 1, "re-extracted once");
    let scenario = Scenario::switching(2).with_decaps(vec![(1, DecapValue::ceramic_100nf())]);
    ScenarioBatch::with_model(&board, model)
        .unwrap()
        .run(&[scenario], 4e-9, 0.1e-9)
        .expect("the fresh model wires and runs");
}

/// Concurrent jobs on one uncached board perform exactly one extraction:
/// one job reports the cache miss, the rest coalesce or hit memory.
#[test]
fn concurrent_same_board_jobs_extract_once() {
    let root = CacheRoot::new("flight");
    let cache = Arc::new(ExtractionCache::at(&root.0, 4));
    let queue = JobQueue::with_workers(Arc::clone(&cache), 4);
    let board = hp_board(mm(2.0));
    let receivers: Vec<_> = (0..4)
        .map(|k| {
            queue
                .submit(
                    &format!("client-{k}"),
                    AnalysisRequest::Transient {
                        board: board.clone(),
                        selection: sel(),
                        switching: 2,
                        t_stop: 4e-9,
                        dt: 0.1e-9,
                    },
                )
                .unwrap()
                .1
        })
        .collect();
    let mut misses = 0;
    let mut noises = Vec::new();
    for rx in receivers {
        for event in rx {
            match event {
                JobEvent::ExtractionCacheMiss { .. } => misses += 1,
                JobEvent::Done { result, .. } => {
                    let pdn_service::AnalysisResult::Transient(out) = result else {
                        panic!("transient request yields a transient result");
                    };
                    noises.push(out.peak_noise.to_bits());
                    break;
                }
                JobEvent::Failed { error, .. } => panic!("job failed: {error}"),
                _ => {}
            }
        }
    }
    assert_eq!(cache.stats().extractions, 1, "exactly one extraction ran");
    assert_eq!(misses, 1, "exactly one job saw the cold cache");
    noises.dedup();
    assert_eq!(noises.len(), 1, "all jobs computed bit-identical noise");
    queue.shutdown();
}

/// Malformed requests are rejected at submission, before anything is
/// queued — the cache never even sees them.
#[test]
fn empty_requests_rejected_before_extraction() {
    let root = CacheRoot::new("reject");
    let cache = Arc::new(ExtractionCache::at(&root.0, 4));
    let queue = JobQueue::with_workers(Arc::clone(&cache), 1);
    let board = hp_board(mm(2.0));
    let requests = [
        AnalysisRequest::SwitchingSweep {
            board: board.clone(),
            selection: sel(),
            counts: vec![],
            t_stop: 4e-9,
            dt: 0.1e-9,
        },
        AnalysisRequest::Scenarios {
            board: board.clone(),
            selection: sel(),
            scenarios: vec![],
            t_stop: 4e-9,
            dt: 0.1e-9,
        },
        AnalysisRequest::OptimizeDecaps {
            board: board.clone(),
            candidates: vec![],
            settings: OptimizeSettings {
                selection: sel(),
                switching: 2,
                t_stop: 4e-9,
                dt: 0.1e-9,
                target_noise: 0.1,
                max_decaps: 1,
            },
        },
    ];
    for request in requests {
        let err = queue.submit("c", request).unwrap_err();
        assert!(
            matches!(err, pdn_service::SubmitError::InvalidInput(_)),
            "got: {err}"
        );
    }
    assert_eq!(cache.stats().extractions, 0, "nothing was extracted");
    queue.shutdown();
}

/// Deficit round-robin: a single cheap job from a quiet client overtakes
/// another client's deep backlog instead of queueing behind it.
#[test]
fn fair_queueing_lets_new_client_overtake_backlog() {
    let root = CacheRoot::new("fair");
    let cache = Arc::new(ExtractionCache::at(&root.0, 4));
    let queue = JobQueue::with_workers(cache, 1);
    let board = hp_board(mm(2.0));
    let request = || AnalysisRequest::Transient {
        board: board.clone(),
        selection: sel(),
        switching: 2,
        t_stop: 4e-9,
        dt: 0.1e-9,
    };
    let order = Arc::new(Mutex::new(Vec::new()));
    let mut collectors = Vec::new();
    let mut watch = |client: &str, rx: std::sync::mpsc::Receiver<JobEvent>| {
        let order = Arc::clone(&order);
        let client = client.to_string();
        collectors.push(std::thread::spawn(move || {
            for event in rx {
                match event {
                    JobEvent::Done { .. } => {
                        order.lock().unwrap().push(client.clone());
                        break;
                    }
                    JobEvent::Failed { error, .. } => panic!("job failed: {error}"),
                    _ => {}
                }
            }
        }));
    };
    for _ in 0..6 {
        let rx = queue.submit("busy", request()).unwrap().1;
        watch("busy", rx);
    }
    let rx = queue.submit("quiet", request()).unwrap().1;
    watch("quiet", rx);
    for c in collectors {
        c.join().unwrap();
    }
    let order = order.lock().unwrap();
    let quiet_pos = order.iter().position(|c| c == "quiet").unwrap();
    assert!(
        quiet_pos < order.len() - 1,
        "quiet client's job is not served last: {order:?}"
    );
    assert!(
        quiet_pos <= 3,
        "quiet client overtakes most of the backlog: {order:?}"
    );
    queue.shutdown();
}

/// The acceptance-scale check on the paper's 1120-cell SSN study-A
/// board: a warm-cache job is bit-identical to the cold extraction and
/// performs zero BEM work. Ignored in the default suite (minutes of
/// runtime); the nightly slow suite and the `service_throughput` bench
/// cover it.
#[test]
#[ignore]
fn ssn_study_a_warm_cache_bit_identity() {
    let root = CacheRoot::new("ssn-a");
    let board = pdn::core::boards::ssn_study_a_board(0.25).unwrap();
    let cache = ExtractionCache::at(&root.0, 4);
    let (cold, o1) = cache
        .get_or_extract(&board, &NodeSelection::PortsOnly)
        .unwrap();
    assert_eq!(o1, CacheOutcome::Extracted);
    let warm_cache = ExtractionCache::at(&root.0, 4);
    let (warm, o2) = warm_cache
        .get_or_extract(&board, &NodeSelection::PortsOnly)
        .unwrap();
    assert_eq!(o2, CacheOutcome::DiskHit);
    assert_eq!(warm_cache.stats().extractions, 0, "warm path runs no BEM");
    let scenarios = [Scenario::switching(4)];
    let cold_out = ScenarioBatch::with_model(&board, cold)
        .unwrap()
        .run(&scenarios, 5e-9, 0.05e-9)
        .unwrap();
    let warm_out = ScenarioBatch::with_model(&board, warm)
        .unwrap()
        .run(&scenarios, 5e-9, 0.05e-9)
        .unwrap();
    assert_eq!(cold_out, warm_out, "warm result bit-identical to cold");
}
