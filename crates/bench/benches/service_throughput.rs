//! `pdn-service` job-server throughput on the paper's 1120-cell SSN
//! study-A board: a cold job (cache miss, full mesh → BEM → factorization)
//! versus a warm fleet (N clients × M jobs, every extraction served from
//! the cache).
//!
//! Asserts before timing anything that the warm results are bit-identical
//! to the cold one and that the warm phase performed **zero** extractions;
//! the acceptance target is ≥ 4× aggregate throughput over the cold
//! baseline. The measured summary is written to `BENCH_service.json` in
//! the crate directory.

use criterion::{criterion_group, criterion_main, Criterion};
use pdn_core::boards;
use pdn_core::prelude::*;
use pdn_service::{AnalysisRequest, AnalysisResult, ExtractionCache, JobEvent, JobQueue};
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::time::Instant;

const CLIENTS: usize = 4;
const JOBS_PER_CLIENT: usize = 3;
const WORKERS: usize = 2;
const T_STOP: f64 = 2e-9;
const DT: f64 = 0.05e-9;

fn request(board: &BoardSpec) -> AnalysisRequest {
    AnalysisRequest::Transient {
        board: board.clone(),
        selection: NodeSelection::PortsOnly,
        switching: 4,
        t_stop: T_STOP,
        dt: DT,
    }
}

/// Blocks until the job finishes, returning its transient outcome.
fn wait_done(rx: Receiver<JobEvent>) -> SsnOutcome {
    for event in rx {
        match event {
            JobEvent::Done { result, .. } => {
                let AnalysisResult::Transient(out) = result else {
                    panic!("transient request yields a transient result");
                };
                return *out;
            }
            JobEvent::Failed { error, .. } => panic!("job failed: {error}"),
            _ => {}
        }
    }
    panic!("event stream ended without Done");
}

fn service_throughput_bench(c: &mut Criterion) {
    let root = std::env::temp_dir().join(format!("pdn-service-bench-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let board = boards::ssn_study_a_board(0.25).expect("1120-cell study-A board");

    // Cold: one job against an empty cache pays the full extraction.
    let cache = Arc::new(ExtractionCache::at(&root, 8));
    let queue = JobQueue::with_workers(Arc::clone(&cache), WORKERS);
    let t0 = Instant::now();
    let cold_out = wait_done(queue.submit("cold", request(&board)).expect("submit").1);
    let t_cold = t0.elapsed();
    let extractions_cold = cache.stats().extractions;
    assert_eq!(extractions_cold, 1, "cold job extracted exactly once");

    // Warm fleet: N clients × M jobs, all served from the cache.
    let t0 = Instant::now();
    let mut receivers: Vec<Receiver<JobEvent>> = Vec::new();
    for k in 0..CLIENTS {
        for _ in 0..JOBS_PER_CLIENT {
            receivers.push(
                queue
                    .submit(&format!("client-{k}"), request(&board))
                    .expect("submit")
                    .1,
            );
        }
    }
    let n_jobs = receivers.len();
    for rx in receivers {
        let out = wait_done(rx);
        assert_eq!(out, cold_out, "warm job bit-identical to cold extraction");
    }
    let t_warm = t0.elapsed();
    assert_eq!(
        cache.stats().extractions,
        extractions_cold,
        "warm fleet ran zero extractions"
    );

    // Throughput: jobs per second, warm fleet vs the cold baseline.
    let cold_rate = 1.0 / t_cold.as_secs_f64();
    let warm_rate = n_jobs as f64 / t_warm.as_secs_f64();
    let speedup = warm_rate / cold_rate;
    println!("--- pdn-service throughput: 1120-cell SSN study-A board ---");
    println!(
        "cold job {:>8.1} ms   warm fleet {n_jobs} jobs in {:>8.1} ms ({:.1} ms/job)",
        t_cold.as_secs_f64() * 1e3,
        t_warm.as_secs_f64() * 1e3,
        t_warm.as_secs_f64() * 1e3 / n_jobs as f64,
    );
    println!("aggregate throughput {speedup:.1}x cold (target >= 4x)");
    assert!(
        speedup >= 4.0,
        "warm-cache throughput {speedup:.2}x below the 4x acceptance target"
    );

    let json = format!(
        "{{\n  \"board\": \"ssn_study_a\",\n  \"cells\": 1120,\n  \
         \"clients\": {CLIENTS},\n  \"jobs_per_client\": {JOBS_PER_CLIENT},\n  \
         \"workers\": {WORKERS},\n  \"cold_job_ms\": {:.3},\n  \
         \"warm_fleet_ms\": {:.3},\n  \"warm_job_ms\": {:.3},\n  \
         \"throughput_speedup\": {:.2},\n  \"extractions_cold\": {extractions_cold},\n  \
         \"extractions_warm\": 0\n}}\n",
        t_cold.as_secs_f64() * 1e3,
        t_warm.as_secs_f64() * 1e3,
        t_warm.as_secs_f64() * 1e3 / n_jobs as f64,
        speedup,
    );
    std::fs::write("BENCH_service.json", json).expect("writable BENCH_service.json");

    let mut g = c.benchmark_group("service_throughput");
    g.sample_size(10);
    g.bench_function("warm_transient_job", |b| {
        b.iter(|| wait_done(queue.submit("bench", request(&board)).expect("submit").1))
    });
    g.finish();

    queue.shutdown();
    std::fs::remove_dir_all(&root).ok();
}

criterion_group!(benches, service_throughput_bench);
criterion_main!(benches);
