//! Adaptive rational sweep vs per-point exact factorization.
//!
//! Times the BEM port-impedance sweep on dense 50/200/800-point grids
//! with `SweepAccuracy::Exact` (one dense factorization per point,
//! paper eq. 15) against `SweepAccuracy::Rational { rel_tol: 1e-8 }`
//! (adaptively chosen exact anchors + certified barycentric
//! interpolant, see `pdn_num::rational`). The anchor count tracks the
//! response's pole content in band rather than the grid, so the exact
//! solves amortize as the grid refines: the acceptance bar is ≥ 5× at
//! 200 points, and 800 points should land well past it with the same
//! anchor budget.
//!
//! Before timing anything the harness checks that the rational values
//! are bit-identical for `PDN_THREADS` ∈ {1, 2, all} and agree with the
//! exact sweep. A machine-readable summary of the measured timings is
//! written to `BENCH_sweep.json` in the crate directory.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pdn_core::prelude::*;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

const REL_TOL: f64 = 1e-8;
const POINT_COUNTS: [usize; 3] = [50, 200, 800];

fn sweep_plane() -> ExtractedPlane {
    PlaneSpec::rectangle(mm(40.0), mm(30.0), 0.5e-3, 4.5)
        .expect("valid pair")
        .with_sheet_resistance(2e-3)
        .with_cell_size(mm(2.5))
        .with_port("P1", mm(4.0), mm(4.0))
        .with_port("P2", mm(36.0), mm(26.0))
        .extract(&NodeSelection::PortsOnly)
        .expect("extractable")
}

/// 0.1–2.0 GHz: a band holding the plane's first few resonant modes, so
/// the rational model's order — and with it the anchor budget — stays
/// fixed as the grid density grows.
fn grid(points: usize) -> Vec<f64> {
    (0..points)
        .map(|k| 0.1e9 + 1.9e9 * k as f64 / (points - 1) as f64)
        .collect()
}

/// Single timed run: every sweep here takes seconds, long enough that
/// one wall-clock measurement is a stable throughput figure.
fn timed<T>(run: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = black_box(run());
    (t0.elapsed().as_secs_f64(), out)
}

fn assert_bit_identical(a: &[Matrix<c64>], b: &[Matrix<c64>], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: sweep length");
    for (k, (ma, mb)) in a.iter().zip(b).enumerate() {
        for i in 0..ma.nrows() {
            for j in 0..ma.ncols() {
                let (x, y) = (ma[(i, j)], mb[(i, j)]);
                assert!(
                    x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
                    "{what}: point {k} entry ({i},{j}) differs: {x:?} vs {y:?}"
                );
            }
        }
    }
}

/// Largest entrywise relative deviation between two sweeps.
fn max_rel_dev(a: &[Matrix<c64>], b: &[Matrix<c64>]) -> f64 {
    a.iter()
        .zip(b)
        .flat_map(|(ma, mb)| {
            (0..ma.nrows()).flat_map(move |i| {
                (0..ma.ncols())
                    .map(move |j| (ma[(i, j)] - mb[(i, j)]).norm() / ma[(i, j)].norm().max(1e-300))
            })
        })
        .fold(0.0, f64::max)
}

fn sweep_rational_bench(c: &mut Criterion) {
    let extracted = sweep_plane();
    let sys = extracted.bem();
    let accuracy = SweepAccuracy::Rational { rel_tol: REL_TOL };
    let avail = std::thread::available_parallelism().map_or(1, usize::from);

    println!("--- rational sweep: BEM impedance, rel_tol {REL_TOL:.0e} (target >= 5x @ 200) ---");
    let mut json = String::from("[\n");
    for (pi, &points) in POINT_COUNTS.iter().enumerate() {
        let freqs = grid(points);

        // Determinism gate: the rational engine's every decision depends
        // only on solved values, so the sweep must be bit-identical for
        // any worker count.
        let mut per_thread = Vec::new();
        let mut counts = vec![1, 2, avail];
        counts.sort_unstable();
        counts.dedup();
        for &n in &counts {
            std::env::set_var("PDN_THREADS", n.to_string());
            per_thread.push(
                sys.impedance_sweep_with(&freqs, accuracy)
                    .expect("solvable")
                    .values,
            );
        }
        std::env::remove_var("PDN_THREADS");
        for w in per_thread.windows(2) {
            assert_bit_identical(&w[0], &w[1], "rational sweep across PDN_THREADS");
        }

        let (t_exact, exact) = timed(|| sys.impedance_sweep(&freqs).expect("solvable"));
        let (t_rational, outcome) = timed(|| {
            sys.impedance_sweep_with(&freqs, accuracy)
                .expect("solvable")
        });
        assert_bit_identical(&outcome.values, &per_thread[0], "rational sweep re-run");
        let dev = max_rel_dev(&exact, &outcome.values);
        assert!(dev <= 1e-6, "rational sweep drifted {dev:.3e} from exact");

        let stats = &outcome.stats;
        let speedup = t_exact / t_rational;
        println!(
            "  {points:>4} pts: exact {:>8.1} ms   rational {:>8.1} ms   speedup {speedup:5.2}x   \
             anchors {:>3}   fallback {:>3}   max residual {:.2e}",
            t_exact * 1e3,
            t_rational * 1e3,
            stats.anchors,
            stats.fallback_points,
            stats.max_residual
        );
        writeln!(
            json,
            "  {{\"points\": {points}, \"exact_s\": {t_exact:.6}, \"rational_s\": {t_rational:.6}, \
             \"speedup\": {speedup:.3}, \"anchors\": {}, \"fallback_points\": {}, \
             \"max_residual\": {:.3e}, \"max_rel_dev_vs_exact\": {dev:.3e}}}{}",
            stats.anchors,
            stats.fallback_points,
            stats.max_residual,
            if pi + 1 < POINT_COUNTS.len() { "," } else { "" }
        )
        .unwrap();
    }
    json.push_str("]\n");
    std::fs::write("BENCH_sweep.json", json).expect("writable BENCH_sweep.json");

    // Criterion timings on the 200-point acceptance grid only — the
    // exact sweep there already runs for many seconds per sample.
    let freqs = grid(200);
    let mut g = c.benchmark_group("sweep_rational");
    g.sample_size(10);
    g.bench_with_input(BenchmarkId::new("exact", 200), &freqs, |b, freqs| {
        b.iter(|| black_box(&sys).impedance_sweep(freqs).expect("solvable"));
    });
    g.bench_with_input(BenchmarkId::new("rational", 200), &freqs, |b, freqs| {
        b.iter(|| {
            black_box(&sys)
                .impedance_sweep_with(freqs, accuracy)
                .expect("solvable")
        });
    });
    g.finish();
}

criterion_group!(benches, sweep_rational_bench);
criterion_main!(benches);
