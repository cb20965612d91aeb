//! Example 1: the L-shaped patch resonance comparison.
//!
//! Prints the first resonant modes from the equivalent circuit and the
//! FDTD reference (the paper's f0/f1 table: 1.02/1.65 GHz circuit vs
//! 0.997/1.56 GHz full wave), then times the resonance scan.

use criterion::{criterion_group, criterion_main, Criterion};
use pdn_core::{boards, verify};
use pdn_extract::NodeSelection;
use std::hint::black_box;

fn ex1(c: &mut Criterion) {
    let spec = boards::lshape_patch().expect("valid spec");
    let extracted = spec
        .extract(&NodeSelection::PortsAndGrid { stride: 3 })
        .expect("extractable");
    let eq = extracted.equivalent();
    let (f_eq, _) = verify::circuit_strongest_peak(eq, 0, 0.5e9, 2.5e9, 64).expect("scannable");
    let f_fd = verify::fdtd_strongest_peak(&spec, 0, 0.5e9, 2.5e9).expect("scannable");
    println!("--- Example 1: L-shaped patch dominant resonant mode (GHz) ---");
    println!(
        "circuit {:.3} vs FDTD {:.3} ({:+.1}%)  [paper: 1.02 vs 0.997, +2.3%]",
        f_eq / 1e9,
        f_fd / 1e9,
        100.0 * (f_eq - f_fd) / f_fd
    );

    let mut g = c.benchmark_group("ex1_lshape");
    g.sample_size(10);
    g.bench_function("resonance_scan_64pts", |b| {
        b.iter(|| {
            black_box(eq)
                .find_resonances(0, 0.3e9, 2.2e9, 64)
                .expect("scannable")
        })
    });
    g.bench_function("extraction_stride3", |b| {
        b.iter(|| {
            black_box(&spec)
                .extract(&NodeSelection::PortsAndGrid { stride: 3 })
                .expect("extractable")
        })
    });
    g.finish();
}

criterion_group!(benches, ex1);
criterion_main!(benches);
