//! Dense vs ACA-compressed BEM kernel assembly and extraction.
//!
//! Assembles the SSN-study board plane (10 × 7 in) at three mesh
//! densities — ~1.1k, ~4.5k, and ~17.9k cells — through the dense and
//! the certified low-rank (ACA) kernel paths, and times a full
//! macromodel extraction plus impedance sweep through both at the
//! 1120-cell size. Dense assembly is skipped (and logged) at the
//! largest size, where its kernels alone would need ~23 GB.
//!
//! At the largest size it also extracts the compressed board with
//! `PortsOnly` and records the extraction's time and peak working set.
//!
//! Acceptance bar (the `docs/COMPRESSION.md` contract): at the
//! 1120-cell board and `tol = 1e-6`, the compressed extraction's peak
//! kernel + working-set storage must undercut the dense kernel storage
//! by ≥ 4×, with the compressed-path port impedances matching the dense
//! path to well within the certified tolerance. A machine-readable
//! summary is written to `BENCH_aca.json` in the crate directory.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pdn_core::prelude::*;
use pdn_extract::EquivalentCircuit;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

const TOL: f64 = 1e-6;

fn board_mesh(cell: f64) -> PlaneMesh {
    let mut mesh =
        PlaneMesh::build(&Polygon::rectangle(inch(10.0), inch(7.0)), cell).expect("meshable");
    mesh.bind_port("VRM", Point::new(inch(0.5), inch(0.5)))
        .expect("bindable");
    mesh.bind_port("U1", Point::new(inch(5.0), inch(3.5)))
        .expect("bindable");
    mesh
}

fn pair() -> PlanePair {
    PlanePair::new(mil(30.0), 4.5).expect("valid pair")
}

fn zs() -> SurfaceImpedance {
    SurfaceImpedance::from_sheet_resistance(2.0 * 0.6e-3)
}

/// Bytes the dense kernel set holds: `P`, `C`, incidence-weighted `C`
/// (n × n each), `L` (m × m), and the incidence matrix (m × n).
fn dense_kernel_bytes(n: usize, m: usize) -> usize {
    8 * (3 * n * n + m * m + m * n)
}

/// Peak bytes of a compressed extraction keeping `k` of the mesh's
/// cells: the `stored` kernels plus the reduction's working set — the
/// band of the grounded link Laplacian behind `B` (about `n` rows), the
/// band of `G`'s eliminated block (`n − k` rows), each `w + 1` doubles
/// wide with `w` the raster width, and the `k × k` kept-node potentials.
/// No dense `n × n` or `k × (n − k)` block is formed.
fn extraction_peak_bytes(stored: usize, mesh: &PlaneMesh, k: usize) -> usize {
    let (n, w) = (mesh.cell_count(), mesh.grid_shape().0);
    stored + 8 * ((2 * n - k) * (w + 1) + k * k)
}

fn timed<T>(run: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = black_box(run());
    (t0.elapsed().as_secs_f64(), out)
}

fn bem_aca_bench(c: &mut Criterion) {
    let spec = CompressionSpec::with_tol(TOL);
    let p = pair();
    let z = zs();
    let dense_opts = BemOptions::default();
    let comp_opts = BemOptions::default().with_compression(spec);

    println!("--- ACA kernel compression: 10x7 in plane, tol = {TOL:.0e} (target >= 4x) ---");
    let mut json = String::from("[\n");
    // 0.25 in → 40x28 = 1120 cells; halving the pitch quadruples the count.
    let cells_per_size = [inch(0.25), inch(0.125), inch(0.0625)];
    for (si, &cell) in cells_per_size.iter().enumerate() {
        let mesh = board_mesh(cell);
        let (n, m) = (mesh.cell_count(), mesh.link_count());
        let dense_bytes = dense_kernel_bytes(n, m);
        // Dense kernels at the largest size would need ~23 GB: log the
        // skip instead of silently narrowing the comparison.
        let t_dense = if dense_bytes < 2 << 30 {
            let (t, sys) = timed(|| {
                BemSystem::assemble(mesh.clone(), &p, &z, &dense_opts).expect("assemblable")
            });
            drop(sys);
            Some(t)
        } else {
            println!(
                "  n={n:6}: dense assembly skipped (kernels alone ~{:5.1} GB)",
                dense_bytes as f64 / 1e9
            );
            None
        };
        let (t_comp, sys) =
            timed(|| BemSystem::assemble(mesh.clone(), &p, &z, &comp_opts).expect("assemblable"));
        let ck = sys.compressed().expect("compressed system");
        let stored = ck.stored_bytes();
        let ratio = dense_bytes as f64 / stored as f64;
        println!(
            "  n={n:6} m={m:6}: compressed {:8.1} ms, {:7.2} MB vs dense {:8.1} MB ({ratio:5.1}x){}",
            t_comp * 1e3,
            stored as f64 / 1e6,
            dense_bytes as f64 / 1e6,
            t_dense.map_or(String::new(), |t| format!(", dense {:8.1} ms", t * 1e3)),
        );
        writeln!(
            json,
            "  {{\"cells\": {n}, \"links\": {m}, \"tol\": {TOL:e}, \
             \"compressed_seconds\": {t_comp:.6}, \"dense_seconds\": {}, \
             \"compressed_bytes\": {stored}, \"dense_bytes\": {dense_bytes}, \
             \"kernel_reduction\": {ratio:.2}}},",
            t_dense.map_or("null".to_string(), |t| format!("{t:.6}")),
        )
        .unwrap();
        assert!(
            ratio >= 4.0,
            "n={n}: kernel storage reduction {ratio:.1}x below the 4x bar"
        );
        if si == cells_per_size.len() - 1 {
            // The largest board through the compressed route alone.
            let (t_x, eq) = timed(|| {
                EquivalentCircuit::from_bem(&sys, &NodeSelection::PortsOnly).expect("extractable")
            });
            let peak = extraction_peak_bytes(stored, &mesh, eq.node_count());
            println!(
                "  n={n:6} PortsOnly extraction: compressed {:8.1} ms, peak ~{:7.2} MB",
                t_x * 1e3,
                peak as f64 / 1e6,
            );
            writeln!(
                json,
                "  {{\"cells\": {n}, \"extraction\": true, \"selection\": \"PortsOnly\", \
                 \"compressed_seconds\": {t_x:.6}, \"compressed_peak_bytes\": {peak}}},",
            )
            .unwrap();
        }
        if si > 0 {
            continue; // the dense comparison runs at the 1120-cell size only
        }

        // Full extraction + sweep through both paths at the bench board.
        let sel = NodeSelection::PortsAndGrid { stride: 2 };
        let freqs: Vec<f64> = (1..=8).map(|k| k as f64 * 12.5e6).collect();
        let dense_sys =
            BemSystem::assemble(mesh.clone(), &p, &z, &dense_opts).expect("assemblable");
        let (t_xd, eq_dense) =
            timed(|| EquivalentCircuit::from_bem(&dense_sys, &sel).expect("extractable"));
        drop(dense_sys);
        let (t_xc, eq_comp) =
            timed(|| EquivalentCircuit::from_bem(&sys, &sel).expect("extractable"));
        let peak = extraction_peak_bytes(stored, &mesh, eq_comp.node_count());
        let extraction_ratio = dense_bytes as f64 / peak as f64;
        let zd = eq_dense.impedance_sweep(&freqs).expect("solvable");
        let zc = eq_comp.impedance_sweep(&freqs).expect("solvable");
        let mut dev = 0.0f64;
        for (a, b) in zd.iter().zip(&zc) {
            let scale = a.max_abs();
            for i in 0..a.nrows() {
                for j in 0..a.ncols() {
                    dev = dev.max((a[(i, j)] - b[(i, j)]).norm() / scale);
                }
            }
        }
        println!(
            "  n={n:6} extraction: compressed {:8.1} ms peak ~{:6.2} MB vs dense {:8.1} ms \
             ~{:6.1} MB ({extraction_ratio:4.1}x), sweep deviation {dev:.2e}",
            t_xc * 1e3,
            peak as f64 / 1e6,
            t_xd * 1e3,
            dense_bytes as f64 / 1e6,
        );
        writeln!(
            json,
            "  {{\"cells\": {n}, \"extraction\": true, \
             \"compressed_seconds\": {t_xc:.6}, \"dense_seconds\": {t_xd:.6}, \
             \"compressed_peak_bytes\": {peak}, \"dense_bytes\": {dense_bytes}, \
             \"peak_reduction\": {extraction_ratio:.2}, \"sweep_deviation\": {dev:.3e}}},",
        )
        .unwrap();
        assert!(
            extraction_ratio >= 4.0,
            "extraction peak-memory reduction {extraction_ratio:.1}x below the 4x bar"
        );
        assert!(dev <= 1e-4, "compressed sweep deviation {dev:.3e}");
    }
    json.truncate(json.trim_end().trim_end_matches(',').len());
    json.push_str("\n]\n");
    std::fs::write("BENCH_aca.json", json).expect("writable BENCH_aca.json");

    // Criterion timings at the 1120-cell size.
    let mesh = board_mesh(inch(0.25));
    let mut g = c.benchmark_group("bem_aca");
    g.sample_size(10);
    g.bench_with_input(BenchmarkId::new("assemble", "dense"), &(), |b, ()| {
        b.iter(|| {
            BemSystem::assemble(black_box(mesh.clone()), &p, &z, &dense_opts).expect("assemblable")
        });
    });
    g.bench_with_input(BenchmarkId::new("assemble", "compressed"), &(), |b, ()| {
        b.iter(|| {
            BemSystem::assemble(black_box(mesh.clone()), &p, &z, &comp_opts).expect("assemblable")
        });
    });
    g.finish();
}

criterion_group!(benches, bem_aca_bench);
criterion_main!(benches);
