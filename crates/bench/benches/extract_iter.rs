//! Scalar-CG vs block-CG compressed extraction on the SSN-study board.
//!
//! Compares the two iterative routes of the compressed kernel path —
//! the scalar per-column Jacobi-CG route and the block-CG route
//! (panelled right-hand sides, hierarchical block-Jacobi
//! preconditioners, certified low-rank `B_ee` with iterative Schur
//! complement):
//!
//! * at ~4.5k cells the **full macromodel extraction** runs through
//!   both routes, head to head;
//! * at ~17.9k cells the full scalar route is infeasible on the bench
//!   budget (its dense `B_ee` alone is ~2.2 GB at stride 4), so both
//!   routes solve the **same 256-column sample** of the dominant cost —
//!   the `B = AᵀL⁻¹A` column solves — and both totals are extrapolated
//!   per column (labelled in the JSON; everything outside the sampled
//!   L-solves is excluded from both sides).
//!
//! Acceptance bar (the `docs/COMPRESSION.md` contract): at both sizes
//! the block route must be ≥ 2× faster wall-clock with strictly fewer
//! kernel matvecs, and at 4.5k the two routes' port-impedance sweeps
//! must agree well inside the certified tolerance. A machine-readable
//! summary is written to `BENCH_extract.json` in the crate directory.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pdn_bem::{kernel_matvec_count, SolverSpec, BLOCK_CG_PANEL};
use pdn_core::prelude::*;
use pdn_extract::EquivalentCircuit;
use pdn_num::cg::cg_iteration_count;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

const TOL: f64 = 1e-6;
const SAMPLE_COLS: usize = 256;

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

fn timed<T>(run: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = black_box(run());
    (t0.elapsed().as_secs_f64(), out)
}

/// Process high-water-mark RSS in bytes (Linux), `None` elsewhere.
fn vm_hwm_bytes() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: usize = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

/// Worst relative port-impedance deviation between two macromodels over
/// the bench frequency grid.
fn sweep_deviation(a: &EquivalentCircuit, b: &EquivalentCircuit) -> f64 {
    let freqs: Vec<f64> = (1..=8).map(|k| k as f64 * 12.5e6).collect();
    let za = a.impedance_sweep(&freqs).expect("solvable");
    let zb = b.impedance_sweep(&freqs).expect("solvable");
    let mut dev = 0.0f64;
    for (ma, mb) in za.iter().zip(&zb) {
        let scale = ma.max_abs();
        for i in 0..ma.nrows() {
            for j in 0..ma.ncols() {
                dev = dev.max((ma[(i, j)] - mb[(i, j)]).norm() / scale);
            }
        }
    }
    dev
}

/// The signed link-incidence column of cell `j` (the RHS of one
/// `B = AᵀL⁻¹A` column solve).
fn a_column(links: &[pdn_geom::Link], m: usize, j: usize) -> Vec<f64> {
    let mut a_col = vec![0.0; m];
    for (l, link) in links.iter().enumerate() {
        if link.a == j {
            a_col[l] += 1.0;
        }
        if link.b == j {
            a_col[l] -= 1.0;
        }
    }
    a_col
}

struct RouteCost {
    seconds: f64,
    matvecs: usize,
    iters: usize,
    extrapolated: bool,
}

fn extract_iter_bench(c: &mut Criterion) {
    let p = pair();
    let z = zs();
    let scalar_opts = BemOptions::default().with_compression(CompressionSpec::with_tol(TOL));
    let block_opts =
        BemOptions::default().with_compression(CompressionSpec::with_tol(TOL).with_block_solver());

    println!(
        "--- block-CG vs scalar-CG compressed extraction: 10x7 in plane, tol = {TOL:.0e} \
         (target >= 2x) ---"
    );
    let mut json = String::from("[\n");

    // --- Full head-to-head extraction at ~4.5k cells --------------------
    // 0.125 in pitch → 80x56 = 4480 cells; stride-2 macromodel.
    {
        let mesh = board_mesh(inch(0.125));
        let (n, m) = (mesh.cell_count(), mesh.link_count());
        let stride = 2usize;
        let sel = NodeSelection::PortsAndGrid { stride };

        // Block route first so the RSS high-water mark reflects its peak
        // (and not a dense working set from a preceding scalar run).
        let sys_block =
            BemSystem::assemble(mesh.clone(), &p, &z, &block_opts).expect("assemblable");
        let (mv0, it0) = (kernel_matvec_count(), cg_iteration_count());
        let (t_block, eq_block) =
            timed(|| EquivalentCircuit::from_bem(&sys_block, &sel).expect("extractable"));
        let mv_block = kernel_matvec_count() - mv0;
        let it_block = cg_iteration_count() - it0;
        let peak_block = vm_hwm_bytes();
        drop(sys_block);

        let sys_scalar =
            BemSystem::assemble(mesh.clone(), &p, &z, &scalar_opts).expect("assemblable");
        let (mv1, it1) = (kernel_matvec_count(), cg_iteration_count());
        let (t_scalar, eq_scalar) =
            timed(|| EquivalentCircuit::from_bem(&sys_scalar, &sel).expect("extractable"));
        let mv_scalar = kernel_matvec_count() - mv1;
        let it_scalar = cg_iteration_count() - it1;
        drop(sys_scalar);
        let dev = sweep_deviation(&eq_block, &eq_scalar);

        report(
            &mut json,
            n,
            m,
            stride,
            "full",
            &RouteCost {
                seconds: t_block,
                matvecs: mv_block,
                iters: it_block,
                extrapolated: false,
            },
            &RouteCost {
                seconds: t_scalar,
                matvecs: mv_scalar,
                iters: it_scalar,
                extrapolated: false,
            },
            peak_block,
            Some(dev),
        );
        assert!(dev <= 1e-4, "block-vs-scalar sweep deviation {dev:.3e}");
    }

    // --- Same-sample L-solve comparison at ~17.9k cells ------------------
    // 0.0625 in pitch → 160x112 = 17920 cells. One assembly serves both
    // routes (the kernels are solver-agnostic); both routes solve the
    // same 256 tree-ordered B columns and are extrapolated per column.
    {
        let mesh = board_mesh(inch(0.0625));
        let (n, m) = (mesh.cell_count(), mesh.link_count());
        let stride = 4usize;
        let links = mesh.links().to_vec();
        let sys = BemSystem::assemble(mesh, &p, &z, &scalar_opts).expect("assemblable");
        let ck = sys.compressed().expect("compressed system");
        let cg_tol = (TOL * 1e-2).max(1e-14);
        let max_iter = 10 * m.max(10) + 100;

        // A geometrically coherent tree-ordered sample — exactly the
        // panel order the block extraction uses.
        let cols: Vec<usize> =
            ck.p.leaf_clusters(false)
                .into_iter()
                .flatten()
                .take(SAMPLE_COLS)
                .collect();
        assert_eq!(cols.len(), SAMPLE_COLS);
        let scale = n as f64 / cols.len() as f64;

        // Block route: coarsened hierarchical preconditioner, panels of
        // `BLOCK_CG_PANEL` — the settings the block extraction uses.
        let l_pc = ck.l.block_jacobi(true).expect("preconditioner");
        let (mv0, it0) = (kernel_matvec_count(), cg_iteration_count());
        let (t_block, ()) = timed(|| {
            for chunk in cols.chunks(BLOCK_CG_PANEL) {
                let rhs: Vec<Vec<f64>> = chunk.iter().map(|&j| a_column(&links, m, j)).collect();
                black_box(
                    ck.l.solve_block(&rhs, &l_pc, cg_tol, max_iter)
                        .expect("solvable"),
                );
            }
        });
        let mv_block = kernel_matvec_count() - mv0;
        let it_block = cg_iteration_count() - it0;
        let peak_block = vm_hwm_bytes();

        // Scalar route: the same columns, one Jacobi-CG solve each.
        let (mv1, it1) = (kernel_matvec_count(), cg_iteration_count());
        let (t_scalar, ()) = timed(|| {
            for &j in &cols {
                let a_col = a_column(&links, m, j);
                black_box(ck.l.solve(&a_col, cg_tol, max_iter).expect("solvable"));
            }
        });
        let mv_scalar = kernel_matvec_count() - mv1;
        let it_scalar = cg_iteration_count() - it1;

        report(
            &mut json,
            n,
            m,
            stride,
            "sampled-L-solves",
            &RouteCost {
                seconds: t_block * scale,
                matvecs: (mv_block as f64 * scale) as usize,
                iters: (it_block as f64 * scale) as usize,
                extrapolated: true,
            },
            &RouteCost {
                seconds: t_scalar * scale,
                matvecs: (mv_scalar as f64 * scale) as usize,
                iters: (it_scalar as f64 * scale) as usize,
                extrapolated: true,
            },
            peak_block,
            None,
        );
    }

    json.truncate(json.trim_end().trim_end_matches(',').len());
    json.push_str("\n]\n");
    std::fs::write("BENCH_extract.json", json).expect("writable BENCH_extract.json");

    // Criterion timings at the 1120-cell size, where both routes run in
    // seconds.
    let mesh = board_mesh(inch(0.25));
    let sel = NodeSelection::PortsAndGrid { stride: 2 };
    let sys_scalar = BemSystem::assemble(mesh.clone(), &p, &z, &scalar_opts).expect("assemblable");
    let sys_block = BemSystem::assemble(mesh, &p, &z, &block_opts).expect("assemblable");
    assert_eq!(
        sys_block.compressed().expect("compressed").spec.solver,
        SolverSpec::BlockCg
    );
    let mut g = c.benchmark_group("extract_iter");
    g.sample_size(10);
    g.bench_with_input(BenchmarkId::new("extract", "scalar"), &(), |b, ()| {
        b.iter(|| EquivalentCircuit::from_bem(black_box(&sys_scalar), &sel).expect("extractable"));
    });
    g.bench_with_input(BenchmarkId::new("extract", "block"), &(), |b, ()| {
        b.iter(|| EquivalentCircuit::from_bem(black_box(&sys_block), &sel).expect("extractable"));
    });
    g.finish();
}

/// Prints one comparison line, appends the JSON record, and asserts the
/// speedup and matvec bars.
#[allow(clippy::too_many_arguments)]
fn report(
    json: &mut String,
    n: usize,
    m: usize,
    stride: usize,
    measured: &str,
    block: &RouteCost,
    scalar: &RouteCost,
    peak_block: Option<usize>,
    dev: Option<f64>,
) {
    let speedup = scalar.seconds / block.seconds;
    println!(
        "  n={n:6} m={m:6} stride={stride} [{measured}]: block {:8.1} ms / {:8} matvecs / \
         {:6} iters vs scalar {:8.1} ms / {:8} matvecs / {:6} iters ({speedup:4.1}x){}{}{}",
        block.seconds * 1e3,
        block.matvecs,
        block.iters,
        scalar.seconds * 1e3,
        scalar.matvecs,
        scalar.iters,
        if block.extrapolated {
            " [extrapolated]"
        } else {
            ""
        },
        peak_block.map_or(String::new(), |b| format!(
            ", block peak RSS {:6.1} MB",
            b as f64 / 1e6
        )),
        dev.map_or(String::new(), |d| format!(", sweep deviation {d:.2e}")),
    );
    writeln!(
        json,
        "  {{\"cells\": {n}, \"links\": {m}, \"stride\": {stride}, \"tol\": {TOL:e}, \
         \"measured\": \"{measured}\", \
         \"block_seconds\": {:.6}, \"block_matvecs\": {}, \"block_iters\": {}, \
         \"block_extrapolated\": {}, \
         \"scalar_seconds\": {:.6}, \"scalar_matvecs\": {}, \"scalar_iters\": {}, \
         \"scalar_extrapolated\": {}, \
         \"speedup\": {speedup:.2}, \"block_peak_rss_bytes\": {}, \"sweep_deviation\": {}}},",
        block.seconds,
        block.matvecs,
        block.iters,
        block.extrapolated,
        scalar.seconds,
        scalar.matvecs,
        scalar.iters,
        scalar.extrapolated,
        peak_block.map_or("null".to_string(), |b| b.to_string()),
        dev.map_or("null".to_string(), |d| format!("{d:.3e}")),
    )
    .unwrap();
    assert!(
        speedup >= 2.0,
        "n={n}: block-CG extraction speedup {speedup:.2}x below the 2x bar"
    );
    assert!(
        block.matvecs < scalar.matvecs,
        "n={n}: block route used {} kernel matvecs, scalar {} — must be strictly fewer",
        block.matvecs,
        scalar.matvecs
    );
}

criterion_group!(benches, extract_iter_bench);
criterion_main!(benches);
