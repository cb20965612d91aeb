//! Golden regression tests for the paper's verification figures.
//!
//! Figure 7 (|S21| of the HP test plane's extracted macromodel) and
//! Figure 8 (equivalent-circuit vs FDTD transient overlay) are pinned
//! against reference vectors committed under `tests/golden/`. The physics
//! assertions live in `paper_experiments.rs`; these tests catch *any*
//! numerical drift — an extraction change, a solver reordering, a stamp
//! edit — long before it grows large enough to move a physics threshold.
//!
//! The references were produced by this code base (see
//! [`regenerate_golden_vectors`]) and are stored with 17 significant
//! digits, so in a fixed environment the comparison is exact to
//! round-off. The explicit tolerances below only allow for benign libm
//! differences across platforms:
//!
//! * Figure 7: `TOL_DB` absolute on |S21| in dB;
//! * Figure 8: `TOL_V` absolute on waveform samples in volts.
//!
//! To regenerate after an *intentional* numerical change:
//! `GOLDEN_REGEN=1 cargo test --test golden_figures -- --include-ignored regenerate`

use pdn::prelude::*;
use pdn_circuit::Waveform;
use std::fmt::Write as _;

mod common;
use common::hp_plane_coarse;

/// Absolute tolerance on |S21| golden values (dB).
const TOL_DB: f64 = 1e-6;
/// Absolute tolerance on transient golden samples (V).
const TOL_V: f64 = 1e-6;

fn fig7_freqs() -> Vec<f64> {
    (1..=20).map(|k| k as f64 * 0.25e9).collect()
}

/// Computes the Figure 7 curve: (frequency, |S21| dB) of the extracted
/// macromodel between ports P1 and P2.
fn compute_fig7() -> Vec<(f64, f64)> {
    let spec = hp_plane_coarse();
    let extracted = spec
        .extract(&NodeSelection::PortsAndGrid { stride: 2 })
        .expect("extractable");
    let freqs = fig7_freqs();
    let s21 = verify::circuit_s21_db(extracted.equivalent(), 0, 1, &freqs, 50.0).expect("solvable");
    freqs.into_iter().zip(s21).collect()
}

/// Computes the Figure 8 overlay subsampled to every 25th point:
/// (time, circuit voltage, FDTD voltage) at the watch port.
fn compute_fig8() -> Vec<(f64, f64, f64)> {
    let spec = hp_plane_coarse();
    let extracted = spec
        .extract(&NodeSelection::PortsAndGrid { stride: 2 })
        .expect("extractable");
    let stim = Waveform::pulse(0.0, 5.0, 0.1e-9, 0.2e-9, 0.2e-9, 1.0e-9);
    let cmp = verify::transient_comparison(&spec, &extracted, 0, 1, stim, 50.0, 5e-9, 2e-12)
        .expect("comparable");
    cmp.time
        .iter()
        .zip(&cmp.circuit)
        .zip(&cmp.fdtd)
        .step_by(25)
        .map(|((&t, &c), &f)| (t, c, f))
        .collect()
}

/// Parses a committed golden CSV: `#`-comment and header lines skipped,
/// one row of `cols` comma-separated floats per line.
fn parse_golden(text: &str, cols: usize) -> Vec<Vec<f64>> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#') && !l.starts_with(char::is_alphabetic))
        .map(|l| {
            let row: Vec<f64> = l
                .split(',')
                .map(|v| v.trim().parse::<f64>().expect("numeric golden entry"))
                .collect();
            assert_eq!(row.len(), cols, "golden row width: {l}");
            row
        })
        .collect()
}

#[test]
fn fig7_s21_matches_golden() {
    let golden = parse_golden(include_str!("golden/fig7_s21.csv"), 2);
    let fresh = compute_fig7();
    assert_eq!(fresh.len(), golden.len(), "point count");
    for ((f, db), row) in fresh.iter().zip(&golden) {
        assert_eq!(*f, row[0], "frequency grid is part of the contract");
        assert!(
            (db - row[1]).abs() <= TOL_DB,
            "|S21| at {f:.3e} Hz drifted: {db:.12} dB vs golden {:.12} dB",
            row[1]
        );
    }
}

#[test]
fn fig7_rational_sweep_matches_golden_with_few_anchors() {
    // The adaptive-sweep acceptance check: a `Rational` sweep over a
    // dense 609-point grid running through all 20 golden frequencies
    // must reproduce Figure 7 to golden accuracy while exact-factoring
    // at most a quarter of the grid.
    let golden = parse_golden(include_str!("golden/fig7_s21.csv"), 2);
    let extracted = hp_plane_coarse()
        .extract(&NodeSelection::PortsAndGrid { stride: 2 })
        .expect("extractable");
    // 7.8125 MHz steps: every golden frequency k·0.25 GHz lands on grid
    // index 32(k−1) bit-exactly. The grid is deliberately dense — the
    // anchor count tracks the response's pole content, not the grid, so
    // exact solves amortize as the grid refines.
    let freqs: Vec<f64> = (0..609).map(|k| 0.25e9 + k as f64 * 7.8125e6).collect();
    let outcome = extracted
        .equivalent()
        .s_parameter_sweep_with(&freqs, 50.0, SweepAccuracy::Rational { rel_tol: 1e-8 })
        .expect("solvable");
    assert!(
        4 * outcome.stats.anchors <= freqs.len(),
        "rational sweep factored {} of {} points",
        outcome.stats.anchors,
        freqs.len()
    );
    for (k, row) in golden.iter().enumerate() {
        let idx = k * 32;
        assert_eq!(freqs[idx], row[0], "golden frequency on the dense grid");
        let db = outcome.values[idx][(1, 0)].db();
        assert!(
            (db - row[1]).abs() <= TOL_DB,
            "|S21| at {:.3e} Hz drifted: {db:.12} dB vs golden {:.12} dB",
            row[0],
            row[1]
        );
    }
}

#[test]
fn fig7_compressed_path_matches_golden() {
    // The same Figure 7 curve routed through the ACA-compressed kernels
    // and the iterative extraction path. The compressed kernels are
    // certified to `tol = 1e-6` relative, which propagates to well under
    // 1e-4 dB on |S21| here; `TOL_DB_COMPRESSED` carries an order of
    // magnitude of margin on the measured drift.
    const TOL_DB_COMPRESSED: f64 = 1e-3;
    let golden = parse_golden(include_str!("golden/fig7_s21.csv"), 2);
    let extracted = hp_plane_coarse()
        .with_compression(CompressionSpec::with_tol(1e-6))
        .extract(&NodeSelection::PortsAndGrid { stride: 2 })
        .expect("extractable");
    assert!(extracted.bem().is_compressed());
    let freqs = fig7_freqs();
    let s21 = verify::circuit_s21_db(extracted.equivalent(), 0, 1, &freqs, 50.0).expect("solvable");
    assert_eq!(s21.len(), golden.len(), "point count");
    for ((f, db), row) in freqs.iter().zip(&s21).zip(&golden) {
        assert_eq!(*f, row[0], "frequency grid is part of the contract");
        assert!(
            (db - row[1]).abs() <= TOL_DB_COMPRESSED,
            "compressed |S21| at {f:.3e} Hz drifted: {db:.12} dB vs golden {:.12} dB",
            row[1]
        );
    }
}

#[test]
fn fig7_inadmissible_plan_assembles_bit_identical_kernels() {
    // With a leaf size swallowing the whole Figure 7 plane, the cluster
    // tree is a single leaf, no block is admissible, and the "compressed"
    // kernels must be the dense kernels bit for bit — compression only
    // ever replaces far-field blocks it certifies, never near-field
    // arithmetic.
    let spec = hp_plane_coarse();
    let mut mesh = PlaneMesh::build(&Polygon::rectangle(mm(40.0), mm(16.0)), mm(2.0)).unwrap();
    for (name, at) in spec.ports() {
        mesh.bind_port(name.clone(), *at).unwrap();
    }
    let pair = PlanePair::new(280e-6, 9.6).unwrap();
    let zs = SurfaceImpedance::from_sheet_resistance(2.0 * 6e-3);
    let opts = BemOptions::default();
    let raw = pdn::bem::assemble_matrices(&mesh, &pair, &zs, &opts).unwrap();
    let big_leaf = CompressionSpec {
        leaf_size: 4096,
        ..CompressionSpec::default()
    };
    let (ck, _) = pdn::bem::assemble_compressed(&mesh, &pair, &zs, &opts, &big_leaf).unwrap();
    assert_eq!(
        ck.p.stats().low_rank_blocks,
        0,
        "single-leaf plan has no far field"
    );
    let p = ck.p.to_dense();
    for i in 0..mesh.cell_count() {
        for j in 0..mesh.cell_count() {
            assert_eq!(
                p[(i, j)].to_bits(),
                raw.p_coef[(i, j)].to_bits(),
                "P({i},{j})"
            );
        }
    }
    let l = ck.l.to_dense();
    for i in 0..mesh.link_count() {
        for j in 0..mesh.link_count() {
            assert_eq!(l[(i, j)].to_bits(), raw.l[(i, j)].to_bits(), "L({i},{j})");
        }
    }
}

#[test]
fn fig8_transient_matches_golden() {
    let golden = parse_golden(include_str!("golden/fig8_transient.csv"), 3);
    let fresh = compute_fig8();
    assert_eq!(fresh.len(), golden.len(), "sample count");
    for ((t, c, f), row) in fresh.iter().zip(&golden) {
        assert_eq!(*t, row[0], "time base is part of the contract");
        assert!(
            (c - row[1]).abs() <= TOL_V,
            "circuit waveform at {t:.3e} s drifted: {c:.12} V vs golden {:.12} V",
            row[1]
        );
        assert!(
            (f - row[2]).abs() <= TOL_V,
            "FDTD waveform at {t:.3e} s drifted: {f:.12} V vs golden {:.12} V",
            row[2]
        );
    }
}

/// Rewrites the committed reference vectors from the current code. Only
/// acts when `GOLDEN_REGEN=1`, so the nightly `--include-ignored` run
/// cannot silently dirty the tree.
#[test]
#[ignore]
fn regenerate_golden_vectors() {
    if std::env::var("GOLDEN_REGEN").as_deref() != Ok("1") {
        eprintln!("GOLDEN_REGEN != 1; skipping regeneration");
        return;
    }
    let mut fig7 = String::from("# |S21(P1->P2)| of the coarse HP test plane macromodel.\n");
    fig7.push_str("freq_hz,s21_db\n");
    for (f, db) in compute_fig7() {
        writeln!(fig7, "{f:.17e},{db:.17e}").unwrap();
    }
    std::fs::write("tests/golden/fig7_s21.csv", fig7).unwrap();

    let mut fig8 =
        String::from("# Figure 8 transient overlay at P2, subsampled to every 25th point.\n");
    fig8.push_str("time_s,circuit_v,fdtd_v\n");
    for (t, c, f) in compute_fig8() {
        writeln!(fig8, "{t:.17e},{c:.17e},{f:.17e}").unwrap();
    }
    std::fs::write("tests/golden/fig8_transient.csv", fig8).unwrap();
}
