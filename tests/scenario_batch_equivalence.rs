//! Scenario-batch equivalence: a [`ScenarioBatch`] run must be
//! *bit-identical* to materializing each scenario as a stand-alone
//! [`BoardSpec`] and building it from scratch — and bit-identical across
//! `PDN_THREADS` worker counts. No tolerances anywhere: the batch shares
//! one extraction and one LU per MNA structure, but the arithmetic per
//! scenario is exactly the serial from-scratch arithmetic.
//!
//! `PDN_THREADS` is process-global, so tests that touch it serialize on a
//! mutex (the harness runs `#[test]`s concurrently in one process).

use pdn::prelude::*;
use pdn_circuit::Waveform;
use pdn_core::scenario::{DecapValue, Scenario, ScenarioBatch};
use proptest::prelude::*;

mod common;
use common::with_thread_counts;

fn sel() -> NodeSelection {
    NodeSelection::PortsAndGrid { stride: 3 }
}

/// A small board parameterized by plane size, chip count/drivers, and
/// declared decap sites. Locations are fractions of the plane so every
/// port lands on the conductor.
fn make_board(w_mm: f64, h_mm: f64, chips: usize, drivers: usize, sites: usize) -> BoardSpec {
    let (w, h) = (mm(w_mm), mm(h_mm));
    let plane = PlaneSpec::rectangle(w, h, 0.5e-3, 4.5)
        .unwrap()
        .with_sheet_resistance(1e-3)
        .with_cell_size(mm(5.0));
    let mut board = BoardSpec::new(plane, 3.3, Point::new(0.08 * w, 0.08 * h));
    let chip_frac = [(0.75, 0.6), (0.3, 0.75)];
    for (i, &(fx, fy)) in chip_frac.iter().take(chips).enumerate() {
        board = board.with_chip(ChipSpec::cmos(
            format!("U{}", i + 1),
            Point::new(fx * w, fy * h),
            drivers,
        ));
    }
    let site_frac = [(0.6, 0.5), (0.25, 0.3)];
    for &(fx, fy) in site_frac.iter().take(sites) {
        board = board.with_decap_site(Point::new(fx * w, fy * h));
    }
    board
}

/// Samples a scenario list from raw random bits (deterministic per seed).
fn make_scenarios(seed: u64, n: usize, drivers: usize, sites: usize) -> Vec<Scenario> {
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    (0..n)
        .map(|_| {
            let mut s = Scenario::switching(next() as usize % (drivers + 1));
            if sites > 0 && next() % 2 == 0 {
                let mut populated: Vec<(usize, DecapValue)> = Vec::new();
                for k in 0..sites {
                    if next() % 2 != 0 {
                        continue;
                    }
                    let v = if next() % 2 == 0 {
                        DecapValue::ceramic_100nf()
                    } else {
                        DecapValue::new(47e-9, 0.05, 1.5e-9)
                    };
                    populated.push((k, v));
                }
                s = s.with_decaps(populated);
            }
            if next() % 3 == 0 {
                s = s.with_vcc(3.0 + (next() % 7) as f64 * 0.1);
            }
            if next() % 3 == 0 {
                s = s.with_r_on_scale(0.8 + (next() % 5) as f64 * 0.2);
            }
            if next() % 4 == 0 {
                s = s.with_data(Waveform::pulse(0.0, 1.0, 3e-9, 1e-9, 1e-9, 8e-9));
            }
            s
        })
        .collect()
}

/// Asserts batch results equal per-scenario from-scratch rebuilds exactly,
/// and are invariant to the worker count.
fn assert_batch_equivalence(board: &BoardSpec, scenarios: &[Scenario], t_stop: f64, dt: f64) {
    let batch = ScenarioBatch::new(board, &sel()).expect("extraction succeeds");
    let mut reference: Option<Vec<SsnOutcome>> = None;
    with_thread_counts(|n| {
        let batched = batch.run(scenarios, t_stop, dt).expect("batch runs");
        match &reference {
            None => reference = Some(batched),
            Some(r) => assert_eq!(&batched, r, "batch invariant with {n} workers"),
        }
    });
    let batched = reference.expect("at least one thread count ran");
    for (i, (s, b)) in scenarios.iter().zip(&batched).enumerate() {
        let scratch = s
            .apply_to(board)
            .expect("scenario applies")
            .build(&sel(), s.switching)
            .expect("scratch build succeeds")
            .run(t_stop, dt)
            .expect("scratch run succeeds");
        assert_eq!(*b, scratch, "scenario {i} bit-identical to rebuild");
    }
}

#[test]
fn fixed_batch_matches_scratch_across_thread_counts() {
    let board = make_board(40.0, 30.0, 1, 4, 2);
    let scenarios = vec![
        Scenario::switching(4),
        Scenario::switching(4).with_decaps(vec![(0, DecapValue::ceramic_100nf())]),
        Scenario::switching(2).with_vcc(3.0).with_decaps(vec![
            (0, DecapValue::ceramic_100nf()),
            (1, DecapValue::new(47e-9, 0.05, 1.5e-9)),
        ]),
        Scenario::switching(1)
            .with_r_on_scale(1.4)
            .with_load_scale(0.5),
    ];
    assert_batch_equivalence(&board, &scenarios, 6e-9, 0.1e-9);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Random small boards and random scenario lists: batched results are
    /// exactly the from-scratch results, for every worker count.
    #[test]
    fn random_batches_match_scratch_builds(
        w_mm in 25.0f64..45.0,
        h_mm in 20.0f64..35.0,
        chips in 1usize..3,
        drivers in 1usize..4,
        sites in 0usize..3,
        n_scenarios in 1usize..4,
        seed in any::<u64>(),
    ) {
        let board = make_board(w_mm, h_mm, chips, drivers, sites);
        let scenarios = make_scenarios(seed, n_scenarios, drivers, sites);
        assert_batch_equivalence(&board, &scenarios, 5e-9, 0.1e-9);
    }
}
