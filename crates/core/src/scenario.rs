//! Batched what-if studies over one shared plane extraction.
//!
//! Every question the paper's evaluation section asks — how many decaps,
//! which mounting sites, how many simultaneously switching drivers, what
//! driver corner — varies only the cheap circuit stamped *around* the
//! plane macromodel, never the macromodel itself. [`ScenarioBatch`]
//! exploits this: it runs [`BoardSpec::extract_model`] exactly once, then
//! wires and simulates any number of [`Scenario`] variants against the
//! shared [`ExtractedModel`], dispatching the transient runs over
//! [`pdn_num::parallel`] workers.
//!
//! Two invariants make the batch trustworthy:
//!
//! * **Exactness** — a batched scenario produces *bit-identical* results
//!   to materializing the same scenario as a stand-alone [`BoardSpec`]
//!   (via [`Scenario::apply_to`]) and building it from scratch. Extraction
//!   is deterministic and the wiring code is literally shared, so there is
//!   nothing approximate about the amortization.
//! * **Determinism** — outcome order follows scenario order and every
//!   value is bit-identical for any `PDN_THREADS` worker count; on
//!   failure, the error of the lowest-index failing scenario is reported
//!   regardless of thread scheduling.
//!
//! [`ScenarioBatch::run`] is one parallel map: each task wires its
//! scenario and runs its transient ([`BoardSystem::run`], one MNA
//! factorization per scenario). Every scenario runs even when another
//! fails, so the lowest failing index wins whether it failed in wiring
//! or in simulation.
//!
//! # Examples
//!
//! Sweep decap population against switching activity on one extraction:
//!
//! ```no_run
//! use pdn_core::prelude::*;
//! use pdn_core::scenario::{Scenario, ScenarioBatch};
//! use pdn_geom::Point;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let plane = PlaneSpec::rectangle(mm(40.0), mm(30.0), 0.5e-3, 4.5)?
//!     .with_cell_size(mm(5.0));
//! let board = BoardSpec::new(plane, 3.3, Point::new(mm(2.0), mm(2.0)))
//!     .with_chip(ChipSpec::cmos("U1", Point::new(mm(30.0), mm(20.0)), 4))
//!     .with_decap_site(Point::new(mm(28.0), mm(20.0)));
//! let batch = ScenarioBatch::new(&board, &NodeSelection::PortsAndGrid { stride: 3 })?;
//! let scenarios = vec![
//!     Scenario::switching(4),                       // no decap
//!     Scenario::switching(4).with_decaps(vec![(0, Default::default())]),
//! ];
//! let outcomes = batch.run(&scenarios, 20e-9, 0.05e-9)?;
//! assert!(outcomes[1].plane_noise_peak < outcomes[0].plane_noise_peak);
//! # Ok(())
//! # }
//! ```

use crate::cosim::{
    BoardSpec, BoardSystem, BuildBoardError, DecapSpec, ExtractedModel, SsnOutcome,
};
use pdn_circuit::{SimulateCircuitError, Waveform};
use pdn_extract::NodeSelection;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// A decoupling-capacitor value to populate at a mounting site: a
/// [`DecapSpec`] minus the location (the site supplies that).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecapValue {
    /// Capacitance (F).
    pub c: f64,
    /// Equivalent series resistance (Ω).
    pub esr: f64,
    /// Equivalent series inductance (H).
    pub esl: f64,
}

impl DecapValue {
    /// A decap value with the given C/ESR/ESL.
    pub fn new(c: f64, esr: f64, esl: f64) -> Self {
        DecapValue { c, esr, esl }
    }

    /// The typical 100 nF X7R ceramic (30 mΩ ESR, 1.2 nH ESL) — matches
    /// [`DecapSpec::ceramic_100nf`].
    pub fn ceramic_100nf() -> Self {
        DecapValue {
            c: 100e-9,
            esr: 0.03,
            esl: 1.2e-9,
        }
    }

    /// Materializes this value at a mounting location.
    pub fn at(&self, location: pdn_geom::Point) -> DecapSpec {
        DecapSpec {
            location,
            c: self.c,
            esr: self.esr,
            esl: self.esl,
        }
    }
}

impl Default for DecapValue {
    /// The 100 nF ceramic.
    fn default() -> Self {
        DecapValue::ceramic_100nf()
    }
}

/// One variant in a scenario batch: everything a what-if study may vary
/// without touching the plane extraction.
///
/// Unset options inherit the base board's values, so
/// `Scenario::switching(n)` alone reproduces the plain
/// `build(selection, n)` study.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Simultaneously switching drivers per chip.
    pub switching: usize,
    /// Decap population as `(site index, value)` pairs over the board's
    /// site plan. `None` keeps the base board's own decaps.
    pub decaps: Option<Vec<(usize, DecapValue)>>,
    /// Supply voltage override (V).
    pub vcc: Option<f64>,
    /// Multiplier on every chip's driver on-resistance (process corner).
    pub r_on_scale: f64,
    /// Multiplier on every chip's driver load capacitance (load sweep).
    pub load_scale: f64,
    /// Gate-drive waveform override applied to every chip.
    pub data: Option<Waveform>,
}

impl Scenario {
    /// A scenario that only sets the switching-driver count.
    pub fn switching(switching: usize) -> Self {
        Scenario {
            switching,
            decaps: None,
            vcc: None,
            r_on_scale: 1.0,
            load_scale: 1.0,
            data: None,
        }
    }

    /// Replaces the decap population with `(site index, value)` pairs
    /// (builder style). An empty list depopulates every site.
    pub fn with_decaps(mut self, decaps: Vec<(usize, DecapValue)>) -> Self {
        self.decaps = Some(decaps);
        self
    }

    /// Overrides the supply voltage (builder style).
    pub fn with_vcc(mut self, vcc: f64) -> Self {
        self.vcc = Some(vcc);
        self
    }

    /// Scales every chip's driver on-resistance (builder style).
    pub fn with_r_on_scale(mut self, scale: f64) -> Self {
        self.r_on_scale = scale;
        self
    }

    /// Scales every chip's driver load capacitance (builder style).
    pub fn with_load_scale(mut self, scale: f64) -> Self {
        self.load_scale = scale;
        self
    }

    /// Overrides every chip's gate-drive waveform (builder style).
    pub fn with_data(mut self, data: Waveform) -> Self {
        self.data = Some(data);
        self
    }

    /// Materializes this scenario as a stand-alone [`BoardSpec`].
    ///
    /// The returned board pins the base board's full site plan as declared
    /// [`decap sites`](BoardSpec::decap_sites), so building it from
    /// scratch extracts the *identical* port layout a [`ScenarioBatch`]
    /// shares — this is what makes batched and rebuilt results
    /// bit-identical, and it is the board the batch itself wires.
    ///
    /// # Errors
    ///
    /// Returns [`BuildBoardError::Wiring`] when a decap references a site
    /// index outside the board's site plan.
    pub fn apply_to(&self, board: &BoardSpec) -> Result<BoardSpec, BuildBoardError> {
        let mut b = board.clone();
        b.decap_sites = board.site_plan();
        if let Some(decaps) = &self.decaps {
            let mut placed = Vec::with_capacity(decaps.len());
            for &(site, value) in decaps {
                let location = *b.decap_sites.get(site).ok_or_else(|| {
                    BuildBoardError::Wiring(format!(
                        "scenario decap site index {site} out of range ({} sites declared)",
                        b.decap_sites.len()
                    ))
                })?;
                placed.push(value.at(location));
            }
            b.decaps = placed;
        }
        if let Some(vcc) = self.vcc {
            b.vcc = vcc;
        }
        for chip in &mut b.chips {
            chip.r_on *= self.r_on_scale;
            chip.load_c *= self.load_scale;
            if let Some(data) = &self.data {
                chip.data = data.clone();
            }
        }
        Ok(b)
    }
}

/// Error from a scenario batch, with the failing scenario's index
/// attached. When several scenarios fail, the lowest index is reported,
/// independent of worker scheduling.
#[derive(Debug)]
pub enum ScenarioBatchError {
    /// The request was malformed before any extraction or scenario work
    /// started (empty scenario list, model/board layout mismatch).
    InvalidInput(String),
    /// The one-time plane extraction failed (no scenario involved).
    Extraction(BuildBoardError),
    /// Applying or wiring scenario `index` failed.
    Build {
        /// Index into the scenario list.
        index: usize,
        /// The underlying build failure.
        source: BuildBoardError,
    },
    /// The transient run of scenario `index` failed.
    Simulation {
        /// Index into the scenario list.
        index: usize,
        /// The underlying simulation failure.
        source: SimulateCircuitError,
    },
}

impl fmt::Display for ScenarioBatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioBatchError::InvalidInput(msg) => write!(f, "invalid batch request: {msg}"),
            ScenarioBatchError::Extraction(e) => write!(f, "shared extraction: {e}"),
            ScenarioBatchError::Build { index, source } => {
                write!(f, "scenario {index}: {source}")
            }
            ScenarioBatchError::Simulation { index, source } => {
                write!(f, "scenario {index}: {source}")
            }
        }
    }
}

impl Error for ScenarioBatchError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ScenarioBatchError::InvalidInput(_) => None,
            ScenarioBatchError::Extraction(e) => Some(e),
            ScenarioBatchError::Build { source, .. } => Some(source),
            ScenarioBatchError::Simulation { source, .. } => Some(source),
        }
    }
}

/// A batch engine: one shared plane extraction, N scenario runs.
///
/// Construction performs the expensive mesh → BEM → reduction flow once;
/// [`run`](ScenarioBatch::run) then wires and simulates each scenario
/// against the shared [`ExtractedModel`]. See the [module
/// docs](self) for the exactness and determinism guarantees.
///
/// The model is held behind an [`Arc`], so any number of batches (and
/// clones of a batch) can share one extraction without copying its
/// matrices.
#[derive(Debug, Clone)]
pub struct ScenarioBatch {
    board: BoardSpec,
    model: Arc<ExtractedModel>,
}

impl ScenarioBatch {
    /// Extracts the shared plane macromodel for `board`.
    ///
    /// The board's [site plan](BoardSpec::site_plan) is pinned as declared
    /// sites, so every scenario — populated or not — sees one port per
    /// candidate mounting location.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioBatchError::Extraction`] when the flow fails.
    pub fn new(board: &BoardSpec, selection: &NodeSelection) -> Result<Self, ScenarioBatchError> {
        let mut board = board.clone();
        board.decap_sites = board.site_plan();
        let model = board
            .extract_model(selection)
            .map_err(ScenarioBatchError::Extraction)?;
        Ok(ScenarioBatch {
            board,
            model: Arc::new(model),
        })
    }

    /// Builds a batch around an already-extracted model — the cache-hit
    /// path of `pdn-service`: a model restored from disk (or shared by
    /// another batch) skips the mesh → BEM → reduction flow entirely.
    ///
    /// The model may be passed owned or as an `Arc<ExtractedModel>`; an
    /// `Arc` is adopted as is, so a cached model is shared, never copied.
    ///
    /// The board's [site plan](BoardSpec::site_plan) is pinned exactly as
    /// [`new`](ScenarioBatch::new) would, then the model's port layout is
    /// checked against it so a stale or mismatched model fails here, not
    /// as a silent mis-stamp deep inside wiring.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioBatchError::InvalidInput`] when the model does
    /// not fit the board ([`ExtractedModel::check_fits`]): its supply
    /// point, chip locations or sites differ from the board's, or its
    /// port table or reduced model has the wrong number of ports.
    pub fn with_model(
        board: &BoardSpec,
        model: impl Into<Arc<ExtractedModel>>,
    ) -> Result<Self, ScenarioBatchError> {
        let model = model.into();
        let mut board = board.clone();
        board.decap_sites = board.site_plan();
        model
            .check_fits(&board)
            .map_err(ScenarioBatchError::InvalidInput)?;
        Ok(ScenarioBatch { board, model })
    }

    /// The shared extracted macromodel.
    pub fn model(&self) -> &ExtractedModel {
        &self.model
    }

    /// The base board (site plan pinned) that scenarios are applied to.
    pub fn board(&self) -> &BoardSpec {
        &self.board
    }

    /// Wires one scenario's system around the shared model without
    /// running it.
    ///
    /// # Errors
    ///
    /// Returns [`BuildBoardError`] when the scenario is invalid (bad site
    /// index) or the wiring fails.
    pub fn wire(&self, scenario: &Scenario) -> Result<BoardSystem, BuildBoardError> {
        let board = scenario.apply_to(&self.board)?;
        board.wire(&self.model, scenario.switching)
    }

    /// Wires and simulates every scenario, returning outcomes in scenario
    /// order.
    ///
    /// One [`pdn_num::parallel`] task per scenario wires its system and
    /// runs its transient, so each scenario factors its own MNA matrices.
    /// Results are bit-identical for any `PDN_THREADS` setting and
    /// bit-identical to building each scenario's board from scratch.
    /// Every scenario runs even when another fails.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioBatchError::InvalidInput`] for an empty scenario
    /// list (an easy symptom of a caller-side filtering bug — loudly
    /// rejected rather than silently returning zero outcomes). Otherwise
    /// returns the error of the lowest-index failing scenario, with that
    /// index attached: [`ScenarioBatchError::Build`] when its wiring
    /// failed, [`ScenarioBatchError::Simulation`] when its transient did.
    pub fn run(
        &self,
        scenarios: &[Scenario],
        t_stop: f64,
        dt: f64,
    ) -> Result<Vec<SsnOutcome>, ScenarioBatchError> {
        if scenarios.is_empty() {
            return Err(ScenarioBatchError::InvalidInput(
                "scenario list is empty; a batch needs at least one scenario to run".into(),
            ));
        }
        pdn_num::parallel::try_par_map_indexed(scenarios.len(), |index| {
            self.wire(&scenarios[index])
                .map_err(|source| ScenarioBatchError::Build { index, source })?
                .run(t_stop, dt)
                .map_err(|source| ScenarioBatchError::Simulation { index, source })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cosim::ChipSpec;
    use crate::flow::PlaneSpec;
    use pdn_geom::units::mm;
    use pdn_geom::Point;

    fn base_board() -> BoardSpec {
        let plane = PlaneSpec::rectangle(mm(40.0), mm(30.0), 0.5e-3, 4.5)
            .unwrap()
            .with_sheet_resistance(1e-3)
            .with_cell_size(mm(5.0));
        BoardSpec::new(plane, 3.3, Point::new(mm(2.0), mm(2.0)))
            .with_chip(ChipSpec::cmos("U1", Point::new(mm(30.0), mm(20.0)), 4))
            .with_decap_site(Point::new(mm(28.0), mm(20.0)))
            .with_decap_site(Point::new(mm(10.0), mm(25.0)))
    }

    fn sel() -> NodeSelection {
        NodeSelection::PortsAndGrid { stride: 3 }
    }

    #[test]
    fn errors_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<ScenarioBatchError>();
        assert_send::<BuildBoardError>();
    }

    #[test]
    fn empty_scenario_list_rejected() {
        let batch = ScenarioBatch::new(&base_board(), &sel()).unwrap();
        let err = batch.run(&[], 5e-9, 0.1e-9).unwrap_err();
        match err {
            ScenarioBatchError::InvalidInput(msg) => {
                assert!(msg.contains("empty"), "got: {msg}");
            }
            other => panic!("expected InvalidInput, got {other}"),
        }
    }

    #[test]
    fn with_model_reuses_extraction_and_rejects_mismatch() {
        let board = base_board();
        let fresh = ScenarioBatch::new(&board, &sel()).unwrap();
        let adopted = ScenarioBatch::with_model(&board, fresh.model().clone()).unwrap();
        let scenarios = [Scenario::switching(2)];
        assert_eq!(
            fresh.run(&scenarios, 5e-9, 0.1e-9).unwrap(),
            adopted.run(&scenarios, 5e-9, 0.1e-9).unwrap(),
            "adopted model wires bit-identical systems"
        );
        let mut moved = board.clone();
        moved.supply_location = Point::new(mm(3.0), mm(3.0));
        match ScenarioBatch::with_model(&moved, fresh.model().clone()).unwrap_err() {
            ScenarioBatchError::InvalidInput(msg) => {
                assert!(msg.contains("supply locations"), "got: {msg}");
            }
            other => panic!("expected InvalidInput, got {other}"),
        }
        let trimmed = {
            let mut b = board.clone();
            b.decap_sites.pop();
            b
        };
        match ScenarioBatch::with_model(&trimmed, fresh.model().clone()).unwrap_err() {
            ScenarioBatchError::InvalidInput(msg) => {
                assert!(msg.contains("site plans"), "got: {msg}");
            }
            other => panic!("expected InvalidInput, got {other}"),
        }
    }

    #[test]
    fn batches_adopted_from_one_arc_share_it_and_match_new() {
        let board = base_board();
        let fresh = ScenarioBatch::new(&board, &sel()).unwrap();
        let shared = Arc::new(board.extract_model(&sel()).unwrap());
        let a = ScenarioBatch::with_model(&board, Arc::clone(&shared)).unwrap();
        let b = ScenarioBatch::with_model(&board, Arc::clone(&shared)).unwrap();
        assert!(std::ptr::eq(a.model(), b.model()), "one model, not copies");
        assert!(std::ptr::eq(a.model(), &*shared));
        let scenarios = [
            Scenario::switching(3),
            Scenario::switching(1).with_decaps(vec![(1, DecapValue::ceramic_100nf())]),
        ];
        let bits = |outs: &[SsnOutcome]| -> Vec<u64> {
            outs.iter()
                .flat_map(|o| {
                    [
                        &o.time,
                        &o.rail_noise,
                        &o.per_chip_peak,
                        &o.driver_output,
                        &o.supply_current,
                    ]
                    .into_iter()
                    .flatten()
                    .chain([&o.peak_noise, &o.plane_noise_peak])
                    .map(|x| x.to_bits())
                })
                .collect()
        };
        let want = bits(&fresh.run(&scenarios, 5e-9, 0.1e-9).unwrap());
        for batch in [&a, &b] {
            let got = bits(&batch.run(&scenarios, 5e-9, 0.1e-9).unwrap());
            assert_eq!(
                got, want,
                "adopted batch bit-identical to ScenarioBatch::new"
            );
        }
    }

    #[test]
    fn batch_matches_scratch_build_exactly() {
        let board = base_board();
        let batch = ScenarioBatch::new(&board, &sel()).unwrap();
        let scenarios = vec![
            Scenario::switching(4),
            Scenario::switching(4).with_decaps(vec![(0, DecapValue::ceramic_100nf())]),
            Scenario::switching(2).with_vcc(3.0),
        ];
        let batched = batch.run(&scenarios, 10e-9, 0.1e-9).unwrap();
        for (s, b) in scenarios.iter().zip(&batched) {
            let scratch = s
                .apply_to(&board)
                .unwrap()
                .build(&sel(), s.switching)
                .unwrap()
                .run(10e-9, 0.1e-9)
                .unwrap();
            assert_eq!(*b, scratch, "batched result bit-identical to rebuild");
        }
    }

    #[test]
    fn populated_site_reduces_plane_noise() {
        let batch = ScenarioBatch::new(&base_board(), &sel()).unwrap();
        let outs = batch
            .run(
                &[
                    Scenario::switching(4),
                    Scenario::switching(4).with_decaps(vec![(0, DecapValue::ceramic_100nf())]),
                ],
                20e-9,
                0.05e-9,
            )
            .unwrap();
        assert!(
            outs[1].plane_noise_peak < 0.8 * outs[0].plane_noise_peak,
            "decap suppresses plane noise: {} vs {}",
            outs[1].plane_noise_peak,
            outs[0].plane_noise_peak
        );
    }

    #[test]
    fn bad_site_index_reports_scenario_index() {
        let batch = ScenarioBatch::new(&base_board(), &sel()).unwrap();
        let scenarios = vec![
            Scenario::switching(1),
            Scenario::switching(1).with_decaps(vec![(7, DecapValue::ceramic_100nf())]),
        ];
        let err = batch.run(&scenarios, 5e-9, 0.1e-9).unwrap_err();
        match err {
            ScenarioBatchError::Build { index, source } => {
                assert_eq!(index, 1);
                assert!(source.to_string().contains("site index 7 out of range"));
            }
            other => panic!("expected Build error, got {other}"),
        }
    }

    #[test]
    fn extraction_failure_surfaces_from_new() {
        // Supply port far off the conductor: the board-level layout
        // validation rejects it during the one-time extraction, before
        // any scenario exists.
        let mut board = base_board();
        board.supply_location = Point::new(mm(500.0), mm(500.0));
        let err = ScenarioBatch::new(&board, &sel()).unwrap_err();
        match err {
            ScenarioBatchError::Extraction(BuildBoardError::InvalidInput(msg)) => {
                assert!(msg.contains("outside"), "{msg}");
            }
            other => panic!("expected InvalidInput error, got {other}"),
        }
    }

    #[test]
    fn lowest_failing_scenario_index_wins() {
        // Scenarios 1 and 2 both reference invalid sites; the reported
        // index must be 1 (the lowest), independent of worker scheduling.
        let batch = ScenarioBatch::new(&base_board(), &sel()).unwrap();
        let scenarios = vec![
            Scenario::switching(1),
            Scenario::switching(1).with_decaps(vec![(9, DecapValue::ceramic_100nf())]),
            Scenario::switching(1).with_decaps(vec![(8, DecapValue::ceramic_100nf())]),
        ];
        for _ in 0..3 {
            match batch.run(&scenarios, 5e-9, 0.1e-9).unwrap_err() {
                ScenarioBatchError::Build { index, source } => {
                    assert_eq!(index, 1);
                    assert!(source.to_string().contains("site index 9"));
                }
                other => panic!("expected Build error, got {other}"),
            }
        }
    }

    #[test]
    fn simulation_failure_carries_scenario_index() {
        // A transmission line whose modal delay is shorter than dt makes
        // the transient spec invalid for every scenario; index 0 (the
        // lowest) must be reported.
        let board = base_board();
        let chip = ChipSpec::cmos("U2", Point::new(mm(15.0), mm(10.0)), 1)
            .with_line(crate::cosim::SignalLineSpec::z50(0.001));
        let board = board.with_chip(chip);
        let batch = ScenarioBatch::new(&board, &sel()).unwrap();
        let scenarios = vec![Scenario::switching(1), Scenario::switching(0)];
        let err = batch.run(&scenarios, 20e-9, 1e-9).unwrap_err();
        match err {
            ScenarioBatchError::Simulation { index, .. } => assert_eq!(index, 0),
            other => panic!("expected Simulation error, got {other}"),
        }
    }

    #[test]
    fn simulation_error_below_a_build_error_wins() {
        // Scenario 0 wires but fails its transient (dt exceeds the line
        // delay); scenario 1 fails wiring (site 7 does not exist). The
        // lowest failing index is reported, whichever stage failed.
        let chip = ChipSpec::cmos("U2", Point::new(mm(15.0), mm(10.0)), 1)
            .with_line(crate::cosim::SignalLineSpec::z50(0.001));
        let batch = ScenarioBatch::new(&base_board().with_chip(chip), &sel()).unwrap();
        let scenarios = vec![
            Scenario::switching(1),
            Scenario::switching(1).with_decaps(vec![(7, DecapValue::ceramic_100nf())]),
        ];
        match batch.run(&scenarios, 20e-9, 1e-9).unwrap_err() {
            ScenarioBatchError::Simulation { index, source } => {
                assert_eq!(index, 0);
                assert!(source.to_string().contains("line modal delay"), "{source}");
            }
            other => panic!("expected Simulation error for scenario 0, got {other}"),
        }
    }

    #[test]
    fn identical_structures_run_independently() {
        // Two waveform-pattern variants with identical decap population
        // and switching count stamp identical matrices; each runs its own
        // transient and gets its own (different) waveforms.
        let batch = ScenarioBatch::new(&base_board(), &sel()).unwrap();
        let alt = Waveform::pulse(0.0, 1.0, 4e-9, 1e-9, 1e-9, 8e-9);
        let outs = batch
            .run(
                &[
                    Scenario::switching(4),
                    Scenario::switching(4).with_data(alt),
                ],
                10e-9,
                0.1e-9,
            )
            .unwrap();
        assert_ne!(
            outs[0].rail_noise, outs[1].rail_noise,
            "different drive patterns give different waveforms"
        );
    }
}
