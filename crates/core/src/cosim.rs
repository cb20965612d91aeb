//! Four-subsystem co-simulation (paper Section 5.2, Figure 3).
//!
//! A completely designed digital board is partitioned into chip devices
//! (behavioral CMOS drivers), chip packages (pin R/L/C parasitics), signal
//! nets (transmission lines), and the power/ground planes (the extracted
//! R–L‖C macromodel). [`BoardSpec::build`] wires all four into a single
//! MNA netlist; every power/ground pin is a node of the equivalent
//! circuit, so the switching currents act directly as excitations on the
//! distributed planes and the resulting noise feeds back into the devices
//! — the paper's dynamic interaction, achieved here by solving the
//! combined system.
//!
//! # The extract-once / stamp-many split
//!
//! The expensive half of [`BoardSpec::build`] — meshing the plane and
//! solving the dense BEM system — depends only on the board geometry and
//! the *port layout* (supply point, chip power pins, decap mounting
//! sites). Everything a what-if study varies — which decaps are populated,
//! how many drivers switch, driver corners, supply level — only changes
//! the cheap circuit stamped *around* that macromodel. `build` is
//! therefore split in two:
//!
//! 1. [`BoardSpec::extract_model`] → [`ExtractedModel`]: the
//!    scenario-invariant plane macromodel plus the port-layout bookkeeping
//!    (one port per chip and per declared decap site, populated or not);
//! 2. [`BoardSpec::wire`]: re-stamps the full system netlist around a
//!    shared `ExtractedModel` in milliseconds.
//!
//! [`BoardSpec::build`] is exactly `extract_model` + `wire`, and
//! [`crate::scenario::ScenarioBatch`] amortizes one `extract_model` over N
//! wired scenario variants. Declare candidate mounting sites with
//! [`BoardSpec::with_decap_site`] so every scenario (and the from-scratch
//! rebuild path) sees the identical port layout, making batched and
//! rebuilt results bit-identical.

use crate::flow::{ExtractPlaneError, ExtractedPlane, PlaneSpec};
use pdn_circuit::netlist::SourceId;
use pdn_circuit::{
    Circuit, CoupledLineModel, NodeId, SimulateCircuitError, TransientSpec, Waveform,
};
use pdn_extract::{NodeSelection, RomSpec};
use pdn_geom::{PlaneMesh, Point};
use pdn_num::{Matrix, PoleResidueModel};
use pdn_shard::{ShardPlan, ShardReport, ShardedExtraction};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// How [`BoardSpec::extract_model`] turns the plane into a macromodel.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum ExtractionStrategy {
    /// One dense BEM system for the whole plane (the default).
    #[default]
    Monolithic,
    /// Domain-decomposed extraction: split the plane along the plan's cut
    /// lines, extract each region independently in parallel, and compose
    /// through interface ports (see [`pdn_shard`] and `docs/SHARDING.md`
    /// for the accuracy contract). Scenario batching, decap optimization,
    /// and rational sweeps run unchanged on the composed model.
    Sharded {
        /// Where to cut the board.
        plan: ShardPlan,
    },
}

/// A signal net driven by one of a chip's drivers: a single transmission
/// line to a far-end load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SignalLineSpec {
    /// Per-unit-length inductance (H/m).
    pub l_per_m: f64,
    /// Per-unit-length capacitance (F/m).
    pub c_per_m: f64,
    /// Physical length (m).
    pub length: f64,
    /// Far-end load resistance (Ω).
    pub r_load: f64,
}

impl SignalLineSpec {
    /// A 50 Ω line with the given delay-per-meter velocity and length.
    pub fn z50(length: f64) -> Self {
        let v = 1.5e8; // typical FR4 stripline velocity
        SignalLineSpec {
            l_per_m: 50.0 / v,
            c_per_m: 1.0 / (50.0 * v),
            length,
            r_load: 50.0,
        }
    }

    /// Smallest modal delay (s) — the transient step must stay below it.
    pub fn delay(&self) -> f64 {
        self.length * (self.l_per_m * self.c_per_m).sqrt()
    }
}

/// A chip: several CMOS output drivers behind package pin parasitics.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipSpec {
    /// Instance name (also used for plane port naming).
    pub name: String,
    /// Location of the chip's power pins on the plane.
    pub location: Point,
    /// Number of output drivers.
    pub drivers: usize,
    /// Driver output-stage on-resistance (Ω).
    pub r_on: f64,
    /// Lumped load capacitance per driver output (F).
    pub load_c: f64,
    /// Package pin series resistance (Ω).
    pub pin_r: f64,
    /// Package pin series inductance (H).
    pub pin_l: f64,
    /// Package pin shunt capacitance (F).
    pub pin_c: f64,
    /// Number of parallel Vcc/Gnd pin pairs feeding the die (large parts
    /// spread the switching current over many power pins).
    pub power_pin_pairs: usize,
    /// Gate drive waveform in `[0, 1]` applied to switching drivers.
    pub data: Waveform,
    /// Optional signal net per driver output.
    pub line: Option<SignalLineSpec>,
}

impl ChipSpec {
    /// A CMOS output-buffer bank with typical QFP-class packaging:
    /// `R_on = 15 Ω`, 30 pF loads, 5 nH / 0.5 Ω / 1 pF pins (one Vcc/Gnd
    /// pin pair per four drivers), and a 1 ns-edge switching pattern.
    pub fn cmos(name: impl Into<String>, location: Point, drivers: usize) -> Self {
        ChipSpec {
            name: name.into(),
            location,
            drivers,
            r_on: 15.0,
            load_c: 30e-12,
            pin_r: 0.5,
            pin_l: 5e-9,
            pin_c: 1e-12,
            power_pin_pairs: drivers.div_ceil(4).max(1),
            data: Waveform::pulse(0.0, 1.0, 2e-9, 1e-9, 1e-9, 8e-9),
            line: None,
        }
    }

    /// Sets the gate drive waveform (builder style).
    pub fn with_data(mut self, data: Waveform) -> Self {
        self.data = data;
        self
    }

    /// Sets the driver edge on-resistance (builder style).
    pub fn with_r_on(mut self, r_on: f64) -> Self {
        self.r_on = r_on;
        self
    }

    /// Attaches a signal line to every driver output (builder style).
    pub fn with_line(mut self, line: SignalLineSpec) -> Self {
        self.line = Some(line);
        self
    }
}

/// A decoupling capacitor placed on the plane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecapSpec {
    /// Mounting location.
    pub location: Point,
    /// Capacitance (F).
    pub c: f64,
    /// Equivalent series resistance (Ω).
    pub esr: f64,
    /// Equivalent series inductance (H).
    pub esl: f64,
}

impl DecapSpec {
    /// A typical 100 nF X7R ceramic: 30 mΩ ESR, 1.2 nH ESL.
    pub fn ceramic_100nf(location: Point) -> Self {
        DecapSpec {
            location,
            c: 100e-9,
            esr: 0.03,
            esl: 1.2e-9,
        }
    }
}

/// The complete board: plane + supply + chips + decoupling.
///
/// `PartialEq` compares every field exactly (bit-level on `f64`s) — two
/// equal boards extract and simulate bit-identically. For the coarser
/// *extraction* equivalence (same macromodel regardless of declaration
/// order or scenario-only fields), see
/// [`canonical_bytes`](BoardSpec::canonical_bytes).
#[derive(Debug, Clone, PartialEq)]
pub struct BoardSpec {
    /// The power/ground plane structure (ports are added automatically).
    pub plane: PlaneSpec,
    /// Supply voltage (V).
    pub vcc: f64,
    /// Voltage-regulator connection point on the plane.
    pub supply_location: Point,
    /// Supply series resistance (Ω).
    pub supply_r: f64,
    /// Supply series inductance (H) — bulk path.
    pub supply_l: f64,
    /// Chips on the board.
    pub chips: Vec<ChipSpec>,
    /// Decoupling capacitors.
    pub decaps: Vec<DecapSpec>,
    /// Declared decap mounting sites. Every site becomes a plane port
    /// whether or not a capacitor is populated there, so scenario studies
    /// over decap subsets share one extraction. When empty, each entry of
    /// `decaps` implicitly declares its own site (the historical
    /// behavior).
    pub decap_sites: Vec<Point>,
    /// Extraction strategy for the plane macromodel.
    pub extraction: ExtractionStrategy,
    /// Opt-in reduced-order plane model: when set,
    /// [`extract_model`](BoardSpec::extract_model) additionally fits a
    /// passive pole–residue macromodel of the plane's port admittance and
    /// [`wire`](BoardSpec::wire) stamps *that* (simulated by recursive
    /// convolution) instead of the full R–L‖C branch network.
    pub reduction: Option<RomSpec>,
}

impl BoardSpec {
    /// Creates a board around an (un-ported) plane spec.
    pub fn new(plane: PlaneSpec, vcc: f64, supply_location: Point) -> Self {
        BoardSpec {
            plane,
            vcc,
            supply_location,
            supply_r: 0.01,
            supply_l: 10e-9,
            chips: Vec::new(),
            decaps: Vec::new(),
            decap_sites: Vec::new(),
            extraction: ExtractionStrategy::Monolithic,
            reduction: None,
        }
    }

    /// Sets the plane extraction strategy (builder style). Pass
    /// [`ExtractionStrategy::Sharded`] to opt a large board into
    /// domain-decomposed extraction.
    pub fn with_extraction_strategy(mut self, strategy: ExtractionStrategy) -> Self {
        self.extraction = strategy;
        self
    }

    /// Opts the board into a reduced-order plane model (builder style):
    /// after extraction, the port admittance of the as-stamped macromodel
    /// is fitted into a certified passive pole–residue form, and
    /// transient runs simulate it by recursive convolution — per-step
    /// cost scales with `ports × poles` instead of the macromodel node
    /// count. Scenario batching, decap optimization, and switching sweeps
    /// consume the reduced model unchanged. See `docs/ROM.md` for the
    /// accuracy contract.
    pub fn with_reduced_order(mut self, spec: RomSpec) -> Self {
        self.reduction = Some(spec);
        self
    }

    /// Adds a chip (builder style).
    pub fn with_chip(mut self, chip: ChipSpec) -> Self {
        self.chips.push(chip);
        self
    }

    /// Adds a decoupling capacitor (builder style).
    pub fn with_decap(mut self, decap: DecapSpec) -> Self {
        self.decaps.push(decap);
        self
    }

    /// Declares a decap mounting site (builder style). The site is ported
    /// in the extraction even while unpopulated.
    pub fn with_decap_site(mut self, location: Point) -> Self {
        self.decap_sites.push(location);
        self
    }

    /// The effective decap site plan: the declared sites, or — when none
    /// are declared — one implicit site per placed decap.
    pub fn site_plan(&self) -> Vec<Point> {
        if self.decap_sites.is_empty() {
            self.decaps.iter().map(|d| d.location).collect()
        } else {
            self.decap_sites.clone()
        }
    }

    /// The canonical byte encoding of everything
    /// [`extract_model`](BoardSpec::extract_model) depends on — and
    /// *nothing* it does not.
    ///
    /// The `pdn-service` extraction cache hashes these bytes to decide
    /// whether two boards share one extraction, so the encoding obeys two
    /// rules:
    ///
    /// * **Scenario-invariant inputs only.** Geometry, stackup, loss,
    ///   mesh pitch, BEM options, the port layout (supply point, chip
    ///   power-pin locations, the [site plan](BoardSpec::site_plan)), the
    ///   extraction strategy, and the reduced-order spec are included.
    ///   Everything a [`crate::scenario::Scenario`] may vary — `vcc`,
    ///   supply R/L, chip electrical parameters and waveforms, which
    ///   decaps are populated and their values — is excluded.
    /// * **Order-normalized, bit-exact.** Plane ports, chips, and decap
    ///   sites are sorted (by name, then location bits) before encoding,
    ///   so *declaration order never changes the bytes*; every `f64` is
    ///   encoded via its IEEE-754 bits, so any material edit — however
    ///   small — does. Chip names are included (they name plane ports);
    ///   chip electrical fields are not.
    ///
    /// Note the normalization means two boards with the same content but
    /// different declaration orders hash alike even though their
    /// extracted port *tables* list ports in different orders — the cache
    /// layers a layout signature on top; see `docs/SERVICE.md`.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut w = pdn_num::ByteWriter::new();
        let put_point = |w: &mut pdn_num::ByteWriter, p: &Point| {
            w.put_f64(p.x);
            w.put_f64(p.y);
        };
        // Format tag, bumped if the canonical encoding ever changes
        // (old cache entries then simply miss).
        w.put_u32(1);
        self.plane.write_canonical(&mut w);
        put_point(&mut w, &self.supply_location);
        let mut chips: Vec<(&str, Point)> = self
            .chips
            .iter()
            .map(|c| (c.name.as_str(), c.location))
            .collect();
        chips.sort_by(|a, b| {
            (a.0, a.1.x.to_bits(), a.1.y.to_bits()).cmp(&(b.0, b.1.x.to_bits(), b.1.y.to_bits()))
        });
        w.put_usize(chips.len());
        for (name, p) in chips {
            w.put_str(name);
            put_point(&mut w, &p);
        }
        let mut sites = self.site_plan();
        sites.sort_by_key(|p| (p.x.to_bits(), p.y.to_bits()));
        w.put_usize(sites.len());
        for p in &sites {
            put_point(&mut w, p);
        }
        match &self.extraction {
            ExtractionStrategy::Monolithic => w.put_u8(0),
            ExtractionStrategy::Sharded { plan } => {
                w.put_u8(1);
                w.put_f64_slice(plan.x_cuts());
                w.put_f64_slice(plan.y_cuts());
                match plan.grid_dims() {
                    None => w.put_u8(0),
                    Some((nx, ny)) => {
                        w.put_u8(1);
                        w.put_usize(nx);
                        w.put_usize(ny);
                    }
                }
            }
        }
        match &self.reduction {
            None => w.put_u8(0),
            Some(spec) => {
                w.put_u8(1);
                w.put_f64(spec.f_min);
                w.put_f64(spec.f_max);
                w.put_usize(spec.points);
                w.put_f64(spec.rel_tol);
                w.put_f64(spec.cert_tol);
            }
        }
        w.into_bytes()
    }

    /// Extracts the scenario-invariant plane macromodel: ports the plane
    /// (supply + one power port per chip + one per decap site) and runs
    /// the mesh → BEM → reduction flow.
    ///
    /// This is the expensive half of [`build`](BoardSpec::build); the
    /// result can be shared across every scenario wired from boards that
    /// keep the same plane, supply point, chip locations, and site plan.
    ///
    /// The board's [`ExtractionStrategy`] picks the flow: one dense BEM
    /// system, or the sharded region-by-region composition.
    ///
    /// # Errors
    ///
    /// Returns [`BuildBoardError::InvalidInput`] when a port or decap
    /// site lies outside the plane outline or two supply/chip ports land
    /// on the same mesh cell, and [`BuildBoardError::Extraction`] when
    /// the extraction flow itself fails.
    pub fn extract_model(
        &self,
        selection: &NodeSelection,
    ) -> Result<ExtractedModel, BuildBoardError> {
        let sites = self.site_plan();
        let mut ports: Vec<(String, Point)> = vec![("VRM".to_string(), self.supply_location)];
        for chip in &self.chips {
            ports.push((format!("{}_vcc", chip.name), chip.location));
        }
        let site_ports: Vec<(String, Point)> = sites
            .iter()
            .enumerate()
            .map(|(k, site)| (format!("decap{k}"), *site))
            .collect();
        self.validate_port_layout(&ports, &site_ports)?;
        let mut plane = self.plane.clone();
        for (name, p) in ports.iter().chain(&site_ports) {
            plane = plane.with_port(name.clone(), p.x, p.y);
        }
        let model = match &self.extraction {
            ExtractionStrategy::Monolithic => {
                PlaneModel::Monolithic(Box::new(plane.extract(selection)?))
            }
            ExtractionStrategy::Sharded { plan } => {
                PlaneModel::Sharded(Box::new(plane.extract_sharded(plan, selection)?))
            }
        };
        let model = match &self.reduction {
            Some(spec) => {
                let rom = model
                    .equivalent()
                    .reduce_order(spec)
                    .map_err(|e| BuildBoardError::Extraction(ExtractPlaneError::Extraction(e)))?;
                PlaneModel::Reduced {
                    base: Box::new(model),
                    rom: Arc::new(rom),
                }
            }
            None => model,
        };
        Ok(ExtractedModel {
            plane: model,
            supply_location: self.supply_location,
            chip_locations: self.chips.iter().map(|c| c.location).collect(),
            sites,
        })
    }

    /// Checks the board's port layout against the plane outline before
    /// the expensive extraction. Every named location (supply, chip power
    /// pins, decap sites, plus any port already on the plane spec) must
    /// land on a mesh cell. Supply/chip/plane ports must additionally not
    /// share a cell — overlapping footprints would silently short two
    /// distinct injection points into one node. Decap sites are exempt
    /// from the overlap check: a capacitor mounted right at a supply pin
    /// (or two capacitors on one pad) is a legitimate layout, and the
    /// site simply connects at that port's node.
    fn validate_port_layout(
        &self,
        ports: &[(String, Point)],
        sites: &[(String, Point)],
    ) -> Result<(), BuildBoardError> {
        let mesh = PlaneMesh::build_multi(self.plane.shapes(), self.plane.cell_size())
            .map_err(|e| BuildBoardError::Extraction(ExtractPlaneError::Mesh(e)))?;
        let snap = |name: &str, p: &Point| {
            mesh.cell_at(*p).ok_or_else(|| {
                BuildBoardError::InvalidInput(format!(
                    "port '{name}' at ({:.4e}, {:.4e}) lies outside the plane outline",
                    p.x, p.y
                ))
            })
        };
        let mut taken: Vec<(usize, &str)> = Vec::new();
        for (name, p) in self.plane.ports().iter().chain(ports) {
            let cell = snap(name, p)?;
            if let Some((_, first)) = taken.iter().find(|(c, _)| *c == cell) {
                return Err(BuildBoardError::InvalidInput(format!(
                    "ports '{first}' and '{name}' overlap: both snap to the mesh cell \
                     at ({:.4e}, {:.4e}) (cell size {:.4e})",
                    mesh.cell_center(cell).x,
                    mesh.cell_center(cell).y,
                    self.plane.cell_size()
                )));
            }
            taken.push((cell, name.as_str()));
        }
        for (name, p) in sites {
            snap(name, p)?;
        }
        Ok(())
    }

    /// Extracts the plane macromodel and wires the full system netlist.
    ///
    /// `switching` drivers per chip (capped at each chip's driver count)
    /// receive the chip's data waveform; the rest idle low.
    ///
    /// Exactly equivalent to [`extract_model`](BoardSpec::extract_model)
    /// followed by [`wire`](BoardSpec::wire).
    ///
    /// # Errors
    ///
    /// Returns [`BuildBoardError`] when the extraction or wiring fails.
    pub fn build(
        &self,
        selection: &NodeSelection,
        switching: usize,
    ) -> Result<BoardSystem, BuildBoardError> {
        let model = self.extract_model(selection)?;
        self.wire(&model, switching)
    }

    /// Stamps the full system netlist around a shared extracted
    /// macromodel — the cheap, re-runnable half of
    /// [`build`](BoardSpec::build).
    ///
    /// # Errors
    ///
    /// Returns [`BuildBoardError::Wiring`] when the model's port layout
    /// does not match this board (different supply point, chip locations,
    /// or site plan; a decap placed off every declared site; a port table
    /// or reduced model whose port count differs from that layout), or
    /// when an element model is invalid (bad line parameters…).
    pub fn wire(
        &self,
        model: &ExtractedModel,
        switching: usize,
    ) -> Result<BoardSystem, BuildBoardError> {
        // 1. The model's port layout must be the one this board would
        //    extract: ports are matched positionally below.
        if model.supply_location != self.supply_location {
            return Err(BuildBoardError::Wiring(
                "extracted model was built for a different supply location".into(),
            ));
        }
        let chip_locations: Vec<Point> = self.chips.iter().map(|c| c.location).collect();
        if model.chip_locations != chip_locations {
            return Err(BuildBoardError::Wiring(
                "extracted model was built for different chip locations".into(),
            ));
        }
        if !self.decap_sites.is_empty() && model.sites != self.decap_sites {
            return Err(BuildBoardError::Wiring(
                "extracted model was built for a different decap site plan".into(),
            ));
        }
        // Map each populated decap onto its mounting site. With no
        // declared sites the decaps *are* the site plan (site k = decap
        // k); with declared sites, match by location.
        let mut decap_sites = Vec::with_capacity(self.decaps.len());
        for (k, d) in self.decaps.iter().enumerate() {
            let site = if self.decap_sites.is_empty() {
                if model.sites.get(k) != Some(&d.location) {
                    return Err(BuildBoardError::Wiring(
                        "extracted model was built for a different decap set".into(),
                    ));
                }
                k
            } else {
                model
                    .sites
                    .iter()
                    .position(|&s| s == d.location)
                    .ok_or_else(|| {
                        BuildBoardError::Wiring(format!(
                            "decap at ({:.4e}, {:.4e}) does not sit on any declared site",
                            d.location.x, d.location.y
                        ))
                    })?
            };
            decap_sites.push(site);
        }

        // The port table lists the plane spec's own ports first, then the
        // supply, one port per chip and one per site (`extract_model`).
        let eq = model.equivalent();
        let first = self.plane.ports().len();
        let expected = first + 1 + self.chips.len() + model.sites.len();
        if eq.port_count() != expected {
            return Err(BuildBoardError::Wiring(format!(
                "extracted model has {} ports but its layout names {expected}: \
                 {first} plane, 1 supply, {} chip and {} site ports",
                eq.port_count(),
                self.chips.len(),
                model.sites.len()
            )));
        }
        if let Some(rom) = model.reduced_model().filter(|rom| rom.ports() != expected) {
            return Err(BuildBoardError::Wiring(format!(
                "reduced model has {} ports but its layout names {expected}",
                rom.ports()
            )));
        }

        // 2. Stamp the macromodel into the netlist: the full R–L‖C branch
        //    network, or — when the model carries a reduction — one
        //    recursive-convolution block over the port nodes only.
        let mut ckt = Circuit::new();
        let (port_nodes, pdn_nodes) = match model.reduced_model() {
            Some(rom) => {
                let nodes: Vec<NodeId> = (0..eq.port_count())
                    .map(|p| ckt.node(format!("pg_{}", eq.node_names()[eq.port_node(p)])))
                    .collect();
                ckt.reduced_order_block(&nodes, rom.clone());
                (nodes, eq.port_count())
            }
            None => {
                let nodes = eq.to_circuit(&mut ckt, "pg_");
                let ports = (0..eq.port_count())
                    .map(|p| nodes[eq.port_node(p)])
                    .collect();
                (ports, eq.node_count())
            }
        };
        let port_node = |p: usize| port_nodes[first + p];

        // 3. Supply.
        let vrm_plane = port_node(0);
        let vrm_src = ckt.node("vrm_src");
        let supply = ckt.voltage_source(vrm_src, Circuit::GND, Waveform::dc(self.vcc));
        let mid = ckt.new_node();
        ckt.resistor(vrm_src, mid, self.supply_r.max(1e-6));
        ckt.inductor(mid, vrm_plane, self.supply_l.max(1e-15));

        // 4. Chips.
        let mut chip_rails = Vec::new();
        let mut chip_plane_nodes = Vec::new();
        let mut driver_outputs = Vec::new();
        let mut signal_nets = 0usize;
        let mut devices = 0usize;
        for (ci, chip) in self.chips.iter().enumerate() {
            let plane_node = port_node(1 + ci);
            chip_plane_nodes.push(plane_node);
            let die_vcc = ckt.node(format!("{}_die_vcc", chip.name));
            let die_gnd = ckt.node(format!("{}_die_gnd", chip.name));
            // Parallel power-pin pairs divide the package inductance and
            // resistance seen by the shared rail.
            let pairs = chip.power_pin_pairs.max(1) as f64;
            let (pr, pl, pc) = (chip.pin_r / pairs, chip.pin_l / pairs, chip.pin_c * pairs);
            ckt.package_pin(plane_node, die_vcc, pr, pl, pc);
            ckt.package_pin(Circuit::GND, die_gnd, pr, pl, pc);
            chip_rails.push(die_vcc);
            let mut outs = Vec::new();
            for d in 0..chip.drivers {
                let out = ckt.node(format!("{}_out{d}", chip.name));
                let data = if d < switching {
                    chip.data.clone()
                } else {
                    Waveform::dc(0.0)
                };
                ckt.cmos_driver(out, die_vcc, die_gnd, chip.r_on, data);
                devices += 1;
                match &chip.line {
                    Some(line) => {
                        let far = ckt.node(format!("{}_far{d}", chip.name));
                        let model = CoupledLineModel::new(
                            Matrix::from_rows(&[&[line.l_per_m]]),
                            Matrix::from_rows(&[&[line.c_per_m]]),
                            line.length,
                        )
                        .map_err(|e| BuildBoardError::Wiring(e.to_string()))?;
                        ckt.coupled_line(model, vec![out], vec![far]);
                        ckt.resistor(far, Circuit::GND, line.r_load);
                        if chip.load_c > 0.0 {
                            ckt.capacitor(far, Circuit::GND, chip.load_c);
                        }
                        signal_nets += 1;
                    }
                    None => {
                        if chip.load_c > 0.0 {
                            ckt.capacitor(out, Circuit::GND, chip.load_c);
                        }
                    }
                }
                outs.push(out);
            }
            driver_outputs.push(outs);
        }

        // 5. Decaps, each on its mapped mounting-site port.
        for (d, &site) in self.decaps.iter().zip(&decap_sites) {
            let plane_node = port_node(1 + self.chips.len() + site);
            ckt.decoupling_cap(plane_node, Circuit::GND, d.c, d.esr, d.esl);
        }

        Ok(BoardSystem {
            circuit: ckt,
            chip_rails,
            chip_plane_nodes,
            driver_outputs,
            vcc: self.vcc,
            supply,
            pdn_nodes,
            signal_nets,
            devices,
        })
    }
}

/// Error from building a board system.
#[derive(Debug)]
pub enum BuildBoardError {
    /// The board geometry is inconsistent before extraction even starts:
    /// a port or decap site off the plane outline, or two port footprints
    /// on the same mesh cell.
    InvalidInput(String),
    /// Plane extraction failed.
    Extraction(ExtractPlaneError),
    /// Netlist wiring failed (bad line parameters…).
    Wiring(String),
}

impl fmt::Display for BuildBoardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildBoardError::InvalidInput(s) => write!(f, "invalid board: {s}"),
            BuildBoardError::Extraction(e) => write!(f, "extraction: {e}"),
            BuildBoardError::Wiring(s) => write!(f, "wiring: {s}"),
        }
    }
}

impl Error for BuildBoardError {}

impl From<ExtractPlaneError> for BuildBoardError {
    fn from(e: ExtractPlaneError) -> Self {
        BuildBoardError::Extraction(e)
    }
}

/// The scenario-invariant half of a board build: the extracted plane
/// macromodel plus the port layout it was extracted for (supply point,
/// chip power-pin locations, decap mounting sites).
///
/// Produced once by [`BoardSpec::extract_model`]; any number of scenario
/// variants can then be wired around it with [`BoardSpec::wire`]. The
/// layout fields let `wire` verify a model/board mismatch instead of
/// silently stamping decaps onto the wrong plane ports.
#[derive(Debug, Clone)]
pub struct ExtractedModel {
    plane: PlaneModel,
    supply_location: Point,
    chip_locations: Vec<Point>,
    sites: Vec<Point>,
}

/// The plane macromodel behind an [`ExtractedModel`] — monolithic (with
/// its BEM reference system), sharded (composed from regions), or either
/// of those wrapped with a fitted pole–residue reduction of its port
/// admittance.
#[derive(Debug, Clone)]
enum PlaneModel {
    Monolithic(Box<ExtractedPlane>),
    Sharded(Box<ShardedExtraction>),
    /// A macromodel restored from serialized [`ModelParts`] rather than
    /// produced by an extraction in this process. Behaves exactly like
    /// the model it was saved from for everything [`BoardSpec::wire`]
    /// consumes; the BEM reference system is never serialized, so
    /// [`ExtractedModel::plane`] returns `None`.
    Restored(Box<pdn_extract::EquivalentCircuit>),
    Reduced {
        base: Box<PlaneModel>,
        rom: Arc<PoleResidueModel>,
    },
}

impl PlaneModel {
    /// Strips a reduction wrapper, if any.
    fn base(&self) -> &PlaneModel {
        match self {
            PlaneModel::Reduced { base, .. } => base,
            other => other,
        }
    }

    /// The extracted R–L‖C macromodel behind any wrapper.
    fn equivalent(&self) -> &pdn_extract::EquivalentCircuit {
        match self.base() {
            PlaneModel::Monolithic(p) => p.equivalent(),
            PlaneModel::Sharded(s) => s.equivalent(),
            PlaneModel::Restored(eq) => eq,
            PlaneModel::Reduced { .. } => unreachable!("base() strips the reduction wrapper"),
        }
    }
}

impl ExtractedModel {
    /// The underlying monolithic extraction (BEM reference + equivalent
    /// circuit), or `None` for a sharded extraction — sharding never
    /// assembles a whole-board BEM system, that being its point.
    pub fn plane(&self) -> Option<&ExtractedPlane> {
        match self.plane.base() {
            PlaneModel::Monolithic(p) => Some(p),
            _ => None,
        }
    }

    /// Per-region statistics of a sharded extraction, or `None` for a
    /// monolithic one.
    pub fn shard_report(&self) -> Option<&ShardReport> {
        match self.plane.base() {
            PlaneModel::Sharded(s) => Some(s.report()),
            _ => None,
        }
    }

    /// The extracted R–L‖C macromodel.
    pub fn equivalent(&self) -> &pdn_extract::EquivalentCircuit {
        self.plane.equivalent()
    }

    /// The passive pole–residue port macromodel fitted at extraction, or
    /// `None` when the board did not opt into
    /// [`BoardSpec::with_reduced_order`].
    pub fn reduced_model(&self) -> Option<&Arc<PoleResidueModel>> {
        match &self.plane {
            PlaneModel::Reduced { rom, .. } => Some(rom),
            _ => None,
        }
    }

    /// The decap mounting sites ported in the extraction, in site-index
    /// order.
    pub fn sites(&self) -> &[Point] {
        &self.sites
    }

    /// The chip power-pin locations ported in the extraction.
    pub fn chip_locations(&self) -> &[Point] {
        &self.chip_locations
    }

    /// The supply (VRM) attachment point the extraction was ported for.
    pub fn supply_location(&self) -> Point {
        self.supply_location
    }

    /// Decomposes the model into the serializable [`ModelParts`] closure:
    /// everything [`BoardSpec::wire`] consumes, nothing more. The BEM
    /// reference system of a monolithic extraction is intentionally
    /// dropped — it exists for verification against fresh extractions,
    /// not for wiring — so a round trip through
    /// [`from_parts`](ExtractedModel::from_parts) wires bit-identical
    /// systems while [`plane`](ExtractedModel::plane) returns `None`.
    pub fn to_parts(&self) -> ModelParts {
        ModelParts {
            equivalent: self.equivalent().clone(),
            shard_report: self.shard_report().cloned(),
            reduced: self.reduced_model().cloned(),
            supply_location: self.supply_location,
            chip_locations: self.chip_locations.clone(),
            sites: self.sites.clone(),
        }
    }

    /// Reassembles a model from [`ModelParts`] (the inverse of
    /// [`to_parts`](ExtractedModel::to_parts) up to the documented loss of
    /// the BEM reference system).
    pub fn from_parts(parts: ModelParts) -> Self {
        let base = match parts.shard_report {
            Some(report) => PlaneModel::Sharded(Box::new(ShardedExtraction::from_parts(
                parts.equivalent,
                report,
            ))),
            None => PlaneModel::Restored(Box::new(parts.equivalent)),
        };
        let plane = match parts.reduced {
            Some(rom) => PlaneModel::Reduced {
                base: Box::new(base),
                rom,
            },
            None => base,
        };
        ExtractedModel {
            plane,
            supply_location: parts.supply_location,
            chip_locations: parts.chip_locations,
            sites: parts.sites,
        }
    }
}

/// The serializable closure of an [`ExtractedModel`]: the exact set of
/// fields [`BoardSpec::wire`] reads when stamping scenarios, pulled apart
/// so `pdn-service` can persist and restore extractions bit-exactly
/// without ever serializing mesh or kernel state.
#[derive(Debug, Clone)]
pub struct ModelParts {
    /// The extracted R–L‖C port macromodel.
    pub equivalent: pdn_extract::EquivalentCircuit,
    /// Per-region statistics when the extraction was sharded (restoring
    /// with `Some` keeps [`ExtractedModel::shard_report`] intact).
    pub shard_report: Option<ShardReport>,
    /// The fitted pole–residue reduction, when the board opted in.
    pub reduced: Option<Arc<PoleResidueModel>>,
    /// Supply (VRM) attachment point.
    pub supply_location: Point,
    /// Chip power-pin locations, in chip declaration order.
    pub chip_locations: Vec<Point>,
    /// Decap mounting sites, in site-index order.
    pub sites: Vec<Point>,
}

/// Summary of the paper's Figure 3 partition, as realized in a built
/// system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionSummary {
    /// Behavioral device count (driver output stages).
    pub devices: usize,
    /// Package pin models (two per chip: Vcc and Gnd paths).
    pub packages: usize,
    /// Transmission-line signal nets.
    pub signal_nets: usize,
    /// Power/ground macromodel node count.
    pub pdn_nodes: usize,
}

/// A fully wired board system ready for transient co-simulation.
#[derive(Debug, Clone)]
pub struct BoardSystem {
    circuit: Circuit,
    chip_rails: Vec<NodeId>,
    chip_plane_nodes: Vec<NodeId>,
    driver_outputs: Vec<Vec<NodeId>>,
    vcc: f64,
    supply: SourceId,
    pdn_nodes: usize,
    signal_nets: usize,
    devices: usize,
}

impl BoardSystem {
    /// The underlying netlist (for custom probing or analyses).
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// The Figure 3 partition realized by this system.
    pub fn partition(&self) -> PartitionSummary {
        PartitionSummary {
            devices: self.devices,
            packages: 2 * self.chip_rails.len(),
            signal_nets: self.signal_nets,
            pdn_nodes: self.pdn_nodes,
        }
    }

    /// The transient spec [`run`](BoardSystem::run) uses for the given
    /// duration and step.
    fn transient_spec(&self, t_stop: f64, dt: f64) -> TransientSpec {
        // The settle phase uses a fixed number of large backward-Euler
        // steps, so its cost does not grow with the requested duration: a
        // very long settle is effectively a DC operating-point iteration
        // that also kills µs-scale supply/decap modes. With transmission
        // lines present the settle step is pinned to `dt` (wave-history
        // sampling), so the duration must stay modest.
        let settle = if self.signal_nets > 0 {
            (400.0 * dt).max(150e-9)
        } else {
            1e-3
        };
        TransientSpec::new(t_stop, dt).with_settle(settle)
    }

    /// Runs the co-simulation and reports the switching-noise outcome.
    ///
    /// A backward-Euler DC settle phase brings the rails to `vcc` before
    /// recording; the supply inductor ringing into the plane capacitance
    /// needs on the order of 100 ns to die out.
    ///
    /// # Errors
    ///
    /// Propagates circuit-simulation failures.
    pub fn run(&self, t_stop: f64, dt: f64) -> Result<SsnOutcome, SimulateCircuitError> {
        let spec = self.transient_spec(t_stop, dt);
        let res = self.circuit.transient(&spec)?;
        self.outcome(&res)
    }

    /// Reduces a transient result to the switching-noise outcome.
    fn outcome(
        &self,
        res: &pdn_circuit::transient::TransientResult,
    ) -> Result<SsnOutcome, SimulateCircuitError> {
        let time = res.time().to_vec();
        // Worst-chip rail noise.
        let mut worst_peak = 0.0;
        let mut worst_idx = 0;
        let mut per_chip_peak = Vec::with_capacity(self.chip_rails.len());
        for (i, &rail) in self.chip_rails.iter().enumerate() {
            let peak = res
                .voltage(rail)
                .iter()
                .map(|&v| (v - self.vcc).abs())
                .fold(0.0, f64::max);
            per_chip_peak.push(peak);
            if peak > worst_peak {
                worst_peak = peak;
                worst_idx = i;
            }
        }
        let rail_noise = res
            .voltage(self.chip_rails[worst_idx])
            .iter()
            .map(|&v| v - self.vcc)
            .collect();
        // Board-level (plane) noise at the chip power pins — the quantity
        // decoupling capacitors act on.
        let plane_noise_peak = self
            .chip_plane_nodes
            .iter()
            .map(|&node| {
                res.voltage(node)
                    .iter()
                    .map(|&v| (v - self.vcc).abs())
                    .fold(0.0, f64::max)
            })
            .fold(0.0, f64::max);
        let driver_output = self
            .driver_outputs
            .first()
            .and_then(|outs| outs.first())
            .map(|&n| res.voltage(n).to_vec())
            .unwrap_or_default();
        let supply_current = res
            .source_current(self.supply)
            .iter()
            .map(|&i| -i)
            .collect();
        Ok(SsnOutcome {
            time,
            rail_noise,
            per_chip_peak,
            peak_noise: worst_peak,
            plane_noise_peak,
            driver_output,
            supply_current,
        })
    }
}

/// Result of an SSN co-simulation run.
///
/// `PartialEq` is exact (bit-level) — used by the scenario-batch
/// equivalence tests to assert batched and rebuilt runs agree exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct SsnOutcome {
    /// Sample times (s).
    pub time: Vec<f64>,
    /// Rail-voltage deviation waveform of the worst chip (V).
    pub rail_noise: Vec<f64>,
    /// Peak |rail deviation| per chip (V).
    pub per_chip_peak: Vec<f64>,
    /// Worst peak noise across chips (V), measured at the die rail —
    /// includes the package-pin inductive bounce.
    pub peak_noise: f64,
    /// Worst peak noise at the chips' plane connection points (V) — the
    /// board-level PDN noise that decoupling capacitors suppress.
    pub plane_noise_peak: f64,
    /// Output waveform of the first driver (V).
    pub driver_output: Vec<f64>,
    /// Current delivered by the supply (A).
    pub supply_current: Vec<f64>,
}

/// Sweeps the number of simultaneously switching drivers and reports the
/// peak noise for each count — the paper's Study A experiment.
///
/// The sweep is a [`crate::scenario::ScenarioBatch`] client: the plane is
/// extracted once and every switching count is wired and simulated
/// against the shared macromodel on [`pdn_num::parallel`] workers. The
/// output rows follow `counts` order, bit-identical for any worker count.
///
/// # Errors
///
/// Propagates build or simulation failures; with several failing counts,
/// the lowest-index one is reported.
pub fn ssn_switching_sweep(
    board: &BoardSpec,
    selection: &NodeSelection,
    counts: &[usize],
    t_stop: f64,
    dt: f64,
) -> Result<Vec<(usize, f64)>, Box<dyn Error>> {
    if counts.is_empty() {
        return Err(Box::new(BuildBoardError::InvalidInput(
            "switching sweep needs at least one driver count; got an empty list".into(),
        )));
    }
    let batch = crate::scenario::ScenarioBatch::new(board, selection)?;
    let scenarios: Vec<crate::scenario::Scenario> = counts
        .iter()
        .map(|&n| crate::scenario::Scenario::switching(n))
        .collect();
    let outcomes = batch.run(&scenarios, t_stop, dt)?;
    Ok(counts
        .iter()
        .zip(outcomes)
        .map(|(&n, out)| (n, out.peak_noise))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdn_geom::units::mm;

    fn small_board() -> BoardSpec {
        let plane = PlaneSpec::rectangle(mm(40.0), mm(30.0), 0.5e-3, 4.5)
            .unwrap()
            .with_sheet_resistance(1e-3)
            .with_cell_size(mm(5.0));
        BoardSpec::new(plane, 3.3, Point::new(mm(2.0), mm(2.0))).with_chip(ChipSpec::cmos(
            "U1",
            Point::new(mm(30.0), mm(20.0)),
            4,
        ))
    }

    #[test]
    fn canonical_bytes_ignore_declaration_order() {
        let plane = || {
            PlaneSpec::rectangle(mm(40.0), mm(30.0), 0.5e-3, 4.5)
                .unwrap()
                .with_sheet_resistance(1e-3)
                .with_cell_size(mm(5.0))
        };
        let sense_a = plane().with_port("sense_a", mm(10.0), mm(10.0)).with_port(
            "sense_b",
            mm(25.0),
            mm(15.0),
        );
        let sense_b = plane().with_port("sense_b", mm(25.0), mm(15.0)).with_port(
            "sense_a",
            mm(10.0),
            mm(10.0),
        );
        let u1 = || ChipSpec::cmos("U1", Point::new(mm(30.0), mm(20.0)), 4);
        let u2 = || ChipSpec::cmos("U2", Point::new(mm(12.0), mm(8.0)), 2);
        let s1 = Point::new(mm(20.0), mm(10.0));
        let s2 = Point::new(mm(8.0), mm(22.0));
        let a = BoardSpec::new(sense_a, 3.3, Point::new(mm(2.0), mm(2.0)))
            .with_chip(u1())
            .with_chip(u2())
            .with_decap_site(s1)
            .with_decap_site(s2);
        let b = BoardSpec::new(sense_b, 3.3, Point::new(mm(2.0), mm(2.0)))
            .with_chip(u2())
            .with_chip(u1())
            .with_decap_site(s2)
            .with_decap_site(s1);
        assert_ne!(a, b, "declaration order is visible to PartialEq");
        assert_eq!(
            a.canonical_bytes(),
            b.canonical_bytes(),
            "…but not to the canonical encoding"
        );
    }

    #[test]
    fn canonical_bytes_track_material_edits() {
        let base = small_board().with_decap_site(Point::new(mm(20.0), mm(10.0)));
        let bytes = base.canonical_bytes();
        // Scenario-level fields are excluded…
        let mut quiet = base.clone();
        quiet.vcc = 5.0;
        quiet.supply_r = 1.0;
        assert_eq!(bytes, quiet.canonical_bytes());
        // …while every extraction input is included.
        let mut finer = base.clone();
        finer.plane = finer.plane.with_cell_size(mm(2.5));
        assert_ne!(bytes, finer.canonical_bytes());
        let thicker = BoardSpec::new(
            PlaneSpec::rectangle(mm(40.0), mm(30.0), 0.6e-3, 4.5)
                .unwrap()
                .with_sheet_resistance(1e-3)
                .with_cell_size(mm(5.0)),
            3.3,
            Point::new(mm(2.0), mm(2.0)),
        )
        .with_chip(ChipSpec::cmos("U1", Point::new(mm(30.0), mm(20.0)), 4))
        .with_decap_site(Point::new(mm(20.0), mm(10.0)));
        assert_ne!(bytes, thicker.canonical_bytes());
        let wider = BoardSpec::new(
            PlaneSpec::rectangle(mm(41.0), mm(30.0), 0.5e-3, 4.5)
                .unwrap()
                .with_sheet_resistance(1e-3)
                .with_cell_size(mm(5.0)),
            3.3,
            Point::new(mm(2.0), mm(2.0)),
        )
        .with_chip(ChipSpec::cmos("U1", Point::new(mm(30.0), mm(20.0)), 4))
        .with_decap_site(Point::new(mm(20.0), mm(10.0)));
        assert_ne!(bytes, wider.canonical_bytes());
        let mut compressed = base.clone();
        compressed.plane = compressed
            .plane
            .with_compression(pdn_bem::CompressionSpec::default());
        assert_ne!(bytes, compressed.canonical_bytes());
        let sharded = base
            .clone()
            .with_extraction_strategy(ExtractionStrategy::Sharded {
                plan: pdn_shard::ShardPlan::grid(2, 1).unwrap(),
            });
        assert_ne!(bytes, sharded.canonical_bytes());
        let reduced = base.clone().with_reduced_order(RomSpec::default());
        assert_ne!(bytes, reduced.canonical_bytes());
    }

    #[test]
    fn empty_sweep_rejected_before_extraction() {
        // An invalid board (supply off the plane) would fail extraction;
        // the empty-counts validation must fire first.
        let mut bad = small_board();
        bad.supply_location = Point::new(mm(-500.0), mm(-500.0));
        let err =
            ssn_switching_sweep(&bad, &NodeSelection::PortsOnly, &[], 1e-9, 0.05e-9).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("at least one driver count"), "got: {msg}");
    }

    /// Study A at 0.4 in with all sixteen drivers switching, run 10 ns at
    /// 0.1 ns: 256 settle steps and 101 main steps. The drives hold
    /// through the settle (one factorization). The main phase factors on
    /// its first step and on the eleven steps from 2.1 to 3.1 ns where
    /// the 2–3 ns data edge moves them (round-off leaves 3.0 ns just short
    /// of the top), so the run factors its switch system 13 times, not 357.
    #[test]
    fn woodbury_factors_only_when_the_switches_change() {
        let board = crate::boards::ssn_study_a_board(0.4).unwrap();
        let model = board.extract_model(&NodeSelection::PortsOnly).unwrap();
        let switching = board.wire(&model, 16).unwrap();
        let spec = switching.transient_spec(10e-9, 0.1e-9);
        let res = switching.circuit().transient(&spec).unwrap();
        assert_eq!(res.len(), 101);
        assert_eq!(res.woodbury_factorizations(), 13);

        let quiet = board.wire(&model, 0).unwrap();
        let res = quiet.circuit().transient(&spec).unwrap();
        assert_eq!(res.woodbury_factorizations(), 0);
    }

    #[test]
    fn partition_reflects_structure() {
        let sys = small_board()
            .build(&NodeSelection::PortsAndGrid { stride: 3 }, 2)
            .unwrap();
        let p = sys.partition();
        assert_eq!(p.devices, 4);
        assert_eq!(p.packages, 2);
        assert_eq!(p.signal_nets, 0);
        assert!(p.pdn_nodes >= 2);
    }

    #[test]
    fn rails_settle_to_vcc_without_switching() {
        let sys = small_board()
            .build(&NodeSelection::PortsAndGrid { stride: 3 }, 0)
            .unwrap();
        let out = sys.run(20e-9, 0.05e-9).unwrap();
        assert!(
            out.peak_noise < 0.02,
            "quiet board stays at Vcc: noise {}",
            out.peak_noise
        );
    }

    #[test]
    fn switching_creates_noise_and_output_toggles() {
        let sys = small_board()
            .build(&NodeSelection::PortsAndGrid { stride: 3 }, 4)
            .unwrap();
        let out = sys.run(20e-9, 0.05e-9).unwrap();
        assert!(out.peak_noise > 0.02, "SSN present: {}", out.peak_noise);
        let out_max = out.driver_output.iter().fold(0.0f64, |m, &v| m.max(v));
        assert!(out_max > 2.5, "driver output reaches the rail: {out_max}");
        // Supply eventually delivers charge.
        let i_max = out.supply_current.iter().fold(0.0f64, |m, &v| m.max(v));
        assert!(i_max > 0.0);
    }

    #[test]
    fn more_switching_drivers_more_noise() {
        let rows = ssn_switching_sweep(
            &small_board(),
            &NodeSelection::PortsAndGrid { stride: 3 },
            &[1, 4],
            20e-9,
            0.05e-9,
        )
        .unwrap();
        assert!(
            rows[1].1 > rows[0].1,
            "noise grows with switchers: {rows:?}"
        );
    }

    #[test]
    fn decap_reduces_noise() {
        let base = small_board();
        let with_decap =
            small_board().with_decap(DecapSpec::ceramic_100nf(Point::new(mm(28.0), mm(20.0))));
        let sel = NodeSelection::PortsAndGrid { stride: 3 };
        let n_base = base.build(&sel, 4).unwrap().run(20e-9, 0.05e-9).unwrap();
        let n_dec = with_decap
            .build(&sel, 4)
            .unwrap()
            .run(20e-9, 0.05e-9)
            .unwrap();
        // The decap acts on the board-level plane noise; the die-rail
        // bounce is dominated by the package pin inductance and is mostly
        // unaffected — exactly the engineering point of the paper's decap
        // study.
        assert!(
            n_dec.plane_noise_peak < 0.8 * n_base.plane_noise_peak,
            "decap suppresses plane noise: {} vs {}",
            n_dec.plane_noise_peak,
            n_base.plane_noise_peak
        );
    }

    #[test]
    fn off_plane_decap_site_rejected_before_extraction() {
        let board = small_board().with_decap_site(Point::new(mm(100.0), mm(100.0)));
        match board.extract_model(&NodeSelection::PortsOnly) {
            Err(BuildBoardError::InvalidInput(msg)) => {
                assert!(msg.contains("decap0"), "{msg}");
                assert!(msg.contains("outside"), "{msg}");
            }
            other => panic!("expected InvalidInput, got {other:?}"),
        }
    }

    #[test]
    fn overlapping_port_footprints_rejected() {
        // 5 mm cells: (28, 18) mm and the U1 chip at (30, 20) mm both
        // snap to the cell centered at (27.5, 17.5) mm.
        let board =
            small_board().with_chip(ChipSpec::cmos("U2", Point::new(mm(28.0), mm(18.0)), 1));
        match board.extract_model(&NodeSelection::PortsOnly) {
            Err(BuildBoardError::InvalidInput(msg)) => {
                assert!(msg.contains("U1_vcc"), "{msg}");
                assert!(msg.contains("U2_vcc"), "{msg}");
                assert!(msg.contains("overlap"), "{msg}");
            }
            other => panic!("expected InvalidInput, got {other:?}"),
        }
    }

    #[test]
    fn decap_site_may_share_a_port_cell() {
        // A capacitor mounted right at the chip pin is a legitimate
        // layout: the site snaps onto U1's cell and connects at its node.
        let board = small_board().with_decap_site(Point::new(mm(28.0), mm(20.0)));
        let model = board.extract_model(&NodeSelection::PortsOnly).unwrap();
        assert_eq!(model.equivalent().port_count(), 3);
    }

    #[test]
    fn sharded_strategy_builds_and_tracks_monolithic() {
        use pdn_shard::max_port_impedance_deviation;
        // Like `small_board`, but meshed at 2.5 mm: sharding accuracy
        // depends on the seam strip being a small fraction of the plane,
        // which an 8x6-cell mesh cannot provide.
        let fine_board = || {
            let plane = PlaneSpec::rectangle(mm(40.0), mm(30.0), 0.5e-3, 4.5)
                .unwrap()
                .with_sheet_resistance(1e-3)
                .with_cell_size(mm(2.5));
            BoardSpec::new(plane, 3.3, Point::new(mm(2.0), mm(2.0))).with_chip(ChipSpec::cmos(
                "U1",
                Point::new(mm(30.0), mm(20.0)),
                4,
            ))
        };
        let sel = NodeSelection::PortsAndGrid { stride: 3 };
        let mono = fine_board().extract_model(&sel).unwrap();
        let board = fine_board().with_extraction_strategy(ExtractionStrategy::Sharded {
            plan: ShardPlan::grid(2, 1).unwrap(),
        });
        let sharded = board.extract_model(&sel).unwrap();
        // The model kinds expose the right introspection...
        assert!(mono.plane().is_some() && mono.shard_report().is_none());
        assert!(sharded.plane().is_none());
        assert_eq!(sharded.shard_report().unwrap().regions.len(), 2);
        // ...the port layouts agree...
        assert_eq!(
            mono.equivalent().port_count(),
            sharded.equivalent().port_count()
        );
        // ...the models agree within the documented low-band tolerance
        // (measured 3.4e-3 on this split)...
        let freqs = [1e8, 3e8, 1e9];
        let dev =
            max_port_impedance_deviation(sharded.equivalent(), mono.equivalent(), &freqs).unwrap();
        assert!(dev < 0.02, "deviation {dev:.3e}");
        // ...and the downstream wiring consumes the sharded model as-is.
        let out = board
            .wire(&sharded, 2)
            .unwrap()
            .run(10e-9, 0.05e-9)
            .unwrap();
        assert!(out.time.len() > 50);
    }

    #[test]
    fn reduced_order_board_runs_and_tracks_full_stamp() {
        let spec = RomSpec {
            f_min: 1e6,
            f_max: 4e9,
            points: 48,
            rel_tol: 1e-5,
            cert_tol: 0.02,
        };
        let sel = NodeSelection::PortsAndGrid { stride: 3 };
        let full_sys = small_board().build(&sel, 4).unwrap();
        let board = small_board().with_reduced_order(spec);
        let model = board.extract_model(&sel).unwrap();
        let rom = model.reduced_model().expect("reduction requested");
        assert_eq!(rom.ports(), model.equivalent().port_count());
        // The base extraction stays reachable behind the wrapper.
        assert!(model.plane().is_some());
        let sys = board.wire(&model, 4).unwrap();
        // The ROM collapses the PDN to its port nodes.
        assert_eq!(sys.partition().pdn_nodes, rom.ports());
        let out = sys.run(15e-9, 0.05e-9).unwrap();
        let full = full_sys.run(15e-9, 0.05e-9).unwrap();
        assert!(
            (out.peak_noise - full.peak_noise).abs() < 0.05 * full.peak_noise,
            "reduced {} vs full {}",
            out.peak_noise,
            full.peak_noise
        );
    }

    #[test]
    fn signal_line_co_simulates() {
        let plane = PlaneSpec::rectangle(mm(40.0), mm(30.0), 0.5e-3, 4.5)
            .unwrap()
            .with_cell_size(mm(5.0));
        let chip = ChipSpec::cmos("U1", Point::new(mm(30.0), mm(20.0)), 1)
            .with_line(SignalLineSpec::z50(0.05));
        let board = BoardSpec::new(plane, 3.3, Point::new(mm(2.0), mm(2.0))).with_chip(chip);
        let sys = board
            .build(&NodeSelection::PortsAndGrid { stride: 3 }, 1)
            .unwrap();
        assert_eq!(sys.partition().signal_nets, 1);
        let out = sys.run(20e-9, 0.05e-9).unwrap();
        assert!(out.time.len() > 100);
    }
}
