//! The extraction flow: plane description → mesh → BEM → macromodel.

use pdn_bem::{AssembleBemError, BemOptions, BemSystem};
use pdn_extract::{EquivalentCircuit, ExtractCircuitError, NodeSelection};
use pdn_geom::mesh::MeshPlaneError;
use pdn_geom::stackup::InvalidPlanePairError;
use pdn_geom::{PlaneMesh, PlanePair, Point, Polygon};
use pdn_greens::SurfaceImpedance;
use pdn_shard::{
    extract_sharded, max_port_impedance_deviation, ShardExtractError, ShardPlan, ShardRequest,
    ShardedExtraction,
};
use std::error::Error;
use std::fmt;

/// Error from the end-to-end extraction flow.
#[derive(Debug)]
pub enum ExtractPlaneError {
    /// Invalid plane-pair parameters.
    Stackup(InvalidPlanePairError),
    /// Meshing failed (bad cell size, port off the conductor…).
    Mesh(MeshPlaneError),
    /// BEM assembly failed.
    Assembly(AssembleBemError),
    /// Macromodel extraction failed.
    Extraction(ExtractCircuitError),
    /// Sharded (domain-decomposed) extraction failed.
    Sharding(ShardExtractError),
    /// An operation requiring a single net was given split planes.
    MultiNet,
}

impl fmt::Display for ExtractPlaneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExtractPlaneError::Stackup(e) => write!(f, "stackup: {e}"),
            ExtractPlaneError::Mesh(e) => write!(f, "mesh: {e}"),
            ExtractPlaneError::Assembly(e) => write!(f, "assembly: {e}"),
            ExtractPlaneError::Extraction(e) => write!(f, "extraction: {e}"),
            ExtractPlaneError::Sharding(e) => write!(f, "sharding: {e}"),
            ExtractPlaneError::MultiNet => {
                write!(f, "operation requires a single-net plane, got split planes")
            }
        }
    }
}

impl Error for ExtractPlaneError {}

impl From<InvalidPlanePairError> for ExtractPlaneError {
    fn from(e: InvalidPlanePairError) -> Self {
        ExtractPlaneError::Stackup(e)
    }
}
impl From<MeshPlaneError> for ExtractPlaneError {
    fn from(e: MeshPlaneError) -> Self {
        ExtractPlaneError::Mesh(e)
    }
}
impl From<AssembleBemError> for ExtractPlaneError {
    fn from(e: AssembleBemError) -> Self {
        ExtractPlaneError::Assembly(e)
    }
}
impl From<ExtractCircuitError> for ExtractPlaneError {
    fn from(e: ExtractCircuitError) -> Self {
        ExtractPlaneError::Extraction(e)
    }
}
impl From<ShardExtractError> for ExtractPlaneError {
    fn from(e: ShardExtractError) -> Self {
        ExtractPlaneError::Sharding(e)
    }
}

/// A power/ground plane structure ready for extraction.
///
/// # Examples
///
/// ```
/// use pdn_core::PlaneSpec;
/// use pdn_geom::units::mm;
///
/// # fn main() -> Result<(), pdn_core::ExtractPlaneError> {
/// let spec = PlaneSpec::rectangle(mm(30.0), mm(20.0), 0.3e-3, 4.2)?
///     .with_port("VCC1", mm(5.0), mm(5.0));
/// assert_eq!(spec.port_count(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PlaneSpec {
    shapes: Vec<Polygon>,
    pair: PlanePair,
    /// Per-plane sheet resistance (Ω/sq); the loop sees twice this value.
    sheet_resistance: f64,
    cell_size: f64,
    ports: Vec<(String, Point)>,
    options: BemOptions,
}

impl PlaneSpec {
    /// A rectangular plane of the given size over a ground plane
    /// `separation` meters below, dielectric `eps_r`.
    ///
    /// The default mesh density is 20 cells across the longer edge.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid pair parameters.
    pub fn rectangle(
        width: f64,
        height: f64,
        separation: f64,
        eps_r: f64,
    ) -> Result<Self, ExtractPlaneError> {
        Self::from_shape(Polygon::rectangle(width, height), separation, eps_r)
    }

    /// A plane of arbitrary shape.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid pair parameters.
    pub fn from_shape(
        shape: Polygon,
        separation: f64,
        eps_r: f64,
    ) -> Result<Self, ExtractPlaneError> {
        Self::from_shapes(vec![shape], separation, eps_r)
    }

    /// Split planes: several galvanically separate islands over a common
    /// ground (the paper's Figure 1).
    ///
    /// # Errors
    ///
    /// Returns an error for invalid pair parameters.
    pub fn from_shapes(
        shapes: Vec<Polygon>,
        separation: f64,
        eps_r: f64,
    ) -> Result<Self, ExtractPlaneError> {
        let pair = PlanePair::new(separation, eps_r)?;
        let (min, max) = shapes
            .iter()
            .map(Polygon::bounding_box)
            .fold((f64::INFINITY, f64::NEG_INFINITY), |acc, (lo, hi)| {
                (acc.0.min(lo.x).min(lo.y), acc.1.max(hi.x).max(hi.y))
            });
        let extent = (max - min).max(1e-6);
        Ok(PlaneSpec {
            shapes,
            pair,
            sheet_resistance: 0.0,
            cell_size: extent / 20.0,
            ports: Vec::new(),
            options: BemOptions::default(),
        })
    }

    /// Sets the per-plane sheet resistance, Ω/square (builder style).
    pub fn with_sheet_resistance(mut self, r_sq: f64) -> Self {
        self.sheet_resistance = r_sq.max(0.0);
        self
    }

    /// Sets the mesh cell size (builder style).
    pub fn with_cell_size(mut self, cell: f64) -> Self {
        self.cell_size = cell;
        self
    }

    /// Adds a named port at `(x, y)` (builder style).
    pub fn with_port(mut self, name: impl Into<String>, x: f64, y: f64) -> Self {
        self.ports.push((name.into(), Point::new(x, y)));
        self
    }

    /// Uses the microstrip (air-above) substrate kernel, for patch
    /// structures rather than buried plane pairs (builder style).
    pub fn with_microstrip_kernel(mut self) -> Self {
        self.options = self.options.with_microstrip();
        self
    }

    /// Uses Galerkin testing of the given order (builder style).
    pub fn with_galerkin(mut self, order: usize) -> Self {
        self.options = self.options.with_galerkin(order);
        self
    }

    /// Enables certified low-rank (ACA) kernel compression with the given
    /// settings (builder style). Extraction then assembles the BEM
    /// kernels hierarchically and runs the iterative reduction path — see
    /// `docs/COMPRESSION.md`.
    pub fn with_compression(mut self, spec: pdn_bem::CompressionSpec) -> Self {
        self.options = self.options.with_compression(spec);
        self
    }

    /// Number of ports defined so far.
    pub fn port_count(&self) -> usize {
        self.ports.len()
    }

    /// The plane pair.
    pub fn pair(&self) -> &PlanePair {
        &self.pair
    }

    /// The mesh cell size.
    pub fn cell_size(&self) -> f64 {
        self.cell_size
    }

    /// Port names and locations.
    pub fn ports(&self) -> &[(String, Point)] {
        &self.ports
    }

    /// Per-plane sheet resistance, Ω/square.
    pub fn sheet_resistance(&self) -> f64 {
        self.sheet_resistance
    }

    /// The conductor shapes.
    pub fn shapes(&self) -> &[Polygon] {
        &self.shapes
    }

    /// The BEM assembly options.
    pub fn options(&self) -> &BemOptions {
        &self.options
    }

    /// Appends a canonical byte encoding of everything that determines
    /// the extracted *numbers* — shapes, stackup, loss, mesh pitch,
    /// assembly options, and the port set — to `w`, with `f64` values
    /// encoded bit-exactly and ports **order-normalized** (sorted by
    /// name, then location bits): declaring the same ports in a
    /// different order encodes identically, any material edit does not.
    /// Shape order is preserved — with split planes it fixes each
    /// conductor's net index. See [`crate::BoardSpec::canonical_bytes`]
    /// for the board-level rule this feeds.
    pub fn write_canonical(&self, w: &mut pdn_num::ByteWriter) {
        let put_point = |w: &mut pdn_num::ByteWriter, p: &Point| {
            w.put_f64(p.x);
            w.put_f64(p.y);
        };
        w.put_usize(self.shapes.len());
        for shape in &self.shapes {
            w.put_usize(shape.outer().len());
            for p in shape.outer() {
                put_point(w, p);
            }
            w.put_usize(shape.holes().len());
            for hole in shape.holes() {
                w.put_usize(hole.len());
                for p in hole {
                    put_point(w, p);
                }
            }
        }
        w.put_f64(self.pair.separation);
        w.put_f64(self.pair.eps_r);
        w.put_f64(self.pair.sheet_resistance);
        w.put_f64(self.pair.loss_tangent);
        w.put_f64(self.sheet_resistance);
        w.put_f64(self.cell_size);
        self.options.write_canonical(w);
        let mut ports: Vec<&(String, Point)> = self.ports.iter().collect();
        ports.sort_by(|a, b| {
            (&a.0, a.1.x.to_bits(), a.1.y.to_bits()).cmp(&(&b.0, b.1.x.to_bits(), b.1.y.to_bits()))
        });
        w.put_usize(ports.len());
        for (name, p) in ports {
            w.put_str(name);
            put_point(w, p);
        }
    }

    /// The single conductor shape, for flows (like the FDTD reference)
    /// that operate on one net.
    ///
    /// # Errors
    ///
    /// Returns an error when the spec describes split planes.
    pub fn single_shape(&self) -> Result<&Polygon, ExtractPlaneError> {
        if self.shapes.len() == 1 {
            Ok(&self.shapes[0])
        } else {
            Err(ExtractPlaneError::MultiNet)
        }
    }

    /// The loop surface impedance of the pair: the current flows out on
    /// one plane and back on the other, so both sheet resistances appear
    /// in series.
    fn loop_impedance(&self) -> SurfaceImpedance {
        SurfaceImpedance::from_sheet_resistance(2.0 * self.sheet_resistance)
    }

    /// Builds the mesh, runs the BEM, and extracts the macromodel.
    ///
    /// # Errors
    ///
    /// Returns [`ExtractPlaneError`] describing which stage failed.
    pub fn extract(&self, selection: &NodeSelection) -> Result<ExtractedPlane, ExtractPlaneError> {
        let mut mesh = PlaneMesh::build_multi(&self.shapes, self.cell_size)?;
        for (name, p) in &self.ports {
            mesh.bind_port(name.clone(), *p)?;
        }
        let bem = BemSystem::assemble(mesh, &self.pair, &self.loop_impedance(), &self.options)?;
        let equivalent = EquivalentCircuit::from_bem(&bem, selection)?;
        Ok(ExtractedPlane { bem, equivalent })
    }

    /// Extracts the plane region by region under the given [`ShardPlan`]
    /// and composes the regional macromodels through interface ports —
    /// the domain-decomposed alternative to [`extract`](Self::extract)
    /// for boards whose dense monolithic system would be too large.
    ///
    /// The returned model has the same port layout as a monolithic
    /// extraction and is bit-identical for any `PDN_THREADS` setting; see
    /// `docs/SHARDING.md` for the accuracy contract.
    ///
    /// # Errors
    ///
    /// Returns [`ExtractPlaneError::Sharding`] describing the failing
    /// stage (plan, meshing, a region, or the composition).
    pub fn extract_sharded(
        &self,
        plan: &ShardPlan,
        selection: &NodeSelection,
    ) -> Result<ShardedExtraction, ExtractPlaneError> {
        let zs = self.loop_impedance();
        let req = ShardRequest {
            shapes: &self.shapes,
            pair: &self.pair,
            zs: &zs,
            cell_size: self.cell_size,
            ports: &self.ports,
            options: &self.options,
            selection,
        };
        Ok(extract_sharded(&req, plan)?)
    }

    /// Validation mode: extracts this plane both monolithically and under
    /// `plan`, and returns the maximum relative port-impedance deviation
    /// over `freqs` (see [`max_port_impedance_deviation`] for the metric).
    /// Use on a small representative board to check a
    /// shard plan against the documented tolerance before trusting it on
    /// the full-size layout.
    ///
    /// # Errors
    ///
    /// Returns [`ExtractPlaneError`] when either extraction or the
    /// comparison fails.
    pub fn validate_sharding(
        &self,
        plan: &ShardPlan,
        selection: &NodeSelection,
        freqs: &[f64],
    ) -> Result<f64, ExtractPlaneError> {
        let sharded = self.extract_sharded(plan, selection)?;
        let mono = self.extract(selection)?;
        Ok(max_port_impedance_deviation(
            sharded.equivalent(),
            mono.equivalent(),
            freqs,
        )?)
    }
}

/// The result of the extraction flow: the BEM system (reference solution)
/// and the macromodel derived from it.
#[derive(Debug, Clone)]
pub struct ExtractedPlane {
    bem: BemSystem,
    equivalent: EquivalentCircuit,
}

impl ExtractedPlane {
    /// The assembled BEM system (direct frequency-domain reference).
    pub fn bem(&self) -> &BemSystem {
        &self.bem
    }

    /// The extracted R–L‖C macromodel.
    pub fn equivalent(&self) -> &EquivalentCircuit {
        &self.equivalent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdn_geom::units::mm;

    #[test]
    fn end_to_end_extraction() {
        let spec = PlaneSpec::rectangle(mm(20.0), mm(15.0), 0.5e-3, 4.5)
            .unwrap()
            .with_sheet_resistance(3e-3)
            .with_cell_size(mm(2.5))
            .with_port("A", mm(2.0), mm(2.0))
            .with_port("B", mm(18.0), mm(13.0));
        let ex = spec
            .extract(&NodeSelection::PortsAndGrid { stride: 2 })
            .unwrap();
        assert_eq!(ex.equivalent().port_count(), 2);
        assert!(ex.equivalent().has_loss());
        // Sanity: macromodel tracks the direct solve at a benign frequency.
        let z_bem = ex.bem().port_impedance(200e6).unwrap();
        let z_eq = ex.equivalent().impedance(200e6).unwrap();
        let rel = (z_bem[(0, 1)] - z_eq[(0, 1)]).norm() / z_bem[(0, 1)].norm();
        assert!(rel < 0.05, "rel = {rel}");
    }

    #[test]
    fn compressed_extraction_tracks_dense_flow() {
        let base = || {
            PlaneSpec::rectangle(mm(20.0), mm(15.0), 0.5e-3, 4.5)
                .unwrap()
                .with_sheet_resistance(3e-3)
                .with_cell_size(mm(1.0))
                .with_port("A", mm(2.0), mm(2.0))
                .with_port("B", mm(18.0), mm(13.0))
        };
        let sel = NodeSelection::PortsAndGrid { stride: 3 };
        let dense = base().extract(&sel).unwrap();
        let compressed = base()
            .with_compression(pdn_bem::CompressionSpec::default())
            .extract(&sel)
            .unwrap();
        assert!(compressed.bem().is_compressed());
        let zd = dense.equivalent().impedance(200e6).unwrap();
        let zc = compressed.equivalent().impedance(200e6).unwrap();
        let rel = (zd[(0, 1)] - zc[(0, 1)]).norm() / zd[(0, 1)].norm();
        assert!(rel < 1e-4, "rel = {rel:.3e}");
    }

    #[test]
    fn split_planes_extract_with_port_per_net() {
        let left = Polygon::rectangle(mm(10.0), mm(10.0));
        let right = Polygon::rectangle_at(mm(11.0), 0.0, mm(10.0), mm(10.0));
        let spec = PlaneSpec::from_shapes(vec![left, right], 0.5e-3, 4.5)
            .unwrap()
            .with_cell_size(mm(2.0))
            .with_port("V33", mm(2.0), mm(5.0))
            .with_port("V50", mm(19.0), mm(5.0));
        let ex = spec.extract(&NodeSelection::PortsOnly).unwrap();
        // The two islands have no galvanic path: the cross-net branch must
        // carry zero DC conductance. Magnetic (mutual-inductance) and
        // capacitive coupling remain — that is exactly the split-plane
        // noise-coupling mechanism the paper analyzes.
        let branches = ex.equivalent().branches();
        let cross = branches.iter().find(|b| (b.m, b.n) == (0, 1)).unwrap();
        assert_eq!(cross.conductance, 0.0, "no DC path between nets");
        let intra = ex.equivalent().reluctance()[(0, 0)].abs();
        assert!(
            cross.inverse_inductance.abs() < 0.5 * intra,
            "cross-net magnetic coupling is weaker than intra-net"
        );
    }

    #[test]
    fn port_off_plane_fails_cleanly() {
        let spec = PlaneSpec::rectangle(mm(10.0), mm(10.0), 0.5e-3, 4.5)
            .unwrap()
            .with_port("X", mm(50.0), mm(50.0));
        match spec.extract(&NodeSelection::PortsOnly) {
            Err(ExtractPlaneError::Mesh(MeshPlaneError::PortOutsideShape { .. })) => {}
            other => panic!("expected mesh error, got {other:?}"),
        }
    }

    #[test]
    fn error_display_is_informative() {
        let e = ExtractPlaneError::Mesh(MeshPlaneError::EmptyMesh);
        assert!(e.to_string().contains("mesh"));
        let e = ExtractPlaneError::Sharding(ShardExtractError::InvalidPlan("nope".into()));
        assert!(e.to_string().contains("sharding"));
    }

    #[test]
    fn validate_sharding_reports_small_deviation() {
        let spec = PlaneSpec::rectangle(mm(30.0), mm(20.0), 0.4e-3, 4.5)
            .unwrap()
            .with_sheet_resistance(2e-3)
            .with_cell_size(mm(2.0))
            .with_port("A", mm(3.0), mm(10.0))
            .with_port("B", mm(27.0), mm(10.0));
        let plan = ShardPlan::grid(2, 1).unwrap();
        let freqs = [1e8, 5e8, 1e9];
        let dev = spec
            .validate_sharding(&plan, &NodeSelection::PortsOnly, &freqs)
            .unwrap();
        // Measured 3.2e-2: 1 GHz is ~0.6x the first resonance here, where
        // the documented seam-error contract is a few percent.
        assert!(dev < 0.05, "deviation {dev:.3e}");
        assert!(dev > 0.0, "a real split never matches exactly");
    }
}
