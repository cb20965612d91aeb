//! The distributed R–L‖C equivalent circuit (paper Figure 2, eqs. 20–27).

use crate::reduce::{kron_reduce_blocks, kron_reduce_operator, schur, symmetrize, Partition, Slot};
use pdn_bem::{BemSystem, CompressedKernels, SolverSpec};
use pdn_circuit::{Circuit, NodeId};
use pdn_geom::mesh::Link;
use pdn_geom::PlaneMesh;
use pdn_num::rational::{self, SweepAccuracy, SweepOutcome};
use pdn_num::{
    c64, CholeskyDecomposition, LuDecomposition, Matrix, PoleResidueModel, PromError, PromOptions,
};
use std::error::Error;
use std::f64::consts::PI;
use std::fmt;

/// Maps a pole–residue fitting error onto the extraction error type.
fn from_prom_err(e: PromError) -> ExtractCircuitError {
    match e {
        PromError::InvalidInput(msg) => ExtractCircuitError::InvalidInput(msg),
        PromError::NumericalBreakdown(msg) => ExtractCircuitError::NumericalBreakdown(msg),
        PromError::CertificationFailed { residual, tol } => {
            ExtractCircuitError::NumericalBreakdown(format!(
                "reduced-order model failed held-out certification: \
                 residual {residual:.3e} exceeds tolerance {tol:.3e}"
            ))
        }
    }
}

/// Fit band and tolerances for [`EquivalentCircuit::reduce_order`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RomSpec {
    /// Lower edge of the fit band in Hz (must be positive).
    pub f_min: f64,
    /// Upper edge of the fit band in Hz (must exceed `f_min`). Choose it
    /// to cover the spectral content of the intended transient drive.
    pub f_max: f64,
    /// Number of logarithmically spaced fit points across the band
    /// (at least 8).
    pub points: usize,
    /// Relative tolerance of the certified rational sweep used to fit the
    /// port admittance.
    pub rel_tol: f64,
    /// Held-out certification tolerance of the pole–residue model: the
    /// worst relative Frobenius deviation at geometric-midpoint
    /// frequencies never seen by the fit.
    pub cert_tol: f64,
}

impl Default for RomSpec {
    fn default() -> Self {
        RomSpec {
            f_min: 1e6,
            f_max: 5e9,
            points: 64,
            rel_tol: 1e-4,
            cert_tol: 0.02,
        }
    }
}

/// Which BEM cells become circuit nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeSelection {
    /// Retain every mesh cell (no reduction; exact but large).
    All,
    /// Retain only the cells carrying bound ports.
    PortsOnly,
    /// Retain the port cells plus every `stride`-th grid cell in both
    /// directions — the paper's N-node macromodels (e.g. 42 nodes for the
    /// 5-port HP test plane).
    PortsAndGrid {
        /// Grid decimation factor (≥ 1).
        stride: usize,
    },
}

/// How the macromodel is realized as a netlist of two-terminal elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Realization {
    /// Guaranteed-passive realization: negative inverse-inductance
    /// branches (Kron-reduction residues, each individually active as a
    /// two-terminal element) are dropped. Dropping them *adds* a
    /// positive-semidefinite term to the reluctance matrix, so every
    /// remaining branch is individually passive and transient runs are
    /// unconditionally stable. The lossless response shifts by the
    /// (small) weight of the dropped branches.
    #[default]
    Passive,
    /// Exact lossless part: negative branches are kept as pure
    /// inductances. The aggregate reluctance is exact, but embedding the
    /// resulting netlist in a larger system can expose right-half-plane
    /// poles because the series branch resistances break the
    /// positive-real decomposition. Use for small verification runs only.
    Exact,
}

/// One branch of the equivalent circuit between retained nodes `m < n`:
/// an inductance (as inverse inductance) in series with a resistance (as
/// conductance), in parallel with a capacitance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Branch {
    /// First node index.
    pub m: usize,
    /// Second node index.
    pub n: usize,
    /// Branch inverse inductance `−B_mn` (1/H); zero means no inductive
    /// path, negative values can appear in reduced macromodels.
    pub inverse_inductance: f64,
    /// Branch series conductance `−G_mn` (S); zero means lossless.
    pub conductance: f64,
    /// Branch capacitance `−C_mn` (F).
    pub capacitance: f64,
}

impl Branch {
    /// Branch inductance in henries, if an inductive path exists.
    pub fn inductance(&self) -> Option<f64> {
        (self.inverse_inductance != 0.0).then(|| 1.0 / self.inverse_inductance)
    }

    /// Branch series resistance in ohms, if lossy.
    pub fn resistance(&self) -> Option<f64> {
        (self.conductance > 0.0).then(|| 1.0 / self.conductance)
    }
}

/// One two-terminal element of a netlist realization, between retained
/// node indices.
pub(crate) enum RealizedElement {
    /// `r` from `a` to a new interior node, then `l` from it to `b`.
    SeriesRl {
        a: usize,
        b: usize,
        r: f64,
        l: f64,
    },
    Inductor {
        a: usize,
        b: usize,
        l: f64,
    },
    Resistor {
        a: usize,
        b: usize,
        r: f64,
    },
    /// A capacitor; `b = None` is the reference (ground plane).
    Capacitor {
        a: usize,
        b: Option<usize>,
        c: f64,
    },
}

/// Error from equivalent-circuit extraction.
#[derive(Debug, Clone, PartialEq)]
pub enum ExtractCircuitError {
    /// The mesh has no bound ports (nothing to extract for).
    NoPorts,
    /// A caller-supplied sweep grid or tolerance is invalid (empty,
    /// non-finite, non-positive, or non-monotonic frequencies).
    InvalidInput(String),
    /// A reduction or solve failed (e.g. a net with no retained node).
    NumericalBreakdown(String),
}

impl fmt::Display for ExtractCircuitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExtractCircuitError::NoPorts => write!(f, "mesh has no bound ports"),
            ExtractCircuitError::InvalidInput(s) => write!(f, "invalid input: {s}"),
            ExtractCircuitError::NumericalBreakdown(s) => {
                write!(f, "equivalent-circuit extraction failed: {s}")
            }
        }
    }
}

impl Error for ExtractCircuitError {}

/// The extracted frequency-independent R–L‖C macromodel.
///
/// Stores the reduced reluctance `B`, DC conductance `G`, and capacitance
/// `C` matrices; branches and admittances are derived views.
#[derive(Debug, Clone)]
pub struct EquivalentCircuit {
    names: Vec<String>,
    /// Retained-node index of each mesh port, in port order.
    ports: Vec<usize>,
    b: Matrix<f64>,
    g: Matrix<f64>,
    c: Matrix<f64>,
    /// Dielectric loss tangent applied to every capacitive element in the
    /// frequency domain (`Y_C = jωC·(1 − j·tanδ)`).
    tan_d: f64,
}

impl EquivalentCircuit {
    /// Extracts the macromodel from an assembled BEM system.
    ///
    /// # Errors
    ///
    /// Returns [`ExtractCircuitError::NoPorts`] when the mesh has no bound
    /// ports, and [`ExtractCircuitError::NumericalBreakdown`] when the
    /// reduction fails (e.g. a split-plane net without any retained node).
    pub fn from_bem(
        sys: &BemSystem,
        selection: &NodeSelection,
    ) -> Result<Self, ExtractCircuitError> {
        Ok(Self::from_bem_detailed(sys, selection)?.0)
    }

    /// [`from_bem`](Self::from_bem) additionally returning the mesh cell
    /// index behind each retained node (ascending, one per node). Sharded
    /// extraction uses this to map regional nodes back onto the global
    /// board grid when composing regions.
    ///
    /// # Errors
    ///
    /// Same contract as [`from_bem`](Self::from_bem).
    pub fn from_bem_detailed(
        sys: &BemSystem,
        selection: &NodeSelection,
    ) -> Result<(Self, Vec<usize>), ExtractCircuitError> {
        let mesh = sys.mesh();
        let port_cells = mesh.port_cells();
        if port_cells.is_empty() {
            return Err(ExtractCircuitError::NoPorts);
        }
        let n = mesh.cell_count();

        // Retained cell set.
        let mut keep: Vec<usize> = match selection {
            NodeSelection::All => (0..n).collect(),
            NodeSelection::PortsOnly => port_cells.clone(),
            NodeSelection::PortsAndGrid { stride } => {
                let s = (*stride).max(1);
                let mut v: Vec<usize> = (0..n)
                    .filter(|&i| {
                        let (ix, iy) = mesh.cell_grid_coords(i);
                        ix % s == 0 && iy % s == 0
                    })
                    .collect();
                v.extend_from_slice(&port_cells);
                v
            }
        };
        keep.sort_unstable();
        keep.dedup();

        // One skeleton for every kernel store (paper §4): the kept and
        // eliminated cells, the sparse incidence behind B = AᵀL⁻¹A, and
        // the link-resistance Laplacian G. A route only decides how it
        // solves with L and P and how it takes the Schur complement.
        let part = Partition::new(n, keep);
        let inc = Incidence::new(mesh);
        let lap = Laplacian::stamp(&part, mesh.links(), sys.link_resistances());
        let (b, g, c) = match sys.compressed() {
            None => dense_route(sys, &part, &inc, &lap)?,
            Some(ck) => match ck.spec.solver {
                SolverSpec::ScalarJacobi => scalar_cg_route(ck, mesh, &part, &inc, &lap)?,
                SolverSpec::BlockCg => block_cg_route(ck, mesh, &part, &inc, &lap)?,
            },
        };
        let (names, ports) = node_names_and_ports(mesh, &part.keep);
        Ok((
            EquivalentCircuit {
                names,
                ports,
                b,
                g,
                c,
                tan_d: sys.pair().loss_tangent,
            },
            part.keep,
        ))
    }

    /// Builds a macromodel directly from its `B`/`G`/`C` matrices — the
    /// composition hook behind sharded extraction, where the matrices come
    /// from block-summed regional models rather than one BEM assembly.
    ///
    /// `ports[p]` is the retained-node index of port `p`; `names` labels
    /// every node (port names where applicable).
    ///
    /// # Errors
    ///
    /// Returns [`ExtractCircuitError::NoPorts`] when `ports` is empty and
    /// [`ExtractCircuitError::InvalidInput`] for mismatched dimensions,
    /// non-square matrices, an out-of-range port node, or a negative /
    /// non-finite loss tangent.
    pub fn from_parts(
        names: Vec<String>,
        ports: Vec<usize>,
        b: Matrix<f64>,
        g: Matrix<f64>,
        c: Matrix<f64>,
        tan_d: f64,
    ) -> Result<Self, ExtractCircuitError> {
        let n = names.len();
        if ports.is_empty() {
            return Err(ExtractCircuitError::NoPorts);
        }
        for (label, m) in [("B", &b), ("G", &g), ("C", &c)] {
            if m.nrows() != n || m.ncols() != n {
                return Err(ExtractCircuitError::InvalidInput(format!(
                    "{label} is {}x{} but there are {n} node names",
                    m.nrows(),
                    m.ncols()
                )));
            }
        }
        if let Some(&bad) = ports.iter().find(|&&p| p >= n) {
            return Err(ExtractCircuitError::InvalidInput(format!(
                "port node index {bad} out of range for {n} nodes"
            )));
        }
        if !tan_d.is_finite() || tan_d < 0.0 {
            return Err(ExtractCircuitError::InvalidInput(format!(
                "loss tangent must be finite and non-negative, got {tan_d}"
            )));
        }
        Ok(EquivalentCircuit {
            names,
            ports,
            b,
            g,
            c,
            tan_d,
        })
    }

    /// Serializes the macromodel into `w`, bit-exactly: the decoded
    /// circuit stamps and sweeps bit-identically to this one. Consumed by
    /// the `pdn-service` extraction cache.
    pub fn write_to(&self, w: &mut pdn_num::ByteWriter) {
        w.put_usize(self.names.len());
        for name in &self.names {
            w.put_str(name);
        }
        w.put_usize_slice(&self.ports);
        w.put_matrix_f64(&self.b);
        w.put_matrix_f64(&self.g);
        w.put_matrix_f64(&self.c);
        w.put_f64(self.tan_d);
    }

    /// Deserializes a macromodel written by [`write_to`](Self::write_to),
    /// re-validated through [`from_parts`](Self::from_parts).
    ///
    /// # Errors
    ///
    /// [`pdn_num::CodecError`] on truncation or when the decoded parts
    /// fail `from_parts` validation (dimension mismatch, bad port index).
    pub fn read_from(r: &mut pdn_num::ByteReader<'_>) -> Result<Self, pdn_num::CodecError> {
        let n = r.get_usize()?;
        let names: Vec<String> = (0..n).map(|_| r.get_str()).collect::<Result<_, _>>()?;
        let ports = r.get_usize_vec()?;
        let b = r.get_matrix_f64()?;
        let g = r.get_matrix_f64()?;
        let c = r.get_matrix_f64()?;
        let tan_d = r.get_f64()?;
        EquivalentCircuit::from_parts(names, ports, b, g, c, tan_d)
            .map_err(|e| pdn_num::CodecError::Invalid(format!("equivalent circuit: {e}")))
    }

    /// Number of retained circuit nodes.
    pub fn node_count(&self) -> usize {
        self.names.len()
    }

    /// Number of ports.
    pub fn port_count(&self) -> usize {
        self.ports.len()
    }

    /// Retained-node index of mesh port `p` (in binding order).
    ///
    /// # Panics
    ///
    /// Panics for an out-of-range port index.
    pub fn port_node(&self, p: usize) -> usize {
        self.ports[p]
    }

    /// Node names (port names where applicable).
    pub fn node_names(&self) -> &[String] {
        &self.names
    }

    /// Reduced reluctance (inverse-inductance) matrix `B` (1/H).
    pub fn reluctance(&self) -> &Matrix<f64> {
        &self.b
    }

    /// Reduced capacitance matrix `C` (F).
    pub fn capacitance(&self) -> &Matrix<f64> {
        &self.c
    }

    /// Reduced DC conductance matrix `G` (S).
    pub fn conductance(&self) -> &Matrix<f64> {
        &self.g
    }

    /// Dielectric loss tangent used in frequency-domain evaluations
    /// (taken from the plane pair at extraction; override with
    /// [`with_dielectric_loss`](Self::with_dielectric_loss)).
    pub fn dielectric_loss_tangent(&self) -> f64 {
        self.tan_d
    }

    /// Overrides the dielectric loss tangent (builder style). Affects
    /// [`admittance`](Self::admittance)/[`impedance`](Self::impedance)
    /// only; time-domain netlists stay lossless dielectrically (a
    /// constant-R realization of tanδ does not exist).
    pub fn with_dielectric_loss(mut self, tan_d: f64) -> Self {
        self.tan_d = tan_d.max(0.0);
        self
    }

    /// Shunt capacitance of node `m` to the reference (eq. 27 row sum).
    pub fn shunt_capacitance(&self, m: usize) -> f64 {
        (0..self.node_count()).map(|n| self.c[(m, n)]).sum()
    }

    /// All circuit branches between node pairs (paper eqs. 22–25).
    pub fn branches(&self) -> Vec<Branch> {
        let n = self.node_count();
        let tol_b = 1e-12 * self.b.max_abs();
        let tol_c = 1e-12 * self.c.max_abs();
        let tol_g = 1e-12 * self.g.max_abs();
        let mut out = Vec::new();
        for m in 0..n {
            for nn in (m + 1)..n {
                let binv = -self.b[(m, nn)];
                let g = -self.g[(m, nn)];
                let c = -self.c[(m, nn)];
                if binv.abs() > tol_b || c.abs() > tol_c || g.abs() > tol_g {
                    out.push(Branch {
                        m,
                        n: nn,
                        inverse_inductance: binv,
                        conductance: g,
                        capacitance: c,
                    });
                }
            }
        }
        out
    }

    /// Nodal admittance of the branch circuit at frequency `f` (Hz).
    ///
    /// Lossless extraction reproduces `Y = B/(jω) + jωC` exactly; with
    /// loss, each inductive branch gets its DC resistance in series —
    /// the paper's first-order loss model.
    pub fn admittance(&self, f: f64) -> Matrix<c64> {
        let omega = 2.0 * PI * f;
        let n = self.node_count();
        let mut y = Matrix::<c64>::zeros(n, n);
        let stamp = |m: usize, nn: usize, yb: c64, y: &mut Matrix<c64>| {
            y[(m, m)] += yb;
            y[(nn, nn)] += yb;
            y[(m, nn)] -= yb;
            y[(nn, m)] -= yb;
        };
        // Lossy dielectric: Y_C = jωC(1 − j·tanδ) = ω·tanδ·C + jωC.
        let cap_y = |c: f64| c64::new(omega * self.tan_d * c, omega * c);
        for br in self.branches() {
            let mut yb = cap_y(br.capacitance);
            if br.inverse_inductance > 0.0 {
                // Series R + jωL with L = 1/binv.
                let r = if br.conductance > 0.0 {
                    1.0 / br.conductance
                } else {
                    0.0
                };
                let z = c64::new(r, omega / br.inverse_inductance);
                yb += z.recip();
            } else if br.inverse_inductance < 0.0 {
                // Negative mutual-coupling residue from the Kron reduction:
                // realized as a pure (negative) inductance. Pairing it with
                // a series resistance would create an ACTIVE branch
                // (R + sL with L < 0 has a right-half-plane zero) and blow
                // up time-domain runs; lossless it stays part of the
                // passive aggregate reluctance network.
                // y = binv/(jω) = −j·binv/ω.
                yb += c64::from_im(-br.inverse_inductance / omega);
            } else if br.conductance != 0.0 {
                yb += c64::from_re(br.conductance);
            }
            stamp(br.m, br.n, yb, &mut y);
        }
        // Shunt terms (row sums): capacitance to the reference plane plus
        // any residual B/G row sums (≈ 0 for a pure branch network).
        // y_shunt = g_sh + jω·c_sh + b_sh/(jω) = g_sh + j(ω·c_sh − b_sh/ω).
        for m in 0..n {
            let c_sh = self.shunt_capacitance(m);
            let b_sh: f64 = (0..n).map(|k| self.b[(m, k)]).sum();
            let g_sh: f64 = (0..n).map(|k| self.g[(m, k)]).sum();
            y[(m, m)] += cap_y(c_sh) + c64::new(g_sh, -b_sh / omega);
        }
        y
    }

    /// Port impedance matrix at frequency `f` (Hz).
    ///
    /// # Errors
    ///
    /// Returns [`ExtractCircuitError::InvalidInput`] unless `f` is finite
    /// and positive, and [`ExtractCircuitError::NumericalBreakdown`] for a
    /// singular admittance.
    pub fn impedance(&self, f: f64) -> Result<Matrix<c64>, ExtractCircuitError> {
        if !(f.is_finite() && f > 0.0) {
            return Err(ExtractCircuitError::InvalidInput(format!(
                "impedance requires a finite f > 0, got f = {f}"
            )));
        }
        let y = self.admittance(f);
        let lu = LuDecomposition::new(y)
            .map_err(|e| ExtractCircuitError::NumericalBreakdown(e.to_string()))?;
        let n = self.node_count();
        let np = self.ports.len();
        let mut z = Matrix::<c64>::zeros(np, np);
        for (pj, &node_j) in self.ports.iter().enumerate() {
            let mut rhs = vec![c64::ZERO; n];
            rhs[node_j] = c64::ONE;
            let v = lu
                .solve(&rhs)
                .map_err(|e| ExtractCircuitError::NumericalBreakdown(e.to_string()))?;
            for (pi, &node_i) in self.ports.iter().enumerate() {
                z[(pi, pj)] = v[node_i];
            }
        }
        Ok(z)
    }

    /// Port S-parameters at frequency `f` with reference impedance `z0`.
    ///
    /// # Errors
    ///
    /// Propagates impedance/conversion failures.
    pub fn s_parameters(&self, f: f64, z0: f64) -> Result<Matrix<c64>, ExtractCircuitError> {
        let z = self.impedance(f)?;
        pdn_circuit::s_from_z(&z, z0)
            .map_err(|e| ExtractCircuitError::NumericalBreakdown(e.to_string()))
    }

    /// Batched [`impedance`](Self::impedance): one port impedance matrix
    /// per frequency, computed on [`pdn_num::parallel`] workers with one
    /// cached admittance factorization per sweep point. Output order
    /// matches `freqs` and is identical for any worker count. The values
    /// of [`impedance_sweep_with`](Self::impedance_sweep_with) at
    /// [`SweepAccuracy::Exact`].
    ///
    /// # Errors
    ///
    /// Returns the error of the lowest-index failing point; the grid must
    /// be finite, strictly positive, and strictly increasing.
    pub fn impedance_sweep(&self, freqs: &[f64]) -> Result<Vec<Matrix<c64>>, ExtractCircuitError> {
        Ok(self
            .impedance_sweep_with(freqs, SweepAccuracy::Exact)?
            .values)
    }

    /// [`impedance_sweep`](Self::impedance_sweep) with an explicit
    /// [`SweepAccuracy`] policy — `Rational` factors only adaptively
    /// chosen anchor frequencies exactly and fills the rest from a
    /// certified barycentric interpolant (see `pdn_num::rational`) —
    /// returning the full [`SweepOutcome`] (values, engine stats,
    /// rational model).
    ///
    /// # Errors
    ///
    /// [`ExtractCircuitError::InvalidInput`] for an invalid grid or
    /// tolerance; otherwise the lowest-index failing point's error.
    pub fn impedance_sweep_with(
        &self,
        freqs: &[f64],
        accuracy: SweepAccuracy,
    ) -> Result<SweepOutcome, ExtractCircuitError> {
        rational::sweep(freqs, accuracy, |f| self.impedance(f))
            .map_err(|e| e.into_error(ExtractCircuitError::InvalidInput))
    }

    /// Batched [`s_parameters`](Self::s_parameters) over a frequency
    /// sweep, parallel per point. The values of
    /// [`s_parameter_sweep_with`](Self::s_parameter_sweep_with) at
    /// [`SweepAccuracy::Exact`].
    ///
    /// # Errors
    ///
    /// Returns the error of the lowest-index failing point; the grid must
    /// be finite, strictly positive, and strictly increasing.
    pub fn s_parameter_sweep(
        &self,
        freqs: &[f64],
        z0: f64,
    ) -> Result<Vec<Matrix<c64>>, ExtractCircuitError> {
        Ok(self
            .s_parameter_sweep_with(freqs, z0, SweepAccuracy::Exact)?
            .values)
    }

    /// [`s_parameter_sweep`](Self::s_parameter_sweep) with an explicit
    /// [`SweepAccuracy`] policy — under `Rational`, the scattering matrix
    /// itself is interpolated (S inherits the rational structure of Z) —
    /// returning the full [`SweepOutcome`] (values, engine stats,
    /// rational model).
    ///
    /// # Errors
    ///
    /// [`ExtractCircuitError::InvalidInput`] for an invalid grid or
    /// tolerance; otherwise the lowest-index failing point's error.
    pub fn s_parameter_sweep_with(
        &self,
        freqs: &[f64],
        z0: f64,
        accuracy: SweepAccuracy,
    ) -> Result<SweepOutcome, ExtractCircuitError> {
        rational::sweep(freqs, accuracy, |f| self.s_parameters(f, z0))
            .map_err(|e| e.into_error(ExtractCircuitError::InvalidInput))
    }

    /// Finds the input-impedance resonances at a port, **ascending** with
    /// peaks closer than one grid step deduplicated. The scan grid is
    /// solved by [`impedance_sweep`](Self::impedance_sweep), so points
    /// are evaluated in parallel.
    ///
    /// # Errors
    ///
    /// Returns [`ExtractCircuitError::InvalidInput`] unless `port` is a
    /// port of the model, `points >= 2`, and `0 < f_start < f_stop`;
    /// otherwise propagates solve failures.
    pub fn find_resonances(
        &self,
        port: usize,
        f_start: f64,
        f_stop: f64,
        points: usize,
    ) -> Result<Vec<f64>, ExtractCircuitError> {
        self.find_resonances_with(port, f_start, f_stop, points, SweepAccuracy::Exact)
    }

    /// [`find_resonances`](Self::find_resonances) with an explicit
    /// [`SweepAccuracy`] policy. Under `Rational` accuracy the rational
    /// model's poles seed the peak search (each in-band pole is refined
    /// against `|Z|` near its real part) instead of rescanning the filled
    /// grid.
    ///
    /// # Errors
    ///
    /// Same contract as [`find_resonances`](Self::find_resonances).
    pub fn find_resonances_with(
        &self,
        port: usize,
        f_start: f64,
        f_stop: f64,
        points: usize,
        accuracy: SweepAccuracy,
    ) -> Result<Vec<f64>, ExtractCircuitError> {
        rational::scan_resonances(
            port,
            self.port_count(),
            f_start,
            f_stop,
            points,
            ExtractCircuitError::InvalidInput,
            |freqs| self.impedance_sweep_with(freqs, accuracy),
        )
    }

    /// Exports the macromodel into a [`pdn_circuit::Circuit`] with the
    /// default [`Realization::Passive`] policy, returning the created
    /// circuit node of every retained node (in node order).
    pub fn to_circuit(&self, ckt: &mut Circuit, prefix: &str) -> Vec<NodeId> {
        self.to_circuit_with(ckt, prefix, Realization::Passive)
    }

    /// [`to_circuit`](Self::to_circuit) with an explicit realization
    /// policy.
    pub fn to_circuit_with(
        &self,
        ckt: &mut Circuit,
        prefix: &str,
        realization: Realization,
    ) -> Vec<NodeId> {
        let nodes: Vec<NodeId> = self
            .names
            .iter()
            .map(|name| ckt.node(format!("{prefix}{name}")))
            .collect();
        for element in self.realize(realization) {
            match element {
                RealizedElement::SeriesRl { a, b, r, l } => {
                    let mid = ckt.new_node();
                    ckt.resistor(nodes[a], mid, r);
                    ckt.inductor(mid, nodes[b], l);
                }
                RealizedElement::Inductor { a, b, l } => ckt.inductor(nodes[a], nodes[b], l),
                RealizedElement::Resistor { a, b, r } => ckt.resistor(nodes[a], nodes[b], r),
                RealizedElement::Capacitor { a, b, c } => {
                    ckt.capacitor(nodes[a], b.map_or(Circuit::GND, |b| nodes[b]), c)
                }
            }
        }
        nodes
    }

    /// The netlist realization rule behind [`to_circuit_with`] and
    /// [`to_spice_subckt`], in element order. Per branch: its inductance
    /// when positive (or under [`Realization::Exact`], any nonzero one),
    /// with the series resistance ahead of a positive inductance, or else
    /// its resistance alone; then its coupling capacitance. Last, every
    /// node's positive shunt capacitance.
    ///
    /// [`to_circuit_with`]: Self::to_circuit_with
    /// [`to_spice_subckt`]: Self::to_spice_subckt
    pub(crate) fn realize(&self, realization: Realization) -> Vec<RealizedElement> {
        let mut out = Vec::new();
        for br in self.branches() {
            let (a, b) = (br.m, br.n);
            let binv = br.inverse_inductance;
            if binv > 0.0 || (binv < 0.0 && realization == Realization::Exact) {
                let l = 1.0 / binv;
                // Series resistance goes only on positive-inductance
                // branches: R in series with a negative L is an active
                // one-port and destabilizes transient runs.
                out.push(match br.resistance() {
                    Some(r) if binv > 0.0 => RealizedElement::SeriesRl { a, b, r, l },
                    _ => RealizedElement::Inductor { a, b, l },
                });
            } else if br.conductance > 0.0 {
                let r = 1.0 / br.conductance;
                out.push(RealizedElement::Resistor { a, b, r });
            }
            if br.capacitance > 0.0 {
                let c = br.capacitance;
                out.push(RealizedElement::Capacitor { a, b: Some(b), c });
            }
        }
        for a in 0..self.node_count() {
            let c = self.shunt_capacitance(a);
            if c > 0.0 {
                out.push(RealizedElement::Capacitor { a, b: None, c });
            }
        }
        out
    }

    /// Whether the macromodel carries conductor loss: `true` when the
    /// reduced DC conductance matrix `G` has a nonzero entry (the links
    /// have resistance), `false` for a lossless extraction.
    pub fn has_loss(&self) -> bool {
        self.g.max_abs() > 0.0
    }

    /// The macromodel as the transient engine would stamp it: a scratch
    /// [`Circuit`] holding the default [`Realization::Passive`] netlist,
    /// plus the circuit node of every port.
    fn stamped_ports(&self) -> (Circuit, Vec<NodeId>) {
        let mut ckt = Circuit::new();
        let nodes = self.to_circuit(&mut ckt, "rom_");
        let ports = (0..self.port_count())
            .map(|p| nodes[self.port_node(p)])
            .collect();
        (ckt, ports)
    }

    /// Fits a passive pole–residue reduced-order model of the **port
    /// admittance of the as-stamped netlist** (the default
    /// [`Realization::Passive`] export, which drops negative Kron
    /// residues and dielectric loss — exactly what a transient run
    /// stamps), so that simulating the returned model by recursive
    /// convolution reproduces the full-stamp waveforms to the fit
    /// tolerance.
    ///
    /// The fit runs a certified rational sweep over `spec.points`
    /// logarithmically spaced frequencies in `[spec.f_min, spec.f_max]`,
    /// converts the barycentric model to pole–residue form, enforces
    /// passivity, and certifies the result against exact solves at
    /// geometric-midpoint frequencies never seen by the fit (tolerance
    /// `spec.cert_tol`). The returned model's accessors report its size
    /// and fit quality.
    ///
    /// # Errors
    ///
    /// [`ExtractCircuitError::InvalidInput`] for a bad band or tolerance;
    /// [`ExtractCircuitError::NumericalBreakdown`] when the sweep cannot
    /// certify a rational model or the pole–residue conversion fails its
    /// held-out certification.
    pub fn reduce_order(&self, spec: &RomSpec) -> Result<PoleResidueModel, ExtractCircuitError> {
        if !spec.f_min.is_finite()
            || !spec.f_max.is_finite()
            || spec.f_min <= 0.0
            || spec.f_max <= spec.f_min
        {
            return Err(ExtractCircuitError::InvalidInput(format!(
                "reduced-order fit band must satisfy 0 < f_min < f_max, got [{:e}, {:e}]",
                spec.f_min, spec.f_max
            )));
        }
        if spec.points < 8 {
            return Err(ExtractCircuitError::InvalidInput(format!(
                "reduced-order fit needs at least 8 points, got {}",
                spec.points
            )));
        }
        let (ckt, ports) = self.stamped_ports();
        let eval = |f: f64| -> Result<Matrix<c64>, ExtractCircuitError> {
            let z = ckt
                .impedance_matrix(f, &ports)
                .map_err(|e| ExtractCircuitError::NumericalBreakdown(e.to_string()))?;
            let lu = LuDecomposition::new(z)
                .map_err(|e| ExtractCircuitError::NumericalBreakdown(e.to_string()))?;
            lu.inverse()
                .map_err(|e| ExtractCircuitError::NumericalBreakdown(e.to_string()))
        };
        let grid: Vec<f64> = (0..spec.points)
            .map(|k| {
                spec.f_min * (spec.f_max / spec.f_min).powf(k as f64 / (spec.points - 1) as f64)
            })
            .collect();
        let outcome = rational::sweep(
            &grid,
            SweepAccuracy::Rational {
                rel_tol: spec.rel_tol,
            },
            eval,
        )
        .map_err(|e| e.into_error(ExtractCircuitError::InvalidInput))?;
        let model = outcome.model.ok_or_else(|| {
            ExtractCircuitError::NumericalBreakdown(
                "rational sweep did not certify an interpolant for the reduced-order fit".into(),
            )
        })?;
        // Held-out certification grid: geometric midpoints of fit
        // intervals, never touched by the sweep.
        let stride = ((spec.points - 1) / 8).max(1);
        let mut holdout = Vec::new();
        let mut holdout_values = Vec::new();
        for k in (0..spec.points - 1).step_by(stride) {
            let f = (grid[k] * grid[k + 1]).sqrt();
            holdout_values.push(eval(f)?);
            holdout.push(f);
        }
        PoleResidueModel::from_rational(
            &model,
            &grid,
            &outcome.values,
            &holdout,
            &holdout_values,
            &PromOptions {
                cert_tol: spec.cert_tol,
            },
        )
        .map_err(from_prom_err)
    }
}

/// Maps every cell onto the nearest cell of `keep` *of the same net*,
/// returned as a position in `keep`: the aggregation clusters used to
/// condense the capacitance matrix. A tie goes to the earlier entry of
/// `keep`.
///
/// Every extraction route and the sharded composition in `pdn-shard` use
/// this one rule, so all of them produce the identical node grouping.
///
/// # Errors
///
/// Returns [`ExtractCircuitError::NumericalBreakdown`] when a net has no
/// cell in `keep`.
pub fn capacitance_clusters(
    mesh: &PlaneMesh,
    keep: &[usize],
) -> Result<Vec<usize>, ExtractCircuitError> {
    let n = mesh.cell_count();
    let cluster: Vec<usize> = (0..n)
        .map(|i| {
            let ci = mesh.cell_center(i);
            let net = mesh.cell_net(i);
            keep.iter()
                .enumerate()
                .filter(|&(_, &kcell)| mesh.cell_net(kcell) == net)
                .min_by(|a, b| {
                    let da = mesh.cell_center(*a.1).distance_sq(ci);
                    let db = mesh.cell_center(*b.1).distance_sq(ci);
                    da.partial_cmp(&db).expect("finite distances")
                })
                .map(|(pos, _)| pos)
                .unwrap_or(usize::MAX)
        })
        .collect();
    if cluster.contains(&usize::MAX) {
        return Err(ExtractCircuitError::NumericalBreakdown(
            "a net has no retained node for capacitance aggregation".into(),
        ));
    }
    Ok(cluster)
}

/// Equivalent-circuit node names (port names where bound, `n{cell}`
/// otherwise) and port→node index mapping for a kept cell set.
fn node_names_and_ports(mesh: &PlaneMesh, keep: &[usize]) -> (Vec<String>, Vec<usize>) {
    let mut names = Vec::with_capacity(keep.len());
    let pos_of = |cell: usize| keep.binary_search(&cell).expect("kept cell");
    for &cell in keep {
        if let Some(p) = mesh.ports().iter().find(|p| p.cell == cell) {
            names.push(p.name.clone());
        } else {
            names.push(format!("n{cell}"));
        }
    }
    let ports = mesh.ports().iter().map(|p| pos_of(p.cell)).collect();
    (names, ports)
}

/// The `B`, `G` and `C` matrices an extraction route returns, on the
/// kept cells.
type Reduced = (Matrix<f64>, Matrix<f64>, Matrix<f64>);

/// The sparse cell–link incidence `A` (links × cells): `+1` where a link
/// leaves a cell and `−1` where it enters, as in
/// [`PlaneMesh::incidence`](pdn_geom::PlaneMesh::incidence).
struct Incidence<'a> {
    links: &'a [Link],
    /// Each cell's `(link, sign)` entries, in link order.
    by_cell: Vec<Vec<(usize, f64)>>,
}

impl<'a> Incidence<'a> {
    fn new(mesh: &'a PlaneMesh) -> Self {
        let mut by_cell = vec![Vec::new(); mesh.cell_count()];
        for (l, cell, sign) in mesh.incidence() {
            by_cell[cell].push((l, sign));
        }
        Incidence {
            links: mesh.links(),
            by_cell,
        }
    }

    /// Columns `AᵀL⁻¹A·e_j` of the full-grid reluctance for the given
    /// cells `j`, from one panel solve with `L`.
    fn reluctance_columns<E>(
        &self,
        cells: &[usize],
        solve_l: impl Fn(&[Vec<f64>]) -> Result<Vec<Vec<f64>>, E>,
    ) -> Result<Vec<Vec<f64>>, E> {
        let rhs: Vec<Vec<f64>> = cells
            .iter()
            .map(|&j| {
                let mut a = vec![0.0; self.links.len()];
                for &(l, s) in &self.by_cell[j] {
                    a[l] += s;
                }
                a
            })
            .collect();
        // Aᵀx, accumulated in ascending link order.
        Ok(solve_l(&rhs)?
            .iter()
            .map(|x| {
                let mut y = vec![0.0; self.by_cell.len()];
                for (link, &v) in self.links.iter().zip(x) {
                    y[link.a] += v;
                    y[link.b] -= v;
                }
                y
            })
            .collect())
    }
}

/// A panel solve that takes its columns one by one on
/// [`pdn_num::parallel`] workers. Each column is solved serially and
/// lands by index, so the panel is bit-identical for any `PDN_THREADS`.
fn per_column<E: Send>(
    solve: impl Fn(&[f64]) -> Result<Vec<f64>, E> + Sync,
) -> impl Fn(&[Vec<f64>]) -> Result<Vec<Vec<f64>>, E> {
    move |rhs| pdn_num::parallel::try_par_map_indexed(rhs.len(), |t| solve(&rhs[t]))
}

/// Panel width of the per-column routes: enough columns to keep every
/// worker busy, few enough to bound the in-flight column memory.
fn per_column_width() -> usize {
    (pdn_num::parallel::worker_count() * 4).max(16)
}

/// The four blocks of a full-grid matrix over a [`Partition`].
struct Blocks {
    kk: Matrix<f64>,
    ke: Matrix<f64>,
    ek: Matrix<f64>,
    ee: Matrix<f64>,
}

/// Every column of the full-grid reluctance `B = AᵀL⁻¹A`, solved in
/// panels of `width` cells in index order and placed straight into the
/// partition's four blocks; the full matrix and its submatrix copies are
/// never held.
fn reluctance_blocks<E: fmt::Display>(
    part: &Partition,
    inc: &Incidence<'_>,
    width: usize,
    solve_l: impl Fn(&[Vec<f64>]) -> Result<Vec<Vec<f64>>, E>,
) -> Result<Blocks, ExtractCircuitError> {
    let (k, e) = (part.keep.len(), part.elim.len());
    let mut bl = Blocks {
        kk: Matrix::zeros(k, k),
        ke: Matrix::zeros(k, e),
        ek: Matrix::zeros(e, k),
        ee: Matrix::zeros(e, e),
    };
    let cells: Vec<usize> = (0..k + e).collect();
    for chunk in cells.chunks(width) {
        let cols = inc.reluctance_columns(chunk, &solve_l).map_err(breakdown)?;
        for (&j, y) in chunk.iter().zip(&cols) {
            for (i, &v) in y.iter().enumerate() {
                match (part.slot[i], part.slot[j]) {
                    (Slot::Kept(p), Slot::Kept(q)) => bl.kk[(p, q)] = v,
                    (Slot::Kept(p), Slot::Elim(q)) => bl.ke[(p, q)] = v,
                    (Slot::Elim(p), Slot::Kept(q)) => bl.ek[(p, q)] = v,
                    (Slot::Elim(p), Slot::Elim(q)) => bl.ee[(p, q)] = v,
                }
            }
        }
    }
    Ok(bl)
}

/// The DC link-resistance Laplacian `G` over a partition: the kept and
/// coupling blocks dense, the eliminated block as its diagonal plus its
/// few off-diagonal entries. It is stamped exactly symmetric, so the
/// coupling block's transpose is never stored.
struct Laplacian {
    kk: Matrix<f64>,
    ke: Matrix<f64>,
    ee_diag: Vec<f64>,
    /// Off-diagonal eliminated entries `(i, j, v)` with `i < j`, in link
    /// order; each stands for both `(i, j)` and `(j, i)`.
    ee_off: Vec<(usize, usize, f64)>,
    /// Whether any link has a finite positive resistance. A lossless
    /// system has an identically zero `G` and skips its reduction.
    lossy: bool,
}

impl Laplacian {
    /// Stamps `1/r` of every resistive link: `+g` on the diagonals of its
    /// two cells, `−g` between them.
    fn stamp(part: &Partition, links: &[Link], r: &[f64]) -> Self {
        let (k, e) = (part.keep.len(), part.elim.len());
        let mut lap = Laplacian {
            kk: Matrix::zeros(k, k),
            ke: Matrix::zeros(k, e),
            ee_diag: vec![0.0; e],
            ee_off: Vec::new(),
            lossy: false,
        };
        for (link, &r) in links.iter().zip(r) {
            if !(r > 0.0 && r.is_finite()) {
                continue;
            }
            lap.lossy = true;
            let g = 1.0 / r;
            let (a, b) = (link.a, link.b);
            for (i, j, v) in [(a, a, g), (b, b, g), (a, b, -g), (b, a, -g)] {
                match (part.slot[i], part.slot[j]) {
                    (Slot::Kept(p), Slot::Kept(q)) => lap.kk[(p, q)] += v,
                    (Slot::Kept(p), Slot::Elim(q)) => lap.ke[(p, q)] += v,
                    // The transpose of a coupling entry.
                    (Slot::Elim(_), Slot::Kept(_)) => {}
                    (Slot::Elim(p), Slot::Elim(q)) if p == q => lap.ee_diag[p] += v,
                    (Slot::Elim(p), Slot::Elim(q)) => {
                        if p < q {
                            lap.ee_off.push((p, q, v));
                        }
                    }
                }
            }
        }
        lap
    }

    /// `G` Kron-reduced by a dense LU of the eliminated block.
    fn reduce_dense(&self) -> Result<Matrix<f64>, ExtractCircuitError> {
        let (k, e) = (self.kk.nrows(), self.ee_diag.len());
        if !self.lossy {
            return Ok(Matrix::zeros(k, k));
        }
        let mut ee = Matrix::zeros(e, e);
        for (i, &d) in self.ee_diag.iter().enumerate() {
            ee[(i, i)] = d;
        }
        for &(i, j, v) in &self.ee_off {
            ee[(i, j)] += v;
            ee[(j, i)] += v;
        }
        kron_reduce_blocks(&self.kk, &self.ke, ee)
            .map_err(|err| no_node("Kron reduction of G", err))
    }

    /// Applies the eliminated block to a panel of columns.
    fn apply_ee(&self, cols: &[Vec<f64>]) -> Vec<Vec<f64>> {
        pdn_num::parallel::par_map_indexed(cols.len(), |t| {
            let x = &cols[t];
            let mut y: Vec<f64> = self.ee_diag.iter().zip(x).map(|(d, v)| d * v).collect();
            for &(i, j, v) in &self.ee_off {
                y[i] += v * x[j];
                y[j] += v * x[i];
            }
            y
        })
    }
}

/// `C = SᵀP⁻¹S` with `S` the indicator matrix of the capacitance
/// clusters ([`capacitance_clusters`]): the indicators of the nodes in
/// `order` are solved with `P` in panels of `width`, each solution summed
/// per cluster, and the result symmetrized.
fn cluster_capacitance<E: fmt::Display>(
    mesh: &PlaneMesh,
    keep: &[usize],
    order: &[usize],
    width: usize,
    solve_p: impl Fn(&[Vec<f64>]) -> Result<Vec<Vec<f64>>, E>,
) -> Result<Matrix<f64>, ExtractCircuitError> {
    let n = mesh.cell_count();
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); keep.len()];
    for (i, q) in capacitance_clusters(mesh, keep)?.into_iter().enumerate() {
        members[q].push(i);
    }
    let mut c = Matrix::zeros(keep.len(), keep.len());
    for chunk in order.chunks(width) {
        let rhs: Vec<Vec<f64>> = chunk
            .iter()
            .map(|&q| {
                let mut s = vec![0.0; n];
                for &i in &members[q] {
                    s[i] = 1.0;
                }
                s
            })
            .collect();
        for (&q, z) in chunk.iter().zip(&solve_p(&rhs).map_err(breakdown)?) {
            for (r, cells) in members.iter().enumerate() {
                c[(r, q)] = cells.iter().map(|&i| z[i]).sum::<f64>();
            }
        }
    }
    symmetrize(&mut c);
    Ok(c)
}

/// A solver failure as an extraction breakdown.
fn breakdown(e: impl fmt::Display) -> ExtractCircuitError {
    ExtractCircuitError::NumericalBreakdown(e.to_string())
}

/// A failed reduction step, with its usual cause spelled out.
fn no_node(what: &str, err: impl fmt::Display) -> ExtractCircuitError {
    ExtractCircuitError::NumericalBreakdown(format!(
        "{what} failed: {err} (does every net keep at least one node?)"
    ))
}

/// CG tolerance of the compressed routes: two decades tighter than the
/// certified kernel tolerance, so iteration error stays negligible
/// against the compression error.
fn cg_tol(ck: &CompressedKernels) -> f64 {
    (ck.spec.tol * 1e-2).max(1e-14)
}

/// CG iteration cap for a system of dimension `dim`.
fn max_iter(dim: usize) -> usize {
    10 * dim.max(10) + 100
}

/// The dense route: Cholesky solves with `L`, LU Schur complements of
/// the unsymmetrized blocks, and the cluster sums of the dense `C`.
fn dense_route(
    sys: &BemSystem,
    part: &Partition,
    inc: &Incidence<'_>,
    lap: &Laplacian,
) -> Result<Reduced, ExtractCircuitError> {
    let ch = CholeskyDecomposition::new(sys.inductance())
        .map_err(|e| ExtractCircuitError::NumericalBreakdown(format!("L not SPD: {e}")))?;
    let bl = reluctance_blocks(part, inc, per_column_width(), per_column(|a| ch.solve(a)))?;
    // B and G: Kron reduction (internal nodes carry no external
    // injection in the inductive/resistive sub-network).
    let b =
        schur(&bl.kk, &bl.ke, &bl.ek, bl.ee).map_err(|err| no_node("Kron reduction of B", err))?;
    let g = lap.reduce_dense()?;
    // C: cluster aggregation, NOT Kron. Eliminated cells are still plane
    // metal, locally equipotential with the nearest retained cell through
    // the tiny link inductance, so their charge must aggregate onto that
    // node. (Kron on C would leave them floating and lose most of the
    // plate capacitance.) Clusters never cross nets.
    let cluster = capacitance_clusters(sys.mesh(), &part.keep)?;
    let c_full = sys.capacitance();
    let k = part.keep.len();
    let mut c = Matrix::zeros(k, k);
    for (i, &ci) in cluster.iter().enumerate() {
        for (j, &cj) in cluster.iter().enumerate() {
            c[(ci, cj)] += c_full[(i, j)];
        }
    }
    Ok((b, g, c))
}

/// The per-column CG route ([`SolverSpec::ScalarJacobi`]): Jacobi CG on
/// the compressed `L` and `P` stands in for the dense factorizations,
/// one solve per column, then dense Schur complements of the symmetrized
/// blocks by [`kron_reduce_blocks`].
fn scalar_cg_route(
    ck: &CompressedKernels,
    mesh: &PlaneMesh,
    part: &Partition,
    inc: &Incidence<'_>,
    lap: &Laplacian,
) -> Result<Reduced, ExtractCircuitError> {
    let tol = cg_tol(ck);
    let (n, m) = (part.slot.len(), inc.links.len());
    let width = per_column_width();
    let solve_l = per_column(|a| ck.l.solve(a, tol, max_iter(m)));
    let Blocks {
        mut kk,
        mut ke,
        ek,
        mut ee,
    } = reluctance_blocks(part, inc, width, solve_l)?;
    // B is symmetric up to the CG tolerance; symmetrize deterministically
    // before the Schur reduction assumes it.
    symmetrize(&mut kk);
    symmetrize(&mut ee);
    for p in 0..kk.nrows() {
        for q in 0..ee.nrows() {
            ke[(p, q)] = 0.5 * (ke[(p, q)] + ek[(q, p)]);
        }
    }
    drop(ek);
    let b = kron_reduce_blocks(&kk, &ke, ee).map_err(|err| no_node("Kron reduction of B", err))?;
    drop((kk, ke));
    let g = lap.reduce_dense()?;
    let order: Vec<usize> = (0..part.keep.len()).collect();
    let solve_p = per_column(|s| ck.p.solve(s, tol, max_iter(n)));
    let c = cluster_capacitance(mesh, &part.keep, &order, width, solve_p)?;
    Ok((b, g, c))
}

/// The block-CG route ([`SolverSpec::BlockCg`]): right-hand sides are
/// solved in panels of [`pdn_bem::BLOCK_CG_PANEL`] columns by
/// [`pdn_num::cg::solve_spd_block`] under hierarchical block-Jacobi
/// preconditioners built from the kernels' ACA cluster trees. The
/// eliminated B-block, the dense `e²` working set of the other routes, is
/// assembled as a certified [`pdn_bem::CompressedColumns`] operator, and
/// both `B` and `G` are reduced by the operator-form Schur complement
/// [`kron_reduce_operator`].
///
/// Panels run serially in fixed order and every inner parallel fan is
/// per-column in index order, so the result is bit-identical for any
/// `PDN_THREADS`.
fn block_cg_route(
    ck: &CompressedKernels,
    mesh: &PlaneMesh,
    part: &Partition,
    inc: &Incidence<'_>,
    lap: &Laplacian,
) -> Result<Reduced, ExtractCircuitError> {
    let panel = pdn_bem::BLOCK_CG_PANEL;
    let tol = cg_tol(ck);
    let (n, m) = (part.slot.len(), inc.links.len());
    let (k, e) = (part.keep.len(), part.elim.len());

    // Hierarchical preconditioners over the kernels' coarsened cluster
    // trees.
    let l_pc = ck.l.block_jacobi(true).map_err(breakdown)?;
    let p_pc = ck.p.block_jacobi(true).map_err(breakdown)?;
    let solve_l = |rhs: &[Vec<f64>]| ck.l.solve_block(rhs, &l_pc, tol, max_iter(m));

    // Retained nodes in the P cluster tree's traversal order: panels of
    // geometrically coherent right-hand sides share a Krylov subspace
    // much better than keep-index-ordered ones, so the block solves
    // converge in fewer iterations. The order depends only on the
    // deterministic tree, never on the worker count.
    let tree_order: Vec<usize> =
        ck.p.leaf_clusters(false)
            .into_iter()
            .flatten()
            .filter_map(|i| part.kept(i))
            .collect();

    // --- Kept columns of B: dense (k × k) and (k × e) blocks --------
    let mut b_kk = Matrix::zeros(k, k);
    let mut b_ke = Matrix::zeros(k, e);
    for chunk in tree_order.chunks(panel) {
        let cells: Vec<usize> = chunk.iter().map(|&q| part.keep[q]).collect();
        let cols = inc.reluctance_columns(&cells, solve_l).map_err(breakdown)?;
        for (&q, y) in chunk.iter().zip(&cols) {
            for (i, &v) in y.iter().enumerate() {
                match part.slot[i] {
                    Slot::Kept(p) => b_kk[(p, q)] = v,
                    // B is symmetric up to the CG tolerance: the
                    // eliminated rows of kept columns are the kept rows
                    // of eliminated columns, so the coupling block never
                    // needs eliminated-column solves.
                    Slot::Elim(p) => b_ke[(q, p)] = v,
                }
            }
        }
    }
    symmetrize(&mut b_kk);

    // --- B_ee as a certified low-rank column compression ------------
    // Its columns are generated panel-wise by the same block solves and
    // compressed on the fly; the Schur complement is then taken
    // iteratively against the compressed operator, so the dense e²
    // array is never materialized.
    let (b, elim_clusters) = if e == 0 {
        (b_kk.clone(), Vec::new())
    } else {
        let elim_points: Vec<(f64, f64)> = part
            .elim
            .iter()
            .map(|&i| {
                let c = mesh.cell_center(i);
                (c.x, c.y)
            })
            .collect();
        let bee = pdn_bem::CompressedColumns::build(
            &elim_points,
            &ck.spec,
            panel,
            &mut |local: &[usize]| {
                let cells: Vec<usize> = local.iter().map(|&q| part.elim[q]).collect();
                let cols = inc.reluctance_columns(&cells, solve_l)?;
                Ok(cols
                    .into_iter()
                    .map(|y| part.elim.iter().map(|&i| y[i]).collect())
                    .collect())
            },
        )
        .map_err(breakdown)?;
        let elim_clusters = bee.leaf_clusters(true);
        let mats = bee.cluster_restrictions(&elim_clusters);
        let bee_pc = pdn_num::BlockJacobiPreconditioner::from_blocks(
            e,
            elim_clusters.iter().cloned().zip(mats).collect(),
        )
        .map_err(|err| no_node("hierarchical B_ee preconditioner construction", err))?;
        let apply_bee = |cols: &[Vec<f64>]| -> Vec<Vec<f64>> { bee.matvec_block(cols) };
        let b = kron_reduce_operator(&b_kk, &b_ke, &apply_bee, &bee_pc, panel, tol, max_iter(e))
            .map_err(|err| no_node("iterative Kron reduction of B", err))?;
        (b, elim_clusters)
    };
    drop((b_kk, b_ke));

    // --- G: Schur complement in operator form ------------------------
    let g = if !lap.lossy {
        Matrix::zeros(k, k)
    } else if e == 0 {
        lap.kk.clone()
    } else {
        // Block-Jacobi over the same geometric clusters as B_ee; the
        // per-cluster restrictions of the sparse Laplacian are stamped
        // directly.
        let mut cluster_of = vec![(usize::MAX, usize::MAX); e];
        for (ci, cl) in elim_clusters.iter().enumerate() {
            for (p, &i) in cl.iter().enumerate() {
                cluster_of[i] = (ci, p);
            }
        }
        let mut g_mats: Vec<Matrix<f64>> = elim_clusters
            .iter()
            .map(|cl| {
                let mut mat = Matrix::zeros(cl.len(), cl.len());
                for (p, &i) in cl.iter().enumerate() {
                    mat[(p, p)] = lap.ee_diag[i];
                }
                mat
            })
            .collect();
        for &(i, j, v) in &lap.ee_off {
            let (ci, pi) = cluster_of[i];
            let (cj, pj) = cluster_of[j];
            if ci == cj {
                g_mats[ci][(pi, pj)] += v;
                g_mats[ci][(pj, pi)] += v;
            }
        }
        let g_pc = pdn_num::BlockJacobiPreconditioner::from_blocks(
            e,
            elim_clusters.iter().cloned().zip(g_mats).collect(),
        )
        .map_err(|err| no_node("hierarchical G_ee preconditioner construction", err))?;
        let apply_gee = |cols: &[Vec<f64>]| -> Vec<Vec<f64>> { lap.apply_ee(cols) };
        kron_reduce_operator(&lap.kk, &lap.ke, &apply_gee, &g_pc, panel, tol, max_iter(e))
            .map_err(|err| no_node("iterative Kron reduction of G", err))?
    };

    // --- C in the B columns' tree-coherent panels ---------------------
    // (indicator clusters sit around their kept cell).
    let solve_p = |rhs: &[Vec<f64>]| ck.p.solve_block(rhs, &p_pc, tol, max_iter(n));
    let c = cluster_capacitance(mesh, &part.keep, &tree_order, panel, solve_p)?;
    Ok((b, g, c))
}

/// Spreads `count` equivalent-circuit retained nodes across a mesh —
/// convenience for choosing a stride producing roughly `count` nodes.
pub fn stride_for_node_budget(mesh: &PlaneMesh, count: usize) -> usize {
    let n = mesh.cell_count().max(1);
    let ratio = (n as f64 / count.max(1) as f64).sqrt();
    (ratio.round() as usize).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdn_bem::BemOptions;
    use pdn_geom::units::mm;
    use pdn_geom::{PlaneMesh, PlanePair, Point, Polygon};
    use pdn_greens::SurfaceImpedance;

    fn bem(lossy: bool, ports: &[(f64, f64)]) -> BemSystem {
        let mut mesh = PlaneMesh::build(&Polygon::rectangle(mm(20.0), mm(20.0)), mm(2.5)).unwrap();
        for (i, &(x, y)) in ports.iter().enumerate() {
            mesh.bind_port(format!("P{i}"), Point::new(x, y)).unwrap();
        }
        let pair = PlanePair::new(0.5e-3, 4.5).unwrap();
        let zs = if lossy {
            SurfaceImpedance::from_sheet_resistance(4e-3)
        } else {
            SurfaceImpedance::lossless()
        };
        BemSystem::assemble(mesh, &pair, &zs, &BemOptions::default()).unwrap()
    }

    #[test]
    fn all_nodes_lossless_matches_bem_admittance() {
        let sys = bem(false, &[(mm(2.0), mm(2.0))]);
        let eq = EquivalentCircuit::from_bem(&sys, &NodeSelection::All).unwrap();
        for &f in &[1e8, 1e9, 3e9] {
            let y_eq = eq.admittance(f);
            let y_bem = sys.nodal_admittance(f).unwrap();
            let scale = y_bem.max_abs();
            for i in 0..y_eq.nrows() {
                for j in 0..y_eq.ncols() {
                    let d = (y_eq[(i, j)] - y_bem[(i, j)]).norm();
                    assert!(d < 1e-8 * scale, "f={f} ({i},{j}): diff {d:.3e}");
                }
            }
        }
    }

    #[test]
    fn reduced_impedance_tracks_full_solution() {
        let sys = bem(true, &[(mm(2.0), mm(2.0)), (mm(17.0), mm(17.0))]);
        let eq =
            EquivalentCircuit::from_bem(&sys, &NodeSelection::PortsAndGrid { stride: 2 }).unwrap();
        // Accuracy degrades gracefully toward the first plane resonance
        // (≈ 3.5 GHz) — the expected macromodel behaviour.
        for &(f, tol) in &[(50e6, 0.01), (500e6, 0.05), (2e9, 0.2)] {
            let z_full = sys.port_impedance(f).unwrap();
            let z_red = eq.impedance(f).unwrap();
            for i in 0..2 {
                for j in 0..2 {
                    let rel = (z_full[(i, j)] - z_red[(i, j)]).norm() / z_full[(i, j)].norm();
                    assert!(rel < tol, "f={f} ({i},{j}): rel error {rel:.3}");
                }
            }
        }
    }

    #[test]
    fn four_node_circuit_branch_structure() {
        // The paper's Figure 2: a 4-node extraction has branches between
        // every node pair plus shunt capacitances.
        // Port coordinates snap to cell centers at 1.25 / 18.75 mm — a
        // rectangle centered on the plate, so symmetry arguments hold.
        let sys = bem(
            true,
            &[
                (mm(2.0), mm(2.0)),
                (mm(18.0), mm(2.0)),
                (mm(2.0), mm(18.0)),
                (mm(18.0), mm(18.0)),
            ],
        );
        let eq = EquivalentCircuit::from_bem(&sys, &NodeSelection::PortsOnly).unwrap();
        assert_eq!(eq.node_count(), 4);
        let branches = eq.branches();
        assert_eq!(branches.len(), 6); // complete graph K4
        for br in &branches {
            assert!(
                br.inverse_inductance > 0.0,
                "port-to-port inductive branches are positive"
            );
            assert!(br.conductance > 0.0, "lossy extraction has branch R");
            assert!(br.capacitance > 0.0, "mutual capacitance positive");
        }
        for m in 0..4 {
            assert!(eq.shunt_capacitance(m) > 0.0);
        }
        // Symmetric plate: the two diagonal branches (P0–P3 and P1–P2)
        // should match.
        let find = |m: usize, n: usize| {
            branches
                .iter()
                .find(|b| b.m == m && b.n == n)
                .copied()
                .unwrap()
        };
        let d1 = find(0, 3);
        let d2 = find(1, 2);
        assert!(
            (d1.inverse_inductance - d2.inverse_inductance).abs() < 1e-6 * d1.inverse_inductance
        );
    }

    #[test]
    fn compressed_extraction_matches_dense() {
        // Same mesh and surface impedance through both kernel paths; the
        // macromodels must agree to the compression tolerance (scaled per
        // matrix, since B, G, and C live on wildly different scales).
        let build = |spec: Option<pdn_bem::CompressionSpec>| {
            let mut mesh =
                PlaneMesh::build(&Polygon::rectangle(mm(24.0), mm(12.0)), mm(1.0)).unwrap();
            mesh.bind_port("P1", Point::new(mm(3.0), mm(6.0))).unwrap();
            mesh.bind_port("P2", Point::new(mm(21.0), mm(6.0))).unwrap();
            let pair = PlanePair::new(0.3e-3, 4.2).unwrap();
            let zs = SurfaceImpedance::from_sheet_resistance(5e-3);
            let opts = BemOptions {
                compression: spec,
                ..BemOptions::default()
            };
            BemSystem::assemble(mesh, &pair, &zs, &opts).unwrap()
        };
        let spec = pdn_bem::CompressionSpec {
            leaf_size: 16,
            ..pdn_bem::CompressionSpec::default()
        };
        let dense = build(None);
        let compressed = build(Some(spec));
        assert!(compressed.is_compressed());
        let sel = NodeSelection::PortsAndGrid { stride: 3 };
        let (eq_d, keep_d) = EquivalentCircuit::from_bem_detailed(&dense, &sel).unwrap();
        let (eq_c, keep_c) = EquivalentCircuit::from_bem_detailed(&compressed, &sel).unwrap();
        assert_eq!(keep_d, keep_c);
        assert_eq!(eq_d.names, eq_c.names);
        assert_eq!(eq_d.ports, eq_c.ports);
        let close = |a: &Matrix<f64>, b: &Matrix<f64>, what: &str| {
            let scale = a.max_abs().max(1e-300);
            for i in 0..a.nrows() {
                for j in 0..a.ncols() {
                    let d = (a[(i, j)] - b[(i, j)]).abs();
                    assert!(
                        d <= 1e-4 * scale,
                        "{what}({i},{j}): dense {} vs compressed {} (rel {:.3e})",
                        a[(i, j)],
                        b[(i, j)],
                        d / scale
                    );
                }
            }
        };
        close(&eq_d.b, &eq_c.b, "B");
        close(&eq_d.g, &eq_c.g, "G");
        close(&eq_d.c, &eq_c.c, "C");
        // End-to-end: port impedances from both macromodels agree.
        for &f in &[1e8, 1e9, 4e9] {
            let zd = eq_d.impedance(f).unwrap();
            let zc = eq_c.impedance(f).unwrap();
            let scale = zd.max_abs();
            for i in 0..zd.nrows() {
                for j in 0..zd.ncols() {
                    assert!((zd[(i, j)] - zc[(i, j)]).norm() <= 1e-4 * scale);
                }
            }
        }
    }

    #[test]
    fn block_solver_extraction_matches_dense() {
        // The BlockCg route (panel block CG, hierarchical preconditioners,
        // compressed B_ee with iterative Schur) against the dense path:
        // same certified-tolerance contract as the scalar compressed
        // route.
        let build = |spec: Option<pdn_bem::CompressionSpec>| {
            let mut mesh =
                PlaneMesh::build(&Polygon::rectangle(mm(24.0), mm(12.0)), mm(1.0)).unwrap();
            mesh.bind_port("P1", Point::new(mm(3.0), mm(6.0))).unwrap();
            mesh.bind_port("P2", Point::new(mm(21.0), mm(6.0))).unwrap();
            let pair = PlanePair::new(0.3e-3, 4.2).unwrap();
            let zs = SurfaceImpedance::from_sheet_resistance(5e-3);
            let opts = BemOptions {
                compression: spec,
                ..BemOptions::default()
            };
            BemSystem::assemble(mesh, &pair, &zs, &opts).unwrap()
        };
        let spec = pdn_bem::CompressionSpec {
            leaf_size: 16,
            ..pdn_bem::CompressionSpec::default()
        }
        .with_block_solver();
        assert!(spec.solver.is_block());
        let dense = build(None);
        let block = build(Some(spec));
        let sel = NodeSelection::PortsAndGrid { stride: 3 };
        let (eq_d, keep_d) = EquivalentCircuit::from_bem_detailed(&dense, &sel).unwrap();
        let (eq_b, keep_b) = EquivalentCircuit::from_bem_detailed(&block, &sel).unwrap();
        assert_eq!(keep_d, keep_b);
        assert_eq!(eq_d.names, eq_b.names);
        let close = |a: &Matrix<f64>, b: &Matrix<f64>, what: &str| {
            let scale = a.max_abs().max(1e-300);
            for i in 0..a.nrows() {
                for j in 0..a.ncols() {
                    let d = (a[(i, j)] - b[(i, j)]).abs();
                    assert!(
                        d <= 1e-4 * scale,
                        "{what}({i},{j}): dense {} vs block {} (rel {:.3e})",
                        a[(i, j)],
                        b[(i, j)],
                        d / scale
                    );
                }
            }
        };
        close(&eq_d.b, &eq_b.b, "B");
        close(&eq_d.g, &eq_b.g, "G");
        close(&eq_d.c, &eq_b.c, "C");
        for &f in &[1e8, 1e9, 4e9] {
            let zd = eq_d.impedance(f).unwrap();
            let zb = eq_b.impedance(f).unwrap();
            let scale = zd.max_abs();
            for i in 0..zd.nrows() {
                for j in 0..zd.ncols() {
                    assert!((zd[(i, j)] - zb[(i, j)]).norm() <= 1e-4 * scale);
                }
            }
        }
    }

    #[test]
    fn block_solver_keep_all_has_no_eliminated_block() {
        // NodeSelection::All leaves e == 0: the block route must skip the
        // compressed-columns machinery entirely and still agree with the
        // scalar compressed route bit-for-bit in structure.
        let build = |spec: pdn_bem::CompressionSpec| {
            let mut mesh =
                PlaneMesh::build(&Polygon::rectangle(mm(12.0), mm(8.0)), mm(1.0)).unwrap();
            mesh.bind_port("P1", Point::new(mm(2.0), mm(4.0))).unwrap();
            let pair = PlanePair::new(0.3e-3, 4.2).unwrap();
            let zs = SurfaceImpedance::from_sheet_resistance(5e-3);
            let opts = BemOptions {
                compression: Some(spec),
                ..BemOptions::default()
            };
            BemSystem::assemble(mesh, &pair, &zs, &opts).unwrap()
        };
        let spec = pdn_bem::CompressionSpec {
            leaf_size: 8,
            ..pdn_bem::CompressionSpec::default()
        };
        let scalar = build(spec);
        let block = build(spec.with_block_solver());
        let (eq_s, _) = EquivalentCircuit::from_bem_detailed(&scalar, &NodeSelection::All).unwrap();
        let (eq_b, _) = EquivalentCircuit::from_bem_detailed(&block, &NodeSelection::All).unwrap();
        assert_eq!(eq_s.node_count(), eq_b.node_count());
        let scale = eq_s.b.max_abs();
        for i in 0..eq_s.b.nrows() {
            for j in 0..eq_s.b.ncols() {
                assert!((eq_s.b[(i, j)] - eq_b.b[(i, j)]).abs() <= 1e-6 * scale);
            }
        }
    }

    #[test]
    fn resonance_survives_reduction() {
        let sys = bem(true, &[(mm(1.5), mm(1.5))]);
        let f10 = sys.pair().cavity_resonance(mm(20.0), mm(20.0), 1, 0);
        let eq =
            EquivalentCircuit::from_bem(&sys, &NodeSelection::PortsAndGrid { stride: 2 }).unwrap();
        let peaks = eq.find_resonances(0, 0.5 * f10, 1.4 * f10, 61).unwrap();
        assert!(!peaks.is_empty());
        let rel = (peaks[0] - f10).abs() / f10;
        assert!(rel < 0.12, "reduced-model resonance off by {rel:.3}");
    }

    #[test]
    fn netlist_export_matches_internal_impedance() {
        let sys = bem(true, &[(mm(2.0), mm(2.0)), (mm(17.0), mm(12.0))]);
        let eq =
            EquivalentCircuit::from_bem(&sys, &NodeSelection::PortsAndGrid { stride: 3 }).unwrap();
        // The Exact realization reproduces the internal impedance to
        // machine precision; the default Passive realization (negative
        // Kron residues dropped) stays within a few percent.
        let mut exact = Circuit::new();
        let nodes = eq.to_circuit_with(&mut exact, "pg_", Realization::Exact);
        let ports: Vec<NodeId> = (0..eq.port_count())
            .map(|p| nodes[eq.port_node(p)])
            .collect();
        let mut passive = Circuit::new();
        let pnodes = eq.to_circuit(&mut passive, "pg_");
        let pports: Vec<NodeId> = (0..eq.port_count())
            .map(|p| pnodes[eq.port_node(p)])
            .collect();
        for &f in &[100e6, 1e9] {
            let z_eq = eq.impedance(f).unwrap();
            let z_exact = exact.impedance_matrix(f, &ports).unwrap();
            for i in 0..2 {
                for j in 0..2 {
                    let rel = (z_exact[(i, j)] - z_eq[(i, j)]).norm() / z_eq[(i, j)].norm();
                    assert!(rel < 1e-6, "exact f={f}: rel {rel:.2e}");
                }
            }
        }
        // The passive drop shifts impedance nulls slightly, so compare at
        // low frequency (away from series resonances) and normalize by the
        // matrix scale rather than tiny individual entries.
        for &f in &[50e6, 200e6] {
            let z_eq = eq.impedance(f).unwrap();
            let z_passive = passive.impedance_matrix(f, &pports).unwrap();
            let scale = z_eq.max_abs();
            for i in 0..2 {
                for j in 0..2 {
                    let rel = (z_passive[(i, j)] - z_eq[(i, j)]).norm() / scale;
                    assert!(rel < 0.05, "passive f={f}: rel {rel:.2e}");
                }
            }
        }
    }

    #[test]
    fn exported_macromodel_transient_is_stable() {
        // Kron reduction produces many small NEGATIVE inverse-inductance
        // branches; pairing them with series resistance makes an active
        // branch and time-domain runs explode (regression: v_end ~ 1e122).
        // The exported netlist must stay bounded.
        let sys = bem(true, &[(mm(2.0), mm(2.0)), (mm(18.0), mm(18.0))]);
        let eq =
            EquivalentCircuit::from_bem(&sys, &NodeSelection::PortsAndGrid { stride: 2 }).unwrap();
        assert!(
            eq.branches().iter().any(|b| b.inverse_inductance < 0.0),
            "test premise: reduction produced negative branches"
        );
        let mut ckt = Circuit::new();
        let nodes = eq.to_circuit(&mut ckt, "pg_");
        let p0 = nodes[eq.port_node(0)];
        let p1 = nodes[eq.port_node(1)];
        let src = ckt.node("src");
        ckt.voltage_source(
            src,
            Circuit::GND,
            pdn_circuit::Waveform::pulse(0.0, 5.0, 0.1e-9, 0.2e-9, 0.2e-9, 1.0e-9),
        );
        ckt.resistor(src, p0, 50.0);
        ckt.resistor(p1, Circuit::GND, 50.0);
        let res = ckt
            .transient(&pdn_circuit::TransientSpec::new(6e-9, 2e-12))
            .unwrap();
        let v_end = res.voltage(p1).last().copied().unwrap();
        let v_max = res.voltage(p1).iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        assert!(v_max < 10.0, "bounded response, got {v_max}");
        assert!(v_end.abs() < 1.0, "ring-down, got {v_end}");
    }

    #[test]
    fn s_parameters_passive() {
        let sys = bem(true, &[(mm(2.0), mm(2.0)), (mm(17.0), mm(17.0))]);
        let eq =
            EquivalentCircuit::from_bem(&sys, &NodeSelection::PortsAndGrid { stride: 2 }).unwrap();
        let s = eq.s_parameters(1e9, 50.0).unwrap();
        // Passivity: all |S| entries ≤ 1 for a passive network.
        for i in 0..2 {
            for j in 0..2 {
                assert!(s[(i, j)].norm() <= 1.0 + 1e-9, "S({i},{j}) = {}", s[(i, j)]);
            }
        }
        // Reciprocity.
        assert!((s[(0, 1)] - s[(1, 0)]).norm() < 1e-9);
    }

    #[test]
    fn no_ports_rejected() {
        let mesh = PlaneMesh::build(&Polygon::rectangle(mm(10.0), mm(10.0)), mm(2.0)).unwrap();
        let pair = PlanePair::new(0.5e-3, 4.5).unwrap();
        let sys = BemSystem::assemble(
            mesh,
            &pair,
            &SurfaceImpedance::lossless(),
            &BemOptions::default(),
        )
        .unwrap();
        assert_eq!(
            EquivalentCircuit::from_bem(&sys, &NodeSelection::All).unwrap_err(),
            ExtractCircuitError::NoPorts
        );
    }

    /// The dense route against the formulas it replaced, recomputed here:
    /// `B` as `Aᵀ·X` from the dense incidence `A` and `X = L⁻¹A`, `G` from
    /// the full link Laplacian, each Kron-reduced by [`kron_reduce`]. The
    /// extracted matrices must match them bit for bit.
    fn assert_matches_dense_formulas(sys: &BemSystem, selection: &NodeSelection) {
        use crate::reduce::kron_reduce;
        let (eq, keep) = EquivalentCircuit::from_bem_detailed(sys, selection).unwrap();
        let mesh = sys.mesh();
        let (n, m) = (mesh.cell_count(), mesh.link_count());
        let mut a_mat = Matrix::zeros(m, n);
        for (l, link) in mesh.links().iter().enumerate() {
            a_mat[(l, link.a)] = 1.0;
            a_mat[(l, link.b)] = -1.0;
        }
        let ch = CholeskyDecomposition::new(sys.inductance()).unwrap();
        let mut x = Matrix::zeros(m, n);
        for j in 0..n {
            let col = ch.solve(&a_mat.col(j)).unwrap();
            for i in 0..m {
                x[(i, j)] = col[i];
            }
        }
        let b = kron_reduce(&a_mat.transpose().matmul(&x), &keep).unwrap();
        let mut g_full = Matrix::zeros(n, n);
        for (link, &r) in mesh.links().iter().zip(sys.link_resistances()) {
            let g = 1.0 / r;
            g_full[(link.a, link.a)] += g;
            g_full[(link.b, link.b)] += g;
            g_full[(link.a, link.b)] -= g;
            g_full[(link.b, link.a)] -= g;
        }
        let g = kron_reduce(&g_full, &keep).unwrap();
        let bits = |mat: &Matrix<f64>| -> Vec<u64> {
            mat.as_slice().iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(bits(eq.reluctance()), bits(&b), "B under {selection:?}");
        assert_eq!(bits(eq.conductance()), bits(&g), "G under {selection:?}");
    }

    #[test]
    fn dense_route_is_bit_identical_to_the_dense_formulas() {
        let single = bem(true, &[(mm(2.0), mm(2.0)), (mm(17.0), mm(17.0))]);
        let split = {
            let shapes = [
                Polygon::rectangle(mm(10.0), mm(12.0)),
                Polygon::rectangle_at(mm(12.0), 0.0, mm(8.0), mm(12.0)),
            ];
            let mut mesh = PlaneMesh::build_multi(&shapes, mm(2.0)).unwrap();
            mesh.bind_port("A", Point::new(mm(3.0), mm(5.0))).unwrap();
            mesh.bind_port("B", Point::new(mm(17.0), mm(7.0))).unwrap();
            let pair = PlanePair::new(0.5e-3, 4.5).unwrap();
            let zs = SurfaceImpedance::from_sheet_resistance(4e-3);
            BemSystem::assemble(mesh, &pair, &zs, &BemOptions::default()).unwrap()
        };
        assert_eq!(split.mesh().net_count(), 2);
        for sys in [&single, &split] {
            for sel in [
                NodeSelection::PortsOnly,
                NodeSelection::PortsAndGrid { stride: 2 },
            ] {
                assert_matches_dense_formulas(sys, &sel);
            }
        }
    }

    #[test]
    fn detailed_extraction_reports_kept_cells() {
        let sys = bem(true, &[(mm(2.0), mm(2.0)), (mm(17.0), mm(17.0))]);
        let (eq, keep) =
            EquivalentCircuit::from_bem_detailed(&sys, &NodeSelection::PortsAndGrid { stride: 2 })
                .unwrap();
        assert_eq!(keep.len(), eq.node_count());
        assert!(keep.windows(2).all(|w| w[0] < w[1]));
        // Every port node maps back to the port's bound mesh cell.
        for (p, &cell) in sys.mesh().port_cells().iter().enumerate() {
            assert_eq!(keep[eq.port_node(p)], cell);
        }
        // Non-port nodes carry the n{cell} naming convention.
        for (k, &cell) in keep.iter().enumerate() {
            if !(0..eq.port_count()).any(|p| eq.port_node(p) == k) {
                assert_eq!(eq.node_names()[k], format!("n{cell}"));
            }
        }
    }

    #[test]
    fn from_parts_round_trips_and_validates() {
        let sys = bem(true, &[(mm(2.0), mm(2.0)), (mm(17.0), mm(17.0))]);
        let eq =
            EquivalentCircuit::from_bem(&sys, &NodeSelection::PortsAndGrid { stride: 2 }).unwrap();
        let rebuilt = EquivalentCircuit::from_parts(
            eq.node_names().to_vec(),
            (0..eq.port_count()).map(|p| eq.port_node(p)).collect(),
            eq.reluctance().clone(),
            eq.conductance().clone(),
            eq.capacitance().clone(),
            eq.dielectric_loss_tangent(),
        )
        .unwrap();
        let (za, zb) = (eq.impedance(1e9).unwrap(), rebuilt.impedance(1e9).unwrap());
        for i in 0..2 {
            for j in 0..2 {
                assert_eq!(za[(i, j)], zb[(i, j)]);
            }
        }
        // Validation paths.
        let two = Matrix::zeros(2, 2);
        let three = Matrix::zeros(3, 3);
        let names = vec!["a".to_string(), "b".to_string()];
        assert_eq!(
            EquivalentCircuit::from_parts(
                names.clone(),
                vec![],
                two.clone(),
                two.clone(),
                two.clone(),
                0.0
            )
            .unwrap_err(),
            ExtractCircuitError::NoPorts
        );
        assert!(matches!(
            EquivalentCircuit::from_parts(
                names.clone(),
                vec![0],
                three,
                two.clone(),
                two.clone(),
                0.0
            )
            .unwrap_err(),
            ExtractCircuitError::InvalidInput(_)
        ));
        assert!(matches!(
            EquivalentCircuit::from_parts(
                names.clone(),
                vec![5],
                two.clone(),
                two.clone(),
                two.clone(),
                0.0
            )
            .unwrap_err(),
            ExtractCircuitError::InvalidInput(_)
        ));
        assert!(matches!(
            EquivalentCircuit::from_parts(names, vec![0], two.clone(), two.clone(), two, -0.1)
                .unwrap_err(),
            ExtractCircuitError::InvalidInput(_)
        ));
    }

    #[test]
    fn codec_round_trip_is_bit_exact() {
        let sys = bem(true, &[(mm(2.0), mm(2.0)), (mm(17.0), mm(17.0))]);
        let eq =
            EquivalentCircuit::from_bem(&sys, &NodeSelection::PortsAndGrid { stride: 2 }).unwrap();
        let mut w = pdn_num::ByteWriter::new();
        eq.write_to(&mut w);
        let bytes = w.into_bytes();
        let mut r = pdn_num::ByteReader::new(&bytes);
        let back = EquivalentCircuit::read_from(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.names, eq.names);
        assert_eq!(back.ports, eq.ports);
        assert_eq!(back.b, eq.b);
        assert_eq!(back.g, eq.g);
        assert_eq!(back.c, eq.c);
        assert_eq!(back.tan_d.to_bits(), eq.tan_d.to_bits());
        // Re-encoding reproduces the exact byte stream; corruption that
        // breaks `from_parts` invariants fails loudly.
        let mut w2 = pdn_num::ByteWriter::new();
        back.write_to(&mut w2);
        assert_eq!(w2.into_bytes(), bytes);
        let mut r = pdn_num::ByteReader::new(&bytes[..bytes.len() / 2]);
        assert!(EquivalentCircuit::read_from(&mut r).is_err());
    }

    #[test]
    fn reduce_order_certifies_against_stamped_netlist() {
        let sys = bem(true, &[(mm(2.0), mm(2.0)), (mm(17.0), mm(17.0))]);
        let eq =
            EquivalentCircuit::from_bem(&sys, &NodeSelection::PortsAndGrid { stride: 2 }).unwrap();
        let spec = RomSpec {
            f_min: 1e7,
            f_max: 3e9,
            points: 48,
            rel_tol: 1e-5,
            cert_tol: 0.02,
        };
        let rom = eq.reduce_order(&spec).unwrap();
        assert_eq!(rom.ports(), 2);
        assert!(rom.pole_count() >= 1, "poles: {}", rom.pole_count());
        assert!(rom.holdout_residual() < spec.cert_tol);
        // The ROM must track the AS-STAMPED netlist (Passive realization),
        // not the internal admittance with tanδ — compare off-grid.
        let (ckt, ports) = eq.stamped_ports();
        for &f in &[3.3e7, 4.1e8, 1.9e9] {
            let z = ckt.impedance_matrix(f, &ports).unwrap();
            let y_ref = LuDecomposition::new(z).unwrap().inverse().unwrap();
            let y_rom = rom.evaluate(f);
            let rel = (&y_rom - &y_ref).frobenius_norm() / y_ref.frobenius_norm();
            assert!(rel < 0.02, "f = {f:e}: rel {rel:.3e}");
        }
    }

    #[test]
    fn reduce_order_rejects_bad_specs() {
        let sys = bem(true, &[(mm(2.0), mm(2.0))]);
        let eq = EquivalentCircuit::from_bem(&sys, &NodeSelection::PortsOnly).unwrap();
        for spec in [
            RomSpec {
                f_min: 0.0,
                ..RomSpec::default()
            },
            RomSpec {
                f_min: 1e9,
                f_max: 1e8,
                ..RomSpec::default()
            },
            RomSpec {
                f_max: f64::NAN,
                ..RomSpec::default()
            },
            RomSpec {
                points: 4,
                ..RomSpec::default()
            },
        ] {
            assert!(matches!(
                eq.reduce_order(&spec).unwrap_err(),
                ExtractCircuitError::InvalidInput(_)
            ));
        }
    }

    #[test]
    fn stride_budget_helper() {
        let mesh = PlaneMesh::build(&Polygon::rectangle(mm(40.0), mm(40.0)), mm(1.0)).unwrap();
        let s = stride_for_node_budget(&mesh, 42);
        // 1600 cells → stride ≈ √(1600/42) ≈ 6.
        assert!((5..=7).contains(&s), "stride = {s}");
    }
}

#[cfg(test)]
mod dielectric_loss_tests {
    use super::*;
    use pdn_bem::{BemOptions, BemSystem};
    use pdn_geom::units::mm;
    use pdn_geom::{PlaneMesh, PlanePair, Point, Polygon};
    use pdn_greens::SurfaceImpedance;

    fn eq_with_tan_d(tan_d: f64) -> (EquivalentCircuit, f64) {
        let mut mesh = PlaneMesh::build(&Polygon::rectangle(mm(20.0), mm(20.0)), mm(2.5)).unwrap();
        mesh.bind_port("P", Point::new(mm(1.5), mm(1.5))).unwrap();
        let pair = PlanePair::new(0.5e-3, 4.5)
            .unwrap()
            .with_loss_tangent(tan_d);
        let f10 = pair.cavity_resonance(mm(20.0), mm(20.0), 1, 0);
        let sys = BemSystem::assemble(
            mesh,
            &pair,
            &SurfaceImpedance::lossless(),
            &BemOptions::default(),
        )
        .unwrap();
        (
            EquivalentCircuit::from_bem(&sys, &NodeSelection::PortsAndGrid { stride: 2 }).unwrap(),
            f10,
        )
    }

    #[test]
    fn loss_tangent_propagates_from_the_pair() {
        let (eq, _) = eq_with_tan_d(0.02);
        assert_eq!(eq.dielectric_loss_tangent(), 0.02);
        let (eq0, _) = eq_with_tan_d(0.0);
        assert_eq!(eq0.dielectric_loss_tangent(), 0.0);
    }

    #[test]
    fn dielectric_loss_damps_the_resonance() {
        let (lossless, f10) = eq_with_tan_d(0.0);
        let lossy = lossless.clone().with_dielectric_loss(0.05);
        // Compare at the macromodel's own resonance (shifted a few percent
        // from the analytic cavity frequency).
        let f_peak = lossless
            .find_resonances(0, 0.5 * f10, 1.4 * f10, 81)
            .unwrap()[0];
        let z0 = lossless.impedance(f_peak).unwrap()[(0, 0)].norm();
        let z1 = lossy.impedance(f_peak).unwrap()[(0, 0)].norm();
        assert!(z1 < 0.8 * z0, "tanδ damps the peak: {z1:.2} vs {z0:.2}");
        // Far from resonance the effect is small.
        let zl0 = lossless.impedance(0.05 * f10).unwrap()[(0, 0)].norm();
        let zl1 = lossy.impedance(0.05 * f10).unwrap()[(0, 0)].norm();
        assert!((zl0 - zl1).abs() / zl0 < 0.01);
    }

    #[test]
    fn lossy_dielectric_adds_real_admittance() {
        let (eq, _) = eq_with_tan_d(0.02);
        let y = eq.admittance(1e9);
        // Lossless metal + lossy dielectric: the real part comes from tanδ.
        assert!(y[(0, 0)].re > 0.0);
        let y0 = eq.clone().with_dielectric_loss(0.0).admittance(1e9);
        assert_eq!(y0[(0, 0)].re, 0.0);
    }
}
