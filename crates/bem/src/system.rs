//! The assembled BEM system and its direct frequency-domain solution.
//!
//! [`BemSystem`] owns the mesh and the `C = P⁻¹`, `L`, `R` matrices
//! and can solve the full (pre-simplification) system of eqs. (10)–(11) at
//! any frequency:
//!
//! ```text
//! (Zs + jωL)·I − A·V = 0
//!  Aᵀ·I + jω·C·V     = J
//! ```
//!
//! Eliminating the link currents gives the nodal admittance of eq. (15),
//! `Y(ω) = jωC + Aᵀ(Zs + jωL)⁻¹A`, from which port impedances follow by a
//! complex solve. This is the reference solution that the quasi-static
//! equivalent circuit of `pdn-extract` is checked against.

use crate::assembly::{assemble_matrices, AssembleBemError, BemOptions, RawMatrices};
use crate::compress::{
    assemble_compressed, CompressedKernels, CompressedLinkKernel, CompressionSpec,
};
use pdn_geom::{PlaneMesh, PlanePair};
use pdn_greens::SurfaceImpedance;
use pdn_num::rational::{self, SweepAccuracy, SweepOutcome};
use pdn_num::{c64, LuDecomposition, Matrix};
use std::borrow::Cow;
use std::f64::consts::PI;

/// Relative residual tolerance of iterative solves with a dense system's
/// `L`. Its entries are exact, so the solves run to four decades above
/// round-off rather than to a compression tolerance.
const DENSE_CG_TOL: f64 = 1e-12;

/// A plan whose cluster tree is one leaf per link direction: no block is
/// admissible, so [`CompressedLinkKernel::build`] stores each direction's
/// block of `L` densely and exactly, and `tol` (the default's) certifies
/// nothing.
const ONE_LEAF: CompressionSpec = CompressionSpec {
    tol: 1e-6,
    leaf_size: usize::MAX,
    eta: 2.0,
};

/// The partial-inductance matrix `L` of a [`BemSystem`] as an operator
/// for iterative solves, whatever its kernel store: the matvec, the
/// exact diagonal, and the relative tolerance a CG solve with it should
/// reach.
///
/// A dense system's `L` is applied as one dense block per current
/// direction, skipping the orthogonal blocks, which are structurally
/// zero; a compressed system's is its [`CompressedLinkKernel`], solved to
/// [`CompressionSpec::cg_tol`].
#[derive(Debug)]
pub struct InductanceOperator<'a> {
    kernel: Cow<'a, CompressedLinkKernel>,
    cg_tol: f64,
}

impl InductanceOperator<'_> {
    /// `y = L·x` over the mesh links.
    ///
    /// # Panics
    ///
    /// Panics when `x` does not match the link count.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        self.kernel.matvec(x)
    }

    /// The exact diagonal of `L`.
    pub fn diag(&self) -> &[f64] {
        self.kernel.diag()
    }

    /// Relative residual tolerance of a CG solve with `L`.
    pub fn cg_tol(&self) -> f64 {
        self.cg_tol
    }

    /// Iteration cap of a CG solve with `L`
    /// ([`CompressionSpec::cg_max_iter`] of the link count).
    pub fn cg_max_iter(&self) -> usize {
        CompressionSpec::cg_max_iter(self.kernel.len())
    }
}

/// Dense kernel storage: the assembled matrices plus the incidence,
/// built in complex form once at assembly (every per-frequency solve
/// needs it and it is ω-independent).
#[derive(Debug, Clone)]
struct DenseKernels {
    c: Matrix<f64>,
    l: Matrix<f64>,
    incidence_c: Matrix<c64>,
}

/// The kernel storage backing a [`BemSystem`]: dense matrices (the
/// default), or certified low-rank compressed operators (see
/// [`crate::compress`]) that never materialize `P`, `C`, or `L`.
#[derive(Debug, Clone)]
enum KernelStore {
    Dense(Box<DenseKernels>),
    Compressed(Box<CompressedKernels>),
}

/// An assembled boundary-element system for one plane structure.
#[derive(Debug, Clone)]
pub struct BemSystem {
    mesh: PlaneMesh,
    pair: PlanePair,
    zs: SurfaceImpedance,
    kernels: KernelStore,
    r_link: Vec<f64>,
}

impl BemSystem {
    /// Assembles the MPIE matrices for `mesh` over the given plane pair.
    ///
    /// `zs` is the **loop** surface impedance seen by the link currents
    /// (for two identical planes, twice the per-plane sheet resistance).
    ///
    /// With [`BemOptions::compression`] set, the kernels are stored in
    /// certified low-rank form instead of dense matrices; such a system
    /// exposes [`compressed`](Self::compressed) operators, its dense
    /// accessors return `None`, and its direct frequency-domain solves
    /// return [`AssembleBemError::InvalidInput`] (downstream consumers
    /// solve it iteratively through the equivalent-circuit extraction
    /// path).
    ///
    /// # Errors
    ///
    /// Returns [`AssembleBemError`] when the options are invalid, the
    /// mesh is empty, the potential matrix cannot be inverted, or a
    /// compressed block fails certification.
    pub fn assemble(
        mesh: PlaneMesh,
        pair: &PlanePair,
        zs: &SurfaceImpedance,
        opts: &BemOptions,
    ) -> Result<Self, AssembleBemError> {
        opts.validate()?;
        if let Some(spec) = &opts.compression {
            let (kernels, r_link) = assemble_compressed(&mesh, pair, zs, opts, spec)?;
            if mesh.cell_count() == 0 {
                return Err(AssembleBemError::EmptyMesh);
            }
            return Ok(BemSystem {
                mesh,
                pair: *pair,
                zs: *zs,
                kernels: KernelStore::Compressed(Box::new(kernels)),
                r_link,
            });
        }
        let raw = assemble_matrices(&mesh, pair, zs, opts)?;
        Self::from_raw(mesh, pair, zs, raw)
    }

    /// Builds a system from externally assembled (or adjusted) matrices.
    ///
    /// This is the hook behind sharded extraction, where the regional
    /// `P`/`L` diagonals carry cross-region lumping corrections (see
    /// [`crate::assembly::cross_block_lumping`]) before the system is
    /// reduced. The matrices must be on the node/link spaces of `mesh`.
    ///
    /// # Errors
    ///
    /// [`AssembleBemError::EmptyMesh`] for an empty mesh,
    /// [`AssembleBemError::InvalidInput`] when a matrix dimension does not
    /// match the mesh or `L` couples two orthogonal links (the
    /// quasi-static `L` is zero there, and
    /// [`inductance_operator`](Self::inductance_operator) skips those
    /// blocks), and [`AssembleBemError::NumericalBreakdown`] when `P`
    /// cannot be inverted.
    pub fn from_raw(
        mesh: PlaneMesh,
        pair: &PlanePair,
        zs: &SurfaceImpedance,
        raw: RawMatrices,
    ) -> Result<Self, AssembleBemError> {
        let n = mesh.cell_count();
        let m = mesh.link_count();
        if n == 0 {
            return Err(AssembleBemError::EmptyMesh);
        }
        let RawMatrices { p_coef, l, r_link } = raw;
        if p_coef.nrows() != n || p_coef.ncols() != n {
            return Err(AssembleBemError::InvalidInput(format!(
                "P is {}x{}, mesh has {n} cells",
                p_coef.nrows(),
                p_coef.ncols()
            )));
        }
        if l.nrows() != m || l.ncols() != m || r_link.len() != m {
            return Err(AssembleBemError::InvalidInput(format!(
                "L is {}x{} with {} resistances, mesh has {m} links",
                l.nrows(),
                l.ncols(),
                r_link.len()
            )));
        }
        let links = mesh.links();
        for (i, a) in links.iter().enumerate() {
            if let Some(j) = (0..m).find(|&j| links[j].direction != a.direction && l[(i, j)] != 0.0)
            {
                return Err(AssembleBemError::InvalidInput(format!(
                    "L({i},{j}) = {:e} couples orthogonal links",
                    l[(i, j)]
                )));
            }
        }
        let c = pdn_num::lu::invert(p_coef)
            .map_err(|e| AssembleBemError::NumericalBreakdown(e.to_string()))?;
        let mut incidence_c = Matrix::zeros(m, n);
        for (link, cell, sign) in mesh.incidence() {
            incidence_c[(link, cell)] = c64::from_re(sign);
        }
        Ok(BemSystem {
            mesh,
            pair: *pair,
            zs: *zs,
            kernels: KernelStore::Dense(Box::new(DenseKernels { c, l, incidence_c })),
            r_link,
        })
    }

    /// The dense kernel store; `None` for a compressed system.
    fn dense(&self) -> Option<&DenseKernels> {
        match &self.kernels {
            KernelStore::Dense(d) => Some(d),
            KernelStore::Compressed(_) => None,
        }
    }

    /// The discretization this system was assembled from.
    pub fn mesh(&self) -> &PlaneMesh {
        &self.mesh
    }

    /// The plane pair.
    pub fn pair(&self) -> &PlanePair {
        &self.pair
    }

    /// Short-circuit capacitance matrix `C = P⁻¹` (N×N, F); `None` for
    /// a compressed system, which never forms it (see
    /// [`compressed`](Self::compressed)).
    pub fn capacitance(&self) -> Option<&Matrix<f64>> {
        self.dense().map(|d| &d.c)
    }

    /// Partial-inductance matrix over links (M×M, H); `None` for a
    /// compressed system (see [`compressed`](Self::compressed)).
    pub fn inductance(&self) -> Option<&Matrix<f64>> {
        self.dense().map(|d| &d.l)
    }

    /// The compressed kernel set, when the system was assembled with
    /// [`BemOptions::compression`]; `None` for dense systems.
    pub fn compressed(&self) -> Option<&CompressedKernels> {
        match &self.kernels {
            KernelStore::Dense(_) => None,
            KernelStore::Compressed(ck) => Some(ck),
        }
    }

    /// `L` as an operator for iterative solves on either kernel store
    /// (see [`InductanceOperator`]). A dense system copies the two
    /// per-direction blocks of its `L`, half of the matrix.
    pub fn inductance_operator(&self) -> InductanceOperator<'_> {
        match &self.kernels {
            KernelStore::Dense(d) => {
                let links = self.mesh.links();
                let centers: Vec<_> = links.iter().map(|l| (l.center.x, l.center.y)).collect();
                let directions: Vec<_> = links.iter().map(|l| l.direction).collect();
                let entries = |i: usize, cols: &[usize], out: &mut [f64]| {
                    for (o, &j) in out.iter_mut().zip(cols) {
                        *o = d.l[(i, j)];
                    }
                };
                let kernel =
                    CompressedLinkKernel::build(&centers, &directions, &ONE_LEAF, &entries)
                        .expect("a plan with no admissible block has nothing to certify");
                InductanceOperator {
                    kernel: Cow::Owned(kernel),
                    cg_tol: DENSE_CG_TOL,
                }
            }
            KernelStore::Compressed(ck) => InductanceOperator {
                kernel: Cow::Borrowed(&ck.l),
                cg_tol: ck.spec.cg_tol(),
            },
        }
    }

    /// Whether the kernels are stored in compressed form.
    pub fn is_compressed(&self) -> bool {
        matches!(self.kernels, KernelStore::Compressed(_))
    }

    /// Link loop resistances at DC (M, Ω).
    pub fn link_resistances(&self) -> &[f64] {
        &self.r_link
    }

    /// The surface-impedance model the system was assembled with.
    pub fn surface_impedance(&self) -> &SurfaceImpedance {
        &self.zs
    }

    /// Frequency scaling of the link resistances: `Zs(f)/Zs(0)` from the
    /// surface-impedance model (1 for sheet-resistance-only models, √f
    /// growth above the skin-effect transition for conductor models).
    fn resistance_scale(&self, f: f64) -> f64 {
        let r_dc = self.zs.dc_resistance();
        if r_dc > 0.0 {
            self.zs.resistance(f) / r_dc
        } else {
            1.0
        }
    }

    /// Full nodal admittance `Y(ω) = jωC + Aᵀ(Zs + jωL)⁻¹A` at frequency
    /// `f` in Hz (paper eq. 15).
    ///
    /// # Errors
    ///
    /// Returns [`AssembleBemError::InvalidInput`] unless `f` is finite
    /// and positive — at DC a lossless system's branch impedance
    /// `Zs + jωL` is singular, so the formula only applies above DC (same
    /// contract as [`port_impedance`](Self::port_impedance)). For finite
    /// `f > 0` with positive-definite `L` the solve cannot break down. A
    /// compressed system also returns [`AssembleBemError::InvalidInput`]:
    /// the dense per-frequency factorization would densify the kernels,
    /// so compressed systems are solved through the extracted
    /// equivalent-circuit/macromodel path instead.
    pub fn nodal_admittance(&self, f: f64) -> Result<Matrix<c64>, AssembleBemError> {
        let Some(dk) = self.dense() else {
            return Err(AssembleBemError::InvalidInput(
                "direct frequency-domain solves are not available on a compressed \
                 BemSystem (they would densify the kernels); extract an equivalent \
                 circuit or macromodel and sweep that instead"
                    .into(),
            ));
        };
        if !(f.is_finite() && f > 0.0) {
            return Err(AssembleBemError::InvalidInput(format!(
                "nodal admittance requires a finite f > 0 (Zs + jωL is singular \
                 at DC for a lossless system), got f = {f}"
            )));
        }
        let omega = 2.0 * PI * f;
        let m = dk.l.nrows();
        let n = dk.c.nrows();
        // Branch impedance Zb = Zs(f) + jωL (complex, M×M). The surface
        // impedance follows the assembled model: flat for a sheet
        // resistance, √f above the skin transition for a conductor model
        // (paper eq. 3's impedance boundary condition).
        let r_scale = self.resistance_scale(f);
        let mut zb = Matrix::<c64>::zeros(m, m);
        for i in 0..m {
            for j in 0..m {
                let re = if i == j {
                    self.r_link[i] * r_scale
                } else {
                    0.0
                };
                zb[(i, j)] = c64::new(re, omega * dk.l[(i, j)]);
            }
        }
        let lu = LuDecomposition::new(zb)
            .map_err(|e| AssembleBemError::NumericalBreakdown(e.to_string()))?;
        // X = Zb⁻¹ A  (M×N), then Y = jωC + Aᵀ X. `A` is ω-independent and
        // cached in complex form at assembly time.
        let a_c = &dk.incidence_c;
        let x = lu
            .solve_matrix(a_c)
            .map_err(|e| AssembleBemError::NumericalBreakdown(e.to_string()))?;
        let ata = a_c.hermitian_transpose().matmul(&x);
        let mut y = ata;
        for i in 0..n {
            for j in 0..n {
                let c_term = c64::new(0.0, omega * dk.c[(i, j)]);
                y[(i, j)] += c_term;
            }
        }
        Ok(y)
    }

    /// Port impedance matrix at frequency `f` (Hz) for the mesh's bound
    /// ports: unit current into each port in turn, returning the port
    /// voltages.
    ///
    /// The reference (return) conductor is the ground plane, reached
    /// through the distributed plane capacitance, so `f` must be positive.
    ///
    /// # Errors
    ///
    /// Returns [`AssembleBemError::InvalidInput`] when no ports are bound
    /// to the mesh or `f` is not a finite positive frequency (the
    /// [`nodal_admittance`](Self::nodal_admittance) contract), and
    /// [`AssembleBemError::NumericalBreakdown`] when the solve breaks
    /// down.
    pub fn port_impedance(&self, f: f64) -> Result<Matrix<c64>, AssembleBemError> {
        self.require_ports()?;
        let y = self.nodal_admittance(f)?;
        self.port_impedance_from_admittance(y)
    }

    /// Rejects port solves on a mesh with no bound ports.
    fn require_ports(&self) -> Result<(), AssembleBemError> {
        if self.mesh.ports().is_empty() {
            return Err(AssembleBemError::InvalidInput(
                "port impedance needs at least one port bound to the mesh".into(),
            ));
        }
        Ok(())
    }

    /// Solves the bound ports against an already-built nodal admittance:
    /// one factorization of `Y`, reused across every port's RHS column.
    fn port_impedance_from_admittance(
        &self,
        y: Matrix<c64>,
    ) -> Result<Matrix<c64>, AssembleBemError> {
        let ports = self.mesh.port_cells();
        let lu = LuDecomposition::new(y)
            .map_err(|e| AssembleBemError::NumericalBreakdown(e.to_string()))?;
        let n = self.mesh.cell_count();
        let np = ports.len();
        let mut z = Matrix::<c64>::zeros(np, np);
        for (pj, &cell_j) in ports.iter().enumerate() {
            let mut rhs = vec![c64::ZERO; n];
            rhs[cell_j] = c64::ONE;
            let v = lu
                .solve(&rhs)
                .map_err(|e| AssembleBemError::NumericalBreakdown(e.to_string()))?;
            for (pi, &cell_i) in ports.iter().enumerate() {
                z[(pi, pj)] = v[cell_i];
            }
        }
        Ok(z)
    }

    /// Batched [`nodal_admittance`](Self::nodal_admittance): one `Y(ω)`
    /// matrix per frequency, computed on [`pdn_num::parallel`] workers.
    ///
    /// Output order matches `freqs` and is identical for every worker
    /// count (each sweep point is solved independently by one thread).
    /// The values of
    /// [`admittance_sweep_with`](Self::admittance_sweep_with) at
    /// [`SweepAccuracy::Exact`].
    ///
    /// # Errors
    ///
    /// Returns the error of the lowest-index failing point; the grid must
    /// be finite, strictly positive, and strictly increasing.
    pub fn admittance_sweep(&self, freqs: &[f64]) -> Result<Vec<Matrix<c64>>, AssembleBemError> {
        Ok(self
            .admittance_sweep_with(freqs, SweepAccuracy::Exact)?
            .values)
    }

    /// [`admittance_sweep`](Self::admittance_sweep) with an explicit
    /// [`SweepAccuracy`] policy — `Rational` solves only adaptively
    /// chosen anchor frequencies exactly and fills the rest from a
    /// certified barycentric interpolant (see `pdn_num::rational`) —
    /// returning the full [`SweepOutcome`] (values, engine stats,
    /// rational model).
    ///
    /// # Errors
    ///
    /// [`AssembleBemError::InvalidInput`] for an invalid grid or
    /// tolerance; otherwise the lowest-index failing point's error.
    pub fn admittance_sweep_with(
        &self,
        freqs: &[f64],
        accuracy: SweepAccuracy,
    ) -> Result<SweepOutcome, AssembleBemError> {
        rational::sweep(freqs, accuracy, |f| self.nodal_admittance(f))
            .map_err(|e| e.into_error(AssembleBemError::InvalidInput))
    }

    /// Batched [`port_impedance`](Self::port_impedance): one port
    /// impedance matrix per frequency, computed on [`pdn_num::parallel`]
    /// workers with one cached LU factorization per sweep point (shared
    /// across all port excitations at that point). The values of
    /// [`impedance_sweep_with`](Self::impedance_sweep_with) at
    /// [`SweepAccuracy::Exact`].
    ///
    /// # Errors
    ///
    /// [`AssembleBemError::InvalidInput`] when no ports are bound to the
    /// mesh; otherwise the error of the lowest-index failing point. The
    /// grid must be finite, strictly positive, and strictly increasing.
    pub fn impedance_sweep(&self, freqs: &[f64]) -> Result<Vec<Matrix<c64>>, AssembleBemError> {
        Ok(self
            .impedance_sweep_with(freqs, SweepAccuracy::Exact)?
            .values)
    }

    /// [`impedance_sweep`](Self::impedance_sweep) with an explicit
    /// [`SweepAccuracy`] policy, returning the full [`SweepOutcome`]
    /// (values, engine stats, rational model).
    ///
    /// # Errors
    ///
    /// [`AssembleBemError::InvalidInput`] when no ports are bound to the
    /// mesh or for an invalid grid or tolerance; otherwise the
    /// lowest-index failing point's error.
    pub fn impedance_sweep_with(
        &self,
        freqs: &[f64],
        accuracy: SweepAccuracy,
    ) -> Result<SweepOutcome, AssembleBemError> {
        self.require_ports()?;
        rational::sweep(freqs, accuracy, |f| {
            let y = self.nodal_admittance(f)?;
            self.port_impedance_from_admittance(y)
        })
        .map_err(|e| e.into_error(AssembleBemError::InvalidInput))
    }

    /// Scans `|Z(port, port)|` over a frequency grid and returns the
    /// frequencies of local maxima (plane resonances) in ascending order —
    /// the order the paper reports its `f₀`, `f₁` resonant modes. The grid
    /// is solved by [`impedance_sweep`](Self::impedance_sweep), so points
    /// are evaluated in parallel.
    ///
    /// # Errors
    ///
    /// Returns [`AssembleBemError::InvalidInput`] unless `port` is a
    /// bound port, `points >= 2`, and `0 < f_start < f_stop` (the same
    /// contract as the `AcSweep` constructors); otherwise propagates
    /// solve errors from [`port_impedance`](Self::port_impedance).
    pub fn find_resonances(
        &self,
        port: usize,
        f_start: f64,
        f_stop: f64,
        points: usize,
    ) -> Result<Vec<f64>, AssembleBemError> {
        self.find_resonances_with(port, f_start, f_stop, points, SweepAccuracy::Exact)
    }

    /// [`find_resonances`](Self::find_resonances) with an explicit
    /// [`SweepAccuracy`] policy. Under `Rational` accuracy the rational
    /// model's poles seed the peak search (each in-band pole is refined
    /// against `|Z|` near its real part) instead of rescanning the filled
    /// grid; peaks are always returned ascending with maxima closer than
    /// one grid step deduplicated.
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
    ) -> Result<Vec<f64>, AssembleBemError> {
        rational::scan_resonances(
            port,
            self.mesh.ports().len(),
            f_start,
            f_stop,
            points,
            AssembleBemError::InvalidInput,
            |freqs| self.impedance_sweep_with(freqs, accuracy),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdn_geom::units::mm;
    use pdn_geom::{Point, Polygon};
    use pdn_num::approx_eq;
    use pdn_num::phys::EPS0;

    fn square_plane(ports: &[(f64, f64)]) -> BemSystem {
        let mut mesh = PlaneMesh::build(&Polygon::rectangle(mm(20.0), mm(20.0)), mm(2.5)).unwrap();
        for (i, &(x, y)) in ports.iter().enumerate() {
            mesh.bind_port(format!("P{i}"), Point::new(x, y)).unwrap();
        }
        let pair = PlanePair::new(0.5e-3, 4.5).unwrap();
        BemSystem::assemble(
            mesh,
            &pair,
            &SurfaceImpedance::from_sheet_resistance(2e-3),
            &BemOptions::default(),
        )
        .unwrap()
    }

    #[test]
    fn low_frequency_impedance_is_capacitive() {
        let sys = square_plane(&[(mm(2.0), mm(2.0))]);
        let f = 1e6;
        let z = sys.port_impedance(f).unwrap()[(0, 0)];
        // Should be ≈ 1/(jωC_total) with C_total ≈ fringing-corrected
        // parallel-plate capacitance.
        assert!(z.im < 0.0, "capacitive phase, got {z}");
        let c_eff = -1.0 / (2.0 * PI * f * z.im);
        let c_pp = EPS0 * 4.5 * mm(20.0) * mm(20.0) / 0.5e-3;
        let ratio = c_eff / c_pp;
        assert!(ratio > 0.95 && ratio < 1.4, "C_eff/C_pp = {ratio}");
        // 1/f scaling.
        let z10 = sys.port_impedance(10.0 * f).unwrap()[(0, 0)];
        assert!(approx_eq(z.norm() / z10.norm(), 10.0, 0.05));
    }

    #[test]
    fn from_raw_rejects_an_orthogonal_coupling() {
        let mesh = PlaneMesh::build(&Polygon::rectangle(mm(10.0), mm(10.0)), mm(2.5)).unwrap();
        let pair = PlanePair::new(0.5e-3, 4.5).unwrap();
        let zs = SurfaceImpedance::from_sheet_resistance(2e-3);
        let opts = BemOptions::default();
        let raw = assemble_matrices(&mesh, &pair, &zs, &opts).unwrap();
        assert!(BemSystem::from_raw(mesh.clone(), &pair, &zs, raw.clone()).is_ok());
        let links = mesh.links();
        let j = (0..links.len())
            .find(|&j| links[j].direction != links[0].direction)
            .unwrap();
        let mut bad = raw;
        bad.l[(0, j)] = 1e-15;
        bad.l[(j, 0)] = 1e-15;
        assert!(matches!(
            BemSystem::from_raw(mesh, &pair, &zs, bad),
            Err(AssembleBemError::InvalidInput(_))
        ));
    }

    #[test]
    fn impedance_matrix_reciprocal() {
        let sys = square_plane(&[(mm(2.0), mm(2.0)), (mm(17.0), mm(12.0))]);
        let z = sys.port_impedance(1e9).unwrap();
        let err = (z[(0, 1)] - z[(1, 0)]).norm() / z[(0, 1)].norm();
        assert!(err < 1e-8, "reciprocity violated: {err}");
    }

    #[test]
    fn first_resonance_matches_cavity_model() {
        // 20×20 mm plane, εr = 4.5, d = 0.5 mm: f₁₀ = v/(2a).
        let sys = square_plane(&[(mm(1.5), mm(1.5))]); // corner port excites (1,0)
        let f10 = sys.pair().cavity_resonance(mm(20.0), mm(20.0), 1, 0);
        let peaks = sys.find_resonances(0, 0.5 * f10, 1.5 * f10, 41).unwrap();
        assert!(!peaks.is_empty(), "no resonance found near {f10:.3e}");
        let rel = (peaks[0] - f10).abs() / f10;
        assert!(rel < 0.10, "resonance {:.3e} vs cavity {f10:.3e}", peaks[0]);
    }

    #[test]
    fn loss_damps_the_resonance_peak() {
        let mesh = || {
            let mut m = PlaneMesh::build(&Polygon::rectangle(mm(20.0), mm(20.0)), mm(2.5)).unwrap();
            m.bind_port("P", Point::new(mm(1.5), mm(1.5))).unwrap();
            m
        };
        let pair = PlanePair::new(0.5e-3, 4.5).unwrap();
        let f10 = pair.cavity_resonance(mm(20.0), mm(20.0), 1, 0);
        let lo = BemSystem::assemble(
            mesh(),
            &pair,
            &SurfaceImpedance::from_sheet_resistance(1e-3),
            &BemOptions::default(),
        )
        .unwrap();
        let hi = BemSystem::assemble(
            mesh(),
            &pair,
            &SurfaceImpedance::from_sheet_resistance(50e-3),
            &BemOptions::default(),
        )
        .unwrap();
        let z_lo = lo.port_impedance(f10).unwrap()[(0, 0)].norm();
        let z_hi = hi.port_impedance(f10).unwrap()[(0, 0)].norm();
        assert!(
            z_hi < z_lo,
            "more loss must damp the peak: lossy {z_hi} vs {z_lo}"
        );
    }

    #[test]
    fn transfer_impedance_below_self_impedance_at_dc_limit() {
        let sys = square_plane(&[(mm(2.0), mm(2.0)), (mm(17.0), mm(17.0))]);
        let z = sys.port_impedance(10e6).unwrap();
        // At low frequency both approach 1/(jωC_total); the self term has
        // extra local (spreading) inductance/resistance, so |Z11| ≥ |Z12|.
        assert!(z[(0, 0)].norm() >= z[(0, 1)].norm() * 0.99);
    }

    #[test]
    fn port_impedance_requires_positive_frequency() {
        let sys = square_plane(&[(mm(2.0), mm(2.0))]);
        assert!(sys.port_impedance(0.0).is_err());
    }

    #[test]
    fn nodal_admittance_requires_positive_frequency() {
        // At f = 0 a lossless system's Zs + jωL is exactly singular; the
        // guard must reject DC (and negative frequencies) up front instead
        // of surfacing a factorization breakdown.
        let sys = square_plane(&[(mm(2.0), mm(2.0))]);
        for f in [0.0, -1e9] {
            match sys.nodal_admittance(f) {
                Err(AssembleBemError::InvalidInput(msg)) => {
                    assert!(msg.contains("f > 0"), "descriptive error, got: {msg}")
                }
                other => panic!("expected InvalidInput for f = {f}, got {other:?}"),
            }
        }
        assert!(sys.nodal_admittance(1e6).is_ok());
    }

    #[test]
    fn find_resonances_rejects_degenerate_grids() {
        let sys = square_plane(&[(mm(2.0), mm(2.0))]);
        for points in [0, 1] {
            match sys.find_resonances(0, 1e8, 1e9, points) {
                Err(AssembleBemError::InvalidInput(_)) => {}
                other => panic!("points = {points}: expected InvalidInput, got {other:?}"),
            }
        }
        // AcSweep-style range validation.
        assert!(sys.find_resonances(0, 0.0, 1e9, 11).is_err());
        assert!(sys.find_resonances(0, 1e9, 1e8, 11).is_err());
        // Two points cannot hold an interior maximum but are a valid grid.
        assert_eq!(
            sys.find_resonances(0, 1e8, 1e9, 2).unwrap(),
            Vec::<f64>::new()
        );
    }

    #[test]
    fn sweeps_match_per_point_solves() {
        let sys = square_plane(&[(mm(2.0), mm(2.0)), (mm(17.0), mm(12.0))]);
        let freqs = [1e7, 1e8, 5e8, 1e9, 2e9];
        let z_batch = sys.impedance_sweep(&freqs).unwrap();
        let y_batch = sys.admittance_sweep(&freqs).unwrap();
        assert_eq!(z_batch.len(), freqs.len());
        for (k, &f) in freqs.iter().enumerate() {
            let z_single = sys.port_impedance(f).unwrap();
            let y_single = sys.nodal_admittance(f).unwrap();
            // Same code path per point — results must be bit-identical.
            assert_eq!(z_batch[k], z_single, "Z mismatch at f = {f}");
            assert_eq!(y_batch[k], y_single, "Y mismatch at f = {f}");
        }
    }

    #[test]
    fn sweep_propagates_lowest_index_error() {
        let sys = square_plane(&[(mm(2.0), mm(2.0))]);
        let err = sys.impedance_sweep(&[1e8, -1.0, 0.0]).unwrap_err();
        match err {
            AssembleBemError::InvalidInput(msg) => {
                assert!(msg.contains("-1"), "lowest failing point reported: {msg}")
            }
            other => panic!("expected InvalidInput, got {other:?}"),
        }
    }

    #[test]
    fn admittance_row_sums_vanish_inductively() {
        // The inductive part Aᵀ(Zs+jωL)⁻¹A has zero row sums (a pure
        // branch circuit): total Y row sum equals the capacitive part.
        let sys = square_plane(&[(mm(2.0), mm(2.0))]);
        let f = 1e8;
        let y = sys.nodal_admittance(f).unwrap();
        let n = y.nrows();
        for i in 0..n.min(5) {
            let row_sum: c64 = (0..n).map(|j| y[(i, j)]).sum();
            let c_row: f64 = (0..n).map(|j| sys.capacitance().unwrap()[(i, j)]).sum();
            let expect = c64::new(0.0, 2.0 * PI * f * c_row);
            assert!(
                (row_sum - expect).norm() < 1e-6 * row_sum.norm().max(expect.norm()),
                "row {i}: {row_sum} vs {expect}"
            );
        }
    }
}

#[cfg(test)]
mod skin_effect_tests {
    use super::*;
    use pdn_geom::units::mm;
    use pdn_geom::{Point, Polygon};
    use pdn_num::phys::SIGMA_COPPER;

    fn system(zs: SurfaceImpedance) -> BemSystem {
        let mut mesh = PlaneMesh::build(&Polygon::rectangle(mm(20.0), mm(20.0)), mm(2.5)).unwrap();
        mesh.bind_port("P", Point::new(mm(1.5), mm(1.5))).unwrap();
        let pair = PlanePair::new(0.5e-3, 4.5).unwrap();
        BemSystem::assemble(mesh, &pair, &zs, &BemOptions::default()).unwrap()
    }

    #[test]
    fn skin_effect_damps_resonance_more_than_dc_model() {
        // Two models with identical DC resistance: one frequency-flat,
        // one with a copper skin-effect transition. At the ~3.5 GHz plane
        // resonance the skin model is more resistive → lower peak.
        let t_foil = 35e-6;
        let flat = system(SurfaceImpedance::from_sheet_resistance(
            2.0 / (SIGMA_COPPER * t_foil),
        ));
        let skin = {
            // Conductor model with double conductivity deficit to match
            // the loop (two foils in series).
            let mut zs = SurfaceImpedance::from_conductor(SIGMA_COPPER / 2.0, t_foil);
            // from_conductor already sets r_dc = 2/(σ t).
            let _ = &mut zs;
            zs
        };
        let skin_sys = system(skin);
        assert!(
            (flat.link_resistances()[0] - skin_sys.link_resistances()[0]).abs()
                < 1e-9 * flat.link_resistances()[0],
            "identical DC resistance by construction"
        );
        let f10 = flat.pair().cavity_resonance(mm(20.0), mm(20.0), 1, 0);
        let z_flat = flat.port_impedance(f10).unwrap()[(0, 0)].norm();
        let z_skin = skin_sys.port_impedance(f10).unwrap()[(0, 0)].norm();
        assert!(
            z_skin < z_flat,
            "skin effect damps the peak: {z_skin:.2} vs {z_flat:.2}"
        );
    }

    #[test]
    fn lossless_scale_is_identity() {
        let sys = system(SurfaceImpedance::lossless());
        assert_eq!(sys.resistance_scale(10e9), 1.0);
        assert_eq!(sys.surface_impedance().dc_resistance(), 0.0);
    }
}
