//! Time-domain (transient) analysis.
//!
//! Modified nodal formulation with companion models (paper Section 5.1):
//! capacitors and inductors are replaced each step by a conductance plus a
//! history current source, so **no internal inductance nodes** are added
//! and — with a uniform time step and a linear network — the system matrix
//! is constant and factored exactly once. Time-varying switch resistors
//! (behavioral drivers) sit in that matrix frozen at half conductance; the
//! rest of their conductance is an exact rank-k Sherman–Morrison–Woodbury
//! update over the single factorization, applied every step (the paper's
//! partitioned co-simulation, Section 5.2). Its `k×k` system is factored
//! again only on a step whose switch conductances differ from the last
//! factored ones.
//!
//! Both integration orders of the paper are available: first order
//! (backward Euler, strongly damping, used for the DC settle phase) and
//! second order (trapezoidal, the default).

use crate::netlist::{switch_conductance, Circuit, Element, NodeId, SimulateCircuitError};
use crate::waveform::Waveform;
use pdn_num::{LuDecomposition, Matrix, SolveMatrixError};
use std::cmp::Ordering;

/// Integration method for the companion models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Integration {
    /// Second-order trapezoidal rule (A-stable, non-dissipative).
    #[default]
    Trapezoidal,
    /// First-order backward Euler (A-stable, strongly dissipative).
    BackwardEuler,
}

/// Transient analysis specification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransientSpec {
    /// Stop time, seconds. The simulation always covers the full duration:
    /// the last recorded sample is the first time-grid point `n·dt ≥
    /// t_stop` (with 1e-9 relative tolerance, so a commensurate
    /// `t_stop/dt` yields exactly `t_stop/dt` steps).
    pub t_stop: f64,
    /// Uniform time step, seconds.
    pub dt: f64,
    /// Integration method.
    pub integration: Integration,
    /// Pre-roll duration simulated with sources held at their initial
    /// values (backward Euler) to reach DC steady state before `t = 0`.
    pub settle: f64,
}

impl TransientSpec {
    /// Creates a spec with trapezoidal integration and no settle phase.
    pub fn new(t_stop: f64, dt: f64) -> Self {
        TransientSpec {
            t_stop,
            dt,
            integration: Integration::Trapezoidal,
            settle: 0.0,
        }
    }

    /// Sets the integration method (builder style).
    pub fn with_integration(mut self, integration: Integration) -> Self {
        self.integration = integration;
        self
    }

    /// Enables a DC settle pre-roll of the given duration (builder style).
    pub fn with_settle(mut self, settle: f64) -> Self {
        self.settle = settle;
        self
    }
}

/// Result of a transient run: node voltages and source currents per step.
#[derive(Debug, Clone)]
pub struct TransientResult {
    times: Vec<f64>,
    /// `voltages[k]` is the waveform of node id `k`; index 0 is ground.
    voltages: Vec<Vec<f64>>,
    /// Branch current of each voltage source (flowing internally from the
    /// `+` terminal to the `−` terminal).
    source_currents: Vec<Vec<f64>>,
    woodbury_factorizations: usize,
}

impl TransientResult {
    /// Sample times, starting at `t = 0`.
    pub fn time(&self) -> &[f64] {
        &self.times
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// `true` when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Voltage waveform of a node (all zeros for ground).
    ///
    /// # Panics
    ///
    /// Panics for a node id not created on the simulated circuit.
    pub fn voltage(&self, node: NodeId) -> &[f64] {
        &self.voltages[node.0]
    }

    /// Branch current waveform of the `k`-th voltage source, flowing
    /// internally from `+` to `−` (a supply delivering current reads
    /// negative).
    ///
    /// # Panics
    ///
    /// Panics for an out-of-range source index.
    pub fn source_current(&self, source: crate::netlist::SourceId) -> &[f64] {
        &self.source_currents[source.0]
    }

    /// How many times the run factored its `k×k` switch system
    /// `I + D·S₀`, summed over the settle and main phases. Each phase
    /// factors on its first step and again only on a step whose switch
    /// conductances differ from the last factored ones; the count is 0
    /// with no time-varying switch.
    pub fn woodbury_factorizations(&self) -> usize {
        self.woodbury_factorizations
    }

    /// Largest absolute excursion of a node voltage from its first sample —
    /// the "peak noise" measure used in the SSN studies.
    pub fn peak_excursion(&self, node: NodeId) -> f64 {
        let w = self.voltage(node);
        let base = w.first().copied().unwrap_or(0.0);
        w.iter().map(|&v| (v - base).abs()).fold(0.0, f64::max)
    }
}

/// Per-line method-of-characteristics state: sample buffers of the
/// outgoing wave `v_m + i_m` launched at each end, one per mode.
struct LineState {
    near_hist: Vec<Vec<f64>>,
    far_hist: Vec<Vec<f64>>,
    /// Modal delays in (fractional) steps.
    delay_steps: Vec<f64>,
}

/// Integration-rule factor: trapezoidal companion conductances carry a
/// factor of 2 relative to backward Euler.
fn k_int(integ: Integration) -> f64 {
    match integ {
        Integration::Trapezoidal => 2.0,
        Integration::BackwardEuler => 1.0,
    }
}

/// `(e_p − e_q)ᵀ·x` over the node rows of an MNA vector (ground has no
/// row).
fn branch_voltage(p: NodeId, q: NodeId, x: &[f64]) -> f64 {
    let mut v = 0.0;
    if p.0 > 0 {
        v += x[p.0 - 1];
    }
    if q.0 > 0 {
        v -= x[q.0 - 1];
    }
    v
}

/// A failed factorization or solve, as a circuit error.
fn singular(e: SolveMatrixError) -> SimulateCircuitError {
    SimulateCircuitError::Singular(e.to_string())
}

impl Circuit {
    /// Validates a transient spec against this circuit (finite positive
    /// step and stop time, finite non-negative settle, step below every
    /// transmission-line modal delay) and returns its step counts
    /// `(n_settle, n_steps)`.
    fn validate_transient_spec(
        &self,
        spec: &TransientSpec,
    ) -> Result<(usize, usize), SimulateCircuitError> {
        if spec.dt.partial_cmp(&0.0) != Some(Ordering::Greater)
            || spec.t_stop.partial_cmp(&0.0) != Some(Ordering::Greater)
            || !spec.dt.is_finite()
            || !spec.t_stop.is_finite()
        {
            return Err(SimulateCircuitError::InvalidSpec(
                "dt and t_stop must be positive and finite".into(),
            ));
        }
        if !spec.settle.is_finite() || spec.settle < 0.0 {
            return Err(SimulateCircuitError::InvalidSpec(format!(
                "settle must be finite and non-negative, got {}",
                spec.settle
            )));
        }
        for e in &self.elements {
            if let Element::CoupledLine { model, .. } = e {
                let min_tau = model.delays().iter().fold(f64::INFINITY, |a, &b| a.min(b));
                if spec.dt > min_tau {
                    return Err(SimulateCircuitError::InvalidSpec(format!(
                        "dt = {} exceeds smallest line modal delay {min_tau}",
                        spec.dt
                    )));
                }
            }
        }
        self.step_counts(spec)
    }

    /// The settle and main step counts `(n_settle, n_steps)` of a run.
    ///
    /// Snap rule for the timebase: the run always covers `t_stop`. The
    /// last sample lands on the first grid point `n·dt ≥ t_stop`, with a
    /// relative tolerance of 1e-9 so a commensurate `t_stop/dt` (up to
    /// round-off) keeps exactly `t_stop/dt` steps instead of gaining a
    /// spurious extra one. A `round()` here would silently simulate a
    /// shorter duration whenever `t_stop` is not a multiple of `dt`.
    ///
    /// A count that is not finite, or a total `n_settle + n_steps + 1`
    /// that overflows `usize`, is [`SimulateCircuitError::InvalidSpec`].
    fn step_counts(&self, spec: &TransientSpec) -> Result<(usize, usize), SimulateCircuitError> {
        let n_steps = ((spec.t_stop / spec.dt) * (1.0 - 1e-9)).ceil().max(1.0);
        let n_settle = if spec.settle > 0.0 {
            (spec.settle / self.settle_step(spec)).ceil()
        } else {
            0.0
        };
        // `usize::MAX as f64` rounds up to 2⁶⁴, so `<` admits exactly the
        // counts that convert without saturating.
        let fits = |n: f64| n.is_finite() && n < usize::MAX as f64;
        let too_many = || {
            SimulateCircuitError::InvalidSpec(format!(
                "{n_steps:e} steps plus {n_settle:e} settle steps do not fit in a run \
                 (t_stop = {}, dt = {}, settle = {})",
                spec.t_stop, spec.dt, spec.settle
            ))
        };
        if !fits(n_steps) || !fits(n_settle) {
            return Err(too_many());
        }
        let (n_settle, n_steps) = (n_settle as usize, n_steps as usize);
        n_settle
            .checked_add(n_steps)
            .and_then(|n| n.checked_add(1))
            .ok_or_else(too_many)?;
        Ok((n_settle, n_steps))
    }

    /// The settle-phase step size. The settle phase uses large
    /// backward-Euler steps (unconditionally stable) so a high-Q supply
    /// network reaches DC in a few hundred steps regardless of duration.
    /// With transmission lines present the settle step must match the main
    /// step so the wave history buffers stay uniformly sampled.
    fn settle_step(&self, spec: &TransientSpec) -> f64 {
        let has_lines = self
            .elements
            .iter()
            .any(|e| matches!(e, Element::CoupledLine { .. }));
        if spec.settle > 0.0 && !has_lines {
            (spec.settle / 256.0).max(spec.dt)
        } else {
            spec.dt
        }
    }

    /// Stamps the MNA matrix for one integration rule and step size.
    ///
    /// Switch resistors whose drive varies with time are frozen at half
    /// conductance (the Woodbury update adds the rest each step); constant
    /// ones sit at their DC conductance. The matrix therefore does not
    /// depend on time.
    fn mna_matrix(&self, integ: Integration, dt: f64) -> Matrix<f64> {
        let n = self.n_nodes;
        let dim = n + self.n_vsources;
        let kk = k_int(integ);
        let mut a = Matrix::zeros(dim, dim);
        let stamp_g = |p: NodeId, q: NodeId, g: f64, a: &mut Matrix<f64>| {
            if p.0 > 0 {
                a[(p.0 - 1, p.0 - 1)] += g;
            }
            if q.0 > 0 {
                a[(q.0 - 1, q.0 - 1)] += g;
            }
            if p.0 > 0 && q.0 > 0 {
                a[(p.0 - 1, q.0 - 1)] -= g;
                a[(q.0 - 1, p.0 - 1)] -= g;
            }
        };
        for e in &self.elements {
            match e {
                Element::Resistor { a: p, b: q, ohms } => {
                    stamp_g(*p, *q, 1.0 / ohms, &mut a);
                }
                Element::Capacitor { a: p, b: q, farads } => {
                    stamp_g(*p, *q, kk * farads / dt, &mut a);
                }
                Element::Inductor {
                    a: p,
                    b: q,
                    henries,
                } => {
                    stamp_g(*p, *q, dt / (kk * henries), &mut a);
                }
                Element::CoupledInductors {
                    a1,
                    b1,
                    a2,
                    b2,
                    l1,
                    l2,
                    m: lm,
                } => {
                    // Geq = (dt/kk)·L⁻¹ for the 2×2 inductance matrix.
                    let det = l1 * l2 - lm * lm;
                    let s = dt / (kk * det);
                    let g11 = s * l2;
                    let g22 = s * l1;
                    let g12 = -s * lm;
                    stamp_g(*a1, *b1, g11, &mut a);
                    stamp_g(*a2, *b2, g22, &mut a);
                    // Cross conductance: i1 += g12·(v_a2 − v_b2), etc.
                    let cross = |p: NodeId,
                                 q: NodeId,
                                 r: NodeId,
                                 sn: NodeId,
                                 g: f64,
                                 a: &mut Matrix<f64>| {
                        // current g·(v_r − v_s) enters branch (p→q)
                        for (ni, sgn_i) in [(p, 1.0), (q, -1.0)] {
                            for (nj, sgn_j) in [(r, 1.0), (sn, -1.0)] {
                                if ni.0 > 0 && nj.0 > 0 {
                                    a[(ni.0 - 1, nj.0 - 1)] += sgn_i * sgn_j * g;
                                }
                            }
                        }
                    };
                    cross(*a1, *b1, *a2, *b2, g12, &mut a);
                    cross(*a2, *b2, *a1, *b1, g12, &mut a);
                }
                Element::SwitchResistor {
                    a: p,
                    b: q,
                    g_on,
                    s,
                    invert,
                } => {
                    let g = if s.is_constant() {
                        switch_conductance(*g_on, s.initial_value(), *invert)
                    } else {
                        0.5 * g_on
                    };
                    stamp_g(*p, *q, g, &mut a);
                }
                Element::VSource {
                    plus, minus, index, ..
                } => {
                    let row = n + index;
                    if plus.0 > 0 {
                        a[(plus.0 - 1, row)] += 1.0;
                        a[(row, plus.0 - 1)] += 1.0;
                    }
                    if minus.0 > 0 {
                        a[(minus.0 - 1, row)] -= 1.0;
                        a[(row, minus.0 - 1)] -= 1.0;
                    }
                }
                Element::ISource { .. } => {}
                Element::ReducedOrder { nodes, model } => {
                    // Recursive-convolution companion admittance,
                    // ground-referenced at each port.
                    let g = model.companion_admittance(kk, dt);
                    for (i, p) in nodes.iter().enumerate() {
                        for (j, q) in nodes.iter().enumerate() {
                            if p.0 > 0 && q.0 > 0 {
                                a[(p.0 - 1, q.0 - 1)] += g[(i, j)];
                            }
                        }
                    }
                }
                Element::CoupledLine { model, near, far } => {
                    let yc = model.characteristic_admittance();
                    let nc = model.conductor_count();
                    // Yc is a full admittance block referenced to ground
                    // at each end.
                    for ends in [near, far] {
                        for i in 0..nc {
                            for j in 0..nc {
                                let g = yc[(i, j)];
                                let (p, q) = (ends[i], ends[j]);
                                if p.0 > 0 && q.0 > 0 {
                                    a[(p.0 - 1, q.0 - 1)] += g;
                                }
                            }
                        }
                    }
                }
            }
        }
        a
    }

    /// Terminals and on-conductances `(p, q, g_on)` of the switch
    /// resistors whose drive varies with time, in element order — the
    /// columns of the Woodbury update.
    fn active_switch_terminals(&self) -> Vec<(NodeId, NodeId, f64)> {
        self.elements
            .iter()
            .filter_map(|e| match e {
                Element::SwitchResistor { a, b, g_on, s, .. } if !s.is_constant() => {
                    Some((*a, *b, *g_on))
                }
                _ => None,
            })
            .collect()
    }
}

/// One phase of a run — the DC settle pre-roll or the recorded main
/// phase: its integration rule and step, the LU factor of its MNA matrix
/// `A₀` (active switches frozen at half conductance), and the Woodbury
/// factors of the switch update.
///
/// Each active switch between nodes `(p, q)` perturbs `A₀` by
/// `Δg·(e_p−e_q)(e_p−e_q)ᵀ`. With `U` the `n×k` incidence of the switches
/// and `D = diag(Δg(t))`, `W = A₀⁻¹U` and `S₀ = UᵀW` are computed once;
/// every step then solves
///   `x = z − W·(I + D·S₀)⁻¹·D·Uᵀz`,  `z = A₀⁻¹·rhs`.
///
/// The `k×k` matrix `I + D·S₀` is factored only when `D` changes: drives
/// hold through the settle and between edges, so most steps reuse the
/// kept factor. The same bits of `D` give the same matrix and the same
/// factor, so the reuse changes no result.
struct Phase {
    integration: Integration,
    dt: f64,
    lu: LuDecomposition<f64>,
    /// `W = A₀⁻¹U`, one column per active switch.
    w: Vec<Vec<f64>>,
    /// `S₀ = UᵀW`.
    s0: Matrix<f64>,
    /// The `D` of the last factored `I + D·S₀`.
    d_factored: Vec<f64>,
    /// The LU factor of that `I + D·S₀`, once one step has factored it.
    small_lu: Option<LuDecomposition<f64>>,
    /// How many times this phase factored `I + D·S₀`.
    factorizations: usize,
}

impl Phase {
    /// Stamps and factors one phase for the given active switches.
    fn new(
        ckt: &Circuit,
        integration: Integration,
        dt: f64,
        switches: &[(NodeId, NodeId, f64)],
    ) -> Result<Self, SimulateCircuitError> {
        let lu = LuDecomposition::new(ckt.mna_matrix(integration, dt)).map_err(singular)?;
        let dim = ckt.n_nodes + ckt.n_vsources;
        let w = switches
            .iter()
            .map(|&(p, q, _)| {
                let mut u = vec![0.0; dim];
                if p.0 > 0 {
                    u[p.0 - 1] += 1.0;
                }
                if q.0 > 0 {
                    u[q.0 - 1] -= 1.0;
                }
                lu.solve(&u).map_err(singular)
            })
            .collect::<Result<Vec<_>, _>>()?;
        let k = switches.len();
        let s0 = Matrix::from_fn(k, k, |i, j| {
            let (p, q, _) = switches[i];
            branch_voltage(p, q, &w[j])
        });
        Ok(Phase {
            integration,
            dt,
            lu,
            w,
            s0,
            d_factored: vec![0.0; k],
            small_lu: None,
            factorizations: 0,
        })
    }

    /// The per-step solve `(A₀ + U·D·Uᵀ)·x = rhs`, where `d` holds each
    /// switch's conductance minus its frozen half: one back-substitution
    /// on the phase factor plus a `k×k` system, factored only when `d`
    /// differs bitwise from the last factored one.
    fn solve(
        &mut self,
        switches: &[(NodeId, NodeId, f64)],
        d: &[f64],
        rhs: &[f64],
    ) -> Result<Vec<f64>, SimulateCircuitError> {
        let z = self.lu.solve(rhs).map_err(singular)?;
        let k = switches.len();
        if k == 0 {
            return Ok(z);
        }
        // Small system (I + D·S₀)·y = D·Uᵀz.
        let unchanged = self
            .d_factored
            .iter()
            .zip(d)
            .all(|(a, b)| a.to_bits() == b.to_bits());
        let small_lu = match &self.small_lu {
            Some(lu) if unchanged => lu,
            _ => {
                let m_small = Matrix::from_fn(k, k, |i, j| {
                    let delta = if i == j { 1.0 } else { 0.0 };
                    delta + d[i] * self.s0[(i, j)]
                });
                let lu = LuDecomposition::new(m_small).map_err(singular)?;
                self.d_factored.copy_from_slice(d);
                self.factorizations += 1;
                &*self.small_lu.insert(lu)
            }
        };
        let rhs_small: Vec<f64> = switches
            .iter()
            .zip(d)
            .map(|(&(p, q, _), &di)| di * branch_voltage(p, q, &z))
            .collect();
        let y = small_lu.solve(&rhs_small).map_err(singular)?;
        let mut x = z;
        for (col, &yk) in self.w.iter().zip(&y) {
            for (xi, &wi) in x.iter_mut().zip(col) {
                *xi -= wi * yk;
            }
        }
        Ok(x)
    }
}

/// The two phases of one run, the DC settle pre-roll and the recorded
/// main phase, with the active switches whose Woodbury update both apply
/// (terminals and on-conductances, in element order).
struct Phases {
    switches: Vec<(NodeId, NodeId, f64)>,
    settle: Phase,
    main: Phase,
}

impl Phases {
    /// Stamps and factors both phases of a run of `ckt` under `spec`.
    fn new(ckt: &Circuit, spec: &TransientSpec) -> Result<Self, SimulateCircuitError> {
        let switches = ckt.active_switch_terminals();
        let settle = Phase::new(
            ckt,
            Integration::BackwardEuler,
            ckt.settle_step(spec),
            &switches,
        )?;
        let main = Phase::new(ckt, spec.integration, spec.dt, &switches)?;
        Ok(Phases {
            switches,
            settle,
            main,
        })
    }
}

impl Circuit {
    /// Runs a transient analysis.
    ///
    /// # Errors
    ///
    /// Returns [`SimulateCircuitError::InvalidSpec`] for a non-positive
    /// step/stop time, a step larger than the smallest transmission-line
    /// modal delay, or a step count whose samples cannot be stored, and
    /// [`SimulateCircuitError::Singular`] when the MNA matrix cannot be
    /// factored (floating nodes, voltage-source loops).
    pub fn transient(&self, spec: &TransientSpec) -> Result<TransientResult, SimulateCircuitError> {
        let (n_settle, n_steps) = self.validate_transient_spec(spec)?;
        let mut phases = Phases::new(self, spec)?;
        let n = self.n_nodes;
        let m = self.n_vsources;
        let dim = n + m;
        // Drives of the active switches, in the element order of
        // `phases.switches`.
        let switch_drives: Vec<(f64, &Waveform, bool)> = self
            .elements
            .iter()
            .filter_map(|e| match e {
                Element::SwitchResistor {
                    g_on, s, invert, ..
                } if !s.is_constant() => Some((*g_on, s, *invert)),
                _ => None,
            })
            .collect();
        let mut d = vec![0.0; switch_drives.len()];

        // --- Element states ------------------------------------------------
        struct CapState {
            i: f64,
            v: f64,
        }
        struct IndState {
            i: f64,
            v: f64,
        }
        struct CoupledIndState {
            i: [f64; 2],
            v: [f64; 2],
        }
        let mut cap_states: Vec<CapState> = Vec::new();
        let mut ind_states: Vec<IndState> = Vec::new();
        let mut cind_states: Vec<CoupledIndState> = Vec::new();
        let mut line_states: Vec<LineState> = Vec::new();
        let mut rom_states: Vec<pdn_num::RomTransientState> = Vec::new();
        for e in &self.elements {
            match e {
                Element::Capacitor { .. } => cap_states.push(CapState { i: 0.0, v: 0.0 }),
                Element::Inductor { .. } => ind_states.push(IndState { i: 0.0, v: 0.0 }),
                Element::CoupledInductors { .. } => cind_states.push(CoupledIndState {
                    i: [0.0; 2],
                    v: [0.0; 2],
                }),
                Element::ReducedOrder { model, .. } => rom_states.push(model.new_state()),
                Element::CoupledLine { model, .. } => {
                    let nc = model.conductor_count();
                    line_states.push(LineState {
                        near_hist: vec![Vec::new(); nc],
                        far_hist: vec![Vec::new(); nc],
                        delay_steps: model.delays().iter().map(|&t| t / spec.dt).collect(),
                    });
                }
                _ => {}
            }
        }

        // --- Results ------------------------------------------------------
        let samples = n_steps + 1;
        let mut times = Vec::new();
        let mut voltages = vec![Vec::new(); n + 1];
        let mut source_currents = vec![Vec::new(); m];
        std::iter::once(&mut times)
            .chain(&mut voltages)
            .chain(&mut source_currents)
            .try_for_each(|w| w.try_reserve_exact(samples))
            .map_err(|_| {
                let bytes = samples as u128 * (n + m + 2) as u128 * 8;
                SimulateCircuitError::InvalidSpec(format!(
                    "{n_steps} steps need {bytes} bytes of waveform storage, which cannot be allocated"
                ))
            })?;

        for step in 0..n_settle + n_steps + 1 {
            let settling = step < n_settle;
            let t = if settling {
                0.0
            } else {
                (step - n_settle) as f64 * spec.dt
            };
            let phase = if settling {
                &mut phases.settle
            } else {
                &mut phases.main
            };
            let integ = phase.integration;
            let kk = k_int(integ);
            let dt_now = phase.dt;

            // Build RHS.
            let mut rhs = vec![0.0; dim];
            let add = |node: NodeId, i: f64, rhs: &mut Vec<f64>| {
                if node.0 > 0 {
                    rhs[node.0 - 1] += i;
                }
            };
            let mut ci = 0;
            let mut li = 0;
            let mut cli = 0;
            let mut lsi = 0;
            let mut ri = 0;
            for e in &self.elements {
                match e {
                    Element::Capacitor { a: p, b: q, farads } => {
                        let st = &cap_states[ci];
                        ci += 1;
                        let g = kk * farads / dt_now;
                        // Trapezoidal: i = g·v − (g·v_prev + i_prev);
                        // backward Euler: i = g·v − g·v_prev.
                        let hist = match integ {
                            Integration::Trapezoidal => g * st.v + st.i,
                            Integration::BackwardEuler => g * st.v,
                        };
                        add(*p, hist, &mut rhs);
                        add(*q, -hist, &mut rhs);
                    }
                    Element::Inductor {
                        a: p,
                        b: q,
                        henries,
                    } => {
                        let st = &ind_states[li];
                        li += 1;
                        let g = dt_now / (kk * henries);
                        // i = g·v + hist; hist_trap = i_prev + g·v_prev,
                        // hist_be = i_prev.
                        let hist = match integ {
                            Integration::Trapezoidal => st.i + g * st.v,
                            Integration::BackwardEuler => st.i,
                        };
                        add(*p, -hist, &mut rhs);
                        add(*q, hist, &mut rhs);
                    }
                    Element::CoupledInductors {
                        a1,
                        b1,
                        a2,
                        b2,
                        l1,
                        l2,
                        m: lm,
                    } => {
                        let st = &cind_states[cli];
                        cli += 1;
                        // hist = i_prev (+ Geq·v_prev for trapezoidal).
                        let det = l1 * l2 - lm * lm;
                        let s = dt_now / (kk * det);
                        let (g11, g22, g12) = (s * l2, s * l1, -s * lm);
                        let hist = match integ {
                            Integration::Trapezoidal => [
                                st.i[0] + g11 * st.v[0] + g12 * st.v[1],
                                st.i[1] + g12 * st.v[0] + g22 * st.v[1],
                            ],
                            Integration::BackwardEuler => st.i,
                        };
                        add(*a1, -hist[0], &mut rhs);
                        add(*b1, hist[0], &mut rhs);
                        add(*a2, -hist[1], &mut rhs);
                        add(*b2, hist[1], &mut rhs);
                    }
                    Element::VSource { wave, index, .. } => {
                        rhs[n + index] = if settling {
                            wave.initial_value()
                        } else {
                            wave.eval(t)
                        };
                    }
                    Element::ISource { from, to, wave } => {
                        let i = if settling {
                            wave.initial_value()
                        } else {
                            wave.eval(t)
                        };
                        add(*from, -i, &mut rhs);
                        add(*to, i, &mut rhs);
                    }
                    Element::CoupledLine { model, near, far } => {
                        let ls = &line_states[lsi];
                        lsi += 1;
                        let nc = model.conductor_count();
                        // Incoming modal waves from the opposite end.
                        let mut h_near = vec![0.0; nc];
                        let mut h_far = vec![0.0; nc];
                        for k in 0..nc {
                            h_near[k] = ls_incoming(&ls.far_hist, &ls.delay_steps, k, step);
                            h_far[k] = ls_incoming(&ls.near_hist, &ls.delay_steps, k, step);
                        }
                        // Norton history currents J = W · h.
                        let j_near = model.from_modal_current(&h_near);
                        let j_far = model.from_modal_current(&h_far);
                        for k in 0..nc {
                            add(near[k], j_near[k], &mut rhs);
                            add(far[k], j_far[k], &mut rhs);
                        }
                    }
                    Element::ReducedOrder { nodes, model } => {
                        let st = &rom_states[ri];
                        ri += 1;
                        // i⁺ = G·v⁺ + h, so the Norton history current −h
                        // enters the RHS at each port node.
                        let h = model.history_current(kk, dt_now, st);
                        for (k, nd) in nodes.iter().enumerate() {
                            add(*nd, -h[k], &mut rhs);
                        }
                    }
                    _ => {}
                }
            }

            // Solve, with each switch's deviation from its frozen half.
            for (di, &(g_on, s, invert)) in d.iter_mut().zip(&switch_drives) {
                let drive = if settling {
                    s.initial_value()
                } else {
                    s.eval(t)
                };
                *di = switch_conductance(g_on, drive, invert) - 0.5 * g_on;
            }
            let x = phase.solve(&phases.switches, &d, &rhs)?;

            // Update element states.
            let volt = |node: NodeId, x: &[f64]| if node.0 > 0 { x[node.0 - 1] } else { 0.0 };
            let (mut ci, mut li, mut cli, mut lsi, mut ri) = (0, 0, 0, 0, 0);
            for e in &self.elements {
                match e {
                    Element::Capacitor { a: p, b: q, farads } => {
                        let g = kk * farads / dt_now;
                        let v = volt(*p, &x) - volt(*q, &x);
                        let st = &mut cap_states[ci];
                        ci += 1;
                        let i = match integ {
                            Integration::Trapezoidal => g * v - (g * st.v + st.i),
                            Integration::BackwardEuler => g * (v - st.v),
                        };
                        st.i = i;
                        st.v = v;
                    }
                    Element::Inductor {
                        a: p,
                        b: q,
                        henries,
                    } => {
                        let g = dt_now / (kk * henries);
                        let v = volt(*p, &x) - volt(*q, &x);
                        let st = &mut ind_states[li];
                        li += 1;
                        let i = match integ {
                            Integration::Trapezoidal => g * v + st.i + g * st.v,
                            Integration::BackwardEuler => g * v + st.i,
                        };
                        st.i = i;
                        st.v = v;
                    }
                    Element::CoupledInductors {
                        a1,
                        b1,
                        a2,
                        b2,
                        l1,
                        l2,
                        m: lm,
                    } => {
                        let det = l1 * l2 - lm * lm;
                        let s = dt_now / (kk * det);
                        let (g11, g22, g12) = (s * l2, s * l1, -s * lm);
                        let v1 = volt(*a1, &x) - volt(*b1, &x);
                        let v2 = volt(*a2, &x) - volt(*b2, &x);
                        let st = &mut cind_states[cli];
                        cli += 1;
                        let hist = match integ {
                            Integration::Trapezoidal => [
                                st.i[0] + g11 * st.v[0] + g12 * st.v[1],
                                st.i[1] + g12 * st.v[0] + g22 * st.v[1],
                            ],
                            Integration::BackwardEuler => st.i,
                        };
                        st.i = [g11 * v1 + g12 * v2 + hist[0], g12 * v1 + g22 * v2 + hist[1]];
                        st.v = [v1, v2];
                    }
                    Element::CoupledLine { model, near, far } => {
                        let ls = &mut line_states[lsi];
                        lsi += 1;
                        let nc = model.conductor_count();
                        let yc = model.characteristic_admittance();
                        // `from_far == true` means we are at the near end
                        // (its incoming wave was launched at the far end).
                        for (ends, from_far) in [(near, true), (far, false)] {
                            // Terminal voltages and currents into the line:
                            // I = Yc·V − J_hist (same J as used in the RHS).
                            let v: Vec<f64> = (0..nc).map(|k| volt(ends[k], &x)).collect();
                            let mut i = yc.matvec(&v);
                            let mut hin = vec![0.0; nc];
                            for (k, h) in hin.iter_mut().enumerate() {
                                *h = ls_incoming(
                                    if from_far {
                                        &ls.far_hist
                                    } else {
                                        &ls.near_hist
                                    },
                                    &ls.delay_steps,
                                    k,
                                    step,
                                );
                            }
                            let j = model.from_modal_current(&hin);
                            for k in 0..nc {
                                i[k] -= j[k];
                            }
                            // Outgoing wave launched at this end: v_m + i_m.
                            let vm = model.to_modal_voltage(&v);
                            let im = model.to_modal_current(&i);
                            let this_hist = if from_far {
                                &mut ls.near_hist
                            } else {
                                &mut ls.far_hist
                            };
                            for k in 0..nc {
                                this_hist[k].push(vm[k] + im[k]);
                            }
                        }
                    }
                    Element::ReducedOrder { nodes, model } => {
                        let st = &mut rom_states[ri];
                        ri += 1;
                        let v_new: Vec<f64> = nodes.iter().map(|&nd| volt(nd, &x)).collect();
                        model.advance_state(kk, dt_now, &v_new, st);
                    }
                    _ => {}
                }
            }

            // Record (skip the settle phase).
            if !settling {
                times.push(t);
                voltages[0].push(0.0);
                for k in 1..=n {
                    voltages[k].push(x[k - 1]);
                }
                for s in 0..m {
                    source_currents[s].push(x[n + s]);
                }
            }
        }

        Ok(TransientResult {
            times,
            voltages,
            source_currents,
            woodbury_factorizations: phases.settle.factorizations + phases.main.factorizations,
        })
    }
}

/// The wave of `mode` arriving at `step` from the opposite line end: that
/// end's outgoing history `hist` delayed by the mode's delay, linearly
/// interpolated between samples (zero before the first arrival). A free
/// function over the [`LineState`] buffers, so it can read them while the
/// state is mutably borrowed elsewhere.
fn ls_incoming(hist: &[Vec<f64>], delay_steps: &[f64], mode: usize, step: usize) -> f64 {
    let pos = step as f64 - delay_steps[mode];
    if pos < 0.0 {
        return 0.0;
    }
    let i0 = pos.floor() as usize;
    let frac = pos - i0 as f64;
    let a = hist[mode].get(i0).copied().unwrap_or(0.0);
    let b = hist[mode].get(i0 + 1).copied().unwrap_or(a);
    a + frac * (b - a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::waveform::Waveform;
    use crate::CoupledLineModel;
    use pdn_num::approx_eq;

    #[test]
    fn rc_step_response_matches_exponential() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.voltage_source(vin, Circuit::GND, Waveform::step(1.0, 0.0));
        ckt.resistor(vin, out, 1e3);
        ckt.capacitor(out, Circuit::GND, 1e-9);
        let tau = 1e-6;
        let res = ckt.transient(&TransientSpec::new(5e-6, 5e-9)).unwrap();
        for (&t, &v) in res.time().iter().zip(res.voltage(out)) {
            let expect = 1.0 - (-t / tau).exp();
            assert!((v - expect).abs() < 5e-3, "t={t}: {v} vs {expect}");
        }
    }

    #[test]
    fn lc_ringing_frequency() {
        // Series L, shunt C driven by a step through small R: ringing at
        // f = 1/(2π√(LC)) ≈ 5.033 MHz.
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let a = ckt.node("a");
        let out = ckt.node("out");
        ckt.voltage_source(vin, Circuit::GND, Waveform::step(1.0, 0.0));
        ckt.resistor(vin, a, 1.0);
        ckt.inductor(a, out, 1e-6);
        ckt.capacitor(out, Circuit::GND, 1e-9);
        let res = ckt.transient(&TransientSpec::new(2e-6, 0.5e-9)).unwrap();
        // Count mean distance between rising crossings of 1.0 V.
        let v = res.voltage(out);
        let t = res.time();
        let mut crossings = Vec::new();
        for i in 1..v.len() {
            if v[i - 1] < 1.0 && v[i] >= 1.0 {
                crossings.push(t[i]);
            }
        }
        assert!(crossings.len() >= 3, "expected ringing");
        let period = (crossings[crossings.len() - 1] - crossings[0]) / (crossings.len() - 1) as f64;
        let f = 1.0 / period;
        let f0 = 1.0 / (2.0 * std::f64::consts::PI * (1e-6_f64 * 1e-9).sqrt());
        assert!(approx_eq(f, f0, 0.02), "f = {f}, expect {f0}");
    }

    #[test]
    fn source_current_through_resistor() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let src = ckt.voltage_source(a, Circuit::GND, Waveform::dc(2.0));
        ckt.resistor(a, Circuit::GND, 100.0);
        let res = ckt.transient(&TransientSpec::new(1e-9, 1e-10)).unwrap();
        // Delivering 20 mA: MNA branch current is −0.02.
        let i = res.source_current(src).last().copied().unwrap();
        assert!(approx_eq(i, -0.02, 1e-9));
    }

    #[test]
    fn settle_reaches_dc_before_recording() {
        // RC charged by a DC source: with settle, the recording starts at
        // the steady state.
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.voltage_source(vin, Circuit::GND, Waveform::dc(3.3));
        ckt.resistor(vin, out, 10.0);
        ckt.capacitor(out, Circuit::GND, 1e-9);
        let spec = TransientSpec::new(100e-9, 0.1e-9).with_settle(500e-9);
        let res = ckt.transient(&spec).unwrap();
        assert!((res.voltage(out)[0] - 3.3).abs() < 1e-3);
        assert!(res.peak_excursion(out) < 1e-3);
    }

    #[test]
    fn backward_euler_damps_trapezoidal_rings() {
        let build = || {
            let mut ckt = Circuit::new();
            let vin = ckt.node("in");
            let a = ckt.node("a");
            let out = ckt.node("out");
            ckt.voltage_source(vin, Circuit::GND, Waveform::step(1.0, 0.0));
            ckt.resistor(vin, a, 0.5);
            ckt.inductor(a, out, 1e-6);
            ckt.capacitor(out, Circuit::GND, 1e-9);
            ckt
        };
        let trap = build().transient(&TransientSpec::new(4e-6, 1e-9)).unwrap();
        let be = build()
            .transient(&TransientSpec::new(4e-6, 1e-9).with_integration(Integration::BackwardEuler))
            .unwrap();
        let peak_trap = trap
            .voltage(NodeId(3))
            .iter()
            .fold(0.0f64, |m, &v| m.max(v));
        let peak_be = be.voltage(NodeId(3)).iter().fold(0.0f64, |m, &v| m.max(v));
        assert!(peak_trap > 1.5, "trapezoidal preserves overshoot");
        assert!(peak_be < peak_trap, "BE numerically damps");
    }

    #[test]
    fn cmos_driver_swings_rail_to_rail() {
        let mut ckt = Circuit::new();
        let vcc = ckt.node("vcc");
        let out = ckt.node("out");
        ckt.voltage_source(vcc, Circuit::GND, Waveform::dc(3.3));
        ckt.cmos_driver(
            out,
            vcc,
            Circuit::GND,
            10.0,
            Waveform::pulse(0.0, 1.0, 1e-9, 0.3e-9, 0.3e-9, 3e-9),
        );
        ckt.capacitor(out, Circuit::GND, 5e-12);
        let res = ckt
            .transient(&TransientSpec::new(8e-9, 0.01e-9).with_settle(2e-9))
            .unwrap();
        let v = res.voltage(out);
        let t = res.time();
        // Starts low, goes high after the rise, returns low.
        assert!(v[0] < 0.1);
        let idx_high = t.iter().position(|&tt| tt > 3e-9).unwrap();
        assert!((v[idx_high] - 3.3).abs() < 0.05, "v_high = {}", v[idx_high]);
        assert!(v.last().unwrap() < &0.1);
    }

    #[test]
    fn matched_single_line_delays_pulse() {
        // 50 Ω line, 1 ns delay, matched at both ends: far end sees the
        // half-amplitude pulse delayed by exactly τ.
        let z0 = 50.0;
        let v = 2e8;
        let len = 0.2; // τ = 1 ns
        let l = Matrix::from_rows(&[&[z0 / v]]);
        let c = Matrix::from_rows(&[&[1.0 / (z0 * v)]]);
        let model = CoupledLineModel::new(l, c, len).unwrap();
        let mut ckt = Circuit::new();
        let src = ckt.node("src");
        let near = ckt.node("near");
        let far = ckt.node("far");
        ckt.voltage_source(
            src,
            Circuit::GND,
            Waveform::pulse(0.0, 1.0, 0.5e-9, 0.1e-9, 0.1e-9, 2e-9),
        );
        ckt.resistor(src, near, z0);
        ckt.coupled_line(model, vec![near], vec![far]);
        ckt.resistor(far, Circuit::GND, z0);
        let res = ckt.transient(&TransientSpec::new(6e-9, 0.01e-9)).unwrap();
        let t = res.time();
        let vf = res.voltage(far);
        // Before τ + delay: nothing at the far end.
        let idx_before = t.iter().position(|&tt| tt > 1.3e-9).unwrap();
        assert!(vf[idx_before].abs() < 1e-3);
        // After arrival: half amplitude (divider) transmitted fully.
        let idx_after = t.iter().position(|&tt| tt > 2.2e-9).unwrap();
        assert!((vf[idx_after] - 0.5).abs() < 0.02, "vf = {}", vf[idx_after]);
        // Matched: no reflection → near end flat at 0.5 during the pulse.
        let vn = res.voltage(near);
        assert!((vn[idx_after] - 0.5).abs() < 0.02);
    }

    #[test]
    fn open_line_doubles_voltage() {
        let z0 = 50.0;
        let v = 2e8;
        let model = CoupledLineModel::new(
            Matrix::from_rows(&[&[z0 / v]]),
            Matrix::from_rows(&[&[1.0 / (z0 * v)]]),
            0.2,
        )
        .unwrap();
        let mut ckt = Circuit::new();
        let src = ckt.node("src");
        let near = ckt.node("near");
        let far = ckt.node("far");
        ckt.voltage_source(src, Circuit::GND, Waveform::step(1.0, 0.2e-9));
        ckt.resistor(src, near, z0);
        ckt.coupled_line(model, vec![near], vec![far]);
        ckt.resistor(far, Circuit::GND, 1e9); // effectively open
        let res = ckt.transient(&TransientSpec::new(8e-9, 0.01e-9)).unwrap();
        let t = res.time();
        let vf = res.voltage(far);
        let idx = t.iter().position(|&tt| tt > 2.5e-9).unwrap();
        assert!(
            (vf[idx] - 1.0).abs() < 0.02,
            "open end doubles: {}",
            vf[idx]
        );
    }

    #[test]
    fn dt_larger_than_line_delay_rejected() {
        let model = CoupledLineModel::new(
            Matrix::from_rows(&[&[2.5e-7]]),
            Matrix::from_rows(&[&[1e-10]]),
            0.01,
        )
        .unwrap();
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.resistor(a, Circuit::GND, 50.0);
        ckt.resistor(b, Circuit::GND, 50.0);
        ckt.coupled_line(model, vec![a], vec![b]);
        let err = ckt.transient(&TransientSpec::new(1e-6, 1e-8)).unwrap_err();
        assert!(matches!(err, SimulateCircuitError::InvalidSpec(_)));
    }

    #[test]
    fn invalid_spec_rejected() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.resistor(a, Circuit::GND, 1.0);
        assert!(ckt.transient(&TransientSpec::new(0.0, 1e-9)).is_err());
        assert!(ckt.transient(&TransientSpec::new(1e-9, 0.0)).is_err());
        assert!(ckt
            .transient(&TransientSpec::new(f64::INFINITY, 1e-9))
            .is_err());
        assert!(ckt.transient(&TransientSpec::new(1e-9, f64::NAN)).is_err());
    }

    #[test]
    fn non_finite_or_negative_settle_rejected() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.resistor(a, Circuit::GND, 1.0);
        for settle in [-1e-9, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = ckt
                .transient(&TransientSpec::new(1e-9, 1e-10).with_settle(settle))
                .unwrap_err();
            match err {
                SimulateCircuitError::InvalidSpec(msg) => {
                    assert!(msg.contains("settle"), "message: {msg}");
                }
                other => panic!("expected InvalidSpec, got {other:?}"),
            }
        }
        // Zero settle stays valid (the documented "no pre-roll" value).
        assert!(ckt
            .transient(&TransientSpec::new(1e-9, 1e-10).with_settle(0.0))
            .is_ok());
    }

    #[test]
    fn non_commensurate_t_stop_still_covers_duration() {
        // t_stop/dt = 3333.33…: round() used to truncate the run to
        // 3333 steps (t_last < t_stop). The snap rule must extend to the
        // first grid point ≥ t_stop.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.voltage_source(a, Circuit::GND, Waveform::dc(1.0));
        ckt.resistor(a, Circuit::GND, 1.0);
        let (t_stop, dt) = (1e-6, 3e-10);
        let res = ckt.transient(&TransientSpec::new(t_stop, dt)).unwrap();
        let t_last = *res.time().last().unwrap();
        assert!(
            t_last >= t_stop && t_last < t_stop + dt,
            "t_last = {t_last:e}, t_stop = {t_stop:e}"
        );
        assert_eq!(res.len(), 3335); // 3334 steps + the t = 0 sample

        // Commensurate spec: exactly t_stop/dt steps, last sample at
        // t_stop (even when t_stop/dt is not representable exactly).
        let res = ckt.transient(&TransientSpec::new(1e-6, 1e-9)).unwrap();
        assert_eq!(res.len(), 1001);
        let t_last = *res.time().last().unwrap();
        assert!((t_last - 1e-6).abs() < 1e-15, "t_last = {t_last:e}");
    }

    #[test]
    fn floating_node_is_singular() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.resistor(a, Circuit::GND, 1.0);
        let _ = b; // b floats with a capacitor chain to nothing
        ckt.current_source(Circuit::GND, b, Waveform::dc(1e-3));
        let err = ckt.transient(&TransientSpec::new(1e-9, 1e-10)).unwrap_err();
        assert!(matches!(err, SimulateCircuitError::Singular(_)));
    }
}

#[cfg(test)]
mod reduced_order_tests {
    use super::*;
    use crate::waveform::Waveform;
    use pdn_num::rational::{sweep, SweepAccuracy};
    use pdn_num::{c64, Matrix, PoleResidueModel, PromOptions};
    use std::sync::Arc;

    /// One-port Y(s) = G + sC + 1/(R₂ + sL): a conductance and capacitor
    /// to ground in parallel with a series-RL branch — exactly realizable
    /// with circuit primitives, so the macromodel path can be compared
    /// against explicit stamping.
    fn analytic_y(g: f64, c: f64, r2: f64, l: f64, f: f64) -> Matrix<c64> {
        let s = c64::from_im(2.0 * std::f64::consts::PI * f);
        Matrix::from_fn(1, 1, |_, _| {
            c64::from_re(g) + s * c + (s * l + c64::from_re(r2)).recip()
        })
    }

    fn rom_from_rlc(g: f64, c: f64, r2: f64, l: f64) -> Arc<PoleResidueModel> {
        let grid: Vec<f64> = (0..50)
            .map(|k| 1e6 * (5e9f64 / 1e6).powf(k as f64 / 49.0))
            .collect();
        let outcome = sweep(&grid, SweepAccuracy::Rational { rel_tol: 1e-8 }, |f| {
            Ok::<_, std::convert::Infallible>(analytic_y(g, c, r2, l, f))
        })
        .unwrap();
        let model = outcome.model.expect("rational fit certified");
        let holdout: Vec<f64> = (0..6)
            .map(|k| (grid[6 * k] * grid[6 * k + 1]).sqrt())
            .collect();
        let holdout_values: Vec<Matrix<c64>> = holdout
            .iter()
            .map(|&f| analytic_y(g, c, r2, l, f))
            .collect();
        Arc::new(
            PoleResidueModel::from_rational(
                &model,
                &grid,
                &outcome.values,
                &holdout,
                &holdout_values,
                &PromOptions { cert_tol: 1e-4 },
            )
            .unwrap(),
        )
    }

    #[test]
    fn reduced_order_ac_stamp_matches_model_evaluate() {
        let rom = rom_from_rlc(2e-3, 1e-12, 1.0, 1e-9);
        let mut ckt = Circuit::new();
        let p = ckt.node("p");
        ckt.reduced_order_block(&[p], rom.clone());
        for f in [1e7, 1.37e8, 2.9e9] {
            let z = ckt.impedance_matrix(f, &[p]).unwrap();
            let expect = rom.evaluate(f)[(0, 0)].recip();
            let rel = (z[(0, 0)] - expect).norm() / expect.norm();
            assert!(rel < 1e-9, "f = {f:e}: rel {rel:.3e}");
        }
    }

    /// Transient of the macromodel against the explicit RLC realization.
    /// Trapezoidal companion stamps and recursive convolution are both
    /// exact bilinear transforms of the same Y(s), so the two waveforms
    /// agree to the (tiny) rational-fit error.
    #[test]
    fn reduced_order_transient_matches_explicit_network() {
        let (g, c, r2, l) = (2e-3, 1e-12, 1.0, 1e-9);
        let drive = Waveform::pulse(0.0, 0.05, 1e-9, 0.2e-9, 0.2e-9, 4e-9);

        let mut full = Circuit::new();
        let out = full.node("out");
        let mid = full.node("mid");
        full.current_source(Circuit::GND, out, drive.clone());
        full.resistor(out, Circuit::GND, 1.0 / g);
        full.capacitor(out, Circuit::GND, c);
        full.resistor(out, mid, r2);
        full.inductor(mid, Circuit::GND, l);

        let mut red = Circuit::new();
        let rout = red.node("out");
        red.current_source(Circuit::GND, rout, drive);
        red.reduced_order_block(&[rout], rom_from_rlc(g, c, r2, l));

        let spec = TransientSpec::new(10e-9, 2e-12);
        let vf = full.transient(&spec).unwrap();
        let vr = red.transient(&spec).unwrap();
        let a = vf.voltage(out);
        let b = vr.voltage(rout);
        assert_eq!(a.len(), b.len());
        let peak = a.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        assert!(peak > 1e-3, "drive produced no response");
        for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x - y).abs() < 1e-4 * peak,
                "step {i}: full {x:e} vs reduced {y:e} (peak {peak:e})"
            );
        }
    }
}

#[cfg(test)]
mod coupled_inductor_tests {
    use super::*;
    use crate::waveform::Waveform;
    use pdn_num::approx_eq;

    /// Transformer with k near 1 driven through a source resistor: the
    /// secondary open-circuit voltage approaches the turns-ratio times the
    /// primary voltage.
    #[test]
    fn transformer_voltage_ratio() {
        let turns = 2.0; // n = √(L2/L1)
        let (l1, l2) = (1e-6, turns * turns * 1e-6);
        let mut ckt = Circuit::new();
        let src = ckt.node("src");
        let p = ckt.node("p");
        let s = ckt.node("s");
        ckt.voltage_source(
            src,
            Circuit::GND,
            Waveform::Sine {
                offset: 0.0,
                amplitude: 1.0,
                frequency: 10e6,
                delay: 0.0,
            },
        );
        ckt.resistor(src, p, 1.0);
        ckt.coupled_inductors(p, Circuit::GND, s, Circuit::GND, l1, l2, 0.9999);
        ckt.resistor(s, Circuit::GND, 1e6); // light load
        let res = ckt.transient(&TransientSpec::new(1e-6, 0.2e-9)).unwrap();
        // After start-up, compare amplitude over the last half.
        let half = res.len() / 2;
        let vp = res.voltage(p)[half..]
            .iter()
            .fold(0.0f64, |m, &v| m.max(v.abs()));
        let vs = res.voltage(s)[half..]
            .iter()
            .fold(0.0f64, |m, &v| m.max(v.abs()));
        assert!(
            approx_eq(vs / vp, turns, 0.05),
            "voltage ratio {:.3} vs turns {turns}",
            vs / vp
        );
    }

    /// With zero coupling the two windings behave as independent
    /// inductors.
    #[test]
    fn uncoupled_windings_are_independent() {
        let build = |coupled: bool| {
            let mut ckt = Circuit::new();
            let a = ckt.node("a");
            let b = ckt.node("b");
            ckt.voltage_source(a, Circuit::GND, Waveform::step(1.0, 0.0));
            if coupled {
                ckt.coupled_inductors(a, Circuit::GND, b, Circuit::GND, 1e-6, 1e-6, 1e-9);
            } else {
                ckt.inductor(a, Circuit::GND, 1e-6);
                ckt.inductor(b, Circuit::GND, 1e-6);
            }
            ckt.resistor(b, Circuit::GND, 50.0);
            let res = ckt.transient(&TransientSpec::new(100e-9, 0.1e-9)).unwrap();
            res.voltage(b).last().copied().unwrap()
        };
        let vb_coupled = build(true);
        let vb_plain = build(false);
        assert!(
            (vb_coupled - vb_plain).abs() < 1e-6,
            "{vb_coupled} vs {vb_plain}"
        );
    }

    /// AC: the open-circuit transfer of a coupled pair equals M/L1.
    #[test]
    fn ac_mutual_transfer_ratio() {
        let (l1, l2, k) = (2e-6, 8e-6, 0.5);
        let mut ckt = Circuit::new();
        let src = ckt.node("src");
        let p = ckt.node("p");
        let s = ckt.node("s");
        let drive = ckt.voltage_source(src, Circuit::GND, Waveform::dc(0.0));
        ckt.resistor(src, p, 1e-3);
        ckt.coupled_inductors(p, Circuit::GND, s, Circuit::GND, l1, l2, k);
        ckt.resistor(s, Circuit::GND, 1e9);
        let sweep = crate::AcSweep::linear(1e6, 1e6 + 1.0, 2);
        let res = ckt.ac(&sweep, drive).unwrap();
        let ratio = (res.voltage(0, s) / res.voltage(0, p)).norm();
        let m = k * (l1 * l2).sqrt();
        assert!(
            approx_eq(ratio, m / l1, 1e-3),
            "transfer {ratio:.4} vs M/L1 = {:.4}",
            m / l1
        );
    }

    /// Energy pumped into a shorted coupled pair stays bounded (passive).
    #[test]
    fn coupled_pair_transient_stable() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.voltage_source(
            a,
            Circuit::GND,
            Waveform::pulse(0.0, 1.0, 0.0, 1e-9, 1e-9, 5e-9),
        );
        ckt.coupled_inductors(a, Circuit::GND, b, Circuit::GND, 1e-7, 1e-7, 0.95);
        ckt.resistor(b, Circuit::GND, 10.0);
        ckt.capacitor(b, Circuit::GND, 1e-12);
        let res = ckt.transient(&TransientSpec::new(100e-9, 0.05e-9)).unwrap();
        let vmax = res.voltage(b).iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        assert!(vmax < 5.0, "bounded: {vmax}");
    }

    /// Coupling factor at the passivity bound is rejected.
    #[test]
    #[should_panic(expected = "coupling factor")]
    fn unity_coupling_rejected() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.coupled_inductors(a, Circuit::GND, b, Circuit::GND, 1e-6, 1e-6, 1.0);
    }
}

#[cfg(test)]
mod partitioned_tests {
    use super::*;
    use crate::waveform::Waveform;

    fn driver_circuit() -> Circuit {
        let mut ckt = Circuit::new();
        let vcc = ckt.node("vcc");
        let out = ckt.node("out");
        ckt.voltage_source(vcc, Circuit::GND, Waveform::dc(3.3));
        // A little supply impedance so the rail actually bounces.
        let rail = ckt.node("rail");
        ckt.resistor(vcc, rail, 0.2);
        ckt.inductor(rail, ckt.find_node("vcc").unwrap(), 1e-12); // keep rail defined
        ckt.cmos_driver(
            out,
            rail,
            Circuit::GND,
            12.0,
            Waveform::pulse(0.0, 1.0, 1e-9, 0.5e-9, 0.5e-9, 3e-9),
        );
        ckt.capacitor(out, Circuit::GND, 10e-12);
        ckt
    }

    /// An eight-driver bank (k = 16 switches) on a shared rail.
    fn driver_bank() -> Circuit {
        let mut ckt = Circuit::new();
        let vcc = ckt.node("vcc");
        let rail = ckt.node("rail");
        ckt.voltage_source(vcc, Circuit::GND, Waveform::dc(3.3));
        ckt.resistor(vcc, rail, 0.2);
        ckt.capacitor(rail, Circuit::GND, 1e-9);
        for k in 0..8 {
            let out = ckt.node(format!("out{k}"));
            let delay = 1e-9 + 0.1e-9 * k as f64;
            ckt.cmos_driver(
                out,
                rail,
                Circuit::GND,
                10.0 + k as f64,
                Waveform::pulse(0.0, 1.0, delay, 0.5e-9, 0.5e-9, 3e-9),
            );
            ckt.capacitor(out, Circuit::GND, (5.0 + k as f64) * 1e-12);
        }
        ckt
    }

    /// Switch deviations `D` at one drive level: pull-ups (plain drive)
    /// and pull-downs (inverted) alternate, and the level is staggered
    /// per driver.
    fn deviations(switches: &[(NodeId, NodeId, f64)], level: f64) -> Vec<f64> {
        switches
            .iter()
            .enumerate()
            .map(|(i, &(_, _, g_on))| {
                let drive = (level + 0.05 * (i / 2) as f64).min(1.0);
                switch_conductance(g_on, drive, i % 2 == 1) - 0.5 * g_on
            })
            .collect()
    }

    /// Asserts `x` solves the explicit `(A₀ + U·D·Uᵀ)·x = rhs` of `phase`,
    /// by a dense LU, to 1e-10 of the solution's scale.
    fn assert_matches_dense(
        case: &str,
        ckt: &Circuit,
        phase: &Phase,
        switches: &[(NodeId, NodeId, f64)],
        d: &[f64],
        rhs: &[f64],
        x: &[f64],
    ) {
        let mut a = ckt.mna_matrix(phase.integration, phase.dt);
        for (&(p, q, _), &di) in switches.iter().zip(d) {
            for (r, sr) in [(p, 1.0), (q, -1.0)] {
                for (c, sc) in [(p, 1.0), (q, -1.0)] {
                    if r.0 > 0 && c.0 > 0 {
                        a[(r.0 - 1, c.0 - 1)] += sr * sc * di;
                    }
                }
            }
        }
        let x_ref = LuDecomposition::new(a).unwrap().solve(rhs).unwrap();
        let scale = x_ref.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let err = x
            .iter()
            .zip(&x_ref)
            .fold(0.0f64, |m, (u, v)| m.max((u - v).abs()));
        assert!(
            err <= 1e-10 * scale,
            "{case}: error {err:e} vs scale {scale:e}"
        );
    }

    /// The Woodbury step against a dense LU of the explicit matrix
    /// `A₀ + U·D·Uᵀ`, in both phases and at several drive levels. A phase
    /// that reuses its `k×k` factor across a drive sequence that repeats
    /// and revisits levels, with settle and main calls interleaved, gives
    /// bit for bit the solution of a freshly built phase.
    #[test]
    fn woodbury_step_matches_dense_reference() {
        let spec = TransientSpec::new(8e-9, 0.01e-9).with_settle(2e-9);
        for (ckt, k) in [(driver_circuit(), 2), (driver_bank(), 16)] {
            let mut phases = Phases::new(&ckt, &spec).unwrap();
            assert_eq!(phases.switches.len(), k);
            let dim = ckt.n_nodes + ckt.n_vsources;
            let rhs: Vec<f64> = (0..dim).map(|i| ((7 * i + 3) % 11) as f64 - 5.0).collect();
            for phase in [&mut phases.settle, &mut phases.main] {
                for level in [0.0, 0.2, 0.5, 0.9, 1.0] {
                    let d = deviations(&phases.switches, level);
                    let x = phase.solve(&phases.switches, &d, &rhs).unwrap();
                    let case = format!("k = {k}, level {level}");
                    assert_matches_dense(&case, &ckt, phase, &phases.switches, &d, &rhs, &x);
                }
            }

            let mut reused = Phases::new(&ckt, &spec).unwrap();
            for (step, level) in [0.2, 0.2, 0.9, 0.2, 1.0, 1.0].into_iter().enumerate() {
                let d = deviations(&reused.switches, level);
                for settle in [step % 2 == 0, step % 2 == 1] {
                    let mut fresh = Phases::new(&ckt, &spec).unwrap();
                    let (phase, fresh_phase) = if settle {
                        (&mut reused.settle, &mut fresh.settle)
                    } else {
                        (&mut reused.main, &mut fresh.main)
                    };
                    let x = phase.solve(&reused.switches, &d, &rhs).unwrap();
                    let x_fresh = fresh_phase.solve(&fresh.switches, &d, &rhs).unwrap();
                    let case = format!("k = {k}, step {step}, level {level}, settle {settle}");
                    assert!(
                        x.iter()
                            .zip(&x_fresh)
                            .all(|(a, b)| a.to_bits() == b.to_bits()),
                        "{case}: reused factor differs from a fresh one"
                    );
                    assert_matches_dense(&case, &ckt, phase, &reused.switches, &d, &rhs, &x);
                }
            }
            // Each phase factored on the levels 0.2, 0.9, 0.2 and 1.0 and
            // reused the factor on the two repeats.
            assert_eq!(reused.settle.factorizations, 4);
            assert_eq!(reused.main.factorizations, 4);
        }
    }

    #[test]
    fn partitioned_swings_rail_to_rail() {
        let ckt = driver_circuit();
        let res = ckt
            .transient(&TransientSpec::new(8e-9, 0.01e-9).with_settle(2e-9))
            .unwrap();
        let out = ckt.find_node("out").unwrap();
        let v = res.voltage(out);
        let vmax = v.iter().fold(0.0f64, |m, &x| m.max(x));
        let vend = *v.last().unwrap();
        assert!(vmax > 3.0, "reaches the rail: {vmax}");
        assert!(vend < 0.2, "returns low: {vend}");
    }
}

impl Circuit {
    /// Computes the DC operating point: capacitors open, inductors
    /// shorted, switch resistors and sources at their initial (`t = 0⁻`)
    /// values.
    ///
    /// Internally this runs the giant-step backward-Euler settle used by
    /// [`transient`](Circuit::transient), which converges to the DC
    /// solution at fixed cost regardless of the circuit's time constants.
    /// Returns one voltage per node id (index 0 is ground).
    ///
    /// # Errors
    ///
    /// Returns [`SimulateCircuitError::Singular`] when the DC system has
    /// no unique solution (floating nodes, source loops).
    ///
    /// # Examples
    ///
    /// ```
    /// use pdn_circuit::{Circuit, Waveform};
    ///
    /// # fn main() -> Result<(), pdn_circuit::SimulateCircuitError> {
    /// let mut ckt = Circuit::new();
    /// let a = ckt.node("a");
    /// let b = ckt.node("b");
    /// ckt.voltage_source(a, Circuit::GND, Waveform::dc(10.0));
    /// ckt.resistor(a, b, 6.0);
    /// ckt.resistor(b, Circuit::GND, 4.0);
    /// let op = ckt.dc_operating_point()?;
    /// assert!((op[b.index()] - 4.0).abs() < 1e-6); // divider
    /// # Ok(())
    /// # }
    /// ```
    pub fn dc_operating_point(&self) -> Result<Vec<f64>, SimulateCircuitError> {
        let min_delay = self
            .elements
            .iter()
            .filter_map(|e| match e {
                Element::CoupledLine { model, .. } => model
                    .delays()
                    .iter()
                    .fold(None::<f64>, |a, &b| Some(a.map_or(b, |x| x.min(b)))),
                _ => None,
            })
            .fold(f64::INFINITY, f64::min);
        let (dt, settle) = if min_delay.is_finite() {
            // Lines pin the settle step to dt; give the settle enough
            // round trips to reach steady state.
            let dt = min_delay / 4.0;
            (dt, 4000.0 * dt)
        } else {
            (1e-9, 1.0)
        };
        let spec = TransientSpec::new(dt, dt).with_settle(settle);
        let res = self.transient(&spec)?;
        let mut out = Vec::with_capacity(self.n_nodes + 1);
        for k in 0..=self.n_nodes {
            out.push(res.voltage(NodeId(k)).first().copied().unwrap_or(0.0));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod dc_tests {
    use super::*;
    use crate::waveform::Waveform;

    #[test]
    fn resistor_divider() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.voltage_source(a, Circuit::GND, Waveform::dc(10.0));
        ckt.resistor(a, b, 6.0);
        ckt.resistor(b, Circuit::GND, 4.0);
        let op = ckt.dc_operating_point().unwrap();
        assert!((op[b.index()] - 4.0).abs() < 1e-6);
    }

    #[test]
    fn inductors_short_capacitors_open() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        let c = ckt.node("c");
        ckt.voltage_source(a, Circuit::GND, Waveform::dc(5.0));
        ckt.inductor(a, b, 1e-6); // DC short: b = 5 V
        ckt.capacitor(b, Circuit::GND, 1e-9);
        ckt.resistor(b, c, 1e3);
        ckt.capacitor(c, Circuit::GND, 1e-9); // no DC path onward: c = b
        ckt.resistor(c, Circuit::GND, 1e9); // keep c weakly grounded
        let op = ckt.dc_operating_point().unwrap();
        assert!((op[b.index()] - 5.0).abs() < 1e-4, "b = {}", op[b.index()]);
        assert!((op[c.index()] - 5.0).abs() < 1e-2, "c = {}", op[c.index()]);
    }

    #[test]
    fn driver_initial_state_pulls_low() {
        let mut ckt = Circuit::new();
        let vcc = ckt.node("vcc");
        let out = ckt.node("out");
        ckt.voltage_source(vcc, Circuit::GND, Waveform::dc(3.3));
        ckt.cmos_driver(
            out,
            vcc,
            Circuit::GND,
            10.0,
            Waveform::pulse(0.0, 1.0, 5e-9, 1e-9, 1e-9, 5e-9),
        );
        let op = ckt.dc_operating_point().unwrap();
        assert!(
            op[out.index()] < 0.01,
            "output idles low: {}",
            op[out.index()]
        );
    }

    #[test]
    fn matched_line_passes_dc() {
        let z0 = 50.0;
        let v = 2e8;
        let model = crate::CoupledLineModel::new(
            Matrix::from_rows(&[&[z0 / v]]),
            Matrix::from_rows(&[&[1.0 / (z0 * v)]]),
            0.1,
        )
        .unwrap();
        let mut ckt = Circuit::new();
        let src = ckt.node("src");
        let near = ckt.node("near");
        let far = ckt.node("far");
        ckt.voltage_source(src, Circuit::GND, Waveform::dc(2.0));
        ckt.resistor(src, near, z0);
        ckt.coupled_line(model, vec![near], vec![far]);
        ckt.resistor(far, Circuit::GND, z0);
        let op = ckt.dc_operating_point().unwrap();
        // DC divider: the line is transparent, far = 2·z0/(2·z0) ... the
        // load divides with the source resistance: 1.0 V at both ends.
        assert!(
            (op[near.index()] - 1.0).abs() < 1e-3,
            "near {}",
            op[near.index()]
        );
        assert!(
            (op[far.index()] - 1.0).abs() < 1e-3,
            "far {}",
            op[far.index()]
        );
    }
}
