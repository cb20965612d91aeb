//! Time-domain (transient) analysis.
//!
//! Modified nodal formulation with companion models (paper Section 5.1):
//! capacitors and inductors are replaced each step by a conductance plus a
//! history current source, so **no internal inductance nodes** are added
//! and — with a uniform time step and a linear network — the system matrix
//! is constant and factored exactly once. Each element kind's companion,
//! history current and state update live with the kind in
//! `crate::element`; this module only walks the elements. Time-varying
//! switch resistors (behavioral drivers) sit in that matrix frozen at half
//! conductance; the rest of their conductance is an exact rank-k
//! Sherman–Morrison–Woodbury update over the single factorization,
//! applied every step (the paper's partitioned co-simulation, Section
//! 5.2). Its `k×k` system is factored again only on a step whose switch
//! conductances differ from the last factored ones.
//!
//! Both integration orders of the paper are available: first order
//! (backward Euler, strongly damping, used for the DC settle phase) and
//! second order (trapezoidal, the default).

use crate::element::{inject, Element, Live, Rule, Step, Switch};
use crate::netlist::{singular, Circuit, NodeId, SimulateCircuitError};
use pdn_num::{LuDecomposition, Matrix};
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

/// `(e_p − e_q)ᵀ·x` over the node rows of an MNA vector (ground has no
/// row), summed from zero. The element models' branch voltages subtract
/// the two node voltages directly; the two forms differ only in the sign
/// of a zero, and each keeps the bits its results were pinned with.
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
        if let Some(min_tau) = self.min_line_delay().filter(|&tau| spec.dt > tau) {
            return Err(SimulateCircuitError::InvalidSpec(format!(
                "dt = {} exceeds smallest line modal delay {min_tau}",
                spec.dt
            )));
        }
        self.step_counts(spec)
    }

    /// The smallest modal delay over the transmission lines, `None` when
    /// the circuit has none.
    fn min_line_delay(&self) -> Option<f64> {
        let delays = self.elements.iter().filter_map(|e| match e {
            Element::Line(line) => Some(line.model.delays()),
            _ => None,
        });
        delays
            .map(|d| d.iter().fold(f64::INFINITY, |a, &b| a.min(b)))
            .reduce(f64::min)
    }

    /// The switches whose drive varies with time, in element order: the
    /// columns of the Woodbury update.
    fn active_switches(&self) -> Vec<&Switch> {
        self.elements
            .iter()
            .filter_map(|e| match e {
                Element::Switch(sw) if !sw.s.is_constant() => Some(sw),
                _ => None,
            })
            .collect()
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
            (spec.settle / self.settle_rule(spec).dt).ceil()
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

    /// The settle phase's rule. The settle phase uses large
    /// backward-Euler steps (unconditionally stable) so a high-Q supply
    /// network reaches DC in a few hundred steps regardless of duration.
    /// With transmission lines present the settle step must match the main
    /// step so the wave history buffers stay uniformly sampled.
    fn settle_rule(&self, spec: &TransientSpec) -> Rule {
        let dt = if spec.settle > 0.0 && self.min_line_delay().is_none() {
            (spec.settle / 256.0).max(spec.dt)
        } else {
            spec.dt
        };
        Rule::new(Integration::BackwardEuler, dt)
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
    rule: Rule,
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
    fn new(ckt: &Circuit, rule: Rule, switches: &[&Switch]) -> Result<Self, SimulateCircuitError> {
        let lu = LuDecomposition::new(ckt.matrix(|e, mna| e.stamp(rule, mna))).map_err(singular)?;
        let w = switches
            .iter()
            .map(|sw| {
                let mut u = vec![0.0; ckt.n_nodes + ckt.n_vsources];
                inject(&mut u, sw.a, 1.0);
                inject(&mut u, sw.b, -1.0);
                lu.solve(&u).map_err(singular)
            })
            .collect::<Result<Vec<_>, _>>()?;
        let k = switches.len();
        let s0 = Matrix::from_fn(k, k, |i, j| {
            branch_voltage(switches[i].a, switches[i].b, &w[j])
        });
        Ok(Phase {
            rule,
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
        switches: &[&Switch],
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
            .map(|(sw, &di)| di * branch_voltage(sw.a, sw.b, &z))
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
        let switches = self.active_switches();
        let mut settle = Phase::new(self, self.settle_rule(spec), &switches)?;
        let mut main = Phase::new(self, Rule::new(spec.integration, spec.dt), &switches)?;
        let n = self.n_nodes;
        let m = self.n_vsources;
        let mut elements: Vec<Live> = self.elements.iter().map(Element::start).collect();
        let mut d = vec![0.0; switches.len()];
        let mut rhs = vec![0.0; n + m];

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

        for index in 0..n_settle + n_steps + 1 {
            let settling = index < n_settle;
            let phase = if settling { &mut settle } else { &mut main };
            let step = Step {
                rule: phase.rule,
                t: (!settling).then(|| (index - n_settle) as f64 * spec.dt),
                index,
                nodes: n,
            };
            rhs.fill(0.0);
            for e in &elements {
                e.history(&step, &mut rhs);
            }
            // Solve, with each switch's deviation from its frozen half.
            for (di, sw) in d.iter_mut().zip(&switches) {
                *di = sw.deviation(&step);
            }
            let x = phase.solve(&switches, &d, &rhs)?;
            for e in &mut elements {
                e.advance(&step, &x);
            }

            // Record (skip the settle phase).
            if let Some(t) = step.t {
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
            woodbury_factorizations: settle.factorizations + main.factorizations,
        })
    }
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

    /// The active switches and both phases of a run of `ckt` under
    /// `spec`, built as [`Circuit::transient`] builds them.
    struct Phases<'a> {
        switches: Vec<&'a Switch>,
        settle: Phase,
        main: Phase,
    }

    impl<'a> Phases<'a> {
        fn new(ckt: &'a Circuit, spec: &TransientSpec) -> Self {
            let switches = ckt.active_switches();
            Phases {
                settle: Phase::new(ckt, ckt.settle_rule(spec), &switches).unwrap(),
                main: Phase::new(ckt, Rule::new(spec.integration, spec.dt), &switches).unwrap(),
                switches,
            }
        }
    }

    /// Switch deviations `D` at one drive level: pull-ups (plain drive)
    /// and pull-downs (inverted) alternate, and the level is staggered
    /// per driver.
    fn deviations(switches: &[&Switch], level: f64) -> Vec<f64> {
        switches
            .iter()
            .enumerate()
            .map(|(i, sw)| {
                assert_eq!(sw.invert, i % 2 == 1, "pull-ups and pull-downs alternate");
                let drive = (level + 0.05 * (i / 2) as f64).min(1.0);
                sw.conductance(drive) - 0.5 * sw.g_on
            })
            .collect()
    }

    /// Asserts `x` solves the explicit `(A₀ + U·D·Uᵀ)·x = rhs` of `phase`,
    /// by a dense LU, to 1e-10 of the solution's scale.
    fn assert_matches_dense(
        case: &str,
        ckt: &Circuit,
        phase: &Phase,
        switches: &[&Switch],
        d: &[f64],
        rhs: &[f64],
        x: &[f64],
    ) {
        let mut a = ckt.matrix(|e, mna| e.stamp(phase.rule, mna));
        for (sw, &di) in switches.iter().zip(d) {
            let (p, q) = (sw.a, sw.b);
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
            let mut phases = Phases::new(&ckt, &spec);
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

            let mut reused = Phases::new(&ckt, &spec);
            for (step, level) in [0.2, 0.2, 0.9, 0.2, 1.0, 1.0].into_iter().enumerate() {
                let d = deviations(&reused.switches, level);
                for settle in [step % 2 == 0, step % 2 == 1] {
                    let mut fresh = Phases::new(&ckt, &spec);
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
        // Lines pin the settle step to dt; give the settle enough round
        // trips to reach steady state.
        let min_delay = self.min_line_delay().filter(|tau| tau.is_finite());
        let (dt, settle) = min_delay.map_or((1e-9, 1.0), |tau| (tau / 4.0, 4000.0 * (tau / 4.0)));
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
