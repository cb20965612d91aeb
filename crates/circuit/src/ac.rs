//! Frequency-domain (AC) analysis.
//!
//! Complex modified nodal analysis solved per frequency point. The paper
//! uses this path for verification against S-parameter measurements
//! (Section 5.1: "frequency domain simulations are useful for gaining
//! insight of high frequency characteristics").

use crate::netlist::{Circuit, Element, NodeId, SimulateCircuitError, SourceId};
use pdn_num::rational::{self, SweepAccuracy, SweepError, SweepOutcome};
use pdn_num::{c64, LuDecomposition, Matrix};
use std::f64::consts::PI;

/// Maps a sweep-engine error onto the circuit error type: grid/tolerance
/// problems become [`SimulateCircuitError::InvalidSpec`], solver failures
/// pass through.
pub(crate) fn from_sweep_err(e: SweepError<SimulateCircuitError>) -> SimulateCircuitError {
    match e {
        SweepError::InvalidInput(msg) => SimulateCircuitError::InvalidSpec(msg),
        SweepError::Eval(e) => e,
    }
}

/// A frequency sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct AcSweep {
    freqs: Vec<f64>,
}

impl AcSweep {
    /// Linear sweep from `f_start` to `f_stop` with `points` samples.
    ///
    /// # Panics
    ///
    /// Panics unless `points >= 2` and frequencies are positive.
    pub fn linear(f_start: f64, f_stop: f64, points: usize) -> Self {
        assert!(points >= 2, "need at least two sweep points");
        assert!(f_start > 0.0 && f_stop > f_start, "invalid frequency range");
        let freqs = (0..points)
            .map(|k| f_start + (f_stop - f_start) * k as f64 / (points - 1) as f64)
            .collect();
        AcSweep { freqs }
    }

    /// Logarithmic sweep from `f_start` to `f_stop` with `points` samples.
    ///
    /// # Panics
    ///
    /// Panics unless `points >= 2` and frequencies are positive.
    pub fn log(f_start: f64, f_stop: f64, points: usize) -> Self {
        assert!(points >= 2, "need at least two sweep points");
        assert!(f_start > 0.0 && f_stop > f_start, "invalid frequency range");
        let (l0, l1) = (f_start.log10(), f_stop.log10());
        let freqs = (0..points)
            .map(|k| 10f64.powf(l0 + (l1 - l0) * k as f64 / (points - 1) as f64))
            .collect();
        AcSweep { freqs }
    }

    /// The sweep frequencies.
    pub fn freqs(&self) -> &[f64] {
        &self.freqs
    }
}

/// Result of an AC sweep: node voltage phasors per frequency.
#[derive(Debug, Clone)]
pub struct AcResult {
    freqs: Vec<f64>,
    /// `voltages[fi][node_id]` (index 0 = ground = 0).
    voltages: Vec<Vec<c64>>,
}

impl AcResult {
    /// The sweep frequencies.
    pub fn freqs(&self) -> &[f64] {
        &self.freqs
    }

    /// Node voltage phasor at sweep point `fi`.
    ///
    /// # Panics
    ///
    /// Panics for out-of-range indices.
    pub fn voltage(&self, fi: usize, node: NodeId) -> c64 {
        self.voltages[fi][node.0]
    }

    /// Magnitude (in dB) of a node voltage across the sweep.
    pub fn magnitude_db(&self, node: NodeId) -> Vec<f64> {
        self.voltages.iter().map(|v| v[node.0].db()).collect()
    }
}

impl Circuit {
    /// Builds the complex MNA matrix at angular frequency `omega` with all
    /// independent sources deactivated (V → short, I → open).
    fn ac_matrix(&self, omega: f64) -> Matrix<c64> {
        let n = self.n_nodes;
        let dim = n + self.n_vsources;
        let mut a = Matrix::<c64>::zeros(dim, dim);
        let stamp_y = |p: NodeId, q: NodeId, y: c64, a: &mut Matrix<c64>| {
            if p.0 > 0 {
                a[(p.0 - 1, p.0 - 1)] += y;
            }
            if q.0 > 0 {
                a[(q.0 - 1, q.0 - 1)] += y;
            }
            if p.0 > 0 && q.0 > 0 {
                a[(p.0 - 1, q.0 - 1)] -= y;
                a[(q.0 - 1, p.0 - 1)] -= y;
            }
        };
        for e in &self.elements {
            match e {
                Element::Resistor { a: p, b: q, ohms } => {
                    stamp_y(*p, *q, c64::from_re(1.0 / ohms), &mut a);
                }
                Element::Capacitor { a: p, b: q, farads } => {
                    stamp_y(*p, *q, c64::from_im(omega * farads), &mut a);
                }
                Element::Inductor {
                    a: p,
                    b: q,
                    henries,
                } => {
                    stamp_y(*p, *q, c64::from_im(-1.0 / (omega * henries)), &mut a);
                }
                Element::CoupledInductors {
                    a1,
                    b1,
                    a2,
                    b2,
                    l1,
                    l2,
                    m,
                } => {
                    // Y = (jωL)⁻¹ for the 2×2 inductance matrix.
                    let det = l1 * l2 - m * m;
                    let y11 = c64::from_im(-l2 / (omega * det));
                    let y22 = c64::from_im(-l1 / (omega * det));
                    let y12 = c64::from_im(m / (omega * det));
                    stamp_y(*a1, *b1, y11, &mut a);
                    stamp_y(*a2, *b2, y22, &mut a);
                    for (ni, sgn_i) in [(*a1, 1.0), (*b1, -1.0)] {
                        for (nj, sgn_j) in [(*a2, 1.0), (*b2, -1.0)] {
                            if ni.0 > 0 && nj.0 > 0 {
                                a[(ni.0 - 1, nj.0 - 1)] += y12 * sgn_i * sgn_j;
                                a[(nj.0 - 1, ni.0 - 1)] += y12 * sgn_i * sgn_j;
                            }
                        }
                    }
                }
                Element::SwitchResistor {
                    a: p,
                    b: q,
                    g_on,
                    s,
                    invert,
                } => {
                    // Small-signal: conductance frozen at its initial state.
                    let sv = s.initial_value().clamp(0.0, 1.0);
                    let frac = if *invert { 1.0 - sv } else { sv };
                    stamp_y(*p, *q, c64::from_re((g_on * frac).max(g_on * 1e-9)), &mut a);
                }
                Element::VSource {
                    plus, minus, index, ..
                } => {
                    let row = n + index;
                    if plus.0 > 0 {
                        a[(plus.0 - 1, row)] += c64::ONE;
                        a[(row, plus.0 - 1)] += c64::ONE;
                    }
                    if minus.0 > 0 {
                        a[(minus.0 - 1, row)] -= c64::ONE;
                        a[(row, minus.0 - 1)] -= c64::ONE;
                    }
                }
                Element::ISource { .. } => {}
                Element::ReducedOrder { nodes, model } => {
                    // Ground-referenced multiport admittance block.
                    let y = model.evaluate(omega / (2.0 * std::f64::consts::PI));
                    for (i, ni) in nodes.iter().enumerate() {
                        for (j, nj) in nodes.iter().enumerate() {
                            if ni.0 > 0 && nj.0 > 0 {
                                a[(ni.0 - 1, nj.0 - 1)] += y[(i, j)];
                            }
                        }
                    }
                }
                Element::CoupledLine { model, near, far } => {
                    let (ys, ym) = model.ac_blocks(omega);
                    let nc = model.conductor_count();
                    let add = |p: NodeId, q: NodeId, y: c64, a: &mut Matrix<c64>| {
                        if p.0 > 0 && q.0 > 0 {
                            a[(p.0 - 1, q.0 - 1)] += y;
                        }
                    };
                    for i in 0..nc {
                        for j in 0..nc {
                            add(near[i], near[j], ys[(i, j)], &mut a);
                            add(far[i], far[j], ys[(i, j)], &mut a);
                            add(near[i], far[j], ym[(i, j)], &mut a);
                            add(far[i], near[j], ym[(i, j)], &mut a);
                        }
                    }
                }
            }
        }
        a
    }

    /// Runs an AC sweep with unit excitation on voltage source `excite`
    /// (all other independent sources deactivated).
    ///
    /// Sweep points are independent complex solves, fanned out over
    /// [`pdn_num::parallel`] workers (`PDN_THREADS` pins the count). The
    /// result is ordered by frequency and identical for any worker count.
    ///
    /// # Errors
    ///
    /// Returns [`SimulateCircuitError::Singular`] if the complex MNA matrix
    /// cannot be factored at some frequency (the lowest failing frequency
    /// is reported).
    pub fn ac(&self, sweep: &AcSweep, excite: SourceId) -> Result<AcResult, SimulateCircuitError> {
        self.ac_with(sweep, excite, SweepAccuracy::Exact)
    }

    /// [`ac`](Self::ac) with an explicit [`SweepAccuracy`] policy —
    /// `Rational` factors only adaptively chosen anchor frequencies and
    /// fills the rest from a certified rational interpolant of the node
    /// voltage vector (see `pdn_num::rational`).
    ///
    /// # Errors
    ///
    /// Same contract as [`ac`](Self::ac), plus
    /// [`SimulateCircuitError::InvalidSpec`] for an invalid tolerance.
    pub fn ac_with(
        &self,
        sweep: &AcSweep,
        excite: SourceId,
        accuracy: SweepAccuracy,
    ) -> Result<AcResult, SimulateCircuitError> {
        let n = self.n_nodes;
        let dim = n + self.n_vsources;
        let outcome = rational::sweep(&sweep.freqs, accuracy, |f| {
            let omega = 2.0 * PI * f;
            let a = self.ac_matrix(omega);
            let mut rhs = vec![c64::ZERO; dim];
            rhs[n + excite.0] = c64::ONE;
            let x = LuDecomposition::new(a)
                .and_then(|lu| lu.solve(&rhs))
                .map_err(|e| SimulateCircuitError::Singular(format!("f = {f}: {e}")))?;
            let mut v = Matrix::<c64>::zeros(n + 1, 1);
            for (node, &xk) in x[..n].iter().enumerate() {
                v[(node + 1, 0)] = xk;
            }
            Ok(v)
        })
        .map_err(from_sweep_err)?;
        let voltages = outcome
            .values
            .into_iter()
            .map(|v| (0..n + 1).map(|node| v[(node, 0)]).collect())
            .collect();
        Ok(AcResult {
            freqs: sweep.freqs.clone(),
            voltages,
        })
    }

    /// Port impedance matrix at frequency `f`: unit AC current injected at
    /// each port node (ground return), all independent sources deactivated.
    ///
    /// # Errors
    ///
    /// Returns [`SimulateCircuitError`] for `f <= 0` or a singular matrix.
    ///
    /// # Panics
    ///
    /// Panics if a port is the ground node.
    pub fn impedance_matrix(
        &self,
        f: f64,
        ports: &[NodeId],
    ) -> Result<Matrix<c64>, SimulateCircuitError> {
        if f <= 0.0 {
            return Err(SimulateCircuitError::InvalidSpec(
                "impedance matrix requires f > 0".into(),
            ));
        }
        let n = self.n_nodes;
        let dim = n + self.n_vsources;
        let a = self.ac_matrix(2.0 * PI * f);
        let lu =
            LuDecomposition::new(a).map_err(|e| SimulateCircuitError::Singular(e.to_string()))?;
        let np = ports.len();
        let mut z = Matrix::<c64>::zeros(np, np);
        for (pj, &port_j) in ports.iter().enumerate() {
            assert!(!port_j.is_ground(), "port cannot be the ground node");
            let mut rhs = vec![c64::ZERO; dim];
            rhs[port_j.0 - 1] = c64::ONE;
            let x = lu
                .solve(&rhs)
                .map_err(|e| SimulateCircuitError::Singular(e.to_string()))?;
            for (pi, &port_i) in ports.iter().enumerate() {
                z[(pi, pj)] = x[port_i.0 - 1];
            }
        }
        Ok(z)
    }

    /// Batched [`impedance_matrix`](Self::impedance_matrix): one port
    /// impedance matrix per frequency, computed on [`pdn_num::parallel`]
    /// workers. Each sweep point factors its complex MNA matrix once and
    /// reuses the factorization across all port excitations. Equivalent
    /// to [`impedance_sweep_with`](Self::impedance_sweep_with) at
    /// [`SweepAccuracy::Exact`].
    ///
    /// # Errors
    ///
    /// Returns the error of the lowest-index failing frequency; the grid
    /// must be finite, strictly positive, and strictly increasing.
    ///
    /// # Panics
    ///
    /// Panics if a port is the ground node.
    pub fn impedance_sweep(
        &self,
        freqs: &[f64],
        ports: &[NodeId],
    ) -> Result<Vec<Matrix<c64>>, SimulateCircuitError> {
        self.impedance_sweep_with(freqs, ports, SweepAccuracy::Exact)
    }

    /// [`impedance_sweep`](Self::impedance_sweep) with an explicit
    /// [`SweepAccuracy`] policy.
    ///
    /// # Errors
    ///
    /// [`SimulateCircuitError::InvalidSpec`] for an invalid grid or
    /// tolerance; otherwise the lowest-index failing frequency's error.
    ///
    /// # Panics
    ///
    /// Panics if a port is the ground node.
    pub fn impedance_sweep_with(
        &self,
        freqs: &[f64],
        ports: &[NodeId],
        accuracy: SweepAccuracy,
    ) -> Result<Vec<Matrix<c64>>, SimulateCircuitError> {
        Ok(self
            .impedance_sweep_detailed(freqs, ports, accuracy)?
            .values)
    }

    /// [`impedance_sweep_with`](Self::impedance_sweep_with) returning the
    /// full [`SweepOutcome`] (values, engine stats, rational model).
    ///
    /// # Errors
    ///
    /// Same contract as
    /// [`impedance_sweep_with`](Self::impedance_sweep_with).
    ///
    /// # Panics
    ///
    /// Panics if a port is the ground node.
    pub fn impedance_sweep_detailed(
        &self,
        freqs: &[f64],
        ports: &[NodeId],
        accuracy: SweepAccuracy,
    ) -> Result<SweepOutcome, SimulateCircuitError> {
        rational::sweep(freqs, accuracy, |f| self.impedance_matrix(f, ports))
            .map_err(from_sweep_err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::waveform::Waveform;
    use pdn_num::approx_eq;

    #[test]
    fn sweep_constructors() {
        let lin = AcSweep::linear(1e6, 10e6, 10);
        assert_eq!(lin.freqs().len(), 10);
        assert!(approx_eq(lin.freqs()[0], 1e6, 1e-12));
        assert!(approx_eq(lin.freqs()[9], 10e6, 1e-12));
        let log = AcSweep::log(1e6, 1e9, 4);
        assert!(approx_eq(log.freqs()[1], 1e7, 1e-9));
        assert!(approx_eq(log.freqs()[2], 1e8, 1e-9));
    }

    #[test]
    fn rc_lowpass_transfer() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        let src = ckt.voltage_source(vin, Circuit::GND, Waveform::dc(0.0));
        ckt.resistor(vin, out, 1e3);
        ckt.capacitor(out, Circuit::GND, 1e-9);
        // Corner at 1/(2πRC) ≈ 159 kHz.
        let fc = 1.0 / (2.0 * PI * 1e3 * 1e-9);
        let sweep = AcSweep::linear(fc, fc + 1.0, 2);
        let res = ckt.ac(&sweep, src).unwrap();
        let h = res.voltage(0, out);
        assert!(approx_eq(h.norm(), 1.0 / 2f64.sqrt(), 1e-3)); // −3 dB
        assert!(approx_eq(h.arg(), -PI / 4.0, 1e-3)); // −45°
    }

    #[test]
    fn decap_branch_series_resonance() {
        // A decoupling capacitor with ESR and ESL: capacitive below the
        // series resonance, |Z| ≈ ESR at resonance, inductive above.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        let c = ckt.node("c");
        ckt.resistor(a, b, 0.1); // ESR
        ckt.inductor(b, c, 1e-9); // ESL
        ckt.capacitor(c, Circuit::GND, 100e-9);
        let f0 = 1.0 / (2.0 * PI * (1e-9_f64 * 100e-9).sqrt());
        let z_lo = ckt.impedance_matrix(f0 / 100.0, &[a]).unwrap()[(0, 0)];
        let z_hi = ckt.impedance_matrix(f0 * 100.0, &[a]).unwrap()[(0, 0)];
        assert!(z_lo.im < 0.0, "below resonance: capacitive, got {z_lo}");
        assert!(z_hi.im > 0.0, "above resonance: inductive, got {z_hi}");
        let z_res = ckt.impedance_matrix(f0, &[a]).unwrap()[(0, 0)];
        assert!(
            approx_eq(z_res.norm(), 0.1, 1e-3),
            "|Z(f0)| = {}",
            z_res.norm()
        );
    }

    #[test]
    fn impedance_of_resistor_divider() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.resistor(a, Circuit::GND, 100.0);
        ckt.resistor(a, Circuit::GND, 100.0);
        let z = ckt.impedance_matrix(1e6, &[a]).unwrap();
        assert!(approx_eq(z[(0, 0)].re, 50.0, 1e-9));
        assert!(z[(0, 0)].im.abs() < 1e-9);
    }

    #[test]
    fn matched_line_impedance_is_z0_everywhere() {
        // Input impedance of a 50 Ω line terminated in 50 Ω is 50 Ω at any
        // frequency.
        let z0 = 50.0;
        let v = 2e8;
        let model = crate::CoupledLineModel::new(
            pdn_num::Matrix::from_rows(&[&[z0 / v]]),
            pdn_num::Matrix::from_rows(&[&[1.0 / (z0 * v)]]),
            0.123,
        )
        .unwrap();
        let mut ckt = Circuit::new();
        let near = ckt.node("near");
        let far = ckt.node("far");
        ckt.coupled_line(model, vec![near], vec![far]);
        ckt.resistor(far, Circuit::GND, z0);
        for &f in &[10e6, 137e6, 1.1e9] {
            let z = ckt.impedance_matrix(f, &[near]).unwrap()[(0, 0)];
            assert!(approx_eq(z.re, z0, 1e-6), "f={f}: {z}");
            assert!(z.im.abs() < 1e-6 * z0, "f={f}: {z}");
        }
    }

    #[test]
    fn quarter_wave_open_line_looks_short() {
        let z0 = 50.0;
        let v = 2e8;
        let len = 0.1;
        let tau = len / v;
        let f_quarter = 1.0 / (4.0 * tau);
        let model = crate::CoupledLineModel::new(
            pdn_num::Matrix::from_rows(&[&[z0 / v]]),
            pdn_num::Matrix::from_rows(&[&[1.0 / (z0 * v)]]),
            len,
        )
        .unwrap();
        let mut ckt = Circuit::new();
        let near = ckt.node("near");
        let far = ckt.node("far");
        ckt.coupled_line(model, vec![near], vec![far]);
        ckt.resistor(far, Circuit::GND, 1e9); // open
        let z = ckt.impedance_matrix(f_quarter, &[near]).unwrap()[(0, 0)];
        assert!(z.norm() < 0.1, "quarter-wave open transforms to short: {z}");
    }

    #[test]
    fn impedance_requires_positive_frequency() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.resistor(a, Circuit::GND, 1.0);
        assert!(ckt.impedance_matrix(0.0, &[a]).is_err());
    }

    #[test]
    fn impedance_sweep_matches_per_point_solves() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        let c = ckt.node("c");
        ckt.resistor(a, b, 0.1);
        ckt.inductor(b, c, 1e-9);
        ckt.capacitor(c, Circuit::GND, 100e-9);
        let freqs: Vec<f64> = (1..=64).map(|k| k as f64 * 5e6).collect();
        let batch = ckt.impedance_sweep(&freqs, &[a]).unwrap();
        assert_eq!(batch.len(), freqs.len());
        for (k, &f) in freqs.iter().enumerate() {
            // Same code path per point — bit-identical to the serial call.
            assert_eq!(batch[k], ckt.impedance_matrix(f, &[a]).unwrap(), "f = {f}");
        }
        // A bad point reports the lowest failing frequency.
        assert!(ckt.impedance_sweep(&[1e6, 0.0], &[a]).is_err());
    }
}

#[cfg(test)]
mod ac_result_tests {
    use super::*;
    use crate::waveform::Waveform;

    #[test]
    fn magnitude_db_tracks_transfer() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        let src = ckt.voltage_source(vin, Circuit::GND, Waveform::dc(0.0));
        // 20 dB attenuator: 9R / 1R divider.
        ckt.resistor(vin, out, 9.0);
        ckt.resistor(out, Circuit::GND, 1.0);
        let res = ckt.ac(&AcSweep::linear(1e6, 2e6, 3), src).unwrap();
        assert_eq!(res.freqs().len(), 3);
        for db in res.magnitude_db(out) {
            assert!((db + 20.0).abs() < 1e-9, "divider is −20 dB, got {db}");
        }
        // The driven node sits at 0 dB.
        for db in res.magnitude_db(vin) {
            assert!(db.abs() < 1e-9);
        }
    }

    #[test]
    fn coupled_inductor_ac_is_reciprocal() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.coupled_inductors(a, Circuit::GND, b, Circuit::GND, 1e-6, 4e-6, 0.6);
        ckt.resistor(a, Circuit::GND, 1e3);
        ckt.resistor(b, Circuit::GND, 1e3);
        let z = ckt.impedance_matrix(10e6, &[a, b]).unwrap();
        assert!((z[(0, 1)] - z[(1, 0)]).norm() < 1e-12 * z.max_abs());
    }
}
