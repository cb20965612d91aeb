//! Coupled-line crosstalk simulation (the paper's Figure 5 experiment).
//!
//! One line of a coupled pair is driven by a pulse source with a series
//! resistance; every other termination is a resistive load. The result
//! carries the four waveforms the paper plots: near/far end of the active
//! line, near/far end of the victim.

use pdn_circuit::{Circuit, CoupledLineModel, SimulateCircuitError, TransientSpec, Waveform};

/// Waveforms from a coupled-pair crosstalk run.
#[derive(Debug, Clone)]
pub struct CrosstalkResult {
    /// Sample times (s).
    pub time: Vec<f64>,
    /// Active line, near (driven) end.
    pub active_near: Vec<f64>,
    /// Active line, far end.
    pub active_far: Vec<f64>,
    /// Victim line, near end.
    pub victim_near: Vec<f64>,
    /// Victim line, far end.
    pub victim_far: Vec<f64>,
}

impl CrosstalkResult {
    /// Peak magnitude of the near-end crosstalk.
    pub fn next_peak(&self) -> f64 {
        self.victim_near.iter().fold(0.0f64, |m, &v| m.max(v.abs()))
    }

    /// Peak magnitude of the far-end crosstalk.
    pub fn fext_peak(&self) -> f64 {
        self.victim_far.iter().fold(0.0f64, |m, &v| m.max(v.abs()))
    }
}

/// Simulates a two-conductor coupled line with the paper's termination
/// scheme: `source` behind `r_source` drives conductor 0 at the near end;
/// all other terminals see `r_load` to ground.
///
/// # Errors
///
/// Returns [`SimulateCircuitError::InvalidSpec`] unless the model has
/// exactly two conductors, and propagates circuit-simulation failures
/// (e.g. a time step larger than the smallest modal delay).
///
/// # Examples
///
/// ```
/// use pdn_circuit::Waveform;
/// use pdn_tline::{simulate_coupled_pair, MicrostripArray};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let pair = MicrostripArray::uniform(2, 2e-3, 1e-3, 1e-3, 4.5);
/// let model = pair.line_model(0.1)?;
/// let pulse = Waveform::pulse(0.0, 5.0, 0.2e-9, 0.3e-9, 0.3e-9, 1.0e-9);
/// let res = simulate_coupled_pair(&model, pulse, 50.0, 50.0, 6e-9, 5e-12)?;
/// assert!(res.next_peak() > 0.0); // some crosstalk couples over
/// # Ok(())
/// # }
/// ```
pub fn simulate_coupled_pair(
    model: &CoupledLineModel,
    source: Waveform,
    r_source: f64,
    r_load: f64,
    t_stop: f64,
    dt: f64,
) -> Result<CrosstalkResult, SimulateCircuitError> {
    if model.conductor_count() != 2 {
        return Err(SimulateCircuitError::InvalidSpec(format!(
            "simulate_coupled_pair requires a two-conductor model, got {} conductors",
            model.conductor_count()
        )));
    }
    let mut ckt = Circuit::new();
    let src = ckt.node("src");
    let a_near = ckt.node("active_near");
    let a_far = ckt.node("active_far");
    let v_near = ckt.node("victim_near");
    let v_far = ckt.node("victim_far");
    ckt.voltage_source(src, Circuit::GND, source);
    ckt.resistor(src, a_near, r_source);
    ckt.resistor(v_near, Circuit::GND, r_load);
    ckt.resistor(a_far, Circuit::GND, r_load);
    ckt.resistor(v_far, Circuit::GND, r_load);
    ckt.coupled_line(model.clone(), vec![a_near, v_near], vec![a_far, v_far]);
    let res = ckt.transient(&TransientSpec::new(t_stop, dt))?;
    Ok(CrosstalkResult {
        time: res.time().to_vec(),
        active_near: res.voltage(a_near).to_vec(),
        active_far: res.voltage(a_far).to_vec(),
        victim_near: res.voltage(v_near).to_vec(),
        victim_far: res.voltage(v_far).to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MicrostripArray;

    fn paper_pair() -> CoupledLineModel {
        // Paper Fig. 4: 6 mm strips, 6 mm gap, 5 mm substrate, εr = 4.5.
        MicrostripArray::uniform(2, 6e-3, 6e-3, 5e-3, 4.5)
            .line_model(0.3)
            .unwrap()
    }

    fn run(model: &CoupledLineModel) -> CrosstalkResult {
        let pulse = Waveform::pulse(0.0, 5.0, 0.2e-9, 0.3e-9, 0.3e-9, 1.0e-9);
        simulate_coupled_pair(model, pulse, 50.0, 50.0, 8e-9, 2e-12).unwrap()
    }

    #[test]
    fn active_line_launch_amplitude() {
        let model = paper_pair();
        let res = run(&model);
        // Launch amplitude ≈ 5·Z0/(Z0+50); with Z0 near 50 it is near 2.5 V.
        let peak_near = res.active_near.iter().fold(0.0f64, |m, &v| m.max(v));
        assert!(peak_near > 1.0 && peak_near < 5.0, "launch {peak_near}");
    }

    #[test]
    fn far_end_pulse_arrives_after_delay() {
        let model = paper_pair();
        let tau = model.delays()[0].min(model.delays()[1]);
        let res = run(&model);
        for (t, v) in res.time.iter().zip(&res.active_far) {
            if *t < 0.9 * tau {
                assert!(v.abs() < 1e-6, "no signal before the line delay");
            }
        }
        let peak_far = res.active_far.iter().fold(0.0f64, |m, &v| m.max(v));
        assert!(peak_far > 1.0, "pulse arrives at the far end");
    }

    #[test]
    fn crosstalk_polarities_microstrip() {
        // Classic microstrip signatures for a rising step with matched
        // terminations: NEXT positive, FEXT a negative spike (inductive
        // coupling exceeds capacitive in an inhomogeneous medium).
        let model = MicrostripArray::uniform(2, 2e-3, 1e-3, 1e-3, 4.5)
            .line_model(0.2)
            .unwrap();
        let z0 = 1.0 / model.characteristic_admittance()[(0, 0)];
        let step = Waveform::step(5.0, 0.2e-9);
        let res = simulate_coupled_pair(&model, step, z0, z0, 8e-9, 2e-12).unwrap();
        let next_max = res.victim_near.iter().fold(0.0f64, |m, &v| m.max(v));
        let next_min = res.victim_near.iter().fold(0.0f64, |m, &v| m.min(v));
        let fext_min = res.victim_far.iter().fold(0.0f64, |m, &v| m.min(v));
        let fext_max = res.victim_far.iter().fold(0.0f64, |m, &v| m.max(v));
        assert!(next_max > 0.01, "NEXT positive plateau: {next_max}");
        assert!(next_min > -0.1 * next_max, "NEXT stays positive");
        assert!(fext_min < -0.05, "FEXT negative spike: {fext_min}");
        assert!(
            fext_max < 0.1 * fext_min.abs(),
            "FEXT predominantly negative"
        );
    }

    #[test]
    fn crosstalk_much_smaller_than_signal() {
        let model = paper_pair();
        let res = run(&model);
        let signal = res.active_far.iter().fold(0.0f64, |m, &v| m.max(v));
        assert!(res.next_peak() < 0.5 * signal);
        assert!(res.fext_peak() < 0.5 * signal);
    }

    #[test]
    fn tighter_coupling_increases_crosstalk() {
        let far = MicrostripArray::uniform(2, 2e-3, 6e-3, 1e-3, 4.5)
            .line_model(0.2)
            .unwrap();
        let near = MicrostripArray::uniform(2, 2e-3, 0.5e-3, 1e-3, 4.5)
            .line_model(0.2)
            .unwrap();
        let xt_far = run(&far).next_peak();
        let xt_near = run(&near).next_peak();
        assert!(
            xt_near > 2.0 * xt_far,
            "coupling gap effect: {xt_near} vs {xt_far}"
        );
    }

    #[test]
    fn homogeneous_medium_has_no_fext() {
        // In a homogeneous dielectric the modes are degenerate and forward
        // crosstalk cancels. Matched terminations keep the delayed-NEXT
        // reflections from polluting the measurement.
        let build = |er: f64| {
            MicrostripArray::uniform(2, 2e-3, 1e-3, 1e-3, er)
                .line_model(0.2)
                .unwrap()
        };
        let measure = |model: &CoupledLineModel| {
            let z0 = 1.0 / model.characteristic_admittance()[(0, 0)];
            let step = Waveform::step(5.0, 0.2e-9);
            let res = simulate_coupled_pair(model, step, z0, z0, 8e-9, 2e-12).unwrap();
            let signal = res.active_far.iter().fold(0.0f64, |m, &v| m.max(v));
            res.fext_peak() / signal
        };
        let homog = measure(&build(1.0));
        let inhomog = measure(&build(4.5));
        assert!(homog < 0.005, "homogeneous FEXT ratio {homog}");
        assert!(
            inhomog > 20.0 * homog,
            "dielectric inhomogeneity creates FEXT: {inhomog} vs {homog}"
        );
    }

    #[test]
    fn a_line_that_is_not_a_pair_is_an_invalid_spec() {
        let triple = MicrostripArray::uniform(3, 2e-3, 1e-3, 1e-3, 4.5)
            .line_model(0.1)
            .unwrap();
        let pulse = Waveform::pulse(0.0, 5.0, 0.2e-9, 0.3e-9, 0.3e-9, 1.0e-9);
        match simulate_coupled_pair(&triple, pulse, 50.0, 50.0, 6e-9, 5e-12) {
            Err(SimulateCircuitError::InvalidSpec(msg)) => {
                assert!(msg.contains("got 3 conductors"), "message: {msg}");
            }
            other => panic!("expected InvalidSpec, got {other:?}"),
        }
    }
}
