//! The element model: one type per element kind, holding everything the
//! analyses need from that kind (paper Section 5.1).
//!
//! Each kind implements [`Model`]: its conductance in the transient MNA
//! matrix for an integration rule and step (for a reactive kind, the
//! conductance of its companion model), its AC admittance, the history
//! current it adds to a step's right-hand side, and the advance of its
//! state past the solved step. The analyses walk `Circuit::elements` in
//! order through [`Element`] and [`Live`] and never name a kind, so a new
//! kind is one type here and one name in the `element_kinds!` list.

use crate::netlist::{Circuit, NodeId};
use crate::tline_elem::CoupledLineModel;
use crate::transient::Integration;
use crate::waveform::Waveform;
use pdn_num::{c64, Matrix, PoleResidueModel, RomTransientState, Scalar};
use std::sync::Arc;

/// An integration rule and its step: what a companion conductance
/// depends on.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Rule {
    pub(crate) integration: Integration,
    pub(crate) dt: f64,
}

impl Rule {
    pub(crate) fn new(integration: Integration, dt: f64) -> Self {
        Rule { integration, dt }
    }

    /// Trapezoidal companion conductances carry a factor of 2 relative
    /// to backward Euler.
    pub(crate) fn kk(self) -> f64 {
        match self.integration {
            Integration::Trapezoidal => 2.0,
            Integration::BackwardEuler => 1.0,
        }
    }
}

/// One transient step, as the element models see it.
pub(crate) struct Step {
    /// The rule of the step's phase.
    pub(crate) rule: Rule,
    /// The step's time, or `None` in the settle phase, where every source
    /// holds its initial value.
    pub(crate) t: Option<f64>,
    /// Steps since the start of the run, settle phase included.
    pub(crate) index: usize,
    /// The node rows of the MNA system; voltage source `k` has row
    /// `nodes + k`.
    pub(crate) nodes: usize,
}

impl Step {
    /// The value of `wave` at this step.
    fn value(&self, wave: &Waveform) -> f64 {
        self.t
            .map_or_else(|| wave.initial_value(), |t| wave.eval(t))
    }
}

/// An MNA matrix under assembly: one row per non-ground node, then one
/// branch row per voltage source (the right-hand side and the solution
/// share that layout).
pub(crate) struct Mna<T> {
    a: Matrix<T>,
    nodes: usize,
}

impl Circuit {
    /// An MNA matrix with every element stamped into it by `stamp`, in
    /// element order: the transient matrix of a rule
    /// ([`Element::stamp`]) or the AC matrix at one frequency
    /// ([`Element::stamp_ac`]).
    pub(crate) fn matrix<T: Scalar>(&self, stamp: impl Fn(&Element, &mut Mna<T>)) -> Matrix<T> {
        let dim = self.n_nodes + self.n_vsources;
        let mut mna = Mna {
            a: Matrix::zeros(dim, dim),
            nodes: self.n_nodes,
        };
        for e in &self.elements {
            stamp(e, &mut mna);
        }
        mna.a
    }
}

impl<T: Scalar> Mna<T> {
    /// Adds `y` at row `p`, column `q` (ground has neither).
    fn add(&mut self, p: NodeId, q: NodeId, y: T) {
        if p.0 > 0 && q.0 > 0 {
            self.a[(p.0 - 1, q.0 - 1)] += y;
        }
    }

    /// Stamps an admittance `y` between nodes `p` and `q`.
    fn branch(&mut self, p: NodeId, q: NodeId, y: T) {
        self.add(p, p, y);
        self.add(q, q, y);
        self.add(p, q, -y);
        self.add(q, p, -y);
    }

    /// Stamps an admittance block whose port `i` sits between `nodes[i]`
    /// and ground.
    fn block(&mut self, nodes: &[NodeId], y: &Matrix<T>) {
        for (i, &p) in nodes.iter().enumerate() {
            for (j, &q) in nodes.iter().enumerate() {
                self.add(p, q, y[(i, j)]);
            }
        }
    }

    /// Stamps the incidence of voltage source `index` from `plus` to
    /// `minus`. Its branch current is an unknown after the node voltages,
    /// so its row is addressed like a node past the last one.
    fn source(&mut self, plus: NodeId, minus: NodeId, index: usize) {
        let row = NodeId(self.nodes + 1 + index);
        self.add(plus, row, T::one());
        self.add(row, plus, T::one());
        self.add(minus, row, -T::one());
        self.add(row, minus, -T::one());
    }
}

/// Voltage of node `p` in the MNA solution `x` (ground reads 0).
fn volt(p: NodeId, x: &[f64]) -> f64 {
    if p.0 > 0 {
        x[p.0 - 1]
    } else {
        0.0
    }
}

/// Injects current `i` into node `p` of the MNA right-hand side `rhs`.
pub(crate) fn inject(rhs: &mut [f64], p: NodeId, i: f64) {
    if p.0 > 0 {
        rhs[p.0 - 1] += i;
    }
}

/// Everything the analyses need from one element kind.
pub(crate) trait Model {
    /// What the kind carries from one transient step to the next.
    type State;
    /// The state at the start of a run.
    fn start(&self) -> Self::State;
    /// Stamps the kind's conductance into the transient matrix of `rule`.
    fn stamp(&self, rule: Rule, mna: &mut Mna<f64>);
    /// Stamps the kind's admittance at angular frequency `omega`, with
    /// independent sources deactivated (V → short, I → open).
    fn stamp_ac(&self, omega: f64, mna: &mut Mna<c64>);
    /// Adds the kind's source values and history currents to the
    /// right-hand side of `step`.
    fn history(&self, _step: &Step, _state: &Self::State, _rhs: &mut [f64]) {}
    /// Advances the state past `step`, whose MNA solution is `x`.
    fn advance(&self, _step: &Step, _x: &[f64], _state: &mut Self::State) {}
}

/// Declares the element kinds: [`Element`] with one variant per kind,
/// [`Live`] with each kind beside its transient state, and the dispatch
/// of each [`Model`] method through them (`start` turns an [`Element`]
/// into its [`Live`]).
macro_rules! element_kinds {
    ($($kind:ident),+ $(,)?) => {
        /// One netlist element.
        #[derive(Debug, Clone)]
        pub(crate) enum Element {
            $($kind($kind),)+
        }

        /// An element during a transient run, beside its state.
        pub(crate) enum Live<'a> {
            $($kind(&'a $kind, <$kind as Model>::State),)+
        }

        impl Element {
            pub(crate) fn stamp(&self, rule: Rule, mna: &mut Mna<f64>) {
                match self {
                    $(Element::$kind(e) => e.stamp(rule, mna),)+
                }
            }

            pub(crate) fn stamp_ac(&self, omega: f64, mna: &mut Mna<c64>) {
                match self {
                    $(Element::$kind(e) => e.stamp_ac(omega, mna),)+
                }
            }

            pub(crate) fn start(&self) -> Live<'_> {
                match self {
                    $(Element::$kind(e) => Live::$kind(e, e.start()),)+
                }
            }
        }

        impl Live<'_> {
            pub(crate) fn history(&self, step: &Step, rhs: &mut [f64]) {
                match self {
                    $(Live::$kind(e, state) => e.history(step, state, rhs),)+
                }
            }

            pub(crate) fn advance(&mut self, step: &Step, x: &[f64]) {
                match self {
                    $(Live::$kind(e, state) => e.advance(step, x, state),)+
                }
            }
        }
    };
}

element_kinds! { Resistor, Capacitor, Inductor, Switch, VSource, ISource, Line, ReducedOrder }

/// A resistor of `ohms` between `a` and `b`.
#[derive(Debug, Clone)]
pub(crate) struct Resistor {
    pub(crate) a: NodeId,
    pub(crate) b: NodeId,
    pub(crate) ohms: f64,
}

impl Model for Resistor {
    type State = ();
    fn start(&self) {}

    fn stamp(&self, _rule: Rule, mna: &mut Mna<f64>) {
        mna.branch(self.a, self.b, 1.0 / self.ohms);
    }

    fn stamp_ac(&self, _omega: f64, mna: &mut Mna<c64>) {
        mna.branch(self.a, self.b, c64::from_re(1.0 / self.ohms));
    }
}

/// The branch voltage `v` and current `i` of a capacitor or inductor at
/// the last step.
#[derive(Debug, Default)]
pub(crate) struct Branch {
    i: f64,
    v: f64,
}

/// A capacitor of `farads` between `a` and `b`. Its companion model is
/// the conductance `g = kk·C/dt` in parallel with a history current.
#[derive(Debug, Clone)]
pub(crate) struct Capacitor {
    pub(crate) a: NodeId,
    pub(crate) b: NodeId,
    pub(crate) farads: f64,
}

impl Capacitor {
    fn g(&self, rule: Rule) -> f64 {
        rule.kk() * self.farads / rule.dt
    }
}

impl Model for Capacitor {
    type State = Branch;
    fn start(&self) -> Branch {
        Branch::default()
    }

    fn stamp(&self, rule: Rule, mna: &mut Mna<f64>) {
        mna.branch(self.a, self.b, self.g(rule));
    }

    fn stamp_ac(&self, omega: f64, mna: &mut Mna<c64>) {
        mna.branch(self.a, self.b, c64::from_im(omega * self.farads));
    }

    fn history(&self, step: &Step, st: &Branch, rhs: &mut [f64]) {
        let g = self.g(step.rule);
        // Trapezoidal: i = g·v − (g·v_prev + i_prev);
        // backward Euler: i = g·v − g·v_prev.
        let hist = match step.rule.integration {
            Integration::Trapezoidal => g * st.v + st.i,
            Integration::BackwardEuler => g * st.v,
        };
        inject(rhs, self.a, hist);
        inject(rhs, self.b, -hist);
    }

    fn advance(&self, step: &Step, x: &[f64], st: &mut Branch) {
        let g = self.g(step.rule);
        let v = volt(self.a, x) - volt(self.b, x);
        st.i = match step.rule.integration {
            Integration::Trapezoidal => g * v - (g * st.v + st.i),
            Integration::BackwardEuler => g * (v - st.v),
        };
        st.v = v;
    }
}

/// An inductor of `henries` between `a` and `b`. Its companion model is
/// the conductance `g = dt/(kk·L)` in parallel with a history current, so
/// it adds no node.
#[derive(Debug, Clone)]
pub(crate) struct Inductor {
    pub(crate) a: NodeId,
    pub(crate) b: NodeId,
    pub(crate) henries: f64,
}

impl Inductor {
    fn g(&self, rule: Rule) -> f64 {
        rule.dt / (rule.kk() * self.henries)
    }
}

impl Model for Inductor {
    type State = Branch;
    fn start(&self) -> Branch {
        Branch::default()
    }

    fn stamp(&self, rule: Rule, mna: &mut Mna<f64>) {
        mna.branch(self.a, self.b, self.g(rule));
    }

    fn stamp_ac(&self, omega: f64, mna: &mut Mna<c64>) {
        mna.branch(self.a, self.b, c64::from_im(-1.0 / (omega * self.henries)));
    }

    fn history(&self, step: &Step, st: &Branch, rhs: &mut [f64]) {
        let g = self.g(step.rule);
        // i = g·v + hist; hist_trap = i_prev + g·v_prev, hist_be = i_prev.
        let hist = match step.rule.integration {
            Integration::Trapezoidal => st.i + g * st.v,
            Integration::BackwardEuler => st.i,
        };
        inject(rhs, self.a, -hist);
        inject(rhs, self.b, hist);
    }

    fn advance(&self, step: &Step, x: &[f64], st: &mut Branch) {
        let g = self.g(step.rule);
        let v = volt(self.a, x) - volt(self.b, x);
        st.i = match step.rule.integration {
            Integration::Trapezoidal => g * v + st.i + g * st.v,
            Integration::BackwardEuler => g * v + st.i,
        };
        st.v = v;
    }
}

/// Time-varying conductance `g(t) = g_on · s(t)` (or `g_on·(1−s(t))` when
/// `invert`), clamped to `[g_min, g_on]`: the behavioral CMOS output-stage
/// model.
///
/// A switch whose drive varies with time is *active*: the transient
/// matrix holds it frozen at half conductance, and the Woodbury update of
/// each step adds its [`deviation`](Switch::deviation). The AC matrix
/// holds every switch at its initial conductance.
#[derive(Debug, Clone)]
pub(crate) struct Switch {
    pub(crate) a: NodeId,
    pub(crate) b: NodeId,
    pub(crate) g_on: f64,
    pub(crate) s: Waveform,
    pub(crate) invert: bool,
}

impl Switch {
    /// Conductance at drive `drive`: `g_on` scaled by the clamped (for
    /// `invert`, complemented) drive, floored at `1e-9·g_on` so the node
    /// never floats.
    pub(crate) fn conductance(&self, drive: f64) -> f64 {
        let sv = drive.clamp(0.0, 1.0);
        let frac = if self.invert { 1.0 - sv } else { sv };
        (self.g_on * frac).max(self.g_on * 1e-9)
    }

    /// The conductance at `step` minus the frozen half.
    pub(crate) fn deviation(&self, step: &Step) -> f64 {
        self.conductance(step.value(&self.s)) - 0.5 * self.g_on
    }
}

impl Model for Switch {
    type State = ();
    fn start(&self) {}

    fn stamp(&self, _rule: Rule, mna: &mut Mna<f64>) {
        let g = if self.s.is_constant() {
            self.conductance(self.s.initial_value())
        } else {
            0.5 * self.g_on
        };
        mna.branch(self.a, self.b, g);
    }

    fn stamp_ac(&self, _omega: f64, mna: &mut Mna<c64>) {
        let g = self.conductance(self.s.initial_value());
        mna.branch(self.a, self.b, c64::from_re(g));
    }
}

/// An independent voltage source, `plus` − `minus` = `wave`, with MNA
/// branch row `index` after the node rows.
#[derive(Debug, Clone)]
pub(crate) struct VSource {
    pub(crate) plus: NodeId,
    pub(crate) minus: NodeId,
    pub(crate) wave: Waveform,
    pub(crate) index: usize,
}

impl Model for VSource {
    type State = ();
    fn start(&self) {}

    fn stamp(&self, _rule: Rule, mna: &mut Mna<f64>) {
        mna.source(self.plus, self.minus, self.index);
    }

    fn stamp_ac(&self, _omega: f64, mna: &mut Mna<c64>) {
        mna.source(self.plus, self.minus, self.index);
    }

    fn history(&self, step: &Step, _state: &(), rhs: &mut [f64]) {
        rhs[step.nodes + self.index] = step.value(&self.wave);
    }
}

/// An independent current source pushing `wave` from `from` to `to`
/// through itself.
#[derive(Debug, Clone)]
pub(crate) struct ISource {
    pub(crate) from: NodeId,
    pub(crate) to: NodeId,
    pub(crate) wave: Waveform,
}

impl Model for ISource {
    type State = ();
    fn start(&self) {}
    fn stamp(&self, _rule: Rule, _mna: &mut Mna<f64>) {}
    fn stamp_ac(&self, _omega: f64, _mna: &mut Mna<c64>) {}

    fn history(&self, step: &Step, _state: &(), rhs: &mut [f64]) {
        let i = step.value(&self.wave);
        inject(rhs, self.from, -i);
        inject(rhs, self.to, i);
    }
}

/// A lossless multiconductor transmission line: conductor `k` runs from
/// `near[k]` to `far[k]`, over ground. Its companion is the method of
/// characteristics: the constant admittance `Yc` at each end plus the
/// Norton current of the modal waves arriving from the other end.
#[derive(Debug, Clone)]
pub(crate) struct Line {
    pub(crate) model: Box<CoupledLineModel>,
    pub(crate) near: Vec<NodeId>,
    pub(crate) far: Vec<NodeId>,
}

/// Method-of-characteristics state of a [`Line`]: per mode, the samples of
/// the outgoing wave `v_m + i_m` launched at each end.
pub(crate) struct Waves {
    near: Vec<Vec<f64>>,
    far: Vec<Vec<f64>>,
}

impl Line {
    /// Norton current `J = W·h` of the modal waves `h` arriving at `step`
    /// at the near end (launched at the far end) or, for `!at_near`, at
    /// the far end: each mode's launched samples delayed by the mode's
    /// delay in (fractional) steps, linearly interpolated between samples
    /// (zero before the first arrival). Lines pin every step of a run to
    /// the same `dt`, so the samples are uniform.
    fn arriving(&self, st: &Waves, at_near: bool, step: &Step) -> Vec<f64> {
        let launched = if at_near { &st.far } else { &st.near };
        let h: Vec<f64> = launched
            .iter()
            .zip(self.model.delays())
            .map(|(hist, &tau)| {
                let pos = step.index as f64 - tau / step.rule.dt;
                if pos < 0.0 {
                    return 0.0;
                }
                let i0 = pos.floor() as usize;
                let frac = pos - i0 as f64;
                let a = hist.get(i0).copied().unwrap_or(0.0);
                let b = hist.get(i0 + 1).copied().unwrap_or(a);
                a + frac * (b - a)
            })
            .collect();
        self.model.from_modal_current(&h)
    }
}

impl Model for Line {
    type State = Waves;
    fn start(&self) -> Waves {
        let nc = self.model.conductor_count();
        Waves {
            near: vec![Vec::new(); nc],
            far: vec![Vec::new(); nc],
        }
    }

    fn stamp(&self, _rule: Rule, mna: &mut Mna<f64>) {
        // Yc is a full admittance block referenced to ground at each end.
        let yc = self.model.characteristic_admittance();
        mna.block(&self.near, yc);
        mna.block(&self.far, yc);
    }

    fn stamp_ac(&self, omega: f64, mna: &mut Mna<c64>) {
        let (ys, ym) = self.model.ac_blocks(omega);
        let nc = self.model.conductor_count();
        for i in 0..nc {
            for j in 0..nc {
                mna.add(self.near[i], self.near[j], ys[(i, j)]);
                mna.add(self.far[i], self.far[j], ys[(i, j)]);
                mna.add(self.near[i], self.far[j], ym[(i, j)]);
                mna.add(self.far[i], self.near[j], ym[(i, j)]);
            }
        }
    }

    fn history(&self, step: &Step, st: &Waves, rhs: &mut [f64]) {
        let j_near = self.arriving(st, true, step);
        let j_far = self.arriving(st, false, step);
        for k in 0..self.model.conductor_count() {
            inject(rhs, self.near[k], j_near[k]);
            inject(rhs, self.far[k], j_far[k]);
        }
    }

    fn advance(&self, step: &Step, x: &[f64], st: &mut Waves) {
        for (ends, at_near) in [(&self.near, true), (&self.far, false)] {
            // Terminal voltages and currents into the line:
            // I = Yc·V − J, with the J of the right-hand side.
            let v: Vec<f64> = ends.iter().map(|&p| volt(p, x)).collect();
            let mut i = self.model.characteristic_admittance().matvec(&v);
            let j = self.arriving(st, at_near, step);
            for (ik, jk) in i.iter_mut().zip(&j) {
                *ik -= jk;
            }
            // The wave launched at this end: v_m + i_m.
            let vm = self.model.to_modal_voltage(&v);
            let im = self.model.to_modal_current(&i);
            let launched = if at_near { &mut st.near } else { &mut st.far };
            for ((hist, &vk), &ik) in launched.iter_mut().zip(&vm).zip(&im) {
                hist.push(vk + ik);
            }
        }
    }
}

/// A passive pole–residue macromodel of a multiport admittance, port `k`
/// between `nodes[k]` and ground, simulated by recursive convolution (see
/// [`pdn_num::prom`]).
#[derive(Debug, Clone)]
pub(crate) struct ReducedOrder {
    pub(crate) nodes: Vec<NodeId>,
    pub(crate) model: Arc<PoleResidueModel>,
}

impl Model for ReducedOrder {
    type State = RomTransientState;
    fn start(&self) -> RomTransientState {
        self.model.new_state()
    }

    fn stamp(&self, rule: Rule, mna: &mut Mna<f64>) {
        let g = self.model.companion_admittance(rule.kk(), rule.dt);
        mna.block(&self.nodes, &g);
    }

    fn stamp_ac(&self, omega: f64, mna: &mut Mna<c64>) {
        let y = self.model.evaluate(omega / (2.0 * std::f64::consts::PI));
        mna.block(&self.nodes, &y);
    }

    fn history(&self, step: &Step, st: &RomTransientState, rhs: &mut [f64]) {
        // i⁺ = G·v⁺ + h, so the Norton history current −h enters the
        // right-hand side at each port node.
        let h = self.model.history_current(step.rule.kk(), step.rule.dt, st);
        for (&p, &hk) in self.nodes.iter().zip(&h) {
            inject(rhs, p, -hk);
        }
    }

    fn advance(&self, step: &Step, x: &[f64], st: &mut RomTransientState) {
        let v: Vec<f64> = self.nodes.iter().map(|&p| volt(p, x)).collect();
        self.model
            .advance_state(step.rule.kk(), step.rule.dt, &v, st);
    }
}
