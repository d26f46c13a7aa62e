//! Event-counting three-valued good-circuit simulator.
//!
//! Evaluates the fault-free circuit one time frame at a time. Flip-flops are
//! initially X (no reset line is assumed, matching the ISCAS89 circuits and
//! the paper). The simulator reports the statistics the GATEST fitness
//! functions need: how many flip-flops hold known values, how many changed
//! this frame, and how many circuit events (net value changes) occurred.

use std::sync::Arc;

use gatest_netlist::levelize::Levelization;
use gatest_netlist::{Circuit, GateKind, NetId};

use crate::value::Logic;

/// Per-frame statistics from [`GoodSim::apply`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GoodStepReport {
    /// Nets whose value changed relative to the previous frame.
    pub events: u64,
    /// Flip-flops holding a known (0/1) value in the *next* state.
    pub ffs_set: usize,
    /// Flip-flops whose next-state value differs from their current state.
    pub ffs_changed: usize,
}

/// A value's two bit planes `(zero, one)`, as the packed words encode them:
/// 0 is `(1, 0)`, 1 is `(0, 1)` and X is `(0, 0)`.
#[inline(always)]
fn planes(v: Logic) -> (u8, u8) {
    (u8::from(v == Logic::Zero), u8::from(v == Logic::One))
}

/// The value whose planes are `(zero, one)`, indexed by `zero << 1 | one`
/// (both planes set does not occur).
const FROM_PLANES: [Logic; 4] = [Logic::X, Logic::One, Logic::Zero, Logic::X];

/// Evaluates one gate of the good machine: matches its kind once, folds
/// the fan-in values of `values` on their bit planes, inverts by swapping
/// the planes, and converts back once. Agrees with
/// [`eval_scalar`](crate::eval::eval_scalar).
#[inline(always)]
fn fold_gate(kind: GateKind, fanin: &[NetId], values: &[Logic]) -> Logic {
    let mut inputs = fanin.iter().map(|n| planes(values[n.index()]));
    let and = |(z, o): (u8, u8), (pz, po): (u8, u8)| (z | pz, o & po);
    let or = |(z, o): (u8, u8), (pz, po): (u8, u8)| (z & pz, o | po);
    let xor = |(z, o): (u8, u8), (pz, po): (u8, u8)| ((z & pz) | (o & po), (z & po) | (o & pz));
    let swap = |(z, o): (u8, u8)| (o, z);
    let (zero, one) = match kind {
        GateKind::And => inputs.fold((0, 1), and),
        GateKind::Nand => swap(inputs.fold((0, 1), and)),
        GateKind::Or => inputs.fold((1, 0), or),
        GateKind::Nor => swap(inputs.fold((1, 0), or)),
        GateKind::Xor => inputs.fold((1, 0), xor),
        GateKind::Xnor => swap(inputs.fold((1, 0), xor)),
        GateKind::Not => swap(inputs.next().expect("NOT has one input")),
        GateKind::Buf => inputs.next().expect("BUF has one input"),
        GateKind::Const0 => (1, 0),
        GateKind::Const1 => (0, 1),
        GateKind::Input | GateKind::Dff => {
            debug_assert!(false, "{kind} values come from the environment");
            (0, 0)
        }
    };
    FROM_PLANES[usize::from(zero << 1 | one)]
}

/// Advances a good machine held in `values` (one per net) and
/// `next_state` (one per flip-flop) by one frame under `vector`: latches
/// the flip-flops, drives the inputs, folds every combinational gate in
/// level order, and computes the next state. [`GoodSim::apply`] runs it on
/// its own state; a fault-simulation window runs it on scratch copies, so
/// the simulator's good machine moves only when a commit loads its last
/// frame.
pub(crate) fn advance(
    circuit: &Circuit,
    lev: &Levelization,
    values: &mut [Logic],
    next_state: &mut [Logic],
    vector: &[Logic],
) -> GoodStepReport {
    let mut events = 0u64;
    let mut set = |slot: &mut Logic, v: Logic| {
        events += u64::from(*slot != v);
        *slot = v;
    };

    // Latch: flip-flop outputs take the next-state computed last frame.
    for (i, &ff) in circuit.dffs().iter().enumerate() {
        set(&mut values[ff.index()], next_state[i]);
    }

    // Drive primary inputs.
    for (i, &pi) in circuit.inputs().iter().enumerate() {
        set(&mut values[pi.index()], vector[i]);
    }

    // Evaluate combinational gates in level order, sweeping the
    // schedule-ordered CSR: records and the fan-in arena are read
    // contiguously, and each gate folds on bit planes.
    for (gate, kind, fanin) in lev.comb_records() {
        let v = fold_gate(kind, fanin, values);
        set(&mut values[gate.index()], v);
    }

    // Compute next flip-flop state from D inputs.
    let mut ffs_set = 0;
    let mut ffs_changed = 0;
    for (i, &ff) in circuit.dffs().iter().enumerate() {
        let d = circuit.fanin(ff)[0];
        let v = values[d.index()];
        if v.is_known() {
            ffs_set += 1;
        }
        if v != values[ff.index()] {
            ffs_changed += 1;
        }
        next_state[i] = v;
    }

    GoodStepReport {
        events,
        ffs_set,
        ffs_changed,
    }
}

/// Snapshot of a [`GoodSim`]'s mutable state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GoodSimState {
    values: Vec<Logic>,
    next_state: Vec<Logic>,
}

impl GoodSimState {
    /// Rebuilds a snapshot from raw parts (checkpoint deserialization).
    /// `values` is one entry per net, `next_state` one per flip-flop.
    pub fn from_parts(values: Vec<Logic>, next_state: Vec<Logic>) -> Self {
        GoodSimState { values, next_state }
    }

    /// The snapshotted net values, one per net.
    pub fn values(&self) -> &[Logic] {
        &self.values
    }

    /// The snapshotted latched next-state values, one per flip-flop.
    pub fn next_state(&self) -> &[Logic] {
        &self.next_state
    }
}

/// The good-circuit simulator.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use gatest_sim::{GoodSim, Logic};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let circuit = Arc::new(gatest_netlist::benchmarks::iscas89("s27")?);
/// let mut sim = GoodSim::new(circuit);
/// let report = sim.apply(&[Logic::Zero, Logic::One, Logic::Zero, Logic::One]);
/// assert!(report.ffs_set > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct GoodSim {
    circuit: Arc<Circuit>,
    lev: Arc<Levelization>,
    /// Current value of every net (this frame).
    values: Vec<Logic>,
    /// Next flip-flop state, indexed like `circuit.dffs()`.
    next_state: Vec<Logic>,
}

impl GoodSim {
    /// Creates a simulator with all nets and flip-flops at X (constants at
    /// their fixed values).
    pub fn new(circuit: Arc<Circuit>) -> Self {
        let lev = Arc::new(Levelization::new(&circuit));
        let n = circuit.num_gates();
        let nffs = circuit.num_dffs();
        let mut sim = GoodSim {
            circuit,
            lev,
            values: vec![Logic::X; n],
            next_state: vec![Logic::X; nffs],
        };
        sim.apply_constants();
        sim
    }

    /// Pins `Const0`/`Const1` nets to their values.
    fn apply_constants(&mut self) {
        for id in self.circuit.net_ids() {
            match self.circuit.kind(id) {
                GateKind::Const0 => self.values[id.index()] = Logic::Zero,
                GateKind::Const1 => self.values[id.index()] = Logic::One,
                _ => {}
            }
        }
    }

    /// The circuit being simulated.
    pub fn circuit(&self) -> &Arc<Circuit> {
        &self.circuit
    }

    /// The levelization shared with the fault simulator.
    pub fn levelization(&self) -> &Levelization {
        &self.lev
    }

    /// Resets all nets and state to X (constants keep their fixed values).
    pub fn reset(&mut self) {
        self.values.fill(Logic::X);
        self.next_state.fill(Logic::X);
        self.apply_constants();
    }

    /// Applies one input vector (one time frame) and returns frame
    /// statistics. Flip-flop outputs take their latched next-state values at
    /// the start of the frame.
    ///
    /// # Panics
    ///
    /// Panics if `vector.len() != circuit.num_inputs()`.
    pub fn apply(&mut self, vector: &[Logic]) -> GoodStepReport {
        assert_eq!(
            vector.len(),
            self.circuit.num_inputs(),
            "vector length must match the primary input count"
        );
        advance(
            &self.circuit,
            &self.lev,
            &mut self.values,
            &mut self.next_state,
            vector,
        )
    }

    /// The current value of a net in this frame.
    #[inline]
    pub fn value(&self, net: NetId) -> Logic {
        self.values[net.index()]
    }

    /// Current primary-output values.
    pub fn output_values(&self) -> Vec<Logic> {
        self.circuit
            .outputs()
            .iter()
            .map(|&po| self.values[po.index()])
            .collect()
    }

    /// Current flip-flop output values (the state this frame runs from).
    pub fn state(&self) -> Vec<Logic> {
        self.circuit
            .dffs()
            .iter()
            .map(|&ff| self.values[ff.index()])
            .collect()
    }

    /// The next-state value latched for flip-flop index `i`.
    #[inline]
    pub fn next_state_of(&self, i: usize) -> Logic {
        self.next_state[i]
    }

    /// All net values this frame, indexed by net.
    #[inline]
    pub fn values(&self) -> &[Logic] {
        &self.values
    }

    /// All latched next-state values, indexed like `circuit.dffs()`.
    #[inline]
    pub fn next_states(&self) -> &[Logic] {
        &self.next_state
    }

    /// Number of flip-flops currently holding known values in the next state.
    pub fn known_next_state(&self) -> usize {
        self.next_state.iter().filter(|v| v.is_known()).count()
    }

    /// Snapshots the mutable state for later [`GoodSim::restore`].
    pub fn snapshot(&self) -> GoodSimState {
        GoodSimState {
            values: self.values.clone(),
            next_state: self.next_state.clone(),
        }
    }

    /// Restores a snapshot taken from the same circuit.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot came from a different circuit (size mismatch).
    pub fn restore(&mut self, state: &GoodSimState) {
        assert_eq!(state.values.len(), self.values.len());
        self.load(&state.values, &state.next_state);
    }

    /// Takes `values` (one per net) and `next_state` (one per flip-flop) as
    /// its state: a committed window's last frame, which [`advance`] built
    /// on a copy.
    pub(crate) fn load(&mut self, values: &[Logic], next_state: &[Logic]) {
        self.values.copy_from_slice(values);
        self.next_state.copy_from_slice(next_state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval_scalar;
    use gatest_netlist::CircuitBuilder;
    use Logic::{One, Zero, X};

    #[test]
    fn fold_gate_matches_eval_scalar_exhaustively() {
        // Every combinational kind over every 0/1/X combination of its
        // legal fan-in counts: 1–4 for the folding kinds, 1 for NOT/BUF,
        // none for the constants.
        let values = [Zero, One, X];
        let fanin: Vec<NetId> = (0..4).map(NetId::new).collect();
        for kind in [
            GateKind::And,
            GateKind::Nand,
            GateKind::Or,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
            GateKind::Not,
            GateKind::Buf,
            GateKind::Const0,
            GateKind::Const1,
        ] {
            let arities = match kind {
                GateKind::Not | GateKind::Buf => 1..=1,
                GateKind::Const0 | GateKind::Const1 => 0..=0,
                _ => 1..=4,
            };
            for arity in arities {
                for combo in 0..3usize.pow(arity as u32) {
                    let inputs: Vec<Logic> = (0..arity)
                        .map(|pin| values[combo / 3usize.pow(pin as u32) % 3])
                        .collect();
                    assert_eq!(
                        fold_gate(kind, &fanin[..arity], &inputs),
                        eval_scalar(kind, &inputs),
                        "{kind}{inputs:?}"
                    );
                }
            }
        }
    }

    fn counterish() -> Arc<Circuit> {
        // q' = q XOR a; y = NOT(q)
        let mut b = CircuitBuilder::new("counter");
        let a = b.input("a");
        let q = b.forward_ref("q");
        let d = b.gate(GateKind::Xor, "d", &[a, q]);
        b.gate(GateKind::Dff, "q", &[d]);
        let y = b.gate(GateKind::Not, "y", &[q]);
        b.output(y);
        Arc::new(b.finish().unwrap())
    }

    #[test]
    fn initial_state_is_x() {
        let mut sim = GoodSim::new(counterish());
        assert_eq!(sim.state(), vec![X]);
        let r = sim.apply(&[One]);
        // q is X, so d = 1 xor X = X: nothing becomes known.
        assert_eq!(r.ffs_set, 0);
        assert_eq!(sim.output_values(), vec![X]);
    }

    #[test]
    fn xor_feedback_never_initializes() {
        // A classic uninitializable flip-flop: q' = q xor a stays X forever.
        let mut sim = GoodSim::new(counterish());
        for _ in 0..8 {
            let r = sim.apply(&[One]);
            assert_eq!(r.ffs_set, 0);
        }
    }

    fn resettable() -> Arc<Circuit> {
        // q' = a AND q ... a=0 forces q'=0 (synchronous reset).
        let mut b = CircuitBuilder::new("resettable");
        let a = b.input("a");
        let q = b.forward_ref("q");
        let d = b.gate(GateKind::And, "d", &[a, q]);
        b.gate(GateKind::Dff, "q", &[d]);
        let y = b.gate(GateKind::Buf, "y", &[q]);
        b.output(y);
        Arc::new(b.finish().unwrap())
    }

    #[test]
    fn controlling_input_initializes_ff() {
        let mut sim = GoodSim::new(resettable());
        let r = sim.apply(&[Zero]);
        assert_eq!(r.ffs_set, 1, "a=0 forces next q to 0");
        // Next frame the output shows the latched 0.
        sim.apply(&[Zero]);
        assert_eq!(sim.output_values(), vec![Zero]);
    }

    #[test]
    fn events_count_changes_only() {
        let mut sim = GoodSim::new(resettable());
        let r1 = sim.apply(&[Zero]);
        assert!(r1.events > 0);
        // Re-applying the same vector with settled state: q latches 0 (change
        // from X), then everything stabilizes.
        sim.apply(&[Zero]);
        let r3 = sim.apply(&[Zero]);
        assert_eq!(r3.events, 0, "steady state produces no events");
    }

    #[test]
    fn snapshot_restore_round_trips() {
        let mut sim = GoodSim::new(resettable());
        sim.apply(&[Zero]);
        let snap = sim.snapshot();
        let before = (sim.state(), sim.output_values());
        sim.apply(&[One]);
        sim.restore(&snap);
        assert_eq!((sim.state(), sim.output_values()), before);
        // Behaviour after restore matches behaviour without the detour.
        let a = sim.apply(&[Zero]);
        sim.restore(&snap);
        let b = sim.apply(&[Zero]);
        assert_eq!(a, b);
    }

    #[test]
    fn s27_responds_to_inputs() {
        let circuit = Arc::new(gatest_netlist::benchmarks::iscas89("s27").unwrap());
        let mut sim = GoodSim::new(circuit);
        // (G0,G1,G2,G3) = (1,1,0,0): G14=0 kills G8, G12=0, so G13=1,
        // G9=1, G11=0, G10=1 — every flip-flop initializes in one frame.
        let r = sim.apply(&[One, One, Zero, Zero]);
        assert_eq!(r.ffs_set, 3, "s27 flip-flops all initialize");
        // All-zero inputs, by contrast, leave G6 and G7 at X forever.
        let mut sim2 = GoodSim::new(Arc::clone(sim.circuit()));
        for _ in 0..6 {
            assert!(sim2.apply(&[Zero, Zero, Zero, Zero]).ffs_set <= 1);
        }
    }

    #[test]
    #[should_panic(expected = "vector length")]
    fn rejects_wrong_vector_length() {
        let mut sim = GoodSim::new(resettable());
        sim.apply(&[Zero, One]);
    }

    #[test]
    fn ffs_changed_tracks_state_transitions() {
        let mut sim = GoodSim::new(resettable());
        sim.apply(&[Zero]); // next q = 0 (changed from X)
        let r = sim.apply(&[One]); // q=0, d = 1 AND 0 = 0: no change
        assert_eq!(r.ffs_changed, 0);
    }
}
