//! The fault simulator's oracle: the good machine and one faulty machine
//! per fault, simulated net by net and frame by frame, with no packing, no
//! events and no code shared with `gatest_sim`. It orders the
//! combinational gates itself (Kahn's algorithm over `Circuit::fanin`) and
//! evaluates them with its own 0/1/X gate table; from `gatest_sim` it takes
//! only data types: `Logic`, the fault types and the reports it fills.
//!
//! It reproduces every `StepReport` field but `gate_evals`, for stuck-at
//! and transition lists, under both window rules:
//!
//! * a commit ([`Oracle::commit`]) simulates every undetected fault and
//!   counts a fault up to and including its first detecting frame, then
//!   drops it;
//! * a score ([`Oracle::score`]) simulates a sample from the committed
//!   state and changes nothing; a fault detected at a frame restarts from
//!   the good state at the next one and may be detected again.

use gatest_netlist::{Circuit, GateKind, NetId};
use gatest_sim::{
    Fault, FaultId, FaultList, FaultModel, FaultSite, GoodStepReport, Logic, StepReport,
};

use Logic::{One, Zero, X};

/// The complement of a 0/1/X value.
fn not(v: Logic) -> Logic {
    match v {
        Zero => One,
        One => Zero,
        X => X,
    }
}

/// The gate table: the value a `kind` gate takes over `inputs`.
fn eval(kind: GateKind, inputs: &[Logic]) -> Logic {
    let any = |v: Logic| inputs.contains(&v);
    match kind {
        GateKind::And if any(Zero) => Zero,
        GateKind::And if any(X) => X,
        GateKind::And => One,
        GateKind::Or if any(One) => One,
        GateKind::Or if any(X) => X,
        GateKind::Or => Zero,
        GateKind::Xor if any(X) => X,
        GateKind::Xor if inputs.iter().filter(|&&v| v == One).count() % 2 == 1 => One,
        GateKind::Xor => Zero,
        GateKind::Nand => not(eval(GateKind::And, inputs)),
        GateKind::Nor => not(eval(GateKind::Or, inputs)),
        GateKind::Xnor => not(eval(GateKind::Xor, inputs)),
        GateKind::Not => not(inputs[0]),
        GateKind::Buf => inputs[0],
        GateKind::Const0 => Zero,
        GateKind::Const1 => One,
        GateKind::Input | GateKind::Dff => unreachable!("{kind} is a source"),
    }
}

/// Whether `net` is evaluated from its fan-in each frame (not an input or
/// a flip-flop).
fn is_gate(circuit: &Circuit, net: NetId) -> bool {
    !matches!(circuit.kind(net), GateKind::Input | GateKind::Dff)
}

/// The combinational gates in an order where every gate follows the gates
/// it reads (Kahn's algorithm).
fn topological_order(circuit: &Circuit) -> Vec<NetId> {
    let gates: Vec<NetId> = circuit.net_ids().filter(|&n| is_gate(circuit, n)).collect();
    let mut pending = vec![0usize; circuit.num_gates()];
    let mut readers: Vec<Vec<NetId>> = vec![Vec::new(); circuit.num_gates()];
    for &gate in &gates {
        for &src in circuit.fanin(gate) {
            if is_gate(circuit, src) {
                pending[gate.index()] += 1;
                readers[src.index()].push(gate);
            }
        }
    }
    let mut order: Vec<NetId> = gates
        .iter()
        .copied()
        .filter(|g| pending[g.index()] == 0)
        .collect();
    let mut next = 0;
    while next < order.len() {
        for &reader in &readers[order[next].index()] {
            pending[reader.index()] -= 1;
            if pending[reader.index()] == 0 {
                order.push(reader);
            }
        }
        next += 1;
    }
    assert_eq!(order.len(), gates.len(), "a combinational loop");
    order
}

/// The oracle's state: the committed good machine and, per undetected
/// fault, its faulty machine's next state.
pub struct Oracle<'c> {
    circuit: &'c Circuit,
    faults: &'c FaultList,
    order: Vec<NetId>,
    /// Good net values of the last committed frame.
    good: Vec<Logic>,
    /// Good next state, one per flip-flop.
    good_next: Vec<Logic>,
    /// Per fault, its faulty next state; `None` once a commit dropped it.
    faulty_next: Vec<Option<Vec<Logic>>>,
    /// Per fault, the 0-based index of the vector that detected it.
    detected_at: Vec<Option<u32>>,
    /// Vectors committed so far.
    applied: u32,
}

impl<'c> Oracle<'c> {
    /// The machines at power-up: every net and flip-flop X but the
    /// constants, every fault undetected.
    pub fn new(circuit: &'c Circuit, faults: &'c FaultList) -> Self {
        let good = circuit
            .net_ids()
            .map(|net| match circuit.kind(net) {
                GateKind::Const0 => Zero,
                GateKind::Const1 => One,
                _ => X,
            })
            .collect();
        let good_next = vec![X; circuit.num_dffs()];
        Oracle {
            circuit,
            faults,
            order: topological_order(circuit),
            good,
            faulty_next: vec![Some(good_next.clone()); faults.len()],
            good_next,
            detected_at: vec![None; faults.len()],
            applied: 0,
        }
    }

    /// Good net values of the last committed frame.
    pub fn good_values(&self) -> &[Logic] {
        &self.good
    }

    /// The good next state, one per flip-flop.
    pub fn good_next_state(&self) -> &[Logic] {
        &self.good_next
    }

    /// The 0-based index of the committed vector that detected `id`.
    pub fn detected_at(&self, id: FaultId) -> Option<u32> {
        self.detected_at[id.index()]
    }

    /// Commits `vectors` over every undetected fault, dropping each fault at
    /// the frame that detects it, and returns one report per vector.
    pub fn commit(&mut self, vectors: &[Vec<Logic>]) -> Vec<StepReport> {
        let targets: Vec<FaultId> = self
            .faults
            .iter()
            .map(|(id, _)| id)
            .filter(|id| self.faulty_next[id.index()].is_some())
            .collect();
        let mut states = self.states(&targets);
        let (reports, good, good_next) = self.window(vectors, &targets, &mut states, false);
        for (id, state) in targets.iter().zip(states) {
            self.faulty_next[id.index()] = Some(state);
        }
        for (f, report) in reports.iter().enumerate() {
            for &id in &report.newly_detected {
                self.faulty_next[id.index()] = None;
                self.detected_at[id.index()] = Some(self.applied + f as u32);
            }
        }
        (self.good, self.good_next) = (good, good_next);
        self.applied += vectors.len() as u32;
        reports
    }

    /// Scores `vectors` over `sample` (undetected faults) from the
    /// committed state, changing nothing, and returns one report per
    /// vector.
    pub fn score(&self, vectors: &[Vec<Logic>], sample: &[FaultId]) -> Vec<StepReport> {
        let mut states = self.states(sample);
        self.window(vectors, sample, &mut states, true).0
    }

    /// The faulty next states of `faults`.
    fn states(&self, faults: &[FaultId]) -> Vec<Vec<Logic>> {
        faults
            .iter()
            .map(|id| {
                let state = self.faulty_next[id.index()].as_ref();
                state.expect("a dropped fault is not simulated").clone()
            })
            .collect()
    }

    /// Runs `vectors` from the committed good machine over `targets`, whose
    /// faulty next states `states` holds and gets back. A detected fault
    /// restarts from the good state (`restart`, a score) or leaves the
    /// window (a commit). Returns the reports and the good machine's last
    /// frame and next state.
    fn window(
        &self,
        vectors: &[Vec<Logic>],
        targets: &[FaultId],
        states: &mut [Vec<Logic>],
        restart: bool,
    ) -> (Vec<StepReport>, Vec<Logic>, Vec<Logic>) {
        let c = self.circuit;
        let (mut good, mut good_next) = (self.good.clone(), self.good_next.clone());
        let mut live = vec![true; targets.len()];
        let mut reports = Vec::with_capacity(vectors.len());
        for vector in vectors {
            let before = good.clone();
            let good_report = self.good_frame(&mut good, &mut good_next, vector);
            let mut report = StepReport {
                good_events: good_report.events,
                good: good_report,
                ..StepReport::default()
            };
            for (k, &id) in targets.iter().enumerate() {
                if !live[k] {
                    continue;
                }
                let fault = self.faults.get(id);
                let forced = match (self.faults.model(), fault.site) {
                    (FaultModel::StuckAt, _) => true,
                    (FaultModel::Transition, FaultSite::Stem(net)) => {
                        let net = net.index();
                        before[net] == fault.stuck && good[net] == not(fault.stuck)
                    }
                    (FaultModel::Transition, FaultSite::Branch { .. }) => {
                        panic!("transition faults sit on stems")
                    }
                };
                if self.faults.model() == FaultModel::Transition && forced {
                    report.launched += 1;
                }
                let values = self.faulty_frame(fault, forced, &states[k], vector);
                let forced_stem = |net: NetId| forced && fault.site == FaultSite::Stem(net);
                report.faulty_events += self
                    .order
                    .iter()
                    .filter(|&&g| values[g.index()] != good[g.index()] && !forced_stem(g))
                    .count() as u64;
                let mut detected = false;
                for (po, &net) in c.outputs().iter().enumerate() {
                    let (g, f) = (good[net.index()], values[net.index()]);
                    if g != X && f != X && g != f {
                        report.po_detections.push((id, po as u16));
                        detected = true;
                    }
                }
                let mut effects = 0;
                for (i, &ff) in c.dffs().iter().enumerate() {
                    let d = match fault.site {
                        FaultSite::Branch { gate, pin: 0 } if forced && gate == ff => fault.stuck,
                        _ => values[c.fanin(ff)[0].index()],
                    };
                    effects += u64::from(d != good_next[i]);
                    states[k][i] = d;
                }
                report.ff_effect_pairs += effects;
                report.ff_effect_faults += u64::from(effects > 0);
                if detected {
                    report.newly_detected.push(id);
                    if restart {
                        states[k].copy_from_slice(&good_next);
                    } else {
                        live[k] = false;
                    }
                }
            }
            report.newly_detected.sort_unstable();
            report.po_detections.sort_unstable();
            reports.push(report);
        }
        (reports, good, good_next)
    }

    /// One good frame: latches `next` into the flip-flops, drives `vector`,
    /// evaluates every gate into `values` and computes the new `next`.
    fn good_frame(
        &self,
        values: &mut [Logic],
        next: &mut [Logic],
        vector: &[Logic],
    ) -> GoodStepReport {
        let c = self.circuit;
        let before = values.to_vec();
        for (i, &ff) in c.dffs().iter().enumerate() {
            values[ff.index()] = next[i];
        }
        for (i, &pi) in c.inputs().iter().enumerate() {
            values[pi.index()] = vector[i];
        }
        for &gate in &self.order {
            let inputs: Vec<Logic> = c.fanin(gate).iter().map(|n| values[n.index()]).collect();
            values[gate.index()] = eval(c.kind(gate), &inputs);
        }
        let mut report = GoodStepReport {
            events: values.iter().zip(&before).filter(|(a, b)| a != b).count() as u64,
            ..GoodStepReport::default()
        };
        for (i, &ff) in c.dffs().iter().enumerate() {
            let d = values[c.fanin(ff)[0].index()];
            report.ffs_set += usize::from(d != X);
            report.ffs_changed += usize::from(d != values[ff.index()]);
            next[i] = d;
        }
        report
    }

    /// One frame of `fault`'s machine from faulty next state `state` under
    /// `vector`, with the fault's value forced at its site when `forced`:
    /// every net's faulty value.
    fn faulty_frame(
        &self,
        fault: Fault,
        forced: bool,
        state: &[Logic],
        vector: &[Logic],
    ) -> Vec<Logic> {
        let c = self.circuit;
        let mut values = vec![X; c.num_gates()];
        for (i, &ff) in c.dffs().iter().enumerate() {
            values[ff.index()] = state[i];
        }
        for (i, &pi) in c.inputs().iter().enumerate() {
            values[pi.index()] = vector[i];
        }
        let (stem, branch) = match fault.site {
            _ if !forced => (None, None),
            FaultSite::Stem(net) => (Some(net), None),
            FaultSite::Branch { gate, pin } => (None, Some((gate, usize::from(pin)))),
        };
        if let Some(net) = stem {
            // A source site keeps the forced value; a gate site is forced
            // again as it is evaluated below.
            values[net.index()] = fault.stuck;
        }
        for &gate in &self.order {
            let inputs: Vec<Logic> = c
                .fanin(gate)
                .iter()
                .enumerate()
                .map(|(pin, n)| {
                    if branch == Some((gate, pin)) {
                        fault.stuck
                    } else {
                        values[n.index()]
                    }
                })
                .collect();
            values[gate.index()] = if stem == Some(gate) {
                fault.stuck
            } else {
                eval(c.kind(gate), &inputs)
            };
        }
        values
    }
}
