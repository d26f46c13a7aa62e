//! Transition (gross-delay) fault model and simulator.
//!
//! The paper's conclusion notes that the GA framework "is not limited to
//! the single stuck-at fault model, and other fault models can easily be
//! accommodated with appropriate fitness functions". This module supplies
//! the standard next model up: **transition faults**. A slow-to-rise fault
//! on net *n* delays every 0→1 transition of *n* by (at least) one clock;
//! under the usual gross-delay approximation the faulty net holds its
//! previous value for the frame in which the transition was supposed to
//! happen:
//!
//! ```text
//! faulty[t] = good[t-1]   if good[t-1] = 0 and good[t] = 1   (slow-to-rise)
//! faulty[t] = good[t]     otherwise
//! ```
//!
//! Detection therefore requires a two-pattern test — initialize the net to
//! the old value, *launch* the transition, and *capture* the difference at
//! a primary output — which in a non-scan sequential circuit means finding
//! the right multi-frame sequence: the same search problem GATEST solves
//! for stuck-at faults, with this simulator as the fitness oracle.
//!
//! The engine reuses the packed 64-slot machinery of the stuck-at
//! simulator: per frame, a transition fault whose launch condition holds is
//! injected as a one-frame stuck-at of the old value; once its effect
//! diverges into the flip-flops it propagates like any other fault.

use std::collections::HashMap;
use std::sync::Arc;

use gatest_netlist::{Circuit, NetId};

use crate::eval::eval_packed;
use crate::fault::FaultId;
use crate::good_sim::{GoodSim, GoodSimState};
use crate::group::advance_stamp;
use crate::value::{Logic, Pv64};

/// The slow transition direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Slow {
    /// Slow-to-rise: 0→1 transitions are delayed.
    Rise,
    /// Slow-to-fall: 1→0 transitions are delayed.
    Fall,
}

impl Slow {
    /// The value the net holds *before* the (delayed) transition.
    pub fn old_value(self) -> Logic {
        match self {
            Slow::Rise => Logic::Zero,
            Slow::Fall => Logic::One,
        }
    }

    /// The value the fault-free net takes when the transition fires.
    pub fn new_value(self) -> Logic {
        match self {
            Slow::Rise => Logic::One,
            Slow::Fall => Logic::Zero,
        }
    }
}

/// A transition fault: a slow 0→1 or 1→0 edge on one net.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TransitionFault {
    /// The slow net.
    pub net: NetId,
    /// The slow direction.
    pub slow: Slow,
}

impl TransitionFault {
    /// Renders the fault with circuit net names, e.g. `G11/STR`.
    pub fn display<'a>(&'a self, circuit: &'a Circuit) -> impl std::fmt::Display + 'a {
        struct D<'a>(&'a TransitionFault, &'a Circuit);
        impl std::fmt::Display for D<'_> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                let dir = match self.0.slow {
                    Slow::Rise => "STR",
                    Slow::Fall => "STF",
                };
                write!(f, "{}/{dir}", self.1.net_name(self.0.net))
            }
        }
        D(self, circuit)
    }
}

/// Enumerates both transition faults on every net of `circuit`.
pub fn transition_universe(circuit: &Circuit) -> Vec<TransitionFault> {
    let mut out = Vec::with_capacity(circuit.num_gates() * 2);
    for net in circuit.net_ids() {
        for slow in [Slow::Rise, Slow::Fall] {
            out.push(TransitionFault { net, slow });
        }
    }
    out
}

/// Per-vector statistics from [`TransitionFaultSim::step`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TransitionStepReport {
    /// Faults first detected by this vector.
    pub newly_detected: Vec<FaultId>,
    /// Faults whose launch condition fired this frame.
    pub launched: u64,
    /// Fault effects latched into flip-flops, as (fault, FF) pairs.
    pub ff_effect_pairs: u64,
}

impl TransitionStepReport {
    /// Number of faults newly detected by this vector.
    pub fn detected(&self) -> usize {
        self.newly_detected.len()
    }
}

/// Saved state of a [`TransitionFaultSim`].
#[derive(Debug, Clone)]
pub struct TransitionCheckpoint {
    good: GoodSimState,
    prev_values: Vec<Logic>,
    detected: Vec<bool>,
    active: Vec<FaultId>,
    faulty_ff: Vec<Vec<(u32, Logic)>>,
}

/// The transition-fault simulator.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use gatest_sim::transition::TransitionFaultSim;
/// use gatest_sim::Logic;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let circuit = Arc::new(gatest_netlist::benchmarks::iscas89("s27")?);
/// let mut sim = TransitionFaultSim::new(Arc::clone(&circuit));
/// // A transition test needs at least two frames: initialize, then launch.
/// sim.step(&[Logic::One, Logic::One, Logic::Zero, Logic::Zero]);
/// let r = sim.step(&[Logic::Zero, Logic::One, Logic::Zero, Logic::Zero]);
/// # let _ = r;
/// assert!(sim.detected_count() <= sim.total_faults());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TransitionFaultSim {
    circuit: Arc<Circuit>,
    good: GoodSim,
    faults: Vec<TransitionFault>,
    detected: Vec<bool>,
    active: Vec<FaultId>,
    faulty_ff: Vec<Vec<(u32, Logic)>>,
    /// Good values of every net in the previous frame (for launch checks).
    prev_values: Vec<Logic>,

    // Scratch (same structure as the stuck-at engine).
    fval: Vec<Pv64>,
    fstamp: Vec<u32>,
    stamp: u32,
    queued: Vec<u32>,
    buckets: Vec<Vec<NetId>>,
}

impl TransitionFaultSim {
    /// Creates a simulator over the full transition-fault universe.
    pub fn new(circuit: Arc<Circuit>) -> Self {
        let faults = transition_universe(&circuit);
        Self::with_faults(circuit, faults)
    }

    /// Creates a simulator over a caller-supplied fault list.
    pub fn with_faults(circuit: Arc<Circuit>, faults: Vec<TransitionFault>) -> Self {
        let good = GoodSim::new(Arc::clone(&circuit));
        let n = circuit.num_gates();
        let nfaults = faults.len();
        let max_level = good.levelization().max_level() as usize;
        TransitionFaultSim {
            circuit,
            good,
            detected: vec![false; nfaults],
            active: (0..nfaults as u32).map(FaultId).collect(),
            faulty_ff: vec![Vec::new(); nfaults],
            prev_values: vec![Logic::X; n],
            faults,
            fval: vec![Pv64::ALL_X; n],
            fstamp: vec![0; n],
            stamp: 0,
            queued: vec![0; n],
            buckets: vec![Vec::new(); max_level + 1],
        }
    }

    /// Total faults targeted.
    pub fn total_faults(&self) -> usize {
        self.faults.len()
    }

    /// Faults detected so far.
    pub fn detected_count(&self) -> usize {
        self.faults.len() - self.active.len()
    }

    /// Still-undetected faults.
    pub fn active_faults(&self) -> &[FaultId] {
        &self.active
    }

    /// The fault behind an id.
    pub fn fault(&self, id: FaultId) -> TransitionFault {
        self.faults[id.index()]
    }

    /// The embedded good simulator.
    pub fn good(&self) -> &GoodSim {
        &self.good
    }

    /// Saves the simulator state.
    pub fn checkpoint(&self) -> TransitionCheckpoint {
        TransitionCheckpoint {
            good: self.good.snapshot(),
            prev_values: self.prev_values.clone(),
            detected: self.detected.clone(),
            active: self.active.clone(),
            faulty_ff: self.faulty_ff.clone(),
        }
    }

    /// Restores a checkpoint from this simulator.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint shape does not match (different circuit).
    pub fn restore(&mut self, cp: &TransitionCheckpoint) {
        assert_eq!(cp.detected.len(), self.detected.len());
        self.good.restore(&cp.good);
        self.prev_values.copy_from_slice(&cp.prev_values);
        self.detected.copy_from_slice(&cp.detected);
        self.active.clear();
        self.active.extend_from_slice(&cp.active);
        self.faulty_ff.clone_from(&cp.faulty_ff);
    }

    /// Applies one vector over all undetected faults.
    ///
    /// # Panics
    ///
    /// Panics if `vector.len() != circuit.num_inputs()`.
    pub fn step(&mut self, vector: &[Logic]) -> TransitionStepReport {
        let targets = self.active.clone();
        self.step_with(vector, &targets)
    }

    /// Applies one vector simulating only `sample`.
    pub fn step_sampled(&mut self, vector: &[Logic], sample: &[FaultId]) -> TransitionStepReport {
        self.step_with(vector, sample)
    }

    fn step_with(&mut self, vector: &[Logic], targets: &[FaultId]) -> TransitionStepReport {
        // Record previous-frame good values, then advance the good machine.
        for id in self.circuit.net_ids() {
            self.prev_values[id.index()] = self.good.value(id);
        }
        self.good.apply(vector);

        let mut report = TransitionStepReport::default();
        let mut detected: Vec<FaultId> = Vec::new();
        for group in targets.chunks(64) {
            self.simulate_group(group, &mut report, &mut detected);
        }

        if !detected.is_empty() {
            detected.sort_unstable();
            detected.dedup();
            for &f in &detected {
                self.detected[f.index()] = true;
                self.faulty_ff[f.index()].clear();
            }
            self.active.retain(|f| !self.detected[f.index()]);
        }
        report.newly_detected = detected;
        report
    }

    fn simulate_group(
        &mut self,
        group: &[FaultId],
        report: &mut TransitionStepReport,
        detected: &mut Vec<FaultId>,
    ) {
        let circuit = Arc::clone(&self.circuit);
        advance_stamp(&mut self.stamp, [&mut self.fstamp, &mut self.queued]);
        let stamp = self.stamp;

        // Conditional injection: a fault forces its net only in frames
        // where the launch condition holds (previous good value = old,
        // current good value = new).
        let mut stem_force: HashMap<NetId, Vec<(u32, Logic)>> = HashMap::new();
        for (slot, &fid) in group.iter().enumerate() {
            let fault = self.faults[fid.index()];
            let prev = self.prev_values[fault.net.index()];
            let cur = self.good.value(fault.net);
            if prev == fault.slow.old_value() && cur == fault.slow.new_value() {
                report.launched += 1;
                stem_force
                    .entry(fault.net)
                    .or_default()
                    .push((slot as u32, fault.slow.old_value()));
            }
        }

        // Seed faulty flip-flop state differences.
        for (slot, &fid) in group.iter().enumerate() {
            let diffs = std::mem::take(&mut self.faulty_ff[fid.index()]);
            for &(dff_idx, v) in &diffs {
                let ff = circuit.dffs()[dff_idx as usize];
                let word = self.effective(ff);
                let mut w = word;
                w.set(slot as u32, v);
                if w != word {
                    self.fval[ff.index()] = w;
                    self.fstamp[ff.index()] = stamp;
                    self.schedule_fanout(&circuit, ff, stamp);
                }
            }
            self.faulty_ff[fid.index()] = diffs;
        }

        // Seed stem injections.
        for (&net, forces) in &stem_force {
            let word = self.effective(net);
            let mut w = word;
            for &(slot, v) in forces {
                w.set(slot, v);
            }
            self.fval[net.index()] = w;
            self.fstamp[net.index()] = stamp;
            if w != word {
                self.schedule_fanout(&circuit, net, stamp);
            }
        }

        // Event-driven levelized propagation (same as the stuck-at engine).
        for level in 1..self.buckets.len() {
            let gates = std::mem::take(&mut self.buckets[level]);
            for gate in gates {
                self.queued[gate.index()] = 0;
                let kind = circuit.kind(gate);
                let mut fanin_words: Vec<Pv64> = Vec::with_capacity(circuit.fanin(gate).len());
                for &src in circuit.fanin(gate) {
                    fanin_words.push(self.effective(src));
                }
                let mut out = eval_packed(kind, &fanin_words);
                if let Some(forces) = stem_force.get(&gate) {
                    for &(slot, v) in forces {
                        out.set(slot, v);
                    }
                }
                let old = self.effective(gate);
                if out != old {
                    self.fval[gate.index()] = out;
                    self.fstamp[gate.index()] = stamp;
                    self.schedule_fanout(&circuit, gate, stamp);
                }
            }
        }

        // Detection at primary outputs.
        let mut detected_mask = 0u64;
        for &po in circuit.outputs() {
            let goodw = Pv64::broadcast(self.good.value(po));
            detected_mask |= self.effective(po).binary_diff(goodw);
        }
        let mut m = detected_mask;
        while m != 0 {
            let slot = m.trailing_zeros();
            detected.push(group[slot as usize]);
            m &= m - 1;
        }

        // New faulty flip-flop state.
        let mut new_state: Vec<Vec<(u32, Logic)>> = vec![Vec::new(); group.len()];
        for (dff_idx, &ff) in circuit.dffs().iter().enumerate() {
            let d = circuit.fanin(ff)[0];
            let faultyw = self.effective(d);
            let goodw = Pv64::broadcast(self.good.next_state_of(dff_idx));
            let mut diff = faultyw.any_diff(goodw);
            while diff != 0 {
                let slot = diff.trailing_zeros();
                new_state[slot as usize].push((dff_idx as u32, faultyw.get(slot)));
                diff &= diff - 1;
            }
        }
        for (slot, &fid) in group.iter().enumerate() {
            let effects = new_state[slot].len() as u64;
            report.ff_effect_pairs += effects;
            self.faulty_ff[fid.index()] = std::mem::take(&mut new_state[slot]);
        }
    }

    #[inline]
    fn effective(&self, net: NetId) -> Pv64 {
        if self.fstamp[net.index()] == self.stamp {
            self.fval[net.index()]
        } else {
            Pv64::broadcast(self.good.value(net))
        }
    }

    fn schedule_fanout(&mut self, circuit: &Circuit, net: NetId, stamp: u32) {
        for &out in circuit.fanout(net) {
            if circuit.kind(out).is_combinational() && self.queued[out.index()] != stamp {
                self.queued[out.index()] = stamp;
                let level = self.good.levelization().level(out) as usize;
                self.buckets[level].push(out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gatest_netlist::{CircuitBuilder, GateKind};

    fn wire() -> Arc<Circuit> {
        let mut b = CircuitBuilder::new("wire");
        let a = b.input("a");
        let y = b.gate(GateKind::Buf, "y", &[a]);
        b.output(y);
        Arc::new(b.finish().unwrap())
    }

    #[test]
    fn universe_has_two_faults_per_net() {
        let c = wire();
        assert_eq!(transition_universe(&c).len(), c.num_gates() * 2);
    }

    #[test]
    fn slow_to_rise_needs_a_rising_pair() {
        let circuit = wire();
        let mut sim = TransitionFaultSim::new(Arc::clone(&circuit));
        // Static 1: no transition, nothing launches or is detected.
        sim.step(&[Logic::One]);
        let r = sim.step(&[Logic::One]);
        assert_eq!(r.launched, 0);
        assert_eq!(r.detected(), 0);
        // 0 -> 1 launches the slow-to-rise faults and detects them at the
        // output (the faulty value lags at 0 while the good value is 1).
        sim.step(&[Logic::Zero]);
        let r = sim.step(&[Logic::One]);
        assert!(r.launched > 0);
        let detected: Vec<_> = r
            .newly_detected
            .iter()
            .map(|&id| sim.fault(id).slow)
            .collect();
        assert!(detected.contains(&Slow::Rise));
        assert!(!detected.contains(&Slow::Fall));
    }

    #[test]
    fn slow_to_fall_needs_a_falling_pair() {
        let circuit = wire();
        let mut sim = TransitionFaultSim::new(Arc::clone(&circuit));
        sim.step(&[Logic::One]);
        let r = sim.step(&[Logic::Zero]);
        let detected: Vec<_> = r
            .newly_detected
            .iter()
            .map(|&id| sim.fault(id).slow)
            .collect();
        assert!(detected.contains(&Slow::Fall));
        assert!(!detected.contains(&Slow::Rise));
    }

    #[test]
    fn both_polarities_need_both_pairs() {
        let circuit = wire();
        let mut sim = TransitionFaultSim::new(Arc::clone(&circuit));
        sim.step(&[Logic::Zero]);
        sim.step(&[Logic::One]);
        sim.step(&[Logic::Zero]);
        // a and y each have STR + STF = 4 faults, all caught.
        assert_eq!(sim.detected_count(), 4);
    }

    #[test]
    fn effects_latch_through_flip_flops() {
        // y observes q one frame after the slow net feeds the D input.
        let mut b = CircuitBuilder::new("pipe");
        let a = b.input("a");
        let g = b.gate(GateKind::Buf, "g", &[a]);
        let q = b.gate(GateKind::Dff, "q", &[g]);
        let y = b.gate(GateKind::Buf, "y", &[q]);
        b.output(y);
        let circuit = Arc::new(b.finish().unwrap());
        let mut sim = TransitionFaultSim::new(Arc::clone(&circuit));
        sim.step(&[Logic::Zero]);
        let launch = sim.step(&[Logic::One]); // g rises; effect latches into q
        assert!(launch.ff_effect_pairs > 0);
        assert_eq!(launch.detected(), 0, "not at the PO yet");
        let capture = sim.step(&[Logic::One]);
        assert!(capture.detected() > 0, "latched effect reaches the PO");
    }

    #[test]
    fn checkpoint_restore_round_trips() {
        let circuit = Arc::new(gatest_netlist::benchmarks::iscas89("s27").unwrap());
        let mut sim = TransitionFaultSim::new(circuit);
        sim.step(&[Logic::One, Logic::One, Logic::Zero, Logic::Zero]);
        let cp = sim.checkpoint();
        let probe = [
            vec![Logic::Zero, Logic::One, Logic::One, Logic::Zero],
            vec![Logic::One, Logic::Zero, Logic::Zero, Logic::One],
        ];
        let first: Vec<_> = probe.iter().map(|v| sim.step(v)).collect();
        sim.restore(&cp);
        let second: Vec<_> = probe.iter().map(|v| sim.step(v)).collect();
        assert_eq!(first, second);
    }

    #[test]
    fn s27_transition_coverage_under_random() {
        let circuit = Arc::new(gatest_netlist::benchmarks::iscas89("s27").unwrap());
        let mut sim = TransitionFaultSim::new(Arc::clone(&circuit));
        let mut rng = gatest_ga_stub::Rng::new(5);
        for _ in 0..256 {
            let v: Vec<Logic> = (0..4).map(|_| Logic::from_bool(rng.coin())).collect();
            sim.step(&v);
        }
        let cov = sim.detected_count() as f64 / sim.total_faults() as f64;
        assert!(
            cov > 0.5,
            "transition coverage {cov:.2} unexpectedly low on s27"
        );
        assert!(cov < 1.0, "some transition faults need directed tests");
    }

    #[test]
    fn stamp_wrap_around_matches_a_fresh_simulator() {
        // Initialize two simulators under zero-hold, then place one's stamp
        // just below the u32 wrap-around, so the groups of its next step
        // cross it: every step must still match the other simulator.
        let circuit = Arc::new(gatest_netlist::benchmarks::iscas89("s298").unwrap());
        let mut fresh = TransitionFaultSim::new(Arc::clone(&circuit));
        let zeros = vec![Logic::Zero; circuit.num_inputs()];
        for _ in 0..gatest_netlist::depth::sequential_depth(&circuit) + 2 {
            fresh.step(&zeros);
        }
        let mut wrapped = fresh.clone();
        wrapped.stamp = u32::MAX - 7;
        let mut rng = gatest_ga_stub::Rng::new(11);
        for step in 0..12 {
            let v: Vec<Logic> = (0..circuit.num_inputs())
                .map(|_| Logic::from_bool(rng.coin()))
                .collect();
            assert_eq!(fresh.step(&v), wrapped.step(&v), "step {step}");
        }
        assert_eq!(fresh.faulty_ff, wrapped.faulty_ff);
        assert!(wrapped.stamp < u32::MAX - 7, "the stamp wrapped");
    }

    use super::tests_support as gatest_ga_stub;
}

/// Tiny deterministic PRNG for this crate's tests (keeps `gatest-sim`
/// independent of `gatest-ga`).
#[cfg(test)]
pub(crate) mod tests_support {
    pub struct Rng(u64);
    impl Rng {
        pub fn new(seed: u64) -> Self {
            Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
        }
        pub fn coin(&mut self) -> bool {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 & 1 == 1
        }
    }
}
