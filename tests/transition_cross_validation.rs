//! Cross-validation of the packed fault simulator over transition-fault
//! lists against an independent scalar implementation of the gross-delay
//! model, over circuits of the bundled suite and over random synthetic
//! circuits.

use std::sync::Arc;

use proptest::prelude::*;

use gatest_netlist::benchmarks;
use gatest_netlist::generate::{CircuitProfile, SyntheticGenerator};
use gatest_netlist::levelize::Levelization;
use gatest_netlist::Circuit;
use gatest_sim::eval::eval_scalar;
use gatest_sim::{
    Fault, FaultId, FaultList, FaultSim, FaultSite, FaultStatus, Logic, SimBackend, StepReport,
};

#[path = "support/scoring.rs"]
mod scoring;

/// Scalar reference: simulate the good machine and one faulty machine side
/// by side. A transition fault is listed as the stuck-at fault of its
/// edge's old value on the net's stem; the faulty machine forces that value
/// in every frame where the *good* machine launches the slow transition
/// (`good[t-1] = old`, `good[t] = new`), and otherwise evaluates normally
/// from its own (possibly diverged) state. Returns the 0-based index of the
/// first frame at which a primary output differs (both values known), or
/// `None`.
fn reference_detects(circuit: &Arc<Circuit>, fault: Fault, sequence: &[Vec<Logic>]) -> Option<u32> {
    let FaultSite::Stem(net) = fault.site else {
        panic!("transition faults sit on stems");
    };
    let (old, new) = (fault.stuck, !fault.stuck);
    let lev = Levelization::new(circuit);
    let n = circuit.num_gates();
    let mut gvals = vec![Logic::X; n];
    let mut fvals = vec![Logic::X; n];
    let mut gstate = vec![Logic::X; circuit.num_dffs()];
    let mut fstate = vec![Logic::X; circuit.num_dffs()];
    let mut prev_good = vec![Logic::X; n];

    for (frame, vec) in sequence.iter().enumerate() {
        prev_good.copy_from_slice(&gvals);
        for (i, &ff) in circuit.dffs().iter().enumerate() {
            gvals[ff.index()] = gstate[i];
            fvals[ff.index()] = fstate[i];
        }
        for (i, &pi) in circuit.inputs().iter().enumerate() {
            gvals[pi.index()] = vec[i];
            fvals[pi.index()] = vec[i];
        }
        // Evaluate the good machine first, frame-complete, so the launch
        // condition can compare prev/current good values of the fault net.
        for &gate in lev.schedule() {
            let kind = circuit.kind(gate);
            if !kind.is_combinational() {
                continue;
            }
            let fanin: Vec<Logic> = circuit
                .fanin(gate)
                .iter()
                .map(|&s| gvals[s.index()])
                .collect();
            gvals[gate.index()] = eval_scalar(kind, &fanin);
        }
        let launched = prev_good[net.index()] == old && gvals[net.index()] == new;

        // Faulty machine: sources (PIs/FFs) already set; force the fault
        // net if it is a source and launched, then evaluate.
        if launched && !circuit.kind(net).is_combinational() {
            fvals[net.index()] = old;
        }
        for &gate in lev.schedule() {
            let kind = circuit.kind(gate);
            if !kind.is_combinational() {
                continue;
            }
            let fanin: Vec<Logic> = circuit
                .fanin(gate)
                .iter()
                .map(|&s| fvals[s.index()])
                .collect();
            let mut out = eval_scalar(kind, &fanin);
            if launched && gate == net {
                out = old;
            }
            fvals[gate.index()] = out;
        }

        for &po in circuit.outputs() {
            let g = gvals[po.index()];
            let f = fvals[po.index()];
            if g.is_known() && f.is_known() && g != f {
                return Some(frame as u32);
            }
        }
        for (i, &ff) in circuit.dffs().iter().enumerate() {
            let d = circuit.fanin(ff)[0];
            gstate[i] = gvals[d.index()];
            fstate[i] = fvals[d.index()];
        }
    }
    None
}

fn random_sequence(pis: usize, len: usize, seed: u64) -> Vec<Vec<Logic>> {
    let mut rng = gatest_ga::Rng::new(seed);
    (0..len)
        .map(|_| (0..pis).map(|_| Logic::from_bool(rng.coin())).collect())
        .collect()
}

/// The index of the vector `sim` claims first detected `id`, in the form
/// [`reference_detects`] returns.
fn claimed_vector(sim: &FaultSim, id: FaultId) -> Option<u32> {
    match sim.status(id) {
        FaultStatus::Detected { vector } => Some(vector),
        FaultStatus::Undetected => None,
    }
}

fn cross_validate(name: &str, vectors: usize, seed: u64) {
    let circuit = Arc::new(benchmarks::iscas89(name).expect("bundled circuit"));
    let faults = FaultList::transition(&circuit);
    let mut sequence = vec![vec![Logic::Zero; circuit.num_inputs()]; 4];
    sequence.extend(random_sequence(circuit.num_inputs(), vectors, seed));

    let mut sim = FaultSim::with_faults(Arc::clone(&circuit), faults.clone());
    for v in &sequence {
        sim.step(v);
    }
    for (id, fault) in faults.iter() {
        assert_eq!(
            claimed_vector(&sim, id),
            reference_detects(&circuit, fault, &sequence),
            "{name}: transition fault {} disagrees with the reference",
            faults.display(id, &circuit)
        );
    }
}

#[test]
fn s27_transition_sim_matches_reference() {
    cross_validate("s27", 32, 1);
}

#[test]
fn s298_transition_sim_matches_reference() {
    cross_validate("s298", 16, 2);
}

#[test]
fn s386_transition_sim_matches_reference() {
    cross_validate("s386", 12, 3);
}

/// A report with its one width- and batching-dependent field cleared.
fn without_gate_evals(report: &StepReport) -> StepReport {
    StepReport {
        gate_evals: 0,
        ..report.clone()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `FaultSim::score` over transition-fault lists: a batch of 1–5
    /// candidates of 1–6 frames scores as `step_sampled` scores each alone
    /// (`launched` included), at every width, writes nothing back, and its
    /// first detections match the reference; samples of at most 64, at most
    /// 128 and more than 128 faults put four, two and one candidate in a
    /// 256-lane group (`support/scoring.rs`).
    #[test]
    fn transition_scoring_matches_sampled_steps_on_random_circuits(
        seed in any::<u64>(),
        inputs in 2usize..=8,
        dffs in 1usize..=12,
        gates in 60usize..=100,
        frames in 1usize..=6,
        candidates in 1usize..=5,
        small in 1usize..=64,
        medium in 65usize..=128,
    ) {
        let profile = CircuitProfile {
            name: format!("rand_{seed:016x}"),
            inputs,
            outputs: 2,
            dffs,
            gates,
            seq_depth: (dffs as u32).min(3),
        };
        let circuit = Arc::new(SyntheticGenerator::new(seed).generate(&profile));
        let mut rng = gatest_ga::Rng::new(seed ^ 0x5c0e);
        let warmup = random_sequence(inputs, 3, rng.next_u64());
        let batch: Vec<Vec<Vec<Logic>>> = (0..candidates)
            .map(|_| random_sequence(inputs, frames, rng.next_u64()))
            .collect();
        scoring::check_scoring(
            &circuit,
            &FaultList::transition(&circuit),
            &warmup,
            &batch,
            (small, medium),
            |fault, replay| reference_detects(&circuit, fault, replay),
        );
    }

    /// Every stepping entry point agrees with the reference on random
    /// synthetic circuits over their transition-fault lists, at every
    /// width. Commits alternate one-vector `step`s with 2–3-vector
    /// `step_window`s; before each commit a 2–6-frame `step_sampled`
    /// candidate over every other active fault runs between `checkpoint`
    /// and `restore`, as fitness evaluation does. The candidate runs twice
    /// from the same checkpoint, as one window and as one-vector calls:
    /// every report field but `gate_evals` (`launched` included) and the
    /// exported state must agree. Each sample fault's first detection in
    /// the candidate, and each fault's final detecting vector, must match a
    /// reference replay.
    #[test]
    fn transition_stepping_matches_reference_on_random_circuits(
        seed in any::<u64>(),
        inputs in 2usize..=8,
        dffs in 1usize..=12,
        gates in 10usize..=60,
        rounds in 2usize..=6,
    ) {
        let profile = CircuitProfile {
            name: format!("rand_{seed:016x}"),
            inputs,
            outputs: 2,
            dffs,
            gates,
            seq_depth: (dffs as u32).min(3),
        };
        let circuit = Arc::new(SyntheticGenerator::new(seed).generate(&profile));
        let faults = FaultList::transition(&circuit);
        // Each round: a 2–6-vector candidate, then a commit of one vector
        // (even rounds) or two to three (odd rounds).
        let mut rng = gatest_ga::Rng::new(seed ^ 0x7e57);
        let schedule: Vec<_> = (0..rounds)
            .map(|round| {
                let len = if round % 2 == 0 { 1 } else { 2 + usize::from(rng.coin()) };
                let frames = 2 + (rng.next_u64() % 5) as usize;
                let mut vectors =
                    random_sequence(circuit.num_inputs(), frames + len, rng.next_u64());
                let commit = vectors.split_off(frames);
                (vectors, commit)
            })
            .collect();
        let committed: Vec<Vec<Logic>> =
            schedule.iter().flat_map(|(_, commit)| commit.clone()).collect();

        for backend in [SimBackend::Scalar64, SimBackend::Wide256, SimBackend::Auto] {
            let mut sim = FaultSim::with_faults(Arc::clone(&circuit), faults.clone());
            sim.set_backend(backend);
            let mut applied = 0;
            for (candidate, commit) in &schedule {
                let sample: Vec<FaultId> =
                    sim.active_faults().iter().copied().step_by(2).collect();
                let cp = sim.checkpoint();
                let mut serial = Vec::new();
                for v in candidate {
                    serial.extend(sim.step_sampled(&[v], &sample));
                }
                let serial_state = sim.export_state();
                sim.restore(&cp);
                let window = sim.step_sampled(candidate, &sample);
                prop_assert_eq!(window.len(), candidate.len());
                let mut first = vec![None; faults.len()];
                for (frame, (a, b)) in window.iter().zip(&serial).enumerate() {
                    prop_assert_eq!(
                        without_gate_evals(a),
                        without_gate_evals(b),
                        "{backend}: sampled window frame {frame} at vector {applied}"
                    );
                    for f in &a.newly_detected {
                        first[f.index()].get_or_insert((applied + frame) as u32);
                    }
                }
                prop_assert_eq!(
                    sim.export_state(),
                    serial_state,
                    "{backend}: sampled window state at vector {applied}"
                );
                sim.restore(&cp);
                let replay: Vec<Vec<Logic>> =
                    committed[..applied].iter().chain(candidate).cloned().collect();
                for &id in &sample {
                    prop_assert_eq!(
                        first[id.index()],
                        reference_detects(&circuit, faults.get(id), &replay),
                        "{backend}: sample fault {} at vector {applied}",
                        faults.display(id, &circuit)
                    );
                }
                if let [vector] = commit.as_slice() {
                    sim.step(vector);
                } else {
                    sim.step_window(commit);
                }
                applied += commit.len();
            }
            for (id, fault) in faults.iter() {
                prop_assert_eq!(
                    claimed_vector(&sim, id),
                    reference_detects(&circuit, fault, &committed),
                    "{backend}: fault {}",
                    faults.display(id, &circuit)
                );
            }
        }
    }
}
