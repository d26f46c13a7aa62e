//! Cross-validation of the packed, event-driven fault simulator against an
//! independent, brute-force scalar implementation, over several circuits of
//! the bundled suite and over random synthetic circuits.

use std::sync::Arc;

use proptest::prelude::*;

use gatest_core::{FaultSample, GatestConfig, TestGenerator};
use gatest_netlist::benchmarks;
use gatest_netlist::generate::{CircuitProfile, SyntheticGenerator};
use gatest_netlist::levelize::Levelization;
use gatest_netlist::{Circuit, GateKind};
use gatest_sim::eval::eval_scalar;
use gatest_sim::{
    Fault, FaultId, FaultList, FaultSim, FaultSite, FaultStatus, GoodSim, Logic, SimBackend,
    StepReport,
};

#[path = "support/scoring.rs"]
mod scoring;

/// Simulates the good and single-fault machines independently, gate by
/// gate, frame by frame — no packing, no events, no sharing. Slow and
/// obviously correct. Returns the 0-based index of the first frame at which
/// a primary output differs (both values known), or `None`.
fn reference_detects(circuit: &Arc<Circuit>, fault: Fault, sequence: &[Vec<Logic>]) -> Option<u32> {
    let lev = Levelization::new(circuit);
    let mut gvals = vec![Logic::X; circuit.num_gates()];
    let mut fvals = vec![Logic::X; circuit.num_gates()];
    let mut gstate = vec![Logic::X; circuit.num_dffs()];
    let mut fstate = vec![Logic::X; circuit.num_dffs()];
    for (frame, vec) in sequence.iter().enumerate() {
        for (i, &ff) in circuit.dffs().iter().enumerate() {
            gvals[ff.index()] = gstate[i];
            fvals[ff.index()] = fstate[i];
        }
        for (i, &pi) in circuit.inputs().iter().enumerate() {
            gvals[pi.index()] = vec[i];
            fvals[pi.index()] = vec[i];
        }
        if let FaultSite::Stem(net) = fault.site {
            if !circuit.kind(net).is_combinational() {
                fvals[net.index()] = fault.stuck;
            }
        }
        for &gate in lev.schedule() {
            let kind = circuit.kind(gate);
            if !kind.is_combinational() {
                continue;
            }
            let gf: Vec<Logic> = circuit
                .fanin(gate)
                .iter()
                .map(|&n| gvals[n.index()])
                .collect();
            gvals[gate.index()] = eval_scalar(kind, &gf);
            let mut ff_in: Vec<Logic> = circuit
                .fanin(gate)
                .iter()
                .map(|&n| fvals[n.index()])
                .collect();
            if let FaultSite::Branch { gate: fg, pin } = fault.site {
                if fg == gate {
                    ff_in[pin as usize] = fault.stuck;
                }
            }
            let mut out = eval_scalar(kind, &ff_in);
            if fault.site == FaultSite::Stem(gate) {
                out = fault.stuck;
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
            let mut fv = fvals[d.index()];
            if let FaultSite::Branch { gate: fg, pin } = fault.site {
                if fg == ff {
                    debug_assert_eq!(pin, 0);
                    fv = fault.stuck;
                }
            }
            fstate[i] = fv;
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

fn cross_validate(name: &str, vectors: usize, seed: u64) {
    let circuit = Arc::new(benchmarks::iscas89(name).expect("bundled circuit"));
    let faults = FaultList::collapsed(&circuit);
    let mut sequence = vec![vec![Logic::Zero; circuit.num_inputs()]; 4];
    sequence.extend(random_sequence(circuit.num_inputs(), vectors, seed));

    let mut sim = FaultSim::with_faults(Arc::clone(&circuit), faults.clone());
    let mut fast = vec![false; faults.len()];
    for v in &sequence {
        for f in sim.step(v).newly_detected {
            fast[f.index()] = true;
        }
    }

    for (id, fault) in faults.iter() {
        let expect = reference_detects(&circuit, fault, &sequence).is_some();
        assert_eq!(
            fast[id.index()],
            expect,
            "{name}: fault {} disagrees with the reference",
            fault.display(&circuit)
        );
    }
}

#[test]
fn s27_matches_reference() {
    cross_validate("s27", 32, 1);
}

#[test]
fn s298_matches_reference() {
    cross_validate("s298", 24, 2);
}

#[test]
fn s344_matches_reference() {
    cross_validate("s344", 16, 3);
}

#[test]
fn s386_matches_reference() {
    cross_validate("s386", 16, 4);
}

#[test]
fn sampled_stepping_detects_subset_of_full() {
    let circuit = Arc::new(benchmarks::iscas89("s298").expect("bundled circuit"));
    let sequence = random_sequence(circuit.num_inputs(), 32, 9);

    let mut full = FaultSim::new(Arc::clone(&circuit));
    let mut full_detected = std::collections::HashSet::new();
    for v in &sequence {
        for f in full.step(v).newly_detected {
            full_detected.insert(f);
        }
    }

    // Sample = every third fault; everything the sampled sim detects must
    // also be detected by the full sim under identical vectors.
    let mut sampled = FaultSim::new(Arc::clone(&circuit));
    let sample: Vec<_> = sampled.active_faults().iter().copied().step_by(3).collect();
    for v in &sequence {
        for f in sampled.step_sampled(&[v], &sample).remove(0).newly_detected {
            assert!(
                full_detected.contains(&f),
                "sampled sim detected {f:?} that full sim missed"
            );
        }
    }
}

/// A report with its one width- and batching-dependent field cleared.
fn without_gate_evals(report: &StepReport) -> StepReport {
    StepReport {
        gate_evals: 0,
        ..report.clone()
    }
}

/// The index of the vector `sim` claims first detected `id`, in the form
/// [`reference_detects`] returns.
fn claimed_vector(sim: &FaultSim, id: FaultId) -> Option<u32> {
    match sim.status(id) {
        FaultStatus::Detected { vector } => Some(vector),
        FaultStatus::Undetected => None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every stepping entry point agrees with the reference on random
    /// synthetic circuits, at every width. Commits alternate one-vector
    /// `step`s with 2–3-vector `step_window`s; before each commit a
    /// 2–6-frame `step_sampled` candidate over every other active fault
    /// runs between `checkpoint` and `restore`, as fitness evaluation
    /// does. The candidate runs twice from the same checkpoint, as one
    /// window and as one-vector calls: every report field but `gate_evals`
    /// and the exported state must agree. Each sample fault's first
    /// detection in the candidate, and each fault's final detecting vector,
    /// must match a reference replay.
    #[test]
    fn stepping_matches_reference_on_random_circuits(
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
        let faults = FaultList::collapsed(&circuit);
        // Each round: a 2–6-vector candidate, then a commit of one vector
        // (even rounds) or two to three (odd rounds).
        let mut rng = gatest_ga::Rng::new(seed ^ 0x5eed);
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
                        faults.get(id).display(&circuit)
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
                    fault.display(&circuit)
                );
            }
        }
    }

    /// `FaultSim::score` scores a batch of 1–5 candidates of 1–6 frames as
    /// `step_sampled` scores each alone, at every width, writes nothing
    /// back, and its first detections match the reference; samples of at
    /// most 64, at most 128 and more than 128 faults put four, two and one
    /// candidate in a 256-lane group (`support/scoring.rs`).
    #[test]
    fn scoring_matches_sampled_steps_on_random_circuits(
        seed in any::<u64>(),
        inputs in 2usize..=8,
        dffs in 1usize..=12,
        gates in 80usize..=120,
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
        let warmup = random_sequence(inputs, 2, rng.next_u64());
        let batch: Vec<Vec<Vec<Logic>>> = (0..candidates)
            .map(|_| random_sequence(inputs, frames, rng.next_u64()))
            .collect();
        scoring::check_scoring(
            &circuit,
            &FaultList::collapsed(&circuit),
            &warmup,
            &batch,
            (small, medium),
            |fault, replay| reference_detects(&circuit, fault, replay),
        );
    }

    /// The good machine's bit-plane sweep agrees with an `eval_scalar`
    /// sweep written here, on random synthetic circuits: 20 frames from
    /// all-X, with every input drawn from 0, 1 and X. Every net value, the
    /// latched next state, and each frame's `events`, `ffs_set` and
    /// `ffs_changed` must match.
    #[test]
    fn good_machine_matches_eval_scalar_on_random_circuits(
        seed in any::<u64>(),
        inputs in 2usize..=8,
        dffs in 1usize..=12,
        gates in 10usize..=60,
    ) {
        let profile = CircuitProfile {
            name: format!("good_{seed:016x}"),
            inputs,
            outputs: 2,
            dffs,
            gates,
            seq_depth: (dffs as u32).min(3),
        };
        let circuit = Arc::new(SyntheticGenerator::new(seed).generate(&profile));
        let lev = Levelization::new(&circuit);
        let mut sim = GoodSim::new(Arc::clone(&circuit));
        // All X, but for the constants.
        let mut values: Vec<Logic> = circuit
            .net_ids()
            .map(|id| match circuit.kind(id) {
                GateKind::Const0 => Logic::Zero,
                GateKind::Const1 => Logic::One,
                _ => Logic::X,
            })
            .collect();
        let mut next = vec![Logic::X; circuit.num_dffs()];
        let mut rng = gatest_ga::Rng::new(seed ^ 0x600d);
        for frame in 0..20 {
            let vector: Vec<Logic> = (0..circuit.num_inputs())
                .map(|_| [Logic::Zero, Logic::One, Logic::X][(rng.next_u64() % 3) as usize])
                .collect();
            let report = sim.apply(&vector);

            let before = values.clone();
            for (i, &ff) in circuit.dffs().iter().enumerate() {
                values[ff.index()] = next[i];
            }
            for (i, &pi) in circuit.inputs().iter().enumerate() {
                values[pi.index()] = vector[i];
            }
            for &gate in lev.schedule() {
                let kind = circuit.kind(gate);
                if kind.is_combinational() {
                    let fanin: Vec<Logic> =
                        circuit.fanin(gate).iter().map(|&n| values[n.index()]).collect();
                    values[gate.index()] = eval_scalar(kind, &fanin);
                }
            }
            let events = values.iter().zip(&before).filter(|(a, b)| a != b).count() as u64;
            let (mut ffs_set, mut ffs_changed) = (0, 0);
            for (i, &ff) in circuit.dffs().iter().enumerate() {
                let d = values[circuit.fanin(ff)[0].index()];
                ffs_set += usize::from(d.is_known());
                ffs_changed += usize::from(d != values[ff.index()]);
                next[i] = d;
            }

            prop_assert_eq!(sim.values(), values.as_slice(), "values at frame {}", frame);
            prop_assert_eq!(sim.next_states(), next.as_slice(), "next state at frame {}", frame);
            prop_assert_eq!(report.events, events, "events at frame {}", frame);
            prop_assert_eq!(report.ffs_set, ffs_set, "ffs_set at frame {}", frame);
            prop_assert_eq!(report.ffs_changed, ffs_changed, "ffs_changed at frame {}", frame);
        }
    }
}

/// Runs the generator and checks every fault's claimed status — detected or
/// not, and for a detection the index of the vector that caught it —
/// against a reference replay of the generated test set. Returns the
/// number of detected faults.
fn generated_claims_match_replay(
    name: &str,
    config: impl FnOnce(GatestConfig) -> GatestConfig,
) -> usize {
    let circuit = Arc::new(benchmarks::iscas89(name).expect("bundled circuit"));
    let config = config(GatestConfig::for_circuit(&circuit).with_seed(5));
    let mut generator = TestGenerator::new(Arc::clone(&circuit), config);
    let result = generator.run();
    let faults = generator.sim().fault_list();
    let mut detected = 0;
    for (id, fault) in faults.iter() {
        let claimed = claimed_vector(generator.sim(), id);
        let replayed = reference_detects(&circuit, fault, &result.test_set);
        assert_eq!(
            claimed,
            replayed,
            "{name}: fault {} claims {claimed:?}, replay gives {replayed:?}",
            fault.display(&circuit)
        );
        detected += usize::from(claimed.is_some());
    }
    assert_eq!(detected, result.detected, "{name}: detected count");
    detected
}

#[test]
fn generated_detections_match_an_independent_replay() {
    let full = generated_claims_match_replay("s27", |c| c);
    assert_eq!(full, 26, "s27 reaches full coverage at seed 5");
    for name in ["s298", "s386"] {
        let detected = generated_claims_match_replay(name, |c| GatestConfig {
            fault_sample: FaultSample::Count(60),
            ..c.with_max_evals(3_000)
        });
        assert!(detected > 0, "{name}: the budgeted run detects something");
    }
}
