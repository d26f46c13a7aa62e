//! Cross-validation of the packed, event-driven fault simulator against an
//! independent, brute-force scalar implementation, over several circuits of
//! the bundled suite.

use std::sync::Arc;

use gatest_core::{FaultSample, GatestConfig, TestGenerator};
use gatest_netlist::benchmarks;
use gatest_netlist::levelize::Levelization;
use gatest_netlist::Circuit;
use gatest_sim::eval::eval_scalar;
use gatest_sim::{Fault, FaultList, FaultSim, FaultSite, FaultStatus, Logic};

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
        for f in sampled.step_sampled(v, &sample).newly_detected {
            assert!(
                full_detected.contains(&f),
                "sampled sim detected {f:?} that full sim missed"
            );
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
        let claimed = match generator.sim().status(id) {
            FaultStatus::Detected { vector } => Some(vector),
            FaultStatus::Undetected => None,
        };
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
