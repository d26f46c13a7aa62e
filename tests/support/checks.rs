//! The simulator's contracts, each checked on one circuit and fault list
//! against the oracle (`support/oracle.rs`). The stuck-at and transition
//! cross-validation suites both run them.

use std::sync::Arc;

use gatest_core::{GatestConfig, TestGenerator};
use gatest_netlist::Circuit;
use gatest_sim::{FaultId, FaultList, FaultSim, FaultStatus, Logic, SimBackend, StepReport};

use crate::oracle::Oracle;

/// A round of [`check_rounds`]: a candidate to score, then vectors to
/// commit.
pub type Round = (Vec<Vec<Logic>>, Vec<Vec<Logic>>);

/// Every width a check runs at.
const BACKENDS: [SimBackend; 3] = [SimBackend::Scalar64, SimBackend::Wide256, SimBackend::Auto];

/// `len` random 0/1 vectors over `pis` inputs.
pub fn random_sequence(pis: usize, len: usize, seed: u64) -> Vec<Vec<Logic>> {
    let mut rng = gatest_ga::Rng::new(seed);
    (0..len)
        .map(|_| (0..pis).map(|_| Logic::from_bool(rng.coin())).collect())
        .collect()
}

/// `report` without `gate_evals`, the one field that depends on the width
/// and the batching; the oracle leaves it 0.
pub fn without_gate_evals(report: &StepReport) -> StepReport {
    StepReport {
        gate_evals: 0,
        ..report.clone()
    }
}

/// Asserts that the simulator's reports equal the oracle's, frame by frame,
/// on every field but `gate_evals`.
fn assert_reports(sim: &[StepReport], oracle: &[StepReport], context: &str) {
    assert_eq!(sim.len(), oracle.len(), "{context}: frames");
    for (f, (a, b)) in sim.iter().zip(oracle).enumerate() {
        assert_eq!(&without_gate_evals(a), b, "{context}, frame {f}");
    }
}

/// Asserts that every fault's detecting vector in `sim` is the oracle's.
fn assert_claims(sim: &FaultSim, oracle: &Oracle, context: &str) {
    let faults = sim.fault_list();
    for (id, _) in faults.iter() {
        let claimed = match sim.status(id) {
            FaultStatus::Detected { vector } => Some(vector),
            FaultStatus::Undetected => None,
        };
        assert_eq!(
            claimed,
            oracle.detected_at(id),
            "{context}: fault {}",
            faults.display(id, sim.circuit())
        );
    }
}

/// Commits `sequence` through the oracle one vector at a time, and through
/// two fresh simulators at the default width: one `step` per vector, and
/// `step_window`s of up to seven vectors. Both simulators' reports and
/// every fault's detecting vector must equal the oracle's.
pub fn check_commits(circuit: &Arc<Circuit>, faults: &FaultList, sequence: &[Vec<Logic>]) {
    let name = circuit.name();
    let mut oracle = Oracle::new(circuit, faults);
    let expected: Vec<StepReport> = sequence
        .iter()
        .flat_map(|v| oracle.commit(std::slice::from_ref(v)))
        .collect();
    let mut stepped = FaultSim::with_faults(Arc::clone(circuit), faults.clone());
    let reports: Vec<StepReport> = sequence.iter().map(|v| stepped.step(v)).collect();
    assert_reports(&reports, &expected, &format!("{name}: step"));
    assert_claims(&stepped, &oracle, &format!("{name}: step"));
    let mut windowed = FaultSim::with_faults(Arc::clone(circuit), faults.clone());
    let reports: Vec<StepReport> = sequence
        .chunks(7)
        .flat_map(|w| windowed.step_window(w))
        .collect();
    assert_reports(&reports, &expected, &format!("{name}: step_window"));
    assert_claims(&windowed, &oracle, &format!("{name}: step_window"));
}

/// Runs `rounds` of a scored candidate and then a commit at every width, as
/// fitness evaluation and the generator do: each candidate is scored over
/// every other undetected fault, and a one-vector commit is a `step`, a
/// longer one a `step_window`. The scores, the commits and, at the end,
/// every fault's detecting vector must equal the oracle's.
pub fn check_rounds(circuit: &Arc<Circuit>, faults: &FaultList, rounds: &[Round]) {
    for backend in BACKENDS {
        let mut sim = FaultSim::with_faults(Arc::clone(circuit), faults.clone());
        sim.set_backend(backend);
        let mut oracle = Oracle::new(circuit, faults);
        for (round, (candidate, commit)) in rounds.iter().enumerate() {
            let sample: Vec<FaultId> = sim.active_faults().iter().copied().step_by(2).collect();
            let scored = sim.score(&[candidate.as_slice()], &sample).remove(0);
            let context = format!("{backend}: round {round}");
            assert_reports(
                &scored,
                &oracle.score(candidate, &sample),
                &format!("{context}, candidate"),
            );
            let committed = match commit.as_slice() {
                [vector] => vec![sim.step(vector)],
                _ => sim.step_window(commit),
            };
            assert_reports(
                &committed,
                &oracle.commit(commit),
                &format!("{context}, commit"),
            );
        }
        assert_claims(&sim, &oracle, &format!("{backend}"));
    }
}

/// Commits `warmup` one vector at a time, then scores `candidates` with
/// [`FaultSim::score`] over three samples of the undetected faults: the
/// first `small` (at most 64, so four candidates share a 256-lane group),
/// the first `medium` (65–128, two per group) and, when more than 128
/// faults are undetected, all of them (one per group). At every width each
/// candidate's reports must equal the oracle's score of it on every field
/// but `gate_evals`, and scoring must leave `export_state()` and
/// `vectors_applied()` unchanged.
pub fn check_scoring(
    circuit: &Arc<Circuit>,
    faults: &FaultList,
    warmup: &[Vec<Logic>],
    candidates: &[Vec<Vec<Logic>>],
    (small, medium): (usize, usize),
) {
    let mut base = FaultSim::with_faults(Arc::clone(circuit), faults.clone());
    let mut oracle = Oracle::new(circuit, faults);
    for vector in warmup {
        base.step(vector);
    }
    oracle.commit(warmup);
    let active = base.active_faults().to_vec();
    let mut samples: Vec<&[FaultId]> = vec![
        &active[..small.min(active.len())],
        &active[..medium.min(active.len())],
    ];
    if active.len() > 128 {
        samples.push(&active);
    }
    let windows: Vec<&[Vec<Logic>]> = candidates.iter().map(Vec::as_slice).collect();
    for sample in samples {
        let expected: Vec<Vec<StepReport>> = candidates
            .iter()
            .map(|candidate| oracle.score(candidate, sample))
            .collect();
        for backend in BACKENDS {
            let mut sim = base.clone();
            sim.set_backend(backend);
            let (state, applied) = (sim.export_state(), sim.vectors_applied());
            let scored = sim.score(&windows, sample);
            assert_eq!(sim.export_state(), state, "{backend}: state");
            assert_eq!(sim.vectors_applied(), applied, "{backend}: vectors");
            assert_eq!(scored.len(), candidates.len());
            for (c, (reports, expected)) in scored.iter().zip(&expected).enumerate() {
                let context = format!("{backend}: {} sample faults, candidate {c}", sample.len());
                assert_reports(reports, expected, &context);
            }
        }
    }
}

/// Runs the generator over `faults` with `config` applied to the circuit's
/// default configuration at seed 5, then replays the test set through the
/// oracle: every fault's claim, detected or not and for a detection the
/// vector that caught it, must match. Returns the number of detected
/// faults.
pub fn check_generated(
    circuit: &Arc<Circuit>,
    faults: &FaultList,
    config: impl FnOnce(GatestConfig) -> GatestConfig,
) -> usize {
    let config = config(GatestConfig::for_circuit(circuit).with_seed(5));
    let mut generator = TestGenerator::with_faults(Arc::clone(circuit), faults.clone(), config);
    let result = generator.run();
    let mut oracle = Oracle::new(circuit, faults);
    oracle.commit(&result.test_set);
    assert_claims(generator.sim(), &oracle, circuit.name());
    let detected = generator.sim().detected_count();
    assert_eq!(
        detected,
        result.detected,
        "{}: detected count",
        circuit.name()
    );
    detected
}
