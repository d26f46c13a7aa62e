//! The batch scorer's contract, checked on one circuit and fault list. The
//! stuck-at and transition cross-validation suites both run it, each with
//! its own scalar reference simulator.

use std::sync::Arc;

use gatest_netlist::Circuit;
use gatest_sim::{Fault, FaultId, FaultList, FaultSim, Logic, SimBackend, StepReport};

/// A report with its one batching-dependent field cleared.
fn without_gate_evals(report: &StepReport) -> StepReport {
    StepReport {
        gate_evals: 0,
        ..report.clone()
    }
}

/// Commits `warmup`, then scores `candidates` with [`FaultSim::score`] over
/// three samples of the active faults: the first `small` (at most 64, so
/// four candidates share a 256-lane group), the first `medium` (65–128,
/// two per group) and, when more than 128 faults are active, all of them
/// (one per group). At every width it checks that
///
/// * each candidate's reports equal `step_sampled`'s from the same state,
///   on every field but `gate_evals`;
/// * scoring leaves `export_state()` and `vectors_applied()` unchanged;
/// * each sample fault's first detection in a candidate matches
///   `reference` replaying `warmup` and then the candidate.
pub fn check_scoring(
    circuit: &Arc<Circuit>,
    faults: &FaultList,
    warmup: &[Vec<Logic>],
    candidates: &[Vec<Vec<Logic>>],
    (small, medium): (usize, usize),
    reference: impl Fn(Fault, &[Vec<Logic>]) -> Option<u32>,
) {
    let mut base = FaultSim::with_faults(Arc::clone(circuit), faults.clone());
    for vector in warmup {
        base.step(vector);
    }
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
        for backend in [SimBackend::Scalar64, SimBackend::Wide256, SimBackend::Auto] {
            let mut sim = base.clone();
            sim.set_backend(backend);
            let (state, applied) = (sim.export_state(), sim.vectors_applied());
            let scored = sim.score(&windows, sample);
            assert_eq!(sim.export_state(), state, "{}: state", backend);
            assert_eq!(sim.vectors_applied(), applied, "{}: vectors", backend);
            assert_eq!(scored.len(), candidates.len());
            for (c, (candidate, reports)) in candidates.iter().zip(&scored).enumerate() {
                let mut alone = base.clone();
                alone.set_backend(backend);
                let expected = alone.step_sampled(candidate, sample);
                assert_eq!(reports.len(), expected.len());
                for (f, (a, b)) in reports.iter().zip(&expected).enumerate() {
                    assert_eq!(
                        without_gate_evals(a),
                        without_gate_evals(b),
                        "{}: {} sample faults, candidate {} frame {}",
                        backend,
                        sample.len(),
                        c,
                        f
                    );
                }
                if backend != SimBackend::Auto {
                    continue;
                }
                let mut first = vec![None; faults.len()];
                for (f, report) in reports.iter().enumerate() {
                    for id in &report.newly_detected {
                        first[id.index()].get_or_insert((warmup.len() + f) as u32);
                    }
                }
                let replay: Vec<Vec<Logic>> = warmup.iter().chain(candidate).cloned().collect();
                for &id in sample {
                    assert_eq!(
                        first[id.index()],
                        reference(faults.get(id), &replay),
                        "{} sample faults, candidate {}: fault {}",
                        sample.len(),
                        c,
                        faults.display(id, circuit)
                    );
                }
            }
        }
    }
}
