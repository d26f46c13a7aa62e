//! Cross-validation of the packed fault simulator over transition-fault
//! lists against the oracle (`support/oracle.rs`), whose faulty machines
//! force a transition fault's old value only in the frames whose good
//! machine launches its edge, over circuits of the bundled suite and over
//! random synthetic circuits.

use std::sync::Arc;

use proptest::prelude::*;

use gatest_core::{FaultSample, GatestConfig};
use gatest_netlist::benchmarks;
use gatest_netlist::generate::{CircuitProfile, SyntheticGenerator};
use gatest_sim::{FaultList, Logic};

// The oracle's good-machine accessors serve the stuck-at suite only.
#[allow(dead_code)]
#[path = "support/oracle.rs"]
mod oracle;

#[path = "support/checks.rs"]
mod checks;

use checks::random_sequence;

/// Commits a zero hold as long as the sequential depth plus two, then
/// `vectors` random vectors, on bundled circuit `name` over its transition
/// faults, against the oracle ([`checks::check_commits`]).
fn cross_validate(name: &str, vectors: usize, seed: u64) {
    let circuit = Arc::new(benchmarks::iscas89(name).expect("bundled circuit"));
    let depth = gatest_netlist::depth::sequential_depth(&circuit) as usize;
    let mut sequence = vec![vec![Logic::Zero; circuit.num_inputs()]; depth + 2];
    sequence.extend(random_sequence(circuit.num_inputs(), vectors, seed));
    checks::check_commits(&circuit, &FaultList::transition(&circuit), &sequence);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `FaultSim::score` over transition-fault lists: a batch of 1–5
    /// candidates of 1–6 frames scores as the oracle scores it (`launched`
    /// included), at every width, and writes nothing back; samples of at
    /// most 64, at most 128 and more than 128 faults put four, two and one
    /// candidate in a 256-lane group ([`checks::check_scoring`]).
    #[test]
    fn transition_scoring_matches_the_oracle_on_random_circuits(
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
        checks::check_scoring(
            &circuit,
            &FaultList::transition(&circuit),
            &warmup,
            &batch,
            (small, medium),
        );
    }

    /// Scores and commits over transition-fault lists agree with the
    /// oracle on random synthetic circuits, at every width (`launched`
    /// included). Each round scores a 2–6-vector candidate over every other
    /// undetected fault, and then commits one vector (even rounds, `step`)
    /// or two to three (odd rounds, `step_window`); see
    /// [`checks::check_rounds`].
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
        checks::check_rounds(&circuit, &FaultList::transition(&circuit), &schedule);
    }
}

/// A transition run's claims on s27 (a full run) and on a budgeted s298
/// run with 60-fault samples survive a replay of its test set through the
/// oracle ([`checks::check_generated`]).
#[test]
fn generated_transition_detections_match_an_independent_replay() {
    let s27 = Arc::new(benchmarks::iscas89("s27").expect("bundled circuit"));
    let detected = checks::check_generated(&s27, &FaultList::transition(&s27), |c| c);
    assert!(detected > 0, "s27: the run detects transition faults");
    let s298 = Arc::new(benchmarks::iscas89("s298").expect("bundled circuit"));
    let detected =
        checks::check_generated(&s298, &FaultList::transition(&s298), |c| GatestConfig {
            fault_sample: FaultSample::Count(60),
            ..c.with_max_evals(3_000)
        });
    assert!(
        detected > 0,
        "s298: the budgeted run detects transition faults"
    );
}
