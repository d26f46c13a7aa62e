//! Cross-validation of the packed, event-driven fault simulator against the
//! oracle (`support/oracle.rs`), a simulator that shares no code with it,
//! over several circuits of the bundled suite and over random synthetic
//! circuits.

use std::sync::Arc;

use proptest::prelude::*;

use gatest_core::{FaultSample, GatestConfig};
use gatest_netlist::benchmarks;
use gatest_netlist::generate::{CircuitProfile, SyntheticGenerator};
use gatest_sim::{FaultId, FaultList, FaultSim, FaultStatus, GoodSim, Logic};

#[path = "support/oracle.rs"]
mod oracle;

#[path = "support/checks.rs"]
mod checks;

use checks::{random_sequence, without_gate_evals};
use oracle::Oracle;

/// Commits a zero hold as long as the sequential depth plus two, then
/// `vectors` random vectors, on bundled circuit `name`, against the oracle
/// ([`checks::check_commits`]).
fn cross_validate(name: &str, vectors: usize, seed: u64) {
    let circuit = Arc::new(benchmarks::iscas89(name).expect("bundled circuit"));
    let depth = gatest_netlist::depth::sequential_depth(&circuit) as usize;
    let mut sequence = vec![vec![Logic::Zero; circuit.num_inputs()]; depth + 2];
    sequence.extend(random_sequence(circuit.num_inputs(), vectors, seed));
    checks::check_commits(&circuit, &FaultList::collapsed(&circuit), &sequence);
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

/// s298 from power-up: a zero hold and 32 random vectors scored as one
/// candidate over every third fault equal the oracle's score, and each
/// sample fault's first detection in the score is the vector at which
/// committing the same vectors over the full list detects it.
#[test]
fn sampled_stepping_detects_subset_of_full() {
    let circuit = Arc::new(benchmarks::iscas89("s298").expect("bundled circuit"));
    let faults = FaultList::collapsed(&circuit);
    let depth = gatest_netlist::depth::sequential_depth(&circuit) as usize;
    let mut sequence = vec![vec![Logic::Zero; circuit.num_inputs()]; depth + 2];
    sequence.extend(random_sequence(circuit.num_inputs(), 32, 9));

    let mut full = FaultSim::with_faults(Arc::clone(&circuit), faults.clone());
    full.step_window(&sequence);

    let mut sampled = FaultSim::with_faults(Arc::clone(&circuit), faults.clone());
    let sample: Vec<FaultId> = sampled.active_faults().iter().copied().step_by(3).collect();
    let reports = sampled.score(&[sequence.as_slice()], &sample).remove(0);
    let expected = Oracle::new(&circuit, &faults).score(&sequence, &sample);
    for (f, (a, b)) in reports.iter().zip(&expected).enumerate() {
        assert_eq!(&without_gate_evals(a), b, "frame {f}");
    }
    let mut detected = 0;
    for &id in &sample {
        let first = (0..reports.len()).find(|&f| reports[f].newly_detected.contains(&id));
        let committed = match full.status(id) {
            FaultStatus::Detected { vector } => Some(vector as usize),
            FaultStatus::Undetected => None,
        };
        assert_eq!(first, committed, "fault {}", faults.display(id, &circuit));
        detected += usize::from(first.is_some());
    }
    assert!(detected > 0, "the sample detects something");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Scores and commits agree with the oracle on random synthetic
    /// circuits, at every width. Each round scores a 2–6-vector candidate
    /// over every other undetected fault, as fitness evaluation does, and
    /// then commits one vector (even rounds, `step`) or two to three (odd
    /// rounds, `step_window`); see [`checks::check_rounds`].
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
        checks::check_rounds(&circuit, &FaultList::collapsed(&circuit), &schedule);
    }

    /// `FaultSim::score` scores a batch of 1–5 candidates of 1–6 frames as
    /// the oracle does, at every width, and writes nothing back; samples of
    /// at most 64, at most 128 and more than 128 faults put four, two and
    /// one candidate in a 256-lane group ([`checks::check_scoring`]).
    #[test]
    fn scoring_matches_the_oracle_on_random_circuits(
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
        checks::check_scoring(
            &circuit,
            &FaultList::collapsed(&circuit),
            &warmup,
            &batch,
            (small, medium),
        );
    }

    /// The good machine agrees with the oracle's on random synthetic
    /// circuits: 20 frames from power-up, with every input drawn from 0, 1
    /// and X. Every net value, the latched next state, and each frame's
    /// `events`, `ffs_set` and `ffs_changed` must match, and so must every
    /// report of full-list `step`s over the same frames.
    #[test]
    fn good_machine_matches_the_oracle_on_random_circuits(
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
        let faults = FaultList::collapsed(&circuit);
        let mut good = GoodSim::new(Arc::clone(&circuit));
        let mut sim = FaultSim::with_faults(Arc::clone(&circuit), faults.clone());
        let mut oracle = Oracle::new(&circuit, &faults);
        let mut rng = gatest_ga::Rng::new(seed ^ 0x600d);
        for frame in 0..20 {
            let vector: Vec<Logic> = (0..circuit.num_inputs())
                .map(|_| [Logic::Zero, Logic::One, Logic::X][(rng.next_u64() % 3) as usize])
                .collect();
            let report = good.apply(&vector);
            let expected = oracle.commit(std::slice::from_ref(&vector)).remove(0);
            prop_assert_eq!(good.values(), oracle.good_values(), "values at frame {}", frame);
            prop_assert_eq!(
                good.next_states(),
                oracle.good_next_state(),
                "next state at frame {}",
                frame
            );
            prop_assert_eq!(report, expected.good, "good report at frame {}", frame);
            prop_assert_eq!(
                without_gate_evals(&sim.step(&vector)),
                expected,
                "step at frame {}",
                frame
            );
        }
    }
}

/// The generator's claims on s27 (a full run) and on budgeted s298 and s386
/// runs with 60-fault samples survive a replay of their test sets through
/// the oracle ([`checks::check_generated`]).
#[test]
fn generated_detections_match_an_independent_replay() {
    let s27 = Arc::new(benchmarks::iscas89("s27").expect("bundled circuit"));
    let full = checks::check_generated(&s27, &FaultList::collapsed(&s27), |c| c);
    assert_eq!(full, 26, "s27 reaches full coverage at seed 5");
    for name in ["s298", "s386"] {
        let circuit = Arc::new(benchmarks::iscas89(name).expect("bundled circuit"));
        let detected = checks::check_generated(&circuit, &FaultList::collapsed(&circuit), |c| {
            GatestConfig {
                fault_sample: FaultSample::Count(60),
                ..c.with_max_evals(3_000)
            }
        });
        assert!(detected > 0, "{name}: the budgeted run detects something");
    }
}
