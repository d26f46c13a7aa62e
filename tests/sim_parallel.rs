//! Fault-group parallel simulation equivalence tests: `step` with any
//! sim-thread count must be bit-identical to the serial path — same step
//! reports, same detection order, same sparse faulty flip-flop state — and
//! whole GA runs must be bit-identical at every workers × sim-threads
//! combination. The group pool may change how steps are computed, never
//! what they produce.

use std::sync::Arc;

use proptest::prelude::*;

use gatest_core::report::result_to_json;
use gatest_core::{FaultSample, GatestConfig, TestGenerator};
use gatest_ga::Rng;
use gatest_netlist::benchmarks::iscas89;
use gatest_netlist::generate::{CircuitProfile, SyntheticGenerator};
use gatest_sim::{FaultId, FaultSim, Logic, SimBackend};

fn random_vector(pis: usize, rng: &mut Rng) -> Vec<Logic> {
    (0..pis).map(|_| Logic::from_bool(rng.coin())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Parallel fault-group dispatch is indistinguishable from the serial
    /// path on random synthetic circuits: every step report (detection
    /// order included) and every fault's sparse faulty flip-flop state
    /// match at sim-thread counts 2 and 8.
    #[test]
    fn parallel_step_is_bit_identical_on_random_circuits(
        seed in any::<u64>(),
        inputs in 2usize..8,
        dffs in 1usize..12,
        gates in 10usize..60,
        steps in 2usize..10,
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
        let pis = circuit.num_inputs();
        let mut vec_rng = Rng::new(seed ^ 0x5eed);
        let vectors: Vec<Vec<Logic>> =
            (0..steps).map(|_| random_vector(pis, &mut vec_rng)).collect();

        let mut serial = FaultSim::new(Arc::clone(&circuit));
        let serial_reports: Vec<_> = vectors.iter().map(|v| serial.step(v)).collect();

        for threads in [2usize, 8] {
            let mut par = FaultSim::new(Arc::clone(&circuit));
            par.set_sim_threads(threads);
            for (n, v) in vectors.iter().enumerate() {
                let report = par.step(v);
                prop_assert_eq!(
                    &report,
                    &serial_reports[n],
                    "step {} differs at sim_threads={}",
                    n,
                    threads
                );
            }
            prop_assert_eq!(par.detected_count(), serial.detected_count());
            for i in 0..serial.fault_list().len() {
                let id = FaultId(i as u32);
                prop_assert_eq!(
                    par.faulty_ff_state(id),
                    serial.faulty_ff_state(id),
                    "faulty FF state of fault {} differs at sim_threads={}",
                    i,
                    threads
                );
            }
        }
    }
}

/// Step-level identity on the largest tier-1 circuit: s1423 with the full
/// fault list, over a sampled vector stream. Checks reports (detection
/// order included) and the sparse faulty flip-flop state of every fault.
#[test]
fn s1423_sampled_steps_are_bit_identical() {
    let circuit = Arc::new(iscas89("s1423").unwrap());
    let pis = circuit.num_inputs();
    let mut rng = Rng::new(11);
    let vectors: Vec<Vec<Logic>> = (0..24).map(|_| random_vector(pis, &mut rng)).collect();

    let mut serial = FaultSim::new(Arc::clone(&circuit));
    let serial_reports: Vec<_> = vectors.iter().map(|v| serial.step(v)).collect();

    for threads in [2usize, 8] {
        let mut par = FaultSim::new(Arc::clone(&circuit));
        par.set_sim_threads(threads);
        for (n, v) in vectors.iter().enumerate() {
            assert_eq!(
                par.step(v),
                serial_reports[n],
                "step {n} differs at sim_threads={threads}"
            );
        }
        assert_eq!(par.detected_count(), serial.detected_count());
        for i in 0..serial.fault_list().len() {
            let id = FaultId(i as u32);
            assert_eq!(
                par.faulty_ff_state(id),
                serial.faulty_ff_state(id),
                "faulty FF state of fault {i} differs at sim_threads={threads}"
            );
        }
    }
}

/// Whole GA runs are bit-identical at every sim-thread count, including
/// auto-detection. Same contract the evaluation pool already honors for
/// worker counts, now one level down.
#[test]
fn runs_are_bit_identical_across_sim_thread_counts() {
    let circuit = Arc::new(iscas89("s298").unwrap());
    let run = |sim_threads: usize| {
        let mut config = GatestConfig::for_circuit(&circuit)
            .with_seed(23)
            .with_sim_threads(sim_threads);
        config.fault_sample = FaultSample::Count(60);
        TestGenerator::new(Arc::clone(&circuit), config).run()
    };
    let serial = run(1);
    for sim_threads in [2usize, 8, 0] {
        let par = run(sim_threads);
        assert_eq!(
            serial.test_set, par.test_set,
            "test set differs at sim_threads={sim_threads}"
        );
        assert_eq!(serial.detected, par.detected, "sim_threads={sim_threads}");
        assert_eq!(
            serial.phase_trace, par.phase_trace,
            "sim_threads={sim_threads}"
        );
        assert_eq!(
            serial.ga_evaluations, par.ga_evaluations,
            "sim_threads={sim_threads}"
        );
    }
}

/// Fitness-pool workers and fault-group sim threads compose without
/// changing results: every workers × sim-threads combination reproduces
/// the fully serial run bit for bit.
#[test]
fn workers_and_sim_threads_compose_bit_identically() {
    let circuit = Arc::new(iscas89("s27").unwrap());
    let run = |workers: usize, sim_threads: usize| {
        let mut config = GatestConfig::for_circuit(&circuit)
            .with_seed(4)
            .with_workers(workers)
            .with_sim_threads(sim_threads);
        config.fault_sample = FaultSample::Count(60);
        TestGenerator::new(Arc::clone(&circuit), config).run()
    };
    let serial = run(1, 1);
    for (workers, sim_threads) in [(1, 2), (2, 2), (8, 2), (2, 8), (0, 0)] {
        let par = run(workers, sim_threads);
        assert_eq!(
            serial.test_set, par.test_set,
            "test set differs at workers={workers} sim_threads={sim_threads}"
        );
        assert_eq!(
            serial.detected, par.detected,
            "workers={workers} sim_threads={sim_threads}"
        );
        assert_eq!(
            serial.ga_evaluations, par.ga_evaluations,
            "workers={workers} sim_threads={sim_threads}"
        );
    }
}

/// The packed-value backend is an execution detail exactly like the thread
/// knobs: whole GA runs serialize to byte-identical result JSON (test set,
/// phase trace, and score checksum included) for scalar64, wide256, and
/// auto at every workers × sim-threads combination. s298's
/// full fault list spans several 64-fault groups, so the wide backends
/// genuinely repack faults into fewer, wider groups here — the merge order
/// is what's under test, not just the lane arithmetic.
#[test]
fn runs_are_byte_identical_across_sim_widths() {
    let circuit = Arc::new(iscas89("s298").unwrap());
    let run = |backend: SimBackend, workers: usize, sim_threads: usize| {
        let mut config = GatestConfig::for_circuit(&circuit)
            .with_seed(23)
            .with_workers(workers)
            .with_sim_threads(sim_threads)
            .with_sim_width(backend);
        config.fault_sample = FaultSample::Count(60);
        result_to_json(&TestGenerator::new(Arc::clone(&circuit), config).run())
    };
    let reference = run(SimBackend::Scalar64, 1, 1);
    for workers in [1usize, 2, 8] {
        for sim_threads in [1usize, 2, 8] {
            let wide = run(SimBackend::Wide256, workers, sim_threads);
            assert_eq!(
                reference, wide,
                "wide256 result JSON differs at workers={workers} sim_threads={sim_threads}"
            );
        }
    }
    for (workers, sim_threads) in [(1, 1), (8, 8)] {
        let auto = run(SimBackend::Auto, workers, sim_threads);
        assert_eq!(
            reference, auto,
            "auto result JSON differs at workers={workers} sim_threads={sim_threads}"
        );
    }
}
