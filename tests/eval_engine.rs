//! Evaluation-engine equivalence tests: copy-on-write checkpoints must be
//! indistinguishable from deep-copy semantics, the persistent worker pool
//! must score bit-identically to serial evaluation, and whole runs must be
//! bit-identical at every worker count.

use std::sync::Arc;

use proptest::prelude::*;

use gatest_core::EvalPool;
use gatest_core::{
    evaluate_candidate, EvalContext, EvalJob, FaultSample, FitnessScale, GatestConfig, Phase,
    TestGenerator,
};
use gatest_ga::{Chromosome, Rng};
use gatest_netlist::benchmarks::iscas89;
use gatest_sim::{FaultSim, Logic};

fn random_vector(pis: usize, rng: &mut Rng) -> Vec<Logic> {
    (0..pis).map(|_| Logic::from_bool(rng.coin())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Copy-on-write checkpoint/restore behaves exactly like a deep copy of
    /// the simulator taken at checkpoint time: after an arbitrary detour and
    /// a restore, the simulator is indistinguishable (step reports, detected
    /// counts) from the saved deep copy on any probe sequence.
    #[test]
    fn cow_restore_is_indistinguishable_from_deep_copy(
        seed in any::<u64>(),
        warm in 1usize..8,
        detour in 1usize..8,
    ) {
        let circuit = Arc::new(iscas89("s298").unwrap());
        let pis = circuit.num_inputs();
        let mut rng = Rng::new(seed);
        let mut sim = FaultSim::new(Arc::clone(&circuit));
        for _ in 0..warm {
            sim.step(&random_vector(pis, &mut rng));
        }

        let cp = sim.checkpoint();
        // `clone()` is the deep-copy reference: an independent simulator
        // frozen at checkpoint time.
        let deep = sim.clone();

        for _ in 0..detour {
            sim.step(&random_vector(pis, &mut rng));
        }
        sim.restore(&cp);

        let mut reference = deep;
        prop_assert_eq!(sim.detected_count(), reference.detected_count());
        for _ in 0..6 {
            let v = random_vector(pis, &mut rng);
            let restored_report = sim.step(&v);
            let deep_report = reference.step(&v);
            prop_assert_eq!(&restored_report, &deep_report);
        }
        prop_assert_eq!(sim.detected_count(), reference.detected_count());
    }

    /// Pool evaluation is bit-identical to serial evaluation for workers
    /// 1, 2, and 8, across random seeds, batch sizes, and phases.
    #[test]
    fn pool_scores_are_bit_identical_to_serial(
        seed in any::<u64>(),
        batch_size in 1usize..40,
        phase_pick in 0usize..3,
    ) {
        let circuit = Arc::new(iscas89("s344").unwrap());
        let pis = circuit.num_inputs();
        let mut rng = Rng::new(seed);
        let mut sim = FaultSim::new(Arc::clone(&circuit));
        for _ in 0..3 {
            sim.step(&random_vector(pis, &mut rng));
        }
        let phase = [
            Phase::Initialization,
            Phase::VectorGeneration,
            Phase::StalledVectorGeneration,
        ][phase_pick];
        let sample = sim.active_faults().to_vec();
        let scale = FitnessScale {
            faults: sample.len(),
            flip_flops: circuit.num_dffs(),
            nodes: circuit.num_gates(),
        };
        let ctx = Arc::new(EvalContext {
            epoch: 1,
            checkpoint: sim.checkpoint(),
            job: EvalJob::Vector { phase, sample, scale, pis },
        });
        let batch: Vec<Chromosome> = (0..batch_size)
            .map(|_| Chromosome::random(pis, &mut rng))
            .collect();

        let mut serial_sim = sim.clone();
        let mut scratch = Vec::new();
        let serial: Vec<f64> = batch
            .iter()
            .map(|c| evaluate_candidate(&mut serial_sim, &ctx, c, &mut scratch))
            .collect();
        for workers in [1usize, 2, 8] {
            let pool = EvalPool::new(&sim, workers);
            let pooled = pool.evaluate(&ctx, &batch);
            prop_assert_eq!(serial.len(), pooled.len());
            for (i, (a, b)) in serial.iter().zip(&pooled).enumerate() {
                prop_assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "candidate {} differs at workers={}",
                    i,
                    workers
                );
            }
        }
    }
}

/// Whole runs are bit-identical at every worker count, on every acceptance
/// circuit. This is the end-to-end determinism contract: the pool, the
/// copy-on-write checkpoints, and the packed phase-1 path may change how
/// scores are computed, never what they are.
#[test]
fn runs_are_bit_identical_across_worker_counts() {
    for name in ["s27", "s298", "s344"] {
        let circuit = Arc::new(iscas89(name).unwrap());
        let run = |workers: usize| {
            let mut config = GatestConfig::for_circuit(&circuit)
                .with_seed(23)
                .with_workers(workers);
            config.fault_sample = FaultSample::Count(60);
            TestGenerator::new(Arc::clone(&circuit), config).run()
        };
        let serial = run(1);
        for workers in [2usize, 8] {
            let pooled = run(workers);
            assert_eq!(
                serial.test_set, pooled.test_set,
                "{name}: test set differs at workers={workers}"
            );
            assert_eq!(serial.detected, pooled.detected, "{name}");
            assert_eq!(serial.phase_trace, pooled.phase_trace, "{name}");
            assert_eq!(serial.ga_evaluations, pooled.ga_evaluations, "{name}");
        }
    }
}

/// Worker count 0 (auto) must also reproduce the serial run exactly —
/// whatever parallelism the machine reports.
#[test]
fn auto_worker_count_is_bit_identical_to_serial() {
    let circuit = Arc::new(iscas89("s27").unwrap());
    let run = |workers: usize| {
        let mut config = GatestConfig::for_circuit(&circuit)
            .with_seed(4)
            .with_workers(workers);
        config.fault_sample = FaultSample::Count(60);
        TestGenerator::new(Arc::clone(&circuit), config).run()
    };
    let serial = run(1);
    let auto = run(0);
    assert_eq!(serial.test_set, auto.test_set);
    assert_eq!(serial.detected, auto.detected);
}
