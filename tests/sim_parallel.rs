//! Run-level identity across the execution knobs: whole GA runs must be
//! bit-identical at every fitness-pool worker count and every packed-value
//! width. The evaluation pool behind `--workers` is the only parallel
//! layer — each worker's simulator steps its fault groups serially — so
//! these knobs may change how runs are computed, never what they produce.
//! Step-level correctness is checked against an independent reference
//! simulator in `tests/simulator_cross_validation.rs`.

use std::sync::Arc;

use gatest_core::report::result_to_json;
use gatest_core::{FaultSample, GatestConfig, TestGenerator};
use gatest_netlist::benchmarks::iscas89;
use gatest_sim::SimBackend;

/// Fitness-pool workers never change results: every worker count,
/// auto-detection included, reproduces the serial run bit for bit.
#[test]
fn s27_runs_are_bit_identical_across_worker_counts() {
    let circuit = Arc::new(iscas89("s27").unwrap());
    let run = |workers: usize| {
        let mut config = GatestConfig::for_circuit(&circuit)
            .with_seed(4)
            .with_workers(workers);
        config.fault_sample = FaultSample::Count(60);
        TestGenerator::new(Arc::clone(&circuit), config).run()
    };
    let serial = run(1);
    for workers in [2usize, 8, 0] {
        let par = run(workers);
        assert_eq!(
            serial.test_set, par.test_set,
            "test set differs at workers={workers}"
        );
        assert_eq!(serial.detected, par.detected, "workers={workers}");
        assert_eq!(
            serial.ga_evaluations, par.ga_evaluations,
            "workers={workers}"
        );
    }
}

/// The packed-value backend is an execution detail exactly like the worker
/// count: whole GA runs serialize to byte-identical result JSON (test set,
/// phase trace, and score checksum included) for scalar64, wide256, and
/// auto at every worker count. s298's full fault list spans several
/// 64-fault groups, so the wide backends genuinely repack faults into
/// fewer, wider groups here — the merge order is what's under test, not
/// just the lane arithmetic.
#[test]
fn runs_are_byte_identical_across_sim_widths() {
    let circuit = Arc::new(iscas89("s298").unwrap());
    let run = |backend: SimBackend, workers: usize| {
        let mut config = GatestConfig::for_circuit(&circuit)
            .with_seed(23)
            .with_workers(workers)
            .with_sim_width(backend);
        config.fault_sample = FaultSample::Count(60);
        result_to_json(&TestGenerator::new(Arc::clone(&circuit), config).run())
    };
    let reference = run(SimBackend::Scalar64, 1);
    for workers in [1usize, 2, 8] {
        let wide = run(SimBackend::Wide256, workers);
        assert_eq!(
            reference, wide,
            "wide256 result JSON differs at workers={workers}"
        );
    }
    for workers in [1usize, 8] {
        let auto = run(SimBackend::Auto, workers);
        assert_eq!(
            reference, auto,
            "auto result JSON differs at workers={workers}"
        );
    }
}
