//! Integration flows across the extension modules: scan + PPSFP,
//! dictionary + compaction, transition generation + grading, fault
//! reports, Verilog interchange.

use std::sync::Arc;

use gatest_core::report::test_set_to_string;
use gatest_core::{compact_test_set, FaultSample, GatestConfig, TestGenerator};
use gatest_netlist::scan::full_scan;
use gatest_netlist::{benchmarks, verilog};
use gatest_sim::dictionary::FaultDictionary;
use gatest_sim::fault_report::{parse_fault_report, write_fault_report};
use gatest_sim::ppsfp::Ppsfp;
use gatest_sim::{FaultList, FaultSim, Logic};

fn random_patterns(pis: usize, count: usize, seed: u64) -> Vec<Vec<Logic>> {
    let mut rng = gatest_ga::Rng::new(seed);
    (0..count)
        .map(|_| (0..pis).map(|_| Logic::from_bool(rng.coin())).collect())
        .collect()
}

#[test]
fn scan_plus_ppsfp_beats_sequential_generation_cost() {
    // The DFT story end-to-end: scan the circuit, grade random patterns
    // with PPSFP, and confirm coverage at least matches what the full GA
    // flow earns on the unscanned circuit.
    let seq = Arc::new(benchmarks::iscas89("s298").expect("bundled circuit"));
    let mut config = GatestConfig::for_circuit(&seq).with_seed(3);
    config.fault_sample = FaultSample::Count(100);
    let ga = TestGenerator::new(Arc::clone(&seq), config).run();

    let comb = Arc::new(full_scan(&seq).circuit().clone());
    let grader = Ppsfp::new(Arc::clone(&comb)).expect("combinational after scan");
    let result = grader.grade(&random_patterns(comb.num_inputs(), 512, 9));
    assert!(
        result.coverage() >= ga.fault_coverage() - 0.05,
        "scan+random {:.2} should rival sequential GA {:.2}",
        result.coverage(),
        ga.fault_coverage()
    );
}

#[test]
fn generate_compact_dictionary_diagnose_pipeline() {
    // The full downstream pipeline on one circuit: generate -> compact ->
    // build dictionary -> diagnose an injected fault.
    let circuit = Arc::new(benchmarks::iscas89("s344").expect("bundled circuit"));
    let mut config = GatestConfig::for_circuit(&circuit).with_seed(11);
    config.fault_sample = FaultSample::Count(80);
    let result = TestGenerator::new(Arc::clone(&circuit), config).run();
    assert!(result.detected > 0);

    let (compacted, stats) = compact_test_set(&circuit, &result.test_set);
    assert_eq!(stats.detected, result.detected, "compaction keeps coverage");

    let dict = FaultDictionary::build(Arc::clone(&circuit), &compacted);
    assert_eq!(dict.detected_count(), result.detected);

    // Diagnose each of the first few detected faults from its syndrome.
    let mut diagnosed = 0;
    for (id, _) in dict.fault_list().iter().take(25) {
        let Some(syn) = dict.syndrome(id) else {
            continue;
        };
        let observed: Vec<(u32, u16)> = syn.outputs.iter().map(|&po| (syn.vector, po)).collect();
        let ranked = dict.diagnose(&observed);
        let top = ranked.first().map(|r| r.1).unwrap_or(0.0);
        if ranked
            .iter()
            .take_while(|(_, s)| *s == top)
            .any(|(f, _)| *f == id)
        {
            diagnosed += 1;
        }
    }
    assert!(diagnosed > 0, "diagnosis must locate injected faults");
}

#[test]
fn stuck_at_tests_partially_cover_transition_faults() {
    // The classic cross-model observation: a stuck-at set catches many but
    // not all transition faults.
    let circuit = Arc::new(benchmarks::iscas89("s27").expect("bundled circuit"));
    let config = GatestConfig::for_circuit(&circuit).with_seed(5);
    let stuck = TestGenerator::new(Arc::clone(&circuit), config).run();
    assert_eq!(stuck.detected, stuck.total_faults, "s27 stuck-at is easy");

    let mut tsim = FaultSim::with_faults(Arc::clone(&circuit), FaultList::transition(&circuit));
    for v in &stuck.test_set {
        tsim.step(v);
    }
    let total = tsim.fault_list().len();
    let tcov = tsim.detected_count() as f64 / total as f64;
    assert!(tcov > 0.3, "stuck-at tests catch transitions: {tcov:.2}");
    assert!(tsim.detected_count() < total, "but not all of them");
}

#[test]
fn fault_report_survives_serialization_pipeline() {
    let circuit = Arc::new(benchmarks::iscas89("s386").expect("bundled circuit"));
    let mut sim = FaultSim::new(Arc::clone(&circuit));
    for v in random_patterns(circuit.num_inputs(), 64, 3) {
        sim.step(&v);
    }
    let report = write_fault_report(&circuit, &sim);
    let parsed = parse_fault_report(&circuit, &report).expect("own format parses");
    let detected = parsed
        .iter()
        .filter(|(_, s)| matches!(s, gatest_sim::FaultStatus::Detected { .. }))
        .count();
    assert_eq!(detected, sim.detected_count());
}

#[test]
fn verilog_interchange_preserves_atpg_results() {
    // Write a circuit as Verilog, parse it back, and confirm a test set
    // generated on the original grades identically on the round-tripped
    // netlist.
    let original = Arc::new(benchmarks::iscas89("s27").expect("bundled circuit"));
    let config = GatestConfig::for_circuit(&original).with_seed(7);
    let result = TestGenerator::new(Arc::clone(&original), config).run();

    let text = verilog::write_verilog(&original);
    let back = Arc::new(verilog::parse_verilog(&text).expect("round trip"));
    let mut sim = FaultSim::new(back);
    for v in &result.test_set {
        sim.step(v);
    }
    assert_eq!(sim.detected_count(), result.detected);

    // And the test-set text format is stable alongside.
    let serialized = test_set_to_string(&result.test_set);
    assert_eq!(serialized.lines().count(), result.vectors());
}
