//! Beyond stuck-at: GA-based test generation for transition (delay) faults
//! — the paper's conclusion ("other fault models can easily be accommodated
//! with appropriate fitness functions") made runnable. The transition run
//! is the stuck-at generator over [`FaultList::transition`]: the same four
//! phases, fault sampling, fitness cache and checkpoints, with a fitness
//! that also rewards launched edges.
//!
//! Exits non-zero unless the transition test set, replayed through a fresh
//! simulator over the same fault list, detects exactly the faults the run
//! reported, each at the same vector.
//!
//! ```text
//! cargo run --release --example transition_atpg [circuit]
//! ```

use std::error::Error;
use std::process::ExitCode;
use std::sync::Arc;

use gatest_core::report::format_duration;
use gatest_core::{FaultSample, GatestConfig, TestGenResult, TestGenerator};
use gatest_netlist::benchmarks;
use gatest_sim::{FaultList, FaultSim, Logic};

fn main() -> Result<ExitCode, Box<dyn Error>> {
    let circuit_name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "s298".to_string());
    let circuit = Arc::new(benchmarks::iscas89(&circuit_name)?);
    println!("{}", circuit.stats());

    let mut config = GatestConfig::for_circuit(&circuit).with_seed(1);
    config.fault_sample = FaultSample::Count(100);
    let print = |label: &str, r: &TestGenResult| {
        println!(
            "{label} {}/{} ({:.1}%), {} vectors, {}",
            r.detected,
            r.total_faults,
            100.0 * r.fault_coverage(),
            r.vectors(),
            format_duration(r.elapsed)
        );
    };

    // Stuck-at run for reference.
    let stuck = TestGenerator::new(Arc::clone(&circuit), config.clone()).run();
    print("\nstuck-at:  ", &stuck);

    // Transition-fault run: same generator, different fault list.
    let mut generator = TestGenerator::with_faults(
        Arc::clone(&circuit),
        FaultList::transition(&circuit),
        config,
    );
    let trans = generator.run();
    print("transition:", &trans);

    // How well do the stuck-at tests do on transition faults? (The classic
    // observation: stuck-at sets catch many but not all transitions.)
    let cross = graded(&circuit, &stuck.test_set);
    println!(
        "stuck-at test set graded on transition faults: {}/{} ({:.1}%)",
        cross.detected_count(),
        cross.fault_list().len(),
        100.0 * cross.detected_count() as f64 / cross.fault_list().len().max(1) as f64
    );

    // The run's claims must survive an independent replay.
    let replay = graded(&circuit, &trans.test_set);
    let claimed = generator.sim();
    let faults = claimed.fault_list();
    let disagreeing: Vec<String> = faults
        .iter()
        .filter(|&(id, _)| claimed.status(id) != replay.status(id))
        .map(|(id, _)| faults.display(id, &circuit).to_string())
        .collect();
    if !disagreeing.is_empty() || replay.detected_count() != trans.detected {
        eprintln!(
            "replay detects {} faults, the run reported {}; disagreeing: {}",
            replay.detected_count(),
            trans.detected,
            disagreeing.join(", ")
        );
        return Ok(ExitCode::FAILURE);
    }
    println!(
        "replay: the test set detects exactly the {} faults the run reported",
        trans.detected
    );
    Ok(ExitCode::SUCCESS)
}

/// A fresh simulator over the transition-fault list after `tests`.
fn graded(circuit: &Arc<gatest_netlist::Circuit>, tests: &[Vec<Logic>]) -> FaultSim {
    let mut sim = FaultSim::with_faults(Arc::clone(circuit), FaultList::transition(circuit));
    for v in tests {
        sim.step(v);
    }
    sim
}
