//! Figure 2 bench: per-candidate fitness-evaluation cost in each phase of
//! individual-vector generation (good-simulation-only phase 1 vs the
//! fault-simulating phases 2/3), the inner loop of the whole system.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};

use gatest_ga::Rng;
use gatest_netlist::benchmarks;
use gatest_sim::{FaultId, FaultSim, Logic};

fn bench_phase_evaluations(c: &mut Criterion) {
    let mut group = c.benchmark_group("figure2_phase_eval");
    let circuit = Arc::new(benchmarks::iscas89("s298").expect("bundled circuit"));
    let pis = circuit.num_inputs();

    let mut sim = FaultSim::new(Arc::clone(&circuit));
    let depth = gatest_netlist::depth::sequential_depth(&circuit) as usize;
    for _ in 0..depth + 2 {
        sim.step(&vec![Logic::Zero; pis]);
    }
    let cp = sim.checkpoint();
    let mut rng = Rng::new(1);
    let vector: Vec<Logic> = (0..pis).map(|_| Logic::from_bool(rng.coin())).collect();
    let sample: Vec<FaultId> = sim.active_faults().iter().copied().take(100).collect();

    group.bench_function("phase1_good_only", |b| {
        b.iter(|| {
            sim.restore(&cp);
            sim.step_good_only(&vector)
        })
    });
    group.bench_function("phase2_sampled_100", |b| {
        b.iter(|| sim.score(&[std::slice::from_ref(&vector)], &sample))
    });
    group.bench_function("phase2_full_list", |b| {
        b.iter(|| {
            sim.restore(&cp);
            sim.step(&vector)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_phase_evaluations);
criterion_main!(benches);
