//! Table 6 bench: fault sampling — the per-vector fault-simulation cost as
//! a function of the sample size, the mechanism behind the paper's
//! speedups.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use gatest_ga::Rng;
use gatest_netlist::benchmarks;
use gatest_sim::{FaultId, FaultSim, Logic};

fn bench_sampled_steps(c: &mut Criterion) {
    let mut group = c.benchmark_group("table6_step_cost");
    let circuit = Arc::new(benchmarks::iscas89("s1196").expect("bundled circuit"));
    let pis = circuit.num_inputs();

    // Warm the simulator into an initialized, mid-run state.
    let mut sim = FaultSim::new(Arc::clone(&circuit));
    let depth = gatest_netlist::depth::sequential_depth(&circuit) as usize;
    for _ in 0..depth + 2 {
        sim.step(&vec![Logic::Zero; pis]);
    }
    let mut rng = Rng::new(1);
    for _ in 0..32 {
        let v: Vec<Logic> = (0..pis).map(|_| Logic::from_bool(rng.coin())).collect();
        sim.step(&v);
    }
    let cp = sim.checkpoint();
    let vector: Vec<Logic> = (0..pis).map(|_| Logic::from_bool(rng.coin())).collect();

    for sample_size in [100usize, 200, 300] {
        let sample: Vec<FaultId> = sim
            .active_faults()
            .iter()
            .copied()
            .take(sample_size)
            .collect();
        group.bench_with_input(
            BenchmarkId::new("sampled", sample_size),
            &sample,
            |b, sample| b.iter(|| sim.score(&[std::slice::from_ref(&vector)], sample)),
        );
    }
    group.bench_function("full_list", |b| {
        b.iter(|| {
            sim.restore(&cp);
            sim.step(&vector)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_sampled_steps);
criterion_main!(benches);
