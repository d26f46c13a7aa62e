//! The ATPG workloads: whole `TestGenerator::run` calls on bundled
//! circuits, timed against the reference kernel, checked, and — with
//! `--trace 1` — split into the per-layer ledger.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use gatest_core::report::{coverage_curve, result_to_json};
use gatest_core::telemetry::{Instruments, RunEvent, RunObserver};
use gatest_core::{FaultSample, GatestConfig, StopCause, TestGenResult, TestGenerator};
use gatest_ga::rng::Rng;
use gatest_netlist::{benchmarks, Circuit};
use gatest_sim::FaultList;

use crate::host::{median, peak_rss_mb, percentile};
use crate::kernel::RefClock;
use crate::{json_num, json_str, Args, Report};

/// One ATPG workload: every circuit runs once per GA seed drawn from the
/// workload seed, under the library defaults of `GatestConfig::for_circuit`
/// plus the workload's fault sample and evaluation budget.
pub struct Workload {
    circuits: &'static [&'static str],
    seeds_per_circuit: usize,
    sample: FaultSample,
    max_evals: Option<u64>,
}

impl Workload {
    /// The workload called `name`, if there is one.
    pub fn named(name: &str) -> Option<Workload> {
        Some(match name {
            // The full four-phase flow, no budget, no sampling.
            "iscas_suite" => Workload {
                circuits: &["s27", "s298", "s344", "s386"],
                seeds_per_circuit: 3,
                sample: FaultSample::Full,
                max_evals: None,
            },
            // A deep circuit, sampled, under a budget that ends before any
            // seed reaches phase 4 (see README.md for why).
            "s1423_sampled" => Workload {
                circuits: &["s1423"],
                seeds_per_circuit: 12,
                sample: FaultSample::Count(100),
                max_evals: Some(8_000),
            },
            // The largest bundled circuit under a small budget. The budget
            // ends inside phase 1, whose result did not depend on the GA
            // seed in any run tried, so one item repeated gives the most
            // timing samples.
            "s35932_budget" => Workload {
                circuits: &["s35932"],
                seeds_per_circuit: 1,
                sample: FaultSample::Count(100),
                max_evals: Some(2_000),
            },
            _ => return None,
        })
    }

    fn config(&self, circuit: &Circuit, seed: u64) -> GatestConfig {
        let mut config = GatestConfig::for_circuit(circuit).with_seed(seed);
        config.fault_sample = self.sample;
        config.max_evals = self.max_evals;
        config
    }

    /// The workload's items, with GA seeds drawn from `seed`.
    fn items(&self, seed: u64) -> Vec<Item> {
        let mut rng = Rng::new(seed);
        let mut items = Vec::new();
        for name in self.circuits {
            let circuit = Arc::new(load(name));
            for _ in 0..self.seeds_per_circuit {
                let ga_seed = rng.next_u64() >> 32;
                items.push(Item {
                    label: format!("{name}#{ga_seed}"),
                    config: self.config(&circuit, ga_seed),
                    circuit: Arc::clone(&circuit),
                });
            }
        }
        items
    }
}

fn load(name: &str) -> Circuit {
    benchmarks::iscas89(name).expect("bundled circuit loads")
}

/// One generator run to time: a circuit and a complete configuration.
pub struct Item {
    /// `circuit#seed`, for diagnostics.
    pub label: String,
    /// The circuit.
    pub circuit: Arc<Circuit>,
    /// The run's configuration.
    pub config: GatestConfig,
}

/// Observer counting evaluations up to the last detection and timing the
/// interval that ends at each evaluated GA generation.
#[derive(Default)]
struct Tally(Mutex<TallyState>);

#[derive(Default)]
struct TallyState {
    last: Option<Instant>,
    evals: u64,
    evals_to_coverage: u64,
    generation_s: Vec<f64>,
}

impl RunObserver for Tally {
    fn on_event(&self, event: &RunEvent) {
        let mut s = self.0.lock().expect("tally lock poisoned");
        match event {
            RunEvent::RunStarted { .. } => s.last = Some(Instant::now()),
            RunEvent::GaGenerationEvaluated {
                evaluations, phase, ..
            } => {
                s.evals += *evaluations as u64;
                let now = Instant::now();
                let since = s.last.map_or(0.0, |t| (now - t).as_secs_f64());
                // Phase-4 generations evolve whole sequences and cost many
                // times more; how many a run has depends on the seed, and
                // mixing them in moved the p90 by 26% between seeds.
                if *phase < 4 {
                    s.generation_s.push(since);
                }
                s.last = Some(now);
            }
            RunEvent::FaultDetected { .. } => s.evals_to_coverage = s.evals,
            _ => {}
        }
    }
}

/// One timed generator run.
pub struct ItemRun {
    /// The run's result.
    pub result: TestGenResult,
    /// `result_to_json` of the result.
    pub json: String,
    /// Wall time of `run()`, seconds.
    pub wall_s: f64,
    /// Evaluations up to the last detection.
    pub evals_to_coverage: u64,
    /// Seconds from the previous generation (or the run start) to each
    /// evaluated phase 1–3 generation, so commits count toward the next
    /// generation.
    pub generation_s: Vec<f64>,
    /// Size of the simulator's CSR adjacency arena, read before the run
    /// (the run resets the counter that carries it).
    pub csr_bytes: u64,
}

/// Builds a generator for `item` and times its `run()` against the kernel.
pub fn run_item(item: &Item, traced: bool, clock: &mut RefClock) -> ItemRun {
    let tally = Arc::new(Tally::default());
    let mut generator = TestGenerator::new(Arc::clone(&item.circuit), item.config.clone())
        .with_observer(Arc::clone(&tally) as Arc<dyn RunObserver>);
    if traced {
        generator = generator.with_instruments(Instruments::new());
    }
    let csr_bytes = generator.telemetry_counters().snapshot().csr_bytes;
    let (result, wall_s) = clock.time(|| generator.run());
    let json = result_to_json(&result);
    let state = std::mem::take(&mut *tally.0.lock().expect("tally lock poisoned"));
    ItemRun {
        result,
        json,
        wall_s,
        evals_to_coverage: state.evals_to_coverage,
        generation_s: state.generation_s,
        csr_bytes,
    }
}

/// Re-grades `run`'s test set with a fresh simulator and checks that it
/// reproduces the claimed detection count.
pub fn regrade_ok(circuit: &Arc<Circuit>, run: &ItemRun) -> bool {
    let curve = coverage_curve(circuit, &run.result.test_set);
    curve.last().copied().unwrap_or(0) == run.result.detected
}

/// Set-up cost: the medians, over repetitions, of building the netlist,
/// collapsing its fault list and constructing the generator, summed over
/// the workload's circuits.
pub struct Setup {
    /// Median total per repetition.
    pub total_s: f64,
    /// `benchmarks::iscas89`.
    pub build_s: f64,
    /// `FaultList::collapsed`.
    pub collapse_s: f64,
    /// `TestGenerator::with_faults` (the rest of `TestGenerator::new`).
    pub construct_s: f64,
    /// Repetitions taken.
    pub reps: usize,
}

/// Set-up repetitions: at least this many...
const SETUP_MIN_REPS: usize = 7;
/// ...and more, up to this many, while they take under a second in all.
const SETUP_MAX_REPS: usize = 1001;

/// Measures set-up: `benchmarks::iscas89` plus `TestGenerator::new` for
/// every circuit, repeated, before anything is timed.
pub fn measure_setup(circuits: &[(&str, GatestConfig)]) -> Setup {
    let (mut build, mut collapse, mut construct, mut total) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while total.len() < SETUP_MIN_REPS
        || (total.len() < SETUP_MAX_REPS && start.elapsed().as_secs_f64() < 1.0)
    {
        let (mut b, mut c, mut g) = (0.0, 0.0, 0.0);
        for (name, config) in circuits {
            let t0 = Instant::now();
            let circuit = Arc::new(load(name));
            let t1 = Instant::now();
            let faults = FaultList::collapsed(&circuit);
            let t2 = Instant::now();
            let generator = TestGenerator::with_faults(circuit, faults, config.clone());
            let t3 = Instant::now();
            drop(std::hint::black_box(generator));
            b += (t1 - t0).as_secs_f64();
            c += (t2 - t1).as_secs_f64();
            g += (t3 - t2).as_secs_f64();
        }
        build.push(b);
        collapse.push(c);
        construct.push(g);
        total.push(b + c + g);
    }
    Setup {
        total_s: median(&total),
        build_s: median(&build),
        collapse_s: median(&collapse),
        construct_s: median(&construct),
        reps: total.len(),
    }
}

/// Runs one ATPG workload and reports its metrics.
pub fn run(workload: &Workload, args: &Args, clock: &mut RefClock) -> Report {
    let setup_circuits: Vec<(&str, GatestConfig)> = workload
        .circuits
        .iter()
        .map(|name| (*name, workload.config(&load(name), args.seed)))
        .collect();
    let setup = measure_setup(&setup_circuits);
    let items = workload.items(args.seed);

    // The timed section: whole passes over the items while the window lasts
    // (at least one). With tracing, each item also runs instrumented next
    // to its plain run, so the two see the same host conditions; which of
    // the two goes first alternates, so neither gains from going second.
    let window = Instant::now();
    let mut plain: Vec<Vec<ItemRun>> = Vec::new();
    let mut traced: Vec<Vec<ItemRun>> = Vec::new();
    loop {
        let pass = Instant::now();
        let mut p = Vec::new();
        let mut t = Vec::new();
        for (i, item) in items.iter().enumerate() {
            if args.trace && (i + plain.len()) % 2 == 1 {
                t.push(run_item(item, true, clock));
                p.push(run_item(item, false, clock));
            } else {
                p.push(run_item(item, false, clock));
                if args.trace {
                    t.push(run_item(item, true, clock));
                }
            }
            eprintln!(
                "  {:<16} {:>9.3} s",
                item.label,
                pass.elapsed().as_secs_f64()
            );
        }
        plain.push(p);
        traced.push(t);
        let last = pass.elapsed().as_secs_f64();
        if window.elapsed().as_secs_f64() + last > args.seconds {
            break;
        }
    }

    let mut report = Report::default();
    let checking = Instant::now();
    check(workload, &items, &plain, &traced, &mut report);
    report.note("check_s", json_num(checking.elapsed().as_secs_f64()));
    let passes = plain.len();
    report.note("passes", passes.to_string());
    report.note("items", items.len().to_string());
    report.note("setup_reps", setup.reps.to_string());

    // Per item: the median over passes of its wall time and of each
    // generation interval; the workload sums times over items and pools
    // intervals, all in reference-kernel units.
    let ref_s = clock.ref_s();
    let mut run_s = 0.0;
    let mut generation_ref = Vec::new();
    for i in 0..items.len() {
        let runs: Vec<&ItemRun> = plain.iter().map(|pass| &pass[i]).collect();
        run_s += median(&runs.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        for k in 0..runs[0].generation_s.len() {
            let at: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.generation_s.get(k))
                .map(|t| t / ref_s)
                .collect();
            generation_ref.push(median(&at));
        }
    }
    report.run_s = run_s;
    report.note("latency_samples", generation_ref.len().to_string());
    report.note(
        "latency_definition",
        json_str("interval ending at each evaluated phase 1-3 GA generation, pooled over items"),
    );

    let first = &plain[0];
    report.set("setup_s", setup.total_s);
    report.set("run_ref", run_s / ref_s);
    report.set("latency_p50_ref", percentile(&generation_ref, 50.0));
    report.set("latency_p90_ref", percentile(&generation_ref, 90.0));
    report.set("peak_rss_mb", peak_rss_mb());
    report.set(
        "detected",
        first.iter().map(|r| r.result.detected as f64).sum(),
    );
    report.set(
        "vectors",
        first.iter().map(|r| r.result.vectors() as f64).sum(),
    );
    report.set(
        "evals",
        first.iter().map(|r| r.result.ga_evaluations as f64).sum(),
    );
    report.set(
        "evals_to_coverage",
        first.iter().map(|r| r.evals_to_coverage as f64).sum(),
    );
    report.set("ok_share", ok_share(&report));

    if args.trace {
        report.set("netlist.build_s", setup.build_s);
        report.set("sim.collapse_s", setup.collapse_s);
        report.set("sim.construct_s", setup.construct_s);
        let traced_runs: Vec<&ItemRun> = traced.iter().flatten().collect();
        let plain_runs: Vec<&ItemRun> = plain.iter().flatten().collect();
        layer_metrics(
            &items,
            &traced_runs,
            &plain_runs,
            passes as f64,
            &mut report,
        );
    }
    report
}

/// Share of attempted items or jobs that passed every check.
pub fn ok_share(report: &Report) -> f64 {
    if report.attempted == 0 {
        0.0
    } else {
        1.0 - report.failed as f64 / report.attempted as f64
    }
}

/// Output checks. Every run is one attempt; a run fails when its item's
/// first run fails the regrade or stop-cause check, or when its result
/// bytes or its evaluations-to-coverage differ from that first run (a
/// later pass, or the traced twin).
fn check(
    workload: &Workload,
    items: &[Item],
    plain: &[Vec<ItemRun>],
    traced: &[Vec<ItemRun>],
    report: &mut Report,
) {
    for (i, item) in items.iter().enumerate() {
        let reference = &plain[0][i];
        let stop_ok = match workload.max_evals {
            None => reference.result.stop == StopCause::Completed,
            Some(_) => reference.result.stop != StopCause::Interrupted,
        };
        let item_ok = stop_ok && regrade_ok(&item.circuit, reference);
        if !item_ok {
            eprintln!(
                "CHECK FAILED {}: stop {stop_ok}, regrade mismatch",
                item.label
            );
        }
        let runs = plain.iter().chain(traced).filter_map(|pass| pass.get(i));
        for run in runs {
            report.attempted += 1;
            let same =
                run.json == reference.json && run.evals_to_coverage == reference.evals_to_coverage;
            if !same {
                eprintln!("CHECK FAILED {}: result differs between runs", item.label);
            }
            if !(item_ok && same) {
                report.failed += 1;
            }
        }
    }
}

/// The per-layer ledger from traced runs, with span exclusive times from
/// the library's instruments. Values are per pass (`passes` divides the
/// sums), matching one pass of the end-to-end metrics.
///
/// The generator's spans (`run > generation > eval_batch > cache_lookup`,
/// `breed`) partition each run: their exclusive times plus
/// `generator.unattributed_s` equal its wall time. The simulator records
/// `sim_step > merge` in a span slot of its own, so that time is nested
/// inside `generator.run_self_s` (commits) and
/// `evalpool.eval_batch_self_s` (candidate evaluations) rather than
/// subtracted from them; `sim.step_share` gives its share of wall time.
pub fn layer_metrics(
    items: &[Item],
    traced: &[&ItemRun],
    plain: &[&ItemRun],
    passes: f64,
    report: &mut Report,
) {
    /// `SPANS[..NESTED]` are the simulator's spans, nested in the rest.
    const NESTED: usize = 2;
    const SPANS: [(&str, &str); 7] = [
        ("sim_step", "sim.step_self_s"),
        ("merge", "sim.merge_self_s"),
        ("eval_batch", "evalpool.eval_batch_self_s"),
        ("cache_lookup", "evalpool.cache_lookup_self_s"),
        ("breed", "ga.breed_self_s"),
        ("generation", "generator.generation_self_s"),
        ("run", "generator.run_self_s"),
    ];
    let mut excl = [0.0f64; SPANS.len()];
    let (mut wall, mut attributed) = (0.0, 0.0);
    let mut phase = [0.0f64; 4];
    let mut ledger = Vec::new();
    let (mut hits, mut misses, mut generations) = (0u64, 0u64, 0u64);
    let mut counters = gatest_core::telemetry::CounterSnapshot::default();
    let mut csr_bytes = 0u64;
    for (n, run) in traced.iter().enumerate() {
        let t = &run.result.telemetry;
        let mut run_excl = 0.0;
        for node in &t.spans.nodes {
            let secs = node.excl_ns as f64 * 1e-9;
            if let Some(k) = SPANS.iter().position(|(kind, _)| *kind == node.kind) {
                excl[k] += secs;
                if k >= NESTED {
                    run_excl += secs;
                }
            }
        }
        wall += run.wall_s;
        attributed += run_excl;
        if n < items.len() {
            ledger.push(format!(
                "{{\"item\":{},\"wall_s\":{},\"span_excl_s\":{},\"unattributed_s\":{}}}",
                json_str(&items[n].label),
                json_num(run.wall_s),
                json_num(run_excl),
                json_num(run.wall_s - run_excl)
            ));
        }
        for (p, d) in phase.iter_mut().zip(t.phase_time) {
            *p += d.as_secs_f64();
        }
        let c = &t.counters;
        hits += c.cache_hits;
        misses += c.cache_misses;
        generations += t.ga_generations;
        counters.gate_evals += c.gate_evals;
        counters.good_events += c.good_events;
        counters.faulty_events += c.faulty_events;
        counters.step_calls += c.step_calls;
        counters.events_amortized += c.events_amortized;
        counters.commit_batch_frames += c.commit_batch_frames;
        counters.checkpoint_restores += c.checkpoint_restores;
        counters.restore_bytes_avoided += c.restore_bytes_avoided;
        counters.dedup_skips += c.dedup_skips;
        counters.prefix_frames_avoided += c.prefix_frames_avoided;
        csr_bytes = csr_bytes.max(run.csr_bytes);
    }
    for ((_, name), secs) in SPANS.iter().zip(excl) {
        report.set(name, secs / passes);
    }
    let unattributed = wall - attributed;
    report.set("generator.unattributed_s", unattributed / passes);
    report.set(
        "sim.step_share",
        if wall > 0.0 { excl[0] / wall } else { 0.0 },
    );
    report.set(
        "sim.events_per_step_s",
        if excl[0] > 0.0 {
            (counters.good_events + counters.faulty_events) as f64 / excl[0]
        } else {
            0.0
        },
    );
    let phases = [
        "generator.phase1_s",
        "generator.phase2_s",
        "generator.phase3_s",
        "generator.phase4_s",
    ];
    for (name, secs) in phases.into_iter().zip(phase) {
        report.set(name, secs / passes);
    }
    let per_pass = |x: u64| x as f64 / passes;
    report.set("sim.csr_bytes", csr_bytes as f64);
    report.set("sim.gate_evals", per_pass(counters.gate_evals));
    report.set("sim.good_events", per_pass(counters.good_events));
    report.set("sim.faulty_events", per_pass(counters.faulty_events));
    report.set("sim.step_calls", per_pass(counters.step_calls));
    report.set("sim.events_amortized", per_pass(counters.events_amortized));
    report.set(
        "sim.commit_batch_frames",
        per_pass(counters.commit_batch_frames),
    );
    report.set("evalpool.restores", per_pass(counters.checkpoint_restores));
    report.set(
        "evalpool.restore_bytes_avoided",
        per_pass(counters.restore_bytes_avoided),
    );
    report.set("evalpool.dedup_skips", per_pass(counters.dedup_skips));
    report.set(
        "evalpool.prefix_frames_avoided",
        per_pass(counters.prefix_frames_avoided),
    );
    report.set("ga.generations", per_pass(generations));
    let lookups = hits + misses;
    report.set(
        "evalpool.cache_hit_ratio",
        if lookups > 0 {
            hits as f64 / lookups as f64
        } else {
            0.0
        },
    );
    report.note("evalpool.cache_lookups", per_pass(lookups).to_string());

    let traced_s: f64 = traced.iter().map(|r| r.wall_s).sum();
    let plain_s: f64 = plain.iter().map(|r| r.wall_s).sum();
    report.set("telemetry.overhead", traced_s / plain_s - 1.0);
    report.note("telemetry.traced_run_s", json_num(traced_s / passes));
    report.note("telemetry.untraced_run_s", json_num(plain_s / passes));
    report.note("ledger.wall_s", json_num(wall / passes));
    report.note("ledger.unattributed_share", json_num(unattributed / wall));
    report.note("ledger", format!("[{}]", ledger.join(",")));
    eprintln!(
        "ledger: wall {:.3} s, spans {:.3} s, unattributed {:.4} s ({:.2}%)",
        wall / passes,
        attributed / passes,
        unattributed / passes,
        100.0 * unattributed / wall
    );
}
