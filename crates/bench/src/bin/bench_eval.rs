//! Candidate-evaluation throughput microbenchmark.
//!
//! Measures the number the evaluation engine exists to improve: candidate
//! fitness evaluations per second on s1423, at worker counts 1, 4, and 8.
//! Candidates are phase-2 vectors scored against a 100-fault sample from a
//! warmed mid-run simulator state — the same work the GA's inner loop does.
//! Serial rows score each 64-candidate batch with one
//! `evaluate_candidates` call, as the generator does, and the `slots`
//! section times that batch both ways, interleaved: one candidate per
//! fault group, and two candidates per 256-lane group.
//!
//! Prints a JSON document to stdout; `scripts/bench_eval.sh` redirects it to
//! `BENCH_eval.json` so the performance trajectory is tracked across PRs.
//! Pass `--smoke` for a fast CI-sized run (same shape, fewer batches).
//! `--validate FILE` parses FILE as a `BENCH_eval` document and checks its
//! shape, so CI can assert the recorded baseline is well-formed.

use std::sync::Arc;
use std::time::Instant;

use gatest_core::{
    evaluate_candidates, EvalContext, EvalJob, EvalMemo, EvalPool, FitnessScale, Phase,
};
use gatest_ga::{Chromosome, Rng};
use gatest_netlist::benchmarks;
use gatest_sim::{FaultSim, Logic, SimBackend};
use gatest_telemetry::json::parse_json;
use gatest_telemetry::{Instruments, SimCounters};

const CIRCUIT: &str = "s1423";
const WORKERS: [usize; 3] = [1, 4, 8];
const BATCH: usize = 64;
const SAMPLE: usize = 100;
/// Distinct chromosomes in the duplicate-heavy cache workload's 64-batch.
const CACHE_DISTINCT: usize = 8;
/// Bumped whenever the document shape changes; `--validate` requires it.
/// 2 added provenance (`git_revision`, `timestamp`) and the `overhead`
/// section; 3 the `slots` section.
const SCHEMA_VERSION: u64 = 3;

/// `--NAME VALUE` from the args, else the `env` variable, else `"unknown"`.
/// Benchmarks never read the clock or the repo themselves — provenance is
/// caller-supplied so the emitted document stays deterministic.
fn provenance(args: &[String], name: &str, env: &str) -> String {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
        .or_else(|| std::env::var(env).ok())
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| String::from("unknown"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--validate") {
        let path = args.get(1).map(String::as_str).unwrap_or("BENCH_eval.json");
        match validate(path) {
            Ok(summary) => println!("{summary}"),
            Err(e) => {
                eprintln!("bench_eval --validate {path}: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    let smoke = args.iter().any(|a| a == "--smoke");
    let git_revision = provenance(&args, "--git-rev", "GATEST_GIT_REV");
    let timestamp = provenance(&args, "--timestamp", "GATEST_BENCH_TIMESTAMP");
    // Full mode runs ~2 s per worker count for a stable baseline; smoke mode
    // still runs long enough (~0.4 s serial) that the regression gate in
    // scripts/check_bench.sh can compare its rate against the baseline.
    let batches = if smoke { 120 } else { 600 };

    let circuit = Arc::new(benchmarks::iscas89(CIRCUIT).expect("bundled circuit"));
    let pis = circuit.num_inputs();

    // Warm the simulator into a representative mid-run state: some faults
    // detected, faulty flip-flop divergence accumulated.
    let mut sim = FaultSim::new(Arc::clone(&circuit));
    let mut rng = Rng::new(1);
    for _ in 0..20 {
        let v: Vec<Logic> = (0..pis).map(|_| Logic::from_bool(rng.coin())).collect();
        sim.step(&v);
    }

    let sample: Vec<_> = sim.active_faults().iter().copied().take(SAMPLE).collect();
    let scale = FitnessScale {
        faults: sample.len(),
        flip_flops: circuit.num_dffs(),
        nodes: circuit.num_gates(),
    };
    let ctx = Arc::new(EvalContext {
        epoch: 1,
        checkpoint: sim.checkpoint(),
        job: EvalJob::Vector {
            phase: Phase::VectorGeneration,
            sample,
            scale,
            pis,
        },
    });

    let mut chrom_rng = Rng::new(7);
    let batch: Vec<Chromosome> = (0..BATCH)
        .map(|_| Chromosome::random(pis, &mut chrom_rng))
        .collect();

    let host_cpus = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);

    let mut rows = String::new();
    let mut checksum = 0.0f64;
    for (i, &workers) in WORKERS.iter().enumerate() {
        let evals = batches * batch.len();
        let start = Instant::now();
        if workers == 1 {
            let mut serial = sim.clone();
            let mut scratch = Vec::new();
            for _ in 0..batches {
                for score in evaluate_candidates(&mut serial, &ctx, &batch, &mut scratch) {
                    checksum += score;
                }
            }
        } else {
            let pool = EvalPool::new(&sim, workers);
            for _ in 0..batches {
                checksum += pool.evaluate(&ctx, &batch).iter().sum::<f64>();
            }
        }
        let secs = start.elapsed().as_secs_f64();
        if i > 0 {
            rows.push_str(",\n");
        }
        rows.push_str(&format!(
            "    {{\"workers\": {workers}, \"evals\": {evals}, \"secs\": {secs:.4}, \"evals_per_sec\": {:.0}}}",
            evals as f64 / secs
        ));
        eprintln!(
            "workers {workers}: {evals} evals in {secs:.2}s = {:.0} evals/sec",
            evals as f64 / secs
        );
    }

    let cache = cache_section(&sim, &ctx, pis, batches);
    let overhead = overhead_section(&sim, &ctx, &batch, batches);
    let slots = slots_section(&sim, &ctx, &batch, batches);

    println!(
        "{{\n  \"bench\": \"eval_throughput\",\n  \"schema_version\": {SCHEMA_VERSION},\n  \"git_revision\": \"{git_revision}\",\n  \"timestamp\": \"{timestamp}\",\n  \"circuit\": \"{CIRCUIT}\",\n  \"mode\": \"{}\",\n  \"host_cpus\": {host_cpus},\n  \"batch\": {BATCH},\n  \"fault_sample\": {SAMPLE},\n  \"score_checksum\": {checksum:.6},\n  \"results\": [\n{rows}\n  ],\n  \"cache\": {cache},\n  \"overhead\": {overhead},\n  \"slots\": [\n{slots}\n  ]\n}}",
        if smoke { "smoke" } else { "full" }
    );
}

/// The fault-group layout workload: the serial loop's batch scored with one
/// `evaluate_candidates` call per batch, by a simulator pinned to 64-lane
/// groups (one candidate per group, two groups per 100-fault candidate) and
/// by one under `auto` (two candidates per 256-lane group). The two sides
/// alternate batch by batch, which side goes first flipping each batch, so
/// host drift hits both alike. Each side's scores, summed candidate by
/// candidate, must equal the serial row's bit for bit. Returns the two
/// `"slots"` rows.
fn slots_section(
    sim: &FaultSim,
    ctx: &Arc<EvalContext>,
    batch: &[Chromosome],
    batches: usize,
) -> String {
    let mut sides: Vec<(&str, FaultSim)> = [
        ("alone", SimBackend::Scalar64),
        ("slotted", SimBackend::Auto),
    ]
    .into_iter()
    .map(|(layout, backend)| {
        let mut sim = sim.clone();
        sim.set_backend(backend);
        (layout, sim)
    })
    .collect();
    let mut secs = [0.0f64; 2];
    let mut sums = [0.0f64; 2];
    let mut scratch = Vec::new();
    for round in 0..batches {
        for k in 0..2 {
            let side = if round % 2 == 0 { k } else { 1 - k };
            let start = Instant::now();
            let scores = evaluate_candidates(&mut sides[side].1, ctx, batch, &mut scratch);
            secs[side] += start.elapsed().as_secs_f64();
            for score in scores {
                sums[side] += score;
            }
        }
    }
    assert_eq!(
        sums[0].to_bits(),
        sums[1].to_bits(),
        "slotted scores must be bit-identical to scores computed alone"
    );
    let evals = batches * batch.len();
    let rows: Vec<String> = sides
        .iter()
        .zip(secs)
        .zip(sums)
        .map(|(((layout, sim), secs), sum)| {
            let per_group = sim.backend().score_slots(SAMPLE, sim.circuit());
            eprintln!(
                "slots {layout}: {per_group} candidate(s) per group, {evals} evals in {secs:.2}s = {:.0} evals/sec",
                evals as f64 / secs
            );
            format!(
                "    {{\"layout\": \"{layout}\", \"candidates_per_group\": {per_group}, \"evals\": {evals}, \"secs\": {secs:.4}, \"evals_per_sec\": {:.0}, \"score_sum\": {:.6}}}",
                evals as f64 / secs,
                sum
            )
        })
        .collect();
    rows.join(",\n")
}

/// The instrumentation-overhead workload: the serial evaluation loop run
/// with and without an [`Instruments`] bundle attached to the simulator.
/// The two sides alternate in single-batch chunks so machine-load
/// drift during the measurement hits both equally, and `overhead_frac`
/// compares the two sides' fastest chunk — timer noise is one-sided
/// (preemption only ever adds time), so the per-side minimum tracks the
/// true uncontended cost, where whole-pass best-of-N and interleaved
/// totals both swung several percent on a busy host. Scores must be
/// bit-identical —
/// instrumentation is observational only — and `scripts/check_bench.sh`
/// gates `overhead_frac`: 5% on the committed full-mode baseline (typical
/// readings are 0-1%; per-process memory-layout jitter sets the
/// measurement floor), looser on short smoke runs where timer noise
/// dominates. Returns the `"overhead"` JSON object.
fn overhead_section(
    sim: &FaultSim,
    ctx: &Arc<EvalContext>,
    batch: &[Chromosome],
    batches: usize,
) -> String {
    let mut plain_sim = sim.clone();
    plain_sim.set_instruments(None);
    let mut instr_sim = sim.clone();
    instr_sim.set_instruments(Some(Instruments::new()));
    let (mut plain_scratch, mut instr_scratch) = (Vec::new(), Vec::new());
    let (mut plain_secs, mut instr_secs) = (0.0f64, 0.0f64);
    let (mut plain_sum, mut instr_sum) = (0.0f64, 0.0f64);
    let (mut plain_chunks, mut instr_chunks) = (Vec::new(), Vec::new());

    let mut run_plain = |n: usize| {
        let start = Instant::now();
        for _ in 0..n {
            for score in evaluate_candidates(&mut plain_sim, ctx, batch, &mut plain_scratch) {
                plain_sum += score;
            }
        }
        start.elapsed().as_secs_f64()
    };
    let mut run_instr = |n: usize| {
        let start = Instant::now();
        for _ in 0..n {
            for score in evaluate_candidates(&mut instr_sim, ctx, batch, &mut instr_scratch) {
                instr_sum += score;
            }
        }
        start.elapsed().as_secs_f64()
    };

    let chunk = 1; // one batch (~3 ms): small enough that some chunks dodge every preemption blip
    let (mut done, mut index) = (0, 0usize);
    while done < batches {
        let n = chunk.min(batches - done);
        // ABBA ordering: which side runs first flips each chunk, so a
        // monotone machine slowdown inflates and deflates the ratios in
        // equal measure instead of biasing them all one way.
        let (plain_chunk, instr_chunk) = if index % 2 == 0 {
            let p = run_plain(n);
            (p, run_instr(n))
        } else {
            let i = run_instr(n);
            (run_plain(n), i)
        };
        plain_secs += plain_chunk;
        instr_secs += instr_chunk;
        // The first chunk pays one-time warm-up (allocation, cache fill)
        // on whichever side runs first; keep its time but drop its sample.
        if index > 0 {
            plain_chunks.push(plain_chunk);
            instr_chunks.push(instr_chunk);
        }
        done += n;
        index += 1;
    }
    assert_eq!(
        plain_sum.to_bits(),
        instr_sum.to_bits(),
        "instrumented scores must be bit-identical to uninstrumented"
    );

    let evals = batches * batch.len();
    // Ratio of per-side fastest chunks; clamped at zero because the gate
    // (and the shell-side number scraper) only care about slowdowns, and
    // small negative readings are timer noise.
    let fastest = |samples: &[f64]| samples.iter().copied().fold(f64::INFINITY, f64::min);
    let (plain_best, instr_best) = (fastest(&plain_chunks), fastest(&instr_chunks));
    let ratio = if plain_best.is_finite() && plain_best > 0.0 {
        instr_best / plain_best
    } else {
        1.0
    };
    let overhead_frac = (ratio - 1.0).max(0.0);
    eprintln!(
        "overhead: plain {plain_secs:.2}s, instrumented {instr_secs:.2}s, fastest-chunk ratio {ratio:.4} = {:.2}% over {} interleaved chunks",
        100.0 * overhead_frac,
        plain_chunks.len()
    );
    format!(
        "{{\"evals\": {evals}, \"plain_secs\": {plain_secs:.4}, \"plain_evals_per_sec\": {:.0}, \"instrumented_secs\": {instr_secs:.4}, \"instrumented_evals_per_sec\": {:.0}, \"overhead_frac\": {overhead_frac:.4}}}",
        evals as f64 / plain_secs,
        evals as f64 / instr_secs
    )
}

/// The duplicate-heavy memoization workload: a 64-batch built from
/// [`CACHE_DISTINCT`] distinct chromosomes, re-evaluated for `batches`
/// rounds. GA populations converge toward exactly this shape — elites and
/// clones recur within and across generations — so the serial uncached loop
/// is the honest baseline and the memoized path's win comes from eliminated
/// simulation, not from extra threads. Returns the `"cache"` JSON object.
fn cache_section(sim: &FaultSim, ctx: &Arc<EvalContext>, pis: usize, batches: usize) -> String {
    let mut chrom_rng = Rng::new(11);
    let distinct: Vec<Chromosome> = (0..CACHE_DISTINCT)
        .map(|_| Chromosome::random(pis, &mut chrom_rng))
        .collect();
    let batch: Vec<Chromosome> = (0..BATCH)
        .map(|i| distinct[i % CACHE_DISTINCT].clone())
        .collect();
    let evals = batches * batch.len();

    let mut serial = sim.clone();
    let mut scratch = Vec::new();
    let baseline_scores = evaluate_candidates(&mut serial, ctx, &batch, &mut scratch);
    let start = Instant::now();
    let mut baseline_sum = 0.0f64;
    for _ in 0..batches {
        // Per-batch sums, matching the memoized loop's accumulation order,
        // so the bit-equality assertion below compares identical reductions.
        baseline_sum += evaluate_candidates(&mut serial, ctx, &batch, &mut scratch)
            .iter()
            .sum::<f64>();
    }
    let baseline_secs = start.elapsed().as_secs_f64();

    let mut memo = EvalMemo::new(4096).expect("memoization enabled");
    let counters = SimCounters::default();
    let start = Instant::now();
    let mut memo_sum = 0.0f64;
    for round in 0..batches {
        let scores = memo.evaluate(ctx, &batch, Some(&counters), |work| {
            evaluate_candidates(&mut serial, ctx, work, &mut scratch)
        });
        memo_sum += scores.iter().sum::<f64>();
        if round == 0 {
            for (a, b) in baseline_scores.iter().zip(&scores) {
                assert_eq!(a.to_bits(), b.to_bits(), "memoized scores must be exact");
            }
        }
    }
    let memo_secs = start.elapsed().as_secs_f64();
    assert_eq!(
        baseline_sum.to_bits(),
        memo_sum.to_bits(),
        "memoized totals must be exact"
    );

    let snap = counters.snapshot();
    let speedup = baseline_secs / memo_secs;
    eprintln!(
        "cache: {evals} evals ({CACHE_DISTINCT} distinct) baseline {baseline_secs:.2}s, memoized {memo_secs:.2}s = {speedup:.1}x ({} hits, {} misses, {} dedup skips)",
        snap.cache_hits, snap.cache_misses, snap.dedup_skips
    );
    format!(
        "{{\"distinct\": {CACHE_DISTINCT}, \"batch\": {BATCH}, \"evals\": {evals}, \"baseline_secs\": {baseline_secs:.4}, \"baseline_evals_per_sec\": {:.0}, \"memo_secs\": {memo_secs:.4}, \"memo_evals_per_sec\": {:.0}, \"speedup\": {speedup:.2}, \"cache_hits\": {}, \"cache_misses\": {}, \"dedup_skips\": {}}}",
        evals as f64 / baseline_secs,
        evals as f64 / memo_secs,
        snap.cache_hits,
        snap.cache_misses,
        snap.dedup_skips
    )
}

/// Parses `path` as a `BENCH_eval` document and checks every field the
/// regression gate and scaling-curve consumers rely on. Returns a one-line
/// summary on success.
fn validate(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read failed: {e}"))?;
    let doc = parse_json(&text)?;
    let field = |key: &str| doc.get(key).ok_or_else(|| format!("missing `{key}`"));
    let bench = field("bench")?.as_str().ok_or("`bench` is not a string")?;
    if bench != "eval_throughput" {
        return Err(format!("`bench` is `{bench}`, expected `eval_throughput`"));
    }
    let version = field("schema_version")?
        .as_u64()
        .ok_or("`schema_version` is not an integer")?;
    if version != SCHEMA_VERSION {
        return Err(format!(
            "`schema_version` is {version}, expected {SCHEMA_VERSION}"
        ));
    }
    field("git_revision")?
        .as_str()
        .ok_or("`git_revision` is not a string")?;
    field("timestamp")?
        .as_str()
        .ok_or("`timestamp` is not a string")?;
    field("circuit")?
        .as_str()
        .ok_or("`circuit` is not a string")?;
    field("mode")?.as_str().ok_or("`mode` is not a string")?;
    let cpus = field("host_cpus")?
        .as_u64()
        .ok_or("`host_cpus` is not an integer")?;
    field("batch")?
        .as_u64()
        .ok_or("`batch` is not an integer")?;
    field("fault_sample")?
        .as_u64()
        .ok_or("`fault_sample` is not an integer")?;
    field("score_checksum")?
        .as_f64()
        .ok_or("`score_checksum` is not a number")?;
    let results = field("results")?
        .as_array()
        .ok_or("`results` is not an array")?;
    if results.is_empty() {
        return Err("`results` is empty".into());
    }
    for (i, row) in results.iter().enumerate() {
        for key in ["workers", "evals", "secs", "evals_per_sec"] {
            row.get(key)
                .and_then(|v| v.as_f64())
                .ok_or_else(|| format!("results[{i}] missing numeric `{key}`"))?;
        }
    }
    let cache = field("cache")?;
    for key in [
        "distinct",
        "batch",
        "evals",
        "baseline_secs",
        "baseline_evals_per_sec",
        "memo_secs",
        "memo_evals_per_sec",
        "speedup",
        "cache_hits",
        "cache_misses",
        "dedup_skips",
    ] {
        cache
            .get(key)
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("cache section missing numeric `{key}`"))?;
    }
    let overhead = field("overhead")?;
    for key in [
        "evals",
        "plain_secs",
        "plain_evals_per_sec",
        "instrumented_secs",
        "instrumented_evals_per_sec",
        "overhead_frac",
    ] {
        overhead
            .get(key)
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("overhead section missing numeric `{key}`"))?;
    }
    let slots = field("slots")?
        .as_array()
        .ok_or("`slots` is not an array")?;
    let layouts: Vec<&str> = slots
        .iter()
        .filter_map(|row| row.get("layout").and_then(|v| v.as_str()))
        .collect();
    if layouts != ["alone", "slotted"] {
        return Err(format!(
            "`slots` rows are {layouts:?}, expected [\"alone\", \"slotted\"]"
        ));
    }
    for (i, row) in slots.iter().enumerate() {
        for key in [
            "candidates_per_group",
            "evals",
            "secs",
            "evals_per_sec",
            "score_sum",
        ] {
            row.get(key)
                .and_then(|v| v.as_f64())
                .ok_or_else(|| format!("slots[{i}] missing numeric `{key}`"))?;
        }
    }
    let speedup = cache.get("speedup").and_then(|v| v.as_f64()).unwrap_or(0.0);
    let frac = overhead
        .get("overhead_frac")
        .and_then(|v| v.as_f64())
        .unwrap_or(0.0);
    Ok(format!(
        "{path} ok: {} worker counts, host_cpus {cpus}, cache speedup {speedup:.2}x, instrumentation overhead {:.1}%",
        results.len(),
        100.0 * frac
    ))
}
