//! Fault-simulation step-throughput microbenchmark.
//!
//! Measures the number the fault-group pool exists to improve: sequential
//! fault-simulation vectors per second on s1423, at sim-thread counts 1, 2,
//! 4, and 8. Every thread count replays the same random vector stream from
//! the same warmed simulator state, and the run asserts that an identity
//! checksum — step index × fault id over every newly detected fault, plus
//! every step's faulty-event and flip-flop-effect counts — is bit-identical
//! across all of them.
//!
//! A second `width` section compares the packed-value backends (Pv64 and
//! Pv256) at serial thread count on s298 and s1423, asserting
//! the same identity checksum across widths — the backend must change
//! throughput only, never results. Smoke mode additionally replays a short
//! stream through one synthetic 10k-gate circuit at every width, so CI
//! exercises the CSR adjacency and group scheduling at a size where the
//! ISCAS89 suite cannot.
//!
//! Prints a JSON document to stdout; `scripts/bench_eval.sh` redirects it to
//! `BENCH_sim.json` so the performance trajectory is tracked across PRs.
//! Pass `--smoke` for a fast CI-sized run (same shape, fewer vectors).
//! `--validate FILE` parses FILE as a `BENCH_sim` document and checks its
//! shape, so CI can assert the smoke output is well-formed.

use std::sync::Arc;
use std::time::Instant;

use gatest_ga::Rng;
use gatest_netlist::benchmarks;
use gatest_netlist::generate::{CircuitProfile, SyntheticGenerator};
use gatest_sim::{FaultSim, Logic, SimBackend};
use gatest_telemetry::json::parse_json;

const CIRCUIT: &str = "s1423";
const SIM_THREADS: [usize; 4] = [1, 2, 4, 8];
/// Circuits the packed-backend width comparison runs on: one mid-size and
/// one tier-1-largest, so lane utilization at both group counts is covered.
const WIDTH_CIRCUITS: [&str; 2] = ["s298", "s1423"];
const WIDTH_BACKENDS: [SimBackend; 2] = [SimBackend::Scalar64, SimBackend::Wide256];
/// Bumped whenever the document shape changes; `--validate` requires it.
/// 2 added provenance (`git_revision`, `timestamp`); 3 added the `width`
/// packed-backend comparison section; 4 added the skipped-row shape for
/// thread counts the host cannot measure meaningfully.
const SCHEMA_VERSION: u64 = 4;

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
        let path = args.get(1).map(String::as_str).unwrap_or("BENCH_sim.json");
        match validate(path) {
            Ok(summary) => println!("{summary}"),
            Err(e) => {
                eprintln!("bench_sim --validate {path}: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    let smoke = args.iter().any(|a| a == "--smoke");
    if smoke {
        smoke_synthetic_10k();
    }
    let git_revision = provenance(&args, "--git-rev", "GATEST_GIT_REV");
    let timestamp = provenance(&args, "--timestamp", "GATEST_BENCH_TIMESTAMP");
    // Full mode applies enough vectors per thread count for a stable
    // baseline; smoke mode still runs long enough (~0.15 s serial) that the
    // regression gate in scripts/check_bench.sh can compare rates.
    let vectors = if smoke { 400 } else { 1500 };

    let circuit = Arc::new(benchmarks::iscas89(CIRCUIT).expect("bundled circuit"));
    let pis = circuit.num_inputs();

    // Warm the simulator into a representative mid-run state: easy faults
    // dropped, faulty flip-flop divergence accumulated.
    let mut base = FaultSim::new(Arc::clone(&circuit));
    let mut rng = Rng::new(1);
    for _ in 0..20 {
        let v: Vec<Logic> = (0..pis).map(|_| Logic::from_bool(rng.coin())).collect();
        base.step(&v);
    }
    let mut vec_rng = Rng::new(9);
    let stream: Vec<Vec<Logic>> = (0..vectors)
        .map(|_| (0..pis).map(|_| Logic::from_bool(vec_rng.coin())).collect())
        .collect();

    let host_cpus = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);

    let mut rows = String::new();
    let mut checksum: Option<u64> = None;
    for (i, &threads) in SIM_THREADS.iter().enumerate() {
        if i > 0 {
            rows.push_str(",\n");
        }
        // A thread count past the host's CPUs measures scheduler noise,
        // not throughput; record a skipped marker instead of a noise row.
        if threads > host_cpus {
            rows.push_str(&format!(
                "    {{\"sim_threads\": {threads}, \"skipped_reason\": \"sim_threads {threads} exceeds host_cpus {host_cpus}\"}}"
            ));
            eprintln!("sim_threads {threads}: skipped (exceeds host_cpus {host_cpus})");
            continue;
        }
        let mut sim = base.clone();
        sim.set_sim_threads(threads);
        let (secs, sum, events) = run_stream(&mut sim, &stream);
        match checksum {
            None => checksum = Some(sum),
            Some(c) => assert_eq!(
                c, sum,
                "sim_threads {threads} diverged from the serial detection order"
            ),
        }
        rows.push_str(&format!(
            "    {{\"sim_threads\": {threads}, \"vectors\": {vectors}, \"secs\": {secs:.4}, \"vectors_per_sec\": {:.0}, \"fault_events_per_sec\": {:.0}}}",
            vectors as f64 / secs,
            events as f64 / secs
        ));
        eprintln!(
            "sim_threads {threads}: {vectors} vectors in {secs:.2}s = {:.0} vectors/sec ({:.0} fault events/sec)",
            vectors as f64 / secs,
            events as f64 / secs
        );
    }

    println!(
        "{{\n  \"bench\": \"step_throughput\",\n  \"schema_version\": {SCHEMA_VERSION},\n  \"git_revision\": \"{git_revision}\",\n  \"timestamp\": \"{timestamp}\",\n  \"circuit\": \"{CIRCUIT}\",\n  \"mode\": \"{}\",\n  \"host_cpus\": {host_cpus},\n  \"identity_checksum\": {},\n  \"results\": [\n{rows}\n  ],\n  \"width\": [\n{}\n  ]\n}}",
        if smoke { "smoke" } else { "full" },
        checksum.unwrap_or(0),
        width_rows(smoke)
    );
}

/// Replays `stream` through `sim`, returning elapsed seconds, the identity
/// checksum (step index × fault id over every newly detected fault plus
/// per-step faulty-event and flip-flop-effect counts — all width- and
/// thread-invariant), and the total faulty-event count.
fn run_stream(sim: &mut FaultSim, stream: &[Vec<Logic>]) -> (f64, u64, u64) {
    let mut events = 0u64;
    let mut sum = 0u64;
    let start = Instant::now();
    for (n, v) in stream.iter().enumerate() {
        let report = sim.step(v);
        events += report.faulty_events;
        sum = sum
            .wrapping_add(report.faulty_events.wrapping_mul(n as u64 + 1))
            .wrapping_add(report.ff_effect_pairs);
        for f in &report.newly_detected {
            sum = sum.wrapping_add((n as u64 + 1).wrapping_mul(f.index() as u64 + 1));
        }
    }
    (start.elapsed().as_secs_f64(), sum, events)
}

/// Smoke-only shakeout on a circuit an order of magnitude past tier 1: a
/// short random stream through one synthetic 10k-gate machine, each packed
/// width replaying it bit-identically. Stderr only — the committed JSON
/// tracks the ISCAS89 numbers; this exists so CI exercises the levelized
/// CSR and group scheduling at a size where s1423 cannot.
fn smoke_synthetic_10k() {
    let profile = CircuitProfile {
        name: String::from("smoke_10k"),
        inputs: 64,
        outputs: 32,
        dffs: 128,
        gates: 10_000,
        seq_depth: 4,
    };
    let circuit = Arc::new(SyntheticGenerator::new(94).generate(&profile));
    let pis = circuit.num_inputs();
    let mut base = FaultSim::new(Arc::clone(&circuit));
    let mut rng = Rng::new(1);
    for _ in 0..8 {
        let v: Vec<Logic> = (0..pis).map(|_| Logic::from_bool(rng.coin())).collect();
        base.step(&v);
    }
    let mut vec_rng = Rng::new(9);
    let stream: Vec<Vec<Logic>> = (0..24)
        .map(|_| (0..pis).map(|_| Logic::from_bool(vec_rng.coin())).collect())
        .collect();
    let mut reference: Option<u64> = None;
    for backend in WIDTH_BACKENDS {
        let mut sim = base.clone();
        sim.set_backend(backend);
        let (secs, sum, _) = run_stream(&mut sim, &stream);
        match reference {
            None => reference = Some(sum),
            Some(c) => assert_eq!(
                c,
                sum,
                "synthetic 10k: {} diverged from the scalar64 results",
                backend.name()
            ),
        }
        eprintln!(
            "smoke synthetic 10k {}: {} vectors in {secs:.2}s = {:.0} vectors/sec",
            backend.name(),
            stream.len(),
            stream.len() as f64 / secs
        );
    }
}

/// The packed-backend comparison: serial step throughput per backend per
/// circuit, asserting the identity checksum is bit-identical across widths.
/// Wide rows carry `speedup_vs_scalar64` so the trajectory of the wide
/// backend's advantage is tracked directly in the committed baseline.
fn width_rows(smoke: bool) -> String {
    let mut rows = String::new();
    for &name in &WIDTH_CIRCUITS {
        let circuit = Arc::new(benchmarks::iscas89(name).expect("bundled circuit"));
        let pis = circuit.num_inputs();
        let mut base = FaultSim::new(Arc::clone(&circuit));
        let mut rng = Rng::new(1);
        for _ in 0..20 {
            let v: Vec<Logic> = (0..pis).map(|_| Logic::from_bool(rng.coin())).collect();
            base.step(&v);
        }
        let vectors = match (smoke, name) {
            (true, _) => 200,
            (false, "s1423") => 1500,
            (false, _) => 4000,
        };
        let mut vec_rng = Rng::new(9);
        let stream: Vec<Vec<Logic>> = (0..vectors)
            .map(|_| (0..pis).map(|_| Logic::from_bool(vec_rng.coin())).collect())
            .collect();
        let mut reference: Option<(u64, f64)> = None;
        for backend in WIDTH_BACKENDS {
            let mut sim = base.clone();
            sim.set_backend(backend);
            let (secs, sum, _) = run_stream(&mut sim, &stream);
            let rate = vectors as f64 / secs;
            let speedup = match reference {
                None => {
                    reference = Some((sum, rate));
                    String::new()
                }
                Some((c, scalar_rate)) => {
                    assert_eq!(
                        c,
                        sum,
                        "{name}: {} diverged from the scalar64 results",
                        backend.name()
                    );
                    format!(", \"speedup_vs_scalar64\": {:.3}", rate / scalar_rate)
                }
            };
            if !rows.is_empty() {
                rows.push_str(",\n");
            }
            rows.push_str(&format!(
                "    {{\"circuit\": \"{name}\", \"backend\": \"{}\", \"lanes\": {}, \"vectors\": {vectors}, \"secs\": {secs:.4}, \"vectors_per_sec\": {rate:.0}, \"identity_checksum\": {sum}{speedup}}}",
                backend.name(),
                backend.lanes()
            ));
            eprintln!(
                "width {name} {}: {vectors} vectors in {secs:.2}s = {rate:.0} vectors/sec",
                backend.name()
            );
        }
    }
    rows
}

/// Parses `path` as a `BENCH_sim` document and checks every field the
/// scaling-curve consumers rely on. Returns a one-line summary on success.
fn validate(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read failed: {e}"))?;
    let doc = parse_json(&text)?;
    let field = |key: &str| doc.get(key).ok_or_else(|| format!("missing `{key}`"));
    let bench = field("bench")?.as_str().ok_or("`bench` is not a string")?;
    if bench != "step_throughput" {
        return Err(format!("`bench` is `{bench}`, expected `step_throughput`"));
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
    field("identity_checksum")?
        .as_u64()
        .ok_or("`identity_checksum` is not an integer")?;
    let results = field("results")?
        .as_array()
        .ok_or("`results` is not an array")?;
    if results.is_empty() {
        return Err("`results` is empty".into());
    }
    let mut measured = 0usize;
    for (i, row) in results.iter().enumerate() {
        row.get("sim_threads")
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("results[{i}] missing numeric `sim_threads`"))?;
        // A row is either a skipped marker (reason, no measurements) or a
        // full measurement; both shapes are valid baselines so single-CPU
        // hosts never commit noise rows for thread counts they lack.
        if let Some(reason) = row.get("skipped_reason") {
            reason
                .as_str()
                .ok_or_else(|| format!("results[{i}] `skipped_reason` is not a string"))?;
            continue;
        }
        measured += 1;
        for key in ["vectors", "secs", "vectors_per_sec", "fault_events_per_sec"] {
            row.get(key)
                .and_then(|v| v.as_f64())
                .ok_or_else(|| format!("results[{i}] missing numeric `{key}`"))?;
        }
    }
    if measured == 0 {
        return Err("`results` has no measured rows, only skipped".into());
    }
    let width = field("width")?
        .as_array()
        .ok_or("`width` is not an array")?;
    if width.is_empty() {
        return Err("`width` is empty".into());
    }
    for (i, row) in width.iter().enumerate() {
        for key in ["circuit", "backend"] {
            row.get(key)
                .and_then(|v| v.as_str())
                .ok_or_else(|| format!("width[{i}] missing string `{key}`"))?;
        }
        for key in [
            "lanes",
            "vectors",
            "secs",
            "vectors_per_sec",
            "identity_checksum",
        ] {
            row.get(key)
                .and_then(|v| v.as_f64())
                .ok_or_else(|| format!("width[{i}] missing numeric `{key}`"))?;
        }
    }
    // Per circuit, every backend row must report the same identity checksum
    // — the baseline itself is proof the widths agreed when it was recorded.
    for circuit in WIDTH_CIRCUITS {
        let sums: Vec<f64> = width
            .iter()
            .filter(|r| r.get("circuit").and_then(|v| v.as_str()) == Some(circuit))
            .filter_map(|r| r.get("identity_checksum").and_then(|v| v.as_f64()))
            .collect();
        if sums.len() < WIDTH_BACKENDS.len() {
            return Err(format!("`width` is missing backend rows for `{circuit}`"));
        }
        if sums.iter().any(|&s| s != sums[0]) {
            return Err(format!(
                "`width` checksums disagree across backends for `{circuit}`"
            ));
        }
    }
    Ok(format!(
        "{path} ok: {} thread counts, {} width rows, host_cpus {cpus}",
        results.len(),
        width.len()
    ))
}
