//! Fault-simulation step-throughput microbenchmark.
//!
//! Measures sequential fault-simulation vectors per second on s1423: one
//! `results` row replays a random vector stream from a warmed simulator
//! state, pinned to `scalar64`, and records an identity checksum — step
//! index × fault id over every newly detected fault, plus every step's
//! faulty-event and flip-flop-effect counts.
//!
//! A second `width` section compares the packed-value backends — pinned
//! Pv64 and Pv256, and `auto`, which picks each step's width
//! ([`SimBackend::for_step`]) — on s298 and s1423, asserting the same
//! identity checksum across widths — the backend must change throughput
//! only, never results.
//! The widths replay the stream in interleaved chunks, so a slow spell of
//! the host lands on every width alike instead of on one row. Smoke mode
//! additionally replays a short stream through one synthetic
//! 10k-gate circuit at every width, so CI exercises the CSR adjacency and
//! group scheduling at a size where the ISCAS89 suite cannot.
//!
//! A third `sequence` section times phase-4 candidate scoring: from a
//! warmed s298 full-list checkpoint it scores a fixed set of random
//! 16-frame candidates over the active list, once as one-vector
//! `step_sampled` calls and once as sampled windows, alternating the two
//! forms chunk by chunk, and asserts both forms report the same checksum.
//!
//! A fourth `good` section times the good machine alone: `GoodSim::apply`
//! frames per second on s298 and s1423, replaying a fixed random stream
//! from the all-X state. Each row records a checksum over every frame's
//! `events`, `ffs_set` and `ffs_changed` for one pass of the stream, and
//! `--validate` replays the stream to check it.
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
use gatest_sim::{FaultSim, GoodSim, Logic, SimBackend, StepReport};
use gatest_telemetry::json::parse_json;

const CIRCUIT: &str = "s1423";
/// Circuits the packed-backend width comparison runs on: one mid-size and
/// one tier-1-largest, so lane utilization at both group counts is covered.
const WIDTH_CIRCUITS: [&str; 2] = ["s298", "s1423"];
const WIDTH_BACKENDS: [SimBackend; 3] =
    [SimBackend::Scalar64, SimBackend::Wide256, SimBackend::Auto];
/// Vectors each width replays in turn in the `width` section.
const WIDTH_CHUNK: usize = 50;
/// The circuit the `sequence` section scores candidates on.
const SEQUENCE_CIRCUIT: &str = "s298";
/// Frames per candidate in the `sequence` section.
const SEQUENCE_FRAMES: usize = 16;
/// Candidates each form scores in turn in the `sequence` section.
const SEQUENCE_CHUNK: usize = 8;
/// The two forms the `sequence` section scores candidates in.
const SEQUENCE_FORMS: [&str; 2] = ["serial", "window"];
/// Circuits the `good` section times the good machine on.
const GOOD_CIRCUITS: [&str; 2] = ["s298", "s1423"];
/// Vectors in the `good` section's fixed stream; the checksum covers one
/// pass of it.
const GOOD_STREAM: usize = 1000;
/// Bumped whenever the document shape changes; `--validate` requires it.
/// 2 added provenance (`git_revision`, `timestamp`); 3 added the `width`
/// packed-backend comparison section; 4 added the skipped-row shape for
/// thread counts the host cannot measure meaningfully; 5 dropped the
/// sim-thread sweep, leaving one serial `scalar64` row in `results`; 6
/// added the `sequence` section; 7 added the `good` section.
const SCHEMA_VERSION: u64 = 7;

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
    // Full mode applies enough vectors for a stable baseline; smoke mode
    // still runs long enough (~0.15 s) that the regression gate in
    // scripts/check_bench.sh can compare rates.
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

    base.set_backend(SimBackend::Scalar64);
    let (secs, checksum, events) = run_stream(&mut base, &stream, 0);
    let row = format!(
        "    {{\"backend\": \"scalar64\", \"vectors\": {vectors}, \"secs\": {secs:.4}, \"vectors_per_sec\": {:.0}, \"fault_events_per_sec\": {:.0}}}",
        vectors as f64 / secs,
        events as f64 / secs
    );
    eprintln!(
        "{CIRCUIT} scalar64: {vectors} vectors in {secs:.2}s = {:.0} vectors/sec ({:.0} fault events/sec)",
        vectors as f64 / secs,
        events as f64 / secs
    );

    println!(
        "{{\n  \"bench\": \"step_throughput\",\n  \"schema_version\": {SCHEMA_VERSION},\n  \"git_revision\": \"{git_revision}\",\n  \"timestamp\": \"{timestamp}\",\n  \"circuit\": \"{CIRCUIT}\",\n  \"mode\": \"{}\",\n  \"host_cpus\": {host_cpus},\n  \"identity_checksum\": {checksum},\n  \"results\": [\n{row}\n  ],\n  \"width\": [\n{}\n  ],\n  \"sequence\": [\n{}\n  ],\n  \"good\": [\n{}\n  ]\n}}",
        if smoke { "smoke" } else { "full" },
        width_rows(smoke),
        sequence_rows(smoke),
        good_rows(smoke)
    );
}

/// Replays `stream` through `sim`, returning elapsed seconds, the identity
/// checksum (step index × fault id over every newly detected fault plus
/// per-step faulty-event and flip-flop-effect counts — all
/// width-invariant), and the total faulty-event count. `first` is the
/// stream index of `stream[0]`, so the checksums of consecutive chunks add
/// up to the whole stream's.
fn run_stream(sim: &mut FaultSim, stream: &[Vec<Logic>], first: usize) -> (f64, u64, u64) {
    let mut events = 0u64;
    let mut sum = 0u64;
    let start = Instant::now();
    for (n, v) in (first..).zip(stream) {
        let report = sim.step(v);
        events += report.faulty_events;
        sum = add_report(sum, n, &report);
    }
    (start.elapsed().as_secs_f64(), sum, events)
}

/// Adds the report of stream index `n` to the identity checksum `sum`.
fn add_report(sum: u64, n: usize, report: &StepReport) -> u64 {
    let mut sum = sum
        .wrapping_add(report.faulty_events.wrapping_mul(n as u64 + 1))
        .wrapping_add(report.ff_effect_pairs);
    for f in &report.newly_detected {
        sum = sum.wrapping_add((n as u64 + 1).wrapping_mul(f.index() as u64 + 1));
    }
    sum
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
        let (secs, sum, _) = run_stream(&mut sim, &stream, 0);
        match reference {
            None => reference = Some(sum),
            Some(c) => assert_eq!(
                c, sum,
                "synthetic 10k: {backend} diverged from the scalar64 results"
            ),
        }
        eprintln!(
            "smoke synthetic 10k {backend}: {} vectors in {secs:.2}s = {:.0} vectors/sec",
            stream.len(),
            stream.len() as f64 / secs
        );
    }
}

/// The packed-backend comparison: serial step throughput per backend per
/// circuit, asserting the identity checksum is bit-identical across widths.
/// The `wide256` and `auto` rows carry `speedup_vs_scalar64` so the
/// trajectory of their advantage is tracked directly in the committed
/// baseline. An `auto` row reports the most lanes a group may carry.
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
        // s298 replays its full stream in smoke mode too: its steps take
        // microseconds, and its wide/scalar ratio, which the smoke gate
        // holds against the committed full-mode row, grows with the stream
        // length.
        let vectors = match (smoke, name) {
            (true, "s1423") => 200,
            (false, "s1423") => 1500,
            _ => 4000,
        };
        let mut vec_rng = Rng::new(9);
        let stream: Vec<Vec<Logic>> = (0..vectors)
            .map(|_| (0..pis).map(|_| Logic::from_bool(vec_rng.coin())).collect())
            .collect();
        // Per width: simulator, seconds, identity checksum.
        let mut runs: Vec<(FaultSim, f64, u64)> = WIDTH_BACKENDS
            .iter()
            .map(|&backend| {
                let mut sim = base.clone();
                sim.set_backend(backend);
                (sim, 0.0, 0)
            })
            .collect();
        for (c, chunk) in stream.chunks(WIDTH_CHUNK).enumerate() {
            for (sim, secs, sum) in &mut runs {
                let (s, part, _) = run_stream(sim, chunk, c * WIDTH_CHUNK);
                *secs += s;
                *sum = sum.wrapping_add(part);
            }
        }
        let mut reference: Option<(u64, f64)> = None;
        for (backend, (_, secs, sum)) in WIDTH_BACKENDS.into_iter().zip(runs) {
            let rate = vectors as f64 / secs;
            let speedup = match reference {
                None => {
                    reference = Some((sum, rate));
                    String::new()
                }
                Some((c, scalar_rate)) => {
                    assert_eq!(
                        c, sum,
                        "{name}: {backend} diverged from the scalar64 results"
                    );
                    format!(", \"speedup_vs_scalar64\": {:.3}", rate / scalar_rate)
                }
            };
            if !rows.is_empty() {
                rows.push_str(",\n");
            }
            rows.push_str(&format!(
                "    {{\"circuit\": \"{name}\", \"backend\": \"{backend}\", \"lanes\": {}, \"vectors\": {vectors}, \"secs\": {secs:.4}, \"vectors_per_sec\": {rate:.0}, \"identity_checksum\": {sum}{speedup}}}",
                backend.lanes()
            ));
            eprintln!(
                "width {name} {backend}: {vectors} vectors in {secs:.2}s = {rate:.0} vectors/sec"
            );
        }
    }
    rows
}

/// The phase-4 scoring comparison: random 16-frame candidates scored over
/// the active list of a warmed s298 checkpoint, each restored from the
/// checkpoint first as fitness evaluation does, once as one-vector
/// `step_sampled` calls (`serial`) and once as one sampled window
/// (`window`). The forms alternate chunk by chunk, each going first in
/// every other chunk, and must report the same identity checksum
/// ([`add_report`] over every frame's report); the `window` row carries
/// `speedup_vs_serial`.
fn sequence_rows(smoke: bool) -> String {
    let circuit = Arc::new(benchmarks::iscas89(SEQUENCE_CIRCUIT).expect("bundled circuit"));
    let pis = circuit.num_inputs();
    let mut base = FaultSim::new(Arc::clone(&circuit));
    let mut rng = Rng::new(1);
    for _ in 0..20 {
        let v: Vec<Logic> = (0..pis).map(|_| Logic::from_bool(rng.coin())).collect();
        base.step(&v);
    }
    let sample = base.active_faults().to_vec();
    let lanes = SimBackend::Auto.for_step(sample.len(), &circuit).lanes();
    let cp = base.checkpoint();
    let count = if smoke { 48 } else { 400 };
    let mut cand_rng = Rng::new(9);
    let candidates: Vec<Vec<Vec<Logic>>> = (0..count)
        .map(|_| {
            (0..SEQUENCE_FRAMES)
                .map(|_| {
                    (0..pis)
                        .map(|_| Logic::from_bool(cand_rng.coin()))
                        .collect()
                })
                .collect()
        })
        .collect();
    // Per form: simulator, seconds, identity checksum.
    let mut runs: Vec<(FaultSim, f64, u64)> = SEQUENCE_FORMS
        .iter()
        .map(|_| (base.clone(), 0.0, 0))
        .collect();
    for (c, chunk) in candidates.chunks(SEQUENCE_CHUNK).enumerate() {
        for turn in 0..SEQUENCE_FORMS.len() {
            let form = (turn + c) % SEQUENCE_FORMS.len();
            let (sim, secs, sum) = &mut runs[form];
            let start = Instant::now();
            for (k, candidate) in (c * SEQUENCE_CHUNK..).zip(chunk) {
                sim.restore(&cp);
                let reports: Vec<StepReport> = if SEQUENCE_FORMS[form] == "window" {
                    sim.step_sampled(candidate, &sample)
                } else {
                    candidate
                        .iter()
                        .flat_map(|v| sim.step_sampled(&[v], &sample))
                        .collect()
                };
                for (f, report) in reports.iter().enumerate() {
                    *sum = add_report(*sum, k * SEQUENCE_FRAMES + f, report);
                }
            }
            *secs += start.elapsed().as_secs_f64();
        }
    }
    let serial_rate = count as f64 / runs[0].1;
    let mut rows = String::new();
    for (form, (_, secs, sum)) in SEQUENCE_FORMS.into_iter().zip(&runs) {
        let rate = count as f64 / secs;
        let speedup = if form == "window" {
            assert_eq!(
                *sum, runs[0].2,
                "{SEQUENCE_CIRCUIT}: sampled windows diverged from one-vector calls"
            );
            format!(", \"speedup_vs_serial\": {:.3}", rate / serial_rate)
        } else {
            String::new()
        };
        if !rows.is_empty() {
            rows.push_str(",\n");
        }
        rows.push_str(&format!(
            "    {{\"circuit\": \"{SEQUENCE_CIRCUIT}\", \"form\": \"{form}\", \"frames\": {SEQUENCE_FRAMES}, \"faults\": {}, \"lanes\": {lanes}, \"candidates\": {count}, \"secs\": {secs:.4}, \"candidates_per_sec\": {rate:.1}, \"identity_checksum\": {sum}{speedup}}}",
            sample.len()
        ));
        eprintln!(
            "sequence {SEQUENCE_CIRCUIT} {form}: {count} candidates x {SEQUENCE_FRAMES} frames in {secs:.2}s = {rate:.1} candidates/sec"
        );
    }
    rows
}

/// The `good` section's fixed input stream for `circuit`.
fn good_stream(circuit: &gatest_netlist::Circuit) -> Vec<Vec<Logic>> {
    let mut rng = Rng::new(9);
    (0..GOOD_STREAM)
        .map(|_| {
            (0..circuit.num_inputs())
                .map(|_| Logic::from_bool(rng.coin()))
                .collect()
        })
        .collect()
}

/// Replays `stream` through `sim` from the all-X state, returning the
/// checksum over every frame's `events`, `ffs_set` and `ffs_changed`,
/// weighted by frame index (it stays far below 2^53, so the JSON number
/// holds it exactly).
fn good_pass(sim: &mut GoodSim, stream: &[Vec<Logic>]) -> u64 {
    sim.reset();
    (1..).zip(stream).fold(0u64, |sum, (n, v)| {
        let r = sim.apply(v);
        sum + n * (r.events + 1_000 * r.ffs_set as u64 + 1_000_000 * r.ffs_changed as u64)
    })
}

/// The good-machine rows: `GoodSim::apply` frames per second per circuit,
/// over repeated passes of the fixed stream, with one pass's checksum.
fn good_rows(smoke: bool) -> String {
    let mut rows = String::new();
    for name in GOOD_CIRCUITS {
        let circuit = Arc::new(benchmarks::iscas89(name).expect("bundled circuit"));
        let stream = good_stream(&circuit);
        let mut sim = GoodSim::new(Arc::clone(&circuit));
        let checksum = good_pass(&mut sim, &stream);
        let passes = match (smoke, name) {
            (true, "s298") => 100,
            (true, _) => 20,
            (false, "s298") => 1000,
            (false, _) => 200,
        };
        let start = Instant::now();
        for _ in 0..passes {
            assert_eq!(
                good_pass(&mut sim, &stream),
                checksum,
                "{name}: passes differ"
            );
        }
        let secs = start.elapsed().as_secs_f64();
        let frames = passes * GOOD_STREAM;
        let rate = frames as f64 / secs;
        if !rows.is_empty() {
            rows.push_str(",\n");
        }
        rows.push_str(&format!(
            "    {{\"circuit\": \"{name}\", \"gates\": {}, \"frames\": {frames}, \"secs\": {secs:.4}, \"frames_per_sec\": {rate:.0}, \"identity_checksum\": {checksum}}}",
            circuit.num_gates()
        ));
        eprintln!("good {name}: {frames} frames in {secs:.2}s = {rate:.0} frames/sec");
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
    let [row] = results else {
        return Err(format!("`results` has {} rows, expected 1", results.len()));
    };
    row.get("backend")
        .and_then(|v| v.as_str())
        .ok_or("results[0] missing string `backend`")?;
    for key in ["vectors", "secs", "vectors_per_sec", "fault_events_per_sec"] {
        row.get(key)
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("results[0] missing numeric `{key}`"))?;
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
    let sequence = field("sequence")?
        .as_array()
        .ok_or("`sequence` is not an array")?;
    let forms: Vec<&str> = sequence
        .iter()
        .map(|r| r.get("form").and_then(|v| v.as_str()).unwrap_or(""))
        .collect();
    if forms != SEQUENCE_FORMS {
        return Err(format!(
            "`sequence` has forms {forms:?}, expected {SEQUENCE_FORMS:?}"
        ));
    }
    for (i, row) in sequence.iter().enumerate() {
        row.get("circuit")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("sequence[{i}] missing string `circuit`"))?;
        for key in [
            "frames",
            "faults",
            "lanes",
            "candidates",
            "secs",
            "candidates_per_sec",
            "identity_checksum",
        ] {
            row.get(key)
                .and_then(|v| v.as_f64())
                .ok_or_else(|| format!("sequence[{i}] missing numeric `{key}`"))?;
        }
    }
    sequence[1]
        .get("speedup_vs_serial")
        .and_then(|v| v.as_f64())
        .ok_or("sequence[1] missing numeric `speedup_vs_serial`")?;
    // Like the width rows, the baseline itself proves both forms agreed.
    let sums: Vec<Option<u64>> = sequence
        .iter()
        .map(|r| r.get("identity_checksum").and_then(|v| v.as_u64()))
        .collect();
    if sums[0] != sums[1] {
        return Err("`sequence` checksums disagree across forms".into());
    }
    let good = field("good")?.as_array().ok_or("`good` is not an array")?;
    let circuits: Vec<&str> = good
        .iter()
        .map(|r| r.get("circuit").and_then(|v| v.as_str()).unwrap_or(""))
        .collect();
    if circuits != GOOD_CIRCUITS {
        return Err(format!(
            "`good` has circuits {circuits:?}, expected {GOOD_CIRCUITS:?}"
        ));
    }
    for (row, name) in good.iter().zip(GOOD_CIRCUITS) {
        for key in ["gates", "frames", "secs", "frames_per_sec"] {
            row.get(key)
                .and_then(|v| v.as_f64())
                .ok_or_else(|| format!("good {name} missing numeric `{key}`"))?;
        }
        let recorded = row
            .get("identity_checksum")
            .and_then(|v| v.as_u64())
            .ok_or_else(|| format!("good {name} missing integer `identity_checksum`"))?;
        // The good machine is deterministic: one pass of the stream must
        // still produce the recorded statistics.
        let circuit = Arc::new(benchmarks::iscas89(name).expect("bundled circuit"));
        let stream = good_stream(&circuit);
        let replayed = good_pass(&mut GoodSim::new(circuit), &stream);
        if replayed != recorded {
            return Err(format!(
                "good {name}: checksum {recorded} does not match a replay ({replayed})"
            ));
        }
    }
    Ok(format!(
        "{path} ok: 1 serial row, {} width rows, {} sequence rows, {} good rows, host_cpus {cpus}",
        width.len(),
        sequence.len(),
        good.len()
    ))
}
