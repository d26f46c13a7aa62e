//! Width-independent scaling benchmark over synthetic circuits.
//!
//! The ISCAS89-sized microbenchmarks (`bench_sim`) answer "did the hot loop
//! get slower"; this one answers "how does the simulator scale" — the cost
//! the CSR adjacency and shared per-group scheduling attack grows with
//! circuit size, not lane width. It drives the deterministic
//! [`SyntheticGenerator`] at 1.5k, 10k, 50k, 100k, 250k, and 500k
//! combinational gates and measures sequential fault-simulation throughput
//! per packed backend at each size, asserting a per-size identity checksum
//! — detection order plus per-step faulty-event and flip-flop-effect counts
//! — is bit-identical across every row. Each size also records
//! `peak_rss_kb`, the process resident-set high-water mark (`VmHWM`)
//! observed once that size's rows finish; sizes run ascending, so the
//! largest size's value bounds the whole sweep's memory.
//!
//! Prints a JSON document to stdout; `scripts/bench_eval.sh` redirects it to
//! `BENCH_scale.json` so the scaling trajectory is tracked across PRs.
//! `--smoke` runs only the two smallest sizes (same per-size stream, so the
//! rates stay comparable with the committed baseline). `--validate FILE`
//! checks the document shape and the per-size checksum agreement.

use std::sync::Arc;
use std::time::Instant;

use gatest_ga::Rng;
use gatest_netlist::generate::{CircuitProfile, SyntheticGenerator};
use gatest_sim::{FaultList, FaultSim, Logic, SimBackend};
use gatest_telemetry::json::parse_json;

/// One scaling point: target combinational gate count plus the shape knobs
/// and the measured stream length (shorter for larger circuits so the full
/// sweep stays in CI-friendly territory).
struct SizePoint {
    gates: usize,
    inputs: usize,
    outputs: usize,
    dffs: usize,
    vectors: usize,
}

const SIZES: [SizePoint; 6] = [
    SizePoint {
        gates: 1_500,
        inputs: 32,
        outputs: 16,
        dffs: 64,
        vectors: 192,
    },
    SizePoint {
        gates: 10_000,
        inputs: 64,
        outputs: 32,
        dffs: 128,
        vectors: 64,
    },
    SizePoint {
        gates: 50_000,
        inputs: 128,
        outputs: 64,
        dffs: 256,
        vectors: 24,
    },
    SizePoint {
        gates: 100_000,
        inputs: 192,
        outputs: 96,
        dffs: 384,
        vectors: 12,
    },
    SizePoint {
        gates: 250_000,
        inputs: 256,
        outputs: 128,
        dffs: 512,
        vectors: 6,
    },
    SizePoint {
        gates: 500_000,
        inputs: 384,
        outputs: 192,
        dffs: 768,
        vectors: 4,
    },
];

/// Backends measured at every size: both packed widths.
const ROWS: [SimBackend; 2] = [SimBackend::Scalar64, SimBackend::Wide256];

const GENERATOR_SEED: u64 = 94;
/// Bumped whenever the document shape changes; `--validate` requires it.
/// 2 added a per-row shard count, `peak_rss_kb` per size, the 250k/500k
/// points, and the skipped-row shape for thread counts the host lacks; 3
/// dropped the shard-count column and the 512-lane and sharded rows; 4
/// dropped the thread-count column and the two-thread row.
const SCHEMA_VERSION: u64 = 4;

/// `--NAME VALUE` from the args, else the `env` variable, else `"unknown"`.
fn provenance(args: &[String], name: &str, env: &str) -> String {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
        .or_else(|| std::env::var(env).ok())
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| String::from("unknown"))
}

/// Peak resident-set size (`VmHWM`) of this process in kilobytes, read
/// from `/proc/self/status`; 0 when the file or field is unavailable
/// (non-Linux hosts), which the validator treats as "not recorded".
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--validate") {
        let path = args
            .get(1)
            .map(String::as_str)
            .unwrap_or("BENCH_scale.json");
        match validate(path) {
            Ok(summary) => println!("{summary}"),
            Err(e) => {
                eprintln!("bench_scale --validate {path}: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    let smoke = args.iter().any(|a| a == "--smoke");
    let git_revision = provenance(&args, "--git-rev", "GATEST_GIT_REV");
    let timestamp = provenance(&args, "--timestamp", "GATEST_BENCH_TIMESTAMP");
    let host_cpus = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let sizes = if smoke { &SIZES[..2] } else { &SIZES[..] };

    let mut blocks = String::new();
    for (i, point) in sizes.iter().enumerate() {
        if i > 0 {
            blocks.push_str(",\n");
        }
        blocks.push_str(&measure_size(point));
    }

    println!(
        "{{\n  \"bench\": \"scale\",\n  \"schema_version\": {SCHEMA_VERSION},\n  \"git_revision\": \"{git_revision}\",\n  \"timestamp\": \"{timestamp}\",\n  \"mode\": \"{}\",\n  \"host_cpus\": {host_cpus},\n  \"sizes\": [\n{blocks}\n  ]\n}}",
        if smoke { "smoke" } else { "full" },
    );
}

/// Measures every backend row at one size, asserting the identity
/// checksum agrees across all of them, and returns the size's JSON block.
fn measure_size(point: &SizePoint) -> String {
    let name = format!("scale_{}", point.gates);
    let profile = CircuitProfile {
        name: name.clone(),
        inputs: point.inputs,
        outputs: point.outputs,
        dffs: point.dffs,
        gates: point.gates,
        seq_depth: 4,
    };
    let circuit = Arc::new(SyntheticGenerator::new(GENERATOR_SEED).generate(&profile));
    let faults = FaultList::collapsed(&circuit);
    let nfaults = faults.len();
    let pis = circuit.num_inputs();

    // Warm into a representative mid-run state: random vectors drop the
    // easy majority of the universe, leaving the hard residue every row
    // then replays identically. The warmup runs once; each measured row
    // imports the exported state into a fresh simulator, so setup cost
    // never pollutes the timed stream.
    let mut base = FaultSim::with_faults(Arc::clone(&circuit), faults.clone());
    let mut rng = Rng::new(1);
    for _ in 0..12 {
        let v: Vec<Logic> = (0..pis).map(|_| Logic::from_bool(rng.coin())).collect();
        base.step(&v);
    }
    let csr_bytes = base.good().levelization().csr_bytes();
    let warm = base.export_state();
    drop(base);
    let mut vec_rng = Rng::new(9);
    let stream: Vec<Vec<Logic>> = (0..point.vectors)
        .map(|_| (0..pis).map(|_| Logic::from_bool(vec_rng.coin())).collect())
        .collect();

    let mut rows = String::new();
    let mut reference: Option<u64> = None;
    for backend in ROWS {
        if !rows.is_empty() {
            rows.push_str(",\n");
        }
        let mut sim = FaultSim::with_faults(Arc::clone(&circuit), faults.clone());
        sim.import_state(&warm);
        sim.set_backend(backend);
        let (secs, sum, events) = run_stream(&mut sim, &stream);
        match reference {
            None => reference = Some(sum),
            Some(c) => assert_eq!(
                c,
                sum,
                "{name}: {} diverged from the reference results",
                backend.name()
            ),
        }
        rows.push_str(&format!(
            "        {{\"backend\": \"{}\", \"lanes\": {}, \"vectors\": {}, \"secs\": {secs:.4}, \"vectors_per_sec\": {:.0}, \"fault_events_per_sec\": {:.0}, \"identity_checksum\": {sum}}}",
            backend.name(),
            backend.lanes(),
            point.vectors,
            point.vectors as f64 / secs,
            events as f64 / secs,
        ));
        eprintln!(
            "{name} {}: {} vectors in {secs:.2}s = {:.0} vectors/sec ({:.0} fault events/sec)",
            backend.name(),
            point.vectors,
            point.vectors as f64 / secs,
            events as f64 / secs,
        );
    }

    format!(
        "    {{\n      \"circuit\": \"{name}\",\n      \"gates_target\": {},\n      \"gates\": {},\n      \"dffs\": {},\n      \"faults\": {nfaults},\n      \"csr_bytes\": {csr_bytes},\n      \"peak_rss_kb\": {},\n      \"identity_checksum\": {},\n      \"rows\": [\n{rows}\n      ]\n    }}",
        point.gates,
        circuit.num_gates(),
        circuit.num_dffs(),
        peak_rss_kb(),
        reference.unwrap_or(0),
    )
}

/// Replays `stream` through `sim`, returning elapsed seconds, the identity
/// checksum (detection order plus per-step faulty-event and flip-flop-effect
/// counts — all width- and batching-invariant), and the total
/// faulty-event count.
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

/// Parses `path` as a `BENCH_scale` document and checks every field the
/// scaling-curve consumers rely on. Returns a one-line summary on success.
fn validate(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read failed: {e}"))?;
    let doc = parse_json(&text)?;
    let field = |key: &str| doc.get(key).ok_or_else(|| format!("missing `{key}`"));
    let bench = field("bench")?.as_str().ok_or("`bench` is not a string")?;
    if bench != "scale" {
        return Err(format!("`bench` is `{bench}`, expected `scale`"));
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
    let mode = field("mode")?.as_str().ok_or("`mode` is not a string")?;
    let cpus = field("host_cpus")?
        .as_u64()
        .ok_or("`host_cpus` is not an integer")?;
    let sizes = field("sizes")?
        .as_array()
        .ok_or("`sizes` is not an array")?;
    let want_sizes = if mode == "full" { SIZES.len() } else { 1 };
    if sizes.len() < want_sizes {
        return Err(format!(
            "`sizes` has {} entries, {mode} mode requires at least {want_sizes}",
            sizes.len()
        ));
    }
    for (i, size) in sizes.iter().enumerate() {
        size.get("circuit")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("sizes[{i}] missing string `circuit`"))?;
        for key in [
            "gates_target",
            "gates",
            "dffs",
            "faults",
            "csr_bytes",
            "peak_rss_kb",
        ] {
            size.get(key)
                .and_then(|v| v.as_u64())
                .ok_or_else(|| format!("sizes[{i}] missing integer `{key}`"))?;
        }
        let checksum = size
            .get("identity_checksum")
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("sizes[{i}] missing numeric `identity_checksum`"))?;
        let rows = size
            .get("rows")
            .and_then(|v| v.as_array())
            .ok_or_else(|| format!("sizes[{i}] missing array `rows`"))?;
        if rows.len() < ROWS.len() {
            return Err(format!(
                "sizes[{i}] has {} rows, expected at least {}",
                rows.len(),
                ROWS.len()
            ));
        }
        for (j, row) in rows.iter().enumerate() {
            row.get("backend")
                .and_then(|v| v.as_str())
                .ok_or_else(|| format!("sizes[{i}].rows[{j}] missing string `backend`"))?;
            for key in [
                "lanes",
                "vectors",
                "secs",
                "vectors_per_sec",
                "fault_events_per_sec",
            ] {
                row.get(key)
                    .and_then(|v| v.as_f64())
                    .ok_or_else(|| format!("sizes[{i}].rows[{j}] missing numeric `{key}`"))?;
            }
            // The baseline itself is proof the widths agreed when it was
            // recorded.
            let row_sum = row
                .get("identity_checksum")
                .and_then(|v| v.as_f64())
                .ok_or_else(|| format!("sizes[{i}].rows[{j}] missing `identity_checksum`"))?;
            if row_sum != checksum {
                return Err(format!(
                    "sizes[{i}].rows[{j}] checksum disagrees with the size's"
                ));
            }
        }
    }
    Ok(format!(
        "{path} ok: {} sizes, {} rows each, host_cpus {cpus}",
        sizes.len(),
        ROWS.len()
    ))
}
