//! The CLI subcommands.

use std::error::Error;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

use gatest_baselines::hitec::{BacktraceGuide, HitecAtpg, HitecConfig};
use gatest_core::report::{
    coverage_curve, format_duration, result_to_json, span_table, sparkline, telemetry_table,
    test_set_from_string, test_set_to_string,
};
use gatest_core::{
    compact_test_set, CheckpointCadence, FaultSample, GatestConfig, RunControls, RunSnapshot,
    StopCause, TestGenerator,
};
use gatest_netlist::depth::sequential_depth;
use gatest_netlist::scoap::Scoap;
use gatest_sim::dictionary::FaultDictionary;
use gatest_sim::transition::TransitionFaultSim;
use gatest_sim::{FaultSim, Logic, SimBackend};
use gatest_telemetry::json::{parse_json, spans_from_json, Json};
use gatest_telemetry::{
    Instruments, JsonlTraceWriter, MetricsObserver, MetricsServer, MultiObserver, ProgressReporter,
};

use crate::load_circuit;
use crate::opts::{Opts, UsageError};

/// Writes `text` to `--out` if given, else stdout.
fn emit(opts: &Opts, text: &str) -> Result<(), Box<dyn Error>> {
    match opts.get("out") {
        Some(path) => {
            std::fs::write(path, text)?;
            eprintln!("wrote {path}");
            Ok(())
        }
        None => {
            print!("{text}");
            Ok(())
        }
    }
}

fn read_tests(opts: &Opts) -> Result<Vec<Vec<Logic>>, Box<dyn Error>> {
    let path = opts.require("tests")?;
    let text = std::fs::read_to_string(path)?;
    Ok(test_set_from_string(&text).map_err(std::io::Error::other)?)
}

/// Parses `--workers` (alias `--threads`): a positive integer, or `0` /
/// `auto` meaning all available cores. Defaults to 1 (serial).
fn worker_count(opts: &Opts) -> Result<usize, Box<dyn Error>> {
    let value = match (opts.get("workers"), opts.get("threads")) {
        (Some(_), Some(_)) => {
            return Err(UsageError::boxed(
                "--workers and --threads are aliases; pass only one",
            ))
        }
        (Some(v), None) | (None, Some(v)) => v,
        (None, None) => return Ok(1),
    };
    if value == "auto" {
        return Ok(0);
    }
    value.parse().map_err(|_| {
        UsageError::boxed(format!(
            "--workers expects a non-negative integer or `auto`, got `{value}`"
        ))
    })
}

/// Parses `--sim-width`: `auto` (the default: each step's width follows its
/// fault count and the circuit's shape), or `scalar64`/`64` and
/// `wide256`/`256` to pin one width.
/// Results are bit-identical across widths; this knob only trades per-step
/// cost against how many fault machines ride in one packed word.
fn sim_width_backend(opts: &Opts) -> Result<SimBackend, Box<dyn Error>> {
    let Some(value) = opts.get("sim-width") else {
        return Ok(SimBackend::default());
    };
    value.parse().map_err(|_| {
        UsageError::boxed(format!(
            "--sim-width expects scalar64|wide256|auto (or 64|256), got `{value}`"
        ))
    })
}

/// Parses `--eval-cache`: a fitness-cache entry count, or `off` (same as
/// `0`) to disable the whole memoization layer — cache, batch dedup, and
/// prefix-sharing sequence evaluation. Returns `None` when the flag is
/// absent, leaving the built-in default in place.
fn eval_cache_override(opts: &Opts) -> Result<Option<usize>, Box<dyn Error>> {
    let Some(value) = opts.get("eval-cache") else {
        return Ok(None);
    };
    if value == "off" {
        return Ok(Some(0));
    }
    match value.parse() {
        Ok(n) => Ok(Some(n)),
        Err(_) => Err(UsageError::boxed(format!(
            "--eval-cache expects an entry count or `off`, got `{value}`"
        ))),
    }
}

/// The stop flag shared between the `atpg` run and the signal handler.
static STOP_FLAG: OnceLock<Arc<AtomicBool>> = OnceLock::new();

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

extern "C" {
    /// POSIX `signal(2)`; the handler is passed as a raw function address so
    /// the CLI needs no FFI crate.
    fn signal(signum: i32, handler: usize) -> usize;
    /// POSIX `_exit(2)` — async-signal-safe, unlike `std::process::exit`.
    fn _exit(code: i32) -> !;
}

/// The SIGINT/SIGTERM handler: raises the stop flag (the run then finishes
/// the in-flight generation, writes a final checkpoint, and exits with code
/// 3); a second signal hard-exits immediately.
extern "C" fn on_stop_signal(signum: i32) {
    if let Some(flag) = STOP_FLAG.get() {
        if !flag.swap(true, Ordering::SeqCst) {
            return;
        }
    }
    // SAFETY: _exit is async-signal-safe by POSIX.
    unsafe { _exit(128 + signum) }
}

/// Installs graceful SIGINT/SIGTERM handling and returns the shared flag.
fn install_stop_handler() -> Arc<AtomicBool> {
    let flag = Arc::clone(STOP_FLAG.get_or_init(|| Arc::new(AtomicBool::new(false))));
    // SAFETY: on_stop_signal only touches atomics and _exit, both
    // async-signal-safe; signal(2) itself is safe to call from main.
    let handler = on_stop_signal as extern "C" fn(i32) as usize;
    unsafe {
        signal(SIGINT, handler);
        signal(SIGTERM, handler);
    }
    flag
}

/// Parses `--checkpoint-every`: a bare integer is a generation count, an
/// `s`-suffixed number is seconds (`500` = every 500 generations, `30s` =
/// every 30 seconds).
fn checkpoint_cadence(opts: &Opts) -> Result<Option<CheckpointCadence>, Box<dyn Error>> {
    let Some(value) = opts.get("checkpoint-every") else {
        return Ok(None);
    };
    if let Some(secs) = value.strip_suffix('s') {
        let secs: f64 = secs.parse().map_err(|_| {
            UsageError::boxed(format!("--checkpoint-every expects seconds, got `{value}`"))
        })?;
        if secs <= 0.0 {
            return Err(UsageError::boxed("--checkpoint-every must be positive"));
        }
        return Ok(Some(CheckpointCadence::Secs(secs)));
    }
    let gens: u64 = value.parse().map_err(|_| {
        UsageError::boxed(format!(
            "--checkpoint-every expects a generation count or `Ns` seconds, got `{value}`"
        ))
    })?;
    if gens == 0 {
        return Err(UsageError::boxed("--checkpoint-every must be positive"));
    }
    Ok(Some(CheckpointCadence::Generations(gens)))
}

/// `gatest atpg` — run the GA test generator (or resume a checkpoint).
pub fn atpg(opts: &Opts) -> Result<ExitCode, Box<dyn Error>> {
    let resume_snapshot = match opts.get("resume") {
        Some(path) => Some(
            RunSnapshot::load(Path::new(path))
                .map_err(|e| format!("cannot resume from `{path}`: {e}"))?,
        ),
        None => None,
    };
    // Resuming a bundled benchmark needs no circuit argument — the
    // checkpoint names it. File-path circuits must be passed again.
    let spec = match (opts.circuit(), &resume_snapshot) {
        (Ok(spec), _) => spec.to_string(),
        (Err(_), Some(snap)) => snap.circuit.clone(),
        (Err(e), None) => return Err(e),
    };
    let circuit = load_circuit(&spec)?;
    let mut config = GatestConfig::for_circuit(&circuit)
        .with_workers(worker_count(opts)?)
        .with_sim_width(sim_width_backend(opts)?)
        .with_dedup(!opts.has("no-dedup"));
    if let Some(entries) = eval_cache_override(opts)? {
        config = config.with_eval_cache(entries);
    }
    config.paranoid_cache = opts.has("paranoid-cache");
    if let Some(snap) = &resume_snapshot {
        if opts.get("seed").is_some() || opts.get("sample").is_some() {
            return Err(UsageError::boxed(
                "--seed and --sample come from the checkpoint when resuming",
            ));
        }
        config.seed = snap.seed;
        config.fault_sample = snap.fault_sample;
    } else {
        config.seed = opts.num("seed", 1u64)?;
        let sample: usize = opts.num("sample", 100)?;
        config.fault_sample = if sample == 0 {
            FaultSample::Full
        } else {
            FaultSample::Count(sample)
        };
    }
    if opts.get("max-wall-secs").is_some() {
        let secs: f64 = opts.num("max-wall-secs", 0.0)?;
        if secs <= 0.0 {
            return Err(UsageError::boxed("--max-wall-secs must be positive"));
        }
        config.max_wall_secs = Some(secs);
    }
    if opts.get("max-evals").is_some() {
        let evals: u64 = opts.num("max-evals", 0u64)?;
        if evals == 0 {
            return Err(UsageError::boxed("--max-evals must be positive"));
        }
        config.max_evals = Some(evals);
    }
    // When resuming, keep checkpointing to the same file unless overridden.
    let checkpoint_path: Option<PathBuf> = opts
        .get("checkpoint")
        .or_else(|| opts.get("resume"))
        .map(PathBuf::from);
    let cadence = checkpoint_cadence(opts)?;
    if cadence.is_some() && checkpoint_path.is_none() {
        return Err(UsageError::boxed(
            "--checkpoint-every requires --checkpoint FILE",
        ));
    }
    let controls = RunControls {
        stop: Some(install_stop_handler()),
        checkpoint_path: checkpoint_path.clone(),
        checkpoint_every: cadence,
        max_ticks: None,
        fault_report: opts.get("fault-report").map(PathBuf::from),
    };

    let mut generator = TestGenerator::new(Arc::clone(&circuit), config);
    // Attach the instrumentation bundle whenever something will read it: the
    // live metrics server, the JSONL trace (span aggregates ride in the
    // run_finished event), or the -v telemetry table. Instrumentation is
    // observational only — results stay bit-identical either way.
    let instruments = (opts.get("metrics-addr").is_some()
        || opts.get("trace-out").is_some()
        || opts.has("verbose"))
    .then(Instruments::new);
    let mut observers = MultiObserver::default();
    if let Some(path) = opts.get("trace-out") {
        let writer = JsonlTraceWriter::create(path)
            .map_err(|e| format!("cannot open trace file `{path}`: {e}"))?;
        observers.push(Arc::new(writer));
    }
    if opts.has("progress") {
        observers.push(Arc::new(ProgressReporter::new()));
    }
    if let Some(instruments) = &instruments {
        observers.push(Arc::new(MetricsObserver::new(Arc::clone(instruments))));
        generator = generator.with_instruments(Arc::clone(instruments));
    }
    if !observers.is_empty() {
        generator = generator.with_observer(Arc::new(observers));
    }
    // Dropping the server stops serving, so it must outlive the run.
    let _metrics_server = match (opts.get("metrics-addr"), &instruments) {
        (Some(addr), Some(instruments)) => {
            let server = MetricsServer::bind(
                addr,
                Arc::clone(instruments),
                Arc::clone(generator.telemetry_counters()),
            )
            .map_err(|e| format!("cannot serve metrics on `{addr}`: {e}"))?;
            if !opts.has("quiet") {
                eprintln!("serving metrics on http://{}/metrics", server.local_addr());
            }
            Some(server)
        }
        _ => None,
    };
    let result = match &resume_snapshot {
        Some(snap) => generator.resume(snap, &controls)?,
        None => generator.run_controlled(&controls),
    };
    if let Some(e) = &result.checkpoint_error {
        eprintln!("warning: {e}");
    }
    if let Some(e) = &result.fault_report_error {
        eprintln!("warning: {e}");
    }
    if !opts.has("quiet") {
        eprintln!(
            "{}: {}/{} faults ({:.1}%), {} vectors, {} — phases {:?}",
            result.circuit,
            result.detected,
            result.total_faults,
            100.0 * result.fault_coverage(),
            result.vectors(),
            format_duration(result.elapsed),
            result.phase_vectors,
        );
        let curve = coverage_curve(&circuit, &result.test_set);
        eprintln!("coverage {}", sparkline(&curve, result.total_faults));
    }
    if opts.has("verbose") {
        eprintln!("{}", telemetry_table(&result));
    }
    if let Some(path) = opts.get("result-json") {
        std::fs::write(path, result_to_json(&result) + "\n")?;
        eprintln!("wrote result summary to {path}");
    }
    emit(opts, &test_set_to_string(&result.test_set))?;
    if result.is_complete() {
        Ok(ExitCode::SUCCESS)
    } else {
        let cause = match result.stop {
            StopCause::BudgetExhausted => "budget exhausted",
            _ => "interrupted",
        };
        match (&checkpoint_path, result.checkpoint_error.is_none()) {
            (Some(path), true) => eprintln!(
                "stopped early ({cause}); resume with: gatest atpg --resume {}",
                path.display()
            ),
            _ => eprintln!("stopped early ({cause}); no checkpoint available"),
        }
        Ok(ExitCode::from(3))
    }
}

/// `gatest serve` — run the multi-tenant ATPG job server until SIGTERM or
/// SIGINT, then drain gracefully: every running job is checkpointed at its
/// next generation-tick boundary, the queue is persisted to `--state-dir`,
/// and a restart with the same state dir resumes every unfinished job
/// bit-identically.
pub fn serve(opts: &Opts) -> Result<ExitCode, Box<dyn Error>> {
    let mut config = gatest_serve::ServerConfig {
        addr: opts.get("addr").unwrap_or("127.0.0.1:0").to_string(),
        state_dir: opts.get("state-dir").map(PathBuf::from),
        ..gatest_serve::ServerConfig::default()
    };
    if opts.get("slice-ticks").is_some() {
        let ticks: u64 = opts.num("slice-ticks", 0u64)?;
        if ticks == 0 {
            return Err(UsageError::boxed("--slice-ticks must be positive"));
        }
        config.slice_ticks = ticks;
    }
    if opts.get("queue-depth").is_some() {
        let depth: usize = opts.num("queue-depth", 0usize)?;
        if depth == 0 {
            return Err(UsageError::boxed("--queue-depth must be positive"));
        }
        config.queue_depth = depth;
    }
    if opts.get("runners").is_some() {
        let runners: usize = opts.num("runners", 0usize)?;
        if runners == 0 {
            return Err(UsageError::boxed("--runners must be positive"));
        }
        config.runners = runners;
    }
    if opts.get("result-ttl-secs").is_some() {
        let secs: f64 = opts.num("result-ttl-secs", 0.0)?;
        if !secs.is_finite() || secs <= 0.0 {
            return Err(UsageError::boxed("--result-ttl-secs must be positive"));
        }
        config.result_ttl_secs = Some(secs);
    }
    let stop = install_stop_handler();
    let mut server =
        gatest_serve::Server::start(config).map_err(|e| format!("cannot start server: {e}"))?;
    let addr = server.local_addr();
    if !opts.has("quiet") {
        eprintln!("gatest serve listening on http://{addr} (SIGTERM drains gracefully)");
    }
    if let Some(path) = opts.get("port-file") {
        // Atomic write so pollers never read a half-written address.
        let tmp = format!("{path}.tmp");
        std::fs::write(&tmp, format!("{addr}\n"))?;
        std::fs::rename(&tmp, path)?;
    }
    while !stop.load(Ordering::SeqCst) {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    if !opts.has("quiet") {
        eprintln!("draining: checkpointing running jobs and persisting the queue");
    }
    server
        .drain()
        .map_err(|e| format!("drain failed to persist state: {e}"))?;
    if !opts.has("quiet") {
        eprintln!("drained cleanly");
    }
    Ok(ExitCode::SUCCESS)
}

/// `gatest grade` — fault-grade a test set.
pub fn grade(opts: &Opts) -> Result<(), Box<dyn Error>> {
    let circuit = load_circuit(opts.circuit()?)?;
    let tests = read_tests(opts)?;
    if opts.has("transition") {
        let mut sim = TransitionFaultSim::new(Arc::clone(&circuit));
        for v in &tests {
            sim.step(v);
        }
        println!(
            "transition faults: {}/{} detected ({:.1}%)",
            sim.detected_count(),
            sim.total_faults(),
            100.0 * sim.detected_count() as f64 / sim.total_faults().max(1) as f64
        );
    } else {
        let mut sim = FaultSim::new(Arc::clone(&circuit));
        for v in &tests {
            sim.step(v);
        }
        let total = sim.fault_list().len();
        println!(
            "stuck-at faults: {}/{} detected ({:.1}%)",
            sim.detected_count(),
            total,
            100.0 * sim.detected_count() as f64 / total.max(1) as f64
        );
        let survivors: Vec<String> = sim
            .active_faults()
            .iter()
            .take(opts.num("survivors", 10usize)?)
            .map(|&id| sim.fault_list().get(id).display(&circuit).to_string())
            .collect();
        if !survivors.is_empty() {
            println!(
                "undetected (first {}): {}",
                survivors.len(),
                survivors.join(", ")
            );
        }
        if let Some(path) = opts.get("report") {
            std::fs::write(
                path,
                gatest_sim::fault_report::write_fault_report(&circuit, &sim),
            )?;
            eprintln!("wrote per-fault report to {path}");
        }
    }
    Ok(())
}

/// `gatest compact` — shrink a test set coverage-preservingly.
pub fn compact(opts: &Opts) -> Result<(), Box<dyn Error>> {
    let circuit = load_circuit(opts.circuit()?)?;
    let tests = read_tests(opts)?;
    let (compacted, stats) = compact_test_set(&circuit, &tests);
    eprintln!(
        "{} -> {} vectors ({:.1}% removed), {} faults covered, {} passes",
        stats.original_vectors,
        stats.compacted_vectors,
        100.0 * stats.reduction(),
        stats.detected,
        stats.passes
    );
    emit(opts, &test_set_to_string(&compacted))
}

/// `gatest diagnose` — dictionary diagnosis from failing observations.
pub fn diagnose(opts: &Opts) -> Result<(), Box<dyn Error>> {
    let circuit = load_circuit(opts.circuit()?)?;
    let tests = read_tests(opts)?;
    let observe = opts.require("observe")?;
    let mut observed: Vec<(u32, u16)> = Vec::new();
    for pair in observe.split(',') {
        let (v, po) = pair
            .split_once(':')
            .ok_or_else(|| format!("--observe expects V:PO pairs, got `{pair}`"))?;
        observed.push((v.trim().parse()?, po.trim().parse()?));
    }
    let dict = FaultDictionary::build(Arc::clone(&circuit), &tests);
    let ranked = dict.diagnose(&observed);
    if ranked.is_empty() {
        println!("no candidate faults match the observations");
        return Ok(());
    }
    println!("{:<30} {:>7}", "candidate fault", "score");
    for (fault, score) in ranked.iter().take(opts.num("top", 10usize)?) {
        println!(
            "{:<30} {:>7.3}",
            dict.fault_list().get(*fault).display(&circuit).to_string(),
            score
        );
    }
    Ok(())
}

/// `gatest stats` — circuit and testability summary.
pub fn stats(opts: &Opts) -> Result<(), Box<dyn Error>> {
    let circuit = load_circuit(opts.circuit()?)?;
    println!("{}", circuit.stats());
    println!("sequential depth: {}", sequential_depth(&circuit));
    let faults = gatest_sim::FaultList::collapsed(&circuit);
    println!(
        "faults: {} collapsed (of {} universe)",
        faults.len(),
        faults.universe_size()
    );
    let scoap = Scoap::new(&circuit);
    let mut hardest: Vec<(u32, String)> = circuit
        .net_ids()
        .map(|id| {
            (
                scoap
                    .fault_difficulty(id, false)
                    .max(scoap.fault_difficulty(id, true)),
                circuit.net_name(id).to_string(),
            )
        })
        .collect();
    hardest.sort_by_key(|&(difficulty, _)| std::cmp::Reverse(difficulty));
    let names: Vec<String> = hardest
        .iter()
        .take(8)
        .map(|(d, n)| format!("{n} ({d})"))
        .collect();
    println!("hardest nets by SCOAP: {}", names.join(", "));
    Ok(())
}

/// `gatest scan` — emit the full-scan version.
pub fn scan(opts: &Opts) -> Result<(), Box<dyn Error>> {
    let circuit = load_circuit(opts.circuit()?)?;
    let scanned = gatest_netlist::scan::full_scan(&circuit);
    eprintln!(
        "{} -> {} ({} pseudo-PIs added)",
        circuit.stats(),
        scanned.circuit().stats(),
        scanned.scan_inputs().len()
    );
    emit(opts, &gatest_netlist::write_bench(scanned.circuit()))
}

/// `gatest convert` — re-serialize a netlist.
pub fn convert(opts: &Opts) -> Result<(), Box<dyn Error>> {
    let circuit = load_circuit(opts.circuit()?)?;
    let text = match opts.require("to")? {
        "bench" => gatest_netlist::write_bench(&circuit),
        "verilog" | "v" => gatest_netlist::verilog::write_verilog(&circuit),
        "dot" => gatest_netlist::dot::to_dot(&circuit),
        other => return Err(format!("unknown format `{other}` (bench|verilog|dot)").into()),
    };
    emit(opts, &text)
}

/// `gatest hitec` — run the deterministic baseline.
pub fn hitec(opts: &Opts) -> Result<(), Box<dyn Error>> {
    let circuit = load_circuit(opts.circuit()?)?;
    let config = HitecConfig {
        guide: if opts.has("scoap") {
            BacktraceGuide::Scoap
        } else {
            BacktraceGuide::SequentialDepth
        },
        max_frames: opts.num("frames", 16usize)?,
        backtrack_limit: opts.num("backtracks", 100usize)?,
        ..HitecConfig::default()
    };
    let result = HitecAtpg::new(Arc::clone(&circuit), config).run();
    eprintln!(
        "{}: {}/{} faults ({:.1}%), {} vectors, {} — {} untestable, {} aborted",
        result.circuit,
        result.detected,
        result.total_faults,
        100.0 * result.fault_coverage(),
        result.vectors(),
        format_duration(result.elapsed),
        result.untestable,
        result.aborted,
    );
    emit(opts, &test_set_to_string(&result.test_set))
}

/// `gatest trace` — operate on JSONL run traces.
///
/// Actions: `summarize <file>` (per-phase event totals with wall-time
/// shares), `phases <file>` (hierarchical span-tree timing breakdown from
/// the run's aggregates), and `diff <base> <new> [--threshold PCT]
/// [--no-timing]` (regression report; errors — exit code 1 — when the new
/// trace regressed, so it can gate CI).
pub fn trace(opts: &Opts) -> Result<(), Box<dyn Error>> {
    const USAGE: &str = "usage: gatest trace summarize|phases <trace.jsonl>, \
                         or gatest trace diff <base.jsonl> <new.jsonl> [--threshold PCT] [--no-timing]";
    let action = opts
        .positional()
        .first()
        .map(String::as_str)
        .ok_or_else(|| UsageError::boxed(USAGE))?;
    match action {
        "summarize" | "phases" => {
            let path = opts.positional().get(1).ok_or_else(|| {
                UsageError::boxed(format!("missing trace file (gatest trace {action} <file>)"))
            })?;
            let text = std::fs::read_to_string(path)?;
            let report = match action {
                "summarize" => summarize_trace(&text)?,
                _ => trace_phases(&text)?,
            };
            println!("{report}");
            Ok(())
        }
        "diff" => {
            let base_path = opts
                .positional()
                .get(1)
                .ok_or_else(|| UsageError::boxed(USAGE))?;
            let new_path = opts
                .positional()
                .get(2)
                .ok_or_else(|| UsageError::boxed(USAGE))?;
            let threshold: f64 = opts.num("threshold", 10.0f64)?;
            if !(0.0..=1000.0).contains(&threshold) {
                return Err(UsageError::boxed("--threshold expects a percentage >= 0"));
            }
            let base = trace_stats(&std::fs::read_to_string(base_path)?)
                .map_err(|e| format!("{base_path}: {e}"))?;
            let new = trace_stats(&std::fs::read_to_string(new_path)?)
                .map_err(|e| format!("{new_path}: {e}"))?;
            let (report, regressed) = diff_traces(&base, &new, threshold, !opts.has("no-timing"));
            println!("{report}");
            if regressed {
                return Err(format!("`{new_path}` regressed against `{base_path}`").into());
            }
            Ok(())
        }
        other => Err(UsageError::boxed(format!(
            "unknown trace action `{other}` (expected summarize, phases, or diff)"
        ))),
    }
}

/// Parses a JSONL trace and returns its last `run_finished` object.
fn last_run_finished(text: &str) -> Result<Json, Box<dyn Error>> {
    let mut finished = None;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let j = parse_json(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        if j.get("event").and_then(Json::as_str) == Some("run_finished") {
            finished = Some(j);
        }
    }
    finished.ok_or_else(|| "trace has no run_finished event (incomplete run?)".into())
}

/// The per-phase wall clock recorded in a `run_finished` event, in seconds.
fn phase_times(finished: &Json) -> [f64; 4] {
    let mut times = [0.0; 4];
    if let Some(items) = finished.get("phase_time_secs").and_then(Json::as_array) {
        for (slot, item) in times.iter_mut().zip(items) {
            *slot = item.as_f64().unwrap_or(0.0);
        }
    }
    times
}

/// Renders the hierarchical span-tree timing breakdown embedded in a
/// trace's `run_finished` event, falling back to the per-phase wall clock
/// for traces recorded before span instrumentation existed.
pub fn trace_phases(text: &str) -> Result<String, Box<dyn Error>> {
    use std::fmt::Write as _;

    let finished = last_run_finished(text)?;
    let spans = finished
        .get("spans")
        .and_then(spans_from_json)
        .unwrap_or_default();
    if !spans.is_empty() {
        return Ok(span_table(&spans));
    }
    let times = phase_times(&finished);
    let total: f64 = times.iter().sum();
    if total <= 0.0 {
        return Err("trace has neither span aggregates nor per-phase timing".into());
    }
    let mut out = String::from("no span aggregates in trace; per-phase wall clock:\n");
    let _ = writeln!(out, "{:<22} {:>9} {:>7}", "phase", "time", "wall");
    for (i, t) in times.iter().enumerate() {
        let _ = writeln!(
            out,
            "{:<22} {:>8.2}s {:>6.1}%",
            format!("phase {}", i + 1),
            t,
            100.0 * t / total
        );
    }
    Ok(out.trim_end().to_owned())
}

/// Deterministic run totals extracted from a trace, compared by
/// [`diff_traces`].
#[derive(Debug, Default, PartialEq)]
pub struct TraceStats {
    circuit: String,
    detected: u64,
    total_faults: u64,
    vectors: u64,
    ga_evaluations: u64,
    gate_evals: u64,
    elapsed_secs: f64,
}

/// Extracts [`TraceStats`] from a JSONL trace (header circuit name plus the
/// last `run_finished` totals).
pub fn trace_stats(text: &str) -> Result<TraceStats, Box<dyn Error>> {
    let mut circuit = String::from("?");
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        if let Ok(j) = parse_json(line) {
            if j.get("event").and_then(Json::as_str) == Some("run_started") {
                if let Some(name) = j.get("circuit").and_then(Json::as_str) {
                    circuit = name.to_owned();
                }
                break;
            }
        }
    }
    let finished = last_run_finished(text)?;
    let field = |name: &str| finished.get(name).and_then(Json::as_u64).unwrap_or(0);
    Ok(TraceStats {
        circuit,
        detected: field("detected"),
        total_faults: field("total_faults"),
        vectors: field("vectors"),
        ga_evaluations: field("ga_evaluations"),
        gate_evals: finished
            .get("counters")
            .and_then(|c| c.get("gate_evals"))
            .and_then(Json::as_u64)
            .unwrap_or(0),
        elapsed_secs: finished
            .get("elapsed_secs")
            .and_then(Json::as_f64)
            .unwrap_or(0.0),
    })
}

/// Percent change from `base` to `new`, or `None` when there is no baseline
/// to compare against.
fn pct_change(base: f64, new: f64) -> Option<f64> {
    (base != 0.0).then(|| 100.0 * (new - base) / base)
}

/// Compares two traces' run totals. A regression is any drop in `detected`,
/// or growth beyond `threshold` percent in a cost metric (vectors, GA
/// evaluations, gate evaluations — and elapsed wall time when `timing` is
/// set; pass `timing = false` for machine-independent CI gating).
pub fn diff_traces(
    base: &TraceStats,
    new: &TraceStats,
    threshold: f64,
    timing: bool,
) -> (String, bool) {
    use std::fmt::Write as _;

    let grew = |b: f64, n: f64| pct_change(b, n).is_some_and(|d| d > threshold);
    let mut rows = vec![
        (
            "detected",
            base.detected.to_string(),
            new.detected.to_string(),
            pct_change(base.detected as f64, new.detected as f64),
            new.detected < base.detected,
        ),
        (
            "vectors",
            base.vectors.to_string(),
            new.vectors.to_string(),
            pct_change(base.vectors as f64, new.vectors as f64),
            grew(base.vectors as f64, new.vectors as f64),
        ),
        (
            "ga_evaluations",
            base.ga_evaluations.to_string(),
            new.ga_evaluations.to_string(),
            pct_change(base.ga_evaluations as f64, new.ga_evaluations as f64),
            grew(base.ga_evaluations as f64, new.ga_evaluations as f64),
        ),
        (
            "gate_evals",
            base.gate_evals.to_string(),
            new.gate_evals.to_string(),
            pct_change(base.gate_evals as f64, new.gate_evals as f64),
            grew(base.gate_evals as f64, new.gate_evals as f64),
        ),
    ];
    if timing {
        rows.push((
            "elapsed_secs",
            format!("{:.2}", base.elapsed_secs),
            format!("{:.2}", new.elapsed_secs),
            pct_change(base.elapsed_secs, new.elapsed_secs),
            grew(base.elapsed_secs, new.elapsed_secs),
        ));
    }
    let mut out = String::new();
    if base.circuit != new.circuit {
        let _ = writeln!(
            out,
            "warning: comparing different circuits (`{}` vs `{}`)",
            base.circuit, new.circuit
        );
    }
    let _ = writeln!(
        out,
        "{:<16} {:>12} {:>12} {:>8}  status",
        "metric", "base", "new", "change"
    );
    let mut regressed = false;
    for (name, b, n, delta, bad) in rows {
        regressed |= bad;
        let change = match delta {
            Some(d) => format!("{d:+.1}%"),
            None => String::from("n/a"),
        };
        let _ = writeln!(
            out,
            "{name:<16} {b:>12} {n:>12} {change:>8}  {}",
            if bad { "REGRESSED" } else { "ok" }
        );
    }
    let _ = write!(
        out,
        "threshold: +{threshold}% on cost metrics; detected must not drop{}",
        if timing { "" } else { "; timing ignored" }
    );
    (out, regressed)
}

/// Reduces a JSONL trace to per-phase totals (GA generations, fitness
/// evaluations, committed vectors, detections) plus the run header/footer.
pub fn summarize_trace(text: &str) -> Result<String, Box<dyn Error>> {
    use std::fmt::Write as _;

    #[derive(Default)]
    struct PhaseTotals {
        entered: u64,
        generations: u64,
        evaluations: u64,
        vectors: u64,
        detected: u64,
    }

    let mut phases: [PhaseTotals; 4] = Default::default();
    let mut times = [0.0f64; 4];
    let mut elapsed = 0.0f64;
    let mut events = 0u64;
    let mut fault_events = 0u64;
    let mut header = String::new();
    let mut footer = String::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let j = parse_json(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        events += 1;
        let kind = j
            .get("event")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {}: missing event tag", lineno + 1))?;
        let phase = j.get("phase").and_then(Json::as_u64);
        let field = |name: &str| j.get(name).and_then(Json::as_u64).unwrap_or(0);
        let totals = phase
            .filter(|p| (1..=4).contains(p))
            .map(|p| (p - 1) as usize);
        match (kind, totals) {
            ("run_started", _) => {
                header = format!(
                    "run: {} seed {} ({} faults)",
                    j.get("circuit").and_then(Json::as_str).unwrap_or("?"),
                    field("seed"),
                    field("total_faults"),
                );
                // Traces recorded before the packed-backend fields existed
                // simply omit this suffix.
                if let Some(backend) = j.get("backend").and_then(Json::as_str) {
                    let _ = write!(
                        header,
                        ", backend {backend} ({} lanes)",
                        field("lanes").max(1)
                    );
                }
            }
            ("phase_entered", Some(p)) => phases[p].entered += 1,
            ("ga_generation", Some(p)) => {
                phases[p].generations += 1;
                phases[p].evaluations += field("evaluations");
            }
            ("vector_committed", Some(p)) => {
                phases[p].vectors += 1;
                phases[p].detected += field("detected_new");
            }
            ("fault_detected", _) => fault_events += 1,
            ("run_finished", _) => {
                times = phase_times(&j);
                elapsed = j.get("elapsed_secs").and_then(Json::as_f64).unwrap_or(0.0);
                footer = format!(
                    "finished: {}/{} detected, {} vectors, {} GA evaluations, {:.2}s",
                    field("detected"),
                    field("total_faults"),
                    field("vectors"),
                    field("ga_evaluations"),
                    j.get("elapsed_secs").and_then(Json::as_f64).unwrap_or(0.0),
                );
                if let Some(c) = j.get("counters") {
                    let cf = |name: &str| c.get(name).and_then(Json::as_u64).unwrap_or(0);
                    let (hits, misses) = (cf("cache_hits"), cf("cache_misses"));
                    let lookups = hits + misses;
                    if lookups + cf("dedup_skips") + cf("prefix_frames_avoided") > 0 {
                        let _ = write!(
                            footer,
                            "\ncache: {hits}/{lookups} hits ({:.1}%), {} dedup skips, {} prefix frames saved",
                            100.0 * hits as f64 / lookups.max(1) as f64,
                            cf("dedup_skips"),
                            cf("prefix_frames_avoided"),
                        );
                    }
                    // Zero on scalar runs and absent (so zero) in old
                    // traces — either way the line is omitted.
                    if cf("wide_groups") > 0 {
                        let _ = write!(
                            footer,
                            "\nwide sim: {} groups at {} lanes/group",
                            cf("wide_groups"),
                            cf("lanes_per_group"),
                        );
                    }
                    if cf("events_amortized") + cf("commit_batch_frames") > 0 {
                        let _ = write!(
                            footer,
                            "\namortized: {} events shared across lanes, {} frames batch-committed",
                            cf("events_amortized"),
                            cf("commit_batch_frames"),
                        );
                    }
                    if cf("report_records_streamed") > 0 {
                        let _ = write!(
                            footer,
                            "\nfault report: {} records streamed",
                            cf("report_records_streamed"),
                        );
                    }
                }
            }
            _ => {}
        }
    }
    if events == 0 {
        return Err("trace is empty".into());
    }
    let mut out = String::new();
    if !header.is_empty() {
        let _ = writeln!(out, "{header}");
    }
    // Wall-time columns appear when the trace's run_finished event carries
    // per-phase timing (older traces did not record it).
    let timed = times.iter().sum::<f64>() > 0.0;
    let wall = if elapsed > 0.0 {
        elapsed
    } else {
        times.iter().sum()
    };
    let _ = write!(
        out,
        "{:<22} {:>7} {:>6} {:>8} {:>8} {:>9}",
        "phase", "entered", "gens", "evals", "vectors", "detected"
    );
    if timed {
        let _ = write!(out, " {:>9} {:>6}", "time", "wall");
    }
    out.push('\n');
    const NAMES: [&str; 4] = [
        "1 initialization",
        "2 vector generation",
        "3 stalled (activity)",
        "4 sequences",
    ];
    for ((name, t), secs) in NAMES.iter().zip(phases.iter()).zip(times) {
        let _ = write!(
            out,
            "{:<22} {:>7} {:>6} {:>8} {:>8} {:>9}",
            name, t.entered, t.generations, t.evaluations, t.vectors, t.detected
        );
        if timed {
            let _ = write!(out, " {:>8.2}s {:>5.1}%", secs, 100.0 * secs / wall);
        }
        out.push('\n');
    }
    let _ = write!(out, "{events} events ({fault_events} fault detections)");
    if !footer.is_empty() {
        let _ = write!(out, "\n{footer}");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summarize_trace_totals_per_phase() {
        let trace = "\
{\"event\":\"run_started\",\"circuit\":\"s27\",\"total_faults\":26,\"seed\":1,\"backend\":\"wide256\",\"lanes\":256}
{\"event\":\"phase_entered\",\"phase\":1,\"vectors\":0}
{\"event\":\"ga_generation\",\"phase\":1,\"generation\":0,\"best\":1,\"mean\":0.5,\"evaluations\":8}
{\"event\":\"ga_generation\",\"phase\":1,\"generation\":1,\"best\":2,\"mean\":1,\"evaluations\":8}
{\"event\":\"vector_committed\",\"phase\":1,\"vectors\":1,\"detected_new\":4,\"detected_total\":4,\"coverage\":0.15}
{\"event\":\"phase_entered\",\"phase\":2,\"vectors\":1}
{\"event\":\"vector_committed\",\"phase\":2,\"vectors\":2,\"detected_new\":3,\"detected_total\":7,\"coverage\":0.27}
{\"event\":\"fault_detected\",\"fault\":3,\"site\":\"G10 SA1\",\"vector\":1}
{\"event\":\"run_finished\",\"detected\":7,\"total_faults\":26,\"vectors\":2,\"ga_evaluations\":16,\"elapsed_secs\":0.5,\"phase_time_secs\":[0.3,0.2,0,0],\"counters\":{\"cache_hits\":6,\"cache_misses\":10,\"dedup_skips\":3,\"prefix_frames_avoided\":40,\"wide_groups\":5,\"lanes_per_group\":256,\"events_amortized\":120,\"commit_batch_frames\":8}}
";
        let summary = summarize_trace(trace).unwrap();
        assert!(
            summary.contains("run: s27 seed 1 (26 faults), backend wide256 (256 lanes)"),
            "{summary}"
        );
        assert!(
            summary.contains("wide sim: 5 groups at 256 lanes/group"),
            "{summary}"
        );
        assert!(
            summary.contains("amortized: 120 events shared across lanes, 8 frames batch-committed"),
            "{summary}"
        );
        let phase1 = summary
            .lines()
            .find(|l| l.starts_with("1 initialization"))
            .unwrap();
        let cols: Vec<&str> = phase1.split_whitespace().collect();
        // name(2 words), entered, gens, evals, vectors, detected, time, wall%
        assert_eq!(&cols[2..], ["1", "2", "16", "1", "4", "0.30s", "60.0%"]);
        assert!(summary.contains("9 events (1 fault detections)"));
        assert!(summary.contains("finished: 7/26 detected, 2 vectors, 16 GA evaluations, 0.50s"));
        assert!(
            summary.contains("cache: 6/16 hits (37.5%), 3 dedup skips, 40 prefix frames saved"),
            "{summary}"
        );
    }

    #[test]
    fn summarize_trace_omits_cache_line_when_memoization_was_off() {
        let trace = "\
{\"event\":\"run_started\",\"circuit\":\"s27\",\"total_faults\":26,\"seed\":1}
{\"event\":\"run_finished\",\"detected\":7,\"total_faults\":26,\"vectors\":2,\"ga_evaluations\":16,\"elapsed_secs\":0.5,\"counters\":{\"cache_hits\":0,\"cache_misses\":0,\"dedup_skips\":0,\"prefix_frames_avoided\":0}}
";
        let summary = summarize_trace(trace).unwrap();
        assert!(!summary.contains("cache:"), "{summary}");
        // No phase_time_secs recorded: no wall-time columns either.
        assert!(!summary.contains("wall"), "{summary}");
        // A pre-backend trace renders without the backend header suffix or
        // the wide-sim counter line.
        assert!(!summary.contains("backend"), "{summary}");
        assert!(!summary.contains("wide sim"), "{summary}");
    }

    const TRACED_FINISH: &str = "\
{\"event\":\"run_started\",\"circuit\":\"s27\",\"total_faults\":26,\"seed\":1}
{\"event\":\"run_finished\",\"detected\":24,\"total_faults\":26,\"vectors\":10,\"ga_evaluations\":640,\"elapsed_secs\":0.5,\"phase_time_secs\":[0.3,0.2,0,0],\"counters\":{\"gate_evals\":100000,\"cache_hits\":0,\"cache_misses\":0,\"dedup_skips\":0,\"prefix_frames_avoided\":0},\"spans\":[{\"kind\":\"run\",\"parent\":null,\"count\":1,\"incl_ns\":500000000,\"excl_ns\":20000000},{\"kind\":\"generation\",\"parent\":\"run\",\"count\":80,\"incl_ns\":480000000,\"excl_ns\":480000000}]}
";

    #[test]
    fn trace_phases_renders_the_span_tree() {
        let table = trace_phases(TRACED_FINISH).unwrap();
        assert!(table.contains("run"), "{table}");
        assert!(table.contains("  generation"), "{table}");
        assert!(table.contains("100.0%"), "{table}");
    }

    #[test]
    fn trace_phases_falls_back_to_phase_wall_clock() {
        let trace = "\
{\"event\":\"run_finished\",\"detected\":7,\"total_faults\":26,\"vectors\":2,\"ga_evaluations\":16,\"elapsed_secs\":0.5,\"phase_time_secs\":[0.3,0.1,0,0],\"spans\":[]}
";
        let table = trace_phases(trace).unwrap();
        assert!(table.contains("no span aggregates"), "{table}");
        assert!(table.contains("75.0%"), "{table}");
        assert!(trace_phases(
            "{\"event\":\"run_started\",\"circuit\":\"s27\",\"total_faults\":26,\"seed\":1}\n"
        )
        .is_err());
    }

    #[test]
    fn trace_stats_reads_header_and_final_totals() {
        let stats = trace_stats(TRACED_FINISH).unwrap();
        assert_eq!(stats.circuit, "s27");
        assert_eq!(stats.detected, 24);
        assert_eq!(stats.vectors, 10);
        assert_eq!(stats.ga_evaluations, 640);
        assert_eq!(stats.gate_evals, 100_000);
        assert!((stats.elapsed_secs - 0.5).abs() < 1e-9);
    }

    #[test]
    fn diff_traces_passes_identical_runs_and_catches_regressions() {
        let base = trace_stats(TRACED_FINISH).unwrap();
        let same = trace_stats(TRACED_FINISH).unwrap();
        let (report, regressed) = diff_traces(&base, &same, 10.0, true);
        assert!(!regressed, "{report}");
        assert!(report.contains("+0.0%"), "{report}");

        // Any detected drop is a regression, regardless of threshold.
        let worse = TraceStats {
            detected: base.detected - 1,
            ..trace_stats(TRACED_FINISH).unwrap()
        };
        let (report, regressed) = diff_traces(&base, &worse, 50.0, true);
        assert!(regressed, "{report}");
        assert!(report.contains("REGRESSED"), "{report}");

        // Cost growth beyond the threshold is a regression...
        let slower = TraceStats {
            ga_evaluations: base.ga_evaluations * 2,
            ..trace_stats(TRACED_FINISH).unwrap()
        };
        let (report, regressed) = diff_traces(&base, &slower, 10.0, true);
        assert!(regressed, "{report}");
        // ...but timing growth is forgiven with timing checks off.
        let jittery = TraceStats {
            elapsed_secs: base.elapsed_secs * 3.0,
            ..trace_stats(TRACED_FINISH).unwrap()
        };
        let (report, regressed) = diff_traces(&base, &jittery, 10.0, false);
        assert!(!regressed, "{report}");
        assert!(report.contains("timing ignored"), "{report}");
        let (_, regressed) = diff_traces(&base, &jittery, 10.0, true);
        assert!(regressed);
    }

    #[test]
    fn summarize_trace_rejects_malformed_lines() {
        let err = summarize_trace("{\"event\":\"run_started\"}\nnot json\n").unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        assert!(summarize_trace("").is_err(), "empty trace is an error");
    }
}
