//! `gatest` — the command-line front door to the GATEST suite.
//!
//! ```text
//! gatest atpg     <circuit> [--seed N] [--sample N] [--workers N|auto]
//!                 [--sim-width auto|scalar64|wide256] [--out tests.txt]
//!                 [--eval-cache N|off] [--paranoid-cache]
//!                 [--trace-out trace.jsonl] [--progress] [-v|--verbose] [-q|--quiet]
//!                 [--metrics-addr 127.0.0.1:9184]
//!                 [--checkpoint FILE] [--checkpoint-every N|Ns] [--resume FILE]
//!                 [--max-wall-secs S] [--max-evals N] [--result-json FILE]
//!                 [--fault-report FILE]
//!
//! `--workers` sets the fitness-evaluation pool size: a
//! positive integer, or `0`/`auto` for all available cores. It is the only
//! parallel layer; each worker's simulator steps its fault groups serially.
//! Results are bit-identical at every worker count.
//!
//! `--sim-width` picks the packed-simulation backend: `auto` (default:
//! each step runs 256 fault machines per word when it simulates more than
//! 128 faults on a circuit with at most 32 gates per flip-flop or output,
//! 64 otherwise), or a pinned `scalar64` (64 lanes) or
//! `wide256` (256 lanes, autovectorized with an AVX2 path when the host has
//! it). Like the worker count it is an execution detail: results are
//! bit-identical at every width, and a checkpoint taken at one width
//! resumes at another.
//!
//! `--fault-report FILE` streams one JSONL record per committed fault
//! detection as the run progresses, closing with a summary line and an
//! atomic rename (a crash never leaves a truncated report). On a
//! `--resume` leg the stream covers that leg's detections only, while
//! its summary reflects the whole run.
//!
//! `--eval-cache N` bounds the epoch-keyed fitness cache (default 4096
//! entries); `off` (or `0`) disables the whole memoization layer — cache
//! and batch dedup — so every candidate is simulated. `--paranoid-cache`
//! recomputes every memoized score and asserts bit-equality (debug aid,
//! slow). Both are runtime-only: they never change results, only how much
//! simulation is spent producing them.
//! gatest serve    [--addr HOST:PORT] [--state-dir DIR] [--slice-ticks N]
//!                 [--queue-depth N] [--runners N] [--port-file FILE]
//!                 [--result-ttl-secs S]
//! gatest grade    <circuit> --tests tests.txt [--transition] [--survivors N]
//!                 [--report FILE]
//! gatest compact  <circuit> --tests tests.txt [--out compacted.txt]
//! gatest diagnose <circuit> --tests tests.txt --observe V:PO[,V:PO...]
//! gatest stats    <circuit>
//! gatest scan     <circuit> [--out scanned.bench]
//! gatest convert  <circuit> --to bench|verilog|dot [--out file]
//! gatest hitec    <circuit> [--scoap]
//! gatest trace    summarize <trace.jsonl>
//! gatest trace    phases <trace.jsonl>
//! gatest trace    diff <base.jsonl> <new.jsonl> [--threshold PCT] [--no-timing]
//! ```
//!
//! `--metrics-addr ADDR` serves live Prometheus text on `/metrics` and a
//! JSON progress snapshot on `/healthz` for the duration of the run (port 0
//! picks a free port; the bound address is printed). `trace phases` prints
//! the hierarchical span-time breakdown a traced run embeds in its
//! `run_finished` event; `trace diff` compares two traces and exits
//! non-zero on regression (detected drop, or cost growth beyond
//! `--threshold` percent, default 10; `--no-timing` ignores wall-clock
//! rows for machine-independent CI gating).
//!
//! `<circuit>` is either a bundled benchmark name (`s27`, `s298`, ...) or a
//! path to a `.bench` / `.v` netlist.
//!
//! Exit codes follow convention: `0` on success, `1` on runtime errors
//! (unreadable files, failed runs), `2` on usage errors (unknown commands,
//! flags the command does not take, missing arguments), `3` when an `atpg`
//! run stopped early but gracefully — on SIGINT/SIGTERM or an exhausted
//! `--max-wall-secs` / `--max-evals` budget — with its state checkpointed
//! for `--resume`.

use std::error::Error;
use std::process::ExitCode;
use std::sync::Arc;

use gatest_netlist::Circuit;

mod commands;
mod opts;

use opts::{Opts, UsageError};

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" {
        print!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let command = args.remove(0);
    match run(&command, args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("gatest {command}: {e}");
            if e.downcast_ref::<UsageError>().is_some() {
                ExitCode::from(2)
            } else {
                ExitCode::FAILURE
            }
        }
    }
}

fn usage() -> String {
    let mut s = String::from("gatest — GA-based sequential circuit test generation\n\n");
    s.push_str("commands:\n");
    for (cmd, desc) in [
        ("atpg", "generate a stuck-at test set with the GATEST GA"),
        (
            "serve",
            "run the multi-tenant ATPG job server (HTTP/JSONL API)",
        ),
        (
            "grade",
            "fault-grade an existing test set (--transition for delay faults)",
        ),
        ("compact", "shrink a test set without losing coverage"),
        (
            "diagnose",
            "rank candidate faults from failing observations",
        ),
        ("stats", "print circuit statistics and testability summary"),
        ("scan", "emit the full-scan version of a circuit"),
        ("convert", "convert between bench/verilog/dot formats"),
        ("hitec", "run the deterministic (PODEM) baseline"),
        (
            "trace",
            "analyze JSONL run traces (summarize|phases <file>, diff <a> <b>)",
        ),
    ] {
        s.push_str(&format!("  {cmd:<9} {desc}\n"));
    }
    s.push_str("\nobservability (atpg): --trace-out FILE writes a JSONL event trace,\n");
    s.push_str("--progress prints live stderr updates, -v adds a telemetry table,\n");
    s.push_str("-q suppresses the summary; --metrics-addr HOST:PORT serves live\n");
    s.push_str("Prometheus /metrics and JSON /healthz for the duration of the run;\n");
    s.push_str("trace phases prints a traced run's span-time breakdown and\n");
    s.push_str("trace diff <a> <b> [--threshold PCT] [--no-timing] gates regressions\n");
    s.push_str("\nparallelism (atpg): --workers N sizes the\n");
    s.push_str("fitness-evaluation pool; 0 or `auto` uses all available cores;\n");
    s.push_str("--sim-width auto|scalar64|wide256 picks the packed backend\n");
    s.push_str("(default auto: 256 fault machines per word for steps over 128\n");
    s.push_str("faults unless the circuit has over 32 gates per flip-flop or\n");
    s.push_str("output, 64 otherwise; scalar64/wide256 pin one width); results\n");
    s.push_str("are bit-identical at every workers/sim-width combination\n");
    s.push_str("\nmemoization (atpg): --eval-cache N bounds the fitness cache\n");
    s.push_str("(default 4096; `off` disables the cache and dedup);\n");
    s.push_str("--paranoid-cache recomputes every memoized score and asserts\n");
    s.push_str("bit-equality; results\n");
    s.push_str("are bit-identical with memoization on or off\n");
    s.push_str("\nlong runs (atpg): --checkpoint FILE saves resumable state\n");
    s.push_str("(--checkpoint-every N generations, or Ns seconds); --max-wall-secs\n");
    s.push_str("and --max-evals stop gracefully on a budget; SIGINT/SIGTERM also\n");
    s.push_str("stop gracefully (exit code 3, checkpoint written); --resume FILE\n");
    s.push_str("continues bit-identically; --result-json FILE writes the\n");
    s.push_str("deterministic result summary for diffing runs; --fault-report FILE\n");
    s.push_str("streams committed detections as JSONL (summary line + atomic rename)\n");
    s.push_str("\nserving: `gatest serve --addr HOST:PORT` runs the job server\n");
    s.push_str("(POST /jobs submits, GET /jobs/<id>/result fetches byte-identical\n");
    s.push_str("results; see README \"Serving\"); --state-dir DIR persists the queue\n");
    s.push_str("across restarts, --slice-ticks N sets the preemption granularity,\n");
    s.push_str("--queue-depth N bounds admission (429 beyond it), --runners N sizes\n");
    s.push_str("the slice-runner pool, --port-file FILE writes the bound address,\n");
    s.push_str("--result-ttl-secs S evicts finished results after S seconds (404\n");
    s.push_str("with reason; default keeps them forever);\n");
    s.push_str("SIGTERM drains gracefully: running jobs are checkpointed and resume\n");
    s.push_str("on the next start with the same --state-dir\n");
    s.push_str("\nrun `gatest <command> --help` style flags are listed in the module docs;\n");
    s.push_str("circuits are bundled names (s27, s298, ...) or .bench/.v file paths\n");
    s
}

/// The long flags each command takes; any other flag is a usage error.
const COMMAND_FLAGS: [(&str, &[&str]); 10] = [
    (
        "atpg",
        &[
            "seed",
            "sample",
            "workers",
            "sim-width",
            "out",
            "eval-cache",
            "paranoid-cache",
            "trace-out",
            "progress",
            "verbose",
            "quiet",
            "metrics-addr",
            "checkpoint",
            "checkpoint-every",
            "resume",
            "max-wall-secs",
            "max-evals",
            "result-json",
            "fault-report",
        ],
    ),
    (
        "serve",
        &[
            "addr",
            "state-dir",
            "slice-ticks",
            "queue-depth",
            "runners",
            "port-file",
            "result-ttl-secs",
            "quiet",
        ],
    ),
    ("grade", &["tests", "transition", "survivors", "report"]),
    ("compact", &["tests", "out"]),
    ("diagnose", &["tests", "observe", "top"]),
    ("stats", &[]),
    ("scan", &["out"]),
    ("convert", &["to", "out"]),
    ("hitec", &["scoap", "frames", "backtracks", "out"]),
    ("trace", &["threshold", "no-timing"]),
];

fn run(command: &str, args: Vec<String>) -> Result<ExitCode, Box<dyn Error>> {
    let opts = Opts::parse(args)?;
    if let Some((_, flags)) = COMMAND_FLAGS.iter().find(|(name, _)| *name == command) {
        opts.expect_flags(flags)?;
    }
    let done = |r: Result<(), Box<dyn Error>>| r.map(|()| ExitCode::SUCCESS);
    match command {
        "atpg" => commands::atpg(&opts),
        "serve" => commands::serve(&opts),
        "grade" => done(commands::grade(&opts)),
        "compact" => done(commands::compact(&opts)),
        "diagnose" => done(commands::diagnose(&opts)),
        "stats" => done(commands::stats(&opts)),
        "scan" => done(commands::scan(&opts)),
        "convert" => done(commands::convert(&opts)),
        "hitec" => done(commands::hitec(&opts)),
        "trace" => done(commands::trace(&opts)),
        other => Err(UsageError::boxed(format!(
            "unknown command `{other}` (try --help)"
        ))),
    }
}

/// Loads a circuit from a bundled benchmark name or a netlist file path.
pub(crate) fn load_circuit(spec: &str) -> Result<Arc<Circuit>, Box<dyn Error>> {
    if let Ok(c) = gatest_netlist::benchmarks::iscas89(spec) {
        return Ok(Arc::new(c));
    }
    let text = std::fs::read_to_string(spec)
        .map_err(|e| format!("`{spec}` is not a bundled circuit and reading it failed: {e}"))?;
    let name = std::path::Path::new(spec)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("circuit");
    if spec.ends_with(".v") {
        Ok(Arc::new(gatest_netlist::verilog::parse_verilog(&text)?))
    } else {
        Ok(Arc::new(gatest_netlist::parse_bench(name, &text)?))
    }
}
