//! End-to-end GATEST benchmark.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload iscas_suite --seed 1 --seconds 15 --trace 0
//! ```
//!
//! One workload runs per process, built from the workload seed. The whole
//! process is pinned to one vCPU, and timed work is divided by a fixed
//! reference kernel measured after every timed item (see `kernel.rs`), so
//! end-to-end times are ratios that follow the host's speed between runs.
//! `--trace 0` prints the end-to-end metrics; `--trace 1` attaches the
//! library's span instruments and prints the per-layer ledger instead.
//! Every run checks the program's outputs; the last stdout line is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. See
//! `README.md` for the workloads and what each metric should move.

mod atpg;
mod host;
mod kernel;
mod serve;

use std::collections::BTreeMap;
use std::process::ExitCode;

use kernel::RefClock;

/// End-to-end metrics, printed with `--trace 0`: `(name, unit)`.
const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("run_ref", "ratio"),
    ("latency_p50_ref", "ratio"),
    ("latency_p90_ref", "ratio"),
    ("peak_rss_mb", "MiB"),
    ("detected", "faults"),
    ("vectors", "vectors"),
    ("evals", "evaluations"),
    ("evals_to_coverage", "evaluations"),
    ("ok_share", "ratio"),
];

/// Per-layer metrics, printed with `--trace 1`: `(name, unit)`. A layer
/// that does not run on a workload reports 0 there.
const PER_LAYER: [(&str, &str); 37] = [
    ("netlist.build_s", "s"),
    ("sim.collapse_s", "s"),
    ("sim.construct_s", "s"),
    ("sim.csr_bytes", "bytes"),
    ("sim.step_self_s", "s"),
    ("sim.step_share", "ratio"),
    ("sim.gate_evals", "count"),
    ("sim.good_events", "count"),
    ("sim.faulty_events", "count"),
    ("sim.step_calls", "count"),
    ("sim.events_per_step_s", "1/s"),
    ("sim.events_amortized", "count"),
    ("sim.commit_batch_frames", "count"),
    ("sim.merge_self_s", "s"),
    ("evalpool.restores", "count"),
    ("evalpool.restore_bytes_avoided", "bytes"),
    ("evalpool.eval_batch_self_s", "s"),
    ("evalpool.cache_lookup_self_s", "s"),
    ("evalpool.cache_hit_ratio", "ratio"),
    ("evalpool.dedup_skips", "count"),
    ("evalpool.prefix_frames_avoided", "count"),
    ("ga.breed_self_s", "s"),
    ("ga.generations", "count"),
    ("generator.generation_self_s", "s"),
    ("generator.run_self_s", "s"),
    ("generator.unattributed_s", "s"),
    ("generator.phase1_s", "s"),
    ("generator.phase2_s", "s"),
    ("generator.phase3_s", "s"),
    ("generator.phase4_s", "s"),
    ("checkpoint.preempt_resume_s", "s"),
    ("serve.submit_s", "s"),
    ("serve.fetch_s", "s"),
    ("serve.overhead_share", "ratio"),
    ("serve.preemptions", "count"),
    ("serve.rejected", "count"),
    ("telemetry.overhead", "ratio"),
];

/// Command-line arguments.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed: every input of the run is derived from it.
    pub seed: u64,
    /// Measurement window in seconds.
    pub seconds: f64,
    /// Attach span instruments and report the per-layer ledger.
    pub trace: bool,
}

/// What a workload hands back for printing.
#[derive(Default)]
pub struct Report {
    /// Items or jobs attempted.
    pub attempted: u64,
    /// Items or jobs that failed, were refused, or failed an output check.
    pub failed: u64,
    /// Raw wall time of the timed items, in seconds.
    pub run_s: f64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Extra diagnostics: `(key, JSON value)`.
    pub diagnostics: Vec<(String, String)>,
}

impl Report {
    /// Records one metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records one diagnostic, rendered as a JSON value.
    pub fn note(&mut self, key: impl Into<String>, json: impl Into<String>) {
        self.diagnostics.push((key.into(), json.into()));
    }
}

const USAGE: &str =
    "usage: e2ebench --workload <iscas_suite|s1423_sampled|s35932_budget|serve_closed> \
     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let seed = value("--seed")?;
    let seconds = value("--seconds")?;
    let trace = value("--trace")?;
    Ok(Args {
        workload: value("--workload")?.to_string(),
        seed: seed
            .parse()
            .map_err(|_| format!("--seed {seed}: not a non-negative integer"))?,
        seconds: seconds
            .parse()
            .ok()
            .filter(|s: &f64| s.is_finite() && *s > 0.0)
            .ok_or_else(|| format!("--seconds {seconds}: not a positive number"))?,
        trace: match trace {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace {other}: expected 0 or 1")),
        },
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cpu = match host::pin_to_one_cpu() {
        Ok(cpu) => cpu,
        Err(e) => {
            eprintln!("e2ebench: cannot pin to one CPU: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut clock = RefClock::new();
    let report = match args.workload.as_str() {
        "serve_closed" => serve::run(&args, &mut clock),
        name => match atpg::Workload::named(name) {
            Some(workload) => atpg::run(&workload, &args, &mut clock),
            None => {
                eprintln!("e2ebench: unknown workload {name:?}\n{USAGE}");
                return ExitCode::from(2);
            }
        },
    };
    print_report(&args, cpu, &clock, report);
    ExitCode::SUCCESS
}

fn print_report(args: &Args, cpu: usize, clock: &RefClock, mut report: Report) {
    let kernel = &clock.kernel_s;
    let (lo, hi) = kernel.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &k| {
        (lo.min(k), hi.max(k))
    });
    report.note("host.cpu", cpu.to_string());
    report.note("host.cpu_at_exit", host::current_cpu().to_string());
    report.note("host.ref_s", json_num(clock.ref_s()));
    report.note("host.ref_spread", json_num(hi / lo));
    report.note("host.ref_runs", kernel.len().to_string());
    report.note("host.run_s", json_num(report.run_s));
    report.note("host.kernel_bad_checksums", clock.bad_checksums.to_string());
    let diagnostics: Vec<String> = report
        .diagnostics
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    println!(
        "{{\"workload\":{},\"seed\":{},\"diagnostics\":{{{}}}}}",
        json_str(&args.workload),
        args.seed,
        diagnostics.join(",")
    );

    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let metrics: Vec<String> = table
        .iter()
        .map(|&(name, unit)| {
            let value = report.metrics.get(name).copied().unwrap_or(0.0);
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(name),
                json_num(value),
                json_str(unit)
            )
        })
        .collect();
    let failed = report.failed + clock.bad_checksums;
    let correct = failed == 0 && report.attempted > 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        report.attempted.max(1),
        metrics.join(",")
    );
}

/// A finite number with all its digits (non-finite values print as 0).
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

/// A JSON string literal (names and keys here are plain ASCII).
pub fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}
