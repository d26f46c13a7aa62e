//! The job model: what a client submits, and what the server tracks.
//!
//! A [`JobSpec`] is the wire-format description of one ATPG run — circuit,
//! seed, fault sample, budgets, priority. It maps onto a [`GatestConfig`]
//! exactly the way the `gatest atpg` command line does, so a job's result is
//! byte-identical to the same flags run standalone. A [`Job`] is the
//! server's record of one submitted spec as it moves through the state
//! machine: queued → running → (preempted → running)* → done | failed |
//! cancelled.

use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use gatest_core::{FaultSample, GatestConfig, RunSnapshot, TestGenerator};
use gatest_netlist::Circuit;
use gatest_telemetry::json::{quote, Json};
use gatest_telemetry::{Instruments, SimCounters};

/// Default priority for jobs that do not ask for one (middle of 0..=9).
pub const DEFAULT_PRIORITY: u8 = 4;
/// Highest accepted priority.
pub const MAX_PRIORITY: u8 = 9;

/// A client-submitted job description.
///
/// The fields mirror the `gatest atpg` flags that affect results, plus the
/// runtime-only `workers` knob and a scheduling `priority`. Anything not
/// named here takes the same default the CLI uses, so a serve job and a
/// standalone run built from the same spec share one config digest — the
/// precondition for byte-identical results and for handing checkpoints
/// between the two.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Bundled benchmark name (`s27`, `s298`, ...) or a netlist file path.
    pub circuit: String,
    /// Master random seed (CLI default: 1).
    pub seed: u64,
    /// Fault-sample size per fitness evaluation; `0` = all remaining faults
    /// (CLI default: 100).
    pub sample: u64,
    /// Scheduling priority, 0 (lowest) ..= 9 (highest); default 4. Runtime
    /// only — never part of the config digest.
    pub priority: u8,
    /// Optional budget on cumulative GA fitness evaluations.
    pub max_evals: Option<u64>,
    /// Optional wall-clock budget in seconds, counted across slices.
    pub max_wall_secs: Option<f64>,
    /// Fitness-evaluation pool size for this job (default 1; `0` = auto).
    /// Runtime only: results are bit-identical at any worker count.
    pub workers: usize,
}

impl Default for JobSpec {
    fn default() -> Self {
        JobSpec {
            circuit: String::new(),
            seed: 1,
            sample: 100,
            priority: DEFAULT_PRIORITY,
            max_evals: None,
            max_wall_secs: None,
            workers: 1,
        }
    }
}

impl JobSpec {
    /// Builds the [`GatestConfig`] this spec describes — the same
    /// construction `gatest atpg` performs, so the config digest matches a
    /// standalone run with the same flags.
    pub fn config(&self, circuit: &Circuit) -> GatestConfig {
        let mut config = GatestConfig::for_circuit(circuit)
            .with_seed(self.seed)
            .with_workers(self.workers);
        config.fault_sample = if self.sample == 0 {
            FaultSample::Full
        } else {
            FaultSample::Count(self.sample as usize)
        };
        config.max_evals = self.max_evals;
        config.max_wall_secs = self.max_wall_secs;
        config
    }

    /// Serializes the spec as one JSON object.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = format!(
            "{{\"circuit\":{},\"seed\":{},\"sample\":{},\"priority\":{},\"workers\":{}",
            quote(&self.circuit),
            self.seed,
            self.sample,
            self.priority,
            self.workers
        );
        if let Some(n) = self.max_evals {
            let _ = write!(s, ",\"max_evals\":{n}");
        }
        if let Some(secs) = self.max_wall_secs {
            let _ = write!(s, ",\"max_wall_secs\":{secs}");
        }
        s.push('}');
        s
    }

    /// Parses a spec from a submitted JSON object, validating ranges.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field for anything malformed.
    pub fn from_json(value: &Json) -> Result<JobSpec, String> {
        let circuit = value
            .get("circuit")
            .and_then(Json::as_str)
            .ok_or("job spec needs a string `circuit` field")?
            .to_string();
        if circuit.is_empty() {
            return Err("`circuit` must not be empty".into());
        }
        let mut spec = JobSpec {
            circuit,
            ..JobSpec::default()
        };
        if let Some(v) = value.get("seed") {
            spec.seed = v.as_u64().ok_or("`seed` must be a non-negative integer")?;
        }
        if let Some(v) = value.get("sample") {
            spec.sample = v
                .as_u64()
                .ok_or("`sample` must be a non-negative integer")?;
        }
        if let Some(v) = value.get("priority") {
            let p = v.as_u64().ok_or("`priority` must be an integer in 0..=9")?;
            if p > MAX_PRIORITY as u64 {
                return Err(format!("`priority` must be in 0..={MAX_PRIORITY}, got {p}"));
            }
            spec.priority = p as u8;
        }
        if let Some(v) = value.get("max_evals") {
            let n = v.as_u64().ok_or("`max_evals` must be a positive integer")?;
            if n == 0 {
                return Err("`max_evals` must be positive".into());
            }
            spec.max_evals = Some(n);
        }
        if let Some(v) = value.get("max_wall_secs") {
            let secs = v.as_f64().ok_or("`max_wall_secs` must be a number")?;
            if !secs.is_finite() || secs <= 0.0 {
                return Err("`max_wall_secs` must be positive".into());
            }
            spec.max_wall_secs = Some(secs);
        }
        if let Some(v) = value.get("workers") {
            let w = v
                .as_u64()
                .ok_or("`workers` must be a non-negative integer (0 = auto)")?;
            spec.workers = w as usize;
        }
        Ok(spec)
    }
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Admitted, waiting for its first scheduler slice.
    Queued,
    /// A runner thread is executing a slice of it right now.
    Running,
    /// Stopped at a generation-tick boundary with its generator suspended
    /// in memory (or, after a restart, its checkpoint reloaded); waiting
    /// for its next slice (or for drain persistence).
    Preempted,
    /// Finished; its deterministic result JSON is available.
    Done,
    /// Aborted with an error (bad circuit, resume mismatch, ...).
    Failed,
    /// Cancelled by the client before completion.
    Cancelled,
}

impl JobState {
    /// The wire name of the state.
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Preempted => "preempted",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Parses a wire name back (used when reloading persisted state).
    pub fn parse(s: &str) -> Option<JobState> {
        Some(match s {
            "queued" => JobState::Queued,
            "running" => JobState::Running,
            "preempted" => JobState::Preempted,
            "done" => JobState::Done,
            "failed" => JobState::Failed,
            "cancelled" => JobState::Cancelled,
            _ => return None,
        })
    }

    /// True once the job can no longer change state.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }

    /// True while the job still wants scheduler slices.
    pub fn is_runnable(self) -> bool {
        matches!(self, JobState::Queued | JobState::Preempted)
    }
}

/// The server's record of one submitted job.
#[derive(Debug)]
pub struct Job {
    /// Server-assigned id, dense from 1.
    pub id: u64,
    /// What the client asked for.
    pub spec: JobSpec,
    /// Current lifecycle state.
    pub state: JobState,
    /// Enqueue sequence number: re-assigned every time the job (re-)enters
    /// the ready set, so equal-priority jobs round-robin (FIFO within a
    /// priority, and a preempted job goes to the back of its class).
    pub seq: u64,
    /// Scheduler slices executed so far.
    pub slices: u64,
    /// The job's generator between slices (state Preempted), its run
    /// suspended at a generation-tick boundary. Drain persists its
    /// snapshot; cancel drops it.
    pub generator: Option<Box<TestGenerator>>,
    /// A checkpoint reloaded from the state dir, kept until the job's
    /// first claim in this process rehydrates it into a generator.
    pub snapshot: Option<RunSnapshot>,
    /// The exact `result_to_json` bytes once Done.
    pub result_json: Option<String>,
    /// Why the job Failed, when it did.
    pub error: Option<String>,
    /// Raised by the cancel endpoint; checked when the current slice ends.
    pub cancel_requested: bool,
    /// Stop flag of the in-flight slice (state Running): raising it makes
    /// the core stop at the next generation-tick boundary.
    pub slice_stop: Option<Arc<AtomicBool>>,
    /// Buffered per-job telemetry events as JSONL lines, in emission order
    /// (one run_started/run_finished pair per slice — the stream shows the
    /// scheduling seams honestly).
    pub events: Arc<Mutex<Vec<String>>>,
    /// Per-job metrics bundle, rendered under a `job="<id>"` label in
    /// `/metrics` so concurrent jobs never share a series.
    pub instruments: Arc<Instruments>,
    /// Simulator counters of the job's generator, cumulative across
    /// slices (one generator runs them all; a restart reloads them from
    /// the checkpoint).
    pub counters: Option<Arc<SimCounters>>,
    /// When the job was admitted (for completion-latency metrics).
    pub submitted: Instant,
    /// When the job reached `Done` — the reference point for result-TTL
    /// eviction. Reset to load time when reloaded from a state dir (the
    /// wall-clock age does not survive a restart, so the TTL restarts).
    pub done_at: Option<Instant>,
    /// True once the TTL policy dropped the result bytes. The job stays
    /// `Done` but its result endpoint answers 404 with the eviction reason.
    pub evicted: bool,
}

impl Job {
    /// A fresh record in `Queued` state.
    pub fn new(id: u64, spec: JobSpec, seq: u64) -> Job {
        Job {
            id,
            spec,
            state: JobState::Queued,
            seq,
            slices: 0,
            generator: None,
            snapshot: None,
            result_json: None,
            error: None,
            cancel_requested: false,
            slice_stop: None,
            events: Arc::new(Mutex::new(Vec::new())),
            instruments: Instruments::new(),
            counters: None,
            submitted: Instant::now(),
            done_at: None,
            evicted: false,
        }
    }

    /// One-object JSON summary for the status and list endpoints.
    pub fn summary_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = format!(
            "{{\"id\":{},\"state\":{},\"priority\":{},\"slices\":{},\"spec\":{}",
            self.id,
            quote(self.state.as_str()),
            self.spec.priority,
            self.slices,
            self.spec.to_json()
        );
        if let Some(error) = &self.error {
            let _ = write!(s, ",\"error\":{}", quote(error));
        }
        if self.evicted {
            s.push_str(",\"evicted\":true");
        }
        s.push('}');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gatest_core::config_digest;
    use gatest_telemetry::json::parse_json;

    #[test]
    fn spec_round_trips_through_json() {
        let spec = JobSpec {
            circuit: "s298".into(),
            seed: 7,
            sample: 60,
            priority: 9,
            max_evals: Some(600),
            max_wall_secs: Some(2.5),
            workers: 2,
        };
        let parsed = JobSpec::from_json(&parse_json(&spec.to_json()).unwrap()).unwrap();
        assert_eq!(parsed, spec);
    }

    #[test]
    fn spec_defaults_match_the_cli() {
        let json = parse_json("{\"circuit\":\"s27\"}").unwrap();
        let spec = JobSpec::from_json(&json).unwrap();
        assert_eq!(spec.seed, 1, "CLI --seed default");
        assert_eq!(spec.sample, 100, "CLI --sample default");
        assert_eq!(spec.priority, DEFAULT_PRIORITY);
        assert_eq!(spec.workers, 1);
        let circuit = gatest_netlist::benchmarks::iscas89("s27").unwrap();
        let config = spec.config(&circuit);
        assert_eq!(config.fault_sample, FaultSample::Count(100));
        // Byte-identity precondition: same digest as the CLI construction.
        let cli = GatestConfig::for_circuit(&circuit).with_seed(1);
        let cli = GatestConfig {
            fault_sample: FaultSample::Count(100),
            ..cli
        };
        assert_eq!(config_digest(&config), config_digest(&cli));
    }

    #[test]
    fn spec_validation_names_the_bad_field() {
        for (body, needle) in [
            ("{}", "circuit"),
            ("{\"circuit\":\"\"}", "circuit"),
            ("{\"circuit\":\"s27\",\"priority\":12}", "priority"),
            ("{\"circuit\":\"s27\",\"max_evals\":0}", "max_evals"),
            (
                "{\"circuit\":\"s27\",\"max_wall_secs\":-1}",
                "max_wall_secs",
            ),
            ("{\"circuit\":\"s27\",\"seed\":\"x\"}", "seed"),
        ] {
            let err = JobSpec::from_json(&parse_json(body).unwrap()).unwrap_err();
            assert!(err.contains(needle), "{body} -> {err}");
        }
    }

    #[test]
    fn sample_zero_means_full() {
        let json = parse_json("{\"circuit\":\"s27\",\"sample\":0}").unwrap();
        let spec = JobSpec::from_json(&json).unwrap();
        let circuit = gatest_netlist::benchmarks::iscas89("s27").unwrap();
        assert_eq!(spec.config(&circuit).fault_sample, FaultSample::Full);
    }

    #[test]
    fn state_names_round_trip() {
        for state in [
            JobState::Queued,
            JobState::Running,
            JobState::Preempted,
            JobState::Done,
            JobState::Failed,
            JobState::Cancelled,
        ] {
            assert_eq!(JobState::parse(state.as_str()), Some(state));
        }
        assert!(JobState::parse("nope").is_none());
        assert!(JobState::Done.is_terminal() && !JobState::Done.is_runnable());
        assert!(JobState::Preempted.is_runnable());
        assert!(!JobState::Running.is_runnable());
    }
}
