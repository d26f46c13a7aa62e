//! The job server: shared state, runner threads, admission control,
//! graceful drain, and state-directory persistence.
//!
//! A [`Server`] owns one HTTP accept thread (see [`crate::http`]) and N
//! runner threads executing scheduler slices. All of them share a
//! [`ServerState`]: the job table under one mutex, a condvar waking runners
//! when work arrives, and atomic drain/shutdown flags.
//!
//! **Drain protocol** (SIGTERM): stop admitting, raise every in-flight
//! slice's stop flag, let runners park the interrupted jobs as `Preempted`
//! with their generators suspended in memory, then persist everything to
//! the state directory — `queue.jsonl` manifest, `job-<id>.ck` checkpoints
//! built from each suspended generator (the same versioned format `gatest
//! atpg --checkpoint` writes), `job-<id>.result.json` exact result bytes.
//! A restart with the same `--state-dir` reloads the manifest and continues
//! every unfinished job bit-identically.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use gatest_core::report::result_to_json;
use gatest_core::RunSnapshot;
use gatest_telemetry::json::{parse_json, quote, Json};
use gatest_telemetry::{Counter, Gauge, Histogram, MetricsRegistry};

use crate::job::{Job, JobSpec, JobState};
use crate::scheduler::{
    pick_next, run_slice, CircuitCache, SliceClaim, SliceOutcome, DEFAULT_SLICE_TICKS,
};

/// Manifest format version (first line of `queue.jsonl`).
const STATE_VERSION: u64 = 1;

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Where to persist state on drain and look for it on start.
    pub state_dir: Option<PathBuf>,
    /// Generator ticks per scheduler slice.
    pub slice_ticks: u64,
    /// Admission bound: maximum jobs in non-terminal states. Submissions
    /// beyond it get 429.
    pub queue_depth: usize,
    /// Runner threads executing slices concurrently. Each job still runs
    /// its slices strictly in order, so results stay bit-identical.
    pub runners: usize,
    /// Result TTL in seconds: `Done` jobs older than this have their
    /// result bytes evicted (memory and state-dir copy) and answer 404
    /// with the eviction reason. `None` (the default) keeps results
    /// forever. Eviction is lazy — swept on HTTP requests, not by a
    /// background thread.
    pub result_ttl_secs: Option<f64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            state_dir: None,
            slice_ticks: DEFAULT_SLICE_TICKS,
            queue_depth: 64,
            runners: 1,
            result_ttl_secs: None,
        }
    }
}

/// Server-level metrics (job throughput and queue health), rendered at the
/// top of `/metrics` before the per-job labeled sections.
pub struct ServeMetrics {
    /// Registry owning the handles below.
    pub registry: MetricsRegistry,
    /// Jobs admitted.
    pub submitted: Arc<Counter>,
    /// Jobs finished with a result.
    pub completed: Arc<Counter>,
    /// Jobs that errored.
    pub failed: Arc<Counter>,
    /// Jobs cancelled by clients.
    pub cancelled: Arc<Counter>,
    /// Scheduler preemptions (slices that did not finish the job).
    pub preemptions: Arc<Counter>,
    /// Submissions rejected by admission control (429).
    pub rejected: Arc<Counter>,
    /// Job results evicted by the TTL policy.
    pub evicted_jobs: Arc<Counter>,
    /// Jobs currently in non-terminal states.
    pub active: Arc<Gauge>,
    /// Jobs currently running a slice.
    pub running: Arc<Gauge>,
    /// Submit-to-done latency of completed jobs, nanoseconds.
    pub completion_latency_ns: Arc<Histogram>,
}

impl Default for ServeMetrics {
    fn default() -> Self {
        let registry = MetricsRegistry::new();
        ServeMetrics {
            submitted: registry.counter("gatest_serve_jobs_submitted_total", "Jobs admitted"),
            completed: registry.counter(
                "gatest_serve_jobs_completed_total",
                "Jobs finished with a result",
            ),
            failed: registry.counter("gatest_serve_jobs_failed_total", "Jobs that errored"),
            cancelled: registry.counter(
                "gatest_serve_jobs_cancelled_total",
                "Jobs cancelled by clients",
            ),
            preemptions: registry.counter(
                "gatest_serve_preemptions_total",
                "Scheduler slices ending in preemption",
            ),
            rejected: registry.counter(
                "gatest_serve_jobs_rejected_total",
                "Submissions rejected by admission control",
            ),
            evicted_jobs: registry.counter(
                "gatest_serve_jobs_evicted_total",
                "Job results evicted by the TTL policy",
            ),
            active: registry.gauge("gatest_serve_jobs_active", "Jobs in non-terminal states"),
            running: registry.gauge("gatest_serve_jobs_running", "Jobs running a slice"),
            completion_latency_ns: registry.histogram(
                "gatest_serve_completion_latency_ns",
                "Submit-to-done latency of completed jobs",
            ),
            registry,
        }
    }
}

/// The job table: all jobs by id, plus the id/seq counters that make
/// scheduling fair and persistence stable.
#[derive(Default)]
pub struct JobTable {
    /// All jobs, keyed by id (BTreeMap so listings are ordered).
    pub jobs: BTreeMap<u64, Job>,
    /// Next job id to assign.
    pub next_id: u64,
    /// Next enqueue sequence number.
    pub next_seq: u64,
}

impl JobTable {
    /// Jobs in non-terminal states (the admission-control count).
    pub fn active_count(&self) -> usize {
        self.jobs
            .values()
            .filter(|j| !j.state.is_terminal())
            .count()
    }

    /// The runnable job the scheduler should claim next, if any.
    pub fn next_runnable(&self) -> Option<u64> {
        pick_next(
            self.jobs
                .values()
                .filter(|j| j.state.is_runnable())
                .map(|j| (j.spec.priority, j.seq, j.id)),
        )
    }
}

/// State shared between the HTTP layer, the runner threads, and drain.
pub struct ServerState {
    /// The job table and scheduling counters.
    pub table: Mutex<JobTable>,
    /// Wakes runners when work arrives (submit, re-enqueue) or state flips.
    pub work: Condvar,
    /// True once drain began: no new admissions, runners stop claiming.
    pub draining: AtomicBool,
    /// True when the server should stop without draining (Drop).
    pub shutdown: AtomicBool,
    /// Admission bound (non-terminal jobs).
    pub queue_depth: usize,
    /// Generator ticks per slice.
    pub slice_ticks: u64,
    /// Loaded circuits shared across jobs and slices.
    pub circuits: CircuitCache,
    /// Server-level metrics.
    pub metrics: ServeMetrics,
    /// Where results/checkpoints/manifest persist.
    pub state_dir: Option<PathBuf>,
    /// Server start time (healthz uptime).
    pub started: Instant,
    /// Result TTL; `None` disables eviction.
    pub result_ttl: Option<std::time::Duration>,
}

impl ServerState {
    fn new(config: &ServerConfig) -> ServerState {
        ServerState {
            table: Mutex::new(JobTable {
                next_id: 1,
                ..JobTable::default()
            }),
            work: Condvar::new(),
            draining: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            queue_depth: config.queue_depth.max(1),
            slice_ticks: config.slice_ticks.max(1),
            circuits: CircuitCache::default(),
            metrics: ServeMetrics::default(),
            state_dir: config.state_dir.clone(),
            started: Instant::now(),
            result_ttl: config
                .result_ttl_secs
                .filter(|s| *s > 0.0)
                .map(std::time::Duration::from_secs_f64),
        }
    }

    /// Applies the result-TTL policy: every `Done` job whose result has
    /// outlived the TTL loses its result bytes — in memory and, when a
    /// state dir is configured, on disk — and is marked evicted; its
    /// result endpoint answers 404 with the reason from then on. A no-op
    /// when no TTL is configured. Called lazily from the HTTP layer on
    /// every request, so eviction needs no background thread.
    pub fn evict_expired(&self) {
        let Some(ttl) = self.result_ttl else { return };
        let mut evicted = 0u64;
        let mut table = self.table.lock().unwrap();
        for job in table.jobs.values_mut() {
            if job.state == JobState::Done
                && !job.evicted
                && job.done_at.is_some_and(|t| t.elapsed() >= ttl)
            {
                job.result_json = None;
                job.evicted = true;
                if let Some(dir) = &self.state_dir {
                    let _ = std::fs::remove_file(result_path(dir, job.id));
                }
                evicted += 1;
            }
        }
        drop(table);
        self.metrics.evicted_jobs.add(evicted);
    }

    /// Admits a job, or explains why not: `Err(429)`-shaped when the queue
    /// is full, `Err(503)`-shaped when draining. Returns the new job id.
    pub fn submit(&self, spec: JobSpec) -> Result<u64, SubmitError> {
        if self.draining.load(Ordering::SeqCst) {
            return Err(SubmitError::Draining);
        }
        let mut table = self.table.lock().unwrap();
        if table.active_count() >= self.queue_depth {
            self.metrics.rejected.inc();
            return Err(SubmitError::QueueFull);
        }
        let id = table.next_id;
        table.next_id += 1;
        let seq = table.next_seq;
        table.next_seq += 1;
        table.jobs.insert(id, Job::new(id, spec, seq));
        self.metrics.submitted.inc();
        self.metrics.active.set(table.active_count() as f64);
        drop(table);
        self.work.notify_all();
        Ok(id)
    }

    /// Requests cancellation. Queued/preempted jobs cancel immediately;
    /// running jobs stop at the next tick boundary and cancel then.
    /// Returns the state after the request, or `None` for unknown ids.
    pub fn cancel(&self, id: u64) -> Option<JobState> {
        let mut table = self.table.lock().unwrap();
        let job = table.jobs.get_mut(&id)?;
        match job.state {
            JobState::Queued | JobState::Preempted => {
                job.state = JobState::Cancelled;
                job.generator = None;
                job.snapshot = None;
                job.slice_stop = None;
                self.metrics.cancelled.inc();
            }
            JobState::Running => {
                job.cancel_requested = true;
                if let Some(stop) = &job.slice_stop {
                    stop.store(true, Ordering::SeqCst);
                }
            }
            // Terminal states stay as they are.
            JobState::Done | JobState::Failed | JobState::Cancelled => {}
        }
        let state = job.state;
        self.metrics.active.set(table.active_count() as f64);
        drop(table);
        self.work.notify_all();
        Some(state)
    }

    /// Blocks until a job is claimable, then claims it. Returns `None`
    /// when the server is draining or shutting down.
    fn claim_next(&self) -> Option<SliceClaim> {
        let mut table = self.table.lock().unwrap();
        loop {
            if self.draining.load(Ordering::SeqCst) || self.shutdown.load(Ordering::SeqCst) {
                return None;
            }
            if let Some(id) = table.next_runnable() {
                let job = table.jobs.get_mut(&id).expect("runnable job exists");
                job.state = JobState::Running;
                let stop = Arc::new(AtomicBool::new(false));
                job.slice_stop = Some(Arc::clone(&stop));
                let claim = SliceClaim {
                    id,
                    spec: job.spec.clone(),
                    generator: job.generator.take(),
                    snapshot: job.snapshot.take(),
                    stop,
                    events: Arc::clone(&job.events),
                    instruments: Arc::clone(&job.instruments),
                };
                self.metrics.running.set(
                    table
                        .jobs
                        .values()
                        .filter(|j| j.state == JobState::Running)
                        .count() as f64,
                );
                return Some(claim);
            }
            table = self.work.wait(table).unwrap();
        }
    }

    /// Folds a finished slice back into the table: Done/Failed/Cancelled,
    /// or Preempted + re-enqueued at the back of its priority class.
    fn complete_slice(
        &self,
        id: u64,
        outcome: SliceOutcome,
        counters: Option<Arc<gatest_telemetry::SimCounters>>,
    ) {
        let mut table = self.table.lock().unwrap();
        let next_seq = {
            let seq = table.next_seq;
            table.next_seq += 1;
            seq
        };
        let state_dir = self.state_dir.clone();
        if let Some(job) = table.jobs.get_mut(&id) {
            job.slices += 1;
            job.slice_stop = None;
            if let Some(counters) = counters {
                job.counters = Some(counters);
            }
            match outcome {
                SliceOutcome::Finished(result) => {
                    job.state = JobState::Done;
                    // Same bytes `gatest atpg --result-json` writes (the
                    // CLI appends one newline) — the byte-compare contract.
                    let json = result_to_json(&result) + "\n";
                    // Persist the result as soon as it exists, so a later
                    // crash (not just a graceful drain) keeps it fetchable
                    // after restart.
                    if let Some(dir) = &state_dir {
                        let _ = std::fs::write(result_path(dir, id), &json);
                    }
                    job.result_json = Some(json);
                    job.done_at = Some(Instant::now());
                    self.metrics.completed.inc();
                    self.metrics
                        .completion_latency_ns
                        .observe(job.submitted.elapsed().as_nanos() as u64);
                }
                SliceOutcome::Error(message) => {
                    job.state = JobState::Failed;
                    job.error = Some(message);
                    self.metrics.failed.inc();
                }
                SliceOutcome::Preempted(generator) => {
                    if job.cancel_requested {
                        job.state = JobState::Cancelled;
                        self.metrics.cancelled.inc();
                    } else {
                        job.state = JobState::Preempted;
                        job.generator = Some(generator);
                        job.seq = next_seq;
                        self.metrics.preemptions.inc();
                    }
                }
            }
        }
        self.metrics.active.set(table.active_count() as f64);
        self.metrics.running.set(
            table
                .jobs
                .values()
                .filter(|j| j.state == JobState::Running)
                .count() as f64,
        );
        drop(table);
        self.work.notify_all();
    }
}

/// Why a submission was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// Admission control: too many non-terminal jobs (HTTP 429).
    QueueFull,
    /// The server is draining (HTTP 503).
    Draining,
}

/// The running server: accept thread + runner threads + shared state.
pub struct Server {
    state: Arc<ServerState>,
    addr: std::net::SocketAddr,
    listener_shutdown: Arc<AtomicBool>,
    accept_handle: Option<JoinHandle<()>>,
    runner_handles: Vec<JoinHandle<()>>,
    drained: bool,
}

impl Server {
    /// Binds, reloads persisted state when the config names a state dir
    /// with a manifest in it, and starts the accept and runner threads.
    ///
    /// # Errors
    ///
    /// Returns bind errors and unreadable/corrupt state-dir manifests.
    pub fn start(config: ServerConfig) -> std::io::Result<Server> {
        let state = Arc::new(ServerState::new(&config));
        if let Some(dir) = &config.state_dir {
            load_state(&state, dir).map_err(std::io::Error::other)?;
        }
        let listener = std::net::TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let listener_shutdown = Arc::new(AtomicBool::new(false));
        let accept_state = Arc::clone(&state);
        let accept_flag = Arc::clone(&listener_shutdown);
        let accept_handle = std::thread::Builder::new()
            .name("gatest-serve-http".into())
            .spawn(move || crate::http::accept_loop(listener, accept_state, accept_flag))?;
        let mut runner_handles = Vec::new();
        for i in 0..config.runners.max(1) {
            let runner_state = Arc::clone(&state);
            runner_handles.push(
                std::thread::Builder::new()
                    .name(format!("gatest-serve-runner-{i}"))
                    .spawn(move || runner_loop(&runner_state))?,
            );
        }
        Ok(Server {
            state,
            addr,
            listener_shutdown,
            accept_handle: Some(accept_handle),
            runner_handles,
            drained: false,
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// The shared state (tests and the CLI health loop read it).
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// Graceful drain: stop admitting, preempt every running slice at its
    /// next tick boundary, wait for runners to park, persist everything to
    /// the state dir (when configured), and stop serving.
    ///
    /// # Errors
    ///
    /// Returns persistence failures; the in-memory drain still completed.
    pub fn drain(&mut self) -> std::io::Result<()> {
        self.state.draining.store(true, Ordering::SeqCst);
        {
            let table = self.state.table.lock().unwrap();
            for job in table.jobs.values() {
                if let Some(stop) = &job.slice_stop {
                    stop.store(true, Ordering::SeqCst);
                }
            }
        }
        self.state.work.notify_all();
        for handle in self.runner_handles.drain(..) {
            let _ = handle.join();
        }
        self.stop_listener();
        self.drained = true;
        if let Some(dir) = self.state.state_dir.clone() {
            persist_state(&self.state, &dir)?;
        }
        Ok(())
    }

    fn stop_listener(&mut self) {
        self.listener_shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ =
            std::net::TcpStream::connect_timeout(&self.addr, std::time::Duration::from_millis(200));
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !self.drained {
            // Non-drain shutdown: stop runners at the next tick without
            // persisting (tests and aborted starts).
            self.state.shutdown.store(true, Ordering::SeqCst);
            {
                let table = self.state.table.lock().unwrap();
                for job in table.jobs.values() {
                    if let Some(stop) = &job.slice_stop {
                        stop.store(true, Ordering::SeqCst);
                    }
                }
            }
            self.state.work.notify_all();
            for handle in self.runner_handles.drain(..) {
                let _ = handle.join();
            }
            self.stop_listener();
        }
    }
}

/// A runner thread: claim, slice, report, repeat — until drain/shutdown.
fn runner_loop(state: &Arc<ServerState>) {
    while let Some(claim) = state.claim_next() {
        let id = claim.id;
        let (outcome, counters) = run_slice(claim, &state.circuits, state.slice_ticks);
        state.complete_slice(id, outcome, counters);
    }
}

fn result_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("job-{id}.result.json"))
}

fn checkpoint_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("job-{id}.ck"))
}

fn manifest_path(dir: &Path) -> PathBuf {
    dir.join("queue.jsonl")
}

/// Writes the full server state into `dir`: manifest + per-job artifacts.
fn persist_state(state: &ServerState, dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let table = state.table.lock().unwrap();
    let mut manifest = String::new();
    manifest.push_str(&format!(
        "{{\"gatest_serve_state\":{STATE_VERSION},\"next_id\":{},\"next_seq\":{}}}\n",
        table.next_id, table.next_seq
    ));
    for job in table.jobs.values() {
        // A suspended generator's snapshot is built here, the only place
        // the server needs one; a reloaded job no slice has claimed yet
        // still holds the checkpoint it was loaded from.
        let built = job.generator.as_ref().and_then(|g| g.suspended_snapshot());
        let snapshot = built.as_ref().or(job.snapshot.as_ref());
        if let Some(snapshot) = snapshot {
            snapshot.save(&checkpoint_path(dir, job.id))?;
        }
        if let Some(result) = &job.result_json {
            std::fs::write(result_path(dir, job.id), result)?;
        }
        let error = job
            .error
            .as_ref()
            .map(|e| format!(",\"error\":{}", quote(e)))
            .unwrap_or_default();
        let evicted = if job.evicted { ",\"evicted\":true" } else { "" };
        manifest.push_str(&format!(
            "{{\"id\":{},\"seq\":{},\"state\":{},\"slices\":{},\"has_snapshot\":{},\"has_result\":{}{error}{evicted},\"spec\":{}}}\n",
            job.id,
            job.seq,
            quote(job.state.as_str()),
            job.slices,
            snapshot.is_some(),
            job.result_json.is_some(),
            job.spec.to_json(),
        ));
    }
    // Atomic manifest write: tmp + rename, like the checkpoint format.
    let tmp = dir.join("queue.jsonl.tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(manifest.as_bytes())?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, manifest_path(dir))?;
    Ok(())
}

/// Reloads persisted state from `dir` if a manifest exists. Jobs that were
/// queued/preempted/running at drain time become runnable again (running
/// jobs were parked as preempted before the manifest was written; a
/// `running` entry from a crashed server restarts from its last snapshot or
/// from scratch).
fn load_state(state: &ServerState, dir: &Path) -> Result<(), String> {
    let path = manifest_path(dir);
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
    };
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header = lines.next().ok_or("empty state manifest")?;
    let header = parse_json(header).map_err(|e| format!("bad manifest header: {e}"))?;
    let version = header
        .get("gatest_serve_state")
        .and_then(Json::as_u64)
        .ok_or("manifest header missing gatest_serve_state version")?;
    if version != STATE_VERSION {
        return Err(format!(
            "state manifest version {version} unsupported (expected {STATE_VERSION})"
        ));
    }
    let mut table = state.table.lock().unwrap();
    table.next_id = header
        .get("next_id")
        .and_then(Json::as_u64)
        .ok_or("manifest header missing next_id")?;
    table.next_seq = header
        .get("next_seq")
        .and_then(Json::as_u64)
        .ok_or("manifest header missing next_seq")?;
    for line in lines {
        let entry = parse_json(line).map_err(|e| format!("bad manifest entry: {e}"))?;
        let id = entry
            .get("id")
            .and_then(Json::as_u64)
            .ok_or("manifest entry missing id")?;
        let seq = entry.get("seq").and_then(Json::as_u64).unwrap_or(0);
        let spec = JobSpec::from_json(entry.get("spec").ok_or("manifest entry missing spec")?)
            .map_err(|e| format!("job {id}: {e}"))?;
        let persisted_state = entry
            .get("state")
            .and_then(Json::as_str)
            .and_then(JobState::parse)
            .ok_or_else(|| format!("job {id}: bad state"))?;
        let mut job = Job::new(id, spec, seq);
        job.slices = entry.get("slices").and_then(Json::as_u64).unwrap_or(0);
        job.error = entry
            .get("error")
            .and_then(Json::as_str)
            .map(str::to_string);
        job.state = match persisted_state {
            JobState::Done | JobState::Failed | JobState::Cancelled => persisted_state,
            // Anything unfinished resumes: preempted/running from its
            // snapshot, queued from scratch.
            JobState::Queued | JobState::Preempted | JobState::Running => {
                let ck = checkpoint_path(dir, id);
                if entry.get("has_snapshot") == Some(&Json::Bool(true)) || ck.exists() {
                    match RunSnapshot::load(&ck) {
                        Ok(snapshot) => {
                            job.snapshot = Some(snapshot);
                            JobState::Preempted
                        }
                        Err(e) => {
                            job.error = Some(format!("cannot reload checkpoint: {e}"));
                            JobState::Failed
                        }
                    }
                } else {
                    JobState::Queued
                }
            }
        };
        if job.state == JobState::Done {
            if entry.get("evicted") == Some(&Json::Bool(true)) {
                // Evicted before the drain: stays Done-without-result.
                job.evicted = true;
            } else {
                match std::fs::read_to_string(result_path(dir, id)) {
                    Ok(result) => {
                        job.result_json = Some(result);
                        // Wall-clock age does not survive a restart; the
                        // TTL clock restarts from the reload.
                        job.done_at = Some(Instant::now());
                    }
                    Err(e) => {
                        job.state = JobState::Failed;
                        job.error = Some(format!("cannot reload result: {e}"));
                    }
                }
            }
        }
        table.jobs.insert(id, job);
    }
    state.metrics.active.set(table.active_count() as f64);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read as _;
    use std::net::{SocketAddr, TcpStream};
    use std::time::Duration;

    fn http(addr: SocketAddr, request: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect to serve");
        stream.write_all(request.as_bytes()).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let (head, body) = response
            .split_once("\r\n\r\n")
            .unwrap_or_else(|| panic!("malformed response: {response:?}"));
        let status = head.lines().next().unwrap_or_default().to_string();
        (status, body.to_string())
    }

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        http(
            addr,
            &format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"),
        )
    }

    fn post(addr: SocketAddr, path: &str, body: &str) -> (String, String) {
        http(
            addr,
            &format!(
                "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            ),
        )
    }

    fn wait_done(addr: SocketAddr, id: u64) {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let (_, body) = get(addr, &format!("/jobs/{id}"));
            if body.contains("\"state\":\"done\"") {
                return;
            }
            assert!(Instant::now() < deadline, "job {id} never finished: {body}");
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    #[test]
    fn result_ttl_evicts_finished_results() {
        let server = Server::start(ServerConfig {
            // Generous TTL so nothing evicts on its own timeline; the test
            // ages the job manually to keep the clock deterministic.
            result_ttl_secs: Some(3_600.0),
            ..ServerConfig::default()
        })
        .unwrap();
        let addr = server.local_addr();
        let (status, body) = post(addr, "/jobs", "{\"circuit\":\"s27\",\"max_evals\":64}");
        assert!(status.contains("202"), "{status} {body}");
        wait_done(addr, 1);

        // Within the TTL the exact result bytes are served.
        let (status, result) = get(addr, "/jobs/1/result");
        assert!(status.contains("200"), "{status} {result}");
        assert!(result.contains("score_checksum"), "{result}");

        // Age the job past the TTL (no sleeping on real wall clock).
        {
            let mut table = server.state().table.lock().unwrap();
            let job = table.jobs.get_mut(&1).unwrap();
            job.done_at = Some(Instant::now() - Duration::from_secs(7_200));
        }

        // The next request sweeps: 404 with the eviction reason, the
        // summary says evicted, and the counter shows in /metrics.
        let (status, body) = get(addr, "/jobs/1/result");
        assert!(status.contains("404"), "{status} {body}");
        assert!(body.contains("evicted"), "{body}");
        assert!(body.contains("\"state\":\"done\""), "{body}");
        let (_, summary) = get(addr, "/jobs/1");
        assert!(summary.contains("\"evicted\":true"), "{summary}");
        let (_, metrics) = get(addr, "/metrics");
        let evicted = metrics
            .lines()
            .find(|l| l.starts_with("gatest_serve_jobs_evicted_total"))
            .unwrap_or_default()
            .to_string();
        assert!(evicted.ends_with(" 1"), "{evicted}");

        // Eviction is idempotent: a second sweep does not double-count.
        let (_, metrics) = get(addr, "/metrics");
        assert!(
            metrics
                .lines()
                .any(|l| l.starts_with("gatest_serve_jobs_evicted_total") && l.ends_with(" 1")),
            "{metrics}"
        );
    }

    /// Cancel drops a suspended job's generator with the job's run.
    #[test]
    fn cancelling_a_suspended_job_drops_its_generator() {
        let state = ServerState::new(&ServerConfig::default());
        let spec = JobSpec {
            circuit: "s27".into(),
            ..JobSpec::default()
        };
        let id = state.submit(spec).unwrap();
        let claim = state.claim_next().expect("the job is runnable");
        let (outcome, counters) = run_slice(claim, &state.circuits, 1);
        assert!(matches!(outcome, SliceOutcome::Preempted(_)));
        state.complete_slice(id, outcome, counters);
        {
            let table = state.table.lock().unwrap();
            assert_eq!(table.jobs[&id].state, JobState::Preempted);
            assert!(table.jobs[&id].generator.is_some(), "suspended in memory");
        }
        assert_eq!(state.cancel(id), Some(JobState::Cancelled));
        let table = state.table.lock().unwrap();
        assert!(table.jobs[&id].generator.is_none(), "generator dropped");
        assert_eq!(state.metrics.cancelled.get(), 1);
    }

    #[test]
    fn no_ttl_means_results_never_evict() {
        let state = ServerState::new(&ServerConfig::default());
        assert_eq!(state.result_ttl, None);
        // The sweep is a no-op without a TTL — even for ancient jobs.
        let mut table = state.table.lock().unwrap();
        let mut job = Job::new(1, crate::job::JobSpec::default(), 0);
        job.state = JobState::Done;
        job.result_json = Some("{}\n".into());
        job.done_at = Some(Instant::now() - Duration::from_secs(1_000_000));
        table.jobs.insert(1, job);
        drop(table);
        state.evict_expired();
        let table = state.table.lock().unwrap();
        assert!(!table.jobs[&1].evicted);
        assert!(table.jobs[&1].result_json.is_some());
    }
}
