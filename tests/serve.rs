//! Job-server determinism and API behavior: a job run through the serve
//! scheduler — sliced, preempted, drained to disk, resumed on a fresh
//! server — must produce bytes identical to the same spec run standalone,
//! and the HTTP surface must enforce admission control and the job state
//! machine.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gatest_core::report::result_to_json;
use gatest_core::TestGenerator;
use gatest_serve::{
    run_slice, CircuitCache, JobSpec, JobState, Server, ServerConfig, SliceClaim, SliceOutcome,
};
use gatest_telemetry::json::{parse_json, Json};
use gatest_telemetry::Instruments;

/// The exact bytes `gatest atpg --result-json` would write for this spec:
/// one uninterrupted standalone run, serialized with a trailing newline.
fn standalone_bytes(spec: &JobSpec) -> String {
    let circuit = CircuitCache::default()
        .load(&spec.circuit)
        .expect("bundled circuit");
    let config = spec.config(&circuit);
    let result = TestGenerator::new(circuit, config).run();
    result_to_json(&result) + "\n"
}

/// Drives one job to completion through the scheduler's slice executor,
/// handing the suspended generator from each preempted slice to the next —
/// exactly what the runner threads do, minus the concurrency. Returns the
/// result bytes, the slice count and the job's instruments.
fn run_sliced(
    spec: &JobSpec,
    circuits: &CircuitCache,
    slice_ticks: u64,
) -> (String, u64, Arc<Instruments>) {
    let instruments = Instruments::new();
    let events = Arc::new(Mutex::new(Vec::new()));
    let mut generator = None;
    let mut slices = 0u64;
    loop {
        let claim = SliceClaim {
            id: 1,
            spec: spec.clone(),
            generator: generator.take(),
            snapshot: None,
            stop: Arc::new(AtomicBool::new(false)),
            events: Arc::clone(&events),
            instruments: Arc::clone(&instruments),
        };
        let (outcome, _) = run_slice(claim, circuits, slice_ticks);
        slices += 1;
        assert!(slices < 100_000, "slice loop did not terminate");
        match outcome {
            SliceOutcome::Finished(result) => {
                return (result_to_json(&result) + "\n", slices, instruments)
            }
            SliceOutcome::Preempted(suspended) => generator = Some(suspended),
            SliceOutcome::Error(e) => panic!("slice failed at slice_ticks={slice_ticks}: {e}"),
        }
    }
}

/// Preemption granularity must never leak into results: every slice width,
/// down to one generator tick per slice, reproduces the uninterrupted run
/// byte for byte. This is the serve-side analogue of the kill-at-every-tick
/// sweep in `checkpoint_resume.rs`.
#[test]
fn slice_width_never_changes_the_result() {
    let spec = JobSpec {
        circuit: "s27".into(),
        seed: 3,
        ..JobSpec::default()
    };
    let baseline = standalone_bytes(&spec);
    let circuits = CircuitCache::default();
    for slice_ticks in [1, 2, 3, 5, 64] {
        let (bytes, slices, _) = run_sliced(&spec, &circuits, slice_ticks);
        if slice_ticks == 1 {
            assert!(slices > 1, "one-tick slices must actually preempt");
        }
        assert_eq!(
            bytes, baseline,
            "slice_ticks={slice_ticks} diverged after {slices} slices"
        );
    }
}

/// Budget-limited jobs stop identically under slicing: a `max_evals` budget
/// must exhaust at the same evaluation and report the same partial result
/// whether or not the run was preempted along the way.
#[test]
fn budget_exhaustion_is_slice_invariant() {
    let spec = JobSpec {
        circuit: "s27".into(),
        seed: 7,
        max_evals: Some(200),
        ..JobSpec::default()
    };
    let baseline = standalone_bytes(&spec);
    let circuits = CircuitCache::default();
    let (bytes, _, _) = run_sliced(&spec, &circuits, 2);
    assert_eq!(bytes, baseline);
}

/// A job keeps one generator across its slices, so its instruments hold
/// the generator's and the simulator's span slots and, with pool workers,
/// one slot per worker, however many slices it runs: each slice builds a
/// new pool, whose workers record into the slots the first pool
/// registered. Each slot keeps a 256-record ring for the job's lifetime,
/// so a slot count that grew with slices would grow the job's memory with
/// it.
#[test]
fn span_slots_do_not_grow_with_slices() {
    for workers in [1, 2] {
        let spec = JobSpec {
            circuit: "s27".into(),
            seed: 3,
            workers,
            ..JobSpec::default()
        };
        let (bytes, slices, instruments) = run_sliced(&spec, &CircuitCache::default(), 1);
        assert!(slices >= 20, "the premise needs many slices, got {slices}");
        assert_eq!(bytes, standalone_bytes(&spec));
        let slots = instruments.spans.slots();
        if workers == 1 {
            assert_eq!(
                slots, 2,
                "{slices} slices must share the generator's and the simulator's slots"
            );
        } else {
            assert!(
                slots <= 2 + workers,
                "{slices} slices with {workers} workers registered {slots} span slots"
            );
        }
    }
}

// ---------------------------------------------------------------- HTTP --

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

fn submit(addr: SocketAddr, body: &str) -> u64 {
    let (status, reply) = post(addr, "/jobs", body);
    assert!(status.contains("202"), "submit {body}: {status} {reply}");
    parse_json(reply.trim())
        .unwrap()
        .get("id")
        .and_then(Json::as_u64)
        .expect("submit reply carries an id")
}

fn job_field(addr: SocketAddr, id: u64, field: &str) -> Json {
    let (status, body) = get(addr, &format!("/jobs/{id}"));
    assert!(status.contains("200"), "status {id}: {status}");
    parse_json(body.trim())
        .unwrap()
        .get(field)
        .cloned()
        .unwrap_or_else(|| panic!("job {id} summary missing {field}: {body}"))
}

fn wait_for(deadline: Duration, mut check: impl FnMut() -> bool) {
    let start = Instant::now();
    while !check() {
        assert!(
            start.elapsed() < deadline,
            "timed out waiting for condition"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// End to end over loopback: submit, watch the state machine, fetch the
/// result, and verify it is byte-identical to the standalone run — with a
/// slice width small enough that the job is guaranteed to be preempted
/// between HTTP polls.
#[test]
fn http_result_is_byte_identical_to_standalone() {
    let spec = JobSpec {
        circuit: "s27".into(),
        seed: 3,
        ..JobSpec::default()
    };
    let baseline = standalone_bytes(&spec);
    let server = Server::start(ServerConfig {
        slice_ticks: 2,
        ..ServerConfig::default()
    })
    .expect("server starts");
    let addr = server.local_addr();

    let (status, body) = get(addr, "/healthz");
    assert!(status.contains("200") && body.contains("\"status\":\"ok\""));

    let id = submit(addr, "{\"circuit\":\"s27\",\"seed\":3}");
    wait_for(Duration::from_secs(120), || {
        job_field(addr, id, "state").as_str() == Some("done")
    });
    assert!(
        job_field(addr, id, "slices").as_u64().unwrap_or(0) > 1,
        "a two-tick slice width must preempt s27 at least once"
    );

    let (status, body) = get(addr, &format!("/jobs/{id}/result"));
    assert!(status.contains("200"), "result: {status}");
    assert_eq!(body, baseline, "serve result differs from standalone run");

    // The events stream shows the run, one slice at a time.
    let (status, events) = get(addr, &format!("/jobs/{id}/events"));
    assert!(status.contains("200"));
    assert!(events.contains("run_started") && events.contains("run_finished"));

    // Per-job metrics are namespaced under a job label.
    let (status, metrics) = get(addr, "/metrics");
    assert!(status.contains("200"));
    assert!(metrics.contains("gatest_serve_jobs_completed_total 1"));
    assert!(
        metrics.contains(&format!("job=\"{id}\"")),
        "per-job series must carry a job label"
    );
}

/// Admission control and cancellation: the queue bound 429s, bad specs 400,
/// unknown ids 404, queued jobs cancel immediately, and running jobs cancel
/// at the next tick boundary.
#[test]
fn http_admission_control_and_cancel() {
    let server = Server::start(ServerConfig {
        queue_depth: 2,
        slice_ticks: 1_000_000, // one long slice: keeps job 1 running
        ..ServerConfig::default()
    })
    .expect("server starts");
    let addr = server.local_addr();

    // Job 1 is large enough that its first slice outlives this whole test
    // body; job 2 queues behind it on the single runner.
    let long = submit(addr, "{\"circuit\":\"s1423\",\"seed\":2,\"sample\":60}");
    let queued = submit(addr, "{\"circuit\":\"s27\"}");

    let (status, _) = post(addr, "/jobs", "{\"circuit\":\"s27\"}");
    assert!(
        status.contains("429"),
        "queue_depth=2 must reject: {status}"
    );

    let (status, body) = post(addr, "/jobs", "{\"circuit\":\"s27\",\"priority\":12}");
    assert!(status.contains("400") && body.contains("priority"));
    let (status, body) = post(addr, "/jobs", "{\"circuit\":\"no-such-circuit\"}");
    assert!(status.contains("400") && body.contains("no-such-circuit"));
    let (status, _) = get(addr, "/jobs/999");
    assert!(status.contains("404"));

    let (_, listing) = get(addr, "/jobs");
    assert!(listing.contains("s1423") && listing.contains("s27"));

    // Queued job: cancelled on the spot.
    let (status, body) = post(addr, &format!("/jobs/{queued}/cancel"), "");
    assert!(
        status.contains("200") && body.contains("cancelled"),
        "{body}"
    );

    // Freed capacity: admission works again.
    let extra = submit(addr, "{\"circuit\":\"s27\",\"priority\":0}");
    let (_, _) = post(addr, &format!("/jobs/{extra}/cancel"), "");

    // Running job: the cancel request lands first, the state flips at the
    // next generation-tick boundary.
    let (status, _) = post(addr, &format!("/jobs/{long}/cancel"), "");
    assert!(status.contains("200"));
    wait_for(Duration::from_secs(120), || {
        job_field(addr, long, "state").as_str() == Some("cancelled")
    });
    let (status, body) = get(addr, &format!("/jobs/{long}/result"));
    assert!(
        status.contains("409") && body.contains("cancelled"),
        "cancelled job result: {status} {body}"
    );
}

/// The drain/restart contract: SIGTERM-style drain checkpoints the running
/// job and persists the queue; a fresh server over the same state dir
/// resumes it and finishes with bytes identical to a standalone run.
#[test]
fn drain_and_restart_resume_bit_identically() {
    let spec = JobSpec {
        circuit: "s298".into(),
        seed: 5,
        sample: 80,
        ..JobSpec::default()
    };
    let baseline = standalone_bytes(&spec);
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "gatest-serve-state-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);

    let mut server = Server::start(ServerConfig {
        state_dir: Some(dir.clone()),
        slice_ticks: 2,
        ..ServerConfig::default()
    })
    .expect("first server starts");
    let addr = server.local_addr();
    let id = submit(addr, "{\"circuit\":\"s298\",\"seed\":5,\"sample\":80}");

    // Let it make real progress, then drain mid-job.
    wait_for(Duration::from_secs(120), || {
        job_field(addr, id, "slices").as_u64().unwrap_or(0) >= 1
    });
    server.drain().expect("drain persists state");
    drop(server);
    assert!(dir.join("queue.jsonl").exists(), "manifest persisted");

    // While down, the draining server must have refused nothing silently —
    // the restarted one picks the job back up from its checkpoint.
    let server = Server::start(ServerConfig {
        state_dir: Some(dir.clone()),
        slice_ticks: 2,
        ..ServerConfig::default()
    })
    .expect("second server starts");
    let addr = server.local_addr();
    wait_for(Duration::from_secs(240), || {
        job_field(addr, id, "state").as_str() == Some("done")
    });
    let (status, body) = get(addr, &format!("/jobs/{id}/result"));
    assert!(status.contains("200"), "resumed result: {status}");
    assert_eq!(
        body, baseline,
        "drain + restart + resume must not change a single byte"
    );
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Drain persists a suspended job, not only the one whose slice it stops:
/// with two jobs on one runner and one-tick slices, one job is always
/// waiting as `preempted`, its generator suspended in memory. Both must
/// reach the state dir as checkpoints, and a restarted server must finish
/// both with bytes identical to their standalone runs.
#[test]
fn drain_persists_suspended_jobs_and_restart_finishes_them() {
    let specs = [
        JobSpec {
            circuit: "s298".into(),
            seed: 5,
            sample: 80,
            ..JobSpec::default()
        },
        JobSpec {
            circuit: "s298".into(),
            seed: 7,
            sample: 60,
            ..JobSpec::default()
        },
    ];
    let baselines: Vec<String> = specs.iter().map(standalone_bytes).collect();
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "gatest-serve-suspended-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServerConfig {
        state_dir: Some(dir.clone()),
        slice_ticks: 1,
        runners: 1,
        ..ServerConfig::default()
    };

    let mut server = Server::start(config.clone()).expect("first server starts");
    let addr = server.local_addr();
    let ids: Vec<u64> = specs.iter().map(|s| submit(addr, &s.to_json())).collect();
    wait_for(Duration::from_secs(120), || {
        let table = server.state().table.lock().unwrap();
        let jobs: Vec<_> = ids.iter().map(|id| &table.jobs[id]).collect();
        jobs.iter().all(|j| j.slices >= 1)
            && jobs
                .iter()
                .any(|j| j.state == JobState::Preempted && j.generator.is_some())
    });
    server.drain().expect("drain persists state");
    drop(server);
    for id in &ids {
        assert!(
            dir.join(format!("job-{id}.ck")).exists(),
            "job {id}'s checkpoint persisted"
        );
    }

    let server = Server::start(config).expect("second server starts");
    let addr = server.local_addr();
    for (id, baseline) in ids.iter().zip(&baselines) {
        wait_for(Duration::from_secs(240), || {
            job_field(addr, *id, "state").as_str() == Some("done")
        });
        let (status, body) = get(addr, &format!("/jobs/{id}/result"));
        assert!(status.contains("200"), "job {id} result: {status}");
        assert_eq!(
            &body, baseline,
            "job {id}: drain + restart must not change a single byte"
        );
    }
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}
