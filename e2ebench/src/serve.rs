//! `serve_closed`: an in-process `gatest serve` fed by closed-loop clients
//! over loopback HTTP. Each client submits a job, polls for its result and
//! only then submits its next one.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gatest_core::telemetry::json::{parse_json, Json};
use gatest_core::{RunControls, StopCause, TestGenResult, TestGenerator};
use gatest_ga::rng::Rng;
use gatest_netlist::benchmarks;
use gatest_serve::{JobSpec, Server, ServerConfig};

use crate::atpg::{self, Item, ItemRun};
use crate::host::{median, peak_rss_mb, percentile};
use crate::kernel::RefClock;
use crate::{json_num, json_str, Args, Report};

/// Closed-loop clients, one connection at a time each (= `nproc` here).
const CLIENTS: usize = 2;
/// Jobs each client runs per round.
const JOBS_PER_CLIENT: usize = 20;
/// Rounds per run: 240 jobs, so the p90 latency has 24 samples beyond it.
/// The count is fixed, not timed, because the server keeps every job's
/// events in memory and peak memory is a metric (~1 MiB per job).
const ROUNDS: usize = 6;
/// Generator ticks per scheduler slice: small, so jobs interleave and get
/// preempted many times.
const SLICE_TICKS: u64 = 8;
/// Distinct `s27` specs in the mix (full flow, about 5 ms each).
const S27_SPECS: usize = 4;
/// Distinct `s298` specs in the mix (sampled and budgeted, about 25 ms
/// each). Two jobs in three are `s298`, so both percentiles fall among
/// jobs of one kind: with the two kinds mixed evenly the median sat on
/// the boundary between them and jumped from run to run.
const S298_SPECS: usize = 8;
/// How often a client polls for its job's result.
const POLL: Duration = Duration::from_millis(5);
/// A job with no result after this long counts as failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);

/// The distinct job specs, with GA seeds drawn from the workload seed.
fn spec_pool(seed: u64) -> Vec<JobSpec> {
    let mut rng = Rng::new(seed);
    let mut pool = Vec::new();
    for i in 0..S27_SPECS + S298_SPECS {
        let ga_seed = rng.next_u64() >> 32;
        pool.push(if i < S27_SPECS {
            JobSpec {
                circuit: "s27".into(),
                seed: ga_seed,
                ..JobSpec::default()
            }
        } else {
            JobSpec {
                circuit: "s298".into(),
                seed: ga_seed,
                sample: 60,
                max_evals: Some(4_000),
                ..JobSpec::default()
            }
        });
    }
    pool
}

/// Each client's job sequence, as indices into the pool: every third job
/// is an `s27` one, and each class cycles through its specs, so every
/// spec runs equally often.
fn schedule() -> Vec<Vec<usize>> {
    let (mut small, mut large) = (0, 0);
    let mut clients = vec![Vec::new(); CLIENTS];
    for k in 0..JOBS_PER_CLIENT {
        for (c, jobs) in clients.iter_mut().enumerate() {
            if (k + c) % 3 == 2 {
                jobs.push(small % S27_SPECS);
                small += 1;
            } else {
                jobs.push(S27_SPECS + large % S298_SPECS);
                large += 1;
            }
        }
    }
    clients
}

/// One served job as the client saw it.
struct Served {
    spec: usize,
    /// Submit to result in hand, seconds.
    latency_s: f64,
    /// The `POST /jobs` call, seconds.
    submit_s: f64,
    /// The final, successful `GET /jobs/<id>/result` call, seconds.
    fetch_s: f64,
    /// The result bytes, or why there are none.
    result: Result<String, String>,
}

fn client(addr: SocketAddr, pool: &[JobSpec], jobs: &[usize]) -> Vec<Served> {
    jobs.iter()
        .map(|&spec| {
            let submitted = Instant::now();
            let (status, reply) = post(addr, "/jobs", &pool[spec].to_json());
            let submit_s = submitted.elapsed().as_secs_f64();
            let mut served = Served {
                spec,
                latency_s: 0.0,
                submit_s,
                fetch_s: 0.0,
                result: Err(format!("submit: {status} {}", reply.trim())),
            };
            if !status.contains("202") {
                return served;
            }
            let Some(id) = parse_json(reply.trim())
                .ok()
                .and_then(|reply| reply.get("id").and_then(Json::as_u64))
            else {
                return served;
            };
            loop {
                std::thread::sleep(POLL);
                let asked = Instant::now();
                let (status, body) = get(addr, &format!("/jobs/{id}/result"));
                if status.contains("200") {
                    served.fetch_s = asked.elapsed().as_secs_f64();
                    served.latency_s = submitted.elapsed().as_secs_f64();
                    served.result = Ok(body);
                    break;
                }
                let pending = body.contains("\"queued\"")
                    || body.contains("\"running\"")
                    || body.contains("\"preempted\"");
                if !(status.contains("409") && pending) {
                    served.result = Err(format!("job {id}: {status} {}", body.trim()));
                    break;
                }
                if submitted.elapsed() > JOB_TIMEOUT {
                    served.result = Err(format!("job {id}: no result after {JOB_TIMEOUT:?}"));
                    break;
                }
            }
            served
        })
        .collect()
}

/// Replays `item` the way the server runs it — a fresh generator per
/// slice of `SLICE_TICKS` ticks, resumed from the previous slice's
/// in-memory snapshot — and returns the result and the wall time.
fn sliced_replay(item: &Item) -> (TestGenResult, f64) {
    let controls = RunControls {
        max_ticks: Some(SLICE_TICKS),
        ..RunControls::default()
    };
    let start = Instant::now();
    let mut snapshot = None;
    loop {
        let mut generator = TestGenerator::new(Arc::clone(&item.circuit), item.config.clone());
        let (result, next) = match &snapshot {
            None => generator.run_preemptible(&controls),
            Some(snap) => generator
                .resume_preemptible(snap, &controls)
                .expect("a snapshot resumes under its own spec"),
        };
        match next {
            Some(snap) if result.stop == StopCause::Interrupted => snapshot = Some(snap),
            _ => return (result, start.elapsed().as_secs_f64()),
        }
    }
}

/// Runs the `serve_closed` workload and reports its metrics.
pub fn run(args: &Args, clock: &mut RefClock) -> Report {
    let pool = spec_pool(args.seed);
    let items: Vec<Item> = pool
        .iter()
        .map(|spec| {
            let circuit = Arc::new(benchmarks::iscas89(&spec.circuit).expect("bundled circuit"));
            Item {
                label: format!("{}#{}", spec.circuit, spec.seed),
                config: spec.config(&circuit),
                circuit,
            }
        })
        .collect();
    let setup = atpg::measure_setup(&[
        ("s27", items[0].config.clone()),
        ("s298", items[S27_SPECS].config.clone()),
    ]);
    let schedule = schedule();

    let server = Server::start(ServerConfig {
        slice_ticks: SLICE_TICKS,
        queue_depth: 4 * CLIENTS,
        runners: 1,
        ..ServerConfig::default()
    })
    .expect("server starts on loopback");
    let addr = server.local_addr();

    // The timed section: `ROUNDS` rounds of the same schedule, each
    // followed by a kernel measurement.
    let mut rounds: Vec<(Vec<Served>, f64)> = Vec::new();
    for _ in 0..ROUNDS {
        let (served, wall) = clock.time(|| {
            std::thread::scope(|scope| {
                let handles: Vec<_> = schedule
                    .iter()
                    .map(|jobs| scope.spawn(|| client(addr, &pool, jobs)))
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("client thread panicked"))
                    .collect::<Vec<_>>()
            })
        });
        eprintln!(
            "  round {}: {} jobs in {wall:.3} s",
            rounds.len() + 1,
            served.len()
        );
        rounds.push((served, wall));
    }
    let (_, metrics) = get(addr, "/metrics");
    drop(server);

    // Checks, outside the timed section: each spec once standalone (the
    // byte-identity reference), re-graded with a fresh simulator.
    let mut report = Report::default();
    let standalone: Vec<ItemRun> = items
        .iter()
        .map(|item| atpg::run_item(item, false, clock))
        .collect();
    let spec_ok: Vec<bool> = items
        .iter()
        .zip(&standalone)
        .map(|(item, run)| atpg::regrade_ok(&item.circuit, run))
        .collect();
    let ref_s = clock.ref_s();
    let mut latencies = Vec::new();
    for (served, _) in &rounds {
        for job in served {
            report.attempted += 1;
            let expected = format!("{}\n", standalone[job.spec].json);
            match &job.result {
                Ok(bytes) if *bytes == expected && spec_ok[job.spec] => {}
                Ok(_) => {
                    eprintln!(
                        "CHECK FAILED {}: served bytes differ",
                        items[job.spec].label
                    );
                    report.failed += 1;
                }
                Err(e) => {
                    eprintln!("JOB FAILED {}: {e}", items[job.spec].label);
                    report.failed += 1;
                }
            }
            latencies.push(job.latency_s / ref_s);
        }
    }

    let first = &rounds[0].0;
    let sum_over_jobs = |f: &dyn Fn(&ItemRun) -> f64| -> f64 {
        first.iter().map(|job| f(&standalone[job.spec])).sum()
    };
    report.run_s = median(&rounds.iter().map(|r| r.1).collect::<Vec<_>>());
    report.set("setup_s", setup.total_s);
    report.set("run_ref", report.run_s / ref_s);
    report.set("latency_p50_ref", percentile(&latencies, 50.0));
    report.set("latency_p90_ref", percentile(&latencies, 90.0));
    report.set("peak_rss_mb", peak_rss_mb());
    report.set("detected", sum_over_jobs(&|r| r.result.detected as f64));
    report.set("vectors", sum_over_jobs(&|r| r.result.vectors() as f64));
    report.set("evals", sum_over_jobs(&|r| r.result.ga_evaluations as f64));
    report.set(
        "evals_to_coverage",
        sum_over_jobs(&|r| r.evals_to_coverage as f64),
    );
    report.set("ok_share", atpg::ok_share(&report));
    report.note("rounds", rounds.len().to_string());
    report.note("latency_samples", latencies.len().to_string());
    report.note(
        "latency_definition",
        json_str("submit to result in hand, per job, closed loop"),
    );
    report.note("setup_reps", setup.reps.to_string());

    if args.trace {
        trace_layers(
            &items,
            &standalone,
            &rounds,
            &metrics,
            &setup,
            clock,
            &mut report,
        );
    }
    report
}

/// The serve ledger: client-side timings, scheduler counters scraped from
/// `/metrics`, the measured cost of slicing, and the generator ledger of
/// one traced standalone run per distinct spec.
fn trace_layers(
    items: &[Item],
    standalone: &[ItemRun],
    rounds: &[(Vec<Served>, f64)],
    metrics: &str,
    setup: &atpg::Setup,
    clock: &mut RefClock,
    report: &mut Report,
) {
    let jobs: Vec<&Served> = rounds.iter().flat_map(|r| &r.0).collect();
    let n = jobs.len() as f64;
    report.set(
        "serve.submit_s",
        jobs.iter().map(|j| j.submit_s).sum::<f64>() / n,
    );
    report.set(
        "serve.fetch_s",
        jobs.iter().map(|j| j.fetch_s).sum::<f64>() / n,
    );
    let latency: f64 = jobs.iter().map(|j| j.latency_s).sum();
    let compute: f64 = jobs.iter().map(|j| standalone[j.spec].wall_s).sum();
    report.set("serve.overhead_share", (latency - compute) / latency);
    let per_round = |series: &str| prometheus_value(metrics, series) / rounds.len() as f64;
    report.set(
        "serve.preemptions",
        per_round("gatest_serve_preemptions_total"),
    );
    report.set(
        "serve.rejected",
        per_round("gatest_serve_jobs_rejected_total"),
    );

    // Slicing cost per job: each spec replayed slice by slice, minus its
    // uninterrupted time, weighted by how often the spec was served.
    let mut extra = vec![0.0; items.len()];
    for (i, item) in items.iter().enumerate() {
        let (result, secs) = sliced_replay(item);
        report.attempted += 1;
        if gatest_core::report::result_to_json(&result) != standalone[i].json {
            eprintln!("CHECK FAILED {}: sliced replay differs", item.label);
            report.failed += 1;
        }
        extra[i] = secs - standalone[i].wall_s;
    }
    report.set(
        "checkpoint.preempt_resume_s",
        jobs.iter().map(|j| extra[j.spec]).sum::<f64>() / n,
    );

    report.set("netlist.build_s", setup.build_s);
    report.set("sim.collapse_s", setup.collapse_s);
    report.set("sim.construct_s", setup.construct_s);
    let traced: Vec<ItemRun> = items
        .iter()
        .map(|item| atpg::run_item(item, true, clock))
        .collect();
    for (item, (t, s)) in items.iter().zip(traced.iter().zip(standalone)) {
        report.attempted += 1;
        if t.json != s.json {
            eprintln!("CHECK FAILED {}: traced result differs", item.label);
            report.failed += 1;
        }
    }
    let traced_refs: Vec<&ItemRun> = traced.iter().collect();
    let plain_refs: Vec<&ItemRun> = standalone.iter().collect();
    atpg::layer_metrics(items, &traced_refs, &plain_refs, 1.0, report);
    report.note("serve.compute_s_per_job", json_num(compute / n));
}

/// First sample value of an unlabeled Prometheus series.
fn prometheus_value(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .find(|l| l.split_whitespace().next() == Some(name))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0)
}

// A minimal std::net HTTP/1.1 client: one request per connection.

fn http(addr: SocketAddr, request: &str) -> (String, String) {
    let exchange = || -> std::io::Result<String> {
        let mut stream = TcpStream::connect(addr)?;
        stream.write_all(request.as_bytes())?;
        let mut response = String::new();
        stream.read_to_string(&mut response)?;
        Ok(response)
    };
    match exchange() {
        Ok(response) => match response.split_once("\r\n\r\n") {
            Some((head, body)) => (
                head.lines().next().unwrap_or_default().to_string(),
                body.to_string(),
            ),
            None => (String::from("malformed response"), response),
        },
        Err(e) => (format!("I/O error: {e}"), String::new()),
    }
}

fn get(addr: SocketAddr, path: &str) -> (String, String) {
    http(
        addr,
        &format!("GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n"),
    )
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (String, String) {
    http(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        ),
    )
}
