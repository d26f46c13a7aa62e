//! Integration tests of the telemetry event stream against the generator's
//! own result: a full run's trace must tell the same story as
//! `TestGenResult`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use gatest_core::{GatestConfig, TestGenerator};
use gatest_netlist::benchmarks;
use gatest_telemetry::{Instruments, MetricsServer, RunEvent, RunObserver};

/// Records every event, in order.
#[derive(Default)]
struct Recorder(Mutex<Vec<RunEvent>>);

impl RunObserver for Recorder {
    fn on_event(&self, event: &RunEvent) {
        self.0.lock().unwrap().push(event.clone());
    }
}

#[test]
fn s27_run_emits_a_consistent_event_stream() {
    let circuit = Arc::new(benchmarks::iscas89("s27").expect("bundled circuit"));
    let config = GatestConfig::for_circuit(&circuit).with_seed(3);
    let recorder = Arc::new(Recorder::default());
    let result = TestGenerator::new(Arc::clone(&circuit), config)
        .with_observer(recorder.clone())
        .run();
    let events = recorder.0.lock().unwrap();

    // Lifecycle: starts with run_started, ends with run_finished, and every
    // one of the six kinds appears at least once.
    assert!(matches!(events.first(), Some(RunEvent::RunStarted { .. })));
    assert!(matches!(events.last(), Some(RunEvent::RunFinished { .. })));
    for kind in RunEvent::KINDS {
        assert!(
            events.iter().any(|e| e.kind() == kind),
            "no {kind} event in the stream"
        );
    }

    // The phase_entered sequence is monotone in committed vectors and
    // consistent with the result's phase trace: the phases of the committed
    // vectors, run-length compressed, are exactly the phases entered
    // (modulo a possibly commit-less trailing phase-4 entry).
    let entered: Vec<(u8, usize)> = events
        .iter()
        .filter_map(|e| match e {
            RunEvent::PhaseEntered { phase, vectors } => Some((*phase, *vectors)),
            _ => None,
        })
        .collect();
    assert!(!entered.is_empty());
    assert_eq!(entered[0].0, 1, "runs start in phase 1 (initialization)");
    assert!(
        entered.windows(2).all(|w| w[0].1 <= w[1].1),
        "committed-vector counts at phase entry must be monotone: {entered:?}"
    );
    let committed_phases: Vec<u8> = events
        .iter()
        .filter_map(|e| match e {
            RunEvent::VectorCommitted { phase, .. } => Some(*phase),
            _ => None,
        })
        .collect();
    assert_eq!(
        committed_phases, result.phase_trace,
        "one vector_committed per committed frame, in phase-trace order"
    );
    let mut compressed: Vec<u8> = Vec::new();
    for p in &committed_phases {
        if compressed.last() != Some(p) {
            compressed.push(*p);
        }
    }
    let mut entered_phases: Vec<u8> = entered.iter().map(|(p, _)| *p).collect();
    if entered_phases.last() == Some(&4) && compressed.last() != Some(&4) {
        entered_phases.pop(); // phase 4 entered but no sequence succeeded
    }
    assert_eq!(
        entered_phases, compressed,
        "phase entries must match the compressed phase trace"
    );

    // Commit events between two phase entries all belong to the entered
    // phase.
    let mut current = 0u8;
    for event in events.iter() {
        match event {
            RunEvent::PhaseEntered { phase, .. } => current = *phase,
            RunEvent::VectorCommitted { phase, .. } => {
                assert_eq!(*phase, current, "commit outside its entered phase")
            }
            _ => {}
        }
    }

    // The final event repeats the printed result, snapshot included.
    match events.last().expect("non-empty") {
        RunEvent::RunFinished {
            detected,
            total_faults,
            vectors,
            ga_evaluations,
            elapsed_secs,
            budget_exhausted,
            snapshot,
        } => {
            assert_eq!(*detected, result.detected);
            assert_eq!(*total_faults, result.total_faults);
            assert_eq!(*vectors, result.vectors());
            assert_eq!(*ga_evaluations, result.ga_evaluations);
            assert!(*elapsed_secs >= 0.0);
            assert!(!budget_exhausted, "no budget was configured");
            assert_eq!(snapshot.as_ref(), &result.telemetry);
        }
        other => panic!("expected run_finished, got {other:?}"),
    }

    // Aggregates recomputed from the stream match the result's totals.
    let generation_events = events
        .iter()
        .filter(|e| matches!(e, RunEvent::GaGenerationEvaluated { .. }))
        .count() as u64;
    assert_eq!(generation_events, result.telemetry.ga_generations);
    let summed_evaluations: usize = events
        .iter()
        .filter_map(|e| match e {
            RunEvent::GaGenerationEvaluated { evaluations, .. } => Some(*evaluations),
            _ => None,
        })
        .sum();
    assert_eq!(
        summed_evaluations, result.ga_evaluations,
        "per-generation deltas must sum to the run's evaluation total"
    );
    let fault_events = events
        .iter()
        .filter(|e| matches!(e, RunEvent::FaultDetected { .. }))
        .count();
    assert_eq!(
        fault_events, result.detected,
        "one fault_detected per detected fault"
    );
    let last_total = events.iter().rev().find_map(|e| match e {
        RunEvent::VectorCommitted { detected_total, .. } => Some(*detected_total),
        _ => None,
    });
    assert_eq!(last_total, Some(result.detected));
}

/// The CSR arena size is a gauge of the netlist, not a per-run tally: a
/// finished run still reports it.
#[test]
fn finished_runs_report_the_csr_arena_size() {
    let circuit = Arc::new(benchmarks::iscas89("s27").expect("bundled circuit"));
    let config = GatestConfig::for_circuit(&circuit).with_seed(3);
    let result = TestGenerator::new(Arc::clone(&circuit), config).run();
    assert_eq!(
        result.telemetry.counters.csr_bytes,
        gatest_netlist::levelize::Levelization::new(&circuit).csr_bytes()
    );
}

#[test]
fn observed_and_unobserved_runs_are_identical() {
    let circuit = Arc::new(benchmarks::iscas89("s298").expect("bundled circuit"));
    let mut config = GatestConfig::for_circuit(&circuit).with_seed(11);
    config.fault_sample = gatest_core::FaultSample::Count(60);

    let plain = TestGenerator::new(Arc::clone(&circuit), config.clone()).run();
    let observed = TestGenerator::new(Arc::clone(&circuit), config)
        .with_observer(Arc::new(Recorder::default()))
        .run();
    assert_eq!(
        plain.test_set, observed.test_set,
        "observers must not steer"
    );
    assert_eq!(plain.detected, observed.detected);
    assert_eq!(plain.phase_trace, observed.phase_trace);
    assert_eq!(plain.ga_evaluations, observed.ga_evaluations);
}

/// One `GET` against the metrics server; `None` on any transport failure
/// (the poller retries, so individual misses are fine).
fn http_get(addr: SocketAddr, path: &str) -> Option<String> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_millis(500)).ok()?;
    write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").ok()?;
    let mut response = String::new();
    stream.read_to_string(&mut response).ok()?;
    let (_, body) = response.split_once("\r\n\r\n")?;
    Some(body.to_owned())
}

/// Every instrumentation flag combination — event observer, span/metrics
/// bundle, live metrics server — must produce the bit-identical result the
/// bare run produces, on both a trivial and a mid-size circuit. The server
/// combination also exercises `/metrics` and `/healthz` from another thread
/// while the run executes (the exposition path only reads shared atomics).
#[test]
fn all_instrumentation_combinations_are_bit_identical() {
    for (name, seed, sample) in [("s27", 3, None), ("s298", 11, Some(60))] {
        let circuit = Arc::new(benchmarks::iscas89(name).expect("bundled circuit"));
        let mut config = GatestConfig::for_circuit(&circuit).with_seed(seed);
        if let Some(n) = sample {
            config.fault_sample = gatest_core::FaultSample::Count(n);
        }
        let reference = TestGenerator::new(Arc::clone(&circuit), config.clone()).run();
        assert!(
            reference.telemetry.spans.is_empty(),
            "no spans without an instruments bundle"
        );

        for observe in [false, true] {
            for instrument in [false, true] {
                for serve in [false, true] {
                    if serve && !instrument {
                        continue; // the server exposes the bundle
                    }
                    if !(observe || instrument) {
                        continue; // that is the reference run itself
                    }
                    let combo =
                        format!("{name} observe={observe} instrument={instrument} serve={serve}");
                    let mut generator = TestGenerator::new(Arc::clone(&circuit), config.clone());
                    let instruments = instrument.then(Instruments::new);
                    if let Some(instruments) = &instruments {
                        generator = generator.with_instruments(Arc::clone(instruments));
                    }
                    if observe {
                        generator = generator.with_observer(Arc::new(Recorder::default()));
                    }
                    let server = match (&instruments, serve) {
                        (Some(instruments), true) => Some(
                            MetricsServer::bind(
                                "127.0.0.1:0",
                                Arc::clone(instruments),
                                Arc::clone(generator.telemetry_counters()),
                            )
                            .expect("bind metrics server"),
                        ),
                        _ => None,
                    };
                    // Poll both endpoints concurrently with the run; the
                    // server stays up until dropped, so the final attempts
                    // always land.
                    let poller = server.as_ref().map(|s| {
                        let addr = s.local_addr();
                        std::thread::spawn(move || {
                            let (mut metrics, mut health) = (String::new(), String::new());
                            for _ in 0..20 {
                                if let Some(b) = http_get(addr, "/metrics") {
                                    metrics = b;
                                }
                                if let Some(b) = http_get(addr, "/healthz") {
                                    health = b;
                                }
                                std::thread::sleep(Duration::from_millis(1));
                            }
                            (metrics, health)
                        })
                    });

                    let result = generator.run();
                    if let Some(poller) = poller {
                        let (metrics, health) = poller.join().expect("poller");
                        assert!(
                            metrics.contains("gatest_sim_gate_evals_total"),
                            "{combo}: metrics exposition missing counters: {metrics}"
                        );
                        assert!(
                            health.contains("\"status\":\"ok\""),
                            "{combo}: bad healthz: {health}"
                        );
                    }
                    drop(server);

                    assert_eq!(
                        result.test_set, reference.test_set,
                        "{combo}: test set diverged"
                    );
                    assert_eq!(result.detected, reference.detected, "{combo}");
                    assert_eq!(result.phase_trace, reference.phase_trace, "{combo}");
                    assert_eq!(result.ga_evaluations, reference.ga_evaluations, "{combo}");
                    assert_eq!(
                        result.telemetry.phase_time.len(),
                        reference.telemetry.phase_time.len(),
                        "{combo}"
                    );
                    assert_eq!(
                        result.telemetry.spans.is_empty(),
                        !instrument,
                        "{combo}: span aggregates follow the bundle"
                    );
                }
            }
        }
    }
}
