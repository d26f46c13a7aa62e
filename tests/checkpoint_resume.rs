//! Checkpoint/resume determinism: interrupted-and-resumed runs must be
//! bit-identical to uninterrupted ones, and the on-disk format must
//! round-trip and reject corruption.

use std::path::PathBuf;
use std::sync::Arc;

use proptest::prelude::*;

use gatest_core::report::result_to_json;
use gatest_core::{
    CheckpointError, FaultSample, GaSnapshot, GatestConfig, RunControls, RunSnapshot,
    SnapshotIndividual, SnapshotPos, StopCause, TestGenerator,
};
use gatest_sim::{FaultStatus, Logic, SimState};
use gatest_telemetry::CounterSnapshot;

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "gatest-ckpt-{tag}-{}-{:?}.bin",
        std::process::id(),
        std::thread::current().id()
    ))
}

/// Deterministic splitmix64 for building arbitrary-but-reproducible
/// snapshot contents from a single proptest-drawn seed.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn logic(&mut self) -> Logic {
        match self.below(3) {
            0 => Logic::Zero,
            1 => Logic::One,
            _ => Logic::X,
        }
    }

    fn logics(&mut self, n: usize) -> Vec<Logic> {
        (0..n).map(|_| self.logic()).collect()
    }
}

/// A structurally valid but otherwise arbitrary snapshot derived from one
/// seed: every enum variant and container shape gets exercised across cases.
fn arbitrary_snapshot(seed: u64) -> RunSnapshot {
    let mut mix = Mix(seed);
    let pis = 1 + mix.below(6) as usize;
    let ga = |mix: &mut Mix, bits: usize| {
        let ind = |mix: &mut Mix| SnapshotIndividual {
            bits: (0..bits).map(|_| mix.next() & 1 == 1).collect(),
            fitness: mix.next() as f64 / u64::MAX as f64 * 10.0,
        };
        let pop = 1 + mix.below(8) as usize;
        GaSnapshot {
            sample: (0..mix.below(10)).map(|_| mix.below(500) as u32).collect(),
            rng: [mix.next(), mix.next(), mix.next(), mix.next()],
            generation: mix.below(9),
            evaluations: mix.below(1000),
            population: (0..pop).map(|_| ind(mix)).collect(),
            best: ind(mix),
            best_history: (0..mix.below(5)).map(|_| mix.next() as f64).collect(),
            mean_history: (0..mix.below(5)).map(|_| mix.next() as f64).collect(),
            diversity_history: (0..mix.below(5)).map(|_| mix.next() as f64).collect(),
        }
    };
    let pos = match mix.below(3) {
        0 => SnapshotPos::Vectors {
            phase: 1 + mix.below(3) as u8,
            noncontributing: mix.below(20),
            best_known_ffs: mix.below(20),
            init_stall: mix.below(20),
            ga: (mix.next() & 1 == 1).then(|| ga(&mut mix, pis)),
        },
        1 => {
            let frames = 1 + mix.below(8) as usize;
            SnapshotPos::Sequences {
                len_idx: mix.below(3),
                failures: mix.below(4),
                ga: (mix.next() & 1 == 1).then(|| ga(&mut mix, frames * pis)),
            }
        }
        _ => SnapshotPos::Done,
    };
    let nfaults = mix.below(60) as usize;
    let nffs = mix.below(10) as usize;
    RunSnapshot {
        circuit: format!("c{}", mix.below(1000)),
        seed: mix.next(),
        fault_sample: match mix.below(3) {
            0 => FaultSample::Full,
            1 => FaultSample::Count(mix.below(200) as usize),
            _ => FaultSample::Fraction(mix.next() as f64 / u64::MAX as f64),
        },
        config_digest: mix.next(),
        total_faults: nfaults as u64,
        master_rng: [mix.next(), mix.next(), mix.next(), mix.next()],
        test_set: {
            let vectors = mix.below(12) as usize;
            (0..vectors).map(|_| mix.logics(pis)).collect()
        },
        phase_vectors: [mix.below(9), mix.below(9), mix.below(9), mix.below(9)],
        phase_trace: (0..mix.below(30)).map(|_| 1 + mix.below(4) as u8).collect(),
        ga_evaluations: mix.next(),
        sequence_attempts: mix.below(40),
        phase_time_ns: [mix.next(), mix.next(), mix.next(), mix.next()],
        ga_generations: mix.below(5000),
        elapsed_ns: mix.next(),
        eval_epoch: mix.below(10_000),
        pos,
        sim: SimState {
            good_values: mix.logics(20),
            good_next_state: mix.logics(nffs),
            status: (0..nfaults)
                .map(|_| {
                    if mix.next() & 1 == 1 {
                        FaultStatus::Detected {
                            vector: mix.below(1000) as u32,
                        }
                    } else {
                        FaultStatus::Undetected
                    }
                })
                .collect(),
            faulty_ff: (0..nfaults)
                .map(|_| {
                    (0..mix.below(3))
                        .map(|_| (mix.below(nffs.max(1) as u64) as u32, mix.logic()))
                        .collect()
                })
                .collect(),
            vectors_applied: mix.below(10_000) as u32,
        },
        counters: CounterSnapshot {
            step_calls: mix.next(),
            gate_evals: mix.next(),
            checkpoint_restores: mix.next(),
            cache_hits: mix.next(),
            cache_misses: mix.next(),
            dedup_skips: mix.next(),
            prefix_frames_avoided: mix.next(),
            wide_groups: mix.next(),
            lanes_per_group: mix.next(),
            ..CounterSnapshot::default()
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Encode → decode → encode is lossless and canonical: the decoded
    /// snapshot equals the original and re-encodes to identical bytes.
    #[test]
    fn snapshot_serialization_round_trips(seed in any::<u64>()) {
        let snap = arbitrary_snapshot(seed);
        let bytes = snap.encode();
        let back = RunSnapshot::decode(&bytes).expect("own encoding decodes");
        prop_assert_eq!(&back, &snap);
        prop_assert_eq!(back.encode(), bytes, "canonical re-encoding");
    }

    /// Any single corrupted byte in the payload fails the checksum (or a
    /// structural check) — it never silently decodes to a different state.
    #[test]
    fn corrupted_snapshots_never_decode(seed in any::<u64>(), flip in any::<u64>()) {
        let snap = arbitrary_snapshot(seed);
        let mut bytes = snap.encode();
        let idx = 12 + (flip as usize % (bytes.len() - 12));
        bytes[idx] ^= 1 << (flip % 8) as u8;
        match RunSnapshot::decode(&bytes) {
            Err(_) => {}
            Ok(other) => prop_assert_eq!(other, snap, "only a checksum-bit flip may decode"),
        }
    }
}

fn s27_generator(seed: u64) -> TestGenerator {
    let circuit = Arc::new(gatest_netlist::benchmarks::iscas89("s27").unwrap());
    let config = GatestConfig::for_circuit(&circuit).with_seed(seed);
    TestGenerator::new(circuit, config)
}

/// Everything deterministic about a result, as one comparable string.
fn fingerprint(result: &gatest_core::TestGenResult) -> String {
    result_to_json(result)
}

/// The tentpole guarantee, exhaustively: killing an s27 run after *every*
/// possible tick and resuming from the written checkpoint reproduces the
/// uninterrupted run bit-for-bit — test set, phase trace, evaluation
/// counts, and the deterministic simulator counters.
#[test]
fn s27_kill_at_every_tick_resumes_bit_identically() {
    let baseline = s27_generator(3).run();
    assert_eq!(baseline.stop, StopCause::Completed);
    let mut expected = fingerprint(&baseline);
    // The baseline completed, so its stop cause is part of the fingerprint;
    // resumed runs also complete, so the strings must match exactly.
    let ck = temp_path("s27-sweep");
    let mut killed_at = 0u64;
    for k in 1..10_000 {
        let controls = RunControls {
            checkpoint_path: Some(ck.clone()),
            max_ticks: Some(k),
            ..RunControls::default()
        };
        let leg = s27_generator(3).run_controlled(&controls);
        if leg.stop == StopCause::Completed {
            assert_eq!(fingerprint(&leg), expected, "uninterrupted under controls");
            break;
        }
        killed_at = k;
        let snap = RunSnapshot::load(&ck).unwrap_or_else(|e| panic!("load at tick {k}: {e}"));
        let resumed = s27_generator(3)
            .resume(&snap, &RunControls::default())
            .unwrap_or_else(|e| panic!("resume at tick {k}: {e}"));
        assert_eq!(resumed.stop, StopCause::Completed);
        let got = fingerprint(&resumed);
        if got != expected {
            // Pinpoint the first difference for the failure message.
            let at = got
                .bytes()
                .zip(expected.bytes())
                .position(|(a, b)| a != b)
                .unwrap_or(got.len().min(expected.len()));
            panic!(
                "resume after tick {k} diverged at byte {at}:\n  got  …{}\n  want …{}",
                &got[at.saturating_sub(40)..(at + 40).min(got.len())],
                &expected[at.saturating_sub(40)..(at + 40).min(expected.len())]
            );
        }
        expected = got;
    }
    assert!(killed_at > 50, "sweep must cover a non-trivial run");
    let _ = std::fs::remove_file(&ck);
}

/// The same guarantee on s298 with fault sampling (which exercises the
/// master-RNG shuffle path), at a sample of interruption points including
/// deep in sequence generation.
#[test]
fn s298_sampled_kills_resume_bit_identically() {
    let circuit = Arc::new(gatest_netlist::benchmarks::iscas89("s298").unwrap());
    let make = || {
        let mut config = GatestConfig::for_circuit(&circuit).with_seed(21);
        config.fault_sample = FaultSample::Count(60);
        TestGenerator::new(Arc::clone(&circuit), config)
    };
    let baseline = make().run();
    let expected = fingerprint(&baseline);
    let ck = temp_path("s298-sample");
    for k in [1, 2, 3, 7, 19, 53, 131, 317, 711, 1553] {
        let controls = RunControls {
            checkpoint_path: Some(ck.clone()),
            max_ticks: Some(k),
            ..RunControls::default()
        };
        let leg = make().run_controlled(&controls);
        if leg.stop == StopCause::Completed {
            break;
        }
        let snap = RunSnapshot::load(&ck).unwrap();
        let resumed = make().resume(&snap, &RunControls::default()).unwrap();
        assert_eq!(fingerprint(&resumed), expected, "kill at tick {k}");
    }
    let _ = std::fs::remove_file(&ck);
}

/// Backend width is an execution detail, not run state: a checkpoint taken
/// under one width resumes under any other — no width recorded, no
/// adjacency persisted (the CSR is derived data rebuilt on load) — and
/// reproduces the uninterrupted run byte for byte.
#[test]
fn checkpoint_resumes_across_sim_widths_bit_identically() {
    use gatest_sim::SimBackend;
    let circuit = Arc::new(gatest_netlist::benchmarks::iscas89("s298").unwrap());
    let make = |backend: SimBackend| {
        let mut config = GatestConfig::for_circuit(&circuit)
            .with_seed(21)
            .with_sim_width(backend);
        config.fault_sample = FaultSample::Count(60);
        TestGenerator::new(Arc::clone(&circuit), config)
    };
    let expected = fingerprint(&make(SimBackend::Scalar64).run());
    let ck = temp_path("s298-xwidth");
    for (writer, resumer) in [
        (SimBackend::Scalar64, SimBackend::Wide256),
        (SimBackend::Wide256, SimBackend::Auto),
        (SimBackend::Auto, SimBackend::Scalar64),
    ] {
        let leg = make(writer).run_controlled(&RunControls {
            checkpoint_path: Some(ck.clone()),
            max_ticks: Some(53),
            ..RunControls::default()
        });
        assert_eq!(leg.stop, StopCause::Interrupted, "{writer} leg too short");
        let snap = RunSnapshot::load(&ck).unwrap();
        let resumed = make(resumer)
            .resume(&snap, &RunControls::default())
            .unwrap();
        assert_eq!(
            fingerprint(&resumed),
            expected,
            "{writer} checkpoint resumed at {resumer}"
        );
    }
    let _ = std::fs::remove_file(&ck);
}

/// Interrupting twice (three legs total) still lands on the identical
/// result: elapsed and counters accumulate across legs without skew.
#[test]
fn double_interruption_still_matches() {
    let baseline = s27_generator(11).run();
    let ck = temp_path("s27-twice");
    let leg1 = s27_generator(11).run_controlled(&RunControls {
        checkpoint_path: Some(ck.clone()),
        max_ticks: Some(9),
        ..RunControls::default()
    });
    assert_eq!(leg1.stop, StopCause::Interrupted);
    let snap1 = RunSnapshot::load(&ck).unwrap();
    let leg2 = s27_generator(11)
        .resume(
            &snap1,
            &RunControls {
                checkpoint_path: Some(ck.clone()),
                max_ticks: Some(31),
                ..RunControls::default()
            },
        )
        .unwrap();
    assert_eq!(leg2.stop, StopCause::Interrupted);
    let snap2 = RunSnapshot::load(&ck).unwrap();
    let final_leg = s27_generator(11)
        .resume(&snap2, &RunControls::default())
        .unwrap();
    assert_eq!(fingerprint(&final_leg), fingerprint(&baseline));
    let _ = std::fs::remove_file(&ck);
}

/// A resumed run can also finish under a budget: the `max_evals` stop point
/// is deterministic, so budgeted-then-resumed equals budgeted-in-one-go.
#[test]
fn budget_stop_is_deterministic_across_legs() {
    let circuit = Arc::new(gatest_netlist::benchmarks::iscas89("s27").unwrap());
    let with_budget = |evals: Option<u64>| {
        let mut config = GatestConfig::for_circuit(&circuit).with_seed(5);
        config.max_evals = evals;
        TestGenerator::new(Arc::clone(&circuit), config)
    };
    let one_go = with_budget(Some(200)).run();
    assert_eq!(one_go.stop, StopCause::BudgetExhausted);

    let ck = temp_path("s27-budget");
    let leg1 = with_budget(None).run_controlled(&RunControls {
        checkpoint_path: Some(ck.clone()),
        max_ticks: Some(7),
        ..RunControls::default()
    });
    assert_eq!(leg1.stop, StopCause::Interrupted);
    let snap = RunSnapshot::load(&ck).unwrap();
    let resumed = with_budget(Some(200))
        .resume(&snap, &RunControls::default())
        .unwrap();
    assert_eq!(resumed.stop, StopCause::BudgetExhausted);
    assert_eq!(fingerprint(&resumed), fingerprint(&one_go));
    let _ = std::fs::remove_file(&ck);
}

#[test]
fn atomic_writes_leave_no_tmp_file() {
    let ck = temp_path("s27-atomic");
    let controls = RunControls {
        checkpoint_path: Some(ck.clone()),
        max_ticks: Some(25),
        ..RunControls::default()
    };
    let leg = s27_generator(2).run_controlled(&controls);
    assert_eq!(leg.stop, StopCause::Interrupted);
    assert!(leg.checkpoint_error.is_none());
    assert!(ck.exists(), "final checkpoint written");
    let tmp = ck.with_extension("bin.tmp");
    assert!(!tmp.exists(), "temporary sibling must be renamed away");
    let _ = std::fs::remove_file(&ck);
}

#[test]
fn resume_rejects_mismatched_seed_and_circuit() {
    let ck = temp_path("s27-reject");
    let controls = RunControls {
        checkpoint_path: Some(ck.clone()),
        max_ticks: Some(12),
        ..RunControls::default()
    };
    let leg = s27_generator(3).run_controlled(&controls);
    assert_eq!(leg.stop, StopCause::Interrupted);
    let snap = RunSnapshot::load(&ck).unwrap();

    let err = s27_generator(4)
        .resume(&snap, &RunControls::default())
        .unwrap_err();
    assert!(err.to_string().contains("seed"), "{err}");

    let circuit = Arc::new(gatest_netlist::benchmarks::iscas89("s298").unwrap());
    let config = GatestConfig::for_circuit(&circuit).with_seed(3);
    let err = TestGenerator::new(circuit, config)
        .resume(&snap, &RunControls::default())
        .unwrap_err();
    assert!(err.to_string().contains("circuit"), "{err}");

    let circuit = Arc::new(gatest_netlist::benchmarks::iscas89("s27").unwrap());
    let mut config = GatestConfig::for_circuit(&circuit).with_seed(3);
    config.generations += 1;
    let err = TestGenerator::new(circuit, config)
        .resume(&snap, &RunControls::default())
        .unwrap_err();
    assert!(err.to_string().contains("digest"), "{err}");
    let _ = std::fs::remove_file(&ck);
}

/// A checksum-valid checkpoint whose simulator state does not fit the
/// circuit or fault list (a hand-edited or foreign file) is refused with a
/// `ResumeError` instead of panicking inside the simulator.
#[test]
fn resume_rejects_mis_shaped_simulator_state() {
    let ck = temp_path("s27-shape");
    let controls = RunControls {
        checkpoint_path: Some(ck.clone()),
        max_ticks: Some(12),
        ..RunControls::default()
    };
    let leg = s27_generator(3).run_controlled(&controls);
    assert_eq!(leg.stop, StopCause::Interrupted);
    let snap = RunSnapshot::load(&ck).unwrap();
    let _ = std::fs::remove_file(&ck);

    type Edit = (&'static str, fn(&mut SimState));
    let edits: [Edit; 5] = [
        ("fault status", |s| s.status.truncate(s.status.len() - 1)),
        ("faulty-FF", |s| s.faulty_ff.truncate(s.faulty_ff.len() - 1)),
        ("good value", |s| {
            s.good_values.truncate(s.good_values.len() - 1)
        }),
        ("next-state", |s| {
            s.good_next_state.truncate(s.good_next_state.len() - 1)
        }),
        ("flip-flop", |s| s.faulty_ff[0].push((99, Logic::One))),
    ];
    for (table, edit) in edits {
        let mut bad = snap.clone();
        edit(&mut bad.sim);
        let bad = RunSnapshot::decode(&bad.encode()).expect("re-encoded file is checksum-valid");
        let err = s27_generator(3)
            .resume(&bad, &RunControls::default())
            .unwrap_err();
        assert!(err.to_string().contains(table), "{table}: {err}");
    }
}

#[test]
fn future_format_versions_are_rejected_with_a_clear_error() {
    let snap = arbitrary_snapshot(42);
    let mut bytes = snap.encode();
    bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
    match RunSnapshot::decode(&bytes) {
        Err(CheckpointError::VersionMismatch { found }) => assert_eq!(found, 99),
        other => panic!("expected a version mismatch, got {other:?}"),
    }
}

#[test]
fn cadence_checkpoints_are_resumable_too() {
    // Periodic (generation-cadence) checkpoints, not just final ones, must
    // resume bit-identically.
    use gatest_core::CheckpointCadence;
    let baseline = s27_generator(7).run();
    let ck = temp_path("s27-cadence");
    let leg = s27_generator(7).run_controlled(&RunControls {
        checkpoint_path: Some(ck.clone()),
        checkpoint_every: Some(CheckpointCadence::Generations(5)),
        max_ticks: Some(40),
        ..RunControls::default()
    });
    assert_eq!(leg.stop, StopCause::Interrupted);
    assert!(
        leg.telemetry.counters.checkpoint_writes >= 2,
        "cadence plus final write"
    );
    let snap = RunSnapshot::load(&ck).unwrap();
    let resumed = s27_generator(7)
        .resume(&snap, &RunControls::default())
        .unwrap();
    assert_eq!(fingerprint(&resumed), fingerprint(&baseline));
    let _ = std::fs::remove_file(&ck);
}

/// Runs `generator` to the end in `max_ticks`-tick slices on the one
/// generator, returning the result and the number of suspensions.
fn run_in_slices(
    generator: &mut TestGenerator,
    max_ticks: u64,
) -> (gatest_core::TestGenResult, u64) {
    let controls = RunControls {
        max_ticks: Some(max_ticks),
        ..RunControls::default()
    };
    let mut suspensions = 0u64;
    loop {
        match generator.run_slice(&controls) {
            Some(result) => return (result, suspensions),
            None => {
                suspensions += 1;
                assert!(suspensions < 100_000, "slices never finished the run");
            }
        }
    }
}

/// In-memory suspension at every tick: one generator run in one-tick
/// slices ends exactly where the uninterrupted run does, and because the
/// suspended run keeps its fitness cache, it simulates exactly as much —
/// the work counters match the uninterrupted run's. A run chained through
/// snapshots instead starts every leg cold and simulates more.
#[test]
fn s27_suspended_at_every_tick_finishes_bit_identically_with_a_warm_cache() {
    let baseline = s27_generator(3).run();
    let mut generator = s27_generator(3);
    let (sliced, suspensions) = run_in_slices(&mut generator, 1);
    assert!(suspensions > 50, "only {suspensions} suspensions");
    assert_eq!(fingerprint(&sliced), fingerprint(&baseline));
    let (want, got) = (&baseline.telemetry.counters, &sliced.telemetry.counters);
    assert_eq!(got.step_calls, want.step_calls, "step_calls");
    assert_eq!(got.gate_evals, want.gate_evals, "gate_evals");
    assert_eq!(got.good_events, want.good_events, "good_events");
    assert_eq!(got.faulty_events, want.faulty_events, "faulty_events");
    assert!(
        generator.suspended_snapshot().is_none(),
        "a finished run is not kept"
    );

    let one_tick = RunControls {
        max_ticks: Some(1),
        ..RunControls::default()
    };
    let (mut leg, mut snapshot) = s27_generator(3).run_preemptible(&one_tick);
    while let Some(snap) = snapshot {
        (leg, snapshot) = s27_generator(3)
            .resume_preemptible(&snap, &one_tick)
            .unwrap();
    }
    assert_eq!(fingerprint(&leg), fingerprint(&baseline));
    assert!(
        leg.telemetry.counters.step_calls > want.step_calls,
        "cold legs re-simulate what the cache would have answered"
    );
}

/// The drain path: the snapshot of a suspended run equals the one
/// `run_preemptible` returns at the same tick boundary (timings and
/// counters aside), and a fresh generator resumed from it finishes
/// bit-identically — as does the suspended run itself.
#[test]
fn s298_suspended_snapshots_resume_bit_identically() {
    let circuit = Arc::new(gatest_netlist::benchmarks::iscas89("s298").unwrap());
    let make = || {
        let mut config = GatestConfig::for_circuit(&circuit).with_seed(21);
        config.fault_sample = FaultSample::Count(60);
        TestGenerator::new(Arc::clone(&circuit), config)
    };
    let expected = fingerprint(&make().run());
    let untimed = |mut snap: RunSnapshot| {
        snap.elapsed_ns = 0;
        snap.phase_time_ns = [0; 4];
        snap.counters = CounterSnapshot::default();
        snap
    };
    for k in [1, 7, 53, 317] {
        let controls = RunControls {
            max_ticks: Some(k),
            ..RunControls::default()
        };
        let mut suspended = make();
        assert!(suspended.run_slice(&controls).is_none(), "tick {k}");
        let snap = suspended.suspended_snapshot().expect("a suspended run");
        let (_, preempted) = make().run_preemptible(&controls);
        assert_eq!(
            untimed(snap.clone()),
            untimed(preempted.expect("an early stop returns its snapshot")),
            "tick {k}"
        );
        let resumed = make().resume(&snap, &RunControls::default()).unwrap();
        assert_eq!(fingerprint(&resumed), expected, "resumed at tick {k}");
        if k == 53 {
            let (continued, _) = run_in_slices(&mut suspended, u64::MAX);
            assert_eq!(fingerprint(&continued), expected, "continued at tick {k}");
        }
    }
}

/// A restart: a slice that stops a kept run still writes the checkpoint
/// its controls ask for, and that checkpoint, loaded with `suspend_from`
/// into a fresh generator, becomes a suspended run like any other that
/// slices continue to the uninterrupted result.
#[test]
fn suspend_from_then_slices_match_the_uninterrupted_run() {
    let baseline = s27_generator(11).run();
    let ck = temp_path("s27-suspend-from");
    let mut first = s27_generator(11);
    let stopped = first.run_slice(&RunControls {
        checkpoint_path: Some(ck.clone()),
        max_ticks: Some(40),
        ..RunControls::default()
    });
    assert!(stopped.is_none(), "40 ticks do not finish s27");
    let snap = RunSnapshot::load(&ck).unwrap();
    let _ = std::fs::remove_file(&ck);
    let kept = first.suspended_snapshot().expect("the run is kept");
    assert_eq!((&snap.test_set, &snap.sim), (&kept.test_set, &kept.sim));

    let mut generator = s27_generator(11);
    generator.suspend_from(&snap).unwrap();
    let reloaded = generator.suspended_snapshot().expect("loaded as suspended");
    assert_eq!((&reloaded.pos, &reloaded.sim), (&snap.pos, &snap.sim));
    let (result, suspensions) = run_in_slices(&mut generator, 3);
    assert!(suspensions > 0);
    assert_eq!(fingerprint(&result), fingerprint(&baseline));

    let err = s27_generator(4).suspend_from(&snap).unwrap_err();
    assert!(err.to_string().contains("seed"), "{err}");
}
