//! Memoization-layer exactness: the fitness cache, batch dedup, and
//! prefix-sharing sequence evaluation must never change what a run
//! produces — only how much simulation is spent producing it. Every test
//! here compares complete runs through `result_to_json`, which captures the
//! test set, phase trace, score checksum, and evaluation counts.

use std::path::PathBuf;
use std::sync::Arc;

use gatest_core::report::{result_to_json, score_checksum};
use gatest_core::{FaultSample, GatestConfig, RunControls, RunSnapshot, StopCause, TestGenerator};
use gatest_netlist::benchmarks::iscas89;

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "gatest-evalcache-{tag}-{}-{:?}.bin",
        std::process::id(),
        std::thread::current().id()
    ))
}

/// One complete run with the given worker count and memoization knobs,
/// reduced to its deterministic fingerprint.
fn run_fingerprint(
    name: &str,
    seed: u64,
    sample: FaultSample,
    workers: usize,
    cache: usize,
    dedup: bool,
) -> (String, u64) {
    let circuit = Arc::new(iscas89(name).unwrap());
    let mut config = GatestConfig::for_circuit(&circuit)
        .with_seed(seed)
        .with_workers(workers)
        .with_eval_cache(cache)
        .with_dedup(dedup);
    config.fault_sample = sample;
    let result = TestGenerator::new(circuit, config).run();
    assert_eq!(result.stop, StopCause::Completed);
    (result_to_json(&result), score_checksum(&result))
}

/// The tentpole guarantee on s27: with memoization fully off as the
/// reference, every combination of cache capacity (default, tiny-evicting,
/// off), dedup switch, and worker count produces the byte-identical result
/// JSON and score checksum.
#[test]
fn s27_memoization_is_bit_identical_across_thread_shapes() {
    let (base_json, base_sum) = run_fingerprint("s27", 3, FaultSample::Full, 1, 0, false);
    for workers in [1usize, 0] {
        for (cache, dedup) in [(4096usize, true), (4096, false), (0, true), (8, true)] {
            let (json, sum) = run_fingerprint("s27", 3, FaultSample::Full, workers, cache, dedup);
            assert_eq!(
                sum, base_sum,
                "score checksum at workers={workers} cache={cache} dedup={dedup}"
            );
            assert_eq!(
                json, base_json,
                "result JSON at workers={workers} cache={cache} dedup={dedup}"
            );
        }
    }
}

/// The same guarantee on s298 with fault sampling (sequence generation runs
/// long there, exercising the prefix-sharing trie and epoch invalidation).
#[test]
fn s298_sampled_cache_on_equals_cache_off() {
    let sample = FaultSample::Count(60);
    let (base_json, base_sum) = run_fingerprint("s298", 21, sample, 1, 0, false);
    for workers in [2usize, 0] {
        let (json, sum) = run_fingerprint("s298", 21, sample, workers, 4096, true);
        assert_eq!(sum, base_sum, "workers={workers}");
        assert_eq!(json, base_json, "workers={workers}");
    }
    // Serial cache-on as well, the shape the determinism CI job diffs.
    let (json, _) = run_fingerprint("s298", 21, sample, 1, 4096, true);
    assert_eq!(json, base_json, "serial cache-on");
}

/// Seed sweep: cached and uncached runs agree for every seed, not just a
/// lucky one.
#[test]
fn s27_seed_sweep_cached_equals_uncached() {
    for seed in 1..=6u64 {
        let (off, _) = run_fingerprint("s27", seed, FaultSample::Full, 1, 0, false);
        let (on, _) = run_fingerprint("s27", seed, FaultSample::Full, 1, 4096, true);
        assert_eq!(on, off, "seed {seed}");
    }
}

/// `--paranoid-cache` recomputes every memoized score serially and asserts
/// bit-equality inside the generator; a full run completing without
/// panicking (and matching the reference) cross-checks cache, dedup, trie,
/// pool, and packed-phase-1 paths at once.
#[test]
fn paranoid_mode_survives_a_full_run() {
    let (base_json, _) = run_fingerprint("s27", 5, FaultSample::Full, 1, 0, false);
    let circuit = Arc::new(iscas89("s27").unwrap());
    let mut config = GatestConfig::for_circuit(&circuit)
        .with_seed(5)
        .with_workers(0)
        .with_eval_cache(4096);
    config.paranoid_cache = true;
    let result = TestGenerator::new(circuit, config).run();
    assert_eq!(result.stop, StopCause::Completed);
    assert_eq!(result_to_json(&result), base_json);
}

/// Kill/resume with the cache enabled: the eval epoch round-trips through
/// the checkpoint, so the resumed leg numbers GA invocations
/// exactly like the uninterrupted run and lands on the identical result —
/// even though its cache starts cold.
#[test]
fn s27_kill_resume_with_cache_round_trips_the_epoch() {
    let make = || {
        let circuit = Arc::new(iscas89("s27").unwrap());
        let config = GatestConfig::for_circuit(&circuit)
            .with_seed(3)
            .with_eval_cache(4096);
        TestGenerator::new(circuit, config)
    };
    let baseline = make().run();
    let expected = result_to_json(&baseline);
    let ck = temp_path("s27-epoch");
    for k in [5u64, 17, 43, 101] {
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
        assert!(
            snap.eval_epoch > 0,
            "a mid-run checkpoint has started at least one GA invocation"
        );
        // The epoch survives an encode/decode round-trip exactly.
        assert_eq!(
            RunSnapshot::decode(&snap.encode()).unwrap().eval_epoch,
            snap.eval_epoch
        );
        let resumed = make().resume(&snap, &RunControls::default()).unwrap();
        assert_eq!(result_to_json(&resumed), expected, "kill at tick {k}");
    }
    let _ = std::fs::remove_file(&ck);
}

/// Checkpoints written by this build carry the current format version; a
/// version-1 header is refused with the found version rather than misread.
#[test]
fn version_1_checkpoints_are_refused() {
    let make = || {
        let circuit = Arc::new(iscas89("s27").unwrap());
        TestGenerator::new(
            Arc::clone(&circuit),
            GatestConfig::for_circuit(&circuit).with_seed(3),
        )
    };
    let ck = temp_path("s27-v1");
    let controls = RunControls {
        checkpoint_path: Some(ck.clone()),
        max_ticks: Some(5),
        ..RunControls::default()
    };
    let leg = make().run_controlled(&controls);
    assert_eq!(leg.stop, StopCause::Interrupted);
    let mut bytes = std::fs::read(&ck).unwrap();
    assert_eq!(
        u32::from_le_bytes(bytes[8..12].try_into().unwrap()),
        gatest_core::checkpoint::VERSION,
        "current format version"
    );
    bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
    match RunSnapshot::decode(&bytes) {
        Err(gatest_core::CheckpointError::VersionMismatch { found: 1 }) => {}
        other => panic!("expected version-1 rejection, got {other:?}"),
    }
    let _ = std::fs::remove_file(&ck);
}
