//! End-to-end tests of the `gatest` binary.

use std::process::Command;

fn gatest(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_gatest"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn help_lists_commands() {
    let out = gatest(&["--help"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for cmd in [
        "atpg", "grade", "compact", "diagnose", "stats", "scan", "convert", "hitec",
    ] {
        assert!(text.contains(cmd), "help missing {cmd}");
    }
}

#[test]
fn unknown_command_fails_with_message() {
    let out = gatest(&["frobnicate", "s27"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn atpg_then_grade_round_trip() {
    let dir = std::env::temp_dir().join("gatest_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let tests = dir.join("s27.tests");
    let out = gatest(&[
        "atpg",
        "s27",
        "--seed",
        "3",
        "--out",
        tests.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("faults"));

    let out = gatest(&["grade", "s27", "--tests", tests.to_str().unwrap()]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("26/26"), "expected full coverage: {text}");
}

#[test]
fn grade_transition_mode() {
    let dir = std::env::temp_dir().join("gatest_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let tests = dir.join("s27t.tests");
    gatest(&["atpg", "s27", "--out", tests.to_str().unwrap()]);
    let out = gatest(&[
        "grade",
        "s27",
        "--tests",
        tests.to_str().unwrap(),
        "--transition",
    ]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("transition faults"));
}

#[test]
fn stats_and_convert() {
    let out = gatest(&["stats", "s298"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("sequential depth: 8"));
    assert!(text.contains("SCOAP"));

    let out = gatest(&["convert", "s27", "--to", "dot"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("digraph"));
}

#[test]
fn scan_emits_combinational_bench() {
    let out = gatest(&["scan", "s27"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(!text.contains("DFF"), "scan output must be flip-flop-free");
    assert!(text.contains("INPUT(G5)"), "flip-flop became a pseudo-PI");
}

#[test]
fn file_based_circuit_loads() {
    // Write s27 out, read it back in via file path.
    let dir = std::env::temp_dir().join("gatest_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("mine.bench");
    let circuit = gatest_netlist::benchmarks::iscas89("s27").unwrap();
    std::fs::write(&path, gatest_netlist::write_bench(&circuit)).unwrap();
    let out = gatest(&["stats", path.to_str().unwrap()]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("3 DFFs"));
}

#[test]
fn missing_flag_is_reported() {
    let out = gatest(&["grade", "s27"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--tests"));
}

#[test]
fn usage_errors_exit_with_code_2() {
    // Missing circuit argument, unknown command, unknown flag: all usage.
    for args in [
        &["atpg"][..],
        &["frobnicate", "s27"][..],
        &["atpg", "s27", "-z"][..],
        &["atpg", "s27", "--sim-width", "1024"][..],
        &["trace", "s27"][..],
    ] {
        let out = gatest(args);
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
    }
}

#[test]
fn flags_a_command_does_not_take_exit_with_code_2() {
    // A misspelt budget must not run unbudgeted, and retired knobs must
    // not be silently ignored.
    for (args, named) in [
        (&["atpg", "s27", "--max-eval", "5"][..], "--max-eval"),
        (
            &["atpg", "s27", "--fault-shards", "2"][..],
            "--fault-shards",
        ),
        (&["atpg", "s27", "--sim-threads", "2"][..], "--sim-threads"),
        (&["stats", "s27", "--seed", "1"][..], "--seed"),
    ] {
        let out = gatest(args);
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(named),
            "{args:?} must name {named}: {stderr}"
        );
    }
    let out = gatest(&["atpg", "s27", "--sim-width", "wide512"]);
    assert_eq!(out.status.code(), Some(2), "wide512 is no longer a width");
    assert!(String::from_utf8_lossy(&out.stderr).contains("wide512"));
}

#[test]
fn runtime_errors_exit_with_code_1() {
    // An unreadable circuit file is a runtime failure, not a usage one.
    let out = gatest(&["stats", "/nonexistent/missing.bench"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("reading it failed"));
}

#[test]
fn trace_out_emits_all_event_kinds_and_summarizes() {
    let dir = std::env::temp_dir().join("gatest_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("s27.trace.jsonl");
    let out = gatest(&[
        "atpg",
        "s27",
        "--seed",
        "3",
        "--trace-out",
        trace.to_str().unwrap(),
        "--progress",
        "-q",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // -q suppressed the summary; --progress still reports on stderr.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("phases ["), "-q must suppress the summary");
    assert!(
        stderr.contains("[gatest]"),
        "progress lines expected: {stderr}"
    );

    let text = std::fs::read_to_string(&trace).unwrap();
    for kind in [
        "run_started",
        "phase_entered",
        "ga_generation",
        "vector_committed",
        "fault_detected",
        "run_finished",
    ] {
        assert!(
            text.contains(&format!("\"event\":\"{kind}\"")),
            "trace missing {kind}"
        );
    }

    let out = gatest(&["trace", "summarize", trace.to_str().unwrap()]);
    assert!(out.status.success());
    let summary = String::from_utf8_lossy(&out.stdout);
    assert!(summary.contains("run: s27 seed 3"), "{summary}");
    assert!(summary.contains("backend scalar64 (64 lanes)"), "{summary}");
    assert!(summary.contains("finished: "), "{summary}");
}

#[test]
fn sim_width_backends_produce_byte_identical_result_json() {
    let dir = std::env::temp_dir().join("gatest_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let mut jsons = Vec::new();
    for backend in ["scalar64", "wide256", "auto"] {
        let json = dir.join(format!("s27.{backend}.json"));
        let out = gatest(&[
            "atpg",
            "s27",
            "--seed",
            "3",
            "--sim-width",
            backend,
            "--result-json",
            json.to_str().unwrap(),
            "--out",
            "/dev/null",
            "-q",
        ]);
        assert!(
            out.status.success(),
            "--sim-width {backend}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        jsons.push(std::fs::read(&json).unwrap());
    }
    assert_eq!(jsons[0], jsons[1], "scalar64 vs wide256 result JSON differ");
    assert_eq!(jsons[0], jsons[2], "scalar64 vs auto result JSON differ");
}

#[test]
fn verbose_prints_telemetry_table() {
    let out = gatest(&["atpg", "s27", "--seed", "3", "-v", "--out", "/dev/null"]);
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    for needle in ["2 vector generation", "ga generations", "evals/sec"] {
        assert!(stderr.contains(needle), "missing `{needle}`:\n{stderr}");
    }
}
