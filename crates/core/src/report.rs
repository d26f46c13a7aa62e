//! Formatting helpers for test-generation results.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

use gatest_netlist::Circuit;
use gatest_sim::{FaultSim, Logic};
use gatest_telemetry::SpanSnapshot;

use crate::checkpoint::{fnv1a, FNV_OFFSET};
use crate::generator::TestGenResult;

/// Formats a duration the way the paper's tables do: seconds below a
/// minute, then `m`, then `h`.
///
/// # Example
///
/// ```
/// use std::time::Duration;
/// use gatest_core::report::format_duration;
///
/// assert_eq!(format_duration(Duration::from_secs_f64(2.5)), "2.50s");
/// assert_eq!(format_duration(Duration::from_secs(90)), "1.50m");
/// assert_eq!(format_duration(Duration::from_secs(5400)), "1.50h");
/// ```
pub fn format_duration(d: Duration) -> String {
    let secs = d.as_secs_f64();
    if secs < 60.0 {
        format!("{secs:.2}s")
    } else if secs < 3600.0 {
        format!("{:.2}m", secs / 60.0)
    } else {
        format!("{:.2}h", secs / 3600.0)
    }
}

/// One row of a Table 2-style report.
pub fn table_row(result: &TestGenResult) -> String {
    format!(
        "{:<8} {:>7} {:>7} {:>7.2}% {:>6} {:>9}",
        result.circuit,
        result.total_faults,
        result.detected,
        result.fault_coverage() * 100.0,
        result.vectors(),
        format_duration(result.elapsed),
    )
}

/// Header matching [`table_row`].
pub fn table_header() -> String {
    format!(
        "{:<8} {:>7} {:>7} {:>8} {:>6} {:>9}",
        "circuit", "faults", "det", "cov", "vec", "time"
    )
}

/// Formats the extended telemetry of a run as a small aligned table: one
/// line per phase with its wall-clock share, then the derived simulator
/// rates (GA evaluations/second, simulator events per step, gate
/// evaluations, checkpoint restores).
pub fn telemetry_table(result: &TestGenResult) -> String {
    let t = &result.telemetry;
    let mut out = String::new();
    let _ = writeln!(out, "{:<22} {:>10} {:>7}", "phase", "time", "share");
    let phased = t.phased_time().as_secs_f64();
    const NAMES: [&str; 4] = [
        "1 initialization",
        "2 vector generation",
        "3 stalled (activity)",
        "4 sequences",
    ];
    for (name, d) in NAMES.iter().zip(t.phase_time.iter()) {
        let share = if phased > 0.0 {
            100.0 * d.as_secs_f64() / phased
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "{:<22} {:>10} {:>6.1}%",
            name,
            format_duration(*d),
            share
        );
    }
    let evals_per_sec = t.evals_per_sec(result.ga_evaluations, result.elapsed);
    let _ = writeln!(out, "{:<22} {:>10}", "ga generations", t.ga_generations);
    let _ = writeln!(out, "{:<22} {:>10.0}", "evals/sec", evals_per_sec);
    let _ = writeln!(out, "{:<22} {:>10.1}", "events/step", t.events_per_step());
    let _ = writeln!(out, "{:<22} {:>10}", "gate evals", t.counters.gate_evals);
    let _ = writeln!(out, "{:<22} {:>10}", "sim steps", t.counters.total_steps());
    let _ = writeln!(
        out,
        "{:<22} {:>10}",
        "restores", t.counters.checkpoint_restores
    );
    let _ = writeln!(
        out,
        "{:<22} {:>9.1}M",
        "restore MB avoided",
        t.counters.restore_bytes_avoided as f64 / 1_000_000.0
    );
    let _ = writeln!(
        out,
        "{:<22} {:>10}",
        "packed p1 frames", t.counters.packed_phase1_frames
    );
    let _ = writeln!(out, "{:<22} {:>10}", "pool tasks", t.counters.pool_tasks);
    let _ = writeln!(
        out,
        "{:<22} {:>9.2}s",
        "pool idle",
        t.counters.pool_idle_ns as f64 / 1e9
    );
    // Wide-backend counters are zero for scalar64 runs and absent entirely
    // in traces from before the width-generic backend; print them only when
    // a wide backend actually ran, so old and narrow outputs are unchanged.
    if t.counters.wide_groups > 0 {
        let _ = writeln!(out, "{:<22} {:>10}", "wide groups", t.counters.wide_groups);
        let _ = writeln!(
            out,
            "{:<22} {:>10}",
            "lanes/group", t.counters.lanes_per_group
        );
    }
    // Amortization counters follow the same rule: zero on runs (and absent
    // in traces) from before the CSR/window work, so hide them there.
    if t.counters.events_amortized > 0 {
        let _ = writeln!(
            out,
            "{:<22} {:>10}",
            "events amortized", t.counters.events_amortized
        );
    }
    if t.counters.commit_batch_frames > 0 {
        let _ = writeln!(
            out,
            "{:<22} {:>10}",
            "batched frames", t.counters.commit_batch_frames
        );
    }
    if t.counters.csr_bytes > 0 {
        let _ = writeln!(
            out,
            "{:<22} {:>7.1} KB",
            "csr adjacency",
            t.counters.csr_bytes as f64 / 1_000.0
        );
    }
    if t.counters.report_records_streamed > 0 {
        let _ = writeln!(
            out,
            "{:<22} {:>10}",
            "report records", t.counters.report_records_streamed
        );
    }
    let _ = writeln!(
        out,
        "{:<22} {:>7.1} MB",
        "scratch reused",
        t.counters.scratch_bytes_reused as f64 / 1_000_000.0
    );
    let _ = writeln!(
        out,
        "{:<22} {:>10}",
        "ckpt writes", t.counters.checkpoint_writes
    );
    let _ = writeln!(
        out,
        "{:<22} {:>7.1} MB",
        "ckpt bytes",
        t.counters.checkpoint_bytes as f64 / 1_000_000.0
    );
    let _ = writeln!(out, "{:<22} {:>10}", "cache hits", t.counters.cache_hits);
    let _ = writeln!(
        out,
        "{:<22} {:>10}",
        "cache misses", t.counters.cache_misses
    );
    let _ = writeln!(out, "{:<22} {:>10}", "dedup skips", t.counters.dedup_skips);
    let _ = write!(out, "{:<22} {:>10}", "stop cause", result.stop.as_str());
    if !t.spans.is_empty() {
        let _ = write!(out, "\n{}", span_table(&t.spans));
    }
    out
}

/// Renders hierarchical span aggregates as an indented tree: per span kind
/// the call count, inclusive and exclusive wall time, and the inclusive
/// share of the total root time. Empty input renders as an empty string.
pub fn span_table(spans: &SpanSnapshot) -> String {
    let mut out = String::new();
    if spans.is_empty() {
        return out;
    }
    let total: u64 = spans
        .nodes
        .iter()
        .filter(|n| n.parent.is_none())
        .map(|n| n.incl_ns)
        .sum();
    let _ = writeln!(
        out,
        "{:<26} {:>8} {:>10} {:>10} {:>7}",
        "span", "count", "incl", "excl", "wall"
    );
    fn emit(
        out: &mut String,
        spans: &SpanSnapshot,
        parent: Option<&str>,
        depth: usize,
        total: u64,
    ) {
        // Snapshots from files could in principle contain cycles; cap the
        // walk at the collector's own nesting limit.
        if depth >= 16 {
            return;
        }
        for node in spans.nodes.iter().filter(|n| n.parent.as_deref() == parent) {
            let share = if total > 0 {
                100.0 * node.incl_ns as f64 / total as f64
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "{:<26} {:>8} {:>10} {:>10} {:>6.1}%",
                format!("{}{}", "  ".repeat(depth), node.kind),
                node.count,
                format_duration(Duration::from_nanos(node.incl_ns)),
                format_duration(Duration::from_nanos(node.excl_ns)),
                share
            );
            emit(out, spans, Some(&node.kind), depth + 1, total);
        }
    }
    emit(&mut out, spans, None, 0, total);
    out
}

/// A checksum over everything a deterministic run pins down: the test set,
/// the phase trace, the detection count, and the evaluation count. Two runs
/// of the same configuration — including an interrupted-and-resumed run —
/// must produce the same value.
pub fn score_checksum(result: &TestGenResult) -> u64 {
    let mut hash = FNV_OFFSET;
    for vector in &result.test_set {
        for &v in vector {
            hash = fnv1a(hash, &[v as u8]);
        }
        hash = fnv1a(hash, b"/");
    }
    hash = fnv1a(hash, &result.phase_trace);
    hash = fnv1a(hash, &(result.detected as u64).to_le_bytes());
    fnv1a(hash, &(result.ga_evaluations as u64).to_le_bytes())
}

/// Serializes the deterministic portion of a result as canonical JSON: the
/// test set, coverage, phase statistics, and stop cause. Wall-clock times
/// and all simulator counters are deliberately excluded — the fitness cache
/// is process-local, so a resumed leg starts cold and legitimately
/// re-simulates work the uninterrupted run memoized; scores and the test
/// set are unaffected, but raw sim-work counters are not replay-invariant.
/// Keeping them out makes the output of an interrupted-and-resumed run
/// **byte-identical** to an uninterrupted one — CI diffs the two files.
/// (Counters remain available in the `-v` telemetry table and in trace
/// snapshots.)
pub fn result_to_json(result: &TestGenResult) -> String {
    let mut out = String::from("{");
    let _ = write!(out, "\"circuit\":\"{}\",", result.circuit);
    let _ = write!(out, "\"total_faults\":{},", result.total_faults);
    let _ = write!(out, "\"detected\":{},", result.detected);
    let _ = write!(out, "\"coverage\":{:.6},", result.fault_coverage());
    let _ = write!(out, "\"vectors\":{},", result.vectors());
    let _ = write!(
        out,
        "\"phase_vectors\":[{},{},{},{}],",
        result.phase_vectors[0],
        result.phase_vectors[1],
        result.phase_vectors[2],
        result.phase_vectors[3]
    );
    let trace: Vec<String> = result.phase_trace.iter().map(u8::to_string).collect();
    let _ = write!(out, "\"phase_trace\":[{}],", trace.join(","));
    let _ = write!(out, "\"ga_evaluations\":{},", result.ga_evaluations);
    let _ = write!(
        out,
        "\"ga_generations\":{},",
        result.telemetry.ga_generations
    );
    let _ = write!(out, "\"sequence_attempts\":{},", result.sequence_attempts);
    let _ = write!(out, "\"stop\":\"{}\",", result.stop.as_str());
    let _ = write!(out, "\"budget_exhausted\":{},", result.budget_exhausted());
    let _ = write!(out, "\"score_checksum\":{},", score_checksum(result));
    let vectors: Vec<String> = result
        .test_set
        .iter()
        .map(|v| {
            let mut s = String::with_capacity(v.len() + 2);
            s.push('"');
            for l in v {
                let _ = write!(s, "{l}");
            }
            s.push('"');
            s
        })
        .collect();
    let _ = write!(out, "\"test_set\":[{}]", vectors.join(","));
    out.push('}');
    out
}

/// Serializes a test set as one line of `0`/`1` per vector (the usual
/// exchange format for sequential test sets).
pub fn test_set_to_string(test_set: &[Vec<Logic>]) -> String {
    let mut out = String::new();
    for vector in test_set {
        for v in vector {
            let _ = write!(out, "{v}");
        }
        out.push('\n');
    }
    out
}

/// Parses a test set written by [`test_set_to_string`].
///
/// # Errors
///
/// Returns a human-readable message naming the offending line on malformed
/// input (characters other than `0`, `1`, `x`).
pub fn test_set_from_string(text: &str) -> Result<Vec<Vec<Logic>>, String> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let mut vector = Vec::with_capacity(line.len());
        for c in line.chars() {
            vector.push(match c {
                '0' => Logic::Zero,
                '1' => Logic::One,
                'x' | 'X' => Logic::X,
                other => {
                    return Err(format!(
                        "invalid character `{other}` in test set at line {}",
                        lineno + 1
                    ))
                }
            });
        }
        out.push(vector);
    }
    Ok(out)
}

/// The cumulative fault-coverage curve of a test set: entry `i` is the
/// number of faults detected by vectors `0..=i`.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use gatest_core::report::coverage_curve;
/// use gatest_sim::Logic;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let circuit = Arc::new(gatest_netlist::benchmarks::iscas89("s27")?);
/// let tests = vec![vec![Logic::One, Logic::One, Logic::Zero, Logic::Zero]; 3];
/// let curve = coverage_curve(&circuit, &tests);
/// assert_eq!(curve.len(), 3);
/// assert!(curve.windows(2).all(|w| w[1] >= w[0]), "monotone");
/// # Ok(())
/// # }
/// ```
pub fn coverage_curve(circuit: &Arc<Circuit>, test_set: &[Vec<Logic>]) -> Vec<usize> {
    let mut sim = FaultSim::new(Arc::clone(circuit));
    let mut curve = Vec::with_capacity(test_set.len());
    for v in test_set {
        sim.step(v);
        curve.push(sim.detected_count());
    }
    curve
}

/// Renders a coverage curve as a compact ASCII sparkline plus endpoints,
/// for terminal reports.
pub fn sparkline(curve: &[usize], total: usize) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if curve.is_empty() || total == 0 {
        return String::from("(empty)");
    }
    let step = (curve.len() / 60).max(1);
    let mut out = String::new();
    for chunk in curve.chunks(step) {
        let v = *chunk.last().expect("chunks are non-empty");
        let idx = (v * (BARS.len() - 1)) / total;
        out.push(BARS[idx.min(BARS.len() - 1)]);
    }
    let _ = write!(
        out,
        " {}/{} ({:.1}%)",
        curve.last().expect("non-empty"),
        total,
        100.0 * *curve.last().expect("non-empty") as f64 / total as f64
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durations_match_paper_style() {
        assert_eq!(format_duration(Duration::from_millis(350)), "0.35s");
        assert_eq!(format_duration(Duration::from_secs(61)), "1.02m");
        assert_eq!(format_duration(Duration::from_secs(7200)), "2.00h");
    }

    #[test]
    fn test_set_round_trips() {
        let set = vec![
            vec![Logic::One, Logic::Zero, Logic::X],
            vec![Logic::Zero, Logic::Zero, Logic::One],
        ];
        let text = test_set_to_string(&set);
        assert_eq!(text, "10x\n001\n");
        assert_eq!(test_set_from_string(&text).unwrap(), set);
    }

    #[test]
    fn rejects_bad_characters() {
        let err = test_set_from_string("01\n0Z\n").unwrap_err();
        assert!(err.contains("line 2"));
        assert!(err.contains('Z'));
    }

    #[test]
    fn empty_lines_are_skipped() {
        let set = test_set_from_string("\n01\n\n10\n").unwrap();
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn coverage_curve_is_monotone_and_matches_final_count() {
        let circuit = Arc::new(gatest_netlist::benchmarks::iscas89("s27").unwrap());
        let tests = vec![
            vec![Logic::One, Logic::One, Logic::Zero, Logic::Zero],
            vec![Logic::Zero, Logic::Zero, Logic::One, Logic::One],
            vec![Logic::One, Logic::Zero, Logic::One, Logic::Zero],
        ];
        let curve = coverage_curve(&circuit, &tests);
        assert!(curve.windows(2).all(|w| w[1] >= w[0]));
        let mut sim = FaultSim::new(circuit);
        for v in &tests {
            sim.step(v);
        }
        assert_eq!(curve.last().copied(), Some(sim.detected_count()));
    }

    #[test]
    fn sparkline_renders() {
        let s = sparkline(&[1, 3, 7, 9, 10], 10);
        assert!(s.contains("10/10"));
        assert!(s.contains("100.0%"));
        assert_eq!(sparkline(&[], 10), "(empty)");
    }

    fn sample_result() -> TestGenResult {
        use gatest_telemetry::{CounterSnapshot, SpanNode, TelemetrySnapshot};
        TestGenResult {
            circuit: String::from("s27"),
            total_faults: 26,
            detected: 25,
            test_set: vec![vec![Logic::One; 4]; 9],
            elapsed: Duration::from_millis(500),
            phase_vectors: [2, 5, 1, 1],
            ga_evaluations: 640,
            sequence_attempts: 2,
            phase_trace: vec![1, 1, 2, 2, 2, 2, 2, 3, 4],
            stop: crate::generator::StopCause::Completed,
            checkpoint_error: None,
            fault_report_error: None,
            telemetry: TelemetrySnapshot {
                phase_time: [
                    Duration::from_millis(50),
                    Duration::from_millis(300),
                    Duration::from_millis(50),
                    Duration::from_millis(100),
                ],
                ga_generations: 81,
                counters: CounterSnapshot {
                    step_calls: 700,
                    good_only_calls: 160,
                    gate_evals: 14_000,
                    good_events: 3_200,
                    faulty_events: 9_100,
                    checkpoint_restores: 649,
                    restore_bytes_avoided: 2_600_000,
                    packed_phase1_frames: 40,
                    pool_tasks: 12,
                    pool_idle_ns: 80_000_000,
                    scratch_bytes_reused: 3_400_000,
                    checkpoint_writes: 3,
                    checkpoint_bytes: 18_000,
                    cache_hits: 210,
                    cache_misses: 430,
                    dedup_skips: 37,
                    prefix_frames_avoided: 1_900,
                    wide_groups: 48,
                    lanes_per_group: 256,
                    events_amortized: 2_100,
                    commit_batch_frames: 18,
                    csr_bytes: 64_000,
                    report_records_streamed: 25,
                },
                spans: SpanSnapshot {
                    nodes: vec![
                        SpanNode {
                            kind: "run".into(),
                            parent: None,
                            count: 1,
                            incl_ns: 500_000_000,
                            excl_ns: 20_000_000,
                        },
                        SpanNode {
                            kind: "generation".into(),
                            parent: Some("run".into()),
                            count: 81,
                            incl_ns: 450_000_000,
                            excl_ns: 50_000_000,
                        },
                        SpanNode {
                            kind: "eval_batch".into(),
                            parent: Some("generation".into()),
                            count: 81,
                            incl_ns: 400_000_000,
                            excl_ns: 400_000_000,
                        },
                    ],
                },
            },
        }
    }

    #[test]
    fn header_and_row_align() {
        // Every column boundary in the header lines up with the row: both
        // are produced by fixed-width format strings, so the space-separated
        // field count and total prefix widths must match.
        let header = table_header();
        let row = table_row(&sample_result());
        assert!(header.contains("circuit"));
        assert!(header.contains("cov"));
        assert_eq!(
            header.split_whitespace().count(),
            row.split_whitespace().count(),
            "header and row must have the same number of columns"
        );
        // Fixed-width formatting: successive column *end* offsets agree.
        let ends = |s: &str| -> Vec<usize> {
            let mut out = Vec::new();
            let mut in_field = false;
            for (i, c) in s.char_indices() {
                if c != ' ' {
                    in_field = true;
                } else if in_field {
                    out.push(i);
                    in_field = false;
                }
            }
            out.push(s.chars().count());
            out
        };
        // The right-aligned numeric columns (faults, det) must end at the
        // same offsets; the first column is left-padded so its end position
        // varies with the circuit name, and the coverage column's header
        // width accounts for the trailing % sign.
        assert_eq!(ends(&header)[1..3], ends(&row)[1..3]);
    }

    #[test]
    fn telemetry_table_lists_phases_and_rates() {
        let table = telemetry_table(&sample_result());
        let lines: Vec<&str> = table.lines().collect();
        assert!(lines[0].contains("phase"));
        for needle in [
            "1 initialization",
            "2 vector generation",
            "3 stalled",
            "4 sequences",
            "ga generations",
            "evals/sec",
            "events/step",
            "gate evals",
            "restores",
            "restore MB avoided",
            "packed p1 frames",
            "pool tasks",
            "pool idle",
            "wide groups",
            "lanes/group",
            "events amortized",
            "batched frames",
            "csr adjacency",
            "scratch reused",
            "ckpt writes",
            "ckpt bytes",
            "cache hits",
            "cache misses",
            "dedup skips",
            "report records",
            "stop cause",
        ] {
            assert!(table.contains(needle), "missing `{needle}`:\n{table}");
        }
        assert!(!table.contains("prefix frames"), "{table}");
        // Shares sum to ~100%.
        assert!(table.contains("60.0%"), "phase 2 is 300/500 ms:\n{table}");
        // evals/sec = 640 / 0.5s = 1280.
        assert!(table.contains("1280"), "{table}");
        // Alignment: the four phase rows all end their time column at the
        // same offset.
        let time_end = |line: &str| {
            line.char_indices()
                .take_while(|&(_, c)| c != '%')
                .filter(|&(_, c)| c == 's')
                .map(|(i, _)| i)
                .last()
        };
        let offsets: Vec<_> = lines[1..5].iter().map(|l| time_end(l)).collect();
        assert!(offsets.iter().all(|o| *o == offsets[0]), "{offsets:?}");
    }

    #[test]
    fn telemetry_table_hides_wide_counters_for_narrow_runs() {
        // Scalar64 runs (and traces recorded before the width-generic
        // backend) have wide_groups == 0 and must render exactly as before.
        let mut r = sample_result();
        r.telemetry.counters.wide_groups = 0;
        r.telemetry.counters.lanes_per_group = 0;
        r.telemetry.counters.events_amortized = 0;
        r.telemetry.counters.commit_batch_frames = 0;
        r.telemetry.counters.csr_bytes = 0;
        r.telemetry.counters.report_records_streamed = 0;
        let table = telemetry_table(&r);
        assert!(!table.contains("wide groups"), "{table}");
        assert!(!table.contains("lanes/group"), "{table}");
        assert!(!table.contains("events amortized"), "{table}");
        assert!(!table.contains("batched frames"), "{table}");
        assert!(!table.contains("csr adjacency"), "{table}");
        assert!(!table.contains("report records"), "{table}");
    }

    #[test]
    fn span_table_renders_an_indented_tree_with_wall_shares() {
        let r = sample_result();
        let table = span_table(&r.telemetry.spans);
        let lines: Vec<&str> = table.lines().collect();
        assert!(lines[0].contains("span"), "{table}");
        assert!(lines[1].starts_with("run"), "{table}");
        assert!(lines[2].contains("  generation"), "{table}");
        assert!(lines[3].contains("    eval_batch"), "{table}");
        // run is 100% of wall, generation 450/500 = 90%.
        assert!(lines[1].contains("100.0%"), "{table}");
        assert!(lines[2].contains("90.0%"), "{table}");
        // The span section also rides along in the -v telemetry table.
        let full = telemetry_table(&r);
        assert!(full.contains("eval_batch"), "{full}");
        // Empty snapshots render nothing (and the table omits the section).
        assert_eq!(span_table(&SpanSnapshot::default()), "");
    }

    #[test]
    fn result_json_is_deterministic_and_parseable() {
        use gatest_telemetry::json::{parse_json, Json};
        let r = sample_result();
        let a = result_to_json(&r);
        let b = result_to_json(&r);
        assert_eq!(a, b, "canonical serialization");
        let j = parse_json(&a).unwrap();
        assert_eq!(j.get("circuit").and_then(Json::as_str), Some("s27"));
        assert_eq!(j.get("detected").and_then(Json::as_f64), Some(25.0));
        assert_eq!(j.get("stop").and_then(Json::as_str), Some("completed"));
        assert_eq!(
            j.get("score_checksum").and_then(Json::as_f64),
            Some(score_checksum(&r) as f64)
        );
        // Sim-work counters stay out entirely: the fitness cache is
        // process-local, so they are not invariant across kill/resume.
        assert!(j.get("counters").is_none(), "counters must not appear");
        // Nondeterministic quantities stay out of the result JSON.
        for absent in [
            "elapsed",
            "pool_idle",
            "checkpoint_writes",
            "scratch",
            "step_calls",
            "cache_hits",
        ] {
            assert!(!a.contains(absent), "`{absent}` must not leak into {a}");
        }
    }

    #[test]
    fn score_checksum_tracks_the_test_set() {
        let r = sample_result();
        let mut changed = r.clone();
        changed.test_set[0][0] = Logic::Zero;
        assert_ne!(score_checksum(&r), score_checksum(&changed));
        let mut traced = r.clone();
        traced.phase_trace[0] = 2;
        assert_ne!(score_checksum(&r), score_checksum(&traced));
    }
}
