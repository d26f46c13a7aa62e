//! Hand-rolled JSON: event serialization and a minimal parser.
//!
//! The workspace is dependency-free by policy, so traces are serialized with
//! a small formatter and read back (for `gatest trace summarize` and tests)
//! with a minimal recursive-descent parser. Only what JSONL traces need is
//! supported: objects, arrays, strings, finite numbers, booleans, null.

use std::fmt::Write as _;

use crate::event::RunEvent;
use crate::metrics::HistogramSnapshot;
use crate::snapshot::TelemetrySnapshot;
use crate::span::{SpanNode, SpanSnapshot};

/// Serializes one event as a single-line JSON object.
///
/// Every object carries an `"event"` kind tag first, so stream consumers can
/// dispatch without full parsing (`grep '"event":"vector_committed"'`).
pub fn event_to_json(event: &RunEvent) -> String {
    let mut s = String::with_capacity(128);
    let _ = write!(s, "{{\"event\":\"{}\"", event.kind());
    match event {
        RunEvent::RunStarted {
            circuit,
            total_faults,
            seed,
            backend,
            lanes,
        } => {
            let _ = write!(
                s,
                ",\"circuit\":{},\"total_faults\":{total_faults},\"seed\":{seed},\"backend\":{},\"lanes\":{lanes}",
                quote(circuit),
                quote(backend)
            );
        }
        RunEvent::PhaseEntered { phase, vectors } => {
            let _ = write!(s, ",\"phase\":{phase},\"vectors\":{vectors}");
        }
        RunEvent::GaGenerationEvaluated {
            phase,
            generation,
            best,
            mean,
            evaluations,
        } => {
            let _ = write!(
                s,
                ",\"phase\":{phase},\"generation\":{generation},\"best\":{},\"mean\":{},\"evaluations\":{evaluations}",
                num(*best),
                num(*mean)
            );
        }
        RunEvent::VectorCommitted {
            phase,
            vectors,
            detected_new,
            detected_total,
            coverage,
        } => {
            let _ = write!(
                s,
                ",\"phase\":{phase},\"vectors\":{vectors},\"detected_new\":{detected_new},\"detected_total\":{detected_total},\"coverage\":{}",
                num(*coverage)
            );
        }
        RunEvent::FaultDetected {
            fault,
            site,
            vector,
        } => {
            let _ = write!(
                s,
                ",\"fault\":{fault},\"site\":{},\"vector\":{vector}",
                quote(site)
            );
        }
        RunEvent::RunFinished {
            detected,
            total_faults,
            vectors,
            ga_evaluations,
            elapsed_secs,
            budget_exhausted,
            snapshot,
        } => {
            let _ = write!(
                s,
                ",\"detected\":{detected},\"total_faults\":{total_faults},\"vectors\":{vectors},\"ga_evaluations\":{ga_evaluations},\"elapsed_secs\":{},\"budget_exhausted\":{budget_exhausted},{}",
                num(*elapsed_secs),
                snapshot_fields(snapshot)
            );
        }
    }
    s.push('}');
    s
}

fn snapshot_fields(snapshot: &TelemetrySnapshot) -> String {
    let mut s = String::from("\"phase_time_secs\":[");
    for (i, d) in snapshot.phase_time.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{}", num(d.as_secs_f64()));
    }
    let _ = write!(
        s,
        "],\"ga_generations\":{},\"counters\":{{",
        snapshot.ga_generations
    );
    for (i, (name, value)) in snapshot.counters.fields().iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "\"{name}\":{value}");
    }
    let _ = write!(s, "}},\"spans\":{}", spans_to_json(&snapshot.spans));
    s
}

/// Serializes a span-aggregate tree as a JSON array of node objects.
pub fn spans_to_json(spans: &SpanSnapshot) -> String {
    let mut s = String::from("[");
    for (i, node) in spans.nodes.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let parent = match &node.parent {
            Some(p) => quote(p),
            None => String::from("null"),
        };
        let _ = write!(
            s,
            "{{\"kind\":{},\"parent\":{parent},\"count\":{},\"incl_ns\":{},\"excl_ns\":{}}}",
            quote(&node.kind),
            node.count,
            node.incl_ns,
            node.excl_ns
        );
    }
    s.push(']');
    s
}

/// Reads a span-aggregate tree back from the value [`spans_to_json`]
/// produced. Returns `None` when the shape does not match.
pub fn spans_from_json(value: &Json) -> Option<SpanSnapshot> {
    let mut nodes = Vec::new();
    for item in value.as_array()? {
        let parent = match item.get("parent")? {
            Json::Null => None,
            Json::Str(p) => Some(p.clone()),
            _ => return None,
        };
        nodes.push(SpanNode {
            kind: item.get("kind")?.as_str()?.to_owned(),
            parent,
            count: item.get("count")?.as_u64()?,
            incl_ns: item.get("incl_ns")?.as_u64()?,
            excl_ns: item.get("excl_ns")?.as_u64()?,
        });
    }
    Some(SpanSnapshot { nodes })
}

/// Serializes a histogram snapshot as a JSON object with a bucket array of
/// `[inclusive upper bound, count]` pairs.
pub fn histogram_to_json(snapshot: &HistogramSnapshot) -> String {
    let mut s = format!(
        "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[",
        snapshot.count, snapshot.sum, snapshot.min, snapshot.max
    );
    for (i, (bound, n)) in snapshot.buckets.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "[{bound},{n}]");
    }
    s.push_str("]}");
    s
}

/// Reads a histogram snapshot back from the value [`histogram_to_json`]
/// produced. Returns `None` when the shape does not match.
pub fn histogram_from_json(value: &Json) -> Option<HistogramSnapshot> {
    let mut buckets = Vec::new();
    for pair in value.get("buckets")?.as_array()? {
        let pair = pair.as_array()?;
        if pair.len() != 2 {
            return None;
        }
        buckets.push((pair[0].as_u64()?, pair[1].as_u64()?));
    }
    Some(HistogramSnapshot {
        count: value.get("count")?.as_u64()?,
        sum: value.get("sum")?.as_u64()?,
        min: value.get("min")?.as_u64()?,
        max: value.get("max")?.as_u64()?,
        buckets,
    })
}

/// Formats a finite JSON number (non-finite values become 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        String::from("0")
    }
}

/// Quotes and escapes a JSON string.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (stored as `f64`; traces only emit values that fit).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if numeric and integral.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 => Some(*v as u64),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes the value back to compact JSON text.
    ///
    /// Numbers print through Rust's shortest-round-trip `f64` formatting
    /// (non-finite values become `0`, as in the event writer), so
    /// `parse_json(&v.render())` reproduces `v` exactly for any value built
    /// from finite numbers.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => out.push_str(&num(*v)),
            Json::Str(s) => out.push_str(&quote(s)),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&quote(key));
                    out.push(':');
                    value.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Parses one JSON document.
///
/// # Errors
///
/// Returns a message naming the byte offset of the first syntax error.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {}", c as char, *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
        None => Err(String::from("unexpected end of input")),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("invalid number at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(String::from("unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {}", *pos))?;
                        out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 character (multi-byte safe).
                let rest = std::str::from_utf8(&bytes[*pos..])
                    .map_err(|_| format!("invalid UTF-8 at byte {}", *pos))?;
                let c = rest.chars().next().expect("non-empty");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::CounterSnapshot;
    use std::time::Duration;

    fn sample_events() -> Vec<RunEvent> {
        vec![
            RunEvent::RunStarted {
                circuit: String::from("s27\"quoted\""),
                total_faults: 26,
                seed: 42,
                backend: String::from("wide256"),
                lanes: 256,
            },
            RunEvent::PhaseEntered {
                phase: 1,
                vectors: 0,
            },
            RunEvent::GaGenerationEvaluated {
                phase: 2,
                generation: 3,
                best: 1.5,
                mean: 0.75,
                evaluations: 16,
            },
            RunEvent::VectorCommitted {
                phase: 2,
                vectors: 5,
                detected_new: 3,
                detected_total: 12,
                coverage: 12.0 / 26.0,
            },
            RunEvent::FaultDetected {
                fault: 7,
                site: String::from("G10 SA1"),
                vector: 4,
            },
            RunEvent::RunFinished {
                detected: 25,
                total_faults: 26,
                vectors: 9,
                ga_evaluations: 640,
                elapsed_secs: 0.125,
                budget_exhausted: false,
                snapshot: Box::new(TelemetrySnapshot {
                    phase_time: [
                        Duration::from_millis(10),
                        Duration::from_millis(80),
                        Duration::from_millis(5),
                        Duration::from_millis(30),
                    ],
                    ga_generations: 45,
                    counters: CounterSnapshot {
                        step_calls: 700,
                        good_only_calls: 32,
                        gate_evals: 91_000,
                        good_events: 4_400,
                        faulty_events: 18_000,
                        checkpoint_restores: 640,
                        restore_bytes_avoided: 5_242_880,
                        packed_phase1_frames: 22,
                        pool_tasks: 96,
                        pool_idle_ns: 1_250_000,
                        group_tasks: 1_024,
                        group_steal_ns: 730_000,
                        scratch_bytes_reused: 8_388_608,
                        checkpoint_writes: 3,
                        checkpoint_bytes: 45_000,
                        cache_hits: 210,
                        cache_misses: 430,
                        dedup_skips: 37,
                        prefix_frames_avoided: 1_900,
                        wide_groups: 12,
                        lanes_per_group: 256,
                        events_amortized: 5_600,
                        commit_batch_frames: 24,
                        csr_bytes: 96_000,
                        report_records_streamed: 9,
                    },
                    spans: SpanSnapshot {
                        nodes: vec![
                            SpanNode {
                                kind: String::from("run"),
                                parent: None,
                                count: 1,
                                incl_ns: 125_000_000,
                                excl_ns: 5_000_000,
                            },
                            SpanNode {
                                kind: String::from("generation"),
                                parent: Some(String::from("run")),
                                count: 45,
                                incl_ns: 110_000_000,
                                excl_ns: 9_000_000,
                            },
                        ],
                    },
                }),
            },
        ]
    }

    #[test]
    fn every_event_kind_round_trips_to_parseable_json() {
        let events = sample_events();
        assert_eq!(events.len(), RunEvent::KINDS.len());
        for event in &events {
            let line = event_to_json(event);
            let parsed = parse_json(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(
                parsed.get("event").and_then(Json::as_str),
                Some(event.kind()),
                "kind tag must lead the object"
            );
        }
    }

    #[test]
    fn run_started_fields_survive() {
        let line = event_to_json(&sample_events()[0]);
        let j = parse_json(&line).unwrap();
        assert_eq!(
            j.get("circuit").and_then(Json::as_str),
            Some("s27\"quoted\"")
        );
        assert_eq!(j.get("total_faults").and_then(Json::as_u64), Some(26));
        assert_eq!(j.get("seed").and_then(Json::as_u64), Some(42));
        assert_eq!(j.get("backend").and_then(Json::as_str), Some("wide256"));
        assert_eq!(j.get("lanes").and_then(Json::as_u64), Some(256));
    }

    #[test]
    fn ga_generation_fields_survive() {
        let line = event_to_json(&sample_events()[2]);
        let j = parse_json(&line).unwrap();
        assert_eq!(j.get("generation").and_then(Json::as_u64), Some(3));
        assert_eq!(j.get("best").and_then(Json::as_f64), Some(1.5));
        assert_eq!(j.get("mean").and_then(Json::as_f64), Some(0.75));
        assert_eq!(j.get("evaluations").and_then(Json::as_u64), Some(16));
    }

    #[test]
    fn run_finished_snapshot_survives() {
        let line = event_to_json(&sample_events()[5]);
        let j = parse_json(&line).unwrap();
        assert_eq!(j.get("detected").and_then(Json::as_u64), Some(25));
        let times = j.get("phase_time_secs").and_then(Json::as_array).unwrap();
        assert_eq!(times.len(), 4);
        assert!((times[1].as_f64().unwrap() - 0.08).abs() < 1e-9);
        let counters = j.get("counters").unwrap();
        assert_eq!(
            counters.get("gate_evals").and_then(Json::as_u64),
            Some(91_000)
        );
        assert_eq!(
            counters.get("checkpoint_restores").and_then(Json::as_u64),
            Some(640)
        );
        assert_eq!(
            counters.get("restore_bytes_avoided").and_then(Json::as_u64),
            Some(5_242_880)
        );
        assert_eq!(
            counters.get("packed_phase1_frames").and_then(Json::as_u64),
            Some(22)
        );
        assert_eq!(counters.get("pool_tasks").and_then(Json::as_u64), Some(96));
        assert_eq!(
            counters.get("pool_idle_ns").and_then(Json::as_u64),
            Some(1_250_000)
        );
        assert_eq!(
            counters.get("group_tasks").and_then(Json::as_u64),
            Some(1_024)
        );
        assert_eq!(
            counters.get("group_steal_ns").and_then(Json::as_u64),
            Some(730_000)
        );
        assert_eq!(
            counters.get("scratch_bytes_reused").and_then(Json::as_u64),
            Some(8_388_608)
        );
        assert_eq!(
            counters.get("checkpoint_writes").and_then(Json::as_u64),
            Some(3)
        );
        assert_eq!(
            counters.get("checkpoint_bytes").and_then(Json::as_u64),
            Some(45_000)
        );
        assert_eq!(counters.get("cache_hits").and_then(Json::as_u64), Some(210));
        assert_eq!(
            counters.get("cache_misses").and_then(Json::as_u64),
            Some(430)
        );
        assert_eq!(counters.get("dedup_skips").and_then(Json::as_u64), Some(37));
        assert_eq!(
            counters.get("prefix_frames_avoided").and_then(Json::as_u64),
            Some(1_900)
        );
        let spans = spans_from_json(j.get("spans").unwrap()).unwrap();
        assert_eq!(spans.nodes.len(), 2);
        assert_eq!(spans.get("run", None).unwrap().incl_ns, 125_000_000);
        assert_eq!(spans.get("generation", Some("run")).unwrap().count, 45);
    }

    #[test]
    fn span_snapshots_round_trip() {
        let snapshot = SpanSnapshot {
            nodes: vec![SpanNode {
                kind: String::from("eval_batch"),
                parent: Some(String::from("generation")),
                count: 7,
                incl_ns: 1_234,
                excl_ns: 1_000,
            }],
        };
        let parsed = parse_json(&spans_to_json(&snapshot)).unwrap();
        assert_eq!(spans_from_json(&parsed), Some(snapshot));
        assert_eq!(
            spans_from_json(&parse_json("[]").unwrap()),
            Some(SpanSnapshot::default())
        );
        assert_eq!(spans_from_json(&Json::Null), None);
    }

    #[test]
    fn histogram_snapshots_round_trip() {
        let snapshot = HistogramSnapshot {
            count: 3,
            sum: 1_006,
            min: 3,
            max: 1_000,
            buckets: vec![(3, 2), (1_023, 1)],
        };
        let parsed = parse_json(&histogram_to_json(&snapshot)).unwrap();
        assert_eq!(histogram_from_json(&parsed), Some(snapshot));
        assert_eq!(
            histogram_from_json(&parse_json("{\"count\":0}").unwrap()),
            None
        );
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        assert!(parse_json("{\"a\":").is_err());
        assert!(parse_json("{\"a\":1,}").is_err());
        assert!(parse_json("[1 2]").is_err());
        assert!(parse_json("\"open").is_err());
        assert!(parse_json("{} trailing").is_err());
    }

    #[test]
    fn parser_handles_nesting_and_escapes() {
        let j =
            parse_json("{\"a\":[1,2.5,{\"b\":\"x\\n\\u0041\"}],\"c\":null,\"d\":true}").unwrap();
        let arr = j.get("a").and_then(Json::as_array).unwrap();
        assert_eq!(arr[1].as_f64(), Some(2.5));
        assert_eq!(arr[2].get("b").and_then(Json::as_str), Some("x\nA"));
        assert_eq!(j.get("c"), Some(&Json::Null));
        assert_eq!(j.get("d"), Some(&Json::Bool(true)));
    }

    #[test]
    fn non_finite_numbers_serialize_as_zero() {
        let line = event_to_json(&RunEvent::VectorCommitted {
            phase: 2,
            vectors: 1,
            detected_new: 0,
            detected_total: 0,
            coverage: f64::NAN,
        });
        let j = parse_json(&line).unwrap();
        assert_eq!(j.get("coverage").and_then(Json::as_f64), Some(0.0));
    }
}
