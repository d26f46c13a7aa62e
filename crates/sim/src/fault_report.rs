//! Fault reports: the per-fault detection status of a grading run — the
//! hand-off artifact between a test-generation campaign and the next tool
//! in a flow (a second ATPG pass, diagnosis, coverage sign-off).
//!
//! Two formats live here:
//!
//! * a **textual** whole-list report ([`write_fault_report`] /
//!   [`parse_fault_report`]) that survives a round trip and diffs cleanly;
//! * a **streaming JSONL** detection log ([`FaultReportWriter`]) that a
//!   run appends to as detections commit — one record per detected fault,
//!   a summary line last, written through a temp file and atomically
//!   renamed on finalize — so a 500k-gate run never accumulates an
//!   in-memory detected-fault list just to report it.
//!
//! ```text
//! # circuit s27: 25/26 detected
//! G0/SA1        detected 3
//! G8.in0/SA0    undetected
//! ```
//!
//! Fault names follow the simulated list's model ([`FaultList::display`]):
//! a transition list's report names `G11/STR` and `G11/STF`.

use std::error::Error;
use std::fmt;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use gatest_netlist::Circuit;
use gatest_telemetry::json::{parse_json, quote};
use gatest_telemetry::SimCounters;

use crate::fault::{Fault, FaultId, FaultList, FaultSite, FaultStatus};
use crate::fsim::FaultSim;
use crate::value::Logic;

/// Error from [`parse_fault_report`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseFaultReportError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What was wrong.
    pub message: String,
}

impl fmt::Display for ParseFaultReportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fault report line {}: {}", self.line, self.message)
    }
}

impl Error for ParseFaultReportError {}

/// Serializes a simulator's per-fault status as a report.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use gatest_sim::fault_report::write_fault_report;
/// use gatest_sim::{FaultSim, Logic};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let circuit = Arc::new(gatest_netlist::benchmarks::iscas89("s27")?);
/// let mut sim = FaultSim::new(Arc::clone(&circuit));
/// sim.step(&[Logic::One, Logic::One, Logic::Zero, Logic::Zero]);
/// let report = write_fault_report(&circuit, &sim);
/// assert!(report.contains("detected"));
/// # Ok(())
/// # }
/// ```
pub fn write_fault_report(circuit: &Circuit, sim: &FaultSim) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# circuit {}: {}/{} detected",
        circuit.name(),
        sim.detected_count(),
        sim.fault_list().len()
    );
    let faults = sim.fault_list();
    for (id, _) in faults.iter() {
        let name = faults.display(id, circuit).to_string();
        match sim.status(id) {
            FaultStatus::Detected { vector } => {
                let _ = writeln!(out, "{name:<28} detected {vector}");
            }
            FaultStatus::Undetected => {
                let _ = writeln!(out, "{name:<28} undetected");
            }
        }
    }
    out
}

/// Parses a report written by [`write_fault_report`] back into
/// `(fault, status)` pairs, resolving net names against `circuit`. A
/// transition fault parses as the stuck-at fault it forces in its launch
/// frames (`STR` as stuck-at-0, `STF` as stuck-at-1), which is how
/// [`FaultList::transition`] lists it.
///
/// # Errors
///
/// Returns [`ParseFaultReportError`] on malformed lines or unknown nets.
pub fn parse_fault_report(
    circuit: &Circuit,
    text: &str,
) -> Result<Vec<(Fault, FaultStatus)>, ParseFaultReportError> {
    let mut out = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let err = |message: String| ParseFaultReportError { line, message };

        let mut parts = trimmed.split_whitespace();
        let name = parts.next().ok_or_else(|| err("empty line".into()))?;
        let status_word = parts.next().ok_or_else(|| err("missing status".into()))?;
        let status = match status_word {
            "undetected" => FaultStatus::Undetected,
            "detected" => {
                let vector = parts
                    .next()
                    .ok_or_else(|| err("`detected` needs a vector index".into()))?
                    .parse()
                    .map_err(|_| err("bad vector index".into()))?;
                FaultStatus::Detected { vector }
            }
            other => return Err(err(format!("unknown status `{other}`"))),
        };

        // `NET/SA0`, `NET.inPIN/SA1`, or `NET/STR` and `NET/STF`.
        let (site_str, sa) = name
            .rsplit_once('/')
            .ok_or_else(|| err(format!("`{name}` is not NET/SAx")))?;
        let stuck = match sa {
            "SA0" | "STR" => Logic::Zero,
            "SA1" | "STF" => Logic::One,
            other => return Err(err(format!("unknown polarity `{other}`"))),
        };
        let site = match site_str.rsplit_once(".in") {
            Some((gate_name, pin_str)) if pin_str.chars().all(|c| c.is_ascii_digit()) => {
                let gate = circuit
                    .find_net(gate_name)
                    .ok_or_else(|| err(format!("unknown net `{gate_name}`")))?;
                let pin = pin_str.parse().map_err(|_| err("bad pin number".into()))?;
                FaultSite::Branch { gate, pin }
            }
            _ => {
                let net = circuit
                    .find_net(site_str)
                    .ok_or_else(|| err(format!("unknown net `{site_str}`")))?;
                FaultSite::Stem(net)
            }
        };
        out.push((Fault { site, stuck }, status));
    }
    Ok(out)
}

/// One streamed detection record, as parsed back by
/// [`parse_fault_report_stream`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamRecord {
    /// Global fault id.
    pub fault: u32,
    /// `NET/SAx` site name (the textual report's fault name).
    pub site: String,
    /// 0-based index of the committed vector that detected the fault.
    pub vector: u32,
    /// GA phase (1..=4) the detecting vector was committed in.
    pub phase: u32,
}

/// The summary line closing a streamed fault report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamSummary {
    /// Circuit name.
    pub circuit: String,
    /// Faults detected by the run.
    pub detected: u64,
    /// Collapsed fault-list size.
    pub total: u64,
    /// Detection records streamed before the summary.
    pub records: u64,
}

/// Streams detected faults to a JSONL file as they commit.
///
/// Records are appended through a buffered temp file (`<path>.tmp`);
/// [`FaultReportWriter::finalize`] writes the summary line, flushes,
/// fsyncs, and atomically renames onto the target path — a crash mid-run
/// never leaves a truncated file at `<path>`. Each record costs one small
/// write; nothing is retained in memory, which is the point: the
/// monolithic in-memory detected-fault `Vec` this replaces grows with the
/// fault list, the stream does not.
#[derive(Debug)]
pub struct FaultReportWriter {
    path: PathBuf,
    tmp: PathBuf,
    out: BufWriter<File>,
    records: u64,
    counters: Option<Arc<SimCounters>>,
}

impl FaultReportWriter {
    /// Creates the writer, truncating any stale temp file at `<path>.tmp`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the temp file cannot be created.
    pub fn create(path: &Path, counters: Option<Arc<SimCounters>>) -> io::Result<Self> {
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        let out = BufWriter::new(File::create(&tmp)?);
        Ok(FaultReportWriter {
            path: path.to_path_buf(),
            tmp,
            out,
            records: 0,
            counters,
        })
    }

    /// Streams one detection record.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the write fails.
    pub fn record(
        &mut self,
        fault: FaultId,
        site: &str,
        vector: u32,
        phase: u32,
    ) -> io::Result<()> {
        writeln!(
            self.out,
            "{{\"fault\":{},\"site\":{},\"vector\":{},\"phase\":{}}}",
            fault.0,
            quote(site),
            vector,
            phase
        )?;
        self.records += 1;
        if let Some(counters) = &self.counters {
            counters.record_report_records(1);
        }
        Ok(())
    }

    /// Streams every newly detected fault of one committed step report,
    /// resolving site names against `circuit`/`faults`.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error encountered.
    pub fn record_step(
        &mut self,
        circuit: &Circuit,
        faults: &FaultList,
        newly_detected: &[FaultId],
        vector: u32,
        phase: u32,
    ) -> io::Result<()> {
        for &f in newly_detected {
            let site = faults.display(f, circuit).to_string();
            self.record(f, &site, vector, phase)?;
        }
        Ok(())
    }

    /// Records streamed so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The target path the finalized report will land at.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Writes the summary line, flushes + fsyncs the temp file, and
    /// atomically renames it onto the target path.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if any step fails (the temp file is left
    /// behind for inspection).
    pub fn finalize(mut self, circuit: &str, detected: u64, total: u64) -> io::Result<PathBuf> {
        writeln!(
            self.out,
            "{{\"summary\":{{\"circuit\":{},\"detected\":{},\"total\":{},\"records\":{}}}}}",
            quote(circuit),
            detected,
            total,
            self.records
        )?;
        self.out.flush()?;
        self.out.get_ref().sync_all()?;
        std::fs::rename(&self.tmp, &self.path)?;
        Ok(self.path)
    }
}

/// Parses a finalized stream written by [`FaultReportWriter`] back into
/// its records and summary (the CI replay check uses this to compare the
/// stream against the in-memory result).
///
/// # Errors
///
/// Returns a description of the first malformed line, a missing summary,
/// or a record/summary count mismatch.
pub fn parse_fault_report_stream(text: &str) -> Result<(Vec<StreamRecord>, StreamSummary), String> {
    let mut records = Vec::new();
    let mut summary = None;
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if summary.is_some() {
            return Err(format!("line {}: content after summary", idx + 1));
        }
        let value = parse_json(line).map_err(|e| format!("line {}: {e}", idx + 1))?;
        if let Some(s) = value.get("summary") {
            let field = |key: &str| {
                s.get(key)
                    .and_then(|v| v.as_u64())
                    .ok_or_else(|| format!("line {}: summary missing `{key}`", idx + 1))
            };
            summary = Some(StreamSummary {
                circuit: s
                    .get("circuit")
                    .and_then(|v| v.as_str())
                    .ok_or_else(|| format!("line {}: summary missing `circuit`", idx + 1))?
                    .to_string(),
                detected: field("detected")?,
                total: field("total")?,
                records: field("records")?,
            });
            continue;
        }
        let field = |key: &str| {
            value
                .get(key)
                .and_then(|v| v.as_u64())
                .ok_or_else(|| format!("line {}: record missing `{key}`", idx + 1))
        };
        records.push(StreamRecord {
            fault: field("fault")? as u32,
            site: value
                .get("site")
                .and_then(|v| v.as_str())
                .ok_or_else(|| format!("line {}: record missing `site`", idx + 1))?
                .to_string(),
            vector: field("vector")? as u32,
            phase: field("phase")? as u32,
        });
    }
    let summary = summary.ok_or("missing summary line")?;
    if summary.records != records.len() as u64 {
        return Err(format!(
            "summary says {} records, stream has {}",
            summary.records,
            records.len()
        ));
    }
    Ok((records, summary))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn graded_sim() -> (Arc<Circuit>, FaultSim) {
        let circuit = Arc::new(gatest_netlist::benchmarks::iscas89("s27").unwrap());
        let mut sim = FaultSim::new(Arc::clone(&circuit));
        let mut rng = crate::tests_support::Rng::new(4);
        for _ in 0..24 {
            let v: Vec<Logic> = (0..4).map(|_| Logic::from_bool(rng.coin())).collect();
            sim.step(&v);
        }
        (circuit, sim)
    }

    #[test]
    fn report_round_trips() {
        let (circuit, sim) = graded_sim();
        let text = write_fault_report(&circuit, &sim);
        let parsed = parse_fault_report(&circuit, &text).unwrap();
        assert_eq!(parsed.len(), sim.fault_list().len());
        for ((fault, status), (id, original)) in parsed.iter().zip(sim.fault_list().iter()) {
            assert_eq!(*fault, original);
            assert_eq!(*status, sim.status(id));
        }
    }

    #[test]
    fn transition_report_round_trips() {
        let circuit = Arc::new(gatest_netlist::benchmarks::iscas89("s27").unwrap());
        let mut sim = FaultSim::with_faults(Arc::clone(&circuit), FaultList::transition(&circuit));
        let mut rng = crate::tests_support::Rng::new(4);
        for _ in 0..24 {
            let v: Vec<Logic> = (0..4).map(|_| Logic::from_bool(rng.coin())).collect();
            sim.step(&v);
        }
        let text = write_fault_report(&circuit, &sim);
        assert!(text.contains("G0/STR") && text.contains("G0/STF"), "{text}");
        assert!(!text.contains("/SA"), "{text}");
        let parsed = parse_fault_report(&circuit, &text).unwrap();
        assert_eq!(parsed.len(), sim.fault_list().len());
        for ((fault, status), (id, original)) in parsed.iter().zip(sim.fault_list().iter()) {
            assert_eq!(*fault, original);
            assert_eq!(*status, sim.status(id));
        }
    }

    #[test]
    fn header_summarizes_coverage() {
        let (circuit, sim) = graded_sim();
        let text = write_fault_report(&circuit, &sim);
        assert!(text.starts_with(&format!(
            "# circuit s27: {}/{} detected",
            sim.detected_count(),
            sim.fault_list().len()
        )));
    }

    #[test]
    fn rejects_unknown_nets_and_garbage() {
        let circuit = gatest_netlist::benchmarks::iscas89("s27").unwrap();
        assert!(parse_fault_report(&circuit, "GHOST/SA0 undetected\n").is_err());
        assert!(parse_fault_report(&circuit, "G0/SA2 undetected\n").is_err());
        assert!(parse_fault_report(&circuit, "G0/SA0 maybe\n").is_err());
        assert!(parse_fault_report(&circuit, "G0/SA0 detected\n").is_err());
        let e = parse_fault_report(&circuit, "# fine\nnonsense\n").unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn stream_round_trips_and_finalizes_atomically() {
        let (circuit, sim) = graded_sim();
        let dir = std::env::temp_dir().join(format!("gatest-frs-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.jsonl");
        let mut writer = FaultReportWriter::create(&path, None).unwrap();
        let mut expected = Vec::new();
        for (id, fault) in sim.fault_list().iter() {
            if let FaultStatus::Detected { vector } = sim.status(id) {
                let site = fault.display(&circuit).to_string();
                writer.record(id, &site, vector, 2).unwrap();
                expected.push((id.0, site, vector));
            }
        }
        // Nothing at the target path until finalize.
        assert!(!path.exists(), "finalize must be atomic");
        let detected = sim.detected_count() as u64;
        let total = sim.fault_list().len() as u64;
        assert_eq!(writer.records(), detected);
        writer.finalize("s27", detected, total).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let (records, summary) = parse_fault_report_stream(&text).unwrap();
        assert_eq!(summary.circuit, "s27");
        assert_eq!(summary.detected, detected);
        assert_eq!(summary.total, total);
        assert_eq!(records.len(), expected.len());
        for (rec, (fault, site, vector)) in records.iter().zip(&expected) {
            assert_eq!(rec.fault, *fault);
            assert_eq!(&rec.site, site);
            assert_eq!(rec.vector, *vector);
            assert_eq!(rec.phase, 2);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stream_parser_rejects_malformed_input() {
        assert!(parse_fault_report_stream("").is_err(), "missing summary");
        assert!(parse_fault_report_stream("{\"fault\":1}\n").is_err());
        let bad_count = "{\"fault\":1,\"site\":\"G0/SA0\",\"vector\":0,\"phase\":2}\n\
                         {\"summary\":{\"circuit\":\"x\",\"detected\":1,\"total\":2,\"records\":5}}\n";
        assert!(parse_fault_report_stream(bad_count).is_err());
        let after_summary =
            "{\"summary\":{\"circuit\":\"x\",\"detected\":0,\"total\":2,\"records\":0}}\n\
                             {\"fault\":1,\"site\":\"G0/SA0\",\"vector\":0,\"phase\":2}\n";
        assert!(parse_fault_report_stream(after_summary).is_err());
    }

    #[test]
    fn branch_faults_round_trip() {
        let circuit = gatest_netlist::benchmarks::iscas89("s27").unwrap();
        let text = "G8.in0/SA1 detected 7\n";
        let parsed = parse_fault_report(&circuit, text).unwrap();
        assert_eq!(parsed.len(), 1);
        assert!(matches!(parsed[0].0.site, FaultSite::Branch { pin: 0, .. }));
        assert_eq!(parsed[0].1, FaultStatus::Detected { vector: 7 });
    }
}
