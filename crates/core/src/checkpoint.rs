//! Versioned, atomically-written run checkpoints.
//!
//! A [`RunSnapshot`] captures everything a [`TestGenerator`] run needs to
//! continue bit-identically in a fresh process: the machine position inside
//! Figure 1/Figure 2's flow, the master and per-invocation GA RNG states,
//! the in-flight GA population, the fault simulator's complete mutable
//! state, the accumulated test set, and the telemetry counters. A run
//! interrupted at any generation boundary and resumed from its checkpoint
//! produces exactly the same test set, coverage, and deterministic counters
//! as the uninterrupted run with the same seed.
//!
//! # File format
//!
//! A checkpoint file is a flat little-endian binary stream:
//!
//! ```text
//! magic   8 bytes   b"GATESTCP"
//! version u32       format version (currently 6)
//! payload ...       length-prefixed fields in a fixed order
//! crc     u64       FNV-1a 64 over magic + version + payload
//! ```
//!
//! Strings and vectors are `u64` length-prefixed; `f64` values are stored
//! as their IEEE-754 bit patterns so round-trips are exact. Decoding
//! rejects a bad magic, an unknown version, truncation, and checksum
//! mismatches with distinct [`CheckpointError`] variants.
//!
//! # Atomic writes
//!
//! [`RunSnapshot::save`] writes to a sibling `<name>.tmp` file, fsyncs it,
//! renames it over the destination, and then best-effort fsyncs the parent
//! directory — so a crash mid-write leaves either the previous checkpoint
//! or the new one, never a torn file.
//!
//! [`TestGenerator`]: crate::TestGenerator

use std::fmt;
use std::io::Write;
use std::path::Path;

use gatest_sim::{FaultStatus, Logic, SimState};
use gatest_telemetry::CounterSnapshot;

use crate::config::{FaultSample, GatestConfig};

/// File magic: the first eight bytes of every checkpoint file.
pub const MAGIC: [u8; 8] = *b"GATESTCP";
/// Current checkpoint format version. Version 2 added the evaluation epoch
/// (the fitness cache's invalidation key) and the memoization counters;
/// version 3 added the wide-backend counters (`wide_groups`,
/// `lanes_per_group`); version 4 stored the simulator state as a vector of
/// per-shard [`SimState`]s; version 5 stores exactly one [`SimState`] and
/// drops the two shard counters; version 6 drops the two fault-group pool
/// counters (`group_tasks`, `group_steal_ns`), leaving 23. Older files are
/// rejected with [`CheckpointError::VersionMismatch`]. Note that the
/// simulation backend is not stored: like the worker count, it is an
/// execution detail that cannot change results, so a run may resume under
/// a different `--sim-width` than it was checkpointed with.
pub const VERSION: u32 = 6;

/// A complete, serializable snapshot of an in-progress (or finished)
/// generator run. Produced by the generator's checkpoint cadence or its
/// graceful-stop path; consumed by [`TestGenerator::resume`].
///
/// [`TestGenerator::resume`]: crate::TestGenerator::resume
#[derive(Debug, Clone, PartialEq)]
pub struct RunSnapshot {
    /// Circuit name the run targets; resume verifies it matches.
    pub circuit: String,
    /// Master seed of the run.
    pub seed: u64,
    /// Fault-sampling mode, stored so a resuming CLI can rebuild the
    /// configuration without the original flags.
    pub fault_sample: FaultSample,
    /// Digest of every determinism-relevant configuration field (see
    /// [`config_digest`]); resume refuses a mismatched configuration.
    pub config_digest: u64,
    /// Faults in the target list; resume verifies it matches.
    pub total_faults: u64,
    /// Master RNG (xoshiro256**) state.
    pub master_rng: [u64; 4],
    /// Vectors committed so far.
    pub test_set: Vec<Vec<Logic>>,
    /// Vectors committed per phase.
    pub phase_vectors: [u64; 4],
    /// Phase (1–4) of each committed vector.
    pub phase_trace: Vec<u8>,
    /// Cumulative GA fitness evaluations.
    pub ga_evaluations: u64,
    /// Sequence-generation attempts so far.
    pub sequence_attempts: u64,
    /// Cumulative wall-clock nanoseconds spent in each phase.
    pub phase_time_ns: [u64; 4],
    /// Cumulative GA generations evaluated.
    pub ga_generations: u64,
    /// Cumulative wall-clock nanoseconds across all prior legs.
    pub elapsed_ns: u64,
    /// GA invocations started so far — the fitness cache's epoch key. Stored
    /// so a resumed run numbers later invocations exactly like the
    /// uninterrupted run would.
    pub eval_epoch: u64,
    /// Where in the flow the run stopped.
    pub pos: SnapshotPos,
    /// The fault simulator's complete mutable state at the stop point (for
    /// a stop mid-GA-invocation: the state at the invocation's start).
    pub sim: SimState,
    /// Telemetry counter totals at the stop point.
    pub counters: CounterSnapshot,
}

/// The machine position inside the generator flow.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotPos {
    /// Phases 1–3: evolving individual vectors.
    Vectors {
        /// Current phase number (1–3).
        phase: u8,
        /// Consecutive non-contributing vectors (phase-3 counter).
        noncontributing: u64,
        /// Best known-flip-flop count reached in phase 1.
        best_known_ffs: u64,
        /// Consecutive phase-1 vectors without initialization progress.
        init_stall: u64,
        /// The in-flight GA invocation, if stopped mid-invocation.
        ga: Option<GaSnapshot>,
    },
    /// Phase 4: evolving whole sequences.
    Sequences {
        /// Index into the configured sequence-length schedule.
        len_idx: u64,
        /// Consecutive failed attempts at the current length.
        failures: u64,
        /// The in-flight GA invocation, if stopped mid-invocation.
        ga: Option<GaSnapshot>,
    },
    /// The flow has finished.
    Done,
}

/// One in-flight GA invocation: the fault sample it evaluates against, its
/// forked RNG, and the full evolutionary state.
#[derive(Debug, Clone, PartialEq)]
pub struct GaSnapshot {
    /// Fault ids of the fitness sample.
    pub sample: Vec<u32>,
    /// The invocation's forked RNG state.
    pub rng: [u64; 4],
    /// Generations evolved so far in this invocation.
    pub generation: u64,
    /// Fitness evaluations so far in this invocation.
    pub evaluations: u64,
    /// The current population, each member evaluated.
    pub population: Vec<SnapshotIndividual>,
    /// Best individual seen so far.
    pub best: SnapshotIndividual,
    /// Best fitness per generation.
    pub best_history: Vec<f64>,
    /// Mean fitness per generation.
    pub mean_history: Vec<f64>,
    /// Population diversity per generation.
    pub diversity_history: Vec<f64>,
}

/// One evaluated individual: chromosome bits plus fitness.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotIndividual {
    /// The chromosome's bits.
    pub bits: Vec<bool>,
    /// Its fitness.
    pub fitness: f64,
}

/// Why a checkpoint file could not be loaded.
#[derive(Debug)]
pub enum CheckpointError {
    /// The file could not be read or written.
    Io(std::io::Error),
    /// The file does not start with the `GATESTCP` magic — it is not a
    /// checkpoint file.
    BadMagic,
    /// The file's format version is not the one this build understands.
    VersionMismatch {
        /// Version found in the file.
        found: u32,
    },
    /// The file ends in the middle of the named field.
    Truncated(&'static str),
    /// A field holds an impossible value, or the checksum does not match.
    Corrupt(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::BadMagic => {
                write!(f, "not a GATEST checkpoint file (bad magic)")
            }
            CheckpointError::VersionMismatch { found } => write!(
                f,
                "checkpoint format version {found} is not supported (this build reads version {VERSION})"
            ),
            CheckpointError::Truncated(field) => {
                write!(f, "checkpoint file is truncated (while reading {field})")
            }
            CheckpointError::Corrupt(why) => write!(f, "checkpoint file is corrupt: {why}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// FNV-1a 64 over `bytes`, seeded by `hash` (use [`FNV_OFFSET`] to start).
pub(crate) fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// FNV-1a 64 offset basis.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest of every configuration field that influences the search path
/// (everything except the seed — stored separately — and the runtime-only
/// knobs `parallel_workers`, `sim_width`, the two budget
/// limits, and the memoization knobs `eval_cache_entries` /
/// `dedup` / `paranoid_cache`, which are all bit-identity-neutral). Resume
/// compares this digest so a checkpoint is never silently continued under
/// a different configuration.
pub fn config_digest(config: &GatestConfig) -> u64 {
    let canon = format!(
        "{:?}|{:?}|{}|{}|{}|{}|{}|{}|{:?}|{:?}|{:?}|{}|{:?}|{}|{}",
        config.selection,
        config.crossover,
        config.crossover_probability,
        config.generations,
        config.vector_population,
        config.vector_mutation,
        config.sequence_population,
        config.sequence_mutation,
        config.coding,
        config.generation_gap,
        config.fault_sample,
        config.progress_limit_multiplier,
        config.sequence_length_multipliers,
        config.max_sequence_failures,
        config.max_vectors,
    );
    fnv1a(FNV_OFFSET, canon.as_bytes())
}

// ---------------------------------------------------------------------------
// Encoding

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }
    fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
    fn f64s(&mut self, v: &[f64]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.f64(x);
        }
    }
    fn logic(&mut self, v: Logic) {
        self.u8(match v {
            Logic::Zero => 0,
            Logic::One => 1,
            Logic::X => 2,
        });
    }
    fn logics(&mut self, v: &[Logic]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.logic(x);
        }
    }
    fn individual(&mut self, ind: &SnapshotIndividual) {
        self.u64(ind.bits.len() as u64);
        for &b in &ind.bits {
            self.u8(b as u8);
        }
        self.f64(ind.fitness);
    }
    fn ga(&mut self, ga: &Option<GaSnapshot>) {
        match ga {
            None => self.u8(0),
            Some(ga) => {
                self.u8(1);
                self.u64(ga.sample.len() as u64);
                for &id in &ga.sample {
                    self.u32(id);
                }
                for &w in &ga.rng {
                    self.u64(w);
                }
                self.u64(ga.generation);
                self.u64(ga.evaluations);
                self.u64(ga.population.len() as u64);
                for ind in &ga.population {
                    self.individual(ind);
                }
                self.individual(&ga.best);
                self.f64s(&ga.best_history);
                self.f64s(&ga.mean_history);
                self.f64s(&ga.diversity_history);
            }
        }
    }
}

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize, field: &'static str) -> Result<&'a [u8], CheckpointError> {
        if self.buf.len() - self.pos < n {
            return Err(CheckpointError::Truncated(field));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self, field: &'static str) -> Result<u8, CheckpointError> {
        Ok(self.take(1, field)?[0])
    }
    fn u32(&mut self, field: &'static str) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4, field)?.try_into().unwrap()))
    }
    fn u64(&mut self, field: &'static str) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8, field)?.try_into().unwrap()))
    }
    fn f64(&mut self, field: &'static str) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.u64(field)?))
    }
    /// A length prefix, sanity-capped so corrupt lengths fail cleanly
    /// instead of attempting enormous allocations.
    fn len(&mut self, field: &'static str) -> Result<usize, CheckpointError> {
        let n = self.u64(field)?;
        let remaining = (self.buf.len() - self.pos) as u64;
        if n > remaining {
            return Err(CheckpointError::Corrupt(format!(
                "{field} length {n} exceeds remaining {remaining} bytes"
            )));
        }
        Ok(n as usize)
    }
    fn str(&mut self, field: &'static str) -> Result<String, CheckpointError> {
        let n = self.len(field)?;
        String::from_utf8(self.take(n, field)?.to_vec())
            .map_err(|_| CheckpointError::Corrupt(format!("{field} is not UTF-8")))
    }
    fn f64s(&mut self, field: &'static str) -> Result<Vec<f64>, CheckpointError> {
        let n = self.len(field)?;
        (0..n).map(|_| self.f64(field)).collect()
    }
    fn logic(&mut self, field: &'static str) -> Result<Logic, CheckpointError> {
        match self.u8(field)? {
            0 => Ok(Logic::Zero),
            1 => Ok(Logic::One),
            2 => Ok(Logic::X),
            v => Err(CheckpointError::Corrupt(format!(
                "{field} holds invalid logic value {v}"
            ))),
        }
    }
    fn logics(&mut self, field: &'static str) -> Result<Vec<Logic>, CheckpointError> {
        let n = self.len(field)?;
        (0..n).map(|_| self.logic(field)).collect()
    }
    fn individual(&mut self, field: &'static str) -> Result<SnapshotIndividual, CheckpointError> {
        let n = self.len(field)?;
        let bits = (0..n)
            .map(|_| Ok(self.u8(field)? != 0))
            .collect::<Result<Vec<bool>, CheckpointError>>()?;
        let fitness = self.f64(field)?;
        Ok(SnapshotIndividual { bits, fitness })
    }
    fn ga(&mut self, field: &'static str) -> Result<Option<GaSnapshot>, CheckpointError> {
        match self.u8(field)? {
            0 => Ok(None),
            1 => {
                let n = self.len(field)?;
                let sample = (0..n)
                    .map(|_| self.u32(field))
                    .collect::<Result<Vec<u32>, _>>()?;
                let mut rng = [0u64; 4];
                for w in &mut rng {
                    *w = self.u64(field)?;
                }
                let generation = self.u64(field)?;
                let evaluations = self.u64(field)?;
                let n = self.len(field)?;
                let population = (0..n)
                    .map(|_| self.individual(field))
                    .collect::<Result<Vec<_>, _>>()?;
                let best = self.individual(field)?;
                Ok(Some(GaSnapshot {
                    sample,
                    rng,
                    generation,
                    evaluations,
                    population,
                    best,
                    best_history: self.f64s(field)?,
                    mean_history: self.f64s(field)?,
                    diversity_history: self.f64s(field)?,
                }))
            }
            v => Err(CheckpointError::Corrupt(format!(
                "{field} holds invalid GA-present tag {v}"
            ))),
        }
    }
}

impl RunSnapshot {
    /// Serializes to the versioned binary format described at the module
    /// level, checksum included.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc { buf: Vec::new() };
        e.buf.extend_from_slice(&MAGIC);
        e.u32(VERSION);
        e.str(&self.circuit);
        e.u64(self.seed);
        match self.fault_sample {
            FaultSample::Full => e.u8(0),
            FaultSample::Count(n) => {
                e.u8(1);
                e.u64(n as u64);
            }
            FaultSample::Fraction(f) => {
                e.u8(2);
                e.f64(f);
            }
        }
        e.u64(self.config_digest);
        e.u64(self.total_faults);
        for &w in &self.master_rng {
            e.u64(w);
        }
        e.u64(self.test_set.len() as u64);
        for v in &self.test_set {
            e.logics(v);
        }
        for &n in &self.phase_vectors {
            e.u64(n);
        }
        e.bytes(&self.phase_trace);
        e.u64(self.ga_evaluations);
        e.u64(self.sequence_attempts);
        for &ns in &self.phase_time_ns {
            e.u64(ns);
        }
        e.u64(self.ga_generations);
        e.u64(self.elapsed_ns);
        e.u64(self.eval_epoch);
        match &self.pos {
            SnapshotPos::Vectors {
                phase,
                noncontributing,
                best_known_ffs,
                init_stall,
                ga,
            } => {
                e.u8(0);
                e.u8(*phase);
                e.u64(*noncontributing);
                e.u64(*best_known_ffs);
                e.u64(*init_stall);
                e.ga(ga);
            }
            SnapshotPos::Sequences {
                len_idx,
                failures,
                ga,
            } => {
                e.u8(1);
                e.u64(*len_idx);
                e.u64(*failures);
                e.ga(ga);
            }
            SnapshotPos::Done => e.u8(2),
        }
        let sim = &self.sim;
        e.logics(&sim.good_values);
        e.logics(&sim.good_next_state);
        e.u64(sim.status.len() as u64);
        for s in &sim.status {
            match s {
                FaultStatus::Undetected => e.u8(0),
                FaultStatus::Detected { vector } => {
                    e.u8(1);
                    e.u32(*vector);
                }
            }
        }
        e.u64(sim.faulty_ff.len() as u64);
        for entries in &sim.faulty_ff {
            e.u64(entries.len() as u64);
            for &(dff, value) in entries {
                e.u32(dff);
                e.logic(value);
            }
        }
        e.u32(sim.vectors_applied);
        let c = &self.counters;
        for v in [
            c.step_calls,
            c.good_only_calls,
            c.gate_evals,
            c.good_events,
            c.faulty_events,
            c.checkpoint_restores,
            c.restore_bytes_avoided,
            c.packed_phase1_frames,
            c.pool_tasks,
            c.pool_idle_ns,
            c.scratch_bytes_reused,
            c.checkpoint_writes,
            c.checkpoint_bytes,
            c.cache_hits,
            c.cache_misses,
            c.dedup_skips,
            c.prefix_frames_avoided,
            c.wide_groups,
            c.lanes_per_group,
            c.events_amortized,
            c.commit_batch_frames,
            c.csr_bytes,
            c.report_records_streamed,
        ] {
            e.u64(v);
        }
        let crc = fnv1a(FNV_OFFSET, &e.buf);
        e.u64(crc);
        e.buf
    }

    /// Decodes a checkpoint produced by [`RunSnapshot::encode`], verifying
    /// magic, version, and checksum.
    pub fn decode(bytes: &[u8]) -> Result<RunSnapshot, CheckpointError> {
        let mut d = Dec { buf: bytes, pos: 0 };
        if d.take(MAGIC.len(), "magic")? != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = d.u32("version")?;
        if version != VERSION {
            return Err(CheckpointError::VersionMismatch { found: version });
        }
        if bytes.len() < 8 {
            return Err(CheckpointError::Truncated("checksum"));
        }
        let body = &bytes[..bytes.len() - 8];
        let stored = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
        let computed = fnv1a(FNV_OFFSET, body);
        if stored != computed {
            return Err(CheckpointError::Corrupt(format!(
                "checksum mismatch (stored {stored:#018x}, computed {computed:#018x})"
            )));
        }
        d.buf = body;

        let circuit = d.str("circuit")?;
        let seed = d.u64("seed")?;
        let fault_sample = match d.u8("fault_sample")? {
            0 => FaultSample::Full,
            1 => FaultSample::Count(d.u64("fault_sample")? as usize),
            2 => FaultSample::Fraction(d.f64("fault_sample")?),
            v => {
                return Err(CheckpointError::Corrupt(format!(
                    "invalid fault-sample tag {v}"
                )))
            }
        };
        let config_digest = d.u64("config_digest")?;
        let total_faults = d.u64("total_faults")?;
        let mut master_rng = [0u64; 4];
        for w in &mut master_rng {
            *w = d.u64("master_rng")?;
        }
        let n = d.len("test_set")?;
        let test_set = (0..n)
            .map(|_| d.logics("test_set"))
            .collect::<Result<Vec<_>, _>>()?;
        let mut phase_vectors = [0u64; 4];
        for v in &mut phase_vectors {
            *v = d.u64("phase_vectors")?;
        }
        let n = d.len("phase_trace")?;
        let phase_trace = d.take(n, "phase_trace")?.to_vec();
        let ga_evaluations = d.u64("ga_evaluations")?;
        let sequence_attempts = d.u64("sequence_attempts")?;
        let mut phase_time_ns = [0u64; 4];
        for v in &mut phase_time_ns {
            *v = d.u64("phase_time_ns")?;
        }
        let ga_generations = d.u64("ga_generations")?;
        let elapsed_ns = d.u64("elapsed_ns")?;
        let eval_epoch = d.u64("eval_epoch")?;
        let pos = match d.u8("pos")? {
            0 => {
                let phase = d.u8("pos.phase")?;
                if !(1..=3).contains(&phase) {
                    return Err(CheckpointError::Corrupt(format!(
                        "invalid vector phase {phase}"
                    )));
                }
                SnapshotPos::Vectors {
                    phase,
                    noncontributing: d.u64("pos.noncontributing")?,
                    best_known_ffs: d.u64("pos.best_known_ffs")?,
                    init_stall: d.u64("pos.init_stall")?,
                    ga: d.ga("pos.ga")?,
                }
            }
            1 => SnapshotPos::Sequences {
                len_idx: d.u64("pos.len_idx")?,
                failures: d.u64("pos.failures")?,
                ga: d.ga("pos.ga")?,
            },
            2 => SnapshotPos::Done,
            v => {
                return Err(CheckpointError::Corrupt(format!(
                    "invalid position tag {v}"
                )))
            }
        };
        let good_values = d.logics("sim.good_values")?;
        let good_next_state = d.logics("sim.good_next_state")?;
        let n = d.len("sim.status")?;
        let status = (0..n)
            .map(|_| match d.u8("sim.status")? {
                0 => Ok(FaultStatus::Undetected),
                1 => Ok(FaultStatus::Detected {
                    vector: d.u32("sim.status")?,
                }),
                v => Err(CheckpointError::Corrupt(format!(
                    "invalid fault-status tag {v}"
                ))),
            })
            .collect::<Result<Vec<_>, _>>()?;
        let n = d.len("sim.faulty_ff")?;
        let faulty_ff = (0..n)
            .map(|_| {
                let n = d.len("sim.faulty_ff")?;
                (0..n)
                    .map(|_| {
                        let dff = d.u32("sim.faulty_ff")?;
                        let value = d.logic("sim.faulty_ff")?;
                        Ok((dff, value))
                    })
                    .collect::<Result<Vec<_>, CheckpointError>>()
            })
            .collect::<Result<Vec<_>, _>>()?;
        let sim = SimState {
            good_values,
            good_next_state,
            status,
            faulty_ff,
            vectors_applied: d.u32("sim.vectors_applied")?,
        };
        let mut counter_fields = [0u64; 23];
        for v in &mut counter_fields {
            *v = d.u64("counters")?;
        }
        let counters = CounterSnapshot {
            step_calls: counter_fields[0],
            good_only_calls: counter_fields[1],
            gate_evals: counter_fields[2],
            good_events: counter_fields[3],
            faulty_events: counter_fields[4],
            checkpoint_restores: counter_fields[5],
            restore_bytes_avoided: counter_fields[6],
            packed_phase1_frames: counter_fields[7],
            pool_tasks: counter_fields[8],
            pool_idle_ns: counter_fields[9],
            scratch_bytes_reused: counter_fields[10],
            checkpoint_writes: counter_fields[11],
            checkpoint_bytes: counter_fields[12],
            cache_hits: counter_fields[13],
            cache_misses: counter_fields[14],
            dedup_skips: counter_fields[15],
            prefix_frames_avoided: counter_fields[16],
            wide_groups: counter_fields[17],
            lanes_per_group: counter_fields[18],
            events_amortized: counter_fields[19],
            commit_batch_frames: counter_fields[20],
            csr_bytes: counter_fields[21],
            report_records_streamed: counter_fields[22],
        };
        if d.pos != d.buf.len() {
            return Err(CheckpointError::Corrupt(format!(
                "{} trailing bytes after the last field",
                d.buf.len() - d.pos
            )));
        }
        Ok(RunSnapshot {
            circuit,
            seed,
            fault_sample,
            config_digest,
            total_faults,
            master_rng,
            test_set,
            phase_vectors,
            phase_trace,
            ga_evaluations,
            sequence_attempts,
            phase_time_ns,
            ga_generations,
            elapsed_ns,
            eval_epoch,
            pos,
            sim,
            counters,
        })
    }

    /// Atomically writes the snapshot to `path` (sibling tmp file + fsync +
    /// rename + best-effort directory fsync) and returns the bytes written.
    pub fn save(&self, path: &Path) -> std::io::Result<u64> {
        let bytes = self.encode();
        let file_name = path
            .file_name()
            .ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    "checkpoint path has no file name",
                )
            })?
            .to_string_lossy()
            .into_owned();
        let tmp = path.with_file_name(format!("{file_name}.tmp"));
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        if let Some(dir) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            if let Ok(d) = std::fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(bytes.len() as u64)
    }

    /// Loads and decodes a checkpoint file.
    pub fn load(path: &Path) -> Result<RunSnapshot, CheckpointError> {
        let bytes = std::fs::read(path)?;
        RunSnapshot::decode(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> RunSnapshot {
        RunSnapshot {
            circuit: "s27".to_string(),
            seed: 42,
            fault_sample: FaultSample::Count(10),
            config_digest: 0xdead_beef,
            total_faults: 32,
            master_rng: [1, 2, 3, 4],
            test_set: vec![
                vec![Logic::Zero, Logic::One, Logic::X, Logic::One],
                vec![Logic::One, Logic::One, Logic::Zero, Logic::Zero],
            ],
            phase_vectors: [1, 1, 0, 0],
            phase_trace: vec![1, 2],
            ga_evaluations: 128,
            sequence_attempts: 0,
            phase_time_ns: [5, 6, 0, 0],
            ga_generations: 16,
            elapsed_ns: 1_000_000,
            eval_epoch: 7,
            pos: SnapshotPos::Vectors {
                phase: 2,
                noncontributing: 0,
                best_known_ffs: 3,
                init_stall: 1,
                ga: Some(GaSnapshot {
                    sample: vec![0, 3, 7],
                    rng: [9, 8, 7, 6],
                    generation: 2,
                    evaluations: 48,
                    population: vec![
                        SnapshotIndividual {
                            bits: vec![true, false, true, true],
                            fitness: 1.5,
                        },
                        SnapshotIndividual {
                            bits: vec![false, false, true, false],
                            fitness: 0.25,
                        },
                    ],
                    best: SnapshotIndividual {
                        bits: vec![true, false, true, true],
                        fitness: 1.5,
                    },
                    best_history: vec![1.0, 1.5, 1.5],
                    mean_history: vec![0.5, 0.75, 1.0],
                    diversity_history: vec![2.0, 1.5, 1.0],
                }),
            },
            sim: SimState {
                good_values: vec![Logic::One, Logic::Zero, Logic::X],
                good_next_state: vec![Logic::X, Logic::One],
                status: vec![
                    FaultStatus::Undetected,
                    FaultStatus::Detected { vector: 1 },
                    FaultStatus::Undetected,
                ],
                faulty_ff: vec![vec![], vec![(0, Logic::One)], vec![(1, Logic::Zero)]],
                vectors_applied: 2,
            },
            counters: CounterSnapshot {
                step_calls: 100,
                gate_evals: 5000,
                cache_hits: 60,
                cache_misses: 40,
                dedup_skips: 12,
                prefix_frames_avoided: 320,
                wide_groups: 9,
                lanes_per_group: 256,
                events_amortized: 77,
                commit_batch_frames: 11,
                csr_bytes: 4096,
                report_records_streamed: 2,
                ..CounterSnapshot::default()
            },
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let snap = sample_snapshot();
        let bytes = snap.encode();
        let back = RunSnapshot::decode(&bytes).unwrap();
        assert_eq!(snap, back);
        // Save → load → save is byte-identical.
        assert_eq!(bytes, back.encode());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = sample_snapshot().encode();
        bytes[0] = b'X';
        assert!(matches!(
            RunSnapshot::decode(&bytes),
            Err(CheckpointError::BadMagic)
        ));
    }

    #[test]
    fn future_version_is_rejected_with_the_found_version() {
        let mut bytes = sample_snapshot().encode();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        match RunSnapshot::decode(&bytes) {
            Err(CheckpointError::VersionMismatch { found: 99 }) => {}
            other => panic!("expected version mismatch, got {other:?}"),
        }
    }

    #[test]
    fn old_versions_are_rejected_with_the_found_version() {
        // Version 2 added the eval epoch and memoization counters; version 3
        // added the wide-backend counters; version 4 stored per-shard sim
        // states and two shard counters, which version 5 drops; version 5
        // stored the two fault-group pool counters, which version 6 drops.
        // Older files differ in layout, so decoding must refuse them up
        // front rather than misinterpret the stream.
        for old in [1u32, 2, 3, 4, 5] {
            let mut bytes = sample_snapshot().encode();
            bytes[8..12].copy_from_slice(&old.to_le_bytes());
            match RunSnapshot::decode(&bytes) {
                Err(CheckpointError::VersionMismatch { found }) if found == old => {}
                other => panic!("expected version-{old} mismatch, got {other:?}"),
            }
        }
    }

    #[test]
    fn truncation_is_rejected() {
        let bytes = sample_snapshot().encode();
        for cut in [4, 11, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                RunSnapshot::decode(&bytes[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn bit_flips_fail_the_checksum() {
        let mut bytes = sample_snapshot().encode();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert!(RunSnapshot::decode(&bytes).is_err());
    }

    #[test]
    fn save_is_atomic_and_loads_back() {
        let dir = std::env::temp_dir().join(format!("gatest-cp-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt");
        let snap = sample_snapshot();
        let bytes = snap.save(&path).unwrap();
        assert_eq!(bytes, snap.encode().len() as u64);
        assert!(!path.with_file_name("run.ckpt.tmp").exists(), "tmp cleaned");
        let back = RunSnapshot::load(&path).unwrap();
        assert_eq!(snap, back);
        // Overwriting is also atomic and leaves the new contents.
        let mut snap2 = snap.clone();
        snap2.seed = 43;
        snap2.save(&path).unwrap();
        assert_eq!(RunSnapshot::load(&path).unwrap().seed, 43);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn config_digest_tracks_search_relevant_fields_only() {
        let a = GatestConfig::default();
        let mut b = a.clone();
        b.parallel_workers = 8;
        b.max_evals = Some(100);
        b.max_wall_secs = Some(1.0);
        b.seed = 999;
        b.eval_cache_entries = 0;
        b.dedup = false;
        b.paranoid_cache = true;
        b.sim_width = gatest_sim::SimBackend::Wide256;
        assert_eq!(config_digest(&a), config_digest(&b), "runtime knobs");
        let mut c = a.clone();
        c.generations = 9;
        assert_ne!(config_digest(&a), config_digest(&c), "search knobs");
    }
}
