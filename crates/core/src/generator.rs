//! The GATEST test generator: Figure 1's top-level flow and Figure 2's
//! phase machine for individual-vector generation.
//!
//! The flow runs as an explicit state machine ([`MachineState`] internally):
//! every call to the driver's `tick` either starts a GA invocation, evolves
//! it by exactly one generation, or commits its winner and moves the phase
//! machine. Budgets, cooperative interrupts, and checkpoint writes are all
//! checked between ticks, so a run can stop gracefully at any generation
//! boundary. [`TestGenerator::run_slice`] keeps a run stopped that way in
//! memory and continues it in place at the next call;
//! [`TestGenerator::resume`] continues it bit-identically from a
//! [`RunSnapshot`] in another generator or process.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gatest_ga::{
    Chromosome, Coding, Evaluated, GaConfig, GaEngine, GaRunState, GenerationStats, Rng,
};
use gatest_netlist::depth::sequential_depth;
use gatest_netlist::Circuit;
use gatest_sim::{
    FaultId, FaultList, FaultReportWriter, FaultSim, GoodSim, Logic, PackedGoodSim, PackedValue,
    Pv256, Pv64, SimBackend, StepReport,
};
use gatest_telemetry::{
    Instruments, NullObserver, RunEvent, RunObserver, SimCounters, SpanHandle, SpanKind,
    TelemetrySnapshot,
};

use crate::checkpoint::{config_digest, GaSnapshot, RunSnapshot, SnapshotIndividual, SnapshotPos};
use crate::config::{FaultSample, GatestConfig};
use crate::evalpool::{
    decode_frame_into, decode_vector_into, evaluate_candidate, evaluate_candidates, EvalContext,
    EvalJob, EvalMemo, EvalPool,
};
use crate::fitness::{phase1, FitnessScale, Phase};

/// Why a run returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopCause {
    /// The flow ran to completion (Figure 1's exit).
    Completed,
    /// A `max_wall_secs` or `max_evals` budget was exhausted.
    BudgetExhausted,
    /// The [`RunControls::stop`] flag was raised (or the tick limit hit).
    Interrupted,
}

impl StopCause {
    /// The snake-case tag used in result JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            StopCause::Completed => "completed",
            StopCause::BudgetExhausted => "budget_exhausted",
            StopCause::Interrupted => "interrupted",
        }
    }
}

/// How often to write periodic checkpoints during a controlled run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CheckpointCadence {
    /// Every `n` GA generations.
    Generations(u64),
    /// Every `secs` seconds of wall clock.
    Secs(f64),
}

/// External controls for [`TestGenerator::run_controlled`],
/// [`TestGenerator::run_slice`] and [`TestGenerator::resume`]: cooperative
/// stopping and checkpointing.
/// Budgets (`max_wall_secs`, `max_evals`) live in [`GatestConfig`].
#[derive(Debug, Clone, Default)]
pub struct RunControls {
    /// Cooperative stop flag, checked between machine ticks — set it from a
    /// signal handler for graceful SIGINT/SIGTERM handling. Raising it
    /// stops the run with [`StopCause::Interrupted`] after the current
    /// generation finishes.
    pub stop: Option<Arc<AtomicBool>>,
    /// Where to write checkpoints. When set, a final checkpoint is always
    /// written on an early stop (interrupt or budget), and periodic ones
    /// per `checkpoint_every`.
    pub checkpoint_path: Option<PathBuf>,
    /// Cadence for periodic checkpoints (requires `checkpoint_path`).
    pub checkpoint_every: Option<CheckpointCadence>,
    /// Stop with [`StopCause::Interrupted`] after this many machine ticks.
    /// Ticks are deterministic (one GA generation, invocation start, or
    /// commit each), so this simulates a kill at an exact, reproducible
    /// point — the checkpoint/resume test suite sweeps it.
    pub max_ticks: Option<u64>,
    /// Where to stream the per-detection fault report (JSONL). Detections
    /// are written as they commit — candidate evaluations restore before
    /// commit, so only committed vectors' detections reach the stream —
    /// and the file is finalized (summary line, fsync, atomic rename)
    /// when the call returns. The stream is per call: a resumed run's
    /// file, or one slice's, covers that call's detections only. Report I/O
    /// failures never abort the run; they surface in
    /// [`TestGenResult::fault_report_error`].
    pub fault_report: Option<PathBuf>,
}

/// Result of one GATEST run (or one leg of an interrupted run).
#[derive(Debug, Clone)]
pub struct TestGenResult {
    /// Circuit name.
    pub circuit: String,
    /// Faults in the (collapsed) target list.
    pub total_faults: usize,
    /// Faults detected by the generated test set.
    pub detected: usize,
    /// The generated test set, one vector per time frame.
    pub test_set: Vec<Vec<Logic>>,
    /// Wall-clock time of the run, cumulative across resumed legs.
    pub elapsed: Duration,
    /// Vectors committed while in each phase (1–3 individual vectors,
    /// 4 = sequences).
    pub phase_vectors: [usize; 4],
    /// Total GA fitness evaluations (candidate simulations).
    pub ga_evaluations: usize,
    /// Number of sequence-generation GA attempts (successful or not).
    pub sequence_attempts: usize,
    /// The phase (1-4) each committed vector was generated in, in test-set
    /// order — the observable trace of Figure 2's phase machine.
    pub phase_trace: Vec<u8>,
    /// Why the run returned.
    pub stop: StopCause,
    /// The error from the most recent failed checkpoint write, if any
    /// (checkpoint I/O failures never abort the run itself).
    pub checkpoint_error: Option<String>,
    /// The error from a failed fault-report stream write or finalize, if
    /// any (report I/O failures never abort the run; the stream stops at
    /// the first error).
    pub fault_report_error: Option<String>,
    /// Final telemetry: per-phase wall-clock time, GA generations, and the
    /// simulator hot-path counters accumulated over the run.
    pub telemetry: TelemetrySnapshot,
}

impl TestGenResult {
    /// Detected / total, in 0..=1.
    pub fn fault_coverage(&self) -> f64 {
        if self.total_faults == 0 {
            0.0
        } else {
            self.detected as f64 / self.total_faults as f64
        }
    }

    /// Number of vectors in the test set.
    pub fn vectors(&self) -> usize {
        self.test_set.len()
    }

    /// True when the flow ran to completion rather than stopping early.
    pub fn is_complete(&self) -> bool {
        self.stop == StopCause::Completed
    }

    /// True when the run stopped on an exhausted budget.
    pub fn budget_exhausted(&self) -> bool {
        self.stop == StopCause::BudgetExhausted
    }
}

/// Why a [`RunSnapshot`] cannot be resumed by a particular generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResumeError(String);

impl std::fmt::Display for ResumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cannot resume checkpoint: {}", self.0)
    }
}

impl std::error::Error for ResumeError {}

impl ResumeError {
    fn new(msg: impl Into<String>) -> Self {
        ResumeError(msg.into())
    }
}

/// The GA-based sequential circuit test generator.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use gatest_core::{GatestConfig, TestGenerator};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let circuit = Arc::new(gatest_netlist::benchmarks::iscas89("s27")?);
/// let config = GatestConfig::for_circuit(&circuit).with_seed(5);
/// let mut tg = TestGenerator::new(Arc::clone(&circuit), config);
/// let result = tg.run();
/// assert!(result.fault_coverage() > 0.8, "s27 is easy");
/// # Ok(())
/// # }
/// ```
pub struct TestGenerator {
    circuit: Arc<Circuit>,
    sim: FaultSim,
    config: GatestConfig,
    rng: Rng,
    seq_depth: u32,
    observer: Arc<dyn RunObserver>,
    counters: Arc<SimCounters>,
    /// Optional instrumentation bundle (span tree + metrics registry),
    /// shared with the simulator and, via simulator clones, every
    /// evaluation-pool worker.
    instruments: Option<Arc<Instruments>>,
    /// The generator thread's lazily-registered span slot.
    probe: Option<SpanHandle>,
    /// The run [`TestGenerator::run_slice`] stopped at a tick boundary, or
    /// [`TestGenerator::suspend_from`] loaded, waiting for its next call.
    suspended: Option<KeptRun>,
}

impl std::fmt::Debug for TestGenerator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TestGenerator")
            .field("circuit", &self.circuit)
            .field("sim", &self.sim)
            .field("config", &self.config)
            .field("rng", &self.rng)
            .field("seq_depth", &self.seq_depth)
            .field("suspended", &self.suspended.is_some())
            .finish_non_exhaustive()
    }
}

/// One in-flight GA invocation.
struct ActiveGa {
    engine: GaEngine,
    state: GaRunState,
    run_rng: Rng,
    ctx: Arc<EvalContext>,
}

/// Where the flow is between ticks.
enum MachinePos {
    /// Phases 1–3: evolving individual vectors.
    Vectors {
        phase: Phase,
        noncontributing: usize,
        best_known_ffs: usize,
        init_stall: usize,
        ga: Option<ActiveGa>,
    },
    /// Phase 4: evolving whole sequences over the length schedule.
    Sequences {
        len_idx: usize,
        failures: usize,
        ga: Option<ActiveGa>,
    },
    /// Figure 1's exit.
    Done,
}

impl MachinePos {
    fn active_ga(&self) -> Option<&ActiveGa> {
        match self {
            MachinePos::Vectors { ga, .. } | MachinePos::Sequences { ga, .. } => ga.as_ref(),
            MachinePos::Done => None,
        }
    }

    /// True in phase 1, the only phase that scores on the packed
    /// good-machine simulator. Figure 2 never returns to it.
    fn in_initialization(&self) -> bool {
        matches!(
            self,
            MachinePos::Vectors {
                phase: Phase::Initialization,
                ..
            }
        )
    }
}

/// The complete resumable run state: everything [`RunSnapshot`] captures,
/// in its in-memory form.
struct MachineState {
    test_set: Vec<Vec<Logic>>,
    phase_vectors: [usize; 4],
    phase_trace: Vec<u8>,
    ga_evaluations: usize,
    sequence_attempts: usize,
    phase_time: [Duration; 4],
    ga_generations: u64,
    /// Wall clock accumulated by earlier calls (legs or slices) of the
    /// run; the time a suspended run waits between calls is not counted.
    elapsed_base: Duration,
    /// Monotone GA-invocation counter keying the fitness cache: bumped at
    /// every invocation start (each draws a fresh fault sample and
    /// checkpoint), so scores cached under one epoch can never leak into
    /// another. Serialized so a resumed run keeps the uninterrupted run's
    /// numbering.
    eval_epoch: u64,
    pos: MachinePos,
}

/// Driver context: the process-local machinery (worker pool, packed
/// phase-1 simulator, fitness cache, scratch buffers, schedules) that is
/// deliberately kept out of [`MachineState`]/[`RunSnapshot`]. A suspended
/// run keeps it, all but the pool, so its next slice continues warm; a run
/// resumed from a snapshot builds a new one.
struct DriverCtx {
    /// The evaluation pool, present only while a call drives the run (so a
    /// suspended run holds no threads).
    pool: Option<EvalPool>,
    /// The pool workers' span handles, kept between calls so each call's
    /// new pool records into the slots the first one registered.
    worker_spans: Vec<SpanHandle>,
    /// The packed phase-1 simulator, present while the run is in phase 1.
    packed: Option<PackedGood>,
    /// The memoization layer (fitness cache + batch dedup); `None` when
    /// the cache is off. Process-local by design: a run resumed from a
    /// snapshot starts cold and merely re-simulates what the cache would
    /// have answered, so results are unaffected.
    memo: Option<EvalMemo>,
    scratch: Vec<Logic>,
    seq_lens: Vec<usize>,
    progress_limit: usize,
    nffs: usize,
    pis: usize,
    emitted_phase: Option<u8>,
    phase_started: Instant,
    /// Streaming fault-report writer, present while
    /// [`RunControls::fault_report`] is set and no write error has
    /// occurred. Only commit paths touch it, so candidate evaluations
    /// (which restore) never pollute the stream.
    report: Option<FaultReportWriter>,
    /// First fault-report I/O error; streaming stops once it is set.
    report_error: Option<String>,
    /// The error from the most recent failed checkpoint write.
    checkpoint_error: Option<String>,
}

/// A run held in memory between calls: its machine state and driver
/// context.
struct KeptRun {
    m: MachineState,
    dctx: DriverCtx,
}

impl TestGenerator {
    /// Creates a generator over the collapsed fault list of `circuit`.
    pub fn new(circuit: Arc<Circuit>, config: GatestConfig) -> Self {
        let faults = FaultList::collapsed(&circuit);
        Self::with_faults(circuit, faults, config)
    }

    /// Creates a generator over a caller-supplied fault list.
    pub fn with_faults(circuit: Arc<Circuit>, faults: FaultList, config: GatestConfig) -> Self {
        let mut sim = FaultSim::with_faults(Arc::clone(&circuit), faults);
        let rng = Rng::new(config.seed);
        let seq_depth = sequential_depth(&circuit);
        let counters = Arc::new(SimCounters::new());
        sim.set_counters(Some(Arc::clone(&counters)));
        sim.set_backend(config.sim_width);
        TestGenerator {
            circuit,
            sim,
            config,
            rng,
            seq_depth,
            observer: Arc::new(NullObserver),
            counters,
            instruments: None,
            probe: None,
            suspended: None,
        }
    }

    /// Attaches an observer receiving [`RunEvent`]s as the run unfolds.
    ///
    /// The default is [`NullObserver`]; observers cannot influence the run,
    /// so observed and unobserved runs produce identical test sets.
    pub fn with_observer(mut self, observer: Arc<dyn RunObserver>) -> Self {
        self.observer = observer;
        self
    }

    /// Attaches the shared instrumentation bundle: the hierarchical span
    /// collector and the run-metrics registry. The bundle propagates to
    /// the fault simulator (and through simulator clones to every
    /// evaluation-pool worker), so `run > generation > eval_batch >
    /// sim_step` timings all land in one place. Instrumentation is
    /// observational only: instrumented and uninstrumented runs produce
    /// bit-identical results.
    pub fn with_instruments(mut self, instruments: Arc<Instruments>) -> Self {
        self.sim.set_instruments(Some(Arc::clone(&instruments)));
        self.instruments = Some(instruments);
        self.probe = None;
        self
    }

    /// The attached instrumentation bundle, if any.
    pub fn instruments(&self) -> Option<&Arc<Instruments>> {
        self.instruments.as_ref()
    }

    /// The generator thread's span handle, registered on first use.
    fn probe(&mut self) -> Option<SpanHandle> {
        if self.probe.is_none() {
            if let Some(instruments) = &self.instruments {
                self.probe = Some(instruments.spans.handle());
            }
        }
        self.probe.clone()
    }

    /// The shared simulator hot-path counters for this generator.
    pub fn telemetry_counters(&self) -> &Arc<SimCounters> {
        &self.counters
    }

    /// The fault simulator (e.g. to inspect per-fault status after a run).
    pub fn sim(&self) -> &FaultSim {
        &self.sim
    }

    /// The structural sequential depth driving the schedules.
    pub fn seq_depth(&self) -> u32 {
        self.seq_depth
    }

    /// Runs the full GATEST flow (Figure 1): individual test vectors until
    /// the progress limit is exhausted, then test sequences of increasing
    /// length until four consecutive attempts fail at the longest length.
    pub fn run(&mut self) -> TestGenResult {
        self.run_controlled(&RunControls::default())
    }

    /// Runs the flow under external controls: cooperative stopping,
    /// checkpoint writes, and (via [`GatestConfig`]) wall-clock and
    /// evaluation budgets. [`TestGenerator::run`] is this with defaults.
    pub fn run_controlled(&mut self, controls: &RunControls) -> TestGenResult {
        self.run_preemptible(controls).0
    }

    /// Like [`TestGenerator::run_controlled`], but when the run stops early
    /// (stop flag, tick limit, or budget) the final [`RunSnapshot`] is also
    /// returned in memory, so a caller can stop the run and later hand the
    /// snapshot to [`TestGenerator::resume_preemptible`] without a
    /// filesystem round-trip. The snapshot is the same one a
    /// [`RunControls::checkpoint_path`] write would persist; a completed run
    /// returns `None`. A run this generator held suspended is discarded.
    pub fn run_preemptible(
        &mut self,
        controls: &RunControls,
    ) -> (TestGenResult, Option<RunSnapshot>) {
        self.suspended = None;
        let run = self.start_run();
        self.drive(run, controls, false)
            .expect("a drive that keeps nothing returns its result")
    }

    /// Starts a run, or continues the one this generator holds suspended,
    /// for one call under `controls`. Returns the result when the run ends
    /// (completed or budget exhausted), or `None` when the stop flag or the
    /// tick limit stopped it at a tick boundary: the run then stays in the
    /// generator, with its machine state, fitness cache and scratch (and
    /// the packed phase-1 simulator while in phase 1), and the next call
    /// continues it in place.
    ///
    /// No [`RunSnapshot`] is built unless `controls` names a checkpoint
    /// path; [`TestGenerator::suspended_snapshot`] builds one on demand. A
    /// suspended run holds no pool threads (the pool is rebuilt at the next
    /// call), its simulator is rolled back to the committed state, and its
    /// wall clock stops until the next call. Results are bit-identical to
    /// an uninterrupted run however the run is sliced. Each call emits its
    /// own `RunStarted`/`RunFinished` pair and writes the fault report and
    /// checkpoints its own `controls` ask for; checkpoint and fault-report
    /// errors of earlier calls carry over to the result that ends the run.
    pub fn run_slice(&mut self, controls: &RunControls) -> Option<TestGenResult> {
        let run = match self.suspended.take() {
            Some(run) => run,
            None => self.start_run(),
        };
        self.drive(run, controls, true).map(|(result, _)| result)
    }

    /// The snapshot of the run this generator holds suspended — the one
    /// [`TestGenerator::run_preemptible`] would have returned at the same
    /// tick boundary — or `None` when no run is suspended. Its counters
    /// are the live ones, so they also count the rollback restore each
    /// suspension made.
    pub fn suspended_snapshot(&self) -> Option<RunSnapshot> {
        self.suspended
            .as_ref()
            .map(|run| self.build_snapshot(&run.m, run.m.elapsed_base))
    }

    /// A fresh run: counters zeroed, the machine at Figure 1's entry.
    fn start_run(&mut self) -> KeptRun {
        self.counters.reset();
        let phase = if self.circuit.num_dffs() == 0 {
            Phase::VectorGeneration
        } else {
            Phase::Initialization
        };
        let m = MachineState {
            test_set: Vec::new(),
            phase_vectors: [0; 4],
            phase_trace: Vec::new(),
            ga_evaluations: 0,
            sequence_attempts: 0,
            phase_time: [Duration::ZERO; 4],
            ga_generations: 0,
            elapsed_base: Duration::ZERO,
            eval_epoch: 0,
            pos: MachinePos::Vectors {
                phase,
                noncontributing: 0,
                best_known_ffs: 0,
                init_stall: 0,
                ga: None,
            },
        };
        let dctx = self.driver_ctx(&m);
        KeptRun { m, dctx }
    }

    /// Continues an interrupted run from a [`RunSnapshot`], bit-identically:
    /// the resumed run's test set, coverage, phase trace, and evaluation
    /// counts equal the uninterrupted run's. (Simulator work counters may
    /// legitimately differ when the fitness cache is enabled — the cache is
    /// process-local, so a resumed leg starts cold and re-simulates scores
    /// the uninterrupted run would have answered from cache; the scores
    /// themselves are bit-identical either way.) The generator must be
    /// constructed
    /// over the same circuit, fault list, and configuration (same seed and
    /// search parameters; worker counts and budgets may differ freely) —
    /// mismatches are rejected.
    pub fn resume(
        &mut self,
        snapshot: &RunSnapshot,
        controls: &RunControls,
    ) -> Result<TestGenResult, ResumeError> {
        self.resume_preemptible(snapshot, controls).map(|(r, _)| r)
    }

    /// Like [`TestGenerator::resume`], but also returns the final
    /// [`RunSnapshot`] when the resumed leg itself stops early — the
    /// snapshot-passing counterpart of [`TestGenerator::run_preemptible`].
    /// It is [`TestGenerator::suspend_from`] followed by one drive.
    pub fn resume_preemptible(
        &mut self,
        snapshot: &RunSnapshot,
        controls: &RunControls,
    ) -> Result<(TestGenResult, Option<RunSnapshot>), ResumeError> {
        self.suspend_from(snapshot)?;
        let run = self.suspended.take().expect("suspend_from keeps the run");
        Ok(self
            .drive(run, controls, false)
            .expect("a drive that keeps nothing returns its result"))
    }

    /// Validates a [`RunSnapshot`] and loads it as this generator's
    /// suspended run, replacing any other, so that the next
    /// [`TestGenerator::run_slice`] continues it. The generator must be
    /// built over the same circuit, fault list and configuration as the
    /// run that took the snapshot (see [`TestGenerator::resume`]); the
    /// loaded run starts with a cold fitness cache.
    ///
    /// # Errors
    ///
    /// Returns a [`ResumeError`] naming the mismatch when the snapshot was
    /// taken under another circuit, fault list, seed or search
    /// configuration, or carries state that does not fit them.
    pub fn suspend_from(&mut self, snapshot: &RunSnapshot) -> Result<(), ResumeError> {
        if snapshot.circuit != self.circuit.name() {
            return Err(ResumeError::new(format!(
                "checkpoint is for circuit {:?}, generator is for {:?}",
                snapshot.circuit,
                self.circuit.name()
            )));
        }
        if snapshot.total_faults as usize != self.sim.fault_list().len() {
            return Err(ResumeError::new(format!(
                "checkpoint targets {} faults, generator targets {}",
                snapshot.total_faults,
                self.sim.fault_list().len()
            )));
        }
        if snapshot.seed != self.config.seed {
            return Err(ResumeError::new(format!(
                "checkpoint seed {} differs from configured seed {}",
                snapshot.seed, self.config.seed
            )));
        }
        if snapshot.config_digest != config_digest(&self.config) {
            return Err(ResumeError::new(
                "configuration digest mismatch: the checkpoint was taken under \
                 different search parameters",
            ));
        }
        // A checksum-valid file can still carry a state shaped for another
        // circuit or fault list; refuse it here rather than panic inside
        // the simulator.
        let state = &snapshot.sim;
        let nfaults = self.sim.fault_list().len();
        let nnets = self.circuit.num_gates();
        let nffs = self.circuit.num_dffs();
        for (table, found, expected) in [
            ("fault status", state.status.len(), nfaults),
            ("faulty-FF", state.faulty_ff.len(), nfaults),
            ("good value", state.good_values.len(), nnets),
            ("next-state", state.good_next_state.len(), nffs),
        ] {
            if found != expected {
                return Err(ResumeError::new(format!(
                    "checkpoint's simulator state holds {found} {table} entries, \
                     the circuit and fault list need {expected}"
                )));
            }
        }
        if let Some(&(dff, _)) = state
            .faulty_ff
            .iter()
            .flatten()
            .find(|e| e.0 as usize >= nffs)
        {
            return Err(ResumeError::new(format!(
                "checkpoint's faulty-FF state names flip-flop {dff}, the circuit has {nffs}"
            )));
        }
        self.suspended = None;
        self.sim.import_state(state);
        self.rng = Rng::from_state(snapshot.master_rng);
        self.counters.load_snapshot(&snapshot.counters);
        let m = self.machine_from_snapshot(snapshot)?;
        let dctx = self.driver_ctx(&m);
        self.suspended = Some(KeptRun { m, dctx });
        Ok(())
    }

    /// A new driver context for the run `m`, without a pool or a fault
    /// report (each call attaches its own).
    fn driver_ctx(&self, m: &MachineState) -> DriverCtx {
        let nffs = self.circuit.num_dffs();
        let pis = self.circuit.num_inputs();
        DriverCtx {
            pool: None,
            worker_spans: Vec::new(),
            packed: (nffs > 0 && m.pos.in_initialization()).then(|| {
                PackedGood::new(
                    self.sim.backend(),
                    self.config.vector_population,
                    Arc::clone(&self.circuit),
                )
            }),
            memo: EvalMemo::new(self.config.eval_cache_entries),
            scratch: Vec::with_capacity(pis),
            seq_lens: self.config.sequence_lengths(self.seq_depth),
            progress_limit: self.config.progress_limit(self.seq_depth),
            nffs,
            pis,
            // Resuming mid-invocation: the phase was already entered by the
            // previous leg, so attribute time to it without re-emitting.
            emitted_phase: m.pos.active_ga().map(|_| match &m.pos {
                MachinePos::Vectors { phase, .. } => phase.number(),
                MachinePos::Sequences { .. } => 4,
                MachinePos::Done => unreachable!(),
            }),
            phase_started: Instant::now(),
            report: None,
            report_error: None,
            checkpoint_error: None,
        }
    }

    /// The main driver loop for one call: check stop conditions, tick the
    /// machine, write due checkpoints, repeat until done or stopped. With
    /// `keep` set, a run the stop flag or the tick limit interrupted is
    /// kept in `self.suspended` and `None` is returned; otherwise the
    /// result comes back, with the final snapshot on an early stop.
    fn drive(
        &mut self,
        run: KeptRun,
        controls: &RunControls,
        keep: bool,
    ) -> Option<(TestGenResult, Option<RunSnapshot>)> {
        let KeptRun { mut m, mut dctx } = run;
        let start = Instant::now();
        let run_span = self.probe().map(|p| p.enter(SpanKind::Run));
        // Under `auto` the width follows each step's fault count; report the
        // one a step over every undetected fault starts at.
        let backend = self
            .sim
            .backend()
            .for_step(self.sim.remaining(), &self.circuit);
        self.observer.on_event(&RunEvent::RunStarted {
            circuit: self.circuit.name().to_string(),
            total_faults: self.sim.fault_list().len(),
            seed: self.config.seed,
            backend: backend.name().to_string(),
            lanes: backend.lanes(),
        });

        let workers = self.config.resolved_workers();
        // The evaluation pool lives for the whole call: workers clone the
        // simulator once here and adopt per-invocation checkpoints through
        // the shared EvalContext instead of deep-cloning per batch. They
        // record into the span slots the run's first pool registered.
        dctx.pool = (workers > 1).then(|| {
            EvalPool::with_spans(&self.sim, workers, std::mem::take(&mut dctx.worker_spans))
        });
        dctx.phase_started = Instant::now();
        if let Some(path) = &controls.fault_report {
            match FaultReportWriter::create(path, Some(Arc::clone(&self.counters))) {
                Ok(w) => dctx.report = Some(w),
                Err(e) => {
                    dctx.report_error = Some(format!(
                        "failed to create fault report at {}: {e}",
                        path.display()
                    ))
                }
            }
        }

        let mut ticks: u64 = 0;
        let mut gens_at_cp = m.ga_generations;
        let mut last_cp = Instant::now();

        let stop = loop {
            if matches!(m.pos, MachinePos::Done) {
                break StopCause::Completed;
            }
            if let Some(flag) = &controls.stop {
                if flag.load(Ordering::Relaxed) {
                    break StopCause::Interrupted;
                }
            }
            if controls.max_ticks.is_some_and(|limit| ticks >= limit) {
                break StopCause::Interrupted;
            }
            if self
                .config
                .max_evals
                .is_some_and(|limit| m.ga_evaluations as u64 >= limit)
            {
                break StopCause::BudgetExhausted;
            }
            if self
                .config
                .max_wall_secs
                .is_some_and(|limit| (m.elapsed_base + start.elapsed()).as_secs_f64() >= limit)
            {
                break StopCause::BudgetExhausted;
            }

            self.tick(&mut m, &mut dctx);
            ticks += 1;

            if let (Some(path), Some(cadence)) =
                (&controls.checkpoint_path, controls.checkpoint_every)
            {
                let due = match cadence {
                    CheckpointCadence::Generations(n) => {
                        m.ga_generations.saturating_sub(gens_at_cp) >= n.max(1)
                    }
                    CheckpointCadence::Secs(s) => last_cp.elapsed().as_secs_f64() >= s,
                };
                if due && !matches!(m.pos, MachinePos::Done) {
                    Self::flush_phase_time(&mut m, &mut dctx);
                    let snap = self.build_snapshot(&m, m.elapsed_base + start.elapsed());
                    if let Err(e) = self.save_checkpoint(&snap, path) {
                        dctx.checkpoint_error = Some(e);
                    }
                    gens_at_cp = m.ga_generations;
                    last_cp = Instant::now();
                }
            }
        };

        Self::flush_phase_time(&mut m, &mut dctx);
        let elapsed = m.elapsed_base + start.elapsed();
        let keep = keep && stop == StopCause::Interrupted;
        // An early stop builds the final snapshot at most once: to return
        // it in memory unless the run is kept, and to persist it when a
        // checkpoint path is set (build → save → record, as for cadence
        // checkpoints).
        let final_snapshot = (stop != StopCause::Completed
            && (!keep || controls.checkpoint_path.is_some()))
        .then(|| self.build_snapshot(&m, elapsed));
        if let (Some(snap), Some(path)) = (&final_snapshot, &controls.checkpoint_path) {
            if let Err(e) = self.save_checkpoint(snap, path) {
                dctx.checkpoint_error = Some(e);
            }
        }
        // Stopping mid-invocation can leave the simulator holding the last
        // phase-1 candidate's good machine (the serial phase-1 path steps
        // it); roll it back to the invocation-start checkpoint so `detected`
        // and `sim()` reflect the committed test set only. After the final
        // checkpoint write so the extra restore never skews
        // resumed-vs-uninterrupted counters.
        if let Some(ga) = m.pos.active_ga() {
            self.sim.restore(&ga.ctx.checkpoint);
        }
        if let Some(pool) = dctx.pool.take() {
            dctx.worker_spans = pool.spans().to_vec();
        }
        // Finalize the fault-report stream after the rollback above so the
        // summary's `detected` matches the committed test set the result
        // reports. Finalization happens on every stop cause: an interrupted
        // call still leaves a complete, parseable file for its own records.
        if let Some(w) = dctx.report.take() {
            if let Err(e) = w.finalize(
                self.circuit.name(),
                self.sim.detected_count() as u64,
                self.sim.fault_list().len() as u64,
            ) {
                dctx.report_error
                    .get_or_insert(format!("failed to finalize fault report: {e}"));
            }
        }

        // Close the run span before snapshotting so its timing is counted;
        // spans are process-local, so (like the fitness cache) a resumed
        // run's snapshot covers the final leg only.
        drop(run_span);
        let spans = self
            .instruments
            .as_ref()
            .map(|i| i.spans.snapshot())
            .unwrap_or_default();
        let telemetry = TelemetrySnapshot {
            phase_time: m.phase_time,
            ga_generations: m.ga_generations,
            counters: self.counters.snapshot(),
            spans,
        };
        let finished = RunEvent::RunFinished {
            detected: self.sim.detected_count(),
            total_faults: self.sim.fault_list().len(),
            vectors: m.test_set.len(),
            ga_evaluations: m.ga_evaluations,
            elapsed_secs: elapsed.as_secs_f64(),
            budget_exhausted: stop == StopCause::BudgetExhausted,
            snapshot: Box::new(telemetry.clone()),
        };
        if keep {
            self.observer.on_event(&finished);
            // A run past phase 1 never needs the packed simulator again.
            // (The simulator's arena stays: rebuilding it every slice cost
            // more than its memory is worth.)
            if !m.pos.in_initialization() {
                dctx.packed = None;
            }
            m.elapsed_base = elapsed;
            self.suspended = Some(KeptRun { m, dctx });
            return None;
        }
        let result = TestGenResult {
            circuit: self.circuit.name().to_string(),
            total_faults: self.sim.fault_list().len(),
            detected: self.sim.detected_count(),
            test_set: m.test_set,
            elapsed,
            phase_vectors: m.phase_vectors,
            ga_evaluations: m.ga_evaluations,
            sequence_attempts: m.sequence_attempts,
            phase_trace: m.phase_trace,
            stop,
            checkpoint_error: dctx.checkpoint_error,
            fault_report_error: dctx.report_error,
            telemetry,
        };
        self.observer.on_event(&finished);
        Some((result, final_snapshot))
    }

    /// One machine tick: start an invocation, evolve one generation, or
    /// commit a finished invocation's winner.
    fn tick(&mut self, m: &mut MachineState, dctx: &mut DriverCtx) {
        let has_ga = m.pos.active_ga().is_some();
        match (&m.pos, has_ga) {
            (MachinePos::Done, _) => {}
            (MachinePos::Vectors { .. }, false) => self.start_vector_invocation(m, dctx),
            (MachinePos::Sequences { .. }, false) => self.start_sequence_invocation(m, dctx),
            (_, true) => self.tick_ga(m, dctx),
        }
    }

    /// Advances the active GA by one generation, or commits it when done.
    fn tick_ga(&mut self, m: &mut MachineState, dctx: &mut DriverCtx) {
        let (phase_no, in_vectors) = match &m.pos {
            MachinePos::Vectors { phase, .. } => (phase.number(), true),
            MachinePos::Sequences { .. } => (4, false),
            MachinePos::Done => unreachable!("ticked a finished machine"),
        };
        let mut active = match &mut m.pos {
            MachinePos::Vectors { ga, .. } | MachinePos::Sequences { ga, .. } => {
                ga.take().expect("tick_ga requires an active GA")
            }
            MachinePos::Done => unreachable!(),
        };
        if active.engine.is_done(&active.state) {
            if in_vectors {
                self.commit_vector(m, dctx, active);
            } else {
                self.commit_sequence(m, dctx, active);
            }
            return;
        }
        let probe = self.probe();
        let gen_start = self.instruments.is_some().then(Instant::now);
        let gen_span = probe.as_ref().map(|p| p.enter(SpanKind::Generation));
        let stats = {
            let mut path = self.eval_path(dctx);
            let ctx = Arc::clone(&active.ctx);
            active
                .engine
                .advance(&mut active.state, &mut active.run_rng, |batch| {
                    eval_batch(&mut path, &ctx, batch)
                })
        };
        // Breeding time is measured inside the engine (the span machinery
        // cannot straddle the eval closure), recorded here as a leaf under
        // the still-open generation span.
        if let Some(p) = &probe {
            p.record(SpanKind::Breed, Duration::from_nanos(stats.breed_ns));
        }
        drop(gen_span);
        if let (Some(start), Some(instruments)) = (gen_start, &self.instruments) {
            instruments
                .metrics
                .generation_wall_ns
                .observe(start.elapsed().as_nanos() as u64);
        }
        self.note_generation(m, phase_no, &stats);
        match &mut m.pos {
            MachinePos::Vectors { ga, .. } | MachinePos::Sequences { ga, .. } => {
                *ga = Some(active);
            }
            MachinePos::Done => unreachable!(),
        }
    }

    /// Starts one vector-phase GA invocation — or, when the vector loop's
    /// exit conditions hold, moves on to sequence generation instead.
    fn start_vector_invocation(&mut self, m: &mut MachineState, dctx: &mut DriverCtx) {
        if m.test_set.len() >= self.config.max_vectors || self.sim.remaining() == 0 {
            m.pos = MachinePos::Sequences {
                len_idx: 0,
                failures: 0,
                ga: None,
            };
            return;
        }
        let phase = match &m.pos {
            MachinePos::Vectors { phase, .. } => *phase,
            _ => unreachable!("start_vector_invocation outside the vector phases"),
        };
        let phase_no = phase.number();
        self.note_phase(m, dctx, phase_no);
        m.eval_epoch += 1;
        let sample = self.draw_sample();
        let scale = FitnessScale {
            faults: sample.len(),
            flip_flops: dctx.nffs,
            nodes: self.circuit.num_gates(),
        };
        let ctx = Arc::new(EvalContext {
            epoch: m.eval_epoch,
            checkpoint: self.sim.checkpoint(),
            job: EvalJob::Vector {
                phase,
                sample,
                scale,
                pis: dctx.pis,
            },
        });
        let mut run_rng = self.rng.fork();
        // Initial population: mostly random, seeded with the all-zero
        // and all-one vectors and the previously committed vector (the
        // paper: the initial population "may also be supplied by the
        // user"). The constant vectors matter for initialization-hard
        // circuits, where holding a reset-friendly input for several
        // frames is the only way to keep partial state from decaying
        // back to X.
        let mut initial: Vec<Chromosome> = Vec::with_capacity(self.config.vector_population);
        initial.push(Chromosome::from_bits(vec![false; dctx.pis]));
        initial.push(Chromosome::from_bits(vec![true; dctx.pis]));
        if let Some(prev) = m.test_set.last() {
            initial.push(Chromosome::from_bits(
                prev.iter().map(|&v| v == Logic::One).collect(),
            ));
        }
        while initial.len() < self.config.vector_population {
            initial.push(Chromosome::random(dctx.pis, &mut run_rng));
        }
        let engine = GaEngine::new(self.vector_ga_config());
        let gen_start = self.instruments.is_some().then(Instant::now);
        let gen_span = self.probe().map(|p| p.enter(SpanKind::Generation));
        let (state, first) = {
            let mut path = self.eval_path(dctx);
            let ctx = Arc::clone(&ctx);
            engine.begin(initial, |batch| eval_batch(&mut path, &ctx, batch))
        };
        drop(gen_span);
        if let (Some(start), Some(instruments)) = (gen_start, &self.instruments) {
            instruments
                .metrics
                .generation_wall_ns
                .observe(start.elapsed().as_nanos() as u64);
        }
        self.note_generation(m, phase_no, &first);
        match &mut m.pos {
            MachinePos::Vectors { ga, .. } => {
                *ga = Some(ActiveGa {
                    engine,
                    state,
                    run_rng,
                    ctx,
                })
            }
            _ => unreachable!(),
        }
    }

    /// Commits the winner of a finished vector-phase invocation with a
    /// full-list simulation (twice in phase 1, matching the two-frame
    /// evaluation) and moves Figure 2's phase machine.
    fn commit_vector(&mut self, m: &mut MachineState, dctx: &mut DriverCtx, active: ActiveGa) {
        let (phase, mut noncontributing, mut best_known_ffs, mut init_stall) = match &m.pos {
            MachinePos::Vectors {
                phase,
                noncontributing,
                best_known_ffs,
                init_stall,
                ..
            } => (*phase, *noncontributing, *best_known_ffs, *init_stall),
            _ => unreachable!("commit_vector outside the vector phases"),
        };
        let result = active.engine.finish(active.state);
        self.sim.restore(&active.ctx.checkpoint);
        let vector = decode_vector(&result.best.chromosome, dctx.pis);
        let report = if phase == Phase::Initialization {
            let first = self.sim.step(&vector);
            m.test_set.push(vector.clone());
            m.phase_vectors[0] += 1;
            m.phase_trace.push(1);
            self.emit_commit(dctx, 1, m.test_set.len(), self.sim.detected_count(), &first);
            self.sim.step(&vector)
        } else {
            self.sim.step(&vector)
        };
        m.test_set.push(vector);
        m.phase_vectors[phase.number() as usize - 1] += 1;
        m.phase_trace.push(phase.number());
        self.emit_commit(
            dctx,
            phase.number(),
            m.test_set.len(),
            self.sim.detected_count(),
            &report,
        );

        let mut next = phase;
        let mut to_sequences = false;
        match phase {
            Phase::Initialization => {
                let known = self.sim.good().known_next_state();
                if known == dctx.nffs {
                    next = Phase::VectorGeneration;
                } else if known > best_known_ffs {
                    best_known_ffs = known;
                    init_stall = 0;
                } else {
                    init_stall += 1;
                    if init_stall >= dctx.progress_limit {
                        // Some flip-flops are uninitializable; move on.
                        next = Phase::VectorGeneration;
                    }
                }
            }
            Phase::VectorGeneration => {
                if report.detected() == 0 {
                    next = Phase::StalledVectorGeneration;
                    noncontributing = 1;
                }
            }
            Phase::StalledVectorGeneration => {
                if report.detected() > 0 {
                    next = Phase::VectorGeneration;
                    noncontributing = 0;
                } else {
                    noncontributing += 1;
                    if noncontributing > dctx.progress_limit {
                        // Progress limit exhausted: on to sequences.
                        to_sequences = true;
                    }
                }
            }
            Phase::SequenceGeneration => unreachable!("not in sequence phase"),
        }
        m.pos = if to_sequences {
            MachinePos::Sequences {
                len_idx: 0,
                failures: 0,
                ga: None,
            }
        } else {
            MachinePos::Vectors {
                phase: next,
                noncontributing,
                best_known_ffs,
                init_stall,
                ga: None,
            }
        };
    }

    /// Starts one sequence-phase GA invocation, advancing through the
    /// length schedule past exhausted lengths — or finishes the flow when
    /// no workable length remains.
    fn start_sequence_invocation(&mut self, m: &mut MachineState, dctx: &mut DriverCtx) {
        let (mut len_idx, mut failures) = match &m.pos {
            MachinePos::Sequences {
                len_idx, failures, ..
            } => (*len_idx, *failures),
            _ => unreachable!("start_sequence_invocation outside phase 4"),
        };
        // Mirror the monolithic for/while nest: a length is abandoned after
        // max_sequence_failures consecutive failures, and any length is
        // unworkable once every fault is detected or the vector cap would
        // be crossed.
        let len = loop {
            let Some(&len) = dctx.seq_lens.get(len_idx) else {
                m.pos = MachinePos::Done;
                return;
            };
            if failures < self.config.max_sequence_failures
                && self.sim.remaining() > 0
                && m.test_set.len() + len <= self.config.max_vectors
            {
                break len;
            }
            len_idx += 1;
            failures = 0;
        };
        self.note_phase(m, dctx, 4);
        m.eval_epoch += 1;
        let sample = self.draw_sample();
        let scale = FitnessScale {
            faults: sample.len(),
            flip_flops: dctx.nffs,
            nodes: self.circuit.num_gates(),
        };
        let ctx = Arc::new(EvalContext {
            epoch: m.eval_epoch,
            checkpoint: self.sim.checkpoint(),
            job: EvalJob::Sequence {
                frames: len,
                sample,
                scale,
                pis: dctx.pis,
            },
        });
        let mut run_rng = self.rng.fork();
        let initial: Vec<Chromosome> = (0..self.config.sequence_population)
            .map(|_| Chromosome::random(len * dctx.pis, &mut run_rng))
            .collect();
        let engine = GaEngine::new(self.sequence_ga_config(dctx.pis));
        let gen_start = self.instruments.is_some().then(Instant::now);
        let gen_span = self.probe().map(|p| p.enter(SpanKind::Generation));
        let (state, first) = {
            let mut path = self.eval_path(dctx);
            let ctx = Arc::clone(&ctx);
            engine.begin(initial, |batch| eval_batch(&mut path, &ctx, batch))
        };
        drop(gen_span);
        if let (Some(start), Some(instruments)) = (gen_start, &self.instruments) {
            instruments
                .metrics
                .generation_wall_ns
                .observe(start.elapsed().as_nanos() as u64);
        }
        self.note_generation(m, 4, &first);
        m.pos = MachinePos::Sequences {
            len_idx,
            failures,
            ga: Some(ActiveGa {
                engine,
                state,
                run_rng,
                ctx,
            }),
        };
    }

    /// Commits a finished sequence invocation's winner if it detects
    /// anything (full simulation), otherwise counts a failure.
    fn commit_sequence(&mut self, m: &mut MachineState, dctx: &mut DriverCtx, active: ActiveGa) {
        let (len_idx, mut failures) = match &m.pos {
            MachinePos::Sequences {
                len_idx, failures, ..
            } => (*len_idx, *failures),
            _ => unreachable!("commit_sequence outside phase 4"),
        };
        let len = match &active.ctx.job {
            EvalJob::Sequence { frames, .. } => *frames,
            EvalJob::Vector { .. } => unreachable!("sequence commit with a vector job"),
        };
        let result = active.engine.finish(active.state);
        m.sequence_attempts += 1;

        // Commit with full simulation only if it helps. The whole sequence
        // goes through the batched window path: one good-machine pass over
        // all frames, then each fault group replays the window in one go.
        self.sim.restore(&active.ctx.checkpoint);
        let seq: Vec<_> = (0..len)
            .map(|frame| decode_frame(&result.best.chromosome, dctx.pis, frame))
            .collect();
        let reports = self.sim.step_window(&seq);
        let detected: usize = reports.iter().map(|r| r.detected()).sum();
        if detected > 0 {
            m.phase_vectors[3] += seq.len();
            m.phase_trace.extend(std::iter::repeat_n(4u8, seq.len()));
            let mut running = self.sim.detected_count() - detected;
            for (offset, report) in reports.iter().enumerate() {
                running += report.detected();
                self.emit_commit(dctx, 4, m.test_set.len() + offset + 1, running, report);
            }
            m.test_set.extend(seq);
            failures = 0;
        } else {
            self.sim.restore(&active.ctx.checkpoint);
            failures += 1;
        }
        m.pos = MachinePos::Sequences {
            len_idx,
            failures,
            ga: None,
        };
    }

    /// Borrows the per-batch evaluation machinery (simulator, counters,
    /// pool, packed phase-1 simulator, memoization layer, scratch) for one
    /// GA eval closure.
    fn eval_path<'a>(&'a mut self, dctx: &'a mut DriverCtx) -> EvalPath<'a> {
        let probe = self.probe();
        let instruments = self.instruments.clone();
        EvalPath {
            raw: RawEval {
                sim: &mut self.sim,
                counters: &self.counters,
                pool: dctx.pool.as_ref(),
                packed: dctx.packed.as_mut(),
                scratch: &mut dctx.scratch,
            },
            memo: dctx.memo.as_mut(),
            paranoid: self.config.paranoid_cache,
            instruments,
            probe,
        }
    }

    /// Counts one evaluated GA generation and emits its event.
    fn note_generation(&self, m: &mut MachineState, phase_no: u8, stats: &GenerationStats) {
        m.ga_generations += 1;
        m.ga_evaluations += stats.evaluations;
        self.observer.on_event(&RunEvent::GaGenerationEvaluated {
            phase: phase_no,
            generation: stats.generation,
            best: stats.best,
            mean: stats.mean,
            evaluations: stats.evaluations,
        });
    }

    /// Emits `PhaseEntered` on phase changes and attributes the elapsed
    /// wall clock to the phase being left.
    fn note_phase(&self, m: &mut MachineState, dctx: &mut DriverCtx, phase_no: u8) {
        if dctx.emitted_phase != Some(phase_no) {
            if let Some(prev) = dctx.emitted_phase {
                m.phase_time[prev as usize - 1] += dctx.phase_started.elapsed();
            }
            dctx.phase_started = Instant::now();
            dctx.emitted_phase = Some(phase_no);
            self.observer.on_event(&RunEvent::PhaseEntered {
                phase: phase_no,
                vectors: m.test_set.len(),
            });
        }
    }

    /// Folds the current phase's in-progress wall clock into the machine
    /// state (so checkpoints and results carry it) and restarts the timer.
    fn flush_phase_time(m: &mut MachineState, dctx: &mut DriverCtx) {
        if let Some(p) = dctx.emitted_phase {
            m.phase_time[p as usize - 1] += dctx.phase_started.elapsed();
            dctx.phase_started = Instant::now();
        }
    }

    /// Emits the `VectorCommitted` event for one committed frame, plus one
    /// `FaultDetected` event per fault the frame newly detected, and
    /// streams the detections to the fault report when one is attached.
    fn emit_commit(
        &self,
        dctx: &mut DriverCtx,
        phase: u8,
        vectors: usize,
        detected_total: usize,
        report: &StepReport,
    ) {
        let total = self.sim.fault_list().len();
        self.observer.on_event(&RunEvent::VectorCommitted {
            phase,
            vectors,
            detected_new: report.detected(),
            detected_total,
            coverage: if total > 0 {
                detected_total as f64 / total as f64
            } else {
                0.0
            },
        });
        for &fid in &report.newly_detected {
            let site = self
                .sim
                .fault_list()
                .display(fid, &self.circuit)
                .to_string();
            if let Some(w) = dctx.report.as_mut() {
                if let Err(e) = w.record(fid, &site, (vectors - 1) as u32, u32::from(phase)) {
                    dctx.report_error = Some(format!("failed to stream fault report: {e}"));
                    dctx.report = None;
                }
            }
            self.observer.on_event(&RunEvent::FaultDetected {
                fault: fid.index() as u32,
                site,
                vector: vectors - 1,
            });
        }
    }

    /// Builds the serializable snapshot of the current machine state. For a
    /// stop mid-invocation the simulator state is exported from the
    /// invocation-start checkpoint — the live simulator may carry scratch
    /// state from the last candidate evaluated on the serial path.
    fn build_snapshot(&self, m: &MachineState, elapsed: Duration) -> RunSnapshot {
        let pos = match &m.pos {
            MachinePos::Vectors {
                phase,
                noncontributing,
                best_known_ffs,
                init_stall,
                ga,
            } => SnapshotPos::Vectors {
                phase: phase.number(),
                noncontributing: *noncontributing as u64,
                best_known_ffs: *best_known_ffs as u64,
                init_stall: *init_stall as u64,
                ga: ga.as_ref().map(snapshot_ga),
            },
            MachinePos::Sequences {
                len_idx,
                failures,
                ga,
            } => SnapshotPos::Sequences {
                len_idx: *len_idx as u64,
                failures: *failures as u64,
                ga: ga.as_ref().map(snapshot_ga),
            },
            MachinePos::Done => SnapshotPos::Done,
        };
        let sim = match m.pos.active_ga() {
            Some(ga) => ga.ctx.checkpoint.export_state(),
            None => self.sim.export_state(),
        };
        RunSnapshot {
            circuit: self.circuit.name().to_string(),
            seed: self.config.seed,
            fault_sample: self.config.fault_sample,
            config_digest: config_digest(&self.config),
            total_faults: self.sim.fault_list().len() as u64,
            master_rng: self.rng.state(),
            test_set: m.test_set.clone(),
            phase_vectors: m.phase_vectors.map(|v| v as u64),
            phase_trace: m.phase_trace.clone(),
            ga_evaluations: m.ga_evaluations as u64,
            sequence_attempts: m.sequence_attempts as u64,
            phase_time_ns: m.phase_time.map(|d| d.as_nanos() as u64),
            ga_generations: m.ga_generations,
            elapsed_ns: elapsed.as_nanos() as u64,
            eval_epoch: m.eval_epoch,
            pos,
            sim,
            counters: self.counters.snapshot(),
        }
    }

    /// Writes one checkpoint file and counts it; failures are reported, not
    /// fatal.
    fn save_checkpoint(&self, snap: &RunSnapshot, path: &Path) -> Result<(), String> {
        match snap.save(path) {
            Ok(bytes) => {
                self.counters.record_checkpoint_write(bytes);
                Ok(())
            }
            Err(e) => Err(format!(
                "failed to write checkpoint to {}: {e}",
                path.display()
            )),
        }
    }

    /// Rebuilds the in-memory machine from a decoded snapshot. The
    /// simulator state must already be imported (an in-flight invocation's
    /// context re-checkpoints it).
    fn machine_from_snapshot(&mut self, snap: &RunSnapshot) -> Result<MachineState, ResumeError> {
        let pos = match &snap.pos {
            SnapshotPos::Vectors {
                phase,
                noncontributing,
                best_known_ffs,
                init_stall,
                ga,
            } => {
                let phase = match phase {
                    1 => Phase::Initialization,
                    2 => Phase::VectorGeneration,
                    3 => Phase::StalledVectorGeneration,
                    p => return Err(ResumeError::new(format!("invalid vector phase {p}"))),
                };
                let ga = ga
                    .as_ref()
                    .map(|g| self.revive_ga(g, phase, None, snap.eval_epoch))
                    .transpose()?;
                MachinePos::Vectors {
                    phase,
                    noncontributing: *noncontributing as usize,
                    best_known_ffs: *best_known_ffs as usize,
                    init_stall: *init_stall as usize,
                    ga,
                }
            }
            SnapshotPos::Sequences {
                len_idx,
                failures,
                ga,
            } => {
                let seq_lens = self.config.sequence_lengths(self.seq_depth);
                let len_idx = *len_idx as usize;
                let Some(&len) = seq_lens.get(len_idx) else {
                    return Err(ResumeError::new(format!(
                        "sequence length index {len_idx} is outside the {}-entry schedule",
                        seq_lens.len()
                    )));
                };
                let ga = ga
                    .as_ref()
                    .map(|g| {
                        self.revive_ga(g, Phase::SequenceGeneration, Some(len), snap.eval_epoch)
                    })
                    .transpose()?;
                MachinePos::Sequences {
                    len_idx,
                    failures: *failures as usize,
                    ga,
                }
            }
            SnapshotPos::Done => MachinePos::Done,
        };
        Ok(MachineState {
            test_set: snap.test_set.clone(),
            phase_vectors: snap.phase_vectors.map(|v| v as usize),
            phase_trace: snap.phase_trace.clone(),
            ga_evaluations: snap.ga_evaluations as usize,
            sequence_attempts: snap.sequence_attempts as usize,
            phase_time: snap.phase_time_ns.map(Duration::from_nanos),
            ga_generations: snap.ga_generations,
            elapsed_base: Duration::from_nanos(snap.elapsed_ns),
            eval_epoch: snap.eval_epoch,
            pos,
        })
    }

    /// Rebuilds one in-flight GA invocation: the evaluation context is
    /// re-created from the (just-imported) simulator state, the GA state
    /// and forked RNG come from the snapshot verbatim.
    fn revive_ga(
        &mut self,
        g: &GaSnapshot,
        phase: Phase,
        frames: Option<usize>,
        eval_epoch: u64,
    ) -> Result<ActiveGa, ResumeError> {
        let nfaults = self.sim.fault_list().len() as u32;
        let sample = g
            .sample
            .iter()
            .map(|&id| {
                if id < nfaults {
                    Ok(FaultId(id))
                } else {
                    Err(ResumeError::new(format!(
                        "sampled fault id {id} is outside the {nfaults}-fault list"
                    )))
                }
            })
            .collect::<Result<Vec<FaultId>, ResumeError>>()?;
        let pis = self.circuit.num_inputs();
        let scale = FitnessScale {
            faults: sample.len(),
            flip_flops: self.circuit.num_dffs(),
            nodes: self.circuit.num_gates(),
        };
        let job = match frames {
            None => EvalJob::Vector {
                phase,
                sample,
                scale,
                pis,
            },
            Some(frames) => EvalJob::Sequence {
                frames,
                sample,
                scale,
                pis,
            },
        };
        let expected_bits = frames.unwrap_or(1) * pis;
        let revive_individual = |ind: &SnapshotIndividual| -> Result<Evaluated, ResumeError> {
            if ind.bits.len() != expected_bits {
                return Err(ResumeError::new(format!(
                    "chromosome has {} bits, expected {expected_bits}",
                    ind.bits.len()
                )));
            }
            Ok(Evaluated {
                chromosome: Chromosome::from_bits(ind.bits.clone()),
                fitness: ind.fitness,
            })
        };
        let state = GaRunState {
            population: g
                .population
                .iter()
                .map(revive_individual)
                .collect::<Result<Vec<_>, _>>()?,
            best: revive_individual(&g.best)?,
            generation: g.generation as usize,
            evaluations: g.evaluations as usize,
            best_history: g.best_history.clone(),
            mean_history: g.mean_history.clone(),
            diversity_history: g.diversity_history.clone(),
        };
        if state.population.is_empty() {
            return Err(ResumeError::new("in-flight GA population is empty"));
        }
        let engine = GaEngine::new(match frames {
            None => self.vector_ga_config(),
            Some(_) => self.sequence_ga_config(pis),
        });
        Ok(ActiveGa {
            engine,
            state,
            run_rng: Rng::from_state(g.rng),
            ctx: Arc::new(EvalContext {
                epoch: eval_epoch,
                checkpoint: self.sim.checkpoint(),
                job,
            }),
        })
    }

    fn vector_ga_config(&self) -> GaConfig {
        GaConfig {
            population_size: self.config.vector_population,
            generations: self.config.generations,
            selection: self.config.selection,
            crossover: self.config.crossover,
            crossover_probability: self.config.crossover_probability,
            mutation_rate: self.config.vector_mutation,
            coding: Coding::Binary,
            generation_gap: self.config.generation_gap,
            elitism: 0,
        }
    }

    fn sequence_ga_config(&self, pis: usize) -> GaConfig {
        GaConfig {
            population_size: self.config.sequence_population,
            generations: self.config.generations,
            selection: self.config.selection,
            crossover: self.config.crossover,
            crossover_probability: self.config.crossover_probability,
            mutation_rate: self.config.sequence_mutation,
            coding: match self.config.coding {
                Coding::Binary => Coding::Binary,
                Coding::Nonbinary { .. } => Coding::Nonbinary { bits_per_char: pis },
            },
            generation_gap: self.config.generation_gap,
            elitism: 0,
        }
    }

    /// Draws the fitness-evaluation fault sample from the active list.
    fn draw_sample(&mut self) -> Vec<FaultId> {
        let active = self.sim.active_faults();
        let want = match self.config.fault_sample {
            FaultSample::Full => return active.to_vec(),
            other => other.size_for(active.len()),
        };
        if want >= active.len() {
            return active.to_vec();
        }
        let mut pool = active.to_vec();
        self.rng.shuffle(&mut pool);
        pool.truncate(want);
        pool.sort_unstable();
        pool
    }
}

/// Serializes one in-flight invocation.
fn snapshot_ga(ga: &ActiveGa) -> GaSnapshot {
    let sample = match &ga.ctx.job {
        EvalJob::Vector { sample, .. } | EvalJob::Sequence { sample, .. } => {
            sample.iter().map(|f| f.index() as u32).collect()
        }
    };
    let snap_individual = |e: &Evaluated| SnapshotIndividual {
        bits: e.chromosome.bits().to_vec(),
        fitness: e.fitness,
    };
    GaSnapshot {
        sample,
        rng: ga.run_rng.state(),
        generation: ga.state.generation as u64,
        evaluations: ga.state.evaluations as u64,
        population: ga.state.population.iter().map(snap_individual).collect(),
        best: snap_individual(&ga.state.best),
        best_history: ga.state.best_history.clone(),
        mean_history: ga.state.mean_history.clone(),
        diversity_history: ga.state.diversity_history.clone(),
    }
}

/// The packed phase-1 good-machine simulator at the width the run's
/// simulation backend selects. Phase-1 scores are per-candidate and
/// lane-wise identical across widths, so this is — like the backend itself —
/// pure mechanism.
enum PackedGood {
    Narrow(PackedGoodSim<Pv64>),
    Wide(PackedGoodSim<Pv256>),
}

impl PackedGood {
    /// One lane per candidate: under `auto`, populations of up to 128
    /// candidates score on 64 lanes.
    fn new(backend: SimBackend, population: usize, circuit: Arc<Circuit>) -> Self {
        match backend.for_lanes(population) {
            SimBackend::Scalar64 => PackedGood::Narrow(PackedGoodSim::new(circuit)),
            _ => PackedGood::Wide(PackedGoodSim::new(circuit)),
        }
    }
}

/// The raw (unmemoized) evaluation machinery for one GA batch: the packed
/// good-machine simulator in phase 1, the persistent worker pool when
/// configured, or the serial scoring loop. All paths are bit-identical; the
/// choice is pure mechanism.
struct RawEval<'a> {
    sim: &'a mut FaultSim,
    counters: &'a SimCounters,
    pool: Option<&'a EvalPool>,
    packed: Option<&'a mut PackedGood>,
    scratch: &'a mut Vec<Logic>,
}

impl RawEval<'_> {
    fn eval(&mut self, ctx: &Arc<EvalContext>, batch: &[Chromosome]) -> Vec<f64> {
        let (is_init, pis, scale) = match &ctx.job {
            EvalJob::Vector {
                phase, scale, pis, ..
            } => (*phase == Phase::Initialization, *pis, *scale),
            EvalJob::Sequence { scale, pis, .. } => (false, *pis, *scale),
        };
        if is_init {
            // Phase 1 needs no fault simulation, so score a lane group of
            // candidates per packed good-machine pass. The generator's
            // simulator is never touched here: it stays at the checkpoint
            // state the packed simulator reseeds from each batch.
            let packed = self
                .packed
                .as_deref_mut()
                .expect("phase 1 only runs on circuits with flip-flops");
            match packed {
                PackedGood::Narrow(p) => {
                    packed_phase1_scores(p, self.sim.good(), self.counters, batch, pis, scale)
                }
                PackedGood::Wide(p) => {
                    packed_phase1_scores(p, self.sim.good(), self.counters, batch, pis, scale)
                }
            }
        } else if let Some(pool) = self.pool {
            pool.evaluate(ctx, batch)
        } else {
            evaluate_candidates(self.sim, ctx, batch, self.scratch)
        }
    }
}

/// One invocation's full evaluation path: the raw machinery plus the
/// optional memoization layer ([`EvalMemo`]) and the `--paranoid-cache`
/// cross-check.
struct EvalPath<'a> {
    raw: RawEval<'a>,
    memo: Option<&'a mut EvalMemo>,
    paranoid: bool,
    /// The shared instrumentation bundle, for batch/cache histograms.
    instruments: Option<Arc<Instruments>>,
    /// The generator thread's span handle (batches run on this thread;
    /// pool workers record their own sim-step spans via simulator clones).
    probe: Option<SpanHandle>,
}

/// Scores one GA batch, routing it through the memoization layer when
/// enabled. Memoized and raw scores are bit-identical: the cache and dedup
/// layers only share scores between bit-equal chromosomes, and every
/// simulated candidate is scored by [`evaluate_candidates`] (a phase-4
/// sequence as one window, several candidates to a fault group), serially
/// or on a pool worker. `--paranoid-cache` re-scores each candidate alone
/// with [`evaluate_candidate`].
fn eval_batch(path: &mut EvalPath<'_>, ctx: &Arc<EvalContext>, batch: &[Chromosome]) -> Vec<f64> {
    let EvalPath {
        raw,
        memo,
        paranoid,
        instruments,
        probe,
    } = path;
    let batch_start = instruments.is_some().then(Instant::now);
    let batch_span = probe.as_ref().map(|p| p.enter(SpanKind::EvalBatch));
    let scores = match memo {
        None => raw.eval(ctx, batch),
        Some(memo) => {
            let counters = raw.counters;
            // Cache-lookup time is the memo layer's overhead: total memoized
            // evaluation time minus the raw simulation time underneath it.
            // It cannot own a span guard (the raw eval runs inside the
            // closure), so it is recorded as an already-measured leaf.
            let memo_start = batch_start.is_some().then(Instant::now);
            let mut raw_ns = 0u64;
            let scores = memo.evaluate(ctx, batch, Some(counters), |work| {
                let raw_start = memo_start.is_some().then(Instant::now);
                let result = raw.eval(ctx, work);
                if let Some(start) = raw_start {
                    raw_ns += start.elapsed().as_nanos() as u64;
                }
                result
            });
            if let Some(start) = memo_start {
                let lookup_ns = (start.elapsed().as_nanos() as u64).saturating_sub(raw_ns);
                if let Some(p) = &probe {
                    p.record(SpanKind::CacheLookup, Duration::from_nanos(lookup_ns));
                }
                if let Some(instruments) = &instruments {
                    instruments.metrics.cache_lookup_ns.observe(lookup_ns);
                }
            }
            scores
        }
    };
    drop(batch_span);
    if let (Some(start), Some(instruments)) = (batch_start, &instruments) {
        instruments
            .metrics
            .batch_latency_ns
            .observe(start.elapsed().as_nanos() as u64);
    }
    if *paranoid {
        for (chrom, &score) in batch.iter().zip(&scores) {
            let again = evaluate_candidate(raw.sim, ctx, chrom, raw.scratch);
            assert_eq!(
                score.to_bits(),
                again.to_bits(),
                "--paranoid-cache: memoized score {score} != recomputed {again}"
            );
        }
        // The packed phase-1 path reseeds from the live simulator without
        // restoring first, so put back the invocation checkpoint the
        // recomputation loop just stepped past.
        raw.sim.restore(&ctx.checkpoint);
    }
    scores
}

/// Scores a phase-1 batch with the packed good-machine simulator:
/// ⌈batch/`P::LANES`⌉ two-frame passes instead of two serial good-machine
/// steps per candidate. Bit-identical to the scalar path (and across
/// widths) because packed evaluation is lane-wise identical to
/// `eval_scalar`, so `phase1` sees the same flip-flop statistics.
fn packed_phase1_scores<P: PackedValue>(
    packed: &mut PackedGoodSim<P>,
    good: &GoodSim,
    counters: &SimCounters,
    batch: &[Chromosome],
    pis: usize,
    scale: FitnessScale,
) -> Vec<f64> {
    let mut scores = Vec::with_capacity(batch.len());
    let mut pi_words = vec![P::ALL_X; pis];
    for chunk in batch.chunks(P::LANES) {
        packed.seed_from(good);
        pi_words.fill(P::ALL_X);
        for (lane, chrom) in chunk.iter().enumerate() {
            for (i, word) in pi_words.iter_mut().enumerate() {
                word.set_lane(lane, Logic::from_bool(chrom.bit(i)));
            }
        }
        // Two-frame hold, matching the serial phase-1 evaluation.
        packed.apply(&pi_words);
        packed.apply(&pi_words);
        counters.record_packed_phase1(2);
        for report in packed.phase1_stats(chunk.len()) {
            scores.push(phase1(&report, scale));
        }
    }
    scores
}

fn decode_vector(chrom: &Chromosome, pis: usize) -> Vec<Logic> {
    let mut out = Vec::with_capacity(pis);
    decode_vector_into(chrom, pis, &mut out);
    out
}

fn decode_frame(chrom: &Chromosome, pis: usize, frame: usize) -> Vec<Logic> {
    let mut out = Vec::with_capacity(pis);
    decode_frame_into(chrom, pis, frame, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_on(name: &str, seed: u64) -> TestGenResult {
        let circuit = Arc::new(gatest_netlist::benchmarks::iscas89(name).unwrap());
        let config = GatestConfig::for_circuit(&circuit).with_seed(seed);
        TestGenerator::new(circuit, config).run()
    }

    #[test]
    fn s27_reaches_high_coverage() {
        let result = run_on("s27", 3);
        assert!(
            result.fault_coverage() > 0.9,
            "coverage {:.3}",
            result.fault_coverage()
        );
        assert!(result.vectors() > 0);
        assert!(result.is_complete());
        assert!(!result.budget_exhausted());
    }

    #[test]
    fn test_set_replays_to_the_same_coverage() {
        let circuit = Arc::new(gatest_netlist::benchmarks::iscas89("s27").unwrap());
        let config = GatestConfig::for_circuit(&circuit).with_seed(9);
        let mut tg = TestGenerator::new(Arc::clone(&circuit), config);
        let result = tg.run();

        // Replay the produced test set through a fresh fault simulator.
        let mut sim = FaultSim::new(circuit);
        for v in &result.test_set {
            sim.step(v);
        }
        assert_eq!(sim.detected_count(), result.detected);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run_on("s27", 11);
        let b = run_on("s27", 11);
        assert_eq!(a.test_set, b.test_set);
        assert_eq!(a.detected, b.detected);
    }

    #[test]
    fn different_seeds_vary() {
        let a = run_on("s27", 1);
        let b = run_on("s27", 2);
        assert!(
            a.test_set != b.test_set || a.vectors() != b.vectors(),
            "two seeds should explore differently"
        );
    }

    #[test]
    fn phase_counters_sum_to_test_set() {
        let r = run_on("s27", 5);
        assert_eq!(r.phase_vectors.iter().sum::<usize>(), r.vectors());
    }

    #[test]
    fn initialization_phase_runs_first() {
        let r = run_on("s27", 7);
        assert!(
            r.phase_vectors[0] >= 1,
            "s27 starts with all flip-flops at X, so phase 1 must commit at least one vector"
        );
    }

    #[test]
    fn phase_trace_follows_figure_2() {
        // Figure 2's machine: phase 1 first (while flip-flops initialize),
        // never returning to it; phases 2 and 3 interleave; phase 4 only at
        // the end.
        let r = run_on("s298", 2);
        assert_eq!(r.phase_trace.len(), r.vectors());
        let first_non_init = r.phase_trace.iter().position(|&p| p != 1);
        if let Some(pos) = first_non_init {
            assert!(
                r.phase_trace[pos..].iter().all(|&p| p != 1),
                "phase 1 must not reappear"
            );
        }
        let first_seq = r.phase_trace.iter().position(|&p| p == 4);
        if let Some(pos) = first_seq {
            assert!(
                r.phase_trace[pos..].iter().all(|&p| p == 4),
                "sequence vectors come last"
            );
        }
        // A phase-3 vector is only entered after a non-contributing
        // phase-2 vector, so 3 never directly follows 1.
        for w in r.phase_trace.windows(2) {
            assert!(
                !(w[0] == 1 && w[1] == 3),
                "phase 3 cannot follow phase 1 directly"
            );
        }
    }

    #[test]
    fn fault_sampling_still_achieves_coverage() {
        let circuit = Arc::new(gatest_netlist::benchmarks::iscas89("s27").unwrap());
        let mut config = GatestConfig::for_circuit(&circuit).with_seed(13);
        config.fault_sample = FaultSample::Count(10);
        let result = TestGenerator::new(circuit, config).run();
        assert!(
            result.fault_coverage() > 0.8,
            "coverage {:.3}",
            result.fault_coverage()
        );
    }

    #[test]
    fn parallel_evaluation_is_bit_identical_and_faster_logically() {
        // Any worker count must reproduce the serial run exactly.
        let circuit = Arc::new(gatest_netlist::benchmarks::iscas89("s298").unwrap());
        let run = |workers: usize| {
            let mut config = GatestConfig::for_circuit(&circuit)
                .with_seed(21)
                .with_workers(workers);
            config.fault_sample = FaultSample::Count(60);
            TestGenerator::new(Arc::clone(&circuit), config).run()
        };
        let serial = run(1);
        for workers in [2, 4, 8] {
            let pooled = run(workers);
            assert_eq!(serial.test_set, pooled.test_set, "workers={workers}");
            assert_eq!(serial.detected, pooled.detected, "workers={workers}");
            assert_eq!(
                serial.ga_evaluations, pooled.ga_evaluations,
                "workers={workers}"
            );
        }
    }

    /// A suspended run holds no pool threads: the pool lives only while a
    /// call drives the run, and each slice rebuilds it. Pooled slices still
    /// end exactly where the serial uninterrupted run does.
    #[test]
    fn suspended_runs_drop_the_pool_and_stay_bit_identical() {
        let circuit = Arc::new(gatest_netlist::benchmarks::iscas89("s298").unwrap());
        let config = |workers: usize| {
            let mut config = GatestConfig::for_circuit(&circuit)
                .with_seed(21)
                .with_workers(workers)
                .with_max_evals(3_000);
            config.fault_sample = FaultSample::Count(60);
            config
        };
        let serial = TestGenerator::new(Arc::clone(&circuit), config(1)).run();
        let mut pooled = TestGenerator::new(Arc::clone(&circuit), config(2));
        let controls = RunControls {
            max_ticks: Some(5),
            ..RunControls::default()
        };
        let mut suspensions = 0;
        let result = loop {
            match pooled.run_slice(&controls) {
                Some(result) => break result,
                None => {
                    let run = pooled.suspended.as_ref().expect("kept");
                    assert!(run.dctx.pool.is_none(), "a suspended run holds no pool");
                    suspensions += 1;
                }
            }
        };
        assert!(suspensions > 10, "{suspensions}");
        assert!(result.budget_exhausted());
        assert_eq!(
            crate::report::result_to_json(&result),
            crate::report::result_to_json(&serial)
        );
    }

    /// With memoization on, `eval_batch` simulates each distinct phase-4
    /// candidate as one whole window: candidates that share all but their
    /// last frame are not stepped through a shared prefix, so the
    /// simulator steps exactly (distinct candidates) × frames frames, and
    /// every score is bit-equal to a per-candidate `evaluate_candidate`.
    #[test]
    fn eval_batch_steps_every_distinct_sequence_as_one_window() {
        let circuit = Arc::new(gatest_netlist::benchmarks::iscas89("s298").unwrap());
        let pis = circuit.num_inputs();
        let counters = Arc::new(SimCounters::new());
        let mut sim = FaultSim::new(Arc::clone(&circuit));
        sim.set_counters(Some(Arc::clone(&counters)));
        let mut rng = Rng::new(77);
        for _ in 0..4 {
            let v: Vec<Logic> = (0..pis).map(|_| Logic::from_bool(rng.coin())).collect();
            sim.step(&v);
        }
        let frames = 5;
        let sample = sim.active_faults().to_vec();
        let scale = FitnessScale {
            faults: sample.len(),
            flip_flops: circuit.num_dffs(),
            nodes: circuit.num_gates(),
        };
        let ctx = Arc::new(EvalContext {
            epoch: 1,
            checkpoint: sim.checkpoint(),
            job: EvalJob::Sequence {
                frames,
                sample,
                scale,
                pis,
            },
        });

        // Six twin pairs that differ only in their last frame, five
        // unrelated candidates, and one exact duplicate.
        let mut rng = Rng::new(41);
        let mut batch = Vec::new();
        for _ in 0..6 {
            let base = Chromosome::random(frames * pis, &mut rng);
            let mut twin = base.clone();
            let last = (frames - 1) * pis;
            for b in &mut twin.bits_mut()[last..] {
                *b = rng.coin();
            }
            if twin == base {
                twin.bits_mut()[last] ^= true;
            }
            batch.push(base);
            batch.push(twin);
        }
        batch.extend((0..5).map(|_| Chromosome::random(frames * pis, &mut rng)));
        batch.push(batch[3].clone());
        let distinct = batch
            .iter()
            .map(Chromosome::bits)
            .collect::<std::collections::HashSet<_>>()
            .len();
        assert_eq!(distinct, 17, "the batch's shape is the test's premise");

        let mut flat_sim = sim.clone();
        flat_sim.set_counters(None);
        let mut scratch = Vec::new();
        let expected: Vec<f64> = batch
            .iter()
            .map(|c| evaluate_candidate(&mut flat_sim, &ctx, c, &mut scratch))
            .collect();

        for workers in [0usize, 3] {
            let pool = (workers > 0).then(|| EvalPool::new(&sim, workers));
            let mut memo = EvalMemo::new(64).expect("memoization on");
            let mut batch_sim = sim.clone();
            let mut path = EvalPath {
                raw: RawEval {
                    sim: &mut batch_sim,
                    counters: &counters,
                    pool: pool.as_ref(),
                    packed: None,
                    scratch: &mut scratch,
                },
                memo: Some(&mut memo),
                paranoid: false,
                instruments: None,
                probe: None,
            };
            let before = counters.snapshot();
            let scores = eval_batch(&mut path, &ctx, &batch);
            let after = counters.snapshot();
            assert!(
                expected
                    .iter()
                    .zip(&scores)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "workers={workers}: scores must be bit-equal to evaluate_candidate's"
            );
            assert_eq!(
                after.step_calls - before.step_calls,
                (distinct * frames) as u64,
                "workers={workers}: every distinct candidate steps all its frames"
            );
            assert_eq!(after.dedup_skips - before.dedup_skips, 1);
        }
    }

    /// `eval_batch` scores candidates that share 256-lane fault groups —
    /// two to a group with 100-fault samples, four with 60-fault ones —
    /// bit-equal to `evaluate_candidate` scoring each alone, serially and on
    /// a 3-worker pool, for one-vector (phase 2) and sequence (phase 4)
    /// jobs. A serial batch restores the simulator once.
    #[test]
    fn eval_batch_scores_slotted_candidates_as_each_alone() {
        let circuit = Arc::new(gatest_netlist::benchmarks::iscas89("s298").unwrap());
        let pis = circuit.num_inputs();
        let counters = Arc::new(SimCounters::new());
        let mut sim = FaultSim::new(Arc::clone(&circuit));
        sim.set_counters(Some(Arc::clone(&counters)));
        let mut rng = Rng::new(78);
        for _ in 0..4 {
            let v: Vec<Logic> = (0..pis).map(|_| Logic::from_bool(rng.coin())).collect();
            sim.step(&v);
        }
        for (faults, slots) in [(100, 2), (60, 4)] {
            assert_eq!(sim.backend().score_slots(faults, &circuit), slots);
            let sample = sim.active_faults()[..faults].to_vec();
            let scale = FitnessScale {
                faults,
                flip_flops: circuit.num_dffs(),
                nodes: circuit.num_gates(),
            };
            for frames in [1, 4] {
                let job = if frames == 1 {
                    EvalJob::Vector {
                        phase: Phase::VectorGeneration,
                        sample: sample.clone(),
                        scale,
                        pis,
                    }
                } else {
                    EvalJob::Sequence {
                        frames,
                        sample: sample.clone(),
                        scale,
                        pis,
                    }
                };
                let ctx = Arc::new(EvalContext {
                    epoch: 1,
                    checkpoint: sim.checkpoint(),
                    job,
                });
                let batch: Vec<Chromosome> = (0..15)
                    .map(|_| Chromosome::random(frames * pis, &mut rng))
                    .collect();
                let mut alone_sim = sim.clone();
                alone_sim.set_counters(None);
                let mut scratch = Vec::new();
                let alone: Vec<f64> = batch
                    .iter()
                    .map(|c| evaluate_candidate(&mut alone_sim, &ctx, c, &mut scratch))
                    .collect();
                for workers in [0usize, 3] {
                    let pool = (workers > 0).then(|| EvalPool::new(&sim, workers));
                    let mut batch_sim = sim.clone();
                    let mut path = EvalPath {
                        raw: RawEval {
                            sim: &mut batch_sim,
                            counters: &counters,
                            pool: pool.as_ref(),
                            packed: None,
                            scratch: &mut scratch,
                        },
                        memo: None,
                        paranoid: false,
                        instruments: None,
                        probe: None,
                    };
                    let before = counters.snapshot();
                    let scores = eval_batch(&mut path, &ctx, &batch);
                    let after = counters.snapshot();
                    assert!(
                        alone
                            .iter()
                            .zip(&scores)
                            .all(|(a, b)| a.to_bits() == b.to_bits()),
                        "{faults} faults, {frames} frames, workers={workers}"
                    );
                    assert!(
                        after.wide_groups > before.wide_groups,
                        "{faults} faults, {frames} frames, workers={workers}: slotted groups ran"
                    );
                    if workers == 0 {
                        assert_eq!(after.checkpoint_restores - before.checkpoint_restores, 1);
                    }
                }
            }
        }
    }

    #[test]
    fn combinational_circuits_skip_initialization() {
        // A scanned (flip-flop-free) circuit: phase 1 must commit nothing,
        // and the generator still reaches high coverage.
        let seq = gatest_netlist::benchmarks::iscas89("s27").unwrap();
        let comb = Arc::new(gatest_netlist::scan::full_scan(&seq).circuit().clone());
        let config = GatestConfig::for_circuit(&comb).with_seed(5);
        let result = TestGenerator::new(Arc::clone(&comb), config).run();
        assert_eq!(result.phase_vectors[0], 0, "no initialization phase");
        assert!(
            result.fault_coverage() > 0.85,
            "coverage {:.2}",
            result.fault_coverage()
        );
    }

    #[test]
    fn custom_fault_list_is_respected() {
        use gatest_sim::FaultList;
        let circuit = Arc::new(gatest_netlist::benchmarks::iscas89("s27").unwrap());
        let full = FaultList::full(&circuit);
        let expected = full.len();
        let config = GatestConfig::for_circuit(&circuit).with_seed(2);
        let result = TestGenerator::with_faults(Arc::clone(&circuit), full, config).run();
        assert_eq!(result.total_faults, expected);
        assert!(result.fault_coverage() > 0.9);
    }

    #[test]
    fn fraction_sampling_works_end_to_end() {
        let circuit = Arc::new(gatest_netlist::benchmarks::iscas89("s298").unwrap());
        let mut config = GatestConfig::for_circuit(&circuit).with_seed(8);
        config.fault_sample = FaultSample::Fraction(0.2);
        let result = TestGenerator::new(circuit, config).run();
        assert!(result.fault_coverage() > 0.5, "{}", result.fault_coverage());
    }

    #[test]
    fn coverage_beats_pure_random_on_s298() {
        // The headline claim: GA-guided vectors beat unguided random ones
        // under an equal vector budget.
        let circuit = Arc::new(gatest_netlist::benchmarks::iscas89("s298").unwrap());
        let mut config = GatestConfig::for_circuit(&circuit).with_seed(17);
        config.fault_sample = FaultSample::Count(100);
        let result = TestGenerator::new(Arc::clone(&circuit), config).run();

        let mut random_sim = FaultSim::new(circuit);
        let mut rng = Rng::new(17);
        for _ in 0..result.vectors() {
            let v: Vec<Logic> = (0..3).map(|_| Logic::from_bool(rng.coin())).collect();
            random_sim.step(&v);
        }
        assert!(
            result.detected > random_sim.detected_count(),
            "GA {} vs random {}",
            result.detected,
            random_sim.detected_count()
        );
    }

    #[test]
    fn max_evals_budget_stops_early_with_budget_exhausted() {
        let circuit = Arc::new(gatest_netlist::benchmarks::iscas89("s27").unwrap());
        let full = run_on("s27", 3);
        let config = GatestConfig::for_circuit(&circuit)
            .with_seed(3)
            .with_max_evals(48);
        let partial = TestGenerator::new(Arc::clone(&circuit), config).run();
        assert!(partial.budget_exhausted());
        assert!(partial.ga_evaluations >= 48, "stops at a tick boundary");
        assert!(partial.ga_evaluations < full.ga_evaluations);
        // The budgeted prefix agrees with the full run's committed prefix.
        assert_eq!(
            partial.test_set[..],
            full.test_set[..partial.test_set.len()]
        );
    }

    #[test]
    fn max_ticks_interrupts_deterministically() {
        let circuit = Arc::new(gatest_netlist::benchmarks::iscas89("s27").unwrap());
        let config = GatestConfig::for_circuit(&circuit).with_seed(3);
        let controls = RunControls {
            max_ticks: Some(5),
            ..RunControls::default()
        };
        let a = TestGenerator::new(Arc::clone(&circuit), config.clone()).run_controlled(&controls);
        let b = TestGenerator::new(Arc::clone(&circuit), config).run_controlled(&controls);
        assert_eq!(a.stop, StopCause::Interrupted);
        assert_eq!(a.test_set, b.test_set);
        assert_eq!(a.ga_evaluations, b.ga_evaluations);
    }

    #[test]
    fn stop_flag_interrupts_immediately() {
        let circuit = Arc::new(gatest_netlist::benchmarks::iscas89("s27").unwrap());
        let config = GatestConfig::for_circuit(&circuit).with_seed(3);
        let flag = Arc::new(AtomicBool::new(true));
        let controls = RunControls {
            stop: Some(Arc::clone(&flag)),
            ..RunControls::default()
        };
        let r = TestGenerator::new(circuit, config).run_controlled(&controls);
        assert_eq!(r.stop, StopCause::Interrupted);
        assert_eq!(r.vectors(), 0, "stopped before any tick");
    }

    #[test]
    fn fault_report_stream_replays_to_the_in_memory_result() {
        use gatest_sim::fault_report::parse_fault_report_stream;
        let dir = std::env::temp_dir().join(format!("gatest-gen-fr-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s27-report.jsonl");
        let circuit = Arc::new(gatest_netlist::benchmarks::iscas89("s27").unwrap());
        let config = GatestConfig::for_circuit(&circuit).with_seed(3);
        let controls = RunControls {
            fault_report: Some(path.clone()),
            ..RunControls::default()
        };
        let result =
            TestGenerator::new(Arc::clone(&circuit), config.clone()).run_controlled(&controls);
        assert_eq!(result.fault_report_error, None);
        assert!(
            !path.with_extension("jsonl.tmp").exists(),
            "tmp renamed away"
        );

        // The stream replays exactly to the in-memory result: the summary
        // matches, each detected fault appears exactly once, and every
        // record points at a committed vector.
        let text = std::fs::read_to_string(&path).unwrap();
        let (records, summary) = parse_fault_report_stream(&text).unwrap();
        assert_eq!(summary.circuit, "s27");
        assert_eq!(summary.detected, result.detected as u64);
        assert_eq!(summary.total, result.total_faults as u64);
        assert_eq!(records.len(), result.detected, "one record per detection");
        let mut ids: Vec<u32> = records.iter().map(|r| r.fault).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), records.len(), "no fault recorded twice");
        for r in &records {
            assert!((r.vector as usize) < result.vectors(), "{r:?}");
            assert!((1..=4).contains(&r.phase), "{r:?}");
        }
        assert_eq!(
            result.telemetry.counters.report_records_streamed,
            records.len() as u64
        );

        // Streaming must not perturb the run itself.
        let plain = TestGenerator::new(Arc::clone(&circuit), config).run();
        assert_eq!(plain.test_set, result.test_set);
        assert_eq!(plain.detected, result.detected);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fault_report_on_a_resumed_leg_covers_that_leg_only() {
        use gatest_sim::fault_report::parse_fault_report_stream;
        let dir = std::env::temp_dir().join(format!("gatest-gen-fr2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s27-leg2.jsonl");
        let circuit = Arc::new(gatest_netlist::benchmarks::iscas89("s27").unwrap());
        let config = GatestConfig::for_circuit(&circuit).with_seed(3);

        // Leg 1 (no report): run far enough to commit some detections.
        let mut gen = TestGenerator::new(Arc::clone(&circuit), config.clone());
        let (leg1, snap) = gen.run_preemptible(&RunControls {
            max_ticks: Some(40),
            ..RunControls::default()
        });
        let snap = snap.expect("interrupted leg returns a snapshot");
        assert!(leg1.detected > 0, "leg 1 committed detections");

        // Leg 2 with the report attached: the stream covers only this
        // leg's detections, while the summary reflects the whole run.
        let mut gen2 = TestGenerator::new(Arc::clone(&circuit), config.clone());
        let controls = RunControls {
            fault_report: Some(path.clone()),
            ..RunControls::default()
        };
        let full = gen2.resume(&snap, &controls).unwrap();
        assert_eq!(full.stop, StopCause::Completed);
        assert_eq!(full.fault_report_error, None);
        let text = std::fs::read_to_string(&path).unwrap();
        let (records, summary) = parse_fault_report_stream(&text).unwrap();
        assert_eq!(summary.detected, full.detected as u64);
        assert_eq!(
            records.len(),
            full.detected - leg1.detected,
            "stream holds the final leg's detections only"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The transition-fault flow: the same generator over
/// [`FaultList::transition`].
#[cfg(test)]
mod transition_tests {
    use super::*;

    fn run_transition(
        name: &str,
        config: impl FnOnce(GatestConfig) -> GatestConfig,
    ) -> (Arc<Circuit>, TestGenerator, TestGenResult) {
        let circuit = Arc::new(gatest_netlist::benchmarks::iscas89(name).unwrap());
        let config = config(GatestConfig::for_circuit(&circuit));
        let faults = FaultList::transition(&circuit);
        let mut generator = TestGenerator::with_faults(Arc::clone(&circuit), faults, config);
        let result = generator.run();
        (circuit, generator, result)
    }

    fn transition_sim(circuit: &Arc<Circuit>) -> FaultSim {
        FaultSim::with_faults(Arc::clone(circuit), FaultList::transition(circuit))
    }

    #[test]
    fn covers_most_transition_faults_on_s27() {
        let (circuit, _, result) = run_transition("s27", |c| c.with_seed(2));
        assert_eq!(result.total_faults, 2 * circuit.num_gates());
        assert!(
            result.fault_coverage() > 0.6,
            "coverage {:.2}",
            result.fault_coverage()
        );
    }

    #[test]
    fn transition_test_set_replays_to_the_same_detections() {
        let (circuit, generator, result) = run_transition("s27", |c| c.with_seed(4));
        let mut sim = transition_sim(&circuit);
        for v in &result.test_set {
            sim.step(v);
        }
        assert_eq!(sim.detected_count(), result.detected);
        for (id, _) in sim.fault_list().iter() {
            assert_eq!(sim.status(id), generator.sim().status(id), "{id:?}");
        }
    }

    #[test]
    fn transition_runs_are_deterministic_given_seed() {
        let (_, _, a) = run_transition("s27", |c| c.with_seed(9));
        let (_, _, b) = run_transition("s27", |c| c.with_seed(9));
        assert_eq!(
            crate::report::result_to_json(&a),
            crate::report::result_to_json(&b)
        );
    }

    #[test]
    fn interrupted_transition_runs_resume_bit_identically() {
        // Checkpoint/resume comes with the one generator: a transition run
        // preempted mid-search and resumed from its snapshot ends exactly
        // where the uninterrupted run does.
        let config = |c: GatestConfig| GatestConfig {
            fault_sample: FaultSample::Count(60),
            ..c.with_seed(5)
        };
        let (circuit, _, full) = run_transition("s298", config);
        let config = config(GatestConfig::for_circuit(&circuit));
        let faults = FaultList::transition(&circuit);
        let controls = RunControls {
            max_ticks: Some(40),
            ..RunControls::default()
        };
        let mut first =
            TestGenerator::with_faults(Arc::clone(&circuit), faults.clone(), config.clone());
        let (leg, snapshot) = first.run_preemptible(&controls);
        assert_eq!(leg.stop, StopCause::Interrupted);
        let snapshot = snapshot.expect("an early stop returns its snapshot");
        let mut second = TestGenerator::with_faults(circuit, faults, config);
        let resumed = second.resume(&snapshot, &RunControls::default()).unwrap();
        assert_eq!(
            crate::report::result_to_json(&resumed),
            crate::report::result_to_json(&full)
        );
    }

    #[test]
    fn transition_runs_respect_the_vector_cap() {
        let (_, _, result) = run_transition("s298", |c| GatestConfig {
            max_vectors: 40,
            ..c.with_seed(3)
        });
        assert!(result.vectors() <= 40);
    }

    #[test]
    fn ga_beats_random_on_transition_faults() {
        let (circuit, _, result) = run_transition("s298", |c| GatestConfig {
            max_vectors: 300,
            ..c.with_seed(6)
        });
        let mut random = transition_sim(&circuit);
        let mut rng = Rng::new(6);
        for _ in 0..result.vectors() {
            let v: Vec<Logic> = (0..3).map(|_| Logic::from_bool(rng.coin())).collect();
            random.step(&v);
        }
        assert!(
            result.detected >= random.detected_count(),
            "GA {} vs random {}",
            result.detected,
            random.detected_count()
        );
    }
}
