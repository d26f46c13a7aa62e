//! Typed run events emitted by the test generator.

use crate::snapshot::TelemetrySnapshot;

/// One observable moment in a test-generation run.
///
/// Phases are the paper's Figure 2 numbering: 1 = initialization,
/// 2 = vector generation, 3 = stalled vector generation (activity term),
/// 4 = sequence generation.
#[derive(Debug, Clone, PartialEq)]
pub enum RunEvent {
    /// The run began.
    RunStarted {
        /// Circuit name.
        circuit: String,
        /// Faults in the (collapsed) target list.
        total_faults: usize,
        /// Master random seed.
        seed: u64,
        /// Packed-simulation backend (`scalar64`/`wide256`) a step over
        /// every undetected fault starts the run at. Under `auto` later
        /// steps follow their own fault counts.
        backend: String,
        /// Packed lanes per fault group for that backend (64/256).
        lanes: usize,
    },
    /// The Figure 2 phase machine entered a phase (including the first).
    PhaseEntered {
        /// Phase number, 1–4.
        phase: u8,
        /// Vectors committed before entering.
        vectors: usize,
    },
    /// One GA generation finished evaluating.
    GaGenerationEvaluated {
        /// Phase the GA invocation serves.
        phase: u8,
        /// Generation index within the invocation (0 = initial population).
        generation: usize,
        /// Best fitness in the population after this generation.
        best: f64,
        /// Mean fitness of the population after this generation.
        mean: f64,
        /// Fitness evaluations performed *for this generation* (not
        /// cumulative), so observers can sum deltas into a global rate.
        evaluations: usize,
    },
    /// The winning candidate was committed to the test set.
    VectorCommitted {
        /// Phase that produced the vector.
        phase: u8,
        /// Test-set length after the commit.
        vectors: usize,
        /// Faults newly detected by this vector.
        detected_new: usize,
        /// Total faults detected so far.
        detected_total: usize,
        /// Fault coverage so far, in `0..=1`.
        coverage: f64,
    },
    /// One fault was detected (emitted per fault on committed vectors).
    FaultDetected {
        /// Index of the fault in the target list.
        fault: u32,
        /// Human-readable fault site (`net/SA0` style).
        site: String,
        /// Index of the detecting vector in the test set.
        vector: usize,
    },
    /// The run completed (or stopped early on a budget or interrupt).
    RunFinished {
        /// Faults detected by the final test set.
        detected: usize,
        /// Faults in the target list.
        total_faults: usize,
        /// Vectors in the final test set.
        vectors: usize,
        /// Total GA fitness evaluations.
        ga_evaluations: usize,
        /// Wall-clock run time in seconds (cumulative across resumed legs).
        elapsed_secs: f64,
        /// True when the run stopped because a wall-clock or evaluation
        /// budget was exhausted rather than by finishing the flow.
        budget_exhausted: bool,
        /// Final telemetry aggregate (phase timings, counters). Boxed so
        /// the once-per-run variant doesn't size every per-generation
        /// event.
        snapshot: Box<TelemetrySnapshot>,
    },
}

impl RunEvent {
    /// The snake-case kind tag used in JSONL traces.
    pub fn kind(&self) -> &'static str {
        match self {
            RunEvent::RunStarted { .. } => "run_started",
            RunEvent::PhaseEntered { .. } => "phase_entered",
            RunEvent::GaGenerationEvaluated { .. } => "ga_generation",
            RunEvent::VectorCommitted { .. } => "vector_committed",
            RunEvent::FaultDetected { .. } => "fault_detected",
            RunEvent::RunFinished { .. } => "run_finished",
        }
    }

    /// All six kind tags, in emission-lifecycle order.
    pub const KINDS: [&'static str; 6] = [
        "run_started",
        "phase_entered",
        "ga_generation",
        "vector_committed",
        "fault_detected",
        "run_finished",
    ];
}
