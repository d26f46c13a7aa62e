#![warn(missing_docs)]

//! GATEST — sequential circuit test generation in a genetic algorithm
//! framework.
//!
//! This crate is the paper's primary contribution: a test generator that
//! evolves candidate test vectors and sequences with a GA, computing each
//! candidate's fitness with a sequential-circuit fault simulator
//! ([`gatest_sim::FaultSim`]).
//!
//! The flow (the paper's Figure 1):
//!
//! 1. **Individual vectors** are evolved one frame at a time, first to
//!    initialize the flip-flops (phase 1), then to detect faults (phase 2),
//!    with an activity-rewarding fallback when progress stalls (phase 3).
//! 2. When the number of consecutive non-contributing vectors exceeds the
//!    progress limit (a small multiple of the sequential depth), whole
//!    **test sequences** are evolved (phase 4), at one, two, and four times
//!    the sequential depth, with the GA population reinitialized for each
//!    attempt; four consecutive failures at a length move to the next.
//!
//! The fault model comes with the fault list: a generator built with
//! [`TestGenerator::with_faults`] over
//! [`FaultList::transition`](gatest_sim::FaultList::transition) targets
//! transition faults through the same flow, its fitness rewarding launched
//! edges as well ([`fitness`]).
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use gatest_core::{GatestConfig, TestGenerator};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let circuit = Arc::new(gatest_netlist::benchmarks::iscas89("s27")?);
//! let config = GatestConfig::for_circuit(&circuit).with_seed(1);
//! let result = TestGenerator::new(circuit, config).run();
//! println!(
//!     "{}: {}/{} faults, {} vectors",
//!     result.circuit,
//!     result.detected,
//!     result.total_faults,
//!     result.vectors()
//! );
//! # Ok(())
//! # }
//! ```

pub mod checkpoint;
pub mod compact;
pub mod config;
pub mod evalpool;
pub mod fitness;
pub mod generator;
pub mod report;

pub use checkpoint::{
    config_digest, CheckpointError, GaSnapshot, RunSnapshot, SnapshotIndividual, SnapshotPos,
};
pub use compact::{compact_test_set, CompactionStats};
pub use config::{table1_parameters, FaultSample, GatestConfig};
pub use evalpool::{
    evaluate_candidate, evaluate_candidates, EvalCache, EvalContext, EvalJob, EvalMemo, EvalPool,
};
pub use fitness::{FitnessScale, Phase};
pub use gatest_telemetry as telemetry;
pub use generator::{
    CheckpointCadence, ResumeError, RunControls, StopCause, TestGenResult, TestGenerator,
};
