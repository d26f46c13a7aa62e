#![warn(missing_docs)]

//! Three-valued logic simulation and PROOFS-style sequential fault
//! simulation for the GATEST reproduction.
//!
//! The crate is layered:
//!
//! * [`value`] — scalar [`Logic`] (0/1/X) and the width-generic
//!   [`PackedValue`] backends used for bit-parallel fault propagation:
//!   the 64-lane [`Pv64`] and the 256-lane [`Pv256`] (autovectorized, with
//!   an AVX2 fast path dispatched at runtime). [`SimBackend`] selects a
//!   backend by name; results are bit-identical across widths.
//! * [`eval`] — gate evaluation over both representations.
//! * [`fault`] — the single stuck-at fault universe and equivalence
//!   collapsing ([`FaultList`]).
//! * [`good_sim`] — the fault-free machine ([`GoodSim`]), with the event and
//!   flip-flop statistics the GATEST fitness functions consume.
//! * [`fsim`] — the fault simulator proper ([`FaultSim`]): 64-fault packed
//!   single-fault propagation, event-driven levelized evaluation, fault
//!   dropping, sparse faulty state, and the checkpoint/restore mechanism the
//!   paper adds in §IV.
//! * [`transition`] — the transition (gross-delay) fault model and its
//!   simulator, demonstrating the paper's claim that other fault models
//!   slot into the same framework.
//! * [`fault_report`] — textual per-fault status reports (round-tripping).
//! * [`equiv`] — random-simulation equivalence smoke-checking.
//! * [`dictionary`] — first-detection fault dictionaries and
//!   dictionary-based diagnosis.
//! * [`state_space`] — exhaustive reachability and synchronizing-sequence
//!   analysis for small machines.
//! * [`vcd`] — VCD waveform export of simulation traces.
//! * [`ppsfp`] — parallel-pattern single-fault propagation for
//!   combinational (scan) circuits, the classic dual of PROOFS.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use gatest_sim::{FaultSim, Logic};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let circuit = Arc::new(gatest_netlist::benchmarks::iscas89("s27")?);
//! let mut sim = FaultSim::new(circuit);
//!
//! // Evaluate a candidate vector without committing it:
//! let cp = sim.checkpoint();
//! let report = sim.step(&[Logic::One, Logic::One, Logic::Zero, Logic::Zero]);
//! let fitness = report.detected();
//! sim.restore(&cp);
//! assert_eq!(sim.detected_count(), 0);
//! # let _ = fitness;
//! # Ok(())
//! # }
//! ```

pub mod dictionary;
pub mod equiv;
pub mod eval;
pub mod fault;
pub mod fault_report;
pub mod fsim;
pub mod good_sim;
pub(crate) mod group;
pub mod packed_good;
pub mod ppsfp;
pub mod state_space;
pub mod transition;
pub mod value;
pub mod vcd;

pub use dictionary::{FaultDictionary, Syndrome};
pub use fault::{Fault, FaultId, FaultList, FaultSite, FaultStatus};
pub use fault_report::{FaultReportWriter, StreamRecord, StreamSummary};
pub use fsim::{Checkpoint, FaultSim, SimState, StepReport};
pub use good_sim::{GoodSim, GoodSimState, GoodStepReport};
pub use packed_good::PackedGoodSim;
pub use transition::{Slow, TransitionFault, TransitionFaultSim};
pub use value::{LaneMask, Logic, Mask256, PackedValue, Pv256, Pv64, SimBackend};

/// The s27 circuit for intra-crate tests.
#[cfg(test)]
pub(crate) fn tests_circuit() -> gatest_netlist::Circuit {
    gatest_netlist::benchmarks::iscas89("s27").expect("bundled s27")
}
