#![warn(missing_docs)]

//! ATPG-as-a-service: the `gatest serve` multi-tenant job server.
//!
//! A long-lived daemon that accepts ATPG jobs (circuit + config + budgets +
//! priority) over a hand-rolled HTTP/JSONL API, runs many jobs on a shared
//! runner budget via a fair scheduler that preempts at generation-tick
//! boundaries, and streams per-job telemetry back as JSONL. A preemption
//! suspends the job's generator in memory at a tick boundary, a drain
//! writes each suspended run's checkpoint to disk, and a restart resumes
//! from it — the same boundaries the standalone CLI's kill/resume sweep
//! proves bit-identical. **A job's result is byte-identical to the same
//! circuit/config/seed run standalone via `gatest atpg`**, no matter how
//! often it was preempted or whether the server restarted mid-job; CI
//! enforces exactly that.
//!
//! The pieces:
//!
//! * [`job`] — [`JobSpec`](job::JobSpec) wire format and the per-job state
//!   machine (queued → running → preempted* → done/failed/cancelled);
//! * [`scheduler`] — priority + round-robin slice scheduling over
//!   `TestGenerator::run_slice`;
//! * [`server`] — shared state, admission control, graceful drain, and
//!   state-directory persistence;
//! * [`http`] — the `std::net` request handling (same dependency-free
//!   style as `gatest_telemetry::expose`).
//!
//! # Example
//!
//! ```no_run
//! use gatest_serve::{Server, ServerConfig};
//!
//! let mut server = Server::start(ServerConfig::default()).unwrap();
//! println!("serving on http://{}", server.local_addr());
//! // ... submit jobs over HTTP, then on SIGTERM:
//! server.drain().unwrap();
//! ```

pub mod http;
pub mod job;
pub mod scheduler;
pub mod server;

pub use job::{Job, JobSpec, JobState, DEFAULT_PRIORITY, MAX_PRIORITY};
pub use scheduler::{
    pick_next, run_slice, CircuitCache, SliceClaim, SliceOutcome, DEFAULT_SLICE_TICKS,
};
pub use server::{JobTable, ServeMetrics, Server, ServerConfig, ServerState, SubmitError};
