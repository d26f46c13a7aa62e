//! The fair preemptive scheduler.
//!
//! Jobs run in *slices*: a runner thread claims the best runnable job,
//! executes up to `slice_ticks` generator ticks of it with
//! [`TestGenerator::run_slice`], and either finishes it or re-enqueues it
//! with its generator suspended in memory. Selection is priority-descending
//! with FIFO order inside a priority class; a preempted job re-enters at
//! the back of its class, so equal-priority jobs round-robin one slice
//! each.
//!
//! Preemption is in-memory suspension: every slice boundary is a
//! generation-tick boundary, and the job's generator keeps its run there —
//! machine state, fitness cache, packed phase-1 simulator, span slots —
//! until its next slice continues it in place. No [`RunSnapshot`] is built
//! between slices; one is built only when drain persists the job, and a
//! restarted server rehydrates it with [`TestGenerator::suspend_from`]. A
//! job's final result is byte-identical no matter how many times it was
//! preempted, drained or restarted, or which runner executed each slice.

use std::collections::HashMap;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex};

use gatest_core::{RunControls, RunSnapshot, TestGenResult, TestGenerator};
use gatest_netlist::Circuit;
use gatest_telemetry::json::event_to_json;
use gatest_telemetry::{Instruments, MetricsObserver, MultiObserver, RunEvent, RunObserver};

use crate::job::JobSpec;

/// Default generator ticks per scheduler slice. A tick is one GA generation
/// (or an invocation start/commit), so this preempts every few invocations
/// — fine-grained enough for fair interleaving, coarse enough that the
/// per-slice cost of suspending and continuing a generator stays in the
/// noise.
pub const DEFAULT_SLICE_TICKS: u64 = 64;

/// An observer buffering every event as a JSONL line for the events
/// endpoint.
struct EventBuffer(Arc<Mutex<Vec<String>>>);

impl RunObserver for EventBuffer {
    fn on_event(&self, event: &RunEvent) {
        self.0.lock().unwrap().push(event_to_json(event));
    }
}

/// One claimed slice of work, extracted from the job table so the runner
/// can execute it without holding the table lock.
pub struct SliceClaim {
    /// Job id, for reporting the outcome back.
    pub id: u64,
    /// The job's spec (cheap clone), for building its generator.
    pub spec: JobSpec,
    /// The job's suspended generator; `None` on its first slice in this
    /// process.
    pub generator: Option<Box<TestGenerator>>,
    /// A checkpoint reloaded from the state dir, rehydrated when there is
    /// no generator yet.
    pub snapshot: Option<RunSnapshot>,
    /// Raised by cancel or drain to end the slice at the next tick.
    pub stop: Arc<AtomicBool>,
    /// The job's event buffer (shared with the events endpoint).
    pub events: Arc<Mutex<Vec<String>>>,
    /// The job's metrics bundle (shared with `/metrics`).
    pub instruments: Arc<Instruments>,
}

/// What one slice produced.
pub enum SliceOutcome {
    /// The run reached a terminal state (`Completed` or `BudgetExhausted`).
    Finished(Box<TestGenResult>),
    /// The slice stopped at a tick boundary; here is the generator holding
    /// the suspended run.
    Preempted(Box<TestGenerator>),
    /// The slice could not run (bad circuit, resume mismatch).
    Error(String),
}

/// Shared cache of loaded circuits, keyed by spec string. Jobs for the same
/// circuit share one `Arc<Circuit>` across slices and runners.
#[derive(Default)]
pub struct CircuitCache {
    cache: Mutex<HashMap<String, Arc<Circuit>>>,
}

impl CircuitCache {
    /// Loads (or returns the cached) circuit for `spec`: a bundled
    /// benchmark name or a `.bench`/`.v` file path, like the CLI accepts.
    pub fn load(&self, spec: &str) -> Result<Arc<Circuit>, String> {
        if let Some(c) = self.cache.lock().unwrap().get(spec) {
            return Ok(Arc::clone(c));
        }
        let circuit = load_circuit_uncached(spec)?;
        let mut cache = self.cache.lock().unwrap();
        Ok(Arc::clone(cache.entry(spec.to_string()).or_insert(circuit)))
    }
}

fn load_circuit_uncached(spec: &str) -> Result<Arc<Circuit>, String> {
    if let Ok(c) = gatest_netlist::benchmarks::iscas89(spec) {
        return Ok(Arc::new(c));
    }
    let text = std::fs::read_to_string(spec)
        .map_err(|e| format!("`{spec}` is not a bundled circuit and reading it failed: {e}"))?;
    let name = std::path::Path::new(spec)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("circuit");
    if spec.ends_with(".v") {
        gatest_netlist::verilog::parse_verilog(&text)
            .map(Arc::new)
            .map_err(|e| e.to_string())
    } else {
        gatest_netlist::parse_bench(name, &text)
            .map(Arc::new)
            .map_err(|e| e.to_string())
    }
}

/// Picks the best runnable job from `(priority, seq, id)` candidates:
/// highest priority first, lowest enqueue sequence within a priority.
///
/// The seq tiebreak is what makes equal priorities round-robin: every
/// (re-)enqueue assigns a fresh, larger seq, so a job that just ran goes to
/// the back of its class.
pub fn pick_next(candidates: impl IntoIterator<Item = (u8, u64, u64)>) -> Option<u64> {
    candidates
        .into_iter()
        .min_by_key(|&(priority, seq, _)| (std::cmp::Reverse(priority), seq))
        .map(|(_, _, id)| id)
}

/// Executes one slice: takes the claim's suspended generator, or builds
/// one (rehydrating a reloaded checkpoint with
/// [`TestGenerator::suspend_from`]), and runs it for at most `slice_ticks`
/// ticks with [`TestGenerator::run_slice`].
///
/// The generator's `counters` handle is returned alongside so the caller
/// can expose the job's simulator counters in `/metrics`.
pub fn run_slice(
    claim: SliceClaim,
    circuits: &CircuitCache,
    slice_ticks: u64,
) -> (SliceOutcome, Option<Arc<gatest_telemetry::SimCounters>>) {
    let mut generator = match claim.generator {
        Some(generator) => generator,
        None => {
            let circuit = match circuits.load(&claim.spec.circuit) {
                Ok(c) => c,
                Err(e) => return (SliceOutcome::Error(e), None),
            };
            let config = claim.spec.config(&circuit);
            let observer = MultiObserver::new(vec![
                Arc::new(EventBuffer(Arc::clone(&claim.events))),
                Arc::new(MetricsObserver::new(Arc::clone(&claim.instruments))),
            ]);
            let mut generator = TestGenerator::new(circuit, config)
                .with_observer(Arc::new(observer))
                .with_instruments(Arc::clone(&claim.instruments));
            if let Some(snapshot) = &claim.snapshot {
                if let Err(e) = generator.suspend_from(snapshot) {
                    return (SliceOutcome::Error(e.to_string()), None);
                }
            }
            Box::new(generator)
        }
    };
    let controls = RunControls {
        stop: Some(claim.stop),
        max_ticks: Some(slice_ticks.max(1)),
        ..RunControls::default()
    };
    let counters = Arc::clone(generator.telemetry_counters());
    let outcome = match generator.run_slice(&controls) {
        Some(result) => SliceOutcome::Finished(Box::new(result)),
        None => SliceOutcome::Preempted(generator),
    };
    (outcome, Some(counters))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pick_next_prefers_higher_priority() {
        // (priority, seq, id)
        let jobs = [(1, 10, 1), (9, 50, 2), (4, 5, 3)];
        assert_eq!(pick_next(jobs), Some(2));
    }

    #[test]
    fn pick_next_is_fifo_within_a_priority() {
        let jobs = [(4, 30, 1), (4, 10, 2), (4, 20, 3)];
        assert_eq!(pick_next(jobs), Some(2));
        assert_eq!(pick_next([]), None);
    }

    #[test]
    fn reenqueue_at_back_round_robins() {
        // Simulate three equal-priority jobs taking slices: after each
        // slice the job is re-enqueued with a fresh (larger) seq.
        let mut jobs = [(4u8, 1u64, 10u64), (4, 2, 20), (4, 3, 30)];
        let mut order = Vec::new();
        for (next_seq, _) in (4u64..).zip(0..6) {
            let id = pick_next(jobs.iter().copied()).unwrap();
            order.push(id);
            let slot = jobs.iter_mut().find(|j| j.2 == id).unwrap();
            slot.1 = next_seq;
        }
        assert_eq!(order, vec![10, 20, 30, 10, 20, 30]);
    }

    #[test]
    fn circuit_cache_shares_instances() {
        let cache = CircuitCache::default();
        let a = cache.load("s27").expect("bundled circuit");
        let b = cache.load("s27").expect("cached");
        assert!(Arc::ptr_eq(&a, &b));
        assert!(cache.load("not-a-circuit").is_err());
    }
}
