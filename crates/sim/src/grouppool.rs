//! Persistent worker pool for fault-group-parallel simulation.
//!
//! [`FaultSim::step`](crate::FaultSim::step) simulates independent fault
//! groups (at most [`PackedValue::LANES`] faults each) against a frozen good
//! machine (see [`crate::group`]). This pool runs those groups on
//! `threads - 1` persistent worker threads plus the calling thread, with
//! each participant owning a private [`Arena`], so a step's group
//! fan-out costs no allocation and no thread spawn. One pool serves both
//! widths: a job carries the width-specific routine that runs it, and the
//! workers' arenas are width-independent.
//!
//! # Protocol
//!
//! One job is in flight at a time. [`GroupPool::run`] publishes a
//! lifetime-erased job pointer with a `Release` store, bumps the private
//! epoch of each worker it wants, and unparks **only those workers** — at
//! most `ngroups - 1` of them, since the caller simulates too and waking a
//! worker that could never claim a group is pure coordination overhead (the
//! condvar-based predecessor woke all workers per step and paid ~27% at
//! `--sim-threads 8` on a 1-CPU host). Workers claim group indices from a
//! shared atomic cursor (`fetch_add`), so each outcome slot is written by
//! exactly one thread. A job ends only when every woken worker has
//! decremented `remaining` — workers decrement through a drop guard, so a
//! panicking worker still releases the caller (and poisons the pool, which
//! makes the next dispatch panic loudly instead of hanging). Between jobs,
//! workers sit in [`std::thread::park`]; the caller waits for stragglers
//! with a short bounded spin before parking itself. Park/unpark token
//! semantics make the unavoidable unpark-before-park races benign: a stale
//! token costs one spurious wake-and-recheck, never a lost wakeup.
//!
//! # Safety
//!
//! The published pointer erases the borrow lifetimes (and the width) of the
//! caller's circuit, good machine, fault tables, and outcome slots; the
//! routine published next to it is the one instantiated for that width, so
//! it casts the data back to the type it was erased from. This is sound
//! because `run` does not return until `remaining == 0`, i.e. until no
//! woken worker can still hold the pointer: a worker reads it only after
//! observing its own epoch bump (an `Acquire` load that synchronizes with
//! the `Release` publication), and decrements only after its last use.
//!
//! # Determinism
//!
//! Workers race only for *which* group they simulate; every group writes
//! its own [`GroupOutcome`] slot, and the caller merges the slots in group
//! order afterwards. Results are therefore bit-identical for every thread
//! count and lane width — the property `tests/sim_parallel.rs` locks down.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{JoinHandle, Thread};
use std::time::Instant;

use gatest_netlist::Circuit;

use crate::fault::{FaultId, FaultList};
use crate::good_sim::GoodSim;
use crate::group::{simulate_group, Arena, FaultyFfState, GroupCtx, GroupOutcome, GroupWidth};

/// Iterations the caller spins on `remaining` before parking. Stragglers
/// usually finish within a group's simulation time, so a short spin avoids
/// the park/unpark syscall pair on the common path without burning a busy
/// core when a worker is genuinely descheduled.
const CALLER_SPIN: usize = 256;

/// Everything one parallel step's workers need, published by address.
struct JobData<'a, P: GroupWidth> {
    circuit: &'a Circuit,
    good: &'a GoodSim,
    faults: &'a FaultList,
    faulty_ff: &'a [FaultyFfState],
    empty_ff: &'a FaultyFfState,
    targets: &'a [FaultId],
    /// One slot per group; disjoint claims make the `*mut` races-free.
    outcomes: *mut GroupOutcome<P>,
    ngroups: usize,
    /// Next unclaimed group index.
    next: AtomicUsize,
    /// Summed worker wake latency (publication → first claim attempt).
    steal_ns: AtomicU64,
    published: Instant,
}

/// A published job: its width-typed [`JobData`] behind an erased pointer,
/// and the routine instantiated for that width.
struct Job {
    data: *const (),
    run: unsafe fn(*const (), &mut Arena),
}

/// The lock-free coordination block shared with every worker.
struct Shared {
    /// The in-flight job (type-erased `*const Job`), null between
    /// jobs. `Release`-published before worker epochs are bumped.
    job: AtomicPtr<()>,
    /// One epoch per worker; a bump (with the job already published) is
    /// that worker's invitation to run it. Private epochs let a dispatch
    /// wake exactly the workers it needs.
    epochs: Vec<AtomicU64>,
    /// Woken workers that have not finished the current job.
    remaining: AtomicUsize,
    /// The dispatching thread, parked while stragglers finish.
    caller: Mutex<Option<Thread>>,
    /// Set when a worker panicked; the pool refuses further dispatches.
    poisoned: AtomicBool,
    shutdown: AtomicBool,
}

/// Decrements `remaining` when the worker finishes an epoch — including by
/// panic, so the dispatching caller never deadlocks on a dead worker.
struct DoneGuard<'a>(&'a Shared);

impl Drop for DoneGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poisoned.store(true, Ordering::Release);
        }
        if self.0.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            if let Some(caller) = self.0.caller.lock().unwrap().as_ref() {
                caller.unpark();
            }
        }
    }
}

/// A persistent set of fault-group simulation workers, for every width.
pub(crate) struct GroupPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    /// Unpark handles, indexed like `shared.epochs`.
    threads: Vec<Thread>,
}

impl fmt::Debug for GroupPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GroupPool")
            .field("workers", &self.handles.len())
            .finish()
    }
}

impl GroupPool {
    /// Spawns `threads - 1` workers (the caller is the remaining thread),
    /// each owning an arena sized for `circuit`.
    ///
    /// # Panics
    ///
    /// Panics if `threads < 2` — a one-thread "pool" is the serial path.
    pub(crate) fn new(circuit: &Circuit, max_level: usize, threads: usize) -> Self {
        assert!(threads >= 2, "GroupPool needs at least two threads");
        let shared = Arc::new(Shared {
            job: AtomicPtr::new(std::ptr::null_mut()),
            epochs: (0..threads - 1).map(|_| AtomicU64::new(0)).collect(),
            remaining: AtomicUsize::new(0),
            caller: Mutex::new(None),
            poisoned: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
        });
        let handles: Vec<JoinHandle<()>> = (0..threads - 1)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let mut arena = Arena::new(circuit, max_level);
                std::thread::Builder::new()
                    .name(format!("gatest-sim-{i}"))
                    .spawn(move || worker_loop(&shared, i, &mut arena))
                    .expect("spawn sim worker")
            })
            .collect();
        let threads = handles.iter().map(|h| h.thread().clone()).collect();
        GroupPool {
            shared,
            handles,
            threads,
        }
    }

    /// Simulates every `P::LANES`-fault chunk of `targets` into `outcomes`
    /// (one slot per chunk), fanning out across the pool with the caller
    /// participating via `caller_arena`.
    ///
    /// Returns `(groups_run, steal_ns, wait_ns)` for telemetry: `wait_ns`
    /// is the time the caller spent waiting (spinning, then parked) after
    /// exhausting the group cursor itself — the merge-barrier wait for the
    /// slowest worker.
    ///
    /// # Panics
    ///
    /// Panics if a worker panicked during this or any earlier dispatch.
    pub(crate) fn run<P: GroupWidth>(
        &self,
        ctx: &GroupCtx<'_>,
        targets: &[FaultId],
        outcomes: &mut [GroupOutcome<P>],
        caller_arena: &mut Arena,
    ) -> (u64, u64, u64) {
        debug_assert_eq!(outcomes.len(), targets.len().div_ceil(P::LANES));
        assert!(
            !self.shared.poisoned.load(Ordering::Acquire),
            "a fault-group sim worker panicked"
        );
        let data = JobData {
            circuit: ctx.circuit,
            good: ctx.good,
            faults: ctx.faults,
            faulty_ff: ctx.faulty_ff,
            empty_ff: ctx.empty_ff,
            targets,
            outcomes: outcomes.as_mut_ptr(),
            ngroups: outcomes.len(),
            next: AtomicUsize::new(0),
            steal_ns: AtomicU64::new(0),
            published: Instant::now(),
        };
        let job = Job {
            data: &data as *const JobData<'_, P> as *const (),
            run: run_job::<P>,
        };
        // The caller simulates too, so a job with G groups can use at most
        // G - 1 workers; waking more would be pure overhead.
        let woken = self.handles.len().min(data.ngroups.saturating_sub(1));
        if woken > 0 {
            *self.shared.caller.lock().unwrap() = Some(std::thread::current());
            self.shared.remaining.store(woken, Ordering::Release);
            self.shared
                .job
                .store(&job as *const Job as *mut (), Ordering::Release);
            for i in 0..woken {
                // The Release bump synchronizes with the worker's Acquire
                // epoch load, making the job publication visible to it.
                self.shared.epochs[i].fetch_add(1, Ordering::Release);
                self.threads[i].unpark();
            }
        }
        run_groups(&data, caller_arena);
        let mut wait_ns = 0u64;
        if woken > 0 {
            let wait_start = Instant::now();
            let mut spins = 0usize;
            while self.shared.remaining.load(Ordering::Acquire) > 0 {
                if spins < CALLER_SPIN {
                    spins += 1;
                    std::hint::spin_loop();
                } else {
                    // A stale unpark token from an earlier job makes this
                    // return immediately once; the loop just rechecks.
                    std::thread::park();
                }
            }
            wait_ns = wait_start.elapsed().as_nanos() as u64;
            self.shared
                .job
                .store(std::ptr::null_mut(), Ordering::Release);
            *self.shared.caller.lock().unwrap() = None;
            assert!(
                !self.shared.poisoned.load(Ordering::Acquire),
                "a fault-group sim worker panicked"
            );
        }
        (
            data.ngroups as u64,
            data.steal_ns.load(Ordering::Relaxed),
            wait_ns,
        )
    }
}

impl Drop for GroupPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        for t in &self.threads {
            t.unpark();
        }
        for h in self.handles.drain(..) {
            // A panicked worker already poisoned the pool; joining its
            // panic payload here would double-panic during drop.
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared, index: usize, arena: &mut Arena) {
    let mut seen_epoch = 0u64;
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let epoch = shared.epochs[index].load(Ordering::Acquire);
        if epoch == seen_epoch {
            // Parked between jobs: zero coordination cost while idle. A
            // token left by an unpark that raced this check just causes
            // one extra loop iteration.
            std::thread::park();
            continue;
        }
        seen_epoch = epoch;
        let guard = DoneGuard(shared);
        let job = shared.job.load(Ordering::Acquire);
        if !job.is_null() {
            // SAFETY: published jobs stay alive until this worker's guard
            // decrement is observed by `run` (see module safety notes), and
            // `job.run` was instantiated for the width `job.data` erased.
            unsafe {
                let job = &*(job as *const Job);
                (job.run)(job.data, arena);
            }
        }
        drop(guard);
    }
}

/// Runs a published job on a worker: records its wake latency, then claims
/// groups like the caller does.
///
/// # Safety
///
/// `data` must point to a live `JobData<'_, P>`.
unsafe fn run_job<P: GroupWidth>(data: *const (), arena: &mut Arena) {
    let data = &*(data as *const JobData<'_, P>);
    data.steal_ns.fetch_add(
        data.published.elapsed().as_nanos() as u64,
        Ordering::Relaxed,
    );
    run_groups(data, arena);
}

/// Claims and simulates groups until the job's cursor runs out.
fn run_groups<P: GroupWidth>(data: &JobData<'_, P>, arena: &mut Arena) {
    let ctx = GroupCtx {
        circuit: data.circuit,
        good: data.good,
        faults: data.faults,
        faulty_ff: data.faulty_ff,
        empty_ff: data.empty_ff,
    };
    loop {
        let i = data.next.fetch_add(1, Ordering::Relaxed);
        if i >= data.ngroups {
            return;
        }
        let start = i * P::LANES;
        let end = (start + P::LANES).min(data.targets.len());
        // SAFETY: index `i` is claimed exactly once across all threads, so
        // this is the only live reference to slot `i`.
        let out = unsafe { &mut *data.outcomes.add(i) };
        simulate_group(&ctx, &data.targets[start..end], arena, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc as StdArc;

    #[test]
    fn pool_debug_reports_worker_count() {
        let circuit = StdArc::new(crate::tests_circuit());
        let max_level = gatest_netlist::levelize::Levelization::new(&circuit).max_level() as usize;
        let pool = GroupPool::new(&circuit, max_level, 3);
        assert_eq!(format!("{pool:?}"), "GroupPool { workers: 2 }");
        let pair = GroupPool::new(&circuit, max_level, 2);
        assert_eq!(format!("{pair:?}"), "GroupPool { workers: 1 }");
    }
}
