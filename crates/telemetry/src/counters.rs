//! Lock-free counters sampled from the fault simulator's hot paths.

use std::sync::atomic::{AtomicU64, Ordering};

/// Accumulating counters for simulator activity.
///
/// All updates use relaxed atomics: the counters are monotone event tallies
/// with no ordering relationship to any other memory, so relaxed ordering is
/// sufficient and keeps the hot-path cost to a handful of uncontended
/// `fetch_add`s per simulated *vector* (never per gate). The struct is
/// shared via `Arc` between a [`FaultSim`](../../gatest_sim) and its clones,
/// so parallel fitness workers aggregate into one place.
#[derive(Debug, Default)]
pub struct SimCounters {
    /// Fault-simulation frames: committed (`step`, `step_window`) and
    /// scored (`score`, one per frame of each candidate).
    pub step_calls: AtomicU64,
    /// Good-machine-only steps (`step_good_only`).
    pub good_only_calls: AtomicU64,
    /// Packed faulty-gate evaluations plus good-machine gate evaluations.
    pub gate_evals: AtomicU64,
    /// Good-circuit events (net value changes).
    pub good_events: AtomicU64,
    /// Faulty-circuit events summed over all simulated faulty machines.
    pub faulty_events: AtomicU64,
    /// Checkpoint restores: in the GA loop, one per scored batch or pool
    /// chunk, since scoring writes nothing back.
    pub checkpoint_restores: AtomicU64,
    /// Estimated bytes the copy-on-write restores did *not* copy compared
    /// to a deep-copy restore of the same checkpoints (fault status, active
    /// list, and sparse faulty-FF state).
    pub restore_bytes_avoided: AtomicU64,
    /// 64-slot packed good-machine frames evaluated for phase-1 fitness.
    pub packed_phase1_frames: AtomicU64,
    /// Evaluation-batch chunks dispatched to persistent pool workers.
    pub pool_tasks: AtomicU64,
    /// Nanoseconds pool workers spent waiting for work (summed over
    /// workers; compare against wall-clock × workers for utilization).
    pub pool_idle_ns: AtomicU64,
    /// Bytes served from reusable simulator scratch buffers (gate fanin
    /// words, forcing-table entries, faulty-FF state builders) that the
    /// pre-arena simulator allocated fresh on every use.
    pub scratch_bytes_reused: AtomicU64,
    /// Run-state checkpoint files written (cadence + final writes).
    pub checkpoint_writes: AtomicU64,
    /// Total bytes of checkpoint files written.
    pub checkpoint_bytes: AtomicU64,
    /// Candidate evaluations answered from the epoch-keyed fitness cache
    /// (each hit is one whole fault-sim pass skipped).
    pub cache_hits: AtomicU64,
    /// Fitness-cache lookups that missed and had to simulate.
    pub cache_misses: AtomicU64,
    /// Candidates skipped because an identical chromosome appeared earlier
    /// in the same evaluation batch (the score is shared, not resimulated).
    pub dedup_skips: AtomicU64,
    /// Sequence-evaluation frames once skipped by a prefix-sharing trie.
    /// Nothing writes it any more (every phase-4 candidate is simulated as
    /// one whole window), so it reads 0 unless reloaded from a snapshot
    /// taken by an older build; it stays so trace readers and the
    /// checkpoint's positional counter layout do not change.
    pub prefix_frames_avoided: AtomicU64,
    /// Fault groups simulated by a wide (more-than-64-lane) packed backend.
    /// Zero for scalar64 runs, so old traces and narrow runs render alike.
    pub wide_groups: AtomicU64,
    /// Lanes per packed fault group of the wide backend (e.g. 256). A
    /// last-write-wins gauge, not a tally: it names the backend width.
    pub lanes_per_group: AtomicU64,
    /// Faulty-circuit events beyond the first lane of each changed packed
    /// word: lanes that rode an evaluation another lane already paid for.
    /// Zero for scalar runs of single-lane groups; grows with lane width.
    pub events_amortized: AtomicU64,
    /// Vectors committed through the batched window path
    /// (`FaultSim::step_window`) rather than one `step` call each.
    pub commit_batch_frames: AtomicU64,
    /// Bytes of the levelized CSR adjacency arena (schedule-ordered fanin
    /// records plus per-net fanout edges). A last-write-wins gauge.
    pub csr_bytes: AtomicU64,
    /// Detection records streamed to a `--fault-report` JSONL file.
    pub report_records_streamed: AtomicU64,
}

impl SimCounters {
    /// A zeroed counter set.
    pub fn new() -> Self {
        SimCounters::default()
    }

    /// Records one committed or scored fault-simulation frame.
    #[inline]
    pub fn record_step(&self, gate_evals: u64, good_events: u64, faulty_events: u64) {
        self.step_calls.fetch_add(1, Ordering::Relaxed);
        self.gate_evals.fetch_add(gate_evals, Ordering::Relaxed);
        self.good_events.fetch_add(good_events, Ordering::Relaxed);
        self.faulty_events
            .fetch_add(faulty_events, Ordering::Relaxed);
    }

    /// Records one good-machine-only step.
    #[inline]
    pub fn record_good_only(&self, gate_evals: u64, good_events: u64) {
        self.good_only_calls.fetch_add(1, Ordering::Relaxed);
        self.gate_evals.fetch_add(gate_evals, Ordering::Relaxed);
        self.good_events.fetch_add(good_events, Ordering::Relaxed);
    }

    /// Records one checkpoint restore and the deep-copy bytes it avoided.
    #[inline]
    pub fn record_restore(&self, bytes_avoided: u64) {
        self.checkpoint_restores.fetch_add(1, Ordering::Relaxed);
        self.restore_bytes_avoided
            .fetch_add(bytes_avoided, Ordering::Relaxed);
    }

    /// Records packed good-machine frames evaluated for phase-1 fitness.
    #[inline]
    pub fn record_packed_phase1(&self, frames: u64) {
        self.packed_phase1_frames
            .fetch_add(frames, Ordering::Relaxed);
    }

    /// Records evaluation chunks dispatched to pool workers.
    #[inline]
    pub fn record_pool_tasks(&self, tasks: u64) {
        self.pool_tasks.fetch_add(tasks, Ordering::Relaxed);
    }

    /// Records time a pool worker spent idle waiting for work.
    #[inline]
    pub fn record_pool_idle(&self, nanos: u64) {
        self.pool_idle_ns.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Records bytes served from reusable simulator scratch buffers.
    #[inline]
    pub fn record_scratch_reuse(&self, bytes: u64) {
        self.scratch_bytes_reused
            .fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records one run-state checkpoint file written and its size.
    #[inline]
    pub fn record_checkpoint_write(&self, bytes: u64) {
        self.checkpoint_writes.fetch_add(1, Ordering::Relaxed);
        self.checkpoint_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records one evaluation batch's fitness-cache outcome: scores served
    /// from the cache and lookups that fell through to simulation.
    #[inline]
    pub fn record_cache_outcome(&self, hits: u64, misses: u64) {
        self.cache_hits.fetch_add(hits, Ordering::Relaxed);
        self.cache_misses.fetch_add(misses, Ordering::Relaxed);
    }

    /// Records candidates deduplicated away within one evaluation batch.
    #[inline]
    pub fn record_dedup_skips(&self, skips: u64) {
        self.dedup_skips.fetch_add(skips, Ordering::Relaxed);
    }

    /// Records fault groups simulated by a wide packed backend: `groups`
    /// accumulates, `lanes` is stored as the backend's lane width.
    #[inline]
    pub fn record_backend_groups(&self, lanes: u64, groups: u64) {
        self.wide_groups.fetch_add(groups, Ordering::Relaxed);
        self.lanes_per_group.store(lanes, Ordering::Relaxed);
    }

    /// Records faulty events that shared a packed evaluation with another
    /// lane (every lane after the first of each changed word).
    #[inline]
    pub fn record_events_amortized(&self, events: u64) {
        self.events_amortized.fetch_add(events, Ordering::Relaxed);
    }

    /// Records vectors committed through the batched window path.
    #[inline]
    pub fn record_commit_batch(&self, frames: u64) {
        self.commit_batch_frames
            .fetch_add(frames, Ordering::Relaxed);
    }

    /// Stores the CSR adjacency arena size (a gauge, not a tally).
    #[inline]
    pub fn record_csr_bytes(&self, bytes: u64) {
        self.csr_bytes.store(bytes, Ordering::Relaxed);
    }

    /// Records detection records streamed to a fault-report file.
    #[inline]
    pub fn record_report_records(&self, records: u64) {
        self.report_records_streamed
            .fetch_add(records, Ordering::Relaxed);
    }

    /// Overwrites every counter with the totals in `snapshot`, so a resumed
    /// run continues accumulating from where the checkpointed run stopped.
    pub fn load_snapshot(&self, snapshot: &CounterSnapshot) {
        self.step_calls
            .store(snapshot.step_calls, Ordering::Relaxed);
        self.good_only_calls
            .store(snapshot.good_only_calls, Ordering::Relaxed);
        self.gate_evals
            .store(snapshot.gate_evals, Ordering::Relaxed);
        self.good_events
            .store(snapshot.good_events, Ordering::Relaxed);
        self.faulty_events
            .store(snapshot.faulty_events, Ordering::Relaxed);
        self.checkpoint_restores
            .store(snapshot.checkpoint_restores, Ordering::Relaxed);
        self.restore_bytes_avoided
            .store(snapshot.restore_bytes_avoided, Ordering::Relaxed);
        self.packed_phase1_frames
            .store(snapshot.packed_phase1_frames, Ordering::Relaxed);
        self.pool_tasks
            .store(snapshot.pool_tasks, Ordering::Relaxed);
        self.pool_idle_ns
            .store(snapshot.pool_idle_ns, Ordering::Relaxed);
        self.scratch_bytes_reused
            .store(snapshot.scratch_bytes_reused, Ordering::Relaxed);
        self.checkpoint_writes
            .store(snapshot.checkpoint_writes, Ordering::Relaxed);
        self.checkpoint_bytes
            .store(snapshot.checkpoint_bytes, Ordering::Relaxed);
        self.cache_hits
            .store(snapshot.cache_hits, Ordering::Relaxed);
        self.cache_misses
            .store(snapshot.cache_misses, Ordering::Relaxed);
        self.dedup_skips
            .store(snapshot.dedup_skips, Ordering::Relaxed);
        self.prefix_frames_avoided
            .store(snapshot.prefix_frames_avoided, Ordering::Relaxed);
        self.wide_groups
            .store(snapshot.wide_groups, Ordering::Relaxed);
        self.lanes_per_group
            .store(snapshot.lanes_per_group, Ordering::Relaxed);
        self.events_amortized
            .store(snapshot.events_amortized, Ordering::Relaxed);
        self.commit_batch_frames
            .store(snapshot.commit_batch_frames, Ordering::Relaxed);
        self.csr_bytes.store(snapshot.csr_bytes, Ordering::Relaxed);
        self.report_records_streamed
            .store(snapshot.report_records_streamed, Ordering::Relaxed);
    }

    /// A plain-integer copy of the current totals.
    pub fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot {
            step_calls: self.step_calls.load(Ordering::Relaxed),
            good_only_calls: self.good_only_calls.load(Ordering::Relaxed),
            gate_evals: self.gate_evals.load(Ordering::Relaxed),
            good_events: self.good_events.load(Ordering::Relaxed),
            faulty_events: self.faulty_events.load(Ordering::Relaxed),
            checkpoint_restores: self.checkpoint_restores.load(Ordering::Relaxed),
            restore_bytes_avoided: self.restore_bytes_avoided.load(Ordering::Relaxed),
            packed_phase1_frames: self.packed_phase1_frames.load(Ordering::Relaxed),
            pool_tasks: self.pool_tasks.load(Ordering::Relaxed),
            pool_idle_ns: self.pool_idle_ns.load(Ordering::Relaxed),
            scratch_bytes_reused: self.scratch_bytes_reused.load(Ordering::Relaxed),
            checkpoint_writes: self.checkpoint_writes.load(Ordering::Relaxed),
            checkpoint_bytes: self.checkpoint_bytes.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            dedup_skips: self.dedup_skips.load(Ordering::Relaxed),
            prefix_frames_avoided: self.prefix_frames_avoided.load(Ordering::Relaxed),
            wide_groups: self.wide_groups.load(Ordering::Relaxed),
            lanes_per_group: self.lanes_per_group.load(Ordering::Relaxed),
            events_amortized: self.events_amortized.load(Ordering::Relaxed),
            commit_batch_frames: self.commit_batch_frames.load(Ordering::Relaxed),
            csr_bytes: self.csr_bytes.load(Ordering::Relaxed),
            report_records_streamed: self.report_records_streamed.load(Ordering::Relaxed),
        }
    }

    /// Zeroes every tally. The `csr_bytes` gauge is kept: it describes the
    /// simulator's netlist, which is sized once at attach time and does not
    /// change between runs.
    pub fn reset(&self) {
        self.step_calls.store(0, Ordering::Relaxed);
        self.good_only_calls.store(0, Ordering::Relaxed);
        self.gate_evals.store(0, Ordering::Relaxed);
        self.good_events.store(0, Ordering::Relaxed);
        self.faulty_events.store(0, Ordering::Relaxed);
        self.checkpoint_restores.store(0, Ordering::Relaxed);
        self.restore_bytes_avoided.store(0, Ordering::Relaxed);
        self.packed_phase1_frames.store(0, Ordering::Relaxed);
        self.pool_tasks.store(0, Ordering::Relaxed);
        self.pool_idle_ns.store(0, Ordering::Relaxed);
        self.scratch_bytes_reused.store(0, Ordering::Relaxed);
        self.checkpoint_writes.store(0, Ordering::Relaxed);
        self.checkpoint_bytes.store(0, Ordering::Relaxed);
        self.cache_hits.store(0, Ordering::Relaxed);
        self.cache_misses.store(0, Ordering::Relaxed);
        self.dedup_skips.store(0, Ordering::Relaxed);
        self.prefix_frames_avoided.store(0, Ordering::Relaxed);
        self.wide_groups.store(0, Ordering::Relaxed);
        self.lanes_per_group.store(0, Ordering::Relaxed);
        self.events_amortized.store(0, Ordering::Relaxed);
        self.commit_batch_frames.store(0, Ordering::Relaxed);
        self.report_records_streamed.store(0, Ordering::Relaxed);
    }
}

/// Plain-integer snapshot of [`SimCounters`], embeddable in results.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Fault-simulation frames, committed and scored.
    pub step_calls: u64,
    /// Good-machine-only steps.
    pub good_only_calls: u64,
    /// Gate evaluations (faulty packed words + good machine).
    pub gate_evals: u64,
    /// Good-circuit events.
    pub good_events: u64,
    /// Faulty-circuit events.
    pub faulty_events: u64,
    /// Checkpoint restores.
    pub checkpoint_restores: u64,
    /// Estimated deep-copy bytes skipped by copy-on-write restores.
    pub restore_bytes_avoided: u64,
    /// 64-slot packed good-machine frames evaluated for phase-1 fitness.
    pub packed_phase1_frames: u64,
    /// Evaluation chunks dispatched to persistent pool workers.
    pub pool_tasks: u64,
    /// Nanoseconds pool workers spent waiting for work.
    pub pool_idle_ns: u64,
    /// Bytes served from reusable simulator scratch buffers.
    pub scratch_bytes_reused: u64,
    /// Run-state checkpoint files written.
    pub checkpoint_writes: u64,
    /// Total bytes of checkpoint files written.
    pub checkpoint_bytes: u64,
    /// Candidate evaluations answered from the fitness cache.
    pub cache_hits: u64,
    /// Fitness-cache lookups that fell through to simulation.
    pub cache_misses: u64,
    /// Candidates deduplicated away within evaluation batches.
    pub dedup_skips: u64,
    /// Sequence frames skipped by the removed prefix-sharing trie: 0 in
    /// current runs (see [`SimCounters::prefix_frames_avoided`]).
    pub prefix_frames_avoided: u64,
    /// Fault groups simulated by a wide (more-than-64-lane) backend.
    pub wide_groups: u64,
    /// Lanes per packed fault group of the wide backend (0 = scalar-only).
    pub lanes_per_group: u64,
    /// Faulty events that shared a packed evaluation with another lane.
    pub events_amortized: u64,
    /// Vectors committed through the batched window path.
    pub commit_batch_frames: u64,
    /// Bytes of the levelized CSR adjacency arena (gauge).
    pub csr_bytes: u64,
    /// Detection records streamed to a `--fault-report` JSONL file.
    pub report_records_streamed: u64,
}

impl CounterSnapshot {
    /// Total simulator step calls of any kind.
    pub fn total_steps(&self) -> u64 {
        self.step_calls + self.good_only_calls
    }

    /// Every counter as a `(name, value)` pair, in struct declaration
    /// order. The single source of field names for the JSON serializer and
    /// the Prometheus renderer, so adding a counter cannot silently skip a
    /// consumer.
    pub fn fields(&self) -> [(&'static str, u64); 23] {
        [
            ("step_calls", self.step_calls),
            ("good_only_calls", self.good_only_calls),
            ("gate_evals", self.gate_evals),
            ("good_events", self.good_events),
            ("faulty_events", self.faulty_events),
            ("checkpoint_restores", self.checkpoint_restores),
            ("restore_bytes_avoided", self.restore_bytes_avoided),
            ("packed_phase1_frames", self.packed_phase1_frames),
            ("pool_tasks", self.pool_tasks),
            ("pool_idle_ns", self.pool_idle_ns),
            ("scratch_bytes_reused", self.scratch_bytes_reused),
            ("checkpoint_writes", self.checkpoint_writes),
            ("checkpoint_bytes", self.checkpoint_bytes),
            ("cache_hits", self.cache_hits),
            ("cache_misses", self.cache_misses),
            ("dedup_skips", self.dedup_skips),
            ("prefix_frames_avoided", self.prefix_frames_avoided),
            ("wide_groups", self.wide_groups),
            ("lanes_per_group", self.lanes_per_group),
            ("events_amortized", self.events_amortized),
            ("commit_batch_frames", self.commit_batch_frames),
            ("csr_bytes", self.csr_bytes),
            ("report_records_streamed", self.report_records_streamed),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate() {
        let c = SimCounters::new();
        c.record_step(100, 7, 30);
        c.record_step(50, 3, 10);
        c.record_good_only(20, 5);
        c.record_restore(4096);
        let s = c.snapshot();
        assert_eq!(s.step_calls, 2);
        assert_eq!(s.good_only_calls, 1);
        assert_eq!(s.gate_evals, 170);
        assert_eq!(s.good_events, 15);
        assert_eq!(s.faulty_events, 40);
        assert_eq!(s.checkpoint_restores, 1);
        assert_eq!(s.restore_bytes_avoided, 4096);
        assert_eq!(s.total_steps(), 3);
        c.reset();
        assert_eq!(c.snapshot(), CounterSnapshot::default());
    }

    #[test]
    fn eval_engine_counters_accumulate() {
        let c = SimCounters::new();
        c.record_packed_phase1(2);
        c.record_packed_phase1(2);
        c.record_pool_tasks(8);
        c.record_pool_idle(1_500);
        c.record_pool_idle(500);
        c.record_scratch_reuse(4_096);
        c.record_scratch_reuse(1_024);
        let s = c.snapshot();
        assert_eq!(s.packed_phase1_frames, 4);
        assert_eq!(s.pool_tasks, 8);
        assert_eq!(s.pool_idle_ns, 2_000);
        assert_eq!(s.scratch_bytes_reused, 5_120);
        c.reset();
        assert_eq!(c.snapshot(), CounterSnapshot::default());
    }

    #[test]
    fn backend_group_counters_accumulate_and_reload() {
        let c = SimCounters::new();
        c.record_backend_groups(256, 3);
        c.record_backend_groups(256, 2);
        let s = c.snapshot();
        assert_eq!(s.wide_groups, 5, "groups tally");
        assert_eq!(s.lanes_per_group, 256, "lane width is a gauge");

        let resumed = SimCounters::new();
        resumed.load_snapshot(&s);
        assert_eq!(resumed.snapshot(), s);
        c.reset();
        assert_eq!(c.snapshot(), CounterSnapshot::default());
    }

    #[test]
    fn amortization_counters_accumulate_and_reload() {
        let c = SimCounters::new();
        c.record_events_amortized(30);
        c.record_events_amortized(12);
        c.record_commit_batch(8);
        c.record_commit_batch(8);
        c.record_csr_bytes(10_000);
        c.record_csr_bytes(12_000);
        let s = c.snapshot();
        assert_eq!(s.events_amortized, 42, "events tally");
        assert_eq!(s.commit_batch_frames, 16, "frames tally");
        assert_eq!(s.csr_bytes, 12_000, "arena size is a gauge");

        let resumed = SimCounters::new();
        resumed.load_snapshot(&s);
        assert_eq!(resumed.snapshot(), s);
        c.reset();
        assert_eq!(
            c.snapshot(),
            CounterSnapshot {
                csr_bytes: 12_000,
                ..CounterSnapshot::default()
            },
            "reset zeroes the tallies but keeps the arena-size gauge"
        );
    }

    #[test]
    fn memoization_counters_accumulate_and_reload() {
        let c = SimCounters::new();
        c.record_cache_outcome(10, 4);
        c.record_cache_outcome(5, 1);
        c.record_dedup_skips(3);
        let s = c.snapshot();
        assert_eq!(s.cache_hits, 15);
        assert_eq!(s.cache_misses, 5);
        assert_eq!(s.dedup_skips, 3);
        assert_eq!(s.prefix_frames_avoided, 0);

        let resumed = SimCounters::new();
        resumed.load_snapshot(&s);
        assert_eq!(resumed.snapshot(), s);
        c.reset();
        assert_eq!(c.snapshot(), CounterSnapshot::default());
    }

    #[test]
    fn checkpoint_write_counters_accumulate_and_reload() {
        let c = SimCounters::new();
        c.record_checkpoint_write(10_000);
        c.record_checkpoint_write(12_000);
        c.record_step(5, 1, 2);
        let s = c.snapshot();
        assert_eq!(s.checkpoint_writes, 2);
        assert_eq!(s.checkpoint_bytes, 22_000);

        // A resumed run reloads the saved totals and keeps accumulating.
        let resumed = SimCounters::new();
        resumed.load_snapshot(&s);
        assert_eq!(resumed.snapshot(), s);
        resumed.record_checkpoint_write(1_000);
        let s2 = resumed.snapshot();
        assert_eq!(s2.checkpoint_writes, 3);
        assert_eq!(s2.checkpoint_bytes, 23_000);
        assert_eq!(s2.step_calls, 1);
    }

    #[test]
    fn report_counters_accumulate_and_reload() {
        let c = SimCounters::new();
        c.record_report_records(3);
        c.record_report_records(2);
        let s = c.snapshot();
        assert_eq!(s.report_records_streamed, 5);

        let resumed = SimCounters::new();
        resumed.load_snapshot(&s);
        assert_eq!(resumed.snapshot(), s);
        c.reset();
        assert_eq!(c.snapshot(), CounterSnapshot::default());
    }

    #[test]
    fn concurrent_updates_are_lossless() {
        let c = std::sync::Arc::new(SimCounters::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let c = std::sync::Arc::clone(&c);
                scope.spawn(move || {
                    for _ in 0..1000 {
                        c.record_step(3, 1, 2);
                        c.record_restore(16);
                    }
                });
            }
        });
        let s = c.snapshot();
        assert_eq!(s.step_calls, 4000);
        assert_eq!(s.gate_evals, 12000);
        assert_eq!(s.good_events, 4000);
        assert_eq!(s.faulty_events, 8000);
        assert_eq!(s.checkpoint_restores, 4000);
        assert_eq!(s.restore_bytes_avoided, 64000);
    }
}
