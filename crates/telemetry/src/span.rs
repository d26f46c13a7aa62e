//! Hierarchical timing spans: a guard API recorded into per-thread
//! lock-free rings and aggregated into an exclusive/inclusive time tree.
//!
//! The span hierarchy mirrors the generator's hot path
//! (`run > generation > eval_batch > sim_step / cache_lookup / merge`), so a
//! finished run can attribute wall time to simulation, cache bookkeeping,
//! breeding, and pool coordination without a profiler.
//!
//! # Design
//!
//! Every participating thread owns one [`SpanHandle`] backed by a slot
//! registered with the shared [`SpanCollector`]. All slot state is relaxed
//! atomics written only by the owning thread, so entering and leaving a span
//! costs two clock reads and a handful of uncontended atomic stores — cheap
//! enough to leave enabled on every instrumented run (the `bench_eval`
//! overhead gate holds it under 2% of serial throughput). Aggregation is
//! keyed by `(kind, parent kind)` rather than by full path, which keeps the
//! per-thread table a fixed 7×8 array; the last [`RING_CAP`] raw records per
//! thread are kept in a wrapping ring for debugging and the `/healthz`
//! snapshot.
//!
//! Instrumentation never feeds back into the run: spans observe timing only,
//! so observed and unobserved runs are bit-identical (the property
//! `tests/telemetry.rs` locks down).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The fixed vocabulary of span kinds, mirroring the generator's hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum SpanKind {
    /// One whole `TestGenerator` drive (outermost).
    Run = 0,
    /// One GA generation: selection, breeding, and offspring evaluation.
    Generation = 1,
    /// One batch handed to the fitness path (memo + raw evaluation).
    EvalBatch = 2,
    /// Raw fault simulation (serial eval path and pool worker chunks).
    SimStep = 3,
    /// Memoization bookkeeping: cache probes, dedup, prefix sort.
    CacheLookup = 4,
    /// Fault-group outcome merge into a step's reports and fault state.
    Merge = 5,
    /// GA selection + crossover + mutation, excluding evaluation.
    Breed = 6,
}

/// Number of distinct span kinds.
const NKINDS: usize = 7;
/// Parent index used for top-level spans (no enclosing span).
const ROOT: usize = NKINDS;
/// Deepest tracked nesting; deeper spans are counted as dropped.
const MAX_DEPTH: usize = 16;
/// Raw records kept per thread (wrapping).
const RING_CAP: usize = 256;

impl SpanKind {
    /// Every kind, in tag order.
    pub const ALL: [SpanKind; NKINDS] = [
        SpanKind::Run,
        SpanKind::Generation,
        SpanKind::EvalBatch,
        SpanKind::SimStep,
        SpanKind::CacheLookup,
        SpanKind::Merge,
        SpanKind::Breed,
    ];

    /// The kind's stable snake_case name (used in traces and `/metrics`).
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Run => "run",
            SpanKind::Generation => "generation",
            SpanKind::EvalBatch => "eval_batch",
            SpanKind::SimStep => "sim_step",
            SpanKind::CacheLookup => "cache_lookup",
            SpanKind::Merge => "merge",
            SpanKind::Breed => "breed",
        }
    }

    /// Inverse of [`SpanKind::name`].
    pub fn from_name(name: &str) -> Option<SpanKind> {
        SpanKind::ALL.iter().copied().find(|k| k.name() == name)
    }

    fn from_index(i: usize) -> Option<SpanKind> {
        SpanKind::ALL.get(i).copied()
    }
}

/// One `(count, inclusive, exclusive)` aggregate cell.
#[derive(Default)]
struct AggCell {
    count: AtomicU64,
    incl_ns: AtomicU64,
    excl_ns: AtomicU64,
}

/// One stack frame / ring record: `meta = kind | parent << 8`.
#[derive(Default)]
struct Cell3 {
    meta: AtomicU64,
    start_ns: AtomicU64,
    /// Accumulated child time for stack frames; duration for ring records.
    ns: AtomicU64,
}

/// Per-thread span state. Only the owning thread writes; the collector
/// reads concurrently with relaxed loads (aggregates are monotone, and the
/// ring is debugging data where a torn read across fields is acceptable).
struct ThreadSpans {
    epoch: Instant,
    depth: AtomicUsize,
    frames: [Cell3; MAX_DEPTH],
    agg: Vec<AggCell>,
    ring: Vec<Cell3>,
    cursor: AtomicU64,
    dropped: AtomicU64,
}

impl ThreadSpans {
    fn new(epoch: Instant) -> Self {
        ThreadSpans {
            epoch,
            depth: AtomicUsize::new(0),
            frames: Default::default(),
            agg: (0..NKINDS * (NKINDS + 1))
                .map(|_| AggCell::default())
                .collect(),
            ring: (0..RING_CAP).map(|_| Cell3::default()).collect(),
            cursor: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn current_parent(&self, depth: usize) -> usize {
        if depth == 0 {
            ROOT
        } else {
            (self.frames[depth - 1].meta.load(Relaxed) & 0xff) as usize
        }
    }

    fn aggregate(&self, kind: usize, parent: usize, incl_ns: u64, excl_ns: u64) {
        let cell = &self.agg[kind * (NKINDS + 1) + parent];
        cell.count.fetch_add(1, Relaxed);
        cell.incl_ns.fetch_add(incl_ns, Relaxed);
        cell.excl_ns.fetch_add(excl_ns, Relaxed);
    }

    fn push_record(&self, kind: usize, parent: usize, start_ns: u64, dur_ns: u64) {
        let i = (self.cursor.fetch_add(1, Relaxed) as usize) % RING_CAP;
        let slot = &self.ring[i];
        slot.meta
            .store(kind as u64 | ((parent as u64) << 8), Relaxed);
        slot.start_ns.store(start_ns, Relaxed);
        slot.ns.store(dur_ns, Relaxed);
    }
}

/// A per-thread span recorder obtained from [`SpanCollector::handle`].
///
/// Cloning is cheap (an `Arc` bump) but clones share one span stack, so a
/// handle must only ever be driven from one thread at a time — the intended
/// use is one handle per worker thread. Misuse cannot corrupt memory (all
/// state is atomic), only attribution.
#[derive(Debug, Clone)]
pub struct SpanHandle {
    slot: Arc<ThreadSpans>,
}

impl std::fmt::Debug for ThreadSpans {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadSpans")
            .field("depth", &self.depth.load(Relaxed))
            .field("records", &self.cursor.load(Relaxed))
            .finish()
    }
}

impl SpanHandle {
    /// Opens a span of `kind` nested under the handle's current span (or at
    /// the root). The span closes — and its timing is recorded — when the
    /// returned guard drops.
    pub fn enter(&self, kind: SpanKind) -> SpanGuard {
        let t = &*self.slot;
        let depth = t.depth.load(Relaxed);
        if depth >= MAX_DEPTH {
            t.dropped.fetch_add(1, Relaxed);
            return SpanGuard {
                slot: Arc::clone(&self.slot),
                active: false,
            };
        }
        let parent = t.current_parent(depth);
        let frame = &t.frames[depth];
        frame
            .meta
            .store(kind as u64 | ((parent as u64) << 8), Relaxed);
        frame.start_ns.store(t.now_ns(), Relaxed);
        frame.ns.store(0, Relaxed);
        t.depth.store(depth + 1, Relaxed);
        SpanGuard {
            slot: Arc::clone(&self.slot),
            active: true,
        }
    }

    /// Records an already-measured leaf span of `kind` under the current
    /// span, as if it had just finished. Used where the measured section
    /// cannot own a guard (e.g. time derived as a difference).
    pub fn record(&self, kind: SpanKind, dur: Duration) {
        let t = &*self.slot;
        let dur_ns = dur.as_nanos() as u64;
        let depth = t.depth.load(Relaxed);
        let parent = t.current_parent(depth);
        if depth > 0 {
            // The recorded time elapsed inside the enclosing span's window,
            // so it must not count toward that span's exclusive time.
            t.frames[depth - 1].ns.fetch_add(dur_ns, Relaxed);
        }
        t.aggregate(kind as usize, parent, dur_ns, dur_ns);
        t.push_record(
            kind as usize,
            parent,
            t.now_ns().saturating_sub(dur_ns),
            dur_ns,
        );
    }
}

/// Closes its span on drop. Returned by [`SpanHandle::enter`].
#[derive(Debug)]
pub struct SpanGuard {
    slot: Arc<ThreadSpans>,
    active: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let t = &*self.slot;
        let depth = t.depth.load(Relaxed) - 1;
        t.depth.store(depth, Relaxed);
        let frame = &t.frames[depth];
        let meta = frame.meta.load(Relaxed);
        let kind = (meta & 0xff) as usize;
        let parent = ((meta >> 8) & 0xff) as usize;
        let start_ns = frame.start_ns.load(Relaxed);
        let dur_ns = t.now_ns().saturating_sub(start_ns);
        let excl_ns = dur_ns.saturating_sub(frame.ns.load(Relaxed));
        if depth > 0 {
            t.frames[depth - 1].ns.fetch_add(dur_ns, Relaxed);
        }
        t.aggregate(kind, parent, dur_ns, excl_ns);
        t.push_record(kind, parent, start_ns, dur_ns);
    }
}

/// The shared span sink: hands out per-thread [`SpanHandle`]s and merges
/// their aggregates into a [`SpanSnapshot`].
#[derive(Debug)]
pub struct SpanCollector {
    epoch: Instant,
    threads: Mutex<Vec<Arc<ThreadSpans>>>,
}

impl Default for SpanCollector {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanCollector {
    /// Creates an empty collector; its creation instant is the epoch all
    /// span start offsets are measured from.
    pub fn new() -> Self {
        SpanCollector {
            epoch: Instant::now(),
            threads: Mutex::new(Vec::new()),
        }
    }

    /// Registers a new per-thread recording slot and returns its handle.
    pub fn handle(&self) -> SpanHandle {
        let slot = Arc::new(ThreadSpans::new(self.epoch));
        self.threads.lock().unwrap().push(Arc::clone(&slot));
        SpanHandle { slot }
    }

    /// Spans dropped because they nested deeper than the tracked maximum.
    pub fn dropped(&self) -> u64 {
        self.threads
            .lock()
            .unwrap()
            .iter()
            .map(|t| t.dropped.load(Relaxed))
            .sum()
    }

    /// Merges every thread's aggregates into one `(kind, parent)` tree.
    /// Nodes appear root-parented first, then grouped by parent kind, and
    /// only `(kind, parent)` pairs that actually occurred are included.
    pub fn snapshot(&self) -> SpanSnapshot {
        let threads = self.threads.lock().unwrap();
        let mut nodes = Vec::new();
        let parents = std::iter::once(ROOT).chain(0..NKINDS);
        for parent in parents {
            for kind in 0..NKINDS {
                let idx = kind * (NKINDS + 1) + parent;
                let (mut count, mut incl, mut excl) = (0u64, 0u64, 0u64);
                for t in threads.iter() {
                    let cell = &t.agg[idx];
                    count += cell.count.load(Relaxed);
                    incl += cell.incl_ns.load(Relaxed);
                    excl += cell.excl_ns.load(Relaxed);
                }
                if count > 0 {
                    nodes.push(SpanNode {
                        kind: SpanKind::from_index(kind)
                            .expect("kind in range")
                            .name()
                            .into(),
                        parent: SpanKind::from_index(parent).map(|p| p.name().into()),
                        count,
                        incl_ns: incl,
                        excl_ns: excl,
                    });
                }
            }
        }
        SpanSnapshot { nodes }
    }

    /// The most recent raw records across all threads, oldest first, at most
    /// `max`. Records may be torn while writers are active; this is
    /// debugging data, not an accounting source.
    pub fn recent(&self, max: usize) -> Vec<SpanRecord> {
        let threads = self.threads.lock().unwrap();
        let mut records = Vec::new();
        for t in threads.iter() {
            let written = t.cursor.load(Relaxed);
            let live = (written as usize).min(RING_CAP);
            for back in 0..live {
                let i = (written as usize - 1 - back) % RING_CAP;
                let slot = &t.ring[i];
                let meta = slot.meta.load(Relaxed);
                let Some(kind) = SpanKind::from_index((meta & 0xff) as usize) else {
                    continue;
                };
                records.push(SpanRecord {
                    kind,
                    parent: SpanKind::from_index(((meta >> 8) & 0xff) as usize),
                    start_ns: slot.start_ns.load(Relaxed),
                    dur_ns: slot.ns.load(Relaxed),
                });
            }
        }
        records.sort_by_key(|r| r.start_ns);
        if records.len() > max {
            records.drain(..records.len() - max);
        }
        records
    }
}

/// One raw span occurrence from a thread's ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// The span's kind.
    pub kind: SpanKind,
    /// The enclosing span's kind, if any.
    pub parent: Option<SpanKind>,
    /// Start offset from the collector's epoch.
    pub start_ns: u64,
    /// Duration.
    pub dur_ns: u64,
}

/// The merged `(kind, parent)` aggregate tree of a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanSnapshot {
    /// Aggregate nodes, root-parented first (see
    /// [`SpanCollector::snapshot`] for ordering).
    pub nodes: Vec<SpanNode>,
}

impl SpanSnapshot {
    /// `true` when no spans were recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node for `kind` under `parent`, if it occurred.
    pub fn get(&self, kind: &str, parent: Option<&str>) -> Option<&SpanNode> {
        self.nodes
            .iter()
            .find(|n| n.kind == kind && n.parent.as_deref() == parent)
    }

    /// Total inclusive time of `kind` summed over all parents.
    pub fn total_incl_ns(&self, kind: &str) -> u64 {
        self.nodes
            .iter()
            .filter(|n| n.kind == kind)
            .map(|n| n.incl_ns)
            .sum()
    }
}

/// One aggregated `(kind, parent)` pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// Span kind name (see [`SpanKind::name`]).
    pub kind: String,
    /// Parent kind name; `None` for top-level spans.
    pub parent: Option<String>,
    /// Completed spans aggregated into this node.
    pub count: u64,
    /// Summed wall time from entry to exit.
    pub incl_ns: u64,
    /// Summed wall time not attributed to child spans.
    pub excl_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for kind in SpanKind::ALL {
            assert_eq!(SpanKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(SpanKind::from_name("nope"), None);
    }

    #[test]
    fn nested_guards_build_a_parent_keyed_tree() {
        let collector = SpanCollector::new();
        let handle = collector.handle();
        {
            let _run = handle.enter(SpanKind::Run);
            for _ in 0..3 {
                let _generation = handle.enter(SpanKind::Generation);
                let _batch = handle.enter(SpanKind::EvalBatch);
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        let snap = collector.snapshot();
        let run = snap.get("run", None).expect("root run node");
        assert_eq!(run.count, 1);
        let generation = snap.get("generation", Some("run")).expect("generation");
        assert_eq!(generation.count, 3);
        let batch = snap.get("eval_batch", Some("generation")).expect("batch");
        assert_eq!(batch.count, 3);
        // Inclusive times telescope: run covers its generations, which
        // cover their batches.
        assert!(run.incl_ns >= generation.incl_ns);
        assert!(generation.incl_ns >= batch.incl_ns);
        // Exclusive excludes children: generation spent nearly all its time
        // inside eval_batch.
        assert!(generation.excl_ns <= generation.incl_ns - batch.incl_ns + 1_000_000);
        assert_eq!(snap.get("generation", None), None, "never root-parented");
        assert_eq!(collector.dropped(), 0);
    }

    #[test]
    fn manual_records_attach_to_the_current_parent() {
        let collector = SpanCollector::new();
        let handle = collector.handle();
        {
            let _batch = handle.enter(SpanKind::EvalBatch);
            handle.record(SpanKind::CacheLookup, Duration::from_micros(250));
        }
        handle.record(SpanKind::Merge, Duration::from_micros(10));
        let snap = collector.snapshot();
        let lookup = snap.get("cache_lookup", Some("eval_batch")).unwrap();
        assert_eq!(lookup.count, 1);
        assert_eq!(lookup.incl_ns, 250_000);
        assert_eq!(lookup.excl_ns, 250_000);
        // The recorded time is excluded from the parent's exclusive time.
        let batch = snap.get("eval_batch", None).unwrap();
        assert!(batch.excl_ns <= batch.incl_ns.saturating_sub(250_000));
        let merge = snap.get("merge", None).unwrap();
        assert_eq!(merge.incl_ns, 10_000);
    }

    #[test]
    fn over_deep_nesting_is_dropped_not_corrupted() {
        let collector = SpanCollector::new();
        let handle = collector.handle();
        let guards: Vec<SpanGuard> = (0..MAX_DEPTH + 5)
            .map(|_| handle.enter(SpanKind::SimStep))
            .collect();
        drop(guards);
        assert_eq!(collector.dropped(), 5);
        let snap = collector.snapshot();
        let total: u64 = snap.nodes.iter().map(|n| n.count).sum();
        assert_eq!(total, MAX_DEPTH as u64);
    }

    #[test]
    fn threads_merge_into_one_snapshot() {
        let collector = Arc::new(SpanCollector::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let handle = collector.handle();
                std::thread::spawn(move || {
                    for _ in 0..10 {
                        let _g = handle.enter(SpanKind::SimStep);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = collector.snapshot();
        assert_eq!(snap.get("sim_step", None).unwrap().count, 40);
        assert_eq!(snap.total_incl_ns("sim_step"), snap.nodes[0].incl_ns);
    }

    #[test]
    fn ring_keeps_the_most_recent_records() {
        let collector = SpanCollector::new();
        let handle = collector.handle();
        for _ in 0..RING_CAP + 10 {
            let _g = handle.enter(SpanKind::Merge);
        }
        let recent = collector.recent(16);
        assert_eq!(recent.len(), 16);
        assert!(recent.iter().all(|r| r.kind == SpanKind::Merge));
        assert!(
            recent.windows(2).all(|w| w[0].start_ns <= w[1].start_ns),
            "records are ordered by start"
        );
        assert_eq!(collector.recent(usize::MAX).len(), RING_CAP);
    }
}
