//! The evaluation engine: one shared candidate-scoring path for serial and
//! pooled fitness evaluation.
//!
//! The GA's runtime is dominated by candidate fitness evaluation, so this
//! module owns that hot path end to end:
//!
//! * [`evaluate_candidates`] is the *single* scoring routine — restore the
//!   simulator to the generation's checkpoint once, decode the batch into a
//!   reusable scratch buffer, score every candidate in one
//!   [`FaultSim::score`] call (which writes nothing back, so no candidate
//!   needs a restore of its own, and candidates may share fault groups),
//!   and apply the phase's fitness function. Serial evaluation and every
//!   pool worker call the same function, and a candidate's score never
//!   depends on its company, so pooled scores are bit-identical to serial
//!   scores by construction. [`evaluate_candidate`] is its one-candidate
//!   form.
//! * [`EvalPool`] keeps a fixed set of worker threads alive for the whole
//!   run, each owning one `FaultSim` clone. Work arrives through one shared
//!   injector queue of (checkpoint, job, chromosome-chunk) requests and
//!   scores return over a shared reply channel, tagged with their batch
//!   offset so results are reassembled in input order. The shared queue
//!   (rather than per-worker channels) matters on oversubscribed hosts:
//!   chunks are not pinned to particular workers, so whichever workers the
//!   scheduler actually runs drain the whole batch while the rest stay
//!   parked in the condvar — an idle worker never has to be scheduled just
//!   to hand over work it was dealt. This replaces the old
//!   spawn-scoped-threads-per-batch scheme, which deep-cloned the entire
//!   simulator (fault tables included) for every GA generation's batch.
//! * [`EvalContext`] bundles what a candidate's score depends on besides
//!   the chromosome itself: the simulator [`Checkpoint`] (cheap to clone —
//!   copy-on-write `Arc` slices) and the [`EvalJob`] describing the phase,
//!   fault sample, and fitness scale. One context is shared per GA
//!   invocation via `Arc`.

use std::collections::{HashMap, VecDeque};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use gatest_ga::Chromosome;
use gatest_netlist::Circuit;
use gatest_sim::{Checkpoint, FaultId, FaultSim, Logic, SimBackend};
use gatest_telemetry::{SimCounters, SpanHandle};

use crate::fitness::{phase1, phase2, phase3, phase4, FitnessScale, Phase};

/// What to simulate and how to score it, for every candidate of one GA
/// invocation.
#[derive(Debug, Clone)]
pub enum EvalJob {
    /// Phases 1–3: a single vector per candidate.
    Vector {
        /// The phase whose fitness function scores the candidate.
        phase: Phase,
        /// Fault sample evaluated against (unused in phase 1).
        sample: Vec<FaultId>,
        /// Normalization constants for the fitness terms.
        scale: FitnessScale,
        /// Primary-input count (chromosome bits per frame).
        pis: usize,
    },
    /// Phase 4: a multi-frame sequence per candidate.
    Sequence {
        /// Frames per candidate sequence.
        frames: usize,
        /// Fault sample evaluated against.
        sample: Vec<FaultId>,
        /// Normalization constants for the fitness terms.
        scale: FitnessScale,
        /// Primary-input count (chromosome bits per frame).
        pis: usize,
    },
}

/// Everything a candidate's score depends on besides its chromosome.
#[derive(Debug, Clone)]
pub struct EvalContext {
    /// Monotone counter identifying the simulator state this context was
    /// built from: the generator bumps it at every GA invocation start, so
    /// two contexts share an epoch only if they share a checkpoint and
    /// fault sample. The fitness cache keys on it to rule out stale hits.
    pub epoch: u64,
    /// Simulator state every candidate evaluation starts from.
    pub checkpoint: Checkpoint,
    /// The simulation/scoring recipe.
    pub job: EvalJob,
}

impl EvalContext {
    /// The cache-key phase tag of this context's job (1–3 for vector
    /// phases, 4 for sequences).
    fn phase_tag(&self) -> u8 {
        match &self.job {
            EvalJob::Vector { phase, .. } => phase.number(),
            EvalJob::Sequence { .. } => 4,
        }
    }

    /// How many candidates of this context share a fault group when scored
    /// together ([`SimBackend::score_slots`]); 1 in phase 1, which runs no
    /// fault groups.
    fn score_slots(&self, backend: SimBackend, circuit: &Circuit) -> usize {
        match &self.job {
            EvalJob::Vector {
                phase: Phase::Initialization,
                ..
            } => 1,
            EvalJob::Vector { sample, .. } | EvalJob::Sequence { sample, .. } => {
                backend.score_slots(sample.len(), circuit)
            }
        }
    }
}

/// Decodes the first `pis` chromosome bits into `out` (cleared first).
pub fn decode_vector_into(chrom: &Chromosome, pis: usize, out: &mut Vec<Logic>) {
    out.clear();
    out.extend((0..pis).map(|i| Logic::from_bool(chrom.bit(i))));
}

/// Decodes frame `frame` of a sequence chromosome into `out` (cleared
/// first).
pub fn decode_frame_into(chrom: &Chromosome, pis: usize, frame: usize, out: &mut Vec<Logic>) {
    out.clear();
    out.extend((0..pis).map(|i| Logic::from_bool(chrom.bit(frame * pis + i))));
}

/// Scores a batch of candidates: restores `sim` to the context's
/// checkpoint, decodes the batch into `scratch` (reused across calls), and
/// applies the phase's fitness function to what the simulation reports.
///
/// Phases 2–4 score the whole batch in one [`FaultSim::score`] call: every
/// candidate runs from the checkpoint, several may share one fault group,
/// and the simulator is left at the checkpoint, so one restore serves the
/// batch. Phase 1 (two good-machine frames per candidate) restores before
/// each candidate.
///
/// This is the only scoring routine in the crate: the serial path and every
/// [`EvalPool`] worker call it, and each score depends only on the context
/// and its own chromosome, which is what makes pooled evaluation
/// bit-identical to serial evaluation.
pub fn evaluate_candidates(
    sim: &mut FaultSim,
    ctx: &EvalContext,
    batch: &[Chromosome],
    scratch: &mut Vec<Logic>,
) -> Vec<f64> {
    if batch.is_empty() {
        return Vec::new();
    }
    sim.restore(&ctx.checkpoint);
    let (sample, scale, pis, frames) = match &ctx.job {
        EvalJob::Vector {
            phase: Phase::Initialization,
            scale,
            pis,
            ..
        } => {
            return batch
                .iter()
                .enumerate()
                .map(|(i, chrom)| {
                    if i > 0 {
                        sim.restore(&ctx.checkpoint);
                    }
                    decode_vector_into(chrom, *pis, scratch);
                    // Two-frame hold: with deep synchronous-reset
                    // structures, the payoff of a good initialization
                    // vector often appears one frame later (anchors must
                    // reach their rest values before the next rank's reset
                    // can fire), and a single-frame score plateaus. The
                    // winning vector is committed for both frames.
                    sim.step_good_only(scratch);
                    phase1(&sim.step_good_only(scratch), *scale)
                })
                .collect();
        }
        EvalJob::Vector {
            sample, scale, pis, ..
        } => (sample, *scale, *pis, 1),
        EvalJob::Sequence {
            frames,
            sample,
            scale,
            pis,
        } => (sample, *scale, *pis, *frames),
    };
    let bits = frames * pis;
    scratch.clear();
    for chrom in batch {
        scratch.extend(chrom.bits()[..bits].iter().map(|&b| Logic::from_bool(b)));
    }
    let vectors: Vec<&[Logic]> = (0..batch.len() * frames)
        .map(|v| &scratch[v * pis..(v + 1) * pis])
        .collect();
    let windows: Vec<&[&[Logic]]> = (0..batch.len())
        .map(|c| &vectors[c * frames..(c + 1) * frames])
        .collect();
    sim.score(&windows, sample)
        .iter()
        .map(|reports| match &ctx.job {
            EvalJob::Vector {
                phase: Phase::VectorGeneration,
                ..
            } => phase2(&reports[0], scale),
            EvalJob::Vector {
                phase: Phase::StalledVectorGeneration,
                ..
            } => phase3(&reports[0], scale),
            EvalJob::Vector { .. } => unreachable!("sequences use EvalJob::Sequence"),
            EvalJob::Sequence { .. } => phase4(reports, scale),
        })
        .collect()
}

/// Scores one candidate on its own: [`evaluate_candidates`] over a batch
/// of one. `--paranoid-cache` re-scores every candidate this way, so its
/// check also holds scores computed in shared fault groups against scores
/// computed alone.
pub fn evaluate_candidate(
    sim: &mut FaultSim,
    ctx: &EvalContext,
    chrom: &Chromosome,
    scratch: &mut Vec<Logic>,
) -> f64 {
    evaluate_candidates(sim, ctx, std::slice::from_ref(chrom), scratch)[0]
}

/// A bounded LRU cache of candidate fitness scores, keyed by
/// `(epoch, phase, fingerprint)`.
///
/// The epoch comes from [`EvalContext::epoch`] and changes whenever the
/// generator starts a GA invocation from new simulator state, so every
/// entry from an earlier epoch is provably stale; [`EvalCache::begin_epoch`]
/// drops them all at once, which keeps the live key just
/// `(phase, fingerprint)`. Fingerprints can collide, so entries store their
/// chromosome and a lookup only hits on exact bit equality — a collision
/// can cost a redundant simulation, never a wrong score.
///
/// The LRU list is threaded through a slab with index links; no
/// dependencies, O(1) lookup/insert/evict.
#[derive(Debug)]
pub struct EvalCache {
    capacity: usize,
    epoch: u64,
    map: HashMap<(u8, u64), usize>,
    slab: Vec<CacheEntry>,
    /// Most recently used entry, or `NIL`.
    head: usize,
    /// Least recently used entry, or `NIL`.
    tail: usize,
}

#[derive(Debug)]
struct CacheEntry {
    phase: u8,
    fingerprint: u64,
    chrom: Chromosome,
    score: f64,
    prev: usize,
    next: usize,
}

/// Sentinel index terminating the LRU list.
const NIL: usize = usize::MAX;

impl EvalCache {
    /// A cache holding at most `capacity` scores.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0 (use no cache at all instead).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "an EvalCache needs room for at least 1 entry");
        EvalCache {
            capacity,
            epoch: 0,
            map: HashMap::new(),
            slab: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` if the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Switches to `epoch`, dropping every entry if it differs from the
    /// current one (entries keyed under another epoch are provably stale).
    pub fn begin_epoch(&mut self, epoch: u64) {
        if self.epoch != epoch {
            self.epoch = epoch;
            self.map.clear();
            self.slab.clear();
            self.head = NIL;
            self.tail = NIL;
        }
    }

    /// The cached score for `chrom`, if present; refreshes its recency.
    ///
    /// Only returns a score when the stored chromosome's bits equal
    /// `chrom`'s — a fingerprint collision is treated as a miss.
    pub fn lookup(&mut self, phase: u8, fingerprint: u64, chrom: &Chromosome) -> Option<f64> {
        let &idx = self.map.get(&(phase, fingerprint))?;
        if self.slab[idx].chrom != *chrom {
            return None;
        }
        self.unlink(idx);
        self.push_front(idx);
        Some(self.slab[idx].score)
    }

    /// Inserts (or refreshes) a score, evicting the least recently used
    /// entry when full.
    pub fn insert(&mut self, phase: u8, fingerprint: u64, chrom: &Chromosome, score: f64) {
        if let Some(&idx) = self.map.get(&(phase, fingerprint)) {
            // Same key: keep the newest chromosome/score (on a collision
            // the later candidate wins; lookups verify bits either way).
            self.slab[idx].chrom = chrom.clone();
            self.slab[idx].score = score;
            self.unlink(idx);
            self.push_front(idx);
            return;
        }
        let idx = if self.map.len() == self.capacity {
            let victim = self.tail;
            self.unlink(victim);
            let v = &mut self.slab[victim];
            self.map.remove(&(v.phase, v.fingerprint));
            v.phase = phase;
            v.fingerprint = fingerprint;
            v.chrom = chrom.clone();
            v.score = score;
            victim
        } else {
            self.slab.push(CacheEntry {
                phase,
                fingerprint,
                chrom: chrom.clone(),
                score,
                prev: NIL,
                next: NIL,
            });
            self.slab.len() - 1
        };
        self.map.insert((phase, fingerprint), idx);
        self.push_front(idx);
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.slab[idx].prev, self.slab[idx].next);
        match prev {
            NIL => {
                if self.head == idx {
                    self.head = next;
                }
            }
            p => self.slab[p].next = next,
        }
        match next {
            NIL => {
                if self.tail == idx {
                    self.tail = prev;
                }
            }
            n => self.slab[n].prev = prev,
        }
        self.slab[idx].prev = NIL;
        self.slab[idx].next = NIL;
    }

    fn push_front(&mut self, idx: usize) {
        self.slab[idx].next = self.head;
        match self.head {
            NIL => self.tail = idx,
            h => self.slab[h].prev = idx,
        }
        self.head = idx;
    }
}

/// The memoization layer in front of the raw evaluation path: the
/// epoch-keyed [`EvalCache`] plus batch-level chromosome dedup, which rides
/// the same switch.
///
/// [`EvalMemo::evaluate`] answers what it can from the cache, collapses
/// in-batch duplicates, and hands only the distinct unresolved candidates
/// to the raw evaluator, in batch order. Memoized scores are bit-identical
/// to recomputed ones because every candidate's score depends only on the
/// context (checkpointed state, job) and its own bits, never on batch
/// composition or order.
#[derive(Debug)]
pub struct EvalMemo {
    cache: EvalCache,
}

impl EvalMemo {
    /// A memoization layer whose cache holds `cache_entries` scores; `None`
    /// when `cache_entries` is `0`, which switches the layer off.
    pub fn new(cache_entries: usize) -> Option<Self> {
        (cache_entries > 0).then(|| EvalMemo {
            cache: EvalCache::new(cache_entries),
        })
    }

    /// Scores `batch`, calling `raw` at most once with the distinct
    /// candidates that neither the cache nor in-batch dedup could answer.
    ///
    /// `raw` receives those candidates in batch order and must return
    /// their scores in matching order; this function places the scores
    /// back in the batch, fans duplicate scores out, records cache/dedup
    /// counters, and files the fresh scores in the cache.
    pub fn evaluate(
        &mut self,
        ctx: &EvalContext,
        batch: &[Chromosome],
        counters: Option<&SimCounters>,
        raw: impl FnOnce(&[Chromosome]) -> Vec<f64>,
    ) -> Vec<f64> {
        let phase = ctx.phase_tag();
        self.cache.begin_epoch(ctx.epoch);
        let fingerprints: Vec<u64> = batch.iter().map(Chromosome::fingerprint).collect();
        let mut scores: Vec<f64> = vec![0.0; batch.len()];
        let mut resolved = vec![false; batch.len()];
        let mut hits = 0u64;
        // Batch indices of the distinct candidates that must be simulated.
        let mut misses: Vec<usize> = Vec::new();
        // Batch index -> miss slot its score is copied from (duplicates).
        let mut copy_from: Vec<(usize, usize)> = Vec::new();
        // fingerprint -> miss slots with that fingerprint (collision chain).
        let mut seen: HashMap<u64, Vec<usize>> = HashMap::new();
        'candidates: for (i, chrom) in batch.iter().enumerate() {
            if let Some(score) = self.cache.lookup(phase, fingerprints[i], chrom) {
                scores[i] = score;
                resolved[i] = true;
                hits += 1;
                continue;
            }
            if let Some(slots) = seen.get(&fingerprints[i]) {
                for &slot in slots {
                    if batch[misses[slot]] == *chrom {
                        copy_from.push((i, slot));
                        continue 'candidates;
                    }
                }
            }
            seen.entry(fingerprints[i]).or_default().push(misses.len());
            misses.push(i);
        }
        // With no hit and no duplicate (the common cold-batch case), misses
        // is 0..len in order, so the original slice is passed straight
        // through without cloning.
        let slot_scores = if misses.is_empty() {
            Vec::new()
        } else if misses.len() == batch.len() {
            raw(batch)
        } else {
            let work: Vec<Chromosome> = misses.iter().map(|&i| batch[i].clone()).collect();
            raw(&work)
        };
        debug_assert_eq!(slot_scores.len(), misses.len());
        for (slot, &i) in misses.iter().enumerate() {
            scores[i] = slot_scores[slot];
            resolved[i] = true;
            self.cache
                .insert(phase, fingerprints[i], &batch[i], slot_scores[slot]);
        }
        for &(i, slot) in &copy_from {
            scores[i] = slot_scores[slot];
            resolved[i] = true;
        }
        debug_assert!(resolved.iter().all(|&r| r));
        if let Some(c) = counters {
            c.record_cache_outcome(hits, misses.len() as u64);
            c.record_dedup_skips(copy_from.len() as u64);
        }
        scores
    }
}

/// Evaluation chunks dealt to each worker per batch (see
/// [`EvalPool::evaluate`]): enough to absorb uneven candidate costs, few
/// enough that channel traffic stays negligible next to simulation.
const CHUNKS_PER_WORKER: usize = 4;

/// A chunk of candidates to score against a shared context.
struct Request {
    ctx: Arc<EvalContext>,
    chunk: Vec<Chromosome>,
    offset: usize,
}

/// Scores for one chunk, tagged with its position in the batch.
struct Reply {
    offset: usize,
    scores: Vec<f64>,
}

/// The shared work injector: one queue every worker drains.
///
/// Idle workers block in [`Injector::available`] — a condvar wait parks the
/// thread in the kernel, so a worker that never gets scheduled costs
/// nothing. [`EvalPool::evaluate`] wakes at most `min(workers, chunks)`
/// sleepers per batch; on an oversubscribed host the workers that actually
/// run pop whatever is queued (chunks are not pinned to threads), and the
/// rest simply stay parked.
struct Injector {
    queue: Mutex<InjectorState>,
    available: Condvar,
}

struct InjectorState {
    requests: VecDeque<Request>,
    /// Set once by [`EvalPool::drop`]; workers exit when the queue drains.
    shutdown: bool,
}

impl Injector {
    /// Blocks until a request is available (returning it) or shutdown is
    /// flagged with the queue empty (returning `None`).
    fn pop(&self) -> Option<Request> {
        let mut state = self.queue.lock().expect("injector lock poisoned");
        loop {
            if let Some(req) = state.requests.pop_front() {
                return Some(req);
            }
            if state.shutdown {
                return None;
            }
            state = self.available.wait(state).expect("injector lock poisoned");
        }
    }
}

struct Worker {
    handle: Option<JoinHandle<()>>,
}

/// A persistent pool of fitness-evaluation workers.
///
/// Each worker thread owns one [`FaultSim`] clone for the pool's entire
/// lifetime (sharing the base simulator's telemetry counters), so per-batch
/// cost is a few queue pushes instead of a full simulator deep-clone plus
/// thread spawn. Batches are split into contiguous chunks pushed onto one
/// shared [`Injector`] queue, and replies carry their batch offset, so
/// [`EvalPool::evaluate`] returns scores in input order — bit-identical to
/// serial evaluation regardless of which worker scores which chunk.
pub struct EvalPool {
    workers: Vec<Worker>,
    injector: Arc<Injector>,
    reply_rx: Receiver<Reply>,
    counters: Option<Arc<SimCounters>>,
    /// The workers' span handles, one per worker when instrumented.
    spans: Vec<SpanHandle>,
    /// The base simulator's backend and circuit, for the slot count a
    /// context's candidates score at.
    backend: SimBackend,
    circuit: Arc<Circuit>,
}

impl std::fmt::Debug for EvalPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvalPool")
            .field("workers", &self.workers.len())
            .finish_non_exhaustive()
    }
}

impl EvalPool {
    /// Spawns `workers` threads, each owning a clone of `base`.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is 0.
    pub fn new(base: &FaultSim, workers: usize) -> Self {
        Self::with_spans(base, workers, Vec::new())
    }

    /// [`EvalPool::new`], with worker `i` recording its spans into
    /// `spans[i]`, a slot an earlier pool's worker registered. When `base`
    /// is instrumented, workers beyond `spans` register a slot each.
    /// [`EvalPool::spans`] hands them all to the next pool, so a run that
    /// builds a pool per call registers its workers' slots once.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is 0.
    pub fn with_spans(base: &FaultSim, workers: usize, mut spans: Vec<SpanHandle>) -> Self {
        assert!(workers > 0, "a pool needs at least one worker");
        if let Some(instruments) = base.instruments() {
            while spans.len() < workers {
                spans.push(instruments.spans.handle());
            }
        }
        let counters = base.counters().cloned();
        let (reply_tx, reply_rx) = channel::<Reply>();
        let injector = Arc::new(Injector {
            queue: Mutex::new(InjectorState {
                requests: VecDeque::new(),
                shutdown: false,
            }),
            available: Condvar::new(),
        });
        let workers = (0..workers)
            .map(|i| {
                let injector = Arc::clone(&injector);
                let mut sim = base.clone();
                if let Some(handle) = spans.get(i) {
                    sim.set_span_handle(handle.clone());
                }
                let reply_tx = reply_tx.clone();
                let counters = counters.clone();
                let handle = std::thread::spawn(move || {
                    let mut scratch: Vec<Logic> = Vec::new();
                    loop {
                        let wait = Instant::now();
                        let Some(req) = injector.pop() else { break };
                        if let Some(c) = &counters {
                            c.record_pool_idle(wait.elapsed().as_nanos() as u64);
                        }
                        let scores =
                            evaluate_candidates(&mut sim, &req.ctx, &req.chunk, &mut scratch);
                        if reply_tx
                            .send(Reply {
                                offset: req.offset,
                                scores,
                            })
                            .is_err()
                        {
                            break; // pool dropped mid-reply
                        }
                    }
                });
                Worker {
                    handle: Some(handle),
                }
            })
            .collect();
        EvalPool {
            workers,
            injector,
            reply_rx,
            counters,
            spans,
            backend: base.backend(),
            circuit: Arc::clone(base.circuit()),
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// The workers' span handles (empty when uninstrumented), for the next
    /// pool of the same run ([`EvalPool::with_spans`]).
    pub fn spans(&self) -> &[SpanHandle] {
        &self.spans
    }

    /// Scores a batch against a shared context, in input order.
    ///
    /// The batch is split into up to [`CHUNKS_PER_WORKER`] chunks per
    /// worker, pushed onto the shared injector queue; replies are placed
    /// back by offset. One big contiguous chunk per worker (the old split)
    /// made the whole batch wait on its slowest chunk — candidate costs are
    /// uneven, since a step's event count depends on the chromosome — so
    /// finer chunks pulled from a shared queue keep the dispatch granularity
    /// ahead of the stragglers. Chunks are whole multiples of the
    /// candidates one fault group carries ([`SimBackend::score_slots`]), so
    /// a chunk never splits a group a serial batch would fill.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread has died.
    pub fn evaluate(&self, ctx: &Arc<EvalContext>, batch: &[Chromosome]) -> Vec<f64> {
        if batch.is_empty() {
            return Vec::new();
        }
        let chunks = (self.workers.len() * CHUNKS_PER_WORKER).min(batch.len());
        let chunk = batch
            .len()
            .div_ceil(chunks)
            .next_multiple_of(ctx.score_slots(self.backend, &self.circuit));
        let mut sent = 0usize;
        {
            let mut state = self.injector.queue.lock().expect("injector lock poisoned");
            for (i, piece) in batch.chunks(chunk).enumerate() {
                state.requests.push_back(Request {
                    ctx: Arc::clone(ctx),
                    chunk: piece.to_vec(),
                    offset: i * chunk,
                });
                sent += 1;
            }
        }
        // A chunk is claimed by exactly one worker, so waking more sleepers
        // than chunks (or than workers exist) is pure wake-storm; each
        // notify_one admits one parked worker to the queue.
        for _ in 0..sent.min(self.workers.len()) {
            self.injector.available.notify_one();
        }
        if let Some(c) = &self.counters {
            c.record_pool_tasks(sent as u64);
        }
        let mut scores = vec![0.0f64; batch.len()];
        for _ in 0..sent {
            let reply = self.reply_rx.recv().expect("pool worker died");
            scores[reply.offset..reply.offset + reply.scores.len()].copy_from_slice(&reply.scores);
        }
        scores
    }
}

impl Drop for EvalPool {
    fn drop(&mut self) {
        // Flag shutdown and wake every parked worker, then join: pop()
        // returns None once the queue drains and each worker loop exits.
        self.injector
            .queue
            .lock()
            .expect("injector lock poisoned")
            .shutdown = true;
        self.injector.available.notify_all();
        for w in &mut self.workers {
            if let Some(handle) = w.handle.take() {
                let _ = handle.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gatest_ga::Rng;

    fn warmed_sim() -> FaultSim {
        let circuit = Arc::new(gatest_netlist::benchmarks::iscas89("s298").unwrap());
        let mut sim = FaultSim::new(circuit);
        let mut rng = Rng::new(77);
        for _ in 0..4 {
            let v: Vec<Logic> = (0..3).map(|_| Logic::from_bool(rng.coin())).collect();
            sim.step(&v);
        }
        sim
    }

    fn random_batch(bits: usize, n: usize, seed: u64) -> Vec<Chromosome> {
        let mut rng = Rng::new(seed);
        (0..n).map(|_| Chromosome::random(bits, &mut rng)).collect()
    }

    fn vector_ctx(sim: &FaultSim, phase: Phase) -> Arc<EvalContext> {
        let sample = sim.active_faults().to_vec();
        let scale = FitnessScale {
            faults: sample.len(),
            flip_flops: sim.good().circuit().num_dffs(),
            nodes: sim.good().circuit().num_gates(),
        };
        Arc::new(EvalContext {
            epoch: 1,
            checkpoint: sim.checkpoint(),
            job: EvalJob::Vector {
                phase,
                sample,
                scale,
                pis: sim.good().circuit().num_inputs(),
            },
        })
    }

    fn sequence_ctx(sim: &FaultSim, frames: usize, epoch: u64) -> Arc<EvalContext> {
        let sample = sim.active_faults().to_vec();
        let scale = FitnessScale {
            faults: sample.len(),
            flip_flops: sim.good().circuit().num_dffs(),
            nodes: sim.good().circuit().num_gates(),
        };
        Arc::new(EvalContext {
            epoch,
            checkpoint: sim.checkpoint(),
            job: EvalJob::Sequence {
                frames,
                sample,
                scale,
                pis: sim.good().circuit().num_inputs(),
            },
        })
    }

    #[test]
    fn pool_scores_match_serial_bit_for_bit() {
        let sim = warmed_sim();
        let batch = random_batch(3, 32, 5);
        for phase in [
            Phase::Initialization,
            Phase::VectorGeneration,
            Phase::StalledVectorGeneration,
        ] {
            let ctx = vector_ctx(&sim, phase);
            let mut serial_sim = sim.clone();
            let mut scratch = Vec::new();
            let serial: Vec<f64> = batch
                .iter()
                .map(|c| evaluate_candidate(&mut serial_sim, &ctx, c, &mut scratch))
                .collect();
            for workers in [1, 2, 8] {
                let pool = EvalPool::new(&sim, workers);
                let pooled = pool.evaluate(&ctx, &batch);
                assert!(
                    serial
                        .iter()
                        .zip(&pooled)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "{phase:?} workers={workers}: pooled scores must be bit-identical"
                );
            }
        }
    }

    #[test]
    fn sequence_jobs_match_serial() {
        let sim = warmed_sim();
        let frames = 4;
        let pis = sim.good().circuit().num_inputs();
        let ctx = sequence_ctx(&sim, frames, 1);
        let batch = random_batch(frames * pis, 17, 9);
        let mut serial_sim = sim.clone();
        let mut scratch = Vec::new();
        let serial: Vec<f64> = batch
            .iter()
            .map(|c| evaluate_candidate(&mut serial_sim, &ctx, c, &mut scratch))
            .collect();
        let pool = EvalPool::new(&sim, 3);
        let pooled = pool.evaluate(&ctx, &batch);
        assert!(serial
            .iter()
            .zip(&pooled)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn pool_survives_many_batches_and_odd_sizes() {
        let sim = warmed_sim();
        let ctx = vector_ctx(&sim, Phase::VectorGeneration);
        let pool = EvalPool::new(&sim, 4);
        // Sizes below, at, and above the worker count, plus empty.
        for n in [0usize, 1, 3, 4, 5, 64] {
            let batch = random_batch(3, n, n as u64 + 100);
            let scores = pool.evaluate(&ctx, &batch);
            assert_eq!(scores.len(), n);
        }
    }

    #[test]
    fn cache_is_lru_bounded_and_epoch_keyed() {
        let mut rng = Rng::new(11);
        let chroms: Vec<Chromosome> = (0..4).map(|_| Chromosome::random(24, &mut rng)).collect();
        let mut cache = EvalCache::new(2);
        cache.begin_epoch(1);
        cache.insert(2, chroms[0].fingerprint(), &chroms[0], 0.5);
        cache.insert(2, chroms[1].fingerprint(), &chroms[1], 1.5);
        assert_eq!(
            cache.lookup(2, chroms[0].fingerprint(), &chroms[0]),
            Some(0.5)
        );
        // Insert a third entry: chroms[1] is now least recent and evicted.
        cache.insert(2, chroms[2].fingerprint(), &chroms[2], 2.5);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.lookup(2, chroms[1].fingerprint(), &chroms[1]), None);
        assert_eq!(
            cache.lookup(2, chroms[0].fingerprint(), &chroms[0]),
            Some(0.5)
        );
        assert_eq!(
            cache.lookup(2, chroms[2].fingerprint(), &chroms[2]),
            Some(2.5)
        );
        // Same epoch: entries survive; new epoch: all dropped.
        cache.begin_epoch(1);
        assert_eq!(cache.len(), 2);
        cache.begin_epoch(2);
        assert!(cache.is_empty());
        assert_eq!(cache.lookup(2, chroms[0].fingerprint(), &chroms[0]), None);
    }

    #[test]
    fn cache_treats_fingerprint_collisions_as_misses() {
        let a = Chromosome::from_bits(vec![true, false, true]);
        let b = Chromosome::from_bits(vec![false, true, true]);
        let mut cache = EvalCache::new(4);
        cache.begin_epoch(1);
        // Force a collision by filing `a` under a fabricated fingerprint.
        cache.insert(2, 42, &a, 9.0);
        assert_eq!(cache.lookup(2, 42, &a), Some(9.0));
        assert_eq!(cache.lookup(2, 42, &b), None, "bits differ: must miss");
        // Phase is part of the key.
        assert_eq!(cache.lookup(3, 42, &a), None);
    }

    #[test]
    fn memo_answers_duplicates_and_repeats_without_raw_calls() {
        let sim = warmed_sim();
        let ctx = vector_ctx(&sim, Phase::VectorGeneration);
        let mut flat_sim = sim.clone();
        let mut scratch = Vec::new();
        let distinct = random_batch(3, 4, 21);
        // Batch = each distinct chromosome three times over.
        let batch: Vec<Chromosome> = (0..12).map(|i| distinct[i % 4].clone()).collect();
        let expected: Vec<f64> = batch
            .iter()
            .map(|c| evaluate_candidate(&mut flat_sim, &ctx, c, &mut scratch))
            .collect();

        let counters = SimCounters::new();
        let mut memo = EvalMemo::new(64).expect("layer on");
        let mut raw_calls = 0usize;
        let scores = memo.evaluate(&ctx, &batch, Some(&counters), |work| {
            raw_calls += work.len();
            let mut sim = sim.clone();
            let mut scratch = Vec::new();
            work.iter()
                .map(|c| evaluate_candidate(&mut sim, &ctx, c, &mut scratch))
                .collect()
        });
        assert!(expected
            .iter()
            .zip(&scores)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
        assert_eq!(raw_calls, 4, "each distinct chromosome simulated once");
        let snap = counters.snapshot();
        assert_eq!(snap.cache_misses, 4);
        assert_eq!(snap.dedup_skips, 8);
        assert_eq!(snap.cache_hits, 0);

        // The same batch again, same epoch: everything comes from cache.
        let scores2 = memo.evaluate(&ctx, &batch, Some(&counters), |_| {
            panic!("fully cached batch must not reach the raw evaluator")
        });
        assert!(expected
            .iter()
            .zip(&scores2)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
        assert_eq!(counters.snapshot().cache_hits, 12);

        // A new epoch invalidates: the raw evaluator runs again.
        let mut next = (*ctx).clone();
        next.epoch = 2;
        let mut raw_again = 0usize;
        memo.evaluate(&next, &batch, Some(&counters), |work| {
            raw_again = work.len();
            let mut sim = sim.clone();
            let mut scratch = Vec::new();
            work.iter()
                .map(|c| evaluate_candidate(&mut sim, &next, c, &mut scratch))
                .collect()
        });
        assert_eq!(raw_again, 4, "epoch change must drop every cached score");
    }

    #[test]
    fn decode_into_matches_per_bit_indexing() {
        let mut rng = Rng::new(3);
        let chrom = Chromosome::random(12, &mut rng);
        let mut buf = Vec::new();
        decode_vector_into(&chrom, 4, &mut buf);
        assert_eq!(buf.len(), 4);
        for (i, &v) in buf.iter().enumerate() {
            assert_eq!(v, Logic::from_bool(chrom.bit(i)));
        }
        decode_frame_into(&chrom, 4, 2, &mut buf);
        assert_eq!(buf.len(), 4);
        for (i, &v) in buf.iter().enumerate() {
            assert_eq!(v, Logic::from_bool(chrom.bit(8 + i)));
        }
    }
}
