//! PROOFS-style sequential fault simulator.
//!
//! Follows the published structure of PROOFS (Niermann, Cheng, Patel, 1992):
//!
//! * **single-fault propagation**: each undetected fault is simulated as an
//!   independent faulty machine, but many faults are packed into the bit
//!   lanes of one packed word — 64 with the [`Pv64`](crate::Pv64) backend,
//!   256 with [`Pv256`](crate::Pv256) — and propagated together (see
//!   [`SimBackend`]);
//! * **event-driven, levelized evaluation**: only gates in the fanout cone of
//!   a difference are re-evaluated, in level order;
//! * **fault dropping**: faults detected at a primary output are removed
//!   from the active list;
//! * **sparse faulty state**: each fault stores only the flip-flops in which
//!   its faulty machine differs from the good machine.
//!
//! On top of the PROOFS core, this implementation adds the paper's §IV
//! modifications for use inside a GA fitness function:
//!
//! * [`FaultSim::checkpoint`] / [`FaultSim::restore`] save and restore the
//!   good state, the faulty states, and fault detection status so candidate
//!   tests can be evaluated without committing them — implemented
//!   **copy-on-write**: checkpoints share the fault-state tables by `Arc`
//!   pointer, so saving costs one good-machine copy and restoring re-shares
//!   pointers instead of copying every fault's state back;
//! * per-step counts of faulty-circuit events and of fault effects
//!   propagated to flip-flops, which the phase-2/3/4 fitness functions use.
//!
//! The fault model is the fault list's ([`FaultList::model`]): a
//! [`FaultList::transition`] list runs through the same window routine,
//! forcing each fault only in the frames that launch its slow edge.

use std::sync::Arc;

use gatest_netlist::levelize::Levelization;
use gatest_netlist::Circuit;
use gatest_telemetry::{Instruments, SimCounters, SpanHandle, SpanKind};

use crate::fault::{FaultId, FaultList, FaultModel, FaultStatus};
use crate::good_sim::{advance, GoodSim, GoodSimState, GoodStepReport};
use crate::group::{
    Arena, FaultyFfState, GoodFrame, GroupCtx, GroupOutcome, GroupWidth, OutcomeSlots, SlotFrames,
    WindowKind,
};
use crate::value::{LaneMask, Logic, Pv256, Pv64, SimBackend};

/// Statistics from simulating one frame: over the undetected faults for a
/// commit ([`FaultSim::step`], [`FaultSim::step_window`]), over the sample
/// for a score ([`FaultSim::score`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StepReport {
    /// Faults detected by this frame, in fault-id order. A commit drops
    /// them; a score reports a sample fault at every frame that detects it.
    pub newly_detected: Vec<FaultId>,
    /// Per-output detection syndrome for this frame: `(fault, po index)`
    /// pairs, one for every primary output at which the faulty and good
    /// values are both known (0 or 1) and differ, sorted by `(fault, po)`.
    /// The sort canonicalizes an order that would otherwise depend on how
    /// faults were grouped, so reports compare equal across
    /// [`SimBackend`]s. Fault dictionaries and diagnosis build on this.
    pub po_detections: Vec<(FaultId, u16)>,
    /// Fault effects latched into flip-flops by this frame, counted as
    /// (fault, flip-flop) pairs: the faulty D value, with a branch fault on
    /// the flip-flop's input applied, differs from the good next state.
    /// Any 0/1/X difference counts, X against a known value included.
    pub ff_effect_pairs: u64,
    /// Number of distinct faults with at least one effect at a flip-flop.
    pub ff_effect_faults: u64,
    /// Transition faults whose launch condition held this frame (the good
    /// machine fired their slow edge), among the faults simulated; always 0
    /// for stuck-at lists.
    pub launched: u64,
    /// Good-circuit events (net value changes) this frame.
    pub good_events: u64,
    /// Faulty-circuit events, summed over the simulated faulty machines:
    /// the combinational gates whose faulty value differs from the good
    /// value this frame. A fault's own stem site does not count in a frame
    /// that forces it.
    pub faulty_events: u64,
    /// Gate evaluations this frame: every good-machine combinational gate
    /// plus one per packed faulty re-evaluation. Telemetry only — this is
    /// the one report field that legitimately depends on the configured
    /// [`SimBackend`] (a wider word covers more faults per evaluation), so
    /// cross-backend identity tests exclude it.
    pub gate_evals: u64,
    /// Good-circuit frame statistics (flip-flops set/changed).
    pub good: GoodStepReport,
}

impl StepReport {
    /// Number of faults newly detected by this vector.
    pub fn detected(&self) -> usize {
        self.newly_detected.len()
    }
}

/// A saved simulator state: good machine, faulty machines, fault status.
///
/// Produced by [`FaultSim::checkpoint`]; the paper's §IV describes exactly
/// this mechanism ("store and restore the good and faulty circuit states and
/// the fault detection status before and after each \[candidate\] test").
///
/// The faulty-machine state is shared **copy-on-write** with the simulator:
/// taking a checkpoint clones three `Arc` pointers (plus the good-machine
/// value arrays), not the per-fault payloads, and [`FaultSim::restore`]
/// re-shares the same pointers instead of copying fault state back. The
/// simulator only pays for a deep copy on first mutation after a
/// checkpoint/restore, and then only for the outer pointer table plus the
/// entries it actually rewrites.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    good: GoodSimState,
    status: Arc<Vec<FaultStatus>>,
    active: Arc<Vec<FaultId>>,
    faulty_ff: Arc<Vec<FaultyFfState>>,
    /// Total `(dff, value)` entries across `faulty_ff`, maintained so the
    /// avoided-copy telemetry estimate is O(1).
    ff_entries: usize,
    vectors_applied: u32,
}

impl Checkpoint {
    /// Exports the saved state as owned plain data (see [`SimState`])
    /// without needing the simulator itself. A checkpoint file writer uses
    /// this to serialize the state a run had at the *start* of the current
    /// GA invocation even while the live simulator carries scratch state
    /// from candidate evaluation.
    pub fn export_state(&self) -> SimState {
        SimState {
            good_values: self.good.values().to_vec(),
            good_next_state: self.good.next_state().to_vec(),
            status: self.status.as_ref().clone(),
            faulty_ff: self.faulty_ff.iter().map(|e| e.to_vec()).collect(),
            vectors_applied: self.vectors_applied,
        }
    }
}

/// A complete, owned, serializable snapshot of a [`FaultSim`]'s mutable
/// state, produced by [`FaultSim::export_state`] and reloaded with
/// [`FaultSim::import_state`].
///
/// Unlike [`Checkpoint`] — which `Arc`-shares the fault tables for cheap
/// in-process save/restore — this struct owns plain vectors of plain data,
/// so a checkpoint file writer can serialize every field and a fresh
/// simulator (in a different process) can adopt it exactly. The active
/// fault list is not stored: it is recomputed from `status`, which is the
/// single source of truth for detection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimState {
    /// Good-machine net values, one per net.
    pub good_values: Vec<Logic>,
    /// Good-machine latched next-state values, one per flip-flop.
    pub good_next_state: Vec<Logic>,
    /// Detection status, one per fault in fault-id order.
    pub status: Vec<FaultStatus>,
    /// Sparse faulty flip-flop state per fault: `(dff index, faulty value)`
    /// wherever the faulty machine differs from the good machine.
    pub faulty_ff: Vec<Vec<(u32, Logic)>>,
    /// Vectors committed so far.
    pub vectors_applied: u32,
}

/// The sequential fault simulator.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use gatest_sim::{FaultSim, Logic};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let circuit = Arc::new(gatest_netlist::benchmarks::iscas89("s27")?);
/// let mut sim = FaultSim::new(circuit);
/// let total = sim.fault_list().len();
/// let r = sim.step(&[Logic::One, Logic::One, Logic::Zero, Logic::Zero]);
/// assert!(r.detected() > 0, "the first vector detects something");
/// assert!(sim.remaining() < total);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct FaultSim {
    circuit: Arc<Circuit>,
    good: GoodSim,
    faults: FaultList,
    /// Detection status per fault. `Arc`-shared with checkpoints; mutated
    /// through [`Arc::make_mut`] so shared checkpoints stay frozen.
    status: Arc<Vec<FaultStatus>>,
    /// Undetected faults, in fault-id order. `Arc`-shared like `status`.
    active: Arc<Vec<FaultId>>,
    /// Sparse faulty flip-flop state per fault. Both the outer table and
    /// each per-fault slice are `Arc`-shared copy-on-write with checkpoints.
    faulty_ff: Arc<Vec<FaultyFfState>>,
    /// Total entries across `faulty_ff` (kept incrementally).
    ff_entries: usize,
    /// The shared empty slice, so clearing a fault's state allocates nothing.
    empty_ff: Arc<[(u32, Logic)]>,
    vectors_applied: u32,
    /// Optional shared telemetry counters; clones of this simulator (the
    /// parallel fitness workers) aggregate into the same instance.
    counters: Option<Arc<SimCounters>>,
    /// Optional shared instrumentation bundle (hierarchical spans and
    /// latency histograms); shared by clones like `counters`.
    instruments: Option<Arc<Instruments>>,
    /// This simulator's per-thread span slot, registered lazily on the
    /// first instrumented step. Deliberately **not** cloned: each clone
    /// (typically living on its own worker thread) registers its own slot,
    /// keeping span recording single-writer per thread.
    probe: Option<SpanHandle>,
    /// Combinational gates evaluated by one good-machine frame.
    comb_gates: u64,
    /// The requested packed-value backend (possibly `Auto`).
    backend: SimBackend,
    /// Execution scratch: arena and outcome slots.
    engine: Engine,
}

/// The simulator's execution scratch: the propagation arena (built by the
/// first step), per-width outcome slots, and the good frames a window
/// computes. Nothing here outlives a step's meaning, so a clone starts
/// empty and builds its own on demand.
#[derive(Debug, Default)]
struct Engine {
    /// The simulator's own propagation arena, shared by both widths.
    arena: Option<Arena>,
    /// Per-frame outcome slots, reused across steps.
    slots: OutcomeSlots,
    /// The good frames of a committed window, or of the candidates one
    /// scored group carries: per candidate, per frame, the net values and
    /// then the next state.
    good: Vec<Logic>,
}

impl Clone for Engine {
    /// A fresh, empty engine: arenas and slots are never copied.
    fn clone(&self) -> Self {
        Engine::default()
    }
}

impl Clone for FaultSim {
    /// Clones the simulator state but **not** its execution scratch: the
    /// clone keeps its backend setting and lazily builds its own arena.
    fn clone(&self) -> Self {
        FaultSim {
            circuit: Arc::clone(&self.circuit),
            good: self.good.clone(),
            faults: self.faults.clone(),
            status: Arc::clone(&self.status),
            active: Arc::clone(&self.active),
            faulty_ff: Arc::clone(&self.faulty_ff),
            ff_entries: self.ff_entries,
            empty_ff: Arc::clone(&self.empty_ff),
            vectors_applied: self.vectors_applied,
            counters: self.counters.clone(),
            instruments: self.instruments.clone(),
            probe: None,
            comb_gates: self.comb_gates,
            backend: self.backend,
            engine: self.engine.clone(),
        }
    }
}

impl FaultSim {
    /// Creates a simulator over the equivalence-collapsed fault list.
    pub fn new(circuit: Arc<Circuit>) -> Self {
        let faults = FaultList::collapsed(&circuit);
        Self::with_faults(circuit, faults)
    }

    /// Creates a simulator over a caller-supplied fault list.
    pub fn with_faults(circuit: Arc<Circuit>, faults: FaultList) -> Self {
        let good = GoodSim::new(Arc::clone(&circuit));
        let nfaults = faults.len();
        let comb_gates = circuit
            .net_ids()
            .filter(|&id| circuit.kind(id).is_combinational())
            .count() as u64;
        let empty_ff: Arc<[(u32, Logic)]> = Arc::from(Vec::new());
        FaultSim {
            circuit,
            good,
            status: Arc::new(vec![FaultStatus::Undetected; nfaults]),
            active: Arc::new((0..nfaults as u32).map(FaultId).collect()),
            faulty_ff: Arc::new(vec![Arc::clone(&empty_ff); nfaults]),
            ff_entries: 0,
            empty_ff,
            vectors_applied: 0,
            counters: None,
            instruments: None,
            probe: None,
            comb_gates,
            faults,
            backend: SimBackend::default(),
            engine: Engine::default(),
        }
    }

    /// The circuit under simulation.
    pub fn circuit(&self) -> &Arc<Circuit> {
        &self.circuit
    }

    /// The fault list being targeted.
    pub fn fault_list(&self) -> &FaultList {
        &self.faults
    }

    /// The embedded good-machine simulator (read-only view).
    pub fn good(&self) -> &GoodSim {
        &self.good
    }

    /// Status of fault `id`.
    pub fn status(&self, id: FaultId) -> FaultStatus {
        self.status[id.index()]
    }

    /// Number of detected faults so far.
    pub fn detected_count(&self) -> usize {
        self.faults.len() - self.active.len()
    }

    /// Number of still-undetected faults.
    pub fn remaining(&self) -> usize {
        self.active.len()
    }

    /// The undetected faults, in fault-id order.
    pub fn active_faults(&self) -> &[FaultId] {
        &self.active
    }

    /// Number of vectors committed with [`FaultSim::step`] so far.
    pub fn vectors_applied(&self) -> u32 {
        self.vectors_applied
    }

    /// Attaches (or detaches, with `None`) shared telemetry counters.
    ///
    /// Counters are recorded once per step with relaxed atomics, so the
    /// hot-path cost is negligible; clones of this simulator keep reporting
    /// into the same shared instance.
    pub fn set_counters(&mut self, counters: Option<Arc<SimCounters>>) {
        if let Some(counters) = &counters {
            // The CSR adjacency arena is sized at construction, so report
            // the gauge once at attach time rather than per step.
            counters.record_csr_bytes(self.good.levelization().csr_bytes());
        }
        self.counters = counters;
    }

    /// The attached telemetry counters, if any.
    pub fn counters(&self) -> Option<&Arc<SimCounters>> {
        self.counters.as_ref()
    }

    /// Attaches (or detaches, with `None`) the shared instrumentation
    /// bundle: step and merge timings flow into its span tree. Like
    /// [`FaultSim::set_counters`], clones keep reporting into the same
    /// shared bundle. Instrumentation is observational only — results are
    /// bit-identical with or without it.
    pub fn set_instruments(&mut self, instruments: Option<Arc<Instruments>>) {
        self.instruments = instruments;
        self.probe = None;
    }

    /// The attached instrumentation bundle, if any.
    pub fn instruments(&self) -> Option<&Arc<Instruments>> {
        self.instruments.as_ref()
    }

    /// Adopts `handle` as this simulator's span slot, so a clone driven
    /// from a new thread can record into a slot an earlier clone registered
    /// instead of registering one of its own. The handle must not be driven
    /// from another thread at the same time.
    pub fn set_span_handle(&mut self, handle: SpanHandle) {
        self.probe = Some(handle);
    }

    /// This simulator's span handle, registering a per-thread slot with the
    /// collector on first use. `None` when uninstrumented.
    fn probe(&mut self) -> Option<SpanHandle> {
        if self.probe.is_none() {
            if let Some(instruments) = &self.instruments {
                self.probe = Some(instruments.spans.handle());
            }
        }
        self.probe.clone()
    }

    /// Sets the packed-value backend for every step (see [`SimBackend`]).
    /// The backend is a pure execution detail: results are bit-identical
    /// at every width, so it is safe to change between runs (or mid-run).
    /// The default, `Auto`, picks each step's width from the number of
    /// faults it simulates and the circuit's shape
    /// ([`SimBackend::for_step`]); the arena is shared by both widths, so
    /// switching costs nothing beyond growing its planes once.
    pub fn set_backend(&mut self, backend: SimBackend) {
        self.backend = backend;
    }

    /// The requested packed-value backend (possibly `Auto`; use
    /// [`SimBackend::for_step`] for the width a step runs at).
    pub fn backend(&self) -> SimBackend {
        self.backend
    }

    /// The sparse faulty flip-flop state of fault `id`: `(dff index,
    /// faulty value)` wherever its machine differs from the good machine.
    /// Exposed so tests can assert state identity across paths and widths.
    pub fn faulty_ff_state(&self, id: FaultId) -> &[(u32, Logic)] {
        &self.faulty_ff[id.index()]
    }

    /// Applies one vector, simulating **all** undetected faults, dropping
    /// any that are detected.
    ///
    /// # Panics
    ///
    /// Panics if `vector.len() != circuit.num_inputs()`.
    pub fn step(&mut self, vector: &[Logic]) -> StepReport {
        self.window(&[vector]).pop().expect("one report per vector")
    }

    /// Applies one vector to the good machine only (no fault propagation).
    /// Used for the phase-1 (initialization) fitness, which needs only
    /// flip-flop statistics.
    pub fn step_good_only(&mut self, vector: &[Logic]) -> GoodStepReport {
        let probe = self.probe();
        let _step_span = probe.as_ref().map(|p| p.enter(SpanKind::SimStep));
        self.vectors_applied += 1;
        let report = self.good.apply(vector);
        if let Some(counters) = &self.counters {
            counters.record_good_only(self.comb_gates, report.events);
        }
        report
    }

    /// Applies a window of vectors in one batched commit, returning one
    /// report per vector.
    ///
    /// Every group of faults replays the whole window in one pass, carrying
    /// its faulty flip-flop divergence frame to frame inside the
    /// propagation arena instead of round-tripping it through the shared
    /// copy-on-write table after every vector. Lanes detected at a frame
    /// are masked out of later frames, exactly like fault dropping between
    /// steps.
    ///
    /// Detection, dropping, final faulty-FF state, and every report field
    /// are bit-identical to calling [`FaultSim::step`] once per vector,
    /// except `gate_evals` (dead lanes may still occupy packed evaluations
    /// their group schedules — the field is already excluded from identity
    /// comparisons as width-dependent).
    ///
    /// # Panics
    ///
    /// Panics if any vector's length differs from `circuit.num_inputs()`.
    pub fn step_window(&mut self, vectors: &[Vec<Logic>]) -> Vec<StepReport> {
        let reports = self.window(vectors);
        if let Some(counters) = &self.counters {
            counters.record_commit_batch(vectors.len() as u64);
        }
        reports
    }

    /// The one committing routine behind [`FaultSim::step`] and
    /// [`FaultSim::step_window`]: applies `vectors` as one window over every
    /// undetected fault and drops what it detects.
    ///
    /// [`FaultSim::good_frames`] computes the window's good frames, as for
    /// a score, and the groups run them as a [`WindowKind::Full`] window: a
    /// detected fault leaves its later frames, and the last frame writes
    /// the surviving faults' state back and clears the dropped ones'. The
    /// good machine then takes the last frame. Each detected fault is
    /// stamped with the 0-based index of the vector that caught it.
    fn window<V: AsRef<[Logic]>>(&mut self, vectors: &[V]) -> Vec<StepReport> {
        if vectors.is_empty() {
            return Vec::new();
        }
        let probe = self.probe();
        let _step_span = probe.as_ref().map(|p| p.enter(SpanKind::SimStep));
        let mut reports = vec![Vec::with_capacity(vectors.len())];
        let mut good = std::mem::take(&mut self.engine.good);
        self.good_frames(&[vectors], &mut good, &mut reports);
        // The groups read the active list while the merge writes the
        // faulty-FF table. The clone goes before the list is re-filtered,
        // so filtering does not copy it.
        let active = Arc::clone(&self.active);
        let run = match self.backend.for_step(active.len(), &self.circuit) {
            SimBackend::Scalar64 => Self::run_windows::<Pv64, 1>,
            _ => Self::run_windows::<Pv256, 1>,
        };
        let (scratch_bytes, events_amortized) = run(
            self,
            &good,
            vectors.len(),
            &active,
            WindowKind::Full,
            probe.as_ref(),
            &mut reports,
        );
        drop(active);
        let nets = self.circuit.num_gates();
        let last = (vectors.len() - 1) * (nets + self.circuit.num_dffs());
        let (values, next_state) = good[last..].split_at(nets);
        self.good.load(values, next_state);
        self.engine.good = good;
        let mut reports = reports.pop().expect("one window");
        self.record_counters(&reports, scratch_bytes, events_amortized);

        let base_vector = self.vectors_applied;
        self.vectors_applied += vectors.len() as u32;
        let mut any_detected = false;
        for (f, report) in reports.iter_mut().enumerate() {
            let newly = &report.newly_detected;
            if newly.is_empty() {
                continue;
            }
            any_detected = true;
            let status = Arc::make_mut(&mut self.status);
            for &fault in newly {
                status[fault.index()] = FaultStatus::Detected {
                    vector: base_vector + f as u32,
                };
            }
        }
        if any_detected {
            let status = &self.status;
            Arc::make_mut(&mut self.active)
                .retain(|f| matches!(status[f.index()], FaultStatus::Undetected));
        }
        reports
    }

    /// Adds the frames of `reports` and a window's or batch's scratch
    /// tallies to the attached counters.
    fn record_counters<'r>(
        &self,
        reports: impl IntoIterator<Item = &'r StepReport>,
        scratch_bytes: u64,
        events_amortized: u64,
    ) {
        if let Some(counters) = &self.counters {
            for report in reports {
                counters.record_step(report.gate_evals, report.good_events, report.faulty_events);
            }
            counters.record_scratch_reuse(scratch_bytes);
            counters.record_events_amortized(events_amortized);
        }
    }

    /// Scores candidate windows over `sample` from the simulator's current
    /// state, and changes nothing. Candidate `c`'s reports say, frame by
    /// frame, what the sample faults do under `candidates[c]`: each fault
    /// starts from its current faulty flip-flop state, and a fault detected
    /// at a frame restarts from the good state at the next one, so it may
    /// be detected, and reported, again. The good machine, the detection
    /// status, the active list, the faulty flip-flop state and
    /// `vectors_applied` stay as they are, so a caller that scores a GA
    /// batch from a checkpoint need not restore between candidates.
    ///
    /// Each candidate's good frames are computed in reused scratch. Where
    /// the sample fits two 64-lane words, consecutive candidates share
    /// 256-lane fault groups, each in its own word-aligned slot
    /// ([`SimBackend::score_slots`]); a group's `gate_evals` are reported
    /// on its first candidate's frames. A candidate left alone runs at
    /// [`SimBackend::for_step`]'s width. Every report field but
    /// `gate_evals` is the same at every width and however the candidates
    /// are batched.
    ///
    /// # Panics
    ///
    /// Panics if the candidates differ in length, or if any vector's length
    /// differs from `circuit.num_inputs()`.
    pub fn score<V: AsRef<[Logic]>>(
        &mut self,
        candidates: &[&[V]],
        sample: &[FaultId],
    ) -> Vec<Vec<StepReport>> {
        let frames = candidates.first().map_or(0, |c| c.len());
        assert!(
            candidates.iter().all(|c| c.len() == frames),
            "every scored candidate must have the same number of vectors"
        );
        let mut reports: Vec<Vec<StepReport>> = vec![Vec::new(); candidates.len()];
        if frames == 0 {
            return reports;
        }
        let probe = self.probe();
        let _step_span = probe.as_ref().map(|p| p.enter(SpanKind::SimStep));
        let slots = self.backend.score_slots(sample.len(), &self.circuit);
        let alone = self.backend.for_step(sample.len(), &self.circuit);
        let mut good = std::mem::take(&mut self.engine.good);
        let (mut scratch_bytes, mut events_amortized) = (0, 0);
        let mut start = 0;
        while start < candidates.len() {
            let used = slots.min(candidates.len() - start);
            let group_reports = &mut reports[start..start + used];
            self.good_frames(&candidates[start..start + used], &mut good, group_reports);
            let run = match (used, slots, alone) {
                (1, _, SimBackend::Scalar64) => Self::run_windows::<Pv64, 1>,
                (1, ..) => Self::run_windows::<Pv256, 1>,
                (_, 2, _) => Self::run_windows::<Pv256, 2>,
                _ => Self::run_windows::<Pv256, 4>,
            };
            let (bytes, amortized) = run(
                self,
                &good,
                frames,
                sample,
                WindowKind::Score,
                probe.as_ref(),
                group_reports,
            );
            scratch_bytes += bytes;
            events_amortized += amortized;
            start += used;
        }
        self.engine.good = good;
        self.record_counters(reports.iter().flatten(), scratch_bytes, events_amortized);
        reports
    }

    /// Computes the good frames of `candidates` into `good`, from the
    /// simulator's good machine, which it leaves untouched: candidate `c`'s
    /// frame `f` holds the net values and then the next state, at
    /// `(c * frames + f) * (nets + flip-flops)`. Pushes each frame's
    /// good-machine report fields to the candidate's `reports`. Every
    /// window's frames come from here, committed and scored alike.
    fn good_frames<V: AsRef<[Logic]>>(
        &self,
        candidates: &[&[V]],
        good: &mut Vec<Logic>,
        reports: &mut [Vec<StepReport>],
    ) {
        let (values, next_state) = (self.good.values(), self.good.next_states());
        let nets = values.len();
        let frame_len = nets + next_state.len();
        let window_len = candidates[0].len() * frame_len;
        good.resize(candidates.len() * window_len, Logic::X);
        for ((candidate, window), reports) in candidates
            .iter()
            .zip(good.chunks_exact_mut(window_len))
            .zip(reports)
        {
            window[..nets].copy_from_slice(values);
            window[nets..frame_len].copy_from_slice(next_state);
            for (f, vector) in candidate.iter().enumerate() {
                let vector = vector.as_ref();
                assert_eq!(
                    vector.len(),
                    self.circuit.num_inputs(),
                    "vector length must match the primary input count"
                );
                let at = f * frame_len;
                if f > 0 {
                    window.copy_within(at - frame_len..at, at);
                }
                let (values, next_state) = window[at..at + frame_len].split_at_mut(nets);
                let good_report = advance(
                    &self.circuit,
                    self.good.levelization(),
                    values,
                    next_state,
                    vector,
                );
                reports.push(StepReport {
                    good_events: good_report.events,
                    gate_evals: self.comb_gates,
                    good: good_report,
                    ..StepReport::default()
                });
            }
        }
    }

    /// Runs the windows whose good frames [`FaultSim::good_frames`] left in
    /// `good` over `targets`, in `K`-slot groups of width `P` (one slot per
    /// window), as `kind` windows, merging into their `reports`. The good
    /// machine has not moved yet, so its values are the good state before
    /// the first frame. Returns `(scratch_bytes, events_amortized)`.
    #[allow(clippy::too_many_arguments)]
    fn run_windows<P: GroupWidth, const K: usize>(
        &mut self,
        good: &[Logic],
        frames: usize,
        targets: &[FaultId],
        kind: WindowKind,
        probe: Option<&SpanHandle>,
        reports: &mut [Vec<StepReport>],
    ) -> (u64, u64) {
        let nets = self.circuit.num_gates();
        let frame_len = nets + self.circuit.num_dffs();
        // Unused slots replay the first candidate's frames; no lane of
        // theirs carries a fault, so they only ever hold good values.
        let slot_frames: Vec<SlotFrames<'_, K>> = (0..frames)
            .map(|f| {
                std::array::from_fn(|slot| {
                    let slot = if slot < reports.len() { slot } else { 0 };
                    let at = (slot * frames + f) * frame_len;
                    GoodFrame {
                        values: &good[at..at + nets],
                        next_state: &good[at + nets..at + frame_len],
                    }
                })
            })
            .collect();
        let before = (self.faults.model() == FaultModel::Transition).then(|| self.good.values());
        if let Some(counters) = &self.counters {
            if P::LANES > 64 {
                let groups = targets.len().div_ceil(P::LANES / K);
                counters.record_backend_groups(P::LANES as u64, (groups * frames) as u64);
            }
        }
        run_groups::<P, K>(
            &self.circuit,
            self.good.levelization(),
            &self.faults,
            &mut self.faulty_ff,
            &mut self.ff_entries,
            &self.empty_ff,
            before,
            targets,
            kind,
            &slot_frames,
            &mut self.engine,
            probe,
            reports,
        )
    }

    /// Saves the complete simulator state (good machine, faulty machines,
    /// fault status) for later [`FaultSim::restore`].
    ///
    /// Copy-on-write: the fault-state tables are shared by pointer, so this
    /// copies only the good-machine value arrays — no per-fault payloads.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            good: self.good.snapshot(),
            status: Arc::clone(&self.status),
            active: Arc::clone(&self.active),
            faulty_ff: Arc::clone(&self.faulty_ff),
            ff_entries: self.ff_entries,
            vectors_applied: self.vectors_applied,
        }
    }

    /// Restores a checkpoint taken from any simulator over the same circuit
    /// and fault list (clones included, so pooled fitness workers can adopt
    /// a checkpoint taken by the generator's own simulator).
    ///
    /// Copy-on-write: when the simulator's fault tables are shared (e.g.
    /// right after a checkpoint), it re-adopts the checkpoint's tables by
    /// pointer. When it owns its tables uniquely — the steady state of a
    /// restore/evaluate loop, where each evaluation's first write un-shared
    /// them — it copies *into* the existing allocations instead, skipping
    /// faulty-FF entries that still alias the checkpoint's. Either way no
    /// new table is allocated and the faulty-FF diff payloads are never
    /// deep-copied.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint came from a simulator over a different
    /// circuit or fault list.
    pub fn restore(&mut self, cp: &Checkpoint) {
        assert_eq!(cp.status.len(), self.status.len());
        if let Some(counters) = &self.counters {
            counters.record_restore(Self::deep_restore_bytes(cp));
        }
        self.good.restore(&cp.good);
        if !Arc::ptr_eq(&self.status, &cp.status) {
            match Arc::get_mut(&mut self.status) {
                Some(status) => status.copy_from_slice(&cp.status),
                None => self.status = Arc::clone(&cp.status),
            }
        }
        if !Arc::ptr_eq(&self.active, &cp.active) {
            match Arc::get_mut(&mut self.active) {
                Some(active) => {
                    active.clear();
                    active.extend_from_slice(&cp.active);
                }
                None => self.active = Arc::clone(&cp.active),
            }
        }
        if !Arc::ptr_eq(&self.faulty_ff, &cp.faulty_ff) {
            match Arc::get_mut(&mut self.faulty_ff) {
                Some(table) => {
                    for (mine, saved) in table.iter_mut().zip(cp.faulty_ff.iter()) {
                        // Most entries still alias the checkpoint's slice;
                        // the pointer test keeps the common case free of
                        // refcount traffic.
                        if !Arc::ptr_eq(mine, saved) {
                            *mine = Arc::clone(saved);
                        }
                    }
                }
                None => self.faulty_ff = Arc::clone(&cp.faulty_ff),
            }
        }
        self.ff_entries = cp.ff_entries;
        self.vectors_applied = cp.vectors_applied;
    }

    /// Estimated bytes a pre-CoW deep-copy restore would have moved for
    /// this checkpoint: detection status, the active list, the per-fault
    /// vector headers, and every sparse faulty-FF entry.
    fn deep_restore_bytes(cp: &Checkpoint) -> u64 {
        use std::mem::size_of;
        (cp.status.len() * size_of::<FaultStatus>()
            + cp.active.len() * size_of::<FaultId>()
            + cp.faulty_ff.len() * size_of::<Vec<(u32, Logic)>>()
            + cp.ff_entries * size_of::<(u32, Logic)>()) as u64
    }

    /// Exports the complete mutable state as owned plain data, suitable for
    /// serialization to a checkpoint file. See [`SimState`].
    pub fn export_state(&self) -> SimState {
        let good = self.good.snapshot();
        SimState {
            good_values: good.values().to_vec(),
            good_next_state: good.next_state().to_vec(),
            status: self.status.as_ref().clone(),
            faulty_ff: self.faulty_ff.iter().map(|e| e.to_vec()).collect(),
            vectors_applied: self.vectors_applied,
        }
    }

    /// Adopts a state exported by [`FaultSim::export_state`] from a
    /// simulator over the same circuit and fault list. The active fault
    /// list and the faulty-FF entry tally are rebuilt from the state, so a
    /// resumed simulator is indistinguishable from the one that exported.
    ///
    /// # Panics
    ///
    /// Panics if the state's dimensions do not match this simulator's
    /// circuit or fault list.
    pub fn import_state(&mut self, state: &SimState) {
        assert_eq!(
            state.status.len(),
            self.faults.len(),
            "fault count mismatch: state is from a different fault list"
        );
        assert_eq!(
            state.faulty_ff.len(),
            self.faults.len(),
            "faulty-FF table size mismatch"
        );
        assert_eq!(
            state.good_values.len(),
            self.circuit.num_gates(),
            "net count mismatch: state is from a different circuit"
        );
        assert_eq!(
            state.good_next_state.len(),
            self.circuit.num_dffs(),
            "flip-flop count mismatch"
        );
        self.good.restore(&GoodSimState::from_parts(
            state.good_values.clone(),
            state.good_next_state.clone(),
        ));
        self.status = Arc::new(state.status.clone());
        self.active = Arc::new(
            (0..self.faults.len() as u32)
                .map(FaultId)
                .filter(|f| matches!(state.status[f.index()], FaultStatus::Undetected))
                .collect(),
        );
        let mut ff_entries = 0;
        self.faulty_ff = Arc::new(
            state
                .faulty_ff
                .iter()
                .map(|e| {
                    ff_entries += e.len();
                    if e.is_empty() {
                        Arc::clone(&self.empty_ff)
                    } else {
                        Arc::from(e.as_slice())
                    }
                })
                .collect(),
        );
        self.ff_entries = ff_entries;
        self.vectors_applied = state.vectors_applied;
    }

    /// Resets everything: all faults undetected, all state X.
    pub fn reset(&mut self) {
        let nfaults = self.faults.len();
        self.good.reset();
        self.status = Arc::new(vec![FaultStatus::Undetected; nfaults]);
        self.active = Arc::new((0..nfaults as u32).map(FaultId).collect());
        self.faulty_ff = Arc::new(vec![Arc::clone(&self.empty_ff); nfaults]);
        self.ff_entries = 0;
        self.vectors_applied = 0;
    }
}

/// Replays every `P::LANES / K`-fault group of `targets` across `frames`
/// and merges each group's per-frame outcomes into `reports` before
/// simulating the next group. `reports` holds one report list per slot a
/// group fills: with one slot the window's own, with several the scored
/// candidates', slot `s`'s lanes merging into `reports[s]` and each group's
/// `gate_evals` into `reports[0]`. `before` is the good state ahead of the
/// first frame, for transition lists; `kind` says how detected lanes carry
/// on and whether the window's faulty-FF state is written back (see
/// [`simulate_group`](crate::group::simulate_group)).
///
/// Returns `(scratch_bytes, events_amortized)`. The merge walks
/// groups **in group order**, and lane order within a slot is target
/// order, so every report field except `gate_evals` comes out identical at
/// every lane width; `newly_detected` and `po_detections` are sorted per
/// frame into fault and `(fault, po)` order, because the order of the
/// targets, and `po_detections`' emission order (output-major within each
/// group), depend on the caller and on how faults were grouped. Groups are
/// independent — each reads and writes only its own faults' state — so a
/// group is merged as soon as it is simulated, and the outcome slots hold
/// one group's frames at a time.
#[allow(clippy::too_many_arguments)]
fn run_groups<P: GroupWidth, const K: usize>(
    circuit: &Circuit,
    lev: &Levelization,
    faults: &FaultList,
    faulty_ff: &mut Arc<Vec<FaultyFfState>>,
    ff_entries: &mut usize,
    empty_ff: &FaultyFfState,
    before: Option<&[Logic]>,
    targets: &[FaultId],
    kind: WindowKind,
    frames: &[SlotFrames<'_, K>],
    engine: &mut Engine,
    probe: Option<&SpanHandle>,
    reports: &mut [Vec<StepReport>],
) -> (u64, u64) {
    let arena = engine.arena.get_or_insert_with(|| Arena::new(circuit, lev));
    let outcomes = P::outcomes(&mut engine.slots);
    if outcomes.len() < frames.len() {
        outcomes.resize_with(frames.len(), GroupOutcome::default);
    }
    let outcomes = &mut outcomes[..frames.len()];
    let stride = P::LANES / K;
    let used = reports.len();
    let mut scratch_bytes = 0u64;
    let mut events_amortized = 0u64;
    for group in targets.chunks(stride) {
        let ctx = GroupCtx {
            circuit,
            lev,
            faults,
            faulty_ff: faulty_ff.as_slice(),
            empty_ff,
            before,
        };
        P::simulate(&ctx, frames, group, used, kind, arena, outcomes);
        let _merge_span = probe.map(|p| p.enter(SpanKind::Merge));
        for (f, out) in outcomes.iter_mut().enumerate() {
            reports[0][f].gate_evals += out.gate_evals;
            scratch_bytes += out.scratch_bytes;
            events_amortized += out.events_amortized;
            for (slot, reports) in reports.iter_mut().enumerate() {
                let report = &mut reports[f];
                report.faulty_events += out.faulty_events[slot];
                report.ff_effect_pairs += out.ff_effect_pairs[slot];
                report.ff_effect_faults += out.ff_effect_faults[slot];
                report.launched += out.launched[slot];
            }
            for &(lane, po) in &out.po_detections {
                let lane = lane as usize;
                reports[lane / stride][f]
                    .po_detections
                    .push((group[lane % stride], po));
            }
            out.detected_mask.for_each(|lane| {
                reports[lane / stride][f]
                    .newly_detected
                    .push(group[lane % stride])
            });
            // Only a commit's last frame carries new faulty-FF state (its
            // other frames, and scores, leave `new_ff` empty, so the zip
            // skips them).
            for (slot, &fid) in out.new_ff.iter_mut().zip(group) {
                if let Some(entry) = slot.take() {
                    let idx = fid.index();
                    let old_len = faulty_ff[idx].len();
                    *ff_entries = *ff_entries + entry.len() - old_len;
                    Arc::make_mut(faulty_ff)[idx] = entry;
                }
            }
        }
    }
    for report in reports.iter_mut().flatten() {
        report.newly_detected.sort_unstable();
        report.po_detections.sort_unstable();
    }
    (scratch_bytes, events_amortized)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gatest_netlist::{CircuitBuilder, GateKind};
    use Logic::{One, Zero};

    fn s27() -> Arc<Circuit> {
        Arc::new(gatest_netlist::benchmarks::iscas89("s27").unwrap())
    }

    /// Deterministic pseudo-random vector sequence.
    fn prng_sequence(pis: usize, len: usize, seed: u64) -> Vec<Vec<Logic>> {
        let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        let mut out = Vec::new();
        for _ in 0..len {
            let mut v = Vec::with_capacity(pis);
            for _ in 0..pis {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                v.push(Logic::from_bool(s & 1 == 1));
            }
            out.push(v);
        }
        out
    }

    #[test]
    fn random_vectors_detect_most_s27_faults() {
        let circuit = s27();
        let mut sim = FaultSim::new(circuit);
        let total = sim.fault_list().len();
        for v in prng_sequence(4, 64, 3) {
            sim.step(&v);
        }
        let coverage = sim.detected_count() as f64 / total as f64;
        assert!(
            coverage > 0.85,
            "expected high coverage on s27, got {coverage:.2}"
        );
    }

    #[test]
    fn checkpoint_restore_is_exact() {
        let circuit = s27();
        let mut sim = FaultSim::new(circuit);
        for v in prng_sequence(4, 5, 11) {
            sim.step(&v);
        }
        let cp = sim.checkpoint();
        let probe = prng_sequence(4, 3, 12);
        let mut first: Vec<StepReport> = Vec::new();
        for v in &probe {
            first.push(sim.step(v));
        }
        sim.restore(&cp);
        let mut second: Vec<StepReport> = Vec::new();
        for v in &probe {
            second.push(sim.step(v));
        }
        assert_eq!(first, second, "restore must make steps repeatable");
    }

    #[test]
    fn checkpoint_restores_across_clones() {
        // A pooled fitness worker owns a clone of the generator's simulator
        // and adopts checkpoints taken by the original: both must behave
        // identically after restoring the same checkpoint.
        let circuit = s27();
        let mut sim = FaultSim::new(circuit);
        for v in prng_sequence(4, 5, 17) {
            sim.step(&v);
        }
        let cp = sim.checkpoint();
        let mut clone = sim.clone();
        // Diverge the clone before it adopts the checkpoint.
        for v in prng_sequence(4, 4, 18) {
            clone.step(&v);
        }
        clone.restore(&cp);
        sim.restore(&cp);
        for v in prng_sequence(4, 6, 19) {
            assert_eq!(sim.step(&v), clone.step(&v));
        }
        assert_eq!(sim.detected_count(), clone.detected_count());
    }

    #[test]
    fn cow_checkpoint_is_isolated_from_later_steps() {
        // Mutating the simulator after a checkpoint must not leak into the
        // checkpoint (the Arc-shared tables are copy-on-write).
        let circuit = s27();
        let mut sim = FaultSim::new(circuit);
        for v in prng_sequence(4, 5, 23) {
            sim.step(&v);
        }
        let cp = sim.checkpoint();
        let detected_at_cp = sim.detected_count();
        let probe = prng_sequence(4, 8, 24);
        let mut first: Vec<StepReport> = Vec::new();
        sim.restore(&cp);
        for v in &probe {
            first.push(sim.step(v));
        }
        // The detour above detected faults and rewrote faulty-FF state; the
        // checkpoint must still describe the original moment exactly.
        sim.restore(&cp);
        assert_eq!(sim.detected_count(), detected_at_cp);
        let mut second: Vec<StepReport> = Vec::new();
        for v in &probe {
            second.push(sim.step(v));
        }
        assert_eq!(first, second);
    }

    #[test]
    fn step_good_only_advances_state() {
        let circuit = s27();
        let mut sim = FaultSim::new(circuit);
        let r = sim.step_good_only(&[One, One, Zero, Zero]);
        assert_eq!(r.ffs_set, 3);
        assert_eq!(sim.remaining(), sim.fault_list().len());
    }

    #[test]
    fn detected_faults_stay_dropped() {
        let circuit = s27();
        let mut sim = FaultSim::new(circuit);
        let r1 = sim.step(&[One, One, Zero, Zero]);
        let d1 = r1.detected();
        assert!(d1 > 0);
        // Same vector again: the dropped faults must not be re-reported.
        let r2 = sim.step(&[One, One, Zero, Zero]);
        for f in &r2.newly_detected {
            assert!(!r1.newly_detected.contains(f));
        }
    }

    #[test]
    fn ff_effects_precede_detection() {
        // A fault effect must be latched into the flip-flop one frame before
        // it can reach the output of this circuit.
        let mut b = CircuitBuilder::new("pipeline");
        let a = b.input("a");
        let g = b.gate(GateKind::Not, "g", &[a]);
        let q = b.gate(GateKind::Dff, "q", &[g]);
        let y = b.gate(GateKind::Buf, "y", &[q]);
        b.output(y);
        let circuit = Arc::new(b.finish().unwrap());
        let mut sim = FaultSim::new(circuit);

        let r1 = sim.step(&[One]); // good: g = 0
        assert_eq!(r1.detected(), 0, "nothing reaches the PO in frame one");
        assert!(r1.ff_effect_pairs > 0, "effects must latch into q");
        let r2 = sim.step(&[One]);
        assert!(r2.detected() > 0, "latched effects appear at the PO");
    }

    #[test]
    fn stuck_pi_fault_detected_when_driven_opposite() {
        let mut b = CircuitBuilder::new("wire");
        let a = b.input("a");
        let y = b.gate(GateKind::Buf, "y", &[a]);
        b.output(y);
        let circuit = Arc::new(b.finish().unwrap());
        let mut sim = FaultSim::new(Arc::clone(&circuit));
        let r = sim.step(&[One]);
        // a/SA0 (and its equivalent class) must be caught; a/SA1 must not.
        assert_eq!(r.detected(), 1);
        let f = sim.fault_list().get(r.newly_detected[0]);
        assert_eq!(f.stuck, Zero);
    }

    #[test]
    fn faulty_events_counted() {
        let circuit = s27();
        let mut sim = FaultSim::new(circuit);
        let r = sim.step(&[One, One, Zero, Zero]);
        assert!(r.faulty_events > 0);
        assert!(r.good_events > 0);
    }

    #[test]
    fn counters_accumulate_under_score() {
        let circuit = s27();
        let mut sim = FaultSim::new(circuit);
        let counters = Arc::new(SimCounters::new());
        sim.set_counters(Some(Arc::clone(&counters)));
        assert!(sim.counters().is_some());

        // Six one-vector candidates over five faults: one call, whose
        // four-slot groups report their gate evaluations on their first
        // candidates' frames.
        let sample: Vec<FaultId> = sim.active_faults().iter().copied().take(5).collect();
        let candidates: Vec<Vec<Vec<Logic>>> = prng_sequence(4, 6, 31)
            .into_iter()
            .map(|v| vec![v])
            .collect();
        let windows: Vec<&[Vec<Logic>]> = candidates.iter().map(Vec::as_slice).collect();
        let scored = sim.score(&windows, &sample);
        let sum = |field: fn(&StepReport) -> u64| scored.iter().flatten().map(field).sum::<u64>();
        let good_only = sim.step_good_only(&[One, Zero, One, Zero]);
        let cp = sim.checkpoint();
        sim.restore(&cp);

        let s = counters.snapshot();
        assert_eq!(s.step_calls, 6);
        assert_eq!(s.good_only_calls, 1);
        assert_eq!(s.checkpoint_restores, 1, "scoring restores nothing");
        assert!(
            s.restore_bytes_avoided > 0,
            "every restore reports the deep-copy bytes it skipped"
        );
        assert_eq!(s.good_events, sum(|r| r.good_events) + good_only.events);
        assert_eq!(s.faulty_events, sum(|r| r.faulty_events));
        // The good-only step adds exactly one full combinational sweep.
        assert_eq!(s.gate_evals, sum(|r| r.gate_evals) + sim.comb_gates);

        // Cloned simulators report into the same shared counters.
        let mut clone = sim.clone();
        clone.restore(&cp);
        assert_eq!(counters.snapshot().checkpoint_restores, 2);

        sim.set_counters(None);
        sim.step_good_only(&[One, One, One, One]);
        assert_eq!(
            counters.snapshot().good_only_calls,
            1,
            "detached counters stop accumulating"
        );
    }

    #[test]
    fn exported_state_resumes_a_fresh_simulator_exactly() {
        // A brand-new simulator adopting an exported state must continue
        // bit-identically to the original — the checkpoint/resume guarantee
        // at the simulator layer.
        let circuit = s27();
        let mut sim = FaultSim::new(Arc::clone(&circuit));
        for v in prng_sequence(4, 9, 47) {
            sim.step(&v);
        }
        let state = sim.export_state();

        let mut fresh = FaultSim::new(circuit);
        fresh.import_state(&state);
        assert_eq!(fresh.detected_count(), sim.detected_count());
        assert_eq!(fresh.vectors_applied(), sim.vectors_applied());
        assert_eq!(fresh.active_faults(), sim.active_faults());
        for v in prng_sequence(4, 12, 48) {
            assert_eq!(sim.step(&v), fresh.step(&v));
        }
        assert_eq!(fresh.export_state(), sim.export_state());
    }

    #[test]
    fn export_import_round_trips_mid_campaign_state() {
        let circuit = s27();
        let mut sim = FaultSim::new(circuit);
        for v in prng_sequence(4, 5, 53) {
            sim.step(&v);
        }
        let state = sim.export_state();
        // Diverge, then import back: the simulator must return exactly.
        for v in prng_sequence(4, 7, 54) {
            sim.step(&v);
        }
        sim.import_state(&state);
        assert_eq!(sim.export_state(), state);
    }

    #[test]
    #[should_panic(expected = "fault count mismatch")]
    fn import_rejects_mismatched_fault_list() {
        let circuit = s27();
        let full = FaultSim::with_faults(Arc::clone(&circuit), FaultList::full(&circuit));
        let state = full.export_state();
        let mut collapsed = FaultSim::new(circuit);
        collapsed.import_state(&state);
    }

    #[test]
    fn reset_restores_everything() {
        let circuit = s27();
        let mut sim = FaultSim::new(circuit);
        for v in prng_sequence(4, 8, 2) {
            sim.step(&v);
        }
        assert!(sim.detected_count() > 0);
        sim.reset();
        assert_eq!(sim.detected_count(), 0);
        assert_eq!(sim.vectors_applied(), 0);
        assert_eq!(sim.remaining(), sim.fault_list().len());
    }

    /// Normalizes the one legitimately width-dependent report field so
    /// cross-backend assertions compare everything else bit-for-bit.
    fn without_gate_evals(mut r: StepReport) -> StepReport {
        r.gate_evals = 0;
        r
    }

    #[test]
    fn wide_backend_matches_scalar_bit_for_bit() {
        // Full fault list on s298 → several 64-fault groups collapse into
        // few 256-lane groups; every report field except gate_evals and the
        // sparse faulty-FF state must be identical.
        let circuit = Arc::new(gatest_netlist::benchmarks::iscas89("s298").unwrap());
        let faults = FaultList::full(&circuit);
        let mut narrow = FaultSim::with_faults(Arc::clone(&circuit), faults.clone());
        let mut wide = FaultSim::with_faults(Arc::clone(&circuit), faults);
        narrow.set_backend(SimBackend::Scalar64);
        wide.set_backend(SimBackend::Wide256);
        assert_eq!(wide.backend(), SimBackend::Wide256);
        for v in prng_sequence(circuit.num_inputs(), 48, 41) {
            let a = narrow.step(&v);
            let b = wide.step(&v);
            assert_eq!(without_gate_evals(a), without_gate_evals(b));
        }
        assert_eq!(narrow.detected_count(), wide.detected_count());
        for &f in narrow.active_faults() {
            assert_eq!(narrow.faulty_ff_state(f), wide.faulty_ff_state(f));
        }
    }

    #[test]
    fn backend_can_switch_mid_run_without_diverging() {
        // The backend is an execution detail: flipping it between steps
        // must leave the fault-detection trajectory untouched.
        let circuit = Arc::new(gatest_netlist::benchmarks::iscas89("s298").unwrap());
        let faults = FaultList::full(&circuit);
        let mut reference = FaultSim::with_faults(Arc::clone(&circuit), faults.clone());
        let mut switching = FaultSim::with_faults(Arc::clone(&circuit), faults);
        reference.set_backend(SimBackend::Scalar64);
        for (i, v) in prng_sequence(circuit.num_inputs(), 24, 77)
            .iter()
            .enumerate()
        {
            switching.set_backend(match i % 3 {
                0 => SimBackend::Scalar64,
                1 => SimBackend::Wide256,
                _ => SimBackend::Auto,
            });
            let a = reference.step(v);
            let b = switching.step(v);
            assert_eq!(without_gate_evals(a), without_gate_evals(b));
        }
        assert_eq!(reference.detected_count(), switching.detected_count());
        assert_eq!(reference.export_state(), switching.export_state());
    }

    #[test]
    fn auto_backend_resolves_to_wide() {
        let circuit = s27();
        let mut sim = FaultSim::new(circuit);
        sim.set_backend(SimBackend::Auto);
        assert_eq!(sim.backend(), SimBackend::Auto);
        assert_eq!(sim.backend().resolved(), SimBackend::Wide256);
        // Clones inherit the backend setting.
        assert_eq!(sim.clone().backend(), SimBackend::Auto);
    }

    #[test]
    fn step_window_matches_serial_steps_bit_for_bit() {
        // The batched commit path must reproduce serial stepping exactly —
        // same per-vector reports (minus gate_evals), same detection
        // vector indices, same final state — at every backend width and
        // for windows of mixed sizes (including single-frame windows).
        let circuit = Arc::new(gatest_netlist::benchmarks::iscas89("s298").unwrap());
        let faults = FaultList::full(&circuit);
        let seq = prng_sequence(circuit.num_inputs(), 36, 61);
        for backend in [SimBackend::Scalar64, SimBackend::Wide256] {
            let mut serial = FaultSim::with_faults(Arc::clone(&circuit), faults.clone());
            let mut windowed = FaultSim::with_faults(Arc::clone(&circuit), faults.clone());
            serial.set_backend(backend);
            windowed.set_backend(backend);
            let mut serial_reports = Vec::new();
            for v in &seq {
                serial_reports.push(serial.step(v));
            }
            let mut window_reports = Vec::new();
            for chunk in [&seq[..1], &seq[1..8], &seq[8..20], &seq[20..]] {
                window_reports.extend(windowed.step_window(chunk));
            }
            assert_eq!(serial_reports.len(), window_reports.len());
            for (i, (a, b)) in serial_reports.iter().zip(&window_reports).enumerate() {
                assert_eq!(
                    without_gate_evals(a.clone()),
                    without_gate_evals(b.clone()),
                    "{backend} vector {i}"
                );
            }
            assert_eq!(
                serial.detected_count(),
                windowed.detected_count(),
                "{backend}"
            );
            assert_eq!(serial.vectors_applied(), windowed.vectors_applied());
            assert_eq!(serial.export_state(), windowed.export_state(), "{backend}");
        }
    }

    #[test]
    fn auto_width_switches_match_scalar64_bit_for_bit() {
        // Under the default `Auto`, full-list steps (more than 128 faults)
        // run on 256-lane groups, a 100-fault score of one candidate on
        // 64-lane groups and of several on two-slot 256-lane groups, and
        // windowed commits on whatever the active list needs. Every report
        // but gate_evals, and the final state, must match a twin pinned to
        // scalar64.
        use crate::value::AUTO_NARROW_MAX_LANES;
        let circuit = Arc::new(gatest_netlist::benchmarks::iscas89("s298").unwrap());
        let mut auto = FaultSim::new(Arc::clone(&circuit));
        let mut pinned = FaultSim::new(Arc::clone(&circuit));
        assert_eq!(auto.backend(), SimBackend::Auto);
        pinned.set_backend(SimBackend::Scalar64);
        let counters = Arc::new(SimCounters::new());
        auto.set_counters(Some(Arc::clone(&counters)));
        let seq = prng_sequence(circuit.num_inputs(), 40, 73);
        for (round, chunk) in seq.chunks(8).enumerate() {
            assert!(auto.remaining() > AUTO_NARROW_MAX_LANES, "round {round}");
            let (a, b) = (auto.step(&chunk[0]), pinned.step(&chunk[0]));
            assert_eq!(without_gate_evals(a), without_gate_evals(b), "step {round}");

            let sample: Vec<FaultId> = auto
                .active_faults()
                .iter()
                .step_by(2)
                .take(100)
                .copied()
                .collect();
            assert_eq!(sample.len(), 100);
            let one_vector: Vec<&[Vec<Logic>]> = chunk[1..4].chunks(1).collect();
            for batch in [&one_vector[..], &[&chunk[1..4]]] {
                let (a, b) = (auto.score(batch, &sample), pinned.score(batch, &sample));
                assert_eq!(a.len(), b.len());
                for (c, (a, b)) in a
                    .into_iter()
                    .flatten()
                    .zip(b.into_iter().flatten())
                    .enumerate()
                {
                    assert_eq!(
                        without_gate_evals(a),
                        without_gate_evals(b),
                        "scored {round}.{c}"
                    );
                }
            }

            let (a, b) = (
                auto.step_window(&chunk[4..]),
                pinned.step_window(&chunk[4..]),
            );
            assert_eq!(a.len(), b.len());
            for (i, (a, b)) in a.into_iter().zip(b).enumerate() {
                assert_eq!(
                    without_gate_evals(a),
                    without_gate_evals(b),
                    "window {round}.{i}"
                );
            }
        }
        let snapshot = counters.snapshot();
        assert!(snapshot.wide_groups > 0, "auto ran 256-lane groups");
        assert_eq!(auto.export_state(), pinned.export_state());
    }

    /// `sim`'s arena, built now if no step has built it yet.
    fn arena(sim: &mut FaultSim) -> &mut Arena {
        let (circuit, lev) = (&sim.circuit, sim.good.levelization());
        sim.engine
            .arena
            .get_or_insert_with(|| Arena::new(circuit, lev))
    }

    /// Builds `sim`'s arena if no step has yet and places its frame stamp.
    fn place_stamp(sim: &mut FaultSim, stamp: u32) {
        arena(sim).set_stamp(stamp);
    }

    #[test]
    fn stamp_wrap_around_matches_a_fresh_simulator() {
        // A simulator whose frame and forcing stamps are placed just below
        // the u32 wrap-around crosses them within its next windows; for
        // both fault models and at both widths every score and full-list
        // window must still match a simulator nowhere near the wrap. Both
        // first initialize their good machines, which uses no stamp, so
        // transition faults launch. Then a score over the faults anchored
        // on even nets fills the stamped tables at the low stamps a wrap
        // restarts from; after the placement, scores over the faults on
        // odd nets run first, so the even nets their cones reach still
        // hold those stamps when the restarted ones do: a wrap that failed
        // to clear the tables would read their stale ranges as current.
        // Transition groups publish their forcing at every frame, so their
        // windows cross the wrap mid-window. Then batches of four
        // candidates over 60 and 120 of the odd faults (four and two per
        // 256-lane group) each run on a clone whose new arena the same
        // even-net score filled, with both stamps placed to wrap at the
        // batch's first advance.
        let circuit = Arc::new(gatest_netlist::benchmarks::iscas89("s298").unwrap());
        let seq = prng_sequence(circuit.num_inputs(), 28, 5);
        let zeros = vec![Zero; circuit.num_inputs()];
        let init = gatest_netlist::depth::sequential_depth(&circuit) + 2;
        let batch: Vec<&[Vec<Logic>]> = seq[4..20].chunks(4).collect();
        for faults in [
            FaultList::collapsed(&circuit),
            FaultList::transition(&circuit),
        ] {
            let model = faults.model();
            for backend in [SimBackend::Scalar64, SimBackend::Wide256] {
                let mut fresh = FaultSim::with_faults(Arc::clone(&circuit), faults.clone());
                fresh.set_backend(backend);
                for _ in 0..init {
                    fresh.step_good_only(&zeros);
                }
                let mut wrapped = fresh.clone();
                let (first, second): (Vec<FaultId>, Vec<FaultId>) = fresh
                    .active_faults()
                    .iter()
                    .partition(|&&id| faults.get(id).anchor().index() % 2 == 0);
                assert!(second.len() > 128, "{model:?}: two-slot samples fit");
                for sim in [&mut fresh, &mut wrapped] {
                    sim.score(&[&seq[..4]], &first);
                }
                place_stamp(&mut wrapped, u32::MAX - 7);
                for (i, window) in seq[4..16].chunks(4).enumerate() {
                    assert_eq!(
                        fresh.score(&[window], &second),
                        wrapped.score(&[window], &second),
                        "{model:?} {backend} score {i}"
                    );
                }
                for n in [60, 120] {
                    let mut clone = fresh.clone();
                    clone.score(&[&seq[..4]], &first);
                    place_stamp(&mut clone, u32::MAX - 1);
                    assert_eq!(
                        fresh.score(&batch, &second[..n]),
                        clone.score(&batch, &second[..n]),
                        "{model:?} {backend} batch over {n} faults"
                    );
                }
                for (i, window) in seq[16..].chunks(4).enumerate() {
                    assert_eq!(
                        fresh.step_window(window),
                        wrapped.step_window(window),
                        "{model:?} {backend} window {i}"
                    );
                }
                assert_eq!(
                    fresh.export_state(),
                    wrapped.export_state(),
                    "{model:?} {backend}"
                );
            }
        }
    }

    #[test]
    fn avx2_clone_matches_the_portable_kernel() {
        // One s298 campaign per fault model, run twice at 256 lanes: once
        // through the AVX2 clone of `simulate_group` and once through the
        // portable instance. Full-list `step_window` commits alternate with
        // scores: a multi-frame candidate over every other undetected fault
        // alone, and batches of four two-frame candidates over 60 and 120
        // of those faults (four and two per group). Every report field,
        // `gate_evals` included, and the exported state must match.
        let circuit = Arc::new(gatest_netlist::benchmarks::iscas89("s298").unwrap());
        let zeros = vec![Zero; circuit.num_inputs()];
        let init = gatest_netlist::depth::sequential_depth(&circuit) as usize + 2;
        let seq = prng_sequence(circuit.num_inputs(), 48, 23);
        for faults in [
            FaultList::collapsed(&circuit),
            FaultList::transition(&circuit),
        ] {
            let model = faults.model();
            let campaign = |portable: bool| {
                let mut sim = FaultSim::with_faults(Arc::clone(&circuit), faults.clone());
                sim.set_backend(SimBackend::Wide256);
                if portable {
                    arena(&mut sim).force_portable();
                }
                let avx2 = arena(&mut sim).uses_avx2();
                let mut reports = sim.step_window(&vec![zeros.clone(); init]);
                for round in seq.chunks(8) {
                    let (candidate, commit) = round.split_at(5);
                    let sample: Vec<FaultId> =
                        sim.active_faults().iter().copied().step_by(2).collect();
                    reports.extend(sim.score(&[candidate], &sample).remove(0));
                    let batch: Vec<&[Vec<Logic>]> = candidate.windows(2).collect();
                    for n in [60, 120] {
                        let sample = &sample[..n.min(sample.len())];
                        reports.extend(sim.score(&batch, sample).into_iter().flatten());
                    }
                    reports.extend(sim.step_window(commit));
                }
                (avx2, reports, sim.export_state())
            };
            let (avx2, clone_reports, clone_state) = campaign(false);
            if !avx2 {
                eprintln!(
                    "skipped: this host has no AVX2, so 256-lane groups run only the portable kernel"
                );
                return;
            }
            let (avx2, reports, state) = campaign(true);
            assert!(!avx2, "the second campaign runs the portable kernel");
            assert!(reports.iter().any(|r| r.detected() > 0), "{model:?}");
            assert_eq!(clone_reports, reports, "{model:?}");
            assert_eq!(clone_state, state, "{model:?}");
        }
    }

    /// A simulator over `circuit`'s transition-fault list.
    fn transition_sim(circuit: &Arc<Circuit>) -> FaultSim {
        FaultSim::with_faults(Arc::clone(circuit), FaultList::transition(circuit))
    }

    /// `a -> BUF y -> output`: two nets, four transition faults.
    fn wire() -> Arc<Circuit> {
        let mut b = CircuitBuilder::new("wire");
        let a = b.input("a");
        let y = b.gate(GateKind::Buf, "y", &[a]);
        b.output(y);
        Arc::new(b.finish().unwrap())
    }

    /// The forced (old) values of the faults `report` newly detected:
    /// `Zero` for slow-to-rise, `One` for slow-to-fall.
    fn detected_edges(sim: &FaultSim, report: &StepReport) -> Vec<Logic> {
        report
            .newly_detected
            .iter()
            .map(|&id| sim.fault_list().get(id).stuck)
            .collect()
    }

    #[test]
    fn slow_to_rise_needs_a_rising_pair() {
        let mut sim = transition_sim(&wire());
        // Static 1: no edge, so nothing launches or is detected.
        sim.step(&[One]);
        let r = sim.step(&[One]);
        assert_eq!((r.launched, r.detected()), (0, 0));
        // 0 -> 1 launches both nets' slow-to-rise faults; the faulty value
        // lags at 0 while the good one is 1, so the output shows them.
        sim.step(&[Zero]);
        let r = sim.step(&[One]);
        assert_eq!(r.launched, 2);
        assert_eq!(detected_edges(&sim, &r), [Zero, Zero]);
    }

    #[test]
    fn slow_to_fall_needs_a_falling_pair() {
        let mut sim = transition_sim(&wire());
        sim.step(&[One]);
        let r = sim.step(&[Zero]);
        assert_eq!(r.launched, 2);
        assert_eq!(detected_edges(&sim, &r), [One, One]);
    }

    #[test]
    fn both_transition_polarities_need_both_edges() {
        let mut sim = transition_sim(&wire());
        sim.step(&[Zero]);
        sim.step(&[One]);
        assert_eq!(sim.remaining(), 2, "only the rising edge was launched");
        sim.step(&[Zero]);
        assert_eq!(sim.remaining(), 0, "a and y each have STR and STF");
    }

    #[test]
    fn transition_effects_latch_through_flip_flops() {
        // y observes q one frame after the slow net feeds the D input.
        let mut b = CircuitBuilder::new("pipe");
        let a = b.input("a");
        let g = b.gate(GateKind::Buf, "g", &[a]);
        let q = b.gate(GateKind::Dff, "q", &[g]);
        let y = b.gate(GateKind::Buf, "y", &[q]);
        b.output(y);
        let mut sim = transition_sim(&Arc::new(b.finish().unwrap()));
        sim.step(&[Zero]);
        let launch = sim.step(&[One]); // g rises; its effect latches into q
        assert!(launch.ff_effect_pairs > 0);
        assert_eq!(launch.detected(), 0, "not at the output yet");
        let capture = sim.step(&[One]);
        assert!(
            capture.detected() > 0,
            "the latched effect reaches the output"
        );
    }

    #[test]
    fn transition_checkpoint_restore_round_trips() {
        let mut sim = transition_sim(&s27());
        sim.step(&[One, One, Zero, Zero]);
        let cp = sim.checkpoint();
        let probe = [[Zero, One, One, Zero], [One, Zero, Zero, One]];
        let first: Vec<_> = probe.iter().map(|v| sim.step(v)).collect();
        let state = sim.export_state();
        sim.restore(&cp);
        let second: Vec<_> = probe.iter().map(|v| sim.step(v)).collect();
        assert_eq!(first, second);
        assert!(first.iter().any(|r| r.launched > 0));
        assert_eq!(sim.export_state(), state);
    }

    #[test]
    fn s27_transition_coverage_under_random() {
        let mut sim = transition_sim(&s27());
        for v in prng_sequence(4, 256, 5) {
            sim.step(&v);
        }
        let cov = sim.detected_count() as f64 / sim.fault_list().len() as f64;
        assert!(cov > 0.5, "transition coverage {cov:.2} unexpectedly low");
        assert!(cov < 1.0, "some transition faults need directed tests");
    }

    #[test]
    fn scores_report_a_re_detected_fault_at_every_detecting_frame() {
        // A score restarts a sample fault from the good state at the frame
        // after one that detects it, so the fault may be detected again,
        // and the score reports it at both frames, at every width and
        // whichever slot of a shared group the candidate rides. This pins
        // the re-count phase-4 fitness sees today (ROADMAP item 9).
        let circuit = Arc::new(gatest_netlist::benchmarks::iscas89("s298").unwrap());
        let mut base = FaultSim::new(Arc::clone(&circuit));
        for v in prng_sequence(circuit.num_inputs(), 6, 3) {
            base.step(&v);
        }
        let sample = base.active_faults().to_vec();
        let frames_detecting = |reports: &[StepReport], id: FaultId| -> Vec<usize> {
            (0..reports.len())
                .filter(|&f| reports[f].newly_detected.contains(&id))
                .collect()
        };
        // The first candidate in a fixed list that re-detects a fault.
        let (candidate, fault, frames) = (0..64)
            .find_map(|seed| {
                let candidate = prng_sequence(circuit.num_inputs(), 12, 100 + seed);
                let reports = base.clone().score(&[&candidate], &sample).remove(0);
                sample.iter().find_map(|&id| {
                    let frames = frames_detecting(&reports, id);
                    (frames.len() > 1).then(|| (candidate.clone(), id, frames))
                })
            })
            .expect("some candidate re-detects a sample fault");
        // A sample of at most 64 faults ending at the fault, so four
        // candidates share a 256-lane group and the candidate rides the
        // third slot.
        let at = sample.iter().position(|&id| id == fault).expect("sampled");
        let small = &sample[at.saturating_sub(59)..=at];
        let other = prng_sequence(circuit.num_inputs(), 12, 7);
        let batch = [&other, &other, &candidate, &other].map(Vec::as_slice);
        for backend in [SimBackend::Scalar64, SimBackend::Wide256, SimBackend::Auto] {
            let mut sim = base.clone();
            sim.set_backend(backend);
            let alone = sim.score(&[&candidate], &sample).remove(0);
            assert_eq!(frames_detecting(&alone, fault), frames, "{backend}");
            let slotted = sim.score(&batch, small).remove(2);
            assert_eq!(
                frames_detecting(&slotted, fault),
                frames,
                "{backend} slotted"
            );
            assert_eq!(sim.export_state(), base.export_state(), "{backend}");
        }
    }

    #[test]
    fn step_counters_tell_single_steps_from_windowed_commits() {
        // The end-to-end benchmark reads these counters and spans: one-
        // vector steps and scored frames count as steps but not as batched
        // frames, a window of n vectors adds n to both, and a windowed
        // commit's merge is timed as a `merge` span under its `sim_step`.
        let circuit = s27();
        let mut sim = FaultSim::new(circuit);
        let counters = Arc::new(SimCounters::new());
        sim.set_counters(Some(Arc::clone(&counters)));
        let seq = prng_sequence(4, 7, 91);
        sim.step(&seq[0]);
        let sample: Vec<FaultId> = sim.active_faults().iter().copied().step_by(2).collect();
        sim.score(&[&seq[1..2]], &sample);
        let s = counters.snapshot();
        assert_eq!((s.step_calls, s.commit_batch_frames), (2, 0));

        let instruments = Instruments::new();
        sim.set_instruments(Some(Arc::clone(&instruments)));
        assert!(
            sim.remaining() > 0 && sim.remaining() <= 64,
            "one fault group"
        );
        assert_eq!(sim.step_window(&seq[2..]).len(), 5);
        let s = counters.snapshot();
        assert_eq!((s.step_calls, s.commit_batch_frames), (7, 5));
        let spans = instruments.spans.snapshot();
        let count = |kind, parent| spans.get(kind, parent).map(|n| n.count);
        assert_eq!(count("sim_step", None), Some(1), "{spans:?}");
        assert_eq!(count("merge", Some("sim_step")), Some(1), "{spans:?}");
    }

    #[test]
    fn step_window_of_empty_vector_list_is_a_no_op() {
        let circuit = s27();
        let mut sim = FaultSim::new(circuit);
        let before = sim.export_state();
        assert!(sim.step_window(&[]).is_empty());
        assert_eq!(sim.export_state(), before);
    }

    #[test]
    fn more_than_64_faults_use_multiple_groups() {
        // s27's lists are under 64 faults; use the synthetic s298 stand-in
        // (hundreds of faults) to force multi-group processing.
        let circuit = Arc::new(gatest_netlist::benchmarks::iscas89("s298").unwrap());
        let faults = FaultList::full(&circuit);
        assert!(faults.len() > 64);
        let mut sim = FaultSim::with_faults(Arc::clone(&circuit), faults);
        // Zero-hold first: the synthetic circuits need a directed
        // initialization sequence before random patterns detect much.
        let depth = gatest_netlist::depth::sequential_depth(&circuit) as usize;
        for _ in 0..depth + 2 {
            sim.step(&vec![Logic::Zero; circuit.num_inputs()]);
        }
        for v in prng_sequence(circuit.num_inputs(), 256, 5) {
            sim.step(&v);
        }
        let coverage = sim.detected_count() as f64 / sim.fault_list().len() as f64;
        assert!(coverage > 0.35, "got {coverage}");
    }

    #[test]
    fn step_good_only_matches_full_step_good_stats() {
        // The good-machine statistics must be identical whether or not
        // faults are simulated alongside.
        let circuit = s27();
        let mut a = FaultSim::new(Arc::clone(&circuit));
        let mut b = FaultSim::new(Arc::clone(&circuit));
        for v in prng_sequence(4, 16, 21) {
            let ra = a.step(&v);
            let rb = b.step_good_only(&v);
            assert_eq!(ra.good, rb);
        }
    }

    #[test]
    fn po_syndromes_cover_every_detection() {
        let circuit = s27();
        let mut sim = FaultSim::new(circuit);
        for v in prng_sequence(4, 32, 13) {
            let r = sim.step(&v);
            // Every newly detected fault appears in the per-output syndrome
            // list (at least once), and vice versa.
            let from_pos: std::collections::HashSet<_> =
                r.po_detections.iter().map(|&(f, _)| f).collect();
            let newly: std::collections::HashSet<_> = r.newly_detected.iter().copied().collect();
            assert_eq!(from_pos, newly);
        }
    }

    #[test]
    fn constant_gates_simulate_correctly() {
        use gatest_netlist::{CircuitBuilder, GateKind};
        let mut b = CircuitBuilder::new("consts");
        let a = b.input("a");
        let one = b.gate(GateKind::Const1, "one", &[]);
        let y = b.gate(GateKind::And, "y", &[a, one]);
        b.output(y);
        let circuit = Arc::new(b.finish().unwrap());
        let mut sim = FaultSim::new(Arc::clone(&circuit));
        // y follows a; one/SA0 is detectable (y=0 while a=1), one/SA1 is
        // untestable (already 1).
        let r = sim.step(&[One]);
        assert!(r.detected() >= 1);
        for _ in 0..8 {
            sim.step(&[One]);
            sim.step(&[Zero]);
        }
        let survivors: Vec<_> = sim
            .active_faults()
            .iter()
            .map(|&id| sim.fault_list().get(id).display(&circuit).to_string())
            .collect();
        assert!(
            survivors.iter().all(|s| s.contains("SA1")),
            "only stuck-at-1 faults on constant-1 paths survive: {survivors:?}"
        );
    }

    #[test]
    fn output_directly_on_input_is_handled() {
        use gatest_netlist::{CircuitBuilder, GateKind};
        let mut b = CircuitBuilder::new("passthrough");
        let a = b.input("a");
        b.output(a);
        let q = b.gate(GateKind::Dff, "q", &[a]);
        let y = b.gate(GateKind::Buf, "y", &[q]);
        b.output(y);
        let circuit = Arc::new(b.finish().unwrap());
        let mut sim = FaultSim::new(circuit);
        sim.step(&[One]);
        sim.step(&[Zero]);
        sim.step(&[One]);
        assert_eq!(
            sim.remaining(),
            0,
            "a two-net passthrough is fully testable"
        );
    }

    #[test]
    fn collapsed_and_full_lists_agree_on_coverage_fraction() {
        // Equivalent faults are detected together, so coverage of collapsed
        // and full lists should be close under the same vectors.
        let circuit = s27();
        let seq = prng_sequence(4, 48, 9);
        let mut a = FaultSim::with_faults(Arc::clone(&circuit), FaultList::collapsed(&circuit));
        let mut b = FaultSim::with_faults(Arc::clone(&circuit), FaultList::full(&circuit));
        for v in &seq {
            a.step(v);
            b.step(v);
        }
        let ca = a.detected_count() as f64 / a.fault_list().len() as f64;
        let cb = b.detected_count() as f64 / b.fault_list().len() as f64;
        assert!(
            (ca - cb).abs() < 0.15,
            "coverage gap too large: {ca} vs {cb}"
        );
    }
}

#[cfg(test)]
mod synthetic_suite_tests {
    use super::*;
    use std::sync::Arc;

    fn random_vector(s: &mut u64, pis: usize) -> Vec<Logic> {
        let mut v = Vec::with_capacity(pis);
        for _ in 0..pis {
            *s ^= *s << 13;
            *s ^= *s >> 7;
            *s ^= *s << 17;
            v.push(Logic::from_bool(*s & 1 == 1));
        }
        v
    }

    #[test]
    fn s298_initializes_under_zero_hold_and_stays_binary() {
        // The synthetic circuits are built so that holding the inputs at 0
        // fully initializes the machine within `depth` frames, and X never
        // re-enters the state afterwards.
        let circuit = Arc::new(gatest_netlist::benchmarks::iscas89("s298").unwrap());
        let depth = gatest_netlist::depth::sequential_depth(&circuit) as usize;
        let mut sim = GoodSim::new(Arc::clone(&circuit));
        let zeros = vec![Logic::Zero; circuit.num_inputs()];
        for _ in 0..depth {
            sim.apply(&zeros);
        }
        assert_eq!(sim.known_next_state(), circuit.num_dffs());
        let mut s = 77u64;
        for _ in 0..256 {
            let v = random_vector(&mut s, circuit.num_inputs());
            sim.apply(&v);
            assert_eq!(sim.known_next_state(), circuit.num_dffs());
        }
    }

    #[test]
    fn s298_random_coverage_leaves_a_hard_tail() {
        // Random patterns detect a solid fraction quickly but leave deep
        // faults undetected — the regime the GA is designed for.
        let circuit = Arc::new(gatest_netlist::benchmarks::iscas89("s298").unwrap());
        let mut sim = FaultSim::new(Arc::clone(&circuit));
        // Zero-hold initialization, then random patterns.
        let depth = gatest_netlist::depth::sequential_depth(&circuit) as usize;
        for _ in 0..depth + 2 {
            sim.step(&vec![Logic::Zero; circuit.num_inputs()]);
        }
        let mut s = 12345u64;
        for _ in 0..512 {
            let v = random_vector(&mut s, circuit.num_inputs());
            sim.step(&v);
        }
        let coverage = sim.detected_count() as f64 / sim.fault_list().len() as f64;
        assert!(coverage > 0.30, "random coverage too low: {coverage:.3}");
        assert!(coverage < 0.95, "no hard tail left: {coverage:.3}");
    }
}
