//! Per-group fault propagation over a reusable scratch arena.
//!
//! Every [`FaultSim`](crate::FaultSim) step is a window of one or more
//! vectors: the simulator advances the good machine over the window, then
//! partitions the simulated fault list into groups of at most
//! [`PackedValue::LANES`] faults and replays each group across the whole
//! window ([`simulate_group`]). Every group is independent: it reads the
//! shared circuit, the good frames, and its own faults' sparse flip-flop
//! state ([`GroupCtx`]), and writes only its own lanes, through the
//! simulator's one [`Arena`].
//!
//! Results land in one [`GroupOutcome`] per frame instead of being applied
//! in place; the caller merges each group's outcomes before simulating the
//! next group, **in group order**, which makes every lane width
//! bit-identical to `Pv64` execution: lane order within a group is fault
//! order, and group order is ascending fault order, so the concatenated
//! per-lane results are the same sequence no matter how many lanes one
//! group carries.
//!
//! The arena also removes the per-group/per-gate allocations the original
//! inline implementation paid: `HashMap` forcing tables are replaced with
//! slices sorted by net plus stamped `(start, end)` range tables, the
//! per-gate fanin `Vec` with one reusable buffer, and the per-group
//! faulty-FF state builders with one flat flip-flop-effect buffer. Faulty
//! net values live in structure-of-arrays form — one flat `zero` plane
//! array and one flat `one` plane array, `P::WORDS` words per net — so a
//! wide backend's plane arithmetic runs over contiguous words the compiler
//! can keep in vector registers. One arena serves both widths: only the
//! planes' length depends on the width, and they grow to the widest width
//! the owner has run.
//!
//! A group's cost follows the faults it carries. Carried faulty flip-flop
//! state is seeded per flip-flop: each seed writes its lane straight into
//! the flip-flop's planes, and each diverged flip-flop's fanout is
//! scheduled once, however many lanes it carries. The flip-flop effects a
//! frame produces are appended to one buffer in flip-flop order; a window's
//! next frame seeds from it directly, and only the step's last frame
//! regroups it by lane into the sparse per-fault state.
//!
//! Scheduling runs entirely on the levelized CSR
//! ([`Levelization::comb_fanout`]): fanout edges carry their consumer's
//! level, so pushing an event needs neither a gate-kind check nor a level
//! lookup, and the sweep walks only the `[sched_lo, sched_hi]` level band a
//! group actually touched. The queue is shared by all lanes of the group —
//! a gate whose fan-in changed in *any* lane is evaluated once for the
//! whole group — and the lane evaluations that sharing saves are tallied as
//! `events_amortized`.

use std::sync::Arc;

use gatest_netlist::levelize::{FanoutEdge, Levelization};
use gatest_netlist::{Circuit, NetId};

use crate::eval::eval_packed;
use crate::fault::{FaultId, FaultList, FaultSite};
use crate::value::{LaneMask, Logic, PackedValue, Pv256, Pv64};

/// Sparse faulty flip-flop state for one fault: `(dff index, faulty value)`
/// wherever the faulty machine differs from the good machine. `Arc`-shared
/// copy-on-write between the simulator and its checkpoints.
pub(crate) type FaultyFfState = Arc<[(u32, Logic)]>;

/// The shared state one group simulation reads (and never writes):
/// everything a group writes goes through the [`Arena`] and its
/// [`GroupOutcome`]s.
pub(crate) struct GroupCtx<'a> {
    /// The circuit under simulation.
    pub circuit: &'a Circuit,
    /// The circuit's levelized CSR adjacency.
    pub lev: &'a Levelization,
    /// The fault universe (sites and stuck values).
    pub faults: &'a FaultList,
    /// Sparse faulty flip-flop state per fault, from before the window.
    pub faulty_ff: &'a [FaultyFfState],
    /// The shared empty slice, so clearing a fault's state allocates nothing.
    pub empty_ff: &'a FaultyFfState,
}

/// One good-machine frame a group replays against: net values after the
/// combinational settle plus the latched next state, as slices so both the
/// live [`GoodSim`](crate::GoodSim) (a window's last frame) and stored
/// snapshots (its earlier frames) can back it.
#[derive(Clone, Copy)]
pub(crate) struct GoodFrame<'a> {
    /// Net values after the frame, one per net.
    pub values: &'a [Logic],
    /// Latched next-state values, indexed like `circuit.dffs()`.
    pub next_state: &'a [Logic],
}

/// What one group simulation produced, in lane-relative terms.
///
/// Lanes are indices into the group (`0..group.len()`); the simulator's
/// merge translates them back to [`FaultId`]s. Outcomes are reused across
/// steps: [`GroupOutcome::reset`] clears the vectors without releasing
/// their capacity.
#[derive(Debug, Default, Clone)]
pub(crate) struct GroupOutcome<P: PackedValue> {
    /// Lanes detected at any primary output this frame.
    pub detected_mask: P::Mask,
    /// `(lane, po index)` detection syndrome, in primary-output order.
    pub po_detections: Vec<(u32, u16)>,
    /// Fault effects latched into flip-flops, as (fault, flip-flop) pairs.
    pub ff_effect_pairs: u64,
    /// Distinct lanes with at least one effect at a flip-flop.
    pub ff_effect_faults: u64,
    /// Faulty-circuit events over the group's packed machines.
    pub faulty_events: u64,
    /// Lane events served by an evaluation shared with another lane: at
    /// every changed gate, all diverged lanes beyond the first ride the one
    /// packed evaluation the shared per-group queue issued.
    pub events_amortized: u64,
    /// Packed faulty gate re-evaluations.
    pub gate_evals: u64,
    /// Estimated bytes served from reused scratch this group (telemetry).
    pub scratch_bytes: u64,
    /// Replacement sparse faulty-FF state per lane, filled on a window's
    /// last frame only. `None` means "keep the old state" — emitted when
    /// old and new are both empty, so the merge can skip the copy-on-write
    /// table entirely, and for lanes detected in the window, whose state
    /// the caller's drop logic clears.
    pub new_ff: Vec<Option<FaultyFfState>>,
}

impl<P: PackedValue> GroupOutcome<P> {
    /// Clears the outcome for reuse, keeping vector capacity.
    fn reset(&mut self) {
        self.detected_mask = P::Mask::EMPTY;
        self.po_detections.clear();
        self.ff_effect_pairs = 0;
        self.ff_effect_faults = 0;
        self.faulty_events = 0;
        self.events_amortized = 0;
        self.gate_evals = 0;
        self.scratch_bytes = 0;
        self.new_ff.clear();
    }
}

/// One flip-flop effect of one lane: `(dff index, lane, faulty value)`.
type FfEffect = (u32, u16, Logic);

/// A packed width an [`Arena`] can simulate groups at. Every arena table is
/// shared by all widths; the gate fan-in buffer and the per-group outcome
/// slots are the only typed scratch, so each width names its own.
pub(crate) trait GroupWidth: PackedValue {
    /// This width's fan-in buffer inside `arena`.
    fn fanin(arena: &mut Arena) -> &mut Vec<Self>;
    /// This width's outcome slots.
    fn outcomes(slots: &mut OutcomeSlots) -> &mut Vec<GroupOutcome<Self>>;
}

impl GroupWidth for Pv64 {
    fn fanin(arena: &mut Arena) -> &mut Vec<Pv64> {
        &mut arena.fanin64
    }
    fn outcomes(slots: &mut OutcomeSlots) -> &mut Vec<GroupOutcome<Pv64>> {
        &mut slots.narrow
    }
}

impl GroupWidth for Pv256 {
    fn fanin(arena: &mut Arena) -> &mut Vec<Pv256> {
        &mut arena.fanin256
    }
    fn outcomes(slots: &mut OutcomeSlots) -> &mut Vec<GroupOutcome<Pv256>> {
        &mut slots.wide
    }
}

/// Reusable per-frame outcome slots, one vector per width, kept across
/// steps so merging a step allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct OutcomeSlots {
    narrow: Vec<GroupOutcome<Pv64>>,
    wide: Vec<GroupOutcome<Pv256>>,
}

/// Advances a frame stamp by two. Stamped tables start at zero, and the
/// scheduling guard returns to zero after each evaluation, so a stamp of
/// zero would make untouched entries read as current: when the stamp wraps
/// around, every table is cleared and the stamp restarts at two.
pub(crate) fn advance_stamp<const N: usize>(stamp: &mut u32, tables: [&mut [u32]; N]) {
    *stamp = stamp.wrapping_add(2);
    if *stamp == 0 {
        for table in tables {
            table.fill(0);
        }
        *stamp = 2;
    }
}

/// The simulator's scratch arena: every buffer one group propagation
/// needs, allocated once and reused for the life of its `FaultSim`.
///
/// One arena serves every width. The faulty-value planes hold `P::WORDS`
/// words per net for the group running, so they grow to the widest width
/// the owner has run and narrower groups use a prefix; all other tables are
/// indexed by net, level, lane or entry and do not depend on the width.
///
/// Stamp discipline: `stamp` is bumped per group frame, and any stamped
/// array entry is valid only while its stamp matches — so "clearing" the
/// faulty values, the forcing-range tables, and the scheduling guard between
/// groups costs one integer increment instead of a sweep.
#[derive(Debug)]
pub(crate) struct Arena {
    /// Zero plane of the faulty value per net (structure-of-arrays:
    /// `P::WORDS` contiguous words per net), valid where `fstamp` matches.
    fzero: Vec<u64>,
    /// One plane of the faulty value per net (same layout as `fzero`).
    fone: Vec<u64>,
    /// Validity stamp for the faulty planes.
    fstamp: Vec<u32>,
    /// Current frame stamp (bumped by 2 per group frame).
    stamp: u32,
    /// Scheduling guard per gate (queued when it matches `stamp`).
    queued: Vec<u32>,
    /// Level-bucketed event queue; buckets keep their capacity.
    buckets: Vec<Vec<NetId>>,
    /// Lowest level with a queued gate this group (`u32::MAX` when none).
    sched_lo: u32,
    /// Highest level with a queued gate this group.
    sched_hi: u32,
    /// Stem forcing entries `(lane, stuck)`, grouped by net.
    stem_entries: Vec<(u32, Logic)>,
    /// Per-net `(start, end)` range into `stem_entries`, stamped.
    stem_range: Vec<(u32, u32)>,
    /// Validity stamp for `stem_range`.
    stem_stamp: Vec<u32>,
    /// Branch forcing entries `(pin, lane, stuck)`, grouped by gate.
    branch_entries: Vec<(u16, u32, Logic)>,
    /// Per-gate `(start, end)` range into `branch_entries`, stamped.
    branch_range: Vec<(u32, u32)>,
    /// Validity stamp for `branch_range`.
    branch_stamp: Vec<u32>,
    /// Sort buffer for stem faults: `(net, lane, stuck)`.
    stem_tmp: Vec<(NetId, u32, Logic)>,
    /// Sort buffer for branch faults: `(gate, pin, lane, stuck)`.
    branch_tmp: Vec<(NetId, u16, u32, Logic)>,
    /// Flip-flop nets seeded with carried faulty state this frame.
    seeded: Vec<NetId>,
    /// Gate fan-in buffer for 64-lane groups (fan-in is small and bounded).
    fanin64: Vec<Pv64>,
    /// Gate fan-in buffer for 256-lane groups.
    fanin256: Vec<Pv256>,
    /// The flip-flop-effect buffer: this frame's effects in flip-flop
    /// order. A window's next frame seeds from it before overwriting it.
    effects: Vec<FfEffect>,
    /// `effects` regrouped by lane when a group materializes its new
    /// faulty flip-flop state.
    by_lane: Vec<(u32, Logic)>,
    /// Per-lane effect counts, then lane offsets into `by_lane`.
    lane_start: Vec<u32>,
}

impl Arena {
    /// An arena sized for `circuit` (combinational depth `max_level`). The
    /// faulty-value planes are allocated by the first group that runs.
    pub(crate) fn new(circuit: &Circuit, max_level: usize) -> Self {
        let n = circuit.num_gates();
        Arena {
            fzero: Vec::new(),
            fone: Vec::new(),
            fstamp: vec![0; n],
            stamp: 0,
            queued: vec![0; n],
            buckets: vec![Vec::new(); max_level + 1],
            sched_lo: u32::MAX,
            sched_hi: 0,
            stem_entries: Vec::new(),
            stem_range: vec![(0, 0); n],
            stem_stamp: vec![0; n],
            branch_entries: Vec::new(),
            branch_range: vec![(0, 0); n],
            branch_stamp: vec![0; n],
            stem_tmp: Vec::new(),
            branch_tmp: Vec::new(),
            seeded: Vec::new(),
            fanin64: Vec::new(),
            fanin256: Vec::new(),
            effects: Vec::new(),
            by_lane: Vec::new(),
            lane_start: vec![0; Pv256::LANES + 1],
        }
    }

    /// Starts a new group (or window frame) at width `P`: grows the planes
    /// on the first frame at a wider width, bumps the stamp, and resets the
    /// scheduled level band.
    fn begin_frame<P: PackedValue>(&mut self) {
        let words = self.fstamp.len() * P::WORDS;
        if self.fzero.len() < words {
            self.fzero.resize(words, 0);
            self.fone.resize(words, 0);
        }
        advance_stamp(
            &mut self.stamp,
            [
                &mut self.fstamp,
                &mut self.queued,
                &mut self.stem_stamp,
                &mut self.branch_stamp,
            ],
        );
        self.sched_lo = u32::MAX;
        self.sched_hi = 0;
    }

    /// Places the frame stamp, so tests can start a simulator just below
    /// the wrap-around.
    #[cfg(test)]
    pub(crate) fn set_stamp(&mut self, stamp: u32) {
        self.stamp = stamp;
    }

    /// The faulty word of `net` for the current group, defaulting to the
    /// broadcast good value (`values[net]`) if the net has not diverged.
    #[inline]
    fn effective<P: PackedValue>(&self, values: &[Logic], net: NetId) -> P {
        let i = net.index();
        if self.fstamp[i] == self.stamp {
            let at = i * P::WORDS;
            P::load_planes(&self.fzero[at..], &self.fone[at..])
        } else {
            P::broadcast(values[i])
        }
    }

    /// Records `w` as the faulty word of `net` for the current group.
    #[inline]
    fn record<P: PackedValue>(&mut self, net: NetId, w: P) {
        let i = net.index();
        let at = i * P::WORDS;
        w.store_planes(&mut self.fzero[at..], &mut self.fone[at..]);
        self.fstamp[i] = self.stamp;
    }

    /// Sets `lane` of flip-flop `ff` to the carried faulty value `v`. The
    /// first seed of a flip-flop this frame starts its word from the good
    /// value; every seed then writes its one lane straight into the planes
    /// (encoding: 0 = zero plane, 1 = one plane, X = neither).
    #[inline]
    fn seed<P: PackedValue>(&mut self, values: &[Logic], ff: NetId, lane: usize, v: Logic) {
        let i = ff.index();
        if self.fstamp[i] != self.stamp {
            self.record(ff, P::broadcast(values[i]));
            self.seeded.push(ff);
        }
        let at = i * P::WORDS + lane / 64;
        let bit = 1u64 << (lane % 64);
        self.fzero[at] = (self.fzero[at] & !bit) | if v == Logic::Zero { bit } else { 0 };
        self.fone[at] = (self.fone[at] & !bit) | if v == Logic::One { bit } else { 0 };
    }

    /// Schedules the fanout of every seeded flip-flop whose word diverged
    /// from the good value, once per flip-flop however many lanes it seeds.
    fn schedule_seeded<P: PackedValue>(&mut self, lev: &Levelization, values: &[Logic]) {
        let mut seeded = std::mem::take(&mut self.seeded);
        for &ff in &seeded {
            if self.effective::<P>(values, ff) != P::broadcast(values[ff.index()]) {
                self.schedule_fanout(lev, ff);
            }
        }
        seeded.clear();
        self.seeded = seeded;
    }

    /// Stem forces on `net` this group (empty when the range is stale).
    #[inline]
    fn stem_forces(&self, net: NetId) -> &[(u32, Logic)] {
        let i = net.index();
        if self.stem_stamp[i] == self.stamp {
            let (start, end) = self.stem_range[i];
            &self.stem_entries[start as usize..end as usize]
        } else {
            &[]
        }
    }

    /// Branch forces on `gate` this group (empty when the range is stale).
    #[inline]
    fn branch_forces(&self, gate: NetId) -> &[(u16, u32, Logic)] {
        let i = gate.index();
        if self.branch_stamp[i] == self.stamp {
            let (start, end) = self.branch_range[i];
            &self.branch_entries[start as usize..end as usize]
        } else {
            &[]
        }
    }

    /// Schedules every combinational consumer of `net` via the CSR fanout
    /// edges: each edge carries its precomputed level, so this is one
    /// contiguous read and a guarded bucket push per consumer.
    fn schedule_fanout(&mut self, lev: &Levelization, net: NetId) {
        for &FanoutEdge { gate, level } in lev.comb_fanout(net) {
            self.schedule(gate, level);
        }
    }

    #[inline]
    fn schedule(&mut self, gate: NetId, level: u32) {
        if self.queued[gate.index()] != self.stamp {
            self.queued[gate.index()] = self.stamp;
            debug_assert!(level >= 1, "combinational gates are level >= 1");
            self.buckets[level as usize].push(gate);
            self.sched_lo = self.sched_lo.min(level);
            self.sched_hi = self.sched_hi.max(level);
        }
    }
}

/// Builds the per-group stem/branch forcing tables for the current stamp:
/// sorts the group's fault sites by net and publishes stamped
/// `(start, end)` ranges over the sorted entry slices. Entry order within a
/// net is ascending lane order (forced by the sort key), which matches the
/// insertion order the old HashMap tables had. Returns the estimated
/// scratch bytes served.
fn publish_forcing(faults: &FaultList, group: &[FaultId], arena: &mut Arena) -> u64 {
    let stamp = arena.stamp;
    arena.stem_tmp.clear();
    arena.branch_tmp.clear();
    for (lane, &fid) in group.iter().enumerate() {
        let lane = lane as u32;
        let fault = faults.get(fid);
        match fault.site {
            FaultSite::Stem(net) => arena.stem_tmp.push((net, lane, fault.stuck)),
            FaultSite::Branch { gate, pin } => {
                arena.branch_tmp.push((gate, pin, lane, fault.stuck))
            }
        }
    }
    arena
        .stem_tmp
        .sort_unstable_by_key(|&(net, lane, _)| (net.index(), lane));
    arena
        .branch_tmp
        .sort_unstable_by_key(|&(gate, _, lane, _)| (gate.index(), lane));
    arena.stem_entries.clear();
    for i in 0..arena.stem_tmp.len() {
        let (net, lane, stuck) = arena.stem_tmp[i];
        let n = net.index();
        let end = arena.stem_entries.len() as u32;
        if arena.stem_stamp[n] != stamp {
            arena.stem_stamp[n] = stamp;
            arena.stem_range[n].0 = end;
        }
        arena.stem_entries.push((lane, stuck));
        arena.stem_range[n].1 = end + 1;
    }
    arena.branch_entries.clear();
    for i in 0..arena.branch_tmp.len() {
        let (gate, pin, lane, stuck) = arena.branch_tmp[i];
        let g = gate.index();
        let end = arena.branch_entries.len() as u32;
        if arena.branch_stamp[g] != stamp {
            arena.branch_stamp[g] = stamp;
            arena.branch_range[g].0 = end;
        }
        arena.branch_entries.push((pin, lane, stuck));
        arena.branch_range[g].1 = end + 1;
    }
    (arena.stem_tmp.len() * std::mem::size_of::<(NetId, u32, Logic)>()
        + arena.branch_tmp.len() * std::mem::size_of::<(NetId, u16, u32, Logic)>()) as u64
}

/// Seeds every lane's carried faulty flip-flop state from the shared
/// copy-on-write table (a window's first frame).
fn seed_from_table<P: PackedValue>(
    ctx: &GroupCtx<'_>,
    group: &[FaultId],
    values: &[Logic],
    arena: &mut Arena,
) {
    let dffs = ctx.circuit.dffs();
    for (lane, &fid) in group.iter().enumerate() {
        for &(dff_idx, v) in ctx.faulty_ff[fid.index()].iter() {
            arena.seed::<P>(values, dffs[dff_idx as usize], lane, v);
        }
    }
}

/// Seeds a window frame from the previous frame's flip-flop effects, for
/// the lanes still `live`. The sweep that follows overwrites the buffer
/// with this frame's effects.
fn seed_from_effects<P: PackedValue>(
    circuit: &Circuit,
    values: &[Logic],
    live: P::Mask,
    arena: &mut Arena,
) {
    let effects = std::mem::take(&mut arena.effects);
    for &(dff_idx, lane, v) in &effects {
        let lane = usize::from(lane);
        if live.test(lane) {
            arena.seed::<P>(values, circuit.dffs()[dff_idx as usize], lane, v);
        }
    }
    arena.effects = effects;
}

/// Propagates one group through one good-machine frame whose carried
/// faulty flip-flop state is already seeded: schedules the seeded
/// flip-flops' fanout, injects the (already published) stem and branch
/// forces, sweeps the touched level band event-driven, detects at primary
/// outputs, and collects the frame's flip-flop effects into
/// `arena.effects`.
///
/// `live` masks the lanes still being simulated: events, detections, and
/// flip-flop effects of dead lanes are suppressed, mirroring one-vector
/// steps, where a dropped fault leaves the group. (Lane values are
/// independent, so letting a dead lane keep propagating cannot perturb any
/// live lane.) A window's first frame runs every group lane live.
fn run_frame<P: GroupWidth>(
    circuit: &Circuit,
    lev: &Levelization,
    frame: GoodFrame<'_>,
    live: P::Mask,
    arena: &mut Arena,
    out: &mut GroupOutcome<P>,
) {
    let values = frame.values;
    let mut reused = 0u64;

    // Carried flip-flop divergence: one fanout walk per diverged flip-flop.
    arena.schedule_seeded::<P>(lev, values);

    // Seed stem-fault injections (including faults on PIs and FF outputs,
    // which are never re-evaluated by the combinational sweep). `stem_tmp`
    // is sorted by net, so each run of equal nets is one injection site.
    let mut i = 0;
    while i < arena.stem_tmp.len() {
        let net = arena.stem_tmp[i].0;
        let word: P = arena.effective(values, net);
        let mut w = word;
        while i < arena.stem_tmp.len() && arena.stem_tmp[i].0 == net {
            let (_, lane, stuck) = arena.stem_tmp[i];
            w.set_lane(lane as usize, stuck);
            i += 1;
        }
        // Record the forced word even when it equals the good value this
        // frame, so later reads see the forcing; schedule only on change.
        arena.record(net, w);
        if w != word {
            arena.schedule_fanout(lev, net);
        }
    }

    // Seed gates with branch faults: their effective input differs even
    // though no net changed.
    let mut i = 0;
    while i < arena.branch_tmp.len() {
        let gate = arena.branch_tmp[i].0;
        while i < arena.branch_tmp.len() && arena.branch_tmp[i].0 == gate {
            i += 1;
        }
        if circuit.kind(gate).is_combinational() {
            arena.schedule(gate, lev.level(gate));
        }
    }

    // Event-driven propagation over the touched level band only. The fanin
    // buffer is taken out of the arena for the duration of the sweep so the
    // borrow checker can see it is disjoint from the stamped tables; gate
    // kinds and fan-in slices come from the schedule-ordered CSR.
    let mut fanin = std::mem::take(P::fanin(arena));
    let mut level = arena.sched_lo as usize;
    while level <= arena.sched_hi as usize {
        let mut gates = std::mem::take(&mut arena.buckets[level]);
        for &gate in &gates {
            arena.queued[gate.index()] = 0;
            out.gate_evals += 1;
            let kind = lev.comb_kind(gate);
            debug_assert!(kind.is_combinational());
            fanin.clear();
            for &src in lev.comb_fanin(gate) {
                fanin.push(arena.effective(values, src));
            }
            reused += (fanin.len() * std::mem::size_of::<P>()) as u64;
            for &(pin, lane, stuck) in arena.branch_forces(gate) {
                fanin[pin as usize].set_lane(lane as usize, stuck);
            }
            let mut word = eval_packed(kind, &fanin);
            for &(lane, stuck) in arena.stem_forces(gate) {
                word.set_lane(lane as usize, stuck);
            }
            let old: P = arena.effective(values, gate);
            if word != old {
                let diff_lanes = u64::from(word.any_diff(old).and(live).count());
                out.faulty_events += diff_lanes;
                // Every diverged lane beyond the first rode this one packed
                // evaluation: that is the scheduling work the shared
                // per-group queue amortized away.
                out.events_amortized += diff_lanes.saturating_sub(1);
                arena.record(gate, word);
                arena.schedule_fanout(lev, gate);
            }
        }
        // Fanout is strictly higher-level, so nothing was appended to this
        // bucket while we iterated; put it back empty with its capacity.
        gates.clear();
        arena.buckets[level] = gates;
        level += 1;
    }
    *P::fanin(arena) = fanin;

    // Detection at primary outputs: strict binary difference. The
    // per-output masks double as the diagnosis syndrome.
    for (po_idx, &po) in circuit.outputs().iter().enumerate() {
        let goodw = P::broadcast(values[po.index()]);
        let faultyw: P = arena.effective(values, po);
        let mask = faultyw.binary_diff(goodw).and(live);
        out.detected_mask = out.detected_mask.or(mask);
        mask.for_each(|lane| out.po_detections.push((lane as u32, po_idx as u16)));
    }

    // Fault effects at flip-flops: compare faulty D values against the
    // good next state and append each diverged lane's faulty value to the
    // flip-flop-effect buffer, in flip-flop order.
    arena.effects.clear();
    let mut effect_lanes = P::Mask::EMPTY;
    for (dff_idx, &ff) in circuit.dffs().iter().enumerate() {
        let d = circuit.fanin(ff)[0];
        let mut faultyw: P = arena.effective(values, d);
        for &(pin, lane, stuck) in arena.branch_forces(ff) {
            debug_assert_eq!(pin, 0);
            faultyw.set_lane(lane as usize, stuck);
        }
        let goodw = P::broadcast(frame.next_state[dff_idx]);
        let diff = faultyw.any_diff(goodw).and(live);
        effect_lanes = effect_lanes.or(diff);
        let effects = &mut arena.effects;
        diff.for_each(|lane| effects.push((dff_idx as u32, lane as u16, faultyw.get_lane(lane))));
    }
    out.ff_effect_pairs += arena.effects.len() as u64;
    out.ff_effect_faults += u64::from(effect_lanes.count());
    reused += (arena.effects.len() * std::mem::size_of::<FfEffect>()) as u64;
    out.scratch_bytes += reused;
}

/// Materializes the last frame's flip-flop effects into per-lane
/// replacement faulty-FF state for the lanes in `keep` (those not detected
/// in the window), comparing against the pre-window shared table to skip
/// no-op writes.
///
/// A stable counting sort regroups the flip-flop-ordered effects by lane,
/// so each lane's entries stay in flip-flop order as the sparse state
/// requires.
fn materialize_new_ff<P: PackedValue>(
    ctx: &GroupCtx<'_>,
    group: &[FaultId],
    keep: P::Mask,
    arena: &mut Arena,
    out: &mut GroupOutcome<P>,
) {
    let starts = &mut arena.lane_start[..=group.len()];
    starts.fill(0);
    for &(_, lane, _) in &arena.effects {
        starts[usize::from(lane) + 1] += 1;
    }
    for lane in 1..starts.len() {
        starts[lane] += starts[lane - 1];
    }
    // `starts[lane]` is now the lane's first slot; placing an entry bumps
    // it, so afterwards it is the lane's end (and the next lane's start).
    arena.by_lane.clear();
    arena.by_lane.resize(arena.effects.len(), (0, Logic::X));
    for &(dff_idx, lane, v) in &arena.effects {
        let slot = &mut starts[usize::from(lane)];
        arena.by_lane[*slot as usize] = (dff_idx, v);
        *slot += 1;
    }

    let mut reused = 0u64;
    let mut start = 0usize;
    for (lane, &fid) in group.iter().enumerate() {
        let end = starts[lane] as usize;
        let state = &arena.by_lane[start..end];
        start = end;
        if !keep.test(lane) {
            // Detected in the window: the caller's drop logic clears it.
            out.new_ff.push(None);
        } else if state.is_empty() && ctx.faulty_ff[fid.index()].is_empty() {
            // Keep sharing the empty slice: no write, no unshare.
            out.new_ff.push(None);
        } else if state.is_empty() {
            out.new_ff.push(Some(Arc::clone(ctx.empty_ff)));
        } else {
            reused += std::mem::size_of_val(state) as u64;
            out.new_ff.push(Some(Arc::from(state)));
        }
    }
    out.scratch_bytes += reused;
}

/// Simulates one group of at most `P::LANES` faults across a window of
/// good-machine frames in a single pass, producing one [`GroupOutcome`] per
/// frame.
///
/// Frame `0` seeds from the shared faulty-FF table; each later frame seeds
/// from the previous frame's flip-flop effects still in the arena, so the
/// window never touches the copy-on-write table in between. Lanes detected
/// at frame `f` are masked out of frames `f+1..` (events, detections, and
/// FF effects), mirroring the drop-after-step semantics of stepping one
/// vector at a time; because lane values are independent, their continued
/// propagation cannot perturb live lanes. Only the *last* frame's outcome
/// carries `new_ff` entries.
///
/// Every per-frame outcome is bit-identical to what a one-frame window per
/// vector would have produced — except `gate_evals`/`scratch_bytes`, which
/// (as with lane widths) depend on how the work was batched.
pub(crate) fn simulate_group<P: GroupWidth>(
    ctx: &GroupCtx<'_>,
    frames: &[GoodFrame<'_>],
    group: &[FaultId],
    arena: &mut Arena,
    outs: &mut [GroupOutcome<P>],
) {
    debug_assert!(group.len() <= P::LANES);
    debug_assert_eq!(frames.len(), outs.len());
    let mut live = P::Mask::low(group.len());
    for (f, (frame, out)) in frames.iter().zip(outs.iter_mut()).enumerate() {
        out.reset();
        arena.begin_frame::<P>();
        out.scratch_bytes += publish_forcing(ctx.faults, group, arena);
        if f == 0 {
            seed_from_table::<P>(ctx, group, frame.values, arena);
        } else {
            seed_from_effects::<P>(ctx.circuit, frame.values, live, arena);
        }
        run_frame(ctx.circuit, ctx.lev, *frame, live, arena, out);
        live = live.and(out.detected_mask.invert());
    }
    if let Some(last) = outs.last_mut() {
        materialize_new_ff(ctx, group, live, arena, last);
    }
}
