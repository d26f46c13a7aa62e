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
//! per-gate fanin `Vec` with a fold over the fan-in words as they are read,
//! and the per-group faulty-FF state builders with one packed flip-flop
//! carry. Faulty net values live in structure-of-arrays form — one flat
//! `zero` plane array and one flat `one` plane array, `P::WORDS` words per
//! net — so a wide backend's plane arithmetic runs over contiguous words the
//! compiler can keep in vector registers. One arena serves both widths: only
//! the planes' length depends on the width, and they grow to the widest
//! width the owner has run.
//!
//! A window frame pays only for its event sweep. The forcing tables are
//! published once per group per window, under a forcing stamp of their own
//! — except for transition faults, which force their site only in the
//! frames whose good machine launches the slow edge: a transition group
//! re-publishes its tables every frame, keeping only the launching lanes.
//! Faulty flip-flop divergence crosses frames packed: the end-of-frame scan
//! stores one faulty D word and one lane mask per diverged flip-flop, in
//! flip-flop order, and the next frame seeds each of them with one blend of
//! the good and faulty words. Only a window's first frame reads the
//! per-fault sparse state, and only its last frame regroups the carry by
//! lane into it. The scan itself visits only the outputs and flip-flops
//! whose nets the group touched.
//!
//! Scheduling runs entirely on the levelized CSR
//! ([`Levelization::comb_fanout`]): fanout edges carry their consumer's
//! schedule position, and scheduling an event sets that position's bit in
//! a bitmap. A consumer always sits at a higher position than its producer,
//! so one forward scan over the touched words visits every scheduled gate
//! once, after all of its fan-ins, and leaves the bitmap empty. The
//! schedule is shared by all lanes of the group — a gate whose fan-in
//! changed in *any* lane is evaluated once for the whole group — and the
//! lane evaluations that sharing saves are tallied as `events_amortized`.
//!
//! On x86-64 hosts with AVX2, a 256-lane group runs through one clone of
//! [`simulate_group`] compiled with AVX2 enabled, chosen once per group:
//! every helper the group calls is inlined into it, so the plane loads,
//! blends, folds, compares and stores of the whole group use 256-bit
//! registers.
//!
//! A group may also carry several scored candidates at once
//! ([`FaultSim::score`](crate::FaultSim::score)): its words split into `K`
//! word-aligned slots, and each slot replays one candidate's fault sample
//! against that candidate's own good frames ([`SlotFrames`]). Every good-value read then
//! broadcasts, per 64-lane word, the value of the word's slot; lanes never
//! interact, so each slot's outcome is what its candidate would get alone.
//! `K` is a const parameter, and with `K = 1` every slot read folds back to
//! one broadcast.

use std::sync::Arc;

use gatest_netlist::levelize::Levelization;
use gatest_netlist::{Circuit, GateKind, NetId};

use crate::fault::{Fault, FaultId, FaultList, FaultModel, FaultSite};
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
    /// Good net values before the window's first frame, which a transition
    /// fault's launch in that frame compares against. `Some` exactly for
    /// [`FaultModel::Transition`] lists.
    pub before: Option<&'a [Logic]>,
}

/// One good-machine frame a group replays against: net values after the
/// combinational settle plus the latched next state, as slices so both the
/// live [`GoodSim`](crate::GoodSim) (a window's last frame) and stored
/// snapshots or scratch buffers (its earlier frames) can back it.
#[derive(Clone, Copy)]
pub(crate) struct GoodFrame<'a> {
    /// Net values after the frame, one per net.
    pub values: &'a [Logic],
    /// Latched next-state values, indexed like `circuit.dffs()`.
    pub next_state: &'a [Logic],
}

/// One window frame of a `K`-slot group: the good frame each slot replays.
/// Slot `s` owns the group's 64-lane words `s * P::WORDS / K ..` up to the
/// next slot's, so every word reads exactly one slot's good values.
pub(crate) type SlotFrames<'a, const K: usize> = [GoodFrame<'a>; K];

/// The most slots a group splits into: one candidate per 64-lane word of a
/// 256-lane group.
pub(crate) const MAX_SLOTS: usize = 4;

/// The slot that owns 64-lane word `w` of a `K`-slot group at width `P`.
#[inline(always)]
fn slot_of_word<P: PackedValue, const K: usize>(w: usize) -> usize {
    w * K / P::WORDS
}

/// The good word of net `i` in `frame`: the broadcast good value, or with
/// several slots each word broadcasting its own slot's value.
#[inline(always)]
fn good_value<P: PackedValue, const K: usize>(frame: &SlotFrames<'_, K>, i: usize) -> P {
    if K == 1 {
        P::broadcast(frame[0].values[i])
    } else {
        P::broadcast_words(|w| frame[slot_of_word::<P, K>(w)].values[i])
    }
}

/// The good next-state word of flip-flop `dff_idx` in `frame`, read per
/// slot like [`good_value`].
#[inline(always)]
fn good_next<P: PackedValue, const K: usize>(frame: &SlotFrames<'_, K>, dff_idx: usize) -> P {
    if K == 1 {
        P::broadcast(frame[0].next_state[dff_idx])
    } else {
        P::broadcast_words(|w| frame[slot_of_word::<P, K>(w)].next_state[dff_idx])
    }
}

/// Adds the lanes of `mask` to `counts`, per slot: one count with one slot,
/// one popcount per word into its slot's count otherwise. Callers count
/// into locals and add them to a [`GroupOutcome`] once per frame.
#[inline(always)]
fn count_per_slot<P: PackedValue, const K: usize>(mask: P::Mask, counts: &mut [u64; MAX_SLOTS]) {
    if K == 1 {
        counts[0] += u64::from(mask.count());
    } else {
        for w in 0..P::WORDS {
            counts[slot_of_word::<P, K>(w)] += u64::from(mask.word(w).count_ones());
        }
    }
}

/// The lanes of a `K`-slot group that carry faults: the first `n` lanes of
/// each of the first `used` slots.
#[inline(always)]
fn slot_lanes<P: PackedValue, const K: usize>(n: usize, used: usize) -> P::Mask {
    if K == 1 {
        return P::Mask::low(n);
    }
    let words = P::WORDS / K;
    P::Mask::from_words(|w| {
        let lanes = n.saturating_sub(w % words * 64).min(64);
        if w / words < used {
            <u64 as LaneMask>::low(lanes)
        } else {
            0
        }
    })
}

/// What a window does with a lane its frame detected, and with the carried
/// faulty flip-flop state at its end.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum WindowKind {
    /// A full-list window: a detected lane leaves the later frames, as its
    /// dropped fault leaves the active list. The last frame materializes
    /// the surviving lanes' state.
    Full,
    /// A sampled step: a detected lane restarts from the good state and
    /// stays live, since the sample still lists its fault. The last frame
    /// materializes the state.
    Sampled,
    /// A score: simulated like [`WindowKind::Sampled`], but nothing is
    /// materialized, since the simulator keeps its state.
    Score,
}

/// What one group simulation produced, in lane-relative terms.
///
/// Lanes are indices into the group: slot `s`'s fault `j` rides lane
/// `s * P::LANES / K + j`, which with one slot is `j`. The simulator's
/// merge translates them back to [`FaultId`]s and candidates. The counts
/// are kept per slot (index 0 with one slot). Outcomes are reused across
/// steps: [`GroupOutcome::reset`] clears the vectors without releasing
/// their capacity.
#[derive(Debug, Default, Clone)]
pub(crate) struct GroupOutcome<P: PackedValue> {
    /// Lanes detected at any primary output this frame.
    pub detected_mask: P::Mask,
    /// `(lane, po index)` detection syndrome, in primary-output order.
    pub po_detections: Vec<(u32, u16)>,
    /// Fault effects latched into flip-flops, as (fault, flip-flop) pairs,
    /// per slot.
    pub ff_effect_pairs: [u64; MAX_SLOTS],
    /// Distinct lanes with at least one effect at a flip-flop, per slot.
    pub ff_effect_faults: [u64; MAX_SLOTS],
    /// Faulty-circuit events over the group's packed machines, per slot.
    pub faulty_events: [u64; MAX_SLOTS],
    /// Lane events served by an evaluation shared with another lane: at
    /// every changed gate, all diverged lanes beyond the first ride the one
    /// packed evaluation the shared per-group schedule issued.
    pub events_amortized: u64,
    /// Packed faulty gate re-evaluations.
    pub gate_evals: u64,
    /// Live lanes whose transition fault launched (forced its site) this
    /// frame, per slot; always 0 for stuck-at lists.
    pub launched: [u64; MAX_SLOTS],
    /// Estimated bytes served from reused scratch this group (telemetry).
    pub scratch_bytes: u64,
    /// Replacement sparse faulty-FF state per lane, filled on a window's
    /// last frame only. `None` means "keep the old state" — emitted when
    /// old and new are both empty, so the merge can skip the copy-on-write
    /// table entirely. A lane whose fault the window drops gets the empty
    /// state.
    pub new_ff: Vec<Option<FaultyFfState>>,
}

impl<P: PackedValue> GroupOutcome<P> {
    /// Clears the outcome for reuse, keeping vector capacity.
    fn reset(&mut self) {
        self.detected_mask = P::Mask::EMPTY;
        self.po_detections.clear();
        self.ff_effect_pairs = [0; MAX_SLOTS];
        self.ff_effect_faults = [0; MAX_SLOTS];
        self.faulty_events = [0; MAX_SLOTS];
        self.events_amortized = 0;
        self.gate_evals = 0;
        self.launched = [0; MAX_SLOTS];
        self.scratch_bytes = 0;
        self.new_ff.clear();
    }
}

/// A packed width an [`Arena`] can simulate groups at. Every arena table is
/// shared by all widths; the per-group outcome slots are the only typed
/// scratch, so each width names its own.
pub(crate) trait GroupWidth: PackedValue {
    /// This width's outcome slots.
    fn outcomes(slots: &mut OutcomeSlots) -> &mut Vec<GroupOutcome<Self>>;

    /// Simulates one group at this width ([`simulate_group`]).
    fn simulate<const K: usize>(
        ctx: &GroupCtx<'_>,
        frames: &[SlotFrames<'_, K>],
        group: &[FaultId],
        used: usize,
        kind: WindowKind,
        arena: &mut Arena,
        outs: &mut [GroupOutcome<Self>],
    ) {
        simulate_group(ctx, frames, group, used, kind, arena, outs);
    }
}

impl GroupWidth for Pv64 {
    fn outcomes(slots: &mut OutcomeSlots) -> &mut Vec<GroupOutcome<Pv64>> {
        &mut slots.narrow
    }
}

impl GroupWidth for Pv256 {
    fn outcomes(slots: &mut OutcomeSlots) -> &mut Vec<GroupOutcome<Pv256>> {
        &mut slots.wide
    }

    /// Runs the AVX2 clone of [`simulate_group`] where the arena found AVX2,
    /// the portable instance elsewhere. Both are bit-identical.
    fn simulate<const K: usize>(
        ctx: &GroupCtx<'_>,
        frames: &[SlotFrames<'_, K>],
        group: &[FaultId],
        used: usize,
        kind: WindowKind,
        arena: &mut Arena,
        outs: &mut [GroupOutcome<Pv256>],
    ) {
        #[cfg(target_arch = "x86_64")]
        if arena.avx2 {
            // SAFETY: `arena.avx2` is set only when the host supports AVX2.
            return unsafe { simulate_group_avx2(ctx, frames, group, used, kind, arena, outs) };
        }
        simulate_group(ctx, frames, group, used, kind, arena, outs);
    }
}

/// [`simulate_group`] at 256 lanes, compiled with AVX2 enabled. Every helper
/// the group runs is `#[inline(always)]`, so it compiles into this clone
/// with 256-bit registers instead of being called at the baseline target.
///
/// # Safety
///
/// The host must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn simulate_group_avx2<const K: usize>(
    ctx: &GroupCtx<'_>,
    frames: &[SlotFrames<'_, K>],
    group: &[FaultId],
    used: usize,
    kind: WindowKind,
    arena: &mut Arena,
    outs: &mut [GroupOutcome<Pv256>],
) {
    simulate_group(ctx, frames, group, used, kind, arena, outs);
}

/// Reusable per-frame outcome slots, one vector per width, kept across
/// steps so merging a step allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct OutcomeSlots {
    narrow: Vec<GroupOutcome<Pv64>>,
    wide: Vec<GroupOutcome<Pv256>>,
}

/// Advances a stamp by two. Stamped tables start at zero, so a stamp of
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
/// indexed by net, schedule position, lane or entry and do not depend on
/// the width.
///
/// Stamp discipline: `stamp` is bumped per group frame and `force_stamp`
/// per published forcing (once per group, or per frame of a transition
/// group), and any stamped array entry is valid only while its stamp
/// matches — so "clearing" the faulty values between frames, and the
/// forcing-range tables between groups, costs one integer increment
/// instead of a sweep. The schedule bitmap needs no stamp: the sweep clears
/// each bit as it evaluates the gate, so every frame ends with it empty.
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
    /// Gates waiting for evaluation this frame: one bit per combinational
    /// schedule position ([`Levelization::comb_pos`]).
    sched: Vec<u64>,
    /// The lowest word of `sched` a schedule touched this frame
    /// (`usize::MAX` when none).
    lo_word: usize,
    /// The highest word of `sched` a schedule touched this frame.
    hi_word: usize,
    /// Whether the host supports AVX2, so 256-lane groups run through
    /// [`simulate_group_avx2`].
    avx2: bool,
    /// Current forcing stamp (bumped by 2 per publish): the stem and branch
    /// ranges a group publishes stay valid until it publishes again — for
    /// its whole window, or for one frame of a transition group.
    force_stamp: u32,
    /// Stem forcing entries `(lane, stuck)`, grouped by net.
    stem_entries: Vec<(u32, Logic)>,
    /// Per-net `(start, end)` range into `stem_entries`, stamped.
    stem_range: Vec<(u32, u32)>,
    /// Forcing stamp for `stem_range`.
    stem_stamp: Vec<u32>,
    /// Branch forcing entries `(pin, lane, stuck)`, grouped by gate.
    branch_entries: Vec<(u16, u32, Logic)>,
    /// Per-gate `(start, end)` range into `branch_entries`, stamped.
    branch_range: Vec<(u32, u32)>,
    /// Forcing stamp for `branch_range`.
    branch_stamp: Vec<u32>,
    /// The group's stem fault sites sorted by net: `(net, fault, stuck)`,
    /// `fault` indexing the group.
    stem_sites: Vec<(NetId, u32, Logic)>,
    /// The group's branch fault sites sorted by gate: `(gate, pin, fault,
    /// stuck)`.
    branch_sites: Vec<(NetId, u16, u32, Logic)>,
    /// The admitted stem forces, sorted by net: `(net, lane, stuck)`.
    stem_tmp: Vec<(NetId, u32, Logic)>,
    /// The admitted branch forces, sorted by gate: `(gate, pin, lane,
    /// stuck)`.
    branch_tmp: Vec<(NetId, u16, u32, Logic)>,
    /// Flip-flop nets seeded from the sparse per-fault state this frame.
    seeded: Vec<NetId>,
    /// The packed flip-flop carry: the flip-flops (dff indices) whose
    /// faulty D value diverged from the good next state this frame, in
    /// ascending order. A window's next frame seeds from it before the
    /// scan overwrites it.
    carry_dffs: Vec<u32>,
    /// Zero plane of each carried flip-flop's faulty D word (`P::WORDS`
    /// words per entry of `carry_dffs`).
    carry_zero: Vec<u64>,
    /// One plane of each carried faulty D word (same layout).
    carry_one: Vec<u64>,
    /// Lanes each carried word diverges in (same layout).
    carry_mask: Vec<u64>,
    /// The carry regrouped by lane when a group materializes its new
    /// faulty flip-flop state.
    by_lane: Vec<(u32, Logic)>,
    /// Per-lane effect counts, then lane offsets into `by_lane`.
    lane_start: Vec<u32>,
}

impl Arena {
    /// An arena sized for `circuit` and its levelization `lev`. The
    /// faulty-value planes are allocated by the first group that runs.
    pub(crate) fn new(circuit: &Circuit, lev: &Levelization) -> Self {
        let n = circuit.num_gates();
        Arena {
            fzero: Vec::new(),
            fone: Vec::new(),
            fstamp: vec![0; n],
            stamp: 0,
            sched: vec![0; lev.comb_len().div_ceil(64)],
            lo_word: usize::MAX,
            hi_word: 0,
            #[cfg(target_arch = "x86_64")]
            avx2: is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            avx2: false,
            force_stamp: 0,
            stem_entries: Vec::new(),
            stem_range: vec![(0, 0); n],
            stem_stamp: vec![0; n],
            branch_entries: Vec::new(),
            branch_range: vec![(0, 0); n],
            branch_stamp: vec![0; n],
            stem_sites: Vec::new(),
            branch_sites: Vec::new(),
            stem_tmp: Vec::new(),
            branch_tmp: Vec::new(),
            seeded: Vec::new(),
            carry_dffs: Vec::new(),
            carry_zero: Vec::new(),
            carry_one: Vec::new(),
            carry_mask: Vec::new(),
            by_lane: Vec::new(),
            lane_start: vec![0; Pv256::LANES + 1],
        }
    }

    /// Starts a window frame of a group at width `P`: grows the planes on
    /// the first frame at a wider width, bumps the frame stamp, and resets
    /// the touched band of the schedule bitmap.
    #[inline(always)]
    fn begin_frame<P: PackedValue>(&mut self) {
        let words = self.fstamp.len() * P::WORDS;
        if self.fzero.len() < words {
            self.fzero.resize(words, 0);
            self.fone.resize(words, 0);
        }
        advance_stamp(&mut self.stamp, [&mut self.fstamp]);
        self.lo_word = usize::MAX;
        self.hi_word = 0;
    }

    /// Places the frame and forcing stamps, so tests can start a simulator
    /// just below the wrap-around.
    #[cfg(test)]
    pub(crate) fn set_stamp(&mut self, stamp: u32) {
        self.stamp = stamp;
        self.force_stamp = stamp;
    }

    /// Runs every later 256-lane group through the portable
    /// [`simulate_group`], so tests can hold the AVX2 clone against it.
    #[cfg(test)]
    pub(crate) fn force_portable(&mut self) {
        self.avx2 = false;
    }

    /// Whether 256-lane groups run through the AVX2 clone.
    #[cfg(test)]
    pub(crate) fn uses_avx2(&self) -> bool {
        self.avx2
    }

    /// The faulty word of `net` for the current group, defaulting to the
    /// good word ([`good_value`]) if the net has not diverged.
    #[inline(always)]
    fn effective<P: PackedValue, const K: usize>(&self, good: &SlotFrames<'_, K>, net: NetId) -> P {
        let i = net.index();
        if self.fstamp[i] == self.stamp {
            let at = i * P::WORDS;
            P::load_planes(&self.fzero[at..], &self.fone[at..])
        } else {
            good_value(good, i)
        }
    }

    /// The word gate `gate` reads on input `pin`, from net `src`: the
    /// group's word of `src` with the gate's branch `forces` on that pin
    /// applied.
    #[inline(always)]
    fn input<P: PackedValue, const K: usize>(
        &self,
        good: &SlotFrames<'_, K>,
        src: NetId,
        pin: usize,
        forces: &[(u16, u32, Logic)],
    ) -> P {
        let mut word: P = self.effective(good, src);
        for &(at, lane, stuck) in forces {
            if usize::from(at) == pin {
                word.set_lane(lane as usize, stuck);
            }
        }
        word
    }

    /// Folds `op` over the words gate `gate` reads on its inputs `fanin`,
    /// from `init`, as they are read: no fan-in buffer.
    #[inline(always)]
    fn fold<P: PackedValue, const K: usize>(
        &self,
        good: &SlotFrames<'_, K>,
        fanin: &[NetId],
        forces: &[(u16, u32, Logic)],
        init: P,
        op: impl Fn(P, P) -> P,
    ) -> P {
        let mut acc = init;
        for (pin, &src) in fanin.iter().enumerate() {
            acc = op(acc, self.input(good, src, pin, forces));
        }
        acc
    }

    /// Evaluates combinational gate `gate` (`kind`, fan-in `fanin`) for the
    /// group, folding its input words as they are read; an inverting kind
    /// swaps the planes of the fold. Agrees with
    /// [`eval_packed`](crate::eval::eval_packed).
    #[inline(always)]
    fn eval_gate<P: PackedValue, const K: usize>(
        &self,
        good: &SlotFrames<'_, K>,
        gate: NetId,
        kind: GateKind,
        fanin: &[NetId],
    ) -> P {
        let forces = self.branch_forces(gate);
        match kind {
            GateKind::And => self.fold(good, fanin, forces, P::ALL_ONE, P::and),
            GateKind::Nand => self.fold(good, fanin, forces, P::ALL_ONE, P::and).not(),
            GateKind::Or => self.fold(good, fanin, forces, P::ALL_ZERO, P::or),
            GateKind::Nor => self.fold(good, fanin, forces, P::ALL_ZERO, P::or).not(),
            GateKind::Xor => self.fold(good, fanin, forces, P::ALL_ZERO, P::xor),
            GateKind::Xnor => self.fold(good, fanin, forces, P::ALL_ZERO, P::xor).not(),
            GateKind::Not => self.input::<P, K>(good, fanin[0], 0, forces).not(),
            GateKind::Buf => self.input(good, fanin[0], 0, forces),
            GateKind::Const0 => P::ALL_ZERO,
            GateKind::Const1 => P::ALL_ONE,
            GateKind::Input | GateKind::Dff => {
                debug_assert!(false, "{kind} values come from the environment");
                P::ALL_X
            }
        }
    }

    /// Records `w` as the faulty word of `net` for the current group.
    #[inline(always)]
    fn record<P: PackedValue>(&mut self, net: NetId, w: P) {
        let i = net.index();
        let at = i * P::WORDS;
        w.store_planes(&mut self.fzero[at..], &mut self.fone[at..]);
        self.fstamp[i] = self.stamp;
    }

    /// Sets `lane` of flip-flop `ff` to the carried faulty value `v`. The
    /// first seed of a flip-flop this frame starts its word from the good
    /// word; every seed then writes its one lane straight into the planes
    /// (encoding: 0 = zero plane, 1 = one plane, X = neither).
    #[inline(always)]
    fn seed<P: PackedValue, const K: usize>(
        &mut self,
        good: &SlotFrames<'_, K>,
        ff: NetId,
        lane: usize,
        v: Logic,
    ) {
        let i = ff.index();
        if self.fstamp[i] != self.stamp {
            self.record(ff, good_value::<P, K>(good, i));
            self.seeded.push(ff);
        }
        let at = i * P::WORDS + lane / 64;
        let bit = 1u64 << (lane % 64);
        self.fzero[at] = (self.fzero[at] & !bit) | if v == Logic::Zero { bit } else { 0 };
        self.fone[at] = (self.fone[at] & !bit) | if v == Logic::One { bit } else { 0 };
    }

    /// Schedules the fanout of every seeded flip-flop whose word diverged
    /// from the good value, once per flip-flop however many lanes it seeds.
    #[inline(always)]
    fn schedule_seeded<P: PackedValue, const K: usize>(
        &mut self,
        lev: &Levelization,
        good: &SlotFrames<'_, K>,
    ) {
        let mut seeded = std::mem::take(&mut self.seeded);
        for &ff in &seeded {
            if self.effective::<P, K>(good, ff) != good_value(good, ff.index()) {
                self.schedule_fanout(lev, ff);
            }
        }
        seeded.clear();
        self.seeded = seeded;
    }

    /// Seeds flip-flop `ff` from entry `k` of the packed carry: one blend
    /// of the good word and the carried faulty word over the carried lanes
    /// still in `carry`. Returns whether any lane diverged.
    #[inline(always)]
    fn seed_carried<P: PackedValue, const K: usize>(
        &mut self,
        good: &SlotFrames<'_, K>,
        ff: NetId,
        k: usize,
        carry: P::Mask,
    ) -> bool {
        let i = ff.index();
        let at = i * P::WORDS;
        good_value::<P, K>(good, i).store_planes(&mut self.fzero[at..], &mut self.fone[at..]);
        let mut diverged = false;
        for w in 0..P::WORDS {
            let c = k * P::WORDS + w;
            let m = self.carry_mask[c] & carry.word(w);
            diverged |= m != 0;
            self.fzero[at + w] = (self.fzero[at + w] & !m) | (self.carry_zero[c] & m);
            self.fone[at + w] = (self.fone[at + w] & !m) | (self.carry_one[c] & m);
        }
        if diverged {
            self.fstamp[i] = self.stamp;
        }
        diverged
    }

    /// Appends flip-flop `dff_idx`'s faulty D word `w`, diverged in lanes
    /// `diff`, to the packed carry.
    #[inline(always)]
    fn push_carry<P: PackedValue>(&mut self, dff_idx: usize, w: P, diff: P::Mask) {
        let at = self.carry_zero.len();
        self.carry_dffs.push(dff_idx as u32);
        self.carry_zero.resize(at + P::WORDS, 0);
        self.carry_one.resize(at + P::WORDS, 0);
        w.store_planes(&mut self.carry_zero[at..], &mut self.carry_one[at..]);
        self.carry_mask.extend((0..P::WORDS).map(|w| diff.word(w)));
    }

    /// Calls `f(dff index, lane, faulty value)` for every carried lane in
    /// `keep`, in flip-flop order and then lane order.
    #[inline(always)]
    fn for_each_carried<P: PackedValue>(
        &self,
        keep: P::Mask,
        mut f: impl FnMut(u32, usize, Logic),
    ) {
        for (k, &dff_idx) in self.carry_dffs.iter().enumerate() {
            for w in 0..P::WORDS {
                let c = k * P::WORDS + w;
                let mut bits = self.carry_mask[c] & keep.word(w);
                while bits != 0 {
                    let bit = bits & bits.wrapping_neg();
                    let v = if self.carry_zero[c] & bit != 0 {
                        Logic::Zero
                    } else if self.carry_one[c] & bit != 0 {
                        Logic::One
                    } else {
                        Logic::X
                    };
                    f(dff_idx, w * 64 + bits.trailing_zeros() as usize, v);
                    bits &= bits - 1;
                }
            }
        }
    }

    /// Stem forces on `net` this group (empty when the range is stale).
    #[inline]
    fn stem_forces(&self, net: NetId) -> &[(u32, Logic)] {
        let i = net.index();
        if self.stem_stamp[i] == self.force_stamp {
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
        if self.branch_stamp[i] == self.force_stamp {
            let (start, end) = self.branch_range[i];
            &self.branch_entries[start as usize..end as usize]
        } else {
            &[]
        }
    }

    /// Schedules every combinational consumer of `net` via the CSR fanout
    /// edges: each edge carries its consumer's schedule position, so this
    /// is one contiguous read and one bit set per consumer.
    #[inline(always)]
    fn schedule_fanout(&mut self, lev: &Levelization, net: NetId) {
        for edge in lev.comb_fanout(net) {
            self.schedule(edge.pos as usize);
        }
    }

    /// Schedules the combinational gate at schedule position `pos`. Setting
    /// a bit twice schedules the gate once.
    #[inline(always)]
    fn schedule(&mut self, pos: usize) {
        let w = pos / 64;
        self.sched[w] |= 1u64 << (pos % 64);
        self.lo_word = self.lo_word.min(w);
        self.hi_word = self.hi_word.max(w);
    }
}

/// Builds a group's stem/branch forcing tables from the lanes `forces`
/// admits, over `group`'s faults in each of the first `used` slots of
/// `stride` lanes (`forces` sees the slot and the lane): advances the
/// forcing stamp, sorts the admitted fault sites by net and publishes
/// stamped `(start, end)` ranges over the sorted entry slices. Entry order
/// within a net is ascending lane order (forced by the sort key), which
/// matches the insertion order the old HashMap tables had. Returns the
/// estimated scratch bytes served.
///
/// Every slot carries the same faults, so a group of several slots sorts
/// its sites once, by net and fault, and lays each net's run out slot by
/// slot; lanes grow with the slot, so the order is the same.
fn publish_forcing(
    faults: &FaultList,
    group: &[FaultId],
    used: usize,
    stride: usize,
    arena: &mut Arena,
    mut forces: impl FnMut(usize, usize, Fault) -> bool,
) -> u64 {
    advance_stamp(
        &mut arena.force_stamp,
        [&mut arena.stem_stamp, &mut arena.branch_stamp],
    );
    let stamp = arena.force_stamp;
    // One slot admits its lanes as it reads them, straight into the
    // tables' sort buffers.
    let (stem_sites, branch_sites) = if used == 1 {
        (&mut arena.stem_tmp, &mut arena.branch_tmp)
    } else {
        (&mut arena.stem_sites, &mut arena.branch_sites)
    };
    stem_sites.clear();
    branch_sites.clear();
    for (j, &fid) in group.iter().enumerate() {
        let fault = faults.get(fid);
        if used == 1 && !forces(0, j, fault) {
            continue;
        }
        let j = j as u32;
        match fault.site {
            FaultSite::Stem(net) => stem_sites.push((net, j, fault.stuck)),
            FaultSite::Branch { gate, pin } => branch_sites.push((gate, pin, j, fault.stuck)),
        }
    }
    stem_sites.sort_unstable_by_key(|&(net, j, _)| (net.index(), j));
    branch_sites.sort_unstable_by_key(|&(gate, _, j, _)| (gate.index(), j));
    if used > 1 {
        arena.stem_tmp.clear();
        for run in arena.stem_sites.chunk_by(|a, b| a.0 == b.0) {
            for slot in 0..used {
                for &(net, j, stuck) in run {
                    let lane = slot * stride + j as usize;
                    if forces(slot, lane, faults.get(group[j as usize])) {
                        arena.stem_tmp.push((net, lane as u32, stuck));
                    }
                }
            }
        }
        arena.branch_tmp.clear();
        for run in arena.branch_sites.chunk_by(|a, b| a.0 == b.0) {
            for slot in 0..used {
                for &(gate, pin, j, stuck) in run {
                    let lane = slot * stride + j as usize;
                    if forces(slot, lane, faults.get(group[j as usize])) {
                        arena.branch_tmp.push((gate, pin, lane as u32, stuck));
                    }
                }
            }
        }
    }
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

/// Seeds every lane's faulty flip-flop state from the shared copy-on-write
/// table (a window's first frame) — each of the first `used` slots seeds
/// the same faults, since every slot starts from the same state — then
/// schedules the fanout of each diverged flip-flop once.
#[inline(always)]
fn seed_from_table<P: PackedValue, const K: usize>(
    ctx: &GroupCtx<'_>,
    group: &[FaultId],
    used: usize,
    good: &SlotFrames<'_, K>,
    arena: &mut Arena,
) {
    let dffs = ctx.circuit.dffs();
    let stride = P::LANES / K;
    for slot in 0..used {
        for (j, &fid) in group.iter().enumerate() {
            for &(dff_idx, v) in ctx.faulty_ff[fid.index()].iter() {
                arena.seed::<P, K>(good, dffs[dff_idx as usize], slot * stride + j, v);
            }
        }
    }
    arena.schedule_seeded::<P, K>(ctx.lev, good);
}

/// Seeds a later window frame from the previous frame's packed carry, for
/// the lanes in `carry`, and schedules the fanout of each flip-flop that
/// diverged. The scan that follows overwrites the carry with this frame's.
#[inline(always)]
fn seed_from_carry<P: PackedValue, const K: usize>(
    circuit: &Circuit,
    lev: &Levelization,
    good: &SlotFrames<'_, K>,
    carry: P::Mask,
    arena: &mut Arena,
) {
    for k in 0..arena.carry_dffs.len() {
        let ff = circuit.dffs()[arena.carry_dffs[k] as usize];
        if arena.seed_carried::<P, K>(good, ff, k, carry) {
            arena.schedule_fanout(lev, ff);
        }
    }
}

/// Propagates one group through one good-machine frame whose carried
/// faulty flip-flop state is already seeded and scheduled: injects the
/// (already published) stem and branch forces, sweeps the schedule bitmap
/// event-driven, detects at primary outputs, and scans the flip-flops into
/// the arena's packed carry.
///
/// `live` masks the lanes being simulated: events, detections, and
/// flip-flop effects of dead lanes are suppressed, mirroring one-vector
/// steps, where a dropped fault leaves the group. (Lane values are
/// independent, so letting a dead lane keep propagating cannot perturb any
/// live lane.) A window's first frame runs every group lane live.
#[inline(always)]
fn run_frame<P: GroupWidth, const K: usize>(
    circuit: &Circuit,
    lev: &Levelization,
    frame: SlotFrames<'_, K>,
    live: P::Mask,
    arena: &mut Arena,
    out: &mut GroupOutcome<P>,
) {
    // The frame's slices, read at every good-value fallback, come in by
    // value: a local whose address never leaves this frame's inlined code
    // keeps them in registers across the arena's writes.
    let good = &frame;
    let mut reused = 0u64;

    // Seed stem-fault injections (including faults on PIs and FF outputs,
    // which are never re-evaluated by the combinational sweep). `stem_tmp`
    // is sorted by net, so each run of equal nets is one injection site.
    let mut i = 0;
    while i < arena.stem_tmp.len() {
        let net = arena.stem_tmp[i].0;
        let word: P = arena.effective(good, net);
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
            arena.schedule(lev.comb_pos(gate));
        }
    }

    // Event-driven propagation: one forward scan over the touched words of
    // the schedule bitmap. Fanout always lands at a higher position, so
    // each word is re-read after every evaluation (a consumer may have set
    // a higher bit in it), and each gate is evaluated once, after all of
    // its fan-ins. Gate kinds and fan-in slices come from the
    // schedule-ordered CSR record at the bit's position.
    // The sweep counts faulty events in locals and adds them to the
    // outcome once: a per-event add into the outcome's per-slot array, even
    // at one slot, cost the 256-lane frame 5–9%.
    let mut events = 0u64;
    let mut slot_events = [0u64; MAX_SLOTS];
    let mut w = arena.lo_word;
    while w <= arena.hi_word {
        loop {
            let bits = arena.sched[w];
            if bits == 0 {
                break;
            }
            arena.sched[w] = bits & (bits - 1);
            let (gate, kind, fanin) = lev.comb_record(w * 64 + bits.trailing_zeros() as usize);
            out.gate_evals += 1;
            // What the original per-gate fan-in `Vec` would have held.
            reused += (fanin.len() * std::mem::size_of::<P>()) as u64;
            let mut word: P = arena.eval_gate(good, gate, kind, fanin);
            for &(lane, stuck) in arena.stem_forces(gate) {
                word.set_lane(lane as usize, stuck);
            }
            let old: P = arena.effective(good, gate);
            if word != old {
                let diff = word.any_diff(old).and(live);
                let diff_lanes = u64::from(diff.count());
                events += diff_lanes;
                if K > 1 {
                    count_per_slot::<P, K>(diff, &mut slot_events);
                }
                // Every diverged lane beyond the first rode this one packed
                // evaluation: that is the scheduling work the shared
                // per-group schedule amortized away.
                out.events_amortized += diff_lanes.saturating_sub(1);
                arena.record(gate, word);
                arena.schedule_fanout(lev, gate);
            }
        }
        w += 1;
    }
    debug_assert!(
        arena.sched.iter().all(|&bits| bits == 0),
        "the sweep leaves the schedule bitmap empty"
    );
    if K == 1 {
        out.faulty_events[0] += events;
    } else {
        for (total, events) in out.faulty_events.iter_mut().zip(slot_events) {
            *total += events;
        }
    }

    // Detection at primary outputs: strict binary difference. The
    // per-output masks double as the diagnosis syndrome. An output the
    // group never touched holds the good value in every lane.
    for (po_idx, &po) in circuit.outputs().iter().enumerate() {
        if arena.fstamp[po.index()] != arena.stamp {
            continue;
        }
        let goodw: P = good_value(good, po.index());
        let faultyw: P = arena.effective(good, po);
        let mask = faultyw.binary_diff(goodw).and(live);
        out.detected_mask = out.detected_mask.or(mask);
        mask.for_each(|lane| out.po_detections.push((lane as u32, po_idx as u16)));
    }

    // Fault effects at flip-flops: compare faulty D values against the
    // good next state and carry each diverged word, with its lane mask, in
    // flip-flop order. A flip-flop whose D net the group never touched and
    // that carries no branch force latches the good D value, which is the
    // good next state, so the scan skips it.
    arena.carry_dffs.clear();
    arena.carry_zero.clear();
    arena.carry_one.clear();
    arena.carry_mask.clear();
    let mut effect_lanes = P::Mask::EMPTY;
    let mut pairs = [0u64; MAX_SLOTS];
    for (dff_idx, &ff) in circuit.dffs().iter().enumerate() {
        let d = circuit.fanin(ff)[0];
        let forces = arena.branch_forces(ff);
        if forces.is_empty() && arena.fstamp[d.index()] != arena.stamp {
            continue;
        }
        let mut faultyw: P = arena.effective(good, d);
        for &(pin, lane, stuck) in forces {
            debug_assert_eq!(pin, 0);
            faultyw.set_lane(lane as usize, stuck);
        }
        let goodw: P = good_next(good, dff_idx);
        let diff = faultyw.any_diff(goodw).and(live);
        if diff.any() {
            effect_lanes = effect_lanes.or(diff);
            count_per_slot::<P, K>(diff, &mut pairs);
            arena.push_carry(dff_idx, faultyw, diff);
        }
    }
    let mut faults = [0u64; MAX_SLOTS];
    count_per_slot::<P, K>(effect_lanes, &mut faults);
    for (total, pairs) in out.ff_effect_pairs.iter_mut().zip(pairs).take(K) {
        *total += pairs;
    }
    for (total, faults) in out.ff_effect_faults.iter_mut().zip(faults).take(K) {
        *total += faults;
    }
    let carried = std::mem::size_of::<(u32, P, P::Mask)>();
    reused += (arena.carry_dffs.len() * carried) as u64;
    out.scratch_bytes += reused;
}

/// Regroups the last frame's packed carry by lane into replacement
/// faulty-FF state, comparing against the pre-window shared table to skip
/// no-op writes. Lanes in `keep` take their carried state; the others are
/// the faults the window drops, whose state is cleared.
///
/// A stable counting sort regroups the flip-flop-ordered carry by lane, so
/// each lane's entries stay in flip-flop order as the sparse state
/// requires.
#[inline(always)]
fn materialize_new_ff<P: PackedValue>(
    ctx: &GroupCtx<'_>,
    group: &[FaultId],
    keep: P::Mask,
    arena: &mut Arena,
    out: &mut GroupOutcome<P>,
) {
    let mut starts = std::mem::take(&mut arena.lane_start);
    let mut by_lane = std::mem::take(&mut arena.by_lane);
    let starts_g = &mut starts[..=group.len()];
    starts_g.fill(0);
    arena.for_each_carried::<P>(keep, |_, lane, _| starts_g[lane + 1] += 1);
    for lane in 1..starts_g.len() {
        starts_g[lane] += starts_g[lane - 1];
    }
    // `starts[lane]` is now the lane's first slot; placing an entry bumps
    // it, so afterwards it is the lane's end (and the next lane's start).
    by_lane.clear();
    by_lane.resize(starts_g[group.len()] as usize, (0, Logic::X));
    arena.for_each_carried::<P>(keep, |dff_idx, lane, v| {
        let slot = &mut starts_g[lane];
        by_lane[*slot as usize] = (dff_idx, v);
        *slot += 1;
    });

    let mut reused = 0u64;
    let mut start = 0usize;
    for (lane, &fid) in group.iter().enumerate() {
        let end = starts_g[lane] as usize;
        let state = &by_lane[start..end];
        start = end;
        if state.is_empty() && ctx.faulty_ff[fid.index()].is_empty() {
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
    arena.lane_start = starts;
    arena.by_lane = by_lane;
}

/// Simulates one group across a window of good-machine frames in a single
/// pass, producing one [`GroupOutcome`] per frame. The group's faults
/// (`group`, at most `P::LANES / K`) ride each of the first `used` of its
/// `K` slots; slot `s` replays them against `frames[f][s]`.
///
/// A stuck-at group's forcing tables are published once. A transition
/// group's are published at every frame, with only the lanes whose good
/// machine launches the slow edge — the fault net's good value before the
/// frame in the lane's slot (`ctx.before`, shared by every slot, for frame
/// `0`) is the edge's old value and its value in the frame the new one; the
/// live lanes among them are the frame's `launched` count. Frame `0` seeds
/// from the shared faulty-FF table; each later frame seeds from the
/// previous frame's packed carry, so the window never touches the
/// copy-on-write table in between. Unless the window is a
/// [`WindowKind::Score`], the *last* frame's outcome carries `new_ff`
/// entries (a window that writes them runs one slot).
///
/// A lane detected at frame `f` starts frame `f+1` from the good state: its
/// carried flip-flop divergence is dropped, as the drop after a one-vector
/// step clears it. In a [`WindowKind::Full`] window the lane is also
/// masked out of frames `f+1..` (events, detections, and FF effects), as
/// the dropped fault leaves the active list; because lane values are
/// independent, its continued propagation cannot perturb live lanes.
/// Otherwise (sampled windows and scores) the lane stays live, as the
/// sample still lists the fault, and may be detected again. Either way the
/// window ends with the state of the lanes not detected at its last frame
/// and clears the others.
///
/// Every per-frame outcome is bit-identical to what a one-frame window per
/// vector would have produced, and every slot's to what its candidate
/// would get in a group of its own — except `gate_evals`/`scratch_bytes`/
/// `events_amortized`, which (as with lane widths) depend on how the work
/// was batched.
#[inline(always)]
pub(crate) fn simulate_group<P: GroupWidth, const K: usize>(
    ctx: &GroupCtx<'_>,
    frames: &[SlotFrames<'_, K>],
    group: &[FaultId],
    used: usize,
    kind: WindowKind,
    arena: &mut Arena,
    outs: &mut [GroupOutcome<P>],
) {
    let stride = P::LANES / K;
    debug_assert!(group.len() <= stride);
    debug_assert!((1..=K).contains(&used) && K <= MAX_SLOTS);
    debug_assert!(K == 1 || kind == WindowKind::Score);
    debug_assert_eq!(frames.len(), outs.len());
    debug_assert_eq!(
        ctx.before.is_some(),
        ctx.faults.model() == FaultModel::Transition
    );
    let mut live = slot_lanes::<P, K>(group.len(), used);
    let mut carry = live;
    for (f, (frame, out)) in frames.iter().zip(outs.iter_mut()).enumerate() {
        out.reset();
        arena.begin_frame::<P>();
        match ctx.before {
            None if f > 0 => {}
            None => {
                out.scratch_bytes +=
                    publish_forcing(ctx.faults, group, used, stride, arena, |_, _, _| true)
            }
            Some(before) => {
                let mut launched = [0; MAX_SLOTS];
                out.scratch_bytes += publish_forcing(
                    ctx.faults,
                    group,
                    used,
                    stride,
                    arena,
                    |slot, lane, fault| {
                        let net = fault.anchor().index();
                        let prev = if f == 0 {
                            before
                        } else {
                            frames[f - 1][slot].values
                        };
                        let fires =
                            prev[net] == fault.stuck && frame[slot].values[net] == !fault.stuck;
                        launched[slot] += u64::from(fires && live.test(lane));
                        fires
                    },
                );
                out.launched = launched;
            }
        }
        if f == 0 {
            seed_from_table::<P, K>(ctx, group, used, frame, arena);
        } else {
            seed_from_carry::<P, K>(ctx.circuit, ctx.lev, frame, carry, arena);
        }
        run_frame(ctx.circuit, ctx.lev, *frame, live, arena, out);
        carry = live.and(out.detected_mask.invert());
        if kind == WindowKind::Full {
            live = carry;
        }
    }
    if kind != WindowKind::Score {
        if let Some(last) = outs.last_mut() {
            materialize_new_ff(ctx, group, carry, arena, last);
        }
    }
}
