//! Combinational levelization.
//!
//! For event-driven simulation, gates are assigned *levels*: primary inputs,
//! constants, and flip-flop outputs are level 0 (they are the combinational
//! frontier at the start of a time frame); every other gate's level is one
//! more than the maximum level of its fanins. Evaluating gates in level order
//! guarantees each gate is evaluated after all of its fanins within a frame.

use crate::circuit::Circuit;
use crate::gate::{GateKind, NetId};

/// One combinational consumer of a net, with its schedule position
/// precomputed so event scheduling never touches the record index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FanoutEdge {
    /// The consuming combinational gate.
    pub gate: NetId,
    /// `Levelization::comb_pos(gate)`, baked into the edge: the consumer's
    /// record in the schedule-ordered CSR. A consumer always sits at a
    /// higher position than a combinational producer.
    pub pos: u32,
}

/// Level assignment for a circuit, plus a level-ordered gate schedule.
///
/// # Example
///
/// ```
/// use gatest_netlist::levelize::Levelization;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let c = gatest_netlist::benchmarks::iscas89("s27")?;
/// let lev = Levelization::new(&c);
/// for &gate in lev.schedule() {
///     if c.kind(gate).is_sequential() {
///         continue; // flip-flops latch between frames
///     }
///     for &src in c.fanin(gate) {
///         assert!(lev.level(src) < lev.level(gate));
///     }
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Levelization {
    levels: Vec<u32>,
    schedule: Vec<NetId>,
    max_level: u32,
    /// Combinational gates in schedule order (the schedule minus sources
    /// and flip-flops), stored structure-of-arrays with their kinds and a
    /// flat fan-in arena so the good-machine sweep is one contiguous pass.
    comb_gates: Vec<NetId>,
    comb_kinds: Vec<GateKind>,
    /// `comb_fanin_offsets[i]..[i+1]` indexes `comb_fanin_edges` for record
    /// `i`; edges are packed in schedule order, so a full sweep reads the
    /// arena front to back.
    comb_fanin_offsets: Vec<u32>,
    comb_fanin_edges: Vec<NetId>,
    /// Record index of each net in `comb_gates` (`u32::MAX` for sources and
    /// flip-flops), for event-driven random access into the fan-in arena.
    comb_index: Vec<u32>,
    /// Per-net combinational fanout CSR: consumers that are ordinary logic
    /// gates (flip-flop D pins are latched between frames, not scheduled),
    /// each carrying its precomputed schedule position.
    comb_fanout_offsets: Vec<u32>,
    comb_fanout_edges: Vec<FanoutEdge>,
}

impl Levelization {
    /// Computes levels for `circuit`.
    ///
    /// # Panics
    ///
    /// Panics if the circuit contains a combinational loop; [`Circuit`]
    /// construction already rejects those, so this cannot happen for circuits
    /// built through the public API.
    pub fn new(circuit: &Circuit) -> Self {
        let n = circuit.num_gates();
        let mut levels = vec![u32::MAX; n];
        let mut indegree = vec![0u32; n];
        let mut queue: Vec<NetId> = Vec::with_capacity(n);

        for id in circuit.net_ids() {
            let kind = circuit.kind(id);
            if kind.is_source() || kind.is_sequential() {
                levels[id.index()] = 0;
                queue.push(id);
            } else {
                indegree[id.index()] = circuit.fanin(id).len() as u32;
            }
        }

        let mut schedule: Vec<NetId> = Vec::with_capacity(n);
        let mut head = 0;
        while head < queue.len() {
            let id = queue[head];
            head += 1;
            schedule.push(id);
            for &out in circuit.fanout(id) {
                let oi = out.index();
                if circuit.kind(out).is_sequential() {
                    continue; // flip-flops latch between frames; not scheduled
                }
                indegree[oi] -= 1;
                let candidate = levels[id.index()] + 1;
                if levels[oi] == u32::MAX || candidate > levels[oi] {
                    // tentative max-of-fanins+1; final once indegree hits 0
                    levels[oi] = candidate.max(if levels[oi] == u32::MAX {
                        0
                    } else {
                        levels[oi]
                    });
                }
                if indegree[oi] == 0 {
                    queue.push(out);
                }
            }
        }

        // Flip-flops are *scheduled* at level 0 (their outputs are frame
        // state), but they were pushed before their D fanins were levelized;
        // they are not part of the combinational schedule after position 0.
        assert!(
            levels.iter().all(|&l| l != u32::MAX),
            "combinational loop survived circuit validation"
        );

        let max_level = levels.iter().copied().max().unwrap_or(0);

        // Schedule-order CSR over the combinational gates: the fan-in arena
        // is laid out in exactly the order the sweep visits records, and the
        // per-net fanout lists are pre-filtered to combinational consumers
        // with their schedule positions baked in.
        let mut comb_gates = Vec::new();
        let mut comb_kinds = Vec::new();
        let mut comb_fanin_offsets = Vec::with_capacity(n + 1);
        let mut comb_fanin_edges = Vec::new();
        let mut comb_index = vec![u32::MAX; n];
        comb_fanin_offsets.push(0u32);
        for &gate in &schedule {
            let kind = circuit.kind(gate);
            if !kind.is_combinational() {
                continue;
            }
            comb_index[gate.index()] = comb_gates.len() as u32;
            comb_gates.push(gate);
            comb_kinds.push(kind);
            comb_fanin_edges.extend_from_slice(circuit.fanin(gate));
            comb_fanin_offsets.push(comb_fanin_edges.len() as u32);
        }

        let mut comb_fanout_offsets = Vec::with_capacity(n + 1);
        let mut comb_fanout_edges = Vec::new();
        comb_fanout_offsets.push(0u32);
        for id in circuit.net_ids() {
            for &out in circuit.fanout(id) {
                if circuit.kind(out).is_combinational() {
                    comb_fanout_edges.push(FanoutEdge {
                        gate: out,
                        pos: comb_index[out.index()],
                    });
                }
            }
            comb_fanout_offsets.push(comb_fanout_edges.len() as u32);
        }

        Levelization {
            levels,
            schedule,
            max_level,
            comb_gates,
            comb_kinds,
            comb_fanin_offsets,
            comb_fanin_edges,
            comb_index,
            comb_fanout_offsets,
            comb_fanout_edges,
        }
    }

    /// The combinational level of net `id` (0 for PIs, constants, and FFs).
    #[inline]
    pub fn level(&self, id: NetId) -> u32 {
        self.levels[id.index()]
    }

    /// Gates in a valid evaluation order: every gate appears after all of its
    /// non-sequential fanins. Includes sources and flip-flops (at the front).
    pub fn schedule(&self) -> &[NetId] {
        &self.schedule
    }

    /// The largest combinational level (the circuit's combinational depth).
    pub fn max_level(&self) -> u32 {
        self.max_level
    }

    /// Number of combinational-gate records in the schedule-order CSR.
    #[inline]
    pub fn comb_len(&self) -> usize {
        self.comb_gates.len()
    }

    /// The combinational gates in schedule order (the schedule with sources
    /// and flip-flops removed).
    #[inline]
    pub fn comb_gates(&self) -> &[NetId] {
        &self.comb_gates
    }

    /// CSR record `i`: the gate, its kind, and its fan-in slice from the
    /// schedule-ordered arena. A sweep over `0..comb_len()` visits gates in
    /// exactly the order of [`schedule`](Levelization::schedule) restricted
    /// to combinational gates, reading the arena contiguously.
    #[inline]
    pub fn comb_record(&self, i: usize) -> (NetId, GateKind, &[NetId]) {
        let lo = self.comb_fanin_offsets[i] as usize;
        let hi = self.comb_fanin_offsets[i + 1] as usize;
        (
            self.comb_gates[i],
            self.comb_kinds[i],
            &self.comb_fanin_edges[lo..hi],
        )
    }

    /// Iterates the CSR records in schedule order.
    pub fn comb_records(&self) -> impl Iterator<Item = (NetId, GateKind, &[NetId])> + '_ {
        (0..self.comb_len()).map(move |i| self.comb_record(i))
    }

    /// Fan-in slice of combinational gate `gate` from the CSR arena, for
    /// event-driven (random-access) evaluation.
    ///
    /// # Panics
    ///
    /// Panics if `gate` is not a combinational gate.
    #[inline]
    pub fn comb_fanin(&self, gate: NetId) -> &[NetId] {
        let i = self.comb_index[gate.index()] as usize;
        let lo = self.comb_fanin_offsets[i] as usize;
        let hi = self.comb_fanin_offsets[i + 1] as usize;
        &self.comb_fanin_edges[lo..hi]
    }

    /// Kind of combinational gate `gate` from the CSR record.
    ///
    /// # Panics
    ///
    /// Panics if `gate` is not a combinational gate.
    #[inline]
    pub fn comb_kind(&self, gate: NetId) -> GateKind {
        self.comb_kinds[self.comb_pos(gate)]
    }

    /// The CSR record index of combinational gate `gate`: its position in
    /// [`comb_gates`](Levelization::comb_gates). Positions follow the
    /// schedule, so every combinational gate sits after all of its
    /// combinational fan-ins.
    ///
    /// # Panics
    ///
    /// Panics if `gate` is not a combinational gate.
    #[inline]
    pub fn comb_pos(&self, gate: NetId) -> usize {
        let pos = self.comb_index[gate.index()];
        assert!(pos != u32::MAX, "{gate} is not a combinational gate");
        pos as usize
    }

    /// The combinational consumers of `net`, each with its precomputed
    /// schedule position — flip-flop D pins are filtered out at build time,
    /// so event scheduling needs neither a kind check nor an index lookup
    /// per edge.
    /// Edge order matches [`Circuit::fanout`] restricted to combinational
    /// consumers, so traversal order (and therefore every event-driven
    /// result) is unchanged from the pointer-chasing layout.
    #[inline]
    pub fn comb_fanout(&self, net: NetId) -> &[FanoutEdge] {
        let lo = self.comb_fanout_offsets[net.index()] as usize;
        let hi = self.comb_fanout_offsets[net.index() + 1] as usize;
        &self.comb_fanout_edges[lo..hi]
    }

    /// Total bytes of the schedule-order CSR (both arenas, offsets, and the
    /// record index) — the working-set cost of the layout, surfaced through
    /// the `csr_bytes` telemetry counter.
    pub fn csr_bytes(&self) -> u64 {
        (self.comb_gates.len() * std::mem::size_of::<NetId>()
            + self.comb_kinds.len() * std::mem::size_of::<GateKind>()
            + self.comb_fanin_offsets.len() * 4
            + self.comb_fanin_edges.len() * std::mem::size_of::<NetId>()
            + self.comb_index.len() * 4
            + self.comb_fanout_offsets.len() * 4
            + self.comb_fanout_edges.len() * std::mem::size_of::<FanoutEdge>()) as u64
    }

    /// Gates grouped by level, for wavefront-style evaluation.
    pub fn by_level(&self) -> Vec<Vec<NetId>> {
        let mut buckets = vec![Vec::new(); self.max_level as usize + 1];
        for (i, &lvl) in self.levels.iter().enumerate() {
            buckets[lvl as usize].push(NetId::new(i));
        }
        buckets
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CircuitBuilder;
    use crate::gate::GateKind;

    fn chain() -> Circuit {
        let mut b = CircuitBuilder::new("chain");
        let a = b.input("a");
        let g1 = b.gate(GateKind::Not, "g1", &[a]);
        let g2 = b.gate(GateKind::Not, "g2", &[g1]);
        let g3 = b.gate(GateKind::Not, "g3", &[g2]);
        b.output(g3);
        b.finish().unwrap()
    }

    #[test]
    fn chain_levels_increase() {
        let c = chain();
        let lev = Levelization::new(&c);
        assert_eq!(lev.level(c.find_net("a").unwrap()), 0);
        assert_eq!(lev.level(c.find_net("g1").unwrap()), 1);
        assert_eq!(lev.level(c.find_net("g2").unwrap()), 2);
        assert_eq!(lev.level(c.find_net("g3").unwrap()), 3);
        assert_eq!(lev.max_level(), 3);
    }

    #[test]
    fn dff_outputs_are_level_zero() {
        let mut b = CircuitBuilder::new("seq");
        let a = b.input("a");
        let q = b.forward_ref("q");
        let g = b.gate(GateKind::And, "g", &[a, q]);
        b.gate(GateKind::Dff, "q", &[g]);
        b.output(g);
        let c = b.finish().unwrap();
        let lev = Levelization::new(&c);
        assert_eq!(lev.level(c.find_net("q").unwrap()), 0);
        assert_eq!(lev.level(c.find_net("g").unwrap()), 1);
    }

    #[test]
    fn schedule_respects_dependencies() {
        let c = chain();
        let lev = Levelization::new(&c);
        let pos: std::collections::HashMap<_, _> = lev
            .schedule()
            .iter()
            .enumerate()
            .map(|(i, &g)| (g, i))
            .collect();
        for id in c.net_ids() {
            if c.kind(id).is_sequential() {
                continue;
            }
            for &src in c.fanin(id) {
                assert!(pos[&src] < pos[&id], "{src} must precede {id}");
            }
        }
        assert_eq!(lev.schedule().len(), c.num_gates());
    }

    #[test]
    fn level_is_max_of_fanins_plus_one() {
        // Diamond: level of reconvergence gate is max branch + 1.
        let mut b = CircuitBuilder::new("diamond");
        let a = b.input("a");
        let short = b.gate(GateKind::Buf, "short", &[a]);
        let l1 = b.gate(GateKind::Not, "l1", &[a]);
        let l2 = b.gate(GateKind::Not, "l2", &[l1]);
        let top = b.gate(GateKind::And, "top", &[short, l2]);
        b.output(top);
        let c = b.finish().unwrap();
        let lev = Levelization::new(&c);
        assert_eq!(lev.level(c.find_net("top").unwrap()), 3);
    }

    #[test]
    fn by_level_partitions_all_gates() {
        let c = chain();
        let lev = Levelization::new(&c);
        let total: usize = lev.by_level().iter().map(Vec::len).sum();
        assert_eq!(total, c.num_gates());
    }

    #[test]
    fn s27_levelizes() {
        let c = crate::benchmarks::iscas89("s27").unwrap();
        let lev = Levelization::new(&c);
        assert!(lev.max_level() >= 2);
        assert_eq!(lev.schedule().len(), c.num_gates());
    }

    /// The CSR sweep must visit gates in exactly the order of the levelized
    /// schedule restricted to combinational gates, with identical kinds and
    /// fan-in slices — the bit-identity foundation for every CSR consumer.
    fn assert_csr_matches_schedule(c: &Circuit) {
        let lev = Levelization::new(c);
        let expected: Vec<NetId> = lev
            .schedule()
            .iter()
            .copied()
            .filter(|&g| c.kind(g).is_combinational())
            .collect();
        assert_eq!(lev.comb_gates(), expected.as_slice(), "traversal order");
        assert_eq!(lev.comb_len(), expected.len());
        for (i, (gate, kind, fanin)) in lev.comb_records().enumerate() {
            assert_eq!(gate, expected[i]);
            assert_eq!(kind, c.kind(gate));
            assert_eq!(fanin, c.fanin(gate), "fan-in slice of {gate}");
            assert_eq!(lev.comb_fanin(gate), c.fanin(gate));
            assert_eq!(lev.comb_kind(gate), c.kind(gate));
        }
        for id in c.net_ids() {
            let expected_fanout: Vec<NetId> = c
                .fanout(id)
                .iter()
                .copied()
                .filter(|&g| c.kind(g).is_combinational())
                .collect();
            let edges = lev.comb_fanout(id);
            assert_eq!(
                edges.iter().map(|e| e.gate).collect::<Vec<_>>(),
                expected_fanout,
                "comb fanout of {id}"
            );
            for e in edges {
                assert_eq!(
                    e.pos as usize,
                    lev.comb_pos(e.gate),
                    "baked position of {}",
                    e.gate
                );
                assert_eq!(lev.comb_gates()[e.pos as usize], e.gate);
                if c.kind(id).is_combinational() {
                    assert!(
                        e.pos as usize > lev.comb_pos(id),
                        "{} sits after {id}",
                        e.gate
                    );
                }
            }
        }
        assert!(lev.csr_bytes() > 0);
    }

    #[test]
    fn csr_traversal_matches_schedule_on_benchmarks() {
        for name in ["s27", "s298", "s1423"] {
            assert_csr_matches_schedule(&crate::benchmarks::iscas89(name).unwrap());
        }
    }

    #[test]
    fn csr_traversal_matches_schedule_on_synthetic_circuits() {
        for seed in 0..8u64 {
            let profile = crate::generate::CircuitProfile {
                name: format!("csr-prop-{seed}"),
                inputs: 6 + (seed as usize % 5),
                outputs: 4,
                dffs: 5 + (seed as usize % 7),
                gates: 120 + 40 * seed as usize,
                seq_depth: 3 + (seed as u32 % 3),
            };
            let c = crate::generate::SyntheticGenerator::new(seed).generate(&profile);
            assert_csr_matches_schedule(&c);
        }
    }
}
