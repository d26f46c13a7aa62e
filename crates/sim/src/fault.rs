//! Fault lists: the stuck-at universe with equivalence collapsing, and the
//! transition-fault list. A [`FaultList`] names its [`FaultModel`]; every
//! fault is a site plus the value forced there.
//!
//! Faults live either on a net's *stem* (the gate output itself) or on a
//! *branch* (one fanout connection of a net that drives several gates).
//! Branch faults are only distinct from the stem fault when the driving net
//! has fanout greater than one, so the universe contains branch faults only
//! for such pins.
//!
//! A transition (gross-delay) fault delays one edge of a net by a clock: a
//! slow-to-rise fault on net *n* is a stuck-at-0 forced on *n*'s stem in
//! exactly the frames where the good machine launches the rising edge
//! (`good[t-1] = 0`, `good[t] = 1`), a slow-to-fall fault a stuck-at-1 in
//! the frames that launch the falling edge. Once its effect reaches a
//! flip-flop it propagates like any other fault, so one simulator serves
//! both models.
//!
//! Equivalence collapsing merges faults that no test can distinguish:
//!
//! * a controlling value stuck at a gate input ≡ the controlled value stuck
//!   at its output (`AND` input SA0 ≡ output SA0, `NAND` input SA0 ≡ output
//!   SA1, `OR` input SA1 ≡ output SA1, `NOR` input SA1 ≡ output SA0);
//! * for `NOT`/`BUF`/`DFF`, both input faults merge with the corresponding
//!   (possibly inverted) output faults.

use std::fmt;

use gatest_netlist::{Circuit, GateKind, NetId};

use crate::eval::{controlled_output, controlling_value};
use crate::value::Logic;

/// Where a stuck-at fault sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// On the net itself (the driving gate's output).
    Stem(NetId),
    /// On one fanin connection: pin `pin` of gate `gate`.
    Branch {
        /// The gate whose input is faulty.
        gate: NetId,
        /// The 0-based fanin pin index.
        pin: u16,
    },
}

/// A single fault: a site and the value forced there. Under
/// [`FaultModel::Transition`] the value is forced only in launch frames:
/// `Zero` is slow-to-rise, `One` slow-to-fall.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fault {
    /// Fault location.
    pub site: FaultSite,
    /// Stuck value; always `Zero` or `One`, never `X`.
    pub stuck: Logic,
}

/// How the faults of a [`FaultList`] act on their sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultModel {
    /// The site holds its stuck value in every frame.
    StuckAt,
    /// The site (always a stem) holds its old value in each frame whose
    /// good machine launches the slow edge, and is fault-free otherwise.
    Transition,
}

impl Fault {
    /// The net whose *value* the fault corrupts: the stem net, or the gate
    /// whose input pin is forced for a branch fault.
    pub fn anchor(&self) -> NetId {
        match self.site {
            FaultSite::Stem(net) => net,
            FaultSite::Branch { gate, .. } => gate,
        }
    }

    /// Renders the stuck-at fault using circuit net names, e.g. `G11/SA0`
    /// or `G8.in1/SA1` ([`FaultList::display`] renders under the list's
    /// model).
    pub fn display<'a>(&'a self, circuit: &'a Circuit) -> impl fmt::Display + 'a {
        self.display_as(FaultModel::StuckAt, circuit)
    }

    fn display_as<'a>(&self, model: FaultModel, circuit: &'a Circuit) -> impl fmt::Display + 'a {
        struct D<'a>(Fault, FaultModel, &'a Circuit);
        impl fmt::Display for D<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                let kind = match (self.1, self.0.stuck) {
                    (FaultModel::StuckAt, Logic::Zero) => "SA0",
                    (FaultModel::StuckAt, Logic::One) => "SA1",
                    (FaultModel::StuckAt, Logic::X) => "SA?",
                    (FaultModel::Transition, Logic::Zero) => "STR",
                    (FaultModel::Transition, Logic::One) => "STF",
                    (FaultModel::Transition, Logic::X) => "ST?",
                };
                match self.0.site {
                    FaultSite::Stem(net) => write!(f, "{}/{kind}", self.2.net_name(net)),
                    FaultSite::Branch { gate, pin } => {
                        write!(f, "{}.in{pin}/{kind}", self.2.net_name(gate))
                    }
                }
            }
        }
        D(*self, model, circuit)
    }
}

/// Dense index of a fault within a [`FaultList`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FaultId(pub u32);

impl FaultId {
    /// The dense index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Lifecycle of a fault during test generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultStatus {
    /// Not yet detected.
    #[default]
    Undetected,
    /// Detected by the test vector with the given 0-based index.
    Detected {
        /// Index of the detecting vector in the test set.
        vector: u32,
    },
}

/// An ordered list of faults targeted by simulation or test generation,
/// under one [`FaultModel`].
#[derive(Debug, Clone)]
pub struct FaultList {
    faults: Vec<Fault>,
    universe: usize,
    model: FaultModel,
}

impl FaultList {
    fn stuck_at(faults: Vec<Fault>, universe: usize) -> Self {
        FaultList {
            faults,
            universe,
            model: FaultModel::StuckAt,
        }
    }

    /// The full (uncollapsed) stuck-at universe of `circuit`: both polarities
    /// on every stem, plus both polarities on every fanout branch.
    pub fn full(circuit: &Circuit) -> Self {
        let faults = universe(circuit);
        let universe = faults.len();
        Self::stuck_at(faults, universe)
    }

    /// The transition-fault list of `circuit`: a slow-to-rise and a
    /// slow-to-fall fault on every net's stem, net-major, rise first. Each
    /// is the stem's stuck-at fault at the edge's old value (see the
    /// module docs), so the list is uncollapsed and is its own universe.
    ///
    /// # Example
    ///
    /// ```
    /// use gatest_sim::{FaultId, FaultList};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let c = gatest_netlist::benchmarks::iscas89("s27")?;
    /// let faults = FaultList::transition(&c);
    /// assert_eq!(faults.len(), 2 * c.num_gates());
    /// assert_eq!(faults.display(FaultId(0), &c).to_string(), "G0/STR");
    /// # Ok(())
    /// # }
    /// ```
    pub fn transition(circuit: &Circuit) -> Self {
        let faults: Vec<Fault> = stem_faults(circuit).collect();
        FaultList {
            universe: faults.len(),
            faults,
            model: FaultModel::Transition,
        }
    }

    /// The equivalence-collapsed fault list of `circuit` (one representative
    /// per equivalence class, stems preferred).
    ///
    /// # Example
    ///
    /// ```
    /// use gatest_sim::FaultList;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let c = gatest_netlist::benchmarks::iscas89("s27")?;
    /// let faults = FaultList::collapsed(&c);
    /// assert!(faults.len() < FaultList::full(&c).len());
    /// # Ok(())
    /// # }
    /// ```
    pub fn collapsed(circuit: &Circuit) -> Self {
        let all = universe(circuit);
        let mut uf = UnionFind::new(all.len());

        // Universe indices are arithmetic (see `universe`): the stem fault
        // `net/SA v` sits at `2·net + v`, and branch faults follow, two per
        // multi-fanout pin in (gate, pin) order — the order this loop
        // visits pins in, so a running cursor tracks each branch's index.
        let stuck_at = |v: Logic| usize::from(v == Logic::One);
        let mut next_branch = 2 * circuit.num_gates();
        for gate in circuit.net_ids() {
            let kind = circuit.kind(gate);
            let controlled;
            let merges: &[(Logic, Logic)] = match kind {
                GateKind::Buf | GateKind::Dff => {
                    &[(Logic::Zero, Logic::Zero), (Logic::One, Logic::One)]
                }
                GateKind::Not => &[(Logic::Zero, Logic::One), (Logic::One, Logic::Zero)],
                _ => match (controlling_value(kind), controlled_output(kind)) {
                    (Some(cv), Some(co)) => {
                        controlled = [(cv, co)];
                        &controlled
                    }
                    _ => &[],
                },
            };
            for &driver in circuit.fanin(gate) {
                let input_base = if circuit.fanout(driver).len() == 1 {
                    2 * driver.index()
                } else {
                    next_branch += 2;
                    next_branch - 2
                };
                for &(in_val, out_val) in merges {
                    uf.union(
                        input_base + stuck_at(in_val),
                        2 * gate.index() + stuck_at(out_val),
                    );
                }
            }
        }
        debug_assert_eq!(next_branch, all.len());

        // One representative per class; prefer stem faults (cheapest to
        // inject), break ties by universe order for determinism.
        let mut rep: Vec<Option<usize>> = vec![None; all.len()];
        for (i, fault) in all.iter().enumerate() {
            let root = uf.find(i);
            let better = match rep[root] {
                None => true,
                Some(cur) => {
                    let cur_stem = matches!(all[cur].site, FaultSite::Stem(_));
                    let new_stem = matches!(fault.site, FaultSite::Stem(_));
                    new_stem && !cur_stem
                }
            };
            if better {
                rep[root] = Some(i);
            }
        }
        let mut chosen: Vec<usize> = rep.into_iter().flatten().collect();
        chosen.sort_unstable();
        let faults: Vec<Fault> = chosen.into_iter().map(|i| all[i]).collect();
        Self::stuck_at(faults, all.len())
    }

    /// The dominance-collapsed fault list: equivalence collapsing plus the
    /// classic dominance rule — for a gate with a controlling value, the
    /// output fault at the *non*-controlled value is dominated by each
    /// input fault at the non-controlling value (any test for the input
    /// fault also detects the output fault), so its class is dropped from
    /// the target list. `AND y`: `y/SA1` is dominated by `a/SA1`;
    /// `NAND`: `y/SA0`; `OR`: `y/SA0`; `NOR`: `y/SA1`.
    ///
    /// Dominance reasoning is exact for combinational propagation
    /// environments (e.g. full-scan circuits); for sequential circuits use
    /// it to shrink the *generation* target list and grade final coverage
    /// against [`FaultList::collapsed`].
    ///
    /// # Example
    ///
    /// ```
    /// use gatest_sim::FaultList;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let c = gatest_netlist::benchmarks::iscas89("s27")?;
    /// let dom = FaultList::dominance_collapsed(&c);
    /// assert!(dom.len() < FaultList::collapsed(&c).len());
    /// # Ok(())
    /// # }
    /// ```
    pub fn dominance_collapsed(circuit: &Circuit) -> Self {
        let collapsed = Self::collapsed(circuit);
        // Identify dominated stem faults: (gate, !controlled_output) for
        // controlling-value gates with at least two inputs.
        let mut dominated: std::collections::HashSet<Fault> = std::collections::HashSet::new();
        for gate in circuit.net_ids() {
            let kind = circuit.kind(gate);
            if circuit.fanin(gate).len() < 2 {
                continue;
            }
            if let Some(co) = controlled_output(kind) {
                dominated.insert(Fault {
                    site: FaultSite::Stem(gate),
                    stuck: !co,
                });
            }
        }
        let faults: Vec<Fault> = collapsed
            .faults
            .into_iter()
            .filter(|f| !dominated.contains(f))
            .collect();
        Self::stuck_at(faults, collapsed.universe)
    }

    /// The fault model the list's faults follow.
    pub fn model(&self) -> FaultModel {
        self.model
    }

    /// Number of faults in the list.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Returns `true` if the list is empty.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Size of the uncollapsed universe this list was derived from.
    pub fn universe_size(&self) -> usize {
        self.universe
    }

    /// The fault with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn get(&self, id: FaultId) -> Fault {
        self.faults[id.index()]
    }

    /// Renders fault `id` with circuit net names under the list's model:
    /// `G11/SA0` or `G8.in1/SA1` for stuck-at faults, `G11/STR`
    /// (slow-to-rise) or `G11/STF` (slow-to-fall) for transition faults.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn display<'a>(&self, id: FaultId, circuit: &'a Circuit) -> impl fmt::Display + 'a {
        self.get(id).display_as(self.model, circuit)
    }

    /// Iterates over `(FaultId, Fault)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (FaultId, Fault)> + '_ {
        self.faults
            .iter()
            .enumerate()
            .map(|(i, &f)| (FaultId(i as u32), f))
    }
}

/// Both stem faults of every net, net-major, `Zero` first.
fn stem_faults(circuit: &Circuit) -> impl Iterator<Item = Fault> + '_ {
    circuit.net_ids().flat_map(|net| {
        [Logic::Zero, Logic::One].map(|stuck| Fault {
            site: FaultSite::Stem(net),
            stuck,
        })
    })
}

/// Enumerates the uncollapsed fault universe in deterministic order.
fn universe(circuit: &Circuit) -> Vec<Fault> {
    let mut out: Vec<Fault> = stem_faults(circuit).collect();
    for gate in circuit.net_ids() {
        for (pin, &driver) in circuit.fanin(gate).iter().enumerate() {
            if circuit.fanout(driver).len() > 1 {
                for stuck in [Logic::Zero, Logic::One] {
                    out.push(Fault {
                        site: FaultSite::Branch {
                            gate,
                            pin: pin as u16,
                        },
                        stuck,
                    });
                }
            }
        }
    }
    out
}

struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            self.parent[ra.max(rb)] = ra.min(rb);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gatest_netlist::CircuitBuilder;

    fn s27() -> Circuit {
        gatest_netlist::benchmarks::iscas89("s27").unwrap()
    }

    #[test]
    fn universe_counts_stems_and_branches() {
        let c = s27();
        let full = FaultList::full(&c);
        // 17 nets -> 34 stem faults; 9 fanout branch pins -> 18 branch faults.
        assert_eq!(full.len(), 52);
        assert_eq!(full.universe_size(), 52);
    }

    /// The collapsing rule as first written: universe indices looked up in
    /// a hash map instead of computed.
    fn hash_indexed_collapse(circuit: &Circuit) -> Vec<Fault> {
        let all = universe(circuit);
        let index: std::collections::HashMap<Fault, usize> =
            all.iter().enumerate().map(|(i, &f)| (f, i)).collect();
        let mut uf = UnionFind::new(all.len());
        for gate in circuit.net_ids() {
            let kind = circuit.kind(gate);
            let merges: Vec<(Logic, Logic)> = match kind {
                GateKind::Buf | GateKind::Dff => {
                    vec![(Logic::Zero, Logic::Zero), (Logic::One, Logic::One)]
                }
                GateKind::Not => vec![(Logic::Zero, Logic::One), (Logic::One, Logic::Zero)],
                _ => match (controlling_value(kind), controlled_output(kind)) {
                    (Some(cv), Some(co)) => vec![(cv, co)],
                    _ => vec![],
                },
            };
            for (pin, &driver) in circuit.fanin(gate).iter().enumerate() {
                for &(in_val, out_val) in &merges {
                    let site = if circuit.fanout(driver).len() == 1 {
                        FaultSite::Stem(driver)
                    } else {
                        FaultSite::Branch {
                            gate,
                            pin: pin as u16,
                        }
                    };
                    let input = Fault {
                        site,
                        stuck: in_val,
                    };
                    let output = Fault {
                        site: FaultSite::Stem(gate),
                        stuck: out_val,
                    };
                    uf.union(index[&input], index[&output]);
                }
            }
        }
        let mut rep: Vec<Option<usize>> = vec![None; all.len()];
        for (i, fault) in all.iter().enumerate() {
            let root = uf.find(i);
            let better = match rep[root] {
                None => true,
                Some(cur) => {
                    matches!(fault.site, FaultSite::Stem(_))
                        && !matches!(all[cur].site, FaultSite::Stem(_))
                }
            };
            if better {
                rep[root] = Some(i);
            }
        }
        let mut chosen: Vec<usize> = rep.into_iter().flatten().collect();
        chosen.sort_unstable();
        chosen.into_iter().map(|i| all[i]).collect()
    }

    #[test]
    fn collapsing_matches_a_hash_indexed_reference_on_every_suite_circuit() {
        for name in gatest_netlist::benchmarks::suite_names() {
            let c = gatest_netlist::benchmarks::iscas89(name).unwrap();
            let collapsed = FaultList::collapsed(&c);
            let faults: Vec<Fault> = collapsed.iter().map(|(_, f)| f).collect();
            assert_eq!(faults, hash_indexed_collapse(&c), "{name}");
            assert_eq!(collapsed.universe_size(), universe(&c).len(), "{name}");
        }
    }

    #[test]
    fn collapsing_reduces_s27() {
        let c = s27();
        let collapsed = FaultList::collapsed(&c);
        // Hand-derived class count for our merge rules (see module docs):
        // 52 universe faults, 26 effective unions -> 26 classes.
        assert_eq!(collapsed.len(), 26);
    }

    #[test]
    fn collapsed_representatives_prefer_stems() {
        let c = s27();
        let collapsed = FaultList::collapsed(&c);
        let stems = collapsed
            .iter()
            .filter(|(_, f)| matches!(f.site, FaultSite::Stem(_)))
            .count();
        // Every class containing a stem fault is represented by one.
        assert!(stems * 2 > collapsed.len(), "mostly stem representatives");
    }

    #[test]
    fn inverter_chain_collapses_to_two_classes() {
        let mut b = CircuitBuilder::new("invchain");
        let a = b.input("a");
        let n1 = b.gate(GateKind::Not, "n1", &[a]);
        let n2 = b.gate(GateKind::Not, "n2", &[n1]);
        b.output(n2);
        let c = b.finish().unwrap();
        // 3 nets * 2 = 6 stem faults, no branches; the chain merges them into
        // 2 classes (one per polarity at the input).
        let collapsed = FaultList::collapsed(&c);
        assert_eq!(collapsed.len(), 2);
    }

    #[test]
    fn xor_does_not_collapse() {
        let mut b = CircuitBuilder::new("xor");
        let a = b.input("a");
        let x = b.input("x");
        let g = b.gate(GateKind::Xor, "g", &[a, x]);
        b.output(g);
        let c = b.finish().unwrap();
        let collapsed = FaultList::collapsed(&c);
        assert_eq!(collapsed.len(), FaultList::full(&c).len());
    }

    #[test]
    fn and_gate_collapse_matches_theory() {
        // AND(a,b)=y: a/SA0 = b/SA0 = y/SA0 -> classes:
        // {a0,b0,y0}, {a1}, {b1}, {y1} = 4.
        let mut b = CircuitBuilder::new("and");
        let a = b.input("a");
        let x = b.input("b");
        let g = b.gate(GateKind::And, "y", &[a, x]);
        b.output(g);
        let c = b.finish().unwrap();
        assert_eq!(FaultList::collapsed(&c).len(), 4);
    }

    #[test]
    fn dominance_drops_and_gate_output_sa1() {
        // AND(a,b)=y: equivalence leaves {a0,b0,y0}, {a1}, {b1}, {y1};
        // dominance drops {y1}.
        let mut b = CircuitBuilder::new("and");
        let a = b.input("a");
        let x = b.input("b");
        let g = b.gate(GateKind::And, "y", &[a, x]);
        b.output(g);
        let c = b.finish().unwrap();
        let dom = FaultList::dominance_collapsed(&c);
        assert_eq!(dom.len(), 3);
        assert!(!dom.iter().any(|(_, f)| {
            f.site == FaultSite::Stem(c.find_net("y").unwrap()) && f.stuck == Logic::One
        }));
    }

    #[test]
    fn dominance_is_a_subset_of_equivalence() {
        for name in ["s27", "s298", "s386"] {
            let c = gatest_netlist::benchmarks::iscas89(name).unwrap();
            let eq = FaultList::collapsed(&c);
            let dom = FaultList::dominance_collapsed(&c);
            assert!(dom.len() < eq.len(), "{name}");
            let eq_set: std::collections::HashSet<_> = eq.iter().map(|(_, f)| f).collect();
            for (_, f) in dom.iter() {
                assert!(eq_set.contains(&f), "{name}: {f:?} not in equivalence list");
            }
        }
    }

    #[test]
    fn dominance_preserves_full_coverage_on_scan_circuits() {
        // On a combinational (scanned) circuit, a pattern set detecting
        // every dominance-list fault also detects every equivalence-list
        // fault — the dominance theorem, checked empirically.
        use crate::fsim::FaultSim;
        use std::sync::Arc;
        let seq = gatest_netlist::benchmarks::iscas89("s27").unwrap();
        let comb = Arc::new(gatest_netlist::scan::full_scan(&seq).circuit().clone());

        let mut rng = crate::tests_support::Rng::new(9);
        let patterns: Vec<Vec<Logic>> = (0..256)
            .map(|_| {
                (0..comb.num_inputs())
                    .map(|_| Logic::from_bool(rng.coin()))
                    .collect()
            })
            .collect();

        let mut dom_sim =
            FaultSim::with_faults(Arc::clone(&comb), FaultList::dominance_collapsed(&comb));
        let mut eq_sim = FaultSim::with_faults(Arc::clone(&comb), FaultList::collapsed(&comb));
        let mut dom_done_at = None;
        for (i, p) in patterns.iter().enumerate() {
            dom_sim.step(p);
            eq_sim.step(p);
            if dom_done_at.is_none() && dom_sim.remaining() == 0 {
                dom_done_at = Some(i);
            }
        }
        if dom_sim.remaining() == 0 {
            // Any remaining equivalence-list faults would contradict
            // dominance (allow combinationally-redundant leftovers, which
            // neither list can detect).
            for &id in eq_sim.active_faults() {
                let f = eq_sim.fault_list().get(id);
                // The fault must be undetectable, not merely missed:
                // spot-check by confirming the dominance run also never saw
                // its class (it wasn't in the dominance list at all).
                let in_dom = dom_sim.fault_list().iter().any(|(_, g)| g == f);
                assert!(!in_dom, "fault {f:?} was targeted but not detected");
            }
        }
    }

    #[test]
    fn fault_ids_are_dense_and_ordered() {
        let c = s27();
        let list = FaultList::collapsed(&c);
        for (i, (id, _)) in list.iter().enumerate() {
            assert_eq!(id.index(), i);
        }
    }

    #[test]
    fn transition_list_is_net_major_rise_first() {
        let c = s27();
        let list = FaultList::transition(&c);
        assert_eq!(list.model(), FaultModel::Transition);
        assert_eq!(list.len(), c.num_gates() * 2);
        assert_eq!(list.universe_size(), list.len());
        for (id, fault) in list.iter() {
            let net = c.net_ids().nth(id.index() / 2).unwrap();
            assert_eq!(fault.site, FaultSite::Stem(net));
            let (stuck, name) = if id.index() % 2 == 0 {
                (Logic::Zero, "STR")
            } else {
                (Logic::One, "STF")
            };
            assert_eq!(fault.stuck, stuck);
            let shown = format!("{}/{name}", c.net_name(net));
            assert_eq!(list.display(id, &c).to_string(), shown);
        }
        let stuck_at = FaultList::full(&c);
        assert_eq!(stuck_at.model(), FaultModel::StuckAt);
        assert_eq!(stuck_at.display(FaultId(0), &c).to_string(), "G0/SA0");
    }

    #[test]
    fn display_uses_net_names() {
        let c = s27();
        let f = Fault {
            site: FaultSite::Stem(c.find_net("G11").unwrap()),
            stuck: Logic::Zero,
        };
        assert_eq!(f.display(&c).to_string(), "G11/SA0");
        let bf = Fault {
            site: FaultSite::Branch {
                gate: c.find_net("G8").unwrap(),
                pin: 1,
            },
            stuck: Logic::One,
        };
        assert_eq!(bf.display(&c).to_string(), "G8.in1/SA1");
    }

    #[test]
    fn anchor_points_to_affected_gate() {
        let c = s27();
        let g8 = c.find_net("G8").unwrap();
        let f = Fault {
            site: FaultSite::Branch { gate: g8, pin: 0 },
            stuck: Logic::Zero,
        };
        assert_eq!(f.anchor(), g8);
    }
}
