//! Single stuck-at fault model: fault universe and equivalence collapsing.
//!
//! Faults live either on a net's *stem* (the gate output itself) or on a
//! *branch* (one fanout connection of a net that drives several gates).
//! Branch faults are only distinct from the stem fault when the driving net
//! has fanout greater than one, so the universe contains branch faults only
//! for such pins.
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

/// A single stuck-at fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fault {
    /// Fault location.
    pub site: FaultSite,
    /// Stuck value; always `Zero` or `One`, never `X`.
    pub stuck: Logic,
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

    /// Renders the fault using circuit net names, e.g. `G11/SA0` or
    /// `G8.in1/SA1`.
    pub fn display<'a>(&'a self, circuit: &'a Circuit) -> impl fmt::Display + 'a {
        struct D<'a>(&'a Fault, &'a Circuit);
        impl fmt::Display for D<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                let sa = match self.0.stuck {
                    Logic::Zero => "SA0",
                    Logic::One => "SA1",
                    Logic::X => "SA?",
                };
                match self.0.site {
                    FaultSite::Stem(net) => write!(f, "{}/{sa}", self.1.net_name(net)),
                    FaultSite::Branch { gate, pin } => {
                        write!(f, "{}.in{pin}/{sa}", self.1.net_name(gate))
                    }
                }
            }
        }
        D(self, circuit)
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

/// An ordered list of faults targeted by simulation or test generation.
#[derive(Debug, Clone)]
pub struct FaultList {
    faults: Vec<Fault>,
    universe: usize,
}

impl FaultList {
    /// The full (uncollapsed) stuck-at universe of `circuit`: both polarities
    /// on every stem, plus both polarities on every fanout branch.
    pub fn full(circuit: &Circuit) -> Self {
        let faults = universe(circuit);
        let universe = faults.len();
        FaultList { faults, universe }
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
            if merges.is_empty() {
                continue;
            }
            for (pin, &driver) in circuit.fanin(gate).iter().enumerate() {
                for &(in_val, out_val) in &merges {
                    let input_fault = if circuit.fanout(driver).len() == 1 {
                        Fault {
                            site: FaultSite::Stem(driver),
                            stuck: in_val,
                        }
                    } else {
                        Fault {
                            site: FaultSite::Branch {
                                gate,
                                pin: pin as u16,
                            },
                            stuck: in_val,
                        }
                    };
                    let output_fault = Fault {
                        site: FaultSite::Stem(gate),
                        stuck: out_val,
                    };
                    uf.union(index[&input_fault], index[&output_fault]);
                }
            }
        }

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
        FaultList {
            faults,
            universe: all.len(),
        }
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
        FaultList {
            faults,
            universe: collapsed.universe,
        }
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

    /// Iterates over `(FaultId, Fault)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (FaultId, Fault)> + '_ {
        self.faults
            .iter()
            .enumerate()
            .map(|(i, &f)| (FaultId(i as u32), f))
    }
}

/// Enumerates the uncollapsed fault universe in deterministic order.
fn universe(circuit: &Circuit) -> Vec<Fault> {
    let mut out = Vec::new();
    for net in circuit.net_ids() {
        for stuck in [Logic::Zero, Logic::One] {
            out.push(Fault {
                site: FaultSite::Stem(net),
                stuck,
            });
        }
    }
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

        let mut rng = crate::transition::tests_support::Rng::new(9);
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
