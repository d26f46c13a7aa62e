//! PPSFP — parallel-pattern single-fault propagation for combinational
//! circuits (Waicukauski et al.), the classic dual of PROOFS:
//!
//! * PROOFS packs **one lane group of faults** against one pattern (what
//!   sequential circuits force on you, since patterns are order-dependent);
//! * PPSFP packs **one lane group of patterns** against one fault (what
//!   combinational — e.g. full-scan — circuits allow, since patterns are
//!   independent).
//!
//! The good machine is simulated once per pattern block (`P::LANES`
//! patterns wide — 64 for [`Pv64`], 256 for [`Pv256`] via
//! [`Ppsfp::grade_backend`]); each fault is then propagated event-driven
//! from its injection site through the block. Because the first detecting
//! pattern index is `block * P::LANES + lane` and lanes are filled in
//! pattern order, results are bit-identical across backends.
//!
//! Use this to grade test sets on [`full_scan`](gatest_netlist::scan)
//! circuits; apply [`FaultSim`](crate::fsim::FaultSim) for sequential ones.

use std::sync::Arc;

use gatest_netlist::levelize::{FanoutEdge, Levelization};
use gatest_netlist::{Circuit, GateKind, NetId};

use crate::eval::eval_packed;
use crate::fault::{FaultList, FaultSite};
use crate::value::{LaneMask, Logic, PackedValue, Pv256, Pv64, SimBackend};

/// Error for circuits PPSFP cannot handle (sequential ones).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SequentialCircuitError {
    /// Flip-flops in the offending circuit.
    pub flip_flops: usize,
}

impl std::fmt::Display for SequentialCircuitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "PPSFP handles combinational circuits only; this one has {} flip-flops \
             (scan it first, or use FaultSim)",
            self.flip_flops
        )
    }
}

impl std::error::Error for SequentialCircuitError {}

/// Result of grading a pattern set.
#[derive(Debug, Clone)]
pub struct PpsfpResult {
    /// Per-fault detection: index of the first detecting pattern, if any.
    pub first_detection: Vec<Option<u32>>,
    /// Number of detected faults.
    pub detected: usize,
    /// Total faults graded.
    pub total: usize,
}

impl PpsfpResult {
    /// Detected / total.
    pub fn coverage(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.detected as f64 / self.total as f64
        }
    }
}

/// The parallel-pattern fault grader.
#[derive(Debug)]
pub struct Ppsfp {
    circuit: Arc<Circuit>,
    lev: Levelization,
    faults: FaultList,
}

impl Ppsfp {
    /// Creates a grader over the collapsed fault list.
    ///
    /// # Errors
    ///
    /// Returns [`SequentialCircuitError`] if the circuit has flip-flops.
    pub fn new(circuit: Arc<Circuit>) -> Result<Self, SequentialCircuitError> {
        let faults = FaultList::collapsed(&circuit);
        Self::with_faults(circuit, faults)
    }

    /// Creates a grader over a caller-supplied fault list.
    ///
    /// # Errors
    ///
    /// Returns [`SequentialCircuitError`] if the circuit has flip-flops.
    pub fn with_faults(
        circuit: Arc<Circuit>,
        faults: FaultList,
    ) -> Result<Self, SequentialCircuitError> {
        if circuit.num_dffs() > 0 {
            return Err(SequentialCircuitError {
                flip_flops: circuit.num_dffs(),
            });
        }
        let lev = Levelization::new(&circuit);
        Ok(Ppsfp {
            circuit,
            lev,
            faults,
        })
    }

    /// The fault list being graded.
    pub fn fault_list(&self) -> &FaultList {
        &self.faults
    }

    /// Grades `patterns` (each one assignment of the primary inputs),
    /// 64 at a time ([`Pv64`] blocks), against every fault.
    ///
    /// # Panics
    ///
    /// Panics if any pattern's length differs from the input count.
    ///
    /// # Example
    ///
    /// ```
    /// use std::sync::Arc;
    /// use gatest_netlist::scan::full_scan;
    /// use gatest_sim::ppsfp::Ppsfp;
    /// use gatest_sim::Logic;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let seq = gatest_netlist::benchmarks::iscas89("s27")?;
    /// let comb = Arc::new(full_scan(&seq).circuit().clone());
    /// let grader = Ppsfp::new(Arc::clone(&comb))?;
    /// let patterns: Vec<Vec<Logic>> = (0..64)
    ///     .map(|i| (0..comb.num_inputs())
    ///         .map(|b| Logic::from_bool((i >> (b % 7)) & 1 == 1))
    ///         .collect())
    ///     .collect();
    /// let result = grader.grade(&patterns);
    /// assert!(result.coverage() > 0.5);
    /// # Ok(())
    /// # }
    /// ```
    pub fn grade(&self, patterns: &[Vec<Logic>]) -> PpsfpResult {
        self.grade_with::<Pv64>(patterns)
    }

    /// Like [`grade`](Ppsfp::grade), but packing 64 or 256 patterns per
    /// block, at the width [`SimBackend::for_lanes`] picks for
    /// `patterns.len()`. Results are bit-identical to `grade` for any
    /// backend — only throughput changes.
    pub fn grade_backend(&self, patterns: &[Vec<Logic>], backend: SimBackend) -> PpsfpResult {
        match backend.for_lanes(patterns.len()) {
            SimBackend::Scalar64 => self.grade_with::<Pv64>(patterns),
            _ => self.grade_with::<Pv256>(patterns),
        }
    }

    fn grade_with<P: PackedValue>(&self, patterns: &[Vec<Logic>]) -> PpsfpResult {
        let n = self.circuit.num_gates();
        let mut first_detection: Vec<Option<u32>> = vec![None; self.faults.len()];

        let mut good = vec![P::ALL_X; n];
        let mut fval = vec![P::ALL_X; n];
        let mut fstamp = vec![0u32; n];
        let mut stamp = 0u32;
        let mut queued = vec![0u32; n];
        let mut buckets: Vec<Vec<NetId>> = vec![Vec::new(); self.lev.max_level() as usize + 1];
        // Reusable gate-fanin buffer: fanin is small and bounded, so one
        // buffer serves both the good sweep and every faulty event pass
        // instead of a fresh `Vec<P>` per gate evaluation.
        let mut fanin: Vec<P> = Vec::new();

        // Constant gates are sources, not CSR records: pin them once (they
        // never change between blocks).
        for id in self.circuit.net_ids() {
            match self.circuit.kind(id) {
                GateKind::Const0 => good[id.index()] = P::ALL_ZERO,
                GateKind::Const1 => good[id.index()] = P::ALL_ONE,
                _ => {}
            }
        }

        for (block_idx, block) in patterns.chunks(P::LANES).enumerate() {
            // Good simulation of the whole block at once.
            for (i, &pi) in self.circuit.inputs().iter().enumerate() {
                let mut w = P::ALL_X;
                for (lane, pattern) in block.iter().enumerate() {
                    assert_eq!(
                        pattern.len(),
                        self.circuit.num_inputs(),
                        "pattern length must match the input count"
                    );
                    w.set_lane(lane, pattern[i]);
                }
                good[pi.index()] = w;
            }
            // Full sweep over the schedule-ordered CSR: gate id, kind, and
            // fan-in slice all come from one contiguous arena walk.
            for (gate, kind, fan) in self.lev.comb_records() {
                fanin.clear();
                fanin.extend(fan.iter().map(|&s| good[s.index()]));
                good[gate.index()] = eval_packed(kind, &fanin);
            }
            let block_mask = P::Mask::low(block.len());

            // One event-driven pass per still-undetected fault.
            for (fid, fault) in self.faults.iter() {
                if first_detection[fid.index()].is_some() {
                    continue;
                }
                stamp = stamp.wrapping_add(2);
                let forced = P::broadcast(fault.stuck);

                // Inject. Fanout edges carry their consumer's level baked
                // into the CSR, so scheduling never chases a level lookup.
                match fault.site {
                    FaultSite::Stem(net) => {
                        fval[net.index()] = forced;
                        fstamp[net.index()] = stamp;
                        if forced.any_diff(good[net.index()]).and(block_mask).any() {
                            for &FanoutEdge { gate, level } in self.lev.comb_fanout(net) {
                                schedule(&mut buckets, &mut queued, stamp, gate, level);
                            }
                        }
                    }
                    FaultSite::Branch { gate, .. } => {
                        schedule(&mut buckets, &mut queued, stamp, gate, self.lev.level(gate));
                    }
                }

                // Propagate.
                for level in 1..buckets.len() {
                    let mut gates = std::mem::take(&mut buckets[level]);
                    for &gate in &gates {
                        queued[gate.index()] = 0;
                        let kind = self.lev.comb_kind(gate);
                        fanin.clear();
                        for (pin, &s) in self.lev.comb_fanin(gate).iter().enumerate() {
                            let mut w = if fstamp[s.index()] == stamp {
                                fval[s.index()]
                            } else {
                                good[s.index()]
                            };
                            if let FaultSite::Branch { gate: fg, pin: fp } = fault.site {
                                if fg == gate && fp as usize == pin {
                                    w = forced;
                                }
                            }
                            fanin.push(w);
                        }
                        let mut out = eval_packed(kind, &fanin);
                        if fault.site == FaultSite::Stem(gate) {
                            out = forced;
                        }
                        let old = if fstamp[gate.index()] == stamp {
                            fval[gate.index()]
                        } else {
                            good[gate.index()]
                        };
                        if out != old {
                            fval[gate.index()] = out;
                            fstamp[gate.index()] = stamp;
                            for &FanoutEdge { gate: next, level } in self.lev.comb_fanout(gate) {
                                schedule(&mut buckets, &mut queued, stamp, next, level);
                            }
                        }
                    }
                    // Fanout is strictly higher-level, so the bucket did not
                    // grow while we iterated; return it with its capacity.
                    gates.clear();
                    buckets[level] = gates;
                }

                // Detect.
                let mut det = P::Mask::EMPTY;
                for &po in self.circuit.outputs() {
                    let f = if fstamp[po.index()] == stamp {
                        fval[po.index()]
                    } else {
                        good[po.index()]
                    };
                    det = det.or(f.binary_diff(good[po.index()]));
                }
                det = det.and(block_mask);
                if let Some(lane) = det.first() {
                    first_detection[fid.index()] = Some((block_idx * P::LANES + lane) as u32);
                }
            }
        }

        let detected = first_detection.iter().filter(|d| d.is_some()).count();
        PpsfpResult {
            detected,
            total: self.faults.len(),
            first_detection,
        }
    }
}

fn schedule(buckets: &mut [Vec<NetId>], queued: &mut [u32], stamp: u32, gate: NetId, level: u32) {
    if queued[gate.index()] != stamp {
        queued[gate.index()] = stamp;
        buckets[level as usize].push(gate);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gatest_netlist::scan::full_scan;

    fn scanned(name: &str) -> Arc<Circuit> {
        let seq = gatest_netlist::benchmarks::iscas89(name).unwrap();
        Arc::new(full_scan(&seq).circuit().clone())
    }

    fn random_patterns(pis: usize, count: usize, seed: u64) -> Vec<Vec<Logic>> {
        let mut rng = crate::tests_support::Rng::new(seed);
        (0..count)
            .map(|_| (0..pis).map(|_| Logic::from_bool(rng.coin())).collect())
            .collect()
    }

    #[test]
    fn rejects_sequential_circuits() {
        let seq = Arc::new(gatest_netlist::benchmarks::iscas89("s27").unwrap());
        assert!(Ppsfp::new(seq).is_err());
    }

    #[test]
    fn agrees_with_faultsim_on_scanned_s27() {
        // For a combinational circuit, FaultSim (64 faults × 1 pattern) and
        // PPSFP (1 fault × 64 patterns) must detect exactly the same fault
        // set under the same patterns.
        let comb = scanned("s27");
        let patterns = random_patterns(comb.num_inputs(), 96, 3);

        let grader = Ppsfp::new(Arc::clone(&comb)).unwrap();
        let result = grader.grade(&patterns);

        let mut reference = crate::fsim::FaultSim::new(Arc::clone(&comb));
        for p in &patterns {
            reference.step(p);
        }
        assert_eq!(result.detected, reference.detected_count());
        for (id, _) in grader.fault_list().iter() {
            let ppsfp_hit = result.first_detection[id.index()].is_some();
            let ref_hit = matches!(
                reference.status(id),
                crate::fault::FaultStatus::Detected { .. }
            );
            assert_eq!(ppsfp_hit, ref_hit, "fault {id:?}");
        }
    }

    #[test]
    fn first_detection_indices_agree_with_faultsim() {
        let comb = scanned("s27");
        let patterns = random_patterns(comb.num_inputs(), 80, 7);
        let grader = Ppsfp::new(Arc::clone(&comb)).unwrap();
        let result = grader.grade(&patterns);

        let mut reference = crate::fsim::FaultSim::new(Arc::clone(&comb));
        for p in &patterns {
            reference.step(p);
        }
        for (id, _) in grader.fault_list().iter() {
            if let crate::fault::FaultStatus::Detected { vector } = reference.status(id) {
                assert_eq!(
                    result.first_detection[id.index()],
                    Some(vector),
                    "fault {id:?}"
                );
            }
        }
    }

    #[test]
    fn partial_final_block_is_masked() {
        // 70 patterns = one full block + 6; slots 6..64 of the second block
        // must not produce phantom detections.
        let comb = scanned("s386");
        let patterns = random_patterns(comb.num_inputs(), 70, 11);
        let grader = Ppsfp::new(Arc::clone(&comb)).unwrap();
        let result = grader.grade(&patterns);
        for d in result.first_detection.iter().flatten() {
            assert!((*d as usize) < patterns.len());
        }
    }

    #[test]
    fn wide_blocks_give_identical_first_detections() {
        // 300 patterns: two partial Pv256 blocks vs five Pv64 blocks —
        // every fault's first detecting pattern index must agree exactly,
        // for every backend spelling (auto resolves to wide256).
        let comb = scanned("s386");
        let patterns = random_patterns(comb.num_inputs(), 300, 13);
        let grader = Ppsfp::new(Arc::clone(&comb)).unwrap();
        let narrow = grader.grade(&patterns);
        for backend in [SimBackend::Scalar64, SimBackend::Wide256, SimBackend::Auto] {
            let result = grader.grade_backend(&patterns, backend);
            assert_eq!(result.detected, narrow.detected, "{backend}");
            assert_eq!(
                result.first_detection, narrow.first_detection,
                "{backend} diverged from Pv64 blocks"
            );
        }
    }

    #[test]
    fn scanned_circuits_reach_high_coverage_fast() {
        let comb = scanned("s298");
        let patterns = random_patterns(comb.num_inputs(), 256, 5);
        let grader = Ppsfp::new(Arc::clone(&comb)).unwrap();
        let result = grader.grade(&patterns);
        assert!(
            result.coverage() > 0.85,
            "scan makes everything easy: {:.2}",
            result.coverage()
        );
    }
}
