//! Fault dictionaries and dictionary-based diagnosis.
//!
//! A *fault dictionary* records, for every fault a test set detects, the
//! first vector that catches it and the set of primary outputs where the
//! discrepancy appears — the fault's *syndrome*. Given the failing
//! `(vector, output)` observations from a defective part on a tester, the
//! dictionary ranks candidate faults by how well their syndromes match:
//! the classic use of a fault simulator beyond coverage grading.

use std::collections::BTreeSet;
use std::sync::Arc;

use gatest_netlist::Circuit;

use crate::fault::{FaultId, FaultList};
use crate::fsim::FaultSim;
use crate::value::Logic;

/// The first-detection syndrome of one fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Syndrome {
    /// 0-based index of the first detecting vector.
    pub vector: u32,
    /// Primary outputs (by index) showing a discrepancy at that vector.
    pub outputs: Vec<u16>,
}

/// A first-detection fault dictionary for one circuit and test set.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use gatest_sim::dictionary::FaultDictionary;
/// use gatest_sim::Logic;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let circuit = Arc::new(gatest_netlist::benchmarks::iscas89("s27")?);
/// let tests = vec![
///     vec![Logic::One, Logic::One, Logic::Zero, Logic::Zero],
///     vec![Logic::Zero, Logic::Zero, Logic::One, Logic::One],
/// ];
/// let dict = FaultDictionary::build(Arc::clone(&circuit), &tests);
/// assert!(dict.detected_count() > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FaultDictionary {
    faults: FaultList,
    entries: Vec<Option<Syndrome>>,
}

impl FaultDictionary {
    /// Simulates `test_set` over the collapsed fault list of `circuit` and
    /// records each fault's first-detection syndrome.
    pub fn build(circuit: Arc<Circuit>, test_set: &[Vec<Logic>]) -> Self {
        let faults = FaultList::collapsed(&circuit);
        Self::build_with(circuit, faults, test_set)
    }

    /// Builds over a caller-supplied fault list.
    pub fn build_with(circuit: Arc<Circuit>, faults: FaultList, test_set: &[Vec<Logic>]) -> Self {
        let mut sim = FaultSim::with_faults(circuit, faults.clone());
        let mut entries: Vec<Option<Syndrome>> = vec![None; faults.len()];
        for (vec_idx, vector) in test_set.iter().enumerate() {
            let report = sim.step(vector);
            for &(fault, po) in &report.po_detections {
                let entry = entries[fault.index()].get_or_insert(Syndrome {
                    vector: vec_idx as u32,
                    outputs: Vec::new(),
                });
                if entry.vector == vec_idx as u32 && !entry.outputs.contains(&po) {
                    entry.outputs.push(po);
                }
            }
        }
        for entry in entries.iter_mut().flatten() {
            entry.outputs.sort_unstable();
        }
        FaultDictionary { faults, entries }
    }

    /// The fault list the dictionary indexes.
    pub fn fault_list(&self) -> &FaultList {
        &self.faults
    }

    /// The syndrome of `fault`, if the test set detects it.
    pub fn syndrome(&self, fault: FaultId) -> Option<&Syndrome> {
        self.entries[fault.index()].as_ref()
    }

    /// Number of faults with a syndrome (= detected by the test set).
    pub fn detected_count(&self) -> usize {
        self.entries.iter().filter(|e| e.is_some()).count()
    }

    /// Ranks candidate faults against failing observations from a tester:
    /// `observed` is the set of `(vector index, output index)` pairs at
    /// which the device under test mismatched. Returns candidates sorted by
    /// descending match score; a score of 1.0 is a perfect first-failure
    /// syndrome match.
    ///
    /// Matching is on the *first failing vector*: a candidate scores by the
    /// Jaccard similarity between its recorded failing outputs and the
    /// observed failing outputs at the candidate's first-detection vector,
    /// and zero if the device did not fail there at all.
    pub fn diagnose(&self, observed: &[(u32, u16)]) -> Vec<(FaultId, f64)> {
        let observed_set: BTreeSet<(u32, u16)> = observed.iter().copied().collect();
        let mut ranked: Vec<(FaultId, f64)> = Vec::new();
        for (idx, entry) in self.entries.iter().enumerate() {
            let Some(syn) = entry else { continue };
            let expected: BTreeSet<(u32, u16)> =
                syn.outputs.iter().map(|&po| (syn.vector, po)).collect();
            let inter = expected.intersection(&observed_set).count();
            if inter == 0 {
                continue;
            }
            let union = expected.union(&observed_set).count();
            ranked.push((FaultId(idx as u32), inter as f64 / union as f64));
        }
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s27() -> Arc<Circuit> {
        Arc::new(gatest_netlist::benchmarks::iscas89("s27").unwrap())
    }

    fn demo_tests() -> Vec<Vec<Logic>> {
        let mut rng = crate::tests_support::Rng::new(9);
        (0..48)
            .map(|_| (0..4).map(|_| Logic::from_bool(rng.coin())).collect())
            .collect()
    }

    #[test]
    fn dictionary_matches_plain_grading() {
        let circuit = s27();
        let tests = demo_tests();
        let dict = FaultDictionary::build(Arc::clone(&circuit), &tests);
        let mut sim = FaultSim::new(circuit);
        for v in &tests {
            sim.step(v);
        }
        assert_eq!(dict.detected_count(), sim.detected_count());
    }

    #[test]
    fn syndromes_record_first_detection() {
        let circuit = s27();
        let tests = demo_tests();
        let dict = FaultDictionary::build(Arc::clone(&circuit), &tests);
        let mut sim = FaultSim::new(circuit);
        for v in &tests {
            sim.step(v);
        }
        for (id, _) in dict.fault_list().iter() {
            match (dict.syndrome(id), sim.status(id)) {
                (Some(syn), crate::fault::FaultStatus::Detected { vector }) => {
                    assert_eq!(syn.vector, vector);
                    assert!(!syn.outputs.is_empty());
                }
                (None, crate::fault::FaultStatus::Undetected) => {}
                (a, b) => panic!("dictionary {a:?} disagrees with simulator {b:?}"),
            }
        }
    }

    #[test]
    fn diagnosis_finds_the_injected_fault() {
        // Simulate a "defective device": pick a fault, observe its failures,
        // and check the dictionary ranks it first (or tied-first).
        let circuit = s27();
        let tests = demo_tests();
        let dict = FaultDictionary::build(Arc::clone(&circuit), &tests);

        for (id, _) in dict.fault_list().iter() {
            let Some(syn) = dict.syndrome(id) else {
                continue;
            };
            let observed: Vec<(u32, u16)> =
                syn.outputs.iter().map(|&po| (syn.vector, po)).collect();
            let ranked = dict.diagnose(&observed);
            assert!(!ranked.is_empty());
            let top_score = ranked[0].1;
            let top_ids: Vec<FaultId> = ranked
                .iter()
                .take_while(|(_, s)| *s == top_score)
                .map(|(f, _)| *f)
                .collect();
            assert!(
                top_ids.contains(&id),
                "fault {id:?} not among top candidates {top_ids:?}"
            );
        }
    }

    #[test]
    fn diagnosis_of_clean_observations_is_empty() {
        let circuit = s27();
        let dict = FaultDictionary::build(circuit, &demo_tests());
        assert!(dict.diagnose(&[]).is_empty());
        // An observation at a vector where nothing is recorded matches no
        // candidate either.
        assert!(dict.diagnose(&[(9999, 0)]).is_empty());
    }
}
