//! The four-phase fitness functions of §III-B.
//!
//! * **Phase 1** (initialization): reward flip-flops driven to known values.
//! * **Phase 2** (vector generation): reward detections, tie-break on fault
//!   effects latched into flip-flops.
//! * **Phase 3** (stalled): phase 2 plus a circuit-activity term that keeps
//!   the population moving when nothing is being detected.
//! * **Phase 4** (sequence generation): phase 2 over a whole sequence, with
//!   the sequence length folded into the propagation term.
//!
//! Phases 2–4 also reward *launches* — transition faults whose slow edge
//! the good machine fired, the transition analogue of fault activation —
//! with `#launched / (2 × #faults × seq_len)`. That is the paper's
//! conclusion ("other fault models can easily be accommodated with
//! appropriate fitness functions") made concrete. A stuck-at step launches
//! nothing, so the term adds exactly `0.0` and stuck-at scores keep their
//! bits.

use gatest_sim::{GoodStepReport, StepReport};

/// Which fitness function is in effect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Initializing flip-flops.
    Initialization,
    /// Detecting faults with single vectors.
    VectorGeneration,
    /// Single vectors, no recent progress: activity term added.
    StalledVectorGeneration,
    /// Evolving whole sequences.
    SequenceGeneration,
}

impl Phase {
    /// The paper's phase number (1–4).
    pub fn number(self) -> u8 {
        match self {
            Phase::Initialization => 1,
            Phase::VectorGeneration => 2,
            Phase::StalledVectorGeneration => 3,
            Phase::SequenceGeneration => 4,
        }
    }
}

/// Static quantities the fitness formulas normalize by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FitnessScale {
    /// Number of faults being simulated (the sample size when sampling).
    pub faults: usize,
    /// Number of flip-flops in the circuit.
    pub flip_flops: usize,
    /// Number of circuit nodes (nets).
    pub nodes: usize,
}

impl FitnessScale {
    fn faults_f(&self) -> f64 {
        (self.faults.max(1)) as f64
    }

    fn ffs_f(&self) -> f64 {
        (self.flip_flops.max(1)) as f64
    }

    fn nodes_f(&self) -> f64 {
        (self.nodes.max(1)) as f64
    }
}

/// Phase 1: `#FFs set + fraction of FFs changed`.
///
/// # Example
///
/// ```
/// use gatest_core::fitness::{phase1, FitnessScale};
/// use gatest_sim::GoodStepReport;
///
/// let scale = FitnessScale { faults: 100, flip_flops: 8, nodes: 50 };
/// let report = GoodStepReport { events: 10, ffs_set: 6, ffs_changed: 2 };
/// assert_eq!(phase1(&report, scale), 6.0 + 2.0 / 8.0);
/// ```
pub fn phase1(report: &GoodStepReport, scale: FitnessScale) -> f64 {
    report.ffs_set as f64 + report.ffs_changed as f64 / scale.ffs_f()
}

/// Phase 2: `#detected + #prop-to-FF / (#faults × #FFs)`, plus the launch
/// term `#launched / (2 × #faults)`.
pub fn phase2(report: &StepReport, scale: FitnessScale) -> f64 {
    report.detected() as f64
        + report.ff_effect_pairs as f64 / (scale.faults_f() * scale.ffs_f())
        + launches(report.launched, scale, 1.0)
}

/// Phase 3: phase 2 plus `2 × (good+faulty events) / (#nodes × #faults)`.
pub fn phase3(report: &StepReport, scale: FitnessScale) -> f64 {
    phase2(report, scale)
        + 2.0 * (report.good_events + report.faulty_events) as f64
            / (scale.nodes_f() * scale.faults_f())
}

/// Phase 4: accumulated over a sequence of `seq_len` vectors; the sequence
/// length joins the propagation normalization so the detection count stays
/// dominant:
/// `Σ#detected + Σ#prop-to-FF / (#faults × #FFs × seq_len)`, plus the
/// launch term `Σ#launched / (2 × #faults × seq_len)`.
pub fn phase4(reports: &[StepReport], scale: FitnessScale) -> f64 {
    let detected: usize = reports.iter().map(StepReport::detected).sum();
    let pairs: u64 = reports.iter().map(|r| r.ff_effect_pairs).sum();
    let launched: u64 = reports.iter().map(|r| r.launched).sum();
    let len = reports.len().max(1) as f64;
    detected as f64
        + pairs as f64 / (scale.faults_f() * scale.ffs_f() * len)
        + launches(launched, scale, len)
}

/// The launch term: at most one half per fault and frame, so a detection
/// still outweighs every launch. Exactly `0.0` when nothing launched.
fn launches(launched: u64, scale: FitnessScale, len: f64) -> f64 {
    launched as f64 / (2.0 * scale.faults_f() * len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gatest_sim::FaultId;

    fn scale() -> FitnessScale {
        FitnessScale {
            faults: 100,
            flip_flops: 10,
            nodes: 200,
        }
    }

    fn report(detected: usize, pairs: u64, good_ev: u64, faulty_ev: u64) -> StepReport {
        StepReport {
            newly_detected: (0..detected as u32).map(FaultId).collect(),
            po_detections: Vec::new(),
            ff_effect_pairs: pairs,
            ff_effect_faults: pairs.min(1),
            launched: 0,
            good_events: good_ev,
            faulty_events: faulty_ev,
            gate_evals: 0,
            good: GoodStepReport::default(),
        }
    }

    #[test]
    fn phase1_values() {
        let r = GoodStepReport {
            events: 5,
            ffs_set: 7,
            ffs_changed: 5,
        };
        assert_eq!(phase1(&r, scale()), 7.5);
    }

    #[test]
    fn phase2_detection_dominates_propagation() {
        // Even the maximum possible propagation term (#faults × #FFs pairs)
        // is worth exactly 1.0 — one detection always wins.
        let all_pairs = report(0, 100 * 10, 0, 0);
        let one_det = report(1, 0, 0, 0);
        assert!(phase2(&one_det, scale()) >= phase2(&all_pairs, scale()));
    }

    #[test]
    fn phase3_adds_activity() {
        let quiet = report(0, 5, 0, 0);
        let busy = report(0, 5, 100, 300);
        assert!(phase3(&busy, scale()) > phase3(&quiet, scale()));
        assert_eq!(phase2(&busy, scale()), phase2(&quiet, scale()));
    }

    #[test]
    fn phase3_activity_stays_subordinate() {
        // Activity term: 2(events)/(nodes × faults). Even implausibly large
        // event counts (every node toggling for every fault) contribute 4.0,
        // but realistic counts stay well below one detection.
        let busy = report(0, 0, 1000, 5000);
        assert!(phase3(&busy, scale()) < 1.0);
    }

    #[test]
    fn phase4_accumulates_over_sequence() {
        let seq = vec![report(1, 3, 0, 0), report(2, 7, 0, 0)];
        let f = phase4(&seq, scale());
        assert!(f > 3.0 && f < 3.1, "3 detections plus a small bonus: {f}");
    }

    #[test]
    fn phase4_longer_sequence_dilutes_propagation() {
        let short = vec![report(0, 10, 0, 0)];
        let long = vec![report(0, 10, 0, 0), report(0, 0, 0, 0)];
        assert!(phase4(&short, scale()) > phase4(&long, scale()));
    }

    #[test]
    fn launches_score_below_a_detection_and_vanish_for_stuck_at() {
        let launched = |n| StepReport {
            launched: n,
            ..report(0, 5, 10, 20)
        };
        let all = launched(100);
        assert!(phase2(&all, scale()) > phase2(&launched(0), scale()));
        assert!(phase2(&all, scale()) < phase2(&report(1, 0, 0, 0), scale()));
        let seq = [launched(100), launched(100)];
        assert!(phase4(&seq, scale()) < 1.0);
        // No launch adds +0.0, which leaves every score's bits alone.
        let quiet = report(2, 7, 30, 40);
        let bits = |x: f64| x.to_bits();
        let plain = 2.0 + 7.0 / (100.0 * 10.0);
        assert_eq!(bits(phase2(&quiet, scale())), bits(plain));
        let activity = 2.0 * 70.0 / (200.0 * 100.0);
        assert_eq!(bits(phase3(&quiet, scale())), bits(plain + activity));
        let pair = [quiet.clone(), quiet];
        let seq_plain = 4.0 + 14.0 / (100.0 * 10.0 * 2.0);
        assert_eq!(bits(phase4(&pair, scale())), bits(seq_plain));
    }

    #[test]
    fn phase_numbers() {
        assert_eq!(Phase::Initialization.number(), 1);
        assert_eq!(Phase::SequenceGeneration.number(), 4);
    }

    #[test]
    fn zero_scales_do_not_divide_by_zero() {
        let s = FitnessScale {
            faults: 0,
            flip_flops: 0,
            nodes: 0,
        };
        let r = report(1, 5, 3, 4);
        assert!(phase3(&r, s).is_finite());
    }
}
