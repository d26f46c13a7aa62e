//! GATEST configuration: the paper's GA parameters and schedules.

use gatest_ga::{Coding, CrossoverScheme, SelectionScheme};
use gatest_netlist::Circuit;
use gatest_sim::SimBackend;

/// How many faults to simulate when evaluating candidate fitness (§III-B).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultSample {
    /// Simulate every remaining fault (most accurate, slowest).
    Full,
    /// Simulate a fixed-size random sample of the remaining faults
    /// (the paper studies 100, 200, and 300 in Table 6).
    Count(usize),
    /// Simulate a random fraction of the remaining faults (the paper
    /// suggests 1%–10%).
    Fraction(f64),
}

impl FaultSample {
    /// The sample size for `remaining` undetected faults.
    pub fn size_for(self, remaining: usize) -> usize {
        match self {
            FaultSample::Full => remaining,
            FaultSample::Count(n) => n.min(remaining),
            FaultSample::Fraction(f) => {
                (((remaining as f64) * f).ceil() as usize).clamp(1, remaining)
            }
        }
    }
}

/// Table 1 of the paper: GA parameter values for individual-vector
/// generation as a function of the vector length `L` (the number of primary
/// inputs).
///
/// | L      | population | mutation |
/// |--------|------------|----------|
/// | < 4    | 8          | 1/8      |
/// | 4–16   | 16         | 1/16     |
/// | > 16   | 16         | 1/L      |
pub fn table1_parameters(vector_length: usize) -> (usize, f64) {
    if vector_length < 4 {
        (8, 1.0 / 8.0)
    } else if vector_length <= 16 {
        (16, 1.0 / 16.0)
    } else {
        (16, 1.0 / vector_length as f64)
    }
}

/// Full configuration of the GATEST test generator.
///
/// [`GatestConfig::for_circuit`] produces the paper's settings for a given
/// circuit, including the Table 1 vector-generation parameters and the
/// big-circuit schedule overrides used for s5378 and s35932.
#[derive(Debug, Clone, PartialEq)]
pub struct GatestConfig {
    /// Parent selection scheme (paper default: tournament without
    /// replacement).
    pub selection: SelectionScheme,
    /// Crossover operator (paper default: uniform).
    pub crossover: CrossoverScheme,
    /// Crossover probability (paper: 1.0).
    pub crossover_probability: f64,
    /// Generations per GA invocation (paper: 8).
    pub generations: usize,
    /// Population size for individual-vector generation (Table 1).
    pub vector_population: usize,
    /// Mutation rate for individual-vector generation (Table 1).
    pub vector_mutation: f64,
    /// Population size for sequence generation (paper: 32).
    pub sequence_population: usize,
    /// Mutation rate for sequence generation (paper: 1/64).
    pub sequence_mutation: f64,
    /// Alphabet coding for sequences (paper default: binary).
    pub coding: Coding,
    /// Generation gap; `None` = nonoverlapping (paper default).
    pub generation_gap: Option<f64>,
    /// Fault sampling during fitness evaluation.
    pub fault_sample: FaultSample,
    /// Progress limit for individual-vector generation, in multiples of the
    /// sequential depth (paper: 4, but 1 for s5378/s35932).
    pub progress_limit_multiplier: f64,
    /// Candidate sequence lengths, in multiples of the sequential depth
    /// (paper: [1, 2, 4], but [1/4, 1/2, 1] for s5378/s35932).
    pub sequence_length_multipliers: Vec<f64>,
    /// Consecutive failed sequence attempts before moving to the next
    /// length (paper: 4).
    pub max_sequence_failures: usize,
    /// Hard cap on the total number of committed vectors, as a safety net
    /// for degenerate circuits.
    pub max_vectors: usize,
    /// Worker threads for candidate fitness evaluation. `1` evaluates
    /// serially; larger values split each GA generation's offspring across
    /// persistent pool workers, each owning its own fault-simulator clone.
    /// `0` means auto-detect: use [`std::thread::available_parallelism`]
    /// (see [`GatestConfig::resolved_workers`]). Results are bit-identical
    /// for any worker count (the paper's conclusion points at exactly this
    /// parallelism). This pool is the only parallel layer: each simulator
    /// steps its fault groups serially on the thread that owns it.
    pub parallel_workers: usize,
    /// Packed-simulation backend width: `auto` (the default: each step
    /// runs on 256-lane groups when it simulates more than 128 faults on a
    /// circuit with at most 32 gates per flip-flop or output, and on
    /// 64-lane groups otherwise; see [`SimBackend::for_step`]), or a pinned
    /// `scalar64` (one 64-lane `u64` word per plane) or `wide256` (four
    /// words, autovectorized with a runtime AVX2 fast path). Like the worker
    /// count this is an execution detail: results are bit-identical at any
    /// width, so it is excluded from the checkpoint config digest and a run
    /// may resume under a different width.
    pub sim_width: SimBackend,
    /// Capacity (in entries) of the epoch-keyed fitness cache, the heart of
    /// the memoization layer in front of candidate evaluation. `0` disables
    /// the whole layer (cache and batch dedup) — every candidate is then
    /// re-simulated, which is useful for A/B comparisons. Memoized scores
    /// are bit-identical to recomputed ones by construction, so this knob
    /// changes runtime only, never results, and it is excluded from the
    /// checkpoint config digest.
    pub eval_cache_entries: usize,
    /// Debug mode: recompute every memoized (cached or deduplicated) score
    /// with the plain per-candidate evaluator and panic on any bit
    /// difference. Slow; for validating the memoization layer.
    pub paranoid_cache: bool,
    /// Master random seed.
    pub seed: u64,
    /// Wall-clock budget in seconds for the whole run, counted across
    /// resumed legs. When exhausted the run stops gracefully at the next
    /// generation boundary with
    /// [`StopCause::BudgetExhausted`](crate::StopCause) and (if
    /// checkpointing is configured) a final checkpoint. `None` = unlimited.
    pub max_wall_secs: Option<f64>,
    /// Budget on cumulative GA fitness evaluations, counted across resumed
    /// legs; same graceful-stop behaviour as `max_wall_secs`. `None` =
    /// unlimited. Unlike the wall-clock budget this one is deterministic:
    /// the same budget always stops at the same generation boundary.
    pub max_evals: Option<u64>,
}

impl Default for GatestConfig {
    fn default() -> Self {
        GatestConfig {
            selection: SelectionScheme::TournamentWithoutReplacement,
            crossover: CrossoverScheme::Uniform,
            crossover_probability: 1.0,
            generations: 8,
            vector_population: 16,
            vector_mutation: 1.0 / 16.0,
            sequence_population: 32,
            sequence_mutation: 1.0 / 64.0,
            coding: Coding::Binary,
            generation_gap: None,
            fault_sample: FaultSample::Full,
            progress_limit_multiplier: 4.0,
            sequence_length_multipliers: vec![1.0, 2.0, 4.0],
            max_sequence_failures: 4,
            max_vectors: 10_000,
            parallel_workers: 1,
            sim_width: SimBackend::Auto,
            eval_cache_entries: 4096,
            paranoid_cache: false,
            seed: 1,
            max_wall_secs: None,
            max_evals: None,
        }
    }
}

impl GatestConfig {
    /// The paper's configuration for `circuit`: Table 1 vector parameters
    /// from the PI count, and the s5378/s35932 schedule overrides (progress
    /// limit 1× depth and sequence lengths ¼/½/1× depth for those two).
    pub fn for_circuit(circuit: &Circuit) -> Self {
        let (vector_population, vector_mutation) = table1_parameters(circuit.num_inputs());
        let big = matches!(circuit.name(), "s5378" | "s35932");
        GatestConfig {
            vector_population,
            vector_mutation,
            progress_limit_multiplier: if big { 1.0 } else { 4.0 },
            sequence_length_multipliers: if big {
                vec![0.25, 0.5, 1.0]
            } else {
                vec![1.0, 2.0, 4.0]
            },
            ..GatestConfig::default()
        }
    }

    /// A new configuration with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// A new configuration with a different worker count (`0` = auto-detect
    /// at run time, see [`GatestConfig::resolved_workers`]).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.parallel_workers = workers;
        self
    }

    /// A new configuration with a different packed-simulation backend
    /// width. Runtime-only: results are bit-identical at any width.
    pub fn with_sim_width(mut self, backend: SimBackend) -> Self {
        self.sim_width = backend;
        self
    }

    /// A new configuration with a different fitness-cache capacity
    /// (`0` disables the memoization layer entirely).
    pub fn with_eval_cache(mut self, entries: usize) -> Self {
        self.eval_cache_entries = entries;
        self
    }

    /// A new configuration with a wall-clock budget in seconds.
    pub fn with_max_wall_secs(mut self, secs: f64) -> Self {
        self.max_wall_secs = Some(secs);
        self
    }

    /// A new configuration with a GA fitness-evaluation budget.
    pub fn with_max_evals(mut self, evals: u64) -> Self {
        self.max_evals = Some(evals);
        self
    }

    /// The effective worker count: `parallel_workers`, or the machine's
    /// [`std::thread::available_parallelism`] when it is `0` (falling back
    /// to 1 if the parallelism cannot be determined).
    pub fn resolved_workers(&self) -> usize {
        if self.parallel_workers == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            self.parallel_workers
        }
    }

    /// The progress limit (in vectors) for a circuit of the given
    /// sequential depth: `max(1, multiplier × depth)`.
    pub fn progress_limit(&self, seq_depth: u32) -> usize {
        ((self.progress_limit_multiplier * seq_depth as f64).round() as usize).max(1)
    }

    /// The candidate sequence lengths (in vectors) for the given depth,
    /// deduplicated and in increasing order, each at least 2.
    pub fn sequence_lengths(&self, seq_depth: u32) -> Vec<usize> {
        let mut lens: Vec<usize> = self
            .sequence_length_multipliers
            .iter()
            .map(|m| ((m * seq_depth as f64).round() as usize).max(2))
            .collect();
        lens.sort_unstable();
        lens.dedup();
        lens
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper() {
        assert_eq!(table1_parameters(3), (8, 1.0 / 8.0));
        assert_eq!(table1_parameters(4), (16, 1.0 / 16.0));
        assert_eq!(table1_parameters(16), (16, 1.0 / 16.0));
        assert_eq!(table1_parameters(17), (16, 1.0 / 17.0));
        assert_eq!(table1_parameters(35), (16, 1.0 / 35.0));
    }

    #[test]
    fn for_circuit_applies_table1() {
        let c = gatest_netlist::benchmarks::iscas89("s298").unwrap();
        let cfg = GatestConfig::for_circuit(&c);
        assert_eq!(cfg.vector_population, 8, "s298 has 3 PIs");
        assert_eq!(cfg.vector_mutation, 1.0 / 8.0);
        assert_eq!(cfg.progress_limit_multiplier, 4.0);
        assert_eq!(cfg.sequence_length_multipliers, vec![1.0, 2.0, 4.0]);
    }

    #[test]
    fn big_circuits_get_reduced_schedule() {
        let c = gatest_netlist::benchmarks::iscas89("s5378").unwrap();
        let cfg = GatestConfig::for_circuit(&c);
        assert_eq!(cfg.progress_limit_multiplier, 1.0);
        assert_eq!(cfg.sequence_length_multipliers, vec![0.25, 0.5, 1.0]);
    }

    #[test]
    fn progress_limit_floors_at_one() {
        let cfg = GatestConfig::default();
        assert_eq!(cfg.progress_limit(0), 1);
        assert_eq!(cfg.progress_limit(8), 32);
    }

    #[test]
    fn sequence_lengths_scale_with_depth() {
        let cfg = GatestConfig::default();
        assert_eq!(cfg.sequence_lengths(8), vec![8, 16, 32]);
        // Tiny depths floor at 2 and deduplicate.
        assert_eq!(cfg.sequence_lengths(1), vec![2, 4]);
    }

    #[test]
    fn zero_workers_resolves_to_available_parallelism() {
        let cfg = GatestConfig::default().with_workers(0);
        assert_eq!(cfg.parallel_workers, 0, "0 is preserved, not clamped");
        let resolved = cfg.resolved_workers();
        assert!(resolved >= 1);
        if let Ok(n) = std::thread::available_parallelism() {
            assert_eq!(resolved, n.get());
        }
        assert_eq!(
            GatestConfig::default().with_workers(6).resolved_workers(),
            6
        );
    }

    #[test]
    fn sim_width_defaults_to_auto() {
        let cfg = GatestConfig::default();
        assert_eq!(cfg.sim_width, SimBackend::Auto);
        assert_eq!(cfg.sim_width.for_lanes(128), SimBackend::Scalar64);
        assert_eq!(cfg.sim_width.for_lanes(129), SimBackend::Wide256);
        // The fixed widths pin every step.
        let narrow = GatestConfig::default().with_sim_width(SimBackend::Scalar64);
        assert_eq!(narrow.sim_width.for_lanes(1000), SimBackend::Scalar64);
        assert_eq!(narrow.sim_width.lanes(), 64);
        let wide = GatestConfig::default().with_sim_width(SimBackend::Wide256);
        assert_eq!(wide.sim_width.for_lanes(1), SimBackend::Wide256);
        assert_eq!(wide.sim_width.lanes(), 256);
    }

    #[test]
    fn memoization_knobs_default_on() {
        let cfg = GatestConfig::default();
        assert!(cfg.eval_cache_entries > 0, "cache is on by default");
        assert!(!cfg.paranoid_cache, "paranoia is opt-in");
        let off = GatestConfig::default().with_eval_cache(0);
        assert_eq!(off.eval_cache_entries, 0);
    }

    #[test]
    fn fault_sample_sizes() {
        assert_eq!(FaultSample::Full.size_for(500), 500);
        assert_eq!(FaultSample::Count(100).size_for(500), 100);
        assert_eq!(FaultSample::Count(100).size_for(50), 50);
        assert_eq!(FaultSample::Fraction(0.1).size_for(500), 50);
        assert_eq!(FaultSample::Fraction(0.001).size_for(500), 1);
    }
}
