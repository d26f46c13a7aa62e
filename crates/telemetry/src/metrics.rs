//! The run-metrics registry: monotonic counters, gauges, and log-linear
//! bucket histograms, with Prometheus text rendering.
//!
//! Like the rest of the crate this is dependency-free and safe to update
//! from any thread: every metric is a handful of relaxed atomics. The
//! registry owns metric names and help strings so the `/metrics` endpoint
//! ([`crate::expose`]) can render everything without knowing which
//! subsystem registered what.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

use crate::event::RunEvent;
use crate::{Instruments, RunObserver};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Relaxed);
    }

    /// The current total.
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// A gauge holding one `f64` (stored as bits, so updates are atomic).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Replaces the value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Relaxed))
    }
}

/// Linear sub-buckets per power-of-two magnitude.
const SUB_BITS: u32 = 2;
const SUB: usize = 1 << SUB_BITS;
/// Values below this get one exact bucket each.
const EXACT: u64 = 8;
const NBUCKETS: usize = EXACT as usize + (63 - 2) * SUB;

/// Index of the log-linear bucket covering `v`.
fn bucket_index(v: u64) -> usize {
    if v < EXACT {
        return v as usize;
    }
    let m = 63 - v.leading_zeros() as usize; // m >= 3
    let sub = ((v >> (m - SUB_BITS as usize)) & (SUB as u64 - 1)) as usize;
    EXACT as usize + (m - 3) * SUB + sub
}

/// Inclusive upper bound of bucket `i`.
fn bucket_bound(i: usize) -> u64 {
    if (i as u64) < EXACT {
        return i as u64;
    }
    let b = i - EXACT as usize;
    let m = 3 + b / SUB;
    let sub = (b % SUB) as u64;
    let width = 1u64 << (m - SUB_BITS as usize);
    // Written to avoid overflow in the top bucket, whose bound is u64::MAX.
    (1u64 << m) - 1 + (sub + 1) * width
}

/// A log-linear-bucket histogram over `u64` values (typically nanoseconds):
/// power-of-two magnitudes split into four linear sub-buckets, for a worst
/// case relative error of 12.5% using a fixed 248-bucket table.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: Vec<AtomicU64>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: (0..NBUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one value.
    pub fn observe(&self, v: u64) {
        self.count.fetch_add(1, Relaxed);
        self.sum.fetch_add(v, Relaxed);
        self.min.fetch_min(v, Relaxed);
        self.max.fetch_max(v, Relaxed);
        self.buckets[bucket_index(v)].fetch_add(1, Relaxed);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Relaxed)
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Relaxed)
    }

    /// A point-in-time copy with only the occupied buckets.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Relaxed);
        let mut buckets = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Relaxed);
            if n > 0 {
                buckets.push((bucket_bound(i), n));
            }
        }
        HistogramSnapshot {
            count,
            sum: self.sum.load(Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Relaxed)
            },
            max: self.max.load(Relaxed),
            buckets,
        }
    }
}

/// A point-in-time [`Histogram`] copy: occupied buckets only, as
/// `(inclusive upper bound, count)` pairs in ascending bound order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value.
    pub max: u64,
    /// `(inclusive upper bound, count)` per occupied bucket, ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Upper bound of the bucket containing the `q`-quantile (0.0..=1.0).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for &(bound, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return bound.min(self.max);
            }
        }
        self.max
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

struct Entry {
    name: &'static str,
    help: &'static str,
    metric: Metric,
}

/// A named collection of metrics, renderable as Prometheus text format.
///
/// Registration order is preserved in the rendered output.
#[derive(Default)]
pub struct MetricsRegistry {
    entries: Mutex<Vec<Entry>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("metrics", &self.entries.lock().unwrap().len())
            .finish()
    }
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn register(&self, name: &'static str, help: &'static str, metric: Metric) {
        let mut entries = self.entries.lock().unwrap();
        assert!(
            entries.iter().all(|e| e.name != name),
            "metric {name} registered twice"
        );
        entries.push(Entry { name, help, metric });
    }

    /// Registers and returns a counter.
    pub fn counter(&self, name: &'static str, help: &'static str) -> Arc<Counter> {
        let c = Arc::new(Counter::default());
        self.register(name, help, Metric::Counter(Arc::clone(&c)));
        c
    }

    /// Registers and returns a gauge.
    pub fn gauge(&self, name: &'static str, help: &'static str) -> Arc<Gauge> {
        let g = Arc::new(Gauge::default());
        self.register(name, help, Metric::Gauge(Arc::clone(&g)));
        g
    }

    /// Registers and returns a histogram.
    pub fn histogram(&self, name: &'static str, help: &'static str) -> Arc<Histogram> {
        let h = Arc::new(Histogram::new());
        self.register(name, help, Metric::Histogram(Arc::clone(&h)));
        h
    }

    /// Renders every registered metric in Prometheus text exposition
    /// format (`# HELP` / `# TYPE` comments, cumulative `_bucket{le=...}`
    /// series plus `_sum` / `_count` for histograms).
    pub fn render_prometheus(&self) -> String {
        self.render_prometheus_labeled(&[])
    }

    /// Like [`MetricsRegistry::render_prometheus`], but stamps every sample
    /// line with the given label pairs (e.g. `[("job", "3")]` →
    /// `gatest_vectors{job="3"} 9`). Histogram bucket lines merge the labels
    /// with their `le` label. This is how a multi-tenant server namespaces
    /// per-job registries in one `/metrics` page: each job gets its own
    /// registry, rendered with a distinguishing `job` label, so two
    /// concurrent jobs never interleave counters in a shared series.
    pub fn render_prometheus_labeled(&self, labels: &[(&str, &str)]) -> String {
        use std::fmt::Write as _;
        let base = labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
            .collect::<Vec<_>>()
            .join(",");
        // Suffix appended to scalar sample names: `{job="3"}` or nothing.
        let plain = if base.is_empty() {
            String::new()
        } else {
            format!("{{{base}}}")
        };
        // Prefix inside histogram bucket braces: `job="3",` or nothing.
        let bucket = if base.is_empty() {
            String::new()
        } else {
            format!("{base},")
        };
        let mut out = String::new();
        for entry in self.entries.lock().unwrap().iter() {
            let name = entry.name;
            let _ = writeln!(out, "# HELP {name} {}", entry.help);
            match &entry.metric {
                Metric::Counter(c) => {
                    let _ = writeln!(out, "# TYPE {name} counter");
                    let _ = writeln!(out, "{name}{plain} {}", c.get());
                }
                Metric::Gauge(g) => {
                    let _ = writeln!(out, "# TYPE {name} gauge");
                    let v = g.get();
                    let _ = writeln!(out, "{name}{plain} {}", if v.is_finite() { v } else { 0.0 });
                }
                Metric::Histogram(h) => {
                    let _ = writeln!(out, "# TYPE {name} histogram");
                    let snap = h.snapshot();
                    let mut cumulative = 0u64;
                    for (bound, n) in &snap.buckets {
                        cumulative += n;
                        let _ =
                            writeln!(out, "{name}_bucket{{{bucket}le=\"{bound}\"}} {cumulative}");
                    }
                    let _ = writeln!(out, "{name}_bucket{{{bucket}le=\"+Inf\"}} {}", snap.count);
                    let _ = writeln!(out, "{name}_sum{plain} {}", snap.sum);
                    let _ = writeln!(out, "{name}_count{plain} {}", snap.count);
                }
            }
        }
        out
    }
}

/// Escapes a Prometheus label value: backslash, double quote, and newline.
fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// The pre-registered metric bundle one instrumented run records into.
///
/// Field handles are shared with the [`MetricsRegistry`] so the `/metrics`
/// endpoint renders them by name; instrumented code updates them through
/// the typed handles without string lookups.
#[derive(Debug)]
pub struct RunMetrics {
    /// The registry all the handles below are registered in.
    pub registry: MetricsRegistry,
    /// Latency of one fitness evaluation batch, nanoseconds.
    pub batch_latency_ns: Arc<Histogram>,
    /// Wall time of one GA generation (breed + evaluate), nanoseconds.
    pub generation_wall_ns: Arc<Histogram>,
    /// Memoization bookkeeping time per batch, nanoseconds.
    pub cache_lookup_ns: Arc<Histogram>,
    /// GA generations evaluated (initial populations included).
    pub ga_generations: Arc<Counter>,
    /// Fitness evaluations performed.
    pub ga_evaluations: Arc<Counter>,
    /// Current phase of the paper's four-phase machine (1..=4).
    pub phase: Arc<Gauge>,
    /// Test vectors committed so far.
    pub vectors: Arc<Gauge>,
    /// Faults detected so far.
    pub detected: Arc<Gauge>,
    /// Faults targeted by the run.
    pub total_faults: Arc<Gauge>,
    /// Fault coverage so far, percent.
    pub coverage_percent: Arc<Gauge>,
    /// 1 while a run is in flight, 0 otherwise.
    pub run_active: Arc<Gauge>,
}

impl Default for RunMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl RunMetrics {
    /// Creates the bundle with every metric registered under its
    /// `gatest_`-prefixed exposition name.
    pub fn new() -> Self {
        let registry = MetricsRegistry::new();
        RunMetrics {
            batch_latency_ns: registry.histogram(
                "gatest_eval_batch_latency_ns",
                "Latency of one fitness evaluation batch",
            ),
            generation_wall_ns: registry.histogram(
                "gatest_generation_wall_ns",
                "Wall time of one GA generation (breed + evaluate)",
            ),
            cache_lookup_ns: registry.histogram(
                "gatest_cache_lookup_ns",
                "Memoization bookkeeping time per evaluation batch",
            ),
            ga_generations: registry
                .counter("gatest_ga_generations_total", "GA generations evaluated"),
            ga_evaluations: registry.counter(
                "gatest_ga_evaluations_total",
                "Fitness evaluations performed",
            ),
            phase: registry.gauge("gatest_phase", "Current phase of the four-phase machine"),
            vectors: registry.gauge("gatest_vectors", "Test vectors committed"),
            detected: registry.gauge("gatest_detected_faults", "Faults detected"),
            total_faults: registry.gauge("gatest_total_faults", "Faults targeted"),
            coverage_percent: registry.gauge("gatest_coverage_percent", "Fault coverage, percent"),
            run_active: registry.gauge("gatest_run_active", "1 while a run is in flight"),
            registry,
        }
    }
}

/// A [`RunObserver`] that mirrors the event stream into the live gauges of
/// an [`Instruments`] bundle, so `/metrics` and `/healthz` report mid-run
/// progress. Purely read-side: it cannot steer the run.
#[derive(Debug)]
pub struct MetricsObserver {
    instruments: Arc<Instruments>,
}

impl MetricsObserver {
    /// Creates an observer feeding `instruments`.
    pub fn new(instruments: Arc<Instruments>) -> Self {
        MetricsObserver { instruments }
    }
}

impl RunObserver for MetricsObserver {
    fn on_event(&self, event: &RunEvent) {
        let m = &self.instruments.metrics;
        match event {
            RunEvent::RunStarted { total_faults, .. } => {
                m.total_faults.set(*total_faults as f64);
                m.detected.set(0.0);
                m.vectors.set(0.0);
                m.coverage_percent.set(0.0);
                m.run_active.set(1.0);
            }
            RunEvent::PhaseEntered { phase, .. } => {
                m.phase.set(f64::from(*phase));
            }
            RunEvent::GaGenerationEvaluated { evaluations, .. } => {
                m.ga_generations.inc();
                m.ga_evaluations.add(*evaluations as u64);
            }
            RunEvent::VectorCommitted {
                vectors,
                detected_total,
                coverage,
                ..
            } => {
                m.vectors.set(*vectors as f64);
                m.detected.set(*detected_total as f64);
                m.coverage_percent.set(coverage * 100.0);
            }
            RunEvent::FaultDetected { .. } => {}
            RunEvent::RunFinished {
                detected, vectors, ..
            } => {
                m.detected.set(*detected as f64);
                m.vectors.set(*vectors as f64);
                m.run_active.set(0.0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_hold_values() {
        let registry = MetricsRegistry::new();
        let c = registry.counter("test_total", "a counter");
        let g = registry.gauge("test_gauge", "a gauge");
        c.inc();
        c.add(4);
        g.set(2.5);
        assert_eq!(c.get(), 5);
        assert_eq!(g.get(), 2.5);
        let text = registry.render_prometheus();
        assert!(text.contains("# TYPE test_total counter"));
        assert!(text.contains("test_total 5"));
        assert!(text.contains("test_gauge 2.5"));
    }

    #[test]
    fn bucket_index_and_bound_agree() {
        for v in [
            0u64,
            1,
            7,
            8,
            9,
            15,
            16,
            100,
            1_000,
            123_456,
            u64::MAX / 2,
            u64::MAX,
        ] {
            let i = bucket_index(v);
            assert!(v <= bucket_bound(i), "v={v} above its bucket bound");
            if i > 0 {
                assert!(v > bucket_bound(i - 1), "v={v} below its bucket");
            }
        }
        // Bounds are strictly increasing.
        for i in 1..NBUCKETS {
            assert!(bucket_bound(i) > bucket_bound(i - 1), "bucket {i}");
        }
    }

    #[test]
    fn histogram_tracks_count_sum_min_max_and_quantiles() {
        let h = Histogram::new();
        for v in [100u64, 200, 300, 400, 1_000_000] {
            h.observe(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 5);
        assert_eq!(snap.sum, 1_001_000);
        assert_eq!(snap.min, 100);
        assert_eq!(snap.max, 1_000_000);
        assert_eq!(snap.mean(), 200_200.0);
        // The p50 bucket bound is within the scheme's 12.5% error of 300.
        let p50 = snap.quantile(0.5) as f64;
        assert!((200.0..=350.0).contains(&p50), "p50 bound {p50}");
        assert_eq!(snap.quantile(1.0), 1_000_000);
        let empty = Histogram::new().snapshot();
        assert_eq!(empty, HistogramSnapshot::default());
        assert_eq!(empty.quantile(0.5), 0);
    }

    #[test]
    fn histogram_renders_cumulative_prometheus_buckets() {
        let registry = MetricsRegistry::new();
        let h = registry.histogram("lat_ns", "latency");
        h.observe(3);
        h.observe(3);
        h.observe(1_000);
        let text = registry.render_prometheus();
        assert!(text.contains("# TYPE lat_ns histogram"));
        assert!(text.contains("lat_ns_bucket{le=\"3\"} 2"));
        assert!(text.contains("lat_ns_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("lat_ns_sum 1006"));
        assert!(text.contains("lat_ns_count 3"));
        // Cumulative counts are monotone.
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.starts_with("lat_ns_bucket")) {
            let n: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(n >= last);
            last = n;
        }
    }

    #[test]
    fn labeled_render_stamps_every_sample_line() {
        let registry = MetricsRegistry::new();
        let c = registry.counter("jobs_total", "a counter");
        let g = registry.gauge("depth", "a gauge");
        let h = registry.histogram("lat_ns", "latency");
        c.add(2);
        g.set(1.5);
        h.observe(3);
        let text = registry.render_prometheus_labeled(&[("job", "7"), ("kind", "a\"b")]);
        assert!(text.contains("jobs_total{job=\"7\",kind=\"a\\\"b\"} 2"));
        assert!(text.contains("depth{job=\"7\",kind=\"a\\\"b\"} 1.5"));
        assert!(text.contains("lat_ns_bucket{job=\"7\",kind=\"a\\\"b\",le=\"3\"} 1"));
        assert!(text.contains("lat_ns_bucket{job=\"7\",kind=\"a\\\"b\",le=\"+Inf\"} 1"));
        assert!(text.contains("lat_ns_sum{job=\"7\",kind=\"a\\\"b\"} 3"));
        assert!(text.contains("lat_ns_count{job=\"7\",kind=\"a\\\"b\"} 1"));
        // HELP/TYPE comments stay unlabeled.
        assert!(text.contains("# TYPE lat_ns histogram"));
        // The unlabeled path is byte-for-byte the empty-label render.
        assert_eq!(
            registry.render_prometheus(),
            registry.render_prometheus_labeled(&[])
        );
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_registration_panics() {
        let registry = MetricsRegistry::new();
        let _a = registry.counter("dup", "one");
        let _b = registry.counter("dup", "two");
    }

    #[test]
    fn observer_mirrors_events_into_gauges() {
        let instruments = Instruments::new();
        let observer = MetricsObserver::new(Arc::clone(&instruments));
        observer.on_event(&RunEvent::RunStarted {
            circuit: "s27".into(),
            total_faults: 32,
            seed: 1,
            backend: "scalar64".into(),
            lanes: 64,
        });
        observer.on_event(&RunEvent::PhaseEntered {
            phase: 2,
            vectors: 0,
        });
        observer.on_event(&RunEvent::GaGenerationEvaluated {
            phase: 2,
            generation: 0,
            best: 1.0,
            mean: 0.5,
            evaluations: 32,
        });
        observer.on_event(&RunEvent::VectorCommitted {
            phase: 2,
            vectors: 3,
            detected_new: 4,
            detected_total: 16,
            coverage: 0.5,
        });
        let m = &instruments.metrics;
        assert_eq!(m.run_active.get(), 1.0);
        assert_eq!(m.phase.get(), 2.0);
        assert_eq!(m.ga_evaluations.get(), 32);
        assert_eq!(m.coverage_percent.get(), 50.0);
        observer.on_event(&RunEvent::RunFinished {
            detected: 30,
            total_faults: 32,
            vectors: 9,
            ga_evaluations: 640,
            elapsed_secs: 0.5,
            budget_exhausted: false,
            snapshot: Box::default(),
        });
        assert_eq!(m.run_active.get(), 0.0);
        assert_eq!(m.detected.get(), 30.0);
    }
}
