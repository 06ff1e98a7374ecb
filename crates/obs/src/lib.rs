//! # pmss-obs — the fleet-wide metrics registry
//!
//! The paper's whole method is instrumentation at scale: three months of
//! 15-second out-of-band telemetry turned into modal decompositions and
//! savings bounds.  This crate gives the *simulator itself* the same
//! courtesy — first-class counters instead of post-hoc inference — without
//! perturbing the thing being measured.
//!
//! ## One registry, written once per run
//!
//! A [`Metrics`] registry is a plain value: no locks, no atomics, no
//! global state.  Hot loops never touch it: a fleet run tallies into its
//! own plain struct (the run's `FleetRunStats`) by branch-free integer
//! adds, whether or not anyone is listening, and the caller publishes
//! those tallies into the one registry afterwards — on the calling
//! thread, in run order, even when the runs themselves ran on worker
//! threads.  Metering is a registry, not a code path: every run tallies
//! and every pipeline publishes the tallies here; `--metrics` only decides
//! whether the registry is printed.
//!
//! ## What lives here
//!
//! * [`Metrics`] — string-keyed counters (`u64`), gauges (`f64`), and
//!   fixed-bin [`ValueHist`] histograms, all iterable in deterministic
//!   (sorted) order so reports render stably.
//! * [`ValueHist`] — a fixed-edge histogram with count/sum/min/max, for
//!   latency- and value-style distributions (stage wall times).
//! * [`RunManifest`] — the who/what/when of one run, paired with a
//!   metrics report in the CLI's `--metrics` envelope.
//! * [`Stopwatch`] — a minimal monotonic timer for wall-time gauges.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::time::Instant;

/// Shared bucket-edge presets, so every caller histograms the same way.
pub mod edges {
    /// Wall-time buckets, seconds: microbenchmarks up to whole-run scale.
    pub const WALL_S: &[f64] = &[
        0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 120.0,
    ];
}

/// A fixed-bin histogram over `f64` values.
///
/// Edges are a `'static` slice of finite, strictly increasing upper
/// bounds; values land in the first bucket whose edge is `>= value`, with
/// one implicit overflow bucket past the last edge.  Non-finite samples
/// are skipped (the `PowerHistogram::record` policy): a NaN must never
/// silently corrupt an aggregate.
#[derive(Debug, Clone, PartialEq)]
pub struct ValueHist {
    edges: &'static [f64],
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl ValueHist {
    /// Creates an empty histogram over `edges`.
    ///
    /// # Panics
    /// Panics if `edges` is empty or not strictly increasing and finite —
    /// edge sets are compile-time constants, so this is a programming
    /// error, not input validation.
    pub(crate) fn new(edges: &'static [f64]) -> ValueHist {
        assert!(!edges.is_empty(), "histogram needs at least one edge");
        assert!(
            edges.windows(2).all(|w| w[0] < w[1]) && edges.iter().all(|e| e.is_finite()),
            "histogram edges must be finite and strictly increasing"
        );
        ValueHist {
            edges,
            counts: vec![0; edges.len() + 1],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one value; non-finite values are skipped.
    pub(crate) fn observe(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        let idx = self
            .edges
            .iter()
            .position(|&e| value <= e)
            .unwrap_or(self.edges.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of recorded values, if any were recorded.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Smallest recorded value, if any.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded value, if any.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Buckets as `(upper_edge, count)`; the final overflow bucket has
    /// edge `None`.
    pub fn buckets(&self) -> impl Iterator<Item = (Option<f64>, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| (self.edges.get(i).copied(), c))
    }
}

/// A registry of named counters, gauges, and histograms.
///
/// Names are `&'static str` so recording never allocates for the key;
/// iteration order is sorted (BTreeMap), so reports are deterministic.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    hists: BTreeMap<&'static str, ValueHist>,
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.hists.is_empty()
    }

    /// Adds `n` to counter `name` (creating it at zero).
    pub fn add(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_insert(0) += n;
    }

    /// Increments counter `name` by one.
    pub fn inc(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Current value of counter `name` (zero when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets gauge `name` to `value` (non-finite values are skipped): a
    /// *set-style* gauge, like a rate (`fleet.node_hours_per_s`) or a size
    /// (`stream.shards`).  Accumulated quantities use
    /// [`Metrics::gauge_add`] instead.
    pub fn gauge_set(&mut self, name: &'static str, value: f64) {
        if value.is_finite() {
            self.gauges.insert(name, value);
        }
    }

    /// Adds `value` to gauge `name` (non-finite values are skipped).
    pub fn gauge_add(&mut self, name: &'static str, value: f64) {
        if value.is_finite() {
            *self.gauges.entry(name).or_insert(0.0) += value;
        }
    }

    /// Current value of gauge `name`, if set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Records `value` into histogram `name`, creating it over `edges` on
    /// first sight.
    pub fn observe(&mut self, name: &'static str, edges: &'static [f64], value: f64) {
        self.hists
            .entry(name)
            .or_insert_with(|| ValueHist::new(edges))
            .observe(value);
    }

    /// Histogram `name`, if any value was recorded.
    pub fn hist(&self, name: &str) -> Option<&ValueHist> {
        self.hists.get(name)
    }

    /// All counters, in sorted name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(&k, &v)| (k, v))
    }

    /// All gauges, in sorted name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.gauges.iter().map(|(&k, &v)| (k, v))
    }

    /// All histograms, in sorted name order.
    pub fn hists(&self) -> impl Iterator<Item = (&'static str, &ValueHist)> + '_ {
        self.hists.iter().map(|(&k, v)| (k, v))
    }
}

/// The who/what/when of one instrumented run, paired with a [`Metrics`]
/// report in the CLI's `--metrics` envelope.
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    /// The invoked command (e.g. `"fig 2"` or `"stats"`).
    pub command: String,
    /// Scenario name driving the run.
    pub scenario: String,
    /// Fleet size, nodes.
    pub nodes: usize,
    /// Trace length, days.
    pub days: f64,
    /// Trace-generation seed.
    pub seed: u64,
    /// Total wall time of the run, seconds.
    pub wall_s: f64,
    /// Crate version that produced the report.
    pub version: String,
}

/// A minimal monotonic stopwatch for wall-time gauges.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Stopwatch {
        Stopwatch(Instant::now())
    }

    /// Seconds elapsed since [`Stopwatch::start`].
    pub fn elapsed_s(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_accumulate() {
        let mut m = Metrics::new();
        assert!(m.is_empty());
        m.inc("cache.hits");
        m.add("cache.hits", 4);
        m.gauge_set("rate", 0.5);
        m.gauge_add("wall_s", 1.5);
        m.gauge_add("wall_s", 2.5);
        assert_eq!(m.counter("cache.hits"), 5);
        assert_eq!(m.counter("never.touched"), 0);
        assert_eq!(m.gauge("rate"), Some(0.5));
        assert_eq!(m.gauge("wall_s"), Some(4.0));
        assert!(!m.is_empty());
    }

    #[test]
    fn histogram_buckets_cover_all_values() {
        const EDGES: &[f64] = &[1.0, 10.0];
        let mut h = ValueHist::new(EDGES);
        for v in [0.5, 1.0, 5.0, 100.0] {
            h.observe(v);
        }
        h.observe(f64::NAN); // skipped
        h.observe(f64::INFINITY); // skipped
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 106.5);
        assert_eq!(h.min(), Some(0.5));
        assert_eq!(h.max(), Some(100.0));
        assert_eq!(h.mean(), Some(106.5 / 4.0));
        let buckets: Vec<_> = h.buckets().collect();
        assert_eq!(
            buckets,
            vec![(Some(1.0), 2), (Some(10.0), 1), (None, 1)],
            "0.5 and 1.0 in <=1, 5.0 in <=10, 100.0 overflows"
        );
    }

    #[test]
    fn empty_histogram_has_no_extrema() {
        let h = ValueHist::new(edges::WALL_S);
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_edges_are_rejected() {
        const BAD: &[f64] = &[2.0, 1.0];
        let _ = ValueHist::new(BAD);
    }

    #[test]
    fn iteration_is_sorted_and_deterministic() {
        let mut m = Metrics::new();
        m.inc("zebra");
        m.inc("alpha");
        m.inc("mid");
        let names: Vec<_> = m.counters().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["alpha", "mid", "zebra"]);
    }

    #[test]
    fn stopwatch_moves_forward() {
        let sw = Stopwatch::start();
        let a = sw.elapsed_s();
        let b = sw.elapsed_s();
        assert!(a >= 0.0 && b >= a);
    }
}
