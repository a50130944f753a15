//! Per-operator observability: a lightweight, zero-dependency registry of
//! monotonic counters, wall-clock spans, and byte gauges.
//!
//! The paper's query controller (§7) "monitors the correctness of all the
//! variation ranges" and reports per-batch latency, #tuples recomputed, and
//! state sizes. This module generalizes that bookkeeping: every online
//! operator, the rewriter, the bootstrap fold, and the driver's
//! checkpoint/restore/replay paths record named metrics into the
//! [`BatchCtx`](crate::ops::BatchCtx), and each
//! [`BatchReport`](crate::driver::BatchReport) carries the per-batch slice.
//!
//! Metric names are dotted: the prefix before the first `.` names the
//! operator or subsystem (`agg`, `join`, `select`, `scan`, `project`,
//! `range`, `registry`, `ckpt`, `recovery`, `sink`, `rewrite`), the suffix
//! names the measurement. Time spans end in `_ns` (nanoseconds), byte
//! gauges in `_bytes`; everything else is a plain count. Names are
//! `&'static str` and increments are batched per operator call, so the
//! instrumentation overhead on the hot fold/probe paths stays in the noise
//! (well under the ~5% budget of the Fig 7(a) latency path).

use std::collections::BTreeMap;
use std::fmt;
use std::time::Instant;

/// Number of log₂ buckets in a [`Histogram`]: bucket `i` covers values
/// whose bit length is `i`, so 64 buckets span the whole `u64` range.
pub const HIST_BUCKETS: usize = 64;

/// A log-scale latency histogram: power-of-two buckets, pointwise-additive
/// merge, deterministic quantiles (bucket midpoints, no interpolation).
///
/// Every `*_ns` span recorded through [`Metrics::record_since`] also lands
/// one sample here, so per-operator distributions (p50/p95/p99) come for
/// free next to the existing sums. A fixed array keeps observation at two
/// integer ops plus an index — no allocation on the hot paths.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Bucket index of `v`: its bit length (0 for 0, 1 for 1, 2 for 2–3…).
    #[inline]
    fn bucket_of(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Record one sample.
    #[inline]
    pub fn observe(&mut self, v: u64) {
        let i = Self::bucket_of(v).min(HIST_BUCKETS - 1);
        self.buckets[i] = self.buckets[i].saturating_add(1);
        self.count = self.count.saturating_add(1);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest sample observed, or `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample observed, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Deterministic quantile estimate (`q` in `[0, 1]`). `None` when the
    /// histogram is empty — callers that would otherwise print a p95/p99
    /// (the `Display` impl, the server's exposition) must render the absence
    /// explicitly instead of a fabricated number. A single-sample histogram
    /// returns that exact sample rather than its bucket midpoint, and every
    /// estimate is clamped into the observed `[min, max]` range, so a
    /// quantile can never lie outside the data (the old midpoint rule did
    /// for admitted-then-immediately-cancelled sessions whose lone sample
    /// sat at a bucket edge). Otherwise: the midpoint of the bucket holding
    /// the `q`-th sample, no interpolation.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        if self.count == 1 {
            return Some(self.min);
        }
        let rank = ((q.clamp(0.0, 1.0) * (self.count as f64 - 1.0)) as u64).min(self.count - 1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(*b);
            if *b > 0 && seen > rank {
                return Some(Self::bucket_midpoint(i).clamp(self.min, self.max));
            }
        }
        None
    }

    /// Midpoint of bucket `i` (bucket 0 holds only the value 0).
    fn bucket_midpoint(i: usize) -> u64 {
        if i == 0 {
            return 0;
        }
        let lo = 1u64 << (i - 1);
        let hi = if i >= 64 { u64::MAX } else { (1u64 << i) - 1 };
        lo + (hi - lo) / 2
    }

    /// Pointwise-add `other` into `self` (so per-batch histograms sum into
    /// per-query ones exactly, keeping cumulative merges reproducible).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a = a.saturating_add(*b);
        }
        self.count = self.count.saturating_add(other.count);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A flat, ordered bag of named `u64` metrics.
///
/// Deliberately minimal: no hierarchy beyond the name convention, no
/// float math, no interior mutability. Merging is pointwise addition, so
/// per-batch metrics sum into per-query totals and per-worker slices sum
/// into per-batch ones. Span metrics (`*_ns`) additionally feed a
/// per-name log-scale [`Histogram`], so latency percentiles survive the
/// summation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Metrics {
    values: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, Histogram>,
}

impl Metrics {
    /// Empty metrics.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Add `v` to counter `name` (creating it at zero). Saturating: a
    /// pathological clock or a merge of near-`u64::MAX` counters pins the
    /// counter at the ceiling instead of wrapping mid-report.
    #[inline]
    pub fn add(&mut self, name: &'static str, v: u64) {
        let e = self.values.entry(name).or_insert(0);
        *e = e.saturating_add(v);
    }

    /// Record the elapsed nanoseconds since `start` under `name`, and land
    /// one sample in `name`'s latency histogram. Convention: `name` ends
    /// in `_ns`. The `u128 → u64` narrowing saturates (≈ 584 years of
    /// nanoseconds) rather than truncating.
    #[inline]
    pub fn record_since(&mut self, name: &'static str, start: Instant) {
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.add(name, ns);
        self.hists.entry(name).or_default().observe(ns);
    }

    /// Record one explicit duration sample (sum + histogram), for callers
    /// that measured elapsed time themselves.
    #[inline]
    pub fn record_ns(&mut self, name: &'static str, ns: u64) {
        self.add(name, ns);
        self.hists.entry(name).or_default().observe(ns);
    }

    /// Latency histogram of span `name`, if any sample landed there.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.hists.get(name)
    }

    /// Deterministic `q`-quantile of span `name`'s samples (bucket
    /// midpoint), or `None` when no sample was recorded.
    pub fn quantile_ns(&self, name: &str, q: f64) -> Option<u64> {
        self.hists.get(name).and_then(|h| h.quantile(q))
    }

    /// All `(name, histogram)` pairs in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        self.hists.iter().map(|(n, h)| (*n, h))
    }

    /// Current value of `name` (zero when never recorded).
    pub fn get(&self, name: &str) -> u64 {
        self.values.get(name).copied().unwrap_or(0)
    }

    /// Whether any metric has been recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Number of distinct metric names.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Pointwise-add all of `other` into `self` (histograms included, so
    /// cumulative merges preserve exact per-bucket counts).
    pub fn merge(&mut self, other: &Metrics) {
        for (name, v) in &other.values {
            self.add(name, *v);
        }
        for (name, h) in &other.hists {
            self.hists.entry(name).or_default().merge(h);
        }
    }

    /// All `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.values.iter().map(|(n, v)| (*n, *v))
    }

    /// Metrics grouped by operator prefix (the segment before the first
    /// `.`), preserving name order within each group.
    pub fn by_operator(&self) -> BTreeMap<&'static str, Vec<(&'static str, u64)>> {
        let mut out: BTreeMap<&'static str, Vec<(&'static str, u64)>> = BTreeMap::new();
        for (name, v) in &self.values {
            let op = name.split('.').next().unwrap_or(name);
            out.entry(op).or_default().push((name, *v));
        }
        out
    }
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (op, entries) in self.by_operator() {
            writeln!(f, "{op}:")?;
            for (name, v) in entries {
                if name.ends_with("_ns") {
                    writeln!(f, "  {name:<28} {:>12.3} ms", v as f64 / 1e6)?;
                    if let Some(h) = self.hists.get(name) {
                        let q = |p: f64| h.quantile(p).unwrap_or(0) as f64 / 1e6;
                        writeln!(
                            f,
                            "  {:<28} {:>12}  p50 {:.3} / p95 {:.3} / p99 {:.3} ms",
                            "  └ samples",
                            h.count(),
                            q(0.50),
                            q(0.95),
                            q(0.99)
                        )?;
                    }
                } else {
                    writeln!(f, "  {name:<28} {v:>12}")?;
                }
            }
        }
        Ok(())
    }
}

/// A started wall-clock span; finish with [`Span::stop`].
///
/// ```
/// # use iolap_core::metrics::{Metrics, Span};
/// # let mut m = Metrics::new();
/// let span = Span::start();
/// // ... work ...
/// span.stop(&mut m, "agg.fold_ns");
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Span(Instant);

impl Span {
    /// Start timing now.
    pub fn start() -> Self {
        Span(Instant::now())
    }

    /// Record the elapsed nanoseconds under `name`.
    pub fn stop(self, metrics: &mut Metrics, name: &'static str) {
        metrics.record_since(name, self.0);
    }

    /// Elapsed wall-clock time since the span started, without recording.
    /// This is the repo's sanctioned clock read — `Instant::now()` outside
    /// this module is rejected by the source lint (rule L003).
    pub fn elapsed(&self) -> std::time::Duration {
        self.0.elapsed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_get_merge() {
        let mut a = Metrics::new();
        a.add("agg.fold_rows", 10);
        a.add("agg.fold_rows", 5);
        a.add("join.probe_rows", 3);
        assert_eq!(a.get("agg.fold_rows"), 15);
        assert_eq!(a.get("missing"), 0);

        let mut b = Metrics::new();
        b.add("agg.fold_rows", 1);
        b.add("scan.rows", 7);
        a.merge(&b);
        assert_eq!(a.get("agg.fold_rows"), 16);
        assert_eq!(a.get("scan.rows"), 7);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn groups_by_prefix() {
        let mut m = Metrics::new();
        m.add("agg.fold_ns", 100);
        m.add("agg.fold_rows", 2);
        m.add("join.probe_rows", 9);
        let groups = m.by_operator();
        assert_eq!(groups.len(), 2);
        assert_eq!(groups["agg"].len(), 2);
        assert_eq!(groups["join"], vec![("join.probe_rows", 9)]);
    }

    #[test]
    fn spans_accumulate_time() {
        let mut m = Metrics::new();
        let s = Span::start();
        std::thread::sleep(std::time::Duration::from_millis(2));
        s.stop(&mut m, "test.span_ns");
        assert!(m.get("test.span_ns") >= 1_000_000);
    }

    #[test]
    fn add_saturates_instead_of_wrapping() {
        let mut m = Metrics::new();
        m.add("x.rows", u64::MAX - 1);
        m.add("x.rows", 10);
        assert_eq!(m.get("x.rows"), u64::MAX);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::new();
        assert_eq!(h.quantile(0.5), None);
        for _ in 0..90 {
            h.observe(100); // bucket 7: 64..=127, midpoint 95
        }
        for _ in 0..10 {
            h.observe(1_000_000); // bucket 20
        }
        assert_eq!(h.count(), 100);
        // Bucket 7's midpoint is 95, but no sample is below 100, so the
        // estimate clamps up to the observed minimum.
        assert_eq!(h.quantile(0.50), Some(100));
        assert_eq!(h.quantile(0.0), Some(100));
        // The 99th sample (rank 98) falls in the slow bucket.
        let p99 = h.quantile(0.99).unwrap();
        assert!(p99 > 500_000 && p99 < 2_000_000, "p99={p99}");
        assert_eq!(h.quantile(1.0), h.quantile(0.99));
        // Extreme values clamp into the last bucket without panicking.
        h.observe(u64::MAX);
        assert_eq!(h.count(), 101);
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = Histogram::new();
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile(q), None, "q={q}");
        }
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
    }

    #[test]
    fn single_sample_quantiles_are_exact() {
        // A session admitted and cancelled after one batch lands exactly one
        // latency sample; every quantile must be that sample, not a bucket
        // midpoint (127 for a sample of 70, say).
        let mut h = Histogram::new();
        h.observe(70);
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(70), "q={q}");
        }
        assert_eq!(h.min(), Some(70));
        assert_eq!(h.max(), Some(70));
    }

    #[test]
    fn quantiles_never_leave_observed_range() {
        let mut h = Histogram::new();
        h.observe(100);
        h.observe(100);
        h.observe(120);
        for q in [0.0, 0.25, 0.5, 0.75, 0.95, 1.0] {
            let v = h.quantile(q).unwrap();
            assert!((100..=120).contains(&v), "q={q} v={v}");
        }
        // min/max survive a merge.
        let mut other = Histogram::new();
        other.observe(5);
        h.merge(&other);
        assert_eq!(h.min(), Some(5));
        assert_eq!(h.max(), Some(120));
        assert_eq!(h.quantile(0.0), Some(5));
    }

    #[test]
    fn histograms_merge_pointwise() {
        let mut a = Metrics::new();
        a.record_ns("agg.fold_ns", 100);
        a.record_ns("agg.fold_ns", 200);
        let mut b = Metrics::new();
        b.record_ns("agg.fold_ns", 100);
        let mut sum = Metrics::new();
        sum.merge(&a);
        sum.merge(&b);
        assert_eq!(sum.histogram("agg.fold_ns").unwrap().count(), 3);
        assert_eq!(sum.get("agg.fold_ns"), 400);
        // Merge equals recording the same samples directly (exactness the
        // driver's cumulative-metrics monotonicity test relies on).
        let mut direct = Metrics::new();
        direct.record_ns("agg.fold_ns", 100);
        direct.record_ns("agg.fold_ns", 200);
        direct.record_ns("agg.fold_ns", 100);
        assert_eq!(sum, direct);
    }

    #[test]
    fn record_since_lands_histogram_sample() {
        let mut m = Metrics::new();
        let s = Span::start();
        s.stop(&mut m, "test.span_ns");
        assert_eq!(m.histogram("test.span_ns").unwrap().count(), 1);
        assert!(m.quantile_ns("test.span_ns", 0.5).is_some());
        assert_eq!(m.quantile_ns("missing", 0.5), None);
    }

    #[test]
    fn display_renders_groups() {
        let mut m = Metrics::new();
        m.add("agg.fold_ns", 2_000_000);
        m.add("agg.fold_rows", 41);
        let s = m.to_string();
        assert!(s.contains("agg:"));
        assert!(s.contains("agg.fold_rows"));
        assert!(s.contains("ms"));
    }
}
