//! Samples a run collects and the metrics computed from them.

use crate::spec::{CI_TARGET, END_TO_END, PER_LAYER};
use crate::stats::{batch_growth, mean, median, midmean, percentile};
use iolap_core::{BatchReport, Metrics};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// What one client saw of one query, from submit to its last report.
#[derive(Clone, Debug, Default)]
pub struct QueryRun {
    /// Sample key: the query id, with `/ci` appended for sessions that
    /// carry a `relative_ci` stop policy.
    pub query: String,
    /// Arrival of report `i` in the client's hands, ms since submit.
    pub arrivals_ms: Vec<f64>,
    /// `max_rel_ci` of report `i` (`None`: no error estimate).
    pub cis: Vec<Option<f64>>,
    /// Processing time report `i` carries for its own batch, ms.
    pub batch_ms: Vec<f64>,
    /// Streamed rows the query consumed.
    pub rows: usize,
    /// Whether the run went on to the final exact report.
    pub complete: bool,
    /// First report received after a server restart: the wait for it is
    /// not a batch gap.
    pub restart_at: Option<usize>,
}

impl QueryRun {
    /// Submit → first report.
    pub fn ttfa_ms(&self) -> f64 {
        self.arrivals_ms.first().copied().unwrap_or(0.0)
    }

    /// Submit → last report.
    pub fn total_ms(&self) -> f64 {
        self.arrivals_ms.last().copied().unwrap_or(0.0)
    }

    /// Submit → first report within [`CI_TARGET`]; the total when none is.
    pub fn ttt_ms(&self) -> f64 {
        self.cis
            .iter()
            .position(|ci| ci.is_some_and(|w| w <= CI_TARGET))
            .map_or(self.total_ms(), |i| self.arrivals_ms[i])
    }
}

/// Per-query sample vectors.
#[derive(Clone, Debug, Default)]
pub struct PerQuery {
    ttfa: Vec<f64>,
    ttt: Vec<f64>,
    total: Vec<f64>,
    baseline: Vec<f64>,
    /// Waits between consecutive updates.
    updates: Vec<f64>,
    /// Per batch index: the processing time that batch's report carried.
    batch_ms: Vec<Vec<f64>>,
}

/// Everything the end-to-end metrics are computed from.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    per_query: BTreeMap<String, PerQuery>,
    rows: usize,
    runs: usize,
    /// Wall clock the runs were timed over, seconds.
    pub wall_s: f64,
    /// Operations attempted (queries, sessions, appends, recoveries).
    pub attempted: u64,
    /// Operations that errored, were refused or returned a wrong answer.
    pub failed: u64,
}

impl Samples {
    /// Record one finished query run.
    pub fn add_run(&mut self, run: &QueryRun) {
        let q = self.per_query.entry(run.query.clone()).or_default();
        q.ttfa.push(run.ttfa_ms());
        q.ttt.push(run.ttt_ms());
        if run.complete {
            q.total.push(run.total_ms());
            if q.batch_ms.len() < run.batch_ms.len() {
                q.batch_ms.resize(run.batch_ms.len(), Vec::new());
            }
            for (slot, ms) in q.batch_ms.iter_mut().zip(&run.batch_ms) {
                slot.push(*ms);
            }
        }
        // An update is one or more reports reaching the client together
        // (one `step`, or one poll response). The wait between updates is
        // what the client waits for a fresher answer.
        let t = &run.arrivals_ms;
        let mut first = 0;
        while first < t.len() {
            let end = first + t[first..].iter().take_while(|&&x| x == t[first]).count();
            let spans_restart = run.restart_at.is_some_and(|r| (first..end).contains(&r));
            if first > 0 && !spans_restart {
                q.updates.push(t[first] - t[first - 1]);
            }
            first = end;
        }
        self.rows += run.rows;
        self.runs += 1;
    }

    /// Record one one-shot batch execution of `query`.
    pub fn add_baseline(&mut self, query: &str, ms: f64) {
        self.per_query
            .entry(query.to_string())
            .or_default()
            .baseline
            .push(ms);
    }

    /// Sum over queries of the typical total, for `trace.overhead_pct`.
    pub fn sum_of_totals(&self) -> f64 {
        self.per_query.values().map(|q| midmean(&q.total)).sum()
    }

    /// Query runs recorded.
    pub fn runs(&self) -> usize {
        self.runs
    }

    /// The end-to-end metrics except `setup_s`, as `(name, value,
    /// samples)`. A query's value is the midmean over its repeats.
    /// `serving` reports `total_ms` as the mean over run-to-completion
    /// queries, local workloads as their sum.
    pub fn end_to_end(&self, serving: bool) -> Vec<(&'static str, f64, usize)> {
        let qs: Vec<&PerQuery> = self.per_query.values().collect();
        let of = |f: fn(&PerQuery) -> &Vec<f64>, typical: fn(&[f64]) -> f64| -> Vec<f64> {
            qs.iter()
                .filter(|q| !f(q).is_empty())
                .map(|q| typical(f(q)))
                .collect()
        };
        let n = |f: fn(&PerQuery) -> &Vec<f64>| qs.iter().map(|q| f(q).len()).sum::<usize>();
        let totals = of(|q| &q.total, midmean);
        let waits: Vec<f64> = qs.iter().flat_map(|q| &q.updates).copied().collect();
        // Only queries with both a total and a one-shot time enter the ratio.
        let (num, den) = qs
            .iter()
            .filter(|q| !q.total.is_empty() && !q.baseline.is_empty())
            .fold((0.0, 0.0), |(a, b), q| {
                (a + midmean(&q.total), b + midmean(&q.baseline))
            });
        let growth = qs
            .iter()
            .filter_map(|q| batch_growth(&q.batch_ms))
            .fold(0.0_f64, f64::max);
        let total = if serving {
            mean(&totals)
        } else {
            totals.iter().sum()
        };
        vec![
            ("ttfa_ms", mean(&of(|q| &q.ttfa, midmean)), n(|q| &q.ttfa)),
            ("ttt_ms", mean(&of(|q| &q.ttt, midmean)), n(|q| &q.ttt)),
            ("total_ms", total, n(|q| &q.total)),
            (
                "batch_p50_ms",
                mean(&of(|q| &q.updates, median)),
                waits.len(),
            ),
            ("batch_p95_ms", percentile(&waits, 0.95), waits.len()),
            ("batch_growth", growth, n(|q| &q.total)),
            (
                "slowdown_vs_batch",
                if den > 0.0 { num / den } else { 0.0 },
                n(|q| &q.baseline),
            ),
            ("rows_per_s", self.rows as f64 / self.wall_s, self.runs),
            ("queries_per_s", self.runs as f64 / self.wall_s, self.runs),
        ]
    }

    /// Sum over queries of the typical one-shot batch time.
    pub fn baseline_ms(&self) -> f64 {
        self.per_query.values().map(|q| midmean(&q.baseline)).sum()
    }
}

/// Counters the program returned in its `BatchReport`s, summed over the
/// traced query runs.
#[derive(Clone, Debug, Default)]
pub struct Prog {
    metrics: Metrics,
    runs: u64,
    elapsed_ns: u128,
    self_ns: u128,
    recomputed: u64,
    failures: u64,
    state_join: u64,
    state_other: u64,
    batches: u64,
    clean: u64,
    step_ms: Vec<f64>,
    first_step_ms: Vec<f64>,
}

impl Prog {
    /// Fold in the reports of one query run.
    pub fn absorb(&mut self, reports: &[BatchReport]) {
        self.runs += 1;
        for (i, r) in reports.iter().enumerate() {
            self.metrics.merge(&r.metrics);
            self.elapsed_ns += r.elapsed.as_nanos();
            self.self_ns += r
                .self_time_ns
                .iter()
                .map(|(_, ns)| u128::from(*ns))
                .sum::<u128>();
            self.recomputed += r.stats.recomputed_tuples as u64;
            self.failures += r.stats.failures as u64;
            self.batches += 1;
            self.clean += u64::from(!r.recovered);
            let ms = r.elapsed.as_secs_f64() * 1e3;
            if i == 0 {
                self.first_step_ms.push(ms);
            } else {
                self.step_ms.push(ms);
            }
        }
        if let Some(last) = reports.last() {
            self.state_join += last.state_bytes_join as u64;
            self.state_other += last.state_bytes_other as u64;
        }
    }

    /// Write the `core.*` and `bootstrap.*` counters into `layers`.
    pub fn report(&self, layers: &mut Layers) {
        if self.runs == 0 {
            return;
        }
        let runs = self.runs as f64;
        let elapsed = self.elapsed_ns as f64;
        layers.set("core.driver.first_step_ms", median(&self.first_step_ms));
        layers.set("core.driver.step_p50_ms", median(&self.step_ms));
        layers.set("core.driver.step_p95_ms", percentile(&self.step_ms, 0.95));
        layers.set(
            "bootstrap.weights_share",
            self.metrics.get("scan.weights_ns") as f64 / elapsed,
        );
        // Program counter → declared name, as a mean per query run; `_ns`
        // counters are reported in ms.
        const PROG: [(&str, &str); 19] = [
            ("range.checks", "bootstrap.range_checks"),
            ("scan.rows", "core.ops.scan_rows"),
            ("select.filter_ns", "core.ops.select_filter_ms"),
            ("select.classify_ns", "core.ops.select_classify_ms"),
            ("select.nondet_rows", "core.ops.select_nondet_rows"),
            ("join.probe_ns", "core.ops.join_probe_ms"),
            ("join.probe_rows", "core.ops.join_probe_rows"),
            ("agg.fold_ns", "core.ops.agg_fold_ms"),
            ("agg.fold_rows", "core.ops.agg_fold_rows"),
            ("agg.publish_ns", "core.ops.agg_publish_ms"),
            ("sink.publish_ns", "core.ops.sink_publish_ms"),
            ("registry.derefs", "core.registry.derefs"),
            ("registry.publish_bytes", "core.registry.publish_bytes"),
            ("ckpt.save_ns", "core.ckpt.save_ms"),
            ("ckpt.clone_bytes", "core.ckpt.clone_bytes"),
            ("recovery.replays", "core.recovery.replays"),
            ("recovery.replayed_rows", "core.recovery.replayed_rows"),
            ("recovery.replay_ns", "core.recovery.replay_ms"),
            ("recovery.restore_ns", "core.recovery.restore_ms"),
        ];
        for (counter, name) in PROG {
            let per_ms = if counter.ends_with("_ns") { 1e6 } else { 1.0 };
            layers.set(name, self.metrics.get(counter) as f64 / per_ms / runs);
        }
        layers.set("core.ops.recomputed_tuples", self.recomputed as f64 / runs);
        layers.set("core.ops.state_bytes_join", self.state_join as f64 / runs);
        layers.set("core.ops.state_bytes_other", self.state_other as f64 / runs);
        layers.set("core.recovery.failures", self.failures as f64 / runs);
        layers.set(
            "core.recovery.clean_batch_ratio",
            self.clean as f64 / self.batches as f64,
        );
        layers.set(
            "trace.attribution_gap_pct",
            100.0 * (self.self_ns as f64 - elapsed).abs() / elapsed,
        );
    }
}

/// Per-layer metric values by declared name; unset names read 0.
#[derive(Clone, Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Set `name`, which must be declared in [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} undeclared"
        );
        self.0
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    /// All declared per-layer metrics in declaration order.
    pub fn all(&self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                unit,
                value: self.0.get(name).copied().unwrap_or(0.0),
                samples: 0,
            })
            .collect()
    }
}

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Declared name.
    pub name: &'static str,
    /// Declared unit.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Samples behind it (0 when not a statistic over samples).
    pub samples: usize,
}

/// Attach units to `(name, value, samples)` end-to-end triples.
pub fn with_units(values: Vec<(&'static str, f64, usize)>) -> Vec<Metric> {
    END_TO_END
        .iter()
        .filter_map(|&(name, unit)| {
            values
                .iter()
                .find(|(n, _, _)| *n == name)
                .map(|&(_, value, samples)| Metric {
                    name,
                    unit,
                    value,
                    samples,
                })
        })
        .collect()
}

/// The last line of a run's standard output, as the benchmark contract
/// defines it.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// `VmHWM` of this process in MB (0 where `/proc` is unreadable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
