//! # iolap-bench
//!
//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (§8). Each subcommand of the `experiments` binary prints the
//! same rows/series the paper reports; `EXPERIMENTS.md` records
//! paper-vs-measured shape comparisons. Correctness is gated by
//! `cargo test`, not by this crate.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod serve;

// Workload constructors install the static plan verifier into the core
// driver's debug hook, so every debug-build experiment re-verifies its
// rewritten plan before batch 0.
use iolap_baselines::{run_baseline_plan, BaselineReport, HdaDriver};
use iolap_core::{BatchReport, IolapConfig, IolapDriver, Metrics, TraceEvent, TraceMode};
use iolap_engine::{plan_sql, FunctionRegistry, PlannedQuery};
use iolap_relation::{Catalog, PartitionMode};
use iolap_workloads::QuerySpec;
use std::time::Duration;

/// Experiment scale knobs (shrunk from the paper's 1–2 TB to laptop scale).
#[derive(Clone, Copy, Debug)]
pub struct ExpScale {
    /// TPC-H-lite scale factor (`1.0` ≈ 6000 lineorder rows).
    pub tpch_sf: f64,
    /// Conviva sessions rows.
    pub conviva_rows: usize,
    /// Mini-batches per query (the paper's 1 TB / 11.5 GB ≈ 87 batches;
    /// we default to a smaller count that still shows the per-batch
    /// trends).
    pub batches: usize,
    /// Bootstrap trials (paper: 100).
    pub trials: usize,
    /// RNG seed.
    pub seed: u64,
}

impl ExpScale {
    /// Full experiment scale (the default).
    pub fn full() -> Self {
        ExpScale {
            tpch_sf: 4.0,
            conviva_rows: 24_000,
            batches: 20,
            trials: 100,
            seed: 2016,
        }
    }

    /// Reduced scale for a quick pass over every figure.
    pub fn bench() -> Self {
        ExpScale {
            tpch_sf: 0.5,
            conviva_rows: 3_000,
            batches: 8,
            trials: 40,
            seed: 2016,
        }
    }

    /// Parse an `IOLAP_SCALE` value: `full`, `bench`, or a positive finite
    /// multiplier on the `full` data sizes. Anything else is an error, so
    /// a typo never silently starts a full-scale run.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "full" => Ok(ExpScale::full()),
            "bench" => Ok(ExpScale::bench()),
            _ => match s.parse::<f64>() {
                Ok(mult) if mult.is_finite() && mult > 0.0 => {
                    let base = ExpScale::full();
                    Ok(ExpScale {
                        tpch_sf: base.tpch_sf * mult,
                        conviva_rows: ((base.conviva_rows as f64) * mult) as usize,
                        ..base
                    })
                }
                _ => Err(format!(
                    "IOLAP_SCALE={s:?}: expected `full`, `bench` or a positive multiplier"
                )),
            },
        }
    }

    /// Scale taken from the `IOLAP_SCALE` environment variable (see
    /// [`ExpScale::parse`]); `full` when unset.
    pub fn from_env() -> Result<Self, String> {
        match std::env::var("IOLAP_SCALE") {
            Ok(s) => ExpScale::parse(&s),
            Err(_) => Ok(ExpScale::full()),
        }
    }

    /// Default iOLAP config at this scale.
    pub fn config(&self) -> IolapConfig {
        let mut c = IolapConfig::with_batches(self.batches)
            .trials(self.trials)
            .seed(self.seed);
        c.partition_mode = PartitionMode::RowShuffle;
        c
    }
}

/// A prepared workload: catalog + registry + query list.
pub struct Workload {
    /// Workload label (`"TPC-H"` / `"Conviva"`).
    pub name: &'static str,
    /// The data.
    pub catalog: Catalog,
    /// Functions (UDFs/UDAFs for Conviva).
    pub registry: FunctionRegistry,
    /// The query suite.
    pub queries: Vec<QuerySpec>,
}

/// Build the TPC-H-lite workload at `scale`.
pub fn tpch_workload(scale: &ExpScale) -> Workload {
    iolap_analyze::install();
    Workload {
        name: "TPC-H",
        catalog: iolap_workloads::tpch_catalog(scale.tpch_sf, scale.seed),
        registry: FunctionRegistry::with_builtins(),
        queries: iolap_workloads::tpch_queries(),
    }
}

/// Build the Conviva workload at `scale`.
pub fn conviva_workload(scale: &ExpScale) -> Workload {
    iolap_analyze::install();
    Workload {
        name: "Conviva",
        catalog: iolap_workloads::conviva_catalog(scale.conviva_rows, scale.seed),
        registry: iolap_workloads::conviva_registry(),
        queries: iolap_workloads::conviva_queries(),
    }
}

impl Workload {
    /// Plan one of this workload's queries.
    pub fn plan(&self, q: &QuerySpec) -> PlannedQuery {
        plan_sql(q.sql, &self.catalog, &self.registry).unwrap_or_else(|e| panic!("{}: {e}", q.id))
    }

    /// Run a query through iOLAP to completion.
    pub fn run_iolap(&self, q: &QuerySpec, config: IolapConfig) -> Vec<BatchReport> {
        let pq = self.plan(q);
        let mut d = IolapDriver::from_plan(&pq, &self.catalog, q.stream_table, config)
            .unwrap_or_else(|e| panic!("{}: {e}", q.id));
        d.run_to_completion()
            .unwrap_or_else(|e| panic!("{}: {e}", q.id))
    }

    /// Run a query through iOLAP with the full event journal armed,
    /// returning the batch reports, the recorded trace, and the driver's
    /// cumulative metrics (histograms included) — the `experiments trace`
    /// subcommand's data source.
    pub fn run_iolap_traced(
        &self,
        q: &QuerySpec,
        config: IolapConfig,
    ) -> (Vec<BatchReport>, Vec<TraceEvent>, Metrics) {
        let pq = self.plan(q);
        let mut d = IolapDriver::from_plan(
            &pq,
            &self.catalog,
            q.stream_table,
            config.trace_mode(TraceMode::Journal),
        )
        .unwrap_or_else(|e| panic!("{}: {e}", q.id));
        let reports = d
            .run_to_completion()
            .unwrap_or_else(|e| panic!("{}: {e}", q.id));
        let events = d.trace_events();
        let cumulative = d.metrics().clone();
        (reports, events, cumulative)
    }

    /// Run a query through HDA to completion.
    pub fn run_hda(&self, q: &QuerySpec, config: IolapConfig) -> Vec<BatchReport> {
        let pq = self.plan(q);
        let mut d = HdaDriver::from_plan(&pq, &self.catalog, q.stream_table, config)
            .unwrap_or_else(|e| panic!("{}: {e}", q.id));
        d.run_to_completion()
            .unwrap_or_else(|e| panic!("{}: {e}", q.id))
    }

    /// Run the exact batch baseline, timed.
    pub fn run_baseline(&self, q: &QuerySpec) -> BaselineReport {
        let pq = self.plan(q);
        run_baseline_plan(&pq, &self.catalog).unwrap_or_else(|e| panic!("{}: {e}", q.id))
    }
}

/// Total latency across batch reports.
pub fn total_latency(reports: &[BatchReport]) -> Duration {
    reports.iter().map(|r| r.elapsed).sum()
}

/// Latency until the driver has processed at least `fraction` of the data
/// (the paper's "iOLAP on 5% / 10% data" bars).
pub fn latency_at_fraction(reports: &[BatchReport], fraction: f64) -> Duration {
    let mut acc = Duration::ZERO;
    for r in reports {
        acc += r.elapsed;
        if r.fraction >= fraction {
            return acc;
        }
    }
    acc
}

/// `a / b` as a float ratio of durations (`1.0` when `b` is zero).
pub fn ratio(a: Duration, b: Duration) -> f64 {
    let (a, b) = (a.as_secs_f64(), b.as_secs_f64());
    if b == 0.0 {
        1.0
    } else {
        a / b
    }
}

/// Format a duration in milliseconds with 2 decimals.
pub fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

/// Print a header line for an experiment section.
pub fn section(title: &str) {
    println!("\n=== {title} ===");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_build_at_bench_scale() {
        let scale = ExpScale::bench();
        let t = tpch_workload(&scale);
        assert!(t.catalog.contains("lineorder"));
        let c = conviva_workload(&scale);
        assert!(c.catalog.contains("sessions"));
        assert_eq!(c.queries.len(), 13); // SBI + C1..C12
    }

    #[test]
    fn scale_parse_rejects_anything_but_full_bench_or_a_positive_multiplier() {
        assert_eq!(ExpScale::parse("bench").unwrap().conviva_rows, 3_000);
        assert_eq!(ExpScale::parse("full").unwrap().conviva_rows, 24_000);
        let half = ExpScale::parse("0.5").unwrap();
        assert_eq!(half.conviva_rows, 12_000);
        assert_eq!(half.tpch_sf, 2.0);
        assert_eq!(half.batches, ExpScale::full().batches);
        for bad in ["smoke", "0", "-1", "NaN"] {
            let err = ExpScale::parse(bad).unwrap_err();
            assert!(err.contains(bad), "{bad}: {err}");
        }
    }

    #[test]
    fn latency_helpers() {
        let scale = ExpScale::bench();
        let w = conviva_workload(&scale);
        let q = w.queries.iter().find(|q| q.id == "C3").unwrap().clone();
        let reports = w.run_iolap(&q, scale.config());
        assert_eq!(reports.len(), scale.batches);
        let at_half = latency_at_fraction(&reports, 0.5);
        let total = total_latency(&reports);
        assert!(at_half <= total);
        assert!(ratio(total, at_half) >= 1.0);
    }
}
