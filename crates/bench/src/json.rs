//! Hand-rolled JSON emission for the benchmark record (`--json` flag of the
//! `experiments` binary).
//!
//! The offline build carries no serde; the schema here is small and stable
//! enough that string assembly is the simpler dependency-free choice. The
//! emitted document captures, for every workload query: the exact-baseline
//! latency, then per-batch wall-clock, driver stats, and the per-operator
//! metrics breakdown recorded by `iolap_core::metrics`.

use crate::analysis::{run_analysis, AnalysisRecord};
use crate::durability::DurabilityRecord;
use crate::observe::TelemetryRecord;
use crate::serve::{ServeCell, ServingRecord};
use crate::shard::{ShardCell, ShardingRecord};
use crate::{
    fault_storm_kinds, measure_trace_overhead, total_latency, ExpScale, FaultStormRun,
    TraceOverhead, Workload,
};
use iolap_core::{BatchReport, Histogram, IolapConfig, Metrics, TraceMode};
use std::fmt::Write as _;

/// Version of the `BENCH_*.json` document layout. Bump on any breaking
/// change to key names or nesting so downstream diffing tools can refuse
/// records they do not understand.
///
/// * 1 — implicit (documents without the field): scale / verification /
///   faults / workloads.
/// * 2 — adds `schema_version`, `seed`, the full `config` snapshot, the
///   `trace_overhead` record, and per-batch `self_time_ns`.
/// * 3 — adds the `serving` section (multi-tenant sweep from
///   `experiments serve`: per-cell throughput, batch-latency quantiles,
///   per-session time-to-target, admission-probe outcome).
/// * 4 — adds the `analysis` section (static-analysis sweep from
///   `experiments analyze`: per-rule lint counts with finding detail,
///   allowlist absorption, and the plan-space model-checker report).
/// * 5 — adds the `sharding` section (scale-out sweep from
///   `experiments shard`: per-cell throughput and byte-identity vs the
///   unsharded baseline, dispatch/merge latency, shipped partial-state
///   bytes, the loopback TCP probe, and the 2-shard fault-storm replay).
/// * 6 — adds the `telemetry` section (telemetry-plane sweep from
///   `experiments observe`: exposition/trace determinism, cross-shard
///   canonical-trace identity, exposition-golden outcome, SLO burn
///   counters, and the measured fleet overhead against the 5 % budget);
///   the `sharding.tcp` probe also gains the `worker_folds` /
///   `worker_acked` / `worker_response_bytes` counters.
/// * 7 — adds the `durability` section (durable-store sweep from
///   `experiments durability`: crash-point-matrix cell counts with the
///   byte-identical tally, streaming-append Theorem-1 cells, replay
///   counters, and the fsync-on overhead against the 25 % budget).
pub const SCHEMA_VERSION: u32 = 7;

pub use iolap_server::wire::escape;

/// A finite JSON number; non-finite floats become `null` (JSON has no NaN).
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// Render a [`Metrics`] bag grouped by operator prefix:
/// `{"agg": {"agg.fold_ns": 12, ...}, "join": {...}}`.
pub fn metrics_json(m: &Metrics) -> String {
    let mut out = String::from("{");
    let mut first_group = true;
    for (op, entries) in m.by_operator() {
        if !first_group {
            out.push(',');
        }
        first_group = false;
        let _ = write!(out, "\"{}\":{{", escape(op));
        let mut first = true;
        for (name, v) in entries {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\"{}\":{v}", escape(name));
        }
        out.push('}');
    }
    out.push('}');
    out
}

/// Full [`IolapConfig`] snapshot, so a benchmark record is reproducible
/// from its own header without consulting defaults that may drift.
pub fn config_json(c: &IolapConfig) -> String {
    let partition = match c.partition_mode {
        iolap_relation::PartitionMode::BlockShuffle { block_rows } => {
            format!("{{\"mode\":\"block_shuffle\",\"block_rows\":{block_rows}}}")
        }
        iolap_relation::PartitionMode::RowShuffle => "{\"mode\":\"row_shuffle\"}".to_string(),
        iolap_relation::PartitionMode::Sequential => "{\"mode\":\"sequential\"}".to_string(),
        iolap_relation::PartitionMode::StratifiedShuffle { column } => {
            format!("{{\"mode\":\"stratified_shuffle\",\"column\":{column}}}")
        }
    };
    let trace = match c.trace_mode {
        TraceMode::Off => "{\"mode\":\"off\"}".to_string(),
        TraceMode::Journal => "{\"mode\":\"journal\"}".to_string(),
        TraceMode::Flight { capacity } => {
            format!("{{\"mode\":\"flight\",\"capacity\":{capacity}}}")
        }
    };
    let faults = match &c.fault_plan {
        None => "null".to_string(),
        Some(p) => {
            let mut s = format!("{{\"seed\":{},\"faults\":[", p.seed);
            for (i, f) in p.faults.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(
                    s,
                    "{{\"kind\":\"{}\",\"batch\":{}}}",
                    escape(f.kind.label()),
                    f.batch
                );
            }
            s.push_str("]}");
            s
        }
    };
    format!(
        concat!(
            "{{\"trials\":{},\"slack\":{},\"seed\":{},\"num_batches\":{},",
            "\"partition\":{},\"confidence\":{},\"opt_tuple_partition\":{},",
            "\"opt_lazy_lineage\":{},\"checkpoint_interval\":{},",
            "\"parallelism\":{},\"max_recovery_depth\":{},",
            "\"max_checkpoints\":{},\"fault_plan\":{},\"trace\":{}}}"
        ),
        c.trials,
        num(c.slack),
        c.seed,
        c.num_batches,
        partition,
        num(c.confidence),
        c.opt_tuple_partition,
        c.opt_lazy_lineage,
        c.checkpoint_interval,
        c.parallelism,
        c.max_recovery_depth,
        c.max_checkpoints,
        faults,
        trace,
    )
}

/// The tracing-overhead record: per-batch untraced/traced latency pairs on
/// the Fig 9(a) C2 sweep, totals, and the measured percentage against the
/// 5 % budget the trace layer is designed to.
pub fn trace_overhead_json(t: &TraceOverhead) -> String {
    let mut out = String::from("{\"query\":\"C2\",\"per_batch_ms\":[");
    for (i, (off, on)) in t.per_batch_ms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "[{},{}]", num(*off), num(*on));
    }
    let _ = write!(
        out,
        "],\"total_off_ms\":{},\"total_on_ms\":{},\"events\":{},\
         \"overhead_pct\":{},\"budget_pct\":5.0}}",
        num(t.total_off.as_secs_f64() * 1e3),
        num(t.total_on.as_secs_f64() * 1e3),
        t.events,
        num(t.pct()),
    );
    out
}

/// One batch report as a JSON object.
pub fn batch_json(r: &BatchReport) -> String {
    let mut self_time = String::from("{");
    for (i, (name, ns)) in r.self_time_ns.iter().enumerate() {
        if i > 0 {
            self_time.push(',');
        }
        let _ = write!(self_time, "\"{}\":{ns}", escape(name));
    }
    self_time.push('}');
    format!(
        concat!(
            "{{\"batch\":{},\"elapsed_ms\":{},\"fraction\":{},",
            "\"recovered\":{},\"recomputed_tuples\":{},\"shipped_bytes\":{},",
            "\"failures\":{},\"state_bytes_join\":{},\"state_bytes_other\":{},",
            "\"self_time_ns\":{},\"operators\":{}}}"
        ),
        r.batch,
        num(r.elapsed.as_secs_f64() * 1e3),
        num(r.fraction),
        r.recovered,
        r.stats.recomputed_tuples,
        r.stats.shipped_bytes,
        r.stats.failures,
        r.state_bytes_join,
        r.state_bytes_other,
        self_time,
        metrics_json(&r.metrics),
    )
}

/// Static-analysis record: per-rule plan-verifier counts across every
/// workload query (zero-filled, so "0 violations" is an explicit record)
/// plus per-rule source-lint violation counts after the audited allowlist
/// is subtracted.
pub fn verification_json(workloads: &[Workload]) -> String {
    let mut diags = Vec::new();
    let mut rewrite_errors = 0usize;
    for w in workloads {
        for q in &w.queries {
            let pq = w.plan(q);
            match iolap_analyze::verify_planned(&pq, q.stream_table) {
                Ok(d) => diags.extend(d),
                Err(_) => rewrite_errors += 1,
            }
        }
    }
    let root = iolap_analyze::repo_root();
    let allow =
        iolap_analyze::Allowlist::load(&root.join("scripts/lint-allow.txt")).unwrap_or_default();
    let findings = iolap_analyze::lint_tree(&root).unwrap_or_default();
    let allowlisted = findings.iter().filter(|f| allow.allows(f)).count();
    let violations: Vec<_> = findings
        .iter()
        .filter(|f| !allow.allows(f))
        .cloned()
        .collect();

    let mut out = String::from("{\"plan_rules\":{");
    for (i, (r, n)) in iolap_analyze::rule_counts(&diags).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{n}", r.id());
    }
    let _ = write!(
        out,
        "}},\"rewrite_errors\":{rewrite_errors},\"lint_rules\":{{"
    );
    for (i, (r, n)) in iolap_analyze::lint_counts(&violations).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{n}", r.id());
    }
    let _ = write!(out, "}},\"lint_allowlisted\":{allowlisted}}}");
    out
}

/// Static-analysis sweep record (`"analysis"` section): per-rule counts of
/// the lint violations that survive the allowlist (zero-filled, so a clean
/// run is an explicit record), the full finding detail, allowlist
/// absorption, and the plan-space model-checker report.
pub fn analysis_json(rec: &AnalysisRecord) -> String {
    let mut out = format!(
        "{{\"smoke\":{},\"wall_ms\":{},\"lint_rules\":{{",
        rec.smoke,
        num(rec.wall_ms)
    );
    for (i, (r, n)) in iolap_analyze::lint_counts(&rec.lint_violations)
        .iter()
        .enumerate()
    {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{n}", r.id());
    }
    let _ = write!(
        out,
        "}},\"lint_allowlisted\":{},\"lint_findings\":[",
        rec.lint_allowlisted
    );
    for (i, f) in rec.lint_violations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&iolap_analyze::finding_json(f));
    }
    let _ = write!(out, "],\"model\":{}}}", rec.model.to_json());
    out
}

/// Fault-storm record: per-kind aggregates over the sweep plus the full
/// per-run detail, so a regression in any single cell stays attributable.
pub fn faults_json(storm: &[FaultStormRun]) -> String {
    let mut out = String::from("{\"kinds\":{");
    for (i, (kind, _)) in fault_storm_kinds().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let of_kind: Vec<_> = storm.iter().filter(|r| r.kind == *kind).collect();
        let _ = write!(
            out,
            "\"{}\":{{\"runs\":{},\"fired\":{},\"agree\":{}}}",
            escape(kind),
            of_kind.len(),
            of_kind.iter().filter(|r| r.fired > 0).count(),
            of_kind.iter().filter(|r| r.agree).count()
        );
    }
    out.push_str("},\"runs\":[");
    for (i, r) in storm.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            concat!(
                "{{\"workload\":\"{}\",\"query\":\"{}\",\"kind\":\"{}\",",
                "\"batch\":{},\"interval\":{},\"fired\":{},",
                "\"recoveries\":{},\"agree\":{}}}"
            ),
            escape(r.workload),
            escape(r.query),
            escape(r.kind),
            r.batch,
            r.interval,
            r.fired,
            r.recoveries,
            r.agree
        );
    }
    out.push_str("]}");
    out
}

/// Batch-latency distribution as quantiles. Empty histograms emit `null`
/// quantiles (never fabricated numbers — see `Histogram::quantile`).
fn latency_json(h: &Histogram) -> String {
    let q = |p: f64| {
        h.quantile(p)
            .map(|n| n.to_string())
            .unwrap_or_else(|| "null".to_string())
    };
    let bound = |b: Option<u64>| {
        b.map(|n| n.to_string())
            .unwrap_or_else(|| "null".to_string())
    };
    format!(
        concat!(
            "{{\"count\":{},\"min_ns\":{},\"max_ns\":{},",
            "\"p50_ns\":{},\"p95_ns\":{},\"p99_ns\":{}}}"
        ),
        h.count(),
        bound(h.min()),
        bound(h.max()),
        q(0.50),
        q(0.95),
        q(0.99),
    )
}

fn serve_cell_json(c: &ServeCell) -> String {
    let mut out = format!(
        concat!(
            "{{\"workers\":{},\"sessions\":{},\"arrival\":\"{}\",",
            "\"elapsed_ms\":{},\"batches_delivered\":{},",
            "\"throughput_batches_per_s\":{},\"batch_latency\":{},",
            "\"violations\":{},\"session_results\":["
        ),
        c.workers,
        c.sessions,
        escape(c.arrival),
        num(c.elapsed_ms),
        c.batches_delivered,
        num(c.throughput_batches_per_s),
        latency_json(&c.batch_latency),
        c.violations,
    );
    for (i, s) in c.session_results.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            concat!(
                "{{\"label\":\"{}\",\"query\":\"{}\",\"policy\":\"{}\",",
                "\"state\":\"{}\",\"end\":\"{}\",\"batches_run\":{},",
                "\"total_batches\":{},\"stopped_early\":{},",
                "\"exact_vs_solo\":{},\"time_to_end_ms\":{}}}"
            ),
            escape(&s.label),
            escape(&s.query),
            escape(&s.policy),
            escape(&s.state),
            escape(&s.end),
            s.batches_run,
            s.total_batches,
            s.stopped_early,
            s.exact_vs_solo,
            num(s.time_to_end_ms),
        );
    }
    out.push_str("]}");
    out
}

/// Serving-layer record: the multi-tenant sweep cells plus the
/// admission-control probe outcome.
pub fn serving_json(rec: &ServingRecord) -> String {
    let mut out = format!(
        "{{\"smoke\":{},\"admission_probe\":{{\"rejected_when_full\":{}}},\"cells\":[",
        rec.smoke, rec.admission_rejected
    );
    for (i, c) in rec.cells.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&serve_cell_json(c));
    }
    let _ = write!(out, "],\"violations\":{}}}", rec.violations());
    out
}

fn shard_cell_json(c: &ShardCell) -> String {
    format!(
        concat!(
            "{{\"query\":\"{}\",\"shards\":{},\"batches\":{},\"rows\":{},",
            "\"elapsed_ms\":{},\"rows_per_s\":{},\"dispatch_ms\":{},",
            "\"merge_ms\":{},\"bytes_shipped\":{},\"identical\":{}}}"
        ),
        escape(c.query),
        c.shards,
        c.batches,
        c.rows,
        num(c.elapsed_ms),
        num(c.rows_per_s),
        num(c.dispatch_ms),
        num(c.merge_ms),
        c.bytes_shipped,
        c.identical,
    )
}

/// Sharding record: the scale-out sweep cells (shards × batch counts,
/// `shards = 0` is the single-process baseline), the loopback TCP probe
/// with its measured data-shipped bytes (`null` when the sandbox denies
/// loopback), and the 2-shard fault-storm replay tally.
pub fn sharding_json(rec: &ShardingRecord) -> String {
    let mut out = format!("{{\"smoke\":{},\"cells\":[", rec.smoke);
    for (i, c) in rec.cells.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&shard_cell_json(c));
    }
    let tcp = match &rec.tcp {
        None => "null".to_string(),
        Some(t) => format!(
            concat!(
                "{{\"shards\":{},\"identical\":{},\"bytes_shipped\":{},",
                "\"elapsed_ms\":{},\"worker_folds\":{},\"worker_acked\":{},",
                "\"worker_response_bytes\":{}}}"
            ),
            t.shards,
            t.identical,
            t.bytes_shipped,
            num(t.elapsed_ms),
            t.worker_folds,
            t.worker_acked,
            t.worker_response_bytes,
        ),
    };
    let _ = write!(
        out,
        concat!(
            "],\"tcp\":{},\"storm\":{{\"runs\":{},\"agree\":{}}},",
            "\"scaleout_win\":{},\"violations\":{}}}"
        ),
        tcp,
        rec.storm_runs,
        rec.storm_agree,
        rec.scaleout_win,
        rec.violations(),
    );
    out
}

/// Telemetry-plane record: determinism outcomes of the canonical
/// exposition/trace exports, the cross-shard trace-identity check, the
/// exposition-golden outcome, SLO burn counters, and the measured fleet
/// overhead against the 5 % budget (recorded, not asserted).
pub fn telemetry_json(rec: &TelemetryRecord) -> String {
    let s = &rec.slo;
    format!(
        concat!(
            "{{\"smoke\":{},\"sessions\":{},\"trace_events\":{},",
            "\"exposition_bytes\":{},\"determinism\":{{\"exposition\":{},",
            "\"trace\":{},\"cross_shard_trace\":{},\"golden\":{}}},",
            "\"slo\":{{\"ci_sessions\":{},\"ci_met\":{},\"ci_batches\":{},",
            "\"ci_batches_saved\":{},\"deadline_sessions\":{},",
            "\"deadline_met\":{},\"deadline_overrun\":{}}},",
            "\"overhead\":{{\"off_ms\":{},\"on_ms\":{},\"pct\":{},",
            "\"budget_pct\":5.0}},\"violations\":{}}}"
        ),
        rec.smoke,
        rec.sessions,
        rec.trace_events,
        rec.exposition_bytes,
        rec.exposition_deterministic,
        rec.trace_deterministic,
        rec.cross_shard_trace_identical,
        rec.golden_ok,
        s.ci_sessions,
        s.ci_met,
        s.ci_batches,
        s.ci_batches_saved,
        s.deadline_sessions,
        s.deadline_met,
        s.deadline_overrun,
        num(rec.overhead_off_ms),
        num(rec.overhead_on_ms),
        num(rec.overhead_pct()),
        rec.violations(),
    )
}

/// Durable-store record: crash-point-matrix outcomes (cells run vs
/// byte-identical after kill/restart/recover), streaming-append Theorem-1
/// cells, recovery replay counters, and the fsync-on overhead against the
/// 25 % budget (recorded, not asserted).
pub fn durability_json(rec: &DurabilityRecord) -> String {
    let queries = rec
        .queries
        .iter()
        .map(|q| format!("\"{}\"", escape(q)))
        .collect::<Vec<_>>()
        .join(",");
    format!(
        concat!(
            "{{\"smoke\":{},\"queries\":[{}],\"batches\":{},",
            "\"matrix\":{{\"cells\":{},\"identical\":{}}},",
            "\"append\":{{\"cells\":{},\"exact\":{}}},",
            "\"replayed_batches\":{},\"reapplied_appends\":{},",
            "\"stale_digests\":{},",
            "\"fsync\":{{\"off_ms\":{},\"on_ms\":{},\"pct\":{},",
            "\"budget_pct\":25.0}},\"violations\":{}}}"
        ),
        rec.smoke,
        queries,
        rec.batches,
        rec.matrix_cells,
        rec.matrix_identical,
        rec.append_cells,
        rec.append_exact,
        rec.replayed_batches,
        rec.reapplied_appends,
        rec.stale_digests,
        num(rec.fsync_off_ms),
        num(rec.fsync_on_ms),
        num(rec.fsync_overhead_pct()),
        rec.violations(),
    )
}

/// Run every query of `workloads` through the iOLAP driver and write the
/// full per-query / per-batch / per-operator record to `path`. `storm`
/// (typically a smoke-scale `fault_storm` sweep) lands as the `"faults"`
/// section; `serving` (from an `experiments serve` sweep) as the
/// `"serving"` section, `null` when the sweep was not run; `analysis`
/// (from an `experiments analyze` sweep) as the `"analysis"` section — a
/// fresh smoke-depth sweep runs when this invocation did not include one,
/// so the record is always self-contained; `sharding` (from an
/// `experiments shard` sweep) as the `"sharding"` section, `null` when
/// the sweep was not run; `telemetry` (from an `experiments observe`
/// sweep) as the `"telemetry"` section, `null` when the sweep was not
/// run; `durability` (from an `experiments durability` sweep) as the
/// `"durability"` section, `null` when the sweep was not run.
#[allow(clippy::too_many_arguments)]
pub fn write_bench_json(
    path: &str,
    scale: &ExpScale,
    workloads: &[Workload],
    storm: &[FaultStormRun],
    serving: Option<&ServingRecord>,
    analysis: Option<&AnalysisRecord>,
    sharding: Option<&ShardingRecord>,
    telemetry: Option<&TelemetryRecord>,
    durability: Option<&DurabilityRecord>,
) -> std::io::Result<()> {
    let mut out = String::from("{\n");
    let _ = write!(
        out,
        concat!(
            "\"schema_version\":{},\n\"seed\":{},\n",
            "\"scale\":{{\"tpch_sf\":{},\"conviva_rows\":{},\"batches\":{},",
            "\"trials\":{},\"seed\":{}}},\n\"config\":{},\n"
        ),
        SCHEMA_VERSION,
        scale.seed,
        num(scale.tpch_sf),
        scale.conviva_rows,
        scale.batches,
        scale.trials,
        scale.seed,
        config_json(&scale.config()),
    );
    let analysis = match analysis {
        Some(a) => analysis_json(a),
        None => analysis_json(&run_analysis(true)?),
    };
    let _ = write!(
        out,
        "\"trace_overhead\":{},\n\"verification\":{},\n\"analysis\":{},\n\"faults\":{},\n\"serving\":{},\n\"sharding\":{},\n\"telemetry\":{},\n\"durability\":{},\n\"workloads\":[\n",
        trace_overhead_json(&measure_trace_overhead(scale)),
        verification_json(workloads),
        analysis,
        faults_json(storm),
        serving
            .map(serving_json)
            .unwrap_or_else(|| "null".to_string()),
        sharding
            .map(sharding_json)
            .unwrap_or_else(|| "null".to_string()),
        telemetry
            .map(telemetry_json)
            .unwrap_or_else(|| "null".to_string()),
        durability
            .map(durability_json)
            .unwrap_or_else(|| "null".to_string()),
    );
    for (wi, w) in workloads.iter().enumerate() {
        if wi > 0 {
            out.push_str(",\n");
        }
        let _ = writeln!(out, "{{\"name\":\"{}\",\"queries\":[", escape(w.name));
        for (qi, q) in w.queries.iter().enumerate() {
            if qi > 0 {
                out.push_str(",\n");
            }
            let baseline = w.run_baseline(q);
            let (reports, cumulative) = w.run_iolap_with_metrics(q, scale.config());
            let _ = write!(
                out,
                concat!(
                    "{{\"id\":\"{}\",\"nested\":{},\"stream_table\":\"{}\",",
                    "\"baseline_ms\":{},\"total_ms\":{},\"cumulative\":{},",
                    "\"batches\":[\n"
                ),
                escape(q.id),
                q.nested,
                escape(q.stream_table),
                num(baseline.elapsed.as_secs_f64() * 1e3),
                num(total_latency(&reports).as_secs_f64() * 1e3),
                metrics_json(&cumulative),
            );
            for (bi, r) in reports.iter().enumerate() {
                if bi > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&batch_json(r));
            }
            out.push_str("\n]}");
        }
        out.push_str("\n]}");
    }
    out.push_str("\n]\n}\n");
    iolap_store::write_artifact(std::path::Path::new(path), out.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_json_groups() {
        let mut m = Metrics::new();
        m.add("agg.fold_ns", 5);
        m.add("agg.fold_rows", 2);
        m.add("join.probe_rows", 7);
        let s = metrics_json(&m);
        assert_eq!(
            s,
            "{\"agg\":{\"agg.fold_ns\":5,\"agg.fold_rows\":2},\
             \"join\":{\"join.probe_rows\":7}}"
        );
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(1.5), "1.5");
    }

    #[test]
    fn config_json_snapshots_every_knob() {
        let c = IolapConfig::with_batches(7)
            .trials(25)
            .seed(99)
            .flight_recorder();
        let s = config_json(&c);
        assert!(s.contains("\"num_batches\":7"), "{s}");
        assert!(s.contains("\"trials\":25"));
        assert!(s.contains("\"seed\":99"));
        assert!(s.contains("\"fault_plan\":null"));
        assert!(s.contains("\"trace\":{\"mode\":\"flight\",\"capacity\":"));
        let journal = config_json(&c.trace_mode(TraceMode::Journal));
        assert!(journal.contains("\"trace\":{\"mode\":\"journal\"}"));
    }

    #[test]
    fn config_json_records_fault_plans() {
        let c = IolapConfig::with_batches(4).fault_plan(
            iolap_core::FaultPlan::new(3).with(2, iolap_core::FaultKind::DropCheckpoint),
        );
        let s = config_json(&c);
        assert!(
            s.contains("\"fault_plan\":{\"seed\":3,\"faults\":[{\"kind\":\"drop_checkpoint\",\"batch\":2}]}"),
            "{s}"
        );
    }

    #[test]
    fn trace_overhead_json_shape() {
        let t = TraceOverhead {
            per_batch_ms: vec![(1.0, 1.05), (2.0, 2.1)],
            total_off: std::time::Duration::from_millis(3),
            total_on: std::time::Duration::from_micros(3090),
            events: 42,
        };
        let s = trace_overhead_json(&t);
        assert!(s.contains("\"per_batch_ms\":[[1,1.05],[2,2.1]]"), "{s}");
        assert!(s.contains("\"events\":42"));
        assert!(s.contains("\"budget_pct\":5.0"));
        assert!((t.pct() - 3.0).abs() < 0.1, "{}", t.pct());
    }

    #[test]
    fn faults_json_aggregates_per_kind() {
        let storm = vec![
            FaultStormRun {
                workload: "tpch",
                query: "Q17",
                kind: "fail_range",
                batch: 4,
                interval: 1,
                fired: 1,
                agree: true,
                recoveries: 1,
                dump: None,
            },
            FaultStormRun {
                workload: "tpch",
                query: "Q20",
                kind: "fail_range",
                batch: 4,
                interval: 1,
                fired: 0,
                agree: true,
                recoveries: 0,
                dump: None,
            },
        ];
        let s = faults_json(&storm);
        assert!(s.contains("\"fail_range\":{\"runs\":2,\"fired\":1,\"agree\":2}"));
        // Every registered kind appears even with zero runs.
        assert!(s.contains("\"perturb_ranges\":{\"runs\":0,\"fired\":0,\"agree\":0}"));
        assert!(s.contains("\"query\":\"Q17\""));
    }

    #[test]
    fn empty_latency_histogram_emits_null_quantiles() {
        let s = latency_json(&Histogram::new());
        assert!(
            s.contains("\"count\":0") && s.contains("\"p95_ns\":null"),
            "{s}"
        );
        let mut h = Histogram::new();
        h.observe(1_000);
        let s = latency_json(&h);
        // A single sample reports the exact observation, not a bucket guess.
        assert!(s.contains("\"p99_ns\":1000"), "{s}");
    }

    #[test]
    fn sharding_json_records_cells_probe_and_storm() {
        use crate::shard::TcpProbe;
        let rec = ShardingRecord {
            smoke: true,
            cells: vec![ShardCell {
                query: "C2",
                shards: 2,
                batches: 4,
                rows: 12_000,
                elapsed_ms: 80.0,
                rows_per_s: 150_000.0,
                dispatch_ms: 10.5,
                merge_ms: 1.25,
                bytes_shipped: 4096,
                identical: true,
            }],
            tcp: Some(TcpProbe {
                shards: 2,
                identical: true,
                bytes_shipped: 9999,
                elapsed_ms: 120.0,
                worker_folds: 8,
                worker_acked: 24,
                worker_response_bytes: 9999,
            }),
            storm_runs: 36,
            storm_agree: 36,
            scaleout_win: true,
        };
        let s = sharding_json(&rec);
        assert!(s.contains("\"shards\":2"), "{s}");
        assert!(s.contains("\"bytes_shipped\":4096"));
        assert!(
            s.contains("\"tcp\":{\"shards\":2,\"identical\":true"),
            "{s}"
        );
        assert!(s.contains("\"worker_folds\":8"), "{s}");
        assert!(s.contains("\"worker_response_bytes\":9999"), "{s}");
        assert!(s.contains("\"storm\":{\"runs\":36,\"agree\":36}"));
        assert!(s.contains("\"scaleout_win\":true"));
        assert!(s.contains("\"violations\":0}"), "{s}");
        let skipped = ShardingRecord { tcp: None, ..rec };
        assert!(sharding_json(&skipped).contains("\"tcp\":null"));
    }

    #[test]
    fn serving_json_records_cells_and_probe() {
        use crate::serve::{ServeSessionResult, ServingRecord};
        let cell = ServeCell {
            workers: 2,
            sessions: 1,
            arrival: "closed",
            elapsed_ms: 12.5,
            batches_delivered: 6,
            throughput_batches_per_s: 480.0,
            batch_latency: Histogram::new(),
            session_results: vec![ServeSessionResult {
                label: "s0:C2".into(),
                query: "C2".into(),
                policy: "complete".into(),
                state: "done".into(),
                end: "completed".into(),
                batches_run: 6,
                total_batches: 6,
                stopped_early: false,
                exact_vs_solo: true,
                time_to_end_ms: 11.0,
            }],
            violations: 0,
        };
        let rec = ServingRecord {
            smoke: true,
            cells: vec![cell],
            admission_rejected: true,
        };
        let s = serving_json(&rec);
        assert!(s.contains("\"admission_probe\":{\"rejected_when_full\":true}"));
        assert!(s.contains("\"arrival\":\"closed\""), "{s}");
        assert!(s.contains("\"exact_vs_solo\":true"));
        assert!(s.contains("\"violations\":0}"), "{s}");
    }

    #[test]
    fn telemetry_json_records_determinism_slo_and_overhead() {
        let rec = TelemetryRecord {
            smoke: true,
            sessions: 4,
            trace_events: 64,
            exposition_bytes: 1234,
            exposition_deterministic: true,
            trace_deterministic: true,
            cross_shard_trace_identical: true,
            golden_ok: false,
            slo: iolap_server::SloCounters {
                ci_sessions: 1,
                ci_met: 1,
                ci_batches: 2,
                ci_batches_saved: 4,
                deadline_sessions: 1,
                deadline_met: 1,
                deadline_overrun: 0,
            },
            overhead_off_ms: 10.0,
            overhead_on_ms: 10.3,
        };
        let s = telemetry_json(&rec);
        assert!(
            s.contains(
                "\"determinism\":{\"exposition\":true,\"trace\":true,\
                        \"cross_shard_trace\":true,\"golden\":false}"
            ),
            "{s}"
        );
        assert!(s.contains("\"ci_batches_saved\":4"), "{s}");
        assert!(s.contains("\"budget_pct\":5.0"), "{s}");
        assert!(s.contains("\"violations\":1}"), "{s}");
        assert!(
            iolap_server::wire::parse(&s).is_ok(),
            "telemetry_json must emit valid JSON: {s}"
        );
    }
}
