//! Probes: a layer's public function timed in isolation on the inputs the
//! workload itself produced. Each probe repeats for a fixed slice of the
//! run and reports the median call.

use crate::inputs::Env;
use crate::record::Layers;
use crate::spans::{Spans, NONE};
use crate::spec::Scale;
use crate::stats::median;
use iolap_core::BatchReport;
use iolap_relation::kernels::{filter, fold};
use iolap_relation::{Batch, BatchedRelation, ColumnData, PartitionMode, SelVec};
use iolap_server::tcp::{handle_request, report_json, SubmitFactory};
use iolap_server::{Server, ServerConfig};
use iolap_store::{scan_segment, SegmentWriter};
use iolap_workloads::QuerySpec;
use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Median seconds of one `call`, repeated until `budget` is spent (at
/// least three times). Recorded as one `probe.*` span.
fn time(spans: &Spans, name: &'static str, budget: Duration, mut call: impl FnMut()) -> f64 {
    let span = spans.begin(name, NONE, 0);
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || start.elapsed() < budget {
        let t = Instant::now();
        call();
        samples.push(t.elapsed().as_secs_f64());
    }
    spans.end(span);
    median(&samples)
}

/// What the probes replay.
pub struct ProbeInput<'a> {
    /// Data of the run's last pass.
    pub env: &'a Env,
    /// The workload's queries.
    pub queries: &'a [QuerySpec],
    /// The workload's scale.
    pub scale: &'a Scale,
    /// Reports the traced passes produced.
    pub reports: &'a [BatchReport],
    /// Request lines clients sent and shard frames the pool was handed.
    pub wire_lines: &'a [String],
    /// Whether reports cross the wire in this workload.
    pub serving: bool,
    /// A factory for the `handle_request` probe (serving workloads).
    pub factory: Option<&'a SubmitFactory>,
    /// Frame payloads of one session log the run wrote (durable workloads).
    pub segment_frames: &'a [Vec<u8>],
    /// Scratch directory for the store probes.
    pub scratch: &'a Path,
    /// Time each probe may take.
    pub budget: Duration,
}

/// Run every probe the workload's path touches and record the results.
pub fn run(p: &ProbeInput<'_>, spans: &Spans, layers: &mut Layers) {
    let n = p.queries.len() as f64;
    let us_per_query = |s: f64| s * 1e6 / n;

    let s = time(spans, "probe.sql.parse", p.budget, || {
        for q in p.queries {
            black_box(iolap_sql::parse_query(black_box(q.sql)).expect("workload SQL parses"));
        }
    });
    layers.set("sql.parse_us", us_per_query(s));

    let s = time(spans, "probe.engine.plan", p.budget, || {
        for q in p.queries {
            black_box(
                iolap_engine::plan_sql(q.sql, &p.env.catalog, &p.env.registry)
                    .expect("workload SQL plans"),
            );
        }
    });
    layers.set("engine.plan_us", us_per_query(s));

    let planned: Vec<_> = p
        .queries
        .iter()
        .map(|q| {
            let pq = iolap_engine::plan_sql(q.sql, &p.env.catalog, &p.env.registry)
                .expect("workload SQL plans");
            (pq, HashSet::from([q.stream_table.to_string()]))
        })
        .collect();
    let s = time(spans, "probe.core.rewriter.rewrite", p.budget, || {
        for (pq, streamed) in &planned {
            black_box(iolap_core::rewrite(pq, streamed).expect("workload plan rewrites"));
        }
    });
    layers.set("core.rewriter.rewrite_us", us_per_query(s));

    let s = time(spans, "probe.core.driver.build", p.budget, || {
        for ((pq, _), q) in planned.iter().zip(p.queries) {
            let cfg = crate::inputs::config(p.scale, 7);
            black_box(
                iolap_core::IolapDriver::from_plan(pq, &p.env.catalog, q.stream_table, cfg)
                    .expect("workload plan builds"),
            );
        }
    });
    layers.set("core.driver.build_ms", s * 1e3 / n);

    // One streamed table per distinct name; results are means over the
    // workload's queries, so a table two queries stream counts twice.
    let tables: BTreeMap<&str, _> = p
        .queries
        .iter()
        .map(|q| {
            (
                q.stream_table,
                p.env.catalog.get(q.stream_table).expect("stream table"),
            )
        })
        .collect();
    let per_query = |f: &dyn Fn(&str) -> f64| -> f64 {
        p.queries.iter().map(|q| f(q.stream_table)).sum::<f64>() / n
    };
    let table_budget = p.budget / tables.len() as u32;

    let mut partition_s = BTreeMap::new();
    let mut to_batch_s = BTreeMap::new();
    let mut weights_s = BTreeMap::new();
    let mut filter_rate = Vec::new();
    let mut fold_rate = Vec::new();
    for (name, rel) in &tables {
        partition_s.insert(
            *name,
            time(spans, "probe.relation.partition", table_budget, || {
                black_box(BatchedRelation::partition(
                    rel,
                    p.scale.batches,
                    7,
                    PartitionMode::RowShuffle,
                ));
            }),
        );
        to_batch_s.insert(
            *name,
            time(spans, "probe.relation.to_batch", table_budget, || {
                black_box(Batch::from_relation(rel));
            }),
        );
        let per_batch = rel.len().div_ceil(p.scale.batches);
        weights_s.insert(
            *name,
            time(spans, "probe.bootstrap.weights", table_budget, || {
                for b in 0..p.scale.batches {
                    black_box(iolap_bootstrap::block_trial_weights(
                        7,
                        (b * per_batch) as u64,
                        per_batch,
                        p.scale.trials,
                    ));
                }
            }),
        );

        let batch = Batch::from_relation(rel);
        let Some(col) = batch
            .columns()
            .iter()
            .find(|c| matches!(c.data, ColumnData::F64(_)))
        else {
            continue;
        };
        let values: Vec<f64> = (0..batch.len()).filter_map(|i| col.cell_f64(i)).collect();
        let lit = median(&values);
        let s = time(spans, "probe.relation.filter", table_budget, || {
            let mut sel = SelVec::with_capacity(batch.len());
            filter::filter_cmp_f64(col, filter::CmpKind::Lt, lit, &mut sel);
            black_box(sel.len());
        });
        filter_rate.push(batch.len() as f64 / s / 1e6);

        let trials = p.scale.trials;
        let rows = per_batch.min(values.len());
        let ws = iolap_bootstrap::block_trial_weights(7, 0, rows, trials);
        let s = time(spans, "probe.relation.fold", table_budget, || {
            let (mut a, mut b) = (vec![0.0; trials], vec![0.0; trials]);
            for (r, x) in values[..rows].iter().enumerate() {
                fold::fold_sum_weighted(&mut a, &mut b, *x, 1.0, &ws[r * trials..(r + 1) * trials]);
            }
            black_box((a, b));
        });
        fold_rate.push((rows * trials) as f64 / s / 1e6);
    }
    layers.set(
        "relation.partition_ms",
        per_query(&|t| partition_s[t] * 1e3),
    );
    layers.set("relation.to_batch_ms", per_query(&|t| to_batch_s[t] * 1e3));
    layers.set("relation.filter_mrows_s", crate::stats::mean(&filter_rate));
    layers.set("relation.fold_mcells_s", crate::stats::mean(&fold_rate));
    let weights_ms = per_query(&|t| weights_s[t] * 1e3);
    let draws = per_query(&|t| (tables[t].len() * p.scale.trials) as f64);
    layers.set("bootstrap.weights_ms", weights_ms);
    layers.set("bootstrap.draws_per_s", draws / (weights_ms / 1e3));
    layers.set(
        "bootstrap.weights_bytes",
        per_query(&|t| (tables[t].len().div_ceil(p.scale.batches) * p.scale.trials * 8) as f64),
    );

    if !p.wire_lines.is_empty() {
        let bytes: usize = p.wire_lines.iter().map(String::len).sum();
        let s = time(spans, "probe.server.wire.parse", p.budget, || {
            for line in p.wire_lines {
                black_box(
                    iolap_server::wire::parse(black_box(line)).expect("recorded line parses"),
                );
            }
        });
        layers.set("server.wire.parse_us", s * 1e6 / p.wire_lines.len() as f64);
        layers.set("server.wire.parse_mb_s", bytes as f64 / s / 1e6);
    }

    if p.serving && !p.reports.is_empty() {
        let bytes: usize = p.reports.iter().map(|r| report_json(r).len()).sum();
        let s = time(spans, "probe.server.wire.encode", p.budget, || {
            for r in p.reports {
                black_box(report_json(black_box(r)));
            }
        });
        layers.set("server.wire.encode_us", s * 1e6 / p.reports.len() as f64);
        layers.set(
            "server.wire.report_bytes",
            bytes as f64 / p.reports.len() as f64,
        );
    }

    if let Some(factory) = p.factory {
        handle_probe(p, factory, spans, layers);
    }
    if !p.segment_frames.is_empty() {
        store_probes(p, spans, layers);
    }
}

/// `handle_request` on a poll that finds nothing: the floor every poll
/// pays, without socket or scheduler.
fn handle_probe(p: &ProbeInput<'_>, factory: &SubmitFactory, spans: &Spans, layers: &mut Layers) {
    let Some(submit) = p
        .wire_lines
        .iter()
        .find(|l| l.contains("\"op\":\"submit\""))
    else {
        return;
    };
    let server = Server::new(ServerConfig::with_workers(1));
    let mut sessions = BTreeMap::new();
    let resp = handle_request(&server, factory, &mut sessions, submit);
    let Some(id) = iolap_server::wire::parse(&resp)
        .ok()
        .and_then(|v| v.get("session").and_then(iolap_server::wire::JVal::as_u64))
    else {
        return;
    };
    let poll = format!("{{\"op\":\"poll\",\"session\":{id},\"max\":16}}");
    // Drain the session so that every later poll comes back empty.
    let deadline = Instant::now() + Duration::from_secs(30);
    while !handle_request(&server, factory, &mut sessions, &poll).contains("\"state\":\"done\"") {
        if Instant::now() > deadline {
            return;
        }
        std::thread::sleep(crate::spec::EMPTY_POLL_SLEEP);
    }
    let calls = 200;
    let s = time(spans, "probe.server.tcp.handle", p.budget, || {
        for _ in 0..calls {
            black_box(handle_request(&server, factory, &mut sessions, &poll));
        }
    });
    layers.set("server.tcp.handle_us", s * 1e6 / calls as f64);
    server.shutdown();
}

/// The store's append (fsync off and on) and scan over the frames one of
/// the run's own session logs held.
fn store_probes(p: &ProbeInput<'_>, spans: &Spans, layers: &mut Layers) {
    let path = p.scratch.join("probe.seg");
    let frames = p.segment_frames;
    let bytes: usize = frames.iter().map(Vec::len).sum();
    for (metric, name, fsync) in [
        ("store.append_us", "probe.store.append", false),
        ("store.append_fsync_us", "probe.store.append_fsync", true),
    ] {
        let s = time(spans, name, p.budget, || {
            let mut w = SegmentWriter::create(&path, fsync).expect("scratch segment");
            for f in frames {
                w.append(f).expect("scratch append");
            }
        });
        layers.set(metric, s * 1e6 / frames.len() as f64);
    }
    let s = time(spans, "probe.store.scan", p.budget, || {
        black_box(scan_segment(&path).expect("scratch scan"));
    });
    layers.set("store.scan_mb_s", bytes as f64 / s / 1e6);
    let _ = std::fs::remove_file(&path);
}
