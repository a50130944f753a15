//! Micro-benchmarks of the substrate operators: batch executor primitives,
//! Poisson bootstrap draws, variation-range tracking, predicate
//! classification, the aggregate partition fold and the shard frame codec —
//! the building blocks whose costs compose into the figure-level numbers —
//! plus one recovery-bound query run end to end for context.

use criterion::{criterion_group, criterion_main, Criterion};
use iolap_bootstrap::{draw_row_into, poisson1, RangeTracker, VariationRange};
use iolap_core::{
    classify, fold_fragment_partition, AggRegistry, FoldFragment, FragKind, FragSrc, IolapConfig,
    IolapDriver, ORow,
};
use iolap_engine::{execute, plan_sql, CmpOp, Expr, FunctionRegistry};
use iolap_relation::{AggRef, PartitionMode, Row, Value};
use iolap_workloads::{conviva_catalog, tpch_catalog, tpch_query};
use std::sync::Arc;
use std::time::Duration;

fn quick(c: &mut Criterion) -> criterion::BenchmarkGroup<'_, criterion::measurement::WallTime> {
    let mut g = c.benchmark_group("operators");
    g.sample_size(20)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    g
}

fn bench_poisson(c: &mut Criterion) {
    let mut g = quick(c);
    g.bench_function("poisson1_draws_1k", |b| {
        let mut acc = 0u32;
        b.iter(|| {
            for i in 0..1000u64 {
                acc = acc.wrapping_add(poisson1(42, i, 7));
            }
            acc
        })
    });
    // The scan's unit of work: one row's draws at the default trial count.
    g.bench_function("draw_row_100", |b| {
        let mut out = [0.0; 100];
        let mut row = 0u64;
        b.iter(|| {
            row += 1;
            draw_row_into(42, row, &mut out);
            out[7]
        })
    });
    g.finish();
}

fn bench_range_tracker(c: &mut Criterion) {
    let mut g = quick(c);
    g.bench_function("range_tracker_observe_100", |b| {
        let trials: Vec<f64> = (0..100).map(|i| 30.0 + (i % 7) as f64).collect();
        b.iter(|| {
            let mut t = RangeTracker::new(2.0);
            for _ in 0..20 {
                t.observe(&trials);
            }
            t.current().copied()
        })
    });
    g.finish();
}

fn bench_classify(c: &mut Criterion) {
    let mut reg = AggRegistry::new();
    let key: Arc<[Value]> = Arc::from(Vec::<Value>::new());
    reg.publish(
        0,
        key.clone(),
        vec![Value::Float(35.0)],
        vec![Arc::from(
            (0..100).map(|i| 30.0 + (i % 10) as f64).collect::<Vec<_>>(),
        )],
        2.0,
    );
    let pred = Expr::Cmp {
        op: CmpOp::Gt,
        left: Box::new(Expr::Col(0)),
        right: Box::new(Expr::Col(1)),
    };
    let rows: Vec<Row> = (0..1000)
        .map(|i| Row {
            values: vec![
                Value::Float((i % 70) as f64),
                Value::Ref(AggRef {
                    agg: 0,
                    column: 0,
                    key: key.clone(),
                }),
            ]
            .into(),
            mult: 1.0,
        })
        .collect();
    let mut g = quick(c);
    g.bench_function("classify_1k_rows", |b| {
        b.iter(|| {
            rows.iter()
                .map(|r| classify(&pred, r, &reg) as u8 as u32)
                .sum::<u32>()
        })
    });
    g.finish();
}

fn bench_batch_executor(c: &mut Criterion) {
    let cat = conviva_catalog(2000, 5);
    let regf = FunctionRegistry::with_builtins();
    let pq = plan_sql(
        "SELECT cdn, AVG(play_time), COUNT(*) FROM sessions GROUP BY cdn",
        &cat,
        &regf,
    )
    .unwrap();
    let mut g = quick(c);
    g.bench_function("batch_group_by_2k_rows", |b| {
        b.iter(|| execute(&pq.plan, &cat).unwrap().len())
    });
    let pq2 = plan_sql(
        "SELECT AVG(play_time) FROM sessions \
         WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions)",
        &cat,
        &regf,
    )
    .unwrap();
    g.bench_function("batch_sbi_2k_rows", |b| {
        b.iter(|| execute(&pq2.plan, &cat).unwrap().len())
    });
    g.finish();
}

fn bench_fold_partition(c: &mut Criterion) {
    // One full grid partition: two group columns (8 × 4 groups), weighted
    // rows at 100 trials, COUNT/SUM/AVG over a float argument.
    const TRIALS: usize = 100;
    let rows: Vec<ORow> = (0..1024u64)
        .map(|i| {
            let mut weights = vec![0.0; TRIALS];
            draw_row_into(42, i, &mut weights);
            ORow {
                values: vec![
                    Value::Int((i % 8) as i64),
                    Value::str(["a", "b", "c", "d"][(i / 8 % 4) as usize]),
                    Value::Float((i % 97) as f64 * 0.5),
                ]
                .into(),
                mult: 1.0,
                weights: Some(weights.into()),
            }
        })
        .collect();
    let frag = FoldFragment {
        agg_id: 0,
        group_cols: vec![0, 1],
        kinds: vec![FragKind::Count, FragKind::Sum, FragKind::Avg],
        srcs: vec![FragSrc::Col(2), FragSrc::Col(2), FragSrc::Col(2)],
        trials: TRIALS,
    };
    let mut g = quick(c);
    g.bench_function("fold_partition_1k_rows", |b| {
        b.iter(|| fold_fragment_partition(&frag, &rows, true).map(|p| p.len()))
    });
    g.finish();
}

fn bench_shard_frame(c: &mut Criterion) {
    use iolap_server::wire::{fold_request_json, frag_json, parse, rows_from_json, rows_json};
    // One full grid partition as a `shard.fold` request: 100 Poisson
    // weights per row and Q1-like cells (two flag strings, an integral
    // quantity, a fractional price and discount).
    const TRIALS: usize = 100;
    let rows: Vec<ORow> = (0..1024u64)
        .map(|i| {
            let mut weights = vec![0.0; TRIALS];
            draw_row_into(42, i, &mut weights);
            ORow {
                values: vec![
                    Value::str(["A", "N", "R"][(i % 3) as usize]),
                    Value::str(["F", "O"][(i % 2) as usize]),
                    Value::Float((i % 50 + 1) as f64),
                    Value::Float(901.0 + i as f64 * 1.37),
                    Value::Float((i % 11) as f64 * 0.01),
                ]
                .into(),
                mult: 1.0,
                weights: Some(weights.into()),
            }
        })
        .collect();
    let frag = FoldFragment {
        agg_id: 0,
        group_cols: vec![0, 1],
        kinds: vec![FragKind::Sum, FragKind::Sum, FragKind::Avg, FragKind::Count],
        srcs: vec![
            FragSrc::Col(2),
            FragSrc::Col(3),
            FragSrc::Col(4),
            FragSrc::Lit(Value::Int(1)),
        ],
        trials: TRIALS,
    };
    let frag_frame = frag_json(&frag).expect("a fast-plan fragment encodes");
    let mut g = quick(c);
    g.bench_function("shard_frame_1k_rows", |b| {
        b.iter(|| {
            let rows_frame = rows_json(&rows).expect("rows without lineage encode");
            let request = fold_request_json(0, true, None, &frag_frame, &rows_frame);
            let req = parse(&request).expect("an encoded request parses");
            req.get("rows").and_then(rows_from_json).map(|r| r.len())
        })
    });
    g.finish();
}

fn bench_interval_width(c: &mut Criterion) {
    let mut g = quick(c);
    g.bench_function("variation_range_from_trials_100", |b| {
        let trials: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0 + 50.0).collect();
        b.iter(|| VariationRange::from_trials(&trials, 2.0))
    });
    g.finish();
}

/// Context for the recovery path: Q18 run to completion at SF 0.5, 20
/// batches, 100 trials. Its per-order SUM ranges fail nearly every batch,
/// so checkpoint save/restore and replays carry much of the time.
fn bench_recovery_q18(c: &mut Criterion) {
    let cat = tpch_catalog(0.5, 3);
    let regf = FunctionRegistry::with_builtins();
    let q = tpch_query("Q18").expect("Q18 is a workload query");
    let pq = plan_sql(q.sql, &cat, &regf).unwrap();
    let mut cfg = IolapConfig::with_batches(20).trials(100).seed(3);
    cfg.partition_mode = PartitionMode::RowShuffle;
    let mut g = quick(c);
    g.bench_function("recovery_q18_sf05", |b| {
        b.iter(|| {
            let mut d = IolapDriver::from_plan(&pq, &cat, q.stream_table, cfg.clone()).unwrap();
            d.run_to_completion().unwrap().len()
        })
    });
    g.finish();
}

criterion_group!(
    ops,
    bench_poisson,
    bench_range_tracker,
    bench_classify,
    bench_batch_executor,
    bench_fold_partition,
    bench_shard_frame,
    bench_interval_width,
    bench_recovery_q18
);
criterion_main!(ops);
