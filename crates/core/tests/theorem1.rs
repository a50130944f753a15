//! Theorem 1 equivalence tests: "at batch i, the algorithm delivers the
//! same query result as Q(D_i)" — the iOLAP partial result after every
//! mini-batch must equal the batch engine run on the accumulated prefix
//! `D_i`, with streamed rows weighted by `m_i = |D|/|D_i|` (§2).
//!
//! These tests are the correctness anchor of the whole reproduction: they
//! exercise scan → join → select → aggregate pipelines, uncertain-predicate
//! partitioning, lineage thunks, semi-joins, HAVING, group-by, and the
//! failure-recovery path, always against the independent batch executor.

use iolap_core::{IolapConfig, IolapDriver};
use iolap_engine::{execute, plan_sql, FunctionRegistry};
use iolap_relation::{Catalog, DataType, PartitionMode, Relation, Row, Schema, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Build a synthetic sessions table.
fn sessions_table(n: usize, seed: u64) -> Relation {
    let mut rng = StdRng::seed_from_u64(seed);
    let cities = ["SF", "LA", "NYC", "SEA"];
    let schema = Schema::from_pairs(&[
        ("session_id", DataType::Int),
        ("buffer_time", DataType::Float),
        ("play_time", DataType::Float),
        ("city", DataType::Str),
    ]);
    let rows = (0..n)
        .map(|i| {
            vec![
                Value::Int(i as i64),
                // Un-rounded: integer-valued data can sit exactly on a
                // running-average predicate boundary, where incremental vs
                // single-pass float summation order legitimately differs in
                // the last ulp.
                Value::Float(rng.gen::<f64>() * 60.0),
                Value::Float(rng.gen::<f64>() * 600.0),
                Value::str(cities[rng.gen_range(0..cities.len())]),
            ]
        })
        .collect();
    Relation::from_values(schema, rows)
}

fn catalog(n: usize, seed: u64) -> Catalog {
    let mut c = Catalog::new();
    c.register("sessions", sessions_table(n, seed));
    c.register(
        "cities",
        Relation::from_values(
            Schema::from_pairs(&[("name", DataType::Str), ("state", DataType::Str)]),
            vec![
                vec!["SF".into(), "CA".into()],
                vec!["LA".into(), "CA".into()],
                vec!["NYC".into(), "NY".into()],
                vec!["SEA".into(), "WA".into()],
            ],
        ),
    );
    c
}

/// Run `sql` incrementally and assert per-batch equivalence with the batch
/// engine on the scaled prefix. Returns the per-batch recomputed-tuple
/// counts for behavioural assertions.
fn assert_theorem1(sql: &str, cat: &Catalog, config: IolapConfig) -> Vec<usize> {
    let registry = FunctionRegistry::with_builtins();
    let pq = plan_sql(sql, cat, &registry).expect("plan");
    let mut driver = IolapDriver::from_plan(&pq, cat, "sessions", config.clone()).expect("driver");

    // Reconstruct the same partition to know each prefix D_i.
    let stream = cat.get("sessions").unwrap();
    let batches = iolap_relation::BatchedRelation::partition(
        &stream,
        config.num_batches,
        config.seed,
        config.partition_mode,
    );

    let mut recomputed = Vec::new();
    let mut i = 0;
    while let Some(step) = driver.step() {
        let report = step.expect("batch");
        recomputed.push(report.stats.recomputed_tuples);

        // Oracle: batch engine over D_i with multiplicity m_i on streamed
        // rows.
        let prefix = batches.union_through(i);
        let m = batches.scale_after(i);
        let mut oracle_cat = cat.clone();
        let scaled = Relation::new(
            prefix.schema().clone(),
            prefix
                .rows()
                .iter()
                .map(|r| Row::with_mult(r.values.to_vec(), r.mult * m))
                .collect(),
        );
        oracle_cat.register("sessions", scaled);
        let expected = execute(&pq.plan, &oracle_cat).expect("oracle");

        assert!(
            report.result.relation.approx_eq(&expected, 1e-6),
            "batch {i} mismatch for {sql}\n== iOLAP ==\n{}\n== oracle ==\n{}",
            report.result.relation,
            expected
        );
        i += 1;
    }
    assert_eq!(i, config.num_batches);
    recomputed
}

fn default_config(batches: usize) -> IolapConfig {
    let mut c = IolapConfig::with_batches(batches).trials(30).seed(11);
    c.partition_mode = PartitionMode::RowShuffle;
    c
}

#[test]
fn global_average() {
    let cat = catalog(200, 1);
    assert_theorem1(
        "SELECT AVG(play_time) FROM sessions",
        &cat,
        default_config(8),
    );
}

#[test]
fn sum_and_count_scale_by_m() {
    let cat = catalog(150, 2);
    assert_theorem1(
        "SELECT SUM(play_time), COUNT(*) FROM sessions",
        &cat,
        default_config(6),
    );
}

#[test]
fn group_by_city() {
    let cat = catalog(200, 3);
    assert_theorem1(
        "SELECT city, SUM(play_time), COUNT(*) FROM sessions GROUP BY city",
        &cat,
        default_config(7),
    );
}

#[test]
fn filtered_aggregate() {
    let cat = catalog(200, 4);
    assert_theorem1(
        "SELECT AVG(play_time) FROM sessions WHERE buffer_time < 30",
        &cat,
        default_config(5),
    );
}

#[test]
fn sbi_nested_subquery() {
    let cat = catalog(250, 5);
    let recomputed = assert_theorem1(
        "SELECT AVG(play_time) FROM sessions \
         WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions)",
        &cat,
        default_config(10),
    );
    // Tuple-uncertainty partitioning: the non-deterministic set should
    // shrink relative to the data processed — by the last batches the
    // recomputation must be far below the accumulated input size.
    let last = *recomputed.last().unwrap();
    assert!(
        last < 250,
        "recomputation should stay below the full input ({recomputed:?})"
    );
}

#[test]
fn sbi_without_optimizations_still_correct() {
    // The HDA-equivalent configuration (both optimizations off) must be
    // slower but still exact — Theorem 1 is about correctness, not cost.
    let cat = catalog(150, 6);
    let config = default_config(6).optimizations(false, false);
    assert_theorem1(
        "SELECT AVG(play_time) FROM sessions \
         WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions)",
        &cat,
        config,
    );
}

#[test]
fn correlated_subquery_per_city() {
    let cat = catalog(200, 7);
    assert_theorem1(
        "SELECT COUNT(*) FROM sessions s \
         WHERE s.buffer_time > (SELECT AVG(i.buffer_time) FROM sessions i \
                                WHERE i.city = s.city)",
        &cat,
        default_config(8),
    );
}

#[test]
fn join_with_dimension_table() {
    let cat = catalog(200, 8);
    assert_theorem1(
        "SELECT c.state, SUM(s.play_time) FROM sessions s \
         JOIN cities c ON s.city = c.name GROUP BY c.state",
        &cat,
        default_config(6),
    );
}

#[test]
fn semi_join_with_having_subquery() {
    // Q18-shaped: outer rows filtered by membership in an uncertain
    // HAVING-filtered group set.
    let cat = catalog(250, 9);
    assert_theorem1(
        "SELECT SUM(play_time) FROM sessions WHERE city IN \
         (SELECT city FROM sessions GROUP BY city HAVING SUM(play_time) > 5000)",
        &cat,
        default_config(8),
    );
}

#[test]
fn scaled_computed_subquery_boundary() {
    // Q17-shaped: computation over the uncertain aggregate crosses the
    // lineage-block boundary as a folded thunk.
    let cat = catalog(250, 10);
    assert_theorem1(
        "SELECT SUM(s.play_time) FROM sessions s \
         WHERE s.buffer_time < (SELECT 0.5 * AVG(i.buffer_time) FROM sessions i \
                                WHERE i.city = s.city)",
        &cat,
        default_config(8),
    );
}

#[test]
fn having_with_global_subquery() {
    let cat = catalog(200, 11);
    assert_theorem1(
        "SELECT city, AVG(play_time) FROM sessions GROUP BY city \
         HAVING AVG(play_time) > (SELECT AVG(play_time) FROM sessions)",
        &cat,
        default_config(8),
    );
}

#[test]
fn plain_spj_rows_scale() {
    let cat = catalog(100, 12);
    assert_theorem1(
        "SELECT session_id, play_time FROM sessions WHERE buffer_time < 10",
        &cat,
        default_config(5),
    );
}

#[test]
fn order_by_limit_presentation() {
    let cat = catalog(100, 13);
    let registry = FunctionRegistry::with_builtins();
    let sql = "SELECT city, SUM(play_time) AS total FROM sessions \
               GROUP BY city ORDER BY total DESC LIMIT 2";
    let pq = plan_sql(sql, &cat, &registry).unwrap();
    let mut driver = IolapDriver::from_plan(&pq, &cat, "sessions", default_config(4)).unwrap();
    let reports = driver.run_to_completion().unwrap();
    let final_rel = &reports.last().unwrap().result.relation;
    assert_eq!(final_rel.len(), 2);
    // Final batch must equal the exact batch answer.
    let expected = execute(&pq.plan, &cat).unwrap();
    assert!(final_rel.approx_eq(&expected, 1e-6));
    // Descending order by total.
    let a = final_rel.rows()[0].values[1].as_f64().unwrap();
    let b = final_rel.rows()[1].values[1].as_f64().unwrap();
    assert!(a >= b);
}

#[test]
fn error_estimates_shrink() {
    let cat = catalog(400, 14);
    let registry = FunctionRegistry::with_builtins();
    let sql = "SELECT AVG(play_time) FROM sessions";
    let mut driver = IolapDriver::from_sql(
        sql,
        &cat,
        &registry,
        "sessions",
        default_config(10).trials(60),
    )
    .unwrap();
    let reports = driver.run_to_completion().unwrap();
    let first = reports[0].result.max_relative_std().unwrap();
    let last = reports[reports.len() - 2]
        .result
        .max_relative_std()
        .unwrap();
    assert!(
        last < first,
        "relative stddev should shrink: first={first} last={last}"
    );
}

#[test]
fn union_all_branches() {
    let cat = catalog(120, 15);
    assert_theorem1(
        "SELECT AVG(play_time) FROM sessions WHERE city = 'SF' \
         UNION ALL SELECT AVG(play_time) FROM sessions WHERE city = 'LA'",
        &cat,
        default_config(5),
    );
}

#[test]
fn zero_slack_recovers_and_stays_correct() {
    // Slack 0 makes range failures likely (§8.4, Fig 9(d)); recovery must
    // preserve exactness at every batch.
    let cat = catalog(300, 16);
    let config = default_config(12).slack(0.0);
    assert_theorem1(
        "SELECT AVG(play_time) FROM sessions \
         WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions)",
        &cat,
        config,
    );
}

#[test]
fn udf_in_predicate() {
    let cat = catalog(150, 17);
    assert_theorem1(
        "SELECT SUM(SQRT(play_time)) FROM sessions WHERE ABS(buffer_time - 30) < 15",
        &cat,
        default_config(5),
    );
}

#[test]
fn stratified_partitioning_stays_exact_and_covers_groups() {
    // §9 extension: stratified batching on the group column. Every batch
    // then contains every city, so grouped partial results list all groups
    // from batch 0 — and Theorem 1 must still hold.
    let cat = catalog(240, 18);
    let mut config = default_config(6);
    config.partition_mode = PartitionMode::StratifiedShuffle { column: 3 }; // city
    assert_theorem1(
        "SELECT city, AVG(play_time), COUNT(*) FROM sessions GROUP BY city",
        &cat,
        config.clone(),
    );
    // Coverage claim: the first partial result already has all 4 cities.
    let registry = FunctionRegistry::with_builtins();
    let mut driver = IolapDriver::from_sql(
        "SELECT city, COUNT(*) FROM sessions GROUP BY city",
        &cat,
        &registry,
        "sessions",
        config,
    )
    .unwrap();
    let first = driver.step().unwrap().unwrap();
    assert_eq!(first.result.relation.len(), 4);
}
