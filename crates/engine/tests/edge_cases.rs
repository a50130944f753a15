//! Engine edge cases: empty inputs, NULL propagation, runtime errors, and
//! planner rejections that unit tests in the modules don't cover.

use iolap_engine::{execute, plan_sql, EngineError, FunctionRegistry, PlanError};
use iolap_relation::{Catalog, DataType, Relation, Row, Schema, Value};

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.register(
        "t",
        Relation::from_values(
            Schema::from_pairs(&[
                ("a", DataType::Int),
                ("b", DataType::Float),
                ("s", DataType::Str),
            ]),
            vec![
                vec![1.into(), 10.0.into(), "alpha".into()],
                vec![2.into(), 20.0.into(), "beta".into()],
                vec![3.into(), Value::Null, "gamma".into()],
            ],
        ),
    );
    c.register(
        "empty",
        Relation::empty(Schema::from_pairs(&[
            ("a", DataType::Int),
            ("b", DataType::Float),
        ])),
    );
    c
}

fn run(sql: &str) -> Relation {
    let c = catalog();
    let r = FunctionRegistry::with_builtins();
    let pq = plan_sql(sql, &c, &r).unwrap();
    execute(&pq.plan, &c).unwrap()
}

#[test]
fn aggregates_skip_nulls() {
    let out = run("SELECT COUNT(b), COUNT(*), AVG(b), SUM(b) FROM t");
    let row = &out.rows()[0];
    assert_eq!(row.values[0], Value::Float(2.0)); // COUNT(b) skips the NULL
    assert_eq!(row.values[1], Value::Float(3.0)); // COUNT(*) does not
    assert_eq!(row.values[2], Value::Float(15.0));
    assert_eq!(row.values[3], Value::Float(30.0));
}

#[test]
fn null_comparisons_filter_rows() {
    // b IS NULL rows never satisfy b > 0 nor b <= 0.
    assert_eq!(run("SELECT a FROM t WHERE b > 0").len(), 2);
    assert_eq!(run("SELECT a FROM t WHERE b <= 0").len(), 0);
    assert_eq!(run("SELECT a FROM t WHERE b <> b").len(), 0);
}

#[test]
fn empty_table_aggregates() {
    let out = run("SELECT COUNT(*), SUM(b), AVG(b), MIN(a) FROM empty");
    let row = &out.rows()[0];
    assert_eq!(row.values[0], Value::Float(0.0));
    assert_eq!(row.values[1], Value::Null);
    assert_eq!(row.values[2], Value::Null);
    assert_eq!(row.values[3], Value::Null);
}

#[test]
fn empty_table_group_by_is_empty() {
    assert_eq!(run("SELECT a, COUNT(*) FROM empty GROUP BY a").len(), 0);
}

#[test]
fn cross_join_with_empty_is_empty() {
    assert_eq!(run("SELECT t.a FROM t, empty WHERE t.a = empty.a").len(), 0);
}

#[test]
fn like_and_case_together() {
    let out = run(
        "SELECT s, CASE WHEN s LIKE '%a' THEN 1 ELSE 0 END AS ends_a \
         FROM t ORDER BY s",
    );
    let flags: Vec<i64> = out
        .rows()
        .iter()
        .map(|r| r.values[1].as_i64().unwrap())
        .collect();
    // alpha, beta, gamma — all end in 'a'.
    assert_eq!(flags, vec![1, 1, 1]);
    let none = run("SELECT s FROM t WHERE s LIKE 'z%'");
    assert_eq!(none.len(), 0);
}

/// The first column of every row, as `i64`.
fn ints(out: &Relation) -> Vec<i64> {
    out.rows()
        .iter()
        .map(|r| r.values[0].as_i64().unwrap())
        .collect()
}

#[test]
fn like_over_an_aggregate_in_having() {
    // One group per `a`; MAX(s) is that row's s: alpha, beta, gamma.
    let out = run("SELECT a FROM t GROUP BY a HAVING MAX(s) LIKE '%ta' ORDER BY a");
    assert_eq!(ints(&out), vec![2]);
}

#[test]
fn like_over_an_aggregate_in_select() {
    let out = run("SELECT MAX(s) LIKE 'g%', MIN(s) LIKE 'g%' FROM t");
    // MAX(s) = gamma, MIN(s) = alpha.
    assert_eq!(
        out.rows()[0].values[..],
        [Value::Bool(true), Value::Bool(false)]
    );
}

#[test]
fn like_over_a_scalar_subquery_in_where() {
    // The subquery yields gamma: every row passes 'g%', none passes 'a%'.
    let out = run("SELECT a FROM t WHERE (SELECT MAX(s) FROM t) LIKE 'g%' ORDER BY a");
    assert_eq!(ints(&out), vec![1, 2, 3]);
    assert_eq!(
        run("SELECT a FROM t WHERE (SELECT MAX(s) FROM t) LIKE 'a%'").len(),
        0
    );
}

#[test]
fn division_by_zero_is_a_runtime_error() {
    let c = catalog();
    let r = FunctionRegistry::with_builtins();
    let pq = plan_sql("SELECT a / 0 FROM t", &c, &r).unwrap();
    assert!(matches!(execute(&pq.plan, &c), Err(EngineError::Expr(_))));
}

#[test]
fn min_max_on_strings() {
    let out = run("SELECT MIN(s), MAX(s) FROM t");
    assert_eq!(out.rows()[0].values[0], Value::str("alpha"));
    assert_eq!(out.rows()[0].values[1], Value::str("gamma"));
}

#[test]
fn between_with_nulls() {
    assert_eq!(run("SELECT a FROM t WHERE b BETWEEN 5 AND 15").len(), 1);
}

#[test]
fn planner_rejects_aggregate_in_where() {
    let c = catalog();
    let r = FunctionRegistry::with_builtins();
    let err = plan_sql("SELECT a FROM t WHERE SUM(b) > 1", &c, &r).unwrap_err();
    assert!(matches!(err, PlanError::Invalid(_)), "{err}");
}

#[test]
fn planner_rejects_having_without_aggregation() {
    let c = catalog();
    let r = FunctionRegistry::with_builtins();
    let err = plan_sql("SELECT a FROM t HAVING a > 1", &c, &r).unwrap_err();
    assert!(matches!(err, PlanError::Invalid(_)), "{err}");
}

#[test]
fn planner_reports_unknown_function() {
    let c = catalog();
    let r = FunctionRegistry::with_builtins();
    let err = plan_sql("SELECT NO_SUCH_FN(a) FROM t", &c, &r).unwrap_err();
    assert!(matches!(err, PlanError::UnknownFunction(_)));
}

#[test]
fn qualified_star_resolution_after_join() {
    // Self-join with aliases: qualified columns disambiguate.
    let out = run("SELECT x.a, y.a FROM t x, t y WHERE x.a = y.a ORDER BY x.a");
    assert_eq!(out.len(), 3);
    assert_eq!(out.rows()[0].values[0], out.rows()[0].values[1]);
}

#[test]
fn union_all_duplicates_preserved() {
    let out = run("SELECT a FROM t UNION ALL SELECT a FROM t");
    assert_eq!(out.len(), 6);
}

#[test]
fn order_by_nulls_first() {
    let out = run("SELECT b FROM t ORDER BY b");
    assert!(out.rows()[0].values[0].is_null());
}

#[test]
fn weighted_relation_counts() {
    // Direct multiplicity check through the full SQL path: register a
    // pre-weighted relation and COUNT it.
    let mut c = catalog();
    let schema = Schema::from_pairs(&[("v", DataType::Int)]);
    let mut rel = Relation::empty(schema);
    rel.push(Row::with_mult(vec![1.into()], 2.5));
    rel.push(Row::with_mult(vec![2.into()], 0.5));
    c.register("w", rel);
    let r = FunctionRegistry::with_builtins();
    let pq = plan_sql("SELECT COUNT(*), SUM(v) FROM w", &c, &r).unwrap();
    let out = execute(&pq.plan, &c).unwrap();
    assert_eq!(out.rows()[0].values[0], Value::Float(3.0));
    assert_eq!(out.rows()[0].values[1], Value::Float(3.5)); // 1·2.5 + 2·0.5
}
