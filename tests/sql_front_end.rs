//! The SQL front end on hostile text: `plan_sql` (parse, then plan) returns
//! `Ok` or `Err` and never panics or overflows a thread's stack.
//!
//! * Fuzz: the parser's own property inputs (SQL-alphabet soup, every
//!   truncation and one-byte edit of each workload query), planned against
//!   both workload catalogs.
//! * Depth: SQL nested past `MAX_DEPTH` fails with an error on a thread
//!   with the default stack, and SQL at exactly `MAX_DEPTH` parses, plans
//!   and executes there.

#[path = "../crates/sql/tests/fuzz/mod.rs"]
mod fuzz;

use iolap_engine::{execute, plan_sql, FunctionRegistry};
use iolap_relation::{Catalog, DataType, Relation, Schema, Value};
use iolap_sql::parser::MAX_DEPTH;
use iolap_workloads::{conviva_catalog, conviva_registry, tpch_catalog};
use proptest::prelude::*;
use std::sync::LazyLock;

/// The TPC-H and Conviva catalogs with their function registries.
static WORKLOADS: LazyLock<[(Catalog, FunctionRegistry); 2]> = LazyLock::new(|| {
    [
        (tpch_catalog(0.01, 1), FunctionRegistry::with_builtins()),
        (conviva_catalog(10, 1), conviva_registry()),
    ]
});

/// Plan `sql` against every workload catalog; only a panic fails.
fn plan_everywhere(sql: &str) {
    for (catalog, registry) in WORKLOADS.iter() {
        let _ = plan_sql(sql, catalog, registry);
    }
}

#[test]
fn planner_is_total_on_workload_truncations() {
    for sql in fuzz::workload_sql() {
        for prefix in fuzz::truncations(sql) {
            plan_everywhere(prefix);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn planner_is_total_on_soup_and_edits(soup in fuzz::soup(), edits in fuzz::edits()) {
        plan_everywhere(&soup);
        for sql in &edits {
            plan_everywhere(sql);
        }
    }
}

/// `t(a)` holding 1, 2, 3.
fn catalog() -> Catalog {
    let mut c = Catalog::new();
    let rows = (1..=3).map(|a| vec![Value::Int(a)]).collect();
    c.register(
        "t",
        Relation::from_values(Schema::from_pairs(&[("a", DataType::Int)]), rows),
    );
    c
}

/// Plan and execute `sql` over [`catalog`] on a new thread with the
/// default stack: the first column of each row, or the error.
fn run_on_default_stack(sql: String) -> Result<Vec<Value>, String> {
    std::thread::spawn(move || {
        let c = catalog();
        let pq =
            plan_sql(&sql, &c, &FunctionRegistry::with_builtins()).map_err(|e| e.to_string())?;
        let out = execute(&pq.plan, &c).map_err(|e| e.to_string())?;
        Ok(out.rows().iter().map(|r| r.values[0].clone()).collect())
    })
    .join()
    .expect("the front end must fail with an error, not a panic or a stack overflow")
}

/// `SELECT <e> FROM t`.
fn select(e: &str) -> String {
    format!("SELECT {e} FROM t")
}

/// `n` parentheses around `1`.
fn parens(n: usize) -> String {
    select(&format!("{}1{}", "(".repeat(n), ")".repeat(n)))
}

/// `n` unary minus signs before `1`.
fn negations(n: usize) -> String {
    select(&format!("{}1", "- ".repeat(n)))
}

/// `a + a + …` with `n` terms.
fn chain(n: usize) -> String {
    select(&vec!["a"; n].join(" + "))
}

/// `n` scalar subqueries, each nested in the WHERE of the one before.
fn subqueries(n: usize) -> String {
    let mut sql = "SELECT AVG(a) FROM t".to_string();
    for _ in 1..n {
        sql = format!("SELECT AVG(a) FROM t WHERE a >= ({sql})");
    }
    format!("SELECT a FROM t WHERE a >= ({sql})")
}

#[test]
fn sql_past_max_depth_is_an_error_not_an_abort() {
    let deep = [
        ("10 000 parentheses", parens(10_000)),
        ("100 000 unary minus signs", negations(100_000)),
        ("a 5 000-term chain", chain(5_000)),
        ("a 100 000-term chain", chain(100_000)),
        ("10 000 nested subqueries", subqueries(10_000)),
        ("one subquery too many", subqueries(MAX_DEPTH / 2)),
    ];
    for (what, sql) in deep {
        let err = run_on_default_stack(sql).expect_err(what);
        assert!(err.contains("nested deeper than"), "{what}: {err}");
    }
}

#[test]
fn sql_at_max_depth_parses_plans_and_executes() {
    let ints = |v: &[i64]| v.iter().map(|&i| Value::Int(i)).collect::<Vec<_>>();
    // The outermost expression is level 1, each parenthesis one more.
    assert_eq!(
        run_on_default_stack(parens(MAX_DEPTH - 1)),
        Ok(ints(&[1, 1, 1]))
    );
    // n minus signs over a literal are n + 1 high; MAX_DEPTH - 1 is odd.
    assert_eq!(
        run_on_default_stack(negations(MAX_DEPTH - 1)),
        Ok(ints(&[-1, -1, -1]))
    );
    let n = MAX_DEPTH as i64;
    assert_eq!(
        run_on_default_stack(chain(MAX_DEPTH)),
        Ok(ints(&[n, 2 * n, 3 * n]))
    );
    // Each subquery level is two high (its comparison and itself), and the
    // innermost `(SELECT AVG(a) …)` inside `a >= …` four: 2k + 2 in all.
    // The averages climb 2, 2.5, 3, 3, …, so only a = 3 survives.
    let k = (MAX_DEPTH - 2) / 2;
    assert_eq!(run_on_default_stack(subqueries(k)), Ok(ints(&[3])));
}
