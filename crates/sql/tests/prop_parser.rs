//! Property tests for the SQL frontend: the lexer and the parser never
//! panic (arbitrary text, SQL-alphabet soup, every truncation and one-byte
//! edit of each workload query), and generated queries from the supported
//! dialect round-trip through the parser with the expected structure.

mod fuzz;

use iolap_sql::ast::{Expr, SelectItem};
use iolap_sql::lexer::tokenize;
use iolap_sql::{parse, parse_query};
use proptest::prelude::*;

#[test]
fn parser_is_total_on_workload_truncations() {
    for sql in fuzz::workload_sql() {
        assert!(parse(sql).is_ok(), "workload query fails to parse: {sql}");
        for prefix in fuzz::truncations(sql) {
            let _ = parse(prefix);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Parsing SQL-alphabet soup or an edited workload query returns `Ok`
    /// or `Err`, never a panic.
    #[test]
    fn parser_is_total_on_soup_and_edits(soup in fuzz::soup(), edits in fuzz::edits()) {
        let _ = parse(&soup);
        for sql in &edits {
            let _ = parse(sql);
        }
    }
}

proptest! {
    /// Tokenizing arbitrary bytes must never panic — it may only return an
    /// error value.
    #[test]
    fn lexer_total_on_arbitrary_input(s in ".*") {
        let _ = tokenize(&s);
    }

    /// Valid identifiers and numbers survive lexing intact.
    #[test]
    fn lexer_roundtrips_identifiers(
        name in "[a-zA-Z_][a-zA-Z0-9_]{0,20}",
        n in any::<i32>(),
    ) {
        let sql = format!("SELECT {name}, {n} FROM t");
        let toks = tokenize(&sql).unwrap();
        use iolap_sql::lexer::TokenKind;
        let has_ident = toks.iter().any(|t| match &t.kind {
            TokenKind::Ident(s) => s == &name,
            // Identifiers that collide with keywords lex as keywords.
            TokenKind::Keyword(_) => true,
            _ => false,
        });
        prop_assert!(has_ident);
        let n_ok = toks.iter().any(|t| match t.kind {
            TokenKind::Int(v) => v == n as i64 || v == -(n as i64),
            _ => false,
        });
        prop_assert!(n_ok);
    }

    /// Generated WHERE predicates from the dialect parse, and the parsed
    /// projection count matches what was generated.
    #[test]
    fn parser_accepts_generated_queries(
        ncols in 1usize..6,
        threshold in -1000i64..1000,
        agg in prop_oneof![Just("AVG"), Just("SUM"), Just("COUNT"), Just("MIN")],
        with_group in any::<bool>(),
        with_order in any::<bool>(),
    ) {
        let cols: Vec<String> = (0..ncols).map(|i| format!("c{i}")).collect();
        let mut sql = format!(
            "SELECT {}, {agg}(c0) FROM t WHERE c0 > {threshold}",
            cols.join(", ")
        );
        if with_group {
            sql.push_str(&format!(" GROUP BY {}", cols.join(", ")));
        }
        if with_order {
            sql.push_str(" ORDER BY c0 LIMIT 7");
        }
        let q = parse_query(&sql).unwrap();
        let block = &q.branches[0];
        prop_assert_eq!(block.items.len(), ncols + 1);
        prop_assert_eq!(block.group_by.len(), if with_group { ncols } else { 0 });
        prop_assert_eq!(q.limit, if with_order { Some(7) } else { None });
        prop_assert!(block.where_clause.is_some());
    }

    /// Operator precedence: `a + b * c` always parses with `*` bound
    /// tighter, regardless of the literal operands.
    #[test]
    fn parser_precedence_invariant(a in 0i64..100, b in 0i64..100, c in 0i64..100) {
        let q = parse_query(&format!("SELECT {a} + {b} * {c} FROM t")).unwrap();
        let item = &q.branches[0].items[0];
        let SelectItem::Expr { expr, .. } = item else { panic!() };
        match expr {
            Expr::Binary { op, right, .. } => {
                prop_assert_eq!(*op, iolap_sql::BinaryOp::Add);
                let is_mul = matches!(
                    **right,
                    Expr::Binary { op: iolap_sql::BinaryOp::Mul, .. }
                );
                prop_assert!(is_mul);
            }
            other => prop_assert!(false, "unexpected shape {:?}", other),
        }
    }

    /// Nested parentheses to arbitrary (bounded) depth parse correctly.
    #[test]
    fn parser_handles_nesting_depth(depth in 0usize..30, v in 0i64..100) {
        let open = "(".repeat(depth);
        let close = ")".repeat(depth);
        let q = parse_query(&format!("SELECT {open}{v}{close} FROM t"));
        prop_assert!(q.is_ok());
    }
}
