//! Inputs that must never panic the SQL front end: soup from the SQL
//! alphabet, and every truncation and one-byte edit of each workload
//! query. The parser's property tests and the root suite's planner tests
//! draw from this one module, so both layers see the same inputs.

use proptest::prelude::*;

/// The dialect's tokens and a few near misses (`EXISTS`, a lone quote, a
/// `--` comment, `!=`), so that soup reaches deep into the grammar.
const WORDS: &[&str] = &[
    "SELECT",
    "FROM",
    "WHERE",
    "GROUP",
    "BY",
    "HAVING",
    "ORDER",
    "LIMIT",
    "AS",
    "AND",
    "OR",
    "NOT",
    "IN",
    "BETWEEN",
    "LIKE",
    "ASC",
    "DESC",
    "DISTINCT",
    "NULL",
    "TRUE",
    "CASE",
    "WHEN",
    "THEN",
    "ELSE",
    "END",
    "EXISTS",
    "UNION",
    "ALL",
    "JOIN",
    "INNER",
    "ON",
    "(",
    ")",
    ",",
    ".",
    "*",
    "+",
    "-",
    "/",
    "%",
    "=",
    "<>",
    "!=",
    "<",
    "<=",
    ">",
    ">=",
    ";",
    "'",
    "'x%'",
    "--",
    "COUNT",
    "SUM",
    "AVG",
    "MAX",
    "a",
    "t",
    "sessions",
    "play_time",
    "lineorder",
    "0",
    "1",
    "2.5e3",
    "-7",
];

/// Bytes an edit writes: SQL punctuation, digits, letters, whitespace and
/// the lead byte of a multi-byte character.
const EDIT_BYTES: &[u8] = b"()',.;*+-/%=<>!\" \n0123456789aZ_\xc3";

/// The SQL of every TPC-H and Conviva workload query.
pub fn workload_sql() -> Vec<&'static str> {
    let queries = iolap_workloads::tpch_queries().into_iter();
    queries
        .chain(iolap_workloads::conviva_queries())
        .map(|q| q.sql)
        .collect()
}

/// Up to 40 words of the SQL alphabet, each followed by a space or not.
pub fn soup() -> impl Strategy<Value = String> {
    prop::collection::vec((0..WORDS.len(), any::<bool>()), 0..40).prop_map(|words| {
        let mut sql = String::new();
        for (i, space) in words {
            sql.push_str(WORDS[i]);
            if space {
                sql.push(' ');
            }
        }
        sql
    })
}

/// Every prefix of `sql`.
pub fn truncations(sql: &str) -> impl Iterator<Item = &str> {
    (0..=sql.len())
        .filter(|&i| sql.is_char_boundary(i))
        .map(move |i| &sql[..i])
}

/// One-byte edits of a workload query: the byte at a random position
/// deleted, overwritten by an [`EDIT_BYTES`] byte, and preceded by it.
pub fn edits() -> impl Strategy<Value = Vec<String>> {
    (any::<usize>(), any::<usize>(), 0..EDIT_BYTES.len()).prop_map(|(query, at, byte)| {
        let all = workload_sql();
        let sql = all[query % all.len()].as_bytes();
        let at = at % sql.len();
        let byte = EDIT_BYTES[byte];
        let deleted = [&sql[..at], &sql[at + 1..]].concat();
        let replaced = [&sql[..at], &[byte], &sql[at + 1..]].concat();
        let inserted = [&sql[..at], &[byte], &sql[at..]].concat();
        [deleted, replaced, inserted]
            .iter()
            .map(|b| String::from_utf8_lossy(b).into_owned())
            .collect()
    })
}
