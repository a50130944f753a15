//! # iolap-sql
//!
//! SQL frontend for the iOLAP reproduction: a lexer, AST, and
//! recursive-descent parser for the paper's supported dialect (§3.3) —
//! positive relational algebra (SELECT / PROJECT / JOIN / UNION ALL /
//! AGGREGATE) with nested scalar subqueries (correlated or not),
//! `IN (SELECT …)` semi-joins, `HAVING`, `CASE`, `BETWEEN`, `LIKE`, and
//! function calls resolved later against a UDF/UDAF registry.
//!
//! Set difference (`NOT EXISTS`, `EXCEPT`, `UNION DISTINCT`) is rejected at
//! parse time with an explanatory error, matching the paper's scoping.
//!
//! Planning (AST → logical plan, subquery decorrelation) lives in
//! `iolap-engine`, which layers on top of this crate.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ast;
pub mod lexer;
pub mod parser;

pub use ast::{
    BinaryOp, Expr, OrderItem, Query, SelectBlock, SelectItem, Statement, TableRef, UnaryOp,
};
pub use parser::{parse, parse_query, ParseError};
