//! # iolap-workloads
//!
//! The paper's two evaluation workloads (§8), rebuilt synthetically at
//! laptop scale:
//!
//! * [`tpch`] / [`tpch_queries`] — a TPC-H-lite generator with the paper's
//!   denormalized `lineorder` schema, and the query subset Q1, Q3, Q5, Q6,
//!   Q7 (flat SPJA) + Q11, Q17, Q18, Q20, Q22 (nested), adapted to positive
//!   relational algebra;
//! * [`conviva`] / [`conviva_queries`] — a synthetic video-QoE sessions
//!   table standing in for the proprietary Conviva trace, with queries
//!   C1–C12 (flat, nested, HAVING, UDF, UDAF) plus the SBI example query,
//!   and the UDF/UDAF registry they need.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod conviva;
pub mod conviva_queries;
pub mod tpch;
pub mod tpch_queries;

pub use conviva::{conviva_catalog, conviva_sessions, figure2_sessions};
pub use conviva_queries::{conviva_queries, conviva_query, conviva_registry};
pub use tpch::{tpch_catalog, TpchSizes};
pub use tpch_queries::{tpch_queries, tpch_query, QuerySpec};
