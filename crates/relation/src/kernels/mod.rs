//! Vectorized kernels over columnar data and flat trial vectors.
//!
//! The engine's operators read `ORow` cells in place; the only kernels on
//! its hot path are the [`fold`] trial kernels, which one function in the
//! engine (`core::shard::fold_value`) calls per row and aggregate call.
//! [`Batch`](crate::columnar::Batch), [`Column`](crate::columnar::Column)
//! and [`filter::filter_cmp_f64`] remain as the row ⇄ batch facade that the
//! benchmark probes measure; the engine builds no columns.
//!
//! Kernels follow two disciplines, enforced by srclint rule **L007**:
//!
//! * They never clone per-row [`Value`](crate::Value)s in their loops —
//!   cells are read through the typed accessors on
//!   [`Column`](crate::columnar::Column), and results are *selection
//!   vectors* ([`SelVec`](crate::columnar::SelVec)) or plain `f64` slices,
//!   never materialized row copies.
//! * Materialization happens only at the facade boundary
//!   ([`facade`]: `Batch::from_rows`/`to_rows`), which is the one audited
//!   L007 exception (`scripts/lint-allow.txt`).
//!
//! Exactness contract: every kernel reproduces the row-at-a-time reference
//! semantics bit-for-bit — [`filter`] matches
//! [`Value::compare`](crate::Value::compare) under the engine's
//! NULL-is-false predicate rule, and [`fold`] performs float additions in
//! the same row order as the scalar aggregate fold. Property tests in
//! `crates/relation/tests/prop_columnar.rs` pin both claims against
//! randomized batches.

pub mod facade;
pub mod filter;
pub mod fold;
