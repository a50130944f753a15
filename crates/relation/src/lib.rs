//! # iolap-relation
//!
//! Data model substrate for the iOLAP reproduction: dynamically typed
//! values, schemas, bag relations with *real-valued* tuple multiplicities
//! (paper Appendix A), a catalog of named tables, and the mini-batch
//! partitioner of the paper's §2/§7 execution model.
//!
//! Everything downstream — the batch engine, the iOLAP incremental engine,
//! and the HDA/OLA baselines — shares this representation, which is what
//! makes the Theorem-1 equivalence tests (incremental result == batch result
//! on the accumulated prefix) possible to state exactly.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod batch;
pub mod catalog;
pub mod columnar;
pub mod kernels;
pub mod relation;
pub mod schema;
pub mod value;

pub use batch::{BatchedRelation, PartitionMode, SamplingProgress};
pub use catalog::{Catalog, CatalogError};
pub use columnar::{Batch, Bitmap, Column, ColumnData, SelVec};
pub use relation::{row_approx_bytes, Relation, Row};
pub use schema::{Field, Schema, SchemaError};
pub use value::{AggRef, DataType, PendingCell, Value};
