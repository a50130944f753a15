//! # iolap-core
//!
//! The paper's primary contribution: an incremental OLAP query engine that
//! models delta processing as uncertainty propagation (Zeng, Agarwal,
//! Stoica — SIGMOD 2016).
//!
//! Pipeline: a SQL query is planned (`iolap-engine`), rewritten online
//! ([`rewriter`], §7/App. C) using compile-time uncertainty annotation
//! ([`annotate`], §4.1), and executed by the mini-batch driver ([`driver`],
//! §7) over online operators ([`ops`], [`ops_join`], [`ops_agg`] — §4.2)
//! that exchange dual certain/uncertain channels ([`channel`]). Tuple-
//! uncertainty partitioning ([`classify`], §5) prunes recomputation via
//! variation ranges; lineage refs and folded-lineage thunks resolved
//! against the aggregate registry ([`registry`], §6) realize lazy
//! evaluation; the sink ([`sink`]) publishes scaled partial results with
//! bootstrap error estimates after every batch.

#![warn(missing_docs)]

pub mod annotate;
pub mod channel;
pub mod classify;
pub mod config;
pub mod driver;
pub mod faults;
pub mod metrics;
pub mod ops;
pub mod ops_agg;
pub mod ops_join;
pub mod registry;
pub mod rewriter;
pub mod shard;
pub mod sink;
pub mod trace;

pub use annotate::{annotate, AnnotateError, OpAnnotation};
pub use channel::{BatchData, ORow};
pub use classify::{classify, interval_of, Decision, IntervalValue};
pub use config::IolapConfig;
pub use driver::{
    install_plan_verifier, BatchReport, DriverError, IolapDriver, ReplayEvent, ResumeOutcome,
};
pub use faults::{Fault, FaultInjector, FaultKind, FaultPlan};
pub use iolap_engine::EngineError;
pub use metrics::{Histogram, Metrics, Span};
pub use ops::{BatchCtx, BatchStats, OnlineOp, ProjMode};
pub use registry::AggRegistry;
pub use rewriter::{rewrite, OnlineQuery, RewriteError};
pub use shard::{
    fold_fragment_partition, fold_partition, AccState, FoldFragment, FoldPartial, FragKind,
    FragSrc, LocalShardExec, PartialCall, PartialGroup, ShardExec, ShardTraceCtx, ShardWorkerStats,
    PARTITION_ROWS,
};
pub use sink::{Presentation, QueryResult, Sink};
pub use trace::{
    canonical_events, export_chrome, export_jsonl, self_time_by_name, EventKind, SpanId,
    TraceEvent, TraceMode, Tracer,
};
