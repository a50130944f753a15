//! Multi-tenant serving layer for the iOLAP reproduction.
//!
//! The paper's delivery model (§1, §6.4) is a user watching a single query
//! converge; BlinkDB's contract generalizes it to *bounded error or bounded
//! response time*. This crate is the layer between those two: it multiplexes
//! many concurrent incremental query sessions over a bounded worker pool,
//! delivering per-batch [`iolap_core::BatchReport`]s to each client while
//! enforcing admission control, memory-pressure shedding, and per-session
//! accuracy-target early stop.
//!
//! Architecture (one module per concern):
//!
//! * [`policy`] — [`StopPolicy`]: when a session's accuracy/latency contract
//!   is met and its slot can be freed early.
//! * [`session`] — the client-facing surface: [`SessionSpec`],
//!   [`SessionHandle`], lifecycle states, admission errors.
//! * [`scheduler`] — [`Server`]: the worker pool, the cooperative
//!   round-robin batch scheduler, admission control, and EDF shedding.
//! * [`wire`] — the exact `shard.fold` frame codec, and re-exports of the
//!   one JSON codec (`iolap_core::json`) the line protocol speaks.
//! * [`tcp`] — the `std::net::TcpListener` front-end speaking [`wire`].
//! * [`shard`] — scale-out (§8): the `serve_shard` worker and the
//!   `TcpShardPool` that ships aggregate fold fragments to it, merged by
//!   the coordinator on the partition-stable grid. A driver shards when
//!   its caller attaches a pool (`IolapDriver::set_shard_exec`).
//! * [`durable`] — crash-consistent persistence: the session manifest and
//!   per-session append logs (`iolap-store` segments) that let a restarted
//!   server resume live sessions and re-deliver byte-identical reports.
//!   The only module that knows the log format.
//!
//! Scheduling is *cooperative*: a worker runs exactly one mini-batch
//! (`IolapDriver::step`) per dispatch, then requeues the session behind its
//! peers. The ready queue is ordered by `(priority, batches-done, session
//! id, seed)`, so with a single worker a fixed-seed multi-tenant run is
//! fully byte-reproducible, and with any worker count each session's report
//! stream is byte-identical to its solo run (drivers share nothing).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod durable;
pub mod policy;
pub mod scheduler;
pub mod session;
pub mod shard;
pub mod tcp;
pub mod telemetry;
pub mod wire;

pub use durable::{DurableStore, LogRecord, ManifestEntry};
pub use policy::StopPolicy;
pub use scheduler::{RecoveryReport, ResumeStatus, Server, ServerConfig, ServerStats};
pub use session::{
    AdmitError, SessionEnd, SessionHandle, SessionSpec, SessionState, SessionSummary,
};
pub use telemetry::{
    canonical_trace, predict_batches_remaining, render_exposition, DurableCounters, SessionSlo,
    SloCounters, Telemetry,
};
