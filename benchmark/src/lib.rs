//! The repo benchmark: six workloads, client's-eye online-aggregation
//! metrics, and per-layer probes taken from outside the program.
//!
//! Nothing under `crates/` is modified or instrumented. Layers are measured
//! by timing calls into their public functions, by replaying a layer's
//! recorded inputs through that function in isolation (a *probe*), and by
//! reading the counters the program already returns. See `README.md`.

pub mod compare;
pub mod inputs;
pub mod local;
pub mod probes;
pub mod record;
pub mod run;
pub mod serve;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod suite;
