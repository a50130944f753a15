//! # iolap-suite
//!
//! Workspace umbrella for the iOLAP reproduction: hosts the runnable
//! examples (`examples/`) and the cross-crate integration tests (`tests/`),
//! and re-exports the member crates for one-import convenience.
//!
//! See `README.md` for the tour, `DESIGN.md` for the system inventory, and
//! `EXPERIMENTS.md` for the paper-vs-measured record.

#![forbid(unsafe_code)]

pub use iolap_baselines as baselines;
pub use iolap_bootstrap as bootstrap;
pub use iolap_core as core;
pub use iolap_engine as engine;
pub use iolap_relation as relation;
pub use iolap_sql as sql;
pub use iolap_workloads as workloads;
