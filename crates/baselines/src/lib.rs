//! # iolap-baselines
//!
//! The comparator systems of the paper's evaluation (§8):
//!
//! * [`baseline`] — the traditional batch engine run on the full dataset
//!   ("unmodified SparkSQL");
//! * [`hda`] — the DBToaster-style higher-order delta algorithm: classical
//!   delta rules for flat SPJA, incrementally maintained inner views plus
//!   outer recomputation on `D_i` for nested queries (the `O(p²)` behaviour
//!   of §3.1).
//!
//! Classic Online Aggregation needs no driver of its own: on flat SPJA,
//! iOLAP's delta behaviour *is* OLA's.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod baseline;
pub mod hda;

pub use baseline::{run_baseline, run_baseline_plan, BaselineError, BaselineReport};
pub use hda::HdaDriver;
