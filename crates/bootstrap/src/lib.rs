//! # iolap-bootstrap
//!
//! Poissonized bootstrap error estimation for iOLAP (§2 "Error Estimation",
//! §5.1 "Discovering Certainty in Uncertainty"):
//!
//! * [`poisson`] — deterministic per-(seed, row, trial) Poisson(1)
//!   multiplicities, piggybacked onto query execution as extra weights;
//! * [`estimate`] — standard errors, relative standard deviation, and
//!   percentile confidence intervals from trial outputs;
//! * [`range`] — variation ranges `R(u)` with slack `ε`, history, the
//!   integrity check, and failure-recovery bookkeeping;
//! * [`interval`] — interval arithmetic to push ranges through predicate
//!   expressions (`x ϑ y` classification of §5.1).

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod estimate;
pub mod interval;
pub mod poisson;
pub mod range;

pub use estimate::{percentile, ErrorEstimate};
pub use poisson::{block_trial_weights, draw_row_into, poisson1, trial_weights, DEFAULT_TRIALS};
pub use range::{summary_of, RangeOutcome, RangeTracker, VariationRange};
