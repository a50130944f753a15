//! Per-session stopping rules: the BlinkDB-style accuracy/latency contract.
//!
//! An iOLAP session streams partial answers whose bootstrap confidence
//! intervals tighten batch by batch (§6). Most clients do not want *all*
//! the batches — they want "±3% at 95% confidence" or "whatever you have in
//! two seconds". A [`StopPolicy`] captures that contract; the scheduler
//! evaluates it after every delivered batch and retires the session (state
//! `Draining`) the moment it is met, freeing its slot for queued work.

use iolap_core::{BatchReport, Span};
use std::fmt;
use std::time::Duration;

/// When to stop a session before its driver exhausts the stream table.
///
/// Evaluated by the scheduler after each successful batch, *before* the
/// session is requeued. Whichever policy a session carries, finishing all
/// batches always ends it with `SessionEnd::Completed`.
#[derive(Clone, Debug, PartialEq)]
pub enum StopPolicy {
    /// Stop after `n` delivered batches (use [`StopPolicy::complete`] for
    /// "run everything").
    Batches(usize),
    /// Stop as soon as every uncertain cell's relative confidence-interval
    /// half-width is `<= target` (e.g. `0.05` = ±5%). `confidence` records
    /// the interval level of the contract and must match the driver's
    /// `IolapConfig::confidence` — the bootstrap intervals are computed at
    /// the driver's level, not recomputed here, so the `submit` op rejects
    /// a mismatch as `bad_request`. A batch with *no* error
    /// estimates (fully deterministic result, or estimate exactly zero →
    /// infinite relative width) never satisfies the target, so degenerate
    /// results cannot fake an accuracy contract.
    RelativeCI {
        /// Largest acceptable relative CI half-width, e.g. `0.05` for ±5%.
        target: f64,
        /// Confidence level of the contract (documents the driver's level).
        confidence: f64,
    },
    /// Stop at the first batch boundary after this much wall-clock time in
    /// the running state (time spent `Queued` does not count). Wall-clock
    /// by nature — sessions using it are excluded from byte-determinism
    /// guarantees.
    Deadline(Duration),
}

impl StopPolicy {
    /// Run every batch: `Batches(usize::MAX)` — no driver has that many.
    pub fn complete() -> Self {
        StopPolicy::Batches(usize::MAX)
    }

    /// Whether the contract is met by `report`, the batch just delivered:
    /// `batches_run` counts it, and `first_step` marks when the session
    /// started running (`None` if it never did).
    pub fn met(&self, report: &BatchReport, batches_run: usize, first_step: Option<Span>) -> bool {
        match self {
            StopPolicy::Batches(n) => batches_run >= *n,
            StopPolicy::RelativeCI { target, .. } => report
                .result
                .max_relative_ci_halfwidth()
                .is_some_and(|w| w <= *target),
            StopPolicy::Deadline(d) => first_step.is_some_and(|s| s.elapsed() >= *d),
        }
    }

    /// Short machine-readable label; also the policy's `Display` form.
    pub fn label(&self) -> String {
        match self {
            StopPolicy::Batches(n) if *n == usize::MAX => "complete".to_string(),
            StopPolicy::Batches(n) => format!("batches({n})"),
            StopPolicy::RelativeCI { target, confidence } => {
                format!("relative_ci({target},{confidence})")
            }
            StopPolicy::Deadline(d) => format!("deadline({}ms)", d.as_millis()),
        }
    }
}

impl fmt::Display for StopPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable() {
        assert_eq!(StopPolicy::complete().label(), "complete");
        assert_eq!(StopPolicy::Batches(3).label(), "batches(3)");
        assert_eq!(
            StopPolicy::RelativeCI {
                target: 0.05,
                confidence: 0.95
            }
            .label(),
            "relative_ci(0.05,0.95)"
        );
        assert_eq!(
            StopPolicy::Deadline(Duration::from_millis(250)).label(),
            "deadline(250ms)"
        );
    }
}
