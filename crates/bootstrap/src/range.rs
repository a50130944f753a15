//! Variation ranges for uncertain attributes (§5.1).
//!
//! For an uncertain attribute `u`, the *variation range* `R(u)` is the set
//! of values `u` may take over the remaining online execution. iOLAP
//! approximates it from the bootstrap outputs `û` at each batch as
//!
//! ```text
//! R(u) = [min(û) − ε·stdev(û),  max(û) + ε·stdev(û)]
//! ```
//!
//! where `ε` is the user-tunable *slack*. Ranges are monotonically shrunk by
//! intersection across batches, and an *integrity check* guards correctness:
//! when a new batch's trial envelope escapes the previous range, the tracker
//! reports a failure and the controller recovers by replaying from the last
//! batch whose range still covers the new envelope (Theorem 1's
//! failure-recover case).

/// `(min, max, stdev)` over the finite entries of `xs`; `None` when nothing
/// is finite.
pub fn summary_of(xs: &[f64]) -> Option<(f64, f64, f64)> {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    let mut n = 0.0;
    let mut sum = 0.0;
    for &x in xs {
        if !x.is_finite() {
            continue;
        }
        lo = lo.min(x);
        hi = hi.max(x);
        n += 1.0;
        sum += x;
    }
    if n == 0.0 {
        return None;
    }
    let mean = sum / n;
    let var = xs
        .iter()
        .filter(|x| x.is_finite())
        .map(|x| (x - mean) * (x - mean))
        .sum::<f64>()
        / n;
    Some((lo, hi, var.sqrt()))
}

/// A closed interval `[lo, hi]`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct VariationRange {
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
}

impl VariationRange {
    /// Construct; swaps ends if reversed.
    pub fn new(lo: f64, hi: f64) -> Self {
        if lo <= hi {
            VariationRange { lo, hi }
        } else {
            VariationRange { lo: hi, hi: lo }
        }
    }

    /// Degenerate range of a deterministic value (`R(d) = {d}`, §5.1).
    pub fn point(v: f64) -> Self {
        VariationRange { lo: v, hi: v }
    }

    /// The everything range (used before any observation).
    pub fn unbounded() -> Self {
        VariationRange {
            lo: f64::NEG_INFINITY,
            hi: f64::INFINITY,
        }
    }

    /// Range of the bootstrap outputs with slack `ε` (§5.1). Non-finite
    /// trial values (empty resamples of small groups produce NULL/NaN
    /// aggregates) are ignored; returns `None` when nothing finite remains.
    pub fn from_trials(trials: &[f64], slack: f64) -> Option<Self> {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        let mut n = 0.0;
        let mut sum = 0.0;
        for &t in trials {
            if !t.is_finite() {
                continue;
            }
            lo = lo.min(t);
            hi = hi.max(t);
            n += 1.0;
            sum += t;
        }
        if n == 0.0 {
            return None;
        }
        let mean = sum / n;
        let var = trials
            .iter()
            .filter(|t| t.is_finite())
            .map(|x| (x - mean) * (x - mean))
            .sum::<f64>()
            / n;
        let sd = var.sqrt();
        Some(VariationRange {
            lo: lo - slack * sd,
            hi: hi + slack * sd,
        })
    }

    /// True when `self ∩ other ≠ ∅`.
    pub fn overlaps(&self, other: &VariationRange) -> bool {
        self.lo <= other.hi && other.lo <= self.hi
    }

    /// True when `other ⊆ self`.
    pub fn covers(&self, other: &VariationRange) -> bool {
        self.lo <= other.lo && other.hi <= self.hi
    }

    /// True when `v ∈ self`.
    pub fn contains(&self, v: f64) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// `self ∩ other`; `None` when disjoint.
    pub fn intersect(&self, other: &VariationRange) -> Option<VariationRange> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        if lo <= hi {
            Some(VariationRange { lo, hi })
        } else {
            None
        }
    }

    /// Interval width.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }
}

/// Outcome of observing a new batch of bootstrap outputs for one uncertain
/// attribute.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RangeOutcome {
    /// Integrity held; the range was tightened (or unchanged).
    Ok,
    /// Integrity failed: the new trial envelope escaped the tracked range.
    /// Recovery must replay from after `replay_from` (0-based batch index;
    /// the state *at the end of* `replay_from` is still valid). A
    /// `replay_from` of `None` means no prior range covers the new envelope
    /// — replay from scratch.
    Failure {
        /// Last batch whose range covers the new envelope.
        replay_from: Option<usize>,
    },
}

/// Tracks the variation range of one uncertain attribute across batches.
#[derive(Clone, Debug)]
pub struct RangeTracker {
    slack: f64,
    /// `(batch, range in effect after that batch)`, in batch order. Batches
    /// are global indices — an attribute first observed at batch 5 has no
    /// earlier entries.
    history: Vec<(usize, VariationRange)>,
}

impl RangeTracker {
    /// New tracker with slack `ε`.
    pub fn new(slack: f64) -> Self {
        RangeTracker {
            slack,
            history: Vec::new(),
        }
    }

    /// The slack parameter.
    pub fn slack(&self) -> f64 {
        self.slack
    }

    /// Current range, if any batch has been observed.
    pub fn current(&self) -> Option<&VariationRange> {
        self.history.last().map(|(_, r)| r)
    }

    /// Number of observed batches.
    pub fn batches(&self) -> usize {
        self.history.len()
    }

    /// Global batch of the observation that set the current range, if any.
    /// Between restores of a saved tracker these strictly increase, so a
    /// reader that records it can later tell whether the range it read is
    /// still the one in effect.
    pub fn last_batch(&self) -> Option<usize> {
        self.history.last().map(|(b, _)| *b)
    }

    /// Observe the bootstrap outputs of batch 0 onwards, without global
    /// batch bookkeeping (tests, simple uses): batches are numbered by
    /// observation count.
    pub fn observe(&mut self, trials: &[f64]) -> RangeOutcome {
        let next = self.history.last().map(|(b, _)| b + 1).unwrap_or(0);
        self.observe_at(trials, next)
    }

    /// Observe the bootstrap outputs of global batch `batch`. Implements
    /// the §5.1 update-and-check procedure; `replay_from` in a failure
    /// outcome is a global batch index.
    pub fn observe_at(&mut self, trials: &[f64], batch: usize) -> RangeOutcome {
        match summary_of(trials) {
            Some((lo, hi, sd)) => self.observe_summary(lo, hi, sd, batch),
            None => {
                // No finite observations: adopt/keep the unbounded range.
                if self.history.is_empty() {
                    self.history.push((batch, VariationRange::unbounded()));
                }
                RangeOutcome::Ok
            }
        }
    }

    /// Observe a batch given only the envelope `[lo, hi]` and standard
    /// deviation of the (possibly rescaled) bootstrap outputs. Exactly
    /// equivalent to [`RangeTracker::observe_at`] — the §5.1 rule only ever
    /// reads min/max/stdev — and O(1), which lets the aggregate registry
    /// refresh untouched groups after a scale change without rebuilding
    /// trial vectors.
    pub fn observe_summary(&mut self, lo: f64, hi: f64, sd: f64, batch: usize) -> RangeOutcome {
        debug_assert!(
            self.last_batch().is_none_or(|b| b < batch),
            "observation batches must strictly increase: {batch} after {:?}",
            self.last_batch()
        );
        let fresh = VariationRange::new(lo - self.slack * sd, hi + self.slack * sd);
        match self.history.last().map(|(_, r)| *r) {
            None => {
                self.history.push((batch, fresh));
                RangeOutcome::Ok
            }
            Some(prev) => {
                // Integrity: the raw trial envelope must sit inside the
                // previous range.
                let envelope = VariationRange::new(lo, hi);
                if prev.covers(&envelope) {
                    let merged = fresh.intersect(&prev).unwrap_or(fresh);
                    self.history.push((batch, merged));
                    RangeOutcome::Ok
                } else {
                    // Trace up the history: last batch j with fresh ⊆ R_j.
                    let replay_from = self
                        .history
                        .iter()
                        .rev()
                        .find(|(_, r)| r.covers(&fresh))
                        .map(|(b, _)| *b);
                    // Reset history to the recovery point and adopt the
                    // fresh range for the replayed suffix.
                    match replay_from {
                        Some(j) => self.history.retain(|(b, _)| *b <= j),
                        None => self.history.clear(),
                    }
                    self.history.push((batch, fresh));
                    RangeOutcome::Failure { replay_from }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_from_trials_has_slack() {
        let trials = [10.0, 12.0, 14.0];
        let r0 = VariationRange::from_trials(&trials, 0.0).unwrap();
        assert_eq!(r0, VariationRange::new(10.0, 14.0));
        let r2 = VariationRange::from_trials(&trials, 2.0).unwrap();
        assert!(r2.lo < 10.0 && r2.hi > 14.0);
        assert!(r2.covers(&r0));
    }

    #[test]
    fn overlap_and_cover() {
        let a = VariationRange::new(0.0, 10.0);
        let b = VariationRange::new(5.0, 15.0);
        let c = VariationRange::new(11.0, 12.0);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        assert!(a.covers(&VariationRange::new(1.0, 9.0)));
        assert!(!a.covers(&b));
    }

    #[test]
    fn point_range_of_deterministic_value() {
        let p = VariationRange::point(58.0);
        assert!(p.contains(58.0));
        assert_eq!(p.width(), 0.0);
        // Example 2 of the paper: buffer_time 58 vs R = [21.1, 53.9]:
        // disjoint ⇒ t2 is near-deterministic (always selected).
        assert!(!p.overlaps(&VariationRange::new(21.1, 53.9)));
    }

    #[test]
    fn tracker_shrinks_by_intersection() {
        let mut t = RangeTracker::new(1.0);
        assert_eq!(t.observe(&[30.0, 40.0]), RangeOutcome::Ok);
        let r1 = *t.current().unwrap();
        assert_eq!(t.observe(&[33.0, 38.0]), RangeOutcome::Ok);
        let r2 = *t.current().unwrap();
        assert!(r1.covers(&r2));
        assert!(r2.width() <= r1.width());
    }

    #[test]
    fn tracker_detects_failure_and_recovers() {
        let mut t = RangeTracker::new(0.0); // zero slack → fragile
        assert_eq!(t.observe(&[10.0, 11.0]), RangeOutcome::Ok);
        // Envelope [20, 21] escapes [10, 11] → failure; no earlier range
        // covers it, so replay from scratch.
        match t.observe(&[20.0, 21.0]) {
            RangeOutcome::Failure { replay_from } => assert_eq!(replay_from, None),
            other => panic!("expected failure, got {other:?}"),
        }
        // Tracker adopted the fresh range and keeps working.
        assert_eq!(t.observe(&[20.5, 20.8]), RangeOutcome::Ok);
    }

    #[test]
    fn tracker_recovers_to_intermediate_batch() {
        let mut t = RangeTracker::new(0.0);
        t.observe(&[0.0, 100.0]); // batch 0: wide
        t.observe(&[40.0, 50.0]); // batch 1: narrow
                                  // Batch 2 envelope [60, 70] escapes batch 1's range but fits batch
                                  // 0's → replay from after batch 0.
        match t.observe(&[60.0, 70.0]) {
            RangeOutcome::Failure { replay_from } => assert_eq!(replay_from, Some(0)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn observation_batches_strictly_increase_through_a_failure() {
        let mut t = RangeTracker::new(0.0);
        assert_eq!(t.last_batch(), None);
        t.observe_at(&[0.0, 100.0], 2);
        t.observe_at(&[40.0, 50.0], 5);
        assert_eq!(t.last_batch(), Some(5));
        // A failure cuts the history back to its recovery point and adopts
        // the fresh range at the failing batch, the newest observation.
        assert!(matches!(
            t.observe_at(&[60.0, 70.0], 7),
            RangeOutcome::Failure {
                replay_from: Some(2)
            }
        ));
        assert_eq!(t.last_batch(), Some(7));
        assert_eq!(t.batches(), 2);
        // Observations numbered by count continue after the newest batch.
        t.observe(&[62.0, 68.0]);
        assert_eq!(t.last_batch(), Some(8));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "observation batches must strictly increase")]
    fn observing_a_batch_twice_is_caught() {
        let mut t = RangeTracker::new(1.0);
        t.observe_at(&[1.0, 2.0], 3);
        t.observe_at(&[1.0, 2.0], 3);
    }

    #[test]
    fn larger_slack_fails_less() {
        // Trials hover around the true value 50 with varying spread, as a
        // converging running aggregate does. Zero slack makes the envelope
        // escape the intersected range; slack 2 absorbs the noise (§8.4:
        // "setting a slightly bigger slack can significantly reduce the
        // probability of failure-recovery").
        let center = [50.8, 49.2, 50.5, 49.5, 50.4, 49.6, 50.3, 49.8];
        let noise = [3.0, 2.8, 2.5, 2.2, 2.0, 1.8, 1.5, 1.2];
        let seqs: Vec<Vec<f64>> = center
            .iter()
            .zip(noise.iter())
            .map(|(c, n)| vec![c - n, *c, c + n])
            .collect();
        let mut fail0 = 0;
        let mut fail2 = 0;
        let mut t0 = RangeTracker::new(0.0);
        let mut t2 = RangeTracker::new(2.0);
        for s in &seqs {
            if matches!(t0.observe(s), RangeOutcome::Failure { .. }) {
                fail0 += 1;
            }
            if matches!(t2.observe(s), RangeOutcome::Failure { .. }) {
                fail2 += 1;
            }
        }
        assert!(fail0 > fail2, "fail0={fail0} fail2={fail2}");
        assert_eq!(fail2, 0);
    }
}
