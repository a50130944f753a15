//! Deterministic, seed-driven fault injection for the §5.1 recovery path.
//!
//! The paper's robustness claim (Theorem 1) rests on the controller
//! detecting variation-range integrity failures and recovering by
//! checkpoint restore + suffix replay. This module makes that path
//! *testable under adversity*: a [`FaultPlan`] in
//! [`IolapConfig`](crate::config::IolapConfig) schedules concrete faults —
//! forced range failures, dropped or corrupted checkpoints, panics inside
//! aggregate folds or registry derefs, perturbed variation ranges, and
//! durable-log damage (torn writes, truncated segments, stale manifest
//! digests) — at chosen mini-batches, and the
//! driver/registry/operators/durable layer consult the plan's
//! [`FaultInjector`] at the corresponding hook points.
//!
//! Design rules:
//!
//! * **Deterministic.** Every fault fires at an exact `(kind, batch)`
//!   coordinate; range perturbation jitter is a pure hash of
//!   `(seed, agg, column, batch)`. Two runs of the same plan inject
//!   identically.
//! * **One-shot.** Point faults (forced failure, checkpoint drop/corrupt,
//!   panics) fire at most once, claimed via atomic compare-exchange, so a
//!   hook reached from several threads still fires on exactly one.
//!   [`FaultKind::PerturbRanges`] instead stays active for its whole batch
//!   (every range read and publication during that batch is perturbed).
//! * **Unreachable unless armed.** The injector only exists when
//!   `config.fault_plan` is `Some`; every call site outside this module is
//!   gated on that `Option` (srclint rule `L004` enforces the gate and
//!   accepts no allowlist entries). A production config pays one pointer
//!   check per hook.
//! * **Sound perturbation only.** `PerturbRanges` *widens* the range that
//!   classification sees (more tuples stay in the non-deterministic set —
//!   conservative) and *shrinks* the envelope the tracker observes at
//!   publication (failures fire earlier — recovery handles them). The
//!   unsound direction (narrowing the classification view) is deliberately
//!   not expressible.

use crate::trace::{SpanId, Tracer};
use iolap_bootstrap::VariationRange;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// What to break. See the module docs for firing semantics.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultKind {
    /// Force a `RangeOutcome::Failure` on the first matching outcome the
    /// driver examines at the armed batch. `agg`/`column` filter which
    /// aggregate cell is hit; `None` matches any.
    FailRange {
        /// Aggregate id to match (`None` = any).
        agg: Option<u32>,
        /// Output column to match (`None` = any).
        column: Option<u16>,
    },
    /// Silently skip the checkpoint save scheduled after the armed batch
    /// (models a lost checkpoint write).
    DropCheckpoint,
    /// Corrupt the checkpoint saved after the armed batch: its integrity
    /// digest is damaged, so a later restore detects the mismatch and falls
    /// back to an older checkpoint (models bit rot / a torn write).
    CorruptCheckpoint,
    /// Panic as an aggregate starts a fold at the armed batch, whether the
    /// fold runs locally or on a shard pool (models a poisoned UDAF or a
    /// crashed partition).
    WorkerPanic,
    /// Panic inside a registry lineage dereference at the armed batch
    /// (models a corrupted broadcast table lookup).
    DerefPanic,
    /// Perturb every variation range touched during the armed batch:
    /// classification sees ranges widened by a relative `epsilon`, and
    /// published envelopes observed by the tracker shrink by `epsilon` —
    /// near-deterministic pruning decisions flip, in the sound directions
    /// only.
    PerturbRanges {
        /// Relative perturbation magnitude (e.g. `0.15`).
        epsilon: f64,
    },
    /// Tear the durable-log append at the armed batch boundary: only a
    /// prefix of the frame reaches disk, as when power fails mid-`write`.
    /// The segment reader's CRC framing detects the tear and recovery
    /// falls back to the valid prefix (a longer replay, same answer).
    TornWrite,
    /// Chop already-flushed bytes off the durable-log tail after the armed
    /// batch (models a filesystem losing its tail on crash — the torn
    /// write's nastier sibling: the damage lands on frames that were
    /// reported durable).
    TruncatedSegment,
    /// Damage the checkpoint digest recorded in the durable log at the
    /// armed batch (models a stale or bit-rotted manifest entry). Resume
    /// must detect the mismatch against the re-derived in-memory digest
    /// and count the record stale instead of trusting it.
    StaleManifest,
}

impl FaultKind {
    /// Stable label used in reports, `fault.injected` trace events and
    /// [`FaultInjector::fired`].
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::FailRange { .. } => "fail_range",
            FaultKind::DropCheckpoint => "drop_checkpoint",
            FaultKind::CorruptCheckpoint => "corrupt_checkpoint",
            FaultKind::WorkerPanic => "worker_panic",
            FaultKind::DerefPanic => "deref_panic",
            FaultKind::PerturbRanges { .. } => "perturb_ranges",
            FaultKind::TornWrite => "torn_write",
            FaultKind::TruncatedSegment => "truncated_segment",
            FaultKind::StaleManifest => "stale_manifest",
        }
    }
}

/// One scheduled fault: fire `kind` while processing mini-batch `batch`.
#[derive(Clone, Debug, PartialEq)]
pub struct Fault {
    /// The fault to inject.
    pub kind: FaultKind,
    /// 0-based mini-batch index at which it arms.
    pub batch: usize,
}

/// A deterministic schedule of faults, carried by
/// [`IolapConfig::fault_plan`](crate::config::IolapConfig::fault_plan).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed for perturbation jitter (independent of the engine seed so a
    /// storm can vary faults while holding data constant).
    pub seed: u64,
    /// The scheduled faults.
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// Empty plan with a jitter seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            faults: Vec::new(),
        }
    }

    /// Builder-style: schedule `kind` at `batch`.
    pub fn with(mut self, batch: usize, kind: FaultKind) -> Self {
        self.faults.push(Fault { kind, batch });
        self
    }
}

/// Runtime state of a [`FaultPlan`]: tracks which faults have fired and the
/// batch currently being processed. Shared (`Arc`) between the driver, the
/// registry (surviving checkpoint clones), and the operators; all methods
/// take `&self`.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    /// One-shot claim flag per scheduled fault.
    claimed: Vec<AtomicBool>,
    /// Times each fault actually fired (perturbation counts every touch).
    fires: Vec<AtomicU64>,
    /// Batch currently being processed, set by the driver; hooks that lack
    /// batch context (registry derefs, range reads) consult it.
    current_batch: AtomicUsize,
    /// Trace journal: every fault that actually fires emits a
    /// `fault.injected` instant event (perturbation emits one per batch
    /// activation, not one per touched range).
    tracer: Option<Arc<Tracer>>,
}

impl FaultInjector {
    /// Injector for `plan`, with nothing fired yet.
    pub fn new(plan: FaultPlan) -> Self {
        let n = plan.faults.len();
        FaultInjector {
            plan,
            claimed: (0..n).map(|_| AtomicBool::new(false)).collect(),
            fires: (0..n).map(|_| AtomicU64::new(0)).collect(),
            current_batch: AtomicUsize::new(usize::MAX),
            tracer: None,
        }
    }

    /// Attach a trace journal; fired faults become `fault.injected` events.
    pub fn with_tracer(mut self, tracer: Arc<Tracer>) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// The driver announces the batch it is about to process.
    pub fn begin_batch(&self, batch: usize) {
        self.current_batch.store(batch, Ordering::Relaxed);
    }

    /// Batch currently being processed (`usize::MAX` before the first).
    fn batch_now(&self) -> usize {
        self.current_batch.load(Ordering::Relaxed)
    }

    /// Claim the one-shot fault at plan index `i`; true exactly once.
    fn claim(&self, i: usize) -> bool {
        let won = self.claimed[i]
            .compare_exchange(false, true, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok();
        if won {
            self.fires[i].fetch_add(1, Ordering::Relaxed);
            self.trace_fire(i);
        }
        won
    }

    /// Journal that the fault at plan index `i` fired. Called at most once
    /// per fault (one-shot claim win, or first perturbation touch of a
    /// batch), so the flight recorder names every injected fault exactly
    /// once.
    fn trace_fire(&self, i: usize) {
        if let Some(t) = &self.tracer {
            let f = &self.plan.faults[i];
            t.instant(
                "fault.injected",
                self.batch_now(),
                SpanId::NONE,
                f.batch as u64,
                f.kind.label(),
            );
        }
    }

    /// Driver hook: should the outcome for `(agg, column)` examined during
    /// the current batch be forced into a range failure? One-shot.
    pub fn inject_range_failure(&self, agg: u32, column: u16) -> bool {
        let now = self.batch_now();
        for (i, f) in self.plan.faults.iter().enumerate() {
            if f.batch != now {
                continue;
            }
            if let FaultKind::FailRange { agg: a, column: c } = &f.kind {
                let hit =
                    a.map(|x| x == agg).unwrap_or(true) && c.map(|x| x == column).unwrap_or(true);
                if hit && self.claim(i) {
                    return true;
                }
            }
        }
        false
    }

    /// Driver hook: should the checkpoint save after `batch` be dropped?
    pub fn inject_checkpoint_drop(&self, batch: usize) -> bool {
        self.point_fault(batch, |k| matches!(k, FaultKind::DropCheckpoint))
    }

    /// Driver hook: should the checkpoint saved after `batch` be corrupted?
    pub fn inject_checkpoint_corruption(&self, batch: usize) -> bool {
        self.point_fault(batch, |k| matches!(k, FaultKind::CorruptCheckpoint))
    }

    /// Aggregate-fold hook: panics once when a [`FaultKind::WorkerPanic`]
    /// is armed for `batch`. The panic itself lives here so the operator
    /// hot paths stay free of panic sites (srclint L001); the driver's
    /// unwind barrier around the operator tree converts it to an
    /// `EngineError`.
    pub fn inject_worker_panic(&self, batch: usize) {
        if self.point_fault(batch, |k| matches!(k, FaultKind::WorkerPanic)) {
            panic!("injected fault: fold worker panic at batch {batch}");
        }
    }

    /// Registry hook: panics inside a lineage dereference when a
    /// [`FaultKind::DerefPanic`] is armed for the current batch.
    pub fn inject_deref_panic(&self) {
        let now = self.batch_now();
        if self.point_fault(now, |k| matches!(k, FaultKind::DerefPanic)) {
            panic!("injected fault: registry deref panic at batch {now}");
        }
    }

    /// Registry hook: the variation range classification is about to see.
    /// Under an armed [`FaultKind::PerturbRanges`], widen it by epsilon
    /// (relative, with deterministic jitter) — the sound direction: more
    /// tuples stay non-deterministic.
    pub fn inject_range_widening(
        &self,
        agg: u32,
        column: u16,
        range: VariationRange,
    ) -> VariationRange {
        match self.active_epsilon() {
            None => range,
            Some((i, eps)) => {
                if self.fires[i].fetch_add(1, Ordering::Relaxed) == 0 {
                    self.trace_fire(i);
                }
                let pad = eps * self.jitter(agg, column) * span_scale(range.lo, range.hi);
                VariationRange {
                    lo: range.lo - pad,
                    hi: range.hi + pad,
                }
            }
        }
    }

    /// Registry hook: the scaled `(lo, hi)` envelope about to be observed
    /// by a range tracker. Under an armed [`FaultKind::PerturbRanges`],
    /// shrink it toward its midpoint — the sound direction: escapes are
    /// detected earlier and buy a recovery replay.
    pub fn inject_envelope_shrink(&self, agg: u32, column: u16, lo: f64, hi: f64) -> (f64, f64) {
        match self.active_epsilon() {
            None => (lo, hi),
            Some((i, eps)) => {
                if self.fires[i].fetch_add(1, Ordering::Relaxed) == 0 {
                    self.trace_fire(i);
                }
                let cut = 0.5 * eps * self.jitter(agg, column) * (hi - lo).max(0.0);
                let (lo2, hi2) = (lo + cut, hi - cut);
                if lo2 <= hi2 {
                    (lo2, hi2)
                } else {
                    let mid = 0.5 * (lo + hi);
                    (mid, mid)
                }
            }
        }
    }

    /// Durable-layer hook: should the log append at the `batch` boundary
    /// be torn? Returns the surviving fraction of the frame
    /// (deterministic, in `[0.5, 1.0]`); `None` when not armed. One-shot.
    pub fn inject_torn_write(&self, batch: usize) -> Option<f64> {
        if self.point_fault(batch, |k| matches!(k, FaultKind::TornWrite)) {
            Some(self.jitter(SALT_TORN, 0))
        } else {
            None
        }
    }

    /// Durable-layer hook: should flushed bytes be chopped off the log
    /// tail after the `batch` boundary? Returns the damage fraction the
    /// caller maps onto a byte count; `None` when not armed. One-shot.
    pub fn inject_truncated_segment(&self, batch: usize) -> Option<f64> {
        if self.point_fault(batch, |k| matches!(k, FaultKind::TruncatedSegment)) {
            Some(self.jitter(SALT_TRUNC, 0))
        } else {
            None
        }
    }

    /// Durable-layer hook: XOR mask to damage the checkpoint digest
    /// recorded at the `batch` boundary. Always nonzero (low bit pinned),
    /// so the on-disk digest provably disagrees with the re-derived one;
    /// `None` when not armed. One-shot.
    pub fn inject_stale_manifest(&self, batch: usize) -> Option<u64> {
        if self.point_fault(batch, |k| matches!(k, FaultKind::StaleManifest)) {
            Some(self.mix64(SALT_STALE, 0) | 1)
        } else {
            None
        }
    }

    /// Per-fault firing record: `(kind label, armed batch, fire count)`.
    pub fn fired(&self) -> Vec<(&'static str, usize, u64)> {
        self.plan
            .faults
            .iter()
            .zip(self.fires.iter())
            .map(|(f, n)| (f.kind.label(), f.batch, n.load(Ordering::Relaxed)))
            .collect()
    }

    /// Total fires across all scheduled faults.
    pub fn total_fired(&self) -> u64 {
        self.fires.iter().map(|n| n.load(Ordering::Relaxed)).sum()
    }

    /// Claim a one-shot fault of a matching kind armed for `batch`.
    fn point_fault(&self, batch: usize, matches_kind: impl Fn(&FaultKind) -> bool) -> bool {
        for (i, f) in self.plan.faults.iter().enumerate() {
            if f.batch == batch && matches_kind(&f.kind) && self.claim(i) {
                return true;
            }
        }
        false
    }

    /// The epsilon of a `PerturbRanges` fault armed for the current batch,
    /// with its plan index (for fire accounting).
    fn active_epsilon(&self) -> Option<(usize, f64)> {
        let now = self.batch_now();
        for (i, f) in self.plan.faults.iter().enumerate() {
            if f.batch == now {
                if let FaultKind::PerturbRanges { epsilon } = f.kind {
                    return Some((i, epsilon));
                }
            }
        }
        None
    }

    /// Deterministic jitter in `[0.5, 1.0]` from
    /// `(plan seed, agg, column, current batch)` — splitmix64 finalizer.
    fn jitter(&self, agg: u32, column: u16) -> f64 {
        let z = self.mix64(agg, column);
        0.5 + 0.5 * ((z >> 11) as f64 / (1u64 << 53) as f64)
    }

    /// Raw splitmix64 hash of `(plan seed, agg, column, current batch)` —
    /// the jitter source, also used directly where a deterministic bit
    /// pattern (not a fraction) is wanted.
    fn mix64(&self, agg: u32, column: u16) -> u64 {
        let mut z = self
            .plan
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((agg as u64) << 32)
            .wrapping_add((column as u64) << 16)
            .wrapping_add(self.batch_now() as u64);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Jitter-salt coordinates for the durable-layer faults, so each kind
/// draws an independent deterministic stream from the same plan seed.
const SALT_TORN: u32 = 0xD0_0001;
const SALT_TRUNC: u32 = 0xD0_0002;
const SALT_STALE: u32 = 0xD0_0003;

/// Width scale for absolute perturbation of a possibly-degenerate range:
/// the span itself when meaningful, else the magnitude of the values, else
/// unit.
fn span_scale(lo: f64, hi: f64) -> f64 {
    let span = (hi - lo).abs();
    if span > f64::EPSILON {
        span
    } else {
        lo.abs().max(hi.abs()).max(1.0)
    }
}

/// Render a panic payload for error messages (shared by the driver's
/// unwind barriers, the shard pools and the server's worker loop).
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "unknown panic payload".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_faults_fire_once_at_their_batch() {
        let inj = FaultInjector::new(FaultPlan::new(1).with(2, FaultKind::DropCheckpoint).with(
            2,
            FaultKind::FailRange {
                agg: None,
                column: None,
            },
        ));
        assert!(!inj.inject_checkpoint_drop(1), "wrong batch must not fire");
        assert!(inj.inject_checkpoint_drop(2));
        assert!(!inj.inject_checkpoint_drop(2), "one-shot");
        inj.begin_batch(2);
        assert!(inj.inject_range_failure(7, 0));
        assert!(!inj.inject_range_failure(7, 0), "one-shot");
        assert_eq!(inj.total_fired(), 2);
    }

    #[test]
    fn fail_range_respects_matchers_and_batch() {
        let inj = FaultInjector::new(FaultPlan::new(1).with(
            3,
            FaultKind::FailRange {
                agg: Some(1),
                column: Some(0),
            },
        ));
        inj.begin_batch(2);
        assert!(!inj.inject_range_failure(1, 0), "not armed yet");
        inj.begin_batch(3);
        assert!(!inj.inject_range_failure(2, 0), "agg mismatch");
        assert!(!inj.inject_range_failure(1, 1), "column mismatch");
        assert!(inj.inject_range_failure(1, 0));
    }

    #[test]
    fn perturbation_widens_view_and_shrinks_envelope() {
        let inj = FaultInjector::new(
            FaultPlan::new(9).with(1, FaultKind::PerturbRanges { epsilon: 0.2 }),
        );
        inj.begin_batch(1);
        let r = inj.inject_range_widening(0, 0, VariationRange { lo: 10.0, hi: 20.0 });
        assert!(
            r.lo < 10.0 && r.hi > 20.0,
            "classification view widens: {r:?}"
        );
        let (lo, hi) = inj.inject_envelope_shrink(0, 0, 10.0, 20.0);
        assert!(
            lo > 10.0 && hi < 20.0 && lo <= hi,
            "envelope shrinks: {lo} {hi}"
        );
        // Deterministic: same coordinates → same perturbation.
        let r2 = inj.inject_range_widening(0, 0, VariationRange { lo: 10.0, hi: 20.0 });
        assert_eq!((r.lo, r.hi), (r2.lo, r2.hi));
        // Inactive outside the armed batch.
        inj.begin_batch(2);
        let r3 = inj.inject_range_widening(0, 0, VariationRange { lo: 10.0, hi: 20.0 });
        assert_eq!((r3.lo, r3.hi), (10.0, 20.0));
        assert!(inj.total_fired() >= 3);
    }

    #[test]
    fn degenerate_range_still_widens() {
        let inj = FaultInjector::new(
            FaultPlan::new(5).with(0, FaultKind::PerturbRanges { epsilon: 0.5 }),
        );
        inj.begin_batch(0);
        let r = inj.inject_range_widening(3, 1, VariationRange { lo: 4.0, hi: 4.0 });
        assert!(r.lo < 4.0 && r.hi > 4.0, "{r:?}");
    }

    #[test]
    fn worker_panic_fires_exactly_once() {
        let inj = FaultInjector::new(FaultPlan::new(1).with(0, FaultKind::WorkerPanic));
        let first =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| inj.inject_worker_panic(0)));
        assert!(first.is_err(), "armed worker panic must fire");
        inj.inject_worker_panic(0); // claimed: must be a no-op now
        assert_eq!(inj.total_fired(), 1);
    }

    #[test]
    fn fired_faults_journal_trace_events() {
        let tracer = Arc::new(Tracer::new());
        let inj = FaultInjector::new(
            FaultPlan::new(3)
                .with(1, FaultKind::DropCheckpoint)
                .with(2, FaultKind::PerturbRanges { epsilon: 0.1 }),
        )
        .with_tracer(Arc::clone(&tracer));
        inj.begin_batch(1);
        assert!(inj.inject_checkpoint_drop(1));
        inj.begin_batch(2);
        // Two touches, but only the first activation is journalled.
        inj.inject_range_widening(0, 0, VariationRange { lo: 1.0, hi: 2.0 });
        inj.inject_range_widening(0, 1, VariationRange { lo: 1.0, hi: 2.0 });
        let labels: Vec<String> = tracer
            .events()
            .iter()
            .filter(|e| e.name == "fault.injected")
            .map(|e| e.detail.clone())
            .collect();
        assert_eq!(labels, vec!["drop_checkpoint", "perturb_ranges"]);
    }

    #[test]
    fn durable_faults_fire_once_with_deterministic_payloads() {
        let plan = FaultPlan::new(11)
            .with(1, FaultKind::TornWrite)
            .with(2, FaultKind::TruncatedSegment)
            .with(3, FaultKind::StaleManifest);
        let a = FaultInjector::new(plan.clone());
        let b = FaultInjector::new(plan);
        for inj in [&a, &b] {
            assert!(inj.inject_torn_write(0).is_none(), "wrong batch");
            inj.begin_batch(1);
            let frac = inj.inject_torn_write(1).expect("armed torn write");
            assert!((0.5..=1.0).contains(&frac), "{frac}");
            assert!(inj.inject_torn_write(1).is_none(), "one-shot");
            inj.begin_batch(2);
            let chop = inj.inject_truncated_segment(2).expect("armed truncation");
            assert!((0.5..=1.0).contains(&chop), "{chop}");
            inj.begin_batch(3);
            let mask = inj.inject_stale_manifest(3).expect("armed stale manifest");
            assert_ne!(mask, 0, "mask must actually damage the digest");
            assert!(inj.inject_stale_manifest(3).is_none(), "one-shot");
            assert_eq!(inj.total_fired(), 3);
        }
        // Same plan seed → identical payloads across injectors.
        a.begin_batch(1);
        b.begin_batch(1);
        assert_eq!(a.jitter(SALT_TORN, 0), b.jitter(SALT_TORN, 0));
        assert_eq!(a.mix64(SALT_STALE, 0), b.mix64(SALT_STALE, 0));
        // Distinct salts → independent streams.
        assert_ne!(a.mix64(SALT_TORN, 0), a.mix64(SALT_TRUNC, 0));
    }

    #[test]
    fn durable_fault_labels_are_stable() {
        assert_eq!(FaultKind::TornWrite.label(), "torn_write");
        assert_eq!(FaultKind::TruncatedSegment.label(), "truncated_segment");
        assert_eq!(FaultKind::StaleManifest.label(), "stale_manifest");
    }

    #[test]
    fn panic_message_downcasts() {
        assert_eq!(panic_message(Box::new("boom")), "boom");
        assert_eq!(panic_message(Box::new(String::from("sploosh"))), "sploosh");
        assert_eq!(panic_message(Box::new(42u32)), "unknown panic payload");
    }
}
