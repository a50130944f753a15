//! The §5.1 recovery policy: checkpoints and their retention, per-range
//! failure counts, quarantine re-admission, and the recovery-target rule.
//!
//! Targets live on one number line: a target is the first batch a replay
//! must cover (`0` = from the start). A range failure's target is its
//! tracker's recovery point, never earlier than the range's first pruning
//! use; an execution error's (a panicking publish's too) is the failed
//! batch itself. A failure whose range pruned nothing, or pruned only with
//! the fresh range the failure itself adopted, needs no replay
//! ([`stake`]). Restoring to a target picks the newest intact checkpoint
//! whose replay starts at or before it — restoring older than asked is
//! always sound, it only replays a longer suffix.
//!
//! The quarantine *set* lives in the registry (classification reads it);
//! this module decides who enters and leaves it, and a restore keeps the
//! live set. That is exact: at every save the set holds only barred refs,
//! and barred refs only accumulate, so a checkpoint's copy is always a
//! subset of the live one.

use crate::driver::DriverError;
use crate::metrics::Metrics;
use crate::ops::OnlineOp;
use crate::registry::AggRegistry;
use crate::sink::Sink;
use iolap_bootstrap::RangeOutcome;
use iolap_relation::AggRef;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// Range-integrity failures an aggregate cell may cause before it is
/// permanently barred from pruning. The first failure buys a replay and a
/// fresh range (a one-off tail event on stationary data should not cost
/// pruning forever); a second failure marks the range genuinely unstable.
pub(crate) const MAX_REF_FAILURES: usize = 2;

/// Rollbacks one mini-batch may take, over every failure cause. Past it an
/// execution error surfaces, and a range failure degrades: its offenders
/// are barred from pruning and the prefix is recomputed from the initial
/// checkpoint, HDA-style (metric `recovery.degraded`).
pub(crate) const MAX_RECOVERY_DEPTH: usize = 4;

/// Retained checkpoints, the initial one included: worst-case checkpoint
/// memory stays O(1) in the batch count.
pub(crate) const MAX_CHECKPOINTS: usize = 4;

#[derive(Clone)]
struct Checkpoint {
    batch: usize, // state is AFTER this batch (usize::MAX = initial)
    root: OnlineOp,
    sink: Sink,
    registry: AggRegistry,
    /// Integrity digest recorded at save time; a mismatch on restore marks
    /// the checkpoint unusable (bit rot, torn write — or an injected
    /// `CorruptCheckpoint` fault) and recovery falls back to an older one.
    digest: u64,
    /// Approximate state bytes cloned into this checkpoint (retention
    /// accounting; `0` for the pristine initial checkpoint).
    bytes: usize,
}

impl Checkpoint {
    /// Clone the live state after `batch`; `state_bytes` is
    /// `root.state_bytes()`, which a save has already measured on the live
    /// tree (one walk over operator state a batch instead of three).
    fn new(
        batch: usize,
        (root, sink, registry): (&OnlineOp, &Sink, &AggRegistry),
        state_bytes: (usize, usize),
        bytes: usize,
    ) -> Self {
        let mut cp = Checkpoint {
            batch,
            root: root.clone(),
            sink: sink.clone(),
            registry: registry.clone(),
            digest: 0,
            bytes,
        };
        cp.digest = cp.fingerprint(state_bytes);
        cp
    }

    /// First batch a replay from this checkpoint covers (`0` for the
    /// initial state, whose `batch` wraps).
    fn replay_from(&self) -> usize {
        self.batch.wrapping_add(1)
    }

    /// Structural fingerprint over content-derived sizes, given
    /// `root.state_bytes()`. Not a cryptographic checksum — cheap enough to
    /// verify on every restore, strong enough to catch the simulated
    /// corruption model (a damaged digest) and gross clone/restore bugs.
    fn fingerprint(&self, (join_bytes, other_bytes): (usize, usize)) -> u64 {
        let mut h = DefaultHasher::new();
        self.batch.hash(&mut h);
        join_bytes.hash(&mut h);
        other_bytes.hash(&mut h);
        self.registry.len().hash(&mut h);
        self.registry.published_bytes().hash(&mut h);
        self.registry.approx_bytes().hash(&mut h);
        self.sink.certain_len().hash(&mut h);
        h.finish()
    }
}

/// What a failure of one range puts at stake: the saved decisions that
/// read a range the failure has just shown to be wrong.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Stake {
    /// The range pruned nothing since the last restore, or it is
    /// quarantined: no saved decision read it.
    Unused,
    /// Its first use read the tracker's current observation. On a failure
    /// that is the fresh range the failure adopted, and decisions made
    /// with it stand (observations strictly increase between restores, so
    /// no older range can carry the same batch).
    Fresh,
    /// A decision read an older range; a replay must start no earlier than
    /// this first-use batch.
    Since(usize),
}

/// The one eligibility rule: what a failure of `r`'s range would put at
/// stake. [`Recovery::examine`] rolls back exactly on [`Stake::Since`], and
/// forced failures flip only such ranges.
pub(crate) fn stake(registry: &AggRegistry, r: &AggRef) -> Stake {
    match registry.first_use(r) {
        None => Stake::Unused,
        Some(_) if registry.is_quarantined(r) => Stake::Unused,
        Some(u) if u.observed.is_some() && u.observed == registry.observation(r) => Stake::Fresh,
        Some(u) => Stake::Since(u.batch),
    }
}

/// Checkpoints plus the failure bookkeeping that decides where a rollback
/// lands and which ranges may prune again.
pub(crate) struct Recovery {
    /// Retained checkpoints, oldest first. Index 0 is the pristine initial
    /// state: never corrupted, never pruned, so corruption fallback and
    /// degradation always have a floor.
    checkpoints: Vec<Checkpoint>,
    /// Range-integrity failures per aggregate cell (re-admission policy).
    failure_counts: HashMap<AggRef, usize>,
}

impl Recovery {
    /// Recovery state whose only checkpoint is the pre-batch-0 state.
    pub(crate) fn new(live: (&OnlineOp, &Sink, &AggRegistry)) -> Self {
        Recovery {
            checkpoints: vec![Checkpoint::new(usize::MAX, live, live.0.state_bytes(), 0)],
            failure_counts: HashMap::new(),
        }
    }

    /// Digest and bytes of the retained checkpoint saved after `batch`.
    pub(crate) fn checkpoint_for(&self, batch: usize) -> Option<(u64, usize)> {
        let c = self.checkpoints.iter().rfind(|c| c.batch == batch)?;
        Some((c.digest, c.bytes))
    }

    /// Retained checkpoints: `(count, approximate state bytes)`.
    pub(crate) fn footprint(&self) -> (usize, usize) {
        (
            self.checkpoints.len(),
            self.checkpoints.iter().map(|c| c.bytes).sum(),
        )
    }

    /// Index of the newest checkpoint whose replay starts at or before
    /// `target`.
    fn newest_for(&self, target: usize) -> Option<usize> {
        self.checkpoints
            .iter()
            .rposition(|c| c.replay_from() <= target)
    }

    /// Examine the outcomes of one processing pass: every failing range
    /// with a [`Stake::Since`] is quarantined (its failure count bumped),
    /// and the pass-wide target — the earliest over those failures — is
    /// returned with the failures waived as [`Stake::Fresh`]; a `None`
    /// target means the pass is clean.
    ///
    /// §5.1 failure handling, gated on usage: only ranges whose saved
    /// decisions read an older range can have corrupted them; the others
    /// simply adopt their fresh range. The target never predates a range's
    /// first pruning use — no decision involving it exists before then.
    pub(crate) fn examine<'a>(
        &mut self,
        registry: &mut AggRegistry,
        outcomes: &'a [(AggRef, RangeOutcome)],
    ) -> (Option<usize>, Vec<&'a AggRef>) {
        let mut target: Option<usize> = None;
        let mut waived = Vec::new();
        for (r, o) in outcomes {
            let RangeOutcome::Failure { replay_from } = o else {
                continue;
            };
            let first_used = match stake(registry, r) {
                Stake::Unused => continue,
                Stake::Fresh => {
                    waived.push(r);
                    continue;
                }
                Stake::Since(b) => b,
            };
            let t = replay_from.map_or(0, |j| j + 1).max(first_used);
            target = Some(target.map_or(t, |x| x.min(t)));
            *self.failure_counts.entry(r.clone()).or_insert(0) += 1;
            registry.quarantine(r.clone());
        }
        (target, waived)
    }

    /// Re-admit first offenders once a replay pass has re-published their
    /// aggregates, so their trackers hold fresh ranges (§5.1). Barring an
    /// attribute after one failure would degenerate single-predicate
    /// queries to HDA-style prefix recomputation; repeat offenders (see
    /// [`MAX_REF_FAILURES`]) stay quarantined, since each re-admission of
    /// an unstable range would buy another full replay.
    pub(crate) fn readmit(&self, registry: &mut AggRegistry) {
        let readmitted: Vec<AggRef> = registry
            .quarantined()
            .iter()
            .filter(|r| !self.is_barred(r))
            .cloned()
            .collect();
        for r in readmitted {
            registry.unquarantine(&r);
        }
    }

    /// Degradation: every quarantined attribute is barred from pruning for
    /// good, so the full-prefix recomputation that follows cannot fail the
    /// same way.
    pub(crate) fn bar_offenders(&mut self, registry: &AggRegistry) {
        for r in registry.quarantined() {
            self.failure_counts.insert(r.clone(), MAX_REF_FAILURES);
        }
    }

    fn is_barred(&self, r: &AggRef) -> bool {
        self.failure_counts.get(r).copied().unwrap_or(0) >= MAX_REF_FAILURES
    }

    /// Roll `root`, `sink` and `registry` back to the newest intact
    /// checkpoint for `target`, keeping the live quarantine set, and return
    /// the first batch the replay must cover. A checkpoint whose digest no
    /// longer matches its fingerprint is discarded and an older one tried;
    /// checkpoints newer than the restored one are dropped.
    pub(crate) fn restore(
        &mut self,
        target: usize,
        (root, sink, registry): (&mut OnlineOp, &mut Sink, &mut AggRegistry),
        metrics: &mut Metrics,
    ) -> Result<usize, DriverError> {
        while let Some(idx) = self.newest_for(target) {
            let cp = &self.checkpoints[idx];
            if cp.digest == cp.fingerprint(cp.root.state_bytes()) {
                *root = cp.root.clone();
                *sink = cp.sink.clone();
                registry.restore(&cp.registry);
                let start = cp.replay_from();
                self.checkpoints.truncate(idx + 1);
                return Ok(start);
            }
            metrics.add("ckpt.corrupt_detected", 1);
            self.checkpoints.remove(idx);
        }
        Err(DriverError::Setup("no usable checkpoint".into()))
    }

    /// Save the state after `batch`; `state_bytes` is `root.state_bytes()`,
    /// already measured by the caller. A `corrupt` save gets a damaged
    /// digest (injected bit rot), so a future restore detects the mismatch
    /// and skips it. Returns the bytes cloned.
    pub(crate) fn save(
        &mut self,
        batch: usize,
        live: (&OnlineOp, &Sink, &AggRegistry),
        state_bytes: (usize, usize),
        corrupt: bool,
    ) -> usize {
        let bytes = state_bytes.0 + state_bytes.1 + live.2.approx_bytes();
        let mut cp = Checkpoint::new(batch, live, state_bytes, bytes);
        if corrupt {
            cp.digest = !cp.digest;
        }
        self.checkpoints.push(cp);
        bytes
    }

    /// Bounded retention after a save of batch `i`. A future target is
    /// never earlier than the first pruning use of a live (non-barred)
    /// range — the usage gate in [`Self::examine`] never asks for more —
    /// so checkpoints older than the newest one for that target can never
    /// be selected: drop them. On top of that [`MAX_CHECKPOINTS`] bounds
    /// worst-case memory; dropping a feasible checkpoint under the cap is
    /// still sound, recovery just restores an older survivor and replays
    /// more.
    ///
    /// Returns the batch after which the oldest feasible restore leaves
    /// state (`None` when that is the initial state): a replay scans only
    /// rows after it, so the caller's weight memo may forget the rest.
    /// Only a fallback replay (a corrupt or cap-dropped checkpoint,
    /// degradation) can scan a forgotten row again, and it draws the same
    /// bits.
    pub(crate) fn prune(
        &mut self,
        i: usize,
        registry: &AggRegistry,
        metrics: &mut Metrics,
    ) -> Option<usize> {
        let feasible = registry
            .first_uses()
            .iter()
            .filter(|(r, _)| !self.is_barred(r))
            .map(|(_, u)| u.batch)
            .min()
            .unwrap_or(i + 1);
        let anchor = self.newest_for(feasible).unwrap_or(0);
        if anchor > 1 {
            metrics.add("ckpt.pruned", (anchor - 1) as u64);
            self.checkpoints.drain(1..anchor);
        }
        let excess = self.checkpoints.len().saturating_sub(MAX_CHECKPOINTS);
        if excess > 0 {
            metrics.add("ckpt.pruned", excess as u64);
            self.checkpoints.drain(1..=excess);
        }
        let (count, bytes) = self.footprint();
        metrics.add("ckpt.retained", count as u64);
        metrics.add("ckpt.retained_bytes", bytes as u64);
        let oldest = self.newest_for(feasible).filter(|k| *k > 0)?;
        Some(self.checkpoints[oldest].batch)
    }
}

#[cfg(test)]
impl Recovery {
    /// Batches of the retained checkpoints, oldest first.
    pub(crate) fn retained(&self) -> Vec<usize> {
        self.checkpoints.iter().map(|c| c.batch).collect()
    }

    /// Damage the newest checkpoint's digest.
    pub(crate) fn damage_newest(&mut self) {
        if let Some(c) = self.checkpoints.last_mut() {
            c.digest ^= 1;
        }
    }
}
