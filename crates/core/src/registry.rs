//! The aggregate registry: lazy evaluation's broadcast table (§6.2).
//!
//! Every online AGGREGATE operator publishes, per group, its current running
//! value and per-trial bootstrap values here, keyed by `(agg_id, group
//! key)`. Tuples elsewhere in the plan carry `Value::Ref` lineage cells
//! pointing into this table; expression evaluation dereferences them
//! on demand. This is the paper's broadcast-join formulation: "in practice
//! the aggregate relation `rel` is usually very small, and it is often very
//! efficient to broadcast-join `t` and `rel`" — here the broadcast table is
//! the registry and the join is a hash lookup at eval time.
//!
//! The registry also owns each uncertain attribute's [`RangeTracker`]
//! (variation ranges, §5.1), so predicate classification and failure
//! detection read from one place.

use crate::channel::ORow;
use crate::faults::FaultInjector;
use crate::trace::{SpanId, NO_BATCH};
use iolap_bootstrap::{RangeOutcome, RangeTracker, VariationRange};
use iolap_engine::{EvalContext, Expr, RefMode, RefResolver};
use iolap_relation::{AggRef, PendingCell, Value};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Payload of a `Value::Pending` cell: the static lineage function `f`
/// together with its folded input row `x` (§6.1: "iOLAP only propagates
/// `x`"; `f` is extracted at compile time and shared — here via `Arc`).
pub struct ThunkPayload {
    /// The lineage function over the captured row.
    pub expr: Arc<Expr>,
    /// Folded operands: deterministic values are materialized; uncertain
    /// operands remain `Ref`/`Pending` cells.
    pub row: Arc<[Value]>,
}

/// One group's published state. Values and trials are stored *unscaled*;
/// the per-column `scale` (the extensive-aggregate `m_i`, 1.0 for intensive
/// columns) is applied lazily at resolution. This is what makes *delta
/// publication* possible: a group untouched by a batch only needs its scale
/// refreshed (an O(1) range observation), not its trial vectors rebuilt.
#[derive(Clone, Debug)]
pub struct GroupEntry {
    /// Current running values, unscaled, one per aggregate column.
    pub current: Vec<Value>,
    /// Per-trial unscaled values: `trials[c][t]` = column `c` in trial `t`.
    pub trials: Vec<Arc<[f64]>>,
    /// Per-column scale factor applied at resolution.
    pub scale: Vec<f64>,
    /// Cached `(min, max, std)` of the unscaled observations (trials +
    /// current), per column; `None` when no finite observation exists.
    pub stats: Vec<Option<(f64, f64, f64)>>,
    /// Variation-range tracker per aggregate column (tracks *scaled*
    /// observations — the values predicates actually see).
    pub trackers: Vec<RangeTracker>,
}

impl GroupEntry {
    /// Scaled current value of column `c`.
    pub fn scaled_current(&self, c: usize) -> Value {
        match self.current.get(c) {
            Some(v) => scale_value(v, self.scale.get(c).copied().unwrap_or(1.0)),
            None => Value::Null,
        }
    }

    /// Scaled finite trial values of column `c`.
    pub fn scaled_trials(&self, c: usize) -> Vec<f64> {
        let s = self.scale.get(c).copied().unwrap_or(1.0);
        self.trials
            .get(c)
            .map(|tv| {
                tv.iter()
                    .copied()
                    .filter(|x| x.is_finite())
                    .map(|x| x * s)
                    .collect()
            })
            .unwrap_or_default()
    }
}

fn scale_value(v: &Value, s: f64) -> Value {
    if s == 1.0 {
        return v.clone();
    }
    match v.as_f64() {
        Some(x) => Value::Float(x * s),
        None => v.clone(),
    }
}

/// A range's first pruning use since the last restored checkpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct FirstUse {
    /// Batch whose pass made the decision.
    pub(crate) batch: usize,
    /// Batch of the tracker observation the decision read (`None`: the
    /// group had no tracker yet).
    pub(crate) observed: Option<usize>,
}

/// The shared registry. Cloning snapshots it (used by checkpointing).
#[derive(Debug, Default)]
pub struct AggRegistry {
    groups: HashMap<(u32, Arc<[Value]>), GroupEntry>,
    /// Attributes whose variation range produced a near-deterministic
    /// pruning decision (§5.2), mapped to their first use: the batch it
    /// happened in and the tracker observation ([`RangeTracker::last_batch`])
    /// it read. A range-integrity failure only requires replay when — and
    /// as far back as — the failed attribute was *used*: unused ranges
    /// influence no saved decision, and decisions cannot predate first use
    /// (the Theorem-1 argument only depends on decisions actually made).
    used_for_pruning: HashMap<AggRef, FirstUse>,
    /// Attributes whose range failed while in use. Quarantined attributes
    /// report no variation range, so classification keeps their tuples in
    /// the non-deterministic set — bounded recomputation instead of
    /// repeated failure-recovery thrash. (Engineering extension; the paper
    /// leaves repeated-failure behaviour unspecified.)
    quarantined: std::collections::HashSet<AggRef>,
    /// Bytes published this batch (the broadcast cost; Fig 9(c)).
    published_bytes: usize,
    /// Lineage dereferences served (metric `registry.derefs`). Atomic
    /// because resolution runs through `&self` during expression
    /// evaluation.
    derefs: AtomicU64,
    /// Fault-injection hooks, armed only when the driver's config carries a
    /// `FaultPlan`. Shared (not snapshotted) across checkpoint clones so
    /// one-shot faults stay one-shot through restores.
    faults: Option<Arc<FaultInjector>>,
    /// Shared trace journal, armed by the driver when tracing is enabled.
    /// Like `faults`, shared (not snapshotted) across checkpoint clones —
    /// a restored registry keeps appending to the same journal.
    tracer: Option<Arc<crate::trace::Tracer>>,
}

impl Clone for AggRegistry {
    fn clone(&self) -> Self {
        AggRegistry {
            groups: self.groups.clone(),
            used_for_pruning: self.used_for_pruning.clone(),
            quarantined: self.quarantined.clone(),
            published_bytes: self.published_bytes,
            derefs: AtomicU64::new(self.derefs.load(Ordering::Relaxed)),
            faults: self.faults.clone(),
            tracer: self.tracer.clone(),
        }
    }
}

impl AggRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        AggRegistry::default()
    }

    /// Arm fault-injection hooks (driver setup, only when the config
    /// carries a `FaultPlan`).
    pub fn set_fault_injector(&mut self, injector: Arc<FaultInjector>) {
        self.faults = Some(injector);
    }

    /// Arm the shared trace journal (driver setup, only when the config
    /// enables tracing). Quarantine transitions — the registry's
    /// controller-visible state changes — are journaled.
    pub fn set_tracer(&mut self, tracer: Arc<crate::trace::Tracer>) {
        self.tracer = Some(tracer);
    }

    /// Publish (or update) one group's values. `slack` seeds new range
    /// trackers. Returns the per-column range outcomes (failures trigger
    /// controller recovery).
    pub fn publish(
        &mut self,
        agg_id: u32,
        key: Arc<[Value]>,
        current: Vec<Value>,
        trials: Vec<Arc<[f64]>>,
        slack: f64,
    ) -> Vec<RangeOutcome> {
        let cols = current.len();
        self.publish_at(
            agg_id,
            key,
            current,
            trials,
            vec![1.0; cols],
            slack,
            usize::MAX,
        )
    }

    /// Like [`AggRegistry::publish`], with per-column scale factors and the
    /// global batch index tagging range observations (drives recovery
    /// targets; `usize::MAX` means "next local index", used in tests).
    /// `current`/`trials` are unscaled.
    #[allow(clippy::too_many_arguments)]
    pub fn publish_at(
        &mut self,
        agg_id: u32,
        key: Arc<[Value]>,
        current: Vec<Value>,
        trials: Vec<Arc<[f64]>>,
        scale: Vec<f64>,
        slack: f64,
        batch: usize,
    ) -> Vec<RangeOutcome> {
        self.published_bytes += current.len() * std::mem::size_of::<Value>()
            + trials.iter().map(|t| t.len() * 8).sum::<usize>();
        let cols = current.len();
        let entry = self
            .groups
            .entry((agg_id, key))
            .or_insert_with(|| GroupEntry {
                current: Vec::new(),
                trials: Vec::new(),
                scale: vec![1.0; cols],
                stats: vec![None; cols],
                trackers: (0..cols).map(|_| RangeTracker::new(slack)).collect(),
            });
        entry.current = current;
        let mut outcomes = Vec::with_capacity(cols);
        for (c, tr) in trials.iter().enumerate() {
            let s = scale.get(c).copied().unwrap_or(1.0);
            // The tracked envelope must cover the *current* running value as
            // well as the bootstrap outputs: near-deterministic pruning
            // (§5.2) is only sound if every value the predicate may actually
            // see lies inside R(u) — Theorem 1's premise. Non-finite trial
            // values (empty resamples) carry no information; if nothing
            // finite remains (non-smooth aggregates publish no trials), the
            // range is left untouched and classification stays conservative.
            let mut summary = iolap_bootstrap::summary_of(tr);
            if !tr.is_empty() {
                if let Some(cur) = entry.current[c].as_f64() {
                    if cur.is_finite() {
                        summary = Some(match summary {
                            Some((lo, hi, sd)) => (lo.min(cur), hi.max(cur), sd),
                            None => (cur, cur, 0.0),
                        });
                    }
                }
            }
            entry.stats[c] = summary;
            match summary {
                None => outcomes.push(iolap_bootstrap::RangeOutcome::Ok),
                Some((lo, hi, sd)) => {
                    let b = if batch == usize::MAX {
                        entry.trackers[c].last_batch().map_or(0, |b| b + 1)
                    } else {
                        batch
                    };
                    // Injected perturbation shrinks the observed envelope
                    // (sound: escapes are detected earlier, recovery covers
                    // the rest).
                    let (slo, shi) = match &self.faults {
                        Some(f) => f.inject_envelope_shrink(agg_id, c as u16, lo * s, hi * s),
                        None => (lo * s, hi * s),
                    };
                    outcomes.push(entry.trackers[c].observe_summary(slo, shi, sd * s, b));
                }
            }
        }
        entry.trials = trials;
        entry.scale = scale;
        outcomes
    }

    /// Current (scaled) value of one aggregate cell.
    pub fn current(&self, r: &AggRef) -> Option<Value> {
        self.groups
            .get(&(r.agg, r.key.clone()))
            .map(|e| e.scaled_current(r.column as usize))
    }

    /// Refresh an untouched group after a scale change: O(1) per column —
    /// re-observe the cached unscaled summary under the new scale. Returns
    /// the per-column range outcomes.
    pub fn refresh_scale(
        &mut self,
        agg_id: u32,
        key: &Arc<[Value]>,
        scale: &[f64],
        batch: usize,
    ) -> Vec<RangeOutcome> {
        let Some(entry) = self.groups.get_mut(&(agg_id, key.clone())) else {
            return Vec::new();
        };
        let mut outcomes = Vec::with_capacity(entry.current.len());
        for c in 0..entry.current.len() {
            let s = scale.get(c).copied().unwrap_or(1.0);
            let changed = (entry.scale[c] - s).abs() > f64::EPSILON * s.abs();
            entry.scale[c] = s;
            match entry.stats[c] {
                Some((lo, hi, sd)) if changed => {
                    outcomes.push(entry.trackers[c].observe_summary(lo * s, hi * s, sd * s, batch));
                }
                _ => outcomes.push(RangeOutcome::Ok),
            }
        }
        outcomes
    }

    /// Variation range of one aggregate cell, if being tracked (quarantined
    /// attributes report none).
    pub fn range(&self, r: &AggRef) -> Option<VariationRange> {
        if self.quarantined.contains(r) {
            return None;
        }
        let range = tracker(&self.groups, r).and_then(|t| t.current().copied());
        // Injected perturbation widens the classification view (sound:
        // more tuples stay in the non-deterministic set).
        match (&self.faults, range) {
            (Some(f), Some(range)) => Some(f.inject_range_widening(r.agg, r.column, range)),
            (_, range) => range,
        }
    }

    /// Exclude `r` from future pruning (after a failure while in use).
    pub fn quarantine(&mut self, r: AggRef) {
        self.trace_quarantine("registry.quarantine", &r);
        self.quarantined.insert(r);
    }

    /// Re-admit `r` for pruning. Called once a recovery replay completes:
    /// the tracker has adopted a fresh range at the failed batch and every
    /// decision that depended on the violated range has been recomputed, so
    /// monitoring can resume (§5.1).
    pub fn unquarantine(&mut self, r: &AggRef) {
        self.trace_quarantine("registry.unquarantine", r);
        self.quarantined.remove(r);
    }

    fn trace_quarantine(&self, name: &'static str, r: &AggRef) {
        if let Some(t) = &self.tracer {
            let detail = format!("agg={} col={}", r.agg, r.column);
            t.instant(name, NO_BATCH, SpanId::NONE, 0, detail);
        }
    }

    /// Whether `r` is quarantined.
    pub fn is_quarantined(&self, r: &AggRef) -> bool {
        self.quarantined.contains(r)
    }

    /// The quarantine set (the recovery policy reads it).
    pub(crate) fn quarantined(&self) -> &std::collections::HashSet<AggRef> {
        &self.quarantined
    }

    /// Roll back to `snapshot` (a checkpoint's clone) but keep the live
    /// quarantine set, so a replay cannot reuse a violated range.
    pub(crate) fn restore(&mut self, snapshot: &AggRegistry) {
        let quarantined = std::mem::take(&mut self.quarantined);
        *self = snapshot.clone();
        self.quarantined = quarantined;
    }

    /// Group entry lookup (lazy resolution, tests, instrumentation).
    pub fn group(&self, agg_id: u32, key: &Arc<[Value]>) -> Option<&GroupEntry> {
        self.groups.get(&(agg_id, key.clone()))
    }

    /// Number of published groups across all aggregates.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// True when nothing has been published.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Bytes published (broadcast) so far; the driver diffs this per batch.
    pub fn published_bytes(&self) -> usize {
        self.published_bytes
    }

    /// Lineage dereferences served so far (cumulative; the driver diffs
    /// this per batch into the `registry.derefs` metric).
    pub fn deref_count(&self) -> u64 {
        self.derefs.load(Ordering::Relaxed)
    }

    /// Rough memory footprint of the registry.
    pub fn approx_bytes(&self) -> usize {
        self.groups
            .values()
            .map(|e| {
                e.current.len() * std::mem::size_of::<Value>()
                    + e.trials.iter().map(|t| t.len() * 8).sum::<usize>()
                    + e.trackers.len() * std::mem::size_of::<RangeTracker>()
            })
            .sum()
    }

    /// Record that `r`'s variation range decided a pruning outcome at
    /// `batch`, reading the tracker's current observation (keeps the
    /// earliest use).
    pub fn mark_used(&mut self, r: AggRef, batch: usize) {
        let groups = &self.groups;
        self.used_for_pruning
            .entry(r)
            .or_insert_with_key(|r| FirstUse {
                batch,
                observed: tracker(groups, r).and_then(RangeTracker::last_batch),
            });
    }

    /// The first pruning use of `r`'s range since the last restored
    /// checkpoint, if any.
    pub(crate) fn first_use(&self, r: &AggRef) -> Option<FirstUse> {
        self.used_for_pruning.get(r).copied()
    }

    /// Every attribute's first pruning use (checkpoint retention).
    pub(crate) fn first_uses(&self) -> &HashMap<AggRef, FirstUse> {
        &self.used_for_pruning
    }

    /// Batch of the observation behind `r`'s current range, if tracked.
    pub(crate) fn observation(&self, r: &AggRef) -> Option<usize> {
        tracker(&self.groups, r).and_then(RangeTracker::last_batch)
    }

    /// Build a `Pending` lineage cell for a computed uncertain attribute:
    /// capture the lineage function and the folded row (§6.1). The captured
    /// row is narrowed to the columns the expression references.
    pub fn make_thunk(expr: &Arc<Expr>, row: &ORow) -> Value {
        // Content token: a deterministic digest of the lineage expression and
        // the captured operand row, so cell identity survives re-creation and
        // never depends on allocation addresses.
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        format!("{expr:?}").hash(&mut h);
        row.values.hash(&mut h);
        Value::Pending(PendingCell::new(
            Arc::new(ThunkPayload {
                expr: expr.clone(),
                row: row.values.clone(),
            }),
            h.finish(),
        ))
    }
}

/// The range tracker of one aggregate cell, if its group is published.
fn tracker<'a>(
    groups: &'a HashMap<(u32, Arc<[Value]>), GroupEntry>,
    r: &AggRef,
) -> Option<&'a RangeTracker> {
    groups
        .get(&(r.agg, r.key.clone()))
        .and_then(|e| e.trackers.get(r.column as usize))
}

impl RefResolver for AggRegistry {
    fn resolve(&self, r: &AggRef, mode: RefMode) -> Value {
        self.derefs.fetch_add(1, Ordering::Relaxed);
        if let Some(f) = &self.faults {
            f.inject_deref_panic();
        }
        let Some(entry) = self.groups.get(&(r.agg, r.key.clone())) else {
            return Value::Null;
        };
        match mode {
            RefMode::Current => entry.scaled_current(r.column as usize),
            RefMode::Trial(t) => {
                let c = r.column as usize;
                let s = entry.scale.get(c).copied().unwrap_or(1.0);
                entry
                    .trials
                    .get(c)
                    .and_then(|tr| tr.get(t).copied())
                    .map(|x| Value::Float(x * s))
                    .unwrap_or(Value::Null)
            }
        }
    }

    fn resolve_pending(&self, cell: &PendingCell, mode: RefMode) -> Value {
        self.derefs.fetch_add(1, Ordering::Relaxed);
        if let Some(f) = &self.faults {
            f.inject_deref_panic();
        }
        let Some(thunk) = cell.payload.downcast_ref::<ThunkPayload>() else {
            return Value::Null;
        };
        let row = iolap_relation::Row {
            values: thunk.row.clone(),
            mult: 1.0,
        };
        let ctx = EvalContext::with_resolver(self).with_mode(mode);
        thunk.expr.eval(&row, &ctx).unwrap_or(Value::Null)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iolap_engine::{ArithOp, CmpOp};

    fn key() -> Arc<[Value]> {
        Arc::from(Vec::<Value>::new())
    }

    fn aref(agg: u32, column: u16) -> AggRef {
        AggRef {
            agg,
            column,
            key: key(),
        }
    }

    #[test]
    fn publish_and_resolve_current_and_trials() {
        let mut reg = AggRegistry::new();
        reg.publish(
            0,
            key(),
            vec![Value::Float(37.0)],
            vec![Arc::from(vec![35.0, 36.0, 39.0])],
            2.0,
        );
        let r = aref(0, 0);
        assert_eq!(reg.resolve(&r, RefMode::Current), Value::Float(37.0));
        assert_eq!(reg.resolve(&r, RefMode::Trial(2)), Value::Float(39.0));
        assert_eq!(reg.resolve(&r, RefMode::Trial(99)), Value::Null);
    }

    #[test]
    fn scaled_trials_share_the_estimates_units() {
        let mut reg = AggRegistry::new();
        reg.publish_at(
            0,
            key(),
            vec![Value::Float(10.0)],
            vec![Arc::from(vec![9.0, f64::NAN, 12.0])],
            vec![4.0],
            0.0,
            usize::MAX,
        );
        let entry = reg.group(0, &key()).unwrap();
        assert_eq!(entry.scaled_current(0), Value::Float(40.0));
        assert_eq!(entry.scaled_trials(0), vec![36.0, 48.0]);
        assert_eq!(entry.scaled_trials(7), Vec::<f64>::new());
    }

    #[test]
    fn unknown_ref_resolves_null() {
        let reg = AggRegistry::new();
        assert_eq!(reg.resolve(&aref(9, 0), RefMode::Current), Value::Null);
        assert_eq!(reg.range(&aref(9, 0)), None);
    }

    #[test]
    fn ranges_track_and_shrink() {
        let mut reg = AggRegistry::new();
        reg.publish(
            0,
            key(),
            vec![Value::Float(37.0)],
            vec![Arc::from(vec![30.0, 44.0])],
            0.0,
        );
        let r0 = reg.range(&aref(0, 0)).unwrap();
        let outs = reg.publish(
            0,
            key(),
            vec![Value::Float(36.0)],
            vec![Arc::from(vec![33.0, 40.0])],
            0.0,
        );
        assert_eq!(outs, vec![RangeOutcome::Ok]);
        let r1 = reg.range(&aref(0, 0)).unwrap();
        assert!(r0.covers(&r1));
    }

    #[test]
    fn failure_reported_on_escape() {
        let mut reg = AggRegistry::new();
        reg.publish(
            0,
            key(),
            vec![Value::Float(10.0)],
            vec![Arc::from(vec![9.0, 11.0])],
            0.0,
        );
        let outs = reg.publish(
            0,
            key(),
            vec![Value::Float(50.0)],
            vec![Arc::from(vec![49.0, 51.0])],
            0.0,
        );
        assert!(matches!(outs[0], RangeOutcome::Failure { .. }));
    }

    #[test]
    fn thunk_resolves_through_registry() {
        // Lineage function: 0.2 * AVG, with the AVG arriving by ref.
        let mut reg = AggRegistry::new();
        reg.publish(
            1,
            key(),
            vec![Value::Float(50.0)],
            vec![Arc::from(vec![45.0, 55.0])],
            2.0,
        );
        let expr = Arc::new(Expr::Arith {
            op: ArithOp::Mul,
            left: Box::new(Expr::Lit(Value::Float(0.2))),
            right: Box::new(Expr::Col(0)),
        });
        let row = ORow::new(vec![Value::Ref(aref(1, 0))]);
        let cell = AggRegistry::make_thunk(&expr, &row);
        assert_eq!(
            reg.resolve_pending(
                match &cell {
                    Value::Pending(c) => c,
                    _ => panic!(),
                },
                RefMode::Current
            ),
            Value::Float(10.0)
        );
        // Trial mode pulls trial values through the thunk.
        assert_eq!(
            reg.resolve_pending(
                match &cell {
                    Value::Pending(c) => c,
                    _ => panic!(),
                },
                RefMode::Trial(0)
            ),
            Value::Float(9.0)
        );
        // And a comparison through EvalContext sees the thunk transparently.
        let pred = Expr::Cmp {
            op: CmpOp::Lt,
            left: Box::new(Expr::Col(0)),
            right: Box::new(Expr::Col(1)),
        };
        let t = iolap_relation::Row {
            values: vec![Value::Float(5.0), cell].into(),
            mult: 1.0,
        };
        let ctx = EvalContext::with_resolver(&reg);
        assert!(pred.eval_predicate(&t, &ctx).unwrap()); // 5 < 10
    }
}
