//! Online join operators (§4.2 JOIN rule).
//!
//! The symmetric delta hash join keeps, per side, the accumulated certain
//! rows — but *only while the other side can still produce rows*. This is
//! the paper's state rule: "for each side of the join, if the other side
//! have tuples with tuple uncertainty, JOIN constructs its state by
//! augmenting its state from the previous batch with all its input tuples
//! … without tuple uncertainty". When a side reports `exhausted` (e.g. the
//! global inner aggregate of SBI after it first publishes, or a dimension
//! table after batch 0), the opposite accumulation is dropped — which is
//! why SBI's fact side never needs saving, and why fact ⋈ dimension joins
//! keep only the dimension (§4.2: "we only need to keep the smaller
//! dimension table in the JOIN operator's state").

use crate::channel::{BatchData, ORow};
use crate::ops::{BatchCtx, OnlineOp};
use iolap_engine::{EngineError, Expr};
use iolap_relation::{Schema, Value};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

type KeyMap = HashMap<Vec<Value>, Vec<ORow>>;

/// Symmetric delta hash join (cross join when key lists are empty).
#[derive(Clone, Debug)]
pub struct JoinOp {
    /// Left input.
    pub left: Box<OnlineOp>,
    /// Right input.
    pub right: Box<OnlineOp>,
    /// Join keys over the left schema (deterministic, §3.3).
    pub left_keys: Vec<Expr>,
    /// Join keys over the right schema.
    pub right_keys: Vec<Expr>,
    /// Output schema (left ++ right).
    pub schema: Schema,
    /// Accumulated sides, shared with checkpoints until the next insert
    /// (copy on write): a side that stopped growing — a dimension table
    /// after its one batch — costs a checkpoint nothing to save.
    left_acc: Option<Arc<KeyMap>>,
    right_acc: Option<Arc<KeyMap>>,
    left_exhausted: bool,
    right_exhausted: bool,
}

impl JoinOp {
    /// New join operator.
    pub fn new(
        left: OnlineOp,
        right: OnlineOp,
        left_keys: Vec<Expr>,
        right_keys: Vec<Expr>,
        schema: Schema,
    ) -> Self {
        JoinOp {
            left: Box::new(left),
            right: Box::new(right),
            left_keys,
            right_keys,
            schema,
            left_acc: Some(Arc::default()),
            right_acc: Some(Arc::default()),
            left_exhausted: false,
            right_exhausted: false,
        }
    }

    /// Bytes held in accumulated join state.
    pub fn state_bytes(&self) -> usize {
        let side = |acc: &Option<Arc<KeyMap>>| {
            acc.as_ref()
                .map(|m| {
                    m.values()
                        .flat_map(|v| v.iter())
                        .map(ORow::approx_bytes)
                        .sum::<usize>()
                })
                .unwrap_or(0)
        };
        side(&self.left_acc) + side(&self.right_acc)
    }

    pub(crate) fn process(&mut self, ctx: &mut BatchCtx<'_>) -> Result<BatchData, EngineError> {
        let sp = ctx.op_span("Join");
        let l = self.left.process(ctx)?;
        let r = self.right.process(ctx)?;
        ctx.stats.shipped_bytes += l.approx_bytes() + r.approx_bytes();
        let probe_span = crate::metrics::Span::start();
        let probe_rows =
            l.delta_certain.len() + r.delta_certain.len() + l.uncertain.len() + r.uncertain.len();
        let mut out = BatchData::empty(self.schema.clone());

        let lkeys: Vec<Vec<Value>> = keys_of(&l.delta_certain, &self.left_keys, ctx)?;
        let rkeys: Vec<Vec<Value>> = keys_of(&r.delta_certain, &self.right_keys, ctx)?;

        // Certain deltas, symmetric:
        //   ΔL ⋈ (Racc ∪ ΔR)  ∪  (Lacc \ ΔL) ⋈ ΔR
        if let Some(right_acc) = &mut self.right_acc {
            if !r.delta_certain.is_empty() {
                let acc = Arc::make_mut(right_acc);
                for (row, key) in r.delta_certain.iter().zip(rkeys.iter()) {
                    acc.entry(key.clone()).or_default().push(row.clone());
                }
            }
            for (lr, lk) in l.delta_certain.iter().zip(lkeys.iter()) {
                if let Some(matches) = right_acc.get(lk) {
                    for rr in matches {
                        out.delta_certain.push(concat(lr, rr));
                    }
                }
            }
        }
        if let Some(left_acc) = &mut self.left_acc {
            // Probe ΔR against the OLD left accumulation (ΔL not yet added),
            // so ΔL⋈ΔR is not double-counted.
            for (rr, rk) in r.delta_certain.iter().zip(rkeys.iter()) {
                if let Some(matches) = left_acc.get(rk) {
                    for lr in matches {
                        out.delta_certain.push(concat(lr, rr));
                    }
                }
            }
            if !l.delta_certain.is_empty() {
                let acc = Arc::make_mut(left_acc);
                for (row, key) in l.delta_certain.iter().zip(lkeys.iter()) {
                    acc.entry(key.clone()).or_default().push(row.clone());
                }
            }
        }

        // Uncertain channel (recomputed each batch):
        //   uL ⋈ Racc  ∪  Lacc ⋈ uR  ∪  uL ⋈ uR
        let ulkeys = keys_of(&l.uncertain, &self.left_keys, ctx)?;
        let urkeys = keys_of(&r.uncertain, &self.right_keys, ctx)?;
        if let Some(right_acc) = &self.right_acc {
            for (lr, lk) in l.uncertain.iter().zip(ulkeys.iter()) {
                if let Some(matches) = right_acc.get(lk) {
                    for rr in matches {
                        out.uncertain.push(concat(lr, rr));
                    }
                }
            }
        }
        if let Some(left_acc) = &self.left_acc {
            for (rr, rk) in r.uncertain.iter().zip(urkeys.iter()) {
                if let Some(matches) = left_acc.get(rk) {
                    for lr in matches {
                        out.uncertain.push(concat(lr, rr));
                    }
                }
            }
        }
        for (lr, lk) in l.uncertain.iter().zip(ulkeys.iter()) {
            for (rr, rk) in r.uncertain.iter().zip(urkeys.iter()) {
                if lk == rk {
                    out.uncertain.push(concat(lr, rr));
                }
            }
        }

        // State retention (§4.2): drop a side's accumulation once the other
        // side can produce no further matches.
        self.left_exhausted |= l.exhausted;
        self.right_exhausted |= r.exhausted;
        if self.right_exhausted {
            self.left_acc = None;
        }
        if self.left_exhausted {
            self.right_acc = None;
        }

        ctx.metrics.add("join.probe_rows", probe_rows as u64);
        ctx.metrics.add(
            "join.output_rows",
            (out.delta_certain.len() + out.uncertain.len()) as u64,
        );
        probe_span.stop(&mut ctx.metrics, "join.probe_ns");
        out.exhausted = self.left_exhausted && self.right_exhausted;
        ctx.close_op(sp, (out.delta_certain.len() + out.uncertain.len()) as u64);
        Ok(out)
    }
}

/// Semi-join: emits left rows whose key currently appears on the right
/// (SQL `IN`). Left rows keyed to *certainly-present* right keys are emitted
/// once; rows keyed to uncertainly-present keys live in the pending state
/// and are re-emitted while present (tuple uncertainty from the right side,
/// per the JOIN propagation rule).
#[derive(Clone, Debug)]
pub struct SemiJoinOp {
    /// Probe input.
    pub left: Box<OnlineOp>,
    /// Match-set input.
    pub right: Box<OnlineOp>,
    /// Probe keys over the left schema.
    pub left_keys: Vec<Expr>,
    /// Match keys over the right schema.
    pub right_keys: Vec<Expr>,
    certain_keys: HashSet<Vec<Value>>,
    pending: Vec<(Vec<Value>, ORow)>,
    right_exhausted: bool,
    left_exhausted: bool,
}

impl SemiJoinOp {
    /// New semi-join operator.
    pub fn new(
        left: OnlineOp,
        right: OnlineOp,
        left_keys: Vec<Expr>,
        right_keys: Vec<Expr>,
    ) -> Self {
        SemiJoinOp {
            left: Box::new(left),
            right: Box::new(right),
            left_keys,
            right_keys,
            certain_keys: HashSet::new(),
            pending: Vec::new(),
            right_exhausted: false,
            left_exhausted: false,
        }
    }

    /// Bytes held in pending state.
    pub fn state_bytes(&self) -> usize {
        self.pending
            .iter()
            .map(|(k, r)| k.len() * std::mem::size_of::<Value>() + r.approx_bytes())
            .sum()
    }

    pub(crate) fn process(&mut self, ctx: &mut BatchCtx<'_>) -> Result<BatchData, EngineError> {
        let sp = ctx.op_span("SemiJoin");
        let l = self.left.process(ctx)?;
        let r = self.right.process(ctx)?;
        ctx.stats.shipped_bytes += l.approx_bytes() + r.approx_bytes();
        let probe_span = crate::metrics::Span::start();
        let probe_rows =
            l.delta_certain.len() + r.delta_certain.len() + l.uncertain.len() + r.uncertain.len();
        let mut out = BatchData::empty(l.schema.clone());

        for (row, key) in
            r.delta_certain
                .iter()
                .zip(keys_of(&r.delta_certain, &self.right_keys, ctx)?)
        {
            if row.mult > 0.0 {
                self.certain_keys.insert(key);
            }
        }
        let uncertain_keys: HashSet<Vec<Value>> = keys_of(&r.uncertain, &self.right_keys, ctx)?
            .into_iter()
            .collect();

        // Fresh certain left rows.
        for (row, key) in
            l.delta_certain
                .iter()
                .zip(keys_of(&l.delta_certain, &self.left_keys, ctx)?)
        {
            if self.certain_keys.contains(&key) {
                out.delta_certain.push(row.clone());
            } else {
                self.pending.push((key, row.clone()));
            }
        }

        // Re-examine pending rows: promote on certain match, re-emit on
        // uncertain match, drop when the right side is finished. Only rows
        // actually re-emitted downstream count as recomputed (pending-key
        // probes are O(1) lookups, not tuple re-evaluation).
        let right_done = self.right_exhausted || r.exhausted;
        let mut still_pending = Vec::with_capacity(self.pending.len());
        for (key, row) in self.pending.drain(..) {
            if self.certain_keys.contains(&key) {
                out.delta_certain.push(row);
            } else if uncertain_keys.contains(&key) {
                ctx.stats.recomputed_tuples += 1;
                out.uncertain.push(row.clone());
                still_pending.push((key, row));
            } else if !right_done {
                still_pending.push((key, row));
            }
        }
        self.pending = still_pending;

        // Uncertain-channel left rows: transient membership test.
        for (row, key) in l
            .uncertain
            .iter()
            .zip(keys_of(&l.uncertain, &self.left_keys, ctx)?)
        {
            if self.certain_keys.contains(&key) || uncertain_keys.contains(&key) {
                out.uncertain.push(row.clone());
            }
        }

        ctx.metrics.add("join.probe_rows", probe_rows as u64);
        ctx.metrics
            .add("join.pending_rows", self.pending.len() as u64);
        probe_span.stop(&mut ctx.metrics, "join.probe_ns");
        self.right_exhausted |= r.exhausted;
        self.left_exhausted |= l.exhausted;
        out.exhausted = self.left_exhausted
            && self.right_exhausted
            && self.pending.is_empty()
            && out.uncertain.is_empty();
        ctx.close_op(sp, (out.delta_certain.len() + out.uncertain.len()) as u64);
        Ok(out)
    }
}

fn keys_of(
    rows: &[ORow],
    keys: &[Expr],
    ctx: &BatchCtx<'_>,
) -> Result<Vec<Vec<Value>>, EngineError> {
    rows.iter()
        .map(|row| {
            let r = row.to_row();
            keys.iter()
                .map(|k| k.eval(&r, &ctx.eval()).map_err(EngineError::from))
                .collect()
        })
        .collect()
}

fn concat(l: &ORow, r: &ORow) -> ORow {
    let mut values = Vec::with_capacity(l.values.len() + r.values.len());
    values.extend(l.values.iter().cloned());
    values.extend(r.values.iter().cloned());
    ORow {
        values: values.into(),
        mult: l.mult * r.mult,
        weights: ORow::combine_weights(&l.weights, &r.weights),
    }
}

// Tests for the join operators live in the driver integration tests, where
// full pipelines are assembled; key-level unit tests below.
#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn concat_multiplies_and_combines() {
        let a = ORow {
            values: vec![Value::Int(1)].into(),
            mult: 2.0,
            weights: Some(vec![1.0, 0.0].into()),
        };
        let b = ORow {
            values: vec![Value::Int(2)].into(),
            mult: 3.0,
            weights: Some(vec![2.0, 5.0].into()),
        };
        let c = concat(&a, &b);
        assert_eq!(c.values.len(), 2);
        assert!((c.mult - 6.0).abs() < 1e-12);
        assert_eq!(c.weights.unwrap().as_ref(), &[2.0, 0.0]);
    }

    #[test]
    fn arc_cheap_clone() {
        let a = ORow::new(vec![Value::Int(1)]);
        let b = a.clone();
        assert!(Arc::ptr_eq(&a.values, &b.values));
    }
}
