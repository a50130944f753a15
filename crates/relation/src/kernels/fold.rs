//! Aggregate fold kernels: one row's contribution to all bootstrap trials
//! in a single tight loop.
//!
//! The aggregate operator keeps per-(group, call) trial state as flat `f64`
//! vectors `a`/`b` (one slot per Poisson trial). These kernels fold one
//! row's argument into *every* trial slot at once: `a[t] += m·w[t]·x`,
//! `b[t] += m·w[t]` — the §4.2 sketch update piggybacking all bootstrap
//! resamples on one pass. The float additions happen in the same order as
//! the scalar reference (ascending trial index, rows in input order), so
//! kernel and reference produce bit-identical state.

use crate::columnar::SelVec;
use crate::value::Value;

/// COUNT fold, unweighted row (no bootstrap weights attached): every trial
/// gains the row's multiplicity.
#[inline]
pub fn fold_count_uniform(a: &mut [f64], w: f64) {
    for t in a.iter_mut() {
        *t += w;
    }
}

/// COUNT fold with per-trial Poisson weights: `a[t] += m·w[t]`.
#[inline]
pub fn fold_count_weighted(a: &mut [f64], m: f64, ws: &[f64]) {
    for (t, w) in a.iter_mut().zip(ws.iter()) {
        *t += m * w;
    }
}

/// SUM/AVG fold, unweighted row: `a[t] += w·x`, `b[t] += w`.
#[inline]
pub fn fold_sum_uniform(a: &mut [f64], b: &mut [f64], x: f64, w: f64) {
    for (ta, tb) in a.iter_mut().zip(b.iter_mut()) {
        *ta += w * x;
        *tb += w;
    }
}

/// SUM/AVG fold with per-trial Poisson weights: `a[t] += m·w[t]·x`,
/// `b[t] += m·w[t]`.
#[inline]
pub fn fold_sum_weighted(a: &mut [f64], b: &mut [f64], x: f64, m: f64, ws: &[f64]) {
    for ((ta, tb), w) in a.iter_mut().zip(b.iter_mut()).zip(ws.iter()) {
        *ta += m * w * x;
        *tb += m * w;
    }
}

/// Merge one partial trial vector into another: `dst[t] += src[t]`.
#[inline]
pub fn merge_trials(dst: &mut [f64], src: &[f64]) {
    for (x, y) in dst.iter_mut().zip(src.iter()) {
        *x += y;
    }
}

/// Gather one aggregate-argument column for a whole mini-batch: append to
/// `sel` the ordinals of rows that participate in the trial fold and to
/// `xs` their numeric argument (position-aligned with `sel`).
///
/// Participation matches the scalar fold exactly: NULL cells never fold;
/// non-numeric cells fold only for COUNT (`count_kind`, where the argument
/// value is irrelevant and recorded as `0.0`).
///
/// Returns `false` — without touching group state, and with `xs`/`sel`
/// contents unspecified — when a lineage cell (`Ref`/`Pending`) appears:
/// those need resolver access, so the caller must fall back to the
/// row-at-a-time fold for the whole chunk.
pub fn gather_numeric<'a>(
    cells: impl Iterator<Item = &'a Value>,
    count_kind: bool,
    xs: &mut Vec<f64>,
    sel: &mut SelVec,
) -> bool {
    for (i, v) in cells.enumerate() {
        if matches!(v, Value::Ref(_) | Value::Pending(_)) {
            return false;
        }
        let x = v.as_f64();
        if v.is_null() || (x.is_none() && !count_kind) {
            continue;
        }
        xs.push(x.unwrap_or(0.0));
        sel.push(i);
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AggRef;
    use std::sync::Arc;

    #[test]
    fn fold_kernels_match_scalar_reference() {
        let ws = [2.0, 0.0, 1.0];
        let mut a = [1.0, 2.0, 3.0];
        let mut b = [0.5, 0.5, 0.5];
        fold_sum_weighted(&mut a, &mut b, 10.0, 3.0, &ws);
        assert_eq!(a, [1.0 + 3.0 * 2.0 * 10.0, 2.0, 3.0 + 3.0 * 10.0]);
        assert_eq!(b, [0.5 + 6.0, 0.5, 0.5 + 3.0]);
        let mut c = [0.0, 0.0, 0.0];
        fold_count_weighted(&mut c, 2.0, &ws);
        assert_eq!(c, [4.0, 0.0, 2.0]);
        fold_count_uniform(&mut c, 1.5);
        assert_eq!(c, [5.5, 1.5, 3.5]);
        let mut a2 = [0.0; 2];
        let mut b2 = [0.0; 2];
        fold_sum_uniform(&mut a2, &mut b2, 4.0, 0.5);
        assert_eq!(a2, [2.0, 2.0]);
        assert_eq!(b2, [0.5, 0.5]);
        merge_trials(&mut a2, &[1.0, -2.0]);
        assert_eq!(a2, [3.0, 0.0]);
    }

    #[test]
    fn gather_skips_nulls_and_nonnumeric_per_kind() {
        let cells = [
            Value::Int(1),
            Value::Null,
            Value::str("x"),
            Value::Float(2.5),
        ];
        let mut xs = Vec::new();
        let mut sel = SelVec::new();
        assert!(gather_numeric(cells.iter(), false, &mut xs, &mut sel));
        assert_eq!(xs, vec![1.0, 2.5]);
        assert_eq!(sel.iter().collect::<Vec<_>>(), vec![0, 3]);
        // COUNT keeps the non-numeric string row (value irrelevant).
        xs.clear();
        let mut sel = SelVec::new();
        assert!(gather_numeric(cells.iter(), true, &mut xs, &mut sel));
        assert_eq!(sel.iter().collect::<Vec<_>>(), vec![0, 2, 3]);
        assert_eq!(xs, vec![1.0, 0.0, 2.5]);
    }

    #[test]
    fn gather_aborts_on_lineage() {
        let cells = [
            Value::Int(1),
            Value::Ref(AggRef {
                agg: 0,
                column: 0,
                key: Arc::from(Vec::new()),
            }),
        ];
        let mut xs = Vec::new();
        let mut sel = SelVec::new();
        assert!(!gather_numeric(cells.iter(), true, &mut xs, &mut sel));
    }
}
