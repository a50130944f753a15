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
//!
//! Rows reach these kernels through one function, `core::shard::fold_value`,
//! which reads the argument cell in place and owns the participation rule
//! (NULL never folds; a non-numeric value folds only into COUNT).

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

#[cfg(test)]
mod tests {
    use super::*;

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
}
