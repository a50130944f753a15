//! Error estimates from bootstrap trial outputs.
//!
//! The collection of per-trial query results forms an empirical distribution
//! of the estimator (§2, "Error Estimation"); from it we report the standard
//! error, relative standard deviation (the y-axis of Figure 7(a)), and
//! percentile confidence intervals.

/// Summary statistics of one uncertain value's bootstrap distribution.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ErrorEstimate {
    /// Point estimate (the actual running result, not the trial mean).
    pub estimate: f64,
    /// Mean of the trial outputs.
    pub trial_mean: f64,
    /// Standard deviation of the trial outputs (the bootstrap standard
    /// error).
    pub std_error: f64,
    /// `std_error / |estimate|`; `f64::INFINITY` when the estimate is 0.
    pub relative_std: f64,
    /// Lower endpoint of the percentile confidence interval.
    pub ci_lo: f64,
    /// Upper endpoint of the percentile confidence interval.
    pub ci_hi: f64,
    /// Confidence level of `[ci_lo, ci_hi]`.
    pub confidence: f64,
}

impl ErrorEstimate {
    /// Build from a point estimate and its trial outputs, with a percentile
    /// CI at `confidence` (e.g. `0.95`).
    ///
    /// Returns `None` when there are no trials (nothing to estimate from).
    pub fn from_trials(estimate: f64, trials: &[f64], confidence: f64) -> Option<ErrorEstimate> {
        if trials.is_empty() {
            return None;
        }
        let n = trials.len() as f64;
        let mean = trials.iter().sum::<f64>() / n;
        let var = trials.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        let std_error = var.sqrt();
        let alpha = (1.0 - confidence) / 2.0;
        let ci_lo = unsorted_percentile(trials, alpha)?;
        let ci_hi = unsorted_percentile(trials, 1.0 - alpha)?;
        let relative_std = if estimate == 0.0 {
            f64::INFINITY
        } else {
            std_error / estimate.abs()
        };
        Some(ErrorEstimate {
            estimate,
            trial_mean: mean,
            std_error,
            relative_std,
            ci_lo,
            ci_hi,
            confidence,
        })
    }

    /// The half-width of the CI relative to the estimate, a user-facing
    /// "± x%" accuracy figure.
    pub fn relative_ci_halfwidth(&self) -> f64 {
        if self.estimate == 0.0 {
            f64::INFINITY
        } else {
            ((self.ci_hi - self.ci_lo) / 2.0) / self.estimate.abs()
        }
    }
}

/// Ranks this close to either end of a trial vector are read off a
/// one-pass buffer of the extreme values instead of a selection.
const TAIL: usize = 8;

/// [`percentile`] of `values` in any order, without sorting them: the same
/// two order statistics (by [`f64::total_cmp`]), interpolated the same way,
/// so the same bits. A confidence interval reads ranks near the ends, which
/// one pass with a small buffer finds; other ranks are selected on a copy.
fn unsorted_percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.len() <= 1 {
        return values.first().copied();
    }
    let n = values.len();
    let (lo, hi, frac) = percentile_ranks(n, q);
    let (at_lo, at_hi) = if hi < TAIL {
        let least = extremes(values, hi + 1, f64::total_cmp);
        (least[lo], least[hi])
    } else if n - lo <= TAIL {
        // Rank `r` is the `n - 1 - r`-th greatest.
        let most = extremes(values, n - lo, |a, b| b.total_cmp(a));
        (most[n - 1 - lo], most[n - 1 - hi])
    } else {
        let mut scratch = values.to_vec();
        let (_, &mut at_lo, above) = scratch.select_nth_unstable_by(lo, f64::total_cmp);
        // `hi` is `lo` or `lo + 1`: the least value above rank `lo`.
        let at_hi = if hi > lo {
            above.iter().copied().min_by(f64::total_cmp)?
        } else {
            at_lo
        };
        (at_lo, at_hi)
    };
    Some(if lo == hi {
        at_lo
    } else {
        at_lo * (1.0 - frac) + at_hi * frac
    })
}

/// The first `k ≤ TAIL` of `values` in `order`, in that order.
fn extremes(
    values: &[f64],
    k: usize,
    order: impl Fn(&f64, &f64) -> std::cmp::Ordering,
) -> [f64; TAIL] {
    let mut buf = [0.0; TAIL];
    let mut len = 0;
    for &x in values {
        if len == k && order(&x, &buf[k - 1]).is_ge() {
            continue;
        }
        // Insert `x` after every kept value that is not above it.
        let mut at = len.min(k - 1);
        while at > 0 && order(&x, &buf[at - 1]).is_lt() {
            buf[at] = buf[at - 1];
            at -= 1;
        }
        buf[at] = x;
        len = (len + 1).min(k);
    }
    buf
}

/// The two ranks a linear-interpolated `q`-percentile of `len ≥ 2` values
/// reads, and the weight of the upper one.
fn percentile_ranks(len: usize, q: f64) -> (usize, usize, f64) {
    let pos = q.clamp(0.0, 1.0) * (len - 1) as f64;
    let lo = pos.floor() as usize;
    (lo, pos.ceil() as usize, pos - lo as f64)
}

/// Linear-interpolated percentile of a sorted slice, `q ∈ [0, 1]`.
///
/// Follows the same degenerate-input policy as the metrics layer's
/// histogram quantile: an empty slice has nothing to estimate from
/// (`None`), and a single observation is returned exactly. The guard also
/// closes an underflow: `sorted.len() - 1` on an empty slice wrapped in
/// release builds and panicked in debug.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let first = *sorted.first()?;
    if sorted.len() == 1 {
        return Some(first);
    }
    let (lo, hi, frac) = percentile_ranks(sorted.len(), q);
    if lo == hi {
        Some(sorted[lo])
    } else {
        Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_trials_yields_none() {
        assert!(ErrorEstimate::from_trials(1.0, &[], 0.95).is_none());
    }

    #[test]
    fn constant_trials_zero_error() {
        let e = ErrorEstimate::from_trials(5.0, &[5.0; 30], 0.95).unwrap();
        assert_eq!(e.std_error, 0.0);
        assert_eq!(e.relative_std, 0.0);
        assert_eq!(e.ci_lo, 5.0);
        assert_eq!(e.ci_hi, 5.0);
    }

    #[test]
    fn symmetric_trials() {
        let trials: Vec<f64> = (0..101).map(|i| i as f64).collect();
        let e = ErrorEstimate::from_trials(50.0, &trials, 0.9).unwrap();
        assert!((e.trial_mean - 50.0).abs() < 1e-9);
        assert!((e.ci_lo - 5.0).abs() < 1e-9);
        assert!((e.ci_hi - 95.0).abs() < 1e-9);
    }

    #[test]
    fn relative_std_of_zero_estimate() {
        let e = ErrorEstimate::from_trials(0.0, &[1.0, 2.0], 0.95).unwrap();
        assert!(e.relative_std.is_infinite());
    }

    #[test]
    fn percentile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 1.0), Some(4.0));
        assert!((percentile(&v, 0.5).unwrap() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_guards_degenerate_inputs() {
        // Regression: `q * (len - 1)` underflowed on an empty slice.
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[], 0.0), None);
        // A single observation is its own percentile at every q.
        assert_eq!(percentile(&[7.5], 0.0), Some(7.5));
        assert_eq!(percentile(&[7.5], 0.5), Some(7.5));
        assert_eq!(percentile(&[7.5], 1.0), Some(7.5));
    }

    #[test]
    fn single_trial_estimate_is_exact() {
        let e = ErrorEstimate::from_trials(3.0, &[3.5], 0.95).unwrap();
        assert_eq!(e.ci_lo, 3.5);
        assert_eq!(e.ci_hi, 3.5);
        assert_eq!(e.std_error, 0.0);
    }

    /// The unsorted percentile is the sorted one, to the bit, on every
    /// path: both tail buffers and the selection, with ties, signed zeros,
    /// infinities and NaN among the values.
    #[test]
    fn unsorted_percentile_equals_the_sorted_one() {
        let pool = [
            -0.0,
            0.0,
            1.0,
            1.0,
            2.5,
            -3.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            1e300,
        ];
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let qs = [0.0, 0.01, 0.025, 0.05, 0.3, 0.5, 0.95, 0.975, 0.99, 1.0];
        for n in (1..=40).chain(95..=105).chain([250]) {
            for _ in 0..20 {
                let values: Vec<f64> = (0..n)
                    .map(|_| match next() % 3 {
                        0 => pool[(next() % pool.len() as u64) as usize],
                        _ => (next() % 1000) as f64 / 7.0 - 50.0,
                    })
                    .collect();
                let mut sorted = values.clone();
                sorted.sort_by(f64::total_cmp);
                for q in qs {
                    let want = percentile(&sorted, q).map(f64::to_bits);
                    let got = unsorted_percentile(&values, q).map(f64::to_bits);
                    assert_eq!(got, want, "n={n} q={q} values={values:?}");
                }
            }
        }
        assert_eq!(unsorted_percentile(&[], 0.5), None);
    }
}
