//! The arithmetic behind every reported number: medians, percentiles,
//! quartile spread and the §3.1 flatness ratio.

/// Median of `v` (mean of the two middle values for an even count); 0 for
/// an empty slice.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Midmean (interquartile mean): the mean of the middle half of the
/// samples. It moves smoothly where a median jumps — between the two modes
/// of "recovered or not", or the steps of a 40 ms poll clock — and still
/// ignores a rare slow repeat. 0 for an empty slice.
pub fn midmean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    mean(&s[n / 4..(3 * n).div_ceil(4)])
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Nearest-rank percentile (`q` in `(0, 1]`): the smallest sample with at
/// least `q` of the samples at or below it. 0 for an empty slice.
pub fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(v, n=4)` (exclusive method) gives them. `None`
/// below two samples.
pub fn quartiles(v: &[f64]) -> Option<(f64, f64)> {
    let m = v.len();
    if m < 2 {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Run-to-run spread: quartile distance as a share of the median.
pub fn spread(v: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(v)?;
    let m = median(v);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// §3.1 flatness of one query: midmean per-batch time over the last
/// quarter of batches ÷ midmean over the second quarter. `batch_ms[i]`
/// pools, over repeats, the time batch `i` took (batch 0 is never used:
/// with fewer than eight batches the second quarter would start there, and
/// a first batch also pays one-off costs). `None` when a quarter is empty.
pub fn batch_growth(batch_ms: &[Vec<f64>]) -> Option<f64> {
    let n = batch_ms.len();
    let pool = |lo: usize, hi: usize| -> Vec<f64> {
        batch_ms[lo.max(1)..hi].iter().flatten().copied().collect()
    };
    if n < 4 {
        return None;
    }
    let (early, late) = (pool(n / 4, n / 2), pool(3 * n / 4, n));
    let base = midmean(&early);
    (!early.is_empty() && !late.is_empty() && base > 0.0).then(|| midmean(&late) / base)
}

/// SplitMix64 step: the benchmark's only source of derived seeds.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
