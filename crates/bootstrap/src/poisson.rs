//! Poissonized bootstrap multiplicities.
//!
//! iOLAP piggybacks bootstrap onto normal query execution (§2, §7 step 2,
//! [8]): each tuple of the streamed relation is weighted, in trial `j`, by
//! an i.i.d. Poisson(1) draw, so trial `j` of the query is the query
//! evaluated on a resample of the same size in expectation.
//!
//! Draws are **a pure function of `(seed, row, trial)`**, derived from a
//! counter-based SplitMix64 stream instead of a shared stateful RNG. Delta
//! update re-evaluates saved rows across batches and recovery replays
//! them; a row's trial weights must be the same every time, otherwise the
//! bootstrap distributions (and hence the variation ranges) would drift
//! incoherently. Purity is also what makes the driver's weight memo a
//! cache: a row drawn again gets the bits it got the first time.
//!
//! [`draw_row_into`] is the kernel; [`poisson1`], [`trial_weights`] and
//! [`block_trial_weights`] are views of the same stream.
//!
//! The kernel has two bodies with the same output bits. Where the CPU has
//! AVX-512 (F, DQ and VL, checked once per process by std's feature
//! detection) it runs two passes over each block of trials: a
//! branch-free pass computing Knuth's first three products and the head
//! count for every trial — 64-bit multiplies and u64 → f64 conversions
//! that AVX-512DQ vectorises — then a scalar pass finishing the ~8 % of
//! trials that need more than three uniforms. Elsewhere it runs the
//! one-draw-per-trial loop. Both perform each draw's `f64` operations in
//! the plain loop's order, so the choice never shows in a weight.

/// Number of bootstrap trials used throughout the paper's experiments.
pub const DEFAULT_TRIALS: usize = 100;

/// `L = e^{-1}`: Knuth's product loop stops at the first `p <= L`.
const L: f64 = 0.367_879_441_171_442_33;

/// Counter stride between consecutive trials of one row.
const TRIAL_STRIDE: u64 = 0xC2B2_AE3D_27D4_EB4F;

/// SplitMix64 — tiny, high-quality counter-based generator.
#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform in `(0, 1]` from a counter.
#[inline]
fn uniform(seed: u64, counter: u64) -> f64 {
    let bits = splitmix64(seed ^ counter.wrapping_mul(0xA24B_AED4_963E_E407));
    // 53 random bits → (0, 1]; avoid exactly 0 for the Knuth product loop.
    (((bits >> 11) + 1) as f64) / ((1u64 << 53) as f64)
}

/// The part of a draw's counter base shared by every trial of one row.
#[inline]
fn row_base(seed: u64, row_id: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(row_id.wrapping_mul(0xD134_2543_DE82_EF95))
}

/// One Poisson(1) draw from its counter base, by Knuth's product method:
/// the number of uniforms multiplied before the product falls to `L`.
///
/// The first three steps run unconditionally — three independent hashes
/// the CPU overlaps, no data-dependent branch — and cover 92 % of draws
/// (`P(k <= 2)`); only the `k >= 3` tail enters the loop. The products are
/// the same `f64` operations in the same order as the plain loop, so every
/// draw is unchanged.
#[inline]
fn draw(base: u64) -> u32 {
    let (head, p2) = head3(base);
    if head < 3 {
        return head;
    }
    tail(base, p2)
}

/// The branch-free head of [`draw`]: the count of the three products
/// `p0, p1, p2` above `L`, and `p2`.
#[inline(always)]
fn head3(base: u64) -> (u32, f64) {
    let p0 = uniform(base, 0);
    let p1 = p0 * uniform(base, 1);
    let p2 = p1 * uniform(base, 2);
    // `p` only shrinks, so the comparisons are true on a prefix and their
    // count is the index of the first `p <= L`.
    let head = u32::from(p0 > L) + u32::from(p1 > L) + u32::from(p2 > L);
    (head, p2)
}

/// The tail of [`draw`] for a head count of 3: Knuth's loop from `p2`.
#[inline]
fn tail(base: u64, p2: f64) -> u32 {
    let (mut k, mut p) = (3u32, p2);
    loop {
        p *= uniform(base, u64::from(k));
        if p <= L {
            return k;
        }
        k += 1;
        debug_assert!(k < 64, "runaway Poisson draw");
    }
}

/// One Poisson(1) draw, deterministic in `(seed, row_id, trial)`.
pub fn poisson1(seed: u64, row_id: u64, trial: u32) -> u32 {
    draw(row_base(seed, row_id).wrapping_add(u64::from(trial).wrapping_mul(TRIAL_STRIDE)))
}

/// Row kernel: fill `out[t]` with draw `(stream, row, t)` as `f64`, for
/// every trial `t < out.len()` — equal to [`poisson1`] on every slot, with
/// the per-row part of the counter hoisted out of the trial loop.
///
/// Runs the two-pass kernel compiled for AVX-512 where the CPU has it (std
/// detects the CPU's features once and caches them), and
/// [`draw_row_portable`] elsewhere; both give the same bits.
pub fn draw_row_into(stream: u64, row: u64, out: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx512dq")
        && std::arch::is_x86_feature_detected!("avx512vl")
    {
        // SAFETY: `draw_row_avx512` is compiled for exactly the three
        // features just detected on this CPU, so every instruction it may
        // use is available.
        unsafe { draw_row_avx512(stream, row, out) };
        return;
    }
    draw_row_portable(stream, row, out);
}

/// The row kernel without SIMD: one [`draw`] per trial, in trial order.
/// What [`draw_row_into`] runs on CPUs without AVX-512.
fn draw_row_portable(stream: u64, row: u64, out: &mut [f64]) {
    let mut base = row_base(stream, row);
    for slot in out {
        *slot = f64::from(draw(base));
        base = base.wrapping_add(TRIAL_STRIDE);
    }
}

/// [`draw_row_two_pass`] compiled with AVX-512: 64-bit multiplies
/// (`vpmullq`) and u64 → f64 conversions (`vcvtuqq2pd`) are what let the
/// head pass vectorise.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
fn draw_row_avx512(stream: u64, row: u64, out: &mut [f64]) {
    draw_row_two_pass(stream, row, out);
}

/// Trials per block of the two-pass kernel: the saved products `p2` of one
/// block live on the stack.
#[cfg(target_arch = "x86_64")]
const BLOCK: usize = 128;

/// The row kernel as two passes over each block of trials.
///
/// Pass 1 is [`draw`]'s branch-free head for every trial of the block: the
/// three unconditional uniforms, `p0, p1, p2` and the head count, which is
/// the draw unless it is 3; `p2` is saved. Pass 2 finishes the trials whose
/// head count is 3 (8 % of them) with [`draw`]'s tail loop from the saved
/// `p2`. The `f64` operations and their order are [`draw`]'s, so every
/// draw is the same.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn draw_row_two_pass(stream: u64, row: u64, out: &mut [f64]) {
    let base = row_base(stream, row);
    let mut saved = [0.0f64; BLOCK];
    for (b, block) in out.chunks_mut(BLOCK).enumerate() {
        // Blocks after the first start at their trial offset.
        let first = base.wrapping_add(((b * BLOCK) as u64).wrapping_mul(TRIAL_STRIDE));
        for (t, (slot, p2)) in block.iter_mut().zip(saved.iter_mut()).enumerate() {
            let (head, p) = head3(first.wrapping_add((t as u64).wrapping_mul(TRIAL_STRIDE)));
            *slot = f64::from(head);
            *p2 = p;
        }
        for (t, (slot, p2)) in block.iter_mut().zip(&saved).enumerate() {
            if *slot == 3.0 {
                let trial_base = first.wrapping_add((t as u64).wrapping_mul(TRIAL_STRIDE));
                *slot = f64::from(tail(trial_base, *p2));
            }
        }
    }
}

/// Per-trial weights for one row: `trials` Poisson(1) draws as `f64`.
pub fn trial_weights(seed: u64, row_id: u64, trials: usize) -> Vec<f64> {
    let mut out = vec![0.0; trials];
    draw_row_into(seed, row_id, &mut out);
    out
}

/// Block form: per-trial weights for `rows` consecutive row ids starting at
/// `first_row`, row-major (`result[r * trials + t] == trial_weights(seed,
/// first_row + r, trials)[t]`).
pub fn block_trial_weights(seed: u64, first_row: u64, rows: usize, trials: usize) -> Vec<f64> {
    let mut out = vec![0.0; rows * trials];
    if trials > 0 {
        for (r, chunk) in out.chunks_exact_mut(trials).enumerate() {
            draw_row_into(seed, first_row.wrapping_add(r as u64), chunk);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Knuth's product loop, written out plainly: the definition of the
    /// draw stream that the kernel must reproduce.
    fn knuth_reference(seed: u64, row_id: u64, trial: u32) -> u32 {
        let base = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(row_id.wrapping_mul(0xD134_2543_DE82_EF95))
            .wrapping_add((trial as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
        let mut k: u32 = 0;
        let mut p: f64 = 1.0;
        loop {
            p *= uniform(base, k as u64);
            if p <= L {
                return k;
            }
            k += 1;
        }
    }

    /// The stream itself, pinned: these sixteen draws were taken from the
    /// plain loop before the row kernel existed. Changing them moves every
    /// golden and every vetted benchmark seed — make that a deliberate edit.
    #[test]
    fn draw_stream_is_pinned() {
        let (stream, row) = (0xDEAD_BEEF_0BAD_F00D, (1u64 << 53) + 8);
        let pinned = [0, 3, 2, 0, 0, 0, 0, 3, 1, 1, 3, 1, 0, 1, 0, 5];
        let mut out = [0.0; 16];
        draw_row_into(stream, row, &mut out);
        for (t, want) in pinned.into_iter().enumerate() {
            assert_eq!(poisson1(stream, row, t as u32), want, "trial {t}");
            assert_eq!(out[t], f64::from(want), "trial {t}");
        }
    }

    /// xorshift64 over the full `u64` range, for `(stream, row)` pairs.
    fn xorshift(mut x: u64) -> impl FnMut() -> u64 {
        move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }
    }

    /// Trial counts on both sides of the two-pass kernel's vector width
    /// and block size, up to the largest sweep in EXPERIMENTS.md and past.
    const TRIAL_COUNTS: [usize; 11] = [0, 1, 7, 8, 9, 100, 127, 128, 129, 200, 1000];

    /// Every slot of `out` is the plain loop's draw, to the bit.
    fn assert_row_is_reference(stream: u64, row: u64, out: &[f64], path: &str) {
        for (t, got) in out.iter().enumerate() {
            let want = f64::from(knuth_reference(stream, row, t as u32));
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{path} ({stream}, {row}, {t})"
            );
        }
    }

    #[test]
    fn row_kernel_equals_the_plain_loop_on_every_draw() {
        let mut next = xorshift(0x1234_5678_9ABC_DEF0);
        let mut out = [0.0; 100];
        let mut tail = 0u32;
        for _ in 0..10_500 {
            let (stream, row) = (next(), next());
            draw_row_into(stream, row, &mut out);
            for (t, got) in out.iter().enumerate() {
                let want = knuth_reference(stream, row, t as u32);
                assert_eq!(*got, f64::from(want), "({stream}, {row}, {t})");
                assert_eq!(poisson1(stream, row, t as u32), want);
                tail += u32::from(want >= 3);
            }
        }
        // P(k >= 3) is 8 %: the loop after the branch-free head is covered.
        assert!(tail > 50_000, "only {tail} of 1.05M draws reached the tail");
    }

    /// Every body of the kernel at every trial count: the dispatched one
    /// (two-pass with AVX-512 where the CPU has it), the portable one and
    /// the two-pass body without AVX-512 — called directly, so an AVX-512
    /// machine tests the portable loop and any x86-64 machine the two
    /// passes.
    #[test]
    fn every_kernel_path_equals_the_reference_at_every_trial_count() {
        type Kernel = fn(u64, u64, &mut [f64]);
        let paths: &[(&str, Kernel)] = &[
            ("dispatched", draw_row_into),
            ("portable", draw_row_portable),
            #[cfg(target_arch = "x86_64")]
            ("two-pass", draw_row_two_pass),
        ];
        let mut next = xorshift(0x0F1E_2D3C_4B5A_6978);
        for trials in TRIAL_COUNTS {
            let mut out = vec![f64::NAN; trials];
            for _ in 0..40 {
                let (stream, row) = (next(), next());
                for (name, path) in paths {
                    path(stream, row, &mut out);
                    assert_row_is_reference(stream, row, &out, name);
                    out.fill(f64::NAN);
                }
            }
        }
        // The counters' extremes.
        let mut out = vec![f64::NAN; 300];
        for (stream, row) in [(0, 0), (u64::MAX, u64::MAX), (0, u64::MAX), (u64::MAX, 0)] {
            for (name, path) in paths {
                path(stream, row, &mut out);
                assert_row_is_reference(stream, row, &out, name);
                out.fill(f64::NAN);
            }
        }
    }

    #[test]
    fn block_rows_equal_the_row_kernel_at_every_trial_count() {
        let mut next = xorshift(0x0BAD_CAFE_F00D_0001);
        for trials in TRIAL_COUNTS {
            let (stream, first) = (next(), next());
            let block = block_trial_weights(stream, first, 3, trials);
            assert_eq!(block.len(), 3 * trials);
            for r in 0..3 {
                let row = first.wrapping_add(r as u64);
                let mut want = vec![0.0; trials];
                draw_row_into(stream, row, &mut want);
                let got = &block[r * trials..(r + 1) * trials];
                assert!(
                    got.iter()
                        .zip(&want)
                        .all(|(g, w)| g.to_bits() == w.to_bits()),
                    "block row {r} of ({stream}, {first}) at {trials} trials"
                );
            }
        }
    }

    #[test]
    fn deterministic_per_key() {
        assert_eq!(poisson1(42, 7, 3), poisson1(42, 7, 3));
        let a = trial_weights(1, 100, 50);
        let b = trial_weights(1, 100, 50);
        assert_eq!(a, b);
    }

    #[test]
    fn different_rows_and_trials_differ() {
        let a = trial_weights(1, 0, 100);
        let b = trial_weights(1, 1, 100);
        assert_ne!(a, b);
        let c = trial_weights(2, 0, 100);
        assert_ne!(a, c);
    }

    #[test]
    fn block_weights_match_per_row() {
        let trials = 17;
        let block = block_trial_weights(9, 5, 4, trials);
        assert_eq!(block.len(), 4 * trials);
        for r in 0..4 {
            let per_row = trial_weights(9, 5 + r as u64, trials);
            assert_eq!(&block[r * trials..(r + 1) * trials], per_row.as_slice());
        }
        // Zero-trial and zero-row blocks are empty, not a panic.
        assert!(block_trial_weights(9, 5, 4, 0).is_empty());
        assert!(block_trial_weights(9, 5, 0, 7).is_empty());
    }

    #[test]
    fn poisson1_moments() {
        // Mean and variance of Poisson(1) are both 1.
        let n = 200_000u64;
        let mut sum = 0.0;
        let mut sumsq = 0.0;
        for i in 0..n {
            let k = poisson1(7, i, 0) as f64;
            sum += k;
            sumsq += k * k;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!((mean - 1.0).abs() < 0.02, "mean={mean}");
        assert!((var - 1.0).abs() < 0.03, "var={var}");
    }

    #[test]
    fn poisson1_distribution_shape() {
        // P(0) = P(1) = e^{-1} ≈ 0.368, P(2) ≈ 0.184.
        let n = 100_000u64;
        let mut counts = [0u64; 8];
        for i in 0..n {
            let k = poisson1(3, i, 5) as usize;
            if k < counts.len() {
                counts[k] += 1;
            }
        }
        let p0 = counts[0] as f64 / n as f64;
        let p1 = counts[1] as f64 / n as f64;
        let p2 = counts[2] as f64 / n as f64;
        assert!((p0 - 0.3679).abs() < 0.01, "p0={p0}");
        assert!((p1 - 0.3679).abs() < 0.01, "p1={p1}");
        assert!((p2 - 0.1839).abs() < 0.01, "p2={p2}");
    }
}
