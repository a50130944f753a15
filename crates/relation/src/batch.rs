//! Mini-batch partitioning of input relations (paper §2, §7).
//!
//! Given a query over a dataset `D`, iOLAP randomly partitions `D` into `p`
//! mini-batches `ΔD_1 … ΔD_p` and processes them one at a time. Statistical
//! guarantees require each batch to be a random subset of the whole dataset:
//!
//! * **Block-wise randomness** (default): rows are grouped into fixed-size
//!   blocks and the *blocks* are randomly assigned to batches — matching the
//!   paper's default, which randomizes at HDFS-block granularity.
//! * **Row shuffle** (the paper's "data pre-processing tool"): a full
//!   Fisher–Yates shuffle of the rows before partitioning, for datasets whose
//!   attributes correlate with storage order.

use crate::relation::{Relation, Row};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// How rows are randomized before being split into batches.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PartitionMode {
    /// Shuffle fixed-size blocks of rows (the default block-wise randomness).
    BlockShuffle {
        /// Rows per block.
        block_rows: usize,
    },
    /// Shuffle individual rows (the pre-processing tool).
    #[default]
    RowShuffle,
    /// Keep input order (only sound if the data is already random; used in
    /// tests for determinism).
    Sequential,
    /// Stratified shuffle on a key column (the §9 extension the paper
    /// mentions: "can be extended to incorporate stratified sampling"):
    /// rows are shuffled within each stratum and dealt round-robin across
    /// batches, so every batch carries a near-proportional sample of every
    /// stratum. Rare groups then appear from the first batch onward, which
    /// stabilizes their running aggregates and variation ranges.
    StratifiedShuffle {
        /// Index of the stratification column.
        column: usize,
    },
}

/// A partition of one input relation into mini-batches, together with the
/// bookkeeping needed for result scaling.
#[derive(Clone, Debug)]
pub struct BatchedRelation {
    batches: Vec<Relation>,
    total_rows: usize,
}

impl BatchedRelation {
    /// Partition `rel` into at most `num_batches` mini-batches using
    /// `mode`, deterministically seeded by `seed`.
    ///
    /// Every row of `rel` lands in exactly one batch; batch sizes differ by
    /// at most one block (or one row for `RowShuffle`). When `rel` has
    /// fewer rows than `num_batches`, the batch count is clamped to the row
    /// count (no empty batches are fabricated) — check `num_batches()` for
    /// the count actually produced. A `num_batches` of zero is treated as
    /// one; callers that consider it an error should validate before
    /// partitioning (the iOLAP driver reports it as a setup error).
    pub fn partition(rel: &Relation, num_batches: usize, seed: u64, mode: PartitionMode) -> Self {
        let num_batches = num_batches.max(1);
        let mut rows: Vec<Row> = rel.rows().to_vec();
        let mut rng = StdRng::seed_from_u64(seed);
        match mode {
            PartitionMode::RowShuffle => rows.shuffle(&mut rng),
            PartitionMode::BlockShuffle { block_rows } => {
                let block_rows = block_rows.max(1);
                let mut blocks: Vec<Vec<Row>> =
                    rows.chunks(block_rows).map(|c| c.to_vec()).collect();
                blocks.shuffle(&mut rng);
                rows = blocks.into_iter().flatten().collect();
            }
            PartitionMode::Sequential => {}
            PartitionMode::StratifiedShuffle { column } => {
                // Group rows by stratum (stable order of first appearance)
                // and shuffle within each stratum. Then interleave the
                // strata by assigning the j-th row of an n_k-row stratum
                // the fractional position (j + ½)/n_k and merging by
                // position — every contiguous chunk of the result holds a
                // near-proportional share of every stratum.
                let mut strata: Vec<(crate::value::Value, Vec<Row>)> = Vec::new();
                for row in rows.drain(..) {
                    let key = row.values[column].clone();
                    match strata.iter_mut().find(|(k, _)| *k == key) {
                        Some((_, v)) => v.push(row),
                        None => strata.push((key, vec![row])),
                    }
                }
                let mut positioned: Vec<(f64, usize, Row)> = Vec::new();
                for (k, (_, v)) in strata.iter_mut().enumerate() {
                    v.shuffle(&mut rng);
                    let n = v.len() as f64;
                    for (j, row) in v.drain(..).enumerate() {
                        positioned.push(((j as f64 + 0.5) / n, k, row));
                    }
                }
                positioned.sort_by(|(a, ka, _), (b, kb, _)| a.total_cmp(b).then(ka.cmp(kb)));
                rows = positioned.into_iter().map(|(_, _, r)| r).collect();
            }
        }
        let total_rows = rows.len();
        // Balanced split into exactly `min(num_batches, total_rows)`
        // batches (fixed-size chunking can silently produce fewer): every
        // batch holds `total/n` or `total/n + 1` rows, so per-batch scales
        // and fractions never divide over an empty prefix, and
        // `num_batches()` reports the count actually produced. The one
        // exception is an empty input relation, which keeps a single empty
        // batch so the stream still has a well-formed shape.
        let n = num_batches.min(total_rows.max(1));
        let base = total_rows / n;
        let rem = total_rows % n;
        let mut it = rows.into_iter();
        let batches: Vec<Relation> = (0..n)
            .map(|i| {
                let take = base + usize::from(i < rem);
                Relation::new(rel.schema().clone(), it.by_ref().take(take).collect())
            })
            .collect();
        BatchedRelation {
            batches,
            total_rows,
        }
    }

    /// Append `rel` as one new mini-batch at the end of the stream
    /// (continuous ingest: rows that arrived after partitioning).
    ///
    /// The appended rows join the totals, so `scale_after` of *earlier*
    /// prefixes grows — exactly the paper's multiplicity semantics: a
    /// tuple seen in the first `i` batches now stands for more unseen
    /// data. `scale_after(last)` stays 1.0 once the new batch is
    /// processed, so Theorem-1 exactness of the final answer is
    /// preserved. An empty `rel` is accepted but callers normally reject
    /// it earlier (an empty mini-batch carries no information).
    pub fn push_batch(&mut self, rel: Relation) {
        self.total_rows += rel.len();
        self.batches.push(rel);
    }

    /// Number of batches `p`.
    pub fn num_batches(&self) -> usize {
        self.batches.len()
    }

    /// Batch `i` (0-based).
    pub fn batch(&self, i: usize) -> &Relation {
        &self.batches[i]
    }

    /// All batches.
    pub fn batches(&self) -> &[Relation] {
        &self.batches
    }

    /// Total row count `|D|`.
    pub fn total_rows(&self) -> usize {
        self.total_rows
    }

    /// Rows seen through batch `i` inclusive (0-based): `|D_i|`.
    pub fn rows_through(&self, i: usize) -> usize {
        self.batches[..=i].iter().map(|b| b.len()).sum()
    }

    /// Scaling multiplicity `m_i = |D| / |D_i|` after batch `i` (0-based),
    /// per §2. Seeing a tuple in `D_i` is "roughly equivalent to seeing it
    /// `m_i` times in `D`".
    pub fn scale_after(&self, i: usize) -> f64 {
        let seen = self.rows_through(i);
        if seen == 0 {
            1.0
        } else {
            self.total_rows as f64 / seen as f64
        }
    }

    /// The union `D_i` of the first `i+1` batches, used by comparison
    /// baselines and equivalence tests.
    pub fn union_through(&self, i: usize) -> Relation {
        let schema = self.batches[0].schema().clone();
        let mut rows = Vec::with_capacity(self.rows_through(i));
        for b in &self.batches[..=i] {
            rows.extend(b.rows().iter().cloned());
        }
        Relation::new(schema, rows)
    }
}

/// The accumulated sampling function `s(t; i)` of §4.1, tracked per input
/// relation: `s(t; i) = 1` iff tuple `t` has been processed in the first `i`
/// batches. Monotone in `i`, which is what lets scans clear `u#` on tuples
/// once seen.
#[derive(Clone, Debug, Default)]
pub struct SamplingProgress {
    seen_rows: usize,
    total_rows: usize,
}

impl SamplingProgress {
    /// Start tracking a stream of `total_rows` rows.
    pub fn new(total_rows: usize) -> Self {
        SamplingProgress {
            seen_rows: 0,
            total_rows,
        }
    }

    /// Record a processed batch of `n` rows.
    pub fn advance(&mut self, n: usize) {
        self.seen_rows += n;
        debug_assert!(self.seen_rows <= self.total_rows);
    }

    /// Rows seen so far.
    pub fn seen(&self) -> usize {
        self.seen_rows
    }

    /// True once the whole relation has been streamed (no remaining tuple
    /// uncertainty at the scan).
    pub fn complete(&self) -> bool {
        self.seen_rows >= self.total_rows
    }

    /// Fraction of data seen.
    pub fn fraction(&self) -> f64 {
        if self.total_rows == 0 {
            1.0
        } else {
            self.seen_rows as f64 / self.total_rows as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::value::{DataType, Value};

    fn int_rel(n: usize) -> Relation {
        Relation::from_values(
            Schema::from_pairs(&[("v", DataType::Int)]),
            (0..n).map(|i| vec![Value::Int(i as i64)]).collect(),
        )
    }

    #[test]
    fn partition_is_exhaustive_and_disjoint() {
        let rel = int_rel(103);
        let b = BatchedRelation::partition(&rel, 7, 42, PartitionMode::RowShuffle);
        assert_eq!(b.num_batches(), 7);
        let mut seen: Vec<i64> = b
            .batches()
            .iter()
            .flat_map(|r| r.rows().iter().map(|t| t.values[0].as_i64().unwrap()))
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..103).collect::<Vec<_>>());
    }

    #[test]
    fn partition_deterministic_by_seed() {
        let rel = int_rel(50);
        let a = BatchedRelation::partition(&rel, 5, 1, PartitionMode::RowShuffle);
        let b = BatchedRelation::partition(&rel, 5, 1, PartitionMode::RowShuffle);
        for i in 0..5 {
            assert!(a.batch(i).approx_eq(b.batch(i), 0.0));
        }
        let c = BatchedRelation::partition(&rel, 5, 2, PartitionMode::RowShuffle);
        let same = (0..5).all(|i| a.batch(i).approx_eq(c.batch(i), 0.0));
        assert!(!same, "different seeds should shuffle differently");
    }

    #[test]
    fn block_shuffle_keeps_blocks_contiguous() {
        let rel = int_rel(40);
        let b =
            BatchedRelation::partition(&rel, 4, 7, PartitionMode::BlockShuffle { block_rows: 10 });
        // Each batch of 10 rows must be one original block: consecutive ids.
        for i in 0..4 {
            let vals: Vec<i64> = b
                .batch(i)
                .rows()
                .iter()
                .map(|t| t.values[0].as_i64().unwrap())
                .collect();
            assert_eq!(vals.len(), 10);
            for w in vals.windows(2) {
                assert_eq!(w[1], w[0] + 1);
            }
        }
    }

    #[test]
    fn scale_after_matches_definition() {
        let rel = int_rel(100);
        let b = BatchedRelation::partition(&rel, 4, 0, PartitionMode::Sequential);
        assert!((b.scale_after(0) - 4.0).abs() < 1e-12);
        assert!((b.scale_after(1) - 2.0).abs() < 1e-12);
        assert!((b.scale_after(3) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn union_through_accumulates() {
        let rel = int_rel(30);
        let b = BatchedRelation::partition(&rel, 3, 0, PartitionMode::Sequential);
        assert_eq!(b.union_through(0).len(), 10);
        assert_eq!(b.union_through(2).len(), 30);
    }

    #[test]
    fn more_batches_than_rows_clamps() {
        let rel = int_rel(3);
        let b = BatchedRelation::partition(&rel, 5, 0, PartitionMode::RowShuffle);
        // Clamped to the row count: no empty batches are fabricated, so
        // every per-batch scale divides over a non-empty prefix.
        assert_eq!(b.num_batches(), 3);
        assert_eq!(b.total_rows(), 3);
        assert!(b.batches().iter().all(|r| r.len() == 1));
        for i in 0..b.num_batches() {
            assert!(b.scale_after(i).is_finite());
            assert!(b.scale_after(i) >= 1.0);
        }
    }

    #[test]
    fn zero_batches_clamps_to_one() {
        let rel = int_rel(4);
        let b = BatchedRelation::partition(&rel, 0, 0, PartitionMode::Sequential);
        assert_eq!(b.num_batches(), 1);
        assert_eq!(b.batch(0).len(), 4);
        assert!((b.scale_after(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_relation_keeps_one_empty_batch() {
        let rel = int_rel(0);
        let b = BatchedRelation::partition(&rel, 4, 0, PartitionMode::RowShuffle);
        assert_eq!(b.num_batches(), 1);
        assert_eq!(b.total_rows(), 0);
        assert_eq!(b.batch(0).len(), 0);
        // Empty-prefix guard: scale stays 1.0 instead of dividing by zero.
        assert!((b.scale_after(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stratified_shuffle_balances_strata() {
        // 90 rows in 3 strata of different sizes; each batch must hold a
        // near-proportional share of every stratum.
        let schema = Schema::from_pairs(&[("g", DataType::Int), ("v", DataType::Int)]);
        let mut rows = Vec::new();
        for (stratum, count) in [(0i64, 60usize), (1, 24), (2, 6)] {
            for i in 0..count {
                rows.push(vec![Value::Int(stratum), Value::Int(i as i64)]);
            }
        }
        let rel = Relation::from_values(schema, rows);
        let parts =
            BatchedRelation::partition(&rel, 6, 9, PartitionMode::StratifiedShuffle { column: 0 });
        for i in 0..6 {
            let mut counts = [0usize; 3];
            for row in parts.batch(i).rows() {
                // Checked conversion: a negative or out-of-range stratum id
                // must fail the test with a message, not wrap into a bogus
                // index.
                let stratum = row.values[0]
                    .as_i64()
                    .and_then(|v| usize::try_from(v).ok())
                    .filter(|&s| s < counts.len())
                    .expect("stratum column must be a small non-negative Int");
                counts[stratum] += 1;
            }
            // Proportional shares would be 10/4/1 per batch of 15.
            assert!((8..=12).contains(&counts[0]), "batch {i}: {counts:?}");
            assert!((2..=6).contains(&counts[1]), "batch {i}: {counts:?}");
            assert!(counts[2] >= 1, "batch {i}: {counts:?}");
        }
    }

    #[test]
    fn stratified_shuffle_is_a_permutation() {
        let schema = Schema::from_pairs(&[("g", DataType::Int), ("v", DataType::Int)]);
        let rows = (0..50)
            .map(|i| vec![Value::Int(i % 4), Value::Int(i)])
            .collect();
        let rel = Relation::from_values(schema, rows);
        let parts =
            BatchedRelation::partition(&rel, 5, 3, PartitionMode::StratifiedShuffle { column: 0 });
        let mut seen: Vec<i64> = parts
            .batches()
            .iter()
            .flat_map(|b| b.rows().iter().map(|r| r.values[1].as_i64().unwrap()))
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn push_batch_extends_stream_and_rescales() {
        let rel = int_rel(30);
        let mut b = BatchedRelation::partition(&rel, 3, 0, PartitionMode::Sequential);
        assert!((b.scale_after(2) - 1.0).abs() < 1e-12);
        b.push_batch(int_rel(10));
        assert_eq!(b.num_batches(), 4);
        assert_eq!(b.total_rows(), 40);
        // Earlier prefixes now stand for more unseen data…
        assert!((b.scale_after(2) - 40.0 / 30.0).abs() < 1e-12);
        // …and the full stream is exact again once the append is consumed.
        assert!((b.scale_after(3) - 1.0).abs() < 1e-12);
        assert_eq!(b.union_through(3).len(), 40);
    }

    #[test]
    fn sampling_progress_monotone() {
        let mut s = SamplingProgress::new(10);
        assert!(!s.complete());
        s.advance(4);
        assert_eq!(s.seen(), 4);
        assert!((s.fraction() - 0.4).abs() < 1e-12);
        s.advance(6);
        assert!(s.complete());
    }
}
