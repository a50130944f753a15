//! Property tests pinning the columnar kernels to their row-at-a-time
//! references, and the row ⇄ batch facade round-trip.
//!
//! The engine reads `ORow` cells in place; what is columnar here is the
//! row ⇄ batch facade the benchmark probes measure, plus the trial fold
//! kernels the engine's `fold_value` calls per row. The contract is
//! *bit-identical* agreement with the scalar path: the numeric filter
//! kernel must select exactly the rows `Value::compare` accepts, fold
//! kernels must reproduce the scalar trial-state updates to the last ulp
//! (same float expression, same accumulation order), and
//! `Batch::from_rows`/`to_rows` must be value-exact — including NaN
//! floats, NULLs, and lineage cells. The engine's own filter (string, bool
//! and NULL literals included) is pinned against `eval_predicate` in
//! `crates/core/src/ops.rs`.

use iolap_relation::kernels::filter::{filter_cmp_f64, CmpKind};
use iolap_relation::kernels::fold::{
    fold_count_uniform, fold_count_weighted, fold_sum_uniform, fold_sum_weighted,
};
use iolap_relation::{
    AggRef, Batch, BatchedRelation, Column, DataType, PartitionMode, Relation, Row, Schema, SelVec,
    Value,
};
use proptest::prelude::*;
use std::sync::Arc;

const OPS: [CmpKind; 6] = [
    CmpKind::Eq,
    CmpKind::Ne,
    CmpKind::Lt,
    CmpKind::Le,
    CmpKind::Gt,
    CmpKind::Ge,
];

const STRINGS: [&str; 4] = ["med box", "jumbo", "wrap", ""];

/// One non-lineage cell: NULL, int, float (NaN included), bool, or a string
/// from a small alphabet (so dictionary columns stay dictionary-heavy).
fn cell() -> BoxedStrategy<Value> {
    prop_oneof![
        2 => Just(Value::Null),
        4 => (-6i64..6).prop_map(Value::Int),
        4 => (-4.0f64..4.0).prop_map(Value::Float),
        1 => Just(Value::Float(f64::NAN)),
        2 => any::<bool>().prop_map(Value::Bool),
        4 => (0usize..4).prop_map(|i| Value::str(STRINGS[i])),
    ]
    .boxed()
}

/// A whole column worth of cells. Biased toward homogeneous columns so the
/// typed representations (I64/F64/Bool/Str-dictionary, with and without
/// validity bitmaps) are exercised often, with a mixed arm for the `Val`
/// fallback. Lengths include 0 (empty batch) and all-null columns occur
/// naturally.
fn column_cells() -> BoxedStrategy<Vec<Value>> {
    let null = || Just(Value::Null).boxed();
    let ints = prop::collection::vec(
        prop_oneof![1 => null(), 5 => (-6i64..6).prop_map(Value::Int).boxed()],
        0..40,
    );
    let floats = prop::collection::vec(
        prop_oneof![
            1 => null(),
            4 => (-4.0f64..4.0).prop_map(Value::Float).boxed(),
            1 => Just(Value::Float(f64::NAN)).boxed(),
        ],
        0..40,
    );
    let bools = prop::collection::vec(
        prop_oneof![1 => null(), 5 => any::<bool>().prop_map(Value::Bool).boxed()],
        0..40,
    );
    let strs = prop::collection::vec(
        prop_oneof![1 => null(), 5 => (0usize..4).prop_map(|i| Value::str(STRINGS[i])).boxed()],
        0..40,
    );
    let mixed = prop::collection::vec(cell(), 0..40);
    prop_oneof![ints, floats, bools, strs, mixed].boxed()
}

/// A numeric comparison literal, NaN included.
fn literal() -> BoxedStrategy<f64> {
    prop_oneof![
        (-6i64..6).prop_map(|i| i as f64),
        -4.0f64..4.0,
        Just(f64::NAN),
    ]
    .boxed()
}

/// Deterministic splitmix64 — per-row bootstrap weights and multiplicities
/// for the fold tests, identical on the kernel and reference sides.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

fn row_weights(seed: u64, row: usize, trials: usize) -> Vec<f64> {
    (0..trials)
        .map(|t| (mix(seed ^ (row as u64) << 20 ^ t as u64) % 4) as f64)
        .collect()
}

fn row_mult(seed: u64, row: usize) -> f64 {
    (mix(seed ^ 0xabcd ^ row as u64) % 8) as f64 * 0.5
}

proptest! {
    /// The filter kernel selects exactly the rows where the row-at-a-time
    /// reference — `Value::compare` plus the operator truth table — accepts,
    /// across typed columns, validity bitmaps, the mixed-`Val` fallback,
    /// NaN literals, empty inputs, and incomparable variant pairs (string
    /// and bool cells, which must select nothing on both sides).
    #[test]
    fn filter_kernel_matches_value_compare(
        cells in column_cells(),
        op_i in 0usize..6,
        lit in literal(),
    ) {
        let op = OPS[op_i];
        let (col, saw_lineage) = Column::from_cells(cells.iter());
        prop_assert!(!saw_lineage);
        let mut sel = SelVec::new();
        filter_cmp_f64(&col, op, lit, &mut sel);
        let lit = Value::Float(lit);
        let expect: Vec<usize> = cells
            .iter()
            .enumerate()
            .filter(|(_, v)| v.compare(&lit).map(|o| op.accepts(o)).unwrap_or(false))
            .map(|(i, _)| i)
            .collect();
        prop_assert_eq!(sel.iter().collect::<Vec<_>>(), expect);
    }

    /// The fold kernels reproduce the scalar per-row trial update
    /// *bitwise*: same participation rule (NULLs never fold, non-numeric
    /// folds only for COUNT), same float expression, same accumulation
    /// order. Covers both the Poisson-weighted and uniform fold kernels.
    #[test]
    fn fold_kernels_bitwise_match_scalar_reference(
        cells in column_cells(),
        count_kind in any::<bool>(),
        trials in 0usize..6,
        seed in any::<u64>(),
    ) {
        // Kernel side: fold each participating row, in row order.
        let mut ka = vec![0.0f64; trials];
        let mut kb = vec![0.0f64; trials];
        let mut ua = vec![0.0f64; trials];
        let mut ub = vec![0.0f64; trials];
        for (i, v) in cells.iter().enumerate() {
            if v.is_null() {
                continue;
            }
            let m = row_mult(seed, i);
            let ws = row_weights(seed, i, trials);
            match (count_kind, v.as_f64()) {
                (true, _) => {
                    fold_count_weighted(&mut ka, m, &ws);
                    fold_count_uniform(&mut ua, m);
                }
                (false, Some(x)) => {
                    fold_sum_weighted(&mut ka, &mut kb, x, m, &ws);
                    fold_sum_uniform(&mut ua, &mut ub, x, m);
                }
                (false, None) => {}
            }
        }

        // Reference side: the scalar fold, row-at-a-time over the original
        // cells, written out with the same expressions the operator uses.
        let mut ra = vec![0.0f64; trials];
        let mut rb = vec![0.0f64; trials];
        let mut va = vec![0.0f64; trials];
        let mut vb = vec![0.0f64; trials];
        for (i, v) in cells.iter().enumerate() {
            let x = v.as_f64();
            if v.is_null() || (x.is_none() && !count_kind) {
                continue;
            }
            let x = x.unwrap_or(0.0);
            let m = row_mult(seed, i);
            let ws = row_weights(seed, i, trials);
            for t in 0..trials {
                if count_kind {
                    ra[t] += m * ws[t];
                    va[t] += m;
                } else {
                    ra[t] += m * ws[t] * x;
                    rb[t] += m * ws[t];
                    va[t] += m * x;
                    vb[t] += m;
                }
            }
        }

        for t in 0..trials {
            prop_assert_eq!(ka[t].to_bits(), ra[t].to_bits());
            prop_assert_eq!(kb[t].to_bits(), rb[t].to_bits());
            prop_assert_eq!(ua[t].to_bits(), va[t].to_bits());
            prop_assert_eq!(ub[t].to_bits(), vb[t].to_bits());
        }
    }

    /// `Batch::from_rows` → `to_rows` is value-exact for every cell variant
    /// — NULLs, NaN floats (bit-compared through `Value`'s `PartialEq`),
    /// lineage refs — and preserves multiplicities bit-for-bit.
    #[test]
    fn batch_round_trip_is_value_exact(
        rows_spec in prop::collection::vec(
            (prop::collection::vec(lineage_cell(), 3usize), 0.0f64..4.0),
            0..40,
        ),
    ) {
        let schema = Schema::from_pairs(&[
            ("a", DataType::Int),
            ("b", DataType::Float),
            ("c", DataType::Str),
        ]);
        let rows: Vec<Row> = rows_spec
            .iter()
            .map(|(vals, m)| Row::with_mult(vals.clone(), *m))
            .collect();
        let batch = Batch::from_rows(schema, &rows);
        prop_assert_eq!(batch.len(), rows.len());
        let back = batch.to_rows();
        prop_assert_eq!(back.len(), rows.len());
        for (orig, got) in rows.iter().zip(back.iter()) {
            prop_assert_eq!(&orig.values, &got.values);
            prop_assert_eq!(orig.mult.to_bits(), got.mult.to_bits());
        }
    }

    /// Routing every mini-batch of a partitioned relation through the
    /// columnar facade changes nothing: `Batch::from_relation` →
    /// `to_relation` returns each partition's rows exactly, for every
    /// partition mode.
    #[test]
    fn partition_round_trip_through_batch(
        n in 0usize..200,
        batches in 1usize..10,
        seed in any::<u64>(),
        block in 1usize..20,
    ) {
        let schema = Schema::from_pairs(&[("v", DataType::Int), ("s", DataType::Str)]);
        let rows: Vec<Vec<Value>> = (0..n as i64)
            .map(|i| {
                let s = if i % 7 == 0 {
                    Value::Null
                } else {
                    Value::str(STRINGS[(i % 4) as usize])
                };
                vec![Value::Int(i), s]
            })
            .collect();
        let rel = Relation::from_values(schema, rows);
        for mode in [
            PartitionMode::RowShuffle,
            PartitionMode::Sequential,
            PartitionMode::BlockShuffle { block_rows: block },
        ] {
            let parts = BatchedRelation::partition(&rel, batches, seed, mode);
            for part in parts.batches() {
                let back = Batch::from_relation(part).to_relation();
                prop_assert_eq!(part.rows(), back.rows());
            }
        }
    }
}

/// A cell that may also be a lineage ref — only the facade round-trip uses
/// this; the kernel tests stay lineage-free (kernels reject lineage).
fn lineage_cell() -> BoxedStrategy<Value> {
    prop_oneof![
        8 => cell(),
        1 => (0u32..3, 0usize..3).prop_map(|(agg, k)| {
            Value::Ref(AggRef {
                agg,
                column: 0,
                key: Arc::from(vec![Value::Int(k as i64)]),
            })
        }),
    ]
    .boxed()
}
