//! Row ⇄ columnar facade: the one place where batches materialize rows.
//!
//! `Batch::from_rows`/`to_rows` convert between the row-oriented
//! `Relation` the engine runs on and a columnar [`Batch`]; the benchmark
//! probes time this conversion and the kernels behind it. Conversion is
//! value-exact in both directions (strict
//! column typing — see [`crate::columnar`]), which the
//! `partition round-trip` property test pins.
//!
//! This module is the audited exception to lint L007 (no per-row `Value`
//! cloning in `kernels/`): materialization is its entire job.

use crate::columnar::{checked_u32, Batch, Column};
use crate::relation::{Relation, Row};
use crate::schema::Schema;

impl Batch {
    /// Build a columnar batch from rows. Each column independently picks
    /// the strictest typed representation (see
    /// [`Column::from_cells`]); row multiplicities are carried alongside.
    pub fn from_rows(schema: Schema, rows: &[Row]) -> Batch {
        // Bound the ordinal domain up front so every kernel's u32 selection
        // index is a checked conversion, not a wrapping cast.
        let _ = checked_u32(rows.len());
        let columns: Vec<Column> = (0..schema.len())
            .map(|j| Column::from_cells(rows.iter().map(|r| &r.values[j])).0)
            .collect();
        let mults: Vec<f64> = rows.iter().map(|r| r.mult).collect();
        Batch {
            schema,
            columns,
            mults,
            len: rows.len(),
        }
    }

    /// Build a columnar batch from a whole relation.
    pub fn from_relation(rel: &Relation) -> Batch {
        Batch::from_rows(rel.schema().clone(), rel.rows())
    }

    /// Materialize every row. Exact inverse of [`Batch::from_rows`].
    pub fn to_rows(&self) -> Vec<Row> {
        (0..self.len)
            .map(|i| Row {
                values: self
                    .columns
                    .iter()
                    .map(|c| c.cell_value(i))
                    .collect::<Vec<_>>()
                    .into(),
                mult: self.mults[i],
            })
            .collect()
    }

    /// Materialize back into a relation.
    pub fn to_relation(&self) -> Relation {
        Relation::new(self.schema.clone(), self.to_rows())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{DataType, Value};

    #[test]
    fn row_round_trip_is_value_exact() {
        let schema = Schema::from_pairs(&[
            ("i", DataType::Int),
            ("f", DataType::Float),
            ("s", DataType::Str),
        ]);
        let rows = vec![
            Row::with_mult(vec![Value::Int(1), Value::Float(1.5), Value::str("a")], 2.0),
            Row::with_mult(vec![Value::Null, Value::Float(f64::NAN), Value::Null], 0.5),
            Row::new(vec![Value::Int(-7), Value::Null, Value::str("a")]),
        ];
        let batch = Batch::from_rows(schema, &rows);
        assert_eq!(batch.len(), 3);
        let back = batch.to_rows();
        assert_eq!(back.len(), rows.len());
        for (orig, got) in rows.iter().zip(back.iter()) {
            assert_eq!(orig.values, got.values);
            assert_eq!(orig.mult.to_bits(), got.mult.to_bits());
        }
    }

    #[test]
    fn relation_round_trip() {
        let schema = Schema::from_pairs(&[("a", DataType::Int)]);
        let rel = Relation::from_values(schema, vec![vec![Value::Int(3)], vec![Value::Null]]);
        let back = Batch::from_relation(&rel).to_relation();
        assert_eq!(rel.rows(), back.rows());
    }
}
