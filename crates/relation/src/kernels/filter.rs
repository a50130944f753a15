//! Comparison kernel: column ϑ numeric literal → selection vector.
//!
//! [`filter_cmp_f64`] appends the ordinals of passing rows to a [`SelVec`].
//! NULL (invalid) cells never pass — the engine's `compare` yields `false`
//! for NULL on either side — and incomparable variant pairs (a string or
//! bool column vs a numeric literal) pass nothing, exactly like
//! [`Value::compare`](crate::Value::compare) returning `None`.
//!
//! The engine does not call it: `SelectOp` compares `ORow` cells in place.
//! It stays as the filter half of the row ⇄ batch facade, which the
//! benchmark's `relation.filter_mrows_s` probe measures.

use crate::columnar::{Column, ColumnData, SelVec};
use std::cmp::Ordering;

/// Comparison operator kind, mirroring the engine's `CmpOp` (the relation
/// crate sits below the engine, so the kernels carry their own copy).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpKind {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpKind {
    /// Whether an ordering outcome satisfies this operator — the same
    /// truth table as the engine's `compare`.
    #[inline]
    pub fn accepts(self, ord: Ordering) -> bool {
        match self {
            CmpKind::Eq => ord == Ordering::Equal,
            CmpKind::Ne => ord != Ordering::Equal,
            CmpKind::Lt => ord == Ordering::Less,
            CmpKind::Le => ord != Ordering::Greater,
            CmpKind::Gt => ord == Ordering::Greater,
            CmpKind::Ge => ord != Ordering::Less,
        }
    }
}

/// `column ϑ numeric-literal`. Uses `f64::total_cmp` with `Int → f64`
/// coercion, exactly like `Value::compare`'s numeric branch (NaN literals
/// included). Bool/Str columns pass nothing (incomparable).
pub fn filter_cmp_f64(col: &Column, op: CmpKind, lit: f64, sel: &mut SelVec) {
    match &col.data {
        ColumnData::I64(vals) => match &col.validity {
            None => {
                for (i, &x) in vals.iter().enumerate() {
                    if op.accepts((x as f64).total_cmp(&lit)) {
                        sel.push(i);
                    }
                }
            }
            Some(valid) => {
                for (i, &x) in vals.iter().enumerate() {
                    if valid.get(i) && op.accepts((x as f64).total_cmp(&lit)) {
                        sel.push(i);
                    }
                }
            }
        },
        ColumnData::F64(vals) => match &col.validity {
            None => {
                for (i, &x) in vals.iter().enumerate() {
                    if op.accepts(x.total_cmp(&lit)) {
                        sel.push(i);
                    }
                }
            }
            Some(valid) => {
                for (i, &x) in vals.iter().enumerate() {
                    if valid.get(i) && op.accepts(x.total_cmp(&lit)) {
                        sel.push(i);
                    }
                }
            }
        },
        ColumnData::Val(vals) => {
            for (i, v) in vals.iter().enumerate() {
                if let Some(x) = v.as_f64() {
                    if op.accepts(x.total_cmp(&lit)) {
                        sel.push(i);
                    }
                }
            }
        }
        ColumnData::Bool(_) | ColumnData::Str { .. } => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn sel_of(col: &Column, op: CmpKind, lit: f64) -> Vec<usize> {
        let mut sel = SelVec::new();
        filter_cmp_f64(col, op, lit, &mut sel);
        sel.iter().collect()
    }

    #[test]
    fn numeric_filter_with_nulls() {
        let cells = [Value::Int(1), Value::Null, Value::Int(5), Value::Int(3)];
        let (col, _) = Column::from_cells(cells.iter());
        assert_eq!(sel_of(&col, CmpKind::Gt, 2.0), vec![2, 3]);
        assert_eq!(sel_of(&col, CmpKind::Le, 3.0), vec![0, 3]);
        assert_eq!(sel_of(&col, CmpKind::Eq, 5.0), vec![2]);
    }

    #[test]
    fn incomparable_variants_select_nothing() {
        let cells = [Value::str("a"), Value::str("b")];
        let (col, _) = Column::from_cells(cells.iter());
        assert!(sel_of(&col, CmpKind::Gt, 0.0).is_empty());
        let cells = [Value::Bool(true)];
        let (col, _) = Column::from_cells(cells.iter());
        assert!(sel_of(&col, CmpKind::Eq, 1.0).is_empty());
    }
}
