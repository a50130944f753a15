//! Typed columnar batches: the SoA (structure-of-arrays) form of a
//! mini-batch, reached only through the row ⇄ batch facade
//! (`kernels/facade.rs`). The engine's operators read `ORow` cells in
//! place and build no `Batch`.
//!
//! A [`Batch`] holds one mini-batch of tuples column-wise: each column is a
//! typed vector ([`ColumnData`]) plus an optional validity [`Bitmap`]
//! (absent = all rows valid). Kernels over a batch never materialize row
//! copies; they produce selection vectors ([`SelVec`]) of passing row
//! ordinals, and materialization back into [`Row`](crate::Row)s happens only
//! at the facade boundary (`Batch::to_rows`, in `kernels/facade.rs`).
//!
//! Column typing is *strict*: a column is stored typed only when every
//! non-null cell has exactly that variant, so `Batch::from_rows` followed by
//! `Batch::to_rows` is value-exact (an `Int(3)` never comes back as
//! `Float(3.0)`). Anything mixed — including lineage cells (`Ref`/`Pending`,
//! §6.1) — falls back to [`ColumnData::Val`], which round-trips the original
//! `Value`s unchanged.

use crate::schema::Schema;
use crate::value::Value;
use std::collections::HashMap;
use std::sync::Arc;

/// Fixed-size validity bitmap: bit set ⇒ the row's cell is valid (non-null).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// All-clear bitmap of `len` bits.
    pub fn new(len: usize) -> Bitmap {
        Bitmap {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the bitmap has zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Set bit `i`.
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Read bit `i`; out-of-range reads as unset.
    pub fn get(&self, i: usize) -> bool {
        i < self.len && (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of set bits.
    pub fn count_set(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when every bit is set.
    pub fn all_set(&self) -> bool {
        self.count_set() == self.len
    }
}

/// Typed column storage. Slots where the validity bit is clear hold an
/// arbitrary placeholder (`0`, `false`, dictionary code 0, …) and must never
/// be read as data.
#[derive(Clone, Debug)]
pub enum ColumnData {
    /// All non-null cells are `Value::Int`.
    I64(Vec<i64>),
    /// All non-null cells are `Value::Float` (bit-exact, NaN included).
    F64(Vec<f64>),
    /// All non-null cells are `Value::Bool`.
    Bool(Vec<bool>),
    /// All non-null cells are `Value::Str`; `codes[i]` indexes `dict` (built
    /// in first-occurrence order, so construction is deterministic).
    Str {
        /// Distinct strings, in first-occurrence order.
        dict: Vec<Arc<str>>,
        /// Per-row dictionary codes.
        codes: Vec<u32>,
    },
    /// Fallback for mixed-type columns and lineage cells: the original
    /// values, row-aligned.
    Val(Vec<Value>),
}

/// One column of a [`Batch`]: typed data plus optional validity.
#[derive(Clone, Debug)]
pub struct Column {
    /// Typed cell storage.
    pub data: ColumnData,
    /// Validity bitmap; `None` ⇒ every row valid.
    pub validity: Option<Bitmap>,
}

impl Column {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match &self.data {
            ColumnData::I64(v) => v.len(),
            ColumnData::F64(v) => v.len(),
            ColumnData::Bool(v) => v.len(),
            ColumnData::Str { codes, .. } => codes.len(),
            ColumnData::Val(v) => v.len(),
        }
    }

    /// True when the column has zero rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether row `i` holds a valid (non-null) cell.
    pub fn is_valid(&self, i: usize) -> bool {
        match &self.validity {
            None => i < self.len(),
            Some(b) => b.get(i),
        }
    }

    /// Numeric view of cell `i` with the same coercion as
    /// [`Value::as_f64`]: `Some` for valid `Int`/`Float` cells only.
    pub fn cell_f64(&self, i: usize) -> Option<f64> {
        if !self.is_valid(i) {
            return None;
        }
        match &self.data {
            ColumnData::I64(v) => Some(v[i] as f64),
            ColumnData::F64(v) => Some(v[i]),
            ColumnData::Val(v) => v[i].as_f64(),
            _ => None,
        }
    }

    /// Materialize cell `i` as a [`Value`]. This is the facade direction —
    /// kernels read cells through the typed accessors instead.
    pub fn cell_value(&self, i: usize) -> Value {
        if !self.is_valid(i) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::I64(v) => Value::Int(v[i]),
            ColumnData::F64(v) => Value::Float(v[i]),
            ColumnData::Bool(v) => Value::Bool(v[i]),
            ColumnData::Str { dict, codes } => {
                let code = codes[i] as usize;
                match dict.get(code) {
                    Some(s) => Value::Str(s.clone()),
                    None => Value::Null,
                }
            }
            ColumnData::Val(v) => v[i].clone(),
        }
    }

    /// Build a column from borrowed cells, choosing the strictest typed
    /// representation that is value-exact. Returns the column and whether
    /// any lineage cell (`Ref`/`Pending`) was seen — callers running
    /// deref-free kernels must fall back to row-at-a-time evaluation in
    /// that case.
    pub fn from_cells<'a>(cells: impl Iterator<Item = &'a Value>) -> (Column, bool) {
        // Buffer the borrowed cells once; classification needs a full look
        // before the typed vectors can be built without re-running the
        // (possibly non-Clone) iterator.
        let cells: Vec<&Value> = cells.collect();
        let n = cells.len();
        let mut saw_lineage = false;
        let mut kind: Option<u8> = None; // 0=I64 1=F64 2=Bool 3=Str
        let mut mixed = false;
        let mut nulls = 0usize;
        for &v in &cells {
            let k = match v {
                Value::Null => {
                    nulls += 1;
                    continue;
                }
                Value::Int(_) => 0u8,
                Value::Float(_) => 1,
                Value::Bool(_) => 2,
                Value::Str(_) => 3,
                Value::Ref(_) | Value::Pending(_) => {
                    saw_lineage = true;
                    mixed = true;
                    continue;
                }
            };
            match kind {
                None => kind = Some(k),
                Some(prev) if prev == k => {}
                Some(_) => mixed = true,
            }
        }
        if mixed {
            let data = ColumnData::Val(cells.into_iter().cloned().collect());
            return (
                Column {
                    data,
                    validity: None,
                },
                saw_lineage,
            );
        }
        let validity = if nulls > 0 {
            let mut b = Bitmap::new(n);
            for (i, v) in cells.iter().enumerate() {
                if !v.is_null() {
                    b.set(i);
                }
            }
            Some(b)
        } else {
            None
        };
        let data = match kind {
            // All-null (or empty) column: any typed placeholder works, the
            // validity bitmap masks every slot.
            None => ColumnData::I64(vec![0; n]),
            Some(0) => ColumnData::I64(
                cells
                    .iter()
                    .map(|v| v.as_i64().unwrap_or_default())
                    .collect(),
            ),
            Some(1) => ColumnData::F64(
                cells
                    .iter()
                    .map(|v| v.as_f64().unwrap_or_default())
                    .collect(),
            ),
            Some(2) => ColumnData::Bool(
                cells
                    .iter()
                    .map(|v| v.as_bool().unwrap_or_default())
                    .collect(),
            ),
            Some(_) => {
                let mut dict: Vec<Arc<str>> = Vec::new();
                let mut seen: HashMap<Arc<str>, u32> = HashMap::new();
                let mut codes = Vec::with_capacity(n);
                for &v in &cells {
                    match v {
                        Value::Str(s) => {
                            let code = match seen.get(&**s) {
                                Some(&c) => c,
                                None => {
                                    let c = checked_u32(dict.len());
                                    dict.push(s.clone());
                                    seen.insert(s.clone(), c);
                                    c
                                }
                            };
                            codes.push(code);
                        }
                        _ => codes.push(0),
                    }
                }
                ColumnData::Str { dict, codes }
            }
        };
        (Column { data, validity }, saw_lineage)
    }
}

/// A selection vector: ascending row ordinals that passed a kernel. The
/// columnar discipline is that scan/filter kernels *append here* instead of
/// copying rows; rows are gathered once, at the consumer.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SelVec {
    idx: Vec<u32>,
}

impl SelVec {
    /// Empty selection.
    pub fn new() -> SelVec {
        SelVec::default()
    }

    /// Empty selection with room for `n` entries.
    pub fn with_capacity(n: usize) -> SelVec {
        SelVec {
            idx: Vec::with_capacity(n),
        }
    }

    /// Append row ordinal `i` (checked conversion; batches are bounded to
    /// `u32::MAX` rows by [`Batch::from_rows`]).
    pub fn push(&mut self, i: usize) {
        self.idx.push(checked_u32(i));
    }

    /// Number of selected rows.
    pub fn len(&self) -> usize {
        self.idx.len()
    }

    /// True when nothing is selected.
    pub fn is_empty(&self) -> bool {
        self.idx.is_empty()
    }

    /// Selected ordinal at position `k`.
    pub fn get(&self, k: usize) -> usize {
        self.idx[k] as usize
    }

    /// Iterate selected ordinals as `usize`.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.idx.iter().map(|&i| i as usize)
    }

    /// The raw ordinal slice.
    pub fn as_slice(&self) -> &[u32] {
        &self.idx
    }
}

/// Checked `usize → u32` ordinal conversion. Batch construction bounds row
/// counts to `u32::MAX` ([`Batch::from_rows`]) and dictionaries never hold
/// more codes than rows, so a wider value is unreachable; it trips the
/// debug assertion in tests and saturates in release — this sits on the
/// operator hot path, where aborting the process is never acceptable (the
/// columnar kernels never use bare `as` casts on indices).
pub(crate) fn checked_u32(i: usize) -> u32 {
    debug_assert!(
        u32::try_from(i).is_ok(),
        "columnar ordinal {i} exceeds u32 range"
    );
    u32::try_from(i).unwrap_or(u32::MAX)
}

/// One mini-batch of tuples in columnar (SoA) layout: per-column typed
/// vectors plus the per-row multiplicities of the bag semantics
/// (Appendix A).
#[derive(Clone, Debug)]
pub struct Batch {
    pub(crate) schema: Schema,
    pub(crate) columns: Vec<Column>,
    pub(crate) mults: Vec<f64>,
    pub(crate) len: usize,
}

impl Batch {
    /// The batch's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// All columns, schema-ordered.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Column `i`.
    pub fn column(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    /// Per-row multiplicities.
    pub fn mults(&self) -> &[f64] {
        &self.mults
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the batch has zero rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitmap_set_get_count() {
        let mut b = Bitmap::new(130);
        assert_eq!(b.count_set(), 0);
        b.set(0);
        b.set(64);
        b.set(129);
        assert!(b.get(0) && b.get(64) && b.get(129));
        assert!(!b.get(1) && !b.get(128));
        assert!(!b.get(130), "out of range reads unset");
        assert_eq!(b.count_set(), 3);
        assert!(!b.all_set());
    }

    #[test]
    fn from_cells_strict_typing() {
        let ints = [Value::Int(1), Value::Null, Value::Int(3)];
        let (col, lineage) = Column::from_cells(ints.iter());
        assert!(!lineage);
        assert!(matches!(col.data, ColumnData::I64(_)));
        assert!(col.is_valid(0) && !col.is_valid(1) && col.is_valid(2));
        assert_eq!(col.cell_value(1), Value::Null);
        assert_eq!(col.cell_value(2), Value::Int(3));
    }

    #[test]
    fn from_cells_mixed_numeric_falls_back_to_val() {
        let mixed = [Value::Int(1), Value::Float(2.0)];
        let (col, lineage) = Column::from_cells(mixed.iter());
        assert!(!lineage);
        assert!(matches!(col.data, ColumnData::Val(_)));
        // Round trip stays value-exact: Int never becomes Float.
        assert_eq!(col.cell_value(0), Value::Int(1));
        assert_eq!(col.cell_value(1), Value::Float(2.0));
    }

    #[test]
    fn from_cells_dictionary_dedups_in_first_occurrence_order() {
        let cells = [
            Value::str("b"),
            Value::str("a"),
            Value::str("b"),
            Value::Null,
        ];
        let (col, _) = Column::from_cells(cells.iter());
        match &col.data {
            ColumnData::Str { dict, codes } => {
                assert_eq!(dict.len(), 2);
                assert_eq!(dict[0].as_ref(), "b");
                assert_eq!(dict[1].as_ref(), "a");
                assert_eq!(codes[..3], [0, 1, 0]);
            }
            other => panic!("expected dictionary column, got {other:?}"),
        }
        assert_eq!(col.cell_value(3), Value::Null);
    }

    #[test]
    fn from_cells_reports_lineage() {
        let cells = [
            Value::Int(1),
            Value::Ref(crate::AggRef {
                agg: 0,
                column: 0,
                key: Arc::from(Vec::new()),
            }),
        ];
        let (col, lineage) = Column::from_cells(cells.iter());
        assert!(lineage);
        assert!(matches!(col.data, ColumnData::Val(_)));
    }

    #[test]
    fn selvec_roundtrip() {
        let mut s = SelVec::new();
        s.push(0);
        s.push(7);
        assert_eq!(s.len(), 2);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 7]);
        assert_eq!(s.as_slice(), &[0u32, 7]);
    }
}
