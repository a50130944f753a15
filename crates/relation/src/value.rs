//! Scalar values stored in relations.
//!
//! iOLAP relations use a small dynamically-typed value model. Two details are
//! specific to this system:
//!
//! * [`Value::Ref`] is a *block-wise lineage reference* (paper §6.1): instead
//!   of copying an uncertain aggregate result into every tuple that joins
//!   with it, the join attaches a reference to `(aggregate id, group key)`.
//!   Expressions dereference it lazily against the aggregate registry, which
//!   is how lazy evaluation (§6.2) keeps saved operator state up to date
//!   without regenerating tuples.
//! * Numeric comparisons coerce `Int`/`Float`, but equality and hashing (used
//!   for join/group-by keys) are strict per-variant. The paper excludes
//!   approximate join/group-by keys (§3.3), so keys are always deterministic
//!   and type-stable.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A block-wise lineage reference to one group of one aggregate operator's
/// output (paper §6.1, "AGGREGATE" case of Definition 1).
///
/// `agg` uniquely identifies the aggregate operator's output relation within
/// a compiled query (the paper's `rel(γ)`), `column` selects which aggregate
/// column of that output, and `key` is the group-by key of the referenced
/// output tuple.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct AggRef {
    /// Unique id of the aggregate operator output within the compiled query.
    pub agg: u32,
    /// Index of the referenced aggregate column in that operator's output.
    pub column: u16,
    /// Group-by key of the referenced output tuple (empty for global
    /// aggregates).
    pub key: Arc<[Value]>,
}

impl fmt::Display for AggRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@agg{}#{}[", self.agg, self.column)?;
        for (i, v) in self.key.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

/// An opaque deferred-computation cell (paper §6.1 "folding deterministic
/// value"): a *computed* uncertain attribute (e.g. `0.2 × AVG(...)`) is not
/// materialized — doing so would leave a stale scalar in saved operator
/// state. Instead the cell captures the static lineage function together
/// with its folded deterministic operands and the aggregate references, and
/// consumers evaluate it lazily through the resolver.
///
/// The payload is opaque at this layer (the expression type lives in the
/// engine crate); identity is by the creator-supplied *content token*, a
/// deterministic digest of the captured lineage function and operands. Two
/// cells with the same token denote the same deferred computation.
///
/// Identity was previously the payload's `Arc` address, which is
/// address-dependent and therefore a determinism hazard (the L002 family):
/// an unresolved cell's `Debug`/`Display` form, and the order of rows that
/// tie on every other attribute, would have varied run to run had a cell
/// ever leaked into a report. The content token makes equality, hashing,
/// ordering, and formatting reproducible by construction.
#[derive(Clone)]
pub struct PendingCell {
    /// Opaque payload, downcast by the resolver that created it.
    pub payload: Arc<dyn std::any::Any + Send + Sync>,
    /// Deterministic content digest of `(lineage expr, captured operands)`,
    /// computed by the creator. Identity, hashing, and display all use it.
    pub token: u64,
}

impl PendingCell {
    /// New cell around `payload` with content digest `token`.
    pub fn new(payload: Arc<dyn std::any::Any + Send + Sync>, token: u64) -> PendingCell {
        PendingCell { payload, token }
    }
}

impl fmt::Debug for PendingCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PendingCell#{:016x}", self.token)
    }
}

/// A dynamically typed scalar value.
#[derive(Clone, Debug)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Interned UTF-8 string.
    Str(Arc<str>),
    /// Lineage reference to an uncertain aggregate attribute (iOLAP §6).
    Ref(AggRef),
    /// Deferred computation over uncertain attributes (iOLAP §6, folded
    /// lineage). Never a join/group key.
    Pending(PendingCell),
}

impl Value {
    /// Shared `Str` constructor.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Rough bytes this value occupies beyond `size_of::<Value>()` (heap
    /// payload: string bytes, lineage-ref keys). The single source of truth
    /// for state/shipped-byte accounting — `row_approx_bytes` and the
    /// operator channels both build on it.
    pub fn approx_heap_bytes(&self) -> usize {
        match self {
            Value::Str(s) => s.len(),
            Value::Ref(r) => {
                r.key.len() * std::mem::size_of::<Value>()
                    + r.key.iter().map(Value::approx_heap_bytes).sum::<usize>()
            }
            // The thunk payload is an opaque shared Arc; charge the cell.
            Value::Pending(_) => std::mem::size_of::<PendingCell>(),
            _ => 0,
        }
    }

    /// Data type of this value, if it is a concrete scalar.
    pub fn data_type(&self) -> DataType {
        match self {
            Value::Null => DataType::Null,
            Value::Bool(_) => DataType::Bool,
            Value::Int(_) => DataType::Int,
            Value::Float(_) => DataType::Float,
            Value::Str(_) => DataType::Str,
            Value::Ref(_) => DataType::Ref,
            Value::Pending(_) => DataType::Ref,
        }
    }

    /// True if this is `Value::Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view of the value (`Int` and `Float` only).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer view of the value.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Float(f) => Some(*f as i64),
            _ => None,
        }
    }

    /// Boolean view of the value.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// String view of the value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Total order used for ORDER BY and MIN/MAX. Nulls sort first; numeric
    /// variants compare by value with `Int`/`Float` coercion; distinct
    /// non-numeric variants compare by a fixed variant rank.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Str(a), Str(b)) => a.cmp(b),
            (Ref(a), Ref(b)) => (a.agg, a.column).cmp(&(b.agg, b.column)),
            // Content tokens keep the order of tied rows reproducible.
            (Pending(a), Pending(b)) => a.token.cmp(&b.token),
            (a, b) => a.variant_rank().cmp(&b.variant_rank()),
        }
    }

    fn variant_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 2, // numeric variants share a rank
            Value::Str(_) => 3,
            Value::Ref(_) => 4,
            Value::Pending(_) => 5,
        }
    }

    /// Numeric comparison with `Int`/`Float` coercion, used by predicate
    /// evaluation. Returns `None` when either side is NULL or the values are
    /// not comparable (e.g. string vs int).
    pub fn compare(&self, other: &Value) -> Option<Ordering> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => None,
            (Bool(a), Bool(b)) => Some(a.cmp(b)),
            (Str(a), Str(b)) => Some(a.cmp(b)),
            (a, b) => {
                let (x, y) = (a.as_f64()?, b.as_f64()?);
                Some(x.total_cmp(&y))
            }
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        use Value::*;
        match (self, other) {
            (Null, Null) => true,
            (Bool(a), Bool(b)) => a == b,
            (Int(a), Int(b)) => a == b,
            // Bit-equality keeps Eq/Hash consistent; NaN == NaN here, which is
            // what grouping needs.
            (Float(a), Float(b)) => a.to_bits() == b.to_bits(),
            (Str(a), Str(b)) => a == b,
            (Ref(a), Ref(b)) => a == b,
            (Pending(a), Pending(b)) => a.token == b.token,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match self {
            Value::Null => {}
            Value::Bool(b) => b.hash(state),
            Value::Int(i) => i.hash(state),
            Value::Float(f) => f.to_bits().hash(state),
            Value::Str(s) => s.hash(state),
            Value::Ref(r) => r.hash(state),
            Value::Pending(c) => c.token.hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => {
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Value::Str(s) => write!(f, "{s}"),
            Value::Ref(r) => write!(f, "{r}"),
            Value::Pending(c) => write!(f, "<pending:{c:?}>"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v.as_str()))
    }
}

/// The data types supported by the engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DataType {
    /// Type of `Value::Null` before coercion.
    Null,
    /// Boolean.
    Bool,
    /// 64-bit integer.
    Int,
    /// 64-bit float.
    Float,
    /// UTF-8 string.
    Str,
    /// Lineage reference (internal to iOLAP plans).
    Ref,
}

impl DataType {
    /// Least upper bound of two types under numeric coercion. `Null` is the
    /// identity. Returns `None` for incompatible pairs.
    pub fn unify(self, other: DataType) -> Option<DataType> {
        use DataType::*;
        match (self, other) {
            (a, b) if a == b => Some(a),
            (Null, t) | (t, Null) => Some(t),
            (Int, Float) | (Float, Int) => Some(Float),
            _ => None,
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Null => "NULL",
            DataType::Bool => "BOOL",
            DataType::Int => "INT",
            DataType::Float => "FLOAT",
            DataType::Str => "STR",
            DataType::Ref => "REF",
        };
        write!(f, "{s}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn numeric_compare_coerces() {
        assert_eq!(
            Value::Int(3).compare(&Value::Float(3.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Float(2.5).compare(&Value::Int(3)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn null_compare_is_none() {
        assert_eq!(Value::Null.compare(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).compare(&Value::Null), None);
    }

    #[test]
    fn strict_equality_distinguishes_int_float() {
        assert_ne!(Value::Int(3), Value::Float(3.0));
        assert_eq!(Value::Int(3), Value::Int(3));
    }

    #[test]
    fn float_eq_hash_consistent_for_nan() {
        let a = Value::Float(f64::NAN);
        let b = Value::Float(f64::NAN);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn total_cmp_null_first() {
        assert_eq!(Value::Null.total_cmp(&Value::Int(-100)), Ordering::Less);
        assert_eq!(Value::Int(-100).total_cmp(&Value::Null), Ordering::Greater);
    }

    #[test]
    fn total_cmp_numeric_coercion() {
        assert_eq!(Value::Int(2).total_cmp(&Value::Float(2.5)), Ordering::Less);
        assert_eq!(Value::Float(2.0).total_cmp(&Value::Int(2)), Ordering::Equal);
    }

    #[test]
    fn unify_types() {
        assert_eq!(DataType::Int.unify(DataType::Float), Some(DataType::Float));
        assert_eq!(DataType::Null.unify(DataType::Str), Some(DataType::Str));
        assert_eq!(DataType::Str.unify(DataType::Int), None);
    }

    #[test]
    fn display_round_values() {
        assert_eq!(Value::Float(37.0).to_string(), "37.0");
        assert_eq!(Value::Int(37).to_string(), "37");
        assert_eq!(Value::str("abc").to_string(), "abc");
    }

    #[test]
    fn agg_ref_display() {
        let r = AggRef {
            agg: 2,
            column: 0,
            key: Arc::from(vec![Value::Int(7)]),
        };
        assert_eq!(Value::Ref(r).to_string(), "@agg2#0[7]");
    }

    #[test]
    fn string_compare() {
        assert_eq!(
            Value::str("a").compare(&Value::str("b")),
            Some(Ordering::Less)
        );
        assert_eq!(Value::str("a").compare(&Value::Int(1)), None);
    }
}
