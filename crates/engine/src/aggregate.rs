//! Aggregate functions and multiplicity-weighted accumulators.
//!
//! Accumulators are weighted: every update carries the row's multiplicity
//! (Appendix A bag semantics). This single mechanism supports
//!
//! * plain batch aggregation (weight 1),
//! * partial-result scaling `Q(D_i, m_i)` (§2) — extensive aggregates
//!   multiply their output by `m_i` at *publish* time, so running sketches
//!   stay unscaled and are reusable across batches, and
//! * Poissonized bootstrap trials (§2 "Error Estimation"): trial `j` updates
//!   with weight `mult × Poisson(1)` draws.
//!
//! Aggregates also declare whether they are *smooth* (Hadamard
//! differentiable, §3.3): MIN/MAX are not, so the iOLAP rewriter refuses to
//! build variation ranges on top of them.

use crate::expr::ExprError;
use crate::EngineError;
use iolap_relation::{DataType, Value};
use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

/// A factory for one aggregate function.
pub trait AggregateFunction: Send + Sync {
    /// SQL name (uppercase).
    fn name(&self) -> &str;
    /// Fresh accumulator.
    fn accumulator(&self) -> Box<dyn Accumulator>;
    /// Result type given the input type.
    fn return_type(&self, input: DataType) -> DataType;
    /// Whether the aggregate is smooth under sampling (Hadamard
    /// differentiable) — a precondition for bootstrap-based variation
    /// ranges (§3.3).
    fn smooth(&self) -> bool {
        true
    }
    /// Whether the aggregate is *extensive*: proportional to dataset size,
    /// so partial results must be scaled by `m_i = |D|/|D_i|` (§2).
    /// SUM/COUNT are extensive; AVG/MIN/MAX are intensive.
    fn extensive(&self) -> bool;
}

/// A running aggregate state. `Send + Sync` so operator state can move
/// between the server's worker threads and be read from shard threads.
pub trait Accumulator: Send + Sync {
    /// Fold in one value with the given weight (row multiplicity ×
    /// bootstrap multiplier).
    fn update(&mut self, v: &Value, weight: f64);
    /// Merge another accumulator of the same function (partition merge).
    /// Errs if `other` is an accumulator of a different concrete kind —
    /// a planner bug surfaced as a graceful `EngineError` rather than a
    /// hot-path panic.
    fn merge(&mut self, other: &dyn Accumulator) -> Result<(), EngineError>;
    /// Current output. `scale` is the extensive-aggregate multiplier `m_i`;
    /// intensive aggregates ignore it.
    fn output(&self, scale: f64) -> Value;
    /// Numeric view of the output for bootstrap statistics; `None` for
    /// non-numeric aggregates.
    fn output_f64(&self, scale: f64) -> Option<f64> {
        self.output(scale).as_f64()
    }
    /// Clone into a boxed accumulator.
    fn boxed_clone(&self) -> Box<dyn Accumulator>;
    /// Dynamic self for merge downcasting.
    fn as_any(&self) -> &dyn std::any::Any;
    /// Rough state footprint in bytes (for the paper's state-size
    /// accounting; sketchable aggregates report O(1)).
    fn approx_bytes(&self) -> usize {
        std::mem::size_of_val(self)
    }
}

/// Downcast `other` for a partition merge, or report the planner bug as a
/// graceful plan error naming the expected aggregate kind.
fn downcast_merge<'a, T: 'static>(
    other: &'a dyn Accumulator,
    kind: &str,
) -> Result<&'a T, EngineError> {
    other.as_any().downcast_ref::<T>().ok_or_else(|| {
        EngineError::Plan(format!(
            "accumulator kind mismatch while merging {kind} partitions"
        ))
    })
}

macro_rules! impl_acc_boilerplate {
    ($t:ty) => {
        fn boxed_clone(&self) -> Box<dyn Accumulator> {
            Box::new(self.clone())
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    };
}

/// `COUNT(expr)` / `COUNT(*)`: Σ weight over non-null inputs.
#[derive(Clone, Debug, Default)]
pub struct CountAcc {
    n: f64,
}

impl CountAcc {
    /// Lossless state snapshot for shard partial shipping.
    pub fn state(&self) -> f64 {
        self.n
    }
    /// Rebuild from a [`CountAcc::state`] snapshot (bit-exact).
    pub fn from_state(n: f64) -> Self {
        CountAcc { n }
    }
}

impl Accumulator for CountAcc {
    fn update(&mut self, v: &Value, weight: f64) {
        if !v.is_null() {
            self.n += weight;
        }
    }
    fn merge(&mut self, other: &dyn Accumulator) -> Result<(), EngineError> {
        let o = downcast_merge::<CountAcc>(other, "COUNT")?;
        self.n += o.n;
        Ok(())
    }
    fn output(&self, scale: f64) -> Value {
        Value::Float(self.n * scale)
    }
    impl_acc_boilerplate!(CountAcc);
}

/// `SUM(expr)`.
#[derive(Clone, Debug, Default)]
pub struct SumAcc {
    sum: f64,
    any: bool,
}

impl SumAcc {
    /// Lossless state snapshot (`(sum, saw_any_numeric)`) for shard
    /// partial shipping.
    pub fn state(&self) -> (f64, bool) {
        (self.sum, self.any)
    }
    /// Rebuild from a [`SumAcc::state`] snapshot (bit-exact).
    pub fn from_state(sum: f64, any: bool) -> Self {
        SumAcc { sum, any }
    }
}

impl Accumulator for SumAcc {
    fn update(&mut self, v: &Value, weight: f64) {
        if let Some(x) = v.as_f64() {
            self.sum += x * weight;
            self.any = true;
        }
    }
    fn merge(&mut self, other: &dyn Accumulator) -> Result<(), EngineError> {
        let o = downcast_merge::<SumAcc>(other, "SUM")?;
        self.sum += o.sum;
        self.any |= o.any;
        Ok(())
    }
    fn output(&self, scale: f64) -> Value {
        if self.any {
            Value::Float(self.sum * scale)
        } else {
            Value::Null
        }
    }
    impl_acc_boilerplate!(SumAcc);
}

/// `AVG(expr)` — the running sum + running count sketch of §4.2.
#[derive(Clone, Debug, Default)]
pub struct AvgAcc {
    sum: f64,
    n: f64,
}

impl AvgAcc {
    /// Lossless state snapshot (`(sum, n)`) for shard partial shipping.
    pub fn state(&self) -> (f64, f64) {
        (self.sum, self.n)
    }
    /// Rebuild from an [`AvgAcc::state`] snapshot (bit-exact).
    pub fn from_state(sum: f64, n: f64) -> Self {
        AvgAcc { sum, n }
    }
}

impl Accumulator for AvgAcc {
    fn update(&mut self, v: &Value, weight: f64) {
        if let Some(x) = v.as_f64() {
            self.sum += x * weight;
            self.n += weight;
        }
    }
    fn merge(&mut self, other: &dyn Accumulator) -> Result<(), EngineError> {
        let o = downcast_merge::<AvgAcc>(other, "AVG")?;
        self.sum += o.sum;
        self.n += o.n;
        Ok(())
    }
    fn output(&self, _scale: f64) -> Value {
        if self.n == 0.0 {
            Value::Null
        } else {
            Value::Float(self.sum / self.n)
        }
    }
    impl_acc_boilerplate!(AvgAcc);
}

/// `MIN(expr)` / `MAX(expr)` (not smooth; excluded from uncertainty ranges).
#[derive(Clone, Debug)]
pub struct ExtremeAcc {
    best: Option<Value>,
    is_min: bool,
}

impl ExtremeAcc {
    fn new(is_min: bool) -> Self {
        ExtremeAcc { best: None, is_min }
    }
}

impl Accumulator for ExtremeAcc {
    fn update(&mut self, v: &Value, weight: f64) {
        if v.is_null() || weight <= 0.0 {
            return;
        }
        let better = match &self.best {
            None => true,
            Some(b) => {
                let ord = v.total_cmp(b);
                if self.is_min {
                    ord == std::cmp::Ordering::Less
                } else {
                    ord == std::cmp::Ordering::Greater
                }
            }
        };
        if better {
            self.best = Some(v.clone());
        }
    }
    fn merge(&mut self, other: &dyn Accumulator) -> Result<(), EngineError> {
        let o = downcast_merge::<ExtremeAcc>(other, "MIN/MAX")?;
        if let Some(b) = &o.best {
            self.update(b, 1.0);
        }
        Ok(())
    }
    fn output(&self, _scale: f64) -> Value {
        self.best.clone().unwrap_or(Value::Null)
    }
    impl_acc_boilerplate!(ExtremeAcc);
}

/// `VAR(expr)` / `STDDEV(expr)` — weighted population moments; smooth.
#[derive(Clone, Debug, Default)]
pub struct VarianceAcc {
    n: f64,
    sum: f64,
    sumsq: f64,
    stddev: bool,
}

impl Accumulator for VarianceAcc {
    fn update(&mut self, v: &Value, weight: f64) {
        if let Some(x) = v.as_f64() {
            self.n += weight;
            self.sum += x * weight;
            self.sumsq += x * x * weight;
        }
    }
    fn merge(&mut self, other: &dyn Accumulator) -> Result<(), EngineError> {
        let o = downcast_merge::<VarianceAcc>(other, "VAR/STDDEV")?;
        self.n += o.n;
        self.sum += o.sum;
        self.sumsq += o.sumsq;
        Ok(())
    }
    fn output(&self, _scale: f64) -> Value {
        if self.n <= 0.0 {
            return Value::Null;
        }
        let mean = self.sum / self.n;
        let var = (self.sumsq / self.n - mean * mean).max(0.0);
        Value::Float(if self.stddev { var.sqrt() } else { var })
    }
    impl_acc_boilerplate!(VarianceAcc);
}

/// `COUNT(DISTINCT expr)` — exact distinct set; weight is irrelevant beyond
/// presence. Not sketchable, so its state is O(distinct values).
#[derive(Clone, Debug, Default)]
pub struct CountDistinctAcc {
    seen: HashSet<Value>,
}

impl Accumulator for CountDistinctAcc {
    fn update(&mut self, v: &Value, weight: f64) {
        if !v.is_null() && weight > 0.0 {
            self.seen.insert(v.clone());
        }
    }
    fn merge(&mut self, other: &dyn Accumulator) -> Result<(), EngineError> {
        let o = downcast_merge::<CountDistinctAcc>(other, "COUNT DISTINCT")?;
        self.seen.extend(o.seen.iter().cloned());
        Ok(())
    }
    fn output(&self, scale: f64) -> Value {
        Value::Float(self.seen.len() as f64 * scale)
    }
    fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.seen.len() * std::mem::size_of::<Value>()
    }
    impl_acc_boilerplate!(CountDistinctAcc);
}

/// Built-in aggregate function descriptors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum BuiltinAgg {
    Count,
    CountDistinct,
    Sum,
    Avg,
    Min,
    Max,
    Var,
    StdDev,
}

impl AggregateFunction for BuiltinAgg {
    fn name(&self) -> &str {
        match self {
            BuiltinAgg::Count => "COUNT",
            BuiltinAgg::CountDistinct => "COUNT_DISTINCT",
            BuiltinAgg::Sum => "SUM",
            BuiltinAgg::Avg => "AVG",
            BuiltinAgg::Min => "MIN",
            BuiltinAgg::Max => "MAX",
            BuiltinAgg::Var => "VAR",
            BuiltinAgg::StdDev => "STDDEV",
        }
    }

    fn accumulator(&self) -> Box<dyn Accumulator> {
        match self {
            BuiltinAgg::Count => Box::new(CountAcc::default()),
            BuiltinAgg::CountDistinct => Box::new(CountDistinctAcc::default()),
            BuiltinAgg::Sum => Box::new(SumAcc::default()),
            BuiltinAgg::Avg => Box::new(AvgAcc::default()),
            BuiltinAgg::Min => Box::new(ExtremeAcc::new(true)),
            BuiltinAgg::Max => Box::new(ExtremeAcc::new(false)),
            BuiltinAgg::Var => Box::new(VarianceAcc {
                stddev: false,
                ..Default::default()
            }),
            BuiltinAgg::StdDev => Box::new(VarianceAcc {
                stddev: true,
                ..Default::default()
            }),
        }
    }

    fn return_type(&self, input: DataType) -> DataType {
        match self {
            BuiltinAgg::Min | BuiltinAgg::Max => input,
            _ => DataType::Float,
        }
    }

    fn smooth(&self) -> bool {
        // MIN/MAX are not Hadamard differentiable (§3.3); COUNT DISTINCT is
        // likewise not smooth under resampling.
        !matches!(
            self,
            BuiltinAgg::Min | BuiltinAgg::Max | BuiltinAgg::CountDistinct
        )
    }

    fn extensive(&self) -> bool {
        matches!(
            self,
            BuiltinAgg::Count | BuiltinAgg::Sum | BuiltinAgg::CountDistinct
        )
    }
}

/// A user-defined aggregate: implement this trait and register it. The
/// paper's C8–C10 queries exercise UDAFs; see `iolap-workloads` for concrete
/// examples (harmonic mean, weighted rebuffer ratio, geometric mean).
pub trait Udaf: Send + Sync {
    /// SQL name (uppercase).
    fn name(&self) -> &str;
    /// Fresh state.
    fn accumulator(&self) -> Box<dyn Accumulator>;
    /// Declared smoothness (§3.3 precondition for bootstrap estimation).
    fn smooth(&self) -> bool {
        true
    }
    /// Whether scaled by `m_i` (see [`AggregateFunction::extensive`]).
    fn extensive(&self) -> bool {
        false
    }
}

/// An aggregate function handle: built-in or user-defined.
#[derive(Clone)]
pub enum AggKind {
    /// Built-in.
    Builtin(BuiltinAgg),
    /// Registered UDAF.
    Udaf(Arc<dyn Udaf>),
}

impl AggKind {
    /// Function name.
    pub fn name(&self) -> &str {
        match self {
            AggKind::Builtin(b) => b.name(),
            AggKind::Udaf(u) => u.name(),
        }
    }

    /// Fresh accumulator.
    pub fn accumulator(&self) -> Box<dyn Accumulator> {
        match self {
            AggKind::Builtin(b) => b.accumulator(),
            AggKind::Udaf(u) => u.accumulator(),
        }
    }

    /// Smoothness flag.
    pub fn smooth(&self) -> bool {
        match self {
            AggKind::Builtin(b) => b.smooth(),
            AggKind::Udaf(u) => u.smooth(),
        }
    }

    /// Extensive flag (scaled by `m_i`).
    pub fn extensive(&self) -> bool {
        match self {
            AggKind::Builtin(b) => AggregateFunction::extensive(b),
            AggKind::Udaf(u) => u.extensive(),
        }
    }

    /// Result type.
    pub fn return_type(&self, input: DataType) -> DataType {
        match self {
            AggKind::Builtin(b) => b.return_type(input),
            AggKind::Udaf(_) => DataType::Float,
        }
    }
}

impl fmt::Debug for AggKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Resolve a SQL function name to a built-in aggregate.
pub fn builtin_agg(name: &str, distinct: bool) -> Option<BuiltinAgg> {
    Some(match (name, distinct) {
        ("COUNT", false) => BuiltinAgg::Count,
        ("COUNT", true) => BuiltinAgg::CountDistinct,
        ("SUM", false) => BuiltinAgg::Sum,
        ("AVG", false) => BuiltinAgg::Avg,
        ("MIN", _) => BuiltinAgg::Min,
        ("MAX", _) => BuiltinAgg::Max,
        ("VAR", false) | ("VARIANCE", false) => BuiltinAgg::Var,
        ("STDDEV", false) | ("STD", false) => BuiltinAgg::StdDev,
        _ => return None,
    })
}

/// Errors surfaced by aggregation.
#[derive(Clone, Debug, PartialEq)]
pub enum AggError {
    /// Wrapped expression error.
    Expr(ExprError),
    /// DISTINCT on an unsupported aggregate.
    BadDistinct(String),
}

impl fmt::Display for AggError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AggError::Expr(e) => write!(f, "{e}"),
            AggError::BadDistinct(n) => write!(f, "DISTINCT not supported for {n}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(acc: &mut dyn Accumulator, vals: &[(f64, f64)]) {
        for (v, w) in vals {
            acc.update(&Value::Float(*v), *w);
        }
    }

    #[test]
    fn count_weighted() {
        let mut a = CountAcc::default();
        feed(&mut a, &[(1.0, 1.0), (2.0, 2.5)]);
        a.update(&Value::Null, 1.0); // nulls not counted
        assert_eq!(a.output(1.0), Value::Float(3.5));
        assert_eq!(a.output(2.0), Value::Float(7.0)); // extensive scaling
    }

    #[test]
    fn sum_weighted_and_scaled() {
        let mut a = SumAcc::default();
        feed(&mut a, &[(10.0, 1.0), (5.0, 2.0)]);
        assert_eq!(a.output(1.0), Value::Float(20.0));
        assert_eq!(a.output(4.0), Value::Float(80.0));
    }

    #[test]
    fn sum_of_nothing_is_null() {
        let a = SumAcc::default();
        assert_eq!(a.output(1.0), Value::Null);
    }

    #[test]
    fn avg_ignores_scale() {
        let mut a = AvgAcc::default();
        feed(&mut a, &[(10.0, 1.0), (20.0, 1.0)]);
        assert_eq!(a.output(1.0), Value::Float(15.0));
        assert_eq!(a.output(100.0), Value::Float(15.0));
    }

    #[test]
    fn avg_respects_weights() {
        let mut a = AvgAcc::default();
        feed(&mut a, &[(10.0, 3.0), (20.0, 1.0)]);
        assert_eq!(a.output(1.0), Value::Float(12.5));
    }

    #[test]
    fn min_max() {
        let mut mn = ExtremeAcc::new(true);
        let mut mx = ExtremeAcc::new(false);
        for v in [3.0, -1.0, 7.0] {
            mn.update(&Value::Float(v), 1.0);
            mx.update(&Value::Float(v), 1.0);
        }
        assert_eq!(mn.output(1.0), Value::Float(-1.0));
        assert_eq!(mx.output(1.0), Value::Float(7.0));
    }

    #[test]
    fn zero_weight_skips_extremes() {
        let mut mn = ExtremeAcc::new(true);
        mn.update(&Value::Float(-100.0), 0.0);
        mn.update(&Value::Float(5.0), 1.0);
        assert_eq!(mn.output(1.0), Value::Float(5.0));
    }

    #[test]
    fn variance_and_stddev() {
        let mut v = VarianceAcc::default();
        feed(
            &mut v,
            &[
                (2.0, 1.0),
                (4.0, 1.0),
                (4.0, 1.0),
                (4.0, 1.0),
                (5.0, 1.0),
                (5.0, 1.0),
                (7.0, 1.0),
                (9.0, 1.0),
            ],
        );
        assert_eq!(v.output(1.0), Value::Float(4.0));
        let mut s = VarianceAcc {
            stddev: true,
            ..Default::default()
        };
        feed(
            &mut s,
            &[
                (2.0, 1.0),
                (4.0, 1.0),
                (4.0, 1.0),
                (4.0, 1.0),
                (5.0, 1.0),
                (5.0, 1.0),
                (7.0, 1.0),
                (9.0, 1.0),
            ],
        );
        assert_eq!(s.output(1.0), Value::Float(2.0));
    }

    #[test]
    fn count_distinct() {
        let mut a = CountDistinctAcc::default();
        for v in [1, 2, 2, 3] {
            a.update(&Value::Int(v), 1.0);
        }
        assert_eq!(a.output(1.0), Value::Float(3.0));
    }

    #[test]
    fn merge_partitions() {
        let mut a = AvgAcc::default();
        feed(&mut a, &[(10.0, 1.0)]);
        let mut b = AvgAcc::default();
        feed(&mut b, &[(30.0, 1.0)]);
        a.merge(&b).unwrap();
        assert_eq!(a.output(1.0), Value::Float(20.0));
    }

    #[test]
    fn smoothness_flags() {
        assert!(BuiltinAgg::Avg.smooth());
        assert!(BuiltinAgg::Sum.smooth());
        assert!(!BuiltinAgg::Min.smooth());
        assert!(!BuiltinAgg::Max.smooth());
        assert!(!BuiltinAgg::CountDistinct.smooth());
    }

    #[test]
    fn extensive_flags() {
        assert!(AggregateFunction::extensive(&BuiltinAgg::Sum));
        assert!(AggregateFunction::extensive(&BuiltinAgg::Count));
        assert!(!AggregateFunction::extensive(&BuiltinAgg::Avg));
        assert!(!AggregateFunction::extensive(&BuiltinAgg::Max));
    }

    #[test]
    fn builtin_lookup() {
        assert_eq!(builtin_agg("COUNT", true), Some(BuiltinAgg::CountDistinct));
        assert_eq!(builtin_agg("AVG", false), Some(BuiltinAgg::Avg));
        assert_eq!(builtin_agg("AVG", true), None);
        assert_eq!(builtin_agg("NOPE", false), None);
    }
}
