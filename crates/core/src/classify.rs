//! Predicate classification over uncertain attributes (§5.1–§5.2).
//!
//! At a predicate `x ϑ y` involving uncertain values, iOLAP partitions input
//! tuples into the *near-deterministic* set (variation ranges of the two
//! sides are disjoint, so the decision can never flip) and the
//! *non-deterministic* set (ranges overlap; the tuple must be saved and
//! re-evaluated). This module evaluates expression trees to *intervals*:
//! deterministic operands become point intervals, lineage refs pull their
//! tracked variation ranges from the registry, pending (folded-lineage)
//! cells recurse into their captured rows, and arithmetic combines intervals
//! conservatively.

use crate::registry::{AggRegistry, ThunkPayload};
use iolap_bootstrap::interval;
use iolap_bootstrap::VariationRange;
use iolap_engine::{ArithOp, CmpOp, EvalContext, Expr};
use iolap_relation::{Row, Value};

/// Interval evaluation result for one expression.
#[derive(Clone, Debug, PartialEq)]
pub enum IntervalValue {
    /// A deterministic value (not necessarily numeric).
    Point(Value),
    /// A numeric range of possible values.
    Range(VariationRange),
    /// Uncertain with no usable range (conservative).
    Unknown,
}

impl IntervalValue {
    /// Numeric range view: points coerce, `Unknown` becomes unbounded.
    pub fn as_range(&self) -> Option<VariationRange> {
        match self {
            IntervalValue::Point(v) => v.as_f64().map(VariationRange::point),
            IntervalValue::Range(r) => Some(*r),
            IntervalValue::Unknown => Some(VariationRange::unbounded()),
        }
    }
}

/// Three-valued classification of a predicate on one tuple.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Decision {
    /// Satisfied across all remaining batches (near-deterministic, true).
    AlwaysTrue,
    /// Violated across all remaining batches (near-deterministic, false).
    AlwaysFalse,
    /// May flip: the tuple belongs to the non-deterministic set `U_i`.
    Uncertain,
}

impl Decision {
    fn from_bool(b: bool) -> Decision {
        if b {
            Decision::AlwaysTrue
        } else {
            Decision::AlwaysFalse
        }
    }

    fn not(self) -> Decision {
        match self {
            Decision::AlwaysTrue => Decision::AlwaysFalse,
            Decision::AlwaysFalse => Decision::AlwaysTrue,
            Decision::Uncertain => Decision::Uncertain,
        }
    }

    fn and(self, other: Decision) -> Decision {
        use Decision::*;
        match (self, other) {
            (AlwaysFalse, _) | (_, AlwaysFalse) => AlwaysFalse,
            (AlwaysTrue, AlwaysTrue) => AlwaysTrue,
            _ => Uncertain,
        }
    }

    fn or(self, other: Decision) -> Decision {
        use Decision::*;
        match (self, other) {
            (AlwaysTrue, _) | (_, AlwaysTrue) => AlwaysTrue,
            (AlwaysFalse, AlwaysFalse) => AlwaysFalse,
            _ => Uncertain,
        }
    }
}

/// Evaluate `expr` on `row` to an interval, pulling variation ranges of
/// lineage refs from `registry`.
pub fn interval_of(expr: &Expr, row: &Row, registry: &AggRegistry) -> IntervalValue {
    match expr {
        Expr::Col(i) => cell_interval(&row.values[*i], registry),
        Expr::Lit(v) => IntervalValue::Point(v.clone()),
        Expr::Neg(e) => match interval_of(e, row, registry) {
            IntervalValue::Point(v) => match v.as_f64() {
                Some(x) => IntervalValue::Point(Value::Float(-x)),
                None => IntervalValue::Unknown,
            },
            IntervalValue::Range(r) => IntervalValue::Range(interval::neg(r)),
            IntervalValue::Unknown => IntervalValue::Unknown,
        },
        Expr::Arith { op, left, right } => {
            let l = interval_of(left, row, registry);
            let r = interval_of(right, row, registry);
            if let (IntervalValue::Point(a), IntervalValue::Point(b)) = (&l, &r) {
                // Both deterministic: exact arithmetic.
                return match iolap_engine::expr::arith(*op, a, b) {
                    Ok(v) => IntervalValue::Point(v),
                    Err(_) => IntervalValue::Unknown,
                };
            }
            let (Some(a), Some(b)) = (l.as_range(), r.as_range()) else {
                return IntervalValue::Unknown;
            };
            let out = match op {
                ArithOp::Add => interval::add(a, b),
                ArithOp::Sub => interval::sub(a, b),
                ArithOp::Mul => interval::mul(a, b),
                ArithOp::Div => interval::div(a, b),
                ArithOp::Mod => return IntervalValue::Unknown,
            };
            IntervalValue::Range(out)
        }
        // Boolean-valued or opaque expressions: evaluate exactly when all
        // referenced cells are deterministic, else Unknown.
        other => {
            if expr_deterministic(other, row) {
                let ctx = EvalContext::with_resolver(registry);
                match other.eval(row, &ctx) {
                    Ok(v) => IntervalValue::Point(v),
                    Err(_) => IntervalValue::Unknown,
                }
            } else {
                IntervalValue::Unknown
            }
        }
    }
}

fn cell_interval(v: &Value, registry: &AggRegistry) -> IntervalValue {
    match v {
        Value::Ref(r) => match registry.range(r) {
            Some(range) => IntervalValue::Range(range),
            None => IntervalValue::Unknown,
        },
        Value::Pending(c) => match c.payload.downcast_ref::<ThunkPayload>() {
            Some(thunk) => {
                let inner = Row {
                    values: thunk.row.clone(),
                    mult: 1.0,
                };
                interval_of(&thunk.expr, &inner, registry)
            }
            None => IntervalValue::Unknown,
        },
        other => IntervalValue::Point(other.clone()),
    }
}

/// True when no cell referenced by `expr` is a lineage ref or thunk.
fn expr_deterministic(expr: &Expr, row: &Row) -> bool {
    let mut cols = Vec::new();
    expr.referenced_columns(&mut cols);
    cols.iter()
        .all(|&c| !matches!(&row.values[c], Value::Ref(_) | Value::Pending(_)))
}

/// Collect every lineage ref reachable from the columns `expr` references
/// in `row` (descending into folded-lineage thunks). Used to record which
/// variation ranges a near-deterministic decision depended on.
pub fn collect_refs(expr: &Expr, row: &Row, out: &mut Vec<iolap_relation::AggRef>) {
    let mut cols = Vec::new();
    expr.referenced_columns(&mut cols);
    for c in cols {
        collect_cell_refs(&row.values[c], out);
    }
}

fn collect_cell_refs(v: &Value, out: &mut Vec<iolap_relation::AggRef>) {
    match v {
        Value::Ref(r) => out.push(r.clone()),
        Value::Pending(c) => {
            if let Some(thunk) = c.payload.downcast_ref::<ThunkPayload>() {
                let inner = Row {
                    values: thunk.row.clone(),
                    mult: 1.0,
                };
                collect_refs(&thunk.expr, &inner, out);
            }
        }
        _ => {}
    }
}

/// Classify a predicate on one tuple (§5.2's refined SELECT rule):
/// near-deterministic when the variation ranges decide the comparison,
/// non-deterministic otherwise.
pub fn classify(pred: &Expr, row: &Row, registry: &AggRegistry) -> Decision {
    match pred {
        Expr::Cmp { op, left, right } => {
            let l = interval_of(left, row, registry);
            let r = interval_of(right, row, registry);
            classify_cmp(*op, &l, &r)
        }
        Expr::And(a, b) => classify(a, row, registry).and(classify(b, row, registry)),
        Expr::Or(a, b) => classify(a, row, registry).or(classify(b, row, registry)),
        Expr::Not(e) => classify(e, row, registry).not(),
        Expr::Between { expr, low, high } => {
            let ge = Expr::Cmp {
                op: CmpOp::Ge,
                left: expr.clone(),
                right: low.clone(),
            };
            let le = Expr::Cmp {
                op: CmpOp::Le,
                left: expr.clone(),
                right: high.clone(),
            };
            classify(&ge, row, registry).and(classify(&le, row, registry))
        }
        other => {
            // Non-comparison predicate (LIKE, UDF, bare bool, CASE): decided
            // exactly when deterministic, else non-deterministic.
            if expr_deterministic(other, row) {
                let ctx = EvalContext::with_resolver(registry);
                match other.eval_predicate(row, &ctx) {
                    Ok(b) => Decision::from_bool(b),
                    Err(_) => Decision::Uncertain,
                }
            } else {
                Decision::Uncertain
            }
        }
    }
}

fn classify_cmp(op: CmpOp, l: &IntervalValue, r: &IntervalValue) -> Decision {
    // Both deterministic: exact decision.
    if let (IntervalValue::Point(a), IntervalValue::Point(b)) = (l, r) {
        let v = iolap_engine::expr::compare(op, a, b);
        return Decision::from_bool(matches!(v, Value::Bool(true)));
    }
    let (Some(a), Some(b)) = (l.as_range(), r.as_range()) else {
        return Decision::Uncertain;
    };
    match op {
        CmpOp::Lt => {
            if a.hi < b.lo {
                Decision::AlwaysTrue
            } else if a.lo >= b.hi {
                Decision::AlwaysFalse
            } else {
                Decision::Uncertain
            }
        }
        CmpOp::Le => {
            if a.hi <= b.lo {
                Decision::AlwaysTrue
            } else if a.lo > b.hi {
                Decision::AlwaysFalse
            } else {
                Decision::Uncertain
            }
        }
        CmpOp::Gt => classify_cmp(CmpOp::Lt, r, l),
        CmpOp::Ge => classify_cmp(CmpOp::Le, r, l),
        CmpOp::Eq => {
            if !a.overlaps(&b) {
                Decision::AlwaysFalse
            } else if a.width() == 0.0 && b.width() == 0.0 && a.lo == b.lo {
                Decision::AlwaysTrue
            } else {
                Decision::Uncertain
            }
        }
        CmpOp::Neq => classify_cmp(CmpOp::Eq, l, r).not(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iolap_relation::AggRef;
    use std::sync::Arc;

    fn registry_with_avg(lo_trials: f64, hi_trials: f64, slack: f64) -> AggRegistry {
        let mut reg = AggRegistry::new();
        reg.publish(
            0,
            Arc::from(Vec::<Value>::new()),
            vec![Value::Float((lo_trials + hi_trials) / 2.0)],
            vec![Arc::from(vec![lo_trials, hi_trials])],
            slack,
        );
        reg
    }

    fn avg_ref() -> Value {
        Value::Ref(AggRef {
            agg: 0,
            column: 0,
            key: Arc::from(Vec::<Value>::new()),
        })
    }

    fn gt_pred() -> Expr {
        // buffer_time > AVG  (col 0 vs col 1)
        Expr::Cmp {
            op: CmpOp::Gt,
            left: Box::new(Expr::Col(0)),
            right: Box::new(Expr::Col(1)),
        }
    }

    #[test]
    fn example_2_near_deterministic_pruning() {
        // Paper Example 2: R(AVG(buffer_time)) = [21.1, 53.9] (we build it
        // with zero slack from trials at the endpoints). buffer_time 58 is
        // always selected, 17 always filtered, 36 uncertain.
        let reg = registry_with_avg(21.1, 53.9, 0.0);
        let mk = |bt: f64| Row {
            values: vec![Value::Float(bt), avg_ref()].into(),
            mult: 1.0,
        };
        assert_eq!(classify(&gt_pred(), &mk(58.0), &reg), Decision::AlwaysTrue);
        assert_eq!(classify(&gt_pred(), &mk(17.0), &reg), Decision::AlwaysFalse);
        assert_eq!(classify(&gt_pred(), &mk(36.0), &reg), Decision::Uncertain);
    }

    #[test]
    fn deterministic_predicate_decides_exactly() {
        let reg = AggRegistry::new();
        let pred = Expr::Cmp {
            op: CmpOp::Lt,
            left: Box::new(Expr::Col(0)),
            right: Box::new(Expr::Lit(Value::Float(10.0))),
        };
        let row = Row {
            values: vec![Value::Float(3.0)].into(),
            mult: 1.0,
        };
        assert_eq!(classify(&pred, &row, &reg), Decision::AlwaysTrue);
    }

    #[test]
    fn arithmetic_over_ranges() {
        // l_quantity < 0.2 * AVG: with R(AVG) = [40, 50], 0.2*AVG ∈ [8, 10].
        let reg = registry_with_avg(40.0, 50.0, 0.0);
        let pred = Expr::Cmp {
            op: CmpOp::Lt,
            left: Box::new(Expr::Col(0)),
            right: Box::new(Expr::Arith {
                op: ArithOp::Mul,
                left: Box::new(Expr::Lit(Value::Float(0.2))),
                right: Box::new(Expr::Col(1)),
            }),
        };
        let mk = |q: f64| Row {
            values: vec![Value::Float(q), avg_ref()].into(),
            mult: 1.0,
        };
        assert_eq!(classify(&pred, &mk(5.0), &reg), Decision::AlwaysTrue);
        assert_eq!(classify(&pred, &mk(15.0), &reg), Decision::AlwaysFalse);
        assert_eq!(classify(&pred, &mk(9.0), &reg), Decision::Uncertain);
    }

    #[test]
    fn and_or_three_valued() {
        let reg = registry_with_avg(21.1, 53.9, 0.0);
        let t = Expr::Lit(Value::Bool(true));
        let f = Expr::Lit(Value::Bool(false));
        let row = Row {
            values: vec![Value::Float(36.0), avg_ref()].into(),
            mult: 1.0,
        };
        let unc = gt_pred();
        // false AND uncertain = false; true OR uncertain = true.
        assert_eq!(
            classify(
                &Expr::And(Box::new(f.clone()), Box::new(unc.clone())),
                &row,
                &reg
            ),
            Decision::AlwaysFalse
        );
        assert_eq!(
            classify(&Expr::Or(Box::new(t), Box::new(unc.clone())), &row, &reg),
            Decision::AlwaysTrue
        );
        assert_eq!(
            classify(
                &Expr::And(Box::new(Expr::Lit(Value::Bool(true))), Box::new(unc)),
                &row,
                &reg
            ),
            Decision::Uncertain
        );
    }

    #[test]
    fn equality_on_uncertain_side() {
        let reg = registry_with_avg(40.0, 50.0, 0.0);
        let pred = Expr::Cmp {
            op: CmpOp::Eq,
            left: Box::new(Expr::Col(0)),
            right: Box::new(Expr::Col(1)),
        };
        let inside = Row {
            values: vec![Value::Float(45.0), avg_ref()].into(),
            mult: 1.0,
        };
        let outside = Row {
            values: vec![Value::Float(100.0), avg_ref()].into(),
            mult: 1.0,
        };
        assert_eq!(classify(&pred, &inside, &reg), Decision::Uncertain);
        assert_eq!(classify(&pred, &outside, &reg), Decision::AlwaysFalse);
    }

    #[test]
    fn unknown_ref_stays_uncertain() {
        // No published range yet → conservative.
        let reg = AggRegistry::new();
        let row = Row {
            values: vec![Value::Float(36.0), avg_ref()].into(),
            mult: 1.0,
        };
        assert_eq!(classify(&gt_pred(), &row, &reg), Decision::Uncertain);
    }
}
