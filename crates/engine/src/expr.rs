//! Physical expressions.
//!
//! Expressions are compiled from the SQL AST against a concrete input schema,
//! so column references are positional. One engine-specific feature supports
//! the paper's lazy evaluation (§6.2): when a column holds a
//! [`Value::Ref`] lineage reference instead of a concrete value, any
//! consuming operation *dereferences* it through the [`RefResolver`] in the
//! evaluation context. The batch executor never stores `Ref`s, so it runs
//! with no resolver; the iOLAP online executor stores `Ref`s for uncertain
//! aggregate attributes and supplies its aggregate registry as the resolver —
//! this is exactly how saved operator state is brought up to date "in place,
//! by only referencing the carried lineage" (§4.3).

use iolap_relation::{AggRef, DataType, PendingCell, Row, Value};
use std::fmt;
use std::sync::Arc;

/// Which version of an uncertain aggregate a deref should produce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RefMode {
    /// The current running estimate.
    Current,
    /// The value from bootstrap trial `i` (used when piggybacking bootstrap,
    /// §2 "Error Estimation").
    Trial(usize),
}

/// Resolves lineage references against the current aggregate registry.
pub trait RefResolver {
    /// Current or per-trial value of the referenced aggregate group. Returns
    /// `Value::Null` when the group has not been produced yet (no input rows
    /// seen for it).
    fn resolve(&self, r: &AggRef, mode: RefMode) -> Value;

    /// Evaluate a deferred-computation cell (folded lineage, §6.1). The
    /// default refuses — only resolvers that create pending cells (the iOLAP
    /// aggregate registry) know their payload type.
    fn resolve_pending(&self, cell: &PendingCell, mode: RefMode) -> Value {
        let _ = (cell, mode);
        Value::Null
    }
}

/// Evaluation context threaded through expression evaluation.
#[derive(Clone, Copy)]
pub struct EvalContext<'a> {
    /// Lineage resolver (absent in pure batch execution).
    pub resolver: Option<&'a dyn RefResolver>,
    /// Which aggregate version derefs yield.
    pub mode: RefMode,
}

impl<'a> EvalContext<'a> {
    /// Context with no resolver (batch execution).
    pub fn batch() -> Self {
        EvalContext {
            resolver: None,
            mode: RefMode::Current,
        }
    }

    /// Context resolving refs to their current values.
    pub fn with_resolver(resolver: &'a dyn RefResolver) -> Self {
        EvalContext {
            resolver: Some(resolver),
            mode: RefMode::Current,
        }
    }

    /// Same resolver, different mode.
    pub fn with_mode(self, mode: RefMode) -> Self {
        EvalContext { mode, ..self }
    }

    fn deref(&self, v: Value) -> Result<Value, ExprError> {
        match v {
            Value::Ref(r) => match self.resolver {
                Some(res) => Ok(res.resolve(&r, self.mode)),
                None => Err(ExprError::UnresolvedRef(r)),
            },
            Value::Pending(c) => match self.resolver {
                Some(res) => Ok(res.resolve_pending(&c, self.mode)),
                None => Err(ExprError::UnresolvedPending),
            },
            other => Ok(other),
        }
    }
}

/// A scalar user-defined function (paper §1: iOLAP "significantly generalizes
/// incremental query processing to complex queries with … UDFs").
pub trait ScalarUdf: Send + Sync {
    /// Function name as referenced in SQL (uppercase).
    fn name(&self) -> &str;
    /// Apply to already-dereferenced argument values.
    fn invoke(&self, args: &[Value]) -> Result<Value, ExprError>;
    /// Result type given argument types.
    fn return_type(&self, args: &[DataType]) -> DataType;
    /// Whether the function is a pure function of its arguments. iOLAP's
    /// supported query class (§3.3) requires deterministic join and group
    /// keys; the static plan verifier rejects keys that call a UDF
    /// returning `false` here.
    fn deterministic(&self) -> bool {
        true
    }
}

/// Comparison operators appearing in predicates (`ϑ` in the paper's `x ϑ y`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum CmpOp {
    Eq,
    Neq,
    Lt,
    Le,
    Gt,
    Ge,
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Neq => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        write!(f, "{s}")
    }
}

/// Arithmetic operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
}

/// A compiled physical expression over a fixed input schema.
#[derive(Clone)]
pub enum Expr {
    /// Input column by position.
    Col(usize),
    /// Constant.
    Lit(Value),
    /// Arithmetic.
    Arith {
        /// Operator.
        op: ArithOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Comparison producing a boolean.
    Cmp {
        /// Operator.
        op: CmpOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Logical AND.
    And(Box<Expr>, Box<Expr>),
    /// Logical OR.
    Or(Box<Expr>, Box<Expr>),
    /// Logical NOT.
    Not(Box<Expr>),
    /// Arithmetic negation.
    Neg(Box<Expr>),
    /// `CASE WHEN … THEN … ELSE … END`.
    Case {
        /// `(condition, result)` arms.
        when_then: Vec<(Expr, Expr)>,
        /// Fallback result (NULL when absent).
        else_expr: Option<Box<Expr>>,
    },
    /// SQL `LIKE` with `%`/`_` wildcards.
    Like {
        /// Tested expression.
        expr: Box<Expr>,
        /// Pattern.
        pattern: Arc<str>,
    },
    /// `expr BETWEEN low AND high` (inclusive).
    Between {
        /// Tested expression.
        expr: Box<Expr>,
        /// Lower bound.
        low: Box<Expr>,
        /// Upper bound.
        high: Box<Expr>,
    },
    /// Scalar UDF invocation.
    Udf {
        /// The function.
        func: Arc<dyn ScalarUdf>,
        /// Arguments.
        args: Vec<Expr>,
    },
}

impl fmt::Debug for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Col(i) => write!(f, "#{i}"),
            Expr::Lit(v) => write!(f, "{v}"),
            Expr::Arith { op, left, right } => write!(f, "({left:?} {op:?} {right:?})"),
            Expr::Cmp { op, left, right } => write!(f, "({left:?} {op:?} {right:?})"),
            Expr::And(a, b) => write!(f, "({a:?} AND {b:?})"),
            Expr::Or(a, b) => write!(f, "({a:?} OR {b:?})"),
            Expr::Not(e) => write!(f, "NOT {e:?}"),
            Expr::Neg(e) => write!(f, "-{e:?}"),
            Expr::Case {
                when_then,
                else_expr,
            } => {
                write!(f, "CASE")?;
                for (c, v) in when_then {
                    write!(f, " WHEN {c:?} THEN {v:?}")?;
                }
                if let Some(e) = else_expr {
                    write!(f, " ELSE {e:?}")?;
                }
                write!(f, " END")
            }
            Expr::Like { expr, pattern } => write!(f, "({expr:?} LIKE '{pattern}')"),
            Expr::Between { expr, low, high } => {
                write!(f, "({expr:?} BETWEEN {low:?} AND {high:?})")
            }
            Expr::Udf { func, args } => write!(f, "{}({args:?})", func.name()),
        }
    }
}

/// Expression evaluation errors.
#[derive(Clone, Debug, PartialEq)]
pub enum ExprError {
    /// Arithmetic on non-numeric values.
    TypeMismatch(String),
    /// A lineage reference was encountered with no resolver in scope.
    UnresolvedRef(AggRef),
    /// A deferred-computation cell was encountered with no resolver.
    UnresolvedPending,
    /// Division by zero.
    DivideByZero,
    /// UDF-raised error.
    Udf(String),
}

impl fmt::Display for ExprError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExprError::TypeMismatch(m) => write!(f, "type mismatch: {m}"),
            ExprError::UnresolvedRef(r) => write!(f, "unresolved lineage reference {r}"),
            ExprError::UnresolvedPending => write!(f, "unresolved deferred-computation cell"),
            ExprError::DivideByZero => write!(f, "division by zero"),
            ExprError::Udf(m) => write!(f, "UDF error: {m}"),
        }
    }
}

impl std::error::Error for ExprError {}

impl Expr {
    /// Evaluate against one row.
    pub fn eval(&self, row: &Row, ctx: &EvalContext<'_>) -> Result<Value, ExprError> {
        match self {
            Expr::Col(i) => ctx.deref(row.values[*i].clone()),
            Expr::Lit(v) => Ok(v.clone()),
            Expr::Arith { op, left, right } => {
                let l = left.eval(row, ctx)?;
                let r = right.eval(row, ctx)?;
                arith(*op, &l, &r)
            }
            Expr::Cmp { op, left, right } => {
                let l = left.eval(row, ctx)?;
                let r = right.eval(row, ctx)?;
                Ok(compare(*op, &l, &r))
            }
            Expr::And(a, b) => {
                // SQL three-valued logic on NULLs collapses to
                // false-dominant two-valued logic here: predicates with NULL
                // evaluate to false, which matches filter semantics.
                let l = truthy(&a.eval(row, ctx)?);
                if !l {
                    return Ok(Value::Bool(false));
                }
                Ok(Value::Bool(truthy(&b.eval(row, ctx)?)))
            }
            Expr::Or(a, b) => {
                let l = truthy(&a.eval(row, ctx)?);
                if l {
                    return Ok(Value::Bool(true));
                }
                Ok(Value::Bool(truthy(&b.eval(row, ctx)?)))
            }
            Expr::Not(e) => Ok(Value::Bool(!truthy(&e.eval(row, ctx)?))),
            Expr::Neg(e) => match e.eval(row, ctx)? {
                Value::Int(i) => Ok(Value::Int(-i)),
                Value::Float(f) => Ok(Value::Float(-f)),
                Value::Null => Ok(Value::Null),
                other => Err(ExprError::TypeMismatch(format!("cannot negate {other}"))),
            },
            Expr::Case {
                when_then,
                else_expr,
            } => {
                for (cond, val) in when_then {
                    if truthy(&cond.eval(row, ctx)?) {
                        return val.eval(row, ctx);
                    }
                }
                match else_expr {
                    Some(e) => e.eval(row, ctx),
                    None => Ok(Value::Null),
                }
            }
            Expr::Like { expr, pattern } => {
                let v = expr.eval(row, ctx)?;
                match v {
                    Value::Str(s) => Ok(Value::Bool(like_match(&s, pattern))),
                    Value::Null => Ok(Value::Bool(false)),
                    other => Err(ExprError::TypeMismatch(format!(
                        "LIKE applied to non-string {other}"
                    ))),
                }
            }
            Expr::Between { expr, low, high } => {
                let v = expr.eval(row, ctx)?;
                let lo = low.eval(row, ctx)?;
                let hi = high.eval(row, ctx)?;
                let ge = compare(CmpOp::Ge, &v, &lo);
                let le = compare(CmpOp::Le, &v, &hi);
                Ok(Value::Bool(truthy(&ge) && truthy(&le)))
            }
            Expr::Udf { func, args } => {
                let vals = args
                    .iter()
                    .map(|a| a.eval(row, ctx))
                    .collect::<Result<Vec<_>, _>>()?;
                func.invoke(&vals)
            }
        }
    }

    /// Evaluate as a filter predicate: NULL and non-boolean → `false`.
    pub fn eval_predicate(&self, row: &Row, ctx: &EvalContext<'_>) -> Result<bool, ExprError> {
        Ok(truthy(&self.eval(row, ctx)?))
    }

    /// Visit this expression and all its descendants, pre-order, children
    /// left to right.
    fn walk(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Col(_) | Expr::Lit(_) => {}
            Expr::Arith { left, right, .. } | Expr::Cmp { left, right, .. } => {
                left.walk(f);
                right.walk(f);
            }
            Expr::And(a, b) | Expr::Or(a, b) => {
                a.walk(f);
                b.walk(f);
            }
            Expr::Not(e) | Expr::Neg(e) | Expr::Like { expr: e, .. } => e.walk(f),
            Expr::Case {
                when_then,
                else_expr,
            } => {
                for (c, v) in when_then {
                    c.walk(f);
                    v.walk(f);
                }
                if let Some(e) = else_expr {
                    e.walk(f);
                }
            }
            Expr::Between { expr, low, high } => {
                expr.walk(f);
                low.walk(f);
                high.walk(f);
            }
            Expr::Udf { args, .. } => args.iter().for_each(|a| a.walk(f)),
        }
    }

    /// Collect all referenced input columns, pre-order, children left to
    /// right.
    pub fn referenced_columns(&self, out: &mut Vec<usize>) {
        self.walk(&mut |e| {
            if let Expr::Col(i) = e {
                out.push(*i);
            }
        });
    }

    /// Collect the names of all nondeterministic UDFs invoked anywhere in
    /// this expression (per [`ScalarUdf::deterministic`]), pre-order. Used
    /// by the static plan verifier to enforce the §3.3 deterministic-key
    /// rule.
    pub fn nondeterministic_udfs(&self, out: &mut Vec<String>) {
        self.walk(&mut |e| match e {
            Expr::Udf { func, .. } if !func.deterministic() => out.push(func.name().to_string()),
            _ => {}
        });
    }
}

/// Boolean coercion for predicate contexts.
pub fn truthy(v: &Value) -> bool {
    matches!(v, Value::Bool(true))
}

/// Apply an arithmetic operator with numeric coercion. Int op Int stays Int
/// (except Div, which is Float); NULL propagates.
pub fn arith(op: ArithOp, l: &Value, r: &Value) -> Result<Value, ExprError> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    match (l, r) {
        (Value::Int(a), Value::Int(b)) => match op {
            ArithOp::Add => Ok(Value::Int(a.wrapping_add(*b))),
            ArithOp::Sub => Ok(Value::Int(a.wrapping_sub(*b))),
            ArithOp::Mul => Ok(Value::Int(a.wrapping_mul(*b))),
            ArithOp::Div => {
                if *b == 0 {
                    Err(ExprError::DivideByZero)
                } else {
                    Ok(Value::Float(*a as f64 / *b as f64))
                }
            }
            ArithOp::Mod => {
                if *b == 0 {
                    Err(ExprError::DivideByZero)
                } else {
                    Ok(Value::Int(a % b))
                }
            }
        },
        _ => {
            let (a, b) = match (l.as_f64(), r.as_f64()) {
                (Some(a), Some(b)) => (a, b),
                _ => {
                    return Err(ExprError::TypeMismatch(format!(
                        "arithmetic on {l} and {r}"
                    )))
                }
            };
            let out = match op {
                ArithOp::Add => a + b,
                ArithOp::Sub => a - b,
                ArithOp::Mul => a * b,
                ArithOp::Div => {
                    if b == 0.0 {
                        return Err(ExprError::DivideByZero);
                    }
                    a / b
                }
                ArithOp::Mod => {
                    if b == 0.0 {
                        return Err(ExprError::DivideByZero);
                    }
                    a % b
                }
            };
            Ok(Value::Float(out))
        }
    }
}

/// Apply a comparison operator; NULL on either side yields `false` (filter
/// semantics).
pub fn compare(op: CmpOp, l: &Value, r: &Value) -> Value {
    match l.compare(r) {
        None => Value::Bool(false),
        Some(ord) => {
            let b = match op {
                CmpOp::Eq => ord == std::cmp::Ordering::Equal,
                CmpOp::Neq => ord != std::cmp::Ordering::Equal,
                CmpOp::Lt => ord == std::cmp::Ordering::Less,
                CmpOp::Le => ord != std::cmp::Ordering::Greater,
                CmpOp::Gt => ord == std::cmp::Ordering::Greater,
                CmpOp::Ge => ord != std::cmp::Ordering::Less,
            };
            Value::Bool(b)
        }
    }
}

/// SQL LIKE matching with `%` (any run) and `_` (any single char).
pub fn like_match(s: &str, pattern: &str) -> bool {
    fn rec(s: &[u8], p: &[u8]) -> bool {
        match p.first() {
            None => s.is_empty(),
            Some(b'%') => {
                // Greedy backtracking over the remainder.
                (0..=s.len()).any(|k| rec(&s[k..], &p[1..]))
            }
            Some(b'_') => !s.is_empty() && rec(&s[1..], &p[1..]),
            Some(&c) => s.first() == Some(&c) && rec(&s[1..], &p[1..]),
        }
    }
    rec(s.as_bytes(), pattern.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(vals: Vec<Value>) -> Row {
        Row::new(vals)
    }

    fn ctx() -> EvalContext<'static> {
        EvalContext::batch()
    }

    #[test]
    fn eval_arithmetic() {
        let e = Expr::Arith {
            op: ArithOp::Add,
            left: Box::new(Expr::Col(0)),
            right: Box::new(Expr::Lit(Value::Int(2))),
        };
        let v = e.eval(&row(vec![Value::Int(3)]), &ctx()).unwrap();
        assert_eq!(v, Value::Int(5));
    }

    #[test]
    fn int_div_yields_float() {
        let v = arith(ArithOp::Div, &Value::Int(7), &Value::Int(2)).unwrap();
        assert_eq!(v, Value::Float(3.5));
    }

    #[test]
    fn div_by_zero_errors() {
        assert_eq!(
            arith(ArithOp::Div, &Value::Int(1), &Value::Int(0)),
            Err(ExprError::DivideByZero)
        );
    }

    #[test]
    fn null_propagates_through_arith() {
        assert_eq!(
            arith(ArithOp::Add, &Value::Null, &Value::Int(1)).unwrap(),
            Value::Null
        );
    }

    #[test]
    fn compare_null_is_false() {
        assert_eq!(
            compare(CmpOp::Eq, &Value::Null, &Value::Null),
            Value::Bool(false)
        );
    }

    #[test]
    fn predicate_three_valued_collapse() {
        // NULL AND true → false in filter context.
        let e = Expr::And(
            Box::new(Expr::Lit(Value::Null)),
            Box::new(Expr::Lit(Value::Bool(true))),
        );
        assert!(!e.eval_predicate(&row(vec![]), &ctx()).unwrap());
    }

    #[test]
    fn or_short_circuits() {
        let e = Expr::Or(
            Box::new(Expr::Lit(Value::Bool(true))),
            // Would error if evaluated.
            Box::new(Expr::Arith {
                op: ArithOp::Div,
                left: Box::new(Expr::Lit(Value::Int(1))),
                right: Box::new(Expr::Lit(Value::Int(0))),
            }),
        );
        assert!(e.eval_predicate(&row(vec![]), &ctx()).unwrap());
    }

    #[test]
    fn case_when_falls_through_to_else() {
        let e = Expr::Case {
            when_then: vec![(Expr::Lit(Value::Bool(false)), Expr::Lit(Value::Int(1)))],
            else_expr: Some(Box::new(Expr::Lit(Value::Int(2)))),
        };
        assert_eq!(e.eval(&row(vec![]), &ctx()).unwrap(), Value::Int(2));
    }

    #[test]
    fn debug_shows_case_arms() {
        let e = Expr::Case {
            when_then: vec![(Expr::Col(0), Expr::Lit(Value::Int(1)))],
            else_expr: Some(Box::new(Expr::Lit(Value::Int(2)))),
        };
        assert_eq!(format!("{e:?}"), "CASE WHEN #0 THEN 1 ELSE 2 END");
        let no_else = Expr::Case {
            when_then: vec![(Expr::Col(1), Expr::Col(2))],
            else_expr: None,
        };
        assert_eq!(format!("{no_else:?}"), "CASE WHEN #1 THEN #2 END");
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("PROMO BURNISHED", "PROMO%"));
        assert!(like_match("abc", "a_c"));
        assert!(!like_match("abc", "a_d"));
        assert!(like_match("", "%"));
        assert!(like_match("anything", "%thing"));
        assert!(like_match("forest green", "%green%"));
    }

    #[test]
    fn between_inclusive() {
        let e = Expr::Between {
            expr: Box::new(Expr::Col(0)),
            low: Box::new(Expr::Lit(Value::Int(1))),
            high: Box::new(Expr::Lit(Value::Int(3))),
        };
        assert!(e.eval_predicate(&row(vec![Value::Int(3)]), &ctx()).unwrap());
        assert!(!e.eval_predicate(&row(vec![Value::Int(4)]), &ctx()).unwrap());
    }

    #[test]
    fn unresolved_ref_errors_in_batch() {
        let r = AggRef {
            agg: 0,
            column: 0,
            key: Arc::from(vec![]),
        };
        let e = Expr::Col(0);
        let err = e.eval(&row(vec![Value::Ref(r)]), &ctx()).unwrap_err();
        assert!(matches!(err, ExprError::UnresolvedRef(_)));
    }

    struct FixedResolver(Value);
    impl RefResolver for FixedResolver {
        fn resolve(&self, _r: &AggRef, mode: RefMode) -> Value {
            match mode {
                RefMode::Current => self.0.clone(),
                RefMode::Trial(i) => Value::Float(i as f64),
            }
        }
    }

    #[test]
    fn ref_resolves_lazily() {
        let r = AggRef {
            agg: 1,
            column: 0,
            key: Arc::from(vec![]),
        };
        let resolver = FixedResolver(Value::Float(35.3));
        let c = EvalContext::with_resolver(&resolver);
        // buffer_time > AVG(buffer_time), where the AVG arrives by lineage ref.
        let e = Expr::Cmp {
            op: CmpOp::Gt,
            left: Box::new(Expr::Col(0)),
            right: Box::new(Expr::Col(1)),
        };
        let t = row(vec![Value::Float(36.0), Value::Ref(r.clone())]);
        assert!(e.eval_predicate(&t, &c).unwrap());
        // Trial mode pulls per-trial values.
        let c2 = c.with_mode(RefMode::Trial(40));
        let t2 = row(vec![Value::Float(36.0), Value::Ref(r)]);
        assert!(!e.eval_predicate(&t2, &c2).unwrap());
    }

    #[test]
    fn referenced_columns_follow_the_walk() {
        let e = Expr::Case {
            when_then: vec![(Expr::Col(3), Expr::Col(1))],
            else_expr: Some(Box::new(Expr::Like {
                expr: Box::new(Expr::Col(2)),
                pattern: "x%".into(),
            })),
        };
        let mut cols = Vec::new();
        e.referenced_columns(&mut cols);
        assert_eq!(cols, vec![3, 1, 2]);
    }
}
