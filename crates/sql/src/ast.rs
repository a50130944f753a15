//! Abstract syntax tree for the supported SQL dialect.
//!
//! The dialect is the paper's supported query class (§3.3): positive
//! relational algebra — SELECT / PROJECT / JOIN / UNION / AGGREGATE — with
//! arbitrary nesting of *scalar* subqueries (correlated or not), `IN
//! (SELECT …)` semi-joins, `HAVING`, `CASE`, UDFs and UDAFs. Set difference
//! (`NOT EXISTS`, `EXCEPT`) is excluded, as in the paper.

use iolap_relation::Value;
use std::fmt;

/// A parsed statement (only queries are supported).
#[derive(Clone, Debug, PartialEq)]
pub enum Statement {
    /// A `SELECT` query, possibly with `UNION ALL` branches.
    Query(Query),
}

/// A query: one or more `SELECT` blocks combined with `UNION ALL`.
#[derive(Clone, Debug, PartialEq)]
pub struct Query {
    /// The `UNION ALL` branches; a plain `SELECT` has exactly one.
    pub branches: Vec<SelectBlock>,
    /// `ORDER BY` applied to the union result.
    pub order_by: Vec<OrderItem>,
    /// `LIMIT` applied after ordering.
    pub limit: Option<u64>,
}

/// One `SELECT … FROM … WHERE … GROUP BY … HAVING …` block.
#[derive(Clone, Debug, PartialEq)]
pub struct SelectBlock {
    /// Projection list.
    pub items: Vec<SelectItem>,
    /// `FROM` tables (comma or `JOIN … ON` syntax; both become joins).
    pub from: Vec<TableRef>,
    /// Equi-join predicates from `JOIN … ON` clauses; combined with `WHERE`.
    pub join_predicates: Vec<Expr>,
    /// `WHERE` predicate.
    pub where_clause: Option<Expr>,
    /// `GROUP BY` expressions.
    pub group_by: Vec<Expr>,
    /// `HAVING` predicate.
    pub having: Option<Expr>,
}

/// One projection item.
#[derive(Clone, Debug, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `expr [AS alias]`
    Expr {
        /// The projected expression.
        expr: Expr,
        /// Optional output alias.
        alias: Option<String>,
    },
}

/// A table reference in `FROM`.
#[derive(Clone, Debug, PartialEq)]
pub struct TableRef {
    /// Base table name.
    pub name: String,
    /// Optional alias.
    pub alias: Option<String>,
}

impl TableRef {
    /// The name this table is referred to by in the query.
    pub fn effective_name(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.name)
    }
}

/// `ORDER BY` item.
#[derive(Clone, Debug, PartialEq)]
pub struct OrderItem {
    /// Sort expression.
    pub expr: Expr,
    /// Ascending?
    pub asc: bool,
}

/// Binary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum BinaryOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Eq,
    Neq,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
}

impl fmt::Display for BinaryOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
            BinaryOp::Mod => "%",
            BinaryOp::Eq => "=",
            BinaryOp::Neq => "<>",
            BinaryOp::Lt => "<",
            BinaryOp::Le => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::Ge => ">=",
            BinaryOp::And => "AND",
            BinaryOp::Or => "OR",
        };
        write!(f, "{s}")
    }
}

/// Unary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum UnaryOp {
    Neg,
    Not,
}

/// AST expressions.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// `[qualifier.]name`
    Column {
        /// Table qualifier.
        qualifier: Option<String>,
        /// Column name.
        name: String,
    },
    /// Literal constant.
    Literal(Value),
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Binary operation.
    Binary {
        /// Left operand.
        left: Box<Expr>,
        /// Operator.
        op: BinaryOp,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Function call: built-in aggregate (`SUM`, `AVG`, …), UDAF, or scalar
    /// UDF — disambiguated by the planner against the function registry.
    Function {
        /// Function name (uppercased at parse time).
        name: String,
        /// Arguments; `COUNT(*)` has an empty argument list.
        args: Vec<Expr>,
        /// `DISTINCT` qualifier (only meaningful for aggregates).
        distinct: bool,
    },
    /// Scalar subquery `(SELECT …)`, possibly correlated with the outer
    /// query via columns that do not resolve locally.
    ScalarSubquery(Box<Query>),
    /// `expr IN (SELECT …)` — planned as a semi-join (positive RA only, so
    /// no `NOT IN`).
    InSubquery {
        /// Probe expression.
        expr: Box<Expr>,
        /// The subquery producing match values.
        subquery: Box<Query>,
    },
    /// `expr BETWEEN low AND high`.
    Between {
        /// Tested expression.
        expr: Box<Expr>,
        /// Lower bound (inclusive).
        low: Box<Expr>,
        /// Upper bound (inclusive).
        high: Box<Expr>,
    },
    /// `expr LIKE 'pattern'` with `%`/`_` wildcards.
    Like {
        /// Tested expression.
        expr: Box<Expr>,
        /// Pattern literal.
        pattern: String,
    },
    /// `CASE WHEN c1 THEN v1 … [ELSE e] END`.
    Case {
        /// `(condition, result)` arms.
        when_then: Vec<(Expr, Expr)>,
        /// `ELSE` result.
        else_expr: Option<Box<Expr>>,
    },
}

impl Expr {
    /// Convenience: unqualified column.
    pub fn col(name: &str) -> Expr {
        Expr::Column {
            qualifier: None,
            name: name.to_string(),
        }
    }

    /// Convenience: binary expression.
    pub fn binary(left: Expr, op: BinaryOp, right: Expr) -> Expr {
        Expr::Binary {
            left: Box::new(left),
            op,
            right: Box::new(right),
        }
    }

    /// Call `f` on each direct child, left to right, stopping at the first
    /// error. A subquery's body is not a child (the planner plans it as a
    /// block of its own); an `IN (SELECT …)` probe is. Every recursion that
    /// only needs to reach each child (walks, collectors, rewrites) goes
    /// through this or [`Expr::try_rewrite_children`], so none can skip a
    /// variant.
    pub fn try_visit_children<'a, E>(
        &'a self,
        mut f: impl FnMut(&'a Expr) -> Result<(), E>,
    ) -> Result<(), E> {
        match self {
            Expr::Column { .. } | Expr::Literal(_) | Expr::ScalarSubquery(_) => Ok(()),
            Expr::Unary { expr, .. } | Expr::InSubquery { expr, .. } | Expr::Like { expr, .. } => {
                f(expr)
            }
            Expr::Binary { left, right, .. } => {
                f(left)?;
                f(right)
            }
            Expr::Function { args, .. } => args.iter().try_for_each(f),
            Expr::Between { expr, low, high } => {
                f(expr)?;
                f(low)?;
                f(high)
            }
            Expr::Case {
                when_then,
                else_expr,
            } => {
                for (c, v) in when_then {
                    f(c)?;
                    f(v)?;
                }
                else_expr.as_deref().map_or(Ok(()), f)
            }
        }
    }

    /// [`Expr::try_visit_children`] with each child open to rewriting in
    /// place.
    pub fn try_rewrite_children<E>(
        &mut self,
        mut f: impl FnMut(&mut Expr) -> Result<(), E>,
    ) -> Result<(), E> {
        match self {
            Expr::Column { .. } | Expr::Literal(_) | Expr::ScalarSubquery(_) => Ok(()),
            Expr::Unary { expr, .. } | Expr::InSubquery { expr, .. } | Expr::Like { expr, .. } => {
                f(expr)
            }
            Expr::Binary { left, right, .. } => {
                f(left)?;
                f(right)
            }
            Expr::Function { args, .. } => args.iter_mut().try_for_each(f),
            Expr::Between { expr, low, high } => {
                f(expr)?;
                f(low)?;
                f(high)
            }
            Expr::Case {
                when_then,
                else_expr,
            } => {
                for (c, v) in when_then {
                    f(c)?;
                    f(v)?;
                }
                else_expr.as_deref_mut().map_or(Ok(()), f)
            }
        }
    }

    /// Visit this expression and all its descendants, pre-order, not
    /// descending into subquery bodies.
    pub fn walk(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        let Ok(()) = self.try_visit_children(|c| {
            c.walk(f);
            Ok::<(), std::convert::Infallible>(())
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walk_visits_all() {
        let e = Expr::binary(
            Expr::col("a"),
            BinaryOp::Add,
            Expr::Function {
                name: "F".into(),
                args: vec![Expr::col("b")],
                distinct: false,
            },
        );
        let mut cols = Vec::new();
        e.walk(&mut |x| {
            if let Expr::Column { name, .. } = x {
                cols.push(name.clone());
            }
        });
        assert_eq!(cols, vec!["a", "b"]);
    }

    #[test]
    fn like_operand_is_a_child() {
        let mut e = Expr::Like {
            expr: Box::new(Expr::col("a")),
            pattern: "x%".into(),
        };
        let mut columns = 0;
        e.walk(&mut |x| columns += usize::from(matches!(x, Expr::Column { .. })));
        assert_eq!(columns, 1);
        e.try_rewrite_children(|c| {
            *c = Expr::col("b");
            Ok::<(), ()>(())
        })
        .unwrap();
        let Expr::Like { expr, .. } = &e else {
            unreachable!()
        };
        assert_eq!(**expr, Expr::col("b"));
    }
}
