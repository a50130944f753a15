//! Planner: SQL AST → logical [`Plan`].
//!
//! Nested subqueries — the query class that motivates iOLAP (§1, Example 1)
//! — are compiled into joins:
//!
//! * An **uncorrelated scalar subquery** becomes an `Aggregate` subplan
//!   cross-joined into the outer block, exactly the shape of the paper's
//!   Figure 2(a) SBI plan (operators ①–⑤).
//! * A **correlated scalar subquery** (TPC-H Q17/Q20 style) is decorrelated:
//!   its correlation equi-predicates become group-by columns of the inner
//!   aggregate, which is then equi-joined with the outer block.
//! * `IN (SELECT …)` becomes a semi-join.
//!
//! Scalar subqueries are planned in one pre-order walk over each WHERE or
//! HAVING conjunct (`Planner::plan_subqueries`, shaped like GlareDB's
//! `SubqueryPlanner`): each subquery is planned as a block, joined into the
//! plan so far, and replaced in the conjunct by a reference to its value
//! column. This walk and every other recursion over the AST here run on
//! `ast::Expr`'s one child visitor and one child rewriter.
//!
//! The join that carries an inner aggregate's result into the outer block is
//! the *lineage-block boundary* of §6.1; the iOLAP rewriter later replaces
//! the carried value with a lineage reference.

use crate::aggregate::{builtin_agg, AggKind};
use crate::expr::{ArithOp, CmpOp, Expr};
use crate::plan::{AggCall, Plan};
use crate::registry::FunctionRegistry;
use iolap_relation::{Catalog, DataType, Field, Schema, SchemaError, Value};
use iolap_sql::ast::{self, BinaryOp, Query, SelectBlock, SelectItem, UnaryOp};
use std::fmt;

/// Planner errors.
#[derive(Clone, Debug, PartialEq)]
pub enum PlanError {
    /// Name resolution failure.
    Schema(SchemaError),
    /// Unknown table.
    Catalog(String),
    /// Unknown function.
    UnknownFunction(String),
    /// Valid SQL outside the supported class.
    Unsupported(String),
    /// Structurally invalid query.
    Invalid(String),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Schema(e) => write!(f, "{e}"),
            PlanError::Catalog(t) => write!(f, "unknown table `{t}`"),
            PlanError::UnknownFunction(n) => write!(f, "unknown function `{n}`"),
            PlanError::Unsupported(m) => write!(f, "unsupported query: {m}"),
            PlanError::Invalid(m) => write!(f, "invalid query: {m}"),
        }
    }
}

impl std::error::Error for PlanError {}

/// A fully planned query.
#[derive(Clone, Debug)]
pub struct PlannedQuery {
    /// Root plan node.
    pub plan: Plan,
    /// Output column names, aligned with the root schema.
    pub output_names: Vec<String>,
}

/// Plan a parsed query against a catalog and function registry.
pub fn plan_query(
    q: &Query,
    catalog: &Catalog,
    registry: &FunctionRegistry,
) -> Result<PlannedQuery, PlanError> {
    Planner {
        catalog,
        registry,
        next_agg_id: 0,
        next_sub_id: 0,
    }
    .plan(q)
}

/// Convenience: parse + plan SQL text.
pub fn plan_sql(
    sql: &str,
    catalog: &Catalog,
    registry: &FunctionRegistry,
) -> Result<PlannedQuery, PlanError> {
    let stmt =
        iolap_sql::parse(sql).map_err(|e| PlanError::Invalid(format!("parse error: {e}")))?;
    let iolap_sql::Statement::Query(q) = stmt;
    plan_query(&q, catalog, registry)
}

struct Planner<'a> {
    catalog: &'a Catalog,
    registry: &'a FunctionRegistry,
    next_agg_id: u32,
    next_sub_id: u32,
}

/// Output of planning one SELECT block.
struct BlockOutput {
    plan: Plan,
    names: Vec<String>,
    /// Compiled outer-side correlation keys (against the outer schema this
    /// block was planned under). Empty when uncorrelated.
    corr_outer: Vec<Expr>,
    /// Number of leading correlation columns in this block's output.
    corr_width: usize,
    /// Whether the block provably yields a single row (global aggregate).
    single_row: bool,
}

impl<'a> Planner<'a> {
    fn plan(&mut self, q: &Query) -> Result<PlannedQuery, PlanError> {
        // For single-block queries, ORDER BY may reference non-projected
        // input columns, so sorting happens inside the block (below the
        // final projection). Unions sort on output columns only.
        let single_order = if q.branches.len() == 1 {
            Some((&q.order_by[..], q.limit))
        } else {
            None
        };
        let mut blocks = Vec::with_capacity(q.branches.len());
        for b in &q.branches {
            blocks.push(self.plan_block_ordered(b, None, single_order)?);
        }
        let names = blocks[0].names.clone();
        for b in &blocks[1..] {
            if b.names.len() != names.len() {
                return Err(PlanError::Invalid(
                    "UNION ALL branches have different arities".into(),
                ));
            }
        }
        let mut plan = if blocks.len() == 1 {
            blocks.pop().unwrap().plan
        } else {
            Plan::Union {
                inputs: blocks.into_iter().map(|b| b.plan).collect(),
            }
        };
        if single_order.is_none() && (!q.order_by.is_empty() || q.limit.is_some()) {
            let out_schema = plan.schema().clone();
            let keys = q
                .order_by
                .iter()
                .map(|o| Ok((self.compile_expr(&o.expr, &out_schema)?, o.asc)))
                .collect::<Result<Vec<_>, PlanError>>()?;
            plan = Plan::Sort {
                input: Box::new(plan),
                keys,
                limit: q.limit,
            };
        }
        Ok(PlannedQuery {
            plan,
            output_names: names,
        })
    }

    /// Plan one SELECT block. `outer` is the enclosing block's schema when
    /// this is a subquery (enables correlation). `order_limit`, when
    /// present, is applied below the final projection so sort keys can
    /// reference non-projected columns.
    fn plan_block_ordered(
        &mut self,
        b: &SelectBlock,
        outer: Option<&Schema>,
        order_limit: Option<(&[ast::OrderItem], Option<u64>)>,
    ) -> Result<BlockOutput, PlanError> {
        if b.from.is_empty() {
            return Err(PlanError::Unsupported("SELECT without FROM".into()));
        }

        // ------------------------------------------------------- FROM scans
        let mut table_schemas = Vec::new();
        let mut table_plans = Vec::new();
        for t in &b.from {
            let base = self
                .catalog
                .schema(&t.name)
                .map_err(|_| PlanError::Catalog(t.name.clone()))?;
            let schema = base.with_qualifier(t.effective_name());
            table_schemas.push(schema.clone());
            table_plans.push(Plan::Scan {
                table: t.name.clone(),
                schema,
            });
        }
        let combined = table_schemas
            .iter()
            .skip(1)
            .fold(table_schemas[0].clone(), |acc, s| acc.join(s));

        // ------------------------------------------------ conjunct analysis
        let mut conjuncts: Vec<ast::Expr> = Vec::new();
        for p in &b.join_predicates {
            split_and(p, &mut conjuncts);
        }
        if let Some(w) = &b.where_clause {
            split_and(w, &mut conjuncts);
        }

        let mut equi: Vec<ast::Expr> = Vec::new(); // cross-table equi
        let mut residual: Vec<ast::Expr> = Vec::new(); // other local
        let mut with_subs: Vec<ast::Expr> = Vec::new(); // contain subqueries
        let mut correlated: Vec<(ast::Expr, Expr)> = Vec::new(); // (local side AST, outer key)

        for c in conjuncts {
            if contains_subquery(&c) {
                with_subs.push(c);
                continue;
            }
            match self.compile_expr(&c, &combined) {
                Ok(_) => {
                    // Resolves against one table: push it below the joins.
                    let single = table_schemas
                        .iter()
                        .enumerate()
                        .find_map(|(i, s)| Some((i, self.compile_expr(&c, s).ok()?)));
                    if let Some((i, predicate)) = single {
                        wrap(&mut table_plans[i], |input| Plan::Select {
                            input,
                            predicate,
                        });
                    } else if is_equi(&c) {
                        equi.push(c);
                    } else {
                        residual.push(c);
                    }
                }
                Err(e @ PlanError::Schema(SchemaError::NotFound(_))) => {
                    // Try correlated equi-predicate: local = outer.
                    let outer_schema = outer.ok_or(e)?;
                    correlated.push(self.split_correlated(&c, &combined, outer_schema)?);
                }
                Err(e) => return Err(e),
            }
        }

        // ------------------------------------------------------- join tree
        let mut iter = table_plans.into_iter();
        let mut plan = iter.next().unwrap();
        let mut cum_schema = table_schemas[0].clone();
        for (ti, right) in iter.enumerate() {
            let right_schema = &table_schemas[ti + 1];
            let mut left_keys = Vec::new();
            let mut right_keys = Vec::new();
            equi.retain(
                |c| match self.extract_join_keys(c, &cum_schema, right_schema) {
                    Some((lk, rk)) => {
                        left_keys.push(lk);
                        right_keys.push(rk);
                        false
                    }
                    None => true,
                },
            );
            let schema = cum_schema.join(right_schema);
            plan = Plan::Join {
                left: Box::new(plan),
                right: Box::new(right),
                left_keys,
                right_keys,
                schema: schema.clone(),
            };
            cum_schema = schema;
        }
        // Unconsumed equi conjuncts (e.g. referencing 3 tables) filter on
        // top, then the conjuncts that carry subqueries.
        residual.extend(equi);
        residual.extend(with_subs);
        let (mut plan, cum_schema) = self.apply_conjuncts(plan, cum_schema, residual)?;

        // ----------------------------------------------- aggregation + SELECT
        // Expand wildcards against the FROM schema (not subquery columns).
        let mut items: Vec<(ast::Expr, Option<String>)> = Vec::new();
        for it in &b.items {
            match it {
                SelectItem::Wildcard => {
                    for f in combined.fields() {
                        items.push((
                            ast::Expr::Column {
                                qualifier: f.qualifier.clone(),
                                name: f.name.clone(),
                            },
                            Some(f.name.clone()),
                        ));
                    }
                }
                SelectItem::Expr { expr, alias } => items.push((expr.clone(), alias.clone())),
            }
        }

        // Correlation columns join the group-by list.
        let corr_group: Vec<ast::Expr> = correlated.iter().map(|(l, _)| l.clone()).collect();
        let corr_outer: Vec<Expr> = correlated.into_iter().map(|(_, o)| o).collect();
        let corr_width = corr_group.len();

        let mut agg_calls: Vec<(String, ast::Expr, AggKind)> = Vec::new(); // (key, arg, kind)
        for (e, _) in &items {
            self.collect_aggregates(e, &mut agg_calls)?;
        }
        if let Some(h) = &b.having {
            self.collect_aggregates(h, &mut agg_calls)?;
        }

        let has_agg = !agg_calls.is_empty() || !b.group_by.is_empty() || corr_width > 0;
        if !has_agg {
            if b.having.is_some() {
                return Err(PlanError::Invalid("HAVING without aggregation".into()));
            }
            plan = self.apply_order_limit(plan, &cum_schema, &items, order_limit, None)?;
            // Plain projection.
            let mut exprs = Vec::new();
            let mut fields = Vec::new();
            let mut names = Vec::new();
            for (e, alias) in &items {
                let pe = self.compile_expr(e, &cum_schema)?;
                let name = alias.clone().unwrap_or_else(|| display_name(e));
                fields.push(Field::new(name.clone(), infer_type(&pe, &cum_schema)));
                names.push(name);
                exprs.push(pe);
            }
            let schema = Schema::new(fields);
            let plan = Plan::Project {
                input: Box::new(plan),
                exprs,
                schema,
            };
            return Ok(BlockOutput {
                plan,
                names,
                corr_outer,
                corr_width: 0,
                single_row: false,
            });
        }

        // Group expressions: correlation columns first, then user GROUP BY.
        let mut group_asts: Vec<ast::Expr> = corr_group;
        for g in &b.group_by {
            // GROUP BY may name a select alias.
            let resolved = items
                .iter()
                .find(|(_, alias)| match (alias, g) {
                    (
                        Some(a),
                        ast::Expr::Column {
                            qualifier: None,
                            name,
                        },
                    ) => a.eq_ignore_ascii_case(name),
                    _ => false,
                })
                .map(|(e, _)| e.clone())
                .unwrap_or_else(|| g.clone());
            if !group_asts.contains(&resolved) {
                group_asts.push(resolved);
            }
        }

        // Pre-projection: group exprs then aggregate arguments.
        let mut pre_exprs = Vec::new();
        let mut pre_fields = Vec::new();
        for (i, g) in group_asts.iter().enumerate() {
            let pe = self.compile_expr(g, &cum_schema)?;
            pre_fields.push(Field::new(format!("__g{i}"), infer_type(&pe, &cum_schema)));
            pre_exprs.push(pe);
        }
        for (i, (_, arg, _)) in agg_calls.iter().enumerate() {
            let pe = self.compile_expr(arg, &cum_schema)?;
            pre_fields.push(Field::new(
                format!("__arg{i}"),
                infer_type(&pe, &cum_schema),
            ));
            pre_exprs.push(pe);
        }
        let pre_schema = Schema::new(pre_fields);
        plan = Plan::Project {
            input: Box::new(plan),
            exprs: pre_exprs,
            schema: pre_schema.clone(),
        };

        // Aggregate node.
        let g = group_asts.len();
        let mut agg_fields: Vec<Field> = (0..g).map(|i| pre_schema.field(i).clone()).collect();
        let mut calls = Vec::new();
        for (i, (_, _, kind)) in agg_calls.iter().enumerate() {
            let input_ty = pre_schema.field(g + i).data_type;
            agg_fields.push(Field::new(format!("__a{i}"), kind.return_type(input_ty)));
            calls.push(AggCall {
                kind: kind.clone(),
                input: Expr::Col(g + i),
                name: format!("__a{i}"),
            });
        }
        let agg_schema = Schema::new(agg_fields);
        let agg_id = self.next_agg_id;
        self.next_agg_id += 1;
        plan = Plan::Aggregate {
            input: Box::new(plan),
            group_cols: (0..g).collect(),
            aggs: calls,
            schema: agg_schema.clone(),
            agg_id,
        };
        let mut post_schema = agg_schema;

        // Substitution table for post-aggregation expression rewriting.
        let agg_keys: Vec<String> = agg_calls.into_iter().map(|(k, _, _)| k).collect();

        // HAVING: plain conjuncts filter first, then those with subqueries.
        if let Some(h) = &b.having {
            let mut conjuncts = Vec::new();
            split_and(h, &mut conjuncts);
            for c in &mut conjuncts {
                rewrite_post_agg(c, &group_asts, &agg_keys);
            }
            conjuncts.sort_by_key(contains_subquery);
            (plan, post_schema) = self.apply_conjuncts(plan, post_schema, conjuncts)?;
        }

        plan = self.apply_order_limit(
            plan,
            &post_schema,
            &items,
            order_limit,
            Some((&group_asts, &agg_keys)),
        )?;

        // Final projection: correlation columns (for the decorrelating join)
        // then the select items.
        let mut exprs: Vec<Expr> = (0..corr_width).map(Expr::Col).collect();
        let mut fields: Vec<Field> = (0..corr_width)
            .map(|i| post_schema.field(i).clone())
            .collect();
        let mut names: Vec<String> = Vec::new();
        for (e, alias) in &items {
            let mut rewritten = e.clone();
            rewrite_post_agg(&mut rewritten, &group_asts, &agg_keys);
            let pe = self.compile_expr(&rewritten, &post_schema)?;
            let name = alias.clone().unwrap_or_else(|| display_name(e));
            fields.push(Field::new(name.clone(), infer_type(&pe, &post_schema)));
            names.push(name);
            exprs.push(pe);
        }
        let schema = Schema::new(fields);
        plan = Plan::Project {
            input: Box::new(plan),
            exprs,
            schema,
        };

        Ok(BlockOutput {
            plan,
            names,
            corr_outer,
            corr_width,
            single_row: g == 0,
        })
    }

    /// Insert a `Sort` below the final projection. Order keys may reference
    /// select-item aliases (substituted by their defining expressions) or
    /// any column of the pre-projection schema; in aggregated blocks they
    /// are rewritten through the aggregate output first.
    fn apply_order_limit(
        &mut self,
        plan: Plan,
        schema: &Schema,
        items: &[(ast::Expr, Option<String>)],
        order_limit: Option<(&[ast::OrderItem], Option<u64>)>,
        agg_rewrite: Option<(&[ast::Expr], &[String])>,
    ) -> Result<Plan, PlanError> {
        let Some((order, limit)) = order_limit else {
            return Ok(plan);
        };
        if order.is_empty() && limit.is_none() {
            return Ok(plan);
        }
        let mut keys = Vec::with_capacity(order.len());
        for o in order {
            let mut ast_expr = substitute_alias(&o.expr, items);
            if let Some((groups, agg_keys)) = agg_rewrite {
                rewrite_post_agg(&mut ast_expr, groups, agg_keys);
            }
            keys.push((self.compile_expr(&ast_expr, schema)?, o.asc));
        }
        Ok(Plan::Sort {
            input: Box::new(plan),
            keys,
            limit,
        })
    }

    /// Filter `plan` by `conjuncts`, in order. A whole-conjunct
    /// `IN (SELECT …)` becomes a semi-join; any other conjunct first has its
    /// scalar subqueries joined in by [`Planner::plan_subqueries`].
    fn apply_conjuncts(
        &mut self,
        mut plan: Plan,
        mut schema: Schema,
        conjuncts: Vec<ast::Expr>,
    ) -> Result<(Plan, Schema), PlanError> {
        for mut c in conjuncts {
            if let ast::Expr::InSubquery { expr, subquery } = &c {
                let sub = self.plan(subquery)?;
                if sub.output_names.len() != 1 {
                    return Err(PlanError::Invalid(
                        "IN subquery must produce exactly one column".into(),
                    ));
                }
                let probe = self.compile_expr(expr, &schema)?;
                plan = Plan::SemiJoin {
                    left: Box::new(plan),
                    right: Box::new(sub.plan),
                    left_keys: vec![probe],
                    right_keys: vec![Expr::Col(0)],
                };
                continue;
            }
            self.plan_subqueries(&mut c, &mut plan, &mut schema)?;
            let predicate = self.compile_expr(&c, &schema)?;
            plan = Plan::Select {
                input: Box::new(plan),
                predicate,
            };
        }
        Ok((plan, schema))
    }

    /// One pre-order walk over `e` that plans its scalar subqueries. Each
    /// is planned as a block against `schema` (so it may correlate with
    /// it), joined into `plan` — on its correlation keys, or as a cross
    /// join when uncorrelated — and replaced in `e` by a reference to the
    /// joined value column, `__sub.cN`.
    fn plan_subqueries(
        &mut self,
        e: &mut ast::Expr,
        plan: &mut Plan,
        schema: &mut Schema,
    ) -> Result<(), PlanError> {
        let q = match e {
            ast::Expr::ScalarSubquery(q) => q,
            ast::Expr::InSubquery { .. } => {
                return Err(PlanError::Unsupported(
                    "IN (SELECT …) must be a top-level conjunct".into(),
                ))
            }
            _ => return e.try_rewrite_children(|c| self.plan_subqueries(c, plan, schema)),
        };
        if q.branches.len() != 1 {
            return Err(PlanError::Unsupported(
                "UNION inside scalar subquery".into(),
            ));
        }
        let sub = self.plan_block_ordered(&q.branches[0], Some(schema), None)?;
        if sub.names.len() != 1 {
            return Err(PlanError::Invalid(
                "scalar subquery must produce exactly one column".into(),
            ));
        }
        if sub.corr_width == 0 && !sub.single_row {
            return Err(PlanError::Unsupported(
                "uncorrelated scalar subquery must be a global aggregate".into(),
            ));
        }
        // Rename the block's output: correlation columns get synthetic
        // names, the value column becomes `__sub.cN`.
        let marker = format!("c{}", self.next_sub_id);
        self.next_sub_id += 1;
        let fields = sub.plan.schema().fields().iter().enumerate();
        let sub_schema = Schema::new(
            fields
                .map(|(i, f)| {
                    if i == sub.corr_width {
                        Field::qualified("__sub", marker.clone(), f.data_type)
                    } else {
                        Field::new(format!("__corr_{marker}_{i}"), f.data_type)
                    }
                })
                .collect(),
        );
        let joined = schema.join(&sub_schema);
        let right = Box::new(reschema(sub.plan, sub_schema));
        wrap(plan, |left| Plan::Join {
            left,
            right,
            left_keys: sub.corr_outer,
            right_keys: (0..sub.corr_width).map(Expr::Col).collect(),
            schema: joined.clone(),
        });
        *schema = joined;
        *e = ast::Expr::Column {
            qualifier: Some("__sub".into()),
            name: marker,
        };
        Ok(())
    }

    /// Split a correlated conjunct `local = outer` (either order) into the
    /// local AST side and the compiled outer key.
    fn split_correlated(
        &self,
        c: &ast::Expr,
        local: &Schema,
        outer: &Schema,
    ) -> Result<(ast::Expr, Expr), PlanError> {
        if let ast::Expr::Binary {
            left,
            op: BinaryOp::Eq,
            right,
        } = c
        {
            for (a, b) in [(left, right), (right, left)] {
                if self.compile_expr(a, local).is_ok() {
                    if let Ok(outer_key) = self.compile_expr(b, outer) {
                        return Ok(((**a).clone(), outer_key));
                    }
                }
            }
        }
        Err(PlanError::Unsupported(format!(
            "correlated predicate must be an equality `inner_col = outer_col`; got {c:?}"
        )))
    }

    fn extract_join_keys(
        &self,
        c: &ast::Expr,
        left: &Schema,
        right: &Schema,
    ) -> Option<(Expr, Expr)> {
        if let ast::Expr::Binary {
            left: a,
            op: BinaryOp::Eq,
            right: b,
        } = c
        {
            for (x, y) in [(a, b), (b, a)] {
                if let (Ok(lk), Ok(rk)) = (self.compile_expr(x, left), self.compile_expr(y, right))
                {
                    return Some((lk, rk));
                }
            }
        }
        None
    }

    /// Collect aggregate calls in `e` (not descending into subqueries),
    /// deduplicated by structural key.
    fn collect_aggregates(
        &self,
        e: &ast::Expr,
        out: &mut Vec<(String, ast::Expr, AggKind)>,
    ) -> Result<(), PlanError> {
        if let ast::Expr::Function {
            name,
            args,
            distinct,
        } = e
        {
            let kind = builtin_agg(name, *distinct)
                .map(AggKind::Builtin)
                .or_else(|| self.registry.udaf(name).map(AggKind::Udaf));
            if let Some(kind) = kind {
                if args.len() > 1 {
                    return Err(PlanError::Unsupported(format!(
                        "aggregate {name} with multiple arguments"
                    )));
                }
                let arg = agg_arg(args);
                let key = agg_key(name, *distinct, &arg);
                if !out.iter().any(|(k, _, _)| *k == key) {
                    out.push((key, arg, kind));
                }
                return Ok(());
            }
        }
        e.try_visit_children(|c| self.collect_aggregates(c, out))
    }

    /// Compile an AST expression against a schema.
    fn compile_expr(&self, e: &ast::Expr, schema: &Schema) -> Result<Expr, PlanError> {
        Ok(match e {
            ast::Expr::Column { qualifier, name } => {
                let idx = schema
                    .index_of(qualifier.as_deref(), name)
                    .map_err(PlanError::Schema)?;
                Expr::Col(idx)
            }
            ast::Expr::Literal(v) => Expr::Lit(v.clone()),
            ast::Expr::Unary { op, expr } => {
                let inner = self.compile_expr(expr, schema)?;
                match op {
                    UnaryOp::Neg => Expr::Neg(Box::new(inner)),
                    UnaryOp::Not => Expr::Not(Box::new(inner)),
                }
            }
            ast::Expr::Binary { left, op, right } => {
                let l = Box::new(self.compile_expr(left, schema)?);
                let r = Box::new(self.compile_expr(right, schema)?);
                match op {
                    BinaryOp::Add => Expr::Arith {
                        op: ArithOp::Add,
                        left: l,
                        right: r,
                    },
                    BinaryOp::Sub => Expr::Arith {
                        op: ArithOp::Sub,
                        left: l,
                        right: r,
                    },
                    BinaryOp::Mul => Expr::Arith {
                        op: ArithOp::Mul,
                        left: l,
                        right: r,
                    },
                    BinaryOp::Div => Expr::Arith {
                        op: ArithOp::Div,
                        left: l,
                        right: r,
                    },
                    BinaryOp::Mod => Expr::Arith {
                        op: ArithOp::Mod,
                        left: l,
                        right: r,
                    },
                    BinaryOp::Eq => Expr::Cmp {
                        op: CmpOp::Eq,
                        left: l,
                        right: r,
                    },
                    BinaryOp::Neq => Expr::Cmp {
                        op: CmpOp::Neq,
                        left: l,
                        right: r,
                    },
                    BinaryOp::Lt => Expr::Cmp {
                        op: CmpOp::Lt,
                        left: l,
                        right: r,
                    },
                    BinaryOp::Le => Expr::Cmp {
                        op: CmpOp::Le,
                        left: l,
                        right: r,
                    },
                    BinaryOp::Gt => Expr::Cmp {
                        op: CmpOp::Gt,
                        left: l,
                        right: r,
                    },
                    BinaryOp::Ge => Expr::Cmp {
                        op: CmpOp::Ge,
                        left: l,
                        right: r,
                    },
                    BinaryOp::And => Expr::And(l, r),
                    BinaryOp::Or => Expr::Or(l, r),
                }
            }
            ast::Expr::Function { name, args, .. } => {
                if builtin_agg(name, false).is_some() || self.registry.udaf(name).is_some() {
                    return Err(PlanError::Invalid(format!(
                        "aggregate {name} not allowed in this context"
                    )));
                }
                let func = self
                    .registry
                    .scalar(name)
                    .ok_or_else(|| PlanError::UnknownFunction(name.clone()))?;
                Expr::Udf {
                    func,
                    args: args
                        .iter()
                        .map(|a| self.compile_expr(a, schema))
                        .collect::<Result<_, _>>()?,
                }
            }
            ast::Expr::Between { expr, low, high } => Expr::Between {
                expr: Box::new(self.compile_expr(expr, schema)?),
                low: Box::new(self.compile_expr(low, schema)?),
                high: Box::new(self.compile_expr(high, schema)?),
            },
            ast::Expr::Like { expr, pattern } => Expr::Like {
                expr: Box::new(self.compile_expr(expr, schema)?),
                pattern: pattern.as_str().into(),
            },
            ast::Expr::Case {
                when_then,
                else_expr,
            } => Expr::Case {
                when_then: when_then
                    .iter()
                    .map(|(c, v)| {
                        Ok((self.compile_expr(c, schema)?, self.compile_expr(v, schema)?))
                    })
                    .collect::<Result<_, PlanError>>()?,
                else_expr: match else_expr {
                    Some(x) => Some(Box::new(self.compile_expr(x, schema)?)),
                    None => None,
                },
            },
            ast::Expr::ScalarSubquery(_) | ast::Expr::InSubquery { .. } => {
                return Err(PlanError::Unsupported(
                    "subquery in this position (only WHERE/HAVING comparisons are supported)"
                        .into(),
                ))
            }
        })
    }
}

/// Replace aggregate calls and group-by expressions with references to the
/// aggregate output's synthetic columns (`__gN`, `__aN`).
fn rewrite_post_agg(e: &mut ast::Expr, groups: &[ast::Expr], agg_keys: &[String]) {
    let slot = if let Some(i) = groups.iter().position(|g| g == e) {
        Some(format!("__g{i}"))
    } else if let ast::Expr::Function {
        name,
        args,
        distinct,
    } = e
    {
        let key = agg_key(name, *distinct, &agg_arg(args));
        agg_keys
            .iter()
            .position(|k| *k == key)
            .map(|i| format!("__a{i}"))
    } else {
        None
    };
    match slot {
        Some(name) => {
            *e = ast::Expr::Column {
                qualifier: None,
                name,
            }
        }
        None => {
            let Ok(()) = e.try_rewrite_children(|c| {
                rewrite_post_agg(c, groups, agg_keys);
                Ok::<(), std::convert::Infallible>(())
            });
        }
    }
}

/// The argument an aggregate folds: its only one, or `1` for `COUNT(*)`.
fn agg_arg(args: &[ast::Expr]) -> ast::Expr {
    args.first()
        .cloned()
        .unwrap_or(ast::Expr::Literal(Value::Int(1)))
}

fn agg_key(name: &str, distinct: bool, arg: &ast::Expr) -> String {
    format!("{name}:{distinct}:{arg:?}")
}

/// Split an AND tree into conjuncts.
fn split_and(e: &ast::Expr, out: &mut Vec<ast::Expr>) {
    if let ast::Expr::Binary {
        left,
        op: BinaryOp::And,
        right,
    } = e
    {
        split_and(left, out);
        split_and(right, out);
    } else {
        out.push(e.clone());
    }
}

fn contains_subquery(e: &ast::Expr) -> bool {
    let mut found = false;
    e.walk(&mut |x| {
        if matches!(
            x,
            ast::Expr::ScalarSubquery(_) | ast::Expr::InSubquery { .. }
        ) {
            found = true;
        }
    });
    found
}

fn is_equi(e: &ast::Expr) -> bool {
    matches!(
        e,
        ast::Expr::Binary {
            op: BinaryOp::Eq,
            ..
        }
    )
}

/// If `e` is a bare column naming a select-item alias, substitute the
/// item's defining expression (SQL ORDER BY alias resolution).
fn substitute_alias(e: &ast::Expr, items: &[(ast::Expr, Option<String>)]) -> ast::Expr {
    if let ast::Expr::Column {
        qualifier: None,
        name,
    } = e
    {
        for (expr, alias) in items {
            if alias
                .as_deref()
                .is_some_and(|a| a.eq_ignore_ascii_case(name))
            {
                return expr.clone();
            }
        }
    }
    e.clone()
}

/// Human-readable output name for an unaliased projection.
fn display_name(e: &ast::Expr) -> String {
    match e {
        ast::Expr::Column { name, .. } => name.clone(),
        ast::Expr::Function { name, args, .. } => {
            let inner = args.iter().map(display_name).collect::<Vec<_>>().join(",");
            format!("{name}({inner})")
        }
        ast::Expr::Literal(v) => v.to_string(),
        ast::Expr::Binary { left, op, right } => {
            format!("{}{op}{}", display_name(left), display_name(right))
        }
        _ => "expr".into(),
    }
}

/// Replace `plan` by `f(plan)`.
fn wrap(plan: &mut Plan, f: impl FnOnce(Box<Plan>) -> Plan) {
    let input = std::mem::replace(plan, Plan::Union { inputs: vec![] });
    *plan = f(Box::new(input));
}

/// Wrap `plan` so its output schema is replaced with `schema` (same arity).
fn reschema(plan: Plan, schema: Schema) -> Plan {
    let exprs = (0..schema.len()).map(Expr::Col).collect();
    Plan::Project {
        input: Box::new(plan),
        exprs,
        schema,
    }
}

/// Infer a physical expression's result type.
pub fn infer_type(e: &Expr, schema: &Schema) -> DataType {
    match e {
        Expr::Col(i) => schema.field(*i).data_type,
        Expr::Lit(v) => v.data_type(),
        Expr::Arith { op, left, right } => {
            let (lt, rt) = (infer_type(left, schema), infer_type(right, schema));
            if *op != ArithOp::Div && lt == DataType::Int && rt == DataType::Int {
                DataType::Int
            } else {
                DataType::Float
            }
        }
        Expr::Cmp { .. }
        | Expr::And(..)
        | Expr::Or(..)
        | Expr::Not(_)
        | Expr::Like { .. }
        | Expr::Between { .. } => DataType::Bool,
        Expr::Neg(inner) => infer_type(inner, schema),
        Expr::Case {
            when_then,
            else_expr,
        } => when_then
            .first()
            .map(|(_, v)| infer_type(v, schema))
            .or_else(|| else_expr.as_ref().map(|x| infer_type(x, schema)))
            .unwrap_or(DataType::Null),
        Expr::Udf { func, args } => {
            let tys: Vec<DataType> = args.iter().map(|a| infer_type(a, schema)).collect();
            func.return_type(&tys)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::execute;
    use iolap_relation::Relation;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register(
            "sessions",
            Relation::from_values(
                Schema::from_pairs(&[
                    ("session_id", DataType::Int),
                    ("buffer_time", DataType::Float),
                    ("play_time", DataType::Float),
                    ("city", DataType::Str),
                ]),
                vec![
                    vec![1.into(), 36.0.into(), 238.0.into(), "SF".into()],
                    vec![2.into(), 58.0.into(), 135.0.into(), "SF".into()],
                    vec![3.into(), 17.0.into(), 617.0.into(), "LA".into()],
                    vec![4.into(), 56.0.into(), 194.0.into(), "LA".into()],
                    vec![5.into(), 19.0.into(), 308.0.into(), "SF".into()],
                    vec![6.into(), 26.0.into(), 319.0.into(), "LA".into()],
                ],
            ),
        );
        c.register(
            "cities",
            Relation::from_values(
                Schema::from_pairs(&[("name", DataType::Str), ("state", DataType::Str)]),
                vec![
                    vec!["SF".into(), "CA".into()],
                    vec!["LA".into(), "CA".into()],
                    vec!["NYC".into(), "NY".into()],
                ],
            ),
        );
        c
    }

    fn run(sql: &str) -> Relation {
        let c = catalog();
        let r = FunctionRegistry::with_builtins();
        let pq = plan_sql(sql, &c, &r).unwrap();
        execute(&pq.plan, &c).unwrap()
    }

    #[test]
    fn plan_simple_projection() {
        let out = run("SELECT session_id, play_time FROM sessions WHERE buffer_time < 20");
        assert_eq!(out.len(), 2);
        assert_eq!(out.schema().field(0).name, "session_id");
    }

    #[test]
    fn plan_global_aggregate() {
        let out = run("SELECT AVG(play_time), COUNT(*) FROM sessions");
        assert_eq!(out.len(), 1);
        let avg = out.rows()[0].values[0].as_f64().unwrap();
        assert!((avg - (238.0 + 135.0 + 617.0 + 194.0 + 308.0 + 319.0) / 6.0).abs() < 1e-9);
        assert_eq!(out.rows()[0].values[1], Value::Float(6.0));
    }

    #[test]
    fn plan_group_by_having() {
        let out = run(
            "SELECT city, AVG(play_time) AS ap FROM sessions GROUP BY city \
             HAVING COUNT(*) >= 3 ORDER BY city",
        );
        assert_eq!(out.len(), 2);
        assert_eq!(out.schema().field(1).name, "ap");
    }

    #[test]
    fn plan_sbi_uncorrelated_subquery() {
        let out = run("SELECT AVG(play_time) FROM sessions \
             WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions)");
        // avg buffer = 35.333; above: t1 (238), t2 (135), t4 (194) → 189.
        assert_eq!(out.len(), 1);
        let v = out.rows()[0].values[0].as_f64().unwrap();
        assert!((v - 189.0).abs() < 1e-9, "got {v}");
    }

    #[test]
    fn plan_correlated_subquery() {
        // Per-city SBI: sessions with buffer above their own city average.
        let out = run("SELECT COUNT(*) FROM sessions s \
             WHERE s.buffer_time > (SELECT AVG(i.buffer_time) FROM sessions i \
                                    WHERE i.city = s.city)");
        // SF avg = (36+58+19)/3 = 37.667 → only t2 (58). LA avg = (17+56+26)/3
        // = 33 → only t4 (56). Count = 2.
        assert_eq!(out.rows()[0].values[0], Value::Float(2.0));
    }

    #[test]
    fn plan_join_with_on() {
        let out = run(
            "SELECT s.session_id, c.state FROM sessions s JOIN cities c ON s.city = c.name \
             WHERE c.state = 'CA' ORDER BY s.session_id",
        );
        assert_eq!(out.len(), 6);
        assert_eq!(out.rows()[0].values[1], Value::str("CA"));
    }

    #[test]
    fn plan_comma_join_equijoin_extraction() {
        let c = catalog();
        let r = FunctionRegistry::with_builtins();
        let pq = plan_sql(
            "SELECT s.session_id FROM sessions s, cities c WHERE s.city = c.name",
            &c,
            &r,
        )
        .unwrap();
        // Must be a hash join, not a cross join + filter.
        let mut saw_hash_join = false;
        pq.plan.visit(&mut |p| {
            if let Plan::Join { left_keys, .. } = p {
                if !left_keys.is_empty() {
                    saw_hash_join = true;
                }
            }
        });
        assert!(saw_hash_join, "{}", pq.plan.explain());
    }

    #[test]
    fn plan_in_subquery_semijoin() {
        let out = run("SELECT session_id FROM sessions WHERE city IN \
             (SELECT name FROM cities WHERE state = 'NY')");
        assert_eq!(out.len(), 0);
        let out = run("SELECT session_id FROM sessions WHERE city IN \
             (SELECT name FROM cities WHERE state = 'CA')");
        assert_eq!(out.len(), 6);
    }

    #[test]
    fn plan_having_with_subquery() {
        // Cities whose average play time exceeds the global average.
        let out = run("SELECT city, AVG(play_time) FROM sessions GROUP BY city \
             HAVING AVG(play_time) > (SELECT AVG(play_time) FROM sessions)");
        // global avg = 301.83; SF avg = 227, LA avg = 376.67 → only LA.
        assert_eq!(out.len(), 1);
        assert_eq!(out.rows()[0].values[0], Value::str("LA"));
    }

    #[test]
    fn plan_expression_over_aggregates() {
        let out = run("SELECT SUM(play_time) / COUNT(*) FROM sessions");
        let v = out.rows()[0].values[0].as_f64().unwrap();
        let expect = (238.0 + 135.0 + 617.0 + 194.0 + 308.0 + 319.0) / 6.0;
        assert!((v - expect).abs() < 1e-9);
    }

    #[test]
    fn plan_case_when_inside_aggregate() {
        let out = run("SELECT SUM(CASE WHEN city = 'SF' THEN 1 ELSE 0 END) FROM sessions");
        assert_eq!(out.rows()[0].values[0], Value::Float(3.0));
    }

    #[test]
    fn plan_udf_in_projection() {
        let out = run("SELECT SQRT(play_time * play_time) AS p FROM sessions WHERE session_id = 1");
        assert_eq!(out.rows()[0].values[0], Value::Float(238.0));
    }

    #[test]
    fn plan_order_by_limit() {
        let out = run("SELECT session_id FROM sessions ORDER BY play_time DESC LIMIT 2");
        assert_eq!(out.len(), 2);
        assert_eq!(out.rows()[0].values[0], Value::Int(3));
    }

    #[test]
    fn plan_union_all() {
        let out = run("SELECT session_id FROM sessions WHERE city = 'SF' \
             UNION ALL SELECT session_id FROM sessions WHERE city = 'LA'");
        assert_eq!(out.len(), 6);
    }

    #[test]
    fn error_on_unknown_table() {
        let c = catalog();
        let r = FunctionRegistry::with_builtins();
        assert!(matches!(
            plan_sql("SELECT x FROM nope", &c, &r),
            Err(PlanError::Catalog(_))
        ));
    }

    #[test]
    fn error_on_unknown_column() {
        let c = catalog();
        let r = FunctionRegistry::with_builtins();
        assert!(matches!(
            plan_sql("SELECT missing_col FROM sessions", &c, &r),
            Err(PlanError::Schema(_))
        ));
    }

    #[test]
    fn error_on_multirow_uncorrelated_scalar_subquery() {
        let c = catalog();
        let r = FunctionRegistry::with_builtins();
        let e = plan_sql(
            "SELECT session_id FROM sessions WHERE buffer_time > (SELECT buffer_time FROM sessions)",
            &c,
            &r,
        );
        assert!(matches!(e, Err(PlanError::Unsupported(_))));
    }

    #[test]
    fn group_by_alias_resolves() {
        let out = run("SELECT city AS c, COUNT(*) FROM sessions GROUP BY c ORDER BY c");
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn wildcard_expansion() {
        let out = run("SELECT * FROM sessions WHERE session_id = 1");
        assert_eq!(out.schema().len(), 4);
    }
}
