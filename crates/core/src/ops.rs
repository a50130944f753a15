//! Online operators: the delta-update algorithm (§4.2) with tuple-
//! uncertainty partitioning (§5) and lazy lineage evaluation (§6).
//!
//! Operators form a tree mirroring the logical plan. Each batch, the driver
//! calls [`OnlineOp::process`] on the root; operators pull from children and
//! emit [`BatchData`] on the dual certain/uncertain channels. Stateful
//! operators (SELECT over uncertain predicates, JOIN, semi-join, AGGREGATE)
//! own exactly the states prescribed by §4.2/§5.2, and the whole tree is
//! `Clone` so the driver can checkpoint it for §5.1 failure recovery.

use crate::channel::{BatchData, ORow};
use crate::classify::{classify, collect_refs, Decision};
use crate::ops_agg::AggregateOp;
use crate::ops_join::{JoinOp, SemiJoinOp};
use crate::registry::AggRegistry;
use iolap_bootstrap::poisson::draw_row_into;
use iolap_bootstrap::RangeOutcome;
use iolap_engine::expr::{compare, truthy};
use iolap_engine::{EngineError, EvalContext, Expr, RefMode};
use iolap_relation::{Relation, Schema, Value};
use std::collections::hash_map::DefaultHasher;
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::Arc;

/// Per-batch instrumentation (drives Figures 8(e,f), 9(a–c), 10(c,d)).
#[derive(Clone, Debug, Default)]
pub struct BatchStats {
    /// Tuples re-evaluated this batch: non-deterministic-set rows plus
    /// uncertain-channel rows reprocessed downstream.
    pub recomputed_tuples: usize,
    /// Bytes "shipped": rows consumed by shuffle-boundary operators (joins,
    /// aggregates) plus registry broadcasts.
    pub shipped_bytes: usize,
    /// Range-integrity failures observed this batch.
    pub failures: usize,
}

/// Mutable context threaded through one batch's processing.
pub struct BatchCtx<'a> {
    /// The shared aggregate registry (lazy-evaluation broadcast table).
    pub registry: &'a mut AggRegistry,
    /// Current batch index (0-based).
    pub batch_index: usize,
    /// Result-scaling multiplicity `m_i = |D|/|D_i|` (§2).
    pub scale: f64,
    /// Variation-range slack `ε`.
    pub slack: f64,
    /// Bootstrap trial count.
    pub trials: usize,
    /// OPT1: tuple-uncertainty partitioning enabled.
    pub opt1: bool,
    /// OPT2: lineage propagation + lazy evaluation enabled.
    pub opt2: bool,
    /// True on the final batch (stream completes).
    pub last_batch: bool,
    /// This batch's delta of the streamed relation.
    pub stream_delta: &'a Relation,
    /// Name of the streamed relation (lowercase).
    pub stream_table: &'a str,
    /// Catalog for dimension scans.
    pub catalog: &'a iolap_relation::Catalog,
    /// Seed for bootstrap draws.
    pub seed: u64,
    /// The driver's memo of weights already drawn for streamed rows; every
    /// streamed scan consults it before drawing.
    pub weight_memo: &'a mut WeightMemo,
    /// Shard pool for scale-out fold dispatch; `None` (the production
    /// default) folds every partition in-process. The partition-stable
    /// grid ([`crate::shard`]) keeps results bit-identical either way.
    pub shards: Option<&'a dyn crate::shard::ShardExec>,
    /// Instrumentation.
    pub stats: BatchStats,
    /// Named per-operator counters and spans for this batch (see
    /// [`crate::metrics`] for the naming convention).
    pub metrics: crate::metrics::Metrics,
    /// Range outcomes collected from aggregate publications, tagged with
    /// the attribute they belong to.
    pub outcomes: Vec<(iolap_relation::AggRef, RangeOutcome)>,
    /// Fault-injection hooks; `None` (the production default) unless the
    /// driver's config carries a `FaultPlan`.
    pub faults: Option<&'a crate::faults::FaultInjector>,
    /// Causal trace journal; `None` (the production default) unless the
    /// driver's config enables a [`crate::trace::TraceMode`]. Same gating
    /// discipline as `faults`: disabled cost is one pointer check per
    /// operator call.
    pub trace: Option<&'a crate::trace::Tracer>,
    /// Innermost open trace span (the parent for new operator spans);
    /// meaningless when `trace` is `None`.
    pub cur_span: crate::trace::SpanId,
}

/// Handle for an open operator trace span; close with
/// [`BatchCtx::close_op`]. `Copy` and inert when tracing is off.
#[derive(Clone, Copy, Debug)]
pub struct SpanScope {
    id: crate::trace::SpanId,
    prev: crate::trace::SpanId,
    name: &'static str,
}

impl SpanScope {
    /// The no-op scope returned when tracing is disabled.
    pub const NONE: SpanScope = SpanScope {
        id: crate::trace::SpanId::NONE,
        prev: crate::trace::SpanId::NONE,
        name: "",
    };
}

impl BatchCtx<'_> {
    /// Evaluation context resolving lineage against the registry.
    pub fn eval(&self) -> EvalContext<'_> {
        EvalContext::with_resolver(self.registry)
    }

    /// Open an operator span under the innermost open span. Every
    /// `OnlineOp::process` implementation must call this on entry (lint
    /// L005) and pair it with [`BatchCtx::close_op`] on its success
    /// paths; a span left open by an error propagation shows up in the
    /// flight recorder as the operator that was in flight when the batch
    /// died — which is the point.
    #[inline]
    pub fn op_span(&mut self, name: &'static str) -> SpanScope {
        match self.trace {
            Some(t) => {
                let prev = self.cur_span;
                let id = t.begin(name, self.batch_index, prev);
                self.cur_span = id;
                SpanScope { id, prev, name }
            }
            None => SpanScope::NONE,
        }
    }

    /// Close an operator span with payload count `n` (rows produced).
    #[inline]
    pub fn close_op(&mut self, scope: SpanScope, n: u64) {
        if let Some(t) = self.trace {
            if scope.id != crate::trace::SpanId::NONE {
                t.end(scope.name, self.batch_index, scope.id, scope.prev, n);
                self.cur_span = scope.prev;
            }
        }
    }

    /// Record a point event under the innermost open span.
    #[inline]
    pub fn trace_instant(&mut self, name: &'static str, n: u64, detail: &str) {
        if let Some(t) = self.trace {
            t.instant(name, self.batch_index, self.cur_span, n, detail);
        }
    }
}

/// An online operator tree node.
#[derive(Clone, Debug)]
pub enum OnlineOp {
    /// Base-table scan (streamed or dimension).
    Scan(ScanOp),
    /// Filter with optional uncertainty partitioning.
    Select(SelectOp),
    /// Projection with lineage-preserving cell modes.
    Project(ProjectOp),
    /// Symmetric delta hash join.
    Join(JoinOp),
    /// Semi-join for `IN (SELECT …)`.
    SemiJoin(SemiJoinOp),
    /// `UNION ALL` of children.
    Union(UnionOp),
    /// Grouped aggregation with sketch state and registry publication.
    Aggregate(AggregateOp),
}

impl OnlineOp {
    /// Process one batch.
    pub fn process(&mut self, ctx: &mut BatchCtx<'_>) -> Result<BatchData, EngineError> {
        match self {
            OnlineOp::Scan(op) => op.process(ctx),
            OnlineOp::Select(op) => op.process(ctx),
            OnlineOp::Project(op) => op.process(ctx),
            OnlineOp::Join(op) => op.process(ctx),
            OnlineOp::SemiJoin(op) => op.process(ctx),
            OnlineOp::Union(op) => op.process(ctx),
            OnlineOp::Aggregate(op) => op.process(ctx),
        }
    }

    /// Rough state footprint: `(join_bytes, other_bytes)`, recursive
    /// (Fig 9(b)/10(c) accounting).
    pub fn state_bytes(&self) -> (usize, usize) {
        let own = match self {
            OnlineOp::Scan(_) => (0, 0),
            OnlineOp::Select(op) => (0, op.state_bytes()),
            OnlineOp::Project(_) => (0, 0),
            OnlineOp::Join(op) => (op.state_bytes(), 0),
            OnlineOp::SemiJoin(op) => (op.state_bytes(), 0),
            OnlineOp::Union(_) => (0, 0),
            OnlineOp::Aggregate(op) => (0, op.state_bytes()),
        };
        let mut total = own;
        for c in self.children() {
            let (j, o) = c.state_bytes();
            total.0 += j;
            total.1 += o;
        }
        total
    }

    /// EXPLAIN-style rendering of the online operator tree, with the
    /// §4.2/§5.2 state annotations that distinguish it from the logical
    /// plan (uncertain predicates, streamed scans).
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(&mut out, 0);
        out
    }

    fn explain_into(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        let line = match self {
            OnlineOp::Scan(op) => format!(
                "OnlineScan {}{}",
                op.table,
                if op.streamed { " [streamed]" } else { "" }
            ),
            OnlineOp::Select(op) => format!(
                "OnlineSelect {:?}{}",
                op.predicate,
                if op.uncertain_pred {
                    " [uncertainty-partitioned]"
                } else {
                    ""
                }
            ),
            OnlineOp::Project(op) => {
                let modes: Vec<&str> = op
                    .modes
                    .iter()
                    .map(|m| match m {
                        ProjMode::Plain(_) => "plain",
                        ProjMode::PassCell(_) => "ref",
                        ProjMode::Thunk(_) => "thunk",
                    })
                    .collect();
                format!("OnlineProject [{}]", modes.join(", "))
            }
            OnlineOp::Join(op) => {
                if op.left_keys.is_empty() {
                    "OnlineCrossJoin".to_string()
                } else {
                    format!("OnlineHashJoin {:?} = {:?}", op.left_keys, op.right_keys)
                }
            }
            OnlineOp::SemiJoin(op) => {
                format!("OnlineSemiJoin {:?} IN {:?}", op.left_keys, op.right_keys)
            }
            OnlineOp::Union(_) => "OnlineUnionAll".to_string(),
            OnlineOp::Aggregate(op) => format!(
                "OnlineAggregate[id={}] group={:?}{}",
                op.agg_id,
                op.group_cols,
                if op.arg_uncertain.iter().any(|b| *b) {
                    " [unsketchable args]"
                } else {
                    ""
                }
            ),
        };
        out.push_str(&pad);
        out.push_str(&line);
        out.push('\n');
        for c in self.children() {
            c.explain_into(out, indent + 1);
        }
    }

    /// Child operators, in plan order (introspection hook for the static
    /// plan verifier and for `explain`).
    pub fn children(&self) -> Vec<&OnlineOp> {
        match self {
            OnlineOp::Scan(_) => vec![],
            OnlineOp::Select(op) => vec![&op.child],
            OnlineOp::Project(op) => vec![&op.child],
            OnlineOp::Join(op) => vec![&op.left, &op.right],
            OnlineOp::SemiJoin(op) => vec![&op.left, &op.right],
            OnlineOp::Union(op) => op.children.iter().collect(),
            OnlineOp::Aggregate(op) => vec![&op.child],
        }
    }

    /// Short node label used in verifier diagnostics' operator paths, e.g.
    /// `Aggregate[id=0]` or `Scan(sessions)`.
    pub fn kind(&self) -> String {
        match self {
            OnlineOp::Scan(op) => format!("Scan({})", op.table),
            OnlineOp::Select(_) => "Select".to_string(),
            OnlineOp::Project(_) => "Project".to_string(),
            OnlineOp::Join(_) => "Join".to_string(),
            OnlineOp::SemiJoin(_) => "SemiJoin".to_string(),
            OnlineOp::Union(_) => "Union".to_string(),
            OnlineOp::Aggregate(op) => format!("Aggregate[id={}]", op.agg_id),
        }
    }

    /// Names of the state components this node snapshots into checkpoints
    /// for §5.1 failure recovery, as *configured* (non-recursive). Empty for
    /// operators configured stateless. The plan verifier cross-checks this
    /// against the states §4.2/§5.2 *require*: PROJECT and UNION must be ∅,
    /// while streamed scans, uncertainty-partitioned selects, joins and
    /// aggregates must all report their replay-critical state here.
    pub fn checkpoint_state(&self) -> Vec<&'static str> {
        match self {
            OnlineOp::Scan(op) => {
                if op.streamed {
                    vec!["scan.cursor"]
                } else {
                    vec!["scan.dimension_done"]
                }
            }
            OnlineOp::Select(op) => {
                if op.uncertain_pred {
                    vec!["select.nondeterministic_set"]
                } else {
                    vec![]
                }
            }
            OnlineOp::Project(_) => vec![],
            OnlineOp::Join(_) => vec!["join.left_accumulator", "join.right_accumulator"],
            OnlineOp::SemiJoin(_) => vec!["semijoin.certain_keys", "semijoin.pending"],
            OnlineOp::Union(_) => vec![],
            OnlineOp::Aggregate(_) => {
                vec!["agg.sketch", "agg.unsketchable_rows", "agg.emitted_certain"]
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Scan
// ---------------------------------------------------------------------------

/// Salt mixed into the bootstrap seed for a streamed table's draws.
///
/// `DefaultHasher`'s output is not guaranteed stable across toolchains, and
/// every draw, golden and vetted benchmark seed depends on this value; a
/// unit test pins it so that a toolchain which moves it fails loudly.
fn table_salt(table: &str) -> u64 {
    let mut h = DefaultHasher::new();
    table.hash(&mut h);
    h.finish()
}

/// Bootstrap weights already drawn for streamed rows, by stream-row
/// ordinal: one `Arc` per row, shared with the rows that carry it.
///
/// A cache, not state. Draws are a pure function of `(stream, ordinal)`
/// (the stream, the table and the trial count are fixed for a driver), so
/// a miss draws the same bits again and nothing here is checkpointed. It
/// holds a contiguous run of ordinals `first..first + rows.len()`: scans
/// append as the stream advances, and the driver forgets the prefix that
/// no feasible recovery can replay (a fallback replay that scans it
/// anyway restarts the run).
#[derive(Debug, Default)]
pub struct WeightMemo {
    first: u64,
    rows: VecDeque<Arc<[f64]>>,
}

impl WeightMemo {
    /// Ordinals held: `first..end`.
    pub(crate) fn held(&self) -> Range<u64> {
        self.first..self.first + self.rows.len() as u64
    }

    /// Drop every row below `ordinal`.
    pub(crate) fn forget_before(&mut self, ordinal: u64) {
        let n = (ordinal.saturating_sub(self.first) as usize).min(self.rows.len());
        self.rows.drain(..n);
        self.first = self.first.max(ordinal);
    }

    /// Weights of the `n` stream rows from ordinal `first` on, in order:
    /// the memo's `Arc` where it holds the row, a fresh draw (memoised)
    /// otherwise. Records drawn and reused row counts, and the time spent
    /// drawing as `scan.weights_ns`.
    fn weights(
        &mut self,
        stream: u64,
        first: u64,
        n: usize,
        trials: usize,
        metrics: &mut crate::metrics::Metrics,
    ) -> Vec<Arc<[f64]>> {
        if first < self.first || first > self.held().end {
            // Outside the run (a fallback replay of a forgotten prefix):
            // restart the run here.
            self.rows.clear();
            self.first = first;
        }
        let end = first + n as u64;
        let reused = end.min(self.held().end) - first;
        let skip = (first - self.first) as usize;
        let mut out: Vec<Arc<[f64]>> = self
            .rows
            .range(skip..skip + reused as usize)
            .cloned()
            .collect();
        let span = crate::metrics::Span::start();
        let mut scratch = vec![0.0; trials];
        for row in first + reused..end {
            draw_row_into(stream, row, &mut scratch);
            let w: Arc<[f64]> = Arc::from(&scratch[..]);
            self.rows.push_back(Arc::clone(&w));
            out.push(w);
        }
        span.stop(metrics, "scan.weights_ns");
        metrics.add("scan.weight_rows_drawn", n as u64 - reused);
        metrics.add("scan.weight_rows_reused", reused);
        out
    }
}

/// Base-table scan.
///
/// Streamed scans emit each mini-batch's rows once on the certain channel —
/// the accumulated sampling function `s(t; i)` is monotone (§4.1), so a seen
/// tuple's multiplicity never changes. Each streamed row gets deterministic
/// Poisson(1) trial weights keyed by `(seed, table, row ordinal)`, so that
/// re-evaluations across batches see identical resamples (and so that two
/// scans of the same table — self-join shaped queries like SBI — resample
/// coherently). The weights come through the driver's [`WeightMemo`], so a
/// second scan of the same rows, or a recovery replay, shares the first
/// scan's draws instead of drawing again.
#[derive(Clone, Debug)]
pub struct ScanOp {
    /// Catalog table name (lowercase).
    pub table: String,
    /// Output schema.
    pub schema: Schema,
    /// Whether this scan streams mini-batches.
    pub streamed: bool,
    rows_emitted: u64,
    dimension_done: bool,
}

impl ScanOp {
    /// New scan operator.
    pub fn new(table: String, schema: Schema, streamed: bool) -> Self {
        ScanOp {
            table: table.to_ascii_lowercase(),
            schema,
            streamed,
            rows_emitted: 0,
            dimension_done: false,
        }
    }

    fn process(&mut self, ctx: &mut BatchCtx<'_>) -> Result<BatchData, EngineError> {
        let sp = ctx.op_span("Scan");
        let mut out = BatchData::empty(self.schema.clone());
        if self.streamed {
            // The memo is keyed by ordinal alone: only the driver's one
            // streamed table is ever scanned as streamed.
            debug_assert_eq!(self.table, ctx.stream_table);
            let rows = ctx.stream_delta.rows();
            let weights = ctx.weight_memo.weights(
                ctx.seed ^ table_salt(&self.table),
                self.rows_emitted,
                rows.len(),
                ctx.trials,
                &mut ctx.metrics,
            );
            self.rows_emitted += rows.len() as u64;
            for (row, w) in rows.iter().zip(weights) {
                out.delta_certain.push(ORow {
                    values: row.values.clone(),
                    mult: row.mult,
                    weights: Some(w),
                });
            }
            out.exhausted = ctx.last_batch;
        } else {
            if !self.dimension_done {
                let rel = ctx.catalog.get(&self.table)?;
                for row in rel.rows() {
                    out.delta_certain.push(ORow {
                        values: row.values.clone(),
                        mult: row.mult,
                        weights: None,
                    });
                }
                self.dimension_done = true;
            }
            out.exhausted = true;
        }
        ctx.metrics.add("scan.rows", out.delta_certain.len() as u64);
        ctx.close_op(sp, out.delta_certain.len() as u64);
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// Select
// ---------------------------------------------------------------------------

/// Filter operator.
///
/// With a deterministic predicate this is a plain filter on both channels.
/// With a predicate over uncertain attributes it implements §5.2: incoming
/// certain rows are classified against variation ranges into the
/// near-deterministic sets (decided forever: emitted once or dropped) and
/// the non-deterministic set `U_i` (saved in state, re-evaluated every
/// batch, emitted on the uncertain channel while currently satisfied).
/// Ranges shrink monotonically, so saved rows are *promoted* out of `U` over
/// time — the sub-linear recomputation of Fig 8(e,f).
#[derive(Clone, Debug)]
pub struct SelectOp {
    /// Input operator.
    pub child: Box<OnlineOp>,
    /// Compiled predicate.
    pub predicate: Expr,
    /// Compile-time: predicate reads uncertain attributes (§4.1 tagging).
    pub uncertain_pred: bool,
    state: Vec<ORow>,
}

impl SelectOp {
    /// New select operator.
    pub fn new(child: OnlineOp, predicate: Expr, uncertain_pred: bool) -> Self {
        SelectOp {
            child: Box::new(child),
            predicate,
            uncertain_pred,
            state: Vec::new(),
        }
    }

    fn state_bytes(&self) -> usize {
        self.state.iter().map(ORow::approx_bytes).sum()
    }

    fn process(&mut self, ctx: &mut BatchCtx<'_>) -> Result<BatchData, EngineError> {
        let sp = ctx.op_span("Select");
        let input = self.child.process(ctx)?;
        let mut out = BatchData::empty(input.schema.clone());

        if !self.uncertain_pred {
            let filter_span = crate::metrics::Span::start();
            let ectx = ctx.eval();
            filter_channel(
                &self.predicate,
                input.delta_certain,
                &mut out.delta_certain,
                &ectx,
            )?;
            filter_channel(&self.predicate, input.uncertain, &mut out.uncertain, &ectx)?;
            filter_span.stop(&mut ctx.metrics, "select.filter_ns");
            out.exhausted = input.exhausted;
            ctx.close_op(sp, (out.delta_certain.len() + out.uncertain.len()) as u64);
            return Ok(out);
        }

        // Uncertain predicate: classify fresh certain rows.
        let classify_span = crate::metrics::Span::start();
        let fresh = input.delta_certain.len();
        for row in input.delta_certain {
            let decision = if ctx.opt1 {
                classify(&self.predicate, &row.to_row(), ctx.registry)
            } else {
                Decision::Uncertain
            };
            if decision != Decision::Uncertain {
                mark_pruning_refs(&self.predicate, &row, ctx);
            }
            match decision {
                Decision::AlwaysTrue => out.delta_certain.push(row),
                Decision::AlwaysFalse => {}
                Decision::Uncertain => self.state.push(row),
            }
        }

        // Re-evaluate the saved non-deterministic set — THE recomputation
        // the optimizations minimize.
        ctx.stats.recomputed_tuples += self.state.len();
        if ctx.opt1 {
            // Every fresh row and every saved row is checked against the
            // variation ranges once this batch.
            ctx.metrics
                .add("range.checks", (fresh + self.state.len()) as u64);
        }
        if !ctx.opt2 {
            // OPT2 ablation: without lineage + lazy evaluation, updating an
            // uncertain attribute means regenerating the tuple (§4.3:
            // "deleting the old tuple followed by inserting a tuple …
            // generating a new tuple requires going through the entire
            // plan"). We charge that cost by materializing a fresh copy of
            // every saved row with all lineage cells resolved.
            let regenerated: Vec<ORow> = self
                .state
                .iter()
                .map(|row| regenerate_row(row, ctx.registry))
                .collect();
            drop(regenerated);
        }
        let mut promoted = Vec::new();
        let mut current = Vec::new();
        let mut decided = Vec::new();
        self.state.retain(|row| {
            let decision = if ctx.opt1 {
                classify(&self.predicate, &row.to_row(), ctx.registry)
            } else {
                Decision::Uncertain
            };
            match decision {
                Decision::AlwaysTrue => {
                    decided.push(row.clone());
                    promoted.push(row.clone());
                    false
                }
                Decision::AlwaysFalse => {
                    decided.push(row.clone());
                    false
                }
                Decision::Uncertain => {
                    current.push(row.clone());
                    true
                }
            }
        });
        for row in &decided {
            mark_pruning_refs(&self.predicate, row, ctx);
        }
        let promoted_count = promoted.len();
        let dropped = decided.len() - promoted_count;
        out.delta_certain.extend(promoted);
        // Uncertain-channel input rows are counted where they are saved
        // (upstream state); filtering them here is derived work.
        let ectx = ctx.eval();
        for row in current {
            if self.predicate.eval_predicate(&row.to_row(), &ectx)? {
                out.uncertain.push(row);
            }
        }
        for row in input.uncertain {
            if self.predicate.eval_predicate(&row.to_row(), &ectx)? {
                out.uncertain.push(row);
            }
        }

        ctx.metrics.add("select.fresh_rows", fresh as u64);
        ctx.metrics.add("select.promoted", promoted_count as u64);
        ctx.metrics.add("select.dropped", dropped as u64);
        ctx.metrics
            .add("select.nondet_rows", self.state.len() as u64);
        classify_span.stop(&mut ctx.metrics, "select.classify_ns");
        if ctx.opt1 {
            ctx.trace_instant("range.check", (fresh + self.state.len()) as u64, "");
        }

        out.exhausted = input.exhausted && self.state.is_empty() && out.uncertain.is_empty();
        ctx.close_op(sp, (out.delta_certain.len() + out.uncertain.len()) as u64);
        Ok(out)
    }
}

/// Filter one channel of a deterministic SELECT. A `Col ϑ Lit` / `Lit ϑ
/// Col` predicate compares the cell in place with [`compare`] — what
/// `Expr::Cmp` evaluates — and skips the expression walk; a lineage cell,
/// and every row under any other predicate shape, takes `eval_predicate`.
fn filter_channel(
    predicate: &Expr,
    rows: Vec<ORow>,
    out: &mut Vec<ORow>,
    ectx: &EvalContext<'_>,
) -> Result<(), EngineError> {
    // (column, operator, literal, literal on the left)
    let cell_cmp = match predicate {
        Expr::Cmp { op, left, right } => match (left.as_ref(), right.as_ref()) {
            (Expr::Col(i), Expr::Lit(v)) => Some((*i, *op, v, false)),
            (Expr::Lit(v), Expr::Col(i)) => Some((*i, *op, v, true)),
            _ => None,
        },
        _ => None,
    };
    for row in rows {
        let keep = match cell_cmp {
            Some((col, op, lit, lit_left))
                if !matches!(row.values[col], Value::Ref(_) | Value::Pending(_)) =>
            {
                let cell = &row.values[col];
                let (l, r) = if lit_left { (lit, cell) } else { (cell, lit) };
                truthy(&compare(op, l, r))
            }
            _ => predicate.eval_predicate(&row.to_row(), ectx)?,
        };
        if keep {
            out.push(row);
        }
    }
    Ok(())
}

/// Record in the registry every lineage ref a decisive classification
/// depended on (gates failure recovery, §5.1).
fn mark_pruning_refs(predicate: &Expr, row: &ORow, ctx: &mut BatchCtx<'_>) {
    let mut refs = Vec::new();
    collect_refs(predicate, &row.to_row(), &mut refs);
    for r in refs {
        ctx.registry.mark_used(r, ctx.batch_index);
    }
}

/// Materialize a fresh copy of a row with every lineage cell resolved to its
/// current value (OPT2-off cost model; also used by the sink).
pub fn regenerate_row(row: &ORow, registry: &AggRegistry) -> ORow {
    let ctx = EvalContext::with_resolver(registry).with_mode(RefMode::Current);
    let values: Vec<Value> = row
        .values
        .iter()
        .map(|v| match v {
            Value::Ref(_) | Value::Pending(_) => {
                let probe = iolap_relation::Row {
                    values: vec![v.clone()].into(),
                    mult: 1.0,
                };
                Expr::Col(0).eval(&probe, &ctx).unwrap_or(Value::Null)
            }
            other => other.clone(),
        })
        .collect();
    ORow {
        values: values.into(),
        mult: row.mult,
        weights: row.weights.clone(),
    }
}

// ---------------------------------------------------------------------------
// Project
// ---------------------------------------------------------------------------

/// How one projected column is produced (compile-time, from §4.1 tags).
#[derive(Clone, Debug)]
pub enum ProjMode {
    /// Deterministic expression: evaluate eagerly.
    Plain(Expr),
    /// Bare reference to an uncertain column: copy the lineage cell.
    PassCell(usize),
    /// Computation over uncertain columns: emit a folded-lineage thunk
    /// (§6.1) so consumers evaluate lazily.
    Thunk(Arc<Expr>),
}

/// Projection operator. Stateless (§4.2: "the operator states for PROJECT
/// and UNION are always ∅").
#[derive(Clone, Debug)]
pub struct ProjectOp {
    /// Input operator.
    pub child: Box<OnlineOp>,
    /// Per-output-column production modes.
    pub modes: Vec<ProjMode>,
    /// Output schema.
    pub schema: Schema,
}

impl ProjectOp {
    /// New projection.
    pub fn new(child: OnlineOp, modes: Vec<ProjMode>, schema: Schema) -> Self {
        ProjectOp {
            child: Box::new(child),
            modes,
            schema,
        }
    }

    fn project_row(&self, row: &ORow, ctx: &BatchCtx<'_>) -> Result<ORow, EngineError> {
        let r = row.to_row();
        let mut values = Vec::with_capacity(self.modes.len());
        for mode in &self.modes {
            let v = match mode {
                ProjMode::Plain(e) => e.eval(&r, &ctx.eval())?,
                ProjMode::PassCell(i) => row.values[*i].clone(),
                ProjMode::Thunk(e) => AggRegistry::make_thunk(e, row),
            };
            values.push(v);
        }
        Ok(ORow {
            values: values.into(),
            mult: row.mult,
            weights: row.weights.clone(),
        })
    }

    fn process(&mut self, ctx: &mut BatchCtx<'_>) -> Result<BatchData, EngineError> {
        let sp = ctx.op_span("Project");
        let input = self.child.process(ctx)?;
        let rows = input.delta_certain.len() + input.uncertain.len();
        let mut out = BatchData::empty(self.schema.clone());
        for row in &input.delta_certain {
            out.delta_certain.push(self.project_row(row, ctx)?);
        }
        for row in &input.uncertain {
            out.uncertain.push(self.project_row(row, ctx)?);
        }
        ctx.metrics.add("project.rows", rows as u64);
        out.exhausted = input.exhausted;
        ctx.close_op(sp, rows as u64);
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// Union
// ---------------------------------------------------------------------------

/// `UNION ALL`: concatenates children's channels. Stateless.
#[derive(Clone, Debug)]
pub struct UnionOp {
    /// Input operators.
    pub children: Vec<OnlineOp>,
}

impl UnionOp {
    /// New union.
    pub fn new(children: Vec<OnlineOp>) -> Self {
        UnionOp { children }
    }

    fn process(&mut self, ctx: &mut BatchCtx<'_>) -> Result<BatchData, EngineError> {
        let sp = ctx.op_span("Union");
        let mut outputs = Vec::with_capacity(self.children.len());
        for c in &mut self.children {
            outputs.push(c.process(ctx)?);
        }
        let schema = outputs[0].schema.clone();
        let mut out = BatchData::empty(schema);
        out.exhausted = true;
        for o in outputs {
            out.delta_certain.extend(o.delta_certain);
            out.uncertain.extend(o.uncertain);
            out.exhausted &= o.exhausted;
        }
        ctx.close_op(sp, (out.delta_certain.len() + out.uncertain.len()) as u64);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metrics;
    use iolap_bootstrap::trial_weights;

    /// Every draw, golden and vetted benchmark seed hangs off these two
    /// values. If a toolchain moves `DefaultHasher`, this fails instead of
    /// the stream moving silently; replacing the hash is ROADMAP item
    /// 2(iii), which moves the stream on purpose.
    #[test]
    fn table_salt_is_pinned() {
        assert_eq!(table_salt("lineorder"), 0x3b7c_e8f6_727a_2cb4);
        assert_eq!(table_salt("sessions"), 0x4ce4_4b52_cdaf_5d43);
    }

    fn weights(memo: &mut WeightMemo, first: u64, n: usize, m: &mut Metrics) -> Vec<Arc<[f64]>> {
        memo.weights(9, first, n, 7, m)
    }

    #[test]
    fn memo_reuses_held_rows_and_draws_the_same_bits_otherwise() {
        let mut memo = WeightMemo::default();
        let mut m = Metrics::new();
        let a = weights(&mut memo, 0, 4, &mut m);
        assert_eq!(memo.held(), 0..4);
        // A second scan of the same rows, extended by two: four shared
        // `Arc`s, two fresh draws.
        let b = weights(&mut memo, 0, 6, &mut m);
        assert_eq!(memo.held(), 0..6);
        for (x, y) in a.iter().zip(&b) {
            assert!(Arc::ptr_eq(x, y));
        }
        assert_eq!(m.get("scan.weight_rows_drawn"), 6);
        assert_eq!(m.get("scan.weight_rows_reused"), 4);
        for (row, w) in b.iter().enumerate() {
            assert_eq!(&w[..], &trial_weights(9, row as u64, 7)[..]);
        }
        // A scan from before the run (forgotten rows) draws them again,
        // bit for bit, and restarts the run there.
        memo.forget_before(3);
        assert_eq!(memo.held(), 3..6);
        let c = weights(&mut memo, 1, 4, &mut m);
        assert_eq!(memo.held(), 1..5);
        for (x, y) in c.iter().zip(&b[1..]) {
            assert!(!Arc::ptr_eq(x, y));
            assert_eq!(x, y);
        }
        // Forgetting past the end, then scanning on past a gap, restarts
        // the run where the scan starts.
        memo.forget_before(8);
        assert_eq!(memo.held(), 8..8);
        weights(&mut memo, 10, 2, &mut m);
        assert_eq!(memo.held(), 10..12);
    }

    use iolap_engine::CmpOp;
    use iolap_relation::{AggRef, Catalog, DataType};
    use proptest::prelude::*;

    /// A cell or literal for the filter property: NULL, NaN, ±0.0, mixed
    /// Int/Float, strings, bools, and lineage refs — two that resolve
    /// through the test registry and one to a group never published.
    fn filter_value() -> BoxedStrategy<Value> {
        let lineage = |agg, column| {
            Value::Ref(AggRef {
                agg,
                column,
                key: Arc::from(Vec::new()),
            })
        };
        prop_oneof![
            2 => Just(Value::Null),
            1 => Just(Value::Float(f64::NAN)),
            1 => Just(Value::Float(0.0)),
            1 => Just(Value::Float(-0.0)),
            3 => (-3i64..3).prop_map(Value::Int),
            3 => (-6i64..6).prop_map(|i| Value::Float(i as f64 * 0.5)),
            2 => (0usize..3).prop_map(|i| Value::str(["a", "b", ""][i])),
            2 => any::<bool>().prop_map(Value::Bool),
            2 => (0u16..3).prop_map(move |c| match c {
                2 => lineage(9, 0),
                c => lineage(0, c),
            }),
        ]
        .boxed()
    }

    /// Run a deterministic `SelectOp` over one streamed batch of `cells`
    /// (column `c`, beside a small Int column `k`) and return the cells
    /// it kept, with the cells `eval_predicate` keeps.
    fn select_vs_eval(pred: Expr, cells: &[Value]) -> (Vec<Value>, Vec<Value>) {
        let mut registry = AggRegistry::new();
        registry.publish(
            0,
            Arc::from(Vec::new()),
            vec![Value::Float(1.5), Value::Int(-1)],
            vec![Arc::from(Vec::new()), Arc::from(Vec::new())],
            0.1,
        );
        let schema = Schema::from_pairs(&[("c", DataType::Float), ("k", DataType::Int)]);
        let delta = Relation::from_values(
            schema.clone(),
            (0i64..)
                .zip(cells)
                .map(|(i, v)| vec![v.clone(), Value::Int(i % 3 - 1)])
                .collect(),
        );
        let scan = OnlineOp::Scan(ScanOp::new("t".into(), schema, true));
        let mut op = SelectOp::new(scan, pred.clone(), false);
        let catalog = Catalog::new();
        let mut memo = WeightMemo::default();
        let mut ctx = BatchCtx {
            registry: &mut registry,
            batch_index: 0,
            scale: 1.0,
            slack: 0.1,
            trials: 2,
            opt1: true,
            opt2: true,
            last_batch: true,
            stream_delta: &delta,
            stream_table: "t",
            catalog: &catalog,
            seed: 7,
            weight_memo: &mut memo,
            shards: None,
            stats: BatchStats::default(),
            metrics: crate::metrics::Metrics::new(),
            outcomes: Vec::new(),
            faults: None,
            trace: None,
            cur_span: crate::trace::SpanId::NONE,
        };
        let out = op.process(&mut ctx).unwrap();
        assert!(out.uncertain.is_empty());
        let kept = out
            .delta_certain
            .iter()
            .map(|r| r.values[0].clone())
            .collect();
        let ectx = EvalContext::with_resolver(&registry);
        let expect = delta
            .rows()
            .iter()
            .filter(|r| pred.eval_predicate(r, &ectx).unwrap())
            .map(|r| r.values[0].clone())
            .collect();
        (kept, expect)
    }

    const CMP_OPS: [CmpOp; 6] = [
        CmpOp::Eq,
        CmpOp::Neq,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];

    proptest! {
        /// The deterministic `SelectOp` keeps exactly the rows
        /// `eval_predicate` keeps, in input order: `Col ϑ Lit` in both
        /// operand orders (cells compared in place; lineage cells resolved
        /// per row) and, as the generic-path control, `Col ϑ Col`.
        #[test]
        fn deterministic_select_matches_eval_predicate(
            cells in prop::collection::vec(filter_value(), 0..24),
            lit in filter_value(),
            op_i in 0usize..6,
            shape in 0u8..3,
        ) {
            let (col, lit) = (Box::new(Expr::Col(0)), Box::new(Expr::Lit(lit)));
            let (left, right) = match shape {
                0 => (col, lit),
                1 => (lit, col),
                _ => (col, Box::new(Expr::Col(1))),
            };
            let pred = Expr::Cmp { op: CMP_OPS[op_i], left, right };
            let (kept, expect) = select_vs_eval(pred, &cells);
            prop_assert_eq!(kept, expect);
        }
    }
}
