//! Exhaustive plan-space model checker.
//!
//! Enumerates every annotated operator tree over a tiny two-table world up
//! to a bounded depth, runs each through the real rewriter and the static
//! plan verifier, and cross-checks the accept/reject decision against a
//! third, independent uncertainty model written directly from the paper's
//! §3.3/§4.1 rules over the abstract grammar (never touching the rewriter's
//! or the verifier's code paths).
//!
//! # The world
//!
//! Two base tables: the streamed fact `s(k Int, v Float)` and the dimension
//! `d(k Int, w Float)`. Terms are built from:
//!
//! * **leaves** — `ScanS` (streamed) and `ScanD`;
//! * **7 unary constructors** — selects over column 0/1, identity and
//!   swapping projections, and COUNT/SUM/AVG grouped by column 0;
//! * **4 join constructors** (hash join and semi-join, keyed on column 0
//!   or 1) × **5 canonical right-hand shapes** (the two scans, SUM-by-key
//!   over each scan, and a filtered streamed scan).
//!
//! Depth counts the left spine: there are `E(1) = 2` leaves and
//! `E(d) = 27·E(d-1)` trees of depth exactly `d`, so depth ≤ 4 enumerates
//! 2 + 54 + 1458 + 39366 = **40 880** plans.
//!
//! # Cell classification
//!
//! For each term the model derives per-column/tuple uncertainty tags and
//! decides validity (join/semi-join keys and group columns must be
//! certain). The rewriter + verifier decide acceptance. The cross-product:
//!
//! * accepted & model-valid & verifier-clean → `ok`;
//! * rejected & model-invalid → `ok` (agreed rejection);
//! * **accepted but model-invalid** → `unsound_accepted` (a soundness hole
//!   — the acceptance criterion is that this set is empty);
//! * **rejected but model-valid** → `sound_rejected` (a completeness gap,
//!   reported but tolerated);
//! * accepted but verifier-diagnosed → `accepted_flagged` (the rewriter
//!   built a plan failing its own verifier — a consistency bug).
//!
//! # Mutation probes
//!
//! Every accepted-and-clean plan is additionally corrupted in up to seven
//! targeted ways (V001/V002/V003/V006/V008 seams plus the sink factor and
//! the root annotation) — each applicable probe must make the verifier
//! report *something*, or the cell is a `missed_mutation` (the verifier has
//! a blind spot the probe just exhibited). V010 is exercised by the
//! spine-select probe; V009's seam (a fast plan coexisting with uncertain
//! arguments) is unreachable through `AggregateOp::new` by construction and
//! is covered by a dedicated mutation test instead.

use crate::verify::verify;
use iolap_core::json::JVal;
use iolap_core::ops::ProjMode;
use iolap_core::{rewrite, OnlineOp, OnlineQuery};
use iolap_engine::{AggCall, AggKind, BuiltinAgg, CmpOp, Expr, Plan, PlannedQuery};
use iolap_relation::{DataType, Schema, Value};
use std::collections::HashSet;

// ---------------------------------------------------------------------------
// Grammar
// ---------------------------------------------------------------------------

/// Unary constructors. Every one consumes and produces a tree whose columns
/// 0 and 1 exist (joins widen, projections narrow back to two).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum UnaryKind {
    /// `σ(col0 > 10)`.
    SelectK,
    /// `σ(col1 > 0.5)`.
    SelectV,
    /// `π(col0, col1)`.
    ProjId,
    /// `π(col1, col0)` — moves an uncertain aggregate column into key
    /// position, the seed of every model-invalid cell.
    ProjSwap,
    /// `γ_{col0}(COUNT(col1))`.
    AggCountByK,
    /// `γ_{col0}(SUM(col1))`.
    AggSumByK,
    /// `γ_{col0}(AVG(col1))`.
    AggAvgByK,
}

/// Join constructors: operator × key column.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum JoinKind {
    JoinK0,
    JoinK1,
    SemiK0,
    SemiK1,
}

/// Canonical right-hand shapes for binary constructors. Fixing the right
/// side to five representative subtrees keeps the space a tractable
/// left-spine enumeration while still covering certain/uncertain and
/// streamed/dimension right inputs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum RightShape {
    ScanS,
    ScanD,
    AggSumScanS,
    AggSumScanD,
    SelectVScanS,
}

impl RightShape {
    fn term(self) -> Term {
        match self {
            RightShape::ScanS => Term::ScanS,
            RightShape::ScanD => Term::ScanD,
            RightShape::AggSumScanS => Term::Unary(UnaryKind::AggSumByK, Box::new(Term::ScanS)),
            RightShape::AggSumScanD => Term::Unary(UnaryKind::AggSumByK, Box::new(Term::ScanD)),
            RightShape::SelectVScanS => Term::Unary(UnaryKind::SelectV, Box::new(Term::ScanS)),
        }
    }
}

/// One abstract plan term.
#[derive(Clone, Debug, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Term {
    ScanS,
    ScanD,
    Unary(UnaryKind, Box<Term>),
    Binary(JoinKind, Box<Term>, RightShape),
}

impl Term {
    /// Compact canonical rendering, e.g. `JoinK0(SelectV(ScanS), AggSumScanS)`.
    pub fn describe(&self) -> String {
        match self {
            Term::ScanS => "ScanS".to_string(),
            Term::ScanD => "ScanD".to_string(),
            Term::Unary(k, c) => format!("{k:?}({})", c.describe()),
            Term::Binary(k, l, r) => format!("{k:?}({}, {r:?})", l.describe()),
        }
    }
}

const UNARIES: [UnaryKind; 7] = [
    UnaryKind::SelectK,
    UnaryKind::SelectV,
    UnaryKind::ProjId,
    UnaryKind::ProjSwap,
    UnaryKind::AggCountByK,
    UnaryKind::AggSumByK,
    UnaryKind::AggAvgByK,
];

const JOINS: [JoinKind; 4] = [
    JoinKind::JoinK0,
    JoinKind::JoinK1,
    JoinKind::SemiK0,
    JoinKind::SemiK1,
];

const SHAPES: [RightShape; 5] = [
    RightShape::ScanS,
    RightShape::ScanD,
    RightShape::AggSumScanS,
    RightShape::AggSumScanD,
    RightShape::SelectVScanS,
];

/// Number of terms of depth exactly `d`: `E(1) = 2`, `E(d) = 27·E(d-1)`.
pub fn cells_at_depth(d: usize) -> usize {
    2 * 27usize.pow(d.saturating_sub(1) as u32)
}

/// All terms up to and including `max_depth`, in deterministic order
/// (depth-major, then constructor order).
pub fn enumerate(max_depth: usize) -> Vec<Term> {
    let mut by_depth: Vec<Vec<Term>> = vec![vec![Term::ScanS, Term::ScanD]];
    for _ in 2..=max_depth {
        let prev = by_depth.last().expect("at least the leaf layer exists");
        let mut next = Vec::with_capacity(prev.len() * 27);
        for t in prev {
            for u in UNARIES {
                next.push(Term::Unary(u, Box::new(t.clone())));
            }
            for j in JOINS {
                for s in SHAPES {
                    next.push(Term::Binary(j, Box::new(t.clone()), s));
                }
            }
        }
        by_depth.push(next);
    }
    by_depth.into_iter().flatten().collect()
}

// ---------------------------------------------------------------------------
// Independent uncertainty model (third implementation)
// ---------------------------------------------------------------------------

/// Model-derived tags: per-column uA and the tuple-level u# (§4.1).
#[derive(Debug)]
struct MTags {
    cols: Vec<bool>,
    tuple: bool,
}

/// Why the model rejects a term (mirrors the §3.3 restrictions).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ModelReject {
    /// Join or semi-join keyed on an uncertain column.
    JoinKey,
    /// Grouping on an uncertain column.
    GroupKey,
}

/// §3.3/§4.1 transfer rules over the abstract grammar, written from the
/// paper: streamed scans produce uncertain tuples; selects over uncertain
/// columns make membership uncertain; aggregates turn input uncertainty
/// into uncertain output values and must group on certain columns; joins
/// must key on certain columns and union their operands' tuple tags.
fn model(term: &Term) -> Result<MTags, ModelReject> {
    match term {
        Term::ScanS => Ok(MTags {
            cols: vec![false, false],
            tuple: true,
        }),
        Term::ScanD => Ok(MTags {
            cols: vec![false, false],
            tuple: false,
        }),
        Term::Unary(k, c) => {
            let t = model(c)?;
            Ok(match k {
                UnaryKind::SelectK => MTags {
                    tuple: t.tuple || t.cols[0],
                    ..t
                },
                UnaryKind::SelectV => MTags {
                    tuple: t.tuple || t.cols[1],
                    ..t
                },
                UnaryKind::ProjId => MTags {
                    cols: vec![t.cols[0], t.cols[1]],
                    tuple: t.tuple,
                },
                UnaryKind::ProjSwap => MTags {
                    cols: vec![t.cols[1], t.cols[0]],
                    tuple: t.tuple,
                },
                UnaryKind::AggCountByK | UnaryKind::AggSumByK | UnaryKind::AggAvgByK => {
                    if t.cols[0] {
                        return Err(ModelReject::GroupKey);
                    }
                    MTags {
                        cols: vec![false, t.tuple || t.cols[1]],
                        tuple: t.tuple,
                    }
                }
            })
        }
        Term::Binary(k, l, r) => {
            let lt = model(l)?;
            let rt = model(&r.term())?;
            let key = match k {
                JoinKind::JoinK0 | JoinKind::SemiK0 => 0,
                JoinKind::JoinK1 | JoinKind::SemiK1 => 1,
            };
            if lt.cols[key] || rt.cols[key] {
                return Err(ModelReject::JoinKey);
            }
            Ok(match k {
                JoinKind::JoinK0 | JoinKind::JoinK1 => {
                    let mut cols = lt.cols;
                    cols.extend(rt.cols);
                    MTags {
                        cols,
                        tuple: lt.tuple || rt.tuple,
                    }
                }
                JoinKind::SemiK0 | JoinKind::SemiK1 => MTags {
                    cols: lt.cols,
                    tuple: lt.tuple || rt.tuple,
                },
            })
        }
    }
}

// ---------------------------------------------------------------------------
// Term → logical plan
// ---------------------------------------------------------------------------

struct Built {
    plan: Plan,
    types: Vec<DataType>,
    names: Vec<String>,
}

fn schema_of(names: &[String], types: &[DataType]) -> Schema {
    let pairs: Vec<(&str, DataType)> = names
        .iter()
        .map(String::as_str)
        .zip(types.iter().copied())
        .collect();
    Schema::from_pairs(&pairs)
}

fn build(term: &Term, next_agg: &mut u32) -> Built {
    match term {
        Term::ScanS => {
            let names = vec!["k".to_string(), "v".to_string()];
            let types = vec![DataType::Int, DataType::Float];
            Built {
                plan: Plan::Scan {
                    table: "s".to_string(),
                    schema: schema_of(&names, &types),
                },
                types,
                names,
            }
        }
        Term::ScanD => {
            let names = vec!["k".to_string(), "w".to_string()];
            let types = vec![DataType::Int, DataType::Float];
            Built {
                plan: Plan::Scan {
                    table: "d".to_string(),
                    schema: schema_of(&names, &types),
                },
                types,
                names,
            }
        }
        Term::Unary(k, c) => {
            let cb = build(c, next_agg);
            match k {
                UnaryKind::SelectK | UnaryKind::SelectV => {
                    let (col, lit) = match k {
                        UnaryKind::SelectK => (0, Value::Int(10)),
                        _ => (1, Value::Float(0.5)),
                    };
                    Built {
                        plan: Plan::Select {
                            input: Box::new(cb.plan),
                            predicate: Expr::Cmp {
                                op: CmpOp::Gt,
                                left: Box::new(Expr::Col(col)),
                                right: Box::new(Expr::Lit(lit)),
                            },
                        },
                        types: cb.types,
                        names: cb.names,
                    }
                }
                UnaryKind::ProjId | UnaryKind::ProjSwap => {
                    let (a, b) = match k {
                        UnaryKind::ProjId => (0, 1),
                        _ => (1, 0),
                    };
                    let names = vec!["p0".to_string(), "p1".to_string()];
                    let types = vec![cb.types[a], cb.types[b]];
                    Built {
                        plan: Plan::Project {
                            input: Box::new(cb.plan),
                            exprs: vec![Expr::Col(a), Expr::Col(b)],
                            schema: schema_of(&names, &types),
                        },
                        types,
                        names,
                    }
                }
                UnaryKind::AggCountByK | UnaryKind::AggSumByK | UnaryKind::AggAvgByK => {
                    let (builtin, out) = match k {
                        UnaryKind::AggCountByK => (BuiltinAgg::Count, "cnt"),
                        UnaryKind::AggSumByK => (BuiltinAgg::Sum, "sum"),
                        _ => (BuiltinAgg::Avg, "avg"),
                    };
                    let agg_id = *next_agg;
                    *next_agg += 1;
                    let names = vec!["g0".to_string(), out.to_string()];
                    let types = vec![cb.types[0], DataType::Float];
                    Built {
                        plan: Plan::Aggregate {
                            input: Box::new(cb.plan),
                            group_cols: vec![0],
                            aggs: vec![AggCall {
                                kind: AggKind::Builtin(builtin),
                                input: Expr::Col(1),
                                name: out.to_string(),
                            }],
                            schema: schema_of(&names, &types),
                            agg_id,
                        },
                        types,
                        names,
                    }
                }
            }
        }
        Term::Binary(k, l, r) => {
            let lb = build(l, next_agg);
            let rb = build(&r.term(), next_agg);
            let key = match k {
                JoinKind::JoinK0 | JoinKind::SemiK0 => 0,
                JoinKind::JoinK1 | JoinKind::SemiK1 => 1,
            };
            let keys = (vec![Expr::Col(key)], vec![Expr::Col(key)]);
            match k {
                JoinKind::JoinK0 | JoinKind::JoinK1 => {
                    let mut types = lb.types;
                    types.extend(rb.types);
                    let names: Vec<String> = (0..types.len()).map(|i| format!("j{i}")).collect();
                    Built {
                        plan: Plan::Join {
                            left: Box::new(lb.plan),
                            right: Box::new(rb.plan),
                            left_keys: keys.0,
                            right_keys: keys.1,
                            schema: schema_of(&names, &types),
                        },
                        types,
                        names,
                    }
                }
                JoinKind::SemiK0 | JoinKind::SemiK1 => Built {
                    plan: Plan::SemiJoin {
                        left: Box::new(lb.plan),
                        right: Box::new(rb.plan),
                        left_keys: keys.0,
                        right_keys: keys.1,
                    },
                    types: lb.types,
                    names: lb.names,
                },
            }
        }
    }
}

/// Lower a term to the logical plan the rewriter consumes.
pub fn to_planned(term: &Term) -> PlannedQuery {
    let mut next_agg = 0;
    let b = build(term, &mut next_agg);
    PlannedQuery {
        plan: b.plan,
        output_names: b.names,
    }
}

// ---------------------------------------------------------------------------
// Mutation probes
// ---------------------------------------------------------------------------

fn first_op<'a>(
    root: &'a mut OnlineOp,
    pred: &dyn Fn(&OnlineOp) -> bool,
) -> Option<&'a mut OnlineOp> {
    if pred(root) {
        return Some(root);
    }
    let children: Vec<&mut OnlineOp> = match root {
        OnlineOp::Scan(_) => Vec::new(),
        OnlineOp::Select(s) => vec![s.child.as_mut()],
        OnlineOp::Project(p) => vec![p.child.as_mut()],
        OnlineOp::Join(j) => vec![j.left.as_mut(), j.right.as_mut()],
        OnlineOp::SemiJoin(j) => vec![j.left.as_mut(), j.right.as_mut()],
        OnlineOp::Union(u) => u.children.iter_mut().collect(),
        OnlineOp::Aggregate(a) => vec![a.child.as_mut()],
    };
    for c in children {
        if let Some(found) = first_op(c, pred) {
            return Some(found);
        }
    }
    None
}

/// The probe battery: each returns a corrupted clone of `oq` when its seam
/// exists in the plan, or `None` when inapplicable. Every applicable probe
/// models a real rewriter-bug class and must be caught by [`verify`].
fn probes(oq: &OnlineQuery) -> Vec<(&'static str, OnlineQuery)> {
    let mut out = Vec::new();

    let mut q = oq.clone();
    if let Some(OnlineOp::Select(s)) =
        first_op(&mut q.root, &|op| matches!(op, OnlineOp::Select(_)))
    {
        s.uncertain_pred = !s.uncertain_pred;
        out.push(("select-partitioning-flip", q));
    }

    let mut q = oq.clone();
    if let Some(OnlineOp::Aggregate(a)) = first_op(
        &mut q.root,
        &|op| matches!(op, OnlineOp::Aggregate(a) if !a.arg_uncertain.is_empty()),
    ) {
        a.arg_uncertain[0] = !a.arg_uncertain[0];
        out.push(("agg-arg-uncertain-flip", q));
    }

    let mut q = oq.clone();
    if let Some(OnlineOp::Aggregate(a)) =
        first_op(&mut q.root, &|op| matches!(op, OnlineOp::Aggregate(_)))
    {
        a.input_tuple_uncertain = !a.input_tuple_uncertain;
        out.push(("agg-input-tuple-flip", q));
    }

    let mut q = oq.clone();
    if let Some(OnlineOp::Aggregate(a)) =
        first_op(&mut q.root, &|op| matches!(op, OnlineOp::Aggregate(_)))
    {
        a.scale_stream = !a.scale_stream;
        out.push(("agg-scale-stream-flip", q));
    }

    let mut q = oq.clone();
    if let Some(OnlineOp::Project(p)) = first_op(
        &mut q.root,
        &|op| matches!(op, OnlineOp::Project(p) if !p.modes.is_empty()),
    ) {
        p.modes[0] = match &p.modes[0] {
            ProjMode::Plain(e) => ProjMode::Thunk(std::sync::Arc::new(e.clone())),
            ProjMode::PassCell(i) => ProjMode::Plain(Expr::Col(*i)),
            ProjMode::Thunk(e) => ProjMode::Plain(e.as_ref().clone()),
        };
        out.push(("project-mode-flip", q));
    }

    let mut q = oq.clone();
    q.sink.stream_factor += 1;
    out.push(("sink-stream-factor-bump", q));

    let mut q = oq.clone();
    q.root_annotation.tuple_uncertain = !q.root_annotation.tuple_uncertain;
    out.push(("root-annotation-flip", q));

    out
}

// ---------------------------------------------------------------------------
// The checker
// ---------------------------------------------------------------------------

/// One reported cell (a term whose classification is worth surfacing).
#[derive(Clone, Debug)]
pub struct CellRecord {
    /// Canonical term rendering.
    pub term: String,
    /// What happened (rejection reasons, verifier diagnostics, or the
    /// probe that went uncaught).
    pub detail: String,
}

impl CellRecord {
    /// Machine-readable JSON object for this record.
    pub fn to_json(&self) -> String {
        self.to_jval().render()
    }

    fn to_jval(&self) -> JVal {
        JVal::obj(vec![
            ("term", self.term.as_str().into()),
            ("detail", self.detail.as_str().into()),
        ])
    }
}

/// Full model-checker outcome over one enumeration.
#[derive(Clone, Debug, Default)]
pub struct ModelCheckReport {
    /// Depth bound the enumeration ran to.
    pub depth: usize,
    /// Total cells (terms) enumerated.
    pub cells: usize,
    /// Cells accepted by the rewriter with a clean verifier pass and a
    /// model-valid term.
    pub accepted: usize,
    /// Cells rejected by both the rewriter and the model.
    pub agreed_rejected: usize,
    /// Mutation probes executed over accepted cells.
    pub probes: usize,
    /// Accepted by the rewriter although the model proves the term invalid.
    pub unsound_accepted: Vec<CellRecord>,
    /// Rejected by the rewriter although the model accepts the term.
    pub sound_rejected: Vec<CellRecord>,
    /// Accepted by the rewriter but flagged by its own verifier.
    pub accepted_flagged: Vec<CellRecord>,
    /// Accepted cells where a corruption probe escaped the verifier.
    pub missed_mutations: Vec<CellRecord>,
}

impl ModelCheckReport {
    /// Hard violations: soundness holes, rewriter/verifier inconsistency,
    /// and verifier blind spots. `sound_rejected` cells are reported but
    /// tolerated (conservative rejection loses completeness, not safety).
    pub fn violations(&self) -> usize {
        self.unsound_accepted.len() + self.accepted_flagged.len() + self.missed_mutations.len()
    }

    /// The whole report as one machine-readable JSON object.
    pub fn to_json(&self) -> String {
        let list = |v: &[CellRecord]| JVal::Arr(v.iter().map(CellRecord::to_jval).collect());
        JVal::obj(vec![
            ("depth", self.depth.into()),
            ("cells", self.cells.into()),
            ("accepted", self.accepted.into()),
            ("agreed_rejected", self.agreed_rejected.into()),
            ("probes", self.probes.into()),
            ("violations", self.violations().into()),
            ("unsound_accepted", list(&self.unsound_accepted)),
            ("sound_rejected", list(&self.sound_rejected)),
            ("accepted_flagged", list(&self.accepted_flagged)),
            ("missed_mutations", list(&self.missed_mutations)),
        ])
        .render()
    }
}

/// Run the model checker over every term up to `max_depth`.
pub fn run(max_depth: usize) -> ModelCheckReport {
    let streamed: HashSet<String> = ["s".to_string()].into();
    let mut report = ModelCheckReport {
        depth: max_depth,
        ..ModelCheckReport::default()
    };
    for term in enumerate(max_depth) {
        report.cells += 1;
        let name = term.describe();
        let verdict = model(&term);
        let pq = to_planned(&term);
        match (rewrite(&pq, &streamed), verdict) {
            (Ok(oq), Ok(_)) => {
                let diags = verify(&oq);
                if !diags.is_empty() {
                    let rendered: Vec<String> = diags.iter().map(|d| d.to_string()).collect();
                    report.accepted_flagged.push(CellRecord {
                        term: name,
                        detail: rendered.join("; "),
                    });
                    continue;
                }
                report.accepted += 1;
                for (probe, corrupted) in probes(&oq) {
                    report.probes += 1;
                    if verify(&corrupted).is_empty() {
                        report.missed_mutations.push(CellRecord {
                            term: name.clone(),
                            detail: format!("probe `{probe}` escaped the verifier"),
                        });
                    }
                }
            }
            (Ok(_), Err(why)) => report.unsound_accepted.push(CellRecord {
                term: name,
                detail: format!("model rejects ({why:?}) but the rewriter accepted"),
            }),
            (Err(e), Ok(_)) => report.sound_rejected.push(CellRecord {
                term: name,
                detail: format!("model accepts but the rewriter rejected: {e}"),
            }),
            (Err(_), Err(_)) => report.agreed_rejected += 1,
        }
    }
    report
}

/// Depth of the exhaustive unit test over the plan space (40 880 cells).
pub const FULL_DEPTH: usize = 4;

#[cfg(test)]
mod tests {
    use super::*;
    use iolap_core::RewriteError;

    #[test]
    fn enumeration_matches_the_closed_form() {
        assert_eq!(cells_at_depth(1), 2);
        assert_eq!(cells_at_depth(2), 54);
        assert_eq!(cells_at_depth(3), 1458);
        assert_eq!(cells_at_depth(4), 39366);
        assert_eq!(enumerate(1).len(), 2);
        assert_eq!(enumerate(2).len(), 56);
        assert_eq!(enumerate(3).len(), 1514);
    }

    #[test]
    fn model_and_rewriter_agree_on_an_uncertain_group_key() {
        // SUM over the streamed scan makes column 1 uncertain; the swap
        // moves it into key position; grouping on it must be rejected by
        // both the model and the real annotation pass.
        let term = Term::Unary(
            UnaryKind::AggSumByK,
            Box::new(Term::Unary(
                UnaryKind::ProjSwap,
                Box::new(Term::Unary(UnaryKind::AggSumByK, Box::new(Term::ScanS))),
            )),
        );
        assert_eq!(model(&term).unwrap_err(), ModelReject::GroupKey);
        let streamed: HashSet<String> = ["s".to_string()].into();
        assert!(matches!(
            rewrite(&to_planned(&term), &streamed),
            Err(RewriteError::Annotate(_))
        ));
    }

    #[test]
    fn depth_two_space_is_exhaustively_clean() {
        let report = run(2);
        assert_eq!(report.cells, 56);
        assert_eq!(report.violations(), 0, "{}", report.to_json());
        assert_eq!(
            report.accepted + report.agreed_rejected + report.sound_rejected.len(),
            report.cells
        );
        assert!(report.probes > 0, "probes must actually run");
    }

    #[test]
    fn full_depth_space_is_exhaustively_clean() {
        let report = run(FULL_DEPTH);
        assert_eq!(report.cells, 40_880);
        assert_eq!(report.violations(), 0, "{}", report.to_json());
        assert_eq!(
            report.accepted + report.agreed_rejected + report.sound_rejected.len(),
            report.cells
        );
        assert_eq!(report.probes, 151_686);
    }

    #[test]
    fn report_json_is_machine_readable() {
        let report = run(1);
        let j = report.to_json();
        assert!(j.contains("\"cells\":2"));
        assert!(j.contains("\"unsound_accepted\":["));
    }
}
