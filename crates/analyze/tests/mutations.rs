//! Mutation tests for the static plan verifier: hand-corrupt rewritten
//! online plans in targeted ways and assert the verifier reports exactly
//! the intended rule id (and nothing on the uncorrupted plan).
//!
//! Each mutation models a realistic rewriter bug class:
//!
//! * V001/V007 — "forgot to enable variation-range partitioning" on the
//!   uncertain select (which also drops its checkpointed state).
//! * V002 — lineage-emission flags out of sync with the real input tags.
//! * V003 — eager projection of a column that still carries lineage.
//! * V004 — join keys moved onto a column fed by an uncertain aggregate.
//! * V005 — a nondeterministic UDF smuggled into a join key.
//! * V006 — stream-scaling flags out of sync (aggregate and sink halves).
//! * V008 — stale root annotation.
//! * V009 — columnar fast plan compiled before uncertainty was derived.
//! * V010 — checkpointed state dropped on the streamed spine (with an
//!   off-spine negative control pinning the rule's path sensitivity).
//! * L008/L009 — lint-side mutations over virtual source fixtures: a panic
//!   spliced into a hot-path helper, and a two-mutex ordering cycle.
//! * L013 — a `pub fn` added with no caller anywhere in the workspace.

use iolap_analyze::modelcheck::{to_planned, JoinKind, RightShape, Term, UnaryKind};
use iolap_analyze::{lint_files, unreferenced_pub_fns, verify};
use iolap_core::ops::ProjMode;
use iolap_core::ops_agg::AggregateOp;
use iolap_core::{rewrite, OnlineOp, OnlineQuery};
use iolap_engine::{plan_sql, Expr, ExprError, ScalarUdf};
use iolap_relation::{DataType, Value};
use iolap_workloads::{conviva_catalog, conviva_query, conviva_registry};
use std::collections::HashSet;
use std::sync::Arc;

fn rewritten(id: &str) -> OnlineQuery {
    let cat = conviva_catalog(60, 7);
    let registry = conviva_registry();
    let q = conviva_query(id).unwrap_or_else(|| panic!("unknown query {id}"));
    let pq = plan_sql(q.sql, &cat, &registry).unwrap();
    let streamed: HashSet<String> = [q.stream_table.to_string()].into();
    rewrite(&pq, &streamed).unwrap()
}

fn children_mut(op: &mut OnlineOp) -> Vec<&mut OnlineOp> {
    match op {
        OnlineOp::Scan(_) => Vec::new(),
        OnlineOp::Select(s) => vec![s.child.as_mut()],
        OnlineOp::Project(p) => vec![p.child.as_mut()],
        OnlineOp::Join(j) => vec![j.left.as_mut(), j.right.as_mut()],
        OnlineOp::SemiJoin(j) => vec![j.left.as_mut(), j.right.as_mut()],
        OnlineOp::Union(u) => u.children.iter_mut().collect(),
        OnlineOp::Aggregate(a) => vec![a.child.as_mut()],
    }
}

/// Apply `f` preorder until it reports having mutated a node; panics if no
/// node matched (the mutation would silently test nothing).
fn mutate_first(root: &mut OnlineOp, what: &str, f: &mut dyn FnMut(&mut OnlineOp) -> bool) {
    fn go(op: &mut OnlineOp, f: &mut dyn FnMut(&mut OnlineOp) -> bool) -> bool {
        if f(op) {
            return true;
        }
        for c in children_mut(op) {
            if go(c, f) {
                return true;
            }
        }
        false
    }
    assert!(go(root, f), "mutation site not found: {what}");
}

fn rule_ids(q: &OnlineQuery) -> Vec<&'static str> {
    let mut ids: Vec<_> = verify(q).iter().map(|d| d.rule.id()).collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

#[test]
fn clean_plans_have_no_diagnostics() {
    for id in ["SBI", "C2", "C3"] {
        let oq = rewritten(id);
        let diags = verify(&oq);
        assert!(diags.is_empty(), "{id}: {diags:?}");
    }
}

#[test]
fn v001_v007_dropped_variation_range_partitioning() {
    let mut oq = rewritten("SBI");
    mutate_first(&mut oq.root, "uncertain select", &mut |op| match op {
        OnlineOp::Select(s) if s.uncertain_pred => {
            s.uncertain_pred = false;
            true
        }
        _ => false,
    });
    // Disabling partitioning mis-types the select (V001), drops the
    // nondeterministic-set state that must survive recovery (V007), and —
    // because the select sits on the streamed spine — breaks the recovery
    // closure (V010).
    assert_eq!(rule_ids(&oq), ["V001", "V007", "V010"]);
}

#[test]
fn v002_stale_tuple_uncertainty_flag() {
    let mut oq = rewritten("SBI");
    mutate_first(&mut oq.root, "aggregate", &mut |op| match op {
        OnlineOp::Aggregate(a) if a.input_tuple_uncertain => {
            a.input_tuple_uncertain = false;
            true
        }
        _ => false,
    });
    assert_eq!(rule_ids(&oq), ["V002"]);
}

#[test]
fn v002_stale_arg_uncertainty_flag() {
    let mut oq = rewritten("C3");
    let mut col = None;
    mutate_first(&mut oq.root, "aggregate", &mut |op| match op {
        OnlineOp::Aggregate(a) => {
            a.arg_uncertain[0] = !a.arg_uncertain[0];
            col = Some(a.group_cols.len());
            true
        }
        _ => false,
    });
    // C3's aggregate folds via the columnar fast path, so marking its
    // argument uncertain is both a stale flag (V002) and a fast-path
    // eligibility violation (V009).
    let diags = verify(&oq);
    assert_eq!(rule_ids(&oq), ["V002", "V009"], "{diags:?}");
    assert!(diags.iter().all(|d| d.column == col), "{diags:?}");
}

#[test]
fn v003_eager_projection_drops_lineage() {
    let mut oq = rewritten("SBI");
    // The root projection passes the aggregate's lineage-ref column through
    // untouched (PassCell); evaluating it eagerly would force the ref.
    mutate_first(
        &mut oq.root,
        "PassCell over ref column",
        &mut |op| match op {
            OnlineOp::Project(p) if matches!(p.modes.first(), Some(ProjMode::PassCell(_))) => {
                p.modes[0] = ProjMode::Plain(Expr::Col(0));
                true
            }
            _ => false,
        },
    );
    assert_eq!(rule_ids(&oq), ["V003"]);
}

#[test]
fn v003_spurious_lineage_mode() {
    let mut oq = rewritten("C3");
    // The root projection's first column is a certain group key; thunking it
    // would defer a value that needs no deferral.
    mutate_first(
        &mut oq.root,
        "Plain over certain column",
        &mut |op| match op {
            OnlineOp::Project(p) if matches!(p.modes.first(), Some(ProjMode::Plain(_))) => {
                let ProjMode::Plain(e) = p.modes[0].clone() else {
                    return false;
                };
                p.modes[0] = ProjMode::Thunk(Arc::new(e));
                true
            }
            _ => false,
        },
    );
    assert_eq!(rule_ids(&oq), ["V003"]);
}

#[test]
fn v004_join_key_over_uncertain_column() {
    let mut oq = rewritten("SBI");
    // SBI's decorrelated cross join carries the inner aggregate's lineage
    // ref as the right side's column 0; keying on it makes a strict hash
    // consumer of an uncertain value.
    mutate_first(&mut oq.root, "cross join", &mut |op| match op {
        OnlineOp::Join(j) => {
            j.left_keys = vec![Expr::Col(0)];
            j.right_keys = vec![Expr::Col(0)];
            true
        }
        _ => false,
    });
    let diags = verify(&oq);
    assert_eq!(rule_ids(&oq), ["V004"], "{diags:?}");
    assert!(diags.iter().any(|d| d.message.contains("right key")));
}

#[test]
fn v004_group_by_uncertain_column() {
    let mut oq = rewritten("SBI");
    // Splice out the projection under the outer aggregate so the aggregate
    // reads the join output directly — including the inner aggregate's
    // lineage-ref column — then group by that ref column. (The collateral
    // arity diagnostics are expected; the test pins the V004.)
    let mut target = None;
    mutate_first(&mut oq.root, "outer aggregate", &mut |op| match op {
        OnlineOp::Aggregate(a) => {
            let OnlineOp::Project(p) = a.child.as_mut() else {
                return false;
            };
            let placeholder = OnlineOp::Scan(iolap_core::ops::ScanOp::new(
                "placeholder".to_string(),
                iolap_relation::Schema::empty(),
                false,
            ));
            let grand = std::mem::replace(p.child.as_mut(), placeholder);
            *a.child = grand;
            let child_tags = iolap_analyze::derive(&a.child);
            let Some(c) = child_tags.attr_uncertain.iter().position(|&u| u) else {
                return false;
            };
            a.group_cols = vec![c];
            target = Some(c);
            true
        }
        _ => false,
    });
    let diags = verify(&oq);
    assert!(
        diags
            .iter()
            .any(|d| d.rule.id() == "V004" && d.column == target),
        "{diags:?}"
    );
}

/// A deliberately impure UDF for the V005 mutation.
struct SampleChoice;

impl ScalarUdf for SampleChoice {
    fn name(&self) -> &str {
        "SAMPLE_CHOICE"
    }
    fn invoke(&self, args: &[Value]) -> Result<Value, ExprError> {
        Ok(args.first().cloned().unwrap_or(Value::Null))
    }
    fn return_type(&self, _args: &[DataType]) -> DataType {
        DataType::Float
    }
    fn deterministic(&self) -> bool {
        false
    }
}

#[test]
fn v005_nondeterministic_udf_in_join_key() {
    let mut oq = rewritten("SBI");
    mutate_first(&mut oq.root, "cross join", &mut |op| match op {
        OnlineOp::Join(j) => {
            j.left_keys = vec![Expr::Udf {
                func: Arc::new(SampleChoice),
                args: vec![Expr::Col(0)],
            }];
            j.right_keys = vec![Expr::Col(1)];
            true
        }
        _ => false,
    });
    let diags = verify(&oq);
    assert_eq!(rule_ids(&oq), ["V005"], "{diags:?}");
    assert!(diags[0].message.contains("SAMPLE_CHOICE"));
}

#[test]
fn v006_stale_aggregate_scaling() {
    let mut oq = rewritten("SBI");
    mutate_first(&mut oq.root, "scaled aggregate", &mut |op| match op {
        OnlineOp::Aggregate(a) if a.scale_stream => {
            a.scale_stream = false;
            true
        }
        _ => false,
    });
    assert_eq!(rule_ids(&oq), ["V006"]);
}

#[test]
fn v006_stale_sink_factor() {
    let mut oq = rewritten("SBI");
    oq.sink.stream_factor += 1;
    let diags = verify(&oq);
    assert_eq!(rule_ids(&oq), ["V006"], "{diags:?}");
    assert_eq!(diags[0].path, "Sink");
}

/// Rewrite a model-checker term against the model world's streamed table.
fn model_rewritten(term: &Term) -> OnlineQuery {
    let pq = to_planned(term);
    let streamed: HashSet<String> = ["s".to_string()].into();
    rewrite(&pq, &streamed).unwrap()
}

#[test]
fn v009_fast_plan_with_uncertain_argument() {
    // AVG over a SUM output: the outer aggregate's argument column is
    // genuinely uncertain, so `AggregateOp::new` refuses to compile the
    // columnar fast plan. The mutation models a rewriter that compiled the
    // fast plan *before* deriving uncertainty: rebuild the operator with
    // all-certain flags (fast plan compiles) and then restore the true
    // flags on the public field.
    let term = Term::Unary(
        UnaryKind::AggAvgByK,
        Box::new(Term::Unary(UnaryKind::AggSumByK, Box::new(Term::ScanS))),
    );
    let mut oq = model_rewritten(&term);
    assert!(rule_ids(&oq).is_empty());
    mutate_first(
        &mut oq.root,
        "uncertain-arg aggregate",
        &mut |op| match op {
            OnlineOp::Aggregate(a) if a.arg_uncertain.iter().any(|&u| u) => {
                let saved = a.arg_uncertain.clone();
                *a = AggregateOp::new(
                    (*a.child).clone(),
                    a.group_cols.clone(),
                    a.aggs.clone(),
                    a.schema.clone(),
                    a.agg_id,
                    vec![false; saved.len()],
                    a.input_tuple_uncertain,
                    a.scale_stream,
                );
                a.arg_uncertain = saved;
                true
            }
            _ => false,
        },
    );
    let diags = verify(&oq);
    assert_eq!(rule_ids(&oq), ["V009"], "{diags:?}");
}

#[test]
fn v010_dropped_spine_state_breaks_recovery_closure() {
    // A partitioned select directly on the streamed spine: disabling its
    // partitioning drops checkpointed state that the recovery closure
    // needs, so V010 joins the V001/V007 pair and anchors at the select.
    let term = Term::Unary(
        UnaryKind::SelectV,
        Box::new(Term::Unary(UnaryKind::AggSumByK, Box::new(Term::ScanS))),
    );
    let mut oq = model_rewritten(&term);
    assert!(rule_ids(&oq).is_empty());
    mutate_first(&mut oq.root, "spine select", &mut |op| match op {
        OnlineOp::Select(s) if s.uncertain_pred => {
            s.uncertain_pred = false;
            true
        }
        _ => false,
    });
    let diags = verify(&oq);
    assert_eq!(rule_ids(&oq), ["V001", "V007", "V010"], "{diags:?}");
    let v010 = diags.iter().find(|d| d.rule.id() == "V010").unwrap();
    assert!(v010.path.contains("Select"), "{v010:?}");
}

#[test]
fn v010_off_spine_select_does_not_implicate_recovery() {
    // Negative control for V010's path sensitivity: spurious partitioning
    // on a *dimension-side* select (off the streamed spine) mis-types the
    // select (V001) but owes the recovery closure nothing — neither V007
    // nor V010 may fire.
    let term = Term::Binary(
        JoinKind::JoinK0,
        Box::new(Term::Unary(UnaryKind::SelectV, Box::new(Term::ScanD))),
        RightShape::ScanS,
    );
    let mut oq = model_rewritten(&term);
    assert!(rule_ids(&oq).is_empty());
    mutate_first(&mut oq.root, "dimension select", &mut |op| match op {
        OnlineOp::Select(s) if !s.uncertain_pred => {
            s.uncertain_pred = true;
            true
        }
        _ => false,
    });
    assert_eq!(rule_ids(&oq), ["V001"]);
}

fn lint_rule_ids(files: &[(String, String)]) -> Vec<&'static str> {
    let mut ids: Vec<_> = lint_files(files).iter().map(|f| f.rule.id()).collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

#[test]
fn l008_panic_spliced_into_hot_path_helper() {
    // `step` is an L008 root in driver.rs; a panic site two calls deep
    // becomes reachable the moment it is introduced.
    let clean = vec![(
        "crates/core/src/driver.rs".to_string(),
        "pub fn step(&mut self) -> u32 { advance_epoch(self.epoch) }\n\
         fn advance_epoch(e: u32) -> u32 { bump(e) }\n\
         fn bump(e: u32) -> u32 { e + 1 }\n"
            .to_string(),
    )];
    assert_eq!(lint_rule_ids(&clean), [] as [&str; 0]);

    let mutated = vec![(
        "crates/core/src/driver.rs".to_string(),
        "pub fn step(&mut self) -> u32 { advance_epoch(self.epoch) }\n\
         fn advance_epoch(e: u32) -> u32 { bump(e) }\n\
         fn bump(e: u32) -> u32 { e.checked_add(1).expect(\"epoch overflow\") }\n"
            .to_string(),
    )];
    let findings = lint_files(&mutated);
    assert_eq!(lint_rule_ids(&mutated), ["L008"], "{findings:?}");
    assert!(
        findings[0].text.contains("step -> advance_epoch -> bump"),
        "{findings:?}"
    );
}

#[test]
fn l009_two_mutex_ordering_cycle() {
    // Two threads taking `queue` and `workers` in opposite orders deadlock;
    // the same pair in a consistent order is clean.
    let cyclic = vec![(
        "crates/server/src/pool.rs".to_string(),
        "fn submit(&self) { let q = self.queue.lock().unwrap(); let w = self.workers.lock().unwrap(); }\n\
         fn drain(&self) { let w = self.workers.lock().unwrap(); let q = self.queue.lock().unwrap(); }\n"
            .to_string(),
    )];
    let findings = lint_files(&cyclic);
    assert_eq!(lint_rule_ids(&cyclic), ["L009"], "{findings:?}");
    assert!(
        findings.iter().any(|f| f.text.contains("lock-order cycle")),
        "{findings:?}"
    );

    let consistent = vec![(
        "crates/server/src/pool.rs".to_string(),
        "fn submit(&self) { let q = self.queue.lock().unwrap(); let w = self.workers.lock().unwrap(); }\n\
         fn drain(&self) { let q = self.queue.lock().unwrap(); let w = self.workers.lock().unwrap(); }\n"
            .to_string(),
    )];
    assert_eq!(lint_rule_ids(&consistent), [] as [&str; 0]);
}

#[test]
fn l012_raw_write_spliced_into_persistence_path() {
    // A durable-layer function writing through the store's framed writer
    // is clean; "optimizing" it into a raw std::fs::write (the realistic
    // bug: bypassing the CRC framing because it looks equivalent) is
    // exactly an L012.
    let clean = vec![(
        "crates/server/src/durable.rs".to_string(),
        "fn spill(w: &mut SegmentWriter, line: &str) -> io::Result<()> {\n\
         w.append(line.as_bytes())\n\
         }\n"
        .to_string(),
    )];
    assert_eq!(lint_rule_ids(&clean), [] as [&str; 0]);

    let mutated = vec![(
        "crates/server/src/durable.rs".to_string(),
        "fn spill(path: &Path, line: &str) -> io::Result<()> {\n\
         std::fs::write(path, line.as_bytes())\n\
         }\n"
        .to_string(),
    )];
    let findings = lint_files(&mutated);
    assert_eq!(lint_rule_ids(&mutated), ["L012"], "{findings:?}");
    assert!(findings[0].text.contains("fs::write"), "{findings:?}");

    // The same raw write inside crates/store is the framed writer's own
    // implementation — the rule's exemption, pinned as a negative control.
    let in_store = vec![(
        "crates/store/src/segment.rs".to_string(),
        "fn create(path: &Path) -> io::Result<File> {\n\
         File::create(path)\n\
         }\n"
        .to_string(),
    )];
    assert_eq!(lint_rule_ids(&in_store), [] as [&str; 0]);
}

#[test]
fn l011_trace_mark_removed_from_scheduler_transition() {
    // A scheduler function that transitions session state while calling
    // trace_mark is clean; deleting the trace_mark call (the realistic
    // "refactor dropped the instrumentation" bug) is exactly an L011.
    let clean = vec![(
        "crates/server/src/scheduler.rs".to_string(),
        "fn trace_mark(t: Option<&Tracer>, name: &str, id: u64, d: &str) { let _ = (t, name, id, d); }\n\
         fn admit(slot: &mut Slot, tracer: Option<&Tracer>) {\n\
         trace_mark(tracer, \"sess.admit\", 0, \"direct\");\n\
         slot.state = SessionState::Running;\n\
         slot.holds_slot = true;\n\
         }\n"
            .to_string(),
    )];
    assert_eq!(lint_rule_ids(&clean), [] as [&str; 0]);

    let mutated = vec![(
        "crates/server/src/scheduler.rs".to_string(),
        "fn trace_mark(t: Option<&Tracer>, name: &str, id: u64, d: &str) { let _ = (t, name, id, d); }\n\
         fn admit(slot: &mut Slot, tracer: Option<&Tracer>) {\n\
         slot.state = SessionState::Running;\n\
         slot.holds_slot = true;\n\
         }\n"
            .to_string(),
    )];
    let findings = lint_files(&mutated);
    assert_eq!(lint_rule_ids(&mutated), ["L011"], "{findings:?}");
    assert!(findings[0].text.contains("fn admit"), "{findings:?}");
}

#[test]
fn l013_pub_fn_added_without_a_caller() {
    // A pub fn named by a test file (or by other production code) is
    // referenced; adding one that nothing names — only a doc comment
    // mentions it — is exactly an L013, reported at its definition.
    let lib = "/// Doubles `x`; see also [`triple`].\n\
               pub fn double(x: u32) -> u32 { x * 2 }\n\
               pub(crate) fn quad(x: u32) -> u32 { double(double(x)) }\n";
    let test = "#[test]\nfn doubles() { assert_eq!(iolap_x::double(2) + quad(1), 8); }\n";
    let clean = vec![
        ("crates/x/src/lib.rs".to_string(), lib.to_string()),
        ("crates/x/tests/double.rs".to_string(), test.to_string()),
    ];
    assert!(unreferenced_pub_fns(&clean).is_empty());

    let mutated = vec![
        (
            "crates/x/src/lib.rs".to_string(),
            format!("{lib}pub fn triple(x: u32) -> u32 {{ x * 3 }}\n"),
        ),
        ("crates/x/tests/double.rs".to_string(), test.to_string()),
    ];
    let findings = unreferenced_pub_fns(&mutated);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule.id(), "L013");
    assert_eq!(
        (findings[0].file.as_str(), findings[0].line),
        ("crates/x/src/lib.rs", 4)
    );
    assert!(findings[0].text.contains("`triple`"), "{findings:?}");

    // Definitions outside `crates/*/src` (tests, examples) are never
    // findings themselves.
    let in_tests = vec![(
        "crates/x/tests/helpers.rs".to_string(),
        "pub fn unused_helper() {}\n".to_string(),
    )];
    assert!(unreferenced_pub_fns(&in_tests).is_empty());
}

#[test]
fn v008_stale_root_annotation() {
    let mut oq = rewritten("SBI");
    oq.root_annotation.tuple_uncertain = !oq.root_annotation.tuple_uncertain;
    assert_eq!(rule_ids(&oq), ["V008"]);

    let mut oq = rewritten("C2");
    oq.root_annotation.attr_uncertain[0] = !oq.root_annotation.attr_uncertain[0];
    assert_eq!(rule_ids(&oq), ["V008"]);
}
