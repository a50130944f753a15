//! The static plan verifier: cross-checks the rewriter's configuration of
//! the online operator tree against independently derived §4.1 tags.
//!
//! Rules (see [`Rule`] for the catalogue):
//!
//! * **V001** — every select over uncertain attributes is configured for
//!   variation-range partitioning (§5), and only those.
//! * **V002** — every uA-tagged aggregate output is emitted as a lineage
//!   `Ref` (§6.1), and only those (the emission condition is
//!   `input_tuple_uncertain || arg_uncertain[c]`, so the configured flags
//!   are checked against the derived tags).
//! * **V003** — projection modes preserve lineage: no `Plain` (eager) mode
//!   over an uncertain column, no thunk/ref mode over a certain one.
//! * **V004** — no strict operator consumes uncertain attributes: join and
//!   semi-join key expressions and group-by columns must be over certain
//!   columns (§3.3); this is also what keeps folded-lineage thunks
//!   (`Value::Pending`) out of strict hash/comparison consumers.
//! * **V005** — join/semi-join keys are deterministic: no nondeterministic
//!   UDF anywhere in a key expression (§3.3).
//! * **V006** — result scaling matches the derived stream tags: aggregate
//!   `scale_stream` equals the subtree's reads-stream tag and the sink's
//!   `stream_factor` equals the derived root factor (§2).
//! * **V007** — delta-update safety closure for recovery (§5.1): every
//!   operator whose §4.2/§5.2 state must survive replay registers
//!   checkpoint state, and §4.2-stateless operators register none.
//! * **V008** — the rewriter's recorded root annotation agrees with the
//!   derived root tags.
//! * **V009** — the columnar aggregate fast path is never eligible for
//!   uncertain-arg aggregates: a compiled fast plan together with any
//!   configured-or-derived uncertain argument would fold fast and bypass
//!   §6.1 lineage-ref emission.
//! * **V010** — recovery-spine closure (§5.1): along every root→streamed-
//!   scan spine, each operator whose state must survive replay registers
//!   checkpoint state and the streamed scan checkpoints its cursor, so a
//!   simulated variation-range failure at any spine depth can be replayed.

use crate::diag::{Diagnostic, Rule};
use crate::tags::{derive, expr_uncertain, Tags};
use iolap_core::{rewrite, OnlineOp, OnlineQuery, RewriteError};
use iolap_engine::{Expr, PlannedQuery};
use std::collections::HashSet;

/// Verify a rewritten online query. Returns every rule violation found;
/// an empty vector means the plan is verifier-clean.
pub fn verify(q: &OnlineQuery) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let root_tags = check(&q.root, &q.root.kind(), &mut diags);

    // V006 (sink half): the sink must scale output rows by m_i once per
    // streamed base-row factor reaching the output unaggregated.
    if q.sink.stream_factor != root_tags.stream_factor {
        diags.push(Diagnostic {
            rule: Rule::V006,
            path: "Sink".to_string(),
            column: None,
            message: format!(
                "sink stream_factor is {} but derived root factor is {}",
                q.sink.stream_factor, root_tags.stream_factor
            ),
        });
    }

    // V008: the annotation the rewriter recorded (and the driver scales by)
    // must agree with the independent derivation.
    let ann = &q.root_annotation;
    if ann.attr_uncertain != root_tags.attr_uncertain {
        diags.push(Diagnostic {
            rule: Rule::V008,
            path: q.root.kind(),
            column: None,
            message: format!(
                "root attr_uncertain recorded as {:?}, derived {:?}",
                ann.attr_uncertain, root_tags.attr_uncertain
            ),
        });
    }
    if ann.tuple_uncertain != root_tags.tuple_uncertain {
        diags.push(Diagnostic {
            rule: Rule::V008,
            path: q.root.kind(),
            column: None,
            message: format!(
                "root tuple_uncertain recorded as {}, derived {}",
                ann.tuple_uncertain, root_tags.tuple_uncertain
            ),
        });
    }
    if ann.reads_stream != root_tags.reads_stream {
        diags.push(Diagnostic {
            rule: Rule::V008,
            path: q.root.kind(),
            column: None,
            message: format!(
                "root reads_stream recorded as {}, derived {}",
                ann.reads_stream, root_tags.reads_stream
            ),
        });
    }

    // V010: recovery-spine closure — every operator on a root→streamed-scan
    // spine can be replayed after a simulated range failure at its depth.
    check_v010(&q.root, &q.root.kind(), &mut diags);
    diags
}

/// Rewrite `pq` for online execution over `stream_table` and verify the
/// result. Convenience entry point for test suites and the `experiments
/// verify-plans` subcommand.
pub fn verify_planned(
    pq: &PlannedQuery,
    stream_table: &str,
) -> Result<Vec<Diagnostic>, RewriteError> {
    let streamed: HashSet<String> = [stream_table.to_ascii_lowercase()].into();
    let oq = rewrite(pq, &streamed)?;
    Ok(verify(&oq))
}

/// Hook-compatible wrapper: renders violations into one report string.
pub fn verify_report(q: &OnlineQuery) -> Result<(), String> {
    let diags = verify(q);
    if diags.is_empty() {
        Ok(())
    } else {
        Err(diags
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n"))
    }
}

/// Install the verifier into the core driver's debug-build hook: every
/// `IolapDriver` constructed afterwards verifies its rewritten plan before
/// batch 0 (debug builds only). Idempotent and process-wide.
pub fn install() {
    iolap_core::install_plan_verifier(verify_report);
}

/// Per-rule violation counts over `diags`, zero-filled across all verifier
/// rules (so "0 violations" is an explicit, trackable record).
pub fn rule_counts(diags: &[Diagnostic]) -> Vec<(Rule, usize)> {
    Rule::verifier_rules()
        .iter()
        .map(|&r| (r, diags.iter().filter(|d| d.rule == r).count()))
        .collect()
}

fn uncertain_key_cols(keys: &[Expr], attrs: &[bool]) -> Vec<usize> {
    let mut cols = Vec::new();
    for k in keys {
        k.referenced_columns(&mut cols);
    }
    cols.sort_unstable();
    cols.dedup();
    cols.into_iter()
        .filter(|&c| attrs.get(c).copied().unwrap_or(false))
        .collect()
}

fn check_keys(side: &str, keys: &[Expr], attrs: &[bool], path: &str, diags: &mut Vec<Diagnostic>) {
    for c in uncertain_key_cols(keys, attrs) {
        diags.push(Diagnostic {
            rule: Rule::V004,
            path: path.to_string(),
            column: Some(c),
            message: format!(
                "{side} key references uncertain column {c} — a strict operator \
                 would consume a lineage ref or folded-lineage thunk (§3.3)"
            ),
        });
    }
    for k in keys {
        let mut udfs = Vec::new();
        k.nondeterministic_udfs(&mut udfs);
        for name in udfs {
            diags.push(Diagnostic {
                rule: Rule::V005,
                path: path.to_string(),
                column: None,
                message: format!("{side} key calls nondeterministic UDF {name} (§3.3)"),
            });
        }
    }
}

/// Whether §4.2/§5.1 require this operator to snapshot state into
/// checkpoints, given the *derived* tags of its children. `None` means
/// "must be stateless" (PROJECT/UNION).
fn required_checkpoint_state(op: &OnlineOp, child_tags: &[&Tags]) -> Option<bool> {
    match op {
        // A scan always carries its stream cursor / one-shot dimension
        // flag across replays.
        OnlineOp::Scan(_) => Some(true),
        OnlineOp::Select(s) => {
            let derived = child_tags
                .first()
                .map(|t| expr_uncertain(&s.predicate, &t.attr_uncertain))
                .unwrap_or(false);
            Some(derived)
        }
        OnlineOp::Project(_) | OnlineOp::Union(_) => None,
        OnlineOp::Join(_) | OnlineOp::SemiJoin(_) | OnlineOp::Aggregate(_) => Some(true),
    }
}

/// V010: returns whether `op`'s subtree contains a streamed scan; when it
/// does, `op` sits on a recovery spine and must satisfy the §5.1 closure —
/// replay after a variation-range failure at any depth below it restores
/// its state from checkpoints. Tags are re-derived locally (plans are
/// small; the extra traversal keeps this pass independent of `check`).
fn check_v010(op: &OnlineOp, path: &str, diags: &mut Vec<Diagnostic>) -> bool {
    let children = op.children();
    let mut on_spine = false;
    for c in &children {
        let child_path = format!("{path}/{}", c.kind());
        on_spine |= check_v010(c, &child_path, diags);
    }
    if let OnlineOp::Scan(s) = op {
        on_spine |= s.streamed;
    }
    if !on_spine {
        return false;
    }
    let registered = op.checkpoint_state();
    if let OnlineOp::Scan(s) = op {
        if s.streamed && !registered.iter().any(|k| k.contains("cursor")) {
            diags.push(Diagnostic {
                rule: Rule::V010,
                path: path.to_string(),
                column: None,
                message: "streamed scan does not checkpoint its cursor — replay after \
                          a range failure would rescan or skip delivered rows (§5.1)"
                    .to_string(),
            });
        }
        return true;
    }
    let child_tags: Vec<Tags> = children.iter().map(|c| derive(c)).collect();
    let child_refs: Vec<&Tags> = child_tags.iter().collect();
    if required_checkpoint_state(op, &child_refs) == Some(true) && registered.is_empty() {
        diags.push(Diagnostic {
            rule: Rule::V010,
            path: path.to_string(),
            column: None,
            message: "operator on the recovery spine registers no checkpoint state — \
                      a simulated range failure below it could not be replayed (§5.1)"
                .to_string(),
        });
    }
    true
}

fn check(op: &OnlineOp, path: &str, diags: &mut Vec<Diagnostic>) -> Tags {
    let children = op.children();
    let child_paths: Vec<String> = children
        .iter()
        .map(|c| format!("{path}/{}", c.kind()))
        .collect();
    let child_tags: Vec<Tags> = children
        .iter()
        .zip(child_paths.iter())
        .map(|(c, p)| check(c, p, diags))
        .collect();
    let child_refs: Vec<&Tags> = child_tags.iter().collect();

    match op {
        OnlineOp::Scan(_) | OnlineOp::Union(_) => {}
        OnlineOp::Select(s) => {
            let derived = expr_uncertain(&s.predicate, &child_refs[0].attr_uncertain);
            if s.uncertain_pred != derived {
                diags.push(Diagnostic {
                    rule: Rule::V001,
                    path: path.to_string(),
                    column: None,
                    message: if derived {
                        "predicate reads uncertain attributes but the select is not \
                         configured for variation-range partitioning (§5)"
                            .to_string()
                    } else {
                        "select is configured for variation-range partitioning but its \
                         predicate reads only certain attributes"
                            .to_string()
                    },
                });
            }
        }
        OnlineOp::Project(p) => {
            use iolap_core::ops::ProjMode;
            for (c, mode) in p.modes.iter().enumerate() {
                let (label, derived) = match mode {
                    ProjMode::Plain(e) => {
                        ("Plain", expr_uncertain(e, &child_refs[0].attr_uncertain))
                    }
                    ProjMode::PassCell(i) => (
                        "PassCell",
                        child_refs[0]
                            .attr_uncertain
                            .get(*i)
                            .copied()
                            .unwrap_or(false),
                    ),
                    ProjMode::Thunk(e) => (
                        "Thunk",
                        expr_uncertain(e.as_ref(), &child_refs[0].attr_uncertain),
                    ),
                };
                let lineage_preserving = !matches!(mode, ProjMode::Plain(_));
                if derived && !lineage_preserving {
                    diags.push(Diagnostic {
                        rule: Rule::V003,
                        path: path.to_string(),
                        column: Some(c),
                        message: "Plain mode over a derived-uncertain column would \
                                  eagerly evaluate and drop lineage (§6.1)"
                            .to_string(),
                    });
                } else if !derived && lineage_preserving {
                    diags.push(Diagnostic {
                        rule: Rule::V003,
                        path: path.to_string(),
                        column: Some(c),
                        message: format!(
                            "{label} mode over a derived-certain column is spurious lineage"
                        ),
                    });
                }
            }
        }
        OnlineOp::Join(j) => {
            check_keys(
                "left",
                &j.left_keys,
                &child_refs[0].attr_uncertain,
                path,
                diags,
            );
            check_keys(
                "right",
                &j.right_keys,
                &child_refs[1].attr_uncertain,
                path,
                diags,
            );
        }
        OnlineOp::SemiJoin(j) => {
            check_keys(
                "left",
                &j.left_keys,
                &child_refs[0].attr_uncertain,
                path,
                diags,
            );
            check_keys(
                "right",
                &j.right_keys,
                &child_refs[1].attr_uncertain,
                path,
                diags,
            );
        }
        OnlineOp::Aggregate(a) => {
            let input = child_refs[0];
            for &g in &a.group_cols {
                if input.attr_uncertain.get(g).copied().unwrap_or(false) {
                    diags.push(Diagnostic {
                        rule: Rule::V004,
                        path: path.to_string(),
                        column: Some(g),
                        message: format!("group-by column {g} is derived-uncertain (§3.3)"),
                    });
                }
            }
            if a.input_tuple_uncertain != input.tuple_uncertain {
                diags.push(Diagnostic {
                    rule: Rule::V002,
                    path: path.to_string(),
                    column: None,
                    message: format!(
                        "input_tuple_uncertain configured as {} but derived u# is {} — \
                         aggregate outputs would be {} lineage refs (§6.1)",
                        a.input_tuple_uncertain,
                        input.tuple_uncertain,
                        if input.tuple_uncertain {
                            "missing"
                        } else {
                            "spurious"
                        }
                    ),
                });
            }
            for (c, call) in a.aggs.iter().enumerate() {
                let derived = expr_uncertain(&call.input, &input.attr_uncertain);
                let configured = a.arg_uncertain.get(c).copied().unwrap_or(false);
                if configured != derived {
                    diags.push(Diagnostic {
                        rule: Rule::V002,
                        path: path.to_string(),
                        column: Some(a.group_cols.len() + c),
                        message: format!(
                            "arg_uncertain[{c}] configured as {configured} but the \
                             argument's derived uA is {derived}"
                        ),
                    });
                }
            }
            if a.scale_stream != input.reads_stream {
                diags.push(Diagnostic {
                    rule: Rule::V006,
                    path: path.to_string(),
                    column: None,
                    message: format!(
                        "scale_stream configured as {} but the subtree's derived \
                         reads_stream is {} — extensive outputs would be scaled wrongly (§2)",
                        a.scale_stream, input.reads_stream
                    ),
                });
            }
            // V009: a compiled columnar fast plan must never coexist with an
            // uncertain aggregate argument (configured or derived) — the
            // fast fold bypasses lineage-ref emission (§6.1).
            if a.has_fast_plan() {
                for (c, call) in a.aggs.iter().enumerate() {
                    let configured = a.arg_uncertain.get(c).copied().unwrap_or(false);
                    let derived = expr_uncertain(&call.input, &input.attr_uncertain);
                    if configured || derived {
                        diags.push(Diagnostic {
                            rule: Rule::V009,
                            path: path.to_string(),
                            column: Some(a.group_cols.len() + c),
                            message: format!(
                                "columnar fast path is eligible but aggregate argument \
                                 {c} is uncertain ({}) — the fast fold would bypass \
                                 lineage-ref emission (§6.1)",
                                if configured && derived {
                                    "configured and derived"
                                } else if configured {
                                    "configured"
                                } else {
                                    "derived"
                                }
                            ),
                        });
                    }
                }
            }
        }
    }

    // V007: checkpoint-state closure.
    let registered = op.checkpoint_state();
    match required_checkpoint_state(op, &child_refs) {
        Some(true) if registered.is_empty() => diags.push(Diagnostic {
            rule: Rule::V007,
            path: path.to_string(),
            column: None,
            message: "operator state must survive recovery replay (§5.1) but no \
                      checkpoint state is registered"
                .to_string(),
        }),
        None if !registered.is_empty() => diags.push(Diagnostic {
            rule: Rule::V007,
            path: path.to_string(),
            column: None,
            message: format!("§4.2-stateless operator registers checkpoint state {registered:?}"),
        }),
        _ => {}
    }

    // Re-derive this node's tags from the children (structure only).
    derive_with(op, child_tags)
}

/// Same transfer rules as [`derive`], but reusing already-derived child
/// tags so the traversal stays linear.
fn derive_with(op: &OnlineOp, child_tags: Vec<Tags>) -> Tags {
    match op {
        // Leaf and n-ary cases fall back to the plain derivation (Scan has
        // no children; Union recursion is cheap and keeps one code path).
        OnlineOp::Scan(_) | OnlineOp::Union(_) => derive(op),
        OnlineOp::Select(s) => {
            let child = child_tags.into_iter().next().expect("select has one child");
            let pred_uncertain = expr_uncertain(&s.predicate, &child.attr_uncertain);
            Tags {
                tuple_uncertain: child.tuple_uncertain || pred_uncertain,
                ..child
            }
        }
        OnlineOp::Project(p) => {
            use iolap_core::ops::ProjMode;
            let child = child_tags
                .into_iter()
                .next()
                .expect("project has one child");
            let attr_uncertain = p
                .modes
                .iter()
                .map(|m| match m {
                    ProjMode::Plain(e) => expr_uncertain(e, &child.attr_uncertain),
                    ProjMode::Thunk(e) => expr_uncertain(e.as_ref(), &child.attr_uncertain),
                    ProjMode::PassCell(i) => child.attr_uncertain.get(*i).copied().unwrap_or(false),
                })
                .collect();
            Tags {
                attr_uncertain,
                ..child
            }
        }
        OnlineOp::Join(_) => {
            let mut it = child_tags.into_iter();
            let l = it.next().expect("join has a left child");
            let r = it.next().expect("join has a right child");
            let mut attr_uncertain = l.attr_uncertain;
            attr_uncertain.extend(r.attr_uncertain.iter().copied());
            Tags {
                attr_uncertain,
                tuple_uncertain: l.tuple_uncertain || r.tuple_uncertain,
                reads_stream: l.reads_stream || r.reads_stream,
                stream_factor: l.stream_factor + r.stream_factor,
            }
        }
        OnlineOp::SemiJoin(_) => {
            let mut it = child_tags.into_iter();
            let l = it.next().expect("semi-join has a left child");
            let r = it.next().expect("semi-join has a right child");
            Tags {
                attr_uncertain: l.attr_uncertain,
                tuple_uncertain: l.tuple_uncertain || r.tuple_uncertain,
                reads_stream: l.reads_stream || r.reads_stream,
                stream_factor: l.stream_factor,
            }
        }
        OnlineOp::Aggregate(a) => {
            let child = child_tags
                .into_iter()
                .next()
                .expect("aggregate has one child");
            let mut attr_uncertain = vec![false; a.group_cols.len()];
            for call in &a.aggs {
                attr_uncertain.push(
                    child.tuple_uncertain || expr_uncertain(&call.input, &child.attr_uncertain),
                );
            }
            Tags {
                attr_uncertain,
                tuple_uncertain: child.tuple_uncertain,
                reads_stream: child.reads_stream,
                stream_factor: 0,
            }
        }
    }
}
