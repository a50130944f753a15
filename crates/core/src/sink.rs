//! The SINK virtual operator (§4.2) and per-batch result publication.
//!
//! The sink accumulates the root operator's certain rows, tracks the
//! current uncertain rows, and renders a [`QueryResult`] each batch:
//! lineage cells are resolved to their current values, extensive row
//! multiplicities are scaled by `m_i`, ORDER BY/LIMIT presentation is
//! applied, and every uncertain numeric output gets a bootstrap
//! [`ErrorEstimate`].

use crate::channel::ORow;
use crate::registry::AggRegistry;
use iolap_bootstrap::ErrorEstimate;
use iolap_engine::{EvalContext, Expr, RefMode, RefResolver};
use iolap_relation::{Relation, Row, Schema, Value};

/// Presentation config carried from a top-level `Plan::Sort`.
#[derive(Clone, Debug, Default)]
pub struct Presentation {
    /// `(key expr, ascending)` pairs over the output schema.
    pub sort_keys: Vec<(Expr, bool)>,
    /// Row limit.
    pub limit: Option<u64>,
}

/// Accumulated sink state.
#[derive(Clone, Debug)]
pub struct Sink {
    /// Output schema.
    pub schema: Schema,
    /// Output column names.
    pub names: Vec<String>,
    /// Presentation (ORDER BY / LIMIT).
    pub presentation: Presentation,
    /// Power of `m_i` applied to row multiplicities (number of streamed
    /// base-row factors in each output row's provenance; 0 for aggregated
    /// outputs).
    pub stream_factor: u32,
    /// Number of visible output columns; trailing columns are hidden sort
    /// keys hoisted by the rewriter and stripped at publish time.
    pub visible: Option<usize>,
    certain: Vec<ORow>,
    uncertain: Vec<ORow>,
}

/// One published partial result.
#[derive(Clone, Debug)]
pub struct QueryResult {
    /// The (scaled) partial result relation.
    pub relation: Relation,
    /// Output column names.
    pub names: Vec<String>,
    /// Per row, per column: bootstrap error estimate for uncertain numeric
    /// cells (`None` for deterministic cells).
    pub estimates: Vec<Vec<Option<ErrorEstimate>>>,
}

impl QueryResult {
    /// Largest relative standard deviation across all uncertain cells —
    /// the paper's accuracy axis (Fig 7(a)).
    pub fn max_relative_std(&self) -> Option<f64> {
        self.estimates
            .iter()
            .flatten()
            .flatten()
            .map(|e| e.relative_std)
            .fold(None, |acc, x| Some(acc.map_or(x, |a: f64| a.max(x))))
    }

    /// Largest relative confidence-interval half-width across all uncertain
    /// cells, i.e. the worst "±x%" a client currently sees. `None` when the
    /// result carries no error estimates (a fully deterministic batch), and
    /// `INFINITY` when any uncertain estimate is exactly zero — both cases
    /// make a `StopPolicy::RelativeCI` accuracy contract *not yet met*
    /// rather than trivially satisfied.
    pub fn max_relative_ci_halfwidth(&self) -> Option<f64> {
        self.estimates
            .iter()
            .flatten()
            .flatten()
            .map(|e| e.relative_ci_halfwidth())
            .fold(None, |acc, x| Some(acc.map_or(x, |a: f64| a.max(x))))
    }
}

impl Sink {
    /// New sink.
    pub fn new(
        schema: Schema,
        names: Vec<String>,
        presentation: Presentation,
        stream_factor: u32,
        visible: Option<usize>,
    ) -> Self {
        Sink {
            schema,
            names,
            presentation,
            stream_factor,
            visible,
            certain: Vec::new(),
            uncertain: Vec::new(),
        }
    }

    /// Ingest one batch's root output.
    pub fn ingest(&mut self, delta_certain: Vec<ORow>, uncertain: Vec<ORow>) {
        self.certain.extend(delta_certain);
        self.uncertain = uncertain;
    }

    /// Number of accumulated certain rows (tests / instrumentation).
    pub fn certain_len(&self) -> usize {
        self.certain.len()
    }

    /// Render the current partial result (§2's `Q(D_i, m_i)`).
    pub fn publish(
        &self,
        registry: &AggRegistry,
        scale: f64,
        trials: usize,
        confidence: f64,
    ) -> QueryResult {
        self.publish_traced(
            registry,
            scale,
            trials,
            confidence,
            None,
            crate::trace::NO_BATCH,
            crate::trace::SpanId::NONE,
        )
    }

    /// [`Sink::publish`] with the driver's trace hook: when `tracer` is
    /// armed, the render is wrapped in a `sink.publish` span under
    /// `parent` carrying input/output row counts and the applied scale.
    /// A panic mid-render (a poisoned lineage deref) leaves the span open
    /// — the flight recorder then shows publish as the phase in flight.
    #[allow(clippy::too_many_arguments)]
    pub fn publish_traced(
        &self,
        registry: &AggRegistry,
        scale: f64,
        trials: usize,
        confidence: f64,
        tracer: Option<&crate::trace::Tracer>,
        batch: usize,
        parent: crate::trace::SpanId,
    ) -> QueryResult {
        let span = tracer.map(|t| {
            let s = t.begin("sink.publish", batch, parent);
            t.instant(
                "sink.ingested",
                batch,
                s,
                (self.certain.len() + self.uncertain.len()) as u64,
                format!(
                    "certain={} uncertain={} scale_pow={}",
                    self.certain.len(),
                    self.uncertain.len(),
                    self.stream_factor
                ),
            );
            s
        });
        let result = self.render(registry, scale, trials, confidence);
        if let (Some(t), Some(s)) = (tracer, span) {
            t.end(
                "sink.publish",
                batch,
                s,
                parent,
                result.relation.len() as u64,
            );
        }
        result
    }

    fn render(
        &self,
        registry: &AggRegistry,
        scale: f64,
        trials: usize,
        confidence: f64,
    ) -> QueryResult {
        let ctx = EvalContext::with_resolver(registry);
        // Pass 1: resolve lineage cells to current values.
        let sources: Vec<&ORow> = self.certain.iter().chain(self.uncertain.iter()).collect();
        let factor = scale.powi(self.stream_factor as i32);
        let rendered: Vec<Row> = sources
            .iter()
            .map(|orow| {
                let values = orow
                    .values
                    .iter()
                    .map(|v| match v {
                        Value::Ref(r) => registry.resolve(r, RefMode::Current),
                        Value::Pending(c) => registry.resolve_pending(c, RefMode::Current),
                        other => other.clone(),
                    })
                    .collect();
                Row::with_mult(values, orow.mult * factor)
            })
            .collect();

        // Pass 2: presentation (ORDER BY + LIMIT) picks the surviving rows
        // by index.
        let mut order: Vec<usize> = (0..rendered.len()).collect();
        let limit = self.presentation.limit.map(|n| n as usize);
        let sort_keys = &self.presentation.sort_keys;
        if !sort_keys.is_empty() {
            let keys: Vec<Value> = rendered
                .iter()
                .flat_map(|r| {
                    sort_keys
                        .iter()
                        .map(|(expr, _)| expr.eval(r, &ctx).unwrap_or(Value::Null))
                })
                .collect();
            let k = sort_keys.len();
            let by_keys = |&a: &usize, &b: &usize| {
                for ((x, y), (_, asc)) in keys[a * k..(a + 1) * k]
                    .iter()
                    .zip(&keys[b * k..(b + 1) * k])
                    .zip(sort_keys)
                {
                    let mut ord = x.total_cmp(y);
                    if !asc {
                        ord = ord.reverse();
                    }
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            };
            // Ties broken by input position: the order a stable sort by the
            // keys gives, made total, so the `n` least under it are a
            // stable sort's first `n` whatever order selection leaves.
            let stable = |a: &usize, b: &usize| by_keys(a, b).then(a.cmp(b));
            if let Some(n) = limit.filter(|&n| n < order.len()) {
                order.select_nth_unstable_by(n, stable);
                order.truncate(n);
            }
            order.sort_unstable_by(stable);
        }
        if let Some(n) = limit {
            order.truncate(n);
        }
        // The uncertain cells of the survivors: estimates are computed only
        // for rows that survive ORDER BY/LIMIT and for visible columns —
        // percentile selection over trial vectors whose estimate is then
        // cut away (a LIMIT, a hidden sort key) would dominate the publish.
        let visible = self.visible.unwrap_or(usize::MAX);
        let cells: Vec<Vec<Option<Value>>> = order
            .iter()
            .map(|&i| {
                sources[i]
                    .values
                    .iter()
                    .enumerate()
                    .map(|(c, v)| {
                        let uncertain = matches!(v, Value::Ref(_) | Value::Pending(_));
                        (uncertain && c < visible).then(|| v.clone())
                    })
                    .collect()
            })
            .collect();
        let rows: Vec<Row> = order.iter().map(|&i| rendered[i].clone()).collect();

        // Pass 3: bootstrap error estimates for the surviving rows.
        let estimates: Vec<Vec<Option<ErrorEstimate>>> = rows
            .iter()
            .zip(cells.iter())
            .map(|(row, row_cells)| {
                row_cells
                    .iter()
                    .zip(row.values.iter())
                    .map(|(cell, current)| {
                        let cell = cell.as_ref()?;
                        let cur = current.as_f64()?;
                        let tv = trial_values(cell, registry, trials, &ctx);
                        ErrorEstimate::from_trials(cur, &tv, confidence)
                    })
                    .collect()
            })
            .collect();

        // Strip hidden sort-key columns.
        let (schema, rows, estimates) = match self.visible {
            Some(v) if v < self.schema.len() => {
                let schema = Schema::new(self.schema.fields()[..v].to_vec());
                let rows = rows
                    .into_iter()
                    .map(|r| Row::with_mult(r.values[..v].to_vec(), r.mult))
                    .collect();
                let estimates = estimates
                    .into_iter()
                    .map(|mut e| {
                        e.truncate(v);
                        e
                    })
                    .collect();
                (schema, rows, estimates)
            }
            _ => (self.schema.clone(), rows, estimates),
        };
        QueryResult {
            relation: Relation::new(schema, rows),
            names: self.names.clone(),
            estimates,
        }
    }
}

/// Per-trial values of an uncertain cell: one registry lookup for bare
/// refs, per-mode evaluation for folded thunks.
fn trial_values(
    cell: &Value,
    registry: &AggRegistry,
    trials: usize,
    ctx: &EvalContext<'_>,
) -> Vec<f64> {
    match cell {
        Value::Ref(r) => registry
            .group(r.agg, &r.key)
            .and_then(|e| e.trials.get(r.column as usize))
            .map(|tv| tv.iter().copied().filter(|x| x.is_finite()).collect())
            .unwrap_or_default(),
        Value::Pending(_) => {
            let probe = Row {
                values: vec![cell.clone()].into(),
                mult: 1.0,
            };
            (0..trials)
                .filter_map(|t| {
                    Expr::Col(0)
                        .eval(&probe, &ctx.with_mode(RefMode::Trial(t)))
                        .ok()
                        .and_then(|x| x.as_f64())
                })
                .collect()
        }
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iolap_relation::{AggRef, DataType};
    use std::sync::Arc;

    #[test]
    fn publish_resolves_refs_and_estimates() {
        let mut reg = AggRegistry::new();
        let key: Arc<[Value]> = Arc::from(Vec::<Value>::new());
        reg.publish(
            0,
            key.clone(),
            vec![Value::Float(42.0)],
            vec![Arc::from(vec![40.0, 44.0, 42.0])],
            2.0,
        );
        let schema = Schema::from_pairs(&[("avg", DataType::Float)]);
        let mut sink = Sink::new(schema, vec!["avg".into()], Presentation::default(), 0, None);
        sink.ingest(
            vec![ORow::new(vec![Value::Ref(AggRef {
                agg: 0,
                column: 0,
                key,
            })])],
            vec![],
        );
        let out = sink.publish(&reg, 1.0, 3, 0.95);
        assert_eq!(out.relation.rows()[0].values[0], Value::Float(42.0));
        let est = out.estimates[0][0].as_ref().unwrap();
        assert_eq!(est.estimate, 42.0);
        assert!(est.std_error > 0.0);
        assert!(out.max_relative_std().unwrap() > 0.0);
        // The serving layer's RelativeCI stop rule reads this: finite and
        // positive here, `None` on a result with no uncertain cells.
        assert!(out.max_relative_ci_halfwidth().unwrap() > 0.0);
        assert!(out.max_relative_ci_halfwidth().unwrap().is_finite());
        let certain = QueryResult {
            relation: out.relation.clone(),
            names: out.names.clone(),
            estimates: vec![vec![None]],
        };
        assert_eq!(certain.max_relative_ci_halfwidth(), None);
    }

    #[test]
    fn uncertain_rows_replaced_each_batch() {
        let schema = Schema::from_pairs(&[("x", DataType::Int)]);
        let mut sink = Sink::new(schema, vec!["x".into()], Presentation::default(), 0, None);
        sink.ingest(vec![], vec![ORow::new(vec![Value::Int(1)])]);
        sink.ingest(vec![], vec![ORow::new(vec![Value::Int(2)])]);
        let reg = AggRegistry::new();
        let out = sink.publish(&reg, 1.0, 0, 0.95);
        assert_eq!(out.relation.len(), 1);
        assert_eq!(out.relation.rows()[0].values[0], Value::Int(2));
    }

    #[test]
    fn row_scaling_applies_to_spj_outputs() {
        let schema = Schema::from_pairs(&[("x", DataType::Int)]);
        let mut sink = Sink::new(schema, vec!["x".into()], Presentation::default(), 1, None);
        sink.ingest(vec![ORow::new(vec![Value::Int(1)])], vec![]);
        let reg = AggRegistry::new();
        let out = sink.publish(&reg, 4.0, 0, 0.95);
        assert!((out.relation.rows()[0].mult - 4.0).abs() < 1e-12);
    }

    #[test]
    fn publish_traced_journals_span_and_ingest_mark() {
        use crate::trace::{EventKind, SpanId, Tracer};
        let schema = Schema::from_pairs(&[("x", DataType::Int)]);
        let mut sink = Sink::new(schema, vec!["x".into()], Presentation::default(), 0, None);
        sink.ingest(
            vec![ORow::new(vec![Value::Int(1)])],
            vec![ORow::new(vec![Value::Int(2)])],
        );
        let reg = AggRegistry::new();
        let t = Tracer::new();
        let out = sink.publish_traced(&reg, 1.0, 0, 0.95, Some(&t), 3, SpanId::NONE);
        assert_eq!(out.relation.len(), 2);
        let evs = t.events();
        let begin = evs
            .iter()
            .find(|e| e.name == "sink.publish" && e.kind == EventKind::Begin)
            .expect("publish opens a span");
        let end = evs
            .iter()
            .find(|e| e.name == "sink.publish" && e.kind == EventKind::End)
            .expect("publish closes its span");
        assert_eq!(begin.batch, 3);
        assert_eq!(end.span, begin.span);
        assert_eq!(end.n, 2, "end event carries published row count");
        let mark = evs
            .iter()
            .find(|e| e.name == "sink.ingested")
            .expect("ingest mark fires on publish");
        assert_eq!(mark.parent, begin.span);
        assert_eq!(mark.n, 2);
        assert!(mark.detail.contains("certain=1 uncertain=1"));
    }

    #[test]
    fn publish_traced_reports_stream_scaling() {
        use crate::trace::{SpanId, Tracer};
        // stream_factor 1: SPJ outputs scale by m_i, and the trace's ingest
        // mark must say so (the scale_pow detail drives the `experiments
        // trace` timeline annotations).
        let schema = Schema::from_pairs(&[("x", DataType::Int)]);
        let mut sink = Sink::new(schema, vec!["x".into()], Presentation::default(), 1, None);
        sink.ingest(vec![ORow::new(vec![Value::Int(1)])], vec![]);
        let reg = AggRegistry::new();
        let t = Tracer::new();
        let out = sink.publish_traced(&reg, 4.0, 0, 0.95, Some(&t), 0, SpanId::NONE);
        assert!((out.relation.rows()[0].mult - 4.0).abs() < 1e-12);
        let evs = t.events();
        let mark = evs.iter().find(|e| e.name == "sink.ingested").unwrap();
        assert!(
            mark.detail.contains("scale_pow=1"),
            "scaling path surfaces in the mark: {}",
            mark.detail
        );
    }

    #[test]
    fn untraced_publish_journals_nothing() {
        let schema = Schema::from_pairs(&[("x", DataType::Int)]);
        let mut sink = Sink::new(schema, vec!["x".into()], Presentation::default(), 0, None);
        sink.ingest(vec![ORow::new(vec![Value::Int(1)])], vec![]);
        let reg = AggRegistry::new();
        // The untraced wrapper takes the same render path with zero journal
        // activity — the Option gate is the only overhead.
        let out = sink.publish(&reg, 1.0, 0, 0.95);
        assert_eq!(out.relation.len(), 1);
    }

    #[test]
    fn presentation_sorts_and_limits() {
        let schema = Schema::from_pairs(&[("x", DataType::Int)]);
        let mut sink = Sink::new(
            schema,
            vec!["x".into()],
            Presentation {
                sort_keys: vec![(Expr::Col(0), false)],
                limit: Some(2),
            },
            0,
            None,
        );
        sink.ingest(
            vec![
                ORow::new(vec![Value::Int(5)]),
                ORow::new(vec![Value::Int(9)]),
                ORow::new(vec![Value::Int(7)]),
            ],
            vec![],
        );
        let reg = AggRegistry::new();
        let out = sink.publish(&reg, 1.0, 0, 0.95);
        assert_eq!(out.relation.len(), 2);
        assert_eq!(out.relation.rows()[0].values[0], Value::Int(9));
        assert_eq!(out.relation.rows()[1].values[0], Value::Int(7));
    }

    #[test]
    fn presentation_keeps_ties_in_arrival_order() {
        // Sorted descending on the first column only: rows tied on it come
        // out in the order they arrived, with or without a LIMIT cutting
        // through them (enough rows that selection does not just sort).
        let schema = Schema::from_pairs(&[("k", DataType::Int), ("id", DataType::Int)]);
        let key = |id: i64| id * 7 % 3;
        let rows: Vec<ORow> = (0..60)
            .map(|id| ORow::new(vec![Value::Int(key(id)), Value::Int(id)]))
            .collect();
        let mut arrival: Vec<i64> = (0..60).collect();
        arrival.sort_by_key(|&id| std::cmp::Reverse(key(id)));
        for limit in [None, Some(5), Some(23), Some(59)] {
            let mut sink = Sink::new(
                schema.clone(),
                vec!["k".into(), "id".into()],
                Presentation {
                    sort_keys: vec![(Expr::Col(0), false)],
                    limit,
                },
                0,
                None,
            );
            sink.ingest(rows.clone(), vec![]);
            let out = sink.publish(&AggRegistry::new(), 1.0, 0, 0.95);
            let ids: Vec<Value> = out
                .relation
                .rows()
                .iter()
                .map(|r| r.values[1].clone())
                .collect();
            let n = limit.map_or(60, |n| n as usize);
            let want: Vec<Value> = arrival[..n].iter().map(|&id| Value::Int(id)).collect();
            assert_eq!(ids, want, "limit {limit:?}");
        }
    }
}
