//! Online aggregation (§4.2 AGGREGATE rule) with sketch state, bootstrap
//! trials, and registry publication.
//!
//! Certain input rows are folded into per-group *sketches* — the running
//! sum/count style compressed state of §4.2 ("any aggregate function that
//! can be computed using sub-linear space can maintain the state of
//! AGGREGATE space-efficiently using sketches"). Uncertain rows (the
//! upstream non-deterministic sets) are re-aggregated from scratch each
//! batch into a temporary sketch that is merged with the persistent one at
//! output time. When the aggregated expression itself reads uncertain
//! attributes, the input cannot be sketched (§4.2) and certain rows are
//! retained as rows and recomputed.
//!
//! Every batch the operator publishes each group's current value and
//! per-trial bootstrap values to the [`AggRegistry`], where downstream
//! lineage refs resolve them lazily and variation ranges are tracked.

use crate::channel::{BatchData, ORow};
use crate::ops::{BatchCtx, OnlineOp};
use crate::shard::{self, AccState, FoldFragment, FragKind, PartialGroup};
use iolap_engine::{Accumulator, AggCall, EngineError, RefMode};
use iolap_relation::kernels::fold::merge_trials;
use iolap_relation::{AggRef, Schema, Value};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

/// Cloneable box around a dynamic accumulator.
pub struct AccBox(pub Box<dyn Accumulator>);

impl Clone for AccBox {
    fn clone(&self) -> Self {
        AccBox(self.0.boxed_clone())
    }
}

impl fmt::Debug for AccBox {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AccBox")
    }
}

/// Per-trial state for one aggregate call. SUM/COUNT/AVG — the sketchable
/// workhorses of §4.2 — use flat `f64` vectors (one slot per bootstrap
/// trial), which keeps the 100-trial piggyback close to the cost of a
/// vectorized pass instead of 100 boxed accumulator updates per row. Other
/// aggregates (UDAFs, VAR, MIN/MAX) fall back to boxed accumulators.
#[derive(Clone, Debug)]
enum TrialState {
    /// `a[t]` = Σ weight·x (or Σ weight for COUNT); `b[t]` = Σ weight over
    /// non-null inputs (presence/denominator).
    Fast {
        kind: FragKind,
        a: Vec<f64>,
        b: Vec<f64>,
    },
    Generic(Vec<AccBox>),
}

impl TrialState {
    fn new(kind: &iolap_engine::AggKind, trials: usize) -> TrialState {
        match FragKind::of(kind) {
            Some(k) => TrialState::Fast {
                kind: k,
                a: vec![0.0; trials],
                b: vec![0.0; trials],
            },
            None => TrialState::Generic((0..trials).map(|_| AccBox(kind.accumulator())).collect()),
        }
    }

    /// Fold one row whose argument value is the same in every trial; only
    /// the Poisson weights differ — the vectorizable common case.
    fn update_value(&mut self, v: &Value, row: &ORow) {
        match self {
            TrialState::Fast { kind, a, b } => {
                // Same participation rule as `gather_numeric`: NULL never
                // folds; non-numeric cells fold only for COUNT.
                let x = v.as_f64();
                if v.is_null() || (x.is_none() && *kind != FragKind::Count) {
                    return;
                }
                shard::fold_trials(
                    *kind,
                    a,
                    b,
                    x.unwrap_or(0.0),
                    row.mult,
                    row.weights.as_deref(),
                );
            }
            TrialState::Generic(accs) => {
                for (t, acc) in accs.iter_mut().enumerate() {
                    acc.0.update(v, row.trial_weight(t));
                }
            }
        }
    }

    /// Fold one row whose argument value differs per trial (uncertain
    /// aggregate arguments resolved in `Trial(t)` mode).
    fn update_trial(&mut self, t: usize, v: &Value, w: f64) {
        match self {
            TrialState::Fast { kind, a, b } => {
                if v.is_null() {
                    return;
                }
                match kind {
                    FragKind::Count => a[t] += w,
                    FragKind::Sum | FragKind::Avg => {
                        if let Some(x) = v.as_f64() {
                            a[t] += w * x;
                            b[t] += w;
                        }
                    }
                }
            }
            TrialState::Generic(accs) => accs[t].0.update(v, w),
        }
    }

    /// Trial `t`'s output; `scale` applies to extensive kinds. NaN marks
    /// "no data in this resample" (filtered by range estimation).
    fn output_f64(&self, t: usize, scale: f64) -> f64 {
        match self {
            TrialState::Fast { kind, a, b } => match kind {
                FragKind::Count => a[t] * scale,
                // An empty resample of a SUM is genuinely 0 (every tuple
                // drawn 0 times), not missing — keeping it in the envelope
                // is what lets small groups' ranges honestly include 0.
                FragKind::Sum => a[t] * scale,
                FragKind::Avg => {
                    if b[t] > 0.0 {
                        a[t] / b[t]
                    } else {
                        f64::NAN
                    }
                }
            },
            TrialState::Generic(accs) => accs[t].0.output_f64(scale).unwrap_or(f64::NAN),
        }
    }

    fn merge(&mut self, other: &TrialState) -> Result<(), EngineError> {
        match (self, other) {
            (TrialState::Fast { a, b, .. }, TrialState::Fast { a: oa, b: ob, .. }) => {
                merge_trials(a, oa);
                merge_trials(b, ob);
                Ok(())
            }
            (TrialState::Generic(accs), TrialState::Generic(other)) => {
                for (x, y) in accs.iter_mut().zip(other.iter()) {
                    x.0.merge(y.0.as_ref())?;
                }
                Ok(())
            }
            // Trial-state kinds are fixed per aggregate call at plan time,
            // so merging mismatched kinds means the sketch maps diverged —
            // report it instead of panicking in the hot path.
            _ => Err(EngineError::Plan(
                "trial-state kind mismatch while merging aggregate sketches".to_string(),
            )),
        }
    }

    fn approx_bytes(&self) -> usize {
        match self {
            TrialState::Fast { a, b, .. } => (a.len() + b.len()) * 8,
            TrialState::Generic(accs) => accs.iter().map(|x| x.0.approx_bytes()).sum(),
        }
    }

    fn len(&self) -> usize {
        match self {
            TrialState::Fast { a, .. } => a.len(),
            TrialState::Generic(accs) => accs.len(),
        }
    }
}

/// Instrumentation from one `fold_rows` call. Folds run behind `&self`
/// (workers and shard pools cannot write `&mut Metrics`), so the numbers
/// ride back to `process`, which records them around the call.
#[derive(Clone, Copy, Debug, Default)]
struct FoldStats {
    /// Wall time of the shard-pool dispatch (0 when not offloaded).
    dispatch_ns: u64,
    /// Wall time of the coordinator-side partition-order merge.
    merge_ns: u64,
    /// Per-partition partials merged.
    partials: u64,
    /// Whether any fold of this batch went through the shard pool.
    offloaded: bool,
}

impl FoldStats {
    fn absorb(&mut self, o: FoldStats) {
        self.dispatch_ns += o.dispatch_ns;
        self.merge_ns += o.merge_ns;
        self.partials += o.partials;
        self.offloaded |= o.offloaded;
    }
}

/// Group-key → sketch map, the working state of a fold.
type SketchMap = HashMap<Arc<[Value]>, GroupSketch>;

/// One grid partition's folded groups.
type PartGroups = Vec<(Arc<[Value]>, GroupSketch)>;

/// Add `sketch` to `map[key]`: merge into the group when it exists, insert
/// otherwise.
fn merge_into(
    map: &mut SketchMap,
    key: Arc<[Value]>,
    sketch: GroupSketch,
) -> Result<(), EngineError> {
    match map.get_mut(&key) {
        Some(existing) => existing.merge(&sketch),
        None => {
            map.insert(key, sketch);
            Ok(())
        }
    }
}

/// Merge per-partition groups into one map, in partition order. Every
/// topology — this thread, worker threads, remote shards — funnels through
/// this loop, so the float merge tree depends only on the grid.
fn merge_partitions(parts: impl IntoIterator<Item = PartGroups>) -> Result<SketchMap, EngineError> {
    let mut merged = SketchMap::new();
    for part in parts {
        for (key, sketch) in part {
            merge_into(&mut merged, key, sketch)?;
        }
    }
    Ok(merged)
}

/// Rebuild a partition kernel's partial group as a [`GroupSketch`] —
/// lossless: the engine accumulators are reconstructed bit-for-bit via
/// their `from_state` constructors, so a later [`GroupSketch::merge`] adds
/// exactly the floats a row-at-a-time fold of the same partition would
/// have.
fn sketch_from_partial(pg: PartialGroup) -> (Arc<[Value]>, GroupSketch) {
    use iolap_engine::{AvgAcc, CountAcc, SumAcc};
    let mut accs = Vec::with_capacity(pg.calls.len());
    let mut trials = Vec::with_capacity(pg.calls.len());
    for call in pg.calls {
        let (acc, kind): (Box<dyn Accumulator>, FragKind) = match call.acc {
            AccState::Count { n } => (Box::new(CountAcc::from_state(n)), FragKind::Count),
            AccState::Sum { sum, any } => (Box::new(SumAcc::from_state(sum, any)), FragKind::Sum),
            AccState::Avg { sum, n } => (Box::new(AvgAcc::from_state(sum, n)), FragKind::Avg),
        };
        accs.push(AccBox(acc));
        trials.push(TrialState::Fast {
            kind,
            a: call.a,
            b: call.b,
        });
    }
    let sketch = GroupSketch {
        accs,
        trials,
        has_certain: pg.has_certain,
    };
    (pg.key.into(), sketch)
}

/// Per-group sketch: one main accumulator plus per-trial state, per
/// aggregate call.
#[derive(Clone, Debug)]
struct GroupSketch {
    /// `accs[call]` — main accumulators.
    accs: Vec<AccBox>,
    /// `trials[call]` — bootstrap trial state.
    trials: Vec<TrialState>,
    /// Whether any certain row contributed (drives output tuple
    /// uncertainty: `u#(t) = ⋀ u'#(t')`).
    has_certain: bool,
}

impl GroupSketch {
    fn new(aggs: &[AggCall], trials: usize) -> Self {
        GroupSketch {
            accs: aggs.iter().map(|a| AccBox(a.kind.accumulator())).collect(),
            trials: aggs
                .iter()
                .map(|a| TrialState::new(&a.kind, trials))
                .collect(),
            has_certain: false,
        }
    }

    fn merge(&mut self, other: &GroupSketch) -> Result<(), EngineError> {
        for (a, b) in self.accs.iter_mut().zip(other.accs.iter()) {
            a.0.merge(b.0.as_ref())?;
        }
        for (a, b) in self.trials.iter_mut().zip(other.trials.iter()) {
            a.merge(b)?;
        }
        self.has_certain |= other.has_certain;
        Ok(())
    }

    fn approx_bytes(&self) -> usize {
        self.accs.iter().map(|a| a.0.approx_bytes()).sum::<usize>()
            + self
                .trials
                .iter()
                .map(TrialState::approx_bytes)
                .sum::<usize>()
    }
}

/// Online AGGREGATE operator.
#[derive(Clone, Debug)]
pub struct AggregateOp {
    /// Input operator.
    pub child: Box<OnlineOp>,
    /// Group-by column indices in the input schema.
    pub group_cols: Vec<usize>,
    /// Aggregate calls.
    pub aggs: Vec<AggCall>,
    /// Output schema (group cols then aggregate cols).
    pub schema: Schema,
    /// Stable lineage-block id (`rel(γ)`, §6.1).
    pub agg_id: u32,
    /// Compile-time per-call flag: argument reads uncertain attributes.
    pub arg_uncertain: Vec<bool>,
    /// Compile-time: input rows can carry tuple uncertainty.
    pub input_tuple_uncertain: bool,
    /// Compile-time: subtree reads the streamed relation → extensive
    /// outputs are scaled by `m_i`.
    pub scale_stream: bool,
    sketch: SketchMap,
    /// Certain rows retained when sketching is impossible (uncertain
    /// aggregate arguments, §4.2).
    unsketchable_rows: Vec<ORow>,
    emitted_certain: HashSet<Arc<[Value]>>,
    /// Compiled fast plan: when present, whole partitions fold through
    /// [`shard::fold_partition`] — locally or on a shard — instead of
    /// per-row expression evaluation.
    fast: Option<FoldFragment>,
}

impl AggregateOp {
    /// New aggregate operator.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        child: OnlineOp,
        group_cols: Vec<usize>,
        aggs: Vec<AggCall>,
        schema: Schema,
        agg_id: u32,
        arg_uncertain: Vec<bool>,
        input_tuple_uncertain: bool,
        scale_stream: bool,
    ) -> Self {
        let fast = FoldFragment::compile(agg_id, &group_cols, &aggs, &arg_uncertain);
        AggregateOp {
            child: Box::new(child),
            group_cols,
            aggs,
            schema,
            agg_id,
            arg_uncertain,
            input_tuple_uncertain,
            scale_stream,
            sketch: HashMap::new(),
            unsketchable_rows: Vec::new(),
            emitted_certain: HashSet::new(),
            fast,
        }
    }

    fn push_outcomes(
        &self,
        key: &Arc<[Value]>,
        outcomes: Vec<iolap_bootstrap::RangeOutcome>,
        ctx: &mut BatchCtx<'_>,
    ) {
        for (c, o) in outcomes.into_iter().enumerate() {
            if matches!(o, iolap_bootstrap::RangeOutcome::Failure { .. }) {
                ctx.stats.failures += 1;
            }
            ctx.outcomes.push((
                AggRef {
                    agg: self.agg_id,
                    column: c as u16,
                    key: key.clone(),
                },
                o,
            ));
        }
    }

    fn sketchable(&self) -> bool {
        !self.arg_uncertain.iter().any(|b| *b)
    }

    /// Whether a columnar fast plan compiled for this aggregate. Exposed
    /// for the static verifier (V009): a fast plan must never coexist
    /// with an uncertain aggregate argument.
    pub fn has_fast_plan(&self) -> bool {
        self.fast.is_some()
    }

    /// Bytes held in sketch + retained-row state.
    pub fn state_bytes(&self) -> usize {
        self.sketch
            .values()
            .map(GroupSketch::approx_bytes)
            .sum::<usize>()
            + self
                .unsketchable_rows
                .iter()
                .map(ORow::approx_bytes)
                .sum::<usize>()
    }

    fn fold_row(
        &self,
        sketch: &mut SketchMap,
        row: &ORow,
        certain: bool,
        registry: &crate::registry::AggRegistry,
        trials: usize,
    ) -> Result<(), EngineError> {
        let key = row.to_row().key(&self.group_cols);
        let entry = sketch
            .entry(key)
            .or_insert_with(|| GroupSketch::new(&self.aggs, trials));
        entry.has_certain |= certain;
        let r = row.to_row();
        let eval = iolap_engine::EvalContext::with_resolver(registry);
        for (c, call) in self.aggs.iter().enumerate() {
            if self.arg_uncertain[c] {
                // Argument reads lineage cells: per-trial argument values
                // differ, so evaluate in each mode.
                let v = call.input.eval(&r, &eval)?;
                entry.accs[c].0.update(&v, row.mult);
                for t in 0..trials {
                    let tv = call.input.eval(&r, &eval.with_mode(RefMode::Trial(t)))?;
                    entry.trials[c].update_trial(t, &tv, row.trial_weight(t));
                }
            } else {
                let v = call.input.eval(&r, &eval)?;
                entry.accs[c].0.update(&v, row.mult);
                entry.trials[c].update_value(&v, row);
            }
        }
        Ok(())
    }

    /// Fold one grid partition into its groups: the partition kernel when
    /// the fast plan applies (and no lineage cell turns up in an argument
    /// column), row-at-a-time otherwise.
    fn fold_chunk(
        &self,
        rows: &[ORow],
        certain: bool,
        registry: &crate::registry::AggRegistry,
        trials: usize,
    ) -> Result<PartGroups, EngineError> {
        let fast = self
            .fast
            .as_ref()
            .and_then(|frag| shard::fold_partition(frag, rows, certain));
        if let Some(groups) = fast {
            return Ok(groups.into_iter().map(sketch_from_partial).collect());
        }
        let mut map = SketchMap::new();
        for row in rows {
            self.fold_row(&mut map, row, certain, registry, trials)?;
        }
        Ok(map.into_iter().collect())
    }

    /// Fold `rows` into per-group sketches over the partition-stable grid
    /// (`shard::PARTITION_ROWS`-row slices): each partition folds
    /// sequentially, partial maps merge in partition order. Because both
    /// the grid and the merge order derive only from the row count, the
    /// result is bit-identical whether the partitions run on this thread,
    /// across `ctx.parallelism` workers, or on remote shards via
    /// `ctx.shards` ("demonstrated … on over 100 machines" — §8's
    /// scale-up/scale-out equivalence).
    fn fold_rows(
        &self,
        rows: &[ORow],
        certain: bool,
        ctx: &BatchCtx<'_>,
    ) -> Result<(SketchMap, FoldStats), EngineError> {
        let mut stats = FoldStats::default();
        if rows.is_empty() {
            return Ok((HashMap::new(), stats));
        }
        // Scale-out path: ship the fragment + rows to the shard pool and
        // merge the per-partition partials it returns. `Ok(None)` (the
        // pool cannot take this batch — lineage cells, unencodable rows)
        // falls through to the local fold of the *same* grid.
        if let (Some(exec), Some(frag)) = (ctx.shards, &self.fast) {
            // An armed WorkerPanic fault fires here exactly once per
            // batch (the shard pool replaces the local worker threads);
            // catch it so it surfaces as the same `EngineError` the
            // local path's `join` conversion produces.
            if let Some(f) = ctx.faults {
                let inject = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    f.inject_worker_panic(ctx.batch_index)
                }));
                if let Err(payload) = inject {
                    return Err(EngineError::Plan(format!(
                        "aggregate fold worker panicked: {}",
                        crate::faults::panic_message(payload)
                    )));
                }
            }
            let dispatch = crate::metrics::Span::start();
            // Forward the operator span as the fold's trace parent so
            // worker-side span summaries stitch under the right node.
            let trace_ctx = ctx.trace.map(|t| crate::shard::ShardTraceCtx {
                tracer: t,
                parent: ctx.cur_span,
                batch: ctx.batch_index,
            });
            if let Some(mut partials) = exec.fold_traced(frag, rows, certain, trace_ctx.as_ref())? {
                stats.dispatch_ns = dispatch.elapsed().as_nanos() as u64;
                stats.partials = partials.len() as u64;
                stats.offloaded = true;
                let merge = crate::metrics::Span::start();
                partials.sort_by_key(|p| p.partition);
                let map = merge_partitions(
                    partials
                        .into_iter()
                        .map(|p| p.groups.into_iter().map(sketch_from_partial).collect()),
                )?;
                stats.merge_ns = merge.elapsed().as_nanos() as u64;
                return Ok((map, stats));
            }
        }
        // Local path: same grid, optionally spread over worker threads.
        // Workers own contiguous partition *blocks* but still fold and
        // ship one group list per partition, so the coordinator-side merge
        // tree is the same with 1 worker or 8.
        let bounds: Vec<(usize, usize)> = shard::partition_bounds(rows.len()).collect();
        let registry: &crate::registry::AggRegistry = ctx.registry;
        let trials = ctx.trials;
        let fold_parts = |parts: &[(usize, usize)]| -> Result<Vec<PartGroups>, EngineError> {
            parts
                .iter()
                .map(|&(s, e)| self.fold_chunk(&rows[s..e], certain, registry, trials))
                .collect()
        };
        let workers = ctx.parallelism.max(1);
        let partials: Vec<Result<Vec<PartGroups>, EngineError>> =
            if workers == 1 || rows.len() < 4 * workers {
                vec![fold_parts(&bounds)]
            } else {
                let per = bounds.len().div_ceil(workers);
                let faults = ctx.faults;
                let batch_index = ctx.batch_index;
                let fold_parts = &fold_parts;
                // A panicking worker (e.g. a poisoned UDAF) must not abort the
                // process: `scope` joins every handle, and a panic surfaces as
                // an `Err` from `join`, which we convert into an `EngineError`
                // so the driver can report a failed batch and keep going.
                std::thread::scope(|scope| {
                    let handles: Vec<_> = bounds
                        .chunks(per)
                        .map(|parts| {
                            scope.spawn(move || {
                                if let Some(f) = faults {
                                    f.inject_worker_panic(batch_index);
                                }
                                fold_parts(parts)
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| match h.join() {
                            Ok(result) => result,
                            Err(payload) => Err(EngineError::Plan(format!(
                                "aggregate fold worker panicked: {}",
                                crate::faults::panic_message(payload)
                            ))),
                        })
                        .collect()
                })
            };
        let mut parts = Vec::with_capacity(bounds.len());
        for worker_parts in partials {
            parts.extend(worker_parts?);
        }
        Ok((merge_partitions(parts)?, stats))
    }

    pub(crate) fn process(&mut self, ctx: &mut BatchCtx<'_>) -> Result<BatchData, EngineError> {
        let sp = ctx.op_span("Aggregate");
        let input = self.child.process(ctx)?;
        ctx.stats.shipped_bytes += input.approx_bytes();
        let input_exhausted = input.exhausted;
        let mut out = BatchData::empty(self.schema.clone());
        // The fast plan compiled before the run's trial count was known.
        if let Some(frag) = &mut self.fast {
            frag.trials = ctx.trials;
        }

        // Keys touched by this batch: fresh certain rows and everything on
        // the uncertain channel. Untouched groups only need their scale
        // refreshed in the registry (delta publication).
        let sketchable = self.sketchable();
        let mut shard_stats = FoldStats::default();
        let mut touched: HashSet<Arc<[Value]>>;
        if sketchable {
            // Fold fresh certain rows into the persistent sketch.
            // (Workers cannot write `&mut Metrics`, so folds are timed and
            // counted here, around the call.)
            let fold_span = crate::metrics::Span::start();
            let (delta, fstats) = self.fold_rows(&input.delta_certain, true, ctx)?;
            fold_span.stop(&mut ctx.metrics, "agg.fold_ns");
            shard_stats.absorb(fstats);
            ctx.metrics
                .add("agg.fold_rows", input.delta_certain.len() as u64);
            // The delta map's key set is exactly the fresh rows' key set, so
            // reuse it instead of a second per-row key-allocation pass.
            touched = delta.keys().cloned().collect();
            for (k, v) in delta {
                merge_into(&mut self.sketch, k, v)?;
            }
        } else {
            self.unsketchable_rows
                .extend(input.delta_certain.iter().cloned());
            touched = input
                .delta_certain
                .iter()
                .map(|row| row.to_row().key(&self.group_cols))
                .collect();
        }

        // Temporary sketch over recomputed rows: the uncertain channel plus
        // (when unsketchable) all retained certain rows.
        let fold_span = crate::metrics::Span::start();
        let (mut temp, fstats) = self.fold_rows(&input.uncertain, false, ctx)?;
        fold_span.stop(&mut ctx.metrics, "agg.fold_ns");
        shard_stats.absorb(fstats);
        ctx.metrics
            .add("agg.fold_rows", input.uncertain.len() as u64);
        if !sketchable {
            ctx.stats.recomputed_tuples += self.unsketchable_rows.len();
            let rows = std::mem::take(&mut self.unsketchable_rows);
            let refold_span = crate::metrics::Span::start();
            let (certain_part, fstats) = self.fold_rows(&rows, true, ctx)?;
            refold_span.stop(&mut ctx.metrics, "agg.fold_ns");
            shard_stats.absorb(fstats);
            ctx.metrics.add("agg.refold_rows", rows.len() as u64);
            for (k, v) in certain_part {
                merge_into(&mut temp, k, v)?;
            }
            self.unsketchable_rows = rows;
        }
        touched.extend(temp.keys().cloned());

        // Scale-out instrumentation: only when a fold actually dispatched
        // to the shard pool, so un-sharded runs keep their metric set and
        // trace schema byte-identical.
        if shard_stats.offloaded {
            ctx.metrics
                .add("shard.dispatch_ns", shard_stats.dispatch_ns);
            ctx.metrics.add("shard.merge_ns", shard_stats.merge_ns);
            ctx.metrics.add("shard.partials", shard_stats.partials);
            ctx.trace_instant(
                "shard.dispatch",
                shard_stats.partials,
                "fragment dispatched to shard pool",
            );
            ctx.trace_instant(
                "shard.merge",
                shard_stats.partials,
                "partition-order partial merge",
            );
        }

        // Merge persistent ∪ temporary, publish, emit.
        let mut all_keys: Vec<Arc<[Value]>> = self.sketch.keys().cloned().collect();
        for k in temp.keys() {
            if !self.sketch.contains_key(k) {
                all_keys.push(k.clone());
            }
        }
        all_keys.sort_by(|a, b| {
            for (x, y) in a.iter().zip(b.iter()) {
                let ord = x.total_cmp(y);
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });

        let scale = if self.scale_stream { ctx.scale } else { 1.0 };
        let scales: Vec<f64> = self
            .aggs
            .iter()
            .map(|call| if call.kind.extensive() { scale } else { 1.0 })
            .collect();
        // Kind-based, not value-based: on the final batch m_i == 1.0 but
        // untouched groups still need their scale refreshed from the
        // previous batch's value.
        let any_extensive = self.scale_stream && self.aggs.iter().any(|c| c.kind.extensive());
        let mut emitted_uncertain = false;
        let publish_span = crate::metrics::Span::start();
        let mut groups_published = 0u64;
        let mut scale_refreshes = 0u64;
        for key in all_keys {
            if !touched.contains(&key) {
                // Delta publication: the group's unscaled sketch is
                // unchanged; only the extensive scale m_i moved. Refresh it
                // in O(1) per column.
                if any_extensive {
                    let outcomes =
                        ctx.registry
                            .refresh_scale(self.agg_id, &key, &scales, ctx.batch_index);
                    self.push_outcomes(&key, outcomes, ctx);
                    scale_refreshes += 1;
                }
                continue;
            }
            // Avoid cloning the persistent sketch when no uncertain rows
            // touched the group this batch.
            let mut merged_owned: Option<GroupSketch> = None;
            let merged: &GroupSketch = match (self.sketch.get(&key), temp.get(&key)) {
                (Some(p), Some(t)) => {
                    let mut m = p.clone();
                    m.merge(t)?;
                    merged_owned.get_or_insert(m)
                }
                (Some(p), None) => p,
                (None, Some(t)) => t,
                // `all_keys` is built from exactly these two maps, so a key
                // missing from both is sketch-bookkeeping corruption —
                // surface it as an engine error rather than aborting.
                (None, None) => {
                    return Err(EngineError::Plan(
                        "aggregate emitted a group key absent from both sketches".to_string(),
                    ))
                }
            };

            // Publish unscaled values + scales to the registry.
            let mut current = Vec::with_capacity(self.aggs.len());
            let mut trials_cols: Vec<Arc<[f64]>> = Vec::with_capacity(self.aggs.len());
            for (c, call) in self.aggs.iter().enumerate() {
                current.push(merged.accs[c].0.output(1.0));
                if call.kind.smooth() {
                    let n = merged.trials[c].len();
                    let tv: Vec<f64> = (0..n)
                        .map(|t| merged.trials[c].output_f64(t, 1.0))
                        .collect();
                    trials_cols.push(tv.into());
                } else {
                    // Non-smooth aggregates (MIN/MAX/COUNT DISTINCT, §3.3)
                    // get no bootstrap distribution: unbounded range,
                    // conservative classification.
                    trials_cols.push(Arc::from(Vec::<f64>::new()));
                }
            }
            let has_certain = merged.has_certain;
            let outcomes = ctx.registry.publish_at(
                self.agg_id,
                key.clone(),
                current.clone(),
                trials_cols,
                scales.clone(),
                ctx.slack,
                ctx.batch_index,
            );
            self.push_outcomes(&key, outcomes, ctx);
            groups_published += 1;

            // Emit the group row downstream.
            let emit_needed = !self.emitted_certain.contains(&key);
            if !emit_needed {
                continue;
            }
            let mut values: Vec<Value> = key.to_vec();
            for (c, sc) in scales.iter().enumerate() {
                let uncertain_out = self.input_tuple_uncertain || self.arg_uncertain[c];
                if uncertain_out {
                    values.push(Value::Ref(AggRef {
                        agg: self.agg_id,
                        column: c as u16,
                        key: key.clone(),
                    }));
                } else {
                    // Deterministic output (non-streamed subtree): the
                    // scale is 1, so unscaled == final.
                    debug_assert_eq!(*sc, 1.0);
                    values.push(current[c].clone());
                }
            }
            let row = ORow::new(values);
            if has_certain {
                out.delta_certain.push(row);
                self.emitted_certain.insert(key);
            } else {
                out.uncertain.push(row);
                emitted_uncertain = true;
            }
        }

        ctx.metrics.add("agg.groups_published", groups_published);
        ctx.metrics.add("agg.scale_refreshes", scale_refreshes);
        publish_span.stop(&mut ctx.metrics, "agg.publish_ns");

        // SQL semantics: a global aggregate over an empty input still yields
        // one row of "empty" outputs. Emit it transiently until real groups
        // appear.
        if self.group_cols.is_empty() && self.sketch.is_empty() && temp.is_empty() {
            let mut values = Vec::with_capacity(self.aggs.len());
            for call in &self.aggs {
                values.push(call.kind.accumulator().output(1.0));
            }
            out.uncertain.push(ORow::new(values));
            emitted_uncertain = true;
        }

        out.exhausted = if self.group_cols.is_empty() {
            // Global aggregate: one row, emitted; afterwards only the
            // registry changes.
            !self.emitted_certain.is_empty() && !emitted_uncertain
        } else {
            input_exhausted && !emitted_uncertain
        };
        ctx.close_op(sp, groups_published);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::tests::{build_rows, gen_frag, raw_rows, GEN_TRIALS, KEY_SHAPES};
    use iolap_engine::{AggKind, AvgAcc, BuiltinAgg, CountAcc, Expr, SumAcc};
    use proptest::prelude::*;

    /// The aggregate whose fast plan is `gen_frag(group_cols)`.
    fn gen_op(group_cols: Vec<usize>) -> AggregateOp {
        let schema = Schema::from_pairs(&[]);
        let call = |kind, input| AggCall {
            kind: AggKind::Builtin(kind),
            input,
            name: "x".into(),
        };
        let aggs = vec![
            call(BuiltinAgg::Count, Expr::Col(2)),
            call(BuiltinAgg::Sum, Expr::Col(2)),
            call(BuiltinAgg::Avg, Expr::Col(2)),
            call(BuiltinAgg::Count, Expr::Lit(Value::Int(1))),
            call(BuiltinAgg::Sum, Expr::Lit(Value::Float(2.5))),
        ];
        let child = OnlineOp::Scan(crate::ops::ScanOp::new("t".into(), schema.clone(), true));
        let uncertain = vec![false; aggs.len()];
        let mut op = AggregateOp::new(child, group_cols, aggs, schema, 0, uncertain, false, true);
        op.fast.as_mut().expect("fast plan compiles").trials = GEN_TRIALS;
        op
    }

    /// Every float of a sketch, as bit patterns.
    fn sketch_bits(s: &GroupSketch) -> (bool, Vec<Vec<u64>>) {
        let calls = s
            .accs
            .iter()
            .zip(&s.trials)
            .map(|(acc, trials)| {
                let any = acc.0.as_any();
                let mut bits = if let Some(c) = any.downcast_ref::<CountAcc>() {
                    vec![c.state().to_bits()]
                } else if let Some(s) = any.downcast_ref::<SumAcc>() {
                    vec![s.state().0.to_bits(), u64::from(s.state().1)]
                } else if let Some(a) = any.downcast_ref::<AvgAcc>() {
                    vec![a.state().0.to_bits(), a.state().1.to_bits()]
                } else {
                    panic!("fast sketches hold COUNT/SUM/AVG accumulators only")
                };
                let TrialState::Fast { a, b, .. } = trials else {
                    panic!("fast sketches hold flat trial vectors only")
                };
                bits.extend(a.iter().chain(b).map(|x| x.to_bits()));
                bits
            })
            .collect();
        (s.has_certain, calls)
    }

    proptest! {
        /// The partition kernel, rebuilt through `sketch_from_partial`, is
        /// bit-identical to the row-at-a-time fold — over every key shape,
        /// weighted and unweighted rows, NULL and non-numeric arguments —
        /// and emits groups in first-occurrence order.
        #[test]
        fn kernel_sketches_are_bit_identical_to_the_row_path(
            shape in 0u8..KEY_SHAPES,
            raw in raw_rows(),
            certain in any::<bool>(),
        ) {
            let (group_cols, rows) = build_rows(shape, &raw);
            let op = gen_op(group_cols.clone());
            prop_assert_eq!(op.fast.as_ref(), Some(&gen_frag(group_cols)));

            let registry = crate::registry::AggRegistry::new();
            let mut reference = SketchMap::new();
            let mut first_seen: Vec<Arc<[Value]>> = Vec::new();
            for row in &rows {
                op.fold_row(&mut reference, row, certain, &registry, GEN_TRIALS).unwrap();
                let key = row.to_row().key(&op.group_cols);
                if !first_seen.contains(&key) {
                    first_seen.push(key);
                }
            }

            let folded = op.fold_chunk(&rows, certain, &registry, GEN_TRIALS).unwrap();
            let keys: Vec<Arc<[Value]>> = folded.iter().map(|(k, _)| k.clone()).collect();
            prop_assert_eq!(keys, first_seen);
            for (key, sketch) in &folded {
                prop_assert_eq!(sketch_bits(sketch), sketch_bits(&reference[key]), "group {:?}", key);
            }
        }
    }

    #[test]
    fn group_sketch_merge() {
        let aggs = vec![AggCall {
            kind: AggKind::Builtin(BuiltinAgg::Sum),
            input: Expr::Col(0),
            name: "s".into(),
        }];
        let mut a = GroupSketch::new(&aggs, 2);
        let mut b = GroupSketch::new(&aggs, 2);
        a.accs[0].0.update(&Value::Float(10.0), 1.0);
        b.accs[0].0.update(&Value::Float(5.0), 1.0);
        b.has_certain = true;
        a.merge(&b).unwrap();
        assert_eq!(a.accs[0].0.output(1.0), Value::Float(15.0));
        assert!(a.has_certain);
    }

    #[test]
    fn accbox_clone_is_deep() {
        let mut a = AccBox(AggKind::Builtin(BuiltinAgg::Sum).accumulator());
        a.0.update(&Value::Float(3.0), 1.0);
        let b = a.clone();
        a.0.update(&Value::Float(4.0), 1.0);
        assert_eq!(a.0.output(1.0), Value::Float(7.0));
        assert_eq!(b.0.output(1.0), Value::Float(3.0));
    }
}
