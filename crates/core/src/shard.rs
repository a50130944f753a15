//! The fold grid: the partition-stable grid, the one columnar fold kernel
//! that runs on every partition of it, and the [`ShardExec`] coordinator
//! trait.
//!
//! The paper's §8 scale-out runs split every mini-batch across worker
//! nodes and merge partial aggregation state at the coordinator. This
//! module is the repo's analogue. The load-bearing invariant is
//! **bit-identity across shard counts**: the published reports of an
//! N-shard run must equal the single-process run byte for byte. Floating
//! point addition is not associative, so that only holds if the *merge
//! tree* is fixed independently of N. Two rules enforce it:
//!
//! 1. **Partition grid.** Fold partition boundaries derive only from the
//!    row count ([`PARTITION_ROWS`]-row slices), never from the shard or
//!    worker count. Every partition is folded sequentially, in row order.
//! 2. **Per-partition partials.** Shards ship one partial *per grid
//!    partition* — never pre-merged per-shard state — and the coordinator
//!    merges them in global partition order. `(p0+p1)+(p2+p3)` and
//!    `((p0+p1)+p2)+p3` differ in float; shipping per-partition keeps the
//!    tree left-leaning and shard-count-free.
//!
//! A [`FoldFragment`] is the compiled fast plan of a vectorizable
//! aggregate (builtin COUNT/SUM/AVG over bare columns or literals, no
//! uncertain arguments). [`fold_partition`] is the only columnar fold in
//! the tree: the aggregate operator runs it on its own thread, worker
//! threads and shard workers run it on theirs, and it touches each
//! (group, call) slot in row order — so a shard's partial *is* the slice
//! of local state the coordinator would have built itself.

use crate::channel::ORow;
use crate::trace::{SpanId, Tracer};
use iolap_engine::{
    Accumulator, AggCall, AggKind, AvgAcc, BuiltinAgg, CountAcc, EngineError, Expr, SumAcc,
};
use iolap_relation::kernels::fold::{
    fold_count_uniform, fold_count_weighted, fold_sum_uniform, fold_sum_weighted, gather_numeric,
};
use iolap_relation::{SelVec, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// Rows per fold partition. Fixed: the grid depends only on the row
/// count, so the merge tree — and therefore every float in the published
/// report — is independent of both `parallelism` and the shard count.
pub const PARTITION_ROWS: usize = 1024;

/// Half-open `(start, end)` row ranges of the partition grid over `n`
/// rows. Empty input yields no partitions.
pub fn partition_bounds(n: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..n.div_ceil(PARTITION_ROWS)).map(move |p| {
        let start = p * PARTITION_ROWS;
        (start, (start + PARTITION_ROWS).min(n))
    })
}

/// Aggregate kind of one fragment call (the sketchable builtins of §4.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FragKind {
    /// `COUNT(expr)` / `COUNT(*)`.
    Count,
    /// `SUM(expr)`.
    Sum,
    /// `AVG(expr)`.
    Avg,
}

impl FragKind {
    /// The fragment kind of an engine aggregate; `None` for everything but
    /// the three sketchable builtins.
    pub(crate) fn of(kind: &AggKind) -> Option<FragKind> {
        match kind {
            AggKind::Builtin(BuiltinAgg::Count) => Some(FragKind::Count),
            AggKind::Builtin(BuiltinAgg::Sum) => Some(FragKind::Sum),
            AggKind::Builtin(BuiltinAgg::Avg) => Some(FragKind::Avg),
            _ => None,
        }
    }
}

/// Where one fragment call reads its argument from.
#[derive(Clone, Debug, PartialEq)]
pub enum FragSrc {
    /// Bare input column.
    Col(usize),
    /// Constant literal (lineage-free by construction).
    Lit(Value),
}

/// The compiled fast plan of an online AGGREGATE: the part a partition
/// fold can execute without the plan tree, the registry, or any lineage
/// context — on the operator's own thread or on a shard.
#[derive(Clone, Debug, PartialEq)]
pub struct FoldFragment {
    /// Stable lineage-block id of the owning aggregate (`rel(γ)`, §6.1) —
    /// identifies the fragment across RPC frames.
    pub agg_id: u32,
    /// Group-by column indices in the input row layout.
    pub group_cols: Vec<usize>,
    /// Kind of each aggregate call.
    pub kinds: Vec<FragKind>,
    /// Argument source of each aggregate call.
    pub srcs: Vec<FragSrc>,
    /// Bootstrap trial count (length of the per-call trial vectors).
    pub trials: usize,
}

impl FoldFragment {
    /// Compile the fast plan of an aggregate: every call a builtin
    /// COUNT/SUM/AVG over a bare column or constant, no uncertain
    /// arguments; `None` otherwise. `trials` starts at 0: plans compile
    /// before the run's trial count is known, and the operator binds it
    /// when its first batch arrives.
    pub(crate) fn compile(
        agg_id: u32,
        group_cols: &[usize],
        aggs: &[AggCall],
        arg_uncertain: &[bool],
    ) -> Option<FoldFragment> {
        if arg_uncertain.iter().any(|b| *b) {
            return None;
        }
        let mut kinds = Vec::with_capacity(aggs.len());
        let mut srcs = Vec::with_capacity(aggs.len());
        for call in aggs {
            kinds.push(FragKind::of(&call.kind)?);
            srcs.push(match &call.input {
                Expr::Col(i) => FragSrc::Col(*i),
                Expr::Lit(v) if !matches!(v, Value::Ref(_) | Value::Pending(_)) => {
                    FragSrc::Lit(v.clone())
                }
                _ => return None,
            });
        }
        Some(FoldFragment {
            agg_id,
            group_cols: group_cols.to_vec(),
            kinds,
            srcs,
            trials: 0,
        })
    }
}

/// Main-accumulator state of one call as it crosses the wire: the
/// `state()` snapshot of the engine accumulator the kernel updated, which
/// the coordinator rebuilds losslessly (`CountAcc::from_state` and
/// friends).
#[derive(Clone, Debug, PartialEq)]
pub enum AccState {
    /// `COUNT`: Σ weight over non-null inputs.
    Count {
        /// Running weighted count.
        n: f64,
    },
    /// `SUM`: Σ x·weight plus the saw-any-numeric flag.
    Sum {
        /// Running weighted sum.
        sum: f64,
        /// Whether any numeric input contributed (NULL vs 0 on output).
        any: bool,
    },
    /// `AVG`: running sum + running count sketch.
    Avg {
        /// Running weighted sum.
        sum: f64,
        /// Running weighted count.
        n: f64,
    },
}

/// One call's partial state: main accumulator plus the per-trial `a`/`b`
/// bootstrap vectors (see `TrialState::Fast`).
#[derive(Clone, Debug, PartialEq)]
pub struct PartialCall {
    /// Main-accumulator state.
    pub acc: AccState,
    /// Per-trial Σ weight·x (or Σ weight for COUNT).
    pub a: Vec<f64>,
    /// Per-trial Σ weight over non-null inputs (AVG denominator).
    pub b: Vec<f64>,
}

/// One group's partial state within a partition.
#[derive(Clone, Debug, PartialEq)]
pub struct PartialGroup {
    /// Group key (values of `group_cols`, in order).
    pub key: Vec<Value>,
    /// Whether any certain row contributed.
    pub has_certain: bool,
    /// Per-call partial state, aligned with the fragment's calls.
    pub calls: Vec<PartialCall>,
}

/// One grid partition's folded partial: every group that occurred in the
/// partition, in first-occurrence order.
#[derive(Clone, Debug, PartialEq)]
pub struct FoldPartial {
    /// Global partition index on the [`PARTITION_ROWS`] grid.
    pub partition: usize,
    /// Per-group partials in first-occurrence order.
    pub groups: Vec<PartialGroup>,
}

impl FoldPartial {
    /// Rough serialized size (the in-process analogue of wire bytes): key
    /// cells at one word each plus 8 bytes per float slot.
    pub fn approx_bytes(&self) -> usize {
        self.groups
            .iter()
            .map(|g| {
                g.key.len() * 8
                    + g.calls
                        .iter()
                        .map(|c| 24 + (c.a.len() + c.b.len()) * 8)
                        .sum::<usize>()
            })
            .sum()
    }
}

/// Trace context forwarded with a fold dispatch: the coordinator's
/// journal, the span the fold executes under (the aggregate's operator
/// span), and the mini-batch index. Pools that offload over a wire ship
/// `(parent, batch)` in the request frame, run a worker-local journal,
/// and stitch the worker's span summaries back under `parent` — always as
/// `shard.*`-named instants, so [`crate::trace::canonical_events`] can
/// strip them for cross-topology byte comparison.
#[derive(Clone, Copy)]
pub struct ShardTraceCtx<'a> {
    /// Coordinator journal the stitched worker events land in.
    pub tracer: &'a Tracer,
    /// Owning span of the fold (the aggregate operator span).
    pub parent: SpanId,
    /// Mini-batch index of the dispatch.
    pub batch: usize,
}

/// Per-worker counter snapshot, surfaced by [`ShardExec::worker_stats`]
/// so experiments can report fold traffic without a manual loopback probe.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardWorkerStats {
    /// Worker shard index within the pool.
    pub shard: usize,
    /// Fold requests the worker served.
    pub folds: u64,
    /// Ack/ping round-trips the worker answered.
    pub acked: u64,
    /// Response bytes the worker shipped back (0 for in-process pools
    /// that only estimate via [`FoldPartial::approx_bytes`]).
    pub response_bytes: u64,
}

/// A pool of worker shards the aggregate fold can be dispatched to.
///
/// Contract: `fold` partitions `rows` on the [`partition_bounds`] grid,
/// runs [`fold_partition`] on each partition (here or on a worker), and
/// returns one [`FoldPartial`] per partition — pre-merging
/// across partitions is forbidden (see the module docs for why). Returns
/// `Ok(None)` when the rows cannot be shipped (e.g. lineage cells on a
/// remote transport); the caller then folds locally.
pub trait ShardExec: Send + Sync {
    /// Number of worker shards in the pool.
    fn shards(&self) -> usize;

    /// Fold `rows` across the pool; one partial per grid partition.
    fn fold(
        &self,
        frag: &FoldFragment,
        rows: &[ORow],
        certain: bool,
    ) -> Result<Option<Vec<FoldPartial>>, EngineError>;

    /// Cumulative bytes of partial state shipped shard→coordinator (the
    /// paper's "data shipped" axis). In-process pools estimate; TCP pools
    /// measure actual frame bytes.
    fn bytes_shipped(&self) -> u64;

    /// [`ShardExec::fold`] with an optional trace context. The default
    /// ignores the context and delegates, so existing pools keep working;
    /// tracing pools propagate `trace.parent`/`trace.batch` to workers
    /// and stitch their span summaries into `trace.tracer` as `shard.*`
    /// instants (never `Begin`/`End` — span-id allocation must stay
    /// topology-independent).
    fn fold_traced(
        &self,
        frag: &FoldFragment,
        rows: &[ORow],
        certain: bool,
        trace: Option<&ShardTraceCtx<'_>>,
    ) -> Result<Option<Vec<FoldPartial>>, EngineError> {
        let _ = trace;
        self.fold(frag, rows, certain)
    }

    /// Per-worker counter snapshots, in shard order. Default: none (pools
    /// that predate the telemetry plane, or have nothing to report).
    fn worker_stats(&self) -> Vec<ShardWorkerStats> {
        Vec::new()
    }
}

/// Fold `rows` on the [`PARTITION_ROWS`] grid: one [`fold_partition`] per
/// slice, one [`FoldPartial`] per partition, indexed from 0.
///
/// Returns `None` when any partition is not interpretable (see
/// [`fold_partition`]).
pub fn fold_fragment_partition(
    frag: &FoldFragment,
    rows: &[ORow],
    certain: bool,
) -> Option<Vec<FoldPartial>> {
    partition_bounds(rows.len())
        .enumerate()
        .map(|(partition, (start, end))| {
            let groups = fold_partition(frag, &rows[start..end], certain)?;
            Some(FoldPartial { partition, groups })
        })
        .collect()
}

/// Main accumulator of one open (group, call) slot: the engine's own
/// accumulators behind a closed enum, so the update arithmetic exists only
/// in `iolap_engine::aggregate` and the hot loop pays no `Box<dyn>`.
enum MainAcc {
    Count(CountAcc),
    Sum(SumAcc),
    Avg(AvgAcc),
}

impl MainAcc {
    fn new(kind: FragKind) -> MainAcc {
        match kind {
            FragKind::Count => MainAcc::Count(CountAcc::default()),
            FragKind::Sum => MainAcc::Sum(SumAcc::default()),
            FragKind::Avg => MainAcc::Avg(AvgAcc::default()),
        }
    }

    fn update(&mut self, v: &Value, weight: f64) {
        match self {
            MainAcc::Count(acc) => acc.update(v, weight),
            MainAcc::Sum(acc) => acc.update(v, weight),
            MainAcc::Avg(acc) => acc.update(v, weight),
        }
    }

    fn state(&self) -> AccState {
        match self {
            MainAcc::Count(acc) => AccState::Count { n: acc.state() },
            MainAcc::Sum(acc) => {
                let (sum, any) = acc.state();
                AccState::Sum { sum, any }
            }
            MainAcc::Avg(acc) => {
                let (sum, n) = acc.state();
                AccState::Avg { sum, n }
            }
        }
    }
}

/// One row's contribution to every bootstrap trial of one (group, call)
/// slot: `a[t] += m·w[t]·x`, `b[t] += m·w[t]` (§4.2), with `w ≡ 1` for rows
/// that carry no weights. The only caller of the trial-fold kernels.
pub(crate) fn fold_trials(
    kind: FragKind,
    a: &mut [f64],
    b: &mut [f64],
    x: f64,
    mult: f64,
    weights: Option<&[f64]>,
) {
    match (kind, weights) {
        (FragKind::Count, None) => fold_count_uniform(a, mult),
        (FragKind::Count, Some(ws)) => fold_count_weighted(a, mult, ws),
        (FragKind::Sum | FragKind::Avg, None) => fold_sum_uniform(a, b, x, mult),
        (FragKind::Sum | FragKind::Avg, Some(ws)) => fold_sum_weighted(a, b, x, mult, ws),
    }
}

/// Dense group codes of a slice: the distinct keys in first-occurrence
/// order and, per row, the index of its key.
type GroupCodes = (Vec<Vec<Value>>, Vec<usize>);

/// Typed probe for a single-column group key: probe by the cell's native
/// representation (`i64`, float bits, `&str`, bool) instead of cloning and
/// hashing a `Value` slice per row. `None` — caller uses
/// [`generic_codes`] — when the column mixes variants or carries lineage
/// cells. Same `Value`-equality semantics as the generic probe: floats
/// group by bit pattern, and `Int(1)` never meets `Float(1.0)` because
/// mixed columns bail.
fn typed_codes(g: usize, rows: &[ORow]) -> Option<GroupCodes> {
    let mut keys: Vec<Vec<Value>> = Vec::new();
    let mut codes = Vec::with_capacity(rows.len());
    let mut ints: HashMap<i64, usize> = HashMap::new();
    let mut floats: HashMap<u64, usize> = HashMap::new();
    let mut strs: HashMap<Arc<str>, usize> = HashMap::new();
    let mut bools = [None::<usize>; 2];
    let mut null_code: Option<usize> = None;
    // Variant of the column, pinned by its first non-null cell.
    let mut variant = None;
    for row in rows {
        let v = &row.values[g];
        if !v.is_null() {
            let d = std::mem::discriminant(v);
            if *variant.get_or_insert(d) != d {
                return None;
            }
        }
        let mut fresh = || {
            keys.push(vec![v.clone()]);
            keys.len() - 1
        };
        let code = match v {
            Value::Null => *null_code.get_or_insert_with(fresh),
            Value::Int(i) => *ints.entry(*i).or_insert_with(fresh),
            Value::Float(f) => *floats.entry(f.to_bits()).or_insert_with(fresh),
            Value::Bool(b) => *bools[usize::from(*b)].get_or_insert_with(fresh),
            Value::Str(s) => match strs.get(&**s) {
                Some(&code) => code,
                None => {
                    let code = fresh();
                    strs.insert(s.clone(), code);
                    code
                }
            },
            Value::Ref(_) | Value::Pending(_) => return None,
        };
        codes.push(code);
    }
    Some((keys, codes))
}

/// Generic probe: hash the key cells as a `Value` slice through a scratch
/// buffer (one clone per cell, no allocation on a hit).
fn generic_codes(group_cols: &[usize], rows: &[ORow]) -> GroupCodes {
    let mut keys: Vec<Vec<Value>> = Vec::new();
    let mut codes = Vec::with_capacity(rows.len());
    let mut index: HashMap<Vec<Value>, usize> = HashMap::new();
    let mut scratch: Vec<Value> = Vec::with_capacity(group_cols.len());
    for row in rows {
        scratch.clear();
        scratch.extend(group_cols.iter().map(|&g| row.values[g].clone()));
        let code = match index.get(scratch.as_slice()) {
            Some(&code) => code,
            None => {
                let code = keys.len();
                index.insert(scratch.clone(), code);
                keys.push(scratch.clone());
                code
            }
        };
        codes.push(code);
    }
    (keys, codes)
}

/// The columnar fold of one grid partition (≤ [`PARTITION_ROWS`] rows):
/// gather each call's argument column once, assign dense group codes with
/// one hash probe per row, then fold main accumulators and trial vectors
/// per row by code — no per-row key allocation, `EvalContext`, or
/// expression evaluation. Float additions hit each (group, call) slot in
/// input row order, exactly like the aggregate's row-at-a-time fold, so the
/// partials rebuild into sketches bit-identical to the row path's. Groups
/// come out in first-occurrence order.
///
/// Returns `None` — nothing folded — when a lineage cell (`Ref`/`Pending`)
/// shows up in an argument column; such rows need registry access and
/// take the row path at the coordinator.
pub fn fold_partition(
    frag: &FoldFragment,
    rows: &[ORow],
    certain: bool,
) -> Option<Vec<PartialGroup>> {
    if rows.is_empty() {
        return Some(Vec::new());
    }
    // Pass A: gather argument columns (bails before any group state
    // exists when a lineage cell appears).
    let ncalls = frag.srcs.len();
    let mut xs: Vec<Vec<f64>> = vec![Vec::new(); ncalls];
    let mut sels: Vec<SelVec> = (0..ncalls)
        .map(|_| SelVec::with_capacity(rows.len()))
        .collect();
    for (c, src) in frag.srcs.iter().enumerate() {
        let count_kind = frag.kinds[c] == FragKind::Count;
        let ok = match src {
            FragSrc::Col(j) => gather_numeric(
                rows.iter().map(|r| &r.values[*j]),
                count_kind,
                &mut xs[c],
                &mut sels[c],
            ),
            FragSrc::Lit(v) => gather_numeric(
                std::iter::repeat_n(v, rows.len()),
                count_kind,
                &mut xs[c],
                &mut sels[c],
            ),
        };
        if !ok {
            return None;
        }
    }
    // Pass B: dense group codes in first-occurrence order, matching the
    // row path's `entry` order.
    let (keys, codes) = match frag.group_cols.as_slice() {
        // Global aggregate: every row is the one (empty-key) group.
        [] => (vec![Vec::new()], vec![0; rows.len()]),
        [g] => typed_codes(*g, rows).unwrap_or_else(|| generic_codes(&frag.group_cols, rows)),
        cols => generic_codes(cols, rows),
    };
    // Pass C: fold per row by code — main accumulator on every row, trial
    // kernels on participating rows (per-call selection cursors).
    struct Slot {
        acc: MainAcc,
        a: Vec<f64>,
        b: Vec<f64>,
    }
    let new_group = |_| -> Vec<Slot> {
        frag.kinds
            .iter()
            .map(|&kind| Slot {
                acc: MainAcc::new(kind),
                a: vec![0.0; frag.trials],
                b: vec![0.0; frag.trials],
            })
            .collect()
    };
    let mut groups: Vec<Vec<Slot>> = keys.iter().map(new_group).collect();
    let mut cursors = vec![0usize; ncalls];
    for (i, row) in rows.iter().enumerate() {
        for (c, slot) in groups[codes[i]].iter_mut().enumerate() {
            let v: &Value = match &frag.srcs[c] {
                FragSrc::Col(j) => &row.values[*j],
                FragSrc::Lit(l) => l,
            };
            slot.acc.update(v, row.mult);
            let cur = cursors[c];
            if cur < sels[c].len() && sels[c].get(cur) == i {
                cursors[c] = cur + 1;
                fold_trials(
                    frag.kinds[c],
                    &mut slot.a,
                    &mut slot.b,
                    xs[c][cur],
                    row.mult,
                    row.weights.as_deref(),
                );
            }
        }
    }
    // Close the partition: snapshot each accumulator into its wire form.
    // `certain` is slice-constant and every group was created by a row of
    // this slice, so it is every group's `has_certain`.
    let close = |(key, slots): (Vec<Value>, Vec<Slot>)| PartialGroup {
        key,
        has_certain: certain,
        calls: slots
            .into_iter()
            .map(|s| PartialCall {
                acc: s.acc.state(),
                a: s.a,
                b: s.b,
            })
            .collect(),
    };
    Some(keys.into_iter().zip(groups).map(close).collect())
}

/// In-process reference pool: folds every partition on the calling
/// thread. Exists so determinism tests can compare shard topologies
/// without the server crate; real pools live in `iolap-server::shard`.
#[derive(Debug, Default)]
pub struct LocalShardExec {
    shipped: std::sync::atomic::AtomicU64,
}

impl ShardExec for LocalShardExec {
    fn shards(&self) -> usize {
        1
    }

    fn fold(
        &self,
        frag: &FoldFragment,
        rows: &[ORow],
        certain: bool,
    ) -> Result<Option<Vec<FoldPartial>>, EngineError> {
        let partials = fold_fragment_partition(frag, rows, certain);
        if let Some(ps) = &partials {
            let bytes: u64 = ps.iter().map(|p| p.approx_bytes() as u64).sum();
            self.shipped
                .fetch_add(bytes, std::sync::atomic::Ordering::Relaxed);
        }
        Ok(partials)
    }

    fn bytes_shipped(&self) -> u64 {
        self.shipped.load(std::sync::atomic::Ordering::Relaxed)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Trial count of the generated chunks.
    pub(crate) const GEN_TRIALS: usize = 5;

    /// One generated row before its cells are chosen: selectors for the
    /// two key columns, the argument cell and the multiplicity, plus
    /// optional per-trial weights.
    pub(crate) type RawRow = (u8, u8, u8, u8, Option<Vec<u8>>);

    pub(crate) fn raw_rows() -> impl Strategy<Value = Vec<RawRow>> {
        let weights = prop_oneof![
            Just(None),
            prop::collection::vec(0u8..4, GEN_TRIALS).prop_map(Some),
        ];
        prop::collection::vec((0u8..8, 0u8..3, 0u8..8, 0u8..4, weights), 1..160)
    }

    /// Key shapes of [`build_rows`]: 0 = global aggregate, 1–5 = one key
    /// column (Int, Float, Str, Bool, mixed Int/Float), 6 = two columns.
    pub(crate) const KEY_SHAPES: u8 = 7;

    /// Rows laid out `[k1, k2, arg]` and the group columns of `shape`.
    /// Palettes are small so groups repeat, and hold the awkward cells:
    /// NULL keys, `-0.0`, two NaN payloads, `Int(1)` beside `Float(1.0)`;
    /// NULL and non-numeric arguments.
    pub(crate) fn build_rows(shape: u8, raw: &[RawRow]) -> (Vec<usize>, Vec<ORow>) {
        let nan2 = f64::from_bits(f64::NAN.to_bits() | 1);
        let floats = [0.0, -0.0, f64::NAN, nan2, 1.0, 1.5];
        let strs = ["", "a", "b", "ab", "é"];
        let int = |k: u8| Value::Int(i64::from(k % 5) - 1);
        let key = |k: u8| match shape {
            _ if k == 7 => Value::Null,
            2 => Value::Float(floats[usize::from(k) % floats.len()]),
            3 => Value::str(strs[usize::from(k) % strs.len()]),
            4 => Value::Bool(k.is_multiple_of(2)),
            5 if k.is_multiple_of(2) => Value::Float(f64::from(k / 2)),
            5 => Value::Int(i64::from(k / 2)),
            _ => int(k),
        };
        let args = [
            Value::Int(3),
            Value::Float(2.5),
            Value::Float(-0.75),
            Value::Null,
            Value::str("n/a"),
            Value::Int(-7),
            Value::Float(1e-3),
            Value::Bool(true),
        ];
        let mults = [1.0, 0.5, 2.0, 1.25];
        let rows = raw
            .iter()
            .map(|(k1, k2, arg, mult, ws)| ORow {
                values: Arc::from(vec![
                    key(*k1),
                    Value::str(strs[usize::from(*k2)]),
                    args[usize::from(*arg)].clone(),
                ]),
                mult: mults[usize::from(*mult)],
                weights: ws
                    .as_ref()
                    .map(|ws| ws.iter().map(|w| f64::from(*w)).collect()),
            })
            .collect();
        let group_cols = match shape {
            0 => vec![],
            6 => vec![0, 1],
            _ => vec![0],
        };
        (group_cols, rows)
    }

    /// The fragment generated chunks fold under: COUNT/SUM/AVG of the
    /// argument column plus a COUNT and a SUM of literals.
    pub(crate) fn gen_frag(group_cols: Vec<usize>) -> FoldFragment {
        FoldFragment {
            agg_id: 0,
            group_cols,
            kinds: vec![
                FragKind::Count,
                FragKind::Sum,
                FragKind::Avg,
                FragKind::Count,
                FragKind::Sum,
            ],
            srcs: vec![
                FragSrc::Col(2),
                FragSrc::Col(2),
                FragSrc::Col(2),
                FragSrc::Lit(Value::Int(1)),
                FragSrc::Lit(Value::Float(2.5)),
            ],
            trials: GEN_TRIALS,
        }
    }

    proptest! {
        /// The typed single-column probe assigns exactly the generic
        /// probe's keys and codes, and bails exactly when the column mixes
        /// variants.
        #[test]
        fn typed_probe_equals_generic_probe(shape in 1u8..6, raw in raw_rows()) {
            let (cols, rows) = build_rows(shape, &raw);
            let mut variants: Vec<_> = rows
                .iter()
                .filter(|r| !r.values[0].is_null())
                .map(|r| std::mem::discriminant(&r.values[0]))
                .collect();
            variants.dedup();
            match typed_codes(cols[0], &rows) {
                Some(typed) => {
                    prop_assert!(variants.len() <= 1, "typed probe took a mixed column");
                    prop_assert_eq!(typed, generic_codes(&cols, &rows));
                }
                None => prop_assert!(variants.len() > 1, "typed probe bailed on one variant"),
            }
        }

        /// A lineage cell anywhere in an argument column makes the kernel
        /// decline the whole slice.
        #[test]
        fn kernel_declines_lineage_arguments(
            shape in 0u8..KEY_SHAPES,
            raw in raw_rows(),
            at in any::<usize>(),
        ) {
            let (group_cols, mut rows) = build_rows(shape, &raw);
            let victim = at % rows.len();
            let mut cells = rows[victim].values.to_vec();
            cells[2] = Value::Ref(iolap_relation::AggRef {
                agg: 0,
                column: 0,
                key: Arc::from(Vec::new()),
            });
            rows[victim].values = Arc::from(cells);
            prop_assert_eq!(fold_partition(&gen_frag(group_cols), &rows, true), None);
        }
    }

    fn row(vals: Vec<Value>, mult: f64, weights: Option<Vec<f64>>) -> ORow {
        ORow {
            values: Arc::from(vals),
            mult,
            weights: weights.map(Arc::from),
        }
    }

    fn frag() -> FoldFragment {
        FoldFragment {
            agg_id: 7,
            group_cols: vec![0],
            kinds: vec![FragKind::Count, FragKind::Sum, FragKind::Avg],
            srcs: vec![FragSrc::Col(1), FragSrc::Col(1), FragSrc::Col(1)],
            trials: 2,
        }
    }

    #[test]
    fn grid_depends_only_on_row_count() {
        assert_eq!(partition_bounds(0).count(), 0);
        assert_eq!(partition_bounds(1).collect::<Vec<_>>(), vec![(0, 1)]);
        assert_eq!(partition_bounds(1024).collect::<Vec<_>>(), vec![(0, 1024)]);
        assert_eq!(
            partition_bounds(1025).collect::<Vec<_>>(),
            vec![(0, 1024), (1024, 1025)]
        );
        assert_eq!(partition_bounds(4096).count(), 4);
    }

    #[test]
    fn interpreter_folds_groups_in_first_occurrence_order() {
        let rows = vec![
            row(vec![Value::str("b"), Value::Float(2.0)], 1.0, None),
            row(vec![Value::str("a"), Value::Float(3.0)], 1.0, None),
            row(vec![Value::str("b"), Value::Float(5.0)], 1.0, None),
        ];
        let partials = fold_fragment_partition(&frag(), &rows, true).unwrap();
        assert_eq!(partials.len(), 1);
        let groups = &partials[0].groups;
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].key, vec![Value::str("b")]);
        assert_eq!(groups[1].key, vec![Value::str("a")]);
        assert!(groups[0].has_certain);
        // b: count 2, sum 7; a: count 1, sum 3.
        assert_eq!(groups[0].calls[0].acc, AccState::Count { n: 2.0 });
        assert_eq!(
            groups[0].calls[1].acc,
            AccState::Sum {
                sum: 7.0,
                any: true
            }
        );
        assert_eq!(groups[1].calls[2].acc, AccState::Avg { sum: 3.0, n: 1.0 });
        // Trial vectors: uniform weights fold mult into every slot.
        assert_eq!(groups[0].calls[0].a, vec![2.0, 2.0]);
        assert_eq!(groups[0].calls[1].a, vec![7.0, 7.0]);
    }

    #[test]
    fn interpreter_applies_poisson_weights_per_trial() {
        let rows = vec![row(
            vec![Value::Int(1), Value::Float(10.0)],
            1.0,
            Some(vec![0.0, 2.0]),
        )];
        let partials = fold_fragment_partition(&frag(), &rows, false).unwrap();
        let g = &partials[0].groups[0];
        assert!(!g.has_certain);
        // COUNT trials: m·w per slot.
        assert_eq!(g.calls[0].a, vec![0.0, 2.0]);
        // SUM trials: m·w·x ; denominator m·w.
        assert_eq!(g.calls[1].a, vec![0.0, 20.0]);
        assert_eq!(g.calls[1].b, vec![0.0, 2.0]);
        // Main accumulators use mult only (trial weights are resamples).
        assert_eq!(g.calls[0].acc, AccState::Count { n: 1.0 });
    }

    #[test]
    fn interpreter_bails_on_lineage_cells() {
        let rows = vec![row(
            vec![
                Value::Int(1),
                Value::Ref(iolap_relation::AggRef {
                    agg: 0,
                    column: 0,
                    key: Arc::from(Vec::new()),
                }),
            ],
            1.0,
            None,
        )];
        assert_eq!(fold_fragment_partition(&frag(), &rows, true), None);
    }

    #[test]
    fn interpreter_splits_on_the_grid() {
        let rows: Vec<ORow> = (0..2050)
            .map(|i| row(vec![Value::Int(0), Value::Float(i as f64)], 1.0, None))
            .collect();
        let partials = fold_fragment_partition(&frag(), &rows, true).unwrap();
        assert_eq!(partials.len(), 3);
        assert_eq!(partials[0].partition, 0);
        assert_eq!(partials[2].partition, 2);
        let counts: Vec<f64> = partials
            .iter()
            .map(|p| match p.groups[0].calls[0].acc {
                AccState::Count { n } => n,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(counts, vec![1024.0, 1024.0, 2.0]);
        assert!(partials[0].approx_bytes() > 0);
    }

    #[test]
    fn local_exec_counts_shipped_bytes() {
        let rows = vec![row(vec![Value::Int(1), Value::Float(2.0)], 1.0, None)];
        let exec = LocalShardExec::default();
        let out = exec.fold(&frag(), &rows, true).unwrap().unwrap();
        assert_eq!(out.len(), 1);
        assert!(exec.bytes_shipped() > 0);
        assert_eq!(exec.shards(), 1);
    }
}
