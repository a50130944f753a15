//! The query controller (§7): mini-batch driving, result collection,
//! variation-range monitoring, checkpointing, and failure recovery.
//!
//! Per §7, "the query controller partitions the input data into
//! mini-batches, schedules the delta update query on each mini-batch and
//! collects query results. The controller also monitors the correctness of
//! all the variation ranges, and schedules recomputing jobs to recover the
//! query result when a failure is detected."
//!
//! Recovery implements §5.1: operator state (and the registry) is
//! checkpointed every `checkpoint_interval` batches; when a range-integrity
//! failure at batch `i` names a recovery point `j`, the controller restores
//! the newest checkpoint ≤ `j` and replays batches `j+1..=i` as one combined
//! delta (the replayed observation is then covered by `R_j` by choice of
//! `j`, so the replay passes the integrity check — Theorem 1's recovery
//! argument). An operator error and a panicking publish take the same
//! rollback path, restoring the checkpoint before batch `i`; the policy
//! behind it lives in [`crate::recovery`].

use crate::config::IolapConfig;
use crate::faults::FaultInjector;
use crate::metrics::{Metrics, Span};
use crate::ops::{BatchCtx, BatchStats, OnlineOp, WeightMemo};
use crate::recovery::{stake, Recovery, Stake, MAX_RECOVERY_DEPTH};
use crate::registry::AggRegistry;
use crate::rewriter::{rewrite, OnlineQuery, RewriteError};
use crate::sink::{QueryResult, Sink};
use crate::trace::{self_time_by_name, SpanId, Tracer, NO_BATCH};
use iolap_bootstrap::RangeOutcome;
use iolap_engine::{plan_sql, EngineError, FunctionRegistry, PlanError, PlannedQuery};
use iolap_relation::{AggRef, BatchedRelation, Catalog, Relation, Row};
use std::collections::HashSet;
use std::fmt;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Signature of an installable static plan verifier: `Err` carries the
/// rendered violation report.
pub type PlanVerifier = fn(&OnlineQuery) -> Result<(), String>;

/// Process-wide static plan verifier hook.
///
/// The verifier lives in `iolap-analyze`, which depends on this crate — a
/// direct call would be a dependency cycle, so the analyzer *installs* its
/// check here and the driver consults it (in debug builds only) on every
/// rewritten plan before batch 0.
static PLAN_VERIFIER: OnceLock<PlanVerifier> = OnceLock::new();

/// Install a static plan verifier, run on every rewritten online query in
/// debug builds before any batch is processed. A verifier returning
/// `Err(report)` fails driver construction with [`DriverError::Setup`].
/// Installation is process-wide and idempotent (first install wins).
pub fn install_plan_verifier(verifier: PlanVerifier) {
    let _ = PLAN_VERIFIER.set(verifier);
}

/// Driver errors.
#[derive(Debug)]
pub enum DriverError {
    /// Planning failed.
    Plan(PlanError),
    /// Online rewriting failed.
    Rewrite(RewriteError),
    /// Execution failed.
    Engine(EngineError),
    /// Setup problem (unknown streamed table, bad config).
    Setup(String),
}

impl fmt::Display for DriverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DriverError::Plan(e) => write!(f, "{e}"),
            DriverError::Rewrite(e) => write!(f, "{e}"),
            DriverError::Engine(e) => write!(f, "{e}"),
            DriverError::Setup(m) => write!(f, "setup error: {m}"),
        }
    }
}

impl std::error::Error for DriverError {}

impl From<PlanError> for DriverError {
    fn from(e: PlanError) -> Self {
        DriverError::Plan(e)
    }
}
impl From<RewriteError> for DriverError {
    fn from(e: RewriteError) -> Self {
        DriverError::Rewrite(e)
    }
}
impl From<EngineError> for DriverError {
    fn from(e: EngineError) -> Self {
        DriverError::Engine(e)
    }
}

/// Everything reported for one processed mini-batch.
#[derive(Clone, Debug)]
pub struct BatchReport {
    /// 0-based batch index.
    pub batch: usize,
    /// Partial query result `Q(D_i, m_i)` with error estimates.
    pub result: QueryResult,
    /// Instrumentation for this batch (including any replay work).
    pub stats: BatchStats,
    /// Named per-operator counters and spans recorded while processing
    /// this batch (including any replay work). See [`crate::metrics`].
    pub metrics: Metrics,
    /// Wall-clock time spent processing this batch.
    pub elapsed: Duration,
    /// Fraction of the streamed relation processed so far.
    pub fraction: f64,
    /// Whether a failure-recovery replay happened in this batch.
    pub recovered: bool,
    /// Join-state bytes after this batch.
    pub state_bytes_join: usize,
    /// Non-join operator state bytes after this batch.
    pub state_bytes_other: usize,
    /// Exclusive per-span self-time for this batch, `(span name, ns)` in
    /// name order, derived from the trace span tree (nested spans do not
    /// double-count, unlike a plain sum of the `*_ns` metrics). Empty when
    /// tracing is off.
    pub self_time_ns: Vec<(&'static str, u64)>,
}

/// One durable-log event re-applied during a session resume, in log order.
///
/// The durable layer (`iolap-server`/`iolap-store`) records what the
/// driver *did* — batches processed, rows appended, checkpoints saved —
/// and resume rebuilds a fresh driver from the original request and walks
/// these events forward. Re-derivation over re-materialisation: the
/// driver is deterministic, so replaying the events reproduces every
/// quarantine decision, failure count, and published result byte-for-byte
/// (modulo wall-clock), while the logged checkpoint digests verify that
/// the re-derived state matches what the dead process had.
#[derive(Clone, Debug)]
pub enum ReplayEvent {
    /// Re-run the mini-batch at this 0-based index (a spilled report).
    Batch(usize),
    /// Re-apply appended rows at this position in the stream.
    Append(Relation),
    /// Check the re-derived checkpoint after `batch` against the digest
    /// the log recorded at save time. A mismatch is counted stale (the
    /// on-disk record lied — bit rot or an injected `StaleManifest`), not
    /// fatal: the re-derived state is the ground truth.
    Checkpoint {
        /// Batch the checkpoint was saved after.
        batch: usize,
        /// Digest the durable log recorded for it.
        digest: u64,
    },
}

/// What [`IolapDriver::resume_replay`] did, with the regenerated reports.
#[derive(Debug, Default)]
pub struct ResumeOutcome {
    /// Reports regenerated by replaying the logged batches, in order.
    /// Deterministic modulo `elapsed` — byte-identical to the lost
    /// originals under any wall-clock-masking comparison.
    pub reports: Vec<BatchReport>,
    /// Batches re-run.
    pub replayed_batches: usize,
    /// Append events re-applied.
    pub reapplied_appends: usize,
    /// Logged checkpoint digests that disagreed with the re-derived state.
    pub stale_digests: usize,
}

/// One `run_batch` call's accumulators, threaded through its passes and
/// rollbacks.
struct BatchRun {
    /// 0-based batch index.
    i: usize,
    /// The batch's trace span (`SpanId::NONE` when tracing is off).
    span: SpanId,
    stats: BatchStats,
    metrics: Metrics,
    /// Rollbacks taken so far, over every failure cause.
    depth: usize,
}

/// Why a processing pass of batch `i` must be rolled back.
enum Rollback {
    /// An operator or publish error (a contained panic included): replay
    /// batch `i` itself.
    Error(DriverError),
    /// A failed variation range, as `(target, outcomes)`: replay from
    /// batch `target` on; `outcomes` counts the pass's range outcomes
    /// (trace detail).
    Range(usize, usize),
}

/// The iOLAP incremental query driver.
pub struct IolapDriver {
    config: IolapConfig,
    catalog: Catalog,
    stream_table: String,
    batches: BatchedRelation,
    root: OnlineOp,
    sink: Sink,
    registry: AggRegistry,
    next_batch: usize,
    /// Checkpoints, failure counts and the re-admission policy.
    recovery: Recovery,
    total_failures: usize,
    last_published: usize,
    /// Metrics accumulated across every processed batch (monotone, even
    /// across checkpoint restores — replay work adds, never resets).
    cumulative_metrics: Metrics,
    /// Setup-time metrics (the rewrite span) waiting to be folded into the
    /// first batch's report.
    pending_metrics: Metrics,
    /// Registry deref count at the last per-batch snapshot.
    last_derefs: u64,
    /// Armed fault-injection hooks; `None` (the production default) unless
    /// the config carries a `FaultPlan`.
    faults: Option<Arc<FaultInjector>>,
    /// Causal trace journal; `None` (the production default) unless the
    /// config enables a [`crate::trace::TraceMode`]. Shared with the
    /// registry and the fault injector so their events land in the same
    /// journal — and survive a panicking batch.
    tracer: Option<Arc<Tracer>>,
    /// Root "query" span all batch spans hang off.
    query_span: SpanId,
    /// Shard pool for scale-out fold dispatch; `None` (the production
    /// default) folds in-process. Attached post-construction via
    /// [`IolapDriver::set_shard_exec`] — the pool outlives checkpoints and
    /// is never part of restored state.
    shards: Option<Arc<dyn crate::shard::ShardExec>>,
    /// Bootstrap weights drawn so far, by stream-row ordinal, so that a
    /// second scan and every replay reuse them. A cache, not state: it is
    /// neither checkpointed nor restored, and checkpoint retention drops
    /// the rows no feasible recovery can replay.
    weight_memo: WeightMemo,
}

impl IolapDriver {
    /// Compile and prepare a SQL query for incremental execution, streaming
    /// `stream_table` in `config.num_batches` mini-batches.
    pub fn from_sql(
        sql: &str,
        catalog: &Catalog,
        registry: &FunctionRegistry,
        stream_table: &str,
        config: IolapConfig,
    ) -> Result<Self, DriverError> {
        let pq = plan_sql(sql, catalog, registry)?;
        Self::from_plan(&pq, catalog, stream_table, config)
    }

    /// Prepare an already-planned query.
    pub fn from_plan(
        pq: &PlannedQuery,
        catalog: &Catalog,
        stream_table: &str,
        config: IolapConfig,
    ) -> Result<Self, DriverError> {
        let stream_table = stream_table.to_ascii_lowercase();
        if config.num_batches == 0 {
            return Err(DriverError::Setup("num_batches must be at least 1".into()));
        }
        let rel = catalog
            .get(&stream_table)
            .map_err(|e| DriverError::Setup(e.to_string()))?;
        let streamed: HashSet<String> = [stream_table.clone()].into();
        let mut pending_metrics = Metrics::new();
        let rewrite_span = Span::start();
        let oq = rewrite(pq, &streamed)?;
        rewrite_span.stop(&mut pending_metrics, "rewrite.ns");
        if cfg!(debug_assertions) {
            if let Some(verifier) = PLAN_VERIFIER.get() {
                verifier(&oq)
                    .map_err(|m| DriverError::Setup(format!("plan verification failed:\n{m}")))?;
            }
        }
        let OnlineQuery { root, sink, .. } = oq;
        let batches = BatchedRelation::partition(
            &rel,
            config.num_batches,
            config.seed,
            config.partition_mode,
        );
        let mut registry = AggRegistry::new();
        let tracer = Tracer::from_mode(config.trace_mode).map(Arc::new);
        let query_span = match &tracer {
            Some(t) => t.begin("query", NO_BATCH, SpanId::NONE),
            None => SpanId::NONE,
        };
        if let Some(t) = &tracer {
            registry.set_tracer(t.clone());
        }
        let faults = config.fault_plan.clone().map(|plan| {
            let mut inj = FaultInjector::new(plan);
            if let Some(t) = &tracer {
                inj = inj.with_tracer(t.clone());
            }
            Arc::new(inj)
        });
        if let Some(f) = &faults {
            registry.set_fault_injector(f.clone());
        }
        Ok(IolapDriver {
            config,
            catalog: catalog.clone(),
            stream_table,
            batches,
            recovery: Recovery::new((&root, &sink, &registry)),
            root,
            sink,
            registry,
            next_batch: 0,
            total_failures: 0,
            last_published: 0,
            cumulative_metrics: Metrics::new(),
            pending_metrics,
            last_derefs: 0,
            faults,
            tracer,
            query_span,
            shards: None,
            weight_memo: WeightMemo::default(),
        })
    }

    /// Attach a shard pool: aggregate folds dispatch across it from the
    /// next batch on. Results stay byte-identical to the un-sharded run
    /// (see [`crate::shard`] for the merge-order discipline).
    pub fn set_shard_exec(&mut self, exec: Arc<dyn crate::shard::ShardExec>) {
        self.shards = Some(exec);
    }

    /// Cumulative partial-state bytes shipped by the attached shard pool
    /// (0 without one) — the paper's "data shipped" axis.
    pub fn shard_bytes_shipped(&self) -> u64 {
        self.shards.as_ref().map_or(0, |s| s.bytes_shipped())
    }

    /// The configuration this driver was built with (the serving layer
    /// reads the seed for its deterministic scheduling tie-break).
    pub fn config(&self) -> &IolapConfig {
        &self.config
    }

    /// Number of mini-batches.
    pub fn num_batches(&self) -> usize {
        self.batches.num_batches()
    }

    /// Batches processed so far.
    pub fn batches_done(&self) -> usize {
        self.next_batch
    }

    /// Total failure-recovery events so far.
    pub fn total_failures(&self) -> usize {
        self.total_failures
    }

    /// The registry (instrumentation / tests).
    pub fn registry(&self) -> &AggRegistry {
        &self.registry
    }

    /// Metrics accumulated across all batches processed so far. Monotone
    /// non-decreasing, including across failure recovery: a checkpoint
    /// restore rolls back operator state, never the observability record.
    pub fn metrics(&self) -> &Metrics {
        &self.cumulative_metrics
    }

    /// Process the next mini-batch; `None` when all data is consumed.
    pub fn step(&mut self) -> Option<Result<BatchReport, DriverError>> {
        if self.next_batch >= self.batches.num_batches() {
            return None;
        }
        let i = self.next_batch;
        self.next_batch += 1;
        Some(self.run_batch(i))
    }

    /// Run every remaining batch, returning all reports.
    pub fn run_to_completion(&mut self) -> Result<Vec<BatchReport>, DriverError> {
        let mut out = Vec::new();
        while let Some(r) = self.step() {
            out.push(r?);
        }
        Ok(out)
    }

    /// The streamed table this driver consumes (lowercased), used by the
    /// serving layer to route `{"op":"append"}` rows to sessions.
    pub fn stream_table(&self) -> &str {
        &self.stream_table
    }

    /// Schema of the streamed relation — the shape appended rows must fit.
    pub fn stream_schema(&self) -> &iolap_relation::Schema {
        self.batches.batch(0).schema()
    }

    /// The armed fault injector, when the config carries a `FaultPlan`.
    /// The durable layer consults it for torn-write / truncated-segment /
    /// stale-manifest hooks; `None` in production.
    pub fn fault_injector(&self) -> Option<&Arc<FaultInjector>> {
        self.faults.as_ref()
    }

    /// Continuous ingest: extend the stream with `rel` as one new
    /// mini-batch, picked up by the next `step`. Works mid-stream and
    /// after the original partition is exhausted — late arrival simply
    /// grows the totals, so earlier prefixes scale up (the multiplicity
    /// semantics of §2) and the final answer is exact again once the new
    /// batch is consumed (Theorem 1). Returns the new batch's 0-based
    /// index.
    pub fn append_rows(&mut self, rel: Relation) -> Result<usize, DriverError> {
        if rel.is_empty() {
            return Err(DriverError::Setup(
                "append carries no rows (an empty mini-batch has no information)".into(),
            ));
        }
        if rel.schema() != self.stream_schema() {
            return Err(DriverError::Setup(format!(
                "append schema does not match streamed table '{}'",
                self.stream_table
            )));
        }
        let index = self.batches.num_batches();
        self.batches.push_batch(rel);
        if let Some(t) = &self.tracer {
            t.instant(
                "stream.append",
                index,
                self.query_span,
                self.batches.batch(index).len() as u64,
                format!("table {}", self.stream_table),
            );
        }
        Ok(index)
    }

    /// Digest and state bytes of the retained checkpoint saved after
    /// `batch`, when it is still retained (pruning may have dropped it —
    /// that is bounded retention, not corruption).
    pub fn checkpoint_for(&self, batch: usize) -> Option<(u64, usize)> {
        self.recovery.checkpoint_for(batch)
    }

    /// Resume a session from its durable log: walk `events` forward,
    /// re-running batches, re-applying appends at their original stream
    /// positions, and verifying re-derived checkpoints against the logged
    /// digests. Must be called on a freshly built driver (same request,
    /// same config/seed); the deterministic engine then reproduces the
    /// dead process's trajectory exactly, which the §5.1 machinery — not
    /// this method — keeps correct under mid-replay failures.
    pub fn resume_replay(&mut self, events: &[ReplayEvent]) -> Result<ResumeOutcome, DriverError> {
        let mut out = ResumeOutcome::default();
        for ev in events {
            match ev {
                ReplayEvent::Batch(logged) => {
                    if *logged != self.next_batch {
                        return Err(DriverError::Setup(format!(
                            "resume log out of order: driver at batch {}, log says {logged}",
                            self.next_batch
                        )));
                    }
                    match self.step() {
                        Some(Ok(report)) => {
                            out.replayed_batches += 1;
                            out.reports.push(report);
                        }
                        Some(Err(e)) => return Err(e),
                        None => {
                            return Err(DriverError::Setup(
                                "resume log replays past the end of the stream".into(),
                            ))
                        }
                    }
                }
                ReplayEvent::Append(rel) => {
                    self.append_rows(rel.clone())?;
                    out.reapplied_appends += 1;
                }
                ReplayEvent::Checkpoint { batch, digest } => {
                    // A pruned checkpoint is silently fine; a retained one
                    // whose digest disagrees means the on-disk record is
                    // stale — count it and trust the re-derived state.
                    if let Some((live, _)) = self.checkpoint_for(*batch) {
                        if live != *digest {
                            out.stale_digests += 1;
                            self.cumulative_metrics.add("resume.stale_digests", 1);
                        }
                    }
                }
            }
        }
        self.cumulative_metrics
            .add("resume.replayed_batches", out.replayed_batches as u64);
        self.cumulative_metrics
            .add("resume.reapplied_appends", out.reapplied_appends as u64);
        Ok(out)
    }

    /// Dump the flight recorder to stderr before surfacing a hard engine
    /// error — the postmortem the ring buffer exists for.
    fn dump_on_error(&self, e: DriverError) -> DriverError {
        if let Some(t) = &self.tracer {
            t.instant(
                "engine_error",
                self.next_batch.saturating_sub(1),
                self.query_span,
                0,
                e.to_string(),
            );
            eprintln!("{}", t.flight_dump());
        }
        e
    }

    /// Record a trace mark under the batch's span when tracing is on.
    fn mark(&self, run: &BatchRun, name: &'static str, n: u64, detail: impl Into<String>) {
        if let Some(t) = &self.tracer {
            t.instant(name, run.i, run.span, n, detail);
        }
    }

    fn run_batch(&mut self, i: usize) -> Result<BatchReport, DriverError> {
        let start = Span::start();
        let trace_from_seq = self.tracer.as_ref().map(|t| t.recorded()).unwrap_or(0);
        let span = match &self.tracer {
            Some(t) => t.begin("batch", i, self.query_span),
            None => SpanId::NONE,
        };
        if let Some(f) = &self.faults {
            f.begin_batch(i);
        }
        let mut run = BatchRun {
            i,
            span,
            stats: BatchStats::default(),
            metrics: std::mem::take(&mut self.pending_metrics),
            depth: 0,
        };

        // Hardened §5.1 failure handling: a pass that fails for any cause
        // rolls back and replays the suffix as one combined delta, and the
        // replay's own outcomes re-enter the examination, so a range
        // failure detected *during a replay* rolls back again (a cascade)
        // instead of being dropped.
        let mut work = self.batches.batch(i).clone();
        let (result, (state_bytes_join, state_bytes_other)) = loop {
            match self.pass(&mut run, &work) {
                Ok(done) => break done,
                Err(cause) => work = self.roll_back(&mut run, cause)?,
            }
        };
        let rows = result.relation.len() as u64;
        run.metrics.add("sink.result_rows", rows);
        self.cumulative_metrics.merge(&run.metrics);
        let self_time_ns = match &self.tracer {
            Some(t) => {
                t.end("batch", i, span, self.query_span, rows);
                self_time_by_name(&t.events_since(trace_from_seq))
                    .into_iter()
                    .collect()
            }
            None => Vec::new(),
        };
        Ok(BatchReport {
            batch: i,
            result,
            stats: run.stats,
            metrics: run.metrics,
            elapsed: start.elapsed(),
            fraction: self.batches.rows_through(i) as f64 / self.batches.total_rows().max(1) as f64,
            recovered: run.depth > 0,
            state_bytes_join,
            state_bytes_other,
            self_time_ns,
        })
    }

    /// One pass over `work` (the fresh delta, or a replay's combined
    /// delta): process, examine the range outcomes, then save a checkpoint
    /// and publish. `Err` names why the pass must be rolled back; `Ok`
    /// carries the published result and the operator state bytes.
    fn pass(
        &mut self,
        run: &mut BatchRun,
        work: &Relation,
    ) -> Result<(QueryResult, (usize, usize)), Rollback> {
        let i = run.i;
        let pass_span = Span::start();
        let attempt = self.process_delta(run, work);
        if run.depth > 0 {
            pass_span.stop(&mut run.metrics, "recovery.replay_ns");
        }
        let mut outcomes = attempt.map_err(Rollback::Error)?;
        if run.depth > 0 {
            // Re-admitting *before* examining this pass's outcomes is what
            // lets a mid-replay failure of a re-admitted range count as a
            // fresh offense.
            self.recovery.readmit(&mut self.registry);
        }
        self.apply_forced_failures(i, &mut outcomes);
        let (target, waived) = self.recovery.examine(&mut self.registry, &outcomes);
        if !waived.is_empty() {
            run.metrics
                .add("recovery.waived_failures", waived.len() as u64);
        }
        for r in waived {
            let detail = format!("agg={} col={}", r.agg, r.column);
            self.mark(run, "range.failure_waived", 0, detail);
        }
        if let Some(target) = target {
            return Err(Rollback::Range(target, outcomes.len()));
        }
        let state_bytes = self.root.state_bytes();
        let saved = self.save_checkpoint(run, state_bytes);
        let publish_span = Span::start();
        let result = contain("publish", || {
            self.sink.publish_traced(
                &self.registry,
                self.batches.scale_after(i),
                self.config.trials,
                self.config.confidence,
                self.tracer.as_deref(),
                i,
                run.span,
            )
        })
        .map_err(|e| Rollback::Error(e.into()))?;
        publish_span.stop(&mut run.metrics, "sink.publish_ns");
        // Retention runs after the publish, so a panicking publish can
        // still restore the previous save and replay batch `i` alone.
        if saved {
            if let Some(b) = self.recovery.prune(i, &self.registry, &mut run.metrics) {
                let rows = self.batches.rows_through(b) as u64;
                self.weight_memo.forget_before(rows);
            }
        }
        Ok((result, state_bytes))
    }

    /// The one rollback path (§5.1): restore the newest intact checkpoint
    /// `cause` allows, keeping the live quarantine, and return the combined
    /// delta that replays every batch after it through `i`. One depth
    /// budget covers every cause: past [`MAX_RECOVERY_DEPTH`] rollbacks an
    /// error is genuine and surfaces, and a range failure degrades — its
    /// offenders are barred from pruning for good and the whole prefix is
    /// recomputed from the initial checkpoint, HDA-style.
    fn roll_back(&mut self, run: &mut BatchRun, cause: Rollback) -> Result<Relation, DriverError> {
        run.depth += 1;
        let (i, depth) = (run.i, run.depth);
        let target = match cause {
            Rollback::Error(e) => {
                if depth > MAX_RECOVERY_DEPTH {
                    return Err(self.dump_on_error(e));
                }
                self.mark(run, "recovery.error_replay", depth as u64, e.to_string());
                run.metrics.add("recovery.error_replays", 1);
                i
            }
            Rollback::Range(target, outcomes) => {
                let detail = format!("replay from batch {target}");
                self.mark(run, "range.failure", outcomes as u64, detail);
                self.total_failures += 1;
                run.stats.failures = run.stats.failures.max(1);
                if depth > 1 {
                    run.metrics.add("recovery.cascades", 1);
                    let detail = format!("cascade depth {depth}");
                    self.mark(run, "recovery.cascade", depth as u64, detail);
                }
                if depth > MAX_RECOVERY_DEPTH {
                    run.metrics.add("recovery.degraded", 1);
                    self.mark(run, "recovery.degraded", depth as u64, "");
                    self.recovery.bar_offenders(&self.registry);
                    0
                } else {
                    target
                }
            }
        };
        let restore_span = Span::start();
        let from = self.restore(target, &mut run.metrics)?;
        restore_span.stop(&mut run.metrics, "recovery.restore_ns");
        let work = self.combined_delta(from, i);
        run.metrics.add("recovery.replays", 1);
        run.metrics.add("recovery.replayed_rows", work.len() as u64);
        let detail = format!("replay batches {from}..={i} (target {target})");
        self.mark(run, "recovery.replay", work.len() as u64, detail);
        Ok(work)
    }

    /// Restore the newest intact checkpoint for `target`, keeping the live
    /// quarantine, and reset the per-batch diff baselines to the restored
    /// registry. Returns the first batch to replay.
    fn restore(&mut self, target: usize, metrics: &mut Metrics) -> Result<usize, DriverError> {
        let live = (&mut self.root, &mut self.sink, &mut self.registry);
        let from = self.recovery.restore(target, live, metrics)?;
        self.last_published = self.registry.published_bytes();
        self.last_derefs = self.registry.deref_count();
        Ok(from)
    }

    /// Checkpoint the state after the batch when the interval says so;
    /// `state_bytes` is `root.state_bytes()`. Returns whether a checkpoint
    /// was saved.
    fn save_checkpoint(&mut self, run: &mut BatchRun, state_bytes: (usize, usize)) -> bool {
        let i = run.i;
        if !(i + 1).is_multiple_of(self.config.checkpoint_interval.max(1)) {
            return false;
        }
        if matches!(&self.faults, Some(f) if f.inject_checkpoint_drop(i)) {
            // Injected lost write: recovery must cope with the gap by
            // falling back to an older checkpoint.
            run.metrics.add("ckpt.dropped", 1);
            self.mark(run, "ckpt.drop", 0, "");
            return false;
        }
        let save_span = Span::start();
        let corrupt = matches!(&self.faults, Some(f) if f.inject_checkpoint_corruption(i));
        let live = (&self.root, &self.sink, &self.registry);
        let bytes = self.recovery.save(i, live, state_bytes, corrupt);
        save_span.stop(&mut run.metrics, "ckpt.save_ns");
        self.mark(run, "ckpt.save", bytes as u64, "");
        run.metrics.add("ckpt.saves", 1);
        run.metrics.add("ckpt.clone_bytes", bytes as u64);
        true
    }

    fn process_delta(
        &mut self,
        run: &mut BatchRun,
        delta: &Relation,
    ) -> Result<Vec<(AggRef, RangeOutcome)>, DriverError> {
        let i = run.i;
        let shipped_before = self.shard_bytes_shipped();
        let mut ctx = BatchCtx {
            registry: &mut self.registry,
            batch_index: i,
            scale: self.batches.scale_after(i),
            slack: self.config.slack,
            trials: self.config.trials,
            // A replay prunes nothing: it would stamp decisions over the
            // whole replayed span with batch `i`, which a restore can no
            // longer undo short of the checkpoint before the span. The
            // next fresh pass classifies what the replay kept.
            opt1: self.config.opt_tuple_partition && run.depth == 0,
            opt2: self.config.opt_lazy_lineage,
            last_batch: i + 1 == self.batches.num_batches(),
            stream_delta: delta,
            stream_table: &self.stream_table,
            catalog: &self.catalog,
            seed: self.config.seed,
            weight_memo: &mut self.weight_memo,
            shards: self.shards.as_deref(),
            stats: BatchStats::default(),
            outcomes: Vec::new(),
            metrics: Metrics::new(),
            faults: self.faults.as_deref(),
            trace: self.tracer.as_deref(),
            cur_span: run.span,
        };
        // A panicking operator must surface as a recoverable error, not
        // tear down the controller.
        let out = contain("operator", || self.root.process(&mut ctx))??;
        let outcomes = std::mem::take(&mut ctx.outcomes);
        let ctx_stats = std::mem::take(&mut ctx.stats);
        let ctx_metrics = std::mem::take(&mut ctx.metrics);
        drop(ctx);
        let (stats, metrics) = (&mut run.stats, &mut run.metrics);
        stats.recomputed_tuples += ctx_stats.recomputed_tuples;
        // published_bytes is cumulative; report per-pass growth.
        let published = self.registry.published_bytes();
        let publish_delta = published.saturating_sub(self.last_published);
        self.last_published = published;
        stats.shipped_bytes += ctx_stats.shipped_bytes + publish_delta;
        stats.failures += ctx_stats.failures;
        metrics.merge(&ctx_metrics);
        metrics.add("registry.publish_bytes", publish_delta as u64);
        if self.shards.is_some() {
            metrics.add(
                "shard.bytes_shipped",
                self.shard_bytes_shipped().saturating_sub(shipped_before),
            );
        }
        // Derefs happen through `&self` (lazy lineage resolution during
        // expression evaluation), so the count lives in the registry; diff it
        // here for the per-batch view. Restores never interleave within
        // one process_delta, so the snapshot diff is well-defined.
        let derefs = self.registry.deref_count();
        metrics.add("registry.derefs", derefs.saturating_sub(self.last_derefs));
        self.last_derefs = derefs;
        out.record_channel(metrics);
        self.sink.ingest(out.delta_certain, out.uncertain);
        Ok(outcomes)
    }

    /// Flip an armed `FailRange` fault: a matching `Ok` outcome becomes a
    /// `Failure { replay_from: i-1 }` — the shape a tracker reports when
    /// only the previous batch's range still covers the fresh envelope.
    /// Downstream recovery cannot tell the difference, which is the point;
    /// and the hardened loop does not *depend* on the claim being true
    /// (an inaccurate target at worst re-fails the replay, which recovers
    /// again, bounded). Only ranges whose failure the usage gate acts on
    /// are eligible ([`stake`] is `Since`), so every fired fault forces a
    /// rollback. At most one outcome flips per pass, so multiple armed
    /// faults stagger across recovery passes — the second lands
    /// *mid-replay*, exercising the cascade path.
    fn apply_forced_failures(&self, i: usize, outcomes: &mut [(AggRef, RangeOutcome)]) {
        if self.faults.is_none() {
            return;
        }
        for (r, o) in outcomes.iter_mut() {
            if !matches!(o, RangeOutcome::Ok)
                || !matches!(stake(&self.registry, r), Stake::Since(_))
            {
                continue;
            }
            if matches!(&self.faults, Some(f) if f.inject_range_failure(r.agg, r.column)) {
                *o = RangeOutcome::Failure {
                    replay_from: i.checked_sub(1),
                };
                return;
            }
        }
    }

    /// Per-fault fire counts `(kind label, armed batch, fires)` when a
    /// fault plan is armed; empty in production (no plan).
    pub fn fault_fires(&self) -> Vec<(&'static str, usize, u64)> {
        self.faults.as_ref().map(|f| f.fired()).unwrap_or_default()
    }

    /// The trace journal, when the config enabled one.
    pub fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.tracer.as_ref()
    }

    /// Snapshot of the retained trace events (empty when tracing is off).
    pub fn trace_events(&self) -> Vec<crate::trace::TraceEvent> {
        self.tracer.as_ref().map(|t| t.events()).unwrap_or_default()
    }

    /// Deterministic flight-recorder dump of the retained journal, when
    /// tracing is enabled. Also printed to stderr automatically when the
    /// driver surfaces a hard engine error.
    pub fn flight_dump(&self) -> Option<String> {
        self.tracer.as_ref().map(|t| t.flight_dump())
    }

    /// Retained checkpoint footprint: `(count, approximate state bytes)`.
    pub fn checkpoint_footprint(&self) -> (usize, usize) {
        self.recovery.footprint()
    }

    fn combined_delta(&self, from_batch: usize, through_batch: usize) -> Relation {
        let schema = self.batches.batch(0).schema().clone();
        let mut rows: Vec<Row> = Vec::new();
        for b in from_batch..=through_batch {
            rows.extend(self.batches.batch(b).rows().iter().cloned());
        }
        Relation::new(schema, rows)
    }
}

/// Run `f` behind an unwind barrier: a panic (a poisoned deref, an injected
/// fault) surfaces as an `EngineError` naming `what`, which the rollback
/// path treats like any execution error — the checkpoint mechanism makes
/// half-updated state safe to abandon.
fn contain<T>(what: &str, f: impl FnOnce() -> T) -> Result<T, EngineError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|payload| {
        EngineError::Plan(format!(
            "{what} panicked: {}",
            crate::faults::panic_message(payload)
        ))
    })
}

#[cfg(test)]
mod tests {
    //! Checkpoint-bookkeeping unit tests. End-to-end recovery correctness
    //! lives in `tests/recovery.rs`; these exercise the private restore /
    //! quarantine / metrics plumbing directly.

    use super::*;
    use crate::registry::FirstUse;
    use iolap_relation::{AggRef, DataType, PartitionMode, Schema, Value};
    use std::sync::Arc;

    /// Strictly drifting values: with zero slack, the running AVG climbs
    /// out of every early variation range, forcing recovery.
    fn catalog(n: usize) -> Catalog {
        let schema = Schema::from_pairs(&[("id", DataType::Int), ("x", DataType::Float)]);
        let rows = (0..n)
            .map(|i| vec![Value::Int(i as i64), Value::Float(i as f64 + 0.25)])
            .collect();
        let mut c = Catalog::new();
        c.register("t", Relation::from_values(schema, rows));
        c
    }

    fn driver(n: usize, batches: usize, slack: f64, ckpt: usize) -> IolapDriver {
        let mut cfg = IolapConfig::with_batches(batches)
            .trials(8)
            .seed(3)
            .slack(slack);
        cfg.partition_mode = PartitionMode::Sequential;
        cfg.checkpoint_interval = ckpt;
        IolapDriver::from_sql(
            "SELECT SUM(x) FROM t WHERE x > (SELECT AVG(x) FROM t)",
            &catalog(n),
            &FunctionRegistry::with_builtins(),
            "t",
            cfg,
        )
        .unwrap()
    }

    fn aref() -> AggRef {
        AggRef {
            agg: 0,
            column: 0,
            key: Arc::from(Vec::<Value>::new()),
        }
    }

    /// Batches of the retained checkpoints, oldest first.
    fn retained(d: &IolapDriver) -> Vec<usize> {
        d.recovery.retained()
    }

    #[test]
    fn zero_batches_is_a_setup_error() {
        let result = IolapDriver::from_sql(
            "SELECT SUM(x) FROM t",
            &catalog(8),
            &FunctionRegistry::with_builtins(),
            "t",
            IolapConfig::with_batches(0),
        );
        match result {
            Err(DriverError::Setup(_)) => {}
            Err(other) => panic!("expected Setup error, got: {other}"),
            Ok(_) => panic!("num_batches == 0 must be rejected"),
        }
    }

    /// Slack large enough that drifting data never escapes a range — the
    /// bookkeeping tests need checkpoint history untouched by recovery.
    const NO_FAIL: f64 = 1e12;

    #[test]
    fn checkpoints_prune_to_newest_when_no_ranges_prune() {
        // With an astronomically slack range nothing is ever pruned, so no
        // attribute has a first-use batch: every future recovery target is
        // the current batch and only the newest save (plus the pristine
        // initial checkpoint) can ever be selected.
        let mut d = driver(120, 6, NO_FAIL, 2);
        d.run_to_completion().unwrap();
        assert_eq!(retained(&d), vec![usize::MAX, 5]);
    }

    #[test]
    fn retention_keeps_checkpoints_back_to_first_use() {
        // An attribute first used for pruning at batch 4 pins every
        // checkpoint from batch 3 on; older intermediates are pruned (the
        // cap alone would keep batch 2 as well).
        let mut d = driver(100, 5, NO_FAIL, 1);
        d.registry.mark_used(aref(), 4);
        d.run_to_completion().unwrap();
        assert_eq!(retained(&d), vec![usize::MAX, 3, 4]);
    }

    #[test]
    fn weight_memo_holds_nothing_before_the_newest_checkpoint() {
        // Newest-only retention (see above): a replay can only start after
        // the newest save or at the initial state, so after every batch
        // the memo holds no row at or before the newest checkpoint — it
        // lives for about one batch. Both scans of `t` share each draw.
        let mut d = driver(120, 6, NO_FAIL, 1);
        while let Some(step) = d.step() {
            step.unwrap();
            let batches = retained(&d);
            assert_eq!(batches.len(), 2);
            let newest = batches[1];
            let replayable = d.batches.rows_through(newest) as u64;
            assert!(d.weight_memo.held().start >= replayable);
            assert!(d.weight_memo.held().is_empty());
        }
        assert_eq!(d.metrics().get("scan.weight_rows_drawn"), 120);
        assert_eq!(d.metrics().get("scan.weight_rows_reused"), 120);
    }

    #[test]
    fn weight_memo_keeps_the_rows_a_feasible_replay_scans() {
        // First used at batch 4: the oldest feasible target restores the
        // batch-3 checkpoint (retained under the cap), so rows from batch 4
        // on stay. First used at batch 0: the initial checkpoint is a
        // feasible target, so every row stays.
        for (first_use, held) in [(4, 80..100), (0, 0..100)] {
            let mut d = driver(100, 5, NO_FAIL, 1);
            d.registry.mark_used(aref(), first_use);
            d.run_to_completion().unwrap();
            assert_eq!(d.weight_memo.held(), held, "first use {first_use}");
        }
    }

    #[test]
    fn restore_truncates_newer_checkpoints() {
        let mut d = driver(120, 6, NO_FAIL, 1);
        // Pin retention to the start so the cap, not feasibility, governs.
        d.registry.mark_used(aref(), 0);
        for _ in 0..5 {
            d.step().unwrap().unwrap();
        }
        // The cap of 4: initial + the 3 newest of batches 0..=4.
        assert_eq!(retained(&d), vec![usize::MAX, 2, 3, 4]);
        // Replaying from batch 3 restores the batch-2 checkpoint.
        assert_eq!(d.restore(3, &mut Metrics::new()).unwrap(), 3);
        assert_eq!(retained(&d), vec![usize::MAX, 2]);
        // The publish baselines must match the restored registry, not the
        // discarded newer state.
        assert_eq!(d.last_published, d.registry.published_bytes());
        assert_eq!(d.last_derefs, d.registry.deref_count());
    }

    #[test]
    fn restore_with_sparse_checkpoints_replays_from_checkpoint_batch() {
        // Interval 3 saves after batches 2 and 5; a failure asking to
        // replay from batch 5 must restore the batch-2 checkpoint and
        // replay from batch 3 — the checkpoint's successor, NOT the
        // target.
        let mut d = driver(120, 6, NO_FAIL, 3);
        d.registry.mark_used(aref(), 3); // keep the batch-2 checkpoint alive
        d.run_to_completion().unwrap();
        assert_eq!(retained(&d), vec![usize::MAX, 2, 5]);
        assert_eq!(d.restore(5, &mut Metrics::new()).unwrap(), 3);
    }

    #[test]
    fn restore_to_initial_resets_published_baseline() {
        let mut d = driver(120, 6, NO_FAIL, 1);
        for _ in 0..3 {
            d.step().unwrap().unwrap();
        }
        assert!(d.last_published > 0, "batches must have published state");
        assert_eq!(d.restore(0, &mut Metrics::new()).unwrap(), 0);
        assert_eq!(retained(&d), vec![usize::MAX]);
        assert!(d.registry.is_empty());
        assert_eq!(d.last_published, 0);
    }

    #[test]
    fn corrupted_checkpoint_is_skipped_on_restore() {
        let mut d = driver(120, 6, NO_FAIL, 1);
        d.registry.mark_used(aref(), 0);
        for _ in 0..4 {
            d.step().unwrap().unwrap();
        }
        assert_eq!(retained(&d), vec![usize::MAX, 1, 2, 3]);
        // Damage the newest save; a restore targeting it must detect the
        // mismatch and fall back to the batch-2 checkpoint.
        d.recovery.damage_newest();
        let mut m = Metrics::new();
        assert_eq!(d.restore(4, &mut m).unwrap(), 3); // batch-2 checkpoint + 1
        assert_eq!(m.get("ckpt.corrupt_detected"), 1);
        assert_eq!(retained(&d), vec![usize::MAX, 1, 2]);
    }

    #[test]
    fn checkpoint_footprint_flat_as_batches_grow() {
        // Doubling the batch count at a fixed interval must not grow the
        // retained checkpoint footprint: retention is bounded by the cap,
        // not by stream length. Zero slack forces real recovery traffic
        // along the way, exercising retention under restores too.
        let peak = |num_batches: usize| {
            let mut d = driver(240, num_batches, 0.0, 2);
            let mut count = 0usize;
            let mut bytes = 0usize;
            while let Some(step) = d.step() {
                step.unwrap();
                let (c, b) = d.checkpoint_footprint();
                count = count.max(c);
                bytes = bytes.max(b);
            }
            (count, bytes)
        };
        let (count8, bytes8) = peak(8);
        let (count16, bytes16) = peak(16);
        assert!(count8 <= 4, "cap must bound retained checkpoints: {count8}");
        assert!(
            count16 <= 4,
            "cap must bound retained checkpoints: {count16}"
        );
        assert!(
            bytes16 <= 2 * bytes8.max(1),
            "peak checkpoint bytes must stay flat: {bytes16} vs {bytes8}"
        );
    }

    #[test]
    fn quarantine_survives_a_restore_and_only_first_offenders_are_lifted() {
        let mut d = driver(120, 6, NO_FAIL, 1);
        d.step().unwrap().unwrap();
        let first = aref();
        let repeat = AggRef {
            column: 1,
            ..aref()
        };
        let failed = |r: &AggRef| (r.clone(), RangeOutcome::Failure { replay_from: None });
        // Both are first used reading the batch-0 observation (`repeat`
        // has no tracker at all); batch 1 observes again, so a failure now
        // invalidates those decisions.
        d.registry.mark_used(first.clone(), 0);
        d.registry.mark_used(repeat.clone(), 0);
        d.step().unwrap().unwrap();
        assert_eq!(d.registry.observation(&first), Some(1));

        // `repeat` fails once and is re-admitted after its replay.
        assert_eq!(
            d.recovery.examine(&mut d.registry, &[failed(&repeat)]).0,
            Some(0)
        );
        d.recovery.readmit(&mut d.registry);
        assert!(!d.registry.is_quarantined(&repeat));

        // Now `first` fails for the first time and `repeat` a second time.
        let outcomes = [failed(&first), failed(&repeat)];
        assert_eq!(
            d.recovery.examine(&mut d.registry, &outcomes),
            (Some(0), vec![])
        );
        // The restored registry predates both failures; the live
        // quarantine survives it.
        assert_eq!(d.restore(0, &mut Metrics::new()).unwrap(), 0);
        assert!(d.registry.is_quarantined(&first) && d.registry.is_quarantined(&repeat));
        // Re-admission lifts the first offender only; the repeat offender
        // has reached the failure cap of two and stays barred.
        d.recovery.readmit(&mut d.registry);
        assert!(!d.registry.is_quarantined(&first));
        assert!(d.registry.is_quarantined(&repeat));
    }

    #[test]
    fn a_replay_pass_records_no_first_use() {
        // Zero slack on drifting data: by batch 2 the subquery's range
        // decides rows. The same delta at depth 0 (a fresh pass) records
        // first uses at batch 2; at depth 1 (a replay) it records none.
        let first_uses_at_2 = |depth: usize| {
            let mut d = driver(120, 6, 0.0, 1);
            d.step().unwrap().unwrap();
            d.step().unwrap().unwrap();
            let mut run = BatchRun {
                i: 2,
                span: SpanId::NONE,
                stats: BatchStats::default(),
                metrics: Metrics::new(),
                depth,
            };
            let delta = d.batches.batch(2).clone();
            d.process_delta(&mut run, &delta).unwrap();
            let uses = d.registry.first_uses().values();
            uses.filter(|u| u.batch == 2).count()
        };
        assert!(first_uses_at_2(0) > 0, "a fresh pass prunes");
        assert_eq!(first_uses_at_2(1), 0, "a replay pass prunes nothing");
    }

    #[test]
    fn a_failure_of_a_range_first_used_fresh_is_waived() {
        // The first use read the observation the tracker holds now — on a
        // real failure, the fresh range the failure adopted — so no saved
        // decision read a violated range: no rollback, no quarantine.
        let mut d = driver(120, 6, NO_FAIL, 1);
        d.step().unwrap().unwrap();
        let r = aref();
        d.registry.mark_used(r.clone(), 0);
        assert_eq!(
            d.registry.first_use(&r),
            Some(FirstUse {
                batch: 0,
                observed: Some(0)
            })
        );
        assert_eq!(stake(&d.registry, &r), Stake::Fresh);
        let outcomes = [(r.clone(), RangeOutcome::Failure { replay_from: None })];
        let (target, waived) = d.recovery.examine(&mut d.registry, &outcomes);
        assert_eq!((target, waived), (None, vec![&r]));
        assert!(!d.registry.is_quarantined(&r));
    }

    #[test]
    fn a_failure_of_a_range_first_used_at_an_older_observation_rolls_back() {
        // First used at batch 1 reading the batch-0 observation; batch 1
        // observes again. The target is what the usage gate always gave:
        // the tracker's recovery point, floored at the first-use batch.
        let mut d = driver(120, 6, NO_FAIL, 1);
        d.step().unwrap().unwrap();
        let r = aref();
        d.registry.mark_used(r.clone(), 1);
        d.step().unwrap().unwrap();
        assert_eq!(stake(&d.registry, &r), Stake::Since(1));
        for (replay_from, target) in [(None, 1), (Some(2), 3)] {
            let outcomes = [(r.clone(), RangeOutcome::Failure { replay_from })];
            d.registry.unquarantine(&r);
            let examined = d.recovery.examine(&mut d.registry, &outcomes);
            assert_eq!(examined, (Some(target), vec![]));
            assert!(d.registry.is_quarantined(&r));
        }
    }

    #[test]
    fn metrics_monotone_across_recovery() {
        // Zero slack on drifting data forces at least one checkpoint
        // restore; the cumulative metrics must keep counting monotonically
        // through it (restores roll back operator state, never the
        // observability record) and must equal the merged per-batch views.
        let mut d = driver(240, 8, 0.0, 1);
        let mut prev = Metrics::new();
        let mut merged = Metrics::new();
        let mut recovered = false;
        while let Some(step) = d.step() {
            let report = step.unwrap();
            recovered |= report.recovered;
            merged.merge(&report.metrics);
            let now = d.metrics().clone();
            for (name, v) in prev.iter() {
                assert!(
                    now.get(name) >= v,
                    "metric {name} regressed: {} < {v}",
                    now.get(name)
                );
            }
            prev = now;
        }
        assert!(recovered, "zero slack on drifting data must recover");
        assert!(prev.get("recovery.replays") >= 1);
        assert!(prev.get("scan.rows") >= 240, "replays re-scan rows");
        assert_eq!(&merged, d.metrics(), "cumulative == merged per-batch");
    }
}
