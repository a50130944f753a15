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
//! argument).

use crate::config::IolapConfig;
use crate::faults::FaultInjector;
use crate::metrics::{Metrics, Span};
use crate::ops::{BatchCtx, BatchStats, OnlineOp, WeightMemo};
use crate::registry::AggRegistry;
use crate::rewriter::{rewrite, OnlineQuery, RewriteError};
use crate::sink::{QueryResult, Sink};
use crate::trace::{self_time_by_name, SpanId, Tracer, NO_BATCH};
use iolap_bootstrap::RangeOutcome;
use iolap_engine::{plan_sql, EngineError, FunctionRegistry, PlanError, PlannedQuery};
use iolap_relation::{AggRef, BatchedRelation, Catalog, Relation, Row};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::fmt;
use std::hash::{Hash, Hasher};
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
    /// double-count — unlike the deprecated `Metrics::total_span_ns`
    /// rollup). Empty when tracing is off.
    pub self_time_ns: Vec<(&'static str, u64)>,
}

/// Range-integrity failures an aggregate cell may cause before it is
/// permanently barred from pruning. The first failure buys a replay and a
/// fresh range (a one-off tail event on stationary data should not cost
/// pruning forever); a second failure marks the range genuinely unstable.
const MAX_REF_FAILURES: usize = 2;

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

#[derive(Clone)]
struct Checkpoint {
    batch: usize, // state is AFTER this batch (usize::MAX = initial)
    root: OnlineOp,
    sink: Sink,
    registry: AggRegistry,
    /// Integrity digest recorded at save time; a mismatch on restore marks
    /// the checkpoint unusable (bit rot, torn write — or an injected
    /// `CorruptCheckpoint` fault) and recovery falls back to an older one.
    digest: u64,
    /// Approximate state bytes cloned into this checkpoint (retention
    /// accounting; `0` for the pristine initial checkpoint).
    bytes: usize,
}

impl Checkpoint {
    /// Structural fingerprint over content-derived sizes. Not a
    /// cryptographic checksum — cheap enough to verify on every restore,
    /// strong enough to catch the simulated corruption model (a damaged
    /// digest) and gross clone/restore bugs.
    fn fingerprint(&self) -> u64 {
        self.fingerprint_with(self.root.state_bytes())
    }

    /// [`Self::fingerprint`] given `root.state_bytes()`, which a save has
    /// already measured on the live tree it cloned (one walk over operator
    /// state a batch instead of three).
    fn fingerprint_with(&self, (join_bytes, other_bytes): (usize, usize)) -> u64 {
        let mut h = DefaultHasher::new();
        self.batch.hash(&mut h);
        join_bytes.hash(&mut h);
        other_bytes.hash(&mut h);
        self.registry.len().hash(&mut h);
        self.registry.published_bytes().hash(&mut h);
        self.registry.approx_bytes().hash(&mut h);
        self.sink.certain_len().hash(&mut h);
        h.finish()
    }
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
    checkpoints: Vec<Checkpoint>,
    total_failures: usize,
    last_published: usize,
    /// Quarantine set: survives the checkpoint restore (a restored
    /// registry is re-seeded from it) so the replay cannot reuse the
    /// violated range. First-time offenders are re-admitted once the
    /// replay completes and their tracker holds a fresh range (§5.1);
    /// repeat offenders (see [`MAX_REF_FAILURES`]) stay quarantined so
    /// adversarial drift cannot force a replay per batch.
    quarantined: std::collections::HashSet<iolap_relation::AggRef>,
    /// Range-integrity failures per aggregate cell, driving the
    /// re-admission policy above.
    failure_counts: std::collections::HashMap<iolap_relation::AggRef, usize>,
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
    /// neither checkpointed nor restored, and [`Self::prune_checkpoints`]
    /// drops the rows no feasible recovery can replay.
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
        let mut initial = Checkpoint {
            batch: usize::MAX,
            root: root.clone(),
            sink: sink.clone(),
            registry: registry.clone(),
            digest: 0,
            bytes: 0,
        };
        initial.digest = initial.fingerprint();
        Ok(IolapDriver {
            config,
            catalog: catalog.clone(),
            stream_table,
            batches,
            root,
            sink,
            registry,
            next_batch: 0,
            checkpoints: vec![initial],
            total_failures: 0,
            last_published: 0,
            quarantined: std::collections::HashSet::new(),
            failure_counts: std::collections::HashMap::new(),
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
        self.checkpoints
            .iter()
            .rev()
            .find(|c| c.batch == batch)
            .map(|c| (c.digest, c.bytes))
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

    fn run_batch(&mut self, i: usize) -> Result<BatchReport, DriverError> {
        let start = Span::start();
        let mut stats = BatchStats::default();
        let mut metrics = std::mem::take(&mut self.pending_metrics);
        let mut recovered = false;
        let trace_from_seq = self.tracer.as_ref().map(|t| t.recorded()).unwrap_or(0);
        let batch_span = match &self.tracer {
            Some(t) => t.begin("batch", i, self.query_span),
            None => SpanId::NONE,
        };
        if let Some(f) = &self.faults {
            f.begin_batch(i);
        }

        // Processing + hardened §5.1 failure handling. Pass 0 runs the
        // fresh delta; a recovery pass restores a checkpoint and replays
        // the suffix as one combined delta. Crucially, each pass's
        // outcomes re-enter the examination, so a range failure detected
        // *during a replay* triggers another recovery instead of being
        // dropped — and an execution error (a panicking worker, a poisoned
        // deref) is treated as a transient batch failure that buys a
        // restore + replay rather than aborting the query.
        //
        // Termination: each failure pass permanently consumes a quarantine
        // credit (at most MAX_REF_FAILURES per attribute), error passes
        // are bounded by `max_recovery_depth`, and past the depth budget
        // the controller degrades: current offenders are barred from
        // pruning for good and the whole retained prefix is recomputed
        // HDA-style from the initial checkpoint.
        let depth_cap = self.config.max_recovery_depth.max(1);
        let mut depth = 0usize;
        let mut replaying = false;
        let mut work = self.batches.batch(i).clone();
        loop {
            let pass_span = Span::start();
            let attempt = self.process_delta(i, &work, &mut stats, &mut metrics, batch_span);
            if replaying {
                pass_span.stop(&mut metrics, "recovery.replay_ns");
            }
            let mut outcomes = match attempt {
                Ok(o) => o,
                Err(e) => {
                    // Operator state may be half-updated; roll it back and
                    // replay. Bounded: a persistent error is genuine and
                    // must surface.
                    depth += 1;
                    if depth > depth_cap {
                        return Err(self.dump_on_error(e));
                    }
                    if let Some(t) = &self.tracer {
                        t.instant(
                            "recovery.error_replay",
                            i,
                            batch_span,
                            depth as u64,
                            e.to_string(),
                        );
                    }
                    metrics.add("recovery.error_replays", 1);
                    recovered = true;
                    let restore_span = Span::start();
                    self.restore_checkpoint(i as isize - 1, &mut metrics)?;
                    self.reseed_quarantine();
                    restore_span.stop(&mut metrics, "recovery.restore_ns");
                    let replay_start = self.restored_batch(i as isize - 1);
                    work = self.combined_delta(replay_start, i);
                    metrics.add("recovery.replays", 1);
                    metrics.add("recovery.replayed_rows", work.len() as u64);
                    if let Some(t) = &self.tracer {
                        t.instant(
                            "recovery.replay",
                            i,
                            batch_span,
                            work.len() as u64,
                            format!("replay batches {replay_start}..={i}"),
                        );
                    }
                    replaying = true;
                    continue;
                }
            };
            if replaying {
                // The replay re-published the failed aggregates, so their
                // trackers hold fresh ranges covering the observed trials.
                // Re-admit first-time offenders — permanently barring an
                // attribute would degenerate single-predicate queries to
                // full prefix recomputation (HDA behaviour) after one
                // failure. Repeat offenders stay quarantined: their range
                // is genuinely unstable and each re-admission would buy
                // another full replay. Lifting *before* examining this
                // pass's outcomes is what lets a mid-replay failure of a
                // re-admitted attribute count as a fresh offense below.
                self.lift_quarantine();
            }
            self.apply_forced_failures(i, &mut outcomes);
            let Some(j) = self.examine_failures(&outcomes) else {
                break;
            };
            if let Some(t) = &self.tracer {
                t.instant(
                    "range.failure",
                    i,
                    batch_span,
                    outcomes.len() as u64,
                    format!("recovery target j={j}"),
                );
            }
            recovered = true;
            self.total_failures += 1;
            stats.failures = stats.failures.max(1);
            depth += 1;
            if replaying {
                metrics.add("recovery.cascades", 1);
                if let Some(t) = &self.tracer {
                    t.instant(
                        "recovery.cascade",
                        i,
                        batch_span,
                        depth as u64,
                        format!("cascade depth {depth}"),
                    );
                }
            }
            let target = if depth > depth_cap {
                // Graceful degradation: bar the offenders for good and
                // recompute the whole retained prefix from the initial
                // checkpoint (HDA-style).
                metrics.add("recovery.degraded", 1);
                if let Some(t) = &self.tracer {
                    t.instant("recovery.degraded", i, batch_span, depth as u64, "");
                }
                self.bar_quarantined_offenders();
                -1
            } else {
                j
            };
            let restore_span = Span::start();
            self.restore_checkpoint(target, &mut metrics)?;
            self.reseed_quarantine();
            restore_span.stop(&mut metrics, "recovery.restore_ns");
            let replay_start = self.restored_batch(target);
            work = self.combined_delta(replay_start, i);
            metrics.add("recovery.replays", 1);
            metrics.add("recovery.replayed_rows", work.len() as u64);
            if let Some(t) = &self.tracer {
                t.instant(
                    "recovery.replay",
                    i,
                    batch_span,
                    work.len() as u64,
                    format!("replay batches {replay_start}..={i} (target {target})"),
                );
            }
            replaying = true;
        }

        let (state_bytes_join, state_bytes_other) = self.root.state_bytes();
        // Checkpoint for future recovery, under bounded retention.
        if (i + 1).is_multiple_of(self.config.checkpoint_interval.max(1)) {
            let dropped = match &self.faults {
                Some(f) => f.inject_checkpoint_drop(i),
                None => false,
            };
            if dropped {
                // Injected lost write: recovery must cope with the gap by
                // falling back to an older checkpoint.
                metrics.add("ckpt.dropped", 1);
                if let Some(t) = &self.tracer {
                    t.instant("ckpt.drop", i, batch_span, 0, "");
                }
            } else {
                let save_span = Span::start();
                let bytes = state_bytes_join + state_bytes_other + self.registry.approx_bytes();
                let mut cp = Checkpoint {
                    batch: i,
                    root: self.root.clone(),
                    sink: self.sink.clone(),
                    registry: self.registry.clone(),
                    digest: 0,
                    bytes,
                };
                cp.digest = cp.fingerprint_with((state_bytes_join, state_bytes_other));
                if matches!(&self.faults, Some(f) if f.inject_checkpoint_corruption(i)) {
                    // Injected bit rot: damage the digest so a future
                    // restore detects the mismatch and skips this save.
                    cp.digest = !cp.digest;
                }
                self.checkpoints.push(cp);
                save_span.stop(&mut metrics, "ckpt.save_ns");
                if let Some(t) = &self.tracer {
                    t.instant("ckpt.save", i, batch_span, bytes as u64, "");
                }
                metrics.add("ckpt.saves", 1);
                metrics.add("ckpt.clone_bytes", bytes as u64);
                self.prune_checkpoints(i, &mut metrics);
                metrics.add("ckpt.retained", self.checkpoints.len() as u64);
                let retained_bytes: usize = self.checkpoints.iter().map(|c| c.bytes).sum();
                metrics.add("ckpt.retained_bytes", retained_bytes as u64);
            }
        }

        let publish_span = Span::start();
        // Publish is pure over `(&sink, &registry)`, so a panic mid-render
        // (a poisoned deref that survived to the read path) leaves no state
        // to roll back — a bounded retry re-renders from intact state.
        let mut publish_retries = 0usize;
        let result = loop {
            let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.sink.publish_traced(
                    &self.registry,
                    self.batches.scale_after(i),
                    self.config.trials,
                    self.config.confidence,
                    self.tracer.as_deref(),
                    i,
                    batch_span,
                )
            }));
            match attempt {
                Ok(r) => break r,
                Err(payload) => {
                    publish_retries += 1;
                    if publish_retries > depth_cap {
                        return Err(self.dump_on_error(DriverError::Engine(EngineError::Plan(
                            format!(
                                "publish panicked: {}",
                                crate::faults::panic_message(payload)
                            ),
                        ))));
                    }
                    metrics.add("recovery.publish_retries", 1);
                    if let Some(t) = &self.tracer {
                        t.instant(
                            "sink.publish_retry",
                            i,
                            batch_span,
                            publish_retries as u64,
                            "publish panicked; re-rendering from intact state",
                        );
                    }
                    recovered = true;
                }
            }
        };
        publish_span.stop(&mut metrics, "sink.publish_ns");
        metrics.add("sink.result_rows", result.relation.len() as u64);
        self.cumulative_metrics.merge(&metrics);
        let self_time_ns = match &self.tracer {
            Some(t) => {
                t.end(
                    "batch",
                    i,
                    batch_span,
                    self.query_span,
                    result.relation.len() as u64,
                );
                self_time_by_name(&t.events_since(trace_from_seq))
                    .into_iter()
                    .collect()
            }
            None => Vec::new(),
        };
        Ok(BatchReport {
            batch: i,
            result,
            stats,
            metrics,
            elapsed: start.elapsed(),
            fraction: self.batches.rows_through(i) as f64 / self.batches.total_rows().max(1) as f64,
            recovered,
            state_bytes_join,
            state_bytes_other,
            self_time_ns,
        })
    }

    fn process_delta(
        &mut self,
        i: usize,
        delta: &Relation,
        stats: &mut BatchStats,
        metrics: &mut Metrics,
        batch_span: SpanId,
    ) -> Result<Vec<(iolap_relation::AggRef, RangeOutcome)>, DriverError> {
        let shipped_before = self.shard_bytes_shipped();
        let mut ctx = BatchCtx {
            registry: &mut self.registry,
            batch_index: i,
            scale: self.batches.scale_after(i),
            slack: self.config.slack,
            trials: self.config.trials,
            opt1: self.config.opt_tuple_partition,
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
            cur_span: batch_span,
        };
        // A panicking operator (a poisoned deref, an injected fault) must
        // surface as a recoverable error, not tear down the controller: the
        // checkpoint mechanism makes half-updated state safe to abandon.
        let out =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.root.process(&mut ctx)))
                .unwrap_or_else(|payload| {
                    Err(EngineError::Plan(format!(
                        "operator panicked: {}",
                        crate::faults::panic_message(payload)
                    )))
                })?;
        let outcomes = std::mem::take(&mut ctx.outcomes);
        let ctx_stats = std::mem::take(&mut ctx.stats);
        let ctx_metrics = std::mem::take(&mut ctx.metrics);
        drop(ctx);
        stats.recomputed_tuples += ctx_stats.recomputed_tuples;
        let publish_delta = self.registry_publish_delta();
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

    fn registry_publish_delta(&mut self) -> usize {
        // published_bytes is cumulative; report per-call growth.
        // (Kept simple: the driver reads it once per process_delta.)
        let total = self.registry.published_bytes();
        let delta = total.saturating_sub(self.last_published);
        self.last_published = total;
        delta
    }

    /// Checkpoint batch on the `-1 = initial` number line used by recovery
    /// targets.
    fn cp_batch(c: &Checkpoint) -> isize {
        if c.batch == usize::MAX {
            -1
        } else {
            c.batch as isize
        }
    }

    /// Restore the newest *intact* checkpoint at or before recovery point
    /// `j` (`-1` = initial state). A checkpoint whose digest no longer
    /// matches its fingerprint is discarded and an older one is tried —
    /// restoring older than asked is always sound, it just replays a
    /// longer suffix. The initial checkpoint is never corrupted or pruned,
    /// so the walk always terminates successfully. `restored_batch`
    /// reports which batch the state now reflects.
    fn restore_checkpoint(&mut self, j: isize, metrics: &mut Metrics) -> Result<(), DriverError> {
        loop {
            let idx = self
                .checkpoints
                .iter()
                .rposition(|c| Self::cp_batch(c) <= j)
                .ok_or_else(|| DriverError::Setup("no usable checkpoint".into()))?;
            if self.checkpoints[idx].digest != self.checkpoints[idx].fingerprint() {
                metrics.add("ckpt.corrupt_detected", 1);
                self.checkpoints.remove(idx);
                continue;
            }
            self.checkpoints.truncate(idx + 1);
            let cp = &self.checkpoints[idx];
            self.root = cp.root.clone();
            self.sink = cp.sink.clone();
            self.registry = cp.registry.clone();
            self.last_published = self.registry.published_bytes();
            self.last_derefs = self.registry.deref_count();
            return Ok(());
        }
    }

    /// Examine the outcomes of one processing pass: every non-quarantined
    /// failing attribute is quarantined (its failure count bumped) and the
    /// pass-wide recovery point — the minimum over per-attribute targets —
    /// is returned; `None` means the pass is clean.
    ///
    /// §5.1 failure handling, gated on usage: only attributes whose range
    /// actually pruned a tuple can have corrupted saved decisions; unused
    /// attributes simply adopt their fresh range. The replay target never
    /// needs to predate an attribute's first pruning use — no decision
    /// involving it exists before then.
    fn examine_failures(&mut self, outcomes: &[(AggRef, RangeOutcome)]) -> Option<isize> {
        let mut failure_target: Option<isize> = None;
        for (r, o) in outcomes {
            if let RangeOutcome::Failure { replay_from } = o {
                if self.quarantined.contains(r) {
                    continue;
                }
                let Some(first_used) = self.registry.first_used(r) else {
                    continue;
                };
                let tracker_j = replay_from.map(|j| j as isize).unwrap_or(-1);
                let usage_j = first_used as isize - 1;
                let j = tracker_j.max(usage_j);
                failure_target = Some(failure_target.map_or(j, |x: isize| x.min(j)));
                // Quarantine the attribute for the recovery window so the
                // replayed decisions cannot reuse the violated range.
                *self.failure_counts.entry(r.clone()).or_insert(0) += 1;
                self.quarantined.insert(r.clone());
            }
        }
        failure_target
    }

    /// Flip an armed `FailRange` fault: a matching `Ok` outcome becomes a
    /// `Failure { replay_from: i-1 }` — the shape a tracker reports when
    /// only the previous batch's range still covers the fresh envelope.
    /// Downstream recovery cannot tell the difference, which is the point;
    /// and the hardened loop does not *depend* on the claim being true
    /// (an inaccurate target at worst re-fails the replay, which recovers
    /// again, bounded). Only ranges that actually pruned (and are not
    /// quarantined) are eligible: a failure of an unused range carries no
    /// corrupted decisions and would be discarded by the usage gate
    /// anyway. At most one outcome flips per pass, so multiple armed
    /// faults stagger across recovery passes — the second lands
    /// *mid-replay*, exercising the cascade path.
    fn apply_forced_failures(&self, i: usize, outcomes: &mut [(AggRef, RangeOutcome)]) {
        for (r, o) in outcomes.iter_mut() {
            if !matches!(o, RangeOutcome::Ok)
                || self.registry.first_used(r).is_none()
                || self.quarantined.contains(r)
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

    /// Degradation: every currently-quarantined attribute is barred from
    /// pruning for good (its failure count saturates), so the HDA-style
    /// full-prefix recomputation that follows cannot fail the same way.
    fn bar_quarantined_offenders(&mut self) {
        for r in &self.quarantined {
            self.failure_counts.insert(r.clone(), MAX_REF_FAILURES);
        }
    }

    /// Bounded retention. A future recovery target is always
    /// `j ≥ F = min over live (non-barred) used attributes of
    /// (first_used - 1)`: the usage gate in `examine_failures` never asks
    /// for anything older. Checkpoints strictly older than the newest one
    /// at or before `F` can therefore never be selected — drop them. On
    /// top of that a hard cap (`max_checkpoints`) bounds worst-case
    /// memory; dropping a feasible checkpoint under the cap is still
    /// sound, recovery just restores an older survivor and replays more.
    /// The initial checkpoint (index 0, O(1) bytes) is always retained so
    /// corruption fallback and degradation always have a target.
    ///
    /// A replay from checkpoint `c` scans the rows after batch `c`, so the
    /// weight memo keeps only the rows after the checkpoint the oldest
    /// feasible target restores. When that is the initial checkpoint
    /// (e.g. a live range was first used at batch 0), it keeps every row.
    /// Only a fallback replay (a corrupt or cap-dropped checkpoint,
    /// degradation) can scan a forgotten row again, and it draws the same
    /// bits.
    fn prune_checkpoints(&mut self, i: usize, metrics: &mut Metrics) {
        let barred: HashSet<AggRef> = self
            .failure_counts
            .iter()
            .filter(|(_, c)| **c >= MAX_REF_FAILURES)
            .map(|(r, _)| r.clone())
            .collect();
        let feasible = self
            .registry
            .min_live_first_use(&barred)
            .map(|b| b as isize - 1)
            .unwrap_or(i as isize);
        let anchor = self
            .checkpoints
            .iter()
            .rposition(|c| Self::cp_batch(c) <= feasible)
            .unwrap_or(0);
        if anchor > 1 {
            metrics.add("ckpt.pruned", (anchor - 1) as u64);
            self.checkpoints.drain(1..anchor);
        }
        let cap = self.config.max_checkpoints.max(2);
        while self.checkpoints.len() > cap {
            self.checkpoints.remove(1);
            metrics.add("ckpt.pruned", 1);
        }
        let target = self
            .checkpoints
            .iter()
            .rposition(|c| Self::cp_batch(c) <= feasible)
            .unwrap_or(0);
        if target > 0 {
            let replayable = self.batches.rows_through(self.checkpoints[target].batch);
            self.weight_memo.forget_before(replayable as u64);
        }
    }

    fn reseed_quarantine(&mut self) {
        for r in &self.quarantined {
            self.registry.quarantine(r.clone());
        }
    }

    fn lift_quarantine(&mut self) {
        let counts = &self.failure_counts;
        let readmitted: Vec<_> = self
            .quarantined
            .iter()
            .filter(|r| counts.get(*r).copied().unwrap_or(0) < MAX_REF_FAILURES)
            .cloned()
            .collect();
        for r in readmitted {
            self.quarantined.remove(&r);
            self.registry.unquarantine(&r);
        }
    }

    /// First batch the replay must cover after restoring to target `j`:
    /// the batch after the restored checkpoint. Derived from `j` with the
    /// same newest-at-or-before rule `restore_checkpoint` uses, so the two
    /// cannot drift apart (the previous implementation ignored `j` and
    /// trusted `checkpoints.last()`, which silently desynchronized when a
    /// restore discarded corrupted saves).
    fn restored_batch(&self, j: isize) -> usize {
        let idx = self
            .checkpoints
            .iter()
            .rposition(|c| Self::cp_batch(c) <= j);
        debug_assert_eq!(
            idx,
            self.checkpoints.len().checked_sub(1),
            "restore must leave its target checkpoint newest"
        );
        match idx.map(|k| &self.checkpoints[k]) {
            Some(c) if c.batch != usize::MAX => c.batch + 1,
            _ => 0,
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
        (
            self.checkpoints.len(),
            self.checkpoints.iter().map(|c| c.bytes).sum(),
        )
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

#[cfg(test)]
mod tests {
    //! Checkpoint-bookkeeping unit tests. End-to-end recovery correctness
    //! lives in `tests/recovery.rs`; these exercise the private restore /
    //! quarantine / metrics plumbing directly.

    use super::*;
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
        let batches: Vec<usize> = d.checkpoints.iter().map(|c| c.batch).collect();
        assert_eq!(batches, vec![usize::MAX, 5]);
    }

    #[test]
    fn retention_keeps_checkpoints_back_to_first_use() {
        // An attribute first used for pruning at batch 3 pins every
        // checkpoint from batch 2 on; older intermediates are pruned.
        let mut cfg = IolapConfig::with_batches(6)
            .trials(8)
            .seed(3)
            .slack(NO_FAIL)
            .max_checkpoints(16);
        cfg.partition_mode = PartitionMode::Sequential;
        cfg.checkpoint_interval = 1;
        let mut d = IolapDriver::from_sql(
            "SELECT SUM(x) FROM t WHERE x > (SELECT AVG(x) FROM t)",
            &catalog(120),
            &FunctionRegistry::with_builtins(),
            "t",
            cfg,
        )
        .unwrap();
        d.registry.mark_used(aref(), 3);
        d.run_to_completion().unwrap();
        let batches: Vec<usize> = d.checkpoints.iter().map(|c| c.batch).collect();
        assert_eq!(batches, vec![usize::MAX, 2, 3, 4, 5]);
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
            let newest = d.checkpoints.last().unwrap().batch;
            assert_eq!(d.checkpoints.len(), 2);
            let replayable = d.batches.rows_through(newest) as u64;
            assert!(d.weight_memo.held().start >= replayable);
            assert!(d.weight_memo.held().is_empty());
        }
        assert_eq!(d.metrics().get("scan.weight_rows_drawn"), 120);
        assert_eq!(d.metrics().get("scan.weight_rows_reused"), 120);
    }

    #[test]
    fn weight_memo_keeps_the_rows_a_feasible_replay_scans() {
        // First used at batch 3: the oldest feasible target restores the
        // batch-2 checkpoint (retained: the cap is out of the way), so
        // rows from batch 3 on stay. First used at batch 0: the initial
        // checkpoint is a feasible target, so every row stays (Q18's
        // replays restore it nearly every batch).
        for (first_use, held) in [(3, 60..120), (0, 0..120)] {
            let mut d = driver(120, 6, NO_FAIL, 1);
            d.config.max_checkpoints = 16;
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
        // Cap 4 (the default): initial + the 3 newest of batches 0..=4.
        let batches: Vec<usize> = d.checkpoints.iter().map(|c| c.batch).collect();
        assert_eq!(batches, vec![usize::MAX, 2, 3, 4]);
        d.restore_checkpoint(2, &mut Metrics::new()).unwrap();
        let batches: Vec<usize> = d.checkpoints.iter().map(|c| c.batch).collect();
        assert_eq!(batches, vec![usize::MAX, 2]);
        assert_eq!(d.restored_batch(2), 3);
        // The publish baselines must match the restored registry, not the
        // discarded newer state.
        assert_eq!(d.last_published, d.registry.published_bytes());
        assert_eq!(d.last_derefs, d.registry.deref_count());
    }

    #[test]
    fn restore_with_sparse_checkpoints_replays_from_checkpoint_batch() {
        // Interval 3 saves after batches 2 and 5; a failure at batch 4
        // targeting j=4 must restore the batch-2 checkpoint and replay
        // from batch 3 — the checkpoint's successor, NOT the failure
        // batch. (The old `restored_batch` ignored its argument; this
        // pins the j-derived behaviour.)
        let mut d = driver(120, 6, NO_FAIL, 3);
        d.registry.mark_used(aref(), 3); // keep the batch-2 checkpoint alive
        d.run_to_completion().unwrap();
        let batches: Vec<usize> = d.checkpoints.iter().map(|c| c.batch).collect();
        assert_eq!(batches, vec![usize::MAX, 2, 5]);
        d.restore_checkpoint(4, &mut Metrics::new()).unwrap();
        assert_eq!(d.restored_batch(4), 3);
    }

    #[test]
    fn restore_to_initial_resets_published_baseline() {
        let mut d = driver(120, 6, NO_FAIL, 1);
        for _ in 0..3 {
            d.step().unwrap().unwrap();
        }
        assert!(d.last_published > 0, "batches must have published state");
        d.restore_checkpoint(-1, &mut Metrics::new()).unwrap();
        assert_eq!(d.checkpoints.len(), 1);
        assert!(d.registry.is_empty());
        assert_eq!(d.last_published, 0);
        assert_eq!(d.restored_batch(-1), 0);
    }

    #[test]
    fn corrupted_checkpoint_is_skipped_on_restore() {
        let mut d = driver(120, 6, NO_FAIL, 1);
        d.registry.mark_used(aref(), 0);
        for _ in 0..4 {
            d.step().unwrap().unwrap();
        }
        let batches: Vec<usize> = d.checkpoints.iter().map(|c| c.batch).collect();
        assert_eq!(batches, vec![usize::MAX, 1, 2, 3]);
        // Damage the newest save; a restore targeting it must detect the
        // mismatch and fall back to the batch-2 checkpoint.
        let last = d.checkpoints.len() - 1;
        d.checkpoints[last].digest ^= 1;
        let mut m = Metrics::new();
        d.restore_checkpoint(3, &mut m).unwrap();
        assert_eq!(m.get("ckpt.corrupt_detected"), 1);
        assert_eq!(d.restored_batch(3), 3); // batch-2 checkpoint + 1
        let batches: Vec<usize> = d.checkpoints.iter().map(|c| c.batch).collect();
        assert_eq!(batches, vec![usize::MAX, 1, 2]);
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
    fn quarantine_reseeds_and_lifts_first_offenders_only() {
        let mut d = driver(120, 6, NO_FAIL, 1);
        let r = aref();

        // First failure: survives the restore reseed, lifted after replay.
        d.quarantined.insert(r.clone());
        d.failure_counts.insert(r.clone(), 1);
        d.reseed_quarantine();
        assert!(d.registry.is_quarantined(&r));
        d.lift_quarantine();
        assert!(!d.registry.is_quarantined(&r));
        assert!(d.quarantined.is_empty());

        // Repeat offender at the failure cap: stays quarantined.
        d.quarantined.insert(r.clone());
        d.failure_counts.insert(r.clone(), MAX_REF_FAILURES);
        d.reseed_quarantine();
        d.lift_quarantine();
        assert!(d.registry.is_quarantined(&r));
        assert!(d.quarantined.contains(&r));
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
