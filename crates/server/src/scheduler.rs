//! The server core: worker pool, cooperative batch scheduler, admission
//! control, memory-ceiling shedding.
//!
//! ## Scheduling invariants
//!
//! * **One mini-batch per dispatch.** A worker takes the first session off
//!   the ready queue, runs exactly one `IolapDriver::step()` (which
//!   internally runs any §5.1 recovery replays to the batch boundary), and
//!   requeues the session behind its peers. No session can monopolize a
//!   worker.
//! * **Deterministic order.** The ready queue is a `BTreeSet` of
//!   `(priority, batches-done, session id, seed)` keys: strict priority
//!   first (lower = more urgent), then round-robin fairness by batches
//!   done, then the id/seed tie-break required for byte-reproducible
//!   fixed-seed runs. With `workers == 1` the whole global schedule is a
//!   pure function of the submission sequence.
//! * **Slots are freed at the first idle moment.** Completion, a met
//!   [`StopPolicy`], cancellation, and failure all release the live slot
//!   *and* the driver's memory immediately; undelivered reports survive in
//!   a bounded buffer (state `Draining`) until the client drains them.
//! * **Backpressure is explicit.** A full report buffer parks the session
//!   (off the ready queue) until the client pops; a full wait queue rejects
//!   `submit` with [`AdmitError::QueueFull`]; a breached memory ceiling
//!   sheds `Queued` work earliest-deadline-first — never `Running` work.
//!
//! The only unbounded block in this crate is the worker park on the `work`
//! condvar below (srclint L006 allowlists exactly that line); every client
//! wait is timeout-bounded.

use crate::durable::DurableStore;
use crate::policy::StopPolicy;
use crate::session::{
    AdmitError, SessionEnd, SessionHandle, SessionSpec, SessionState, SessionSummary,
};
use crate::telemetry::Telemetry;
use iolap_core::trace::NO_BATCH;
use iolap_core::{
    BatchReport, DriverError, IolapDriver, Span, SpanId, TraceEvent, TraceMode, Tracer,
};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Sizing and policy knobs for a [`Server`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads stepping mini-batches (the compute parallelism).
    pub workers: usize,
    /// Bounded live-session slots (sessions eligible for scheduling).
    pub max_live: usize,
    /// Bounded wait queue behind the live slots; overflow is rejected.
    pub max_queued: usize,
    /// Global ceiling on live session memory (checkpoints + operator
    /// state, bytes). When breached, `Queued` work is shed
    /// earliest-deadline-first, one victim per scheduling event. `None`
    /// disables shedding.
    pub memory_ceiling: Option<usize>,
    /// Per-session bound on undelivered reports; a full buffer parks the
    /// session until the client pops (per-client backpressure).
    pub report_buffer: usize,
    /// Scheduler trace journal mode ([`TraceMode::Off`] by default —
    /// same zero-cost-when-off gating as the driver's tracer). When on,
    /// every session lifecycle transition and scheduler decision lands a
    /// `sess.*`/`sched.*` mark in the server's journal.
    pub trace_mode: TraceMode,
    /// Directory for the durable session store (`None` = no persistence).
    /// When set, every admission, batch report, checkpoint fingerprint,
    /// and streaming append is spilled to `iolap-store` segments, and
    /// [`Server::recover`] can rebuild live sessions after a restart.
    pub durable_dir: Option<PathBuf>,
    /// Whether every durable append is fsynced before the write returns
    /// (crash-consistent even through power loss, at a latency cost the
    /// `durability` bench sweep measures). Off by default.
    pub durable_fsync: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            max_live: 8,
            max_queued: 16,
            memory_ceiling: None,
            report_buffer: 64,
            trace_mode: TraceMode::Off,
            durable_dir: None,
            durable_fsync: false,
        }
    }
}

impl ServerConfig {
    /// Config with `workers` worker threads and defaults elsewhere.
    pub fn with_workers(workers: usize) -> Self {
        ServerConfig {
            workers: workers.max(1),
            ..ServerConfig::default()
        }
    }

    /// Set the live-slot bound.
    pub fn max_live(mut self, n: usize) -> Self {
        self.max_live = n.max(1);
        self
    }

    /// Set the wait-queue bound.
    pub fn max_queued(mut self, n: usize) -> Self {
        self.max_queued = n;
        self
    }

    /// Set the global memory ceiling in bytes.
    pub fn memory_ceiling(mut self, bytes: usize) -> Self {
        self.memory_ceiling = Some(bytes);
        self
    }

    /// Set the per-session report-buffer bound.
    pub fn report_buffer(mut self, n: usize) -> Self {
        self.report_buffer = n.max(1);
        self
    }

    /// Enable the scheduler trace journal.
    pub fn trace(mut self, mode: TraceMode) -> Self {
        self.trace_mode = mode;
        self
    }

    /// Persist session state under `dir` (enables [`Server::recover`]).
    pub fn durable(mut self, dir: impl Into<PathBuf>) -> Self {
        self.durable_dir = Some(dir.into());
        self
    }

    /// Fsync every durable append before returning.
    pub fn durable_fsync(mut self, fsync: bool) -> Self {
        self.durable_fsync = fsync;
        self
    }
}

/// Counters exposed by [`Server::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Sessions currently holding live slots.
    pub live: usize,
    /// Sessions waiting in the admission queue.
    pub queued: usize,
    /// Sessions ever admitted (live + queued + finished).
    pub admitted: u64,
    /// Submissions rejected with [`AdmitError::QueueFull`].
    pub rejected: u64,
    /// Queued sessions shed by the memory-ceiling policy.
    pub shed: u64,
    /// Current accounted memory across non-terminal sessions (bytes).
    pub mem_bytes: usize,
}

/// What [`Server::recover`] restored from the durable store.
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// Sessions rebuilt and resumed, in manifest (admission) order.
    pub resumed: Vec<u64>,
    /// Sessions that could not be restored, with the reason. `u64::MAX`
    /// as the id marks a manifest-level failure.
    pub skipped: Vec<(u64, String)>,
    /// Mini-batches re-run across all resumed sessions.
    pub replayed_batches: usize,
    /// Streaming appends re-applied at their logged positions.
    pub reapplied_appends: usize,
    /// Logged checkpoint digests that disagreed with the re-derived
    /// state (the `stale_manifest` fault, or genuine on-disk rot).
    pub stale_digests: usize,
}

/// Result of attaching to a session id via [`Server::resume_session`].
#[derive(Debug)]
pub enum ResumeStatus {
    /// The session was restored by [`Server::recover`]; poll the handle.
    Attached(SessionHandle),
    /// The durable manifest saw this session finish (`'D'` record, with
    /// this end label) — there is nothing to resume.
    Finished(String),
    /// No restored session and no manifest record for this id.
    Unknown,
}

/// Ready-queue ordering: strict priority, then round-robin by batches
/// done, then the deterministic `(session id, seed)` tie-break. Derived
/// lexicographic `Ord` over the field order *is* the scheduling policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct ReadyKey {
    priority: u8,
    rounds: usize,
    id: u64,
    seed: u64,
}

/// Per-session bookkeeping owned by the scheduler.
struct Slot {
    spec: SessionSpec,
    seed: u64,
    total_batches: usize,
    state: SessionState,
    end: Option<SessionEnd>,
    end_seq: Option<u64>,
    /// Present whenever no worker is currently stepping the session (and
    /// the session still has compute left). `None` while a worker holds
    /// the driver, and permanently `None` once finished.
    driver: Option<IolapDriver>,
    batches_run: usize,
    reports: VecDeque<BatchReport>,
    cancel: bool,
    /// Parked because the report buffer hit its bound; re-readied by the
    /// client's next pop.
    waiting_buffer: bool,
    holds_slot: bool,
    mem_bytes: usize,
    submit_span: Span,
    first_step: Option<Span>,
    finish_elapsed: Option<Duration>,
    /// The driver's streamed table name, cached at submit so
    /// [`Server::append_rows`] can route appends without touching the
    /// driver (which a worker may own at that moment).
    stream_table: String,
    /// Streaming appends awaiting application: canonical rows JSON, in
    /// arrival order. Drained (and applied to the driver) by the next
    /// worker that picks the session up.
    pending_appends: VecDeque<String>,
    /// Rebuilt by [`Server::recover`] from the durable log (rather than
    /// submitted on this process's wire); `{"op":"resume"}` only attaches
    /// to restored sessions.
    restored: bool,
}

impl Slot {
    fn ready_key(&self, id: u64) -> ReadyKey {
        ReadyKey {
            priority: self.spec.priority,
            rounds: self.batches_run,
            id,
            seed: self.seed,
        }
    }
}

/// What to do with a session after a worker finished one step.
enum Outcome {
    /// More work: requeue (or park on a full report buffer).
    Continue,
    /// No more compute; undelivered reports may remain.
    Finish(SessionEnd),
}

struct State {
    next_id: u64,
    end_counter: u64,
    sessions: BTreeMap<u64, Slot>,
    ready: BTreeSet<ReadyKey>,
    queued: VecDeque<u64>,
    live: usize,
    admitted: u64,
    rejected: u64,
    shed: u64,
    shutdown: bool,
    /// Fleet telemetry rollups, updated under this same lock (no second
    /// mutex, no new lock order for the L009 analysis to chase).
    telemetry: Telemetry,
}

/// State shared between the [`Server`], its workers, and every
/// [`SessionHandle`].
pub struct Shared {
    cfg: ServerConfig,
    state: Mutex<State>,
    /// Scheduler trace journal (`None` when `cfg.trace_mode` is off).
    /// Events are emitted while the state lock is held, which serializes
    /// their sequence numbers with the scheduling decisions they record.
    tracer: Option<Arc<Tracer>>,
    /// Workers park here; signaled on every ready-queue insertion.
    work: Condvar,
    /// Clients park here (timeout-bounded); signaled on every report
    /// delivery and lifecycle transition.
    client: Condvar,
    /// Durable session store (`None` when `cfg.durable_dir` is unset or
    /// the directory could not be opened). Lock order: the state lock may
    /// be held when taking the store's lock (`finish` writes the `'D'`
    /// record under it); never the reverse.
    durable: Option<Arc<DurableStore>>,
}

/// Emit one scheduler lifecycle mark: an instant with the session id in
/// `n` (so [`crate::telemetry::canonical_trace`] can group per session)
/// and no span/batch attribution. Every state-transition site in this
/// module must route through here when tracing is on — srclint rule L011
/// rejects a transition without a `trace_mark` in the same function.
fn trace_mark(tracer: Option<&Tracer>, name: &'static str, id: u64, detail: &str) {
    if let Some(t) = tracer {
        t.instant(name, NO_BATCH, SpanId::NONE, id, detail);
    }
}

fn lock(shared: &Shared) -> MutexGuard<'_, State> {
    // A worker panicking while holding the lock poisons it; the state it
    // guards is counters and queues that the panic path has already made
    // consistent (the panicking step is caught before requeue), so recover
    // rather than cascade poison to every client.
    shared.state.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Shared {
    // ----- client-side operations (called from SessionHandle) -----

    /// Pop the oldest undelivered report. Re-readies a buffer-parked
    /// session and flips `Draining → Done` when the last report leaves.
    pub(crate) fn pop_report(&self, id: u64) -> Option<BatchReport> {
        let mut st = lock(self);
        let slot = st.sessions.get_mut(&id)?;
        let report = slot.reports.pop_front()?;
        if slot.waiting_buffer && !slot.cancel && slot.driver.is_some() {
            slot.waiting_buffer = false;
            trace_mark(
                self.tracer.as_deref(),
                "sess.unpark",
                id,
                "client drained buffer",
            );
            let key = slot.ready_key(id);
            st.ready.insert(key);
            self.work.notify_one();
        } else if slot.state == SessionState::Draining && slot.reports.is_empty() {
            slot.state = SessionState::Done;
            trace_mark(self.tracer.as_deref(), "sess.done", id, "buffer drained");
            self.client.notify_all();
        }
        Some(report)
    }

    /// Bounded wait for the next report (guard held across check + wait,
    /// so no wakeup between them is lost). `None` on timeout or when the
    /// session is terminal with an empty buffer.
    pub(crate) fn recv_report(&self, id: u64, timeout: Duration) -> Option<BatchReport> {
        let start = Span::start();
        let mut st = lock(self);
        loop {
            let slot = st.sessions.get(&id)?;
            if !slot.reports.is_empty() {
                drop(st);
                return self.pop_report(id);
            }
            if slot.state.is_terminal() {
                return None;
            }
            let elapsed = start.elapsed();
            if elapsed >= timeout {
                return None;
            }
            let (guard, _) = self
                .client
                .wait_timeout(st, timeout - elapsed)
                .unwrap_or_else(PoisonError::into_inner);
            st = guard;
        }
    }

    /// Bounded wait until the session is finished (no more compute).
    pub(crate) fn wait_finished(&self, id: u64, timeout: Duration) -> bool {
        let start = Span::start();
        let mut st = lock(self);
        loop {
            match st.sessions.get(&id) {
                None => return true,
                Some(slot) if slot.state.is_finished() => return true,
                Some(_) => {}
            }
            let elapsed = start.elapsed();
            if elapsed >= timeout {
                return false;
            }
            let (guard, _) = self
                .client
                .wait_timeout(st, timeout - elapsed)
                .unwrap_or_else(PoisonError::into_inner);
            st = guard;
        }
    }

    /// Cancel `id`. Synchronous when no worker holds the driver (queued,
    /// ready, or buffer-parked); otherwise deferred to the in-flight batch
    /// boundary (its report is still delivered).
    pub(crate) fn cancel(&self, id: u64) {
        let mut st = lock(self);
        let Some(slot) = st.sessions.get_mut(&id) else {
            return;
        };
        if slot.state.is_finished() {
            return;
        }
        slot.cancel = true;
        if slot.driver.is_some() {
            // Not currently being stepped: tear down now.
            let key = slot.ready_key(id);
            st.ready.remove(&key);
            st.queued.retain(|q| *q != id);
            finish(self, &mut st, id, SessionEnd::Cancelled);
            self.work.notify_all();
        }
        self.client.notify_all();
    }

    pub(crate) fn session_state(&self, id: u64) -> SessionState {
        let st = lock(self);
        st.sessions
            .get(&id)
            .map(|s| s.state)
            .unwrap_or(SessionState::Failed)
    }

    pub(crate) fn summary(&self, id: u64) -> SessionSummary {
        let st = lock(self);
        let slot = st.sessions.get(&id);
        match slot {
            None => SessionSummary {
                id,
                label: String::new(),
                state: SessionState::Failed,
                end: Some(SessionEnd::Failed("unknown session".into())),
                batches_run: 0,
                total_batches: 0,
                pending_reports: 0,
                elapsed: None,
                end_seq: None,
                mem_bytes: 0,
            },
            Some(s) => SessionSummary {
                id,
                label: s.spec.label.clone(),
                state: s.state,
                end: s.end.clone(),
                batches_run: s.batches_run,
                total_batches: s.total_batches,
                pending_reports: s.reports.len(),
                elapsed: s.finish_elapsed,
                end_seq: s.end_seq,
                mem_bytes: s.mem_bytes,
            },
        }
    }
}

// ----- scheduler-internal state transitions (free functions over State so
// borrows of individual slots never overlap the container mutation) -----

/// Sum of accounted memory across non-terminal sessions.
fn live_mem(st: &State) -> usize {
    st.sessions
        .values()
        .filter(|s| !s.state.is_terminal())
        .map(|s| s.mem_bytes)
        .sum()
}

/// Move waiting sessions into freed live slots (FIFO admission order).
fn admit_from_queue(shared: &Shared, st: &mut State) {
    while st.live < shared.cfg.max_live {
        let Some(id) = st.queued.pop_front() else {
            return;
        };
        // Queued ids always have a slot; if one ever goes missing, skip it
        // rather than poisoning the scheduler lock with a panic.
        let Some(slot) = st.sessions.get_mut(&id) else {
            continue;
        };
        st.live += 1;
        slot.holds_slot = true;
        trace_mark(shared.tracer.as_deref(), "sess.admit", id, "from queue");
        let key = slot.ready_key(id);
        st.ready.insert(key);
    }
}

/// While the memory ceiling is breached, shed one `Queued` victim:
/// earliest deadline first (`None` = latest possible), ties to the
/// youngest (largest id). Running sessions are never shed.
fn shed_over_ceiling(shared: &Shared, st: &mut State) {
    let Some(ceiling) = shared.cfg.memory_ceiling else {
        return;
    };
    if st.queued.is_empty() || live_mem(st) <= ceiling {
        return;
    }
    let Some(victim) = st.queued.iter().copied().min_by_key(|id| {
        let deadline = st
            .sessions
            .get(id)
            .and_then(|s| s.spec.deadline)
            .unwrap_or(Duration::MAX);
        (deadline, std::cmp::Reverse(*id))
    }) else {
        return;
    };
    st.queued.retain(|q| *q != victim);
    st.shed += 1;
    trace_mark(
        shared.tracer.as_deref(),
        "sched.shed",
        victim,
        "memory ceiling, EDF victim",
    );
    finish(shared, st, victim, SessionEnd::Shed);
}

/// Terminalize (or start draining) session `id` with reason `end`: record
/// the end, free the driver and accounted memory, release the live slot,
/// admit waiting work, and run the shed check.
fn finish(shared: &Shared, st: &mut State, id: u64, end: SessionEnd) {
    st.end_counter += 1;
    let seq = st.end_counter;
    let released = {
        let State {
            sessions,
            telemetry,
            ..
        } = &mut *st;
        let Some(slot) = sessions.get_mut(&id) else {
            return;
        };
        slot.state = match &end {
            SessionEnd::Completed | SessionEnd::TargetMet { .. } => {
                if slot.reports.is_empty() {
                    SessionState::Done
                } else {
                    SessionState::Draining
                }
            }
            SessionEnd::Cancelled | SessionEnd::Shed => SessionState::Cancelled,
            SessionEnd::Failed(_) => SessionState::Failed,
        };
        trace_mark(
            shared.tracer.as_deref(),
            "sess.finish",
            id,
            &format!("end={} state={}", end.label(), slot.state.as_str()),
        );
        slot.driver = None;
        telemetry.observe_finish(id, &end);
        // Durably mark the session finished ('D' record) so a restart
        // skips it. State lock held → store lock taken: the sanctioned
        // nesting direction.
        if let Some(durable) = &shared.durable {
            match durable.log_finish(id, end.label()) {
                Ok(()) => telemetry.observe_durable(1, 0),
                Err(_) => telemetry.observe_durable(0, 1),
            }
        }
        slot.end = Some(end);
        slot.end_seq = Some(seq);
        slot.finish_elapsed = Some(slot.submit_span.elapsed());
        slot.mem_bytes = 0;
        slot.waiting_buffer = false;
        let released = slot.holds_slot;
        slot.holds_slot = false;
        released
    };
    if released {
        st.live -= 1;
        admit_from_queue(shared, st);
    }
}

/// Whether `policy` is satisfied by the batch just delivered.
fn policy_met(policy: &StopPolicy, report: &BatchReport, slot: &Slot) -> bool {
    match policy {
        StopPolicy::Batches(n) => slot.batches_run >= *n,
        StopPolicy::RelativeCI { target, .. } => report
            .result
            .max_relative_ci_halfwidth()
            .is_some_and(|w| w <= *target),
        StopPolicy::Deadline(d) => slot.first_step.map(|s| s.elapsed() >= *d).unwrap_or(false),
    }
}

/// One worker: pick the first ready session, step it once, bookkeep.
fn worker_loop(shared: Arc<Shared>) {
    loop {
        // Acquire: first key in the ready order, taking driver ownership
        // (and any streaming appends queued since the last step).
        let (id, mut driver, pending) = {
            let mut st = lock(&shared);
            loop {
                if st.shutdown {
                    return;
                }
                if let Some(key) = st.ready.iter().next().copied() {
                    st.ready.remove(&key);
                    // A dangling ready key (session gone, or its driver
                    // already owned elsewhere) is dropped and the scan
                    // resumes — never a worker panic under the state lock.
                    let Some(slot) = st.sessions.get_mut(&key.id) else {
                        continue;
                    };
                    let Some(d) = slot.driver.take() else {
                        continue;
                    };
                    let pending: Vec<String> = slot.pending_appends.drain(..).collect();
                    if slot.state == SessionState::Queued {
                        slot.state = SessionState::Running;
                        slot.first_step = Some(Span::start());
                        trace_mark(
                            shared.tracer.as_deref(),
                            "sess.running",
                            key.id,
                            "first step",
                        );
                    }
                    trace_mark(
                        shared.tracer.as_deref(),
                        "sched.pick",
                        key.id,
                        &format!("rounds={} priority={}", key.rounds, key.priority),
                    );
                    break (key.id, d, pending);
                }
                // The worker park: the one sanctioned unbounded wait in
                // this crate (srclint L006 allowlists exactly this call).
                st = shared.work.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        };

        // Apply drained appends before stepping (outside the lock): the
        // driver grows new mini-batches at its tail, and the 'A' record is
        // written at exactly this point so replay order equals application
        // order. A row batch that fails to parse or coerce is dropped and
        // counted — it never poisons the session.
        let mut appends_applied = 0u64;
        let mut appends_rejected = 0u64;
        let mut durable_ok = 0u64;
        let mut durable_err = 0u64;
        for rows_json in pending {
            let rel = crate::durable::decode_append(&rows_json, driver.stream_schema());
            let applied = rel.and_then(|rel| driver.append_rows(rel).map_err(|e| e.to_string()));
            match applied {
                Ok(_) => {
                    appends_applied += 1;
                    if let Some(durable) = shared.durable.as_deref() {
                        match durable.log_append(id, &rows_json) {
                            Ok(()) => durable_ok += 1,
                            Err(_) => durable_err += 1,
                        }
                    }
                }
                Err(_) => appends_rejected += 1,
            }
        }

        // Step outside the lock: one mini-batch, including any §5.1
        // recovery replays the driver runs internally. The driver has its
        // own catch_unwind around operator code; this outer one is the
        // belt-and-braces that keeps a scheduler worker alive no matter
        // what escapes.
        let step: Result<Option<Result<BatchReport, DriverError>>, _> =
            catch_unwind(AssertUnwindSafe(|| driver.step()));

        // Spill the delivered batch before re-entering the state lock:
        // the rendered report line and the checkpoint fingerprint, plus
        // any injected durable damage (the torn-write / truncated-segment
        // / stale-manifest fault kinds land exactly here, where a real
        // crash or filesystem lie would).
        if let Some(durable) = shared.durable.as_deref() {
            if let Ok(Some(Ok(report))) = &step {
                let torn = driver
                    .fault_injector()
                    .and_then(|f| f.inject_torn_write(report.batch));
                let stale = driver
                    .fault_injector()
                    .and_then(|f| f.inject_stale_manifest(report.batch));
                let chop = driver
                    .fault_injector()
                    .and_then(|f| f.inject_truncated_segment(report.batch));
                let line = crate::tcp::report_json(report);
                match durable.log_report(id, &line, torn) {
                    Ok(()) => durable_ok += 1,
                    Err(_) => durable_err += 1,
                }
                if let Some((digest, bytes)) = driver.checkpoint_for(report.batch) {
                    match durable.log_checkpoint(
                        id,
                        report.batch,
                        digest ^ stale.unwrap_or(0),
                        bytes as u64,
                    ) {
                        Ok(()) => durable_ok += 1,
                        Err(_) => durable_err += 1,
                    }
                }
                if let Some(fraction) = chop {
                    match durable.damage_truncate(id, fraction) {
                        Ok(_) => durable_ok += 1,
                        Err(_) => durable_err += 1,
                    }
                }
            }
        }

        let mut st = lock(&shared);
        let cfg = &shared.cfg;
        let outcome = {
            // If the slot vanished while we stepped (a bookkeeping bug, not
            // a reachable state), drop the orphan driver and move on.
            let State {
                sessions,
                telemetry,
                ..
            } = &mut *st;
            telemetry.observe_durable(durable_ok, durable_err);
            telemetry.observe_appends(appends_applied, appends_rejected);
            let Some(slot) = sessions.get_mut(&id) else {
                continue;
            };
            match step {
                Err(p) => Outcome::Finish(SessionEnd::Failed(iolap_core::faults::panic_message(p))),
                // A drained stream with appends queued behind it is not
                // finished: requeue so the next pick applies them and the
                // driver grows new mini-batches.
                Ok(None) if slot.pending_appends.is_empty() => {
                    Outcome::Finish(SessionEnd::Completed)
                }
                Ok(None) => Outcome::Continue,
                Ok(Some(Err(e))) => Outcome::Finish(SessionEnd::Failed(e.to_string())),
                Ok(Some(Ok(report))) => {
                    slot.batches_run += 1;
                    slot.mem_bytes = driver.checkpoint_footprint().1
                        + report.state_bytes_join
                        + report.state_bytes_other;
                    let done_all = driver.batches_done() >= driver.num_batches();
                    let met = policy_met(&slot.spec.policy, &report, slot);
                    telemetry.observe_batch(
                        id,
                        slot.batches_run,
                        report.result.max_relative_ci_halfwidth(),
                        &report.metrics,
                    );
                    slot.reports.push_back(report);
                    if slot.cancel {
                        Outcome::Finish(SessionEnd::Cancelled)
                    } else if done_all && slot.pending_appends.is_empty() {
                        Outcome::Finish(SessionEnd::Completed)
                    } else if met {
                        Outcome::Finish(SessionEnd::TargetMet {
                            batches: slot.batches_run,
                        })
                    } else {
                        Outcome::Continue
                    }
                }
            }
        };
        match outcome {
            Outcome::Finish(end) => {
                finish(&shared, &mut st, id, end);
            }
            Outcome::Continue => {
                let Some(slot) = st.sessions.get_mut(&id) else {
                    continue;
                };
                slot.driver = Some(driver);
                if slot.reports.len() >= cfg.report_buffer {
                    slot.waiting_buffer = true;
                    trace_mark(
                        shared.tracer.as_deref(),
                        "sess.park",
                        id,
                        "report buffer full",
                    );
                } else {
                    let key = slot.ready_key(id);
                    st.ready.insert(key);
                }
            }
        }
        // One shed victim per scheduling event: pressure that persists
        // keeps shedding on subsequent events, but a single breach never
        // mass-evicts the queue in one sweep.
        shed_over_ceiling(&shared, &mut st);
        drop(st);
        shared.work.notify_all();
        shared.client.notify_all();
    }
}

/// The multi-tenant serving core: a bounded worker pool cooperatively
/// scheduling many concurrent incremental query sessions. See the module
/// docs for the invariants.
pub struct Server {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Server {
    /// Start a server: spawns `cfg.workers` worker threads immediately.
    /// With `cfg.durable_dir` set, opens (or resumes) the durable store;
    /// an unopenable store degrades to in-memory operation with a warning
    /// rather than refusing to serve.
    pub fn new(cfg: ServerConfig) -> Server {
        let durable = cfg.durable_dir.as_ref().and_then(|dir| {
            match DurableStore::open(dir, cfg.durable_fsync) {
                Ok(store) => Some(Arc::new(store)),
                Err(e) => {
                    eprintln!(
                        "iolap-server: durable store at {} disabled: {e}",
                        dir.display()
                    );
                    None
                }
            }
        });
        let shared = Arc::new(Shared {
            tracer: Tracer::from_mode(cfg.trace_mode).map(Arc::new),
            durable,
            cfg: cfg.clone(),
            state: Mutex::new(State {
                next_id: 0,
                end_counter: 0,
                sessions: BTreeMap::new(),
                ready: BTreeSet::new(),
                queued: VecDeque::new(),
                live: 0,
                admitted: 0,
                rejected: 0,
                shed: 0,
                shutdown: false,
                telemetry: Telemetry::default(),
            }),
            work: Condvar::new(),
            client: Condvar::new(),
        });
        let workers = (0..cfg.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(shared))
            })
            .collect();
        Server {
            shared,
            workers: Mutex::new(workers),
        }
    }

    /// Submit a driver as a new session. Returns a handle immediately, or
    /// rejects explicitly when both the live slots and the wait queue are
    /// full — admission never blocks the caller. Sessions submitted this
    /// way carry no origin request and are not recoverable across a
    /// restart; the wire front-end uses [`Server::submit_with_origin`].
    pub fn submit(
        &self,
        driver: IolapDriver,
        spec: SessionSpec,
    ) -> Result<SessionHandle, AdmitError> {
        self.submit_with_origin(driver, spec, None)
    }

    /// [`Server::submit`] with the verbatim submit request recorded in the
    /// durable manifest (`'S'` record), making the session recoverable: a
    /// restarted server re-derives the driver from the origin via its
    /// submit factory and replays the session's event log.
    pub fn submit_with_origin(
        &self,
        driver: IolapDriver,
        spec: SessionSpec,
        origin: Option<&str>,
    ) -> Result<SessionHandle, AdmitError> {
        let cfg = &self.shared.cfg;
        let mut st = lock(&self.shared);
        if st.shutdown {
            return Err(AdmitError::ShuttingDown);
        }
        if st.live >= cfg.max_live && st.queued.len() >= cfg.max_queued {
            st.rejected += 1;
            trace_mark(
                self.shared.tracer.as_deref(),
                "sess.reject",
                st.next_id,
                "live slots and wait queue full",
            );
            return Err(AdmitError::QueueFull {
                live: st.live,
                queued: st.queued.len(),
            });
        }
        if st.next_id == u64::MAX {
            return Err(AdmitError::IdsExhausted);
        }
        let id = st.next_id;
        st.next_id += 1;
        st.admitted += 1;
        let seed = driver.config().seed;
        let total_batches = driver.num_batches();
        let stream_table = driver.stream_table().to_string();
        trace_mark(
            self.shared.tracer.as_deref(),
            "sess.submit",
            id,
            &format!("label={}", spec.label),
        );
        st.telemetry
            .observe_submit(id, &spec.label, total_batches, &spec.policy);
        let mut slot = Slot {
            spec,
            seed,
            total_batches,
            state: SessionState::Queued,
            end: None,
            end_seq: None,
            driver: Some(driver),
            batches_run: 0,
            reports: VecDeque::new(),
            cancel: false,
            waiting_buffer: false,
            holds_slot: false,
            mem_bytes: 0,
            submit_span: Span::start(),
            first_step: None,
            finish_elapsed: None,
            stream_table,
            pending_appends: VecDeque::new(),
            restored: false,
        };
        // Record the admission durably before the session can be stepped
        // (state lock held, so no worker can spill — let alone finish —
        // the session ahead of its 'S' record).
        if let Some(durable) = &self.shared.durable {
            if let Some(origin) = origin {
                match durable.log_submit(id, origin) {
                    Ok(()) => st.telemetry.observe_durable(1, 0),
                    Err(_) => st.telemetry.observe_durable(0, 1),
                }
            }
        }
        if st.live < cfg.max_live {
            st.live += 1;
            slot.holds_slot = true;
            trace_mark(self.shared.tracer.as_deref(), "sess.admit", id, "direct");
            let key = slot.ready_key(id);
            st.sessions.insert(id, slot);
            st.ready.insert(key);
        } else {
            trace_mark(
                self.shared.tracer.as_deref(),
                "sess.queued",
                id,
                "waiting for a slot",
            );
            st.sessions.insert(id, slot);
            st.queued.push_back(id);
        }
        shed_over_ceiling(&self.shared, &mut st);
        drop(st);
        self.shared.work.notify_one();
        Ok(SessionHandle {
            shared: Arc::clone(&self.shared),
            id,
        })
    }

    /// Queue streaming rows (`rows_json`: the canonical `[[...], ...]`
    /// wire form) onto every non-finished session streaming `table`.
    /// Returns how many sessions the append reached — `0` means no live
    /// session streams that table (the wire layer reports
    /// `unknown_table`; the server cannot distinguish a table that does
    /// not exist from one nobody is querying right now).
    ///
    /// Rows are validated against each session's stream schema at apply
    /// time (the next worker pick), not here: a type error surfaces as an
    /// `appends_rejected` telemetry count, never a failed session.
    pub fn append_rows(&self, table: &str, rows_json: &str) -> usize {
        let mut st = lock(&self.shared);
        let mut reached = 0usize;
        let ids: Vec<u64> = st.sessions.keys().copied().collect();
        for id in ids {
            let Some(slot) = st.sessions.get_mut(&id) else {
                continue;
            };
            if slot.end.is_some() || slot.cancel {
                continue;
            }
            if !slot.stream_table.eq_ignore_ascii_case(table) {
                continue;
            }
            slot.pending_appends.push_back(rows_json.to_string());
            reached += 1;
            trace_mark(
                self.shared.tracer.as_deref(),
                "sess.append",
                id,
                &format!("table={table}"),
            );
        }
        drop(st);
        if reached > 0 {
            self.shared.work.notify_all();
            self.shared.client.notify_all();
        }
        reached
    }

    /// Rebuild every live session recorded in the durable manifest: the
    /// origin request is fed back through `factory` (exactly as the wire
    /// `submit` path builds drivers), the session's event log is replayed
    /// through [`IolapDriver::resume_replay`] — re-running each logged
    /// batch and re-applying each logged append at its original position,
    /// verifying checkpoint digests on the way — and the session resumes
    /// from the replayed frontier with its regenerated reports buffered
    /// for `{"op":"resume"}` clients.
    ///
    /// Unreadable or infeasible sessions are skipped (listed in the
    /// returned report), never fatal: recovery restores what the log
    /// supports and leaves the rest to the operator.
    pub fn recover(&self, factory: &crate::tcp::SubmitFactory) -> RecoveryReport {
        let mut report = RecoveryReport::default();
        let Some(durable) = self.shared.durable.clone() else {
            return report;
        };
        let entries = match crate::durable::read_manifest(durable.dir()) {
            Ok(entries) => entries,
            Err(e) => {
                report
                    .skipped
                    .push((u64::MAX, format!("manifest unreadable: {e}")));
                return report;
            }
        };
        for entry in entries {
            if entry.id == u64::MAX {
                // Never a session id (it marks manifest-level failures
                // here, and the id counter stops below it): a damaged
                // record that survived its CRC.
                report
                    .skipped
                    .push((entry.id, "session id out of range".to_string()));
                continue;
            }
            {
                // Ids of recovered (and finished) sessions stay reserved so
                // new submissions never collide with on-disk logs.
                let mut st = lock(&self.shared);
                st.next_id = st.next_id.max(entry.id + 1);
            }
            if entry.end.is_some() {
                continue;
            }
            let id = entry.id;
            let skip = |why: String, report: &mut RecoveryReport| {
                report.skipped.push((id, why));
            };
            let req = match crate::wire::parse(&entry.origin) {
                Ok(req) => req,
                Err(e) => {
                    skip(format!("origin unparsable: {e}"), &mut report);
                    continue;
                }
            };
            let (mut driver, spec) = match factory(&req) {
                Ok(built) => built,
                Err(e) => {
                    skip(format!("factory rejected origin: {e}"), &mut report);
                    continue;
                }
            };
            let records = match crate::durable::read_session_log(durable.dir(), id) {
                Ok(records) => records,
                Err(e) => {
                    skip(format!("session log unreadable: {e}"), &mut report);
                    continue;
                }
            };
            let mut events = Vec::with_capacity(records.len());
            let mut next_batch = 0usize;
            for record in &records {
                match record {
                    crate::durable::LogRecord::Report(_) => {
                        events.push(iolap_core::ReplayEvent::Batch(next_batch));
                        next_batch += 1;
                    }
                    crate::durable::LogRecord::Checkpoint { batch, digest, .. } => {
                        events.push(iolap_core::ReplayEvent::Checkpoint {
                            batch: *batch,
                            digest: *digest,
                        });
                    }
                    crate::durable::LogRecord::Append(rows_json) => {
                        match crate::durable::decode_append(rows_json, driver.stream_schema()) {
                            Ok(rel) => events.push(iolap_core::ReplayEvent::Append(rel)),
                            Err(e) => {
                                // An append that replayed fine when first
                                // applied should replay fine now; a decode
                                // failure means a damaged record survived
                                // CRC (or a schema change) — skip the whole
                                // session rather than resume divergent.
                                skip(format!("append record undecodable: {e}"), &mut report);
                                events.clear();
                                break;
                            }
                        }
                    }
                }
            }
            if events.is_empty() && !records.is_empty() {
                continue;
            }
            let outcome = match driver.resume_replay(&events) {
                Ok(outcome) => outcome,
                Err(e) => {
                    skip(format!("replay failed: {e}"), &mut report);
                    continue;
                }
            };
            report.replayed_batches += outcome.replayed_batches;
            report.reapplied_appends += outcome.reapplied_appends;
            report.stale_digests += outcome.stale_digests;

            let cfg = &self.shared.cfg;
            let mut st = lock(&self.shared);
            if st.shutdown {
                skip("server shutting down".to_string(), &mut report);
                continue;
            }
            st.admitted += 1;
            st.telemetry
                .observe_submit(id, &spec.label, driver.num_batches(), &spec.policy);
            st.telemetry.observe_resume(
                outcome.replayed_batches as u64,
                outcome.reapplied_appends as u64,
                outcome.stale_digests as u64,
            );
            trace_mark(
                self.shared.tracer.as_deref(),
                "sess.resume",
                id,
                &format!(
                    "replayed={} appends={} stale_digests={}",
                    outcome.replayed_batches, outcome.reapplied_appends, outcome.stale_digests
                ),
            );
            let batches_run = outcome.replayed_batches;
            let done_all = driver.batches_done() >= driver.num_batches();
            let seed = driver.config().seed;
            let stream_table = driver.stream_table().to_string();
            let mut slot = Slot {
                spec,
                seed,
                total_batches: driver.num_batches(),
                state: if batches_run > 0 {
                    SessionState::Running
                } else {
                    SessionState::Queued
                },
                end: None,
                end_seq: None,
                driver: Some(driver),
                batches_run,
                reports: outcome.reports.into(),
                cancel: false,
                waiting_buffer: false,
                holds_slot: false,
                mem_bytes: 0,
                submit_span: Span::start(),
                first_step: if batches_run > 0 {
                    Some(Span::start())
                } else {
                    None
                },
                finish_elapsed: None,
                stream_table,
                pending_appends: VecDeque::new(),
                restored: true,
            };
            let met = slot
                .reports
                .back()
                .map(|r| policy_met(&slot.spec.policy, r, &slot))
                .unwrap_or(false);
            if done_all || met {
                // The crash fell after the session's last step but before
                // its 'D' record: finish it now (writing the 'D'), leaving
                // the regenerated reports drainable.
                let end = if done_all {
                    SessionEnd::Completed
                } else {
                    SessionEnd::TargetMet {
                        batches: batches_run,
                    }
                };
                st.sessions.insert(id, slot);
                finish(&self.shared, &mut st, id, end);
            } else if st.live < cfg.max_live {
                st.live += 1;
                slot.holds_slot = true;
                if slot.reports.len() >= cfg.report_buffer {
                    // The regenerated backlog already fills the report
                    // buffer: park exactly as the uninterrupted run would
                    // have, resuming compute as the client drains.
                    slot.waiting_buffer = true;
                    trace_mark(
                        self.shared.tracer.as_deref(),
                        "sess.park",
                        id,
                        "restored with a full report buffer",
                    );
                    st.sessions.insert(id, slot);
                } else {
                    trace_mark(self.shared.tracer.as_deref(), "sess.admit", id, "restored");
                    let key = slot.ready_key(id);
                    st.sessions.insert(id, slot);
                    st.ready.insert(key);
                }
            } else {
                trace_mark(
                    self.shared.tracer.as_deref(),
                    "sess.queued",
                    id,
                    "restored, waiting for a slot",
                );
                st.sessions.insert(id, slot);
                st.queued.push_back(id);
            }
            drop(st);
            report.resumed.push(id);
        }
        self.shared.work.notify_all();
        self.shared.client.notify_all();
        report
    }

    /// Attach to a session restored by [`Server::recover`]. Distinguishes
    /// a restorable session from one the durable manifest already saw
    /// finish (its `'D'` record exists — there is nothing to resume) and
    /// from an id the manifest never admitted.
    pub fn resume_session(&self, id: u64) -> ResumeStatus {
        {
            let st = lock(&self.shared);
            if let Some(slot) = st.sessions.get(&id) {
                if slot.restored {
                    return ResumeStatus::Attached(SessionHandle {
                        shared: Arc::clone(&self.shared),
                        id,
                    });
                }
                return ResumeStatus::Unknown;
            }
        }
        if let Some(durable) = &self.shared.durable {
            if let Ok(entries) = crate::durable::read_manifest(durable.dir()) {
                if let Some(entry) = entries.iter().rev().find(|e| e.id == id) {
                    if let Some(end) = &entry.end {
                        return ResumeStatus::Finished(end.clone());
                    }
                }
            }
        }
        ResumeStatus::Unknown
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ServerStats {
        let st = lock(&self.shared);
        ServerStats {
            live: st.live,
            queued: st.queued.len(),
            admitted: st.admitted,
            rejected: st.rejected,
            shed: st.shed,
            mem_bytes: live_mem(&st),
        }
    }

    /// The server's sizing config.
    pub fn config(&self) -> &ServerConfig {
        &self.shared.cfg
    }

    /// Snapshot of the scheduler trace journal, in sequence order (empty
    /// when tracing is off). Pass through
    /// [`crate::telemetry::canonical_trace`] before byte comparison.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.shared
            .tracer
            .as_ref()
            .map(|t| t.events())
            .unwrap_or_default()
    }

    /// Clone of the fleet telemetry rollups (sessions, tenants, SLO burn
    /// counters), taken under the scheduler lock.
    pub fn telemetry(&self) -> Telemetry {
        lock(&self.shared).telemetry.clone()
    }

    /// Prometheus-style text exposition of the fleet state, rendered from
    /// one consistent snapshot (telemetry and admission counters read
    /// under a single lock acquisition). `canonical` excludes wall-clock
    /// and shard-topology families for byte-deterministic comparison.
    pub fn exposition(&self, canonical: bool) -> String {
        let st = lock(&self.shared);
        let stats = ServerStats {
            live: st.live,
            queued: st.queued.len(),
            admitted: st.admitted,
            rejected: st.rejected,
            shed: st.shed,
            mem_bytes: live_mem(&st),
        };
        crate::telemetry::render_exposition(&st.telemetry, &stats, canonical)
    }

    /// Stop the workers after their in-flight steps and join them.
    /// Unfinished sessions stay in whatever state they reached; buffered
    /// reports remain drainable.
    pub fn shutdown(&self) {
        {
            let mut st = lock(&self.shared);
            st.shutdown = true;
        }
        self.shared.work.notify_all();
        self.shared.client.notify_all();
        let mut workers = self.workers.lock().unwrap_or_else(PoisonError::into_inner);
        for w in workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("Server")
            .field("workers", &self.shared.cfg.workers)
            .field("stats", &stats)
            .finish()
    }
}
